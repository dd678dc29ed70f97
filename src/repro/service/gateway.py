"""The query gateway: admission, dispatch, deadlines, and degradation.

:class:`QueryGateway` is the serving front door over one
:class:`~repro.engine.smpe.SmpeEngine`.  Every submission passes the same
state machine::

    submit -> [reject | backpressure]            admission control
           -> queued                             FairScheduler (lane + WFQ)
           -> [shed | expire]                    overload / deadline in queue
           -> running [degraded?]                dispatch, cheaper plan if hot
           -> [completed | cancelled | failed]   engine outcome

Admission refuses work only at explicit limits: ``rejected`` when the
tenant is over its own queue share, ``backpressure`` when the global
queue is full and nothing lower-priority can be shed to make room.
Between admission and dispatch the :class:`~repro.service.shedding.
OverloadPolicy` ladder applies: past ``degrade_depth`` requests carrying
a cheaper plan variant run that instead; past ``shed_depth`` queued
background work is dropped newest-first.  Admitted jobs may carry a
deadline — expiry drops them from the queue, or cancels them mid-stage
through the engine's cooperative :meth:`~repro.engine.smpe.JobHandle.
cancel` path (the job keeps its partial rows; no exception propagates).

Everything the gateway does is an ordinary simulated process on the
cluster's timeline, so serving behaviour is exactly as deterministic as
the engine underneath — and with a single uncontended job the gateway
adds zero simulated time: its wake/watch events fire at the same instants
the engine's own events do, so the served result is bit-identical to
direct engine submission.

Background work (index builds, scrub passes, repairs) enters through
:class:`BackgroundWork` adapters — :func:`background_build`,
:func:`background_scrub`, :func:`background_repair` — which wrap the
core workers' process generators so maintenance competes for serving
slots on the background lane instead of running on a private timeline.
The core workers never import this package; the dependency points
strictly downward.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.simulation import Event
from repro.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.core.catalog import StructureCatalog
from repro.core.job import Job
from repro.core.maintenance import MaintenanceWorker
from repro.core.scrub import ScrubReport, ScrubWorker
from repro.engine.access import stamp_watermark
from repro.engine.metrics import ExecutionMetrics, JobResult
from repro.engine.smpe import JobHandle, SmpeEngine
from repro.errors import ExecutionError
from repro.service.result_cache import SemanticResultCache
from repro.service.scheduler import LANES, FairScheduler, QueuedRequest
from repro.service.shedding import OverloadPolicy, ServiceDecision
from repro.service.tenants import ServiceMetrics, TenantSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import TopologyController
    from repro.ingest.compaction import Compactor
    from repro.ingest.coordinator import IngestBatch, IngestCoordinator

__all__ = ["BackgroundWork", "QueryGateway", "ServiceTicket",
           "background_build", "background_compaction", "background_ingest",
           "background_rebalance", "background_repair", "background_scrub"]

logger = logging.getLogger("repro.service")

#: every state a ticket can end (or pass) through
_TICKET_STATES = ("queued", "running", "completed", "rejected",
                  "backpressure", "shed", "expired", "cancelled", "failed")


@dataclass
class BackgroundWork:
    """A unit of background maintenance submittable to the gateway.

    ``make`` returns a fresh process generator each time it is called —
    the gateway only calls it at dispatch, so work that was shed (or
    expired in queue) never touches the cluster, and a resubmitted copy
    starts clean.  ``on_complete`` runs (synchronously, zero simulated
    time) when the process finishes.
    """

    name: str
    make: Callable[[], Generator]
    on_complete: Optional[Callable[[], None]] = None


@dataclass
class ServiceTicket:
    """One submission's journey through the gateway.

    ``state`` walks the machine documented in the module docstring;
    terminal states fire ``done`` so callers (and open-loop drivers) can
    wait on any mix of tickets with ``sim.all_of``.
    """

    tenant: str
    name: str
    lane: str
    arrival: float
    done: Event
    #: absolute simulated deadline, or None
    deadline: Optional[float] = None
    state: str = "queued"
    dispatched_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: True when the degraded (cheaper) plan variant was dispatched
    degraded: bool = False
    #: engine result of a dispatched job (partial rows if cancelled)
    result: Optional[JobResult] = None
    #: fatal engine exception of a failed job
    error: Optional[BaseException] = None
    #: the job (or its fallback) this ticket will run; None for work
    job: Optional[Job] = None
    fallback_job: Optional[Job] = None
    work: Optional[BackgroundWork] = None
    #: engine handle once dispatched (jobs only)
    handle: Optional[JobHandle] = None
    #: scheduler entry while queued
    request: Optional[QueuedRequest] = None
    #: True when the mid-run cancellation came from the deadline watcher
    deadline_hit: bool = field(default=False, repr=False)
    #: True when the result came straight from the semantic cache
    served_from_cache: bool = False

    @property
    def admitted(self) -> bool:
        return self.state not in ("rejected", "backpressure")

    @property
    def finished(self) -> bool:
        return self.state not in ("queued", "running")

    @property
    def latency(self) -> Optional[float]:
        """Arrival to finish, once finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.arrival


class QueryGateway:
    """Admission-controlled, weighted-fair serving over one SMPE engine.

    Parameters:
        max_concurrent: engine jobs (or background work units) allowed
            in flight at once — the serving slots the scheduler fills.
        global_queue_limit: admitted-but-undispatched requests allowed
            across all tenants; beyond it, arrivals are backpressured
            (interactive arrivals first try to shed queued background
            work to make room).
        policy: the overload ladder (degrade / shed thresholds).
        result_cache: optional :class:`~repro.service.result_cache.
            SemanticResultCache`; submissions whose job matches a cached
            (or subsumed) result complete instantly at zero simulated
            cost, and completed undegraded jobs populate it.  The cache
            registers with the catalog's result-invalidation fan-out, so
            ingest commits, compaction, builds and rebalance all drop
            affected entries.  ``None`` (the default) changes nothing.
    """

    def __init__(self, cluster: Cluster, catalog: StructureCatalog,
                 config: EngineConfig = DEFAULT_ENGINE_CONFIG, *,
                 max_concurrent: int = 4,
                 global_queue_limit: int = 64,
                 policy: Optional[OverloadPolicy] = None,
                 decision_log_limit: int = 4096,
                 result_cache: Optional[SemanticResultCache] = None) -> None:
        if max_concurrent < 1:
            raise ExecutionError(
                f"max_concurrent must be >= 1, got {max_concurrent}")
        if global_queue_limit < 1:
            raise ExecutionError(
                f"global_queue_limit must be >= 1, got {global_queue_limit}")
        if decision_log_limit < 1:
            raise ExecutionError(
                f"decision_log_limit must be >= 1, got {decision_log_limit}")
        self.cluster = cluster
        self.catalog = catalog
        self.engine = SmpeEngine(cluster, catalog, config)
        self.max_concurrent = max_concurrent
        self.global_queue_limit = global_queue_limit
        self.policy = policy if policy is not None else OverloadPolicy()
        self.result_cache = result_cache
        if result_cache is not None:
            result_cache.attach(catalog)
        self.scheduler = FairScheduler()
        self.tenants: dict[str, TenantSpec] = {}
        self.metrics: dict[str, ServiceMetrics] = {}
        #: ring-buffer ledger of recent serving decisions; long-lived
        #: streaming gateways would otherwise grow it without bound
        self.decisions: deque[ServiceDecision] = deque(
            maxlen=decision_log_limit)
        #: decisions evicted from the full ring (oldest-first)
        self.decisions_dropped = 0
        self._running = 0
        self._ticket_seq = 0
        self._wake: Optional[Event] = None
        self._closed = False
        cluster.launch(self._dispatch_loop(), name="gateway")

    # -- tenants ---------------------------------------------------------

    def register(self, spec: TenantSpec) -> TenantSpec:
        """Register a tenant; idempotent for an already-known name."""
        if spec.name not in self.tenants:
            self.tenants[spec.name] = spec
            self.metrics[spec.name] = ServiceMetrics(tenant=spec.name)
            self.scheduler.register(spec)
        return self.tenants[spec.name]

    # -- submission ------------------------------------------------------

    def submit(self, tenant: str, job: Optional[Job] = None, *,
               work: Optional[BackgroundWork] = None,
               lane: Optional[str] = None,
               deadline: Optional[float] = None,
               cost_hint: float = 1.0,
               fallback_job: Optional[Job] = None,
               name: Optional[str] = None) -> ServiceTicket:
        """Submit one job (or one unit of background work) for ``tenant``.

        ``deadline`` is relative simulated seconds from now; expiry sheds
        the request from the queue or cancels it cooperatively mid-stage.
        ``fallback_job`` is the cheaper plan variant dispatched instead of
        ``job`` while the gateway is at overload level >= 1.  The returned
        ticket is final immediately for refused work (``rejected`` /
        ``backpressure``); otherwise its ``done`` event fires on any
        terminal state.
        """
        if (job is None) == (work is None):
            raise ExecutionError(
                "submit needs exactly one of job= or work=")
        spec = self.tenants.get(tenant)
        if spec is None:
            raise ExecutionError(f"unregistered tenant {tenant!r}")
        if deadline is not None and deadline <= 0:
            raise ExecutionError(f"deadline must be > 0, got {deadline}")
        if cost_hint <= 0:
            raise ExecutionError(f"cost_hint must be > 0, got {cost_hint}")
        if lane is None:
            lane = LANES[0] if job is not None else LANES[-1]
        sim = self.cluster.sim
        now = sim.now
        tracker = self.metrics[tenant]
        tracker.note_arrival(now)
        self._ticket_seq += 1
        carried = job.name if job is not None else (
            work.name if work is not None else "")
        ticket = ServiceTicket(
            tenant=tenant, lane=lane, arrival=now, done=sim.event(),
            name=name or carried or f"request-{self._ticket_seq}",
            deadline=None if deadline is None else now + deadline,
            job=job, fallback_job=fallback_job, work=work)

        # Admission rung 0: the semantic result cache.  A hit completes
        # the ticket on the spot — no queue entry, no serving slot, zero
        # simulated time — with a fresh metrics envelope so tenant
        # aggregates still reconcile.
        if job is not None and self.result_cache is not None:
            rows = self.result_cache.lookup(job, self._cache_token())
            if rows is not None:
                tracker.admitted += 1
                ticket.state = "completed"
                ticket.served_from_cache = True
                ticket.dispatched_at = now
                ticket.finished_at = now
                metrics = ExecutionMetrics()
                metrics.result_cache_hits = 1
                stamp_watermark(metrics, self.catalog)
                ticket.result = JobResult(list(rows), metrics)
                tracker.queue_waits.append(0.0)
                tracker.note_completion(now, now)
                tracker.engine.merge(metrics)
                self._decide("cache-hit", ticket, None)
                ticket.done.succeed()
                return ticket
            self.result_cache.prepare_job(job)
            if fallback_job is not None:
                self.result_cache.prepare_job(fallback_job)

        # Admission rung 1: the tenant's own queue share.
        if self.scheduler.depth(tenant) >= spec.max_queued:
            return self._refuse(ticket, "rejected",
                                f"tenant queue at limit {spec.max_queued}")
        # Admission rung 2: the global queue.  An interactive arrival may
        # displace queued background work; anything else waits its turn.
        if len(self.scheduler) >= self.global_queue_limit:
            victim = None
            if lane == LANES[0]:
                victim = self.scheduler.shed_one(protect_lane=LANES[0])
            if victim is None:
                return self._refuse(
                    ticket, "backpressure",
                    f"global queue at limit {self.global_queue_limit}")
            self._mark_shed(victim, "displaced by interactive arrival")

        tracker.admitted += 1
        request = QueuedRequest(tenant=tenant, lane=lane,
                                cost_hint=cost_hint, arrival=now,
                                payload=ticket)
        ticket.request = request
        self.scheduler.enqueue(request)
        self._decide("admit", ticket, None)
        # Overload level 2: shed queued background work, newest first,
        # until the backlog is back under the shed threshold.
        while (self.policy.level(len(self.scheduler)) >= 2):
            victim = self.scheduler.shed_one(protect_lane=LANES[0])
            if victim is None:
                break
            self._mark_shed(
                victim, f"overload: queue depth {len(self.scheduler) + 1} "
                f">= {self.policy.shed_depth}")
        self._kick()
        return ticket

    def _cache_token(self) -> tuple:
        """Lake-state fingerprint for cache keys: the catalog version
        (bumped by every data-plane mutation, so it subsumes the
        freshness watermark) plus the placement epoch."""
        topology = self.cluster.topology
        epoch = None if topology is None else topology.epoch
        return (self.catalog.version, epoch)

    def _refuse(self, ticket: ServiceTicket, state: str,
                reason: str) -> ServiceTicket:
        ticket.state = state
        ticket.finished_at = self.cluster.sim.now
        tracker = self.metrics[ticket.tenant]
        if state == "rejected":
            tracker.rejected += 1
        else:
            tracker.backpressured += 1
        self._decide(state if state != "rejected" else "reject",
                     ticket, reason)
        ticket.done.succeed()
        return ticket

    # -- the dispatch loop -----------------------------------------------

    def _dispatch_loop(self):
        sim = self.cluster.sim
        while not self._closed:
            while self._running < self.max_concurrent:
                item = self.scheduler.next()
                if item is None:
                    break
                ticket: ServiceTicket = item.payload
                if (ticket.deadline is not None
                        and sim.now >= ticket.deadline):
                    self._expire_queued(ticket)
                    continue
                self._dispatch(ticket)
            self._wake = sim.event()
            yield self._wake

    def _kick(self) -> None:
        """Wake the dispatch loop if it is parked."""
        wake, self._wake = self._wake, None
        if wake is not None:
            wake.succeed()

    def _dispatch(self, ticket: ServiceTicket) -> None:
        sim = self.cluster.sim
        now = sim.now
        tracker = self.metrics[ticket.tenant]
        ticket.state = "running"
        ticket.dispatched_at = now
        tracker.queue_waits.append(now - ticket.arrival)
        self._running += 1
        if ticket.work is not None:
            proc = self.cluster.launch(ticket.work.make(),
                                       name=f"svc:{ticket.name}")
            self.cluster.launch(self._watch_work(ticket, proc),
                                name=f"svc-watch:{ticket.name}")
            return
        job = ticket.job
        assert job is not None
        if (ticket.fallback_job is not None
                and self.policy.level(len(self.scheduler)) >= 1):
            job = ticket.fallback_job
            ticket.degraded = True
            tracker.degraded += 1
            self._decide("degrade", ticket,
                         f"queue depth {len(self.scheduler)} >= "
                         f"{self.policy.degrade_depth}")
        handle = self.engine.submit_handle(job, propagate_errors=False)
        ticket.handle = handle
        self.cluster.launch(self._watch_job(ticket, handle),
                            name=f"svc-watch:{ticket.name}")

    # -- per-request watchers --------------------------------------------

    def _watch_job(self, ticket: ServiceTicket, handle: JobHandle):
        sim = self.cluster.sim
        if ticket.deadline is not None:
            timer = sim.timeout(ticket.deadline - sim.now)
            index, __ = yield sim.any_of([handle.completion, timer])
            if index == 1 and not handle.completion.triggered:
                ticket.deadline_hit = True
                handle.cancel("deadline exceeded")
                self._decide("cancel", ticket, "deadline passed mid-stage")
            if not handle.completion.triggered:
                yield handle.completion
        else:
            yield handle.completion
        self._finish_job(ticket, handle)

    def _finish_job(self, ticket: ServiceTicket,
                    handle: JobHandle) -> None:
        now = self.cluster.sim.now
        tracker = self.metrics[ticket.tenant]
        ticket.finished_at = now
        ticket.result = handle.result
        if handle.error is not None:
            ticket.state = "failed"
            ticket.error = handle.error
            tracker.failed += 1
        elif handle.result.cancelled:
            ticket.state = "cancelled"
            if ticket.deadline_hit:
                tracker.expired_running += 1
        else:
            ticket.state = "completed"
            tracker.note_completion(ticket.arrival, now)
        if (self.result_cache is not None and ticket.job is not None
                and handle.result is not None):
            self._cache_finish(ticket, handle.result)
        tracker.engine.merge(handle.result.metrics)
        self._release(ticket)

    def _cache_finish(self, ticket: ServiceTicket,
                      result: JobResult) -> None:
        """Populate the cache from a finished job — and always strip the
        in-flight provenance key so served rows are bit-identical to a
        cacheless gateway's."""
        cache = self.result_cache
        assert cache is not None and ticket.job is not None
        if (ticket.state == "completed" and result.complete
                and not ticket.degraded):
            result.rows[:] = cache.insert(ticket.job, result.rows,
                                          self._cache_token())
        else:
            result.rows[:] = cache.strip_rows(result.rows)

    def _watch_work(self, ticket: ServiceTicket, proc: Event):
        yield proc
        now = self.cluster.sim.now
        ticket.finished_at = now
        ticket.state = "completed"
        self.metrics[ticket.tenant].note_completion(ticket.arrival, now)
        if ticket.work is not None and ticket.work.on_complete is not None:
            ticket.work.on_complete()
        self._release(ticket)

    def _release(self, ticket: ServiceTicket) -> None:
        self._running -= 1
        ticket.done.succeed()
        self._kick()

    # -- cancellation / queue drops --------------------------------------

    def cancel(self, ticket: ServiceTicket,
               reason: str = "cancelled by caller") -> bool:
        """Cancel a queued or running ticket; True if it took effect.

        A queued ticket leaves the scheduler immediately; a running job
        is cancelled cooperatively through its engine handle (its
        watcher then settles the ticket).  Running background work is
        not interruptible.
        """
        if ticket.state == "queued" and ticket.request is not None:
            if not self.scheduler.remove(ticket.request):
                return False
            ticket.state = "cancelled"
            ticket.finished_at = self.cluster.sim.now
            self._decide("cancel", ticket, reason)
            ticket.done.succeed()
            return True
        if ticket.state == "running" and ticket.handle is not None:
            if ticket.handle.cancel(reason):
                self._decide("cancel", ticket, reason)
                return True
        return False

    def _expire_queued(self, ticket: ServiceTicket) -> None:
        now = self.cluster.sim.now
        ticket.state = "expired"
        ticket.finished_at = now
        self.metrics[ticket.tenant].expired_queued += 1
        self._decide("expire", ticket, "deadline passed in queue")
        ticket.done.succeed()

    def _mark_shed(self, request: QueuedRequest, reason: str) -> None:
        ticket: ServiceTicket = request.payload
        ticket.state = "shed"
        ticket.finished_at = self.cluster.sim.now
        self.metrics[ticket.tenant].shed += 1
        self._decide("shed", ticket, reason)
        ticket.done.succeed()

    def _decide(self, action: str, ticket: ServiceTicket,
                reason: Optional[str]) -> None:
        if (self.decisions.maxlen is not None
                and len(self.decisions) == self.decisions.maxlen):
            self.decisions_dropped += 1
        self.decisions.append(ServiceDecision(
            time=self.cluster.sim.now, action=action,
            tenant=ticket.tenant, request=ticket.name, reason=reason))

    # -- inspection / teardown -------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self.scheduler)

    @property
    def running(self) -> int:
        return self._running

    def engine_totals(self) -> ExecutionMetrics:
        """Every tenant's engine ledger folded into one: equals the
        :meth:`ExecutionMetrics.merge` fold of every job the gateway
        finished (completed, cancelled mid-stage, or failed)."""
        totals = ExecutionMetrics()
        for tracker in self.metrics.values():
            totals.merge(tracker.engine)
        return totals

    def close(self) -> None:
        """Retire the dispatch loop (nothing queued is touched)."""
        self._closed = True
        self._kick()


# -- background-work adapters --------------------------------------------
#
# The core workers (repro.core.maintenance / repro.core.scrub, the ingest
# coordinator and the compactor) expose process generators that own their
# idempotence guards: each returns at once when its work is already done,
# so a shed-then-resubmitted unit, or two queued copies, stay harmless.
# These adapters only name them for the gateway's background lane,
# without the core layer ever importing the service layer.

def background_build(worker: MaintenanceWorker, name: str) -> BackgroundWork:
    """One checkpointed index build as gateway background work.

    Runs :meth:`MaintenanceWorker.materialize_job` on the shared timeline:
    a node crash mid-build leaves the structure resumable, exactly like
    :meth:`MaintenanceWorker.run_pending`.
    """
    if worker.cluster is None:
        raise ExecutionError("background_build needs a clustered worker")
    return BackgroundWork(name=f"build:{name}",
                          make=lambda: worker.materialize_job(name))


def background_scrub(worker: ScrubWorker, name: str,
                     report: ScrubReport) -> BackgroundWork:
    """One structure's scrub pass as gateway background work.

    Samples and verifies on the shared timeline and demotes on findings
    (see :meth:`ScrubWorker.scrub_job`); repair is submitted separately
    via :func:`background_repair` so the scheduler can interleave other
    work between detection and the (much costlier) rebuild.
    """
    return BackgroundWork(name=f"scrub:{name}",
                          make=lambda: worker.scrub_job(name, report))


def background_ingest(coordinator: "IngestCoordinator",
                      batch: "IngestBatch") -> BackgroundWork:
    """One staged micro-batch's delta flush as gateway background work.

    Runs :meth:`IngestCoordinator.flush_job` on the shared timeline: a
    node crash mid-flush leaves the batch BUILDING with its checkpoints,
    so a resubmitted copy pays only the remainder.
    """
    if coordinator.cluster is None:
        raise ExecutionError("background_ingest needs a clustered "
                             "coordinator")
    return BackgroundWork(
        name=f"ingest:{batch.micro.file_name}#{batch.batch_id}",
        make=lambda: coordinator.flush_job(batch))


def background_compaction(compactor: "Compactor", file_name: str,
                          tier: str) -> BackgroundWork:
    """One tiered delta→base compaction as gateway background work.

    Runs :meth:`Compactor.compaction_job` on the shared timeline; a crash
    mid-major-compaction keeps its per-partition checkpoints in the delta
    registry.
    """
    if compactor.cluster is None:
        raise ExecutionError("background_compaction needs a clustered "
                             "compactor")
    return BackgroundWork(
        name=f"compact-{tier}:{file_name}",
        make=lambda: compactor.compaction_job(file_name, tier))


def background_rebalance(controller: "TopologyController"
                         ) -> BackgroundWork:
    """One topology rebalance pass as gateway background work.

    Dispatch runs the controller's charged, throttled migration
    generator on the shared timeline, competing for serving slots on
    the background lane — the elasticity path's equivalent of a
    checkpointed build.  A no-op at dispatch time if placement already
    matches the target topology: unlike the other generators,
    :meth:`~repro.cluster.topology.Rebalancer.job` reports convergence
    even when nothing moves, so the check lives here.  A crash mid-pass
    leaves the catalog consistent: a resubmitted copy recomputes the
    diff and pays only the unmoved partitions.
    """

    def make() -> Generator:
        if controller.converged:
            return
        yield from controller.rebalance_job()

    return BackgroundWork(name="rebalance", make=make)


def background_repair(worker: ScrubWorker, name: str) -> BackgroundWork:
    """One sick structure's rebuild as gateway background work (see
    :meth:`ScrubWorker.repair_job`)."""
    return BackgroundWork(name=f"repair:{name}",
                          make=lambda: worker.repair_job(name))
