"""Scalable Massively Parallel Execution — Algorithm 1 of the paper.

The execution model (paper Fig. 6): "ReDe divides a data processing job into
multiple stages and executes one of the given functions (i.e., *Referencer*
and *Dereferencer*) in each stage.  Each stage has an input queue and an
output queue, and the output queue of one stage is the input queue of the
next stage."  As in the pseudocode, each node runs one dispatcher over a
single queue of stage-tagged inputs; every dereference invocation gets its
own (pooled) thread, so parallelism is discovered dynamically from the data
rather than fixed up front.

Mapping to Algorithm 1:

==============================  =============================================
Pseudocode                      Here
==============================  =============================================
``EXECUTESMPE`` (lines 1-7)     :meth:`SmpeEngine.execute` — launch
                                ``EXECUTESMPEEACH`` on every node, wait
``EXECUTESMPEEACH`` (8-18)      :meth:`SmpeEngine._node_main`
``EXECUTEINITIALSTAGE`` (19-24) :meth:`SmpeEngine._initial_stage`
``EXECUTESTAGES`` (25-42)       :meth:`SmpeEngine._dispatcher` — the
                                dequeue loop, broadcast handling
                                (lines 28-33), null-func handling (36-38,
                                reinterpreted as result collection), and
                                per-dispatch threads (39-40)
``EXECUTEFUNC`` (43-52)         :meth:`SmpeEngine._execute_dereferencer` /
                                :meth:`SmpeEngine._execute_referencer` —
                                run the function, push emitted outputs to
                                the next stage's queue entries
==============================  =============================================

Simulated threads come from a per-node pool ("ReDe manages threads in a
thread pool and reuses them ... 1000 threads in the default setting").
Referencers run inline on the dispatching thread by default ("ReDe does not
switch threads for *Referencers* ... to avoid excessive context
switching"); ``EngineConfig.inline_referencers=False`` restores per-call
dispatch, paying ``thread_switch_time`` — the ablation benchmark flips this
switch.

Fault tolerance
---------------

Every dereference goes through
:func:`~repro.engine.access.recovering_dereference` (retries with capped
exponential backoff, per-invocation timeouts, crash re-routing), and the
control plane absorbs permanent node crashes: a crash listener drains the
dead node's stage queue into the survivor that adopted its partitions
(queue entries remember their ``home_node`` so ``LOCAL`` partition
resolution still refers to the dead node's share), and all later routing
goes through :meth:`~repro.cluster.cluster.Cluster.serving_node`.  What a
run cannot complete is governed by ``EngineConfig.on_error``: ``fail``
aborts on the first fault, ``retry`` aborts when the retry budget is
exhausted, ``skip`` drops the failing work unit and records it in the
job's :class:`~repro.engine.metrics.FailureReport`.  Aborts are
cooperative — the failing unit parks the original exception, the task
tracker is force-finished so every process drains, and the job process
re-raises the exception so callers see the same propagation behaviour as a
direct raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.cluster.cluster import Cluster
from repro.cluster.simulation import Event, Resource, Store, any_of
from repro.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.core.catalog import StructureCatalog
from repro.core.functions import Dereferencer, Referencer
from repro.core.job import Job, OutputRow
from repro.core.pointers import Pointer, PointerRange
from repro.core.records import Record
from repro.engine.access import (close_job_metrics, initial_probe_pids,
                                 open_job_metrics, recovering_dereference,
                                 resolve_partitions, unit_failed,
                                 unwatch_node_loss, watch_node_loss)
from repro.engine.metrics import ExecutionMetrics, FailureReport, JobResult
from repro.errors import ExecutionError, NodeCrashed

__all__ = ["JobHandle", "SmpeEngine"]

_SENTINEL = object()


@dataclass
class JobHandle:
    """Control handle over one submitted SMPE job.

    Returned by :meth:`SmpeEngine.submit_handle`; the serving gateway
    holds one per in-flight job.  ``completion`` is the job process's
    event; ``result`` fills in as the simulation advances.  ``error``
    carries the fatal exception of a job submitted with
    ``propagate_errors=False`` (instead of re-raising out of the
    simulation drive loop, which would take every concurrent job down
    with it).
    """

    job: Job
    completion: Event
    result: JobResult
    _engine: "SmpeEngine"
    _state: "_RunState"
    #: fatal exception of a non-propagating job, else None
    error: Optional[BaseException] = None

    def cancel(self, reason: str = "cancelled by caller") -> bool:
        """Cooperatively abort the job; True if the cancel took effect.

        Reuses the abort machinery: the task tracker is force-finished so
        every dispatcher drains its queue without dispatching, in-flight
        dereferences stop at their next partition boundary (their retry
        loops abandon pending backoff), and the job completes with its
        partial rows and ``result.cancelled`` set — no exception
        propagates.  A no-op on a job that already finished.
        """
        if self.completion.triggered or self._state.cancelled:
            return False
        self.result.cancelled = True
        self._state.cancel_reason = reason
        self._engine._cancel(self._state)
        return True


@dataclass(slots=True)
class _StageInput:
    """One queue entry: Algorithm 1's ``input`` with its ``stage`` tag."""

    stage: int
    payload: Union[Record, Pointer, PointerRange]
    context: Mapping[str, Any]
    #: set after broadcast materialization (``SETPARTITION(input, LOCAL)``)
    local_only: bool = False
    #: logical node whose partition share this entry refers to; set when a
    #: crash re-routes the entry so LOCAL resolution still means "the dead
    #: node's partitions" on the adopting survivor
    home_node: Optional[int] = None


class _TaskTracker:
    """Counts in-flight stage inputs; fires ``done`` at zero.

    Guard tokens held by each node's initial stage prevent a transient zero
    before any outputs exist.  After the job finishes — naturally or via
    :meth:`force_finish` on abort — the tracker goes inert: late
    bookkeeping from draining processes is a no-op instead of an error.
    """

    def __init__(self, done: Event) -> None:
        self._count = 0
        self._done = done
        self._finished = False

    def inc(self, amount: int = 1) -> None:
        if self._finished:
            return
        self._count += amount

    def dec(self, amount: int = 1) -> None:
        if self._finished:
            return
        self._count -= amount
        if self._count < 0:
            raise ExecutionError("task tracker went negative")
        if self._count == 0:
            self._finished = True
            self._done.succeed()

    def force_finish(self) -> None:
        """Abort path: fire ``done`` now and ignore all later accounting."""
        if not self._finished:
            self._finished = True
            self._done.succeed()


class SmpeEngine:
    """ReDe's executor with SMPE enabled."""

    def __init__(self, cluster: Cluster, catalog: StructureCatalog,
                 config: EngineConfig = DEFAULT_ENGINE_CONFIG) -> None:
        self.cluster = cluster
        self.catalog = catalog
        self.config = config

    def submit(self, job: Job,
               limit: Optional[int] = None) -> tuple[Event, JobResult]:
        """Launch ``job`` without driving the simulation.

        Returns ``(completion_event, result)``; the result's rows and
        metrics fill in as the simulation advances.  Multiple submitted
        jobs share the cluster's resources concurrently — the simulated
        equivalent of a multi-tenant engine — and are driven together
        with ``cluster.run_until(...)``.
        """
        handle = self.submit_handle(job, limit=limit)
        return handle.completion, handle.result

    def submit_handle(self, job: Job, limit: Optional[int] = None,
                      propagate_errors: bool = True) -> JobHandle:
        """Launch ``job`` and return a :class:`JobHandle` over it.

        Identical to :meth:`submit` plus control: the handle supports
        cooperative :meth:`~JobHandle.cancel`.  With
        ``propagate_errors=False`` a fatal failure does not re-raise out
        of the simulation loop; it lands on ``handle.error`` instead, so
        one tenant's failing job cannot crash a multi-job drive loop.
        """
        window = open_job_metrics(self.cluster, self.catalog, self.config)
        metrics = window.metrics
        results: list[OutputRow] = []
        sim = self.cluster.sim
        done = sim.event()
        tracker = _TaskTracker(done)
        queues = [sim.store(name=f"queue[{n}]")
                  for n in range(self.cluster.num_nodes)]
        pools = [Resource(sim, self.config.thread_pool_size,
                          name=f"pool[{n}]")
                 for n in range(self.cluster.num_nodes)]
        state = _RunState(job, metrics, results, tracker, queues, pools,
                          FailureReport(), limit=limit,
                          propagate_errors=propagate_errors)

        listener = watch_node_loss(
            self.cluster, metrics, state.failures,
            "pending work re-queued to survivors",
            then=lambda dead: self._requeue_lost_node(state, dead))

        result = JobResult(results, metrics, failure_report=state.failures)

        # EXECUTESMPE: "distributing the data processing job to all the
        # computing nodes" (lines 2-5), then wait (line 6).
        def job_process():
            node_procs = []
            for node_id in range(self.cluster.num_nodes):
                node_procs.append(self.cluster.launch(
                    self._node_main(state, node_id),
                    name=f"smpe-node{node_id}"))
            yield done
            # Job finished: unblock every dispatcher.
            for queue in queues:
                queue.put(_SENTINEL)
            yield sim.all_of(node_procs)
            unwatch_node_loss(self.cluster, listener)
            close_job_metrics(self.cluster, window, results, limit,
                              sum(pool.max_in_use for pool in pools))
            if state.aborted is not None:
                if not state.propagate_errors:
                    handle.error = state.aborted
                    return
                # Re-raise here so the original exception type propagates
                # out of run_until, exactly as a direct raise would.
                raise state.aborted

        completion = self.cluster.launch(job_process(),
                                         name=f"smpe:{job.name}")
        handle = JobHandle(job, completion, result, self, state)
        return handle

    def execute(self, job: Job,
                max_time: Optional[float] = None,
                limit: Optional[int] = None) -> JobResult:
        """Run ``job`` to completion; with ``limit``, stop early once
        that many output rows exist (outstanding tasks are drained, not
        dispatched)."""
        completion, result = self.submit(job, limit=limit)
        self.cluster.run_until(
            completion, max_time=max_time or self.config.max_sim_time)
        return result

    # -- failure handling -------------------------------------------------

    def _abort(self, state: "_RunState", exc: BaseException) -> None:
        """Park ``exc`` as the job's outcome and start a cooperative
        shutdown; the first abort wins."""
        if state.aborted is None:
            state.aborted = exc
        state.cancelled = True
        state.tracker.force_finish()

    def _cancel(self, state: "_RunState") -> None:
        """Caller-requested cancellation: the same cooperative shutdown
        as an abort, but with no exception — the job completes with its
        partial rows and ``result.cancelled`` set."""
        state.cancelled = True
        state.tracker.force_finish()

    def _unit_failed(self, state: "_RunState", node_id: int, stage: int,
                     partition: Optional[int], exc: BaseException) -> None:
        """One work unit is beyond saving (retries exhausted, user code
        raised, or ``on_error='fail'``): apply the failure policy."""
        fatal = unit_failed(self.config, state.metrics, state.failures, exc,
                            job_name=state.job.name, stage=stage,
                            node=node_id, partition=partition,
                            now=self.cluster.sim.now)
        if fatal is not None:
            self._abort(state, fatal)

    def _requeue_lost_node(self, state: "_RunState", dead: int) -> None:
        """After a node loss: hand the dead node's pending queue to the
        survivor that adopted its partitions and stop its dispatcher.

        Runs for true crashes and for planned drain retirements alike —
        the re-queue mechanics are identical; only the accounting
        (:func:`~repro.engine.access.watch_node_loss`) differs."""
        if dead >= len(state.queues):
            # A node that joined after this job was submitted has no
            # dispatcher here; nothing to re-queue.
            return
        try:
            adopter = self.cluster.serving_node(dead)
        except NodeCrashed as exc:
            self._abort(state, exc)
            return
        if adopter >= len(state.queues):
            # The partition adopter joined after this job was submitted
            # and runs no dispatcher here — re-queue onto an alive
            # launch-time node instead (storage routing still goes to
            # the true adopter via serving_node at dereference time).
            candidates = [n for n in range(len(state.queues))
                          if self.cluster.nodes[n].alive]
            if not candidates:
                self._abort(state, NodeCrashed(
                    "no launch-time node survives to adopt queue of node "
                    f"{dead}", node=dead))
                return
            adopter = candidates[0]
        for item in state.queues[dead].drain():
            if item is _SENTINEL:
                continue
            if item.home_node is None:
                item.home_node = dead
            state.queues[adopter].put(item)
        # Wake and retire the dead node's dispatcher; all later routing
        # avoids this queue via serving_node().
        state.queues[dead].put(_SENTINEL)

    # -- per-node execution (EXECUTESMPEEACH, lines 8-18) ----------------

    def _node_main(self, state: "_RunState", node_id: int):
        # Guard token: held until this node's initial stage has dispatched
        # everything it will ever dispatch.
        state.tracker.inc()
        sim = self.cluster.sim
        initial = self.cluster.launch(
            self._initial_stage(state, node_id),
            name=f"initial@{node_id}")                   # line 14 (on t1)
        dispatcher = self.cluster.launch(
            self._dispatcher(state, node_id),
            name=f"stages@{node_id}")                    # line 16 (on t2)
        yield initial
        state.tracker.dec()  # initial stage fully dispatched
        yield dispatcher                                  # line 17

    # -- initial stage (EXECUTEINITIALSTAGE, lines 19-24) ----------------

    def _initial_stage(self, state: "_RunState", node_id: int):
        """Run the initial dereferencer over this node's share of the job
        inputs.

        A broadcast input (no partition key) is served by every node
        against its local partitions; a keyed input only by the partition
        owner.  Targets group by partition, and every ``batch_size``
        chunk of a group gets its own pool thread, so even stage 0 is
        parallel within a node.
        """
        job = state.job
        dereferencer = job.functions[0]
        assert isinstance(dereferencer, Dereferencer)
        file = self.catalog.resolve(dereferencer.file_name)
        groups: dict[int, list[Any]] = {}
        for target in job.inputs:                        # line 22 GETINPUT
            for pid in initial_probe_pids(file, target, node_id):
                groups.setdefault(pid, []).append(target)

        procs = []
        batch_size = self.config.batch_size
        for pid, targets in groups.items():
            for i in range(0, len(targets), batch_size):
                chunk = targets[i:i + batch_size]
                state.tracker.inc(len(chunk))  # in-flight units
                procs.append(self.cluster.launch(
                    self._initial_probe(state, node_id, chunk, pid),
                    name=f"deref0@{node_id}"))
        if procs:
            yield self.cluster.sim.all_of(procs)
        return None

    def _initial_probe(self, state: "_RunState", node_id: int,
                       targets: list, pid: int):
        """One stage-0 dispatch on a pooled thread: every target probes
        ``pid``, through one funnel call."""
        pool = state.pools[node_id]
        yield pool.request()
        try:
            if state.cancelled:
                return
            dereferencer = state.job.functions[0]
            file = self.catalog.resolve(dereferencer.file_name)
            try:
                outputs = yield from recovering_dereference(
                    self.cluster, self.config, state.metrics, 0,
                    dereferencer, file, [(target, {}) for target in targets],
                    pid, node_id, catalog=self.catalog,
                    failures=state.failures, runtime=state.recovery,
                    abort_check=state.abort_check)
            except Exception as exc:
                self._unit_failed(state, node_id, 0, pid, exc)
                return
            for records in outputs:
                for record in records:                   # lines 47-51
                    self._enqueue(state, node_id,
                                  _StageInput(1, record, {}))
        finally:
            pool.release()
            state.tracker.dec(len(targets))

    # -- the dispatcher (EXECUTESTAGES, lines 25-42) ---------------------

    def _dispatcher(self, state: "_RunState", node_id: int):
        queue = state.queues[node_id]
        functions = state.job.functions
        num_stages = len(functions)
        sim = self.cluster.sim
        batch_size = self.config.batch_size
        linger = self.config.batch_linger
        # Dereferencer inputs buffer per stage and flush as one dispatch
        # when ``batch_size`` are in — at 1, the moment each arrives — or
        # as a partial batch the moment the queue runs dry, so a buffered
        # item never waits on a blocked ``get()`` (the buffer holds
        # task-tracker counts; parking them behind a blocking dequeue
        # would deadlock job completion).  With ``batch_linger`` set, a
        # dry queue instead races the next dequeue against an idle-tick
        # timeout: more input within the linger window keeps filling the
        # buffers; the tick flushes them.
        buffers: dict[int, list[_StageInput]] = {}

        def flush(stage: Optional[int] = None) -> None:
            stages = [stage] if stage is not None else list(buffers)
            for s in stages:
                items = buffers.pop(s, None)
                if items:
                    self.cluster.launch(
                        self._execute_dereferencer(
                            state, node_id, functions[s], items),
                        name=f"deref@{node_id}")

        while True:                                      # line 26
            if buffers and len(queue) == 0:
                if linger > 0:
                    # Idle tick: a pending ``get`` keeps its claim on the
                    # next put even if the timeout wins the race, so the
                    # same event is re-awaited after flushing.
                    pending = queue.get()
                    which, __ = yield any_of(
                        sim, [pending, sim.timeout(linger)])
                    if which == 1:
                        flush()
                    item = yield pending
                else:
                    flush()
                    item = yield queue.get()
            else:
                item = yield queue.get()                 # line 27 DEQUE
            if item is _SENTINEL:
                flush()
                return

            payload = item.payload
            if state.cancelled:
                # LIMIT reached or job aborted: drain without dispatching.
                state.tracker.dec()
                continue

            # Lines 28-33: a pointer without partition information is
            # replicated to all nodes' queues, marked LOCAL.  Each logical
            # node's share goes to whichever survivor currently serves it.
            if (isinstance(payload, (Pointer, PointerRange))
                    and payload.partition_key is None
                    and not item.local_only):
                # Broadcast covers the nodes the job launched with — a
                # node that joined mid-job holds no partition share of
                # this run, so its queue (which does not exist here)
                # would receive nothing anyway.
                for other in range(len(state.queues)):
                    state.tracker.inc()
                    state.queues[
                        self.cluster.serving_node(other)
                        % len(state.queues)].put(
                        _StageInput(item.stage, payload, item.context,
                                    local_only=True,
                                    home_node=other))    # line 31 BROADCAST
                state.tracker.dec()
                continue                                 # line 32

            if item.stage >= num_stages:                 # lines 34-38
                # Past the final stage: the record is a job output.  (The
                # pseudocode drops it; a real engine keeps it.)
                if isinstance(payload, Record):
                    state.results.append(OutputRow(payload, item.context))
                    if (state.limit is not None
                            and len(state.results) >= state.limit):
                        state.cancelled = True
                state.tracker.dec()
                continue

            function = functions[item.stage]
            if isinstance(function, Referencer):
                if self.config.inline_referencers:
                    # Optimization: "ReDe does not switch threads for
                    # Referencers by default".
                    self._run_referencer_inline(state, node_id, function,
                                                item)
                else:
                    self.cluster.launch(
                        self._execute_referencer(state, node_id, function,
                                                 item),
                        name=f"ref@{node_id}")
            else:
                # Line 39: "create if func is Dereferencer" — every
                # dispatch gets its own pooled thread.
                buffer = buffers.setdefault(item.stage, [])
                buffer.append(item)
                if len(buffer) >= batch_size:
                    flush(item.stage)

    # -- function execution (EXECUTEFUNC, lines 43-52) -------------------

    def _run_referencer_inline(self, state: "_RunState", node_id: int,
                               function: Referencer,
                               item: _StageInput) -> None:
        try:
            if not isinstance(item.payload, Record):
                raise ExecutionError(
                    f"stage {item.stage} expects records, got "
                    f"{type(item.payload).__name__}")
            state.metrics.count_invocation(item.stage)
            for pointer, context in function.reference(item.payload,
                                                       item.context):
                self._enqueue(state, node_id,
                              _StageInput(item.stage + 1, pointer, context))
        except Exception as exc:
            self._unit_failed(state, node_id, item.stage, None, exc)
        finally:
            # The unit is accounted for on every path — a raising
            # referencer must not strand the task tracker.
            state.tracker.dec()

    def _execute_referencer(self, state: "_RunState", node_id: int,
                            function: Referencer, item: _StageInput):
        pool = state.pools[node_id]
        yield pool.request()
        try:
            try:
                # Dispatching to a pool thread pays the context switch the
                # inline optimization avoids; a survivor pays it when the
                # home node has crashed.
                exec_node = self.cluster.serving_node(node_id)
                yield from self.cluster.node(exec_node).compute(
                    self.config.thread_switch_time)
            except NodeCrashed:
                pass  # crashed mid-switch: run the referencer regardless
            self._run_referencer_inline(state, node_id, function, item)
        finally:
            pool.release()

    def _execute_dereferencer(self, state: "_RunState", node_id: int,
                              function: Dereferencer,
                              items: list[_StageInput]):
        """One pooled thread serving one buffered dispatch (a single
        input at ``batch_size=1``).

        Targets resolve to partitions per item, then group by partition;
        each group is one funnel call, and each group is its own failure
        unit under ``on_error='skip'``.  LOCAL resolution refers to the
        entry's logical home — after a crash re-route that is the dead
        node's partition share."""
        pool = state.pools[node_id]
        stage = items[0].stage
        yield pool.request()                             # line 44
        try:
            if state.cancelled:
                return
            file = self.catalog.resolve(function.file_name)
            groups: dict[int, list] = {}
            for item in items:
                target = item.payload
                if not isinstance(target, (Pointer, PointerRange)):
                    self._unit_failed(
                        state, node_id, stage, None, ExecutionError(
                            f"stage {stage} expects pointers, got "
                            f"{type(target).__name__}"))
                    continue
                home = (item.home_node if item.home_node is not None
                        else node_id)
                probe = (target, item.context)
                for pid in resolve_partitions(file, target,
                                              executing_node=home,
                                              local_only=item.local_only):
                    groups.setdefault(pid, []).append(probe)
            for pid, probes in groups.items():
                if state.cancelled:
                    return
                try:
                    outputs = yield from recovering_dereference(  # line 45
                        self.cluster, self.config, state.metrics, stage,
                        function, file, probes, pid, node_id,
                        catalog=self.catalog, failures=state.failures,
                        runtime=state.recovery,
                        abort_check=state.abort_check)
                except Exception as exc:
                    self._unit_failed(state, node_id, stage, pid, exc)
                    continue
                for (__, context), records in zip(probes, outputs):
                    for record in records:               # lines 47-51
                        self._enqueue(state, node_id, _StageInput(
                            stage + 1, record, context))
        except Exception as exc:
            self._unit_failed(state, node_id, stage, None, exc)
        finally:
            pool.release()
            state.tracker.dec(len(items))

    # -- plumbing ---------------------------------------------------------

    def _enqueue(self, state: "_RunState", node_id: int,
                 item: _StageInput) -> None:
        """ENQUE(queue, new_input): register the task, then queue it on
        whichever node currently serves ``node_id``.

        The modulo folds a serving node that joined after this job was
        submitted (and so has no dispatcher in this run) back onto a
        launch-time queue; an identity on static membership."""
        state.tracker.inc()
        state.queues[self.cluster.serving_node(node_id)
                     % len(state.queues)].put(item)


@dataclass
class _RunState:
    """Everything one SMPE run shares across its simulated processes."""

    job: Job
    metrics: ExecutionMetrics
    results: list[OutputRow]
    tracker: _TaskTracker
    queues: list[Store]
    pools: list[Resource]
    failures: FailureReport = field(default_factory=FailureReport)
    #: LIMIT: stop dispatching once this many output rows exist
    limit: Optional[int] = None
    cancelled: bool = False
    #: first fatal exception; re-raised by the job process at completion
    aborted: Optional[BaseException] = None
    #: per-structure scan-recovery tables for quarantined structures
    recovery: dict = field(default_factory=dict)
    #: False: fatal errors land on the JobHandle instead of re-raising
    propagate_errors: bool = True
    #: why a caller cancelled the job, for the handle's bookkeeping
    cancel_reason: Optional[str] = None

    def abort_check(self) -> bool:
        """Consulted by retry loops: True once the run is winding down."""
        return self.cancelled
