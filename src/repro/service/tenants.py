"""Tenants and their service-level metrics.

A :class:`TenantSpec` is the admission contract one named workload gets
from the gateway: its weighted-fair share and the depth of queue it may
hold.  A :class:`ServiceMetrics` is the per-tenant ledger every gateway
decision and completion lands in — the serving-side analogue of the
engines' :class:`~repro.engine.metrics.ExecutionMetrics`, which it also
aggregates: ``engine`` folds each of the tenant's finished jobs in with
:meth:`~repro.engine.metrics.ExecutionMetrics.merge`, under the merge
rule each field declares, so service-level accounting reconciles exactly
with engine-level accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.engine.metrics import ExecutionMetrics
from repro.errors import ExecutionError

__all__ = ["TenantSpec", "ServiceMetrics", "percentile"]


@dataclass(frozen=True)
class TenantSpec:
    """Admission and scheduling contract for one named tenant.

    Attributes:
        name: tenant identity; all gateway bookkeeping keys on it.
        weight: weighted-fair share relative to other tenants (the
            scheduler charges each dispatched job ``cost / weight`` of
            virtual time, so a weight-2 tenant drains twice as fast).
        max_queued: per-tenant queue-depth limit; a submission arriving
            with this many jobs already queued is *rejected* (the tenant
            is over its share).  0 admits nothing.
    """

    name: str
    weight: float = 1.0
    max_queued: int = 64

    def __post_init__(self) -> None:
        if not self.name:
            raise ExecutionError("tenant needs a non-empty name")
        if self.weight <= 0:
            raise ExecutionError(
                f"tenant weight must be > 0, got {self.weight}")
        if self.max_queued < 0:
            raise ExecutionError(
                f"max_queued must be >= 0, got {self.max_queued}")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of ``samples``; 0.0 if empty.

    Nearest-rank keeps the result an actual observed sample, which is the
    convention serving dashboards use for tail latency.
    """
    if not (0.0 <= q <= 1.0):
        raise ExecutionError(f"percentile q must be in [0, 1], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class ServiceMetrics:
    """Everything the gateway did to (and for) one tenant.

    Counters cover the full admission -> schedule -> execute -> shed state
    machine; latency and queue-wait samples feed the percentile views.
    ``engine`` folds in the :class:`ExecutionMetrics` of every job that
    *finished* under this tenant (completed, deadline-cancelled mid-stage,
    or failed — work that touched the engines) with
    :meth:`ExecutionMetrics.merge`, so folding it across tenants
    reproduces the engine-side totals exactly.
    """

    tenant: str = ""
    #: submissions seen (every submit() call, before any decision)
    submitted: int = 0
    #: submissions admitted to the queue
    admitted: int = 0
    #: submissions refused: the tenant exceeded its own queue limit
    rejected: int = 0
    #: submissions refused: the global queue was full (retry later)
    backpressured: int = 0
    #: queued jobs dropped by overload shedding
    shed: int = 0
    #: queued jobs dropped because their deadline passed before dispatch
    expired_queued: int = 0
    #: dispatched jobs cancelled mid-stage by their deadline
    expired_running: int = 0
    #: jobs dispatched with the cheaper degraded plan variant
    degraded: int = 0
    #: jobs that ran to completion
    completed: int = 0
    #: jobs that failed in the engine (fault policy exhausted, user error)
    failed: int = 0
    #: arrival -> completion, for completed jobs only
    latencies: list[float] = field(default_factory=list)
    #: arrival -> dispatch, for every dispatched job
    queue_waits: list[float] = field(default_factory=list)
    #: earliest arrival and latest completion, for goodput
    first_arrival: Optional[float] = None
    last_completion: Optional[float] = None
    #: this tenant's finished jobs, folded by ``ExecutionMetrics.merge``
    engine: ExecutionMetrics = field(default_factory=ExecutionMetrics)

    def note_arrival(self, now: float) -> None:
        self.submitted += 1
        if self.first_arrival is None:
            self.first_arrival = now

    def note_completion(self, arrival: float, now: float) -> None:
        self.completed += 1
        self.latencies.append(now - arrival)
        self.last_completion = now

    # -- views -----------------------------------------------------------

    def latency_p50(self) -> float:
        return percentile(self.latencies, 0.50)

    def latency_p99(self) -> float:
        return percentile(self.latencies, 0.99)

    def queue_wait_p50(self) -> float:
        return percentile(self.queue_waits, 0.50)

    def queue_wait_p99(self) -> float:
        return percentile(self.queue_waits, 0.99)

    @property
    def dropped(self) -> int:
        """Admission refusals plus queue drops (everything not served)."""
        return (self.rejected + self.backpressured + self.shed
                + self.expired_queued)

    def goodput(self) -> float:
        """Completed jobs per simulated second of this tenant's window."""
        if (self.first_arrival is None or self.last_completion is None
                or self.last_completion <= self.first_arrival):
            return 0.0
        return self.completed / (self.last_completion - self.first_arrival)

    def summary(self) -> dict[str, Any]:
        """Flat dict view for reports and benchmark tables."""
        return {
            "tenant": self.tenant,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "backpressured": self.backpressured,
            "shed": self.shed,
            "expired_queued": self.expired_queued,
            "expired_running": self.expired_running,
            "degraded": self.degraded,
            "completed": self.completed,
            "failed": self.failed,
            "latency_p50": self.latency_p50(),
            "latency_p99": self.latency_p99(),
            "queue_wait_p50": self.queue_wait_p50(),
            "queue_wait_p99": self.queue_wait_p99(),
            "goodput": self.goodput(),
        }
