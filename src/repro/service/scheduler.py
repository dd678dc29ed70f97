"""Weighted-fair scheduling with priority lanes.

The :class:`FairScheduler` holds every admitted-but-not-yet-dispatched
request.  Two rules order dispatch:

* **priority lanes** — lanes are served strictly in order
  (``interactive`` before ``background``), so an interactive query that
  arrives behind a queue of maintenance work preempts it *in the queue*:
  running work is never interrupted, but the next free slot always goes
  to the highest non-empty lane;
* **weighted-fair queueing within a lane** — classic virtual-time WFQ:
  each dispatched request charges its tenant ``cost_hint / weight`` of
  virtual service, and the backlogged tenant with the least virtual
  service goes next (ties break on tenant name, so the schedule is
  deterministic).  A tenant that returns from idle is caught up to the
  least-served backlogged tenant, so sitting out earns no credit — the
  standard anti-starvation rule.

Shedding support: :meth:`shed_one` removes the *newest* request of the
*most backlogged* tenant in the *lowest* non-empty lane — the inverse of
the dispatch order, so overload always evicts the work the scheduler
values least.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ExecutionError
from repro.service.tenants import TenantSpec

__all__ = ["LANES", "FairScheduler", "QueuedRequest"]

#: dispatch priority order: earlier lanes preempt-in-queue over later ones
LANES = ("interactive", "background")


@dataclass(eq=False)
class QueuedRequest:
    """One admitted request waiting for dispatch.

    The scheduler only reads ``tenant`` / ``lane`` / ``cost_hint``;
    ``payload`` is the gateway's ticket and travels opaquely.  Identity
    comparison (``eq=False``): :meth:`FairScheduler.remove` must target
    exactly this request, never a field-equal sibling.
    """

    tenant: str
    lane: str
    cost_hint: float
    arrival: float
    payload: Any = None
    #: position stamp for deterministic FIFO order within one tenant+lane
    sequence: int = field(default=0, compare=False)


class FairScheduler:
    """Priority lanes outside, weighted-fair queueing inside."""

    def __init__(self, lanes: tuple[str, ...] = LANES) -> None:
        if not lanes:
            raise ExecutionError("scheduler needs at least one lane")
        self.lanes = lanes
        self._queues: dict[tuple[str, str], deque[QueuedRequest]] = {}
        self._weights: dict[str, float] = {}
        self._vtime: dict[str, float] = {}
        self._sequence = 0
        #: total requests dispatched, per tenant (fairness accounting)
        self.dispatched: dict[str, int] = {}

    # -- tenants ---------------------------------------------------------

    def register(self, spec: TenantSpec) -> None:
        if spec.name not in self._weights:
            self._weights[spec.name] = spec.weight
            self._vtime[spec.name] = 0.0
            self.dispatched[spec.name] = 0

    # -- queue state -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def depth(self, tenant: str, lane: Optional[str] = None) -> int:
        """Queued requests held by ``tenant`` (optionally one lane)."""
        return sum(len(q) for (ln, tn), q in self._queues.items()
                   if tn == tenant and (lane is None or ln == lane))

    # -- enqueue / dispatch ----------------------------------------------

    def enqueue(self, item: QueuedRequest) -> None:
        if item.lane not in self.lanes:
            raise ExecutionError(
                f"unknown lane {item.lane!r}; expected one of {self.lanes}")
        if item.tenant not in self._weights:
            raise ExecutionError(f"unregistered tenant {item.tenant!r}")
        if self.depth(item.tenant) == 0:
            # Returning from idle: catch up to the least-served backlogged
            # tenant so idle time earned no scheduling credit.
            backlogged = [self._vtime[t] for t in self._backlogged()
                          if t != item.tenant]
            if backlogged:
                self._vtime[item.tenant] = max(self._vtime[item.tenant],
                                               min(backlogged))
        self._sequence += 1
        item.sequence = self._sequence
        self._queues.setdefault((item.lane, item.tenant),
                                deque()).append(item)

    def _backlogged(self, lane: Optional[str] = None) -> list[str]:
        """Tenants with queued work (optionally restricted to one lane),
        sorted by name for deterministic tie-breaks."""
        names = {tn for (ln, tn), q in self._queues.items()
                 if q and (lane is None or ln == lane)}
        return sorted(names)

    def next(self) -> Optional[QueuedRequest]:
        """Pop the request the policy serves next, or None when idle."""
        for lane in self.lanes:
            tenants = self._backlogged(lane)
            if not tenants:
                continue
            tenant = min(tenants, key=lambda t: (self._vtime[t], t))
            item = self._queues[(lane, tenant)].popleft()
            self._vtime[tenant] += item.cost_hint / self._weights[tenant]
            self.dispatched[tenant] += 1
            return item
        return None

    # -- shedding --------------------------------------------------------

    def shed_one(self, protect_lane: Optional[str] = None
                 ) -> Optional[QueuedRequest]:
        """Remove and return the least-valuable queued request.

        Scans lanes lowest-priority first (``protect_lane``, if given, is
        never shed from), picks the tenant with the deepest weighted
        backlog, and evicts that tenant's *newest* request, preserving
        the oldest queued work.  Returns None when nothing is sheddable.
        """
        for lane in reversed(self.lanes):
            if lane == protect_lane:
                continue
            tenants = self._backlogged(lane)
            if not tenants:
                continue
            victim = max(tenants, key=lambda t: (
                self.depth(t, lane) / self._weights[t], t))
            return self._queues[(lane, victim)].pop()
        return None

    def remove(self, item: QueuedRequest) -> bool:
        """Remove a specific queued request (deadline expiry in queue)."""
        queue = self._queues.get((item.lane, item.tenant))
        if queue is None:
            return False
        try:
            queue.remove(item)
        except ValueError:
            return False
        return True
