"""A deterministic discrete-event simulation kernel.

This module is the foundation of the hardware substrate described in
DESIGN.md.  The LakeHarbor paper evaluates ReDe on a 128-node cluster; we
reproduce the *shape* of its results by running every engine's real control
logic on virtual time.  The kernel is a from-scratch, SimPy-flavoured design:

* :class:`Simulator` owns the virtual clock and the event heap.
* :class:`Event` is a one-shot occurrence with callbacks and a value.
* :class:`Timeout` fires after a fixed delay.
* :class:`Process` wraps a generator; the generator *yields* events and is
  resumed with each event's value when it fires.  A process is itself an
  event that triggers when the generator returns.
* :class:`Resource` models capacity (CPU cores, disk spindles, thread pools):
  ``request()`` returns an event that fires once a slot is available.
* :class:`Store` is an unbounded FIFO queue of items with blocking ``get()``.
* :func:`all_of` aggregates events for barrier-style waits.

Determinism: events fire in ``(time, scheduling order)`` order, so repeated
runs with the same inputs produce identical traces and timings.  Future
events wait in one FIFO bucket per distinct instant, the instants in a
heap; events scheduled for the current instant — most of them: every
``succeed()``, grant, hand-off and process start or finish — skip the
timeline and queue in a FIFO (see :class:`Simulator`).
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationDeadlock, SimulationError

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Resource",
    "Store",
    "all_of",
    "any_of",
]


class Event:
    """A one-shot occurrence inside a :class:`Simulator`.

    An event starts *pending*; :meth:`succeed` schedules it to *trigger*, at
    which point all registered callbacks run (in registration order) and its
    :attr:`value` becomes available.  Processes wait on events by yielding
    them.

    The kernel allocates one of these per grant, hand-off, timeout and
    process, so the class is slotted and its subclasses assign the four
    base slots themselves instead of chaining ``super().__init__``.
    """

    __slots__ = ("sim", "callbacks", "_value", "_scheduled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        #: queued to fire (never reset: once fired, ``callbacks`` is None)
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once the event has fired (callbacks have been dispatched)."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire now (at the current simulated time)."""
        if self.callbacks is None or self._scheduled:
            raise SimulationError("event already triggered or scheduled")
        self._value = value
        self._scheduled = True
        self.sim._immediate.append(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (immediately if fired)."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._scheduled = True
        self.delay = delay
        now = sim.now
        when = now + delay
        if when == now:  # zero, or too small to move the clock
            sim._immediate.append(self)
        else:
            bucket = sim._buckets.get(when)
            if bucket is None:
                sim._buckets[when] = [self]
                heappush(sim._heap, when)
            else:
                bucket.append(self)


class Process(Event):
    """A simulated thread of control, driven by a generator.

    The generator yields :class:`Event` objects; the process sleeps until each
    yielded event fires and is resumed with the event's value.  When the
    generator returns, the process (which is itself an event) triggers with
    the generator's return value, so other processes can wait on it.

    A yielded object is recognised as an event by its ``callbacks``
    attribute, not by ``isinstance`` (one attribute load per resumption on
    the hot path).  Yielding anything without one raises
    :class:`SimulationError`; a foreign object that happens to carry a
    ``callbacks`` attribute is *not* caught and is treated as an event, so
    yield only :class:`Event` instances.
    """

    __slots__ = ("generator", "name", "_send", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._scheduled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._send = generator.send
        #: the one bound ``_resume`` every awaited event gets; deleted when
        #: the generator returns so a finished process is not a cycle
        self._wake: Callable[[Event], None] = self._resume
        # Kick-start the process at the current instant.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._wake)  # type: ignore[union-attr]
        bootstrap._scheduled = True
        sim._immediate.append(bootstrap)

    def _resume(self, event: Event) -> None:
        sent = event._value
        send = self._send
        while True:
            try:
                target = send(sent)
            except StopIteration as stop:
                self._value = stop.value
                self._scheduled = True
                del self._wake
                self.sim._immediate.append(self)
                return
            try:
                callbacks = target.callbacks
            except AttributeError:
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                ) from None
            if callbacks is None:
                # Already fired: continue synchronously with its value.
                sent = target._value
                continue
            callbacks.append(self._wake)
            return


class Resource:
    """A counted-capacity resource with FIFO queueing.

    Models anything with a fixed number of concurrent slots: CPU cores, disk
    spindles, NIC transmit channels, or the ReDe thread pool.  ``request()``
    returns an event that fires once a slot is granted; the holder must call
    ``release()`` exactly once.
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[Event] = deque()
        # Peak concurrency observed, useful for parallelism metrics.
        self.max_in_use = 0
        # Integral of in_use over time, for utilization metrics.
        self.busy_integral = 0.0
        self._last_change = sim.now

    def _account(self) -> None:
        now = self.sim.now
        self.busy_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def busy_snapshot(self) -> float:
        """Busy integral up to now; subtract two snapshots for a window."""
        self._account()
        return self.busy_integral

    def utilization(self, start: float, end: float) -> float:
        """Mean fraction of capacity busy over ``[start, end]``.

        Assumes the resource was created at (or idle before) ``start``;
        for windows on long-lived resources, use :meth:`busy_snapshot`
        deltas instead.
        """
        if end <= start:
            return 0.0
        self._account()
        return self.busy_integral / (self.capacity * (end - start))

    def request(self) -> Event:
        """Return an event that fires when a slot has been granted."""
        sim = self.sim
        req = Event(sim)
        in_use = self.in_use
        if in_use < self.capacity:
            now = sim.now  # _account(), inlined here and in release()
            self.busy_integral += in_use * (now - self._last_change)
            self._last_change = now
            self.in_use = in_use = in_use + 1
            if in_use > self.max_in_use:
                self.max_in_use = in_use
            # A fresh request needs none of succeed()'s validation.
            req._scheduled = True
            sim._immediate.append(req)
        else:
            self._waiters.append(req)
        return req

    def release(self) -> None:
        """Return a slot; hands it to the longest-waiting requester, if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            # The slot transfers directly: in_use stays constant.
            self._waiters.popleft().succeed()
        else:
            now = self.sim.now
            self.busy_integral += self.in_use * (now - self._last_change)
            self._last_change = now
            self.in_use -= 1

    def use(self, duration: float) -> Generator:
        """Process helper: hold one slot for ``duration`` simulated seconds."""
        yield self.request()
        try:
            yield Timeout(self.sim, duration)
        finally:
            self.release()

    @property
    def queued(self) -> int:
        """Number of requests currently waiting for a slot."""
        return len(self._waiters)


class Store:
    """An unbounded FIFO queue of items with blocking ``get()``.

    Backs the stage queues of ReDe's SMPE execution model (Fig. 6 of the
    paper): producers ``put`` items immediately; consumers ``get`` an event
    that fires once an item is available.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.total_put = 0

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes the oldest blocked getter, if any."""
        self.total_put += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        sim = self.sim
        event = Event(sim)
        if self._items:
            event._value = self._items.popleft()
            event._scheduled = True
            sim._immediate.append(event)
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        """Items currently queued (consumers blocked in ``get`` see 0)."""
        return len(self._items)

    def drain(self) -> list[Any]:
        """Remove and return every queued item (blocked getters stay blocked).

        Node-failure recovery uses this to take over a dead node's pending
        queue entries and re-route them to survivors.
        """
        items = list(self._items)
        self._items.clear()
        return items


def all_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """Return an event that fires once every event in ``events`` has fired.

    The aggregate's value is the list of the constituent events' values, in
    input order.  With an empty input the aggregate fires immediately.
    """
    events = list(events)
    result = Event(sim)
    remaining = len(events)
    if remaining == 0:
        # Nothing to wait for: the aggregate is born fired.
        result._value = []
        result.callbacks = None
        return result
    values: list[Any] = [None] * remaining
    state = {"left": remaining}

    def make_callback(index: int) -> Callable[[Event], None]:
        def callback(event: Event) -> None:
            values[index] = event.value
            state["left"] -= 1
            if state["left"] == 0:
                result.succeed(values)

        return callback

    for i, event in enumerate(events):
        event.add_callback(make_callback(i))
    return result


def any_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """Return an event that fires when the *first* of ``events`` fires.

    The aggregate's value is ``(index, value)`` of the winner; later
    finishers are ignored.  This is the race primitive behind invocation
    timeouts: wait on ``any_of(sim, [work, timer])`` and check which side
    won.  An empty input is an error (the race could never settle).
    """
    events = list(events)
    if not events:
        raise SimulationError("any_of needs at least one event")
    result = Event(sim)

    def make_callback(index: int) -> Callable[[Event], None]:
        def callback(event: Event) -> None:
            if result.callbacks is not None and not result._scheduled:
                result.succeed((index, event.value))

        return callback

    for i, event in enumerate(events):
        event.add_callback(make_callback(i))
    return result


class Simulator:
    """The virtual clock and event loop.

    Events fire in ``(time, scheduling order)`` order, a deterministic total
    order even among simultaneous events.  Three structures hold it:

    * ``_buckets`` — events due at a *later* instant, one list per
      distinct instant, each in scheduling order;
    * ``_heap`` — those instants, each once;
    * ``_immediate`` — events scheduled for the *current* instant, in
      scheduling order.

    The loop fires the immediate queue first.  When it is empty the clock
    advances to the heap's head, and that instant's whole bucket moves
    into the immediate queue: the first event fires, the rest wait at
    the queue's front.  That is the order a single ``(time, sequence)``
    heap yields, because a bucketed event due at the new instant was
    scheduled at an earlier one, so before anything the new instant
    appends to ``_immediate`` — and nothing can be bucketed for the
    current instant (:class:`Timeout` queues a delay that does not move
    the clock as immediate).

    :meth:`step` fires exactly one event and counts it in
    ``events_processed``; :meth:`run` is a loop over it that tests
    ``max_time`` only when the clock would move.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[float] = []
        self._buckets: dict[float, list[Event]] = {}
        self._immediate: deque[Event] = deque()
        self.events_processed = 0

    # -- factories -------------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create a bare, manually-triggered event."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Launch ``generator`` as a simulated process."""
        return Process(self, generator, name=name)

    def resource(self, capacity: int, name: str = "") -> Resource:
        return Resource(self, capacity, name=name)

    def store(self, name: str = "") -> Store:
        return Store(self, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        return all_of(self, events)

    def any_of(self, events: Iterable[Event]) -> Event:
        return any_of(self, events)

    # -- the event loop --------------------------------------------------

    def step(self) -> None:
        """Advance to and fire the single next event."""
        immediate = self._immediate
        if not immediate:
            now = heappop(self._heap)
            self.now = now
            immediate.extend(self._buckets.pop(now))
        event = immediate.popleft()
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:  # type: ignore[union-attr]
            callback(event)

    def run(self, until: Optional[Event] = None, max_time: Optional[float] = None) -> Any:
        """Run the event loop.

        With ``until`` given, runs until that event fires and returns its
        value; raises :class:`SimulationDeadlock` if the queues drain first.
        Without ``until``, runs until nothing is scheduled.  ``max_time``
        aborts runaway simulations: no event past it fires.  Immediate
        events are due at ``now``, so the limit is tested on entry and then
        only when the clock would move.
        """
        if until is not None and until.callbacks is None:
            return until._value
        heap = self._heap
        immediate = self._immediate
        step = self.step
        if max_time is None:
            max_time = math.inf
        elif immediate and self.now > max_time:
            raise SimulationError(f"simulation exceeded max_time={max_time}")
        while True:
            if not immediate:
                if not heap:
                    break
                if heap[0] > max_time:
                    raise SimulationError(
                        f"simulation exceeded max_time={max_time}")
            step()
            if until is not None and until.callbacks is None:
                return until._value
        if until is not None:
            raise SimulationDeadlock(
                "nothing left to fire before the awaited event did "
                "(a process is blocked forever)"
            )
        return None
