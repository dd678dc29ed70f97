"""Property tests for the discrete-event kernel.

Invariants under randomized workloads: capacity conservation, FIFO
fairness, clock monotonicity, determinism, and utilization bounds.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulation import Simulator, all_of
from repro.errors import SimulationDeadlock, SimulationError

delays = st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)

workloads = st.lists(
    st.tuples(delays,  # arrival offset
              st.floats(min_value=0.01, max_value=5.0)),  # service time
    min_size=1, max_size=30)


@settings(max_examples=50, deadline=None)
@given(workloads, st.integers(min_value=1, max_value=5))
def test_resource_conserves_capacity(jobs, capacity):
    sim = Simulator()
    res = sim.resource(capacity)
    over_capacity = []

    def worker(arrival, service):
        yield sim.timeout(arrival)
        yield res.request()
        if res.in_use > capacity:
            over_capacity.append(res.in_use)
        yield sim.timeout(service)
        res.release()

    procs = [sim.process(worker(a, s)) for a, s in jobs]
    sim.run(until=all_of(sim, procs))
    assert not over_capacity
    assert res.in_use == 0
    assert res.max_in_use <= capacity


@settings(max_examples=50, deadline=None)
@given(workloads, st.integers(min_value=1, max_value=5))
def test_makespan_bounds(jobs, capacity):
    """Makespan lies between the ideal parallel and fully serial bounds."""
    sim = Simulator()
    res = sim.resource(capacity)

    def worker(arrival, service):
        yield sim.timeout(arrival)
        yield from res.use(service)

    procs = [sim.process(worker(a, s)) for a, s in jobs]
    sim.run(until=all_of(sim, procs))
    total_service = sum(s for __, s in jobs)
    latest_arrival = max(a for a, __ in jobs)
    assert sim.now >= max(s for __, s in jobs)  # at least longest job
    assert sim.now <= latest_arrival + total_service + 1e-9  # serial bound


@settings(max_examples=50, deadline=None)
@given(workloads, st.integers(min_value=1, max_value=5))
def test_utilization_bounded_and_consistent(jobs, capacity):
    sim = Simulator()
    res = sim.resource(capacity)

    def worker(arrival, service):
        yield sim.timeout(arrival)
        yield from res.use(service)

    procs = [sim.process(worker(a, s)) for a, s in jobs]
    sim.run(until=all_of(sim, procs))
    if sim.now > 0:
        utilization = res.utilization(0.0, sim.now)
        assert 0.0 <= utilization <= 1.0 + 1e-9
        total_service = sum(s for __, s in jobs)
        assert res.busy_snapshot() == pytest.approx(total_service,
                                                    rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(workloads)
def test_clock_monotone_and_deterministic(jobs):
    def run():
        sim = Simulator()
        trace = []

        def worker(tag, arrival, service):
            yield sim.timeout(arrival)
            trace.append((sim.now, tag, "start"))
            yield sim.timeout(service)
            trace.append((sim.now, tag, "end"))

        for tag, (arrival, service) in enumerate(jobs):
            sim.process(worker(tag, arrival, service))
        sim.run()
        times = [t for t, __, __ in trace]
        assert times == sorted(times)
        return trace

    assert run() == run()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=50))
def test_store_preserves_order_and_items(items):
    sim = Simulator()
    store = sim.store()
    received = []

    def producer():
        for item in items:
            store.put(item)
            yield sim.timeout(0.1)

    def consumer():
        for __ in items:
            value = yield store.get()
            received.append(value)

    sim.process(producer())
    done = sim.process(consumer())
    sim.run(until=done)
    assert received == items
    assert store.total_put == len(items)
    assert len(store) == 0


# --------------------------------------------------------------------------
# Differential test: the kernel against a heap-only reference
#
# The kernel keeps same-instant events in a FIFO beside the heap.  The
# reference below keeps *everything* in one ``(time, sequence)`` heap —
# the textbook definition of the firing order — and lives only here.
# Random programs must fire the same events in the same order on both.
# --------------------------------------------------------------------------


class _RefEvent:
    def __init__(self, sim):
        self.sim, self.callbacks, self.value, self.scheduled = sim, [], None, False

    def succeed(self, value=None):
        if self.callbacks is None or self.scheduled:
            raise SimulationError("event already triggered or scheduled")
        self.value = value
        self.sim.schedule(self, 0.0)
        return self

    def add_callback(self, callback):
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class _RefResource:
    def __init__(self, sim, capacity):
        self.sim, self.capacity, self.in_use, self.waiters = sim, capacity, 0, []

    def request(self):
        req = _RefEvent(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            req.succeed()
        else:
            self.waiters.append(req)
        return req

    def release(self):
        if self.waiters:
            self.waiters.pop(0).succeed()
        else:
            self.in_use -= 1


class _RefStore:
    def __init__(self, sim):
        self.sim, self.items, self.getters = sim, [], []

    def put(self, item):
        if self.getters:
            self.getters.pop(0).succeed(item)
        else:
            self.items.append(item)

    def get(self):
        event = _RefEvent(self.sim)
        if self.items:
            event.succeed(self.items.pop(0))
        else:
            self.getters.append(event)
        return event


class _RefSimulator:
    """Heap-only ``(time, sequence)`` kernel with the public surface the
    programs below use."""

    def __init__(self):
        self.now, self.heap, self.sequence, self.events_processed = 0.0, [], 0, 0

    def schedule(self, event, delay):
        event.scheduled = True
        self.sequence += 1
        heapq.heappush(self.heap, (self.now + delay, self.sequence, event))

    def event(self):
        return _RefEvent(self)

    def timeout(self, delay, value=None):
        event = _RefEvent(self)
        event.value = value
        self.schedule(event, delay)
        return event

    def resource(self, capacity):
        return _RefResource(self, capacity)

    def store(self):
        return _RefStore(self)

    def process(self, generator):
        done = _RefEvent(self)

        def resume(event):
            sent = event.value
            while True:
                try:
                    target = generator.send(sent)
                except StopIteration as stop:
                    done.value = stop.value
                    self.schedule(done, 0.0)
                    return
                if target.callbacks is None:
                    sent = target.value
                    continue
                target.callbacks.append(resume)
                return

        self.timeout(0.0).callbacks.append(resume)
        return done

    def all_of(self, events):
        result, values = _RefEvent(self), [None] * len(events)
        left = [len(events)]
        if not events:  # nothing to wait for: already fired
            result.value, result.callbacks = [], None

        def collect(index, event):
            values[index] = event.value
            left[0] -= 1
            if left[0] == 0:
                result.succeed(values)

        for i, event in enumerate(events):
            event.add_callback(lambda ev, i=i: collect(i, ev))
        return result

    def any_of(self, events):
        result = _RefEvent(self)

        def settle(index, event):
            if result.callbacks is not None and not result.scheduled:
                result.succeed((index, event.value))

        for i, event in enumerate(events):
            event.add_callback(lambda ev, i=i: settle(i, ev))
        return result

    def run(self, until=None, max_time=None):
        if until is not None and until.callbacks is None:
            return until.value
        while self.heap:
            if max_time is not None and self.heap[0][0] > max_time:
                raise SimulationError(f"exceeded max_time={max_time}")
            self.now, __, event = heapq.heappop(self.heap)
            self.events_processed += 1
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if until is not None and until.callbacks is None:
                return until.value
        if until is not None:
            raise SimulationDeadlock("drained before the awaited event")
        return None


#: 0 and 1e-20 (sub-ulp once the clock has left 0) are the delays that take
#: the immediate queue; repeated values make same-instant ties common
tie_delays = st.sampled_from([0.0, 0.0, 1e-20, 0.25, 0.5, 0.5, 1.0, 1.0])
slots = st.integers(min_value=0, max_value=1)

program_ops = st.one_of(
    st.tuples(st.just("timeout"), tie_delays),
    st.tuples(st.just("request"), slots),
    st.tuples(st.just("release"), slots),
    st.tuples(st.just("put"), slots),
    st.tuples(st.just("get"), slots),
    st.tuples(st.just("wait_process"), st.integers(0, 5)),
    st.tuples(st.just("wait_gate"), slots),
    st.tuples(st.just("open_gate_from_callback"), slots, tie_delays),
    st.tuples(st.just("all_of"), st.lists(tie_delays, max_size=3)),
    st.tuples(st.just("any_of"), st.lists(tie_delays, min_size=1,
                                          max_size=3)),
)
programs = st.lists(st.lists(program_ops, max_size=8), min_size=1,
                    max_size=6)


def _run_program(sim, program, segments=()):
    """Interpret ``program`` (one op list per process) on ``sim``; return
    the firing log and the kernel's own event count.

    ``segments`` drive the run as ``(awaited, headroom)`` calls of
    ``run(until=..., max_time=now + headroom)`` before the final
    unbounded ``run()``; ``awaited`` indexes the processes, then the
    gates (None runs until the queues drain), and a None headroom sets
    no limit.  Each segment logs how it ended, at which clock and after
    how many events."""
    log = []
    resources = [sim.resource(1), sim.resource(2)]
    stores = [sim.store(), sim.store()]
    gates = [sim.event(), sim.event()]
    opened = [False, False]
    processes = []

    def open_gate(slot, label):
        log.append((sim.now, label))
        if not opened[slot]:
            opened[slot] = True
            gates[slot].succeed(label)

    def body(pid, ops):
        held = []
        for step, (op, *args) in enumerate(ops):
            label = f"p{pid}.{step}:{op}"
            if op == "timeout":
                yield sim.timeout(args[0])
            elif op == "request":
                yield resources[args[0]].request()
                held.append(args[0])
            elif op == "release":
                if args[0] in held:
                    held.remove(args[0])
                    resources[args[0]].release()
            elif op == "put":
                stores[args[0]].put(label)
            elif op == "get":
                got = yield stores[args[0]].get()
                label += f"<-{got}"
            elif op == "wait_process":
                if args[0] < pid:
                    got = yield processes[args[0]]
                    label += f"<-{got}"
            elif op == "wait_gate":
                got = yield gates[args[0]]
                label += f"<-{got}"
            elif op == "open_gate_from_callback":
                sim.timeout(args[1]).add_callback(
                    lambda ev, slot=args[0], label=label:
                    open_gate(slot, label + "!"))
            elif op == "all_of":
                yield sim.all_of([sim.timeout(d, value=d) for d in args[0]])
            elif op == "any_of":
                index, __ = yield sim.any_of(
                    [sim.timeout(d) for d in args[0]])
                label += f"<-{index}"
            log.append((sim.now, label))
        for slot in held:
            resources[slot].release()
        return f"p{pid}"

    for pid, ops in enumerate(program):
        processes.append(sim.process(body(pid, ops)))
    awaitable = processes + gates
    for awaited, headroom in segments:
        until = None if awaited is None else awaitable[
            awaited % len(awaitable)]
        max_time = None if headroom is None else sim.now + headroom
        try:
            ending = ("returned", sim.run(until=until, max_time=max_time))
        except SimulationError as exc:  # SimulationDeadlock included
            ending = (type(exc).__name__,)
        log.append(("segment", ending, sim.now, sim.events_processed))
    sim.run()
    return log, sim.events_processed


#: ``max_time`` headroom over the clock at a segment's start; a negative
#: one puts the limit behind the clock, which must stop even the events
#: already queued for ``now``
headrooms = st.one_of(st.none(), st.sampled_from([-0.5, 0.0, 0.0, 0.25,
                                                  0.5, 1.0, 2.0]))
segment_lists = st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 7)),
                                   headrooms), max_size=6)


@settings(max_examples=400, deadline=None)
@given(programs, segment_lists)
def test_kernel_fires_in_heap_only_time_sequence_order(program, segments):
    """Driven by ``run()`` alone or by ``run(until=..., max_time=...)``
    in segments, the same events fire in the same order, and every
    segment returns, deadlocks or exceeds ``max_time`` at the same clock
    after the same number of events."""
    log, events = _run_program(Simulator(), program, segments)
    ref_log, ref_events = _run_program(_RefSimulator(), program, segments)
    assert log == ref_log
    assert events == ref_events


def test_many_processes_sharing_float_instants_match_the_heap_only_kernel():
    """Forty processes whose timeouts land on a handful of shared float
    instants — exact ties (0.25 + 0.25 == 0.5) beside near misses
    (0.1 + 0.2 != 0.3) — fire in the heap-only order, also when
    ``run(max_time=...)`` stops exactly on a shared instant and again
    just before one."""
    delays = [(0.5,), (0.25, 0.25), (0.3,), (0.1, 0.2), (0.5, 0.0),
              (0.25, 0.25, 0.5), (1.0,), (0.1, 0.2, 0.7)]
    program = []
    for pid in range(40):
        ops = [("timeout", d) for d in delays[pid % len(delays)]]
        ops += [("request", pid % 2), ("put", pid % 2),
                ("timeout", 0.25 * (pid % 3)), ("release", pid % 2),
                ("get", (pid + 1) % 2)]
        program.append(ops)
    segments = [(None, 0.5), (None, 0.29), (7, 0.0), (None, None)]
    log, events = _run_program(Simulator(), program, segments)
    ref_log, ref_events = _run_program(_RefSimulator(), program, segments)
    assert log == ref_log
    assert events == ref_events
    assert [entry[1][0] for entry in log if entry[0] == "segment"][:2] == [
        "SimulationError", "SimulationError"]
