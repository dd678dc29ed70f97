"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.cluster.simulation import Simulator, all_of
from repro.errors import SimulationDeadlock, SimulationError


def test_timeout_advances_clock():
    sim = Simulator()
    done = sim.timeout(2.5)
    sim.run(until=done)
    assert sim.now == 2.5


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_returns_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(worker())
    assert sim.run(until=proc) == 42
    assert sim.now == 1.0


def test_process_receives_event_values():
    sim = Simulator()

    def worker():
        got = yield sim.timeout(1.0, value="hello")
        return got

    assert sim.run(until=sim.process(worker())) == "hello"


def test_nested_processes_compose():
    sim = Simulator()

    def inner(delay):
        yield sim.timeout(delay)
        return delay * 10

    def outer():
        a = yield sim.process(inner(1.0))
        b = yield sim.process(inner(2.0))
        return a + b

    assert sim.run(until=sim.process(outer())) == 30.0
    assert sim.now == 3.0


def test_parallel_processes_overlap():
    sim = Simulator()
    results = []

    def worker(delay, tag):
        yield sim.timeout(delay)
        results.append((sim.now, tag))

    procs = [sim.process(worker(3.0, "slow")), sim.process(worker(1.0, "fast"))]
    sim.run(until=all_of(sim, procs))
    assert sim.now == 3.0  # overlapped, not summed
    assert results == [(1.0, "fast"), (3.0, "slow")]


@pytest.mark.parametrize("junk", [123, None, "event", object()])
def test_process_yielding_non_event_raises(junk):
    sim = Simulator()

    def bad():
        yield junk

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []

    def worker(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ["a", "b", "c"]:
        sim.process(worker(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_manual_event_succeed():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append(value)

    def opener():
        yield sim.timeout(5.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == ["open"]
    assert sim.now == 5.0


def test_event_cannot_succeed_twice():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_deadlock_detection():
    sim = Simulator()
    gate = sim.event()  # never succeeds

    def waiter():
        yield gate

    proc = sim.process(waiter())
    with pytest.raises(SimulationDeadlock):
        sim.run(until=proc)


class TestResource:
    def test_capacity_enforced(self):
        sim = Simulator()
        res = sim.resource(2)
        finish_times = []

        def worker():
            yield res.request()
            yield sim.timeout(1.0)
            res.release()
            finish_times.append(sim.now)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        # Two waves of two workers each.
        assert finish_times == [1.0, 1.0, 2.0, 2.0]
        assert res.max_in_use == 2
        assert res.in_use == 0

    def test_fifo_granting(self):
        sim = Simulator()
        res = sim.resource(1)
        order = []

        def worker(tag):
            yield res.request()
            order.append(tag)
            yield sim.timeout(1.0)
            res.release()

        for tag in range(5):
            sim.process(worker(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_use_helper_releases_slot(self):
        sim = Simulator()
        res = sim.resource(1)

        def worker():
            yield from res.use(2.0)

        sim.process(worker())
        sim.process(worker())
        sim.run()
        assert sim.now == 4.0
        assert res.in_use == 0

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = sim.resource(1)
        with pytest.raises(SimulationError):
            res.release()

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.resource(0)

    def test_queued_count(self):
        sim = Simulator()
        res = sim.resource(1)

        def holder():
            yield res.request()
            yield sim.timeout(10.0)
            res.release()

        def waiter():
            yield res.request()
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.process(waiter())
        # Step until the holder owns the slot and waiters queue up.
        while res.queued < 2:
            sim.step()
        assert res.queued == 2
        sim.run()
        assert res.queued == 0


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = sim.store()
        store.put("x")
        got = []

        def consumer():
            item = yield store.get()
            got.append(item)

        sim.process(consumer())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = sim.store()
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(3.0, "late")]

    def test_fifo_order(self):
        sim = Simulator()
        store = sim.store()
        for i in range(5):
            store.put(i)
        got = []

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_multiple_getters_fifo(self):
        sim = Simulator()
        store = sim.store()
        got = []

        def consumer(tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            store.put("a")
            store.put("b")

        sim.process(producer())
        sim.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_len_counts_waiting_items(self):
        sim = Simulator()
        store = sim.store()
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.total_put == 2


class TestAllOf:
    def test_empty_fires_immediately(self):
        sim = Simulator()
        agg = all_of(sim, [])
        assert agg.triggered
        assert agg.value == []

    def test_values_in_input_order(self):
        sim = Simulator()

        def worker(delay, value):
            yield sim.timeout(delay)
            return value

        procs = [sim.process(worker(3.0, "slow")), sim.process(worker(1.0, "fast"))]
        values = sim.run(until=all_of(sim, procs))
        assert values == ["slow", "fast"]


def test_run_max_time_guard():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(1.0)

    sim.process(forever())
    with pytest.raises(SimulationError):
        sim.run(max_time=10.0)


def test_run_max_time_allows_immediate_events_at_the_limit():
    sim = Simulator()
    fired = []
    gate = sim.event()
    gate.add_callback(lambda ev: fired.append(ev.value))
    gate.succeed("now")
    sim.run(max_time=0.0)  # due at now == max_time: not past the limit
    assert fired == ["now"] and sim.now == 0.0


def test_run_max_time_rejects_immediate_events_past_the_limit():
    sim = Simulator()
    sim.run(until=sim.timeout(5.0))
    sim.event().succeed()  # due at now = 5.0, nothing in the heap
    with pytest.raises(SimulationError):
        sim.run(max_time=1.0)
    assert sim.events_processed == 1


def test_zero_timeout_fires_after_pending_same_instant_heap_entries():
    """Two heap entries share an instant and the first one's callback
    schedules immediate events: both heap entries fire first, one
    ``step`` per event."""
    sim = Simulator()
    order = []
    first, second = sim.timeout(1.0), sim.timeout(1.0)

    def on_first(event):
        order.append("first")
        # ``second`` is still due at this very instant.
        sim.timeout(0).add_callback(lambda ev: order.append("zero"))
        sim.timeout(1e-20).add_callback(lambda ev: order.append("sub-ulp"))
        granted = sim.event()
        granted.add_callback(lambda ev: order.append("succeeded"))
        granted.succeed()

    first.add_callback(on_first)
    second.add_callback(lambda ev: order.append("second"))
    sim.step()
    assert order == ["first"] and sim.now == 1.0
    sim.step()
    assert order == ["first", "second"]
    sim.run()
    assert order == ["first", "second", "zero", "sub-ulp", "succeeded"]
    assert sim.now == 1.0 and sim.events_processed == 5


def test_run_until_returns_with_immediate_events_still_queued():
    sim = Simulator()
    awaited, other = sim.event(), sim.event()
    awaited.succeed("done")
    other.succeed()
    assert sim.run(until=awaited) == "done"
    assert sim.events_processed == 1 and not other.triggered
    sim.run()
    assert sim.events_processed == 2 and other.triggered


def test_step_counts_every_fired_event():
    """The benchmark's contract: one ``step`` call per fired event, each
    counted in ``events_processed`` (see benchmarks/perf/layers.py)."""
    sim = Simulator()
    store = sim.store()
    resource = sim.resource(1)

    def worker():
        yield sim.timeout(1.0)
        yield from resource.use(0.5)
        store.put("x")
        yield store.get()

    done = all_of(sim, [sim.process(worker()), sim.process(worker())])
    steps = 0
    while not done.triggered:
        sim.step()
        steps += 1
    assert steps == sim.events_processed > 0


def test_determinism_identical_runs():
    def build_and_run():
        sim = Simulator()
        trace = []

        def worker(tag, delay):
            for i in range(3):
                yield sim.timeout(delay)
                trace.append((sim.now, tag, i))

        for tag, delay in [("a", 1.0), ("b", 1.0), ("c", 0.5)]:
            sim.process(worker(tag, delay))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


class TestAnyOf:
    def test_first_finisher_wins_with_index_and_value(self):
        from repro.cluster.simulation import any_of
        sim = Simulator()

        def worker(delay, value):
            yield sim.timeout(delay)
            return value

        slow = sim.process(worker(3.0, "slow"))
        fast = sim.process(worker(1.0, "fast"))
        index, value = sim.run(until=any_of(sim, [slow, fast]))
        assert (index, value) == (1, "fast")
        sim.run()  # the loser finishing later must not break anything
        assert slow.triggered

    def test_already_triggered_event_wins_immediately(self):
        from repro.cluster.simulation import any_of
        sim = Simulator()
        timer = sim.timeout(0.5, value="timer")
        sim.run()
        assert timer.triggered
        index, value = sim.run(until=any_of(sim, [timer,
                                                  sim.timeout(9.0)]))
        assert (index, value) == (0, "timer")

    def test_empty_input_rejected(self):
        from repro.cluster.simulation import any_of
        with pytest.raises(SimulationError):
            any_of(Simulator(), [])

    def test_simultaneous_events_pick_first_scheduled(self):
        from repro.cluster.simulation import any_of
        sim = Simulator()
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(1.0, value="b")
        index, value = sim.run(until=any_of(sim, [a, b]))
        assert (index, value) == (0, "a")


class TestStoreDrain:
    def test_drain_returns_and_clears_queued_items(self):
        sim = Simulator()
        store = sim.store()
        for item in ("x", "y", "z"):
            store.put(item)
        assert store.drain() == ["x", "y", "z"]
        assert len(store) == 0
        assert store.drain() == []

    def test_drain_leaves_blocked_getters_blocked(self):
        sim = Simulator()
        store = sim.store()
        got = []

        def consumer():
            item = yield store.get()
            got.append(item)

        sim.process(consumer())
        sim.run()
        assert store.drain() == []
        store.put("late")
        sim.run()
        assert got == ["late"]
