"""Layer probes: direct timed calls into one public function each.

A probe isolates one layer on *fixed* inputs — its own small lake, built
from a constant seed, independent of the run's ``--seed`` — so its
number moves only when that layer's code does.  Every probe repeats its
call until at least ``MIN_SECONDS`` have passed, five times over, and
reports the median; all are host time.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.cluster import Simulator
from repro.core import MappingInterpreter, PointerRange
from repro.core.interpreters import FieldRangeFilter
from repro.datagen.rng import add_days
from repro.engine import PlanningExecutor
from repro.queries import TpchWorkload
from repro.service.result_cache import SemanticResultCache

__all__ = ["run_probes"]

MIN_SECONDS = 0.2
REPEATS = 5
#: kernel events one ping-pong probe call fires
KERNEL_EVENTS = 200_000
INTERPRET_RECORDS = 50_000
CACHE_ENTRIES = 1_000


def median_seconds_per_call(call: Callable[[], object]) -> float:
    """Median over ``REPEATS`` of the mean seconds of one ``call``, each
    repeat lasting at least ``MIN_SECONDS``."""
    samples = []
    for __ in range(REPEATS):
        calls = 0
        start = now = time.perf_counter()
        while now - start < MIN_SECONDS:
            call()
            calls += 1
            now = time.perf_counter()
        samples.append((now - start) / calls)
    return statistics.median(samples)


def kernel_ping_pong() -> None:
    """Bare event kernel: timeouts, a contended resource and two stores,
    no engine on top."""
    sim = Simulator()
    resource = sim.resource(1, name="probe")
    ping_box, pong_box = sim.store("ping"), sim.store("pong")

    def ping():
        while True:
            yield sim.timeout(1e-3)
            yield from resource.use(1e-4)
            ping_box.put(None)
            yield pong_box.get()

    def pong():
        while True:
            yield ping_box.get()
            yield from resource.use(1e-4)
            pong_box.put(None)

    for __ in range(4):
        sim.process(ping())
        sim.process(pong())
    while sim.events_processed < KERNEL_EVENTS:
        sim.step()


def run_probes() -> dict[str, float]:
    lake = TpchWorkload(scale_factor=0.002, seed=1, num_nodes=4,
                        block_size=256 * 1024)
    low, high = lake.date_range(0.05)
    metrics: dict[str, float] = {}

    metrics["cluster.kernel_events_per_host_s"] = (
        KERNEL_EVENTS / median_seconds_per_call(kernel_ping_pong))

    index = lake.catalog.dfs.get_index("idx_orders_orderdate")
    window = PointerRange("idx_orders_orderdate", low, high)
    metrics["storage.btree_probe_us"] = 1e6 * median_seconds_per_call(
        lambda: index.range_lookup(window, 0))
    metrics["storage.page_ids_probe_us"] = 1e6 * median_seconds_per_call(
        lambda: index.probe_page_ids(0, window))

    source = lake.tables["lineitem"]
    records = [source[i % len(source)] for i in range(INTERPRET_RECORDS)]
    ship_filter = FieldRangeFilter(MappingInterpreter(), "l_shipdate",
                                   low, high)
    metrics["core.interpret_us_per_record"] = (
        1e6 * median_seconds_per_call(
            lambda: ship_filter.matches_batch(records, {}))
        / INTERPRET_RECORDS)

    spec = lake.make_cluster(scan_seconds=0.25).spec
    logical = lake.q5_chain(low, high).logical_plan()

    def fresh_planner() -> PlanningExecutor:
        return PlanningExecutor(lake.catalog, lake.blockstore, spec)

    metrics["plan.plan_ms"] = 1e3 * median_seconds_per_call(
        lambda: fresh_planner().plan(logical))
    metrics["plan.calibrate_ms"] = 1e3 * median_seconds_per_call(
        lambda: fresh_planner().calibrate(logical))

    cache = SemanticResultCache()
    token = (lake.catalog.version, None)
    jobs = [lake.q5_job(low, add_days(low, days))
            for days in range(CACHE_ENTRIES)]
    for job in jobs:
        cache.insert(job, [], token)
    probe_job = jobs[CACHE_ENTRIES // 2]
    assert cache.lookup(probe_job, token) is not None
    metrics["service.result_cache_lookup_us"] = (
        1e6 * median_seconds_per_call(
            lambda: cache.lookup(probe_job, token)))
    return metrics
