"""Extension: vectorized batch execution kernel, wall-clock amortization.

The batch kernel (``engine/access.py``) turns the per-record dereference
funnel into columnar batch dispatch: one buffer-pool walk over the
*unique* pages of a batch, one network round trip per remote owner, one
delta-run consultation, and one schema-on-read dispatch per batch.  In
the discrete-event simulator every one of those used to be a separate
simulated event per record, so batching collapses the event count — and
with it the *wall-clock* cost of simulating a fixed workload — while
``batch_size=1`` stays bit-identical to the historical per-record path.

Run::

    pytest benchmarks/bench_ext_batch.py --benchmark-only

``test_ext_batch_regenerate`` sweeps ``batch_size`` over the Figure-7
Q5' workload on both cluster engines, prints simulated IO alongside
measured wall-clock, saves ``benchmarks/results/ext_batch.txt``, and
asserts the headline claim with exactly the per-record answer: batching
fires at least 10x fewer simulated kernel events per record access.
The event count is deterministic, so a faster kernel cannot erode the
gate the way it erodes the wall-clock ratio, which is reported beside
it (CI quick mode, on a smaller workload, gates on a 2x wall-clock
speed-up instead).
"""

import os
import time

import pytest

from repro.bench import SweepTable, format_factor, format_seconds
from repro.config import EngineConfig
from repro.engine import ReDeExecutor
from repro.queries import TpchWorkload, canonical_q5_rows_rede

#: CI smoke mode: shrink the workload and skip overwriting saved results
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SCALE_FACTOR = 0.002 if QUICK else 0.004
NUM_NODES = 8
REGION = "ASIA"
SELECTIVITY = 0.2
SCAN_SECONDS = 0.25
BATCH_SIZES = (1, 8, 64) if QUICK else (1, 8, 64, 256)
#: idle-tick linger (simulated seconds) for the SMPE dispatcher sweep:
#: instead of flushing a partial batch the moment its queue goes idle,
#: the dispatcher waits this long for stragglers, so batches go out
#: fuller and page-walk dedup sees more of the key stream at once
LINGER = 5e-4
#: best-of-N wall-clock per point, to damp interpreter jitter
ROUNDS = 1 if QUICK else 3
#: quick-mode gate: best wall-clock speed-up over the same engine at batch 1
MIN_SPEEDUP = 2.0
#: full-mode gate: best cut in simulated kernel events per record access
#: over the same engine at batch 1
MIN_EVENT_REDUCTION = 10.0


@pytest.fixture(scope="module")
def workload():
    return TpchWorkload(scale_factor=SCALE_FACTOR, seed=1,
                        num_nodes=NUM_NODES, block_size=256 * 1024)


def run_once(workload, mode, batch_size, linger=0.0):
    """One Q5' run: its result, wall-clock and simulated kernel events."""
    low, high = workload.date_range(SELECTIVITY)
    cluster = workload.make_cluster(scan_seconds=SCAN_SECONDS)
    executor = ReDeExecutor(
        cluster, workload.catalog,
        config=EngineConfig(batch_size=batch_size, batch_linger=linger),
        mode=mode)
    start = time.perf_counter()
    result = executor.execute(workload.q5_job(low, high, REGION))
    return (result, time.perf_counter() - start,
            cluster.sim.events_processed)


def run_sweep(workload):
    measurements = {}
    # The linger sweep only exists for SMPE: the partitioned engine has
    # no cross-record dispatch queue to hold a partial batch open on.
    plans = [("partitioned", "partitioned", 0.0),
             ("smpe", "smpe", 0.0),
             ("smpe", "smpe+linger", LINGER)]
    baseline_rows = None
    for mode, label, linger in plans:
        for batch_size in BATCH_SIZES:
            if linger > 0 and batch_size == 1:
                continue  # linger is inert at batch_size=1 by design
            best_wall = None
            for __ in range(ROUNDS):
                result, wall, events = run_once(workload, mode,
                                                batch_size, linger)
                best_wall = wall if best_wall is None else min(best_wall,
                                                               wall)
            rows = canonical_q5_rows_rede(result)
            if baseline_rows is None:
                baseline_rows = rows
            assert rows == baseline_rows, (
                f"{label} batch_size={batch_size} changed the answer")
            m = result.metrics
            measurements[(label, batch_size)] = {
                "wall": best_wall,
                "sim": m.elapsed_seconds,
                "reads": m.random_reads,
                "accesses": m.record_accesses,
                "events_per_access": events / m.record_accesses,
                "fill": m.batch_fill,
            }
    return measurements


def test_ext_batch_regenerate(benchmark, show, save_result, workload):
    sweep = benchmark.pedantic(run_sweep, args=(workload,),
                               iterations=1, rounds=1)

    table = SweepTable(
        title="Batch execution kernel: Q5' wall-clock vs batch_size "
              f"(SF={SCALE_FACTOR}, {NUM_NODES} nodes, "
              f"selectivity {SELECTIVITY}, best of {ROUNDS})",
        columns=["engine", "batch", "fill", "random reads", "accesses",
                 "events/access", "simulated", "wall-clock",
                 "wall speedup"])
    speedups = {}
    event_cuts = {}
    for (label, batch_size), m in sweep.items():
        base = sweep[(label.split("+")[0], 1)]
        speedup = base["wall"] / m["wall"]
        if batch_size > 1:
            speedups[(label, batch_size)] = speedup
            event_cuts[(label, batch_size)] = (base["events_per_access"]
                                               / m["events_per_access"])
        table.add_row(
            label, batch_size, round(m["fill"], 2), m["reads"],
            m["accesses"], round(m["events_per_access"], 3),
            format_seconds(m["sim"]), format_seconds(m["wall"]),
            format_factor(speedup) if batch_size > 1 else "--")
    table.add_note("identical canonical Q5' rows at every batch size; "
                   "random reads shrink via page-walk dedup; "
                   "events/access (simulated kernel events per record "
                   "access) shrinks because every amortized charge is "
                   "one simulated event instead of one per record, and "
                   "wall-clock follows it")
    table.add_note(f"smpe+linger holds an idle partial batch open for "
                   f"{LINGER * 1e6:g}us of simulated time before "
                   "flushing, so batches go out fuller and dedup sees "
                   "more keys per dispatch")
    show(table)
    if not QUICK:
        save_result("ext_batch", table)

    # Headline claim: batching makes the simulation itself cheaper.
    if QUICK:
        best = max(speedups.values())
        assert best >= MIN_SPEEDUP, (
            f"best wall-clock speedup {best:.2f}x < {MIN_SPEEDUP}x")
    else:
        best = max(event_cuts.values())
        assert best >= MIN_EVENT_REDUCTION, (
            f"best cut in kernel events per record access {best:.2f}x "
            f"< {MIN_EVENT_REDUCTION}x")

    # Batched IO never exceeds per-record IO, per engine.
    for label in ("partitioned", "smpe", "smpe+linger"):
        base = sweep[(label.split("+")[0], 1)]
        for batch_size in BATCH_SIZES[1:]:
            assert sweep[(label, batch_size)]["reads"] <= base["reads"]
            assert (sweep[(label, batch_size)]["accesses"]
                    == base["accesses"])

    # The idle-tick linger ships fuller batches and never more IO than
    # the flush-on-idle dispatcher it extends.
    for batch_size in BATCH_SIZES[1:]:
        eager = sweep[("smpe", batch_size)]
        lingered = sweep[("smpe+linger", batch_size)]
        assert lingered["fill"] > eager["fill"], batch_size
        assert lingered["reads"] <= eager["reads"], batch_size
