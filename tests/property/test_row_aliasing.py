"""Property: the rows an engine returns belong to the caller.

Inside :class:`~repro.baselines.scan_engine.ScanEngine` a scanned row is
the interpreter's view, which for mapping payloads *is* the stored
payload — shared by the block store and the ReDe heaps of one lake.
``execute`` hands the caller rows of its own: join outputs are fresh
dicts and a bare scan copies its output once.  So a caller that
overwrites a field, adds a key and clears every returned row must not
change any later answer on the same lake — neither the engine's own
re-run nor the ``reference`` engine run after it.

ReDe results are :class:`~repro.core.job.OutputRow`\\ s, whose record is
the stored record by design; their carried context is what a caller
mutates here.
"""

from collections.abc import MutableMapping

import pytest

from repro.baselines import ScanEngine, ScanNode
from repro.core.job import OutputRow
from repro.engine import PlanningExecutor, ReDeExecutor
from repro.queries import TpchWorkload

REGION = "ASIA"
SELECTIVITY = 0.2


@pytest.fixture(scope="module")
def workload():
    return TpchWorkload(scale_factor=0.001, seed=3, num_nodes=4,
                        block_size=64 * 1024)


@pytest.fixture(scope="module")
def window(workload):
    return workload.date_range(SELECTIVITY)


def canonical(rows):
    """Full row contents as a sorted multiset (not just Q5's key fields)."""
    out = []
    for row in rows:
        if isinstance(row, OutputRow):
            out.append((tuple(sorted(row.record.data.items())),
                        tuple(sorted(row.context.items()))))
        else:
            out.append(tuple(sorted(row.items())))
    return sorted(out, key=repr)


def scribble(rows):
    """Overwrite a field, add a key, then clear — on every returned row."""
    for row in rows:
        target = row.context if isinstance(row, OutputRow) else row
        assert isinstance(target, MutableMapping)
        for name in list(target)[:1]:
            target[name] = "scribbled"
        target["__scribbled__"] = True
        target.clear()


def reference_rows(workload, window):
    job = workload.q5_job(*window, REGION)
    return canonical(ReDeExecutor(None, workload.catalog,
                                  mode="reference").execute(job).rows)


def scan_engine_runner(plan_of):
    def run(workload, window):
        engine = ScanEngine(workload.make_cluster(scan_seconds=0.25),
                            workload.blockstore)
        return engine.execute(plan_of(workload, window)).rows
    return run


def planned_runner(force):
    def run(workload, window):
        spec = workload.make_cluster(scan_seconds=0.25).spec
        logical = workload.q5_chain(*window, REGION).logical_plan()
        executor = PlanningExecutor(workload.catalog, workload.blockstore,
                                    spec)
        return executor.execute(logical, force=force).rows
    return run


RUNNERS = {
    "scan-bare": scan_engine_runner(
        lambda workload, window: ScanNode("lineitem")),
    "scan-bare-predicated": scan_engine_runner(
        lambda workload, window: ScanNode(
            "orders",
            predicate=lambda r: window[0] <= r["o_orderdate"] <= window[1])),
    "scan-q5": scan_engine_runner(
        lambda workload, window: workload.q5_scan_plan(*window, REGION)),
    "planned-index": planned_runner("index"),
    "planned-scan": planned_runner("scan"),
    "planned-mixed": planned_runner("mixed"),
}


@pytest.mark.parametrize("name", list(RUNNERS))
def test_mutating_returned_rows_changes_no_later_answer(workload, window,
                                                        name):
    run = RUNNERS[name]
    expected_reference = reference_rows(workload, window)
    rows = run(workload, window)
    assert rows
    expected = canonical(rows)

    scribble(rows)

    assert canonical(run(workload, window)) == expected
    assert reference_rows(workload, window) == expected_reference
