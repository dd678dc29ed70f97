"""Integration: ``EngineConfig.batch_linger`` is a cost knob, not a semantic one.

SMPE at ``batch_size=8`` on Q5' (SF 0.002, 4 nodes, 5 % of orders): with
a linger window a dry stage queue waits for more same-stage inputs before
flushing its partial batches.  Whatever the window, the job must finish
(the pending queue ``get`` it races against the linger timer is re-awaited,
never lost), return the reference rows, and dispatch the same probes;
only how full the batches get may change, and a longer window can only
fill them more.
"""

import pytest

from repro.config import EngineConfig
from repro.engine import ReDeExecutor
from repro.queries import TpchWorkload, canonical_q5_rows_rede

LINGERS = (0.0, 0.0005, 0.005)


@pytest.fixture(scope="module")
def workload():
    return TpchWorkload(scale_factor=0.002, seed=3, num_nodes=4)


@pytest.fixture(scope="module")
def job(workload):
    return workload.q5_job(*workload.date_range(0.05), "ASIA")


@pytest.fixture(scope="module")
def runs(workload, job):
    return {linger: ReDeExecutor(
                workload.make_cluster(), workload.catalog,
                config=EngineConfig(batch_size=8, batch_linger=linger),
                mode="smpe").execute(job)
            for linger in LINGERS}


def test_rows_equal_reference_at_every_linger(workload, job, runs):
    reference = ReDeExecutor(None, workload.catalog,
                             mode="reference").execute(job)
    expected = canonical_q5_rows_rede(reference)
    assert expected
    for result in runs.values():
        assert canonical_q5_rows_rede(result) == expected
        assert len(result.rows) == len(reference.rows)


def test_same_probes_at_every_linger(runs):
    probes = {result.metrics.batched_probes for result in runs.values()}
    assert len(probes) == 1
    assert probes.pop() > 0


def test_fill_does_not_fall_as_linger_grows(runs):
    fills = [runs[linger].metrics.batch_fill for linger in LINGERS]
    assert fills == sorted(fills)
    assert fills[-1] > fills[0]
