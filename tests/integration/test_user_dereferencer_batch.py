"""A user dereferencer that overrides only ``fetch`` on the batch path.

At ``batch_size>1`` the funnel fetches a batch through
``Dereferencer.fetch_batch``.  Its default loops ``fetch``, so a
dereferencer written against the one-method contract — a plain
``Dereferencer`` subclass, or a subclass of a pre-defined one that
overrides ``fetch`` — keeps answering with its own ``fetch`` and the
funnel walks the pages itself.  Q5′ with every base-file fetch swapped
for such a dereferencer must return the ``reference`` rows on both
cluster engines at ``batch_size=64``, with and without buffer pools; the
plain subclass fetches exactly what the pre-defined one does, so its
simulated numbers must match too.
"""

import pytest

from repro.config import EngineConfig
from repro.core import Dereferencer, FileLookupDereferencer
from repro.engine import ReDeExecutor
from repro.queries import TpchWorkload, canonical_q5_rows_rede

SELECTIVITY = 0.2


class PlainLookup(Dereferencer):
    """A base-file fetch written against ``fetch`` alone."""

    def fetch(self, file, target, partition_id):
        return file.lookup_in_partition(partition_id, target)


class CountingLookup(FileLookupDereferencer):
    """A pre-defined dereferencer whose ``fetch`` is overridden."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fetches = 0

    def fetch(self, file, target, partition_id):
        self.fetches += 1
        return super().fetch(file, target, partition_id)


@pytest.fixture(scope="module")
def lake():
    return TpchWorkload(scale_factor=0.001, seed=5, num_nodes=4,
                        block_size=64 * 1024)


def swapped(job, cls):
    swaps = []
    for i, function in enumerate(job.functions):
        if type(function) is FileLookupDereferencer:
            job.functions[i] = cls(function.file_name,
                                   filter=function.filter)
            swaps.append(job.functions[i])
    assert len(swaps) == 6
    return job, swaps


@pytest.mark.parametrize("mode", ["partitioned", "smpe"])
@pytest.mark.parametrize("cache_bytes", [0, 1 << 20])
def test_fetch_only_dereferencers_answer_at_batch_64(lake, mode,
                                                     cache_bytes):
    window = lake.date_range(SELECTIVITY)
    reference = canonical_q5_rows_rede(ReDeExecutor(
        None, lake.catalog, mode="reference").execute(
            lake.q5_job(*window)))
    assert reference

    def run(job):
        executor = ReDeExecutor(
            lake.make_cluster(cache_bytes=cache_bytes), lake.catalog,
            config=EngineConfig(batch_size=64), mode=mode)
        return executor.execute(job)

    builtin = run(lake.q5_job(*window))
    plain_job, __ = swapped(lake.q5_job(*window), PlainLookup)
    plain = run(plain_job)
    counting_job, counters = swapped(lake.q5_job(*window), CountingLookup)
    counting = run(counting_job)

    assert canonical_q5_rows_rede(builtin) == reference
    assert canonical_q5_rows_rede(plain) == reference
    assert canonical_q5_rows_rede(counting) == reference
    # every base-file probe went through the overridden fetch, once
    oracle_job, oracle_counters = swapped(lake.q5_job(*window),
                                          CountingLookup)
    ReDeExecutor(None, lake.catalog, mode="reference").execute(oracle_job)
    assert (sum(c.fetches for c in counters)
            == sum(c.fetches for c in oracle_counters) > 0)
    assert plain.metrics.summary() == builtin.metrics.summary()
