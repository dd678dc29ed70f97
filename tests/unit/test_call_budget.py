"""Call budget: the Python work the batch path spends per record access.

At ``batch_size>1`` each ``(stage, partition)`` batch crosses into
storage in one call (``Dereferencer.fetch_batch`` → ``probe_batch``),
a stage's routing is resolved once, and a filterless stage hands the
storage call's fresh record lists on as its outputs.  Before that, every
pointer paid its own Python calls for routing, fetch, page walk and
filter: Q5′ on the partitioned engine below made 22.4 Python-function
calls per record access; with one storage call per batch it makes 11.1
(CPython 3.11).  The bound is that measurement plus about 15 %, so a
change that puts per-pointer calls back on the batch path fails here
instead of only in the benchmark's host time.  CPython 3.12 inlines
comprehensions, which only lowers the count.

Calls are counted with ``sys.setprofile`` "call" events (Python frames
entered or resumed; builtins are not counted), so the number is exact
and repeats on any box.
"""

import sys

from repro.config import EngineConfig
from repro.engine import ReDeExecutor
from repro.queries import TpchWorkload

#: measured 11.1 calls per record access (CPython 3.11.7), 22.4 before
#: the batch path called storage once per batch
MAX_CALLS_PER_RECORD_ACCESS = 12.8


def test_partitioned_batch_q5_stays_within_its_call_budget():
    lake = TpchWorkload(scale_factor=0.002, seed=0, num_nodes=4,
                        block_size=64 * 1024)
    executor = ReDeExecutor(lake.make_cluster(cache_bytes=1 << 20),
                            lake.catalog,
                            config=EngineConfig(batch_size=64),
                            mode="partitioned")
    window = lake.date_range(0.2)
    executor.execute(lake.q5_job(*window))  # warms the buffer pools
    job = lake.q5_job(*window)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = executor.execute(job)
    finally:
        sys.setprofile(None)
    accesses = result.metrics.record_accesses
    assert accesses > 1000
    assert calls / accesses <= MAX_CALLS_PER_RECORD_ACCESS, (
        f"{calls / accesses:.1f} Python calls per record access")
