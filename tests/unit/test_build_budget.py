"""Call budget: the Python work lake construction spends per base record.

Building ``TpchWorkload`` generates the eight TPC-H tables, loads seven
of them into the DFS, builds their five indexes and lays every table out
in the block store.  Before construction drew rows through one
``getrandbits`` helper, sized fact rows at generation, extracted each
load key once and built index entries from per-heap key batches with
per-key memos, it made 40.2 Python-function calls per base record
(every generated row, ``partsupp`` included); now it makes 20.1
(CPython 3.10 and 3.11, cold routing memo; 20.0 on 3.12 and 3.13,
which inline comprehensions).  The bound is that measurement plus about
10 %, so a change that puts per-record or per-entry calls back on the
construction path fails here instead of only in the benchmark's set-up
time.

Calls are counted with ``sys.setprofile`` "call" events (Python frames
entered or resumed; builtins are not counted), so the number is exact
and repeats on any box.
"""

import sys

from repro.datagen.tpch import TpchGenerator
from repro.queries import TpchWorkload

#: measured 20.1 calls per base record (CPython 3.11.7), 40.2 before
MAX_CALLS_PER_BASE_RECORD = 22.0


def test_lake_construction_stays_within_its_call_budget():
    base_records = sum(map(len, TpchGenerator(0.002, 0)
                           .generate_all().values()))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        lake = TpchWorkload(scale_factor=0.002, seed=0, num_nodes=4)
    finally:
        sys.setprofile(None)
    assert len(lake.dfs.names()) == 12
    assert base_records > 15_000
    assert calls / base_records <= MAX_CALLS_PER_BASE_RECORD, (
        f"{calls / base_records:.1f} Python calls per base record")
