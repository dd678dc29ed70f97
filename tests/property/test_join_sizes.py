"""Property: carrying row sizes through the hash joins changes no number.

``join_rows`` and ``ScanEngine`` size each row once and carry the size
beside it: scanned rows reuse their record's cached size, and a join
output row costs the sum of its two parents unless their keys clash.  The
oracle here is the naive join that re-estimates every build, probe and
output row; over random rows with disjoint and overlapping keys, nested
values and ``None`` join keys, the rows (in order) and all six
``HashJoinStats`` fields must match it, and so must the scan engine's
``bytes_shuffled`` under an interpreter that builds a fresh view.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HashJoinNode, HashJoinStats, ScanEngine, \
    ScanNode, join_rows
from repro.baselines.hashjoin import join_sized_rows
from repro.cluster import Cluster, ClusterSpec
from repro.core import FunctionInterpreter, MappingInterpreter, Record
from repro.core.records import estimate_size
from repro.storage import BlockStore

scalars = st.one_of(st.none(), st.booleans(), st.integers(-9, 9),
                    st.floats(allow_nan=False), st.text(max_size=4))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=2), inner,
                                            max_size=2)),
    max_leaves=5)
join_keys = st.one_of(st.none(), st.integers(0, 3))
#: a shared pool of extra field names, so merged rows sometimes clash
extras = st.dictionaries(st.sampled_from(["a", "b", "c", "d", 7]), values,
                         max_size=3)


def keyed_rows(key_field):
    return st.lists(st.builds(lambda key, extra: {key_field: key, **extra},
                              join_keys, extras), max_size=8)


residuals = st.sampled_from([None, lambda row: len(row) % 2 == 0])


def build_key(row):
    return row.get("bid")


def probe_key(row):
    return row.get("pid")


def naive_join(build, probe, build_key, probe_key, residual=None):
    """The hash join that re-estimates every row it touches."""
    table = defaultdict(list)
    for row in build:
        key = build_key(row)
        if key is not None:
            table[key].append(row)
    output = []
    for row in probe:
        for match in table.get(probe_key(row), ()):
            merged = {**match, **row}
            if residual is None or residual(merged):
                output.append(merged)
    stats = HashJoinStats(
        build_rows=len(build), probe_rows=len(probe),
        output_rows=len(output),
        build_bytes=sum(estimate_size(row) for row in build),
        probe_bytes=sum(estimate_size(row) for row in probe),
        output_bytes=sum(estimate_size(row) for row in output))
    return output, stats


@settings(max_examples=150, deadline=None)
@given(keyed_rows("bid"), keyed_rows("pid"), residuals)
def test_join_rows_matches_naive_join(build, probe, residual):
    expected_rows, expected_stats = naive_join(build, probe, build_key,
                                               probe_key, residual)
    rows, stats = join_rows(build, probe, build_key, probe_key, residual)
    assert rows == expected_rows
    assert stats == expected_stats


@settings(max_examples=150, deadline=None)
@given(keyed_rows("bid"), keyed_rows("pid"), keyed_rows("tid"), residuals)
def test_carried_sizes_equal_reestimation(build, probe, third, residual):
    """Output sizes stay exact when fed into a second join level."""
    inner, inner_sizes, __ = join_sized_rows(
        build, [estimate_size(row) for row in build],
        probe, [estimate_size(row) for row in probe],
        build_key, probe_key, residual)
    assert inner_sizes == [estimate_size(row) for row in inner]
    outer, outer_sizes, stats = join_sized_rows(
        inner, inner_sizes, third, [estimate_size(row) for row in third],
        probe_key, lambda row: row.get("tid"))
    assert outer_sizes == [estimate_size(row) for row in outer]
    assert (outer, stats) == naive_join(inner, third, probe_key,
                                        lambda row: row.get("tid"))


def tagged(record):
    """A non-identity view: a fresh dict with a field every row shares."""
    return {**record.data, "tag": [record.data.get("bid"), "view"]}


interpreters = st.sampled_from([MappingInterpreter(),
                                FunctionInterpreter(tagged)])


def shuffled_bytes(total_bytes, row_count, num_nodes):
    """Bytes a grace join's partition phase ships for one input."""
    if num_nodes == 1 or row_count == 0:
        return 0
    return int(total_bytes / num_nodes
               * (num_nodes - 1) / num_nodes) * num_nodes


@settings(max_examples=40, deadline=None)
@given(keyed_rows("bid"), keyed_rows("pid"), keyed_rows("tid"),
       interpreters, st.integers(1, 3))
def test_scan_engine_bytes_equal_naive(left, right, third, interpreter,
                                       num_nodes):
    store = BlockStore(num_nodes=num_nodes, block_size=128)
    for name, rows in (("left", left), ("right", right), ("third", third)):
        store.load(name, [Record(row) for row in rows])

    def scan(name):
        return ScanNode(name, interpreter=interpreter)

    plan = HashJoinNode(
        build=HashJoinNode(build=scan("left"), probe=scan("right"),
                           build_key=build_key, probe_key=probe_key),
        probe=scan("third"), build_key=probe_key,
        probe_key=lambda row: row.get("tid"))
    result = ScanEngine(Cluster(ClusterSpec(num_nodes=num_nodes)),
                        store).execute(plan)

    def scanned(name):
        return [dict(interpreter.interpret(record))
                for record in store.scan(name)]

    inner, inner_stats = naive_join(scanned("left"), scanned("right"),
                                    build_key, probe_key)
    outer, outer_stats = naive_join(inner, scanned("third"), probe_key,
                                    lambda row: row.get("tid"))
    assert result.metrics.joins == [inner_stats, outer_stats]
    assert sorted(map(repr, result.rows)) == sorted(map(repr, outer))
    assert result.metrics.bytes_shuffled == sum(
        shuffled_bytes(stats.build_bytes, stats.build_rows, num_nodes)
        + shuffled_bytes(stats.probe_bytes, stats.probe_rows, num_nodes)
        for stats in (inner_stats, outer_stats))
