"""Property tests for partitioners, hashing, size estimation, and the DFS."""

import collections
import types
from collections.abc import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pointers import Pointer, PointerRange
from repro.core.records import Record, estimate_size
from repro.storage import (
    DistributedFileSystem,
    HashPartitioner,
    RangePartitioner,
)
from repro.storage.partitioner import stable_hash

keys = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.text(max_size=20),
    st.tuples(st.integers(), st.text(max_size=5)),
)


@given(keys)
def test_stable_hash_deterministic(key):
    assert stable_hash(key) == stable_hash(key)
    assert 0 <= stable_hash(key) < 2 ** 64


@given(keys, st.integers(min_value=1, max_value=64))
def test_hash_partitioner_in_range_and_stable(key, num_partitions):
    partitioner = HashPartitioner(num_partitions)
    pid = partitioner.partition(key)
    assert 0 <= pid < num_partitions
    assert partitioner.partition(key) == pid


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=0,
                max_size=10, unique=True),
       st.integers(min_value=-150, max_value=150))
def test_range_partitioner_orders_keys(boundaries, key):
    boundaries = sorted(boundaries)
    partitioner = RangePartitioner(boundaries)
    pid = partitioner.partition(key)
    assert 0 <= pid < len(boundaries) + 1
    # Every boundary strictly below the key's partition start is <= key.
    if pid > 0:
        assert boundaries[pid - 1] <= key
    if pid < len(boundaries):
        assert key < boundaries[pid]


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1,
                max_size=8, unique=True),
       st.integers(min_value=-120, max_value=120),
       st.integers(min_value=0, max_value=50))
def test_range_partitioner_range_covers_point_partitions(boundaries, low,
                                                         width):
    boundaries = sorted(boundaries)
    partitioner = RangePartitioner(boundaries)
    high = low + width
    covered = set(partitioner.partition_range(low, high))
    for key in range(low, high + 1):
        assert partitioner.partition(key) in covered


@given(st.recursive(
    st.one_of(st.integers(), st.floats(allow_nan=False),
              st.text(max_size=10), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=10))
def test_estimate_size_nonnegative_and_deterministic(value):
    size = estimate_size(value)
    assert size >= 0
    assert estimate_size(value) == size


def _estimate_size_oracle(value):
    """The original, fully recursive definition of ``estimate_size``."""
    if type(value) in (int, float):
        return 8
    if type(value) is bool:
        return 1
    if value is None:
        return 0
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, Mapping):
        return sum(_estimate_size_oracle(k) + _estimate_size_oracle(v) + 2
                   for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(_estimate_size_oracle(item) for item in value) + 8
    return 16


class _Opaque:
    __hash__ = object.__hash__


class _Text(str):
    pass


class _Wide(int):
    pass


size_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.binary(max_size=8), st.text(max_size=4).map(_Text),
    st.integers().map(_Wide), st.builds(_Opaque))
size_keys = st.one_of(
    st.text(max_size=5), st.integers(), st.booleans(), st.none(),
    st.text(max_size=3).map(_Text),
    st.tuples(st.integers(), st.text(max_size=3)))


def _mappings(children):
    plain = st.dictionaries(size_keys, children, max_size=5)
    return st.one_of(
        plain, plain.map(collections.OrderedDict),
        plain.map(lambda d: collections.defaultdict(int, d)),
        plain.map(types.MappingProxyType),
        plain.map(collections.ChainMap))


size_payloads = st.recursive(
    size_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(st.one_of(st.integers(), st.text(max_size=3)),
                      max_size=4),
        st.sets(st.integers(), max_size=4),
        _mappings(children)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(size_payloads)
def test_estimate_size_matches_the_recursive_definition(value):
    assert estimate_size(value) == _estimate_size_oracle(value)


@given(st.dictionaries(st.text(min_size=1, max_size=6),
                       st.integers(), min_size=0, max_size=6))
def test_record_equality_consistent_with_hash(payload):
    a, b = Record(dict(payload)), Record(dict(payload))
    assert a == b
    assert hash(a) == hash(b)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                          st.integers()),
                min_size=1, max_size=60,
                unique_by=lambda pair: pair[0]),
       st.integers(min_value=1, max_value=4))
def test_dfs_load_then_lookup_roundtrip(rows, num_nodes):
    dfs = DistributedFileSystem(num_nodes=num_nodes)
    records = [Record({"pk": pk, "v": v}) for pk, v in rows]
    dfs.load("t", records, partition_key_fn=lambda r: r["pk"])
    base = dfs.get_base("t")
    assert len(base) == len(rows)
    for pk, v in rows:
        found = base.lookup(Pointer("t", pk, pk))
        assert [r["v"] for r in found] == [v]


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 4),
                          st.integers(min_value=-50, max_value=50)),
                min_size=1, max_size=60,
                unique_by=lambda pair: pair[0]),
       st.integers(min_value=-60, max_value=60),
       st.integers(min_value=0, max_value=40))
def test_dfs_index_range_probe_equals_scan_filter(rows, low, width):
    """Union of per-partition range probes == brute-force filter."""
    high = low + width
    dfs = DistributedFileSystem(num_nodes=2)
    records = [Record({"pk": pk, "attr": attr}) for pk, attr in rows]
    dfs.load("t", records, partition_key_fn=lambda r: r["pk"])
    index, = dfs.build_indexes("t", [(
        dfs.new_index("idx", "t", "local"),
        lambda batch: [record["attr"] for record in batch])])
    probe = PointerRange("idx", low, high)
    found = []
    for pid in range(index.num_partitions):
        found.extend(index.range_lookup(probe, pid))
    expected = sorted(pk for pk, attr in rows if low <= attr <= high)
    assert sorted(e["target_partition_key"] for e in found) == expected
