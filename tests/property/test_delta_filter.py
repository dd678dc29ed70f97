"""Property: a delta run's in-memory key filter is exact.

``DeltaRun.may_hold(pid, target)`` decides which runs a delta-aware
probe reads from disk, so it must be True precisely when the merge can
find something of the run under ``target``: a payload, a tombstoned
built-tree entry or (on a base run) an upserted key, or for a delta-tag
probe the tagged payload.  Hypothesis builds runs from random payloads,
tombstones and upserts, sealed directly or folded by ``merge_runs``,
and compares the filter with a brute-force oracle over the run's own
contents for point, range and delta-tag probes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pointer, PointerRange, Record
from repro.ingest.delta import DeltaRun, delta_tag, merge_runs

PIDS = st.integers(min_value=0, max_value=2)
KEYS = st.integers(min_value=0, max_value=12)

run_specs = st.fixed_dictionaries({
    "base": st.booleans(),
    "payloads": st.lists(st.tuples(PIDS, KEYS, PIDS, KEYS), max_size=6),
    "tombstones": st.lists(st.tuples(PIDS, KEYS, KEYS, KEYS), max_size=4),
    "upserts": st.lists(st.tuples(PIDS, KEYS), max_size=4),
})


def build_run(spec, batch_id, base):
    """One sealed run; ``base`` makes it a base-file run, else an index
    run over the same base file."""
    run = DeltaRun("t" if base else "idx", "t", batch_id, float(batch_id))
    for seq, (pid, key, origin_pid, origin_key) in enumerate(
            spec["payloads"]):
        run.add(pid, key, Record({"key": key}), (origin_pid, origin_key),
                tag=delta_tag(batch_id, seq))
    tombstones: dict[int, set] = {}
    if not base:
        for pid, index_key, target_pk, slot in spec["tombstones"]:
            tombstones.setdefault(pid, set()).add(
                (index_key, target_pk, slot))
    upserts: dict[int, set] = {}
    for pid, key in spec["upserts"]:
        upserts.setdefault(pid, set()).add(key)
    run.upserts = {pid: frozenset(keys) for pid, keys in upserts.items()}
    run.tombstones = {pid: frozenset(triples)
                      for pid, triples in tombstones.items()}
    return run.seal()


def oracle(run, pid, target):
    """Brute force over everything the merge could find in ``run``."""
    items = list(run.items(pid))
    if isinstance(target, Pointer) and not isinstance(target.key, int):
        return any(tag == target.key for __, __, __, tag in items)
    if isinstance(target, PointerRange):
        def matches(key):
            return target.contains(key)
    else:
        def matches(key):
            return key == target.key
    named = [key for key, __, __, __ in items]
    named += [triple[0] for triple in run.tombstones.get(pid, ())]
    if run.structure == run.base_file:
        named += list(run.upserts.get(pid, ()))
    return any(matches(key) for key in named)


def targets(run):
    """Point and range probes over the key space, plus every tag the
    run holds and one it does not."""
    out = [Pointer("t", None, key) for key in range(-1, 14)]
    for low in (None, 0, 3, 7, 12):
        for high in (None, 2, 7, 13):
            for inclusive_low in (True, False):
                for inclusive_high in (True, False):
                    out.append(PointerRange(
                        "t", low, high, inclusive_low=inclusive_low,
                        inclusive_high=inclusive_high))
    for pid in run.partitions():
        out += [Pointer("t", None, tag)
                for __, __, __, tag in run.items(pid)]
    out.append(Pointer("t", None, delta_tag(99, 0)))
    return out


def check(run):
    for pid in range(4):
        for target in targets(run):
            assert run.may_hold(pid, target) == oracle(run, pid, target), (
                pid, target)


@settings(max_examples=150, deadline=None)
@given(run_specs)
def test_filter_matches_oracle(spec):
    check(build_run(spec, 0, spec["base"]))


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.lists(run_specs, min_size=1, max_size=4))
def test_merged_filter_matches_oracle(base, specs):
    runs = [build_run(spec, i, base) for i, spec in enumerate(specs)]
    merged = merge_runs(runs)
    check(merged)
    # Merging drops only superseded payloads: the merged run names no
    # key that none of its inputs named.
    for pid in range(4):
        for key in range(13):
            target = Pointer("t", None, key)
            if merged.may_hold(pid, target):
                assert any(run.may_hold(pid, target) for run in runs)


def test_key_named_only_by_tombstone_or_upsert():
    index_run = build_run({"payloads": [], "tombstones": [(0, 5, 1, 2)],
                           "upserts": [(1, 8)]}, 0, base=False)
    assert index_run.may_hold(0, Pointer("t", None, 5))
    # An index run's upserts are base keys: no index probe tests them.
    assert not index_run.may_hold(1, Pointer("t", None, 8))
    base_run = build_run({"payloads": [], "tombstones": [],
                          "upserts": [(1, 8)]}, 0, base=True)
    assert base_run.may_hold(1, Pointer("t", None, 8))
    assert base_run.may_hold(1, PointerRange("t", 7, 9))
    assert not base_run.may_hold(0, Pointer("t", None, 8))
