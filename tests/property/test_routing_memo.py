"""Property tests: memoized key routing equals an unmemoized FNV-1a.

``stable_hash`` memoizes exact ``int`` and ``str`` keys.  Everything a
partitioner routes must still hash exactly as a plain FNV-1a over the
canonical key bytes, whatever the key type and whatever order keys were
first seen in — ``1``, ``True``, ``1.0`` and ``(True,)`` share Python
equality (and so would share a naive memo slot) but not all of them
share canonical bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import HashPartitioner
from repro.storage.partitioner import (_canonical_bytes, _memo_fnv1a,
                                       stable_hash)


def reference_hash(key) -> int:
    """FNV-1a, 64-bit, with no memo anywhere on the path."""
    value = 0xCBF29CE484222325
    for byte in _canonical_bytes(key):
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


scalars = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-1),
    st.text(max_size=12),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(min_value=-50, max_value=50).map(float),
)
keys = st.recursive(scalars, lambda inner: st.tuples(inner, inner)
                    | st.tuples(inner), max_leaves=6)
#: keys that compare equal across types: where a naive memo collides
EQUAL_FAMILY = [1, True, 1.0, (True,), (1,), (1.0,), 0, False, 0.0, -0.0]


@settings(max_examples=300, deadline=None)
@given(keys, st.integers(min_value=1, max_value=64))
def test_routing_equals_unmemoized_reference(key, partitions):
    expected = reference_hash(key)
    assert stable_hash(key) == expected
    assert stable_hash(key) == expected  # a memo hit answers the same
    assert HashPartitioner(partitions).partition(key) == \
        expected % partitions


@settings(max_examples=200, deadline=None)
@given(st.lists(keys | st.sampled_from(EQUAL_FAMILY), min_size=1,
                max_size=12), st.randoms())
def test_routing_does_not_depend_on_first_seen_order(batch, rnd):
    expected = [reference_hash(key) for key in batch]
    _memo_fnv1a.cache_clear()
    assert [stable_hash(key) for key in batch] == expected
    order = list(range(len(batch)))
    rnd.shuffle(order)
    _memo_fnv1a.cache_clear()
    shuffled = {i: stable_hash(batch[i]) for i in order}
    assert [shuffled[i] for i in range(len(batch))] == expected


def test_equal_keys_of_different_types_keep_their_own_bytes():
    family = EQUAL_FAMILY[:5] + ["1"]
    expected = {repr(key): reference_hash(key) for key in family}
    for order in (family, family[::-1]):
        _memo_fnv1a.cache_clear()
        assert {repr(key): stable_hash(key) for key in order} == expected
    assert expected["1"] != expected["True"]
    assert expected["1"] == expected["1.0"]  # integral floats route as ints
    assert expected["(True,)"] != expected["(1,)"]


def test_only_exact_ints_and_strs_enter_the_memo():
    _memo_fnv1a.cache_clear()
    for key in (True, 2.0, 2.5, (3,), b"x"):
        stable_hash(key)
    assert _memo_fnv1a.cache_info().currsize == 0
    stable_hash(7)
    stable_hash("seven")
    assert _memo_fnv1a.cache_info().currsize == 2
    assert _memo_fnv1a.cache_info().maxsize is not None
