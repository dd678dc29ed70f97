"""Property: a ``Pointer`` behaves exactly as the frozen dataclass it was.

Every referencer emission builds a pointer, so :class:`Pointer` is an
immutable tuple subclass rather than a frozen dataclass.  Nothing that
reads a pointer — equality, hashing, printing, pickling, copying, the
broadcast test, size estimates, partition hashing, delta-tag
recognition — may be able to tell the difference, a pointer must never
equal a plain tuple (or a :class:`PointerRange`), and nothing may write
to it.
"""

import copy
import pickle
from dataclasses import dataclass
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pointers import Pointer, PointerKind, PointerRange
from repro.core.records import Record, estimate_size
from repro.ingest.delta import delta_tag, is_delta_tag
from repro.storage.partitioner import stable_hash


@dataclass(frozen=True)
class DataclassPointer:
    """The frozen-dataclass ``Pointer`` the tuple subclass replaced."""

    file: str
    partition_key: Optional[Any]
    key: Any
    kind: PointerKind = PointerKind.LOGICAL

    @property
    def is_broadcast(self) -> bool:
        return self.partition_key is None

    def __repr__(self) -> str:
        target = "*" if self.is_broadcast else repr(self.partition_key)
        return (f"Pointer({self.file!r}, part={target}, key={self.key!r}, "
                f"{self.kind.value})")


scalars = st.one_of(
    st.text(max_size=8),
    st.integers(min_value=-2**63, max_value=2**63),
    st.floats(allow_nan=False),
    st.booleans(),
)
keys = st.one_of(
    scalars,
    st.tuples(scalars, scalars),
    st.builds(delta_tag, st.integers(0, 5), st.integers(0, 5)),
)
files = st.sampled_from(["part", "orders", "idx_l_partkey", ""])
kinds = st.sampled_from([PointerKind.LOGICAL, PointerKind.PHYSICAL])
fields = st.tuples(files, st.one_of(st.none(), keys), keys, kinds)


def both(values):
    return Pointer(*values), DataclassPointer(*values)


@settings(max_examples=300, deadline=None)
@given(fields, fields)
def test_equality_and_hash_agree_with_the_dataclass(a, b):
    pa, da = both(a)
    pb, db = both(b)
    assert (pa == pb) is (da == db)
    assert (pa != pb) is (da != db)
    assert pa == pa and not pa != pa
    assert hash(pa) == hash(da)
    assert repr(pa) == repr(da)
    assert {pa, pb} == {Pointer(*a), Pointer(*b)}


@settings(max_examples=200, deadline=None)
@given(fields)
def test_fields_and_broadcast_helpers_agree(values):
    pointer, twin = both(values)
    assert (pointer.file, pointer.partition_key, pointer.key,
            pointer.kind) == (twin.file, twin.partition_key, twin.key,
                              twin.kind)
    assert pointer.is_broadcast is twin.is_broadcast


@settings(max_examples=200, deadline=None)
@given(fields)
def test_pickle_and_copy_round_trip(values):
    pointer = Pointer(*values)
    for clone in (pickle.loads(pickle.dumps(pointer)),
                  pickle.loads(pickle.dumps(pointer, protocol=2)),
                  copy.copy(pointer), copy.deepcopy(pointer)):
        assert type(clone) is Pointer
        assert clone == pointer and hash(clone) == hash(pointer)
        assert repr(clone) == repr(pointer)


@settings(max_examples=200, deadline=None)
@given(fields)
def test_never_equals_a_plain_tuple_or_a_range(values):
    pointer = Pointer(*values)
    plain = tuple(pointer)
    assert not pointer == plain and not plain == pointer
    assert pointer != plain and plain != pointer
    assert pointer not in {plain} and plain not in {pointer}
    rng = PointerRange(values[0], values[2], values[2],
                       partition_key=values[1])
    assert pointer != rng and rng != pointer
    assert not pointer == rng


@settings(max_examples=100, deadline=None)
@given(fields, scalars)
def test_attribute_writes_raise(values, value):
    pointer = Pointer(*values)
    for name in ("file", "partition_key", "key", "kind", "extra"):
        with pytest.raises(AttributeError):
            setattr(pointer, name, value)
    with pytest.raises(AttributeError):
        del pointer.key
    assert Pointer(*values) == pointer


def test_pointers_are_unordered():
    a = Pointer("f", 1, 1)
    b = Pointer("f", 2, 2)
    with pytest.raises(TypeError):
        a < b  # noqa: B015
    with pytest.raises(TypeError):
        sorted([b, a])


def test_keyword_construction_and_default_kind():
    pointer = Pointer(file="f", partition_key=None, key=3)
    assert pointer.kind is PointerKind.LOGICAL
    assert pointer == Pointer("f", None, 3, PointerKind.LOGICAL)


@settings(max_examples=300, deadline=None)
@given(fields)
def test_size_hash_and_tag_checks_see_an_opaque_pointer(values):
    """Three helpers branch on ``tuple``; a pointer must not reach those
    branches, so each returns what it returned for the dataclass."""
    pointer, twin = both(values)
    assert estimate_size(pointer) == estimate_size(twin) == 16
    row = {"target": pointer, "n": 1}
    assert estimate_size(row) == estimate_size({"target": twin, "n": 1})
    assert (Record(row).size_bytes
            == Record({"target": twin, "n": 1}).size_bytes)
    assert estimate_size([pointer]) == estimate_size([twin])
    assert stable_hash(pointer) == stable_hash(twin)
    assert is_delta_tag(pointer) is is_delta_tag(twin) is False
