"""Unit tests for the Record and Pointer primitives."""

import pytest

from repro.core.pointers import Pointer, PointerKind, PointerRange
from repro.core.records import Record, estimate_size


class TestEstimateSize:
    def test_scalars(self):
        assert estimate_size(7) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size(True) == 1
        assert estimate_size(None) == 0

    def test_text_and_bytes(self):
        assert estimate_size("hello") == 5
        assert estimate_size(b"abc") == 3

    def test_mapping_includes_keys_and_overhead(self):
        size = estimate_size({"ab": "cd"})
        assert size == 2 + 2 + 2

    def test_nested_containers(self):
        assert estimate_size([1, 2, 3]) == 24 + 8
        assert estimate_size((1, [2], {"a": 3})) > 0

    def test_opaque_object(self):
        class Thing:
            pass

        assert estimate_size(Thing()) == 16


class TestRecord:
    def test_size_cached(self):
        record = Record({"a": 1})
        first = record.size_bytes
        assert record.size_bytes == first

    def test_get_and_getitem(self):
        record = Record({"a": 1})
        assert record.get("a") == 1
        assert record.get("b", "dflt") == "dflt"
        assert record["a"] == 1
        with pytest.raises(KeyError):
            record["b"]

    def test_non_mapping_payload(self):
        record = Record("raw text")
        assert record.get("a") is None
        assert "a" not in record
        assert list(record.fields()) == []
        with pytest.raises(TypeError):
            record["a"]

    def test_contains_and_fields(self):
        record = Record({"x": 1, "y": 2})
        assert "x" in record
        assert "z" not in record
        assert set(record.fields()) == {"x", "y"}

    def test_equality_and_hash(self):
        a = Record({"k": 1})
        b = Record({"k": 1})
        c = Record({"k": 2})
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != {"k": 1}  # not a Record

    def test_hash_with_nested_unhashable_payload(self):
        a = Record({"k": [1, 2], "m": {"n": {3}}})
        b = Record({"k": [1, 2], "m": {"n": {3}}})
        assert hash(a) == hash(b)

    def test_repr_truncates(self):
        record = Record({"key": "x" * 200})
        assert len(repr(record)) < 80


class TestPointer:
    def test_broadcast_detection(self):
        assert Pointer("f", None, 1).is_broadcast
        assert not Pointer("f", 0, 1).is_broadcast

    def test_kinds(self):
        assert Pointer("f", 1, 1).kind is PointerKind.LOGICAL
        physical = Pointer("f", 1, 3, PointerKind.PHYSICAL)
        assert physical.kind is PointerKind.PHYSICAL

    def test_frozen(self):
        pointer = Pointer("f", 1, 1)
        with pytest.raises(AttributeError):
            pointer.key = 2

    def test_repr(self):
        assert "*" in repr(Pointer("f", None, 1))
        assert "'f'" in repr(Pointer("f", 2, 1))


class TestPointerRange:
    def test_contains_inclusive(self):
        prange = PointerRange("f", 10, 20)
        assert prange.contains(10)
        assert prange.contains(20)
        assert prange.contains(15)
        assert not prange.contains(9)
        assert not prange.contains(21)

    def test_contains_exclusive(self):
        prange = PointerRange("f", 10, 20, inclusive_low=False,
                              inclusive_high=False)
        assert not prange.contains(10)
        assert not prange.contains(20)
        assert prange.contains(11)

    def test_open_ended(self):
        assert PointerRange("f", None, 5).contains(-1000)
        assert PointerRange("f", 5, None).contains(10 ** 9)

    def test_broadcast_default(self):
        assert PointerRange("f", 1, 2).is_broadcast
        assert not PointerRange("f", 1, 2, partition_key=0).is_broadcast

    def test_repr_brackets(self):
        assert repr(PointerRange("f", 1, 2)).count("[") == 1
        exclusive = PointerRange("f", 1, 2, inclusive_low=False)
        assert "(" in repr(exclusive)
