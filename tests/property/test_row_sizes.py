"""Property tests: row sizes equal the per-field rule.

Fact-table rows are sized at generation as ``fixed_row_size`` of their
table's first row plus their own text lengths, and ``estimate_size``
sizes every other row.  Both must answer exactly what the per-field
recursion below answers: bools beside ints, ``None``, text, nested
lists, tuples, dicts and bytes, and non-text keys.
"""

from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pointer, PointerKind, Record
from repro.core.records import estimate_size, fixed_row_size

_SCALAR_SIZES = {int: 8, float: 8, bool: 1, type(None): 0}


def oracle_size(value) -> int:
    """The per-field sizing rule, recursing through every container."""
    value_type = type(value)
    if value_type is dict:
        total = 2 * len(value)
        for key, item in value.items():
            total += len(key) if type(key) is str else oracle_size(key)
            item_type = type(item)
            if item_type is str:
                total += len(item)
            elif item_type in _SCALAR_SIZES:
                total += _SCALAR_SIZES[item_type]
            else:
                total += oracle_size(item)
        return total
    if value_type in _SCALAR_SIZES:
        return _SCALAR_SIZES[value_type]
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, Mapping):
        return sum(oracle_size(k) + oracle_size(v) + 2
                   for k, v in value.items())
    if isinstance(value, Pointer):
        return 16
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(oracle_size(item) for item in value) + 8
    return 16


scalars = st.one_of(st.integers(), st.booleans(), st.none(),
                    st.floats(allow_nan=False), st.text(max_size=8))
nested = st.recursive(
    scalars | st.binary(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)
text_keys = st.text(max_size=6)
other_keys = st.one_of(st.integers(), st.booleans(), st.floats(
    allow_nan=False), st.tuples(st.integers(), st.text(max_size=3)))

flat_rows = st.dictionaries(text_keys, scalars, max_size=8)
nested_rows = st.dictionaries(text_keys, nested, max_size=6)
keyed_rows = st.dictionaries(text_keys | other_keys, scalars, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(flat_rows | nested_rows | keyed_rows, min_size=1,
                max_size=8))
def test_rows_size_exactly_as_the_per_field_rule(rows):
    for row in rows:
        assert estimate_size(row) == oracle_size(row)
        assert Record(dict(row)).size_bytes == oracle_size(row)


@settings(max_examples=200, deadline=None)
@given(flat_rows | nested_rows | keyed_rows)
def test_a_flat_row_is_its_fixed_size_plus_its_text(row):
    """``fixed_row_size`` is what a producer of one-shape rows adds to
    each row's text lengths; only flat rows have one."""
    flat = all(type(key) is str for key in row) and all(
        type(item) in (str, int, float, bool, type(None))
        for item in row.values())
    if not flat:
        with pytest.raises(ValueError):
            fixed_row_size(row)
        return
    texts = sum(len(item) for item in row.values() if type(item) is str)
    assert fixed_row_size(row) + texts == oracle_size(row)


def test_bools_ints_and_floats_of_one_shape_differ():
    assert estimate_size({"a": 1, "b": "xy"}) == 2 * 2 + 2 + 8 + 2
    assert estimate_size({"a": True, "b": "xy"}) == 2 * 2 + 2 + 1 + 2
    assert estimate_size({"a": 1.0, "b": "xy"}) == 2 * 2 + 2 + 8 + 2
    assert estimate_size({"a": None, "b": ["xy"]}) == 2 * 2 + 2 + 0 + 10


def test_a_fixed_size_counts_bools_ints_and_floats_apart():
    """Rows of one key tuple but other value types differ in fixed size:
    a bool is 1 byte, an int or a float 8, None 0."""
    assert fixed_row_size({"a": 1, "b": "xy"}) == 2 * 2 + 2 + 8
    assert fixed_row_size({"a": True, "b": "xy"}) == 2 * 2 + 2 + 1
    assert fixed_row_size({"a": 1.0, "b": "xy"}) == 2 * 2 + 2 + 8
    assert fixed_row_size({"a": None, "b": "xy"}) == 2 * 2 + 2 + 0
    assert fixed_row_size({"only": "abc"}) == 2 + 4
    assert fixed_row_size({}) == 0


def test_payloads_that_are_not_plain_dicts_keep_their_rules():
    pointer = Pointer("orders", 3, 3, PointerKind.LOGICAL)
    for value in (pointer, [pointer, "ab"], (1, True), b"abc", "abc",
                  frozenset({1, 2}), object()):
        assert estimate_size(value) == oracle_size(value)
