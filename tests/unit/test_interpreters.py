"""Unit tests for schema-on-read interpreters and filters."""

from collections.abc import Mapping

import pytest

from repro.core.interpreters import (
    AndFilter,
    ContextMatchFilter,
    DelimitedTextInterpreter,
    FieldEqualsFilter,
    FieldRangeFilter,
    FunctionInterpreter,
    MappingInterpreter,
    PredicateFilter,
)
from repro.core.records import Record

INTERP = MappingInterpreter()


class TestMappingInterpreter:
    def test_passthrough(self):
        record = Record({"a": 1})
        assert INTERP.interpret(record) == {"a": 1}
        assert INTERP.field(record, "a") == 1
        assert INTERP.field(record, "b", 9) == 9

    def test_non_mapping_is_empty(self):
        assert INTERP.interpret(Record("text")) == {}


class TestDelimitedTextInterpreter:
    def test_basic_split(self):
        interp = DelimitedTextInterpreter(["a", "b", "c"])
        view = interp.interpret(Record("x|y|z"))
        assert view == {"a": "x", "b": "y", "c": "z"}

    def test_typed_conversion(self):
        interp = DelimitedTextInterpreter(["id", "price"],
                                          types={"id": int, "price": float})
        view = interp.interpret(Record("7|19.5"))
        assert view == {"id": 7, "price": 19.5}

    def test_short_row_yields_partial_view(self):
        interp = DelimitedTextInterpreter(["a", "b", "c"])
        assert interp.interpret(Record("only")) == {"a": "only"}

    def test_extra_fields_ignored(self):
        interp = DelimitedTextInterpreter(["a"])
        assert interp.interpret(Record("x|y|z")) == {"a": "x"}

    def test_custom_delimiter(self):
        interp = DelimitedTextInterpreter(["a", "b"], delimiter=",")
        assert interp.interpret(Record("1,2")) == {"a": "1", "b": "2"}

    def test_non_text_payload(self):
        interp = DelimitedTextInterpreter(["a"])
        assert interp.interpret(Record({"a": 1})) == {}


class TestFunctionInterpreter:
    def test_wraps_callable(self):
        interp = FunctionInterpreter(lambda r: {"n": len(r.data)})
        assert interp.interpret(Record("abcd")) == {"n": 4}

    def test_name_defaults(self):
        def my_parser(record):
            return {}

        assert FunctionInterpreter(my_parser).name == "my_parser"
        assert FunctionInterpreter(my_parser, name="other").name == "other"


class TestFilters:
    def test_predicate_filter(self):
        keep_even = PredicateFilter(lambda r, ctx: r["v"] % 2 == 0)
        assert keep_even.matches(Record({"v": 2}), {})
        assert not keep_even.matches(Record({"v": 3}), {})

    def test_field_range_filter(self):
        flt = FieldRangeFilter(INTERP, "v", 10, 20)
        assert flt.matches(Record({"v": 15}), {})
        assert flt.matches(Record({"v": 10}), {})
        assert flt.matches(Record({"v": 20}), {})
        assert not flt.matches(Record({"v": 9}), {})
        assert not flt.matches(Record({"v": 21}), {})

    def test_field_range_open_bounds(self):
        assert FieldRangeFilter(INTERP, "v", None, 5).matches(
            Record({"v": -100}), {})
        assert FieldRangeFilter(INTERP, "v", 5, None).matches(
            Record({"v": 100}), {})

    def test_field_range_missing_field_rejected(self):
        flt = FieldRangeFilter(INTERP, "v", 0, 10)
        assert not flt.matches(Record({"other": 5}), {})

    def test_field_equals_filter(self):
        flt = FieldEqualsFilter(INTERP, "name", "ASIA")
        assert flt.matches(Record({"name": "ASIA"}), {})
        assert not flt.matches(Record({"name": "EUROPE"}), {})
        assert not flt.matches(Record({}), {})

    def test_context_match_filter(self):
        flt = ContextMatchFilter(INTERP, "s_nationkey", "c_nationkey")
        assert flt.matches(Record({"s_nationkey": 3}), {"c_nationkey": 3})
        assert not flt.matches(Record({"s_nationkey": 3}),
                               {"c_nationkey": 4})
        # Missing context key: reject rather than pass silently.
        assert not flt.matches(Record({"s_nationkey": 3}), {})

    def test_and_filter(self):
        flt = AndFilter(FieldRangeFilter(INTERP, "v", 0, 10),
                        FieldEqualsFilter(INTERP, "tag", "x"))
        assert flt.matches(Record({"v": 5, "tag": "x"}), {})
        assert not flt.matches(Record({"v": 5, "tag": "y"}), {})
        assert not flt.matches(Record({"v": 50, "tag": "x"}), {})

    def test_and_filter_empty_matches_all(self):
        assert AndFilter().matches(Record({}), {})


class TestBatchInterpretation:
    """The batch APIs are pure amortizations of the per-record ones."""

    def test_mapping_batch_matches_per_record(self):
        records = [Record({"a": 1}), Record("raw"), Record({"b": 2})]
        assert (INTERP.interpret_batch(records)
                == [INTERP.interpret(r) for r in records])

    def test_mapping_batch_returns_the_same_objects(self):
        class Frozen(Mapping):
            def __init__(self, data):
                self._data = data

            def __getitem__(self, key):
                return self._data[key]

            def __iter__(self):
                return iter(self._data)

            def __len__(self):
                return len(self._data)

        records = [Record({"a": 1}), Record(Frozen({"b": 2})),
                   Record("raw"), Record({"c": 3}), Record(7)]
        batch = INTERP.interpret_batch(records)
        singles = [INTERP.interpret(r) for r in records]
        assert len(batch) == len(singles)
        for view, single in zip(batch, singles):
            assert view is single
        assert batch[0] is records[0].data
        assert batch[1] is records[1].data
        assert batch[2] == {} and batch[4] == {}

    def test_delimited_batch_matches_per_record(self):
        interp = DelimitedTextInterpreter(["id", "price"],
                                          types={"id": int, "price": float})
        records = [Record("7|19.5"), Record({"not": "text"}),
                   Record("3|0.25"), Record("9")]
        assert (interp.interpret_batch(records)
                == [interp.interpret(r) for r in records])

    def test_default_batch_loops_over_interpret(self):
        interp = FunctionInterpreter(lambda r: {"n": len(r.data)})
        records = [Record("ab"), Record("abcd")]
        assert interp.interpret_batch(records) == [{"n": 2}, {"n": 4}]

    def test_empty_batch(self):
        assert INTERP.interpret_batch([]) == []
        assert FieldEqualsFilter(INTERP, "a", 1).matches_batch([], {}) == []


class TestBatchFilters:
    def records(self):
        return [Record({"v": i, "tag": "x" if i % 2 else "y"})
                for i in range(8)] + [Record({"other": 1})]

    @pytest.mark.parametrize("flt", [
        PredicateFilter(lambda r, ctx: r.data.get("v", 0) % 2 == 0),
        FieldRangeFilter(INTERP, "v", 2, 5),
        FieldRangeFilter(INTERP, "v", None, 3),
        FieldEqualsFilter(INTERP, "tag", "x"),
        AndFilter(FieldRangeFilter(INTERP, "v", 0, 6),
                  FieldEqualsFilter(INTERP, "tag", "x")),
        AndFilter(),
    ])
    def test_batch_verdicts_match_per_record(self, flt):
        records = self.records()
        assert (flt.matches_batch(records, {})
                == [flt.matches(r, {}) for r in records])

    def test_context_match_batch(self):
        flt = ContextMatchFilter(INTERP, "nk", "carried_nk")
        records = [Record({"nk": 3}), Record({"nk": 4}), Record({})]
        assert flt.matches_batch(records, {"carried_nk": 3}) == [
            True, False, False]

    def test_context_match_batch_missing_key_rejects_all(self):
        flt = ContextMatchFilter(INTERP, "nk", "carried_nk")
        records = [Record({"nk": 3}), Record({"nk": 4})]
        assert flt.matches_batch(records, {}) == [False, False]

    def test_and_filter_short_circuits_dead_records(self):
        """Later conjuncts only see records still alive, mirroring the
        per-record ``all()`` short-circuit."""
        seen = []

        def spy(record, context):
            seen.append(record.data["v"])
            return True

        flt = AndFilter(FieldRangeFilter(INTERP, "v", 0, 2),
                        PredicateFilter(spy))
        records = [Record({"v": i}) for i in range(6)]
        assert flt.matches_batch(records, {}) == [True] * 3 + [False] * 3
        assert seen == [0, 1, 2]

    def test_and_filter_all_dead_skips_remaining_parts(self):
        def boom(record, context):
            raise AssertionError("should never run")

        flt = AndFilter(FieldEqualsFilter(INTERP, "v", -1),
                        PredicateFilter(boom))
        records = [Record({"v": i}) for i in range(4)]
        assert flt.matches_batch(records, {}) == [False] * 4
