"""Schema-on-read: ``Interpreter`` and ``Filter`` functions.

Paper, Section III-B: an *Interpreter* "interprets a given record with
schema-on-read"; a *Filter* "interprets a given record with schema-on-read
and filters out the record if the given condition does not match the
record".  These are the only places where raw payloads acquire structure —
the storage layer never sees a schema, which is what lets ReDe index and
query data (like the Japanese insurance claims of Section IV) that cannot
even be expressed in nested-column formats.

Interpreters return a mapping view of the record.  Filters take the record
*and the carried join context*, so join conditions that compare a fetched
record against upstream attributes (e.g. Q5's ``c_nationkey = s_nationkey``)
are expressible.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import Any, Callable, Optional

from repro.core.records import Record

__all__ = [
    "Interpreter",
    "MappingInterpreter",
    "DelimitedTextInterpreter",
    "FunctionInterpreter",
    "Filter",
    "PredicateFilter",
    "FieldRangeFilter",
    "FieldEqualsFilter",
    "ContextMatchFilter",
    "AndFilter",
]

Context = Mapping[str, Any]

#: the view of a payload that has no fields; read-only because it is shared
_EMPTY_VIEW: Mapping[str, Any] = MappingProxyType({})


class Interpreter:
    """Maps a raw record to a field-addressable view, at read time."""

    def interpret(self, record: Record) -> Mapping[str, Any]:
        """Return the record's fields under this interpretation."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement interpret()")

    def field(self, record: Record, name: str, default: Any = None) -> Any:
        """Convenience: one field of the interpreted view."""
        return self.interpret(record).get(name, default)

    def interpret_batch(self, records: Sequence[Record]
                        ) -> list[Mapping[str, Any]]:
        """Interpret a whole batch in one dispatch.

        The default loops over :meth:`interpret`, so any subclass is
        batch-correct for free; the built-in interpreters override it to
        amortize attribute lookups and per-record call overhead across
        the batch (Section III-B's schema-on-read, paid once per batch).
        """
        return [self.interpret(record) for record in records]


class MappingInterpreter(Interpreter):
    """The trivial interpretation for records that already carry mappings.

    This is the common case for relational-style rows (TPC-H); the point of
    the abstraction is that *nothing else* in the system assumes it.
    """

    def interpret(self, record: Record) -> Mapping[str, Any]:
        data = record.data
        if type(data) is dict or isinstance(data, Mapping):
            return data
        return _EMPTY_VIEW

    def interpret_batch(self, records: Sequence[Record]
                        ) -> list[Mapping[str, Any]]:
        # Exactly ``[self.interpret(r) for r in records]``, inlined.
        return [data if type(data := record.data) is dict
                or isinstance(data, Mapping) else _EMPTY_VIEW
                for record in records]


class DelimitedTextInterpreter(Interpreter):
    """Interprets a delimited text payload (``a|b|c``) against field names.

    Typed conversion is per-field: ``types`` maps a field name to a callable
    applied to its raw string (absent fields stay strings).
    """

    def __init__(self, field_names: Sequence[str], delimiter: str = "|",
                 types: Optional[Mapping[str, Callable[[str], Any]]] = None
                 ) -> None:
        self.field_names = list(field_names)
        self.delimiter = delimiter
        self.types = dict(types or {})

    def interpret(self, record: Record) -> Mapping[str, Any]:
        if not isinstance(record.data, str):
            return {}
        parts = record.data.split(self.delimiter)
        fields: dict[str, Any] = {}
        for name, raw in zip(self.field_names, parts):
            converter = self.types.get(name)
            fields[name] = converter(raw) if converter else raw
        return fields

    def interpret_batch(self, records: Sequence[Record]
                        ) -> list[Mapping[str, Any]]:
        # Hoist the per-field converter resolution out of the record loop:
        # the (name, converter) schedule is identical for every record in
        # the batch, which is the whole amortization argument.
        schedule = [(name, self.types.get(name))
                    for name in self.field_names]
        delimiter = self.delimiter
        views: list[Mapping[str, Any]] = []
        for record in records:
            if not isinstance(record.data, str):
                views.append({})
                continue
            parts = record.data.split(delimiter)
            views.append({
                name: (converter(raw) if converter else raw)
                for (name, converter), raw in zip(schedule, parts)})
        return views


class FunctionInterpreter(Interpreter):
    """Wraps an arbitrary ``Record -> Mapping`` function.

    The escape hatch for genuinely complex formats; the insurance-claims
    interpreters in :mod:`repro.datagen.claims` are richer subclasses.
    """

    def __init__(self, fn: Callable[[Record], Mapping[str, Any]],
                 name: str = "") -> None:
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "interpreter")

    def interpret(self, record: Record) -> Mapping[str, Any]:
        return self._fn(record)


class Filter:
    """A predicate over a fetched record (plus carried context)."""

    def matches(self, record: Record, context: Context) -> bool:
        """True if the record survives the filter."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement matches()")

    def matches_batch(self, records: Sequence[Record],
                      context: Context) -> list[bool]:
        """One verdict per record, evaluated in one dispatch.

        The context is constant across the batch (all records of one
        dereference share their carried join context), which is what the
        vectorized overrides exploit.  The default loops over
        :meth:`matches`, so external subclasses stay batch-correct.
        """
        return [self.matches(record, context) for record in records]


class PredicateFilter(Filter):
    """Wraps a plain ``(record, context) -> bool`` function."""

    def __init__(self, fn: Callable[[Record, Context], bool],
                 name: str = "") -> None:
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "filter")

    def matches(self, record: Record, context: Context) -> bool:
        return bool(self._fn(record, context))

    def matches_batch(self, records: Sequence[Record],
                      context: Context) -> list[bool]:
        fn = self._fn
        return [bool(fn(record, context)) for record in records]


class FieldRangeFilter(Filter):
    """Keeps records whose interpreted field falls within ``[low, high]``."""

    def __init__(self, interpreter: Interpreter, field: str,
                 low: Any = None, high: Any = None) -> None:
        self.interpreter = interpreter
        self.field = field
        self.low = low
        self.high = high

    def matches(self, record: Record, context: Context) -> bool:
        value = self.interpreter.field(record, self.field)
        if value is None:
            return False
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def matches_batch(self, records: Sequence[Record],
                      context: Context) -> list[bool]:
        field, low, high = self.field, self.low, self.high
        verdicts = []
        for view in self.interpreter.interpret_batch(records):
            value = view.get(field)
            verdicts.append(
                value is not None
                and not (low is not None and value < low)
                and not (high is not None and value > high))
        return verdicts


class FieldEqualsFilter(Filter):
    """Keeps records whose interpreted field equals a constant."""

    def __init__(self, interpreter: Interpreter, field: str,
                 value: Any) -> None:
        self.interpreter = interpreter
        self.field = field
        self.value = value

    def matches(self, record: Record, context: Context) -> bool:
        return self.interpreter.field(record, self.field) == self.value

    def matches_batch(self, records: Sequence[Record],
                      context: Context) -> list[bool]:
        field, value = self.field, self.value
        return [view.get(field) == value
                for view in self.interpreter.interpret_batch(records)]


class ContextMatchFilter(Filter):
    """Keeps records whose interpreted field equals a carried context value.

    This expresses residual join predicates: in TPC-H Q5 the fetched
    supplier must satisfy ``s_nationkey = c_nationkey`` where the customer's
    nation key was carried through the pointer chain.
    """

    def __init__(self, interpreter: Interpreter, field: str,
                 context_key: str) -> None:
        self.interpreter = interpreter
        self.field = field
        self.context_key = context_key

    def matches(self, record: Record, context: Context) -> bool:
        if self.context_key not in context:
            return False
        return (self.interpreter.field(record, self.field)
                == context[self.context_key])

    def matches_batch(self, records: Sequence[Record],
                      context: Context) -> list[bool]:
        # The carried context is one value for the whole batch, so the
        # membership test is paid once instead of once per record.
        if self.context_key not in context:
            return [False] * len(records)
        field, expected = self.field, context[self.context_key]
        return [view.get(field) == expected
                for view in self.interpreter.interpret_batch(records)]


class AndFilter(Filter):
    """Conjunction of filters; matches only if every part matches."""

    def __init__(self, *filters: Filter) -> None:
        self.filters = filters

    def matches(self, record: Record, context: Context) -> bool:
        return all(f.matches(record, context) for f in self.filters)

    def matches_batch(self, records: Sequence[Record],
                      context: Context) -> list[bool]:
        # Short-circuiting conjunction over masks: each sub-filter only
        # sees the records still alive, mirroring the per-record `all()`.
        verdicts = [True] * len(records)
        alive = list(records)
        alive_idx = list(range(len(records)))
        for part in self.filters:
            if not alive:
                break
            mask = part.matches_batch(alive, context)
            next_alive = []
            next_idx = []
            for record, index, ok in zip(alive, alive_idx, mask):
                if ok:
                    next_alive.append(record)
                    next_idx.append(index)
                else:
                    verdicts[index] = False
            alive, alive_idx = next_alive, next_idx
        return verdicts
