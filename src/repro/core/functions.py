"""Reference and dereference functions — the heart of ReDe's abstraction.

Paper, Section III-B: "A *reference* function takes a record and produces a
set of pointers to other records that the record is associated with.  A
*dereference* function takes a pointer or two pointers and produces a set of
records that the pointer points to or a set of records between the ranges
that the two pointers point to."

The pre-defined library below covers the indexing-scheme taxonomy the paper
targets (local/global index probes, index nested-loop joins, broadcast
joins): "*Referencers* and *Dereferencers* to support the indexing schemes
are pre-defined by the system and reusable ... programmers' task to define a
job in most cases is choosing *Referencers* and *Dereferencers* to use,
creating an *Interpreter* for each *Referencer* for schema-on-read, [and]
optionally creating a *Filter* for each *Dereferencer*".

Join context: each in-flight item carries an immutable context mapping that
referencers may extend (``carry``), so multi-way join outputs can include
attributes picked up along the pointer chain.  The engines treat context as
opaque.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import (Any, Callable, Iterable, Optional, Sequence, TypeGuard,
                    Union)

from repro.core.interpreters import Filter, Interpreter
from repro.core.pointers import Pointer, PointerKind, PointerRange
from repro.core.records import Record
from repro.errors import ExecutionError, JobDefinitionError
from repro.storage.cache import PageId
from repro.storage.files import (
    BtreeFile,
    EntryPayload,
    File,
    PartitionedFile,
    TARGET_KEY_FIELD,
    TARGET_KIND_FIELD,
    TARGET_PARTITION_FIELD,
)

__all__ = [
    "Emission",
    "Referencer",
    "Dereferencer",
    "IndexEntryReferencer",
    "KeyReferencer",
    "FunctionReferencer",
    "IndexRangeDereferencer",
    "IndexLookupDereferencer",
    "FileLookupDereferencer",
]

Context = Mapping[str, Any]
#: What a referencer emits: a pointer (or range) plus the context that the
#: downstream dereference inherits.
Emission = tuple[Union[Pointer, PointerRange], Context]


class Referencer:
    """record → pointers.  Pure CPU; the engines run these inline by default
    ("ReDe does not switch threads for *Referencers* ... because
    *Referencers* do not usually incur IO and are lightweight")."""

    def reference(self, record: Record,
                  context: Context) -> Iterable[Emission]:
        """Produce pointers (with inherited/extended context) from a record."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement reference()")


class Dereferencer:
    """pointer(s) → records, against one named structure.

    "every *Dereferencer* manages either a *File* or a *BtreeFile*" — the
    structure is named here and resolved through the catalog at run time, so
    the same function object is reusable across jobs (and across files with
    the same shape).
    """

    def __init__(self, file_name: str,
                 filter: Optional[Filter] = None) -> None:
        self.file_name = file_name
        self.filter = filter

    def fetch(self, file: File, target: Union[Pointer, PointerRange],
              partition_id: int) -> list[Record]:
        """Fetch the records the target denotes within one partition.

        The engine decides *which* partitions a target touches (one for a
        keyed pointer, all for a broadcast) and charges the corresponding
        IO; the dereferencer only supplies the per-partition access logic.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement fetch()")

    def fetch_batch(self, file: File,
                    targets: Sequence[Union[Pointer, PointerRange]],
                    partition_id: int, page_size: Optional[int] = None
                    ) -> tuple[list[list[Record]], Optional[list[PageId]]]:
        """Fetch a probe list within one partition: one fresh record list
        per target, in order, plus the unique pages the probes touch in
        first-touch order, or None when the dereferencer leaves the page
        walk to its caller (always when ``page_size`` is None).

        The batch kernel's one call per ``(stage, partition)`` batch, and
        the only call it makes: it hands the lists out as the stage's
        outputs when the dereferencer has no filter.  This default loops
        :meth:`fetch` and copies each list, so a dereferencer that
        overrides only :meth:`fetch` works unchanged; the pre-defined
        dereferencers answer the whole list in one storage call.
        """
        fetch = self.fetch
        return [list(fetch(file, target, partition_id))
                for target in targets], None

    def apply_filter(self, records: Iterable[Record],
                     context: Context) -> list[Record]:
        """Run the optional schema-on-read filter over fetched records.

        Dispatches through :meth:`Filter.matches_batch`, so a fetch of N
        records costs one filter invocation instead of N — semantically
        identical (the default ``matches_batch`` loops over ``matches``).
        Without a filter the batch kernel does not call this: it hands
        out :meth:`fetch_batch`'s fresh lists as they are.
        """
        if self.filter is None:
            return list(records)
        records = list(records)
        mask = self.filter.matches_batch(records, context)
        return [r for r, ok in zip(records, mask) if ok]


# --------------------------------------------------------------------------
# Pre-defined referencers
# --------------------------------------------------------------------------


class IndexEntryReferencer(Referencer):
    """From an index-entry record, build the pointer into the base file.

    This is *Referencer-1*/*Referencer-3* of Fig. 4: it interprets the
    record emitted by an index probe "with schema-on-read ... then creates a
    pointer to a Part record from the interpreted record and emits the
    pointer".  Index entries follow the :func:`~repro.storage.files.
    IndexEntry` convention, so no user interpreter is needed.
    """

    def __init__(self, target_file: str,
                 carry: Union[Sequence[str], Mapping[str, str], None] = None
                 ) -> None:
        self.target_file = target_file
        self.carry = _normalize_carry(carry)

    def reference(self, record: Record,
                  context: Context) -> Iterable[Emission]:
        data = record.data
        if type(data) is EntryPayload:
            partition_key = data.target_partition_key
            key = data.target_key
            kind = (PointerKind.LOGICAL if data.target_kind is None
                    else PointerKind.PHYSICAL)
        else:
            try:
                partition_key = record[TARGET_PARTITION_FIELD]
                key = record[TARGET_KEY_FIELD]
            except (KeyError, TypeError) as exc:
                raise ExecutionError(
                    f"record {record!r} is not an index entry") from exc
            kind = PointerKind(record.get(TARGET_KIND_FIELD,
                                          PointerKind.LOGICAL.value))
        if self.carry:
            context = _carried(context, self.carry, record)
        return ((Pointer(self.target_file, partition_key, key, kind),
                 context),)


class KeyReferencer(Referencer):
    """Extract a key from a record (schema-on-read) and point at a structure.

    This is *Referencer-2* of Fig. 4: "takes the Part record and extracts a
    pointer to the B-tree index of Lineitem.l_partkey".  With
    ``broadcast=True`` the emitted pointer carries no partition information,
    which makes the engine "replicate the given pointer to all the
    partitions" — the paper's broadcast-join mechanism.
    """

    def __init__(self, target_file: str, interpreter: Interpreter,
                 key_field: Optional[str] = None,
                 partition_key_field: Optional[str] = None,
                 carry: Union[Sequence[str], Mapping[str, str], None] = None,
                 broadcast: bool = False,
                 key_from_context: Optional[str] = None) -> None:
        if (key_field is None) == (key_from_context is None):
            raise JobDefinitionError(
                "KeyReferencer needs exactly one of key_field or "
                "key_from_context")
        self.target_file = target_file
        self.interpreter = interpreter
        self.key_field = key_field
        self.partition_key_field = partition_key_field
        self.carry = _normalize_carry(carry)
        self.broadcast = broadcast
        self.key_from_context = key_from_context

    def reference(self, record: Record,
                  context: Context) -> Iterable[Emission]:
        view = self.interpreter.interpret(record)
        if self.key_from_context is not None:
            # Multi-way joins resume from an attribute picked up earlier in
            # the chain (e.g. back to Lineitem by the carried o_orderkey
            # after a dimension-table check).
            key = context.get(self.key_from_context)
        else:
            key = view.get(self.key_field)
        if key is None:
            return ()  # schema-on-read: silently skip records without the key
        if self.broadcast:
            partition_key = None
        elif self.partition_key_field is not None:
            partition_key = view.get(self.partition_key_field)
        else:
            partition_key = key
        if self.carry:
            context = _carried(context, self.carry, view)
        return ((Pointer(self.target_file, partition_key, key,
                         PointerKind.LOGICAL), context),)


class FunctionReferencer(Referencer):
    """Wraps an arbitrary reference function — the fully general escape
    hatch for access-method definitions that "could contain arbitrary
    logic"."""

    def __init__(self, fn: Callable[[Record, Context], Iterable[Emission]],
                 name: str = "") -> None:
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "referencer")

    def reference(self, record: Record,
                  context: Context) -> Iterable[Emission]:
        return self._fn(record, context)


# --------------------------------------------------------------------------
# Pre-defined dereferencers
# --------------------------------------------------------------------------


class IndexRangeDereferencer(Dereferencer):
    """Range probe of a ``BtreeFile`` — *Dereferencer-0* of Fig. 4.

    "takes a range of Part.p_retailprice values as arguments and uses the
    B-tree index to get a set of matching records ... It then emits each
    record if the record matches a filtering condition."
    """

    def fetch(self, file: File, target: Union[Pointer, PointerRange],
              partition_id: int) -> list[Record]:
        if not isinstance(file, BtreeFile):
            raise _not_a(self, "a BtreeFile")
        if isinstance(target, PointerRange):
            return file.range_lookup(target, partition_id)
        return file.lookup_in_partition(partition_id, target)

    def fetch_batch(self, file: File,
                    targets: Sequence[Union[Pointer, PointerRange]],
                    partition_id: int, page_size: Optional[int] = None
                    ) -> tuple[list[list[Record]], Optional[list[PageId]]]:
        if type(self).fetch is not IndexRangeDereferencer.fetch:
            return super().fetch_batch(file, targets, partition_id,
                                       page_size)
        if not isinstance(file, BtreeFile):
            raise _not_a(self, "a BtreeFile")
        return file.probe_batch(partition_id, targets, page_size)


class IndexLookupDereferencer(Dereferencer):
    """Equality probe of a ``BtreeFile`` — *Dereferencer-2* of Fig. 4."""

    def fetch(self, file: File, target: Union[Pointer, PointerRange],
              partition_id: int) -> list[Record]:
        if not isinstance(file, BtreeFile):
            raise _not_a(self, "a BtreeFile")
        if isinstance(target, PointerRange):
            raise ExecutionError(_EQUALITY_RANGE_ERROR)
        return file.lookup_in_partition(partition_id, target)

    def fetch_batch(self, file: File,
                    targets: Sequence[Union[Pointer, PointerRange]],
                    partition_id: int, page_size: Optional[int] = None
                    ) -> tuple[list[list[Record]], Optional[list[PageId]]]:
        if type(self).fetch is not IndexLookupDereferencer.fetch:
            return super().fetch_batch(file, targets, partition_id,
                                       page_size)
        if not isinstance(file, BtreeFile):
            raise _not_a(self, "a BtreeFile")
        if not _only_pointers(targets):
            raise ExecutionError(_EQUALITY_RANGE_ERROR)
        return file.probe_batch(partition_id, targets, page_size)


class FileLookupDereferencer(Dereferencer):
    """Record fetch from a base ``File`` — *Dereferencer-1*/*-3* of Fig. 4:
    "takes the pointer and accesses the Part file using the pointer to get
    the corresponding record"."""

    def fetch(self, file: File, target: Union[Pointer, PointerRange],
              partition_id: int) -> list[Record]:
        if not isinstance(file, PartitionedFile):
            raise _not_a(self, "a base file")
        if isinstance(target, PointerRange):
            raise ExecutionError(_BASE_RANGE_ERROR)
        return file.lookup_in_partition(partition_id, target)

    def fetch_batch(self, file: File,
                    targets: Sequence[Union[Pointer, PointerRange]],
                    partition_id: int, page_size: Optional[int] = None
                    ) -> tuple[list[list[Record]], Optional[list[PageId]]]:
        if type(self).fetch is not FileLookupDereferencer.fetch:
            return super().fetch_batch(file, targets, partition_id,
                                       page_size)
        if not isinstance(file, PartitionedFile):
            raise _not_a(self, "a base file")
        if not _only_pointers(targets):
            raise ExecutionError(_BASE_RANGE_ERROR)
        return file.probe_batch(partition_id, targets, page_size)


# The pre-defined dereferencers answer a batch with one type check and
# one storage call.  A subclass that overrides ``fetch`` alone keeps the
# base class's loop over its own ``fetch``.

_EQUALITY_RANGE_ERROR = ("equality dereferencer received a pointer range; "
                         "use IndexRangeDereferencer")
_BASE_RANGE_ERROR = "base-file dereferencer cannot take a pointer range"


def _not_a(dereferencer: Dereferencer, kind: str) -> JobDefinitionError:
    return JobDefinitionError(
        f"{type(dereferencer).__name__} targets "
        f"{dereferencer.file_name!r}, which is not {kind}")


def _only_pointers(targets: Sequence[Union[Pointer, PointerRange]]
                   ) -> TypeGuard[Sequence[Pointer]]:
    """True when no target is a range (the check ``fetch`` makes per
    target, made for the whole batch)."""
    for target in targets:
        if isinstance(target, PointerRange):
            return False
    return True


def _carried(context: Context, carry: Mapping[str, str],
             source: Any) -> Context:
    """A copy of ``context`` extended with ``carry``'s fields of
    ``source``.  Context is copy-on-extend so parallel branches never
    share state; callers skip the copy when they carry nothing."""
    merged = dict(context)
    get = source.get
    for ctx_key, field in carry.items():
        merged[ctx_key] = get(field)
    return merged


def _normalize_carry(
        carry: Union[Sequence[str], Mapping[str, str], None]
) -> Mapping[str, str]:
    """Accept ``["f1", "f2"]`` (identity naming) or ``{"ctx": "field"}``."""
    if carry is None:
        return {}
    if isinstance(carry, Mapping):
        return dict(carry)
    return {name: name for name in carry}
