"""The semantic result cache: repeated and subsumed queries served free.

Two tiers share one byte-budget LRU:

* **Tier A — scan-stage tables.**  A :class:`~repro.plan.scanstage.
  ScanLookupDereferencer` builds its replicated hash table *pre-filter*
  and identifies it by a value-based ``key_id`` (target file, via-index
  or None).  Jobs attach this cache to their scan stages; a build
  publishes its table here, and the next job with the same ``key_id``
  (and the same unmerged-run set) adopts it instead of re-scanning —
  the engine charges nothing for an adopted table.

* **Tier B — whole-job results.**  A completed job's output rows are
  stored under a canonical signature: per-function value signatures
  (structure names, filter trees, join keys) plus the input probe and
  the lake-state token (catalog version + placement epoch — the version
  advances on every ingest commit, compaction, build or demotion, so a
  stale entry is unreachable by construction).  An identical later job
  is served instantly.  A *subsumed* job — same shape, tighter source
  range — is served by filtering the cached rows on per-row
  *provenance*: :meth:`prepare_job` wraps the job's
  :class:`~repro.core.functions.IndexEntryReferencer` so every output
  row carries the source index key it derived from (under a reserved
  context key, stripped from every row a caller ever sees).

Invalidation is belt and braces: the lake token in every key makes
stale entries unreachable, and the catalog's result-invalidator hooks
(:meth:`attach`) explicitly drop entries touching a mutated structure
so they stop occupying budget.

A gateway without a cache (the default) and a cache with budget 0 are
exact no-ops: no signatures computed, no rows touched, bit-identical
serving.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.core.functions import (
    FileLookupDereferencer,
    IndexEntryReferencer,
    IndexLookupDereferencer,
    IndexRangeDereferencer,
    KeyReferencer,
    Referencer,
)
from repro.core.interpreters import DelimitedTextInterpreter, Interpreter
from repro.core.job import Job, OutputRow
from repro.core.pointers import Pointer, PointerRange
from repro.core.records import Record
from repro.plan.feedback import filter_signature
from repro.plan.scanstage import ScanLookupDereferencer
from repro.storage.files import INDEX_KEY_FIELD

__all__ = ["PROVENANCE_KEY", "SemanticResultCache"]

#: reserved context key carrying each row's source index key; present
#: only while a job is in flight — stripped from stored *and* served rows
PROVENANCE_KEY = "Δcache-src"


class _ProvenanceReferencer(Referencer):
    """Wraps an IndexEntryReferencer to tag emissions with the source
    index key, so cached rows can later be filtered to a tighter range.
    Context keys are invisible to the engines' cost accounting (only
    record bytes are charged), so the wrapped job's simulated run is
    bit-identical to the unwrapped one."""

    def __init__(self, inner: IndexEntryReferencer) -> None:
        self.inner = inner

    def reference(self, record: Record, context) -> Iterable:
        source_key = record.get(INDEX_KEY_FIELD)
        for pointer, ctx in self.inner.reference(record, context):
            tagged = dict(ctx)
            tagged[PROVENANCE_KEY] = source_key
            yield pointer, tagged


# -- canonical signatures ---------------------------------------------------


def _interpreter_sig(interpreter: Interpreter) -> tuple:
    if isinstance(interpreter, DelimitedTextInterpreter):
        return ("delim", tuple(interpreter.field_names),
                interpreter.delimiter)
    # Opaque interpreters match by instance identity only — lakes hold
    # one interpreter per table, so repeated queries still share it.
    return ("opaque-interp", id(interpreter))


def _function_sig(fn: Any) -> Optional[tuple]:
    """Value signature of one job function; None = uncacheable."""
    if isinstance(fn, _ProvenanceReferencer):
        return _function_sig(fn.inner)
    if isinstance(fn, ScanLookupDereferencer):
        if fn.key_id is None:
            return None
        return ("scan", fn.file_name, fn.key_id,
                filter_signature(fn.filter))
    if isinstance(fn, (IndexRangeDereferencer, IndexLookupDereferencer,
                       FileLookupDereferencer)):
        sig = filter_signature(fn.filter)
        if sig is not None and any("opaque" in str(part)
                                   for part in _flatten(sig)):
            return None
        return (type(fn).__name__, fn.file_name, sig)
    if isinstance(fn, IndexEntryReferencer):
        return ("entry", fn.target_file,
                tuple(sorted(fn.carry.items())))
    if isinstance(fn, KeyReferencer):
        return ("key", fn.target_file, fn.key_field, fn.key_from_context,
                fn.partition_key_field, fn.broadcast,
                tuple(sorted(fn.carry.items())),
                _interpreter_sig(fn.interpreter))
    return None


def _flatten(sig: Any) -> Iterable:
    if isinstance(sig, tuple):
        for part in sig:
            yield from _flatten(part)
    else:
        yield sig


def _pointer_sig(target: Pointer) -> tuple:
    return ("ptr", target.file, target.partition_key, target.key,
            target.kind.value)


def _bounds(rng: Optional[PointerRange]) -> Optional[tuple]:
    if rng is None:
        return None
    return (rng.low, rng.high, rng.inclusive_low, rng.inclusive_high)


def _covers(outer: PointerRange, inner: PointerRange) -> bool:
    """True when every key in ``inner`` is in ``outer``."""
    if outer.low is not None:
        if inner.low is None:
            return False
        if inner.low < outer.low:
            return False
        if (inner.low == outer.low and inner.inclusive_low
                and not outer.inclusive_low):
            return False
    if outer.high is not None:
        if inner.high is None:
            return False
        if inner.high > outer.high:
            return False
        if (inner.high == outer.high and inner.inclusive_high
                and not outer.inclusive_high):
            return False
    return True


def _structures_of(job: Job) -> tuple[str, ...]:
    names: set[str] = set()
    for fn in job.functions:
        if isinstance(fn, _ProvenanceReferencer):
            fn = fn.inner
        for attr in ("file_name", "target_file"):
            name = getattr(fn, attr, None)
            if isinstance(name, str):
                names.add(name)
        key_id = getattr(fn, "key_id", None)
        if key_id:
            names.update(n for n in key_id if isinstance(n, str))
    return tuple(sorted(names))


# -- the cache --------------------------------------------------------------


@dataclass
class _Entry:
    nbytes: int
    structures: tuple[str, ...]
    payload: Any
    #: tier A: the (file identity, run set) the table reflects
    token: Optional[tuple] = None
    #: tier B: the source range the rows answer, for subsumption
    covers: Optional[PointerRange] = None
    #: tier B: rows paired with their source-key provenance
    shape: Optional[tuple] = None

    has_provenance: bool = field(default=False)


class SemanticResultCache:
    """Byte-budgeted LRU over scan-stage tables and whole-job results."""

    def __init__(self, budget_bytes: int = 64 << 20) -> None:
        self.budget_bytes = budget_bytes
        self._lru: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._bytes = 0
        #: tier-B range entries per job shape, for subsumption probes
        self._ranges: dict[tuple, list[tuple]] = {}
        #: cache keys touching each structure, for explicit invalidation
        self._by_structure: dict[str, set[tuple]] = {}
        self.hits = 0
        self.subsumed_hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0
        self.table_hits = 0
        self.table_insertions = 0

    # -- plumbing --------------------------------------------------------

    def attach(self, catalog: Any) -> None:
        """Register for the catalog's result-invalidation fan-out."""
        catalog.register_result_invalidator(self.invalidate_structure)

    def invalidate_structure(self, name: str) -> None:
        for key in self._by_structure.pop(name, ()):  # pragma: no branch
            if self._drop(key):
                self.invalidations += 1

    def _drop(self, key: tuple) -> bool:
        entry = self._lru.pop(key, None)
        if entry is None:
            return False
        self._bytes -= entry.nbytes
        return True

    def _store(self, key: tuple, entry: _Entry) -> bool:
        if self.budget_bytes <= 0 or entry.nbytes > self.budget_bytes:
            return False
        self._drop(key)
        self._lru[key] = entry
        self._bytes += entry.nbytes
        for name in entry.structures:
            self._by_structure.setdefault(name, set()).add(key)
        while self._bytes > self.budget_bytes and self._lru:
            victim, old = next(iter(self._lru.items()))
            self._drop(victim)
            self.evictions += 1
        return key in self._lru

    def _touch(self, key: tuple) -> None:
        self._lru.move_to_end(key)

    # -- tier A: scan-stage tables ---------------------------------------

    def get_table(self, key_id: tuple, token: tuple) -> Optional[dict]:
        entry = self._lru.get(("table", key_id))
        if entry is None or entry.token != token:
            return None
        self._touch(("table", key_id))
        self.table_hits += 1
        return entry.payload

    def put_table(self, key_id: tuple, token: tuple, table: dict,
                  nbytes: int, structures: Iterable[str]) -> None:
        stored = self._store(("table", key_id), _Entry(
            nbytes=max(1, int(nbytes)), structures=tuple(structures),
            payload=table, token=token))
        if stored:
            self.table_insertions += 1

    # -- tier B: whole-job results ---------------------------------------

    def job_signature(self, job: Job,
                      lake_token: tuple) -> Optional[tuple]:
        """``(shape, source range or None)``; None = uncacheable job."""
        sigs = []
        for fn in job.functions:
            sig = _function_sig(fn)
            if sig is None:
                return None
            sigs.append(sig)
        ranges = [t for t in job.inputs if isinstance(t, PointerRange)]
        if len(job.inputs) == 1 and len(ranges) == 1:
            rng = ranges[0]
            inputs_sig: tuple = ("range", rng.file, rng.partition_key)
        elif ranges:
            return None  # mixed pointer/range inputs: not canonicalized
        else:
            rng = None
            inputs_sig = tuple(_pointer_sig(t) for t in job.inputs)
        return (tuple(sigs), inputs_sig, lake_token), rng

    def prepare_job(self, job: Job) -> None:
        """Instrument a job about to run: attach tier A to its scan
        stages and add row provenance for later subsumption serving."""
        for fn in job.functions:
            if isinstance(fn, ScanLookupDereferencer) and fn.cache is None:
                fn.cache = self
        if self.budget_bytes <= 0:
            return
        if (len(job.functions) >= 2 and len(job.inputs) == 1
                and isinstance(job.inputs[0], PointerRange)
                and isinstance(job.functions[0], IndexRangeDereferencer)
                and type(job.functions[1]) is IndexEntryReferencer):
            job.functions[1] = _ProvenanceReferencer(job.functions[1])

    def lookup(self, job: Job,
               lake_token: tuple) -> Optional[list[OutputRow]]:
        """Rows for an exact or subsumed match, else None (a miss)."""
        if self.budget_bytes <= 0:
            return None
        signed = self.job_signature(job, lake_token)
        if signed is None:
            self.misses += 1
            return None
        shape, rng = signed
        key = ("job", shape, _bounds(rng))
        entry = self._lru.get(key)
        if entry is not None:
            self._touch(key)
            self.hits += 1
            return [row for row, __ in entry.payload]
        if rng is not None:
            for stored_key in self._ranges.get(shape, ()):
                entry = self._lru.get(stored_key)
                if entry is None or entry.covers is None:
                    continue
                if not entry.has_provenance:
                    continue
                if not _covers(entry.covers, rng):
                    continue
                self._touch(stored_key)
                self.subsumed_hits += 1
                return [row for row, src in entry.payload
                        if rng.contains(src)]
        self.misses += 1
        return None

    def insert(self, job: Job, rows: list[OutputRow],
               lake_token: tuple) -> list[OutputRow]:
        """Store a completed job's rows; returns the provenance-stripped
        rows the caller must serve in their place."""
        pairs = [self._strip(row) for row in rows]
        stripped = [row for row, __ in pairs]
        if self.budget_bytes <= 0:
            return stripped
        signed = self.job_signature(job, lake_token)
        if signed is None:
            return stripped
        shape, rng = signed
        key = ("job", shape, _bounds(rng))
        nbytes = 256 + sum(row.record.size_bytes + 64 for row in stripped)
        entry = _Entry(
            nbytes=nbytes, structures=_structures_of(job), payload=pairs,
            covers=rng, shape=shape,
            has_provenance=all(src is not None for __, src in pairs))
        if self._store(key, entry):
            self.insertions += 1
            if rng is not None:
                keys = self._ranges.setdefault(shape, [])
                if key not in keys:
                    keys.append(key)
        return stripped

    def strip_rows(self, rows: list[OutputRow]) -> list[OutputRow]:
        """Drop the reserved provenance key from every row's context."""
        return [row for row, __ in (self._strip(r) for r in rows)]

    @staticmethod
    def _strip(row: OutputRow) -> tuple[OutputRow, Any]:
        source = row.context.get(PROVENANCE_KEY)
        if source is None and PROVENANCE_KEY not in row.context:
            return row, None
        cleaned = {k: v for k, v in row.context.items()
                   if k != PROVENANCE_KEY}
        return OutputRow(row.record, cleaned), source

    # -- inspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self._lru),
            "used_bytes": self._bytes,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "subsumed_hits": self.subsumed_hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "table_hits": self.table_hits,
            "table_insertions": self.table_insertions,
        }
