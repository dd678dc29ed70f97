"""The scan-backed stage: a replicated hash table probed like a structure.

:class:`ScanLookupDereferencer` is how a *scan* access path rides inside
an ordinary Reference-Dereference job: upstream referencers emit the same
keyed pointers they always do, but instead of paying a random read per
probe, the first probe triggers one sequential pass over the target file
(every node scans its local partitions, builds a hash table on the join
key, and replicates it — charged in :mod:`repro.engine.access`), and
every probe after that is an in-memory hash lookup.

The table answers every pointer shape an upstream stage can emit:

* **logical key pointers** (joins) hit the ``key_of`` join keys;
* **physical pointers** (index entries targeting base slots) hit
  per-``(partition, slot)`` entries recorded during the scan;
* **delta-tag pointers** (index delta entries, see
  :func:`repro.ingest.delta.delta_tag`) hit the tag of the live delta
  payload that produced them.

With a ``delta_source`` attached (the lowering wires one from the
catalog), the build is *fresh*: it reads the file through
:func:`repro.ingest.delta.live_records`, so heap records superseded by
unmerged delta upserts are dropped and live delta payloads are merged
in, the newest run winning — the planner prices scans on fresh tables
instead of gating them off.
The table is cached per (file, set of unmerged runs): a new committed
run invalidates it, and the next probe rebuilds (and re-charges) it.

This mirrors what a scan engine's grace hash join does with the build
side, expressed as a dereferencer so SMPE/partitioned/reference engines
can interleave scan stages with index stages in one job.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from repro.core.interpreters import Filter
from repro.core.pointers import Pointer, PointerKind, PointerRange
from repro.core.records import Record
from repro.core.functions import Dereferencer
from repro.errors import ExecutionError, JobDefinitionError
from repro.storage.files import File, PartitionedFile

__all__ = ["ScanLookupDereferencer"]

#: ``Record -> list of join keys`` (multi-valued keys supported)
KeyExtractor = Callable[[Record], list]

#: namespace marker for physical (partition, slot) table entries, so slot
#: integers can never collide with logical join keys
_SLOT = "Δslot"


class ScanLookupDereferencer(Dereferencer):
    """Fetch by key from a hash table built by scanning the whole file.

    ``key_of`` extracts the join key(s) a record is findable under.  The
    table is built lazily per (file, delta-run set) and shared by every
    probe; ``runtime`` is scratch space for the engine-side cost charging
    (one scan per cluster per run set, concurrent probes wait on the
    build).  ``delta_source`` (optional) supplies the base file's current
    unmerged :class:`~repro.ingest.delta.DeltaRun` list and the loader's
    in-partition key function; without one the table sees the base heap
    only, exactly as before streaming existed.
    """

    def __init__(self, file_name: str, key_of: KeyExtractor,
                 filter: Optional[Filter] = None,
                 delta_source: Optional[Callable[[], tuple]] = None,
                 key_id: Optional[tuple] = None) -> None:
        super().__init__(file_name, filter)
        self.key_of = key_of
        self.delta_source = delta_source
        #: value-based identity of the table this stage builds —
        #: ``(target file, via-index or None)`` — assigned by the
        #: lowering.  Tables are built *pre-filter* (filters apply at
        #: fetch), so two stages with the same ``key_id`` build the same
        #: table and may share it through an attached result cache.
        self.key_id = key_id
        #: optional :class:`~repro.service.result_cache.
        #: SemanticResultCache` handle (tier A); None = no sharing.
        self.cache: Optional[Any] = None
        self._tables: dict[tuple, dict[Any, list[Record]]] = {}
        #: per-cluster build state, keyed by ``id(cluster)`` — owned by
        #: :func:`repro.engine.access.simulated_dereference`
        self.runtime: dict[int, dict[str, Any]] = {}

    # -- delta plumbing --------------------------------------------------

    def current_runs(self) -> tuple[list, Optional[Callable]]:
        """``(unmerged runs, loader key_fn)`` for the target base file."""
        if self.delta_source is None:
            return [], None
        return self.delta_source()

    def delta_token(self) -> tuple:
        """Identity of the run set the current table must reflect."""
        runs, __ = self.current_runs()
        return tuple(id(run) for run in runs)

    def delta_bytes_on(self, file: File, pids: list[int]) -> tuple[int, int]:
        """(bytes, rows) of unmerged delta data over ``pids`` — the extra
        sequential work a fresh-table build pays on one node."""
        runs, __ = self.current_runs()
        nbytes = rows = 0
        for run in runs:
            for pid in pids:
                nbytes += run.partition_bytes(pid)
                rows += run.partition_len(pid)
        return nbytes, rows

    # -- table sharing (tier A of the semantic result cache) -------------

    def adopt_cached(self, file: File) -> bool:
        """Take a previously built table from the attached cache.

        Returns True only when a table was actually adopted this call —
        an already-present local table returns False, so callers can
        count adoption (and skip the build charge) exactly once.
        """
        if self.cache is None or self.key_id is None:
            return False
        token = (id(file), self.delta_token())
        if token in self._tables:
            return False
        table = self.cache.get_table(self.key_id, token)
        if table is None:
            return False
        self._tables[token] = table
        return True

    def publish_table(self, file: File, nbytes: int) -> None:
        """Offer the freshly built table to the attached cache."""
        if self.cache is None or self.key_id is None:
            return
        token = (id(file), self.delta_token())
        table = self._tables.get(token)
        if table is not None:
            self.cache.put_table(self.key_id, token, table, nbytes,
                                 structures=[name for name in self.key_id
                                             if isinstance(name, str)])

    # -- the table -------------------------------------------------------

    def has_table(self, file: File) -> bool:
        return (id(file), self.delta_token()) in self._tables

    def table_for(self, file: File) -> dict[Any, list[Record]]:
        """The hash table over ``file`` (plus live deltas), built on
        first use and rebuilt when the unmerged-run set changes."""
        if not isinstance(file, PartitionedFile):
            raise JobDefinitionError(
                f"{type(self).__name__} targets {self.file_name!r}, which "
                "is not a base file (scan-backed stages scan heap files)")
        runs, base_key_fn = self.current_runs()
        token = (id(file), tuple(id(run) for run in runs))
        table = self._tables.get(token)
        if table is not None:
            return table
        from repro.ingest.delta import live_records

        table = {}
        for pid, slot, record, tag in live_records(file, runs, base_key_fn):
            for key in self.key_of(record):
                table.setdefault(key, []).append(record)
            if slot is not None:
                table[(_SLOT, pid, slot)] = [record]
            elif tag is not None:
                table[tag] = [record]
        self._tables[token] = table
        return table

    def fetch(self, file: File, target: Union[Pointer, PointerRange],
              partition_id: int) -> list[Record]:
        if isinstance(target, PointerRange):
            raise ExecutionError(
                "scan-backed dereferencer cannot take a pointer range")
        if target.partition_key is None:
            raise ExecutionError(
                "scan-backed dereferencer cannot take broadcast pointers "
                "(the hash table already covers every partition)")
        # partition_id is irrelevant: the table is replicated everywhere.
        table = self.table_for(file)
        if target.kind is PointerKind.PHYSICAL:
            # Index entries address base records by (routing key, slot);
            # resolve against the physical entries the scan recorded.
            pid = file.partition_of_key(target.partition_key)
            return list(table.get((_SLOT, pid, target.key), ()))
        return list(table.get(target.key, ()))
