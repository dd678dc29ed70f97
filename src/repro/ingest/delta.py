"""Delta segments: small sorted runs that make structures writable.

LakeHarbor builds structures wholesale from a loaded file; a streaming
lake cannot afford a full rebuild per micro-batch.  Instead each
committed batch leaves one :class:`DeltaRun` per affected structure — a
per-partition *sorted run* of payloads, the classic LSM compromise:

* for a **base file**, the payloads are the new record versions keyed by
  the in-partition key (the heap itself stays untouched until major
  compaction rewrites it);
* for an **index**, the payloads are
  :func:`~repro.storage.files.IndexEntry` records with *logical* targets
  (the new records have no heap slot yet), placed into index partitions
  by the built tree's own rule,
  :meth:`~repro.storage.files.BtreeFile.entry_partitions`, so a probe of
  partition ``p`` finds precisely the entries the compacted tree would
  hold in ``p``.

Newest-wins upserts are encoded twice:

* ``upserts`` — per *base* partition, the set of in-partition keys this
  run's batch replaced.  Payloads of strictly older runs (and the base
  heap/tree) for those keys are dead.
* ``tombstones`` — per *index* partition, identity triples
  ``(index_key, target_partition_key, slot)`` of the physical entries in
  the built tree that the upsert invalidates.  The quarantine-recovery
  scan table rebuilds byte-identical physical entries, so tombstones
  filter that fallback path correctly too.

A sealed run keeps a per-partition key filter in memory — its sorted
payload keys (the fence keys), its tombstones' index keys and, on a base
run, its upserted keys — so a probe reads a run's payload pages only
when :meth:`DeltaRun.may_hold` says the run can hold the probed key.

The :class:`DeltaRegistry` is the catalog-side ledger: runs per
structure in commit order (oldest first), plus the ingest watermark.
The catalog exposes it behind ``delta_depth()`` so that with zero
ingested batches every query path is bit-identical to a static lake.
"""

from __future__ import annotations

import bisect
from itertools import count, repeat
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, \
    Union

from repro.core.pointers import Pointer, PointerRange
from repro.core.records import Record
from repro.errors import ReproError
from repro.ingest.watermark import FreshnessWatermark

__all__ = ["DeltaRun", "DeltaRegistry", "probe_delta_runs",
           "probe_delta_tag", "dead_base_keys", "tombstone_set",
           "live_entries", "superseded", "live_payloads", "live_records",
           "merge_runs", "delta_tag", "is_delta_tag"]

Target = Union[Pointer, PointerRange]

#: sentinel heading the synthetic in-partition keys that address delta
#: records individually (see :func:`delta_tag`)
_TAG = "Δ"


def delta_tag(batch_id: int, seq: int) -> tuple:
    """Unique logical address of one delta record.

    Index delta entries cannot target the base in-partition key: for
    non-unique keys (lineitem keyed by ``l_orderkey``) that fetch would
    return *every* sibling record and duplicate rows already reached
    through their own physical entries.  So each delta record also gets
    a tag — a tuple that can never equal a real key — and index delta
    entries target the tag, resolving to exactly the record that
    produced them (the delta analogue of the DFS's physical slots).
    """
    return (_TAG, batch_id, seq)


def is_delta_tag(key: Any) -> bool:
    return (isinstance(key, tuple) and not isinstance(key, Pointer)
            and len(key) == 3 and key[0] == _TAG)


def _span(keys: list[Any], target: Target) -> tuple[int, int]:
    """The positions ``[lo, hi)`` of sorted ``keys`` that ``target``
    selects."""
    if isinstance(target, PointerRange):
        lo = (0 if target.low is None
              else bisect.bisect_left(keys, target.low)
              if target.inclusive_low
              else bisect.bisect_right(keys, target.low))
        hi = (len(keys) if target.high is None
              else bisect.bisect_right(keys, target.high)
              if target.inclusive_high
              else bisect.bisect_left(keys, target.high))
        return lo, hi
    return (bisect.bisect_left(keys, target.key),
            bisect.bisect_right(keys, target.key))


class DeltaRun:
    """One committed micro-batch's sorted run for one structure."""

    def __init__(self, structure: str, base_file: str, batch_id: int,
                 commit_time: float) -> None:
        self.structure = structure
        self.base_file = base_file
        self.batch_id = batch_id
        self.commit_time = commit_time
        #: per structure-partition sorted keys (bisect index)
        self._keys: dict[int, list[Any]] = {}
        #: payload records parallel to ``_keys``
        self._payloads: dict[int, list[Record]] = {}
        #: origin of each payload: (base partition id, base in-partition
        #: key) — the identity newest-wins filtering runs on
        self._origins: dict[int, list[tuple[int, Any]]] = {}
        #: optional per-payload delta tag (see :func:`delta_tag`)
        self._tags: dict[int, list[Any]] = {}
        #: pid -> tag -> payload position, built by :meth:`seal`
        self._by_tag: dict[int, dict[Any, int]] = {}
        #: pid -> sorted keys whose probe reads this run (see
        #: :meth:`may_hold`), built by :meth:`seal`
        self._filter: dict[int, list[Any]] = {}
        #: payload bytes per partition (charging model input)
        self._bytes: dict[int, int] = {}
        #: base pid -> in-partition keys this run's batch upserted
        self.upserts: dict[int, frozenset] = {}
        #: index pid -> (index_key, target_partition_key, slot) triples of
        #: built-tree entries killed by this run's upserts (index runs only)
        self.tombstones: dict[int, frozenset] = {}

    # -- construction ----------------------------------------------------

    def add(self, pid: int, key: Any, payload: Record,
            origin: tuple[int, Any], tag: Any = None) -> None:
        """Stage one payload; call :meth:`seal` before probing."""
        self._keys.setdefault(pid, []).append(key)
        self._payloads.setdefault(pid, []).append(payload)
        self._origins.setdefault(pid, []).append(origin)
        self._tags.setdefault(pid, []).append(tag)
        self._bytes[pid] = self._bytes.get(pid, 0) + payload.size_bytes

    def seal(self) -> "DeltaRun":
        """Stable-sort every partition by key (arrival order preserved
        among duplicates, mirroring heap append order) and build the
        key filter; ``upserts`` and ``tombstones`` must be set first."""
        for pid, keys in self._keys.items():
            order = sorted(range(len(keys)), key=lambda i: keys[i])
            self._keys[pid] = [keys[i] for i in order]
            self._payloads[pid] = [self._payloads[pid][i] for i in order]
            self._origins[pid] = [self._origins[pid][i] for i in order]
            self._tags[pid] = [self._tags[pid][i] for i in order]
            self._by_tag[pid] = {
                tag: i for i, tag in enumerate(self._tags[pid])
                if tag is not None}
        # The filter shares a partition's payload key list unless
        # tombstones or upserts name more keys there.
        extra: dict[int, list[Any]] = {}
        for pid, triples in self.tombstones.items():
            extra.setdefault(pid, []).extend(
                index_key for index_key, __, __ in triples)
        if self.structure == self.base_file:
            # Only a base probe tests upserted keys (an index run's
            # upserts are base keys, which kill older payloads by origin).
            for pid, keys in self.upserts.items():
                extra.setdefault(pid, []).extend(keys)
        self._filter = dict(self._keys)
        for pid, keys in extra.items():
            self._filter[pid] = sorted(self._keys.get(pid, []) + keys)
        return self

    # -- probing ---------------------------------------------------------

    def probe(self, pid: int, target: Target
              ) -> list[tuple[Record, tuple[int, Any]]]:
        """Payloads (with origins) matching ``target`` in partition ``pid``."""
        keys = self._keys.get(pid)
        if not keys:
            return []
        lo, hi = _span(keys, target)
        if lo >= hi:
            return []
        payloads = self._payloads[pid]
        origins = self._origins[pid]
        return [(payloads[i], origins[i]) for i in range(lo, hi)]

    def may_hold(self, pid: int, target: Target) -> bool:
        """True when a probe of ``target`` in partition ``pid`` must read
        this run's pages.

        The answer comes from the run's in-memory filter block alone:
        the run's sorted payload keys (its fence keys), the index keys
        of its tombstones and, on a base run, its upserted keys, or for
        a delta-tag probe the run's tags.  It is exact: True precisely
        when the merge can find a payload, a tombstone or an upsert of
        this run under ``target``."""
        if isinstance(target, Pointer) and is_delta_tag(target.key):
            return target.key in self._by_tag.get(pid, ())
        keys = self._filter.get(pid)
        if not keys:
            return False
        lo, hi = _span(keys, target)
        return lo < hi

    def tagged(self, pid: int, tag: Any
               ) -> Optional[tuple[Any, Record, tuple[int, Any]]]:
        """Resolve a delta tag to its (key, payload, origin), if here."""
        pos = self._by_tag.get(pid, {}).get(tag)
        if pos is None:
            return None
        return (self._keys[pid][pos], self._payloads[pid][pos],
                self._origins[pid][pos])

    def partitions(self) -> list[int]:
        return sorted(self._keys)

    def partition_bytes(self, pid: int) -> int:
        return self._bytes.get(pid, 0)

    def partition_len(self, pid: int) -> int:
        return len(self._keys.get(pid, ()))

    def items(self, pid: int
              ) -> Iterable[tuple[Any, Record, tuple[int, Any], Any]]:
        """All (key, payload, origin, tag) tuples of one partition, in
        key order — the compaction merge input."""
        keys = self._keys.get(pid, [])
        payloads = self._payloads.get(pid, [])
        origins = self._origins.get(pid, [])
        tags = self._tags.get(pid, [])
        return zip(keys, payloads, origins, tags)

    def __len__(self) -> int:
        return sum(len(keys) for keys in self._keys.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DeltaRun({self.structure!r}, batch={self.batch_id}, "
                f"entries={len(self)})")


# -- newest-wins merge helpers (shared by engines and compaction) --------

def dead_base_keys(runs: Sequence[DeltaRun], pid: int) -> frozenset:
    """In-partition keys of base partition ``pid`` superseded by any run."""
    dead: set = set()
    for run in runs:
        dead |= run.upserts.get(pid, frozenset())
    return frozenset(dead)


def tombstone_set(runs: list[DeltaRun], pid: int) -> frozenset:
    """Built-tree entry identities killed for index partition ``pid``."""
    dead: set = set()
    for run in runs:
        dead |= run.tombstones.get(pid, frozenset())
    return frozenset(dead)


def live_entries(entries: Sequence[Record],
                 tombstones: frozenset) -> list[Record]:
    """The built-tree entries that ``tombstones`` did not kill.

    A tombstone names a physical entry by ``(index_key,
    target_partition_key, slot)``; logical entries never die this way.
    """
    kept = []
    for entry in entries:
        data = entry.data  # an EntryPayload: catalog trees hold no other
        if (data.target_kind is None
                or (data.key, data.target_partition_key,
                    data.target_key) not in tombstones):
            kept.append(entry)
    return kept


def superseded(origin: tuple[int, Any], newer: Sequence[DeltaRun]) -> bool:
    """True when a run in ``newer`` upserted the base key ``origin``
    names — the one newest-wins rule every delta reader applies."""
    base_pid, base_key = origin
    for later in newer:
        keys = later.upserts.get(base_pid)
        if keys is not None and base_key in keys:
            return True
    return False


def live_payloads(runs: Sequence[DeltaRun]
                  ) -> Iterator[tuple[int, Any, Record, tuple[int, Any], Any]]:
    """Every payload of ``runs`` that no strictly newer run superseded,
    as ``(pid, key, payload, origin, tag)``: oldest run first, partition
    then key order within a run."""
    for i, run in enumerate(runs):
        newer = runs[i + 1:]
        for pid in run.partitions():
            for key, payload, origin, tag in run.items(pid):
                if not superseded(origin, newer):
                    yield pid, key, payload, origin, tag


def live_records(base: Any, runs: Sequence[DeltaRun],
                 key_fn: Optional[Callable[[Record], Any]]
                 ) -> Iterator[tuple[int, Optional[int], Record, Any]]:
    """What base file ``base`` holds right now, given its unmerged runs.

    The one definition of a live base record: heap records minus the
    victims of delta upserts, plus the live delta payloads, the newest
    run winning.  Yields ``(pid, slot, record, tag)``: first every
    surviving heap record in partition then slot order, with its heap
    slot and no tag; then every live delta payload in
    :func:`live_payloads` order, with no slot and its delta tag.
    ``key_fn`` is the loader's in-partition key; it runs only on heap
    records of partitions some run upserted, and may be None when
    ``runs`` is empty.
    """
    for pid, heap in enumerate(base.partitions):
        dead = dead_base_keys(runs, pid)
        live: Iterator[tuple[int, Optional[int], Record, Any]] = zip(
            repeat(pid), count(), heap.scan(), repeat(None))
        if dead and key_fn is not None:
            live = (item for item in live if key_fn(item[2]) not in dead)
        yield from live
    for pid, __, payload, __, tag in live_payloads(runs):
        yield pid, None, payload, tag


def probe_delta_runs(runs: list[DeltaRun], pid: int, target: Target
                     ) -> tuple[list[Record], int]:
    """Merge-probe the unmerged runs of one structure partition.

    Returns ``(payloads, superseded)`` where ``payloads`` are the live
    additions in commit order (oldest run first, key order within a run)
    and ``superseded`` counts payloads dropped because a strictly newer
    run upserted their origin key.
    """
    additions: list[Record] = []
    dropped = 0
    for i, run in enumerate(runs):
        hits = run.probe(pid, target)
        if not hits:
            continue
        newer = runs[i + 1:]
        for payload, origin in hits:
            if superseded(origin, newer):
                dropped += 1
                continue
            additions.append(payload)
    return additions, dropped


def probe_delta_tag(runs: list[DeltaRun], pid: int, tag: Any
                    ) -> tuple[list[Record], int]:
    """Resolve one delta-tag pointer against the unmerged runs.

    Tags are unique across runs, so the first hit is the only hit; a
    hit whose origin a newer run upserted is dead (the index entry that
    carried the tag was filtered too, but a direct probe must agree).
    """
    for i, run in enumerate(runs):
        hit = run.tagged(pid, tag)
        if hit is None:
            continue
        __, payload, origin = hit
        if superseded(origin, runs[i + 1:]):
            return [], 1
        return [payload], 0
    return [], 0


def merge_runs(runs: list[DeltaRun]) -> DeltaRun:
    """Fold several runs into one (minor compaction).

    Probing the merged run is equivalent to probing the originals:
    payloads superseded across the merged set are dropped here, upsert
    and tombstone sets are unioned, and stable key-sorting preserves
    commit order among duplicates.
    """
    if not runs:
        raise ReproError("nothing to merge")
    newest = runs[-1]
    out = DeltaRun(newest.structure, newest.base_file,
                   newest.batch_id, newest.commit_time)
    upserts: dict[int, set] = {}
    tombstones: dict[int, set] = {}
    for pid, key, payload, origin, tag in live_payloads(runs):
        out.add(pid, key, payload, origin, tag=tag)
    for run in runs:
        for pid, keys in run.upserts.items():
            upserts.setdefault(pid, set()).update(keys)
        for pid, triples in run.tombstones.items():
            tombstones.setdefault(pid, set()).update(triples)
    out.upserts = {pid: frozenset(keys) for pid, keys in upserts.items()}
    out.tombstones = {pid: frozenset(triples)
                      for pid, triples in tombstones.items()}
    return out.seal()


class DeltaRegistry:
    """Catalog-side ledger of unmerged delta runs and the watermark."""

    def __init__(self) -> None:
        self._runs: dict[str, list[DeltaRun]] = {}
        self.committed_through: Optional[float] = None
        self.committed_batches = 0
        self.pending_batches = 0
        self.last_commit_at: Optional[float] = None
        self.late_records = 0
        #: per-file compaction charge checkpoints (crash-resumable)
        self.compaction_checkpoints: dict[str, set[int]] = {}

    # -- run bookkeeping -------------------------------------------------

    def register(self, run: DeltaRun) -> None:
        self._runs.setdefault(run.structure, []).append(run)

    def runs(self, structure: str) -> list[DeltaRun]:
        """Unmerged runs of one structure, oldest first."""
        return self._runs.get(structure, [])

    def depth(self, structure: str) -> int:
        return len(self._runs.get(structure, ()))

    def replace_runs(self, structure: str, runs: list[DeltaRun]) -> None:
        """Swap a structure's run list (minor compaction commit)."""
        if runs:
            self._runs[structure] = runs
        else:
            self._runs.pop(structure, None)

    def retire(self, structure: str) -> None:
        """Drop every run of a structure (major compaction commit)."""
        self._runs.pop(structure, None)
        self.compaction_checkpoints.pop(structure, None)

    def structures(self) -> list[str]:
        return sorted(self._runs)

    @property
    def total_runs(self) -> int:
        return sum(len(runs) for runs in self._runs.values())

    # -- watermark -------------------------------------------------------

    @property
    def active(self) -> bool:
        """True once ingest has touched the lake at all — the trigger for
        watermark stamping (static lakes stay bit-identical)."""
        return (self.committed_batches > 0 or self.pending_batches > 0
                or bool(self._runs))

    def note_commit(self, event_time: float, now: float) -> None:
        if self.pending_batches <= 0:
            raise ReproError("commit without a staged batch")
        self.pending_batches -= 1
        self.committed_batches += 1
        # Stored as float so metric aggregators that sum integer counters
        # never fold the watermark in by accident.
        event_time = float(event_time)
        if (self.committed_through is None
                or event_time > self.committed_through):
            self.committed_through = event_time
        self.last_commit_at = now

    def watermark(self) -> FreshnessWatermark:
        return FreshnessWatermark(
            committed_through=self.committed_through,
            committed_batches=self.committed_batches,
            pending_batches=self.pending_batches,
            delta_runs=self.total_runs,
            last_commit_at=self.last_commit_at,
            late_records=self.late_records)
