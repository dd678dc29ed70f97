"""The structure catalog: LakeHarbor's "structures as first-class citizens".

Paper, Section II: "LakeHarbor enables the post hoc definition of access
methods for data stored in data lakes; the user or the third-party software
is allowed to inject access method definitions that describe how one can
interpret and access target data.  LakeHarbor then creates auxiliary data
structures (e.g., indexes) for the target data, if necessary, by using the
definitions and uses the structures to access the data efficiently."

:class:`StructureCatalog` holds these registrations.  An
:class:`AccessMethodDefinition` binds an *Interpreter* (how to read the raw
record) and a key extraction (what to index) to a base file; the catalog
builds the corresponding index **lazily** — on first use or when the
maintenance worker (:mod:`repro.core.maintenance`) gets to it — mirroring
Section III-D: "ReDe builds indexes flexibly in the background by using
registered *Interpreters* and *Referencers* ... ReDe lazily creates indexes
by using the emitted pair."
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from operator import methodcaller
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.core.interpreters import Interpreter
from repro.core.pointers import PointerKind
from repro.core.records import Record
from repro.errors import AccessMethodError, UnknownStructure
from repro.storage.dfs import DistributedFileSystem
from repro.storage.files import BtreeFile, File, IndexEntry, PartitionedFile

__all__ = ["AccessMethodDefinition", "StructureState", "StructureCatalog"]

logger = logging.getLogger("repro.catalog")


class StructureState(enum.Enum):
    """Lifecycle of a registered structure.

    ::

        PENDING --> BUILDING --> READY <--> DEGRADED --> QUARANTINED
           ^            |          ^                          |
           |  (crash:   |          |        (rebuild)         |
           +- resumable +          +--------------------------+

    ``PENDING``: definition known, index not built.  ``BUILDING``: a
    checkpointed build is in flight (possibly interrupted — the completed
    partition set says how far it got).  ``READY``: materialized and
    usable.  ``DEGRADED``: the scrub worker found corrupt pages; the
    planner stops choosing it, repair is scheduled.  ``QUARANTINED``: a
    query hit corruption mid-probe; the structure is withdrawn from
    service until rebuilt.

    ``REGISTERED`` and ``BUILT`` are aliases of ``PENDING`` and ``READY``
    (the pre-lifecycle names), kept so existing callers and persisted
    ``.value`` strings keep working unchanged.
    """

    PENDING = "registered"        # definition known, index not built
    BUILDING = "building"         # checkpointed build in flight / resumable
    READY = "built"               # index materialized and usable
    DEGRADED = "degraded"         # scrub found bad pages; repair scheduled
    QUARANTINED = "quarantined"   # corruption hit a query; out of service

    # Pre-lifecycle aliases (same members, historical names).
    REGISTERED = "registered"
    BUILT = "built"


#: States in which the planner and engines must not trust the structure.
_UNHEALTHY = frozenset({StructureState.DEGRADED,
                        StructureState.QUARANTINED})


@dataclass
class AccessMethodDefinition:
    """A post hoc access-method registration for one index.

    Attributes:
        name: the index's catalog name.
        base_file: the raw file the index covers.
        interpreter: schema-on-read interpretation of base records.
        key_field: field of the interpreted view to index on.  Mutually
            exclusive with ``key_fn``.
        key_fn: arbitrary ``Record -> key`` extraction (for keys that are
            not a single interpreted field — e.g. a claim's disease codes).
            May return None (skip) or a list of keys (multi-valued index
            entries, used for the nested insurance-claim sub-records).
        scope: ``"global"`` (partitioned by index key), ``"local"``
            (colocated with base partitions), or ``"replicated"`` (a full
            copy per node — always-local probes, N-fold maintenance).
        partitioning: for global indexes, ``"hash"`` (the paper's layout
            for foreign keys — equality probes hit one partition) or
            ``"range"`` (equi-depth boundaries computed at build time —
            range probes prune to the overlapping partitions).
    """

    name: str
    base_file: str
    interpreter: Optional[Interpreter] = None
    key_field: Optional[str] = None
    key_fn: Optional[Callable[[Record], Any]] = None
    scope: str = "global"
    order: int = 64
    partitioning: str = "hash"
    #: partition count for global indexes (None = DFS default, one per
    #: node).  A count coprime to the node count avoids accidental
    #: co-location of index partitions with same-keyed base partitions.
    num_partitions: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.key_field is None) == (self.key_fn is None):
            raise AccessMethodError(
                f"access method {self.name!r} needs exactly one of "
                "key_field or key_fn")
        if self.key_field is not None and self.interpreter is None:
            raise AccessMethodError(
                f"access method {self.name!r} uses key_field and therefore "
                "needs an interpreter")
        if self.scope not in ("global", "local", "replicated"):
            raise AccessMethodError(
                f"access method {self.name!r} has invalid scope "
                f"{self.scope!r}")
        if self.partitioning not in ("hash", "range"):
            raise AccessMethodError(
                f"access method {self.name!r} has invalid partitioning "
                f"{self.partitioning!r}")
        if self.partitioning == "range" and self.scope != "global":
            raise AccessMethodError(
                "range partitioning applies to global indexes (local "
                "indexes inherit the base file's partitioning)")

    def extract_keys(self, record: Record) -> list[Any]:
        """All index keys this record contributes (possibly none)."""
        if self.key_fn is not None:
            keys = self.key_fn(record)
        else:
            assert self.interpreter is not None and self.key_field is not None
            keys = self.interpreter.field(record, self.key_field)
        if keys is None:
            return []
        if isinstance(keys, list):
            return keys
        return [keys]

    def keys_batch(self, records: Sequence[Record]) -> list[Any]:
        """Per record, the raw answer :meth:`extract_keys` normalizes: a
        key, a list of keys, or None.  A ``key_field`` is read off one
        ``interpret_batch`` of the whole batch (the batch path
        :func:`~repro.storage.files.index_buckets` takes)."""
        if self.key_fn is not None:
            return list(map(self.key_fn, records))
        assert self.interpreter is not None and self.key_field is not None
        return list(map(methodcaller("get", self.key_field),
                        self.interpreter.interpret_batch(records)))


class StructureCatalog:
    """Namespace + registry + lazy builder over a DFS.

    Engines resolve dereference targets through :meth:`resolve`, which
    transparently materializes registered-but-unbuilt indexes — the
    laziness the paper describes, made observable through
    :attr:`build_log`.
    """

    def __init__(self, dfs: DistributedFileSystem) -> None:
        self.dfs = dfs
        self._definitions: dict[str, AccessMethodDefinition] = {}
        self._states: dict[str, StructureState] = {}
        #: per-structure set of base partitions whose build work is done —
        #: the crash-safe build checkpoint (only populated while BUILDING)
        self._checkpoints: dict[str, set[int]] = {}
        #: names of indexes in the order the catalog materialized them
        self.build_log: list[str] = []
        #: hook dropping cached pages of a structure (wired to
        #: ``cluster.invalidate_cached_file`` by whoever owns a cluster);
        #: ``None`` outside clustered runs
        self.cache_invalidator: Optional[Callable[[str], None]] = None
        #: hooks dropping *semantic* cached results (stage tables, query
        #: answers) of a structure — fan-out targets of
        #: :meth:`invalidate_results`; empty outside cached serving
        self.result_invalidators: list[Callable[[str], None]] = []
        #: monotone data-plane mutation counter: bumped whenever the
        #: lake's contents or structure set change, so planners can key
        #: memoized statistics/calibrations on it
        self.version = 0
        #: the streaming-ingest delta ledger (``repro.ingest.delta.
        #: DeltaRegistry``); ``None`` on load-once lakes, which keeps
        #: every delta-aware code path a strict no-op
        self._delta_registry: Optional[Any] = None

    # -- base files ------------------------------------------------------

    def register_file(self, name: str, records: Iterable[Record],
                      partition_key_fn: Callable[[Record], Any],
                      key_fn: Optional[Callable[[Record], Any]] = None,
                      num_partitions: Optional[int] = None
                      ) -> PartitionedFile:
        """Load a raw file into the lake (no schema, no structures)."""
        self.version += 1
        return self.dfs.load(name, records, partition_key_fn,
                             key_fn=key_fn, num_partitions=num_partitions)

    # -- access methods --------------------------------------------------

    def register_access_method(self,
                               definition: AccessMethodDefinition) -> None:
        """Register an access method; the index is *not* built yet."""
        if definition.name in self._definitions or definition.name in self.dfs:
            raise AccessMethodError(
                f"structure {definition.name!r} already registered")
        if definition.base_file not in self.dfs:
            raise UnknownStructure(
                f"access method {definition.name!r} covers unknown file "
                f"{definition.base_file!r}")
        self._definitions[definition.name] = definition
        self._states[definition.name] = StructureState.REGISTERED
        self.version += 1
        logger.info("registered access method %r on %r (scope=%s, lazy)",
                    definition.name, definition.base_file,
                    definition.scope)

    def definition(self, name: str) -> AccessMethodDefinition:
        try:
            return self._definitions[name]
        except KeyError:
            raise UnknownStructure(
                f"no access method named {name!r}") from None

    def state(self, name: str) -> StructureState:
        if name in self._states:
            return self._states[name]
        if name in self.dfs:
            return StructureState.BUILT
        raise UnknownStructure(f"no structure named {name!r}")

    def pending(self) -> list[str]:
        """Access methods whose index is not built yet (including builds
        interrupted mid-flight, which are resumable)."""
        return [name for name, state in self._states.items()
                if state is StructureState.PENDING
                or state is StructureState.BUILDING]

    # -- lifecycle & health ----------------------------------------------

    def healthy(self, name: str) -> bool:
        """True unless the structure is DEGRADED or QUARANTINED.

        Plain files and not-yet-built indexes count as healthy: laziness is
        a lifecycle phase, not a health problem (the planner prices an
        unbuilt index by its post-build shape, exactly as before).
        Unknown names are healthy too — resolution will raise on its own.
        """
        return self._states.get(name) not in _UNHEALTHY

    def demote(self, name: str) -> None:
        """Scrub verdict: the structure has bad pages.  READY → DEGRADED."""
        if self.state(name) is not StructureState.READY:
            return
        self._states[name] = StructureState.DEGRADED
        self.version += 1
        logger.warning("structure %r demoted to degraded", name)

    def quarantine(self, name: str) -> None:
        """Query verdict: a probe hit corruption.  Withdraw from service."""
        state = self.state(name)
        if state is StructureState.QUARANTINED:
            return
        if name not in self.dfs:
            raise UnknownStructure(
                f"cannot quarantine unmaterialized structure {name!r}")
        self._states[name] = StructureState.QUARANTINED
        self.version += 1
        logger.warning("structure %r quarantined", name)

    # -- checkpointed builds ---------------------------------------------

    def begin_build(self, name: str) -> None:
        """Enter (or re-enter) the BUILDING state for a checkpointed build.

        Idempotent for an interrupted build: the completed-partition set is
        kept, so a resumed build only pays for the missing partitions.
        """
        self.definition(name)  # must be a registered access method
        if self.state(name) is StructureState.READY:
            raise AccessMethodError(
                f"structure {name!r} is already built")
        self._states[name] = StructureState.BUILDING
        self._checkpoints.setdefault(name, set())

    def record_checkpoint(self, name: str, partition_id: int) -> None:
        """Durably record one base partition's build work as done."""
        self._checkpoints.setdefault(name, set()).add(partition_id)

    def completed_partitions(self, name: str) -> frozenset[int]:
        """Base partitions already checkpointed for ``name``'s build."""
        return frozenset(self._checkpoints.get(name, ()))

    def build_complete(self, name: str) -> bool:
        """True when every base partition of ``name`` is checkpointed."""
        definition = self.definition(name)
        base = self.dfs.get_base(definition.base_file)
        return self._checkpoints.get(name, set()) >= set(
            range(base.num_partitions))

    def abandon_build(self, name: str) -> None:
        """Roll an in-flight build back to PENDING, dropping checkpoints."""
        if self._states.get(name) is StructureState.BUILDING:
            self._states[name] = StructureState.PENDING
        self._checkpoints.pop(name, None)

    def rebuild(self, name: str) -> BtreeFile:
        """Repair path: drop the materialized index and build it afresh.

        Used by the scrub worker after demotion/quarantine; the rebuilt
        structure comes back READY with a clean checkpoint slate.
        """
        definition = self.definition(name)
        if name in self.dfs:
            self.dfs.drop(name)
        self._checkpoints.pop(name, None)
        self._states[name] = StructureState.PENDING
        logger.info("rebuilding structure %r on %r", name,
                    definition.base_file)
        return self.ensure_built(name)

    def access_methods(self) -> list[str]:
        """All registered access-method names, sorted."""
        return sorted(self._definitions)

    # -- building --------------------------------------------------------

    def ensure_built(self, name: str) -> BtreeFile:
        """Materialize an index if needed; returns it.

        On a lake with unmerged streaming deltas, the build (which scans
        the base heap only) is followed by a delta backfill: every
        committed base run is mirrored into an index delta run, so a
        structure materialized mid-stream serves fresh probes exactly
        like one that was maintained from the first commit.
        """
        if self._states.get(name) is StructureState.READY or name in self.dfs:
            return self.dfs.get_index(name)
        definition = self.definition(name)
        self._build(definition.base_file, [definition])
        return self._finish_build(definition)

    def _finish_build(self, definition: AccessMethodDefinition
                      ) -> BtreeFile:
        """Bookkeeping after :meth:`_build` materialized ``definition``."""
        name = definition.name
        index = self.dfs.get_index(name)
        self._states[name] = StructureState.READY
        self._checkpoints.pop(name, None)
        self.version += 1
        self.build_log.append(name)
        self._backfill_deltas(definition, index)
        logger.info("built %s index %r on %r (%d entries)",
                    definition.scope, name, definition.base_file,
                    len(index))
        return index

    def _backfill_deltas(self, definition: AccessMethodDefinition,
                         index: BtreeFile) -> None:
        """Mirror committed base delta runs into runs for a structure
        built after streaming began.

        The heap the build scanned holds no delta records, and upserted
        heap versions are still physically present (compaction is what
        rewrites heaps) — so the freshly built tree both misses live
        delta records and indexes stale versions.  Registering one index
        run per base run, with the same entries, upserts, and heap
        tombstones the ingest commit would have produced, closes both
        gaps.
        """
        registry = self._delta_registry
        if registry is None:
            return
        base_runs = registry.runs(definition.base_file)
        if not base_runs:
            return
        from repro.ingest.delta import DeltaRun, index_placements

        base = self.dfs.get_base(definition.base_file)
        loader = self.dfs.loader_info(definition.base_file)
        for run in base_runs:
            index_run = DeltaRun(definition.name, definition.base_file,
                                 run.batch_id, run.commit_time)
            for pid in run.partitions():
                for key, payload, origin, tag in run.items(pid):
                    partition_key = loader.partition_key_fn(payload)
                    for index_key in definition.extract_keys(payload):
                        entry = IndexEntry(index_key, partition_key, tag)
                        for ipid in index_placements(
                                definition, index, partition_key,
                                index_key):
                            index_run.add(ipid, index_key, entry, origin)
            tombstones: dict[int, set] = {}
            for pid, keys in run.upserts.items():
                heap = base.partitions[pid]
                for key in keys:
                    for slot in heap.slots_for_key(key):
                        old = heap.get(slot)
                        old_pk = loader.partition_key_fn(old)
                        for old_key in definition.extract_keys(old):
                            triple = (old_key, old_pk, slot)
                            for ipid in index_placements(
                                    definition, index, old_pk, old_key):
                                tombstones.setdefault(ipid, set()).add(
                                    triple)
            index_run.upserts = run.upserts
            index_run.tombstones = {
                pid: frozenset(triples)
                for pid, triples in tombstones.items()}
            registry.register(index_run.seal())
        logger.info("backfilled %d delta runs into freshly built %r",
                    len(base_runs), definition.name)

    def build_all(self) -> list[str]:
        """Materialize every pending index; returns the names built.

        Indexes over the same base file are built together, from one
        pass over its heap, and are READY before the next base file's
        build starts, so a failing build leaves no finished index behind
        unmarked.  Names come back in the order they were finished.
        """
        built: list[str] = []
        by_base: dict[str, list[AccessMethodDefinition]] = {}
        for name in self.pending():
            if name in self.dfs:
                built.append(name)  # materialized already: nothing to do
                continue
            definition = self._definitions[name]
            by_base.setdefault(definition.base_file, []).append(definition)
        for base_file, definitions in by_base.items():
            self._build(base_file, definitions)
            for definition in definitions:
                self._finish_build(definition)
                built.append(definition.name)
        return built

    def _build(self, base_file: str,
               definitions: list[AccessMethodDefinition]) -> None:
        """Materialize indexes over ``base_file`` from one heap pass."""
        targets = []
        for definition in definitions:
            partitioner = None
            if definition.partitioning == "range":
                partitioner = self._range_partitioner_for(definition)
            index = self.dfs.new_index(
                definition.name, base_file, definition.scope,
                num_partitions=definition.num_partitions,
                order=definition.order, partitioner=partitioner)
            targets.append((index, definition.keys_batch))
        self.dfs.build_indexes(base_file, targets)

    def _range_partitioner_for(self, definition: AccessMethodDefinition):
        """Equi-depth split boundaries sampled from the base file's keys."""
        from repro.storage.partitioner import RangePartitioner

        keys: list[Any] = []
        for record in self.dfs.get_base(definition.base_file).scan():
            keys.extend(definition.extract_keys(record))
        keys.sort()
        num_partitions = self.dfs.default_partitions
        boundaries: list[Any] = []
        for i in range(1, num_partitions):
            candidate = keys[i * len(keys) // num_partitions] if keys else i
            if not boundaries or candidate > boundaries[-1]:
                boundaries.append(candidate)
        return RangePartitioner(boundaries)

    # -- incremental loading ----------------------------------------------

    def insert_record(self, file_name: str, record: Record):
        """Insert a new record, maintaining every *built* index on it.

        This is the loading-path half of the Section V-B trade-off: each
        additional built structure costs one more index write per insert
        (returned as ``index_writes`` so experiments can quantify the
        amplification).  Registered-but-unbuilt access methods cost
        nothing now — they will see the record when they build, which is
        exactly what makes lazy structures cheap to declare.

        Returns ``(pointer, index_writes)``.
        """
        base = self.dfs.get_base(file_name)
        loader = self.dfs.loader_info(file_name)
        partition_key = loader.partition_key_fn(record)
        pid = base.partition_of_key(partition_key)
        slot = len(base.partitions[pid])  # the slot insert() will assign
        pointer = base.insert(record, partition_key,
                              loader.key_fn(record))
        index_writes = 0
        for name, definition in self._definitions.items():
            if definition.base_file != file_name:
                continue
            if self._states[name] is not StructureState.BUILT:
                continue
            index = self.dfs.get_index(name)
            for index_key in definition.extract_keys(record):
                entry = IndexEntry(index_key, partition_key, slot,
                                   kind=PointerKind.PHYSICAL)
                if definition.scope == "replicated":
                    # insert() replicates internally; every replica is a
                    # separate physical write.
                    index.insert(index_key, entry)
                    index_writes += index.num_partitions
                    continue
                placement_key = (partition_key
                                 if definition.scope == "local"
                                 else index_key)
                index.insert(index_key, entry,
                             partition_key=placement_key)
                index_writes += 1
        # Single-record inserts mutate the base heap and every maintained
        # tree in place; any buffer-pool pages caching them are now stale.
        self.invalidate_cached(file_name)
        for name in self.maintained_structures(file_name):
            self.invalidate_cached(name)
        return pointer, index_writes

    def maintained_structures(self, file_name: str) -> list[str]:
        """Built indexes that inserts into ``file_name`` must update."""
        return sorted(
            name for name, definition in self._definitions.items()
            if definition.base_file == file_name
            and self._states[name] is StructureState.BUILT)

    def definitions_over(self, file_name: str
                         ) -> list[AccessMethodDefinition]:
        """Every registered access method covering ``file_name`` (any
        state), in name order — the ingest path's maintenance set."""
        return [self._definitions[name]
                for name in sorted(self._definitions)
                if self._definitions[name].base_file == file_name]

    def invalidate_cached(self, file_name: str) -> None:
        """Drop a structure's cached pages, if a cluster hook is wired.

        Physical page invalidation implies semantic invalidation too:
        any cached stage table or query answer derived from the
        structure is stale for the same reason its pages are.
        """
        if self.cache_invalidator is not None:
            self.cache_invalidator(file_name)
        self.invalidate_results(file_name)

    def register_result_invalidator(self,
                                    hook: Callable[[str], None]) -> None:
        """Subscribe a semantic-cache invalidation hook (idempotent)."""
        if hook not in self.result_invalidators:
            self.result_invalidators.append(hook)

    def invalidate_results(self, file_name: str) -> None:
        """Drop semantic cached results over ``file_name``.

        Unlike :meth:`invalidate_cached` this does *not* touch buffer
        pools — an ingest commit leaves heap/tree pages valid (deltas
        live beside them) but makes every derived result stale.
        """
        self.version += 1
        for hook in self.result_invalidators:
            hook(file_name)

    # -- streaming deltas (see repro.ingest) -----------------------------

    @property
    def delta_registry(self) -> Optional[Any]:
        return self._delta_registry

    def attach_delta_registry(self, registry: Any) -> None:
        """Attach the streaming-ingest delta ledger (idempotent for the
        same registry; a second, different registry is a wiring bug)."""
        if (self._delta_registry is not None
                and self._delta_registry is not registry):
            raise AccessMethodError(
                "catalog already has a different delta registry attached")
        self._delta_registry = registry

    def delta_depth(self, name: str) -> int:
        """Unmerged delta runs behind structure ``name`` (0 when the
        lake is static — the bit-identical fast-path guard)."""
        if self._delta_registry is None:
            return 0
        return self._delta_registry.depth(name)

    def delta_runs(self, name: str) -> list[Any]:
        """The unmerged runs themselves, oldest first."""
        if self._delta_registry is None:
            return []
        return self._delta_registry.runs(name)

    # -- resolution (the engines' entry point) ---------------------------

    def resolve(self, name: str) -> File:
        """Resolve a structure name, lazily building registered indexes."""
        if name in self.dfs:
            return self.dfs.get(name)
        if name in self._definitions:
            return self.ensure_built(name)
        raise UnknownStructure(f"no structure named {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self.dfs or name in self._definitions

    def names(self) -> list[str]:
        return sorted(set(self.dfs.names()) | set(self._definitions))

    def inventory(self) -> list[dict[str, Any]]:
        """Human-readable listing: every structure, its kind and state."""
        rows = []
        for name in self.names():
            if name in self._definitions:
                definition = self._definitions[name]
                rows.append({
                    "name": name,
                    "kind": f"{definition.scope} index",
                    "base": definition.base_file,
                    "state": self._states[name].value,
                })
            else:
                file = self.dfs.get(name)
                kind = ("base file" if isinstance(file, PartitionedFile)
                        else f"{getattr(file, 'scope', '?')} index")
                rows.append({"name": name, "kind": kind, "base": "",
                             "state": StructureState.BUILT.value})
        return rows

