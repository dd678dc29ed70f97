"""Shared storage-access logic with simulated cost charging.

Every cluster engine reaches a record through one funnel generator,
:func:`recovering_dereference`: it takes a list of ``(target, context)``
probes against one partition and returns one filtered record list per
probe.  Retries, timeouts, crash re-routing, quarantine, the delta merge
and feedback are written once, there.  ``EngineConfig.batch_size`` alone
picks the kernel that charges the probes:

* :func:`simulated_dereference` (``batch_size=1``) charges one probe —
  the paper's per-dereference thread.  It performs the *real* data-plane
  fetch (so results are correct) while charging virtual time for it:
  random reads on the disk of the node that owns the partition (B-tree
  probes pay one read per page traversed; base-file lookups one per heap
  page the fetched record bytes span) — and when the owning node carries
  a :class:`~repro.storage.cache.BufferPool`, each traversed page
  consults it first, so hits cost RAM service time instead of a disk
  read; a network round trip when the executing node is not the owner;
  and a sliver of CPU on the executing node for filtering fetched
  records.
* :func:`batched_dereference` (``batch_size>1``) charges a whole probe
  list at once, under the batch charging rules listed above it.

The kernels are two cost models, not one model with a fork: the page
reads of one probe are dependent and serialize, while a batch stripes
its reads across spindles.  The reference executor charges no time and
counts accesses through :func:`count_only_dereference`.

This module is also where physical-plan access paths meet the engines:
scan-backed stages (a :class:`~repro.plan.scanstage.
ScanLookupDereferencer` emitted by the per-stage planner) are recognized
here and charged as one parallel sequential pass that builds a
replicated hash table — every node scans its local partitions, spends
build CPU, and ships its share to peers — after which each probe costs
only in-memory lookup CPU.  Because every engine funnels through this
module, SMPE, the partitioned engine, and the reference executor all
run mixed scan/index jobs without any engine-side changes.

Partition resolution (:func:`resolve_partitions`) also implements the
structural pruning a range partitioner affords to range probes.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import (TYPE_CHECKING, Any, Callable, Iterator, NamedTuple,
                    Optional, Sequence, Union)

from repro.cluster.cluster import Cluster
from repro.cluster.disk import DiskSpec
from repro.config import EngineConfig
from repro.core.functions import Dereferencer
from repro.core.pointers import Pointer, PointerKind, PointerRange
from repro.core.records import Record
from repro.ingest.delta import (dead_base_keys, is_delta_tag,
                                live_entries, probe_delta_runs,
                                probe_delta_tag, tombstone_set)
from repro.engine.metrics import (ExecutionMetrics, FailureRecord,
                                  FailureReport)
from repro.engine.trace import TraceEvent
from repro.errors import (DereferenceTimeout, ExecutionError, FaultError,
                          JobAborted, NodeCrashed, ReproError,
                          StructureCorruptionError, TransientIOError)
from repro.plan.scanstage import ScanLookupDereferencer
from repro.storage.cache import CACHE_HIT_TIME, PageId, page_checksum
from repro.storage.files import (BtreeFile, File, PartitionedFile,
                                 index_buckets)
from repro.storage.partitioner import RangePartitioner

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.catalog import StructureCatalog

__all__ = ["resolve_partitions", "initial_probe_pids",
           "simulated_dereference", "recovering_dereference",
           "count_only_dereference", "batched_dereference",
           "classify_failure", "unit_failed", "stamp_watermark",
           "JobWindow", "open_job_metrics", "close_job_metrics",
           "watch_node_loss", "unwatch_node_loss"]

#: wire size (bytes) of one pointer shipped to a remote owner
POINTER_BYTES = 64
#: first retry delay (simulated seconds); doubles per attempt up to the cap
RETRY_BACKOFF_BASE = 0.002
#: upper bound on one backoff delay (simulated seconds)
RETRY_BACKOFF_CAP = 0.05

Target = Union[Pointer, PointerRange]
#: one funnel work item: (target, carried context)
Probe = tuple[Target, Any]


def resolve_partitions(file: File, target: Target,
                       executing_node: Optional[int] = None,
                       local_only: bool = False) -> list[int]:
    """Partition ids a dereference must touch.

    * ``local_only`` restricts to partitions on the executing node — this is
      Algorithm 1's ``SETPARTITION(input, LOCAL)`` after a broadcast, and
      also how each node serves its share of a job-level range probe on a
      local index.
    * A keyed target resolves to exactly one partition.
    * A partition-less range over a *range-partitioned* structure prunes to
      the partitions intersecting the range.
    """
    if getattr(file, "scope", None) == "replicated":
        # A fully replicated index is probed on the local replica; the
        # simulation-free reference executor uses replica 0.
        if executing_node is not None:
            return file.partitions_on_node(executing_node)
        return [0]
    if local_only:
        if executing_node is None:
            raise ExecutionError("local-only resolution needs a node id")
        pids = file.partitions_on_node(executing_node)
        if (isinstance(target, PointerRange)
                and isinstance(file.partitioner, RangePartitioner)):
            keep = set(file.partitioner.partition_range(target.low,
                                                        target.high))
            pids = [pid for pid in pids if pid in keep]
        return pids
    if getattr(file, "scope", None) == "local":
        # A local secondary index partitions by the *base* key, so an
        # index-keyed probe cannot be routed: it must touch every
        # partition (which is exactly what makes the scheme "local").
        # The engines' broadcast path covers the per-node parallel case;
        # this covers direct keyed probes.
        return list(range(file.num_partitions))
    if target.partition_key is not None:
        return [file.partition_of_key(target.partition_key)]
    if (isinstance(target, PointerRange)
            and isinstance(file.partitioner, RangePartitioner)):
        return list(file.partitioner.partition_range(target.low,
                                                     target.high))
    return list(range(file.num_partitions))


def initial_probe_pids(file: File, target: Target,
                       node_id: int) -> list[int]:
    """Stage-0 routing: the partitions node ``node_id`` must probe for one
    job input.

    * broadcast targets and probes of *local*-scope indexes: this node's
      local partitions (every node serves its share, range-pruned where
      the partitioner allows);
    * replicated indexes: this node's replica;
    * keyed targets on routable structures: the owning partition, and only
      on the owning node (other nodes get nothing).
    """
    scope = getattr(file, "scope", None)
    if scope == "replicated":
        # Every replica holds everything, so exactly one node serves each
        # job input; keyed inputs spread across replicas by key hash.
        key = (target.partition_key if target.partition_key is not None
               else getattr(target, "key", None))
        serving = (file.partition_of_key(key) % file.num_partitions
                   if key is not None else 0)
        if file.node_of(serving) != node_id:
            return []
        return [serving]
    if target.partition_key is None or scope == "local":
        return resolve_partitions(file, target, executing_node=node_id,
                                  local_only=True)
    pid = file.partition_of_key(target.partition_key)
    if file.node_of(pid) != node_id:
        return []
    return [pid]


#: page size assumed when no cluster supplies a disk (reference executor)
_REFERENCE_PAGE_SIZE = DiskSpec().page_size


def _fetch_cost_reads(file: File, num_records: int, total_bytes: int,
                      page_size: int) -> int:
    """Random reads one fetch of ``num_records`` records totalling
    ``total_bytes`` costs on the owning node (uncached model)."""
    if isinstance(file, BtreeFile):
        return file.probe_io_count(num_records)
    # Base-file lookup: records under one key pack contiguously in the
    # heap, so the fetch reads as many pages as the record bytes span —
    # minimum one (a miss still reads the page that would have held it).
    return max(1, -(-total_bytes // page_size))


def _probe_page_ids(file: File, target: Target,
                    partition_id: int, page_size: int
                    ) -> Optional[list[PageId]]:
    """The pages one fetch traverses, or ``None`` when the structure
    cannot enumerate them (fall back to the uncached cost model)."""
    if isinstance(file, BtreeFile):
        return file.probe_page_ids(partition_id, target)
    if isinstance(file, PartitionedFile) and isinstance(target, Pointer):
        return file.probe_page_ids(partition_id, target, page_size)
    return None


def _batch_page_ids(file: File, targets: Sequence[Target],
                    partition_id: int, page_size: int
                    ) -> Optional[list[PageId]]:
    """The unique pages a batch's walks touch, in first-touch order, for
    a dereferencer that leaves the walk to the funnel; ``None`` when a
    target's pages cannot be enumerated."""
    page_lists = [_probe_page_ids(file, target, partition_id, page_size)
                  for target in targets]
    if any(pages is None for pages in page_lists):
        return None
    return list(dict.fromkeys(chain.from_iterable(page_lists)))


def simulated_dereference(cluster: Cluster, config: EngineConfig,
                          metrics: ExecutionMetrics, stage: int,
                          dereferencer: Dereferencer, file: File,
                          target: Target, partition_id: int,
                          executing_node: int,
                          context: Any) -> Iterator:
    """Process generator: one dereference against one partition.

    Charges IO/network/CPU in virtual time and *returns* the filtered
    records (use with ``yield from``).

    The owning node is resolved through :meth:`Cluster.serving_node`, so
    after a permanent node crash the IO lands on the survivor that adopted
    the dead node's partitions (replica promotion) instead of a dead disk.
    """
    if isinstance(dereferencer, ScanLookupDereferencer):
        outputs = yield from _scan_stage_dereference(
            cluster, metrics, stage, dereferencer, file,
            [(target, context)], partition_id, executing_node)
        return outputs[0]
    home = file.node_of(partition_id)
    owner = cluster.serving_node(home)
    sim = cluster.sim
    start_time = sim.now
    records = dereferencer.fetch(file, target, partition_id)
    fetched_bytes = 0
    for record in records:
        fetched_bytes += record.size_bytes
    is_index = isinstance(file, BtreeFile)
    owner_node = cluster.nodes[owner]
    owner_disk = owner_node.disk
    page_size = owner_disk.spec.page_size

    injector = cluster.faults
    check = injector is not None and injector.has_corruption

    pool = owner_node.buffer_pool
    pages = None
    if pool is not None and pool.enabled:
        pages = _probe_page_ids(file, target, partition_id, page_size)
    hits = misses = 0
    if pages is not None:
        # Page-granular path: each traversed page consults the owner's
        # buffer pool.  A hit costs RAM service time; a miss pays the
        # disk's random read and then caches the page.  Page reads within
        # one probe are dependent (parent -> child, leaf -> next leaf), so
        # they serialize inside this simulated thread.
        for page in pages:
            if pool.lookup(page):
                hits += 1
                metrics.cache_hits += 1
                yield sim.timeout(CACHE_HIT_TIME)
            else:
                misses += 1
                metrics.cache_misses += 1
                yield from owner_disk.random_read()
                # only a read that completed populates the cache
                pool.insert(page, page_size)
            # The checksum is verified after the read is paid for — a
            # corrupt page costs its IO like any other (the verdict keys
            # on the home node, so it survives replica promotion).
            if check and injector.page_corrupt(home, page):
                raise _corruption_error(file, page)
        metrics.count_fetch(stage, len(records), is_index, misses)
    else:
        reads = _fetch_cost_reads(file, len(records), fetched_bytes,
                                  page_size)
        metrics.count_fetch(stage, len(records), is_index, reads)
        for __ in range(reads):
            # Dependent page reads serialize inside this simulated thread.
            yield from owner_disk.random_read()
        if check:
            for page in (_probe_page_ids(file, target, partition_id,
                                         page_size) or ()):
                if injector.page_corrupt(home, page):
                    raise _corruption_error(file, page)

    if owner != executing_node:
        metrics.count_remote(POINTER_BYTES + fetched_bytes)
        yield from cluster.network.request_response(
            executing_node, owner, POINTER_BYTES, fetched_bytes)

    if records:
        yield from cluster.nodes[executing_node].process_tuples(
            len(records))
    if metrics.trace is not None:
        metrics.trace.append(TraceEvent(
            stage=stage, node=executing_node, partition=partition_id,
            owner_node=owner, num_records=len(records),
            start=start_time, end=sim.now,
            cache_hits=hits, cache_misses=misses))
    return dereferencer.apply_filter(records, context)


def _charge_scan_build(cluster: Cluster,
                       share: Callable[[int], tuple[int, int]],
                       name: str) -> Iterator:
    """Charge a table built by a parallel scan, one process per node.

    Each node reads its ``share(node_id) == (bytes, rows)`` sequentially,
    spends one core's build CPU on the rows and ships its share of the
    table to peers — the cost shape of a grace hash join's build side.
    Returns once every node is done.
    """
    def build_on(node_id: int):
        serving = cluster.serving_node(node_id)
        node = cluster.node(serving)
        nbytes, rows = share(node_id)
        if nbytes:
            yield from node.disk.sequential_read(nbytes)
        if rows:
            yield from node.process_tuples(rows)
        if cluster.num_nodes > 1 and nbytes:
            shipped = int(nbytes * (cluster.num_nodes - 1)
                          / cluster.num_nodes)
            if shipped:
                yield from cluster.network.transfer(
                    serving, (serving + 1) % cluster.num_nodes, shipped)

    procs = [cluster.launch(build_on(n), name=f"{name}@{n}")
             for n in range(cluster.num_nodes)]
    yield cluster.sim.all_of(procs)


def _scan_stage_build(cluster: Cluster, metrics: ExecutionMetrics,
                      dereferencer: ScanLookupDereferencer,
                      file: File) -> Iterator:
    """Materialize a scan-backed stage's replicated hash table, once.

    The first probe pays for it: every node scans its local partitions
    (:func:`_charge_scan_build`).  Concurrent probes wait on the build
    event; later probes see ``ready`` and pay nothing.

    On a fresh table (unmerged ingest delta runs), each node also reads
    its share of the delta bytes and spends build CPU on the delta rows;
    the build is keyed by the run set, so a newly committed run makes
    the next probe rebuild (and re-pay) the table.
    """
    token = dereferencer.delta_token()
    state = dereferencer.runtime.setdefault(id(cluster), {})
    if state.get("ready") and state.get("token") == token:
        return
    event = state.get("event")
    if event is not None and state.get("token") == token:
        yield event
        return
    if dereferencer.adopt_cached(file):
        # A previous job already paid for this exact table (same file,
        # same unmerged-run set) and published it to the attached result
        # cache: adopt it — no scan, no build CPU, no shipping.
        metrics.scan_table_cache_hits += 1
        state["token"] = token
        state["ready"] = True
        return
    state["token"] = token
    state["ready"] = False
    event = cluster.sim.event()
    state["event"] = event

    def share(node_id: int) -> tuple[int, int]:
        nbytes = rows = 0
        pids = file.partitions_on_node(node_id)
        for pid in pids:
            nbytes += file.partition_bytes(pid)
            rows += sum(1 for __ in file.scan_partition(pid))
        delta_bytes, delta_rows = dereferencer.delta_bytes_on(file, pids)
        return nbytes + delta_bytes, rows + delta_rows

    all_pids = list(range(file.num_partitions))
    delta_total, __ = dereferencer.delta_bytes_on(file, all_pids)
    yield from _charge_scan_build(cluster, share, "scan-stage")
    dereferencer.table_for(file)
    metrics.scan_stage_builds += 1
    metrics.scan_stage_bytes += file.total_bytes + delta_total
    dereferencer.publish_table(file, file.total_bytes + delta_total)
    state["ready"] = True
    event.succeed()


def _scan_stage_dereference(cluster: Cluster, metrics: ExecutionMetrics,
                            stage: int,
                            dereferencer: ScanLookupDereferencer,
                            file: File, probes: Sequence[Probe],
                            partition_id: int,
                            executing_node: int) -> Iterator:
    """Probes of a scan-backed stage: build-once, then memory lookups
    (one CPU charge for all of them).  Returns one filtered record list
    per probe."""
    start_time = cluster.sim.now
    yield from _scan_stage_build(cluster, metrics, dereferencer, file)
    fetched = [dereferencer.fetch(file, target, partition_id)
               for target, __ in probes]
    total_records = sum(len(records) for records in fetched)
    metrics.count_fetch(stage, total_records, False, 0)
    if total_records:
        yield from cluster.node(executing_node).process_tuples(
            total_records)
    if metrics.trace is not None:
        metrics.trace.append(TraceEvent(
            stage=stage, node=executing_node, partition=partition_id,
            owner_node=executing_node, num_records=total_records,
            start=start_time, end=cluster.sim.now,
            batch_size=len(probes)))
    return [dereferencer.apply_filter(records, context)
            for records, (__, context) in zip(fetched, probes)]


def _corruption_error(file: File, page: PageId) -> StructureCorruptionError:
    return StructureCorruptionError(
        f"checksum mismatch on {page.file!r} partition {page.partition} "
        f"{page.page_kind} page {page.page_no} (expected crc "
        f"{page_checksum(page):08x})", structure=file.name, page=page)


def classify_failure(exc: BaseException) -> str:
    """FailureRecord kind for an exception the resilience layer caught."""
    if isinstance(exc, ExecutionError) and isinstance(exc.__cause__,
                                                      FaultError):
        exc = exc.__cause__
    if isinstance(exc, DereferenceTimeout):
        return "timeout"
    if isinstance(exc, NodeCrashed):
        return "node-crash"
    if isinstance(exc, StructureCorruptionError):
        return "corruption"
    if isinstance(exc, TransientIOError):
        return "transient-io"
    return "user-error"


def unit_failed(config: EngineConfig, metrics: ExecutionMetrics,
                failures: FailureReport, exc: BaseException, *,
                job_name: str, stage: int, node: int,
                partition: Optional[int],
                now: float) -> Optional[BaseException]:
    """The cluster engines' failure policy for one work unit beyond
    saving (retries exhausted, user code raised, or ``on_error='fail'``).

    Under ``on_error='skip'`` the unit is dropped into ``failures`` and
    None returned.  Otherwise returns the exception that aborts the job:
    user errors and already-wrapped exhaustion errors as themselves,
    any other fault wrapped in :class:`~repro.errors.JobAborted`."""
    kind = classify_failure(exc)
    if config.on_error == "skip":
        metrics.tasks_skipped += 1
        failures.add(FailureRecord(
            stage=stage, node=node, partition=partition, kind=kind,
            error=str(exc), time=now,
            attempts=1 if kind == "user-error" else config.max_retries + 1))
        return None
    if kind == "user-error" or isinstance(exc, ExecutionError):
        return exc
    aborted = JobAborted(f"job {job_name!r} aborted by {kind} fault on "
                         f"node {node}: {exc}")
    aborted.__cause__ = exc
    return aborted


def _trace_fault(cluster: Cluster, metrics: ExecutionMetrics, stage: int,
                 node: int, partition_id: int, kind: str) -> None:
    if metrics.trace is not None:
        now = cluster.sim.now
        metrics.trace.append(TraceEvent(
            stage=stage, node=node, partition=partition_id,
            owner_node=node, num_records=0, start=now, end=now, kind=kind))


def _timed_dereference(cluster: Cluster, config: EngineConfig,
                       metrics: ExecutionMetrics, stage: int,
                       dereferencer: Dereferencer, file: File,
                       probes: Sequence[Probe], partition_id: int,
                       executing_node: int, batch: bool) -> Iterator:
    """One attempt of a funnel unit raced against the invocation timeout.

    The attempt runs the unit's kernel — :func:`batched_dereference` for
    a batch, :func:`simulated_dereference` for a one-probe per-record
    unit — as its own simulated process so the caller can abandon it:
    when the timer wins, the in-flight IO keeps occupying its resources
    (as a real abandoned request would) but its records and any late
    exception are discarded, and :class:`DereferenceTimeout` is raised
    for the retry loop to handle.  The timeout is per dispatch, so a
    batch gets the same budget a single probe does.
    """

    def attempt():
        try:
            if batch:
                outputs = yield from batched_dereference(
                    cluster, config, metrics, stage, dereferencer, file,
                    probes, partition_id, executing_node)
            else:
                target, context = probes[0]
                outputs = [(yield from simulated_dereference(
                    cluster, config, metrics, stage, dereferencer, file,
                    target, partition_id, executing_node, context))]
        except Exception as exc:  # captured: the waiter decides what to do
            return ("error", exc)
        return ("ok", outputs)

    sim = cluster.sim
    proc = sim.process(attempt(), name=f"deref-attempt@{executing_node}")
    timer = sim.timeout(config.dereference_timeout)
    index, value = yield sim.any_of([proc, timer])
    if index == 1:
        raise DereferenceTimeout(
            f"dereference of {file.name!r} partition {partition_id} "
            f"exceeded {config.dereference_timeout}s on node "
            f"{executing_node}")
    outcome, payload = value
    if outcome == "error":
        raise payload
    return payload


def _backoff_delay(cluster: Cluster, exec_node: int, attempt: int) -> float:
    """Simulated seconds to wait before retry number ``attempt + 1``.

    Capped exponential backoff drawn with *full jitter* — uniform on
    ``(0, capped_delay]`` from the fault injector's deterministic
    per-(node, attempt) RNG stream — so concurrent jobs faulting at the
    same instant spread their retries instead of re-colliding in a
    synchronized storm that re-saturates the disk the fault came from.
    Seeded, so runs replay byte-for-byte.
    """
    delay = min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * (2.0 ** attempt))
    if cluster.faults is not None:
        delay *= cluster.faults.retry_jitter(exec_node, attempt)
    return delay


class _ScanRecoveryTable:
    """Replacement serving path for one quarantined index structure.

    Built by scanning the *base* file (whose pages are fine) and
    re-deriving the index entries exactly as the DFS build does — same
    extraction, same physical targets, same placement, same within-key
    order — so probes answered from here return byte-identical records to
    what the healthy index would have returned.  The build is charged once
    per job as a parallel sequential scan (the same cost shape as a
    scan-backed plan stage); concurrent probes wait on the build event.
    """

    def __init__(self, catalog: "StructureCatalog", file: BtreeFile) -> None:
        self.file = file
        self.definition = catalog.definition(file.name)
        self.base = catalog.dfs.get_base(self.definition.base_file)
        self.loader = catalog.dfs.loader_info(self.definition.base_file)
        self._event: Any = None
        self._ready = False
        self._entries: dict[int, list[Record]] = {}
        self._keys: dict[int, list[Any]] = {}

    def _materialize(self) -> None:
        # The DFS build's own entry derivation: within one key, entries
        # keep base slot order, the duplicate order of the B-tree.
        [(buckets, __)] = index_buckets(
            self.base, self.loader.partition_key_fn,
            [(self.file, self.definition.keys_batch)])
        for pid, (keys, bucket) in enumerate(buckets):
            self._entries[pid] = bucket
            self._keys[pid] = keys

    def charge_build(self, cluster: Cluster,
                     metrics: ExecutionMetrics) -> Iterator:
        """Pay for (and perform) the one-time base scan, build-once."""
        if self._ready:
            return
        if self._event is not None:
            yield self._event
            return
        self._event = cluster.sim.event()
        base = self.base

        def share(node_id: int) -> tuple[int, int]:
            nbytes = rows = 0
            for pid in base.partitions_on_node(node_id):
                nbytes += base.partition_bytes(pid)
                rows += len(base.partitions[pid])
            return nbytes, rows

        yield from _charge_scan_build(cluster, share, "recover")
        self._materialize()
        metrics.scan_stage_builds += 1
        metrics.scan_stage_bytes += base.total_bytes
        self._ready = True
        self._event.succeed()

    def probe(self, target: Target, partition_id: int) -> list[Record]:
        """The entries the healthy index would return for this probe."""
        entries = self._entries.get(partition_id, [])
        keys = self._keys.get(partition_id, [])
        if isinstance(target, PointerRange):
            lo = (0 if target.low is None
                  else bisect.bisect_left(keys, target.low)
                  if target.inclusive_low
                  else bisect.bisect_right(keys, target.low))
            hi = (len(keys) if target.high is None
                  else bisect.bisect_right(keys, target.high)
                  if target.inclusive_high
                  else bisect.bisect_left(keys, target.high))
        else:
            lo = bisect.bisect_left(keys, target.key)
            hi = bisect.bisect_right(keys, target.key)
        return entries[lo:hi]


def _scan_recoverable(catalog: "StructureCatalog", name: str) -> bool:
    """True when a corrupt structure can be re-served from its base file."""
    try:
        definition = catalog.definition(name)
        catalog.dfs.loader_info(definition.base_file)
    except ReproError:
        return False
    return True


def _recovery_probe(cluster: Cluster, metrics: ExecutionMetrics, stage: int,
                    dereferencer: Dereferencer, file: BtreeFile,
                    target: Target, partition_id: int, executing_node: int,
                    context: Any, catalog: "StructureCatalog",
                    runtime: dict) -> Iterator:
    """Serve one probe of a quarantined structure from the recovery table."""
    table = runtime.get(file.name)
    if table is None:
        table = _ScanRecoveryTable(catalog, file)
        runtime[file.name] = table
    yield from table.charge_build(cluster, metrics)
    records = table.probe(target, partition_id)
    metrics.corruption_fallbacks += 1
    metrics.count_fetch(stage, len(records), True, 0)
    if records:
        exec_node = cluster.serving_node(executing_node)
        yield from cluster.node(exec_node).process_tuples(len(records))
    return dereferencer.apply_filter(records, context)


def _consults_runs(file: File, target: Target) -> bool:
    """True when a probe of ``target`` merges (and pays for) the
    structure's unmerged runs: every index probe and every logical base
    probe.  Physical base probes address one slot already vetted by the
    index-side tombstone filter: nothing to merge, nothing to pay."""
    return isinstance(file, BtreeFile) or (
        isinstance(target, Pointer) and target.kind is PointerKind.LOGICAL)


def _merge_deltas(metrics: ExecutionMetrics, dereferencer: Dereferencer,
                  file: File, target: Target, partition_id: int,
                  context: Any, runs: list,
                  records: list[Record]) -> list[Record]:
    """Fold a base probe's result with the structure's unmerged runs.

    Newest wins throughout: built-tree entries killed by tombstones,
    base-heap records killed by upsert key sets, older-run payloads
    killed by newer runs' upserts.  Charges nothing; the cluster funnel
    pays for the runs in :func:`_charged_delta_merge`.
    """
    if not _consults_runs(file, target):
        return records
    if isinstance(file, BtreeFile):
        tombstones = tombstone_set(runs, partition_id)
        if tombstones:
            kept = live_entries(records, tombstones)
            metrics.delta_superseded += len(records) - len(kept)
            records = kept
        additions, superseded = probe_delta_runs(runs, partition_id, target)
    else:
        assert isinstance(target, Pointer)  # a logical base probe
        if is_delta_tag(target.key):
            # Synthetic address of one delta record; after a compaction
            # folded the run, the heap alias already resolved it above.
            if records:
                additions, superseded = [], 0
            else:
                additions, superseded = probe_delta_tag(
                    runs, partition_id, target.key)
        else:
            if records and target.key in dead_base_keys(runs, partition_id):
                metrics.delta_superseded += len(records)
                records = []
            additions, superseded = probe_delta_runs(
                runs, partition_id, target)
    metrics.delta_superseded += superseded
    metrics.delta_probes += len(runs)
    if additions:
        additions = dereferencer.apply_filter(list(additions), context)
        metrics.delta_entries += len(additions)
        records = records + additions
    return records


def _charged_delta_merge(cluster: Cluster, metrics: ExecutionMetrics,
                         dereferencer: Dereferencer, file: File,
                         probes: Sequence[Probe], partition_id: int,
                         catalog: "StructureCatalog", outputs: list,
                         batch: bool) -> Iterator:
    """Delta merge for one funnel unit plus its simulated cost, on the
    disk serving the probed partition.

    Every probe that consults the runs merges them, but a run's key
    filter stays in memory (:meth:`~repro.ingest.delta.DeltaRun.may_hold`),
    so only the runs whose filter names a probe's key are read from
    disk.  A per-record unit pays one random read per such run; a batch
    reads the runs that may hold any of its probes' keys **once** (one
    batched read) — the batched charging rule.  A probe that no run can
    hold reads nothing.  The reads are paid before the merge counts
    anything, so a unit retried after a failed delta-run read counts its
    merge once."""
    # A snapshot: a run committed while the reads are in flight is the
    # next probe's to merge, not this one's.
    runs = list(catalog.delta_runs(file.name))
    targets = [target for target, __ in probes
               if _consults_runs(file, target)]
    reads = sum(1 for run in runs
                if any(run.may_hold(partition_id, target)
                       for target in targets))
    if reads:
        disk = cluster.node(cluster.serving_node(
            file.node_of(partition_id))).disk
        if batch:
            yield from disk.random_read_batch(reads)
        else:
            for __ in range(reads):
                yield from disk.random_read()
        metrics.random_reads += reads
        metrics.delta_run_reads += reads
    return [_merge_deltas(metrics, dereferencer, file, target, partition_id,
                          context, runs, records)
            for (target, context), records in zip(probes, outputs)]


def stamp_watermark(metrics: ExecutionMetrics,
                    catalog: Optional["StructureCatalog"]) -> None:
    """Record the ingest freshness watermark this job observes.

    Called once per job at metrics creation.  A no-op on static lakes
    (no registry attached, or no batch ever staged), so zero-ingest
    runs keep their metrics bit-identical to pre-streaming builds.
    """
    if catalog is None:
        return
    registry = catalog.delta_registry
    if registry is None or not registry.active:
        return
    metrics.freshness_watermark = registry.committed_through


class JobWindow(NamedTuple):
    """One cluster-engine job's metrics between :func:`open_job_metrics`
    and :func:`close_job_metrics`."""

    metrics: ExecutionMetrics
    #: simulated clock at launch
    start: float
    #: every node's spindle-busy integral at launch
    busy: list[float]


def open_job_metrics(cluster: Cluster,
                     catalog: Optional["StructureCatalog"],
                     config: EngineConfig) -> JobWindow:
    """Fresh metrics for one job at launch: the watermark and the
    placement epoch it runs under, a trace when tracing, and the clock
    and spindle snapshots its window starts from.

    The epoch stays None on static clusters (no
    :class:`~repro.cluster.topology.TopologyController`).  Routing itself
    needs no epoch check: every dereference attempt re-resolves the
    partition's current owner, so the stamp only records which placement
    the job *started* under."""
    metrics = ExecutionMetrics()
    stamp_watermark(metrics, catalog)
    if cluster.topology is not None:
        metrics.placement_epoch = cluster.topology.epoch
    if config.trace:
        metrics.trace = []
    return JobWindow(metrics, cluster.sim.now,
                     [node.disk.spindle_busy_snapshot()
                      for node in cluster.nodes])


def watch_node_loss(cluster: Cluster, metrics: ExecutionMetrics,
                    failures: FailureReport, consequence: str,
                    then: Optional[Callable[[int], None]] = None
                    ) -> Optional[Callable[[int], None]]:
    """Account every node one job loses, when the cluster can lose one
    (it has a fault plan or a topology controller); returns the listener
    for :func:`unwatch_node_loss`, or None.

    A node retired by a drain is a topology event, noted in ``failures``
    as "node N retired by drain at T ms; ``consequence``"; any other
    loss is a crash, counted in ``metrics.node_crashes``.  ``then(dead)``
    runs after the accounting (SMPE re-queues the node's pending work
    there)."""
    if cluster.faults is None and cluster.topology is None:
        return None

    def listener(dead: int) -> None:
        nodes = cluster.nodes
        if dead < len(nodes) and nodes[dead].retired:
            failures.note_topology(
                f"node {dead} retired by drain at "
                f"{cluster.sim.now * 1e3:.2f}ms; {consequence}")
        else:
            metrics.node_crashes += 1
        if then is not None:
            then(dead)

    cluster.on_node_crash(listener)
    return listener


def unwatch_node_loss(cluster: Cluster,
                      listener: Optional[Callable[[int], None]]) -> None:
    """Stop the accounting :func:`watch_node_loss` started, if any."""
    if listener is not None:
        cluster.remove_crash_listener(listener)


def close_job_metrics(cluster: Cluster, window: JobWindow,
                      results: list, limit: Optional[int],
                      peak_parallelism: int) -> None:
    """Finish one job's metrics at completion: elapsed time, peak
    parallelism, the mean fraction of spindles busy over the window, and
    ``results`` trimmed to ``limit``."""
    metrics = window.metrics
    end = cluster.sim.now
    metrics.elapsed_seconds = end - window.start
    metrics.peak_parallelism = peak_parallelism
    if limit is not None and len(results) > limit:
        del results[limit:]
    if end > window.start:
        span = end - window.start
        metrics.disk_utilization = sum(
            (node.disk.spindle_busy_snapshot() - snap)
            / (node.disk.spindle_count * span)
            for node, snap in zip(cluster.nodes, window.busy)
        ) / cluster.num_nodes


def recovering_dereference(cluster: Cluster, config: EngineConfig,
                           metrics: ExecutionMetrics, stage: int,
                           dereferencer: Dereferencer, file: File,
                           probes: Sequence[Probe], partition_id: int,
                           executing_node: int, *,
                           catalog: Optional["StructureCatalog"] = None,
                           failures: Optional[FailureReport] = None,
                           runtime: Optional[dict] = None,
                           abort_check: Optional[Callable[[], bool]] = None,
                           nested: bool = False) -> Iterator:
    """The access funnel: one generator, policy by branch.

    The cluster engines' only way to a record.  ``probes`` are ``(target,
    context)`` pairs against partition ``partition_id``; the generator
    returns one filtered record list per probe, in probe order.  The
    probes are charged in *units*, one kernel call each:

    * at ``batch_size=1`` every probe is its own unit, charged by
      :func:`simulated_dereference`.  On a healthy, fault-free cluster
      the funnel adds nothing to that one call: zero extra simulated
      events, byte-identical charges;
    * at ``batch_size>1`` the whole list is one unit, charged by
      :func:`batched_dereference` — even a list of one.  Under an active
      page-corruption plan or against a sick structure the list degrades
      to per-record units, so the quarantine protocol runs per probe
      (batching buys nothing on a path whose cost is dominated by the
      recovery scan anyway).

    A call of several per-record units runs each as a ``nested`` pass of
    this generator: one probe, the per-record kernel, and no feedback of
    its own.  A call of one unit — every call on the hot path — runs it
    inline, so the per-record path stays two generator frames deep.
    Around each unit's kernel call sit:

    * **retries** — transient faults (IO errors, network drops) and
      **timeouts** (``config.dereference_timeout``, raced by
      :func:`_timed_dereference`) are retried with capped, jittered
      exponential backoff *in simulated time* (:func:`_backoff_delay`),
      up to ``config.max_retries``, unless ``on_error='fail'`` (then the
      first fault propagates immediately); exhaustion raises
      :class:`ExecutionError` with the final fault chained as its cause.
      User-code exceptions are never retried — they propagate unchanged;
    * **crash re-routing** — the executing side re-resolves through
      :meth:`Cluster.serving_node` each attempt, and the owner side is
      re-resolved inside the kernel, so in-flight work moves to survivors
      without consuming the retry budget;
    * **abort** — ``abort_check`` (when supplied) is consulted at each
      attempt boundary: once it reports True the unit gives up and
      fetches nothing instead of burning backoff time and disk on a job
      that has been cancelled — its output is discarded anyway;
    * **quarantine** — with a catalog and recovery ``runtime`` supplied,
      under an active :class:`~repro.cluster.faults.PageCorruption` plan
      or against an unhealthy structure: a probe that raises
      :class:`~repro.errors.StructureCorruptionError` quarantines the
      structure in the catalog (once), drops its cached pages, records
      the event in the :class:`FailureReport`'s quarantine ledger, and
      re-serves the probe from a :class:`_ScanRecoveryTable` built over
      the base file; probes of a structure already quarantined (or
      demoted by the scrub worker) go straight to the recovery table
      without touching the sick pages; structures with no registered
      definition (no base file to rebuild from) propagate the corruption
      error to the engine's failure policy;
    * **delta merge** — on a streaming lake each unit's result is folded
      with the structure's unmerged runs (:func:`_charged_delta_merge`)
      inside the retry loop, so a fault on a delta-run read retries the
      unit like a fault on its base read;
    * **feedback** — when ``config.feedback`` carries a
      :class:`~repro.plan.feedback.RuntimeFeedback`, the call's total
      post-filter output count is reported, once (a nested pass leaves
      it to its caller): the observed cardinality adaptive
      re-optimization corrects estimates with.
    """
    # fresh: unmerged delta runs to fold in (never on a static lake, so
    # the delta path is a strict no-op there); guarded: the quarantine
    # protocol is armed, as corruption is injected or the structure is
    # already sick; sick: sick and re-servable from its base file.
    # Scan-backed stages need none of it: their hash table is itself
    # delta-merged at build time (a per-probe merge would double-count)
    # and reads no index pages.
    fresh = guarded = sick = False
    if (catalog is not None
            and not isinstance(dereferencer, ScanLookupDereferencer)):
        fresh = catalog.delta_depth(file.name) > 0
        if runtime is not None:
            injector = cluster.faults
            sick = (isinstance(file, BtreeFile)
                    and not catalog.healthy(file.name))
            guarded = sick or (injector is not None
                               and injector.has_corruption)
            sick = sick and _scan_recoverable(catalog, file.name)
    batch = config.batch_size > 1 and not (nested or guarded)
    if len(probes) != 1 and not batch:
        outputs: list[list[Record]] = []
        for probe in probes:
            outputs += yield from recovering_dereference(
                cluster, config, metrics, stage, dereferencer, file,
                [probe], partition_id, executing_node, catalog=catalog,
                failures=failures, runtime=runtime, abort_check=abort_check,
                nested=True)
    else:
        attempt = crash_hops = 0
        while True:
            if abort_check is not None and abort_check():
                outputs = [[] for __ in probes]
                break
            exec_node = cluster.serving_node(executing_node)
            try:
                if sick:
                    assert catalog is not None and runtime is not None
                    target, context = probes[0]
                    outputs = [(yield from _recovery_probe(
                        cluster, metrics, stage, dereferencer, file, target,
                        partition_id, executing_node, context, catalog,
                        runtime))]
                elif config.dereference_timeout > 0:
                    outputs = yield from _timed_dereference(
                        cluster, config, metrics, stage, dereferencer, file,
                        probes, partition_id, exec_node, batch)
                elif batch:
                    outputs = yield from batched_dereference(
                        cluster, config, metrics, stage, dereferencer, file,
                        probes, partition_id, exec_node)
                else:
                    target, context = probes[0]
                    outputs = [(yield from simulated_dereference(
                        cluster, config, metrics, stage, dereferencer, file,
                        target, partition_id, exec_node, context))]
                if fresh:
                    assert catalog is not None
                    outputs = yield from _charged_delta_merge(
                        cluster, metrics, dereferencer, file, probes,
                        partition_id, catalog, outputs, batch)
                break
            except NodeCrashed as exc:
                crash_hops += 1
                metrics.count_fault("node-crash")
                _trace_fault(cluster, metrics, stage, exec_node,
                             partition_id, "fault:node-crash")
                if crash_hops > cluster.num_nodes:
                    raise ExecutionError(
                        f"no surviving node could serve {file.name!r} "
                        f"partition {partition_id}") from exc
            except TransientIOError as exc:
                kind = classify_failure(exc)
                metrics.count_fault(kind)
                _trace_fault(cluster, metrics, stage, exec_node,
                             partition_id, f"fault:{kind}")
                if config.on_error == "fail":
                    raise
                if attempt >= config.max_retries:
                    raise ExecutionError(
                        f"dereference of {file.name!r} partition "
                        f"{partition_id} on node {exec_node} failed "
                        f"after {attempt} "
                        f"retr{'ies' if attempt != 1 else 'y'}") from exc
                delay = _backoff_delay(cluster, exec_node, attempt)
                attempt += 1
                metrics.retries += 1
                _trace_fault(cluster, metrics, stage, exec_node,
                             partition_id, "retry")
                if delay > 0:
                    yield cluster.sim.timeout(delay)
            except StructureCorruptionError as exc:
                if not guarded:
                    raise
                assert catalog is not None
                metrics.corruptions_detected += 1
                name = file.name
                if not (isinstance(file, BtreeFile)
                        and _scan_recoverable(catalog, name)):
                    raise
                if catalog.healthy(name):
                    catalog.quarantine(name)
                    metrics.quarantines += 1
                    cluster.invalidate_cached_file(name)
                    if failures is not None:
                        failures.note_quarantine(FailureRecord(
                            stage=stage, node=executing_node,
                            partition=partition_id, kind="corruption",
                            error=str(exc), attempts=1,
                            time=cluster.sim.now))
                # The next pass re-serves the probe from the recovery
                # table built over the base file.
                sick = True
    if config.feedback is not None and not nested:
        config.feedback.observe(stage, sum(len(records)
                                           for records in outputs))
    return outputs


def count_only_dereference(metrics: ExecutionMetrics, stage: int,
                           dereferencer: Dereferencer, file: File,
                           target: Target, partition_id: int,
                           context: Any, *,
                           catalog: Optional["StructureCatalog"] = None,
                           feedback: Optional[Any] = None
                           ) -> list[Record]:
    """The same fetch without a cluster: counts accesses, charges no time.

    Used by the in-memory reference executor (the correctness oracle and
    the record-access counter behind Figure 9).  With a catalog given,
    probes are delta-aware exactly like the cluster engines', so the
    oracle stays an oracle on a streaming lake.  ``feedback`` mirrors
    ``EngineConfig.feedback``: post-filter output counts are reported so
    adaptive runs behave identically on the reference path.
    """
    if isinstance(dereferencer, ScanLookupDereferencer):
        if dereferencer.adopt_cached(file):
            metrics.scan_table_cache_hits += 1
        first_probe = not dereferencer.has_table(file)
        records = dereferencer.fetch(file, target, partition_id)
        if first_probe:
            delta_bytes, __ = dereferencer.delta_bytes_on(
                file, list(range(file.num_partitions)))
            metrics.scan_stage_builds += 1
            metrics.scan_stage_bytes += file.total_bytes + delta_bytes
            dereferencer.publish_table(file, file.total_bytes + delta_bytes)
        metrics.count_fetch(stage, len(records), False, 0)
        records = dereferencer.apply_filter(records, context)
        if feedback is not None:
            feedback.observe(stage, len(records))
        return records
    records = dereferencer.fetch(file, target, partition_id)
    reads = _fetch_cost_reads(file, len(records),
                              sum(r.size_bytes for r in records),
                              _REFERENCE_PAGE_SIZE)
    metrics.count_fetch(stage, len(records), isinstance(file, BtreeFile),
                        reads)
    records = dereferencer.apply_filter(records, context)
    if catalog is not None and catalog.delta_depth(file.name) > 0:
        records = _merge_deltas(
            metrics, dereferencer, file, target, partition_id, context,
            catalog.delta_runs(file.name), records)
    if feedback is not None:
        feedback.observe(stage, len(records))
    return records


# --------------------------------------------------------------------------
# The batch charging kernel
#
# At ``batch_size>1`` the engines group same-(file, partition) targets and
# the funnel charges each group as one batch, with per-batch simulated cost
# (the documented charging rules):
#
# * **page walks dedupe across the batch**: each unique page is consulted
#   against the buffer pool once; all hits cost one combined RAM timeout,
#   all misses one :meth:`Disk.random_read_batch` (a single spindle slot
#   for ``ceil(misses / spindles)`` service times, every read accounted);
# * **uncached fetches amortize**: a B-tree batch pays one shared interior
#   walk plus the leaf pages of the *combined* result
#   (``probe_io_count(total)``); a heap batch pays the pages the combined
#   record bytes span;
# * **one network round trip per batch per remote owner**: request bytes
#   are ``POINTER_BYTES * len(batch)``, response bytes the combined
#   records;
# * **CPU charged per batch, sliver per record**: one ``process_tuples``
#   call over the combined record count;
# * **delta runs merge once per batch**: the funnel's delta merge reads
#   each unmerged run whose key filter names one of the batch's probes
#   once (one batched read), not once per probe;
# * **one fault draw / corruption check sweep per batch**: a transient
#   fault or checksum failure fails (and retries) the batch as a unit.
#
# The rules apply to every batch, a batch of one included: its page reads
# still stripe across spindles (``ceil(k / spindles)`` service times),
# where the per-record kernel serializes a probe's dependent reads.  So
# ``batch_size``, never the number of probes, picks this kernel, and
# ``batch_size=1`` never reaches it.
# --------------------------------------------------------------------------


def batched_dereference(cluster: Cluster, config: EngineConfig,
                        metrics: ExecutionMetrics, stage: int,
                        dereferencer: Dereferencer, file: File,
                        probes: Sequence[Probe], partition_id: int,
                        executing_node: int) -> Iterator:
    """Process generator: one batch of dereferences against one partition.

    Returns one filtered record list per probe, in probe order."""
    if isinstance(dereferencer, ScanLookupDereferencer):
        outputs = yield from _scan_stage_dereference(
            cluster, metrics, stage, dereferencer, file, probes,
            partition_id, executing_node)
        metrics.count_batch(len(probes), config.batch_size)
        return outputs
    home = file.node_of(partition_id)
    owner = cluster.serving_node(home)
    start_time = cluster.sim.now
    owner_node = cluster.node(owner)
    owner_disk = owner_node.disk
    page_size = owner_disk.spec.page_size
    pool = owner_node.buffer_pool
    walk = pool is not None and pool.enabled
    # One storage call for the whole batch: every probe's records and,
    # with a pool to consult, the unique pages their walks touch.
    targets = [target for target, __ in probes]
    fetched, pages = dereferencer.fetch_batch(
        file, targets, partition_id, page_size if walk else None)
    if walk and pages is None:
        pages = _batch_page_ids(file, targets, partition_id, page_size)
    total_records = sum(map(len, fetched))
    is_index = isinstance(file, BtreeFile)

    injector = cluster.faults
    check = injector is not None and injector.has_corruption

    hits = misses = 0
    if pages is not None:
        # Page walks dedupe across the batch: each unique page consults
        # the pool once, in first-touch order.
        to_read = []
        for page in pages:
            if pool.lookup(page):
                hits += 1
            else:
                misses += 1
                to_read.append(page)
        metrics.cache_hits += hits
        metrics.cache_misses += misses
        if hits:
            yield cluster.sim.timeout(hits * CACHE_HIT_TIME)
        if misses:
            yield from owner_disk.random_read_batch(misses)
            # only reads that completed populate the cache
            for page in to_read:
                pool.insert(page, page_size)
        if check:
            for page in pages:
                if injector.page_corrupt(home, page):
                    raise _corruption_error(file, page)
        metrics.count_fetch(stage, total_records, is_index, misses)
    else:
        reads = _fetch_cost_reads(
            file, total_records,
            sum(r.size_bytes for records in fetched for r in records),
            page_size)
        metrics.count_fetch(stage, total_records, is_index, reads)
        if reads:
            yield from owner_disk.random_read_batch(reads)
        if check:
            seen = set()
            for target in targets:
                for page in (_probe_page_ids(file, target, partition_id,
                                             page_size) or ()):
                    if page in seen:
                        continue
                    seen.add(page)
                    if injector.page_corrupt(home, page):
                        raise _corruption_error(file, page)

    if owner != executing_node:
        response_bytes = sum(r.size_bytes for records in fetched
                             for r in records)
        request_bytes = POINTER_BYTES * len(probes)
        metrics.count_remote(request_bytes + response_bytes)
        yield from cluster.network.request_response(
            executing_node, owner, request_bytes, response_bytes)

    if total_records:
        yield from cluster.node(executing_node).process_tuples(
            total_records)
    metrics.count_batch(len(probes), config.batch_size)
    if metrics.trace is not None:
        metrics.trace.append(TraceEvent(
            stage=stage, node=executing_node, partition=partition_id,
            owner_node=owner, num_records=total_records,
            start=start_time, end=cluster.sim.now,
            cache_hits=hits, cache_misses=misses,
            batch_size=len(probes)))
    if dereferencer.filter is None:
        return fetched  # fresh lists (Dereferencer.fetch_batch)
    return [dereferencer.apply_filter(records, context)
            for records, (__, context) in zip(fetched, probes)]
