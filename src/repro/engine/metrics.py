"""Execution metrics and the job-result container.

``record_accesses`` is the headline number: Figure 9 of the paper compares
"the number of record accesses" between engines, because "the number of
record accesses determines the theoretical limitation of query performance"
once both systems execute with fine-grained massive parallelism.  We count
every record fetched from storage (index entries and base records alike),
before filtering — that is what costs an IO.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Optional, Sequence

from repro.core.job import OutputRow

__all__ = ["ExecutionMetrics", "FailureRecord", "FailureReport", "JobResult"]

#: merge rules a field may declare; undeclared fields sum.  Under ``max``
#: and ``min`` a ``None`` side is absent; ``job`` fields never fold.
_MAX = {"merge": "max"}
_MIN = {"merge": "min"}
_JOB = {"merge": "job"}


@dataclass
class ExecutionMetrics:
    """Counters accumulated while executing one job; each field declares
    how :meth:`merge` folds it across jobs, and :meth:`summary` derives
    from the same declaration."""

    #: records fetched from storage, pre-filter (index entries + base rows)
    record_accesses: int = 0
    #: of which: entries read from B-tree structures
    index_entry_accesses: int = 0
    #: of which: rows read from base files
    base_record_accesses: int = 0
    #: random disk reads charged
    random_reads: int = 0
    #: dereference page lookups served from a node's buffer pool
    cache_hits: int = 0
    #: dereference page lookups that went to disk (pool enabled but cold)
    cache_misses: int = 0
    #: scan-backed stages materialized (one sequential pass each)
    scan_stage_builds: int = 0
    #: bytes sequentially scanned to build scan-backed stage tables
    scan_stage_bytes: int = 0
    #: dereference invocations that crossed nodes
    remote_fetches: int = 0
    #: bytes moved across the network for remote dereferences
    bytes_transferred: int = 0
    #: function invocations per stage index
    stage_invocations: Counter = field(default_factory=Counter)
    #: records fetched per stage index
    stage_record_accesses: Counter = field(default_factory=Counter)
    #: peak concurrent pool threads observed across all nodes
    peak_parallelism: int = field(default=0, metadata=_MAX)
    #: simulated seconds from job launch to completion
    elapsed_seconds: float = 0.0
    #: mean fraction of disk spindles busy during the run (0..1) — how
    #: close the engine came to the IOPS capacity SMPE is built to exploit
    disk_utilization: float = field(default=0.0, metadata=_JOB)
    #: transient IO / network faults the engine observed (pre-retry)
    transient_faults: int = 0
    #: dereference invocations abandoned by the per-invocation timeout
    timeouts: int = 0
    #: retry attempts issued (capped exponential backoff, simulated time)
    retries: int = 0
    #: dereference attempts re-routed to a survivor after a node crash
    reroutes: int = 0
    #: work units dropped under ``on_error='skip'`` (see the FailureReport)
    tasks_skipped: int = 0
    #: node crashes observed while this job was running (folded: the most
    #: any one job observed, since concurrent jobs see the same crash)
    node_crashes: int = field(default=0, metadata=_MAX)
    #: structure-page checksum failures detected during probes
    corruptions_detected: int = 0
    #: structures withdrawn from service mid-job after a checksum failure
    quarantines: int = 0
    #: probes re-served from a scan-built recovery table after quarantine
    corruption_fallbacks: int = 0
    #: unmerged delta runs consulted by delta-aware probes: filter
    #: checks, not reads (0 on static lakes — the streaming-ingest path
    #: never fires there)
    delta_probes: int = 0
    #: unmerged delta runs whose pages a delta-aware unit read, because
    #: their key filter named one of its probes (<= ``delta_probes``)
    delta_run_reads: int = 0
    #: live records/entries served from delta runs (post-filter)
    delta_entries: int = 0
    #: base records or delta payloads dropped by newest-wins upserts
    delta_superseded: int = 0
    #: ingest event-time watermark this job observed at submission
    #: (None on static lakes or before the first committed batch; folded:
    #: the stalest answer served)
    freshness_watermark: Optional[float] = field(default=None, metadata=_MIN)
    #: placement epoch the job was routed under at submission (None on
    #: static clusters; folded: the newest epoch)
    placement_epoch: Optional[int] = field(default=None, metadata=_MAX)
    #: jobs answered entirely from the semantic result cache (tier B);
    #: set on the fresh metrics a cache-served ticket carries
    result_cache_hits: int = 0
    #: scan-backed stage tables adopted from the result cache (tier A)
    #: instead of being rebuilt — each one is a build charge avoided
    scan_table_cache_hits: int = 0
    #: batched dereference dispatches (0 on the per-record reference path)
    batches: int = 0
    #: pointers/targets served through batched dispatches
    batched_probes: int = 0
    #: sum of configured batch capacities across dispatches (fill-factor
    #: denominator: a dispatch of 3 probes at batch_size=64 adds 64 here)
    batched_capacity: int = 0
    #: per-dereference timeline events when tracing is enabled, else None
    trace: Any = field(default=None, metadata=_JOB)

    def count_fetch(self, stage: int, num_records: int, is_index: bool,
                    random_reads: int) -> None:
        """Account one dereference invocation's storage fetch."""
        self.record_accesses += num_records
        if is_index:
            self.index_entry_accesses += num_records
        else:
            self.base_record_accesses += num_records
        self.random_reads += random_reads
        self.stage_invocations[stage] += 1
        self.stage_record_accesses[stage] += num_records

    def count_invocation(self, stage: int, count: int = 1) -> None:
        """Account ``count`` referencer invocations (no storage fetch)."""
        self.stage_invocations[stage] += count

    def count_batch(self, num_probes: int, capacity: int) -> None:
        """Account one batched dereference dispatch of ``num_probes``
        targets under a configured capacity of ``capacity``."""
        self.batches += 1
        self.batched_probes += num_probes
        self.batched_capacity += capacity

    @property
    def batch_fill(self) -> float:
        """Mean fraction of configured batch capacity actually used."""
        if self.batched_capacity <= 0:
            return 0.0
        return self.batched_probes / self.batched_capacity

    @property
    def amortized_reads_per_record(self) -> float:
        """Random reads per fetched record — the amortization headline:
        batching drives this down by deduplicating page walks."""
        if self.record_accesses <= 0:
            return 0.0
        return self.random_reads / self.record_accesses

    def count_remote(self, nbytes: int) -> None:
        self.remote_fetches += 1
        self.bytes_transferred += nbytes

    def count_fault(self, kind: str) -> None:
        """Account one observed fault by kind (see FailureRecord kinds)."""
        if kind == "timeout":
            self.timeouts += 1
        elif kind == "node-crash":
            self.reroutes += 1
        else:
            self.transient_faults += 1

    def merge(self, other: "ExecutionMetrics") -> None:
        """Fold ``other`` (another job's metrics) into these, each field
        under its declared rule."""
        for name, rule in _FOLDED:
            mine, theirs = getattr(self, name), getattr(other, name)
            if rule == "sum":
                setattr(self, name, mine + theirs)
            elif mine is None or theirs is None:
                setattr(self, name, theirs if mine is None else mine)
            else:
                setattr(self, name, max(mine, theirs) if rule == "max"
                        else min(mine, theirs))

    def summary(self) -> dict[str, Any]:
        """Flat dict view: every folded scalar field in declaration order,
        then the two rounded ratios."""
        out = {name: getattr(self, name) for name in _SCALARS}
        out["batch_fill"] = round(self.batch_fill, 4)
        out["amortized_reads_per_record"] = round(
            self.amortized_reads_per_record, 4)
        return out


_FOLDED_FIELDS = [f for f in fields(ExecutionMetrics)
                  if f.metadata.get("merge") != "job"]
#: ``(name, rule)`` of every field :meth:`ExecutionMetrics.merge` folds
_FOLDED = tuple((f.name, f.metadata.get("merge", "sum"))
                for f in _FOLDED_FIELDS)
#: the folded scalars (the per-stage Counters have a default factory)
_SCALARS = tuple(f.name for f in _FOLDED_FIELDS
                 if f.default_factory is MISSING)


@dataclass(frozen=True)
class FailureRecord:
    """One work unit the engine could not complete.

    ``kind`` is one of ``"transient-io"`` (exhausted retries on IO or
    network faults), ``"timeout"`` (exhausted retries on invocation
    timeouts), ``"node-crash"`` (no survivor could serve the unit), or
    ``"user-error"`` (application code raised; never retried).
    """

    stage: int
    node: int
    partition: Optional[int]
    kind: str
    error: str
    attempts: int
    time: float


@dataclass
class FailureReport:
    """Structured account of everything a run lost.

    Attached to every cluster-engine :class:`JobResult`; empty means the
    run completed with no work dropped.  Under ``on_error='skip'`` this is
    the contract that makes partial results honest: each dropped stage
    input is recorded, so "what is missing" is exact rather than implied.
    """

    records: list[FailureRecord] = field(default_factory=list)
    #: quarantine events: structures withdrawn mid-job after a checksum
    #: failure.  Recorded separately because the affected probes were
    #: re-served from a scan — nothing was lost, so these do not make the
    #: result incomplete.
    quarantined: list[FailureRecord] = field(default_factory=list)
    #: topology events observed mid-job (a node retired by a drain, a
    #: crash during rebalance): re-routed work, nothing lost, so — like
    #: quarantines — these never make the result incomplete.
    topology: list[str] = field(default_factory=list)

    def add(self, record: FailureRecord) -> None:
        self.records.append(record)

    def note_quarantine(self, record: FailureRecord) -> None:
        self.quarantined.append(record)

    def note_topology(self, note: str) -> None:
        self.topology.append(note)

    @property
    def dropped_units(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def counts_by_kind(self) -> dict[str, int]:
        return dict(Counter(r.kind for r in self.records))

    def render(self) -> str:
        """Human-readable account, one line per dropped unit."""
        if not self.records and not self.quarantined and not self.topology:
            return "FailureReport: complete result, nothing lost"
        if not self.records:
            lines = ["FailureReport: complete result, nothing lost"]
        else:
            by_kind = ", ".join(f"{k}={v}" for k, v in
                                sorted(self.counts_by_kind().items()))
            lines = [f"FailureReport: {self.dropped_units} work unit"
                     f"{'s' if self.dropped_units != 1 else ''} lost "
                     f"({by_kind})"]
            for r in self.records:
                where = (f"partition {r.partition}"
                         if r.partition is not None else "n/a")
                lines.append(
                    f"  stage {r.stage:2d} node {r.node} {where:<13s} "
                    f"{r.kind:<13s} after {r.attempts} attempt"
                    f"{'s' if r.attempts != 1 else ''} at "
                    f"{r.time * 1e3:.2f}ms: {r.error}")
        if self.quarantined:
            lines.append(
                f"Quarantined mid-job ({len(self.quarantined)} event"
                f"{'s' if len(self.quarantined) != 1 else ''}, "
                "re-served by scan, nothing lost):")
            for r in self.quarantined:
                where = (f"partition {r.partition}"
                         if r.partition is not None else "n/a")
                lines.append(
                    f"  stage {r.stage:2d} node {r.node} {where:<13s} "
                    f"{r.kind:<13s} at {r.time * 1e3:.2f}ms: {r.error}")
        if self.topology:
            lines.append(
                f"Topology events mid-job ({len(self.topology)} event"
                f"{'s' if len(self.topology) != 1 else ''}, work "
                "re-routed, nothing lost):")
            for note in self.topology:
                lines.append(f"  {note}")
        return "\n".join(lines)


@dataclass
class JobResult:
    """What an engine returns: output rows plus the metrics of the run."""

    rows: list[OutputRow]
    metrics: ExecutionMetrics
    #: what the run lost (cluster engines always attach one; the in-memory
    #: reference executor, which cannot fault, leaves it None)
    failure_report: Optional[FailureReport] = None
    #: True when the job was cancelled mid-run (deadline, caller abort):
    #: the rows are an honest prefix of the answer, not the answer
    cancelled: bool = False

    @property
    def complete(self) -> bool:
        """True when no work unit was dropped and the run was not cut
        short by cancellation."""
        return not self.failure_report and not self.cancelled

    def __len__(self) -> int:
        return len(self.rows)

    def row_set(self, interpreter, fields: Sequence[str]) -> set[tuple]:
        """Order-insensitive comparable view of the output.

        Engines differ wildly in output order (SMPE is massively
        concurrent), so correctness comparisons use this canonical set of
        projected tuples.
        """
        projected = []
        for row in self.rows:
            flat = row.project(interpreter, fields)
            projected.append(tuple(sorted(flat.items(),
                                          key=lambda kv: kv[0])))
        return set(projected)

    def sorted_rows(self, interpreter, fields: Sequence[str]
                    ) -> list[dict[str, Any]]:
        """Deterministically ordered projected rows (for display)."""
        rows = [row.project(interpreter, fields) for row in self.rows]
        rows.sort(key=lambda r: tuple(repr(v) for v in r.values()))
        return rows
