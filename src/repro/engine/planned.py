"""The per-stage planning executor: run whatever the StagePlanner picked.

:class:`PlanningExecutor` is the repository's one optimizer front end.
It accepts a :class:`~repro.plan.logical.LogicalPlan`, asks the
:class:`~repro.plan.planner.StagePlanner` to price every stage, and runs
the winner:

* ``"mixed"`` / ``"index"`` — lower the physical plan to a Job and run it
  on a cluster engine (scan-backed stages ride inside the job as
  :class:`~repro.plan.scanstage.ScanLookupDereferencer` stages, so one
  execution interleaves sequential scans with index dereferences);
* ``"scan"`` — hand the degenerate operator tree to the scan baseline.

``force`` bypasses the decision (benchmarks measure all sides with it).

Planning is memoized on ``(logical signature, catalog version)``:
repeated plans (and calibrations) of the same chain against an unchanged
lake reuse the previous answer instead of re-scanning the catalog for
statistics — any data-plane mutation (ingest commit, compaction, build,
rebalance) bumps the catalog version and drops the memo.

With ``adaptive_threshold`` set, executions attach an
:class:`~repro.plan.feedback.AdaptiveController` through
``EngineConfig.feedback``: stages report observed cardinalities as they
run, and a stage whose output exceeds its estimate by the threshold
factor re-prices the remaining stages and switches them to scan-backed
access mid-query.  ``None`` (the default) runs exactly the static plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.baselines.scan_engine import ScanEngine
from repro.cluster.cluster import Cluster, ClusterSpec
from repro.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.core.catalog import StructureCatalog
from repro.errors import ExecutionError, JobDefinitionError
from repro.plan.feedback import AdaptiveController, logical_signature
from repro.plan.logical import LogicalPlan
from repro.plan.planner import PlannedQuery, StagePlanner, initial_cardinality
from repro.storage.blockstore import BlockStore

__all__ = ["PlannedResult", "PlanningExecutor"]


@dataclass
class PlannedResult:
    """Outcome of executing a planned query."""

    planned: PlannedQuery
    #: which plan actually ran ("mixed" | "index" | "scan"); differs from
    #: ``planned.chosen`` only under ``force``
    executed: str
    rows: list
    elapsed_seconds: float
    record_accesses: int  # 0 for scan-engine executions
    #: the AdaptiveController of an adaptive run (its observed counts and
    #: switch events); None for static executions
    adaptive: Optional[Any] = None


class PlanningExecutor:
    """Plan a logical chain per stage, then execute the chosen plan."""

    def __init__(self, catalog: StructureCatalog, store: BlockStore,
                 cluster_spec: ClusterSpec,
                 config: EngineConfig = DEFAULT_ENGINE_CONFIG,
                 adaptive_threshold: Optional[float] = None) -> None:
        self.catalog = catalog
        self.store = store
        self.cluster_spec = cluster_spec
        self.config = config
        self.adaptive_threshold = adaptive_threshold
        self.planner = StagePlanner(catalog, store, cluster_spec,
                                    config=config)
        #: estimated record accesses per initial index match across the
        #: whole chain; None prices one access per dereference stage
        #: until :meth:`calibrate` measures it
        self.per_match_access_factor: Optional[float] = None
        #: oracle runs actually executed by :meth:`calibrate` (memo
        #: hits don't re-run)
        self.calibration_runs = 0
        self._plan_memo: dict[tuple, PlannedQuery] = {}
        self._calibration_memo: dict[tuple, float] = {}

    def calibrate(self, logical: LogicalPlan) -> float:
        """Set the whole-job access factor from one observed reference run.

        The classic optimizer feedback loop, cheap here because the
        oracle charges no virtual time: run the all-index job on the
        simulation-free reference executor, measure actual record
        accesses per initial match, and install that factor for the
        whole-job index estimate (per-stage estimates keep their own
        statistics).

        Calibrating the same chain against an unchanged lake reuses the
        previous factor without re-running the oracle.
        """
        key = (logical_signature(logical), self.catalog.version)
        cached = self._calibration_memo.get(key)
        if cached is not None:
            self.per_match_access_factor = cached
            return cached
        from repro.engine.reference import ReferenceExecutor
        from repro.plan.lowering import compile_logical

        job = compile_logical(logical, self.catalog).to_job(self.catalog)
        result = ReferenceExecutor(self.catalog).execute(job)
        self.calibration_runs += 1
        cardinality = max(1.0, float(initial_cardinality(self.catalog,
                                                         job.inputs)))
        self.per_match_access_factor = (result.metrics.record_accesses
                                        / cardinality)
        self._calibration_memo[key] = self.per_match_access_factor
        return self.per_match_access_factor

    def plan(self, logical: LogicalPlan) -> PlannedQuery:
        """Price every stage and decide mixed vs index vs scan.

        Memoized: the same logical signature against the same catalog
        version (and access factor) returns the previously planned
        query."""
        version = self.catalog.version
        self.planner.note_lake_state(version)
        key = (logical_signature(logical), version,
               self.per_match_access_factor)
        planned = self._plan_memo.get(key)
        if planned is None:
            planned = self.planner.plan(
                logical,
                per_match_access_factor=self.per_match_access_factor)
            self._plan_memo[key] = planned
        return planned

    def execute(self, logical: LogicalPlan,
                force: Optional[str] = None) -> PlannedResult:
        """Plan then run; ``force`` in {"mixed", "index", "scan"} bypasses
        the decision."""
        planned = self.plan(logical)
        executed = force or planned.chosen
        if executed not in ("mixed", "index", "scan"):
            raise ExecutionError(
                f"force must be mixed|index|scan, got {executed!r}")
        if executed == "scan":
            if planned.scan_plan is None:
                raise JobDefinitionError(
                    f"chain {logical.name!r} has no scan-engine "
                    "equivalent (see plan.lowering.to_scan_plan)")
            engine = ScanEngine(Cluster(self.cluster_spec), self.store)
            result = engine.execute(planned.scan_plan)
            return PlannedResult(planned, executed, result.rows,
                                 result.metrics.elapsed_seconds, 0)
        physical = planned.mixed if executed == "mixed" else planned.all_index
        job = physical.to_job(self.catalog)
        config = self.config
        controller: Optional[AdaptiveController] = None
        if self.adaptive_threshold is not None:
            controller = AdaptiveController(
                self.planner, physical, job, planned.stage_estimates,
                threshold=self.adaptive_threshold)
            config = replace(config, feedback=controller)
        from repro.engine.executor import ReDeExecutor

        executor = ReDeExecutor(Cluster(self.cluster_spec), self.catalog,
                                config=config, mode="smpe")
        result = executor.execute(job)
        return PlannedResult(planned, executed, result.rows,
                             result.metrics.elapsed_seconds,
                             result.metrics.record_accesses,
                             adaptive=controller)
