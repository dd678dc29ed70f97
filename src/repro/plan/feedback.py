"""Runtime feedback and adaptive re-optimization.

The planner's estimates are guesses; the engines know the truth.  This
module closes the loop:

* :func:`stage_spans` maps each :class:`~repro.plan.physical.
  PhysicalStage` onto the range of function indices its lowering
  produced in the job, so per-function observations can be attributed
  back to logical nodes.
* :class:`RuntimeFeedback` is the narrow interface the access funnel
  reports into (``observe(stage, rows)``) — the engines never see the
  planner.
* :class:`AdaptiveController` implements mid-query re-planning: when a
  stage's *observed* output cardinality exceeds its estimate by a
  configurable factor, the remaining join stages are re-priced with the
  corrected row count and any stage whose scan arm is now cheaper has
  its trailing :class:`~repro.core.functions.FileLookupDereferencer`
  swapped for a :class:`~repro.plan.scanstage.ScanLookupDereferencer`
  *in place* — the engines resolve ``job.function_at(stage)`` at every
  dispatch, so records still in flight simply start hitting the hash
  table.  Mixed serving is correct by construction: the scan table
  answers the same logical keys, physical ``(partition, slot)`` targets
  and delta tags the index path resolves, and the old dereferencer's
  filter is carried over.

With no controller attached (``EngineConfig.feedback is None``, the
default) nothing in this module runs and every engine is bit-identical
to pre-adaptive builds.  A controller with ``threshold=None`` observes
but never triggers — the instrumented-but-inert mode the equivalence
tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.core.functions import FileLookupDereferencer
from repro.core.interpreters import (
    AndFilter,
    ContextMatchFilter,
    FieldEqualsFilter,
    FieldRangeFilter,
    Filter,
)
from repro.plan.logical import JoinNode, LogicalPlan, SourceNode
from repro.plan.lowering import _delta_source, _scan_join_keys
from repro.plan.physical import ACCESS_SCAN, PhysicalPlan
from repro.plan.scanstage import ScanLookupDereferencer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.catalog import StructureCatalog
    from repro.core.job import Job
    from repro.plan.planner import StageEstimate, StagePlanner

__all__ = [
    "StageSpan",
    "SwitchEvent",
    "RuntimeFeedback",
    "AdaptiveController",
    "stage_spans",
    "filter_signature",
    "logical_signature",
]


@dataclass(frozen=True)
class StageSpan:
    """One physical stage's footprint in the lowered function list."""

    index: int  #: position in ``physical.stages``
    node: Any  #: the SourceNode/JoinNode
    access_path: str
    start: int  #: first function index of this stage
    end: int  #: function index of the trailing dereferencer
    estimate: Optional["StageEstimate"] = None


def _span_width(node: Any, access_path: str) -> int:
    """How many job functions a stage lowers to (see plan.lowering)."""
    if isinstance(node, SourceNode):
        # probe deref (+ IndexEntryReferencer + base fetch when based);
        # the scan arm swaps only the base fetch, keeping the width.
        return 1 if node.base is None else 3
    if access_path == ACCESS_SCAN:
        return 2  # KeyReferencer + ScanLookupDereferencer
    if node.via_index is not None:
        return 4  # KeyRef + IndexLookup + IndexEntry + FileLookup
    return 2  # KeyReferencer + FileLookupDereferencer


def stage_spans(physical: PhysicalPlan,
                estimates: Optional[list] = None) -> list[StageSpan]:
    """Map physical stages to function-index ranges, mirroring lowering.

    ``estimates`` (when given) must align 1:1 with the stages — the
    planner's ``stage_estimates`` list does.
    """
    spans: list[StageSpan] = []
    cursor = 0
    for index, stage in enumerate(physical.stages):
        width = _span_width(stage.node, stage.access_path)
        estimate = estimates[index] if estimates else None
        spans.append(StageSpan(
            index=index, node=stage.node, access_path=stage.access_path,
            start=cursor, end=cursor + width - 1, estimate=estimate))
        cursor += width
    return spans


@dataclass(frozen=True)
class SwitchEvent:
    """One mid-query access-path switch, for reports and tests."""

    stage_index: int
    target: str
    function_index: int
    observed_rows_in: float
    estimated_rows_in: float
    index_seconds: float
    scan_seconds: float

    def describe(self) -> str:
        return (f"stage[{self.stage_index}] join:{self.target} "
                f"index->scan at fn {self.function_index} "
                f"(rows_in {self.estimated_rows_in:.0f} est -> "
                f"{self.observed_rows_in:.0f} seen; "
                f"{self.index_seconds * 1e3:.1f}ms index vs "
                f"{self.scan_seconds * 1e3:.1f}ms scan)")


class RuntimeFeedback:
    """Minimal sink for observed per-stage output cardinalities.

    The access funnel calls :meth:`observe` with the *function index*
    the engines dispatch on and the post-filter record count the fetch
    produced.  The base class only accumulates; subclasses react.
    """

    def __init__(self) -> None:
        self.observed: dict[int, int] = {}

    def observe(self, stage: int, rows: int) -> None:
        self.observed[stage] = self.observed.get(stage, 0) + rows


class AdaptiveController(RuntimeFeedback):
    """Re-plan the remaining stages when an estimate proves badly wrong.

    Attached to a job via ``EngineConfig.feedback``.  A stage span
    triggers when the rows observed at its trailing dereferencer reach
    ``threshold`` times the planned ``rows_out``: the downstream join
    stages are re-priced with the corrected cardinality (chained through
    :meth:`StagePlanner._join_estimate`) and every index-backed,
    scan-backable stage whose scan arm now wins is switched in place.
    Because the observed count at trigger time is only a lower bound on
    the stage's true output, each span re-arms at double the count that
    last triggered it — at most log2(rows) re-plans, each one pure
    estimate arithmetic.  ``threshold=None`` disables triggering
    entirely.
    """

    def __init__(self, planner: "StagePlanner", physical: PhysicalPlan,
                 job: "Job", estimates: list,
                 threshold: Optional[float] = 4.0,
                 table_cache: Optional[Any] = None) -> None:
        super().__init__()
        self.planner = planner
        self.job = job
        self.threshold = threshold
        self.catalog = planner.catalog
        #: optional semantic-cache handle so switched-in scan stages can
        #: adopt (and publish) cached hash tables like lowered ones do
        self.table_cache = table_cache
        self.spans = stage_spans(physical, estimates)
        self._by_end = {span.end: span for span in self.spans}
        self._triggered: set[int] = set()
        self._next_trigger: dict[int, float] = {}
        self.switches: list[SwitchEvent] = []

    def observe(self, stage: int, rows: int) -> None:
        super().observe(stage, rows)
        if self.threshold is None:
            return
        span = self._by_end.get(stage)
        if span is None:
            return
        bar = self._next_trigger.get(span.index)
        if bar is None:
            estimate = span.estimate
            expected = max(1.0, estimate.rows_out) if estimate else 1.0
            bar = self.threshold * expected
        seen = self.observed[stage]
        if seen < bar:
            return
        self._triggered.add(span.index)
        self._next_trigger[span.index] = 2.0 * seen
        self._replan_downstream(span, float(seen))

    # -- the re-plan -----------------------------------------------------

    def _replan_downstream(self, origin: StageSpan,
                           observed_rows: float) -> None:
        """Re-price every stage after ``origin`` with corrected rows_in.

        ``observed_rows`` is a *lower bound* on the origin stage's true
        output (it is still producing), which keeps the correction
        conservative: a switch only happens once the evidence already
        justifies it.
        """
        rows = observed_rows
        for span in self.spans[origin.index + 1:]:
            node = span.node
            if not isinstance(node, JoinNode):
                continue
            estimate = self.planner._join_estimate(node, rows)
            if self._switchable(span, node, estimate):
                self._switch(span, node, rows, estimate)
            rows = estimate.rows_out

    def _switchable(self, span: StageSpan, node: JoinNode,
                    estimate: "StageEstimate") -> bool:
        if estimate.scan_seconds is None:
            return False
        if estimate.scan_seconds >= estimate.index_seconds:
            return False
        if node.broadcast or not self.planner._scan_backable_join(node):
            return False
        # Only the trailing heap fetch is swapped; anything else (already
        # scan-backed, already switched) is left alone.
        return isinstance(self.job.functions[span.end],
                          FileLookupDereferencer)

    def _switch(self, span: StageSpan, node: JoinNode, rows: float,
                estimate: "StageEstimate") -> None:
        old = self.job.functions[span.end]
        assert isinstance(old, FileLookupDereferencer)
        replacement = ScanLookupDereferencer(
            node.target, _scan_join_keys(self.catalog, node),
            filter=old.filter,
            delta_source=_delta_source(self.catalog, node.target),
            key_id=(node.target, node.via_index))
        if self.table_cache is not None:
            replacement.cache = self.table_cache
        self.job.functions[span.end] = replacement
        planned = span.estimate
        self.switches.append(SwitchEvent(
            stage_index=span.index, target=node.target,
            function_index=span.end, observed_rows_in=rows,
            estimated_rows_in=planned.rows_in if planned else 0.0,
            index_seconds=estimate.index_seconds,
            scan_seconds=estimate.scan_seconds or 0.0))


# --------------------------------------------------------------------------
# Canonical signatures, shared by the plan memo (engine.planned) and the
# semantic result cache (service.result_cache).
# --------------------------------------------------------------------------


def filter_signature(flt: Optional[Filter]) -> Any:
    """A hashable, value-based identity for a filter tree.

    Opaque predicates hash by object identity — two jobs share a cache
    entry only when they share the very same predicate instance, which
    is the only safe equality for arbitrary callables.
    """
    if flt is None:
        return None
    if isinstance(flt, AndFilter):
        return ("and",) + tuple(filter_signature(f) for f in flt.filters)
    if isinstance(flt, FieldEqualsFilter):
        return ("eq", flt.field, flt.value)
    if isinstance(flt, FieldRangeFilter):
        return ("range", flt.field, flt.low, flt.high)
    if isinstance(flt, ContextMatchFilter):
        return ("ctx", flt.field, flt.context_key)
    return ("opaque", id(flt))


def logical_signature(logical: LogicalPlan) -> tuple:
    """A hashable, value-based identity for a logical plan.

    Two plans with the same signature denote the same query shape over
    the same structures, so planner output for one is valid for the
    other — the memo key :class:`~repro.engine.planned.
    PlanningExecutor` pairs with its lake-state token.  Node estimates
    are deliberately excluded (planning mutates them).
    """
    parts: list[Any] = []
    for node in logical.nodes:
        if isinstance(node, SourceNode):
            parts.append((
                "source", node.kind, node.structure, node.base,
                node.low, node.high, tuple(node.keys or ()),
                tuple(filter_signature(f) for f in node.filters),
                tuple(node.carried_context or ())))
        else:
            assert isinstance(node, JoinNode)
            parts.append((
                "join", node.target, node.key, node.context_key,
                node.via_index, node.broadcast,
                tuple(filter_signature(f) for f in node.filters),
                tuple(sorted((node.carry or {}).items())),
                tuple(node.carried_context or ())))
    return tuple(parts)
