"""Execution engines: SMPE (Algorithm 1), partitioned (w/o SMPE), and the
in-memory reference oracle, plus execution metrics."""

from repro.engine.aggregate import aggregate, distinct_sum, group_by
from repro.engine.executor import ReDeExecutor
from repro.engine.metrics import (ExecutionMetrics, FailureRecord,
                                  FailureReport, JobResult)
from repro.engine.partitioned import PartitionedEngine
from repro.engine.planned import PlannedResult, PlanningExecutor
from repro.engine.reference import ReferenceExecutor
from repro.engine.smpe import JobHandle, SmpeEngine

__all__ = [
    "aggregate",
    "distinct_sum",
    "group_by",
    "ReDeExecutor",
    "ExecutionMetrics",
    "FailureRecord",
    "FailureReport",
    "JobResult",
    "JobHandle",
    "PartitionedEngine",
    "PlannedResult",
    "PlanningExecutor",
    "ReferenceExecutor",
    "SmpeEngine",
]
