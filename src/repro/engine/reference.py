"""The in-memory reference executor: the correctness oracle.

Executes a Reference-Dereference job synchronously with no cluster and no
virtual time — just the data plane.  Every engine must produce exactly this
row set; the integration tests enforce it.  Because it still counts record
accesses through the shared accounting path, it is also the cheap way to
produce Figure 9's access-count comparison.

The walk is always depth-first and per record.  ``EngineConfig.batch_size``
is ignored: batching is a cost model, and the oracle has no clock to
charge.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

from repro.config import EngineConfig
from repro.core.catalog import StructureCatalog
from repro.core.functions import Dereferencer, Referencer
from repro.core.job import Job, OutputRow
from repro.core.pointers import Pointer, PointerRange
from repro.core.records import Record
from repro.engine.access import (count_only_dereference,
                                 resolve_partitions, stamp_watermark)
from repro.engine.metrics import ExecutionMetrics, JobResult
from repro.errors import ExecutionError

__all__ = ["ReferenceExecutor"]


class ReferenceExecutor:
    """Sequential, simulation-free job execution."""

    def __init__(self, catalog: StructureCatalog,
                 config: Optional[EngineConfig] = None) -> None:
        self.catalog = catalog
        self.config = config

    @property
    def _feedback(self):
        return None if self.config is None else self.config.feedback

    def execute(self, job: Job, limit: Optional[int] = None) -> JobResult:
        metrics = ExecutionMetrics()
        stamp_watermark(metrics, self.catalog)
        results: list[OutputRow] = []
        self._limit = limit
        dereferencer = job.functions[0]
        assert isinstance(dereferencer, Dereferencer)
        file = self.catalog.resolve(dereferencer.file_name)
        for target in job.inputs:
            if self._done(results):
                break
            pids = resolve_partitions(file, target)
            for pid in pids:
                if self._done(results):
                    break
                records = count_only_dereference(
                    metrics, 0, dereferencer, file, target, pid, {},
                    catalog=self.catalog, feedback=self._feedback)
                for record in records:
                    self._chain(job, metrics, results, 1, record, {})
        if limit is not None and len(results) > limit:
            del results[limit:]
        return JobResult(results, metrics)

    def _done(self, results: list[OutputRow]) -> bool:
        limit = getattr(self, "_limit", None)
        return limit is not None and len(results) >= limit

    def _chain(self, job: Job, metrics: ExecutionMetrics,
               results: list[OutputRow], stage: int,
               payload: Union[Record, Pointer, PointerRange],
               context: Mapping[str, Any]) -> None:
        if self._done(results):
            return
        function = job.function_at(stage)
        if function is None:
            if isinstance(payload, Record):
                results.append(OutputRow(payload, context))
            return

        if isinstance(function, Referencer):
            if not isinstance(payload, Record):
                raise ExecutionError(
                    f"stage {stage} expects records, got "
                    f"{type(payload).__name__}")
            metrics.count_invocation(stage)
            for pointer, new_context in function.reference(payload, context):
                self._chain(job, metrics, results, stage + 1, pointer,
                            new_context)
            return

        if not isinstance(payload, (Pointer, PointerRange)):
            raise ExecutionError(
                f"stage {stage} expects pointers, got "
                f"{type(payload).__name__}")
        file = self.catalog.resolve(function.file_name)
        for pid in resolve_partitions(file, payload):
            records = count_only_dereference(
                metrics, stage, function, file, payload, pid, context,
                catalog=self.catalog, feedback=self._feedback)
            for record in records:
                self._chain(job, metrics, results, stage + 1, record,
                            context)
