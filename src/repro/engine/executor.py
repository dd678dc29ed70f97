"""The ReDe executor facade.

One entry point over the three execution modes:

* ``"smpe"`` — scalable massively parallel execution (the paper's default);
* ``"partitioned"`` — structures with partitioned parallelism only
  ("ReDe w/o SMPE" in Figure 7);
* ``"reference"`` — the in-memory oracle (no cluster, no virtual time).
"""

from __future__ import annotations

import logging
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.core.catalog import StructureCatalog
from repro.core.job import Job
from repro.engine.metrics import JobResult
from repro.engine.partitioned import PartitionedEngine
from repro.engine.reference import ReferenceExecutor
from repro.engine.smpe import SmpeEngine
from repro.errors import ExecutionError

__all__ = ["ReDeExecutor"]

logger = logging.getLogger("repro.engine")

_MODES = ("smpe", "partitioned", "reference")


class ReDeExecutor:
    """Executes Reference-Dereference jobs in a chosen mode.

    Example::

        executor = ReDeExecutor(cluster, catalog, mode="smpe")
        result = executor.execute(job)
        print(result.metrics.elapsed_seconds, len(result.rows))
    """

    def __init__(self, cluster: Optional[Cluster],
                 catalog: StructureCatalog,
                 config: EngineConfig = DEFAULT_ENGINE_CONFIG,
                 mode: str = "smpe") -> None:
        if mode not in _MODES:
            raise ExecutionError(
                f"unknown mode {mode!r}; expected one of {_MODES}")
        if mode != "reference" and cluster is None:
            raise ExecutionError(f"mode {mode!r} needs a cluster")
        self.cluster = cluster
        self.catalog = catalog
        self.config = config
        self.mode = mode

    def execute(self, job: Job,
                max_time: Optional[float] = None,
                limit: Optional[int] = None) -> JobResult:
        """Run a job and return its rows and metrics.

        With ``limit``, execution terminates early once that many output
        rows exist (SMPE drains its outstanding fine-grained tasks without
        dispatching new ones).
        """
        if self.mode == "reference":
            result = ReferenceExecutor(
                self.catalog, config=self.config).execute(job, limit=limit)
        else:
            assert self.cluster is not None
            if self.mode == "smpe":
                engine = SmpeEngine(self.cluster, self.catalog, self.config)
            else:
                engine = PartitionedEngine(self.cluster, self.catalog,
                                           self.config)
            result = engine.execute(job, max_time=max_time, limit=limit)
        logger.debug(
            "%s executed %r: %d rows, %d record accesses, %.4fs simulated",
            self.mode, job.name, len(result.rows),
            result.metrics.record_accesses,
            result.metrics.elapsed_seconds)
        return result
