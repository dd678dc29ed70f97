"""ReDe without SMPE: structures plus *partitioned* parallelism only.

Figure 7's middle line: "ReDe (w/o SMPE) simply used the created structures
and the partitioned parallelism given from data partitions".  Concretely:
one worker per node walks the Reference-Dereference chain stage by stage
and *sequentially* — every dereference completes before the next begins —
so the only parallelism is the one-worker-per-node horizontal kind that
conventional data-lake engines already have.  Each stage groups the
node's frontier by partition and dereferences up to
``EngineConfig.batch_size`` probes per call.  Same structures, same IO
charges, same answers; the contrast with :class:`~repro.engine.smpe.
SmpeEngine` isolates the contribution of dynamic fine-grained parallelism.

Fault tolerance mirrors the SMPE engine: every dereference goes through
:func:`~repro.engine.access.recovering_dereference` (retry/backoff,
timeouts, crash re-routing via replica promotion), and
``EngineConfig.on_error`` decides whether an unsalvageable unit aborts the
job or is dropped into the :class:`~repro.engine.metrics.FailureReport`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.core.catalog import StructureCatalog
from repro.core.functions import Dereferencer, Referencer
from repro.core.job import Job, OutputRow
from repro.core.pointers import Pointer, PointerRange
from repro.core.records import Record
from repro.engine.access import (close_job_metrics, initial_probe_pids,
                                 open_job_metrics, recovering_dereference,
                                 resolve_partitions, unit_failed,
                                 unwatch_node_loss, watch_node_loss)
from repro.engine.metrics import ExecutionMetrics, FailureReport, JobResult
from repro.errors import ExecutionError
from repro.storage.files import PartitionedFile

__all__ = ["PartitionedEngine"]


class PartitionedEngine:
    """ReDe's executor with SMPE disabled (the paper's "w/o SMPE" line)."""

    def __init__(self, cluster: Cluster, catalog: StructureCatalog,
                 config: EngineConfig = DEFAULT_ENGINE_CONFIG) -> None:
        self.cluster = cluster
        self.catalog = catalog
        self.config = config

    def execute(self, job: Job,
                max_time: Optional[float] = None,
                limit: Optional[int] = None) -> JobResult:
        window = open_job_metrics(self.cluster, self.catalog, self.config)
        metrics = window.metrics
        results: list[OutputRow] = []
        failures = FailureReport()
        recovery: dict = {}

        def job_process():
            workers = [self.cluster.launch(
                self._node_worker(job, metrics, failures, recovery,
                                  results, limit, node_id),
                name=f"part-node{node_id}")
                for node_id in range(self.cluster.num_nodes)]
            yield self.cluster.sim.all_of(workers)

        listener = watch_node_loss(
            self.cluster, metrics, failures,
            "later dereferences re-route to survivors")
        try:
            self.cluster.run_job(
                job_process(), name=f"partitioned:{job.name}",
                max_time=max_time or self.config.max_sim_time)
        finally:
            unwatch_node_loss(self.cluster, listener)
        close_job_metrics(self.cluster, window, results, limit,
                          self.cluster.num_nodes)
        return JobResult(results, metrics, failure_report=failures)

    def _deref(self, job: Job, metrics: ExecutionMetrics,
               failures: FailureReport, recovery: dict, stage: int,
               function: Dereferencer, file, probes, pid: int,
               node_id: int):
        """One policy-governed dereference of ``probes`` (``(target,
        context)`` pairs) against ``pid``; returns one record list per
        probe.  The call is the failure unit: under ``on_error='skip'``
        an unsalvageable call drops as one recorded work unit (every
        probe empty)."""
        try:
            outputs = yield from recovering_dereference(
                self.cluster, self.config, metrics, stage, function, file,
                probes, pid, node_id, catalog=self.catalog,
                failures=failures, runtime=recovery)
        except Exception as exc:
            fatal = unit_failed(self.config, metrics, failures, exc,
                                job_name=job.name, stage=stage,
                                node=node_id, partition=pid,
                                now=self.cluster.sim.now)
            if fatal is not None:
                raise fatal
            return [[] for __ in probes]
        return outputs

    def _node_worker(self, job: Job, metrics: ExecutionMetrics,
                     failures: FailureReport, recovery: dict,
                     results: list[OutputRow], limit: Optional[int],
                     node_id: int):
        """One breadth-first pass over this node's share of the job.

        The job inputs are stage 0's frontier.  A dereferencer stage
        groups its frontier by partition and runs the groups one after
        another, up to ``batch_size`` probes per call (no SMPE: one
        dereference at a time on this node); a referencer stage maps the
        frontier; past the last stage the frontier is this node's
        output."""
        batch_size = self.config.batch_size

        def limit_reached() -> bool:
            return limit is not None and len(results) >= limit

        frontier: list = [(target, {}) for target in job.inputs]
        stage = 0
        while frontier and not limit_reached():
            function = job.function_at(stage)
            if function is None:
                results.extend(OutputRow(payload, context)
                               for payload, context in frontier
                               if isinstance(payload, Record))
                return
            if isinstance(function, Referencer):
                next_frontier: list = []
                for payload, context in frontier:
                    if not isinstance(payload, Record):
                        raise ExecutionError(
                            f"stage {stage} expects records, got "
                            f"{type(payload).__name__}")
                    next_frontier.extend(function.reference(payload,
                                                            context))
                metrics.count_invocation(stage, len(frontier))
                frontier = next_frontier
                stage += 1
                continue
            file = self.catalog.resolve(function.file_name)
            # Routing is resolved once per stage: a keyed pointer into a
            # base file costs one partitioner call; every other target
            # takes resolve_partitions' answer.
            route = (file.partitioner.partition
                     if isinstance(file, PartitionedFile) else None)
            groups: defaultdict[int, list] = defaultdict(list)
            for item in frontier:
                payload = item[0]
                if stage == 0:
                    pids = initial_probe_pids(file, payload, node_id)
                elif (route is not None and type(payload) is Pointer
                      and payload.partition_key is not None):
                    groups[route(payload.partition_key)].append(item)
                    continue
                elif not isinstance(payload, (Pointer, PointerRange)):
                    raise ExecutionError(
                        f"stage {stage} expects pointers, got "
                        f"{type(payload).__name__}")
                elif payload.partition_key is None:
                    # No cross-node task shipping without SMPE: broadcast
                    # targets are probed from here, partition by partition.
                    pids = list(range(file.num_partitions))
                else:
                    pids = resolve_partitions(file, payload)
                for pid in pids:
                    groups[pid].append(item)
            frontier = []
            for pid, probes in groups.items():
                if limit_reached():
                    return
                for i in range(0, len(probes), batch_size):
                    chunk = probes[i:i + batch_size]
                    outputs = yield from self._deref(
                        job, metrics, failures, recovery, stage, function,
                        file, chunk, pid, node_id)
                    for (__, context), records in zip(chunk, outputs):
                        frontier += zip(records, repeat(context))
            stage += 1
