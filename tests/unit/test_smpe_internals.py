"""Unit tests for SMPE internals: task tracking, broadcasts, queues."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.simulation import Simulator
from repro.core import (
    AccessMethodDefinition,
    FileLookupDereferencer,
    IndexLookupDereferencer,
    IndexEntryReferencer,
    JobBuilder,
    KeyReferencer,
    MappingInterpreter,
    Pointer,
    Record,
    StructureCatalog,
)
from repro.engine import ReDeExecutor, SmpeEngine
from repro.engine.smpe import _TaskTracker
from repro.errors import ExecutionError
from repro.storage import DistributedFileSystem

INTERP = MappingInterpreter()


class TestTaskTracker:
    def test_fires_done_at_zero(self):
        sim = Simulator()
        done = sim.event()
        tracker = _TaskTracker(done)
        tracker.inc(3)
        tracker.dec()
        tracker.dec()
        assert not done.triggered
        tracker.dec()
        sim.run()
        assert done.triggered

    def test_negative_count_raises(self):
        sim = Simulator()
        tracker = _TaskTracker(sim.event())
        with pytest.raises(ExecutionError):
            tracker.dec()

    def test_inert_after_completion(self):
        # Once the job finished (or was force-finished by an abort), late
        # bookkeeping from draining processes must be a harmless no-op.
        sim = Simulator()
        done = sim.event()
        tracker = _TaskTracker(done)
        tracker.inc()
        tracker.dec()
        tracker.inc()
        tracker.dec()
        tracker.dec()
        sim.run()
        assert done.triggered

    def test_force_finish_fires_done_once(self):
        sim = Simulator()
        done = sim.event()
        tracker = _TaskTracker(done)
        tracker.inc(5)
        tracker.force_finish()
        tracker.force_finish()
        tracker.dec()
        sim.run()
        assert done.triggered


def broadcast_catalog(num_nodes=3):
    """A dataset where the broadcast path is the only correct one."""
    dfs = DistributedFileSystem(num_nodes=num_nodes)
    catalog = StructureCatalog(dfs)
    drivers = [Record({"pk": i, "fk": i % 4}) for i in range(8)]
    catalog.register_file("driver", drivers, lambda r: r["pk"])
    targets = [Record({"tid": i, "fk": i % 4}) for i in range(24)]
    catalog.register_file("target", targets, lambda r: r["tid"])
    catalog.register_access_method(AccessMethodDefinition(
        "idx_target_fk_local", "target", interpreter=INTERP,
        key_field="fk", scope="local"))
    catalog.build_all()
    return catalog


def broadcast_job():
    return (JobBuilder("broadcast")
            .dereference(FileLookupDereferencer("driver"))
            .reference(KeyReferencer("idx_target_fk_local", INTERP, "fk",
                                     carry=["pk"], broadcast=True))
            .dereference(IndexLookupDereferencer("idx_target_fk_local"))
            .reference(IndexEntryReferencer("target"))
            .dereference(FileLookupDereferencer("target"))
            .input(Pointer("driver", 3, 3))
            .build())


class TestBroadcastSemantics:
    def test_broadcast_reaches_all_partitions_once(self):
        """fk=3 targets live across partitions; the broadcast must find
        all of them, each exactly once."""
        catalog = broadcast_catalog()
        cluster = Cluster(ClusterSpec(num_nodes=3))
        result = ReDeExecutor(cluster, catalog, mode="smpe").execute(
            broadcast_job())
        tids = sorted(row.record["tid"] for row in result.rows)
        assert tids == [3, 7, 11, 15, 19, 23]

    def test_broadcast_equivalent_on_all_engines(self):
        catalog = broadcast_catalog()
        row_sets = []
        for mode in ("reference", "smpe", "partitioned"):
            cluster = (Cluster(ClusterSpec(num_nodes=3))
                       if mode != "reference" else None)
            result = ReDeExecutor(cluster, catalog, mode=mode).execute(
                broadcast_job())
            row_sets.append(
                sorted(row.record["tid"] for row in result.rows))
        assert row_sets[0] == row_sets[1] == row_sets[2]

    def test_broadcast_probe_counts_scale_with_partitions(self):
        for num_nodes in (2, 3, 5):
            catalog = broadcast_catalog(num_nodes)
            cluster = Cluster(ClusterSpec(num_nodes=num_nodes))
            result = ReDeExecutor(cluster, catalog, mode="smpe").execute(
                broadcast_job())
            # One driver record + index probes on every local-index
            # partition + 6 target fetches; stage 2 saw one invocation
            # per partition.
            index = catalog.dfs.get_index("idx_target_fk_local")
            assert index.num_partitions == num_nodes
            assert (result.metrics.stage_invocations[2]
                    == index.num_partitions)
            assert result.metrics.base_record_accesses == 1 + 6


class TestQueueAndPoolBehaviour:
    def test_pool_capacity_bounds_parallelism(self):
        from repro.config import EngineConfig

        catalog = broadcast_catalog()
        cluster = Cluster(ClusterSpec(num_nodes=3))
        config = EngineConfig(thread_pool_size=2)
        engine = SmpeEngine(cluster, catalog, config)
        result = engine.execute(broadcast_job())
        # Pool of 2 per node across 3 nodes: peak <= 6.
        assert result.metrics.peak_parallelism <= 6

    def test_elapsed_measured_from_launch(self):
        catalog = broadcast_catalog()
        cluster = Cluster(ClusterSpec(num_nodes=3))
        executor = ReDeExecutor(cluster, catalog, mode="smpe")
        first = executor.execute(broadcast_job())
        second = executor.execute(broadcast_job())
        # Re-using a cluster must not accumulate clock offsets.
        assert second.metrics.elapsed_seconds == pytest.approx(
            first.metrics.elapsed_seconds)
