"""Unit tests for the streaming ingestion subsystem.

Covers delta runs (probe semantics, newest-wins, minor merges), the
delta registry and freshness watermark, arrival sources, the IoT
workload generator, the clusterless coordinator/compactor paths, and
the satellite fixes making ``insert_record`` and minor compaction
invalidate cached pages.
"""

import pytest

from repro.cluster import Cluster
from repro.core import (
    AccessMethodDefinition,
    FileLookupDereferencer,
    IndexEntryReferencer,
    IndexLookupDereferencer,
    JobBuilder,
    MaintenanceWorker,
    MappingInterpreter,
    Pointer,
    PointerRange,
    Record,
    StructureCatalog,
)
from repro.engine import ReDeExecutor
from repro.errors import ReproError
from repro.ingest import (
    CompactionPolicy,
    Compactor,
    DeltaRegistry,
    DeltaRun,
    IngestCoordinator,
    MicroBatch,
    bursty_gaps,
    poisson_gaps,
)
from repro.ingest.delta import (
    delta_tag,
    is_delta_tag,
    merge_runs,
    probe_delta_runs,
    probe_delta_tag,
)
from repro.storage import DistributedFileSystem
from repro.storage.cache import PageId

INTERP = MappingInterpreter()


def rec(pk, **extra):
    data = {"pk": pk}
    data.update(extra)
    return Record(data)


def make_run(batch_id, rows, upserts=None):
    """rows: list of (pid, key, payload, origin)."""
    run = DeltaRun("s", "base", batch_id, float(batch_id))
    for pid, key, payload, origin in rows:
        run.add(pid, key, payload, origin)
    if upserts:
        run.upserts = {pid: frozenset(keys)
                       for pid, keys in upserts.items()}
    return run.seal()


class TestDeltaTags:
    def test_tags_are_unique_and_recognizable(self):
        tags = {delta_tag(b, s) for b in range(3) for s in range(4)}
        assert len(tags) == 12
        assert all(is_delta_tag(tag) for tag in tags)

    def test_ordinary_keys_are_not_tags(self):
        for key in [7, "dev-0001", (1, 2), ("Δ", 1), None]:
            assert not is_delta_tag(key)


class TestDeltaRun:
    def test_point_probe_finds_all_versions_in_order(self):
        run = make_run(0, [(0, 5, rec(5, v=1), (0, 5)),
                           (0, 3, rec(3), (0, 3)),
                           (0, 5, rec(5, v=2), (0, 5))])
        hits = run.probe(0, Pointer("s", None, 5))
        assert [payload["v"] for payload, __ in hits] == [1, 2]

    def test_range_probe_honors_inclusivity(self):
        run = make_run(0, [(0, k, rec(k), (0, k)) for k in [1, 2, 3, 4]])

        def keys(low, high, ilow, ihigh):
            hits = run.probe(0, PointerRange(
                "s", low, high, inclusive_low=ilow, inclusive_high=ihigh))
            return [payload["pk"] for payload, __ in hits]

        assert keys(2, 3, True, True) == [2, 3]
        assert keys(2, 3, False, True) == [3]
        assert keys(2, 3, True, False) == [2]
        assert keys(None, 2, True, True) == [1, 2]
        assert keys(3, None, True, True) == [3, 4]

    def test_probe_missing_partition_is_empty(self):
        run = make_run(0, [(0, 1, rec(1), (0, 1))])
        assert run.probe(9, Pointer("s", None, 1)) == []

    def test_newer_upsert_supersedes_older_payload(self):
        old = make_run(0, [(0, 7, rec(7, v="old"), (0, 7))])
        new = make_run(1, [(0, 7, rec(7, v="new"), (0, 7))],
                       upserts={0: [7]})
        additions, superseded = probe_delta_runs(
            [old, new], 0, Pointer("s", None, 7))
        assert [payload["v"] for payload in additions] == ["new"]
        assert superseded == 1

    def test_upsert_only_kills_matching_origin_partition(self):
        old = make_run(0, [(0, 7, rec(7), (1, 7))])  # origin pid 1
        new = make_run(1, [], upserts={0: [7]})      # kills pid 0 only
        additions, superseded = probe_delta_runs(
            [old, new], 0, Pointer("s", None, 7))
        assert len(additions) == 1
        assert superseded == 0

    def test_tag_probe_resolves_once_and_respects_upserts(self):
        tag = delta_tag(0, 0)
        run = DeltaRun("s", "base", 0, 0.0)
        run.add(0, 7, rec(7, v="tagged"), (0, 7), tag=tag)
        run.seal()
        additions, superseded = probe_delta_tag([run], 0, tag)
        assert additions[0]["v"] == "tagged"
        killer = make_run(1, [], upserts={0: [7]})
        additions, superseded = probe_delta_tag([run, killer], 0, tag)
        assert additions == [] and superseded == 1
        assert probe_delta_tag([run], 0, delta_tag(9, 9)) == ([], 0)


class TestMergeRuns:
    def test_merge_is_probe_equivalent(self):
        runs = [
            make_run(0, [(0, 1, rec(1), (0, 1)),
                         (0, 7, rec(7, v="old"), (0, 7))]),
            make_run(1, [(0, 7, rec(7, v="new"), (0, 7)),
                         (1, 2, rec(2), (1, 2))], upserts={0: [7]}),
        ]
        merged = merge_runs(runs)
        for pid in (0, 1):
            target = PointerRange("s", None, None)
            before, __ = probe_delta_runs(runs, pid, target)
            after, __ = probe_delta_runs([merged], pid, target)
            assert ([payload.data for payload in before]
                    == [payload.data for payload in after])
        assert merged.upserts == {0: frozenset([7])}

    def test_merge_empty_raises(self):
        with pytest.raises(ReproError):
            merge_runs([])


class TestDeltaRegistry:
    def test_depth_and_retire(self):
        registry = DeltaRegistry()
        assert registry.depth("s") == 0 and not registry.active
        registry.register(make_run(0, [(0, 1, rec(1), (0, 1))]))
        registry.register(make_run(1, [(0, 2, rec(2), (0, 2))]))
        assert registry.depth("s") == 2 and registry.active
        registry.replace_runs("s", [merge_runs(registry.runs("s"))])
        assert registry.depth("s") == 1
        registry.retire("s")
        assert registry.depth("s") == 0 and registry.total_runs == 0

    def test_commit_without_staged_batch_raises(self):
        registry = DeltaRegistry()
        with pytest.raises(ReproError):
            registry.note_commit(1.0, 1.0)

    def test_watermark_advances_monotonically(self):
        registry = DeltaRegistry()
        registry.pending_batches = 3
        registry.note_commit(10.0, 0.1)
        registry.note_commit(30.0, 0.2)
        registry.note_commit(20.0, 0.3)  # late batch: no regression
        wm = registry.watermark()
        assert wm.committed_through == 30.0
        assert wm.committed_batches == 3 and wm.pending_batches == 0
        assert wm.last_commit_at == 0.3
        assert wm.staleness(now=0.5) == pytest.approx(0.2)

    def test_watermark_stored_as_float(self):
        """Integer event times must not look like summable counters to
        the tenant metric aggregator."""
        registry = DeltaRegistry()
        registry.pending_batches = 1
        registry.note_commit(30, 0.1)
        assert isinstance(registry.committed_through, float)

    def test_catalog_attach_is_exclusive(self):
        catalog = StructureCatalog(DistributedFileSystem(num_nodes=2))
        registry = DeltaRegistry()
        catalog.attach_delta_registry(registry)
        catalog.attach_delta_registry(registry)  # idempotent
        with pytest.raises(Exception):
            catalog.attach_delta_registry(DeltaRegistry())
        assert catalog.delta_depth("anything") == 0
        assert catalog.delta_runs("anything") == []


class TestSources:
    def test_poisson_gaps_deterministic_and_bounded(self):
        a = list(poisson_gaps(10.0, 5.0, seed=3))
        b = list(poisson_gaps(10.0, 5.0, seed=3))
        assert a == b and len(a) > 10
        assert all(gap > 0 for gap in a)
        assert sum(a) <= 5.0

    def test_bursty_gaps_concentrate_in_duty_window(self):
        gaps = list(bursty_gaps(10.0, 120.0, seed=5, period=60.0,
                                duty=0.25, burst_factor=3.0))
        times, clock = [], 0.0
        for gap in gaps:
            clock += gap
            times.append(clock)
        in_burst = sum(1 for t in times if (t % 60.0) < 15.0)
        assert in_burst > len(times) / 2  # 25% of the window, >50% arrivals

    def test_zero_rate_yields_nothing(self):
        assert list(poisson_gaps(0.0, 10.0)) == []
        assert list(bursty_gaps(0.0, 10.0)) == []


class TestTrafficSensorGenerator:
    def test_deterministic_across_instances(self):
        from repro.datagen import TrafficSensorGenerator
        a = TrafficSensorGenerator(num_sensors=8, seed=4)
        b = TrafficSensorGenerator(num_sensors=8, seed=4)
        batch_a = a.readings_batch(0, 20)
        batch_b = b.readings_batch(0, 20)
        assert ([r.data for r in batch_a.appends]
                == [r.data for r in batch_b.appends])
        assert batch_a.late_count == batch_b.late_count

    def test_interpreter_absorbs_schema_drift(self):
        from repro.datagen import SensorInterpreter, TrafficSensorGenerator
        interp = SensorInterpreter()
        gen = TrafficSensorGenerator(num_sensors=8, seed=4, drift_after=0.5,
                                     late_prob=0.0)
        batch = gen.readings_batch(0, 50)
        shapes = {frozenset(r.data) for r in batch.appends}
        assert len(shapes) > 1  # legacy and modern shapes coexist
        for record in batch.appends:
            view = interp.interpret(record)
            assert view["device_id"].startswith("dev-")
            assert view["speed_kmh"] is not None
            assert view["reading_id"] is not None

    def test_late_readings_counted_after_first_batch(self):
        from repro.datagen import TrafficSensorGenerator
        gen = TrafficSensorGenerator(num_sensors=8, seed=4, late_prob=1.0,
                                     max_lateness=1e6)
        first = gen.readings_batch(0, 10)
        second = gen.readings_batch(1, 10)
        assert first.late_count == 0  # nothing committed yet
        assert second.late_count == 10

    def test_status_batch_is_upserts_only(self):
        from repro.datagen import DEVICES_FILE, TrafficSensorGenerator
        gen = TrafficSensorGenerator(num_sensors=8, seed=4)
        batch = gen.status_batch(0, devices=4)
        assert batch.file_name == DEVICES_FILE
        assert batch.appends == [] and len(batch.upserts) == 4


def make_lake(num_built=1):
    dfs = DistributedFileSystem(num_nodes=2)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "color": ["red", "blue"][i % 2]})
               for i in range(40)]
    catalog.register_file("items", records, lambda r: r["pk"])
    catalog.register_access_method(AccessMethodDefinition(
        "idx_color", "items", interpreter=INTERP, key_field="color",
        scope="global"))
    if num_built:
        catalog.ensure_built("idx_color")
    return catalog


def query_color(catalog, color):
    job = (JobBuilder("probe")
           .dereference(IndexLookupDereferencer("idx_color"))
           .reference(IndexEntryReferencer("items"))
           .dereference(FileLookupDereferencer("items"))
           .input(Pointer("idx_color", color, color))
           .build())
    result = ReDeExecutor(None, catalog, mode="reference").execute(job)
    return sorted(row.record["pk"] for row in result.rows), result.metrics


class TestCoordinator:
    def test_staged_batch_is_invisible_until_flushed(self):
        catalog = make_lake()
        coord = IngestCoordinator(catalog)
        batch = coord.stage(MicroBatch(
            "items", appends=[rec(100, color="gold")], event_time=5.0))
        assert not batch.committed
        rows, __ = query_color(catalog, "gold")
        assert rows == []
        coord.flush(batch)
        assert batch.committed
        rows, metrics = query_color(catalog, "gold")
        assert rows == [100]
        assert metrics.delta_probes > 0 and metrics.delta_entries > 0

    def test_upsert_newest_wins_through_index(self):
        catalog = make_lake()
        coord = IngestCoordinator(catalog)
        coord.flush(coord.stage(MicroBatch(
            "items", upserts=[rec(0, color="gold")], event_time=5.0)))
        gold, __ = query_color(catalog, "gold")
        red, metrics = query_color(catalog, "red")
        assert gold == [0]
        assert 0 not in red
        assert metrics.delta_superseded >= 1

    def test_unknown_file_rejected_at_stage(self):
        coord = IngestCoordinator(make_lake())
        with pytest.raises(ReproError):
            coord.stage(MicroBatch("nope", appends=[rec(1)]))

    def test_watermark_reaches_query_metrics(self):
        catalog = make_lake()
        coord = IngestCoordinator(catalog)
        coord.flush(coord.stage(MicroBatch(
            "items", appends=[rec(100, color="red")], event_time=42.0)))
        __, metrics = query_color(catalog, "red")
        assert metrics.freshness_watermark == 42.0
        assert coord.watermark().committed_through == 42.0

    def test_static_lake_metrics_unstamped(self):
        catalog = make_lake()
        __, metrics = query_color(catalog, "red")
        assert metrics.freshness_watermark is None
        assert metrics.delta_probes == 0

    def test_flush_pending_commits_in_order(self):
        catalog = make_lake()
        coord = IngestCoordinator(catalog)
        coord.stage(MicroBatch("items", appends=[rec(100, color="red")],
                               event_time=1.0))
        coord.stage(MicroBatch("items", appends=[rec(101, color="red")],
                               event_time=2.0))
        coord.flush_pending()
        assert coord.pending() == []
        assert coord.watermark().committed_batches == 2
        assert catalog.delta_depth("items") == 2


class TestBackfillOnMaterialization:
    """PR-6 follow-up: a structure materialized after streaming began
    used to silently miss every committed delta — probes through it
    returned stale answers with no error.  ``ensure_built`` now
    backfills one index delta run per committed base run."""

    def test_structure_built_mid_stream_sees_deltas(self):
        catalog = make_lake(num_built=0)
        coord = IngestCoordinator(catalog)
        coord.flush(coord.stage(MicroBatch(
            "items", appends=[rec(100, color="gold")], event_time=1.0)))
        coord.flush(coord.stage(MicroBatch(
            "items", upserts=[rec(0, color="gold")], event_time=2.0)))
        catalog.ensure_built("idx_color")
        assert catalog.delta_depth("idx_color") == 2
        gold, metrics = query_color(catalog, "gold")
        assert gold == [0, 100]
        assert metrics.delta_probes > 0
        red, __ = query_color(catalog, "red")
        assert 0 not in red  # stale heap version tombstoned at build

    def test_backfill_matches_structure_maintained_from_start(self):
        answers = []
        for built_first in (True, False):
            catalog = make_lake(num_built=1 if built_first else 0)
            coord = IngestCoordinator(catalog)
            coord.flush(coord.stage(MicroBatch(
                "items",
                appends=[rec(100, color="gold"), rec(101, color="red")],
                event_time=1.0)))
            coord.flush(coord.stage(MicroBatch(
                "items",
                upserts=[rec(100, color="red"), rec(3, color="gold")],
                event_time=2.0)))
            if not built_first:
                catalog.ensure_built("idx_color")
            answers.append((query_color(catalog, "gold")[0],
                            query_color(catalog, "red")[0]))
        assert answers[0] == answers[1]

    def test_static_lake_build_registers_no_runs(self):
        catalog = make_lake(num_built=0)
        catalog.ensure_built("idx_color")
        assert catalog.delta_depth("idx_color") == 0


class TestCompactor:
    def fill(self, catalog, coord, batches=3):
        pk = 100
        for b in range(batches):
            appends = [rec(pk + i, color="gold") for i in range(2)]
            pk += 2
            coord.flush(coord.stage(MicroBatch(
                "items", appends=appends,
                upserts=[rec(b, color="gold")], event_time=float(b + 1))))

    def test_minor_compaction_preserves_answers(self):
        catalog = make_lake()
        coord = IngestCoordinator(catalog)
        self.fill(catalog, coord)
        before_gold, __ = query_color(catalog, "gold")
        before_red, __ = query_color(catalog, "red")
        compactor = Compactor(catalog)
        compactor.compact("items", "minor")
        assert compactor.minor_compactions == 1
        assert catalog.delta_depth("items") == 1
        assert catalog.delta_depth("idx_color") == 1
        after_gold, __ = query_color(catalog, "gold")
        after_red, __ = query_color(catalog, "red")
        assert after_gold == before_gold
        assert after_red == before_red

    def test_major_compaction_restores_static_lake(self):
        catalog = make_lake()
        coord = IngestCoordinator(catalog)
        self.fill(catalog, coord)
        before_gold, __ = query_color(catalog, "gold")
        before_red, __ = query_color(catalog, "red")
        compactor = Compactor(catalog)
        compactor.compact("items", "major")
        assert compactor.major_compactions == 1
        assert catalog.delta_depth("items") == 0
        assert catalog.delta_depth("idx_color") == 0
        after_gold, metrics = query_color(catalog, "gold")
        after_red, __ = query_color(catalog, "red")
        assert after_gold == before_gold
        assert after_red == before_red
        assert metrics.delta_probes == 0  # truly static again

    def test_policy_thresholds(self):
        lazy = CompactionPolicy.lazy()
        assert lazy.due(0) is None
        assert lazy.due(3) is None
        assert lazy.due(4) == "minor"
        assert lazy.due(8) == "major"
        assert CompactionPolicy.eager().due(3) == "major"
        assert CompactionPolicy.none().due(100) is None

    def test_due_reports_base_files_only(self):
        catalog = make_lake()
        coord = IngestCoordinator(catalog)
        self.fill(catalog, coord, batches=4)
        compactor = Compactor(catalog, policy=CompactionPolicy.lazy())
        assert compactor.due() == [("items", "minor")]


class TestInsertRecordInvalidation:
    """Satellite fix: single-record inserts must invalidate cached pages
    of the base heap and every maintained structure."""

    def warm(self, cluster, file_name, partition=0):
        pool = cluster.node(0).buffer_pool
        pool.insert(PageId(file_name, partition, "heap", 0), 100)
        return pool

    def test_insert_record_drops_stale_pages(self):
        from repro.config import laptop_cluster_spec
        catalog = make_lake()
        cluster = Cluster(laptop_cluster_spec(2, cache_bytes=1 << 20))
        MaintenanceWorker(catalog, cluster)  # wires the invalidator
        base_pool = self.warm(cluster, "items")
        index_pool = self.warm(cluster, "idx_color")
        assert len(base_pool) == 2
        catalog.insert_record("items", rec(100, color="red"))
        assert len(base_pool) == 0
        assert base_pool.invalidations == 2
        assert len(index_pool) == 0

    def test_insert_without_invalidator_still_works(self):
        catalog = make_lake()
        assert catalog.cache_invalidator is None
        catalog.insert_record("items", rec(100, color="red"))
        rows, __ = query_color(catalog, "red")
        assert 100 in rows


class TestMinorCompactionInvalidation:
    """Satellite fix: a minor compaction rewrites delta runs under the
    base *and* every maintained structure — warm buffer-pool pages over
    any of them are stale after the fold and must drop."""

    def fill(self, catalog):
        coord = IngestCoordinator(catalog)
        for b in range(3):
            coord.flush(coord.stage(MicroBatch(
                "items", appends=[rec(100 + 2 * b + i, color="gold")
                                  for i in range(2)],
                event_time=float(b + 1))))

    def warm(self, cluster, file_name):
        pool = cluster.node(0).buffer_pool
        pool.insert(PageId(file_name, 0, "heap", 0), 100)
        return pool

    def test_minor_fold_drops_base_and_index_pages(self):
        from repro.config import laptop_cluster_spec
        catalog = make_lake()
        self.fill(catalog)
        cluster = Cluster(laptop_cluster_spec(2, cache_bytes=1 << 20))
        MaintenanceWorker(catalog, cluster)  # wires the invalidator
        base_pool = self.warm(cluster, "items")
        index_pool = self.warm(cluster, "idx_color")
        assert len(base_pool) == 2
        Compactor(catalog).compact("items", "minor")
        assert len(base_pool) == 0
        assert len(index_pool) == 0

    def test_answers_stay_correct_with_warm_pool(self):
        from repro.config import laptop_cluster_spec
        catalog = make_lake()
        self.fill(catalog)
        cluster = Cluster(laptop_cluster_spec(2, cache_bytes=1 << 20))
        MaintenanceWorker(catalog, cluster)
        self.warm(cluster, "items")
        self.warm(cluster, "idx_color")
        before, __ = query_color(catalog, "gold")
        Compactor(catalog).compact("items", "minor")
        after, __ = query_color(catalog, "gold")
        assert after == before == sorted(range(100, 106))
