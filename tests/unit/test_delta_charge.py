"""What a delta-aware probe pays for the unmerged runs it consults.

A run's key filter stays in memory, so the funnel reads a run's pages
only when its filter names a probe's key: a per-record unit pays one
random read per such run, a batch one batched read over the runs that
may hold any of its probes' keys, and a probe no run can hold pays
nothing.  Every run is still consulted (``delta_probes``).
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.config import EngineConfig
from repro.core import (
    AccessMethodDefinition,
    IndexLookupDereferencer,
    MappingInterpreter,
    Pointer,
    Record,
    StructureCatalog,
)
from repro.engine.access import recovering_dereference
from repro.engine.metrics import ExecutionMetrics
from repro.ingest import IngestCoordinator, MicroBatch
from repro.storage import DistributedFileSystem

INTERP = MappingInterpreter()

#: four committed batches: gold, green, gold, and an upsert that moves
#: pk 0 from red to gold (its run names red only through a tombstone)
BATCHES = [
    ([Record({"pk": 100, "color": "gold"})], []),
    ([Record({"pk": 101, "color": "green"})], []),
    ([Record({"pk": 102, "color": "gold"})], []),
    ([], [Record({"pk": 0, "color": "gold"})]),
]


def make_lake(ingested):
    """One partition, so every probe below lands on partition 0."""
    catalog = StructureCatalog(DistributedFileSystem(num_nodes=1))
    catalog.register_file(
        "items", [Record({"pk": i, "color": ["red", "blue"][i % 2]})
                  for i in range(20)], lambda r: r["pk"])
    catalog.register_access_method(AccessMethodDefinition(
        "idx_color", "items", interpreter=INTERP, key_field="color",
        scope="global"))
    catalog.ensure_built("idx_color")
    if ingested:
        coordinator = IngestCoordinator(catalog)
        for t, (appends, upserts) in enumerate(BATCHES):
            coordinator.flush(coordinator.stage(MicroBatch(
                "items", appends=appends, upserts=upserts,
                event_time=float(t))))
    return catalog


def probe(ingested, colors, batch_size):
    """Probe ``idx_color`` for ``colors`` in one funnel call; returns the
    pks found per probe, the metrics and every batched disk read's size."""
    catalog = make_lake(ingested)
    cluster = Cluster(ClusterSpec(num_nodes=1))
    metrics = ExecutionMetrics()
    disk = cluster.node(0).disk
    batched_reads = []
    read_batch = disk.random_read_batch

    def spy(count, nbytes=0):
        batched_reads.append(count)
        return read_batch(count, nbytes)

    disk.random_read_batch = spy
    holder = {}

    def proc():
        holder["outputs"] = yield from recovering_dereference(
            cluster, EngineConfig(batch_size=batch_size), metrics, 0,
            IndexLookupDereferencer("idx_color"),
            catalog.dfs.get_index("idx_color"),
            [(Pointer("idx_color", color, color), {}) for color in colors],
            0, 0, catalog=catalog)

    cluster.run_job(proc())
    pks = [sorted(entry.data.target_partition_key for entry in records)
           for records in holder["outputs"]]
    assert metrics.delta_run_reads <= metrics.delta_probes
    return pks, metrics, batched_reads


class TestPerRecordCharge:
    def test_probe_no_run_holds_reads_no_run(self):
        __, static, __ = probe(False, ["blue"], 1)
        __, metrics, __ = probe(True, ["blue"], 1)
        assert metrics.delta_probes == len(BATCHES)
        assert metrics.delta_run_reads == 0
        assert metrics.random_reads == static.random_reads

    @pytest.mark.parametrize("color, holders", [
        ("gold", 3), ("green", 1), ("red", 1)])
    def test_unit_reads_each_holding_run_once(self, color, holders):
        # red is named only by the upsert run's tombstone for pk 0
        __, static, __ = probe(False, [color], 1)
        __, metrics, __ = probe(True, [color], 1)
        assert metrics.delta_probes == len(BATCHES)
        assert metrics.delta_run_reads == holders
        assert metrics.random_reads == static.random_reads + holders

    def test_tombstoned_entry_is_gone(self):
        static_pks, __, __ = probe(False, ["red"], 1)
        pks, __, __ = probe(True, ["red"], 1)
        assert 0 in static_pks[0] and 0 not in pks[0]


class TestBatchCharge:
    def test_batch_makes_one_batched_read_of_the_holders(self):
        colors = ["gold", "blue", "green"]
        __, static, static_reads = probe(False, colors, 8)
        __, metrics, batched_reads = probe(True, colors, 8)
        # gold's three runs and green's one: every run but none twice
        assert batched_reads == static_reads + [len(BATCHES)]
        assert metrics.delta_run_reads == len(BATCHES)
        assert metrics.delta_probes == len(BATCHES) * len(colors)
        assert metrics.random_reads == static.random_reads + len(BATCHES)

    def test_batch_no_run_holds_reads_no_run(self):
        colors = ["blue", "white"]
        __, __, static_reads = probe(False, colors, 8)
        __, metrics, batched_reads = probe(True, colors, 8)
        assert batched_reads == static_reads
        assert metrics.delta_run_reads == 0

    def test_batch_reads_only_the_holders(self):
        colors = ["green", "blue"]
        __, __, static_reads = probe(False, colors, 8)
        __, metrics, batched_reads = probe(True, colors, 8)
        assert batched_reads == static_reads + [1]
        assert metrics.delta_run_reads == 1
