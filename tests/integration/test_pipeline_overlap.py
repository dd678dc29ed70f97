"""Integration: the Fig. 6 pipeline property, measured from traces.

"Each stage has an input queue and an output queue, and the output queue
of one stage is the input queue of the next stage" — under SMPE, stage
N+1 starts consuming long before stage N finishes producing.  These tests
verify that pipeline overlap from recorded trace events.  Partitioned
execution is only checked to run serially per node (at most one
dereference in flight); its breadth-first stage order is pinned in
``tests/property/test_batch_equivalence.py``.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.config import EngineConfig
from repro.core import (
    AccessMethodDefinition,
    ChainQuery,
    MappingInterpreter,
    Record,
    StructureCatalog,
)
from repro.engine import ReDeExecutor
from repro.engine.trace import max_overlap, stage_spans
from repro.storage import DistributedFileSystem

INTERP = MappingInterpreter()
NUM_NODES = 4


@pytest.fixture(scope="module")
def catalog():
    dfs = DistributedFileSystem(num_nodes=NUM_NODES)
    catalog = StructureCatalog(dfs)
    parents = [Record({"pk": i, "attr": i % 20}) for i in range(400)]
    catalog.register_file("parent", parents, lambda r: r["pk"])
    children = [Record({"cid": i, "fk": i % 400}) for i in range(1200)]
    catalog.register_file("child", children, lambda r: r["cid"])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_attr", base_file="parent", interpreter=INTERP,
        key_field="attr", scope="global"))
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_fk", base_file="child", interpreter=INTERP,
        key_field="fk", scope="global"))
    catalog.build_all()
    return catalog


def three_hop_job():
    return (ChainQuery("hops", interpreter=INTERP)
            .from_index_range("idx_attr", 0, 19, base="parent")
            .join("child", key="pk", via_index="idx_fk", carry=["pk"])
            .build())


@pytest.fixture(scope="module")
def traced_run(catalog):
    cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
    executor = ReDeExecutor(cluster, catalog,
                            config=EngineConfig(trace=True), mode="smpe")
    return executor.execute(three_hop_job())


class TestPipelineOverlap:
    def test_all_dereference_stages_traced(self, traced_run):
        spans = stage_spans(traced_run.metrics.trace)
        # Stages 0,2,4,6: index probe, parent fetch, fk probe, child fetch.
        assert set(spans) == {0, 2, 4, 6}

    def test_adjacent_stages_overlap_in_time(self, traced_run):
        """Stage N+1 starts before stage N has finished — the pipeline.

        Stage 0's uniform-duration probes all finish at one instant, so
        stage 2 can only *touch* it; genuine overlap is asserted for all
        later stage pairs.
        """
        spans = stage_spans(traced_run.metrics.trace)
        ordered = sorted(spans)
        for earlier, later in zip(ordered, ordered[1:]):
            earlier_end = spans[earlier][1]
            later_start = spans[later][0]
            if earlier == ordered[0]:
                assert later_start <= earlier_end, (earlier, later)
            else:
                assert later_start < earlier_end, (earlier, later)

    def test_stage_starts_are_causally_ordered(self, traced_run):
        """A stage cannot start before its upstream produced anything."""
        spans = stage_spans(traced_run.metrics.trace)
        ordered = sorted(spans)
        for earlier, later in zip(ordered, ordered[1:]):
            assert spans[later][0] >= spans[earlier][0]

    def test_massive_overlap_within_stages(self, traced_run):
        by_stage = {}
        for event in traced_run.metrics.trace:
            by_stage.setdefault(event.stage, []).append(event)
        # The child-fetch stage fans out to 1200 records; dozens should be
        # in flight at once.
        assert max_overlap(by_stage[6]) > 30

    def test_partitioned_stages_still_interleave_but_serially(self,
                                                              catalog):
        cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
        executor = ReDeExecutor(cluster, catalog,
                                config=EngineConfig(trace=True),
                                mode="partitioned")
        result = executor.execute(three_hop_job())
        per_node_overlap = [
            max_overlap([e for e in result.metrics.trace
                         if e.node == node])
            for node in range(NUM_NODES)]
        assert all(overlap == 1 for overlap in per_node_overlap)
