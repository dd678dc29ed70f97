"""Property: adaptivity and caching never change answers.

Three families of randomized checks:

* instrumentation is free — attaching a feedback sink (or a controller
  with triggering disabled) leaves rows, access counts, and simulated
  time bit-identical on all three engines;
* mid-query switching is answer-preserving — an aggressive controller
  (threshold 1) swapping join stages to scan-backed access mid-run
  produces exactly the static plan's row set on all three engines;
* the caching gateway serves what a cacheless gateway serves — for
  random query sequences with repeats (exact hits) and nested ranges
  (subsumed hits), every ticket's row set matches, and exact hits match
  the original run row-for-row.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.plan import StagePlanner, compile_logical
from repro.plan.feedback import AdaptiveController, RuntimeFeedback
from repro.service import QueryGateway, TenantSpec
from repro.service.result_cache import SemanticResultCache
from repro.storage import DistributedFileSystem
from repro.storage.blockstore import BlockStore

INTERP = MappingInterpreter()

lakes = st.fixed_dictionaries({
    "num_parents": st.integers(min_value=2, max_value=20),
    "hot_fanout": st.integers(min_value=1, max_value=30),
    "num_nodes": st.integers(min_value=1, max_value=3),
})

probes = st.fixed_dictionaries({
    "low": st.integers(min_value=0, max_value=6),
    "width": st.integers(min_value=0, max_value=8),
})


def build_lake(ds):
    """Parent -> child with one hot parent key (skewed join fanout)."""
    dfs = DistributedFileSystem(num_nodes=ds["num_nodes"])
    catalog = StructureCatalog(dfs)
    parents = [Record({"pk": i, "attr": i % 7})
               for i in range(ds["num_parents"])]
    children, cid = [], 0
    for p in range(ds["num_parents"]):
        for __ in range(ds["hot_fanout"] if p == 0 else 1):
            children.append(Record({"cid": cid, "fk": p, "w": cid % 3}))
            cid += 1
    catalog.register_file("parent", parents, lambda r: r["pk"])
    catalog.register_file("child", children, lambda r: r["cid"])
    catalog.register_access_method(AccessMethodDefinition(
        "idx_attr", "parent", interpreter=INTERP, key_field="attr",
        scope="global"))
    catalog.register_access_method(AccessMethodDefinition(
        "idx_fk", "child", interpreter=INTERP, key_field="fk",
        scope="global"))
    catalog.build_all()
    store = BlockStore(num_nodes=ds["num_nodes"], block_size=64 * 1024,
                       catalog=catalog)
    store.load("parent", parents)
    store.load("child", children)
    return catalog, store


def build_logical(probe):
    return (ChainQuery("adapt", interpreter=INTERP)
            .from_index_range("idx_attr", probe["low"],
                              probe["low"] + probe["width"],
                              base="parent")
            .join("child", key="pk", via_index="idx_fk", carry=["pk"])
            .logical_plan())


def row_set(result):
    return sorted((row.context["pk"], row.record["cid"])
                  for row in result.rows)


def run(catalog, job, mode, num_nodes, config=None):
    cluster = (None if mode == "reference"
               else Cluster(ClusterSpec(num_nodes=num_nodes)))
    executor = ReDeExecutor(cluster, catalog, mode=mode,
                            **({} if config is None else
                               {"config": config}))
    return executor.execute(job)


@settings(max_examples=12, deadline=None)
@given(lakes, probes)
def test_observing_feedback_is_bit_identical(ds, probe):
    """A plain sink — and a controller that never triggers — change
    nothing: same rows in the same order, same metrics, same time."""
    catalog, store = build_lake(ds)
    logical = build_logical(probe)
    physical = compile_logical(logical, catalog)
    spec = ClusterSpec(num_nodes=ds["num_nodes"])
    planner = StagePlanner(catalog, store, spec)
    planned = planner.plan(build_logical(probe))
    for mode in ("reference", "smpe", "partitioned"):
        baseline = run(catalog, physical.to_job(catalog), mode,
                       ds["num_nodes"])
        job = physical.to_job(catalog)
        disarmed = AdaptiveController(planner, physical, job,
                                      planned.stage_estimates,
                                      threshold=None)
        for feedback in (RuntimeFeedback(), disarmed):
            job = physical.to_job(catalog)
            if feedback is disarmed:
                disarmed.job = job
            observed = run(catalog, job, mode, ds["num_nodes"],
                           EngineConfig(feedback=feedback))
            assert ([r.record for r in observed.rows]
                    == [r.record for r in baseline.rows]), mode
            assert (observed.metrics.summary()
                    == baseline.metrics.summary()), mode
        assert disarmed.switches == []


@settings(max_examples=12, deadline=None)
@given(lakes, probes)
def test_aggressive_switching_preserves_answers(ds, probe):
    """threshold=1 switches on any estimate shortfall; rows never change."""
    catalog, store = build_lake(ds)
    logical = build_logical(probe)
    physical = compile_logical(logical, catalog)
    spec = ClusterSpec(num_nodes=ds["num_nodes"])
    planner = StagePlanner(catalog, store, spec)
    planned = planner.plan(build_logical(probe))
    expected = None
    for mode in ("reference", "smpe", "partitioned"):
        static = run(catalog, physical.to_job(catalog), mode,
                     ds["num_nodes"])
        if expected is None:
            expected = row_set(static)
        assert row_set(static) == expected, mode
        job = physical.to_job(catalog)
        controller = AdaptiveController(planner, physical, job,
                                        planned.stage_estimates,
                                        threshold=1.0)
        adaptive = run(catalog, job, mode, ds["num_nodes"],
                       EngineConfig(feedback=controller))
        assert row_set(adaptive) == expected, mode


query_sequences = st.lists(
    st.tuples(st.integers(min_value=0, max_value=8),
              st.integers(min_value=0, max_value=6)),
    min_size=2, max_size=8)


@settings(max_examples=12, deadline=None)
@given(query_sequences)
def test_caching_gateway_matches_cacheless_gateway(sequence):
    """Random sequences (with natural repeats and nested ranges) served
    through a caching gateway answer exactly like a cacheless one."""
    dfs = DistributedFileSystem(num_nodes=2)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "attr": i % 10}) for i in range(300)]
    catalog.register_file("t", records, lambda r: r["pk"])
    catalog.register_access_method(AccessMethodDefinition(
        "idx_attr", "t", interpreter=INTERP, key_field="attr",
        scope="global"))
    catalog.build_all()

    def play(cache):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        gateway = QueryGateway(cluster, catalog, result_cache=cache)
        gateway.register(TenantSpec("t0"))
        outcomes = []
        for low, width in sequence:
            job = (ChainQuery(f"q{low}-{width}", interpreter=INTERP)
                   .from_index_range("idx_attr", low, low + width,
                                     base="t")
                   .build())
            ticket = gateway.submit("t0", job)
            if not ticket.finished:
                cluster.run_until(ticket.done)
            assert ticket.state == "completed"
            outcomes.append(ticket)
        return outcomes

    cached = play(SemanticResultCache(8 << 20))
    plain = play(None)
    first_rows = {}
    for got, want in zip(cached, plain):
        assert (sorted(r.record["pk"] for r in got.result.rows)
                == sorted(r.record["pk"] for r in want.result.rows))
        assert all("Δcache-src" not in r.context
                   for r in got.result.rows)
        key = got.name
        if key in first_rows:  # exact repeat: row-for-row identical
            assert ([r.record for r in got.result.rows]
                    == first_rows[key])
        else:
            first_rows[key] = [r.record for r in got.result.rows]
