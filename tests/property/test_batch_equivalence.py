"""Property: ``batch_size`` is semantics-free.

Hypothesis generates small two-table lakes — optionally made *fresh* by
streaming committed delta batches (appends and newest-wins upserts) —
and a join chain over them.  For both cluster engines, running the job
with ``batch_size`` in {8, 64, 1024} must produce exactly the rows,
delta accounting, and freshness watermark of the ``batch_size=1`` path;
batching may only ever *reduce* charged random reads (page-walk
deduplication and amortized fetches).  (The reference executor ignores
``batch_size``: it charges no time, so there is nothing to batch.)  A
second property re-checks row agreement under injected transient-IO
faults with ``on_error='retry'``, on static and fresh lakes alike —
delta-run reads retry like base reads (fault draws differ per batch
size, so IO accounting is exempt there — the answer is not).  A third
kills a node at a generated simulated time mid-job: batched and
per-record execution must re-route to survivors, return exactly the
fault-free reference rows, and reconcile their observed crash counters
with the injector's ground truth.  A fourth pins the partitioned
engine's schedule: ``batch_size`` only sizes its dispatches, so every
node visits the same ``(stage, partition)`` runs in the same order at
every batch size.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, FaultPlan, NodeCrash
from repro.config import EngineConfig
from repro.core import (
    AccessMethodDefinition,
    ChainQuery,
    MappingInterpreter,
    Record,
    StructureCatalog,
)
from repro.engine import ReDeExecutor
from repro.ingest import IngestCoordinator, MicroBatch
from repro.storage import DistributedFileSystem

INTERP = MappingInterpreter()

BATCH_SIZES = (8, 64, 1024)

scenarios = st.fixed_dictionaries({
    "num_parents": st.integers(min_value=1, max_value=20),
    "children_per_parent": st.integers(min_value=0, max_value=3),
    "num_nodes": st.integers(min_value=1, max_value=4),
    "attr_mod": st.integers(min_value=1, max_value=8),
    "probe_low": st.integers(min_value=-2, max_value=8),
    "probe_width": st.integers(min_value=0, max_value=10),
    "fresh_appends": st.integers(min_value=0, max_value=6),
    "fresh_upserts": st.integers(min_value=0, max_value=3),
})


def build_lake(ds):
    dfs = DistributedFileSystem(num_nodes=ds["num_nodes"])
    catalog = StructureCatalog(dfs)
    parents = [Record({"pid": i, "attr": i % ds["attr_mod"]})
               for i in range(ds["num_parents"])]
    children = [Record({"cid": p * 100 + c, "parent": p})
                for p in range(ds["num_parents"])
                for c in range(ds["children_per_parent"])]
    catalog.register_file("parent", parents, lambda r: r["pid"])
    catalog.register_file("child", children, lambda r: r["cid"])
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_attr", base_file="parent", interpreter=INTERP,
        key_field="attr", scope="global"))
    catalog.register_access_method(AccessMethodDefinition(
        name="idx_child_parent", base_file="child", interpreter=INTERP,
        key_field="parent", scope="global"))
    catalog.build_all()

    if ds["fresh_appends"] or ds["fresh_upserts"]:
        coord = IngestCoordinator(catalog)
        if ds["fresh_appends"]:
            coord.flush(coord.stage(MicroBatch(
                "parent",
                appends=[Record({"pid": 1000 + i,
                                 "attr": i % ds["attr_mod"]})
                         for i in range(ds["fresh_appends"])],
                event_time=1.0)))
        if ds["fresh_upserts"]:
            n = min(ds["fresh_upserts"], ds["num_parents"])
            coord.flush(coord.stage(MicroBatch(
                "parent",
                upserts=[Record({"pid": i, "attr": (i + 1) % ds["attr_mod"]})
                         for i in range(n)],
                event_time=2.0)))
    return catalog


def build_job(ds):
    low = ds["probe_low"]
    high = low + ds["probe_width"]
    return (ChainQuery("batch_prop", interpreter=INTERP)
            .from_index_range("idx_attr", low, high, base="parent")
            .join("child", key="pid", via_index="idx_child_parent",
                  carry=["pid"])
            .build())


def canon(result):
    return sorted((row.context["pid"], row.record["cid"])
                  for row in result.rows)


def run(catalog, job, mode, batch_size, fault_plan=None):
    result, __ = run_on_cluster(catalog, job, mode, batch_size,
                                fault_plan=fault_plan)
    return result


def run_on_cluster(catalog, job, mode, batch_size, fault_plan=None):
    # Under injected faults the retry budget is raised well above the
    # default: the property asserts *semantics*, and a generated seed
    # that exhausts retries aborts the job instead of testing it.
    config = EngineConfig(batch_size=batch_size,
                          on_error="retry" if fault_plan else "fail",
                          max_retries=10 if fault_plan else 3)
    cluster = None
    if mode != "reference":
        cluster = Cluster(ClusterSpec(num_nodes=catalog.dfs.num_nodes),
                          fault_plan=fault_plan)
    result = ReDeExecutor(cluster, catalog, config=config,
                          mode=mode).execute(job)
    return result, cluster


@settings(max_examples=20, deadline=None)
@given(scenarios)
def test_batch_size_is_semantics_free(ds):
    catalog = build_lake(ds)
    job = build_job(ds)
    for mode in ("smpe", "partitioned"):
        base = run(catalog, job, mode, 1)
        for batch_size in BATCH_SIZES:
            result = run(catalog, job, mode, batch_size)
            label = (mode, batch_size)
            assert canon(result) == canon(base), label
            m, b = result.metrics, base.metrics
            assert m.record_accesses == b.record_accesses, label
            assert m.delta_probes == b.delta_probes, label
            assert m.delta_superseded == b.delta_superseded, label
            assert m.freshness_watermark == b.freshness_watermark, label
            assert m.random_reads <= b.random_reads, label


@settings(max_examples=10, deadline=None)
@given(scenarios, st.integers(min_value=0, max_value=2 ** 16))
def test_batch_size_is_semantics_free_under_faults(ds, seed):
    catalog = build_lake(ds)
    job = build_job(ds)
    plan = FaultPlan(seed=seed, transient_io_rate=0.1,
                     network_drop_rate=0.05)
    for mode in ("smpe", "partitioned"):
        base = run(catalog, job, mode, 1, fault_plan=plan)
        for batch_size in BATCH_SIZES:
            result = run(catalog, job, mode, batch_size, fault_plan=plan)
            label = (mode, batch_size)
            assert canon(result) == canon(base), label
            assert (result.metrics.freshness_watermark
                    == base.metrics.freshness_watermark), label
            assert result.complete and base.complete, label


@settings(max_examples=10, deadline=None)
@given(scenarios,
       st.integers(min_value=0, max_value=7),
       st.integers(min_value=1, max_value=20))
def test_batching_survives_timed_node_crash(ds, victim_draw, at_tick):
    """A node killed at a generated simulated time mid-job must not
    change the answer at any batch size: per-record and batched
    execution both re-route the dead node's work to survivors and
    return exactly the fault-free reference rows, with each run's
    observed crash counter reconciled against the injector's ground
    truth (a crash landing after job completion is observed by
    neither)."""
    ds = dict(ds, fresh_appends=0, fresh_upserts=0,
              num_nodes=max(2, ds["num_nodes"]))
    catalog = build_lake(ds)
    job = build_job(ds)
    truth = canon(run(catalog, job, "reference", 1))
    victim = victim_draw % ds["num_nodes"]
    crash_at = at_tick * 5e-4  # 0.5ms..10ms: spans mid-job and post-job
    plan = FaultPlan(node_crashes=(NodeCrash(victim, crash_at),))
    for mode in ("smpe", "partitioned"):
        for batch_size in (1,) + BATCH_SIZES:
            result, cluster = run_on_cluster(catalog, job, mode,
                                             batch_size, fault_plan=plan)
            label = (mode, batch_size)
            assert canon(result) == truth, label
            assert result.complete, label
            injected = cluster.faults.stats.get("node-crash", 0)
            assert result.metrics.node_crashes == injected, label


def node_schedules(result, num_nodes):
    """Per node: its trace's ``(stage, partition)`` pairs in order, with
    consecutive repeats collapsed."""
    schedules = []
    for node in range(num_nodes):
        runs = []
        for event in result.metrics.trace:
            step = (event.stage, event.partition)
            if event.node == node and (not runs or runs[-1] != step):
                runs.append(step)
        schedules.append(runs)
    return schedules


@settings(max_examples=20, deadline=None)
@given(scenarios)
def test_partitioned_schedule_is_independent_of_batch_size(ds):
    """Fault-free, the partitioned engine walks each node's stages
    breadth-first at every batch size: a batch of one and a batch of
    1024 visit the same partitions of the same stages in the same
    order, and only the number of calls per visit differs."""
    catalog = build_lake(ds)
    job = build_job(ds)

    def schedule(batch_size):
        cluster = Cluster(ClusterSpec(num_nodes=ds["num_nodes"]))
        result = ReDeExecutor(
            cluster, catalog,
            config=EngineConfig(batch_size=batch_size, trace=True),
            mode="partitioned").execute(job)
        return node_schedules(result, ds["num_nodes"])

    base = schedule(1)
    for batch_size in BATCH_SIZES:
        assert schedule(batch_size) == base, batch_size
