"""Unit tests for the semantic result cache and its gateway wiring.

Covers canonical job signatures, exact and subsumed serving, the shared
byte-budget LRU, tier-A scan-table reuse across different jobs, and the
invalidation paths: ingest commits and compaction must drop affected
entries, and a caching gateway must serve rows bit-identical to a
cacheless one.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.config import EngineConfig
from repro.core import (
    AccessMethodDefinition,
    ChainQuery,
    FileLookupDereferencer,
    IndexEntryReferencer,
    IndexRangeDereferencer,
    JobBuilder,
    MappingInterpreter,
    Pointer,
    PointerRange,
    PredicateFilter,
    Record,
    StructureCatalog,
)
from repro.ingest import Compactor, IngestCoordinator, MicroBatch
from repro.plan import ACCESS_INDEX, ACCESS_SCAN, compile_logical
from repro.service import OverloadPolicy, QueryGateway, TenantSpec
from repro.service.result_cache import PROVENANCE_KEY, SemanticResultCache
from repro.storage import DistributedFileSystem

INTERP = MappingInterpreter()
NUM_NODES = 2


def make_catalog():
    dfs = DistributedFileSystem(num_nodes=NUM_NODES)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "attr": i % 50, "grp": i % 5})
               for i in range(1000)]
    catalog.register_file("t", records, lambda r: r["pk"])
    catalog.register_file("dim", [Record({"grp": g, "label": g * 11})
                                  for g in range(5)],
                          lambda r: r["grp"])
    catalog.register_access_method(AccessMethodDefinition(
        "idx_attr", "t", interpreter=INTERP, key_field="attr",
        scope="global"))
    catalog.build_all()
    return catalog


def range_job(low, high):
    return (ChainQuery(f"r{low}-{high}", interpreter=INTERP)
            .from_index_range("idx_attr", low, high, base="t")
            .build())


def make_gateway(catalog, budget=8 << 20):
    cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
    cache = None if budget is None else SemanticResultCache(budget)
    gateway = QueryGateway(cluster, catalog, result_cache=cache)
    gateway.register(TenantSpec("t0"))
    return cluster, gateway, cache


def serve(cluster, gateway, job):
    ticket = gateway.submit("t0", job)
    if not ticket.finished:
        cluster.run_until(ticket.done)
    assert ticket.state == "completed"
    return ticket


def row_values(ticket):
    return [(row.record.data, dict(row.context))
            for row in ticket.result.rows]


def row_set(ticket):
    """Order-insensitive view: engine output order depends on simulated
    task timing, so anything that changes timing (tier-A adoption) or
    replays another run's order (subsumed serving) matches on the set."""
    return sorted((sorted(row.record.data.items()),
                   sorted(row.context.items()))
                  for row in ticket.result.rows)


class TestExactServing:
    def test_repeat_query_served_instantly_and_identically(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        first = serve(cluster, gateway, range_job(3, 7))
        second = serve(cluster, gateway, range_job(3, 7))
        assert not first.served_from_cache
        assert second.served_from_cache
        assert second.latency == 0.0
        assert second.result.metrics.result_cache_hits == 1
        assert row_values(second) == row_values(first)
        assert cache.hits == 1 and cache.insertions == 1

    def test_stats_count_one_miss_then_one_hit(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        assert cache.stats()["entries"] == 0
        serve(cluster, gateway, range_job(3, 7))
        after_miss = cache.stats()
        serve(cluster, gateway, range_job(3, 7))
        after_hit = cache.stats()
        assert (after_miss["misses"], after_miss["hits"],
                after_miss["insertions"], after_miss["entries"]) == \
            (1, 0, 1, 1)
        assert (after_hit["misses"], after_hit["hits"],
                after_hit["insertions"], after_hit["entries"]) == \
            (1, 1, 1, 1)
        assert 0 < after_hit["used_bytes"] <= after_hit["budget_bytes"] \
            == 8 << 20
        assert after_hit["evictions"] == after_hit["invalidations"] == 0

    def test_cached_rows_bit_identical_to_cacheless_gateway(self):
        catalog = make_catalog()
        plain_cluster, plain_gateway, __ = make_gateway(catalog,
                                                        budget=None)
        plain = serve(plain_cluster, plain_gateway, range_job(3, 7))
        cluster, gateway, __ = make_gateway(catalog)
        first = serve(cluster, gateway, range_job(3, 7))
        hit = serve(cluster, gateway, range_job(3, 7))
        assert row_values(first) == row_values(plain)
        assert row_values(hit) == row_values(plain)
        # the instrumented first run costs exactly what a cacheless one does
        assert (first.result.metrics.summary()
                == plain.result.metrics.summary())

    def test_no_provenance_key_ever_escapes(self):
        catalog = make_catalog()
        cluster, gateway, __ = make_gateway(catalog)
        for __unused in range(2):
            ticket = serve(cluster, gateway, range_job(0, 9))
            assert all(PROVENANCE_KEY not in row.context
                       for row in ticket.result.rows)

    def test_different_ranges_are_different_entries(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        serve(cluster, gateway, range_job(0, 4))
        ticket = serve(cluster, gateway, range_job(10, 14))
        assert not ticket.served_from_cache
        assert cache.insertions == 2


class TestSubsumedServing:
    def test_tighter_range_served_from_wider_entry(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        serve(cluster, gateway, range_job(0, 9))
        sub = serve(cluster, gateway, range_job(2, 5))
        assert sub.served_from_cache
        assert cache.subsumed_hits == 1
        # pin correctness against an uncached gateway's answer
        plain_cluster, plain_gateway, __ = make_gateway(catalog,
                                                        budget=None)
        plain = serve(plain_cluster, plain_gateway, range_job(2, 5))
        assert row_set(sub) == row_set(plain)

    def test_wider_range_is_not_subsumed(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        serve(cluster, gateway, range_job(2, 5))
        wide = serve(cluster, gateway, range_job(0, 9))
        assert not wide.served_from_cache
        assert cache.subsumed_hits == 0


class TestInvalidation:
    def test_ingest_commit_drops_affected_entries(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        serve(cluster, gateway, range_job(3, 7))
        coordinator = IngestCoordinator(catalog)
        coordinator.flush(coordinator.stage(MicroBatch(
            "t", appends=[Record({"pk": 5000 + i, "attr": 5, "grp": 0})
                          for i in range(4)],
            event_time=1.0)))
        assert cache.invalidations > 0
        fresh = serve(cluster, gateway, range_job(3, 7))
        assert not fresh.served_from_cache
        assert {row.record["pk"] for row in fresh.result.rows} \
            >= {5000, 5001, 5002, 5003}

    def test_major_compaction_drops_affected_entries(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        coordinator = IngestCoordinator(catalog)
        coordinator.flush(coordinator.stage(MicroBatch(
            "t", appends=[Record({"pk": 6000, "attr": 6, "grp": 0})],
            event_time=1.0)))
        hit_before = serve(cluster, gateway, range_job(3, 7))
        cache_state = (cache.hits, cache.subsumed_hits)
        Compactor(catalog).compact("t", "major")
        after = serve(cluster, gateway, range_job(3, 7))
        assert not after.served_from_cache
        assert (cache.hits, cache.subsumed_hits) == cache_state
        # same answer set; the fold legitimately reorders delta rows
        assert row_set(after) == row_set(hit_before)

    def test_unrelated_structure_entries_survive(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        serve(cluster, gateway, range_job(3, 7))
        catalog.invalidate_results("dim")
        # the catalog version moved, so the token changed: the old entry
        # is unreachable even though "dim" never touched this job
        ticket = serve(cluster, gateway, range_job(3, 7))
        assert not ticket.served_from_cache


class TestBudgetAndEviction:
    def test_lru_evicts_oldest_under_pressure(self):
        cache = SemanticResultCache(budget_bytes=1000)
        cache.put_table(("a", None), ("tok",), {"k": []}, 600, ["a"])
        cache.put_table(("b", None), ("tok",), {"k": []}, 600, ["b"])
        assert cache.evictions == 1
        assert cache.get_table(("a", None), ("tok",)) is None
        assert cache.get_table(("b", None), ("tok",)) is not None

    def test_touch_refreshes_lru_order(self):
        cache = SemanticResultCache(budget_bytes=1200)
        cache.put_table(("a", None), ("tok",), {"k": []}, 500, ["a"])
        cache.put_table(("b", None), ("tok",), {"k": []}, 500, ["b"])
        assert cache.get_table(("a", None), ("tok",)) is not None
        cache.put_table(("c", None), ("tok",), {"k": []}, 500, ["c"])
        # b was least recently used
        assert cache.get_table(("b", None), ("tok",)) is None
        assert cache.get_table(("a", None), ("tok",)) is not None

    def test_oversized_entry_is_refused(self):
        cache = SemanticResultCache(budget_bytes=100)
        cache.put_table(("a", None), ("tok",), {"k": []}, 500, ["a"])
        assert len(cache) == 0

    def test_zero_budget_is_inert(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog, budget=0)
        first = serve(cluster, gateway, range_job(3, 7))
        second = serve(cluster, gateway, range_job(3, 7))
        assert not second.served_from_cache
        assert cache.insertions == 0 and len(cache) == 0
        assert row_values(second) == row_values(first)


class TestScanTableTier:
    def make_scan_job(self, catalog, low, high):
        logical = (ChainQuery(f"s{low}", interpreter=INTERP)
                   .from_index_range("idx_attr", low, high, base="t")
                   .join("dim", key="grp")
                   .logical_plan())
        physical = compile_logical(logical, catalog,
                                   [ACCESS_INDEX, ACCESS_SCAN])
        return physical.to_job(catalog)

    def test_different_jobs_share_the_scan_table(self):
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        first = serve(cluster, gateway, self.make_scan_job(catalog, 0, 4))
        second = serve(cluster, gateway,
                       self.make_scan_job(catalog, 20, 24))
        assert not second.served_from_cache  # different range: tier B miss
        assert first.result.metrics.scan_table_cache_hits == 0
        assert second.result.metrics.scan_table_cache_hits == 1
        assert cache.table_insertions >= 1 and cache.table_hits == 1
        # adopting the table skips the build IO entirely
        assert (second.result.metrics.scan_stage_bytes
                < first.result.metrics.scan_stage_bytes)

    def test_adopted_table_answers_correctly(self):
        catalog = make_catalog()
        cluster, gateway, __ = make_gateway(catalog)
        serve(cluster, gateway, self.make_scan_job(catalog, 0, 4))
        warm = serve(cluster, gateway, self.make_scan_job(catalog, 20, 24))
        plain_cluster, plain_gateway, __ = make_gateway(catalog,
                                                        budget=None)
        plain = serve(plain_cluster, plain_gateway,
                      self.make_scan_job(catalog, 20, 24))
        assert row_set(warm) == row_set(plain)


# -- the guards that keep wrong rows out of the cache --------------------


def hand_range_job(low, high, index_filter=None, base=None):
    """``range_job`` written out by hand, so its stages can be swapped."""
    return (JobBuilder(f"hand{low}-{high}")
            .dereference(IndexRangeDereferencer("idx_attr",
                                                filter=index_filter))
            .reference(IndexEntryReferencer("t"))
            .dereference(base or FileLookupDereferencer("t"))
            .input(PointerRange("idx_attr", low, high))
            .build())


def pointer_job(keys):
    return (JobBuilder("pointers")
            .dereference(FileLookupDereferencer("t"))
            .inputs([Pointer("t", key, key) for key in keys])
            .build())


def run_all(cluster, gateway, submissions):
    tickets = [gateway.submit("t0", job, fallback_job=fallback)
               for job, fallback in submissions]
    for ticket in tickets:
        if not ticket.finished:
            cluster.run_until(ticket.done)
    return tickets


class TestCacheGuards:
    def test_opaque_index_filter_is_never_served_from_cache(self):
        """An opaque predicate has no value identity, so a job carrying
        one on its index dereferencer must not be cached, not even when
        the very same job object comes back."""
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        job = hand_range_job(
            0, 9, index_filter=PredicateFilter(lambda r, c: True))
        first = serve(cluster, gateway, job)
        again = serve(cluster, gateway, job)
        assert first.result.rows
        assert not again.served_from_cache
        assert cache.insertions == 0 and cache.hits == 0
        assert row_values(again) == row_values(first)

    def test_pointer_input_job_is_cached_and_served_identically(self):
        """Pointer inputs are part of the job's signature: the repeat is
        a hit with the same rows, and other pointers are another entry."""
        catalog = make_catalog()
        cluster, gateway, cache = make_gateway(catalog)
        first = serve(cluster, gateway, pointer_job([5, 9, 11]))
        repeat = serve(cluster, gateway, pointer_job([5, 9, 11]))
        other = serve(cluster, gateway, pointer_job([6, 10]))
        assert len(first.result.rows) == 3
        assert repeat.served_from_cache
        assert row_values(repeat) == row_values(first)
        assert not other.served_from_cache
        assert sorted(row.record["pk"] for row in other.result.rows) == [
            6, 10]
        assert cache.insertions == 2 and cache.hits == 1

    @pytest.mark.parametrize("outcome", ["failed", "degraded"])
    def test_failed_or_degraded_job_is_stripped_and_not_inserted(
            self, outcome):
        """Rows of a job that failed or ran its degraded plan reach the
        caller without the provenance key, and nothing is cached."""
        catalog = make_catalog()
        cluster = Cluster(ClusterSpec(num_nodes=NUM_NODES))
        cache = SemanticResultCache(8 << 20)
        if outcome == "failed":
            class Failing(FileLookupDereferencer):
                """Fails its last fetch, once earlier rows are out."""
                calls = 0

                def fetch(self, file, target, partition_id):
                    self.calls += 1
                    if self.calls == 200:
                        raise ValueError("fetch 200 fails")
                    return super().fetch(file, target, partition_id)

            # one thread per node, so rows finish before the last fetch
            gateway = QueryGateway(cluster, catalog,
                                   EngineConfig(thread_pool_size=1),
                                   result_cache=cache)
            submissions = [(hand_range_job(0, 9, base=Failing("t")), None)]
        else:
            gateway = QueryGateway(
                cluster, catalog, max_concurrent=1, result_cache=cache,
                policy=OverloadPolicy(degrade_depth=1, shed_depth=8))
            submissions = [(hand_range_job(10 * i, 10 * i + 4),
                            hand_range_job(10 * i, 10 * i + 4))
                           for i in range(3)]
        gateway.register(TenantSpec("t0"))
        tickets = run_all(cluster, gateway, submissions)
        if outcome == "failed":
            [spoiled] = tickets
            assert spoiled.state == "failed"
        else:
            spoiled = next(t for t in tickets if t.degraded)
            assert spoiled.state == "completed"
        assert spoiled.result.rows
        assert all(PROVENANCE_KEY not in row.context
                   for row in spoiled.result.rows)
        clean = [t for t in tickets if t.state == "completed"
                 and not t.degraded]
        assert cache.insertions == len(clean)
        assert len(cache) == len(clean)
