"""Buffer-pool subsystem: eviction policies, budgets, stats, invalidation."""

import pytest

from repro.errors import StorageError
from repro.storage.cache import (
    CACHE_POLICIES,
    BufferPool,
    CacheStats,
    PageId,
)

PAGE = 1024


def pid(n, kind="heap", file="f", partition=0):
    return PageId(file, partition, kind, n)


def fill(pool, count, **kw):
    for n in range(count):
        pool.insert(pid(n, **kw), PAGE)


class TestBufferPoolBasics:
    def test_miss_then_hit(self):
        pool = BufferPool(4 * PAGE)
        page = pid(1)
        assert not pool.lookup(page)
        pool.insert(page, PAGE)
        assert pool.lookup(page)
        assert (pool.hits, pool.misses) == (1, 1)
        assert page in pool and len(pool) == 1

    def test_byte_budget_evicts(self):
        pool = BufferPool(4 * PAGE)
        fill(pool, 6)
        assert len(pool) == 4
        assert pool.resident_bytes == 4 * PAGE
        assert pool.evictions == 2

    def test_zero_capacity_pool_is_disabled(self):
        pool = BufferPool(0)
        assert not pool.enabled

    def test_oversized_page_is_never_cached(self):
        pool = BufferPool(4 * PAGE)
        pool.insert(pid(1), 5 * PAGE)
        assert len(pool) == 0

    def test_nonpositive_page_bytes_rejected(self):
        pool = BufferPool(4 * PAGE)
        with pytest.raises(StorageError):
            pool.insert(pid(1), 0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(StorageError):
            BufferPool(PAGE, policy="mru")

    def test_reinsert_refreshes_recency(self):
        pool = BufferPool(2 * PAGE)
        pool.insert(pid(0), PAGE)
        pool.insert(pid(1), PAGE)
        pool.insert(pid(0), PAGE)  # refresh, not duplicate
        assert len(pool) == 2
        pool.insert(pid(2), PAGE)  # evicts the stale page 1
        assert pid(0) in pool and pid(1) not in pool


class TestEvictionPolicies:
    def test_lru_evicts_least_recently_used(self):
        pool = BufferPool(3 * PAGE, policy="lru")
        fill(pool, 3)
        pool.lookup(pid(0))  # 0 is now the most recent
        pool.insert(pid(3), PAGE)
        assert pid(1) not in pool
        assert pid(0) in pool

    def test_2q_scan_does_not_flush_the_hot_set(self):
        pool = BufferPool(8 * PAGE, policy="2q")
        hot = [pid(n, file="hot") for n in range(4)]
        for page in hot:
            pool.insert(page, PAGE)
        for page in hot:  # second touch promotes to protected
            assert pool.lookup(page)
        for n in range(100):  # one-shot scan, each page touched once
            pool.insert(pid(n, file="scan"), PAGE)
        assert all(page in pool for page in hot)

    def test_lru_scan_flushes_the_hot_set(self):
        pool = BufferPool(8 * PAGE, policy="lru")
        hot = [pid(n, file="hot") for n in range(4)]
        for page in hot:
            pool.insert(page, PAGE)
            pool.lookup(page)
        for n in range(100):
            pool.insert(pid(n, file="scan"), PAGE)
        assert not any(page in pool for page in hot)

    def test_2q_probation_hit_is_a_promotion(self):
        pool = BufferPool(8 * PAGE, policy="2q")
        pool.insert(pid(0), PAGE)       # probation
        assert pool.lookup(pid(0))      # promoted
        fill(pool, 20, file="scan")     # churns probation only
        assert pid(0) in pool

    @pytest.mark.parametrize("policy", CACHE_POLICIES)
    def test_every_policy_respects_the_budget(self, policy):
        pool = BufferPool(5 * PAGE, policy=policy)
        for n in range(50):
            pool.insert(pid(n), PAGE)
            if n % 3 == 0:
                pool.lookup(pid(n))
        assert pool.resident_bytes <= 5 * PAGE
        assert len(pool) == 5


class TestInvalidationAndDrop:
    def test_invalidate_file_drops_only_that_file(self):
        pool = BufferPool(8 * PAGE)
        pool.insert(pid(0, file="a"), PAGE)
        pool.insert(pid(1, file="a", partition=1), PAGE)
        pool.insert(pid(0, file="b"), PAGE)
        assert pool.invalidate_file("a") == 2
        assert pid(0, file="b") in pool
        assert pool.invalidations == 2
        assert pool.evictions == 0

    def test_invalidate_single_partition(self):
        pool = BufferPool(8 * PAGE)
        pool.insert(pid(0, partition=0), PAGE)
        pool.insert(pid(0, partition=1), PAGE)
        assert pool.invalidate_file("f", partition=1) == 1
        assert pid(0, partition=0) in pool

    @pytest.mark.parametrize("policy", CACHE_POLICIES)
    def test_invalidated_pages_never_resurface_as_victims(self, policy):
        pool = BufferPool(3 * PAGE, policy=policy)
        fill(pool, 3)
        pool.lookup(pid(1))
        pool.invalidate_file("f")
        fill(pool, 3, file="g")  # must not trip over stale policy state
        assert len(pool) == 3

    def test_drop_all_keeps_statistics(self):
        pool = BufferPool(4 * PAGE)
        fill(pool, 4)
        pool.lookup(pid(0))
        assert pool.drop_all() == 4
        assert len(pool) == 0 and pool.resident_bytes == 0
        assert pool.hits == 1 and pool.misses == 0
        assert pool.evictions == 0  # a crash is not an eviction
        pool.insert(pid(9), PAGE)  # pool still works after the drop
        assert pid(9) in pool


class TestCacheStats:
    def test_per_kind_hit_rates(self):
        pool = BufferPool(8 * PAGE)
        pool.insert(pid(0, kind="leaf"), PAGE)
        pool.lookup(pid(0, kind="leaf"))
        pool.lookup(pid(1, kind="interior"))
        stats = pool.stats()
        assert stats.hit_rate_for("leaf") == 1.0
        assert stats.hit_rate_for("interior") == 0.0
        assert stats.hit_rate == 0.5
        summary = stats.summary()
        assert summary["hit_rate_leaf"] == 1.0
        assert summary["hits"] == 1 and summary["misses"] == 1

    def test_aggregate_sums_counters(self):
        pools = [BufferPool(4 * PAGE, name=f"n{i}") for i in range(2)]
        for pool in pools:
            pool.insert(pid(0), PAGE)
            pool.lookup(pid(0))
        total = CacheStats.aggregate(pool.stats() for pool in pools)
        assert total.hits == 2 and total.misses == 0
        assert total.capacity_bytes == 8 * PAGE
        assert total.resident_pages == 2

    def test_aggregate_of_nothing_is_zero(self):
        total = CacheStats.aggregate([])
        assert total.hits == 0 and total.hit_rate == 0.0

    def test_snapshot_is_a_copy(self):
        pool = BufferPool(4 * PAGE)
        snap = pool.stats()
        pool.lookup(pid(0))
        assert snap.misses == 0
