"""Unit tests for the serving layer's pure pieces.

Tenant contracts, percentile math, the weighted-fair scheduler's lane
and virtual-time rules, and the overload ladder — everything here runs
without a cluster; the gateway's end-to-end behaviour lives in
``tests/integration/test_service_gateway.py``.
"""

import pytest

from repro.engine.metrics import ExecutionMetrics
from repro.errors import ExecutionError
from repro.service import (
    FairScheduler,
    OverloadPolicy,
    QueuedRequest,
    ServiceMetrics,
    TenantSpec,
    percentile,
)


def req(tenant, lane="interactive", cost=1.0, arrival=0.0):
    return QueuedRequest(tenant=tenant, lane=lane, cost_hint=cost,
                         arrival=arrival)


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec("web")
        assert spec.weight == 1.0
        assert spec.max_queued == 64

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "t", "weight": 0.0},
        {"name": "t", "weight": -1.0},
        {"name": "t", "max_queued": -1},
    ])
    def test_rejects_bad_contracts(self, kwargs):
        with pytest.raises(ExecutionError):
            TenantSpec(**kwargs)

    def test_zero_max_queued_is_legal(self):
        # Admits nothing, but the spec itself is valid (a drained tenant).
        assert TenantSpec("t", max_queued=0).max_queued == 0


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank_is_an_observed_sample(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.50) == 3.0
        assert percentile(samples, 0.99) == 5.0
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 5.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ExecutionError):
            percentile([1.0], 1.5)


class TestServiceMetrics:
    def test_dropped_sums_every_refusal_kind(self):
        m = ServiceMetrics(tenant="t", rejected=1, backpressured=2,
                           shed=3, expired_queued=4)
        assert m.dropped == 10

    def test_goodput_over_the_tenant_window(self):
        m = ServiceMetrics(tenant="t")
        m.note_arrival(1.0)
        m.note_arrival(2.0)
        m.note_completion(1.0, 2.0)
        m.note_completion(2.0, 3.0)
        assert m.submitted == 2
        assert m.completed == 2
        assert m.goodput() == pytest.approx(2 / (3.0 - 1.0))
        assert m.latencies == [1.0, 1.0]

    def test_goodput_zero_without_completions(self):
        m = ServiceMetrics(tenant="t")
        m.note_arrival(1.0)
        assert m.goodput() == 0.0

    def test_merge_engine_accumulates_counters(self):
        m = ServiceMetrics(tenant="t")
        one = ExecutionMetrics()
        one.record_accesses = 10
        one.elapsed_seconds = 0.5
        m.engine.merge(one)
        m.engine.merge(one)
        assert m.engine.record_accesses == 20
        assert m.engine.elapsed_seconds == pytest.approx(1.0)

    def test_merge_engine_keeps_stalest_watermark(self):
        """Satellite fix: a watermark is an identifier, not a counter —
        the tenant-level value is the min over jobs, never a sum."""
        m = ServiceMetrics(tenant="t")
        fresh, stale = ExecutionMetrics(), ExecutionMetrics()
        fresh.freshness_watermark = 7.0
        stale.freshness_watermark = 3.0
        m.engine.merge(fresh)
        assert m.engine.freshness_watermark == 7.0
        m.engine.merge(stale)
        assert m.engine.freshness_watermark == 3.0
        m.engine.merge(fresh)  # a fresher later job never raises it
        assert m.engine.freshness_watermark == 3.0

    def test_merge_engine_keeps_largest_peak_parallelism(self):
        """A per-job peak folds as max, never as a sum."""
        m = ServiceMetrics(tenant="t")
        for peak in (5, 7):
            job = ExecutionMetrics()
            job.peak_parallelism = peak
            m.engine.merge(job)
        assert m.engine.peak_parallelism == 7

    def test_merge_engine_keeps_batch_fill(self):
        """The fill ratio is derived, so the merge must fold its capacity
        denominator as a sum."""
        m = ServiceMetrics(tenant="t")
        for probes in (3, 13):
            job = ExecutionMetrics()
            job.count_batch(probes, 16)
            m.engine.merge(job)
        assert m.engine.batches == 2
        assert m.engine.batched_probes == 16
        assert m.engine.batched_capacity == 32
        assert m.engine.batch_fill == pytest.approx(0.5)


class TestFairSchedulerLanes:
    def test_interactive_preempts_background_in_queue(self):
        sched = FairScheduler()
        sched.register(TenantSpec("maint"))
        sched.register(TenantSpec("web"))
        for __ in range(3):
            sched.enqueue(req("maint", lane="background"))
        sched.enqueue(req("web"))
        assert sched.next().tenant == "web"  # jumped the queue
        assert sched.next().tenant == "maint"

    def test_unknown_lane_and_tenant_rejected(self):
        sched = FairScheduler()
        sched.register(TenantSpec("t"))
        with pytest.raises(ExecutionError):
            sched.enqueue(req("t", lane="bulk"))
        with pytest.raises(ExecutionError):
            sched.enqueue(req("ghost"))

    def test_empty_scheduler_yields_none(self):
        sched = FairScheduler()
        assert sched.next() is None
        assert sched.shed_one() is None


class TestFairSchedulerWfq:
    def test_equal_weights_alternate(self):
        sched = FairScheduler()
        sched.register(TenantSpec("a"))
        sched.register(TenantSpec("b"))
        for __ in range(3):
            sched.enqueue(req("a"))
            sched.enqueue(req("b"))
        order = [sched.next().tenant for __ in range(6)]
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_weight_two_drains_twice_as_fast(self):
        sched = FairScheduler()
        sched.register(TenantSpec("heavy", weight=2.0))
        sched.register(TenantSpec("light", weight=1.0))
        for __ in range(4):
            sched.enqueue(req("heavy"))
            sched.enqueue(req("light"))
        order = [sched.next().tenant for __ in range(6)]
        assert order.count("heavy") == 4
        assert order.count("light") == 2

    def test_flooder_cannot_starve_a_modest_tenant(self):
        """A tenant submitting 10x its share still alternates 1:1."""
        sched = FairScheduler()
        sched.register(TenantSpec("flood"))
        sched.register(TenantSpec("modest"))
        for __ in range(20):
            sched.enqueue(req("flood"))
        for __ in range(2):
            sched.enqueue(req("modest"))
        first_four = [sched.next().tenant for __ in range(4)]
        # Both of modest's requests clear in the first four dispatches.
        assert first_four.count("modest") == 2

    def test_idle_tenant_earns_no_credit(self):
        sched = FairScheduler()
        sched.register(TenantSpec("busy"))
        sched.register(TenantSpec("idle"))
        for __ in range(10):
            sched.enqueue(req("busy"))
        for __ in range(6):
            sched.next()
        # idle returns after sitting out: it is caught up, not owed 6.
        sched.enqueue(req("idle"))
        sched.enqueue(req("idle"))
        order = [sched.next().tenant for __ in range(4)]
        assert order != ["idle", "idle", "idle", "idle"]
        assert order.count("idle") == 2

    def test_dispatch_deterministic_name_tiebreak(self):
        sched = FairScheduler()
        sched.register(TenantSpec("b"))
        sched.register(TenantSpec("a"))
        sched.enqueue(req("b"))
        sched.enqueue(req("a"))
        assert sched.next().tenant == "a"


class TestShedOne:
    def test_sheds_lowest_lane_newest_of_deepest_tenant(self):
        sched = FairScheduler()
        sched.register(TenantSpec("web"))
        sched.register(TenantSpec("maint"))
        sched.enqueue(req("web"))
        old = req("maint", lane="background", arrival=1.0)
        new = req("maint", lane="background", arrival=2.0)
        sched.enqueue(old)
        sched.enqueue(new)
        victim = sched.shed_one(protect_lane="interactive")
        assert victim is new  # newest of the backlogged background tenant
        assert sched.depth("web") == 1

    def test_protected_lane_never_shed(self):
        sched = FairScheduler()
        sched.register(TenantSpec("web"))
        sched.enqueue(req("web"))
        assert sched.shed_one(protect_lane="interactive") is None
        assert sched.shed_one() is not None

    def test_remove_targets_one_request(self):
        sched = FairScheduler()
        sched.register(TenantSpec("t"))
        a, b = req("t"), req("t")
        sched.enqueue(a)
        sched.enqueue(b)
        assert sched.remove(a)
        assert not sched.remove(a)  # already gone
        assert sched.next() is b


class TestOverloadPolicy:
    def test_ladder_levels(self):
        policy = OverloadPolicy(degrade_depth=4, shed_depth=8)
        assert policy.level(0) == 0
        assert policy.level(3) == 0
        assert policy.level(4) == 1
        assert policy.level(7) == 1
        assert policy.level(8) == 2

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ExecutionError):
            OverloadPolicy(degrade_depth=8, shed_depth=4)
        with pytest.raises(ExecutionError):
            OverloadPolicy(degrade_depth=0)
