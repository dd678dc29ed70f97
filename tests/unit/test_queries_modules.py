"""Unit tests for the workload modules: TpchWorkload and ClaimsLake."""

import pytest

from repro.core.functions import Dereferencer, Referencer
from repro.core.pointers import PointerRange
from repro.datagen import ClaimsGenerator
from repro.datagen.rng import date_range_days
from repro.datagen.tpch import END_DATE, START_DATE
from repro.engine import ReDeExecutor
from repro.queries import (
    CASE_STUDY_QUERIES,
    ClaimsLake,
    TpchWorkload,
    sum_expenses,
)


@pytest.fixture(scope="module")
def workload():
    return TpchWorkload(scale_factor=0.001, seed=9, num_nodes=4,
                        block_size=64 * 1024)


class TestTpchWorkload:
    def test_all_tables_loaded_both_substrates(self, workload):
        for name in ("region", "nation", "supplier", "customer", "part",
                     "orders", "lineitem"):
            assert name in workload.catalog
            assert name in workload.blockstore

    def test_paper_index_layout(self, workload):
        date_index = workload.dfs.get_index("idx_orders_orderdate")
        assert date_index.scope == "local"
        fk_index = workload.dfs.get_index("idx_lineitem_partkey")
        assert fk_index.scope == "global"
        assert workload.catalog.pending() == []  # built up front

    def test_q5_job_shape(self, workload):
        job = workload.q5_job("1994-01-01", "1994-06-30")
        assert job.num_stages == 13  # 7 dereferences, 6 referencers
        kinds = [isinstance(f, Dereferencer) for f in job.functions]
        assert kinds == [True, False] * 6 + [True]
        assert isinstance(job.inputs[0], PointerRange)
        assert job.structures()[0] == "idx_orders_orderdate"
        assert job.structures()[-1] == "supplier"

    def test_q5_scan_plan_covers_six_tables(self, workload):
        from repro.plan.planner import plan_joins, plan_tables

        plan = workload.q5_scan_plan("1994-01-01", "1994-06-30")
        assert sorted(plan_tables(plan)) == [
            "customer", "lineitem", "nation", "orders", "region",
            "supplier"]
        assert plan_joins(plan) == 5

    def test_date_range_matches_generator(self, workload):
        low, high = workload.date_range(0.1)
        days = date_range_days(low, high) + 1
        span = date_range_days(START_DATE, END_DATE) + 1
        assert days / span == pytest.approx(0.1, rel=0.05)

    def test_total_bytes_positive(self, workload):
        assert workload.total_bytes > 0

    def test_make_cluster_balanced(self, workload):
        cluster = workload.make_cluster(scan_seconds=0.3)
        per_node = workload.total_bytes / workload.num_nodes
        assert (per_node / cluster.spec.node.disk.seq_bandwidth
                == pytest.approx(0.3))


class TestClaimsLake:
    @pytest.fixture(scope="class")
    def lake(self):
        claims = ClaimsGenerator(num_claims=500, seed=4).generate()
        return ClaimsLake(claims, num_nodes=2)

    def test_structures_registered_and_built(self, lake):
        assert "idx_claims_disease" in lake.catalog
        assert "idx_claims_medicine" in lake.catalog
        assert lake.catalog.pending() == []

    def test_case_study_queries_table(self):
        assert set(CASE_STUDY_QUERIES) == {"Q1", "Q2", "Q3"}
        for label, diseases, medicines in CASE_STUDY_QUERIES.values():
            assert diseases and medicines and label

    def test_run_by_query_id(self, lake):
        __, diseases, medicines = CASE_STUDY_QUERIES["Q1"]
        total, result = lake.query_expenses(diseases, medicines)
        assert total > 0
        assert result.metrics.record_accesses > 0

    def test_expenses_job_two_hops(self, lake):
        __, diseases, medicines = CASE_STUDY_QUERIES["Q1"]
        job = lake.expenses_job(diseases, medicines)
        assert job.num_stages == 3
        assert len(job.inputs) == len(diseases)

    def test_sum_expenses_dedupes_claims(self, lake):
        """A claim diagnosed with two matching codes counts once."""
        __, diseases, medicines = CASE_STUDY_QUERIES["Q1"]
        result = lake.executor.execute(
            lake.expenses_job(list(diseases) * 2, medicines))
        total_doubled = sum_expenses(result)
        total_once, __ = lake.query_expenses(diseases, medicines)
        assert total_doubled == total_once

    def test_query_with_unknown_codes_empty(self, lake):
        total, result = lake.query_expenses(["SY-NOPE"], ["IY-NOPE"])
        assert total == 0
        assert result.rows == []
