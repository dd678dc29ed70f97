"""Unit tests for the TPC-H and insurance-claims generators."""

import pytest

from repro.datagen import (
    ClaimInterpreter,
    ClaimsGenerator,
    DISEASE_PROFILES,
    TpchGenerator,
    claim_id_of,
    disease_codes_of,
    medicine_codes_of,
)
from repro.datagen.rng import date_range_days
from repro.datagen.tpch import END_DATE, START_DATE
from repro.errors import DataGenerationError


@pytest.fixture(scope="module")
def tpch():
    return TpchGenerator(scale_factor=0.002, seed=42)


@pytest.fixture(scope="module")
def tables(tpch):
    return tpch.generate_all()


class TestTpchCardinalities:
    def test_fixed_tables(self, tables):
        assert len(tables["region"]) == 5
        assert len(tables["nation"]) == 25

    def test_scaled_tables(self, tpch, tables):
        assert len(tables["supplier"]) == round(10_000 * 0.002)
        assert len(tables["customer"]) == round(150_000 * 0.002)
        assert len(tables["part"]) == round(200_000 * 0.002)
        assert len(tables["orders"]) == round(1_500_000 * 0.002)
        assert len(tables["partsupp"]) == 4 * len(tables["part"])

    def test_lineitem_per_order_ratio(self, tables):
        ratio = len(tables["lineitem"]) / len(tables["orders"])
        assert 3.0 < ratio < 5.0  # uniform 1..7 averages 4

    def test_invalid_scale_factor(self):
        with pytest.raises(DataGenerationError):
            TpchGenerator(scale_factor=0)


class TestTpchIntegrity:
    def test_primary_keys_dense(self, tables):
        orderkeys = [r["o_orderkey"] for r in tables["orders"]]
        assert orderkeys == list(range(1, len(orderkeys) + 1))

    def test_foreign_keys_valid(self, tables):
        num_customers = len(tables["customer"])
        num_parts = len(tables["part"])
        num_suppliers = len(tables["supplier"])
        assert all(1 <= r["o_custkey"] <= num_customers
                   for r in tables["orders"])
        assert all(1 <= r["l_partkey"] <= num_parts
                   for r in tables["lineitem"])
        assert all(1 <= r["l_suppkey"] <= num_suppliers
                   for r in tables["lineitem"])
        assert all(0 <= r["n_regionkey"] <= 4 for r in tables["nation"])
        assert all(0 <= r["c_nationkey"] <= 24 for r in tables["customer"])

    def test_lineitems_reference_existing_orders(self, tables):
        orderkeys = {r["o_orderkey"] for r in tables["orders"]}
        assert all(r["l_orderkey"] in orderkeys
                   for r in tables["lineitem"])

    def test_dates_within_spec_window(self, tables):
        dates = [r["o_orderdate"] for r in tables["orders"]]
        assert min(dates) >= "1992-01-01"
        assert max(dates) <= "1998-08-02"

    def test_deterministic(self):
        a = TpchGenerator(scale_factor=0.001, seed=7).generate_all()
        b = TpchGenerator(scale_factor=0.001, seed=7).generate_all()
        for name in a:
            assert a[name] == b[name]

    def test_different_seeds_differ(self):
        a = TpchGenerator(scale_factor=0.001, seed=7).orders()
        b = TpchGenerator(scale_factor=0.001, seed=8).orders()
        assert a != b

    def test_orders_and_lineitems_consistent_with_separate_calls(self, tpch):
        orders, lineitems = tpch.orders_and_lineitems()
        assert orders == tpch.orders()
        assert lineitems == tpch.lineitem()


class TestSelectivityHelpers:
    def test_roundtrip(self, tpch):
        for selectivity in [0.001, 0.01, 0.1, 0.5, 1.0]:
            low, high = tpch.date_range_for_selectivity(selectivity)
            actual = ((date_range_days(low, high) + 1)
                      / (date_range_days(START_DATE, END_DATE) + 1))
            assert actual == pytest.approx(selectivity, rel=0.05, abs=1e-3)

    def test_empirical_selectivity_close(self, tpch, tables):
        low, high = tpch.date_range_for_selectivity(0.2)
        matched = sum(1 for r in tables["orders"]
                      if low <= r["o_orderdate"] <= high)
        assert matched / len(tables["orders"]) == pytest.approx(0.2,
                                                                abs=0.04)

    def test_invalid_selectivity(self, tpch):
        with pytest.raises(DataGenerationError):
            tpch.date_range_for_selectivity(0)
        with pytest.raises(DataGenerationError):
            tpch.date_range_for_selectivity(1.5)


@pytest.fixture(scope="module")
def claims():
    return ClaimsGenerator(num_claims=2000, seed=5).generate()


@pytest.fixture(scope="module")
def interp():
    return ClaimInterpreter()


class TestClaimsGenerator:
    def test_count_and_raw_text(self, claims):
        assert len(claims) == 2000
        assert all(isinstance(c.data, str) for c in claims)
        assert all(c.data.startswith("IR,") for c in claims)

    def test_interpreter_parses_core_fields(self, claims, interp):
        view = interp.interpret(claims[0])
        assert view["claim_id"] == 1
        assert view["claim_type"] in ("piecework", "DPC")
        assert view["category"] in ("inpatient", "outpatient")
        assert view["total_points"] > 0
        assert isinstance(view["diseases"], list)
        assert isinstance(view["medicines"], list)

    def test_dpc_claims_have_extra_field(self, claims, interp):
        views = [interp.interpret(c) for c in claims]
        dpc = [v for v in views if v["claim_type"] == "DPC"]
        piecework = [v for v in views if v["claim_type"] == "piecework"]
        assert dpc and piecework  # both layouts occur
        assert all("dpc_code" in v for v in dpc)
        assert all("dpc_code" not in v for v in piecework)

    def test_total_points_consistent(self, claims, interp):
        view = interp.interpret(claims[10])
        assert view["total_points"] >= sum(view["medicine_points"].values())

    def test_prevalences_roughly_match_profiles(self, claims, interp):
        views = [interp.interpret(c) for c in claims]
        for profile in DISEASE_PROFILES.values():
            hit = sum(1 for v in views
                      if any(d in profile.disease_codes
                             for d in v["diseases"]))
            assert hit / len(views) == pytest.approx(profile.prevalence,
                                                     abs=0.05)

    def test_cooccurrence_present(self, claims, interp):
        profile = DISEASE_PROFILES["hypertension"]
        views = [interp.interpret(c) for c in claims]
        with_disease = [v for v in views
                        if any(d in profile.disease_codes
                               for d in v["diseases"])]
        with_both = [v for v in with_disease
                     if any(m in profile.medicine_codes
                            for m in v["medicines"])]
        rate = len(with_both) / len(with_disease)
        assert rate == pytest.approx(profile.prescription_rate, abs=0.12)

    def test_key_extractors(self, claims):
        assert claim_id_of(claims[0]) == 1
        assert isinstance(disease_codes_of(claims[0]), list)
        assert isinstance(medicine_codes_of(claims[0]), list)

    def test_interpreter_tolerates_garbage(self, interp):
        from repro.core import Record

        view = interp.interpret(Record("XX,1,2\nIR,notanint\nSY"))
        assert view["diseases"] == []
        assert "claim_id" not in view
        assert interp.interpret(Record({"not": "text"})) == {}

    def test_deterministic(self):
        a = ClaimsGenerator(num_claims=50, seed=1).generate()
        b = ClaimsGenerator(num_claims=50, seed=1).generate()
        assert a == b

    def test_invalid_params(self):
        with pytest.raises(DataGenerationError):
            ClaimsGenerator(num_claims=0)
