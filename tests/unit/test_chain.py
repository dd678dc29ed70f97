"""Unit + equivalence tests for the ChainQuery higher-level abstraction."""

from types import FunctionType

import pytest

from repro.cluster import Cluster
from repro.config import EngineConfig, laptop_cluster_spec
from repro.core.chain import ChainQuery
from repro.core.functions import (
    FileLookupDereferencer,
    IndexEntryReferencer,
    IndexLookupDereferencer,
    IndexRangeDereferencer,
    KeyReferencer,
)
from repro.core.interpreters import (
    AndFilter,
    ContextMatchFilter,
    FieldEqualsFilter,
    Interpreter,
    MappingInterpreter,
    PredicateFilter,
)
from repro.core.job import JobBuilder
from repro.core.pointers import Pointer, PointerRange
from repro.datagen import ClaimsGenerator
from repro.datagen.claims import ClaimInterpreter
from repro.engine import ReDeExecutor
from repro.errors import JobDefinitionError
from repro.queries import (
    CASE_STUDY_QUERIES,
    ClaimsLake,
    TpchWorkload,
    canonical_q5_rows_rede,
)

INTERP = MappingInterpreter()
CLAIM_INTERP = ClaimInterpreter()


class TestChainStructure:
    def test_from_index_range_with_base(self):
        job = (ChainQuery("q")
               .from_index_range("idx", 1, 9, base="t")
               .build())
        kinds = [type(f) for f in job.functions]
        assert kinds == [IndexRangeDereferencer, IndexEntryReferencer,
                         FileLookupDereferencer]
        assert len(job.inputs) == 1

    def test_from_index_lookup_multiple_keys(self):
        job = (ChainQuery("q")
               .from_index_lookup("idx", ["a", "b", "c"], base="t")
               .build())
        assert len(job.inputs) == 3
        assert isinstance(job.functions[0], IndexLookupDereferencer)

    def test_from_pointers(self):
        job = ChainQuery("q").from_pointers("t", [1, 2]).build()
        assert len(job.functions) == 1
        assert len(job.inputs) == 2

    def test_chain_name_names_the_job(self):
        chain = ChainQuery("orders_by_day").from_pointers("t", [1])
        assert chain.name == "orders_by_day"
        assert chain.build().name == chain.name

    def test_direct_join_appends_two_functions(self):
        job = (ChainQuery("q")
               .from_pointers("t", [1])
               .join("u", key="fk")
               .build())
        assert isinstance(job.functions[1], KeyReferencer)
        assert isinstance(job.functions[2], FileLookupDereferencer)
        assert job.functions[2].file_name == "u"

    def test_join_via_index_appends_four_functions(self):
        job = (ChainQuery("q")
               .from_pointers("t", [1])
               .join("u", key="fk", via_index="idx_u")
               .build())
        kinds = [type(f) for f in job.functions[1:]]
        assert kinds == [KeyReferencer, IndexLookupDereferencer,
                         IndexEntryReferencer, FileLookupDereferencer]

    def test_join_from_context(self):
        job = (ChainQuery("q")
               .from_pointers("t", [1])
               .join("u", key="fk", carry=["saved"])
               .join("v", context_key="saved")
               .build())
        referencer = job.functions[3]
        assert referencer.key_from_context == "saved"

    def test_broadcast_join(self):
        job = (ChainQuery("q")
               .from_pointers("t", [1])
               .join("u", key="fk", broadcast=True)
               .build())
        assert job.functions[1].broadcast

    def test_filters_attach_and_conjoin(self):
        job = (ChainQuery("q")
               .from_pointers("t", [1])
               .filter_equals("a", 1)
               .filter_range("b", 0, 9)
               .build())
        assert isinstance(job.functions[0].filter, AndFilter)

    def test_two_sources_rejected(self):
        chain = ChainQuery("q").from_pointers("t", [1])
        with pytest.raises(JobDefinitionError):
            chain.from_pointers("u", [2])

    def test_join_before_source_rejected(self):
        with pytest.raises(JobDefinitionError):
            ChainQuery("q").join("u", key="fk")

    def test_filter_before_source_rejected(self):
        with pytest.raises(JobDefinitionError):
            ChainQuery("q").filter_equals("a", 1)


def handwritten_q5_job(low, high, region):
    """Q5' as it was written by hand before it became a chain."""
    return (
        JobBuilder("tpch_q5")
        .dereference(IndexRangeDereferencer("idx_orders_orderdate"))
        .reference(IndexEntryReferencer("orders"))
        .dereference(FileLookupDereferencer("orders"))
        .reference(KeyReferencer(
            "customer", INTERP, "o_custkey",
            carry=["o_orderkey", "o_orderdate"]))
        .dereference(FileLookupDereferencer("customer"))
        .reference(KeyReferencer(
            "nation", INTERP, "c_nationkey",
            carry=["c_custkey", "c_nationkey"]))
        .dereference(FileLookupDereferencer("nation"))
        .reference(KeyReferencer(
            "region", INTERP, "n_regionkey", carry=["n_name"]))
        .dereference(FileLookupDereferencer(
            "region", filter=FieldEqualsFilter(INTERP, "r_name", region)))
        .reference(KeyReferencer(
            "lineitem", INTERP, key_from_context="o_orderkey",
            carry=["r_name"]))
        .dereference(FileLookupDereferencer("lineitem"))
        .reference(KeyReferencer(
            "supplier", INTERP, "l_suppkey",
            carry=["l_orderkey", "l_linenumber", "l_suppkey",
                   "l_extendedprice", "l_discount"]))
        .dereference(FileLookupDereferencer(
            "supplier", filter=ContextMatchFilter(INTERP, "s_nationkey",
                                                  "c_nationkey")))
        .input(PointerRange("idx_orders_orderdate", low, high))
        .build())


def handwritten_expenses_job(disease_codes, medicine_codes):
    """The claims case-study job as it was written by hand."""
    medicine_set = set(medicine_codes)
    medicine_filter = PredicateFilter(
        lambda record, __: any(
            code in medicine_set
            for code in CLAIM_INTERP.field(record, "medicines") or []),
        name="co-prescribed-medicine")
    builder = (
        JobBuilder("claims_expenses")
        .dereference(IndexLookupDereferencer("idx_claims_disease"))
        .reference(IndexEntryReferencer("claims"))
        .dereference(FileLookupDereferencer("claims",
                                            filter=medicine_filter)))
    for code in disease_codes:
        builder.input(Pointer("idx_claims_disease", code, code))
    return builder.build()


def shape(value):
    """A comparable view of a job function: its type and attributes,
    recursively.  Interpreters compare by type and plain functions
    (opaque predicates) by kind; the run comparisons cover behaviour."""
    if isinstance(value, Interpreter):
        return type(value)
    if isinstance(value, FunctionType):
        return FunctionType
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [shape(item) for item in value]
    if hasattr(value, "__dict__"):
        return type(value), shape(vars(value))
    return value


def assert_same_job(derived, oracle):
    assert derived.name == oracle.name
    assert derived.inputs == oracle.inputs
    assert ([shape(f) for f in derived.functions]
            == [shape(f) for f in oracle.functions])


def run_rows(executor, job):
    result = executor.execute(job)
    return result.metrics.summary(), [(row.record, dict(row.context))
                                      for row in result.rows]


RUNS = [("smpe", 1), ("smpe", 8), ("partitioned", 64)]


class TestChainEquivalence:
    """Q5' and the claims job are derived from chains; the hand-built
    jobs they replaced are the oracles."""

    @pytest.fixture(scope="class")
    def workload(self):
        return TpchWorkload(scale_factor=0.001, seed=3, num_nodes=4,
                            block_size=64 * 1024)

    @pytest.fixture(scope="class")
    def claims(self):
        return ClaimsLake(ClaimsGenerator(num_claims=400, seed=4).generate())

    def test_q5_job_is_the_handwritten_job(self, workload):
        low, high = workload.date_range(0.05)
        assert_same_job(workload.q5_job(low, high, "ASIA"),
                        handwritten_q5_job(low, high, "ASIA"))

    def test_expenses_job_is_the_handwritten_job(self, claims):
        for __, diseases, medicines in CASE_STUDY_QUERIES.values():
            assert_same_job(claims.expenses_job(diseases, medicines),
                            handwritten_expenses_job(diseases, medicines))

    def test_chain_q5_matches_handwritten(self, workload):
        low, high = workload.date_range(0.05)
        executor = ReDeExecutor(None, workload.catalog, mode="reference")
        handwritten = executor.execute(handwritten_q5_job(low, high,
                                                          "ASIA"))
        chained = executor.execute(workload.q5_job(low, high, "ASIA"))
        assert (canonical_q5_rows_rede(chained)
                == canonical_q5_rows_rede(handwritten))
        assert len(handwritten.rows) > 0
        # Same functions -> same access profile.
        assert (chained.metrics.record_accesses
                == handwritten.metrics.record_accesses)

    @pytest.mark.parametrize("mode,batch_size", RUNS)
    def test_q5_job_runs_like_the_oracle(self, workload, mode, batch_size):
        low, high = workload.date_range(0.05)
        config = EngineConfig(batch_size=batch_size)
        derived, oracle = (
            run_rows(ReDeExecutor(workload.make_cluster(), workload.catalog,
                                  config=config, mode=mode), job)
            for job in (workload.q5_job(low, high, "ASIA"),
                        handwritten_q5_job(low, high, "ASIA")))
        assert derived == oracle
        assert derived[1]

    @pytest.mark.parametrize("mode,batch_size", RUNS)
    def test_expenses_job_runs_like_the_oracle(self, claims, mode,
                                               batch_size):
        __, diseases, medicines = CASE_STUDY_QUERIES["Q1"]
        config = EngineConfig(batch_size=batch_size)
        derived, oracle = (
            run_rows(ReDeExecutor(Cluster(laptop_cluster_spec(4)),
                                  claims.catalog, config=config,
                                  mode=mode), job)
            for job in (claims.expenses_job(diseases, medicines),
                        handwritten_expenses_job(diseases, medicines)))
        assert derived == oracle
        assert derived[1]

    def test_chain_with_index_join_matches(self, workload):
        """Part->Lineitem through the global FK index, chain-form."""
        job = (ChainQuery("pl", interpreter=INTERP)
               .from_index_range("idx_part_retailprice", 1000, 1005,
                                 base="part")
               .join("lineitem", key="p_partkey",
                     via_index="idx_lineitem_partkey",
                     carry=["p_partkey"])
               .build())
        executor = ReDeExecutor(None, workload.catalog, mode="reference")
        result = executor.execute(job)
        expected = set()
        parts = {r["p_partkey"] for r in workload.tables["part"]
                 if 1000 <= r["p_retailprice"] <= 1005}
        for line in workload.tables["lineitem"]:
            if line["l_partkey"] in parts:
                expected.add((line["l_orderkey"], line["l_linenumber"]))
        got = {(row.record["l_orderkey"], row.record["l_linenumber"])
               for row in result.rows}
        assert got == expected
        assert expected
