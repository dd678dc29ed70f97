"""Unit tests for the structure catalog and maintenance/advisor."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.catalog import (
    AccessMethodDefinition,
    StructureCatalog,
    StructureState,
)
from repro.core.functions import FileLookupDereferencer, \
    IndexRangeDereferencer
from repro.core.interpreters import (
    FieldEqualsFilter,
    FieldRangeFilter,
    MappingInterpreter,
)
from repro.core.job import JobBuilder
from repro.core.maintenance import (
    MaintenanceWorker,
    StructureAdvisor,
    WorkloadStats,
)
from repro.core.pointers import Pointer, PointerRange
from repro.core.records import Record
from repro.errors import AccessMethodError, UnknownStructure
from repro.storage import DistributedFileSystem

INTERP = MappingInterpreter()


def fresh_catalog(num_records=50):
    dfs = DistributedFileSystem(num_nodes=2)
    catalog = StructureCatalog(dfs)
    records = [Record({"pk": i, "color": ["red", "blue"][i % 2],
                       "tags": [f"t{i % 3}", f"t{i % 5}"]})
               for i in range(num_records)]
    catalog.register_file("items", records, lambda r: r["pk"])
    return catalog


class TestAccessMethodDefinition:
    def test_needs_exactly_one_key_source(self):
        with pytest.raises(AccessMethodError):
            AccessMethodDefinition("i", "f")
        with pytest.raises(AccessMethodError):
            AccessMethodDefinition("i", "f", interpreter=INTERP,
                                   key_field="x", key_fn=lambda r: 1)

    def test_key_field_requires_interpreter(self):
        with pytest.raises(AccessMethodError):
            AccessMethodDefinition("i", "f", key_field="x")

    def test_scope_validated(self):
        with pytest.raises(AccessMethodError):
            AccessMethodDefinition("i", "f", interpreter=INTERP,
                                   key_field="x", scope="weird")

    def test_extract_keys_shapes(self):
        single = AccessMethodDefinition("i", "f", interpreter=INTERP,
                                        key_field="color")
        assert single.extract_keys(Record({"color": "red"})) == ["red"]
        assert single.extract_keys(Record({})) == []
        multi = AccessMethodDefinition("i", "f",
                                       key_fn=lambda r: r.get("tags"))
        assert multi.extract_keys(Record({"tags": ["a", "b"]})) == ["a", "b"]
        assert multi.extract_keys(Record({})) == []


class TestCatalogLifecycle:
    def test_register_then_lazy_build(self):
        catalog = fresh_catalog()
        definition = AccessMethodDefinition(
            "idx_color", "items", interpreter=INTERP, key_field="color")
        catalog.register_access_method(definition)
        assert catalog.state("idx_color") is StructureState.REGISTERED
        assert catalog.pending() == ["idx_color"]
        assert "idx_color" in catalog

        index = catalog.resolve("idx_color")  # triggers the build
        assert catalog.state("idx_color") is StructureState.BUILT
        assert catalog.pending() == []
        assert catalog.build_log == ["idx_color"]
        assert len(index) == 50

    def test_resolve_is_idempotent(self):
        catalog = fresh_catalog()
        catalog.register_access_method(AccessMethodDefinition(
            "idx_color", "items", interpreter=INTERP, key_field="color"))
        first = catalog.resolve("idx_color")
        second = catalog.resolve("idx_color")
        assert first is second
        assert catalog.build_log == ["idx_color"]

    def test_multi_valued_key_fn(self):
        catalog = fresh_catalog(num_records=10)
        catalog.register_access_method(AccessMethodDefinition(
            "idx_tags", "items", key_fn=lambda r: r.get("tags")))
        index = catalog.ensure_built("idx_tags")
        # two tags per record, though some coincide (t0 == t0)
        assert len(index) == sum(
            len(r.get("tags")) for r in catalog.dfs.get_base("items").scan())

    def test_duplicate_name_rejected(self):
        catalog = fresh_catalog()
        definition = AccessMethodDefinition(
            "idx_color", "items", interpreter=INTERP, key_field="color")
        catalog.register_access_method(definition)
        with pytest.raises(AccessMethodError):
            catalog.register_access_method(AccessMethodDefinition(
                "idx_color", "items", interpreter=INTERP,
                key_field="color"))
        with pytest.raises(AccessMethodError):
            catalog.register_access_method(AccessMethodDefinition(
                "items", "items", interpreter=INTERP, key_field="color"))

    def test_unknown_base_rejected(self):
        catalog = fresh_catalog()
        with pytest.raises(UnknownStructure):
            catalog.register_access_method(AccessMethodDefinition(
                "idx", "missing", interpreter=INTERP, key_field="x"))

    def test_unknown_structure_errors(self):
        catalog = fresh_catalog()
        with pytest.raises(UnknownStructure):
            catalog.resolve("nope")
        with pytest.raises(UnknownStructure):
            catalog.state("nope")
        with pytest.raises(UnknownStructure):
            catalog.definition("nope")

    def test_build_all(self):
        catalog = fresh_catalog()
        for name, field in [("idx_a", "color"), ("idx_b", "pk")]:
            catalog.register_access_method(AccessMethodDefinition(
                name, "items", interpreter=INTERP, key_field=field))
        built = catalog.build_all()
        assert set(built) == {"idx_a", "idx_b"}
        assert catalog.pending() == []

    def test_build_all_failure_leaves_finished_indexes_ready(self):
        catalog = fresh_catalog()
        catalog.register_file(
            "others", [Record({"pk": i}) for i in range(10)],
            lambda r: r["pk"])

        def broken(record):
            raise ValueError("bad key")

        for name, base, key_fn in [("idx_pk", "items", lambda r: r["pk"]),
                                   ("idx_bad", "others", broken),
                                   ("idx_color", "items",
                                    lambda r: r["color"])]:
            catalog.register_access_method(AccessMethodDefinition(
                name, base, key_fn=key_fn))
        with pytest.raises(ValueError):
            catalog.build_all()
        for name in ("idx_pk", "idx_color"):
            assert catalog.state(name) is StructureState.READY
        assert catalog.build_log == ["idx_pk", "idx_color"]
        assert catalog.pending() == ["idx_bad"]
        assert "idx_bad" not in catalog.dfs
        # the finished indexes are maintained by later inserts
        __, writes = catalog.insert_record(
            "items", Record({"pk": 99, "color": "red", "tags": []}))
        assert writes == 2

    def test_inventory(self):
        catalog = fresh_catalog()
        catalog.register_access_method(AccessMethodDefinition(
            "idx_color", "items", interpreter=INTERP, key_field="color",
            scope="local"))
        rows = {row["name"]: row for row in catalog.inventory()}
        assert rows["items"]["kind"] == "base file"
        assert rows["idx_color"]["kind"] == "local index"
        assert rows["idx_color"]["state"] == "registered"


class TestMaintenanceWorker:
    def test_without_cluster(self):
        catalog = fresh_catalog()
        catalog.register_access_method(AccessMethodDefinition(
            "idx_color", "items", interpreter=INTERP, key_field="color"))
        built, elapsed = MaintenanceWorker(catalog).run_pending()
        assert built == ["idx_color"]
        assert elapsed == 0.0

    def test_with_cluster_charges_build_time(self):
        catalog = fresh_catalog(num_records=500)
        catalog.register_access_method(AccessMethodDefinition(
            "idx_color", "items", interpreter=INTERP, key_field="color"))
        cluster = Cluster(ClusterSpec(num_nodes=2))
        built, elapsed = MaintenanceWorker(catalog,
                                           cluster=cluster).run_pending()
        assert built == ["idx_color"]
        assert elapsed > 0.0
        assert catalog.pending() == []

    def test_nothing_pending(self):
        catalog = fresh_catalog()
        built, elapsed = MaintenanceWorker(catalog).run_pending()
        assert built == []
        assert elapsed == 0.0


class TestWorkloadStatsAndAdvisor:
    def make_job(self):
        date_filter = FieldRangeFilter(INTERP, "color", "blue", "red")
        eq_filter = FieldEqualsFilter(INTERP, "color", "red")
        return (JobBuilder("observed")
                .dereference(FileLookupDereferencer("items",
                                                    filter=date_filter))
                .input(Pointer("items", 1, 1))
                .build()), eq_filter

    def test_observe_job_counts_filters(self):
        stats = WorkloadStats()
        job, __ = self.make_job()
        stats.observe_job(job)
        stats.observe_job(job)
        assert stats.demand("items", "color") == 2

    def test_note_kinds(self):
        stats = WorkloadStats()
        stats.note("f", "x", "range", count=3)
        stats.note("f", "x", "equality")
        assert stats.demand("f", "x") == 4

    def test_advise_respects_min_demand_and_existing(self):
        catalog = fresh_catalog()
        stats = WorkloadStats()
        stats.note("items", "color", "range", count=5)
        stats.note("items", "pk", "equality", count=1)
        advisor = StructureAdvisor(catalog, stats)
        advice = advisor.advise(min_demand=2)
        assert [a.field for a in advice] == ["color"]
        assert advice[0].suggested_scope() == "local"
        assert advice[0].suggested_name() == "idx_items_color"

    def test_advise_skips_unknown_base(self):
        catalog = fresh_catalog()
        stats = WorkloadStats()
        stats.note("ghost", "x", "range", count=9)
        assert StructureAdvisor(catalog, stats).advise() == []

    def test_auto_apply_registers_lazily(self):
        catalog = fresh_catalog()
        stats = WorkloadStats()
        stats.note("items", "color", "equality", count=4)
        advisor = StructureAdvisor(catalog, stats)
        applied = advisor.auto_apply(INTERP)
        assert applied == ["idx_items_color"]
        assert catalog.pending() == ["idx_items_color"]
        assert catalog.definition("idx_items_color").scope == "global"
        # Re-advising proposes nothing: the structure now exists.
        assert advisor.advise() == []

    def test_advice_ordering_hottest_first(self):
        catalog = fresh_catalog()
        stats = WorkloadStats()
        stats.note("items", "color", "range", count=2)
        stats.note("items", "tags", "range", count=7)
        advisor = StructureAdvisor(catalog, stats)
        assert [a.field for a in advisor.advise()] == ["tags", "color"]

    def test_equal_demand_ties_break_alphabetically(self):
        # Equal demand falls back to (base_file, field) order, so advice
        # is deterministic regardless of stats insertion order.
        catalog = fresh_catalog()
        stats = WorkloadStats()
        stats.note("items", "tags", "range", count=3)
        stats.note("items", "color", "equality", count=3)
        stats.note("items", "pk", "range", count=3)
        advisor = StructureAdvisor(catalog, stats)
        assert [a.field for a in advisor.advise()] == ["color", "pk",
                                                       "tags"]

    def test_auto_apply_second_call_is_a_noop(self):
        catalog = fresh_catalog()
        stats = WorkloadStats()
        stats.note("items", "color", "equality", count=4)
        advisor = StructureAdvisor(catalog, stats)
        assert advisor.auto_apply(INTERP) == ["idx_items_color"]
        # Everything advisable is registered now: applying again must not
        # re-register (which would raise) nor propose anything new.
        assert advisor.auto_apply(INTERP) == []
        assert catalog.pending() == ["idx_items_color"]

    def test_missing_base_suppressed_alongside_real_advice(self):
        # Demand against a file the catalog does not know is dropped
        # without poisoning advice for files it does know.
        catalog = fresh_catalog()
        stats = WorkloadStats()
        stats.note("dropped_table", "x", "range", count=99)
        stats.note("items", "color", "range", count=5)
        advisor = StructureAdvisor(catalog, stats)
        advice = advisor.advise()
        assert [(a.base_file, a.field) for a in advice] == [("items",
                                                             "color")]
        assert advisor.auto_apply(INTERP) == ["idx_items_color"]
