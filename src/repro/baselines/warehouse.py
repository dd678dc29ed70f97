"""A normalized data warehouse over the insurance claims — Figure 9's
comparator.

The paper's case study tried "(1) normalizing the data based on the
relational model and storing it in a data warehouse system that employs
fine-grained massively parallel execution" and found "performance penalties
due to intensive joins of normalized data".  Both systems use fine-grained
MPE, so the comparison axis is the **number of record accesses**.

:class:`ClaimsWarehouse` performs that normalization (one scalar row per
claim plus child tables for the repeated SY/SI/IY sub-records), builds the
indexes a warehouse would use, and answers the three analytical queries
with parallel index nested-loop joins *expressed as Reference-Dereference
jobs* executed on the same engines — which makes the record-access
comparison apples-to-apples by construction: the only difference is the
data model.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.core.catalog import AccessMethodDefinition, StructureCatalog
from repro.core.functions import (
    FileLookupDereferencer,
    IndexEntryReferencer,
    IndexLookupDereferencer,
    KeyReferencer,
)
from repro.core.interpreters import MappingInterpreter, PredicateFilter
from repro.core.job import Job, JobBuilder
from repro.core.pointers import Pointer
from repro.core.records import Record
from repro.datagen.claims import ClaimInterpreter
from repro.engine.executor import ReDeExecutor
from repro.engine.metrics import JobResult
from repro.storage.dfs import DistributedFileSystem

__all__ = ["ClaimsWarehouse"]

_INTERP = MappingInterpreter()


class ClaimsWarehouse:
    """Normalized relational storage + INLJ query plans for claims."""

    def __init__(self, claims: Iterable[Record], num_nodes: int = 4,
                 cluster: Optional[Cluster] = None,
                 mode: str = "reference") -> None:
        self.dfs = DistributedFileSystem(num_nodes=num_nodes)
        self.catalog = StructureCatalog(self.dfs)
        self.executor = ReDeExecutor(cluster, self.catalog, mode=mode)
        self._normalize(claims)
        self._register_indexes()

    # -- ETL ---------------------------------------------------------------

    def _normalize(self, claims: Iterable[Record]) -> None:
        """The relational decomposition a warehouse schema forces."""
        interp = ClaimInterpreter()
        claim_rows: list[Record] = []
        disease_rows: list[Record] = []
        medicine_rows: list[Record] = []
        treatment_rows: list[Record] = []
        for record in claims:
            view = interp.interpret(record)
            claim_id = view["claim_id"]
            claim_rows.append(Record({
                "claim_id": claim_id,
                "hospital_id": view.get("hospital_id"),
                "claim_type": view.get("claim_type"),
                "billing_month": view.get("billing_month"),
                "patient_id": view.get("patient_id"),
                "category": view.get("category"),
                "total_points": view.get("total_points", 0),
            }))
            for seq, code in enumerate(view.get("diseases", [])):
                disease_rows.append(Record({
                    "claim_id": claim_id, "seq": seq, "code": code}))
            for seq, code in enumerate(view.get("medicines", [])):
                medicine_rows.append(Record({
                    "claim_id": claim_id, "seq": seq, "code": code,
                    "points": view.get("medicine_points", {}).get(code, 0)}))
            for seq, code in enumerate(view.get("treatments", [])):
                treatment_rows.append(Record({
                    "claim_id": claim_id, "seq": seq, "code": code}))

        def child_key(row: Record):
            return (row["claim_id"], row["seq"])

        self.catalog.register_file("dw_claims", claim_rows,
                                   lambda r: r["claim_id"])
        self.catalog.register_file("dw_diseases", disease_rows,
                                   lambda r: r["claim_id"],
                                   key_fn=child_key)
        self.catalog.register_file("dw_medicines", medicine_rows,
                                   lambda r: r["claim_id"],
                                   key_fn=child_key)
        self.catalog.register_file("dw_treatments", treatment_rows,
                                   lambda r: r["claim_id"],
                                   key_fn=child_key)

    def _register_indexes(self) -> None:
        # The secondary index the predicate needs...
        self.catalog.register_access_method(AccessMethodDefinition(
            name="dw_idx_disease_code", base_file="dw_diseases",
            interpreter=_INTERP, key_field="code", scope="global"))
        # ...and the join index from claims to their medicines.
        self.catalog.register_access_method(AccessMethodDefinition(
            name="dw_idx_medicine_claim", base_file="dw_medicines",
            interpreter=_INTERP, key_field="claim_id", scope="global"))
        self.catalog.build_all()

    # -- query plans ---------------------------------------------------------

    def expenses_job(self, disease_codes: Sequence[str],
                     medicine_codes: Sequence[str]) -> Job:
        """The INLJ chain normalization forces.

        diseases-index probe -> disease row -> medicines-of-claim index
        probe -> medicine rows (filter by code) -> claims row.  Every hop
        is a record access the nested raw format would not pay.
        """
        medicine_set = set(medicine_codes)
        medicine_filter = PredicateFilter(
            lambda record, __: record.get("code") in medicine_set,
            name="medicine-code")
        builder = (
            JobBuilder("dw_expenses")
            .dereference(IndexLookupDereferencer("dw_idx_disease_code"))
            .reference(IndexEntryReferencer("dw_diseases"))
            .dereference(FileLookupDereferencer("dw_diseases"))
            .reference(KeyReferencer("dw_idx_medicine_claim", _INTERP,
                                     "claim_id"))
            .dereference(IndexLookupDereferencer("dw_idx_medicine_claim"))
            .reference(IndexEntryReferencer("dw_medicines"))
            .dereference(FileLookupDereferencer("dw_medicines",
                                                filter=medicine_filter))
            .reference(KeyReferencer("dw_claims", _INTERP, "claim_id"))
            .dereference(FileLookupDereferencer("dw_claims"))
        )
        for code in disease_codes:
            builder.input(Pointer("dw_idx_disease_code", code, code))
        return builder.build()

    def query_expenses(self, disease_codes: Sequence[str],
                       medicine_codes: Sequence[str]
                       ) -> tuple[float, JobResult]:
        """Total expenses over distinct matching claims, plus the metrics."""
        result = self.executor.execute(
            self.expenses_job(disease_codes, medicine_codes))
        seen: set = set()
        total = 0.0
        for row in result.rows:
            claim_id = row.record.get("claim_id")
            if claim_id in seen:
                continue
            seen.add(claim_id)
            total += row.record.get("total_points", 0)
        return total, result
