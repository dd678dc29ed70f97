"""The case-study queries Q1-Q3 over Japanese insurance claims (Fig. 9).

Paper, Section IV:

* **Q1** — "Calculate medical expenses charged to medical care prescribing
  antihypertensive medicines for hypertension."
* **Q2** — "... antimicrobial medicines to acne patients."
* **Q3** — "... GLP-1 receptor medicines to diabetes patients."

:class:`ClaimsLake` is the ReDe-side setup: raw claim text stored as-is,
with two post hoc access methods — a global index over diagnosed disease
codes and one over prescribed medicine codes, both extracted by the
schema-on-read :class:`~repro.datagen.claims.ClaimInterpreter` from the
*nested* sub-records (exactly what nested-column formats "cannot properly
express").

A ReDe query is then two stages: probe the disease index, fetch the raw
claim, and filter (schema-on-read again) on the co-prescribed medicine —
one record access per diagnosis plus one per claim.  The warehouse
(:class:`~repro.baselines.warehouse.ClaimsWarehouse`) answers the same
question through the join chain its normalization forces, which is where
Figure 9's access-count gap comes from.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.core.catalog import AccessMethodDefinition, StructureCatalog
from repro.core.chain import ChainQuery
from repro.core.job import Job
from repro.core.records import Record
from repro.datagen.claims import (
    ClaimInterpreter,
    DISEASE_CODES,
    MEDICINE_CODES,
    claim_id_of,
    disease_codes_of,
    medicine_codes_of,
)
from repro.engine.executor import ReDeExecutor
from repro.engine.metrics import JobResult
from repro.storage.dfs import DistributedFileSystem

__all__ = ["ClaimsLake", "CASE_STUDY_QUERIES", "sum_expenses"]

_INTERP = ClaimInterpreter()

#: query id -> (description, disease-code set, medicine-code set)
CASE_STUDY_QUERIES = {
    "Q1": ("antihypertensives for hypertension",
           DISEASE_CODES["hypertension"], MEDICINE_CODES["hypertension"]),
    "Q2": ("antimicrobials for acne",
           DISEASE_CODES["acne"], MEDICINE_CODES["acne"]),
    "Q3": ("GLP-1 receptor agonists for diabetes",
           DISEASE_CODES["diabetes"], MEDICINE_CODES["diabetes"]),
}


class ClaimsLake:
    """Raw claims in a LakeHarbor lake, with post hoc access methods."""

    def __init__(self, claims: Iterable[Record], num_nodes: int = 4,
                 cluster: Optional[Cluster] = None,
                 mode: str = "reference") -> None:
        self.dfs = DistributedFileSystem(num_nodes=num_nodes)
        self.catalog = StructureCatalog(self.dfs)
        self.executor = ReDeExecutor(cluster, self.catalog, mode=mode)
        self.catalog.register_file("claims", claims, claim_id_of)
        # The post hoc access-method definitions: arbitrary extraction
        # logic over the nested raw format, one entry per sub-record value.
        self.catalog.register_access_method(AccessMethodDefinition(
            name="idx_claims_disease", base_file="claims",
            key_fn=disease_codes_of, scope="global"))
        self.catalog.register_access_method(AccessMethodDefinition(
            name="idx_claims_medicine", base_file="claims",
            key_fn=medicine_codes_of, scope="global"))
        self.catalog.build_all()

    def expenses_job(self, disease_codes: Sequence[str],
                     medicine_codes: Sequence[str]) -> Job:
        """Disease-index probe -> raw claim fetch -> medicine filter."""
        medicine_set = set(medicine_codes)
        return (ChainQuery("claims_expenses", interpreter=_INTERP)
                .from_index_lookup("idx_claims_disease", disease_codes,
                                   base="claims")
                .filter_fn(lambda record, __: any(
                    code in medicine_set
                    for code in _INTERP.field(record, "medicines") or []),
                    name="co-prescribed-medicine")
                .build())

    def query_expenses(self, disease_codes: Sequence[str],
                       medicine_codes: Sequence[str]
                       ) -> tuple[float, JobResult]:
        """Total expenses over distinct matching claims, plus metrics."""
        result = self.executor.execute(
            self.expenses_job(disease_codes, medicine_codes))
        return sum_expenses(result), result


def sum_expenses(result: JobResult) -> float:
    """Sum ``total_points`` over distinct claims in a job result.

    Works for both the lake (raw text claims, interpreted here) and the
    warehouse (``dw_claims`` mapping rows) because interpretation is
    schema-on-read either way; the dedup-by-claim semantics come from
    :func:`repro.engine.aggregate.distinct_sum`.
    """
    from repro.core.interpreters import MappingInterpreter
    from repro.engine.aggregate import distinct_sum

    raw_rows = [row for row in result.rows
                if isinstance(row.record.data, str)]
    mapping_rows = [row for row in result.rows
                    if not isinstance(row.record.data, str)]
    return (distinct_sum(raw_rows, _INTERP, "claim_id", "total_points")
            + distinct_sum(mapping_rows, MappingInterpreter(),
                           "claim_id", "total_points"))
