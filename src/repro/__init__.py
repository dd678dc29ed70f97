"""repro — a reproduction of *LakeHarbor: Making Structures First-Class
Citizens in Data Lakes* (ICDE 2024) and its prototype engine **ReDe**.

The package is layered bottom-up:

* :mod:`repro.cluster` — a deterministic discrete-event simulator modelling
  the paper's 128-node testbed (disks, NICs, cores);
* :mod:`repro.storage` — partitioners, B+trees, heap files, the
  ``File``/``BtreeFile`` I/O abstraction, the simple DFS, and an HDFS-like
  block store;
* :mod:`repro.core` — the paper's contribution: Reference-Dereference
  functions, schema-on-read interpreters, the first-class structure
  catalog, and lazy structure maintenance;
* :mod:`repro.engine` — SMPE (Algorithm 1), the partitioned (w/o SMPE)
  executor, and an in-memory reference oracle;
* :mod:`repro.baselines` — the Impala-like scan engine, the normalized
  claims warehouse, and a plain data-lake scanner;
* :mod:`repro.datagen` / :mod:`repro.queries` — TPC-H and insurance-claims
  generators and the evaluation workloads (Q5', case-study Q1-Q3).

Quickstart::

    from repro import (Cluster, ClusterSpec, ReDeExecutor, StructureCatalog,
                       DistributedFileSystem)
    # see examples/quickstart.py for a complete walk-through
"""

from repro.baselines import (
    ClaimsWarehouse,
    DataLakeEngine,
    HashJoinNode,
    ScanEngine,
    ScanNode,
)
from repro.cluster import Cluster, ClusterSpec, DiskSpec, NetworkSpec, \
    NodeSpec
from repro.config import (
    DEFAULT_ENGINE_CONFIG,
    EngineConfig,
    balanced_cluster_spec,
    laptop_cluster_spec,
    paper_cluster_spec,
)
from repro.core import (
    AccessMethodDefinition,
    ChainQuery,
    FileLookupDereferencer,
    Filter,
    IndexEntryReferencer,
    IndexLookupDereferencer,
    IndexRangeDereferencer,
    Interpreter,
    Job,
    JobBuilder,
    KeyReferencer,
    MaintenanceWorker,
    MappingInterpreter,
    Pointer,
    PointerRange,
    Record,
    StructureAdvisor,
    StructureCatalog,
    WorkloadStats,
)
from repro.datagen import ClaimInterpreter, ClaimsGenerator, FhirGenerator, TpchGenerator
from repro.engine import ExecutionMetrics, JobResult, PlanningExecutor, ReDeExecutor
from repro.errors import ReproError
from repro.queries import CASE_STUDY_QUERIES, ClaimsLake, TpchWorkload
from repro.storage import (
    BlockStore,
    BPlusTree,
    BtreeFile,
    DistributedFileSystem,
    HashPartitioner,
    PartitionedFile,
    RangePartitioner,
)

__version__ = "1.0.0"

__all__ = [
    "ClaimsWarehouse",
    "DataLakeEngine",
    "HashJoinNode",
    "ScanEngine",
    "ScanNode",
    "Cluster",
    "ClusterSpec",
    "DiskSpec",
    "NetworkSpec",
    "NodeSpec",
    "DEFAULT_ENGINE_CONFIG",
    "EngineConfig",
    "balanced_cluster_spec",
    "laptop_cluster_spec",
    "paper_cluster_spec",
    "AccessMethodDefinition",
    "ChainQuery",
    "FileLookupDereferencer",
    "Filter",
    "IndexEntryReferencer",
    "IndexLookupDereferencer",
    "IndexRangeDereferencer",
    "Interpreter",
    "Job",
    "JobBuilder",
    "KeyReferencer",
    "MaintenanceWorker",
    "MappingInterpreter",
    "Pointer",
    "PointerRange",
    "Record",
    "StructureAdvisor",
    "StructureCatalog",
    "WorkloadStats",
    "ClaimInterpreter",
    "ClaimsGenerator",
    "FhirGenerator",
    "TpchGenerator",
    "ExecutionMetrics",
    "JobResult",
    "PlanningExecutor",
    "ReDeExecutor",
    "ReproError",
    "CASE_STUDY_QUERIES",
    "ClaimsLake",
    "TpchWorkload",
    "BlockStore",
    "BPlusTree",
    "BtreeFile",
    "DistributedFileSystem",
    "HashPartitioner",
    "PartitionedFile",
    "RangePartitioner",
    "__version__",
]
