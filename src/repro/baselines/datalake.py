"""A plain data-lake engine: schema-on-read full scans, static parallelism.

The case study's approach (2): "storing [the claims] in a raw form in a
data lake system ... provided slow performance due to a full data scan with
the statically defined parallelism based on the data lake system."  Figure
9's footnote omits it "because it was a lot slower than the others" — the
benchmark harness includes it anyway to substantiate that footnote: its
record accesses always equal the whole dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from repro.cluster.cluster import Cluster
from repro.core.interpreters import Interpreter
from repro.storage.blockstore import BlockStore

__all__ = ["DataLakeEngine", "DataLakeResult"]

Predicate = Callable[[Mapping], bool]


@dataclass
class DataLakeResult:
    rows: list[Mapping]
    record_accesses: int
    bytes_scanned: int
    elapsed_seconds: float

    def __len__(self) -> int:
        return len(self.rows)


class DataLakeEngine:
    """Full-scan query execution over raw records in a block store."""

    def __init__(self, store: BlockStore, interpreter: Interpreter,
                 cluster: Optional[Cluster] = None) -> None:
        self.store = store
        self.interpreter = interpreter
        self.cluster = cluster

    def query(self, table: str, predicate: Predicate) -> DataLakeResult:
        """Scan ``table``, interpret every record, keep matching views."""
        matches: list[Mapping] = []
        accesses = 0
        for record in self.store.scan(table):
            accesses += 1
            view = self.interpreter.interpret(record)
            if predicate(view):
                matches.append(view)
        nbytes = self.store.file_bytes(table)
        elapsed = 0.0
        if self.cluster is not None:
            elapsed = self._charge_scan(table)
        return DataLakeResult(matches, accesses, nbytes, elapsed)

    def _charge_scan(self, table: str) -> float:
        """Simulated cost: each node scans its local blocks in parallel,
        interpreting rows on its (statically parallel) cores."""
        cluster = self.cluster
        assert cluster is not None

        def scan_on(node_id: int):
            node = cluster.node(node_id)
            for block in self.store.blocks_on_node(table, node_id):
                yield from node.disk.sequential_read(block.nbytes)
                yield from node.compute(
                    len(block) * node.spec.tuple_cpu_time
                    / node.spec.cores)

        def scan_job():
            procs = [cluster.launch(scan_on(n), name=f"lake-scan@{n}")
                     for n in range(cluster.num_nodes)]
            yield cluster.sim.all_of(procs)

        __, elapsed = cluster.run_job(scan_job(), name=f"lake:{table}")
        return elapsed
