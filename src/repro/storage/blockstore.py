"""An HDFS-like block store — the substrate of the scan-engine baseline.

The paper's baseline (Apache Impala) reads TPC-H from HDFS, where files are
split into large blocks spread round-robin over the cluster and the only
efficient access path is the full scan ("HDFS is not well-optimized for
non-scan accesses such as lookups").  :class:`BlockStore` reproduces that
profile: records pack into byte-sized blocks placed round-robin; scans
stream whole blocks at sequential bandwidth; point lookups must scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.core.records import Record
from repro.errors import StorageError, UnknownStructure

__all__ = ["Block", "BlockStore"]


@dataclass
class Block:
    """One storage block: a run of records resident on a single node."""

    node_id: int
    records: list[Record] = field(default_factory=list)
    nbytes: int = 0

    def append(self, record: Record) -> None:
        self.records.append(record)
        self.nbytes += record.size_bytes

    def __len__(self) -> int:
        return len(self.records)


class BlockStore:
    """Block-structured files with round-robin placement across nodes."""

    def __init__(self, num_nodes: int, block_size: int = 4 * 1024 * 1024) -> None:
        if num_nodes < 1:
            raise StorageError("block store needs at least one node")
        if block_size < 1:
            raise StorageError("block size must be positive")
        self.num_nodes = num_nodes
        self.block_size = block_size
        self._files: dict[str, list[Block]] = {}
        self._next_node = 0

    # -- loading ---------------------------------------------------------

    def load(self, name: str, records: Iterable[Record]) -> list[Block]:
        """Create file ``name`` from ``records``, packed into blocks.

        Blocks close when they exceed ``block_size`` bytes and are placed
        round-robin, continuing from wherever the previous load stopped
        (mirroring the paper's "distributed into the nodes by round-robin").
        """
        if name in self._files:
            raise StorageError(f"block file {name!r} already exists")
        blocks: list[Block] = []
        current: Optional[Block] = None
        for record in records:
            if current is None:
                current = Block(node_id=self._next_node)
                self._next_node = (self._next_node + 1) % self.num_nodes
            current.append(record)
            if current.nbytes >= self.block_size:
                blocks.append(current)
                current = None
        if current is not None and current.records:
            blocks.append(current)
        self._files[name] = blocks
        return blocks

    # -- access ----------------------------------------------------------

    def blocks(self, name: str) -> list[Block]:
        try:
            return self._files[name]
        except KeyError:
            raise UnknownStructure(f"no block file named {name!r}") from None

    def blocks_on_node(self, name: str, node_id: int) -> list[Block]:
        return [block for block in self.blocks(name)
                if block.node_id == node_id]

    def scan(self, name: str) -> Iterator[Record]:
        """All records of the file, block by block."""
        for block in self.blocks(name):
            yield from block.records

    def point_lookup(self, name: str,
                     predicate: Callable[[Record], bool]) -> tuple[list[Record], int]:
        """Find matching records the only way a block store can: scanning.

        Returns ``(matches, bytes_scanned)`` — the cost term is what the
        storage-ablation benchmark contrasts with the DFS's indexed lookups.
        """
        matches: list[Record] = []
        scanned = 0
        for block in self.blocks(name):
            scanned += block.nbytes
            matches.extend(r for r in block.records if predicate(r))
        return matches, scanned

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def names(self) -> list[str]:
        return sorted(self._files)

    def file_bytes(self, name: str) -> int:
        return sum(block.nbytes for block in self.blocks(name))

    def num_records(self, name: str) -> int:
        return sum(len(block) for block in self.blocks(name))
