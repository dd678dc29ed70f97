"""An HDFS-like block store — the substrate of the scan-engine baseline.

The paper's baseline (Apache Impala) reads TPC-H from HDFS, where files are
split into large blocks spread round-robin over the cluster and the only
efficient access path is the full scan ("HDFS is not well-optimized for
non-scan accesses such as lookups").  :class:`BlockStore` reproduces that
profile: records pack into byte-sized blocks placed round-robin; scans
stream whole blocks at sequential bandwidth; point lookups must scan.

A store bound to a :class:`~repro.core.catalog.StructureCatalog` is a
block *layout* over the lake's own base files, not a second copy of
them.  Loading a catalog base file lays its records out in load order
and stamps the table with the file's state: its heap objects and their
lengths, and its unmerged delta runs.  Heaps only grow between major
compactions, which replace them, so the stamp changes exactly when the
file's contents do.  Every read checks the stamp; a stale table is laid
out again from :func:`repro.ingest.delta.live_records`, starting on its
original first node.  Tables with no catalog file (and stores with no
catalog) are plain loaded copies.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.core.records import Record
from repro.errors import StorageError, UnknownStructure
from repro.storage.files import PartitionedFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.catalog import StructureCatalog

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


class _Stamp:
    """The state of a catalog base file that a table's layout reflects.

    Heaps and runs are held by weak reference, so the stamp keeps no
    replaced heap alive.  Weak references to live objects compare by
    their referents (identity, here), and a dead one equals only
    itself, so a new object never matches an old one with the same
    ``id``.
    """

    __slots__ = ("first_node", "heaps", "lengths", "runs")

    def __init__(self, first_node: int, heaps: list, runs: list) -> None:
        self.first_node = first_node
        self.heaps = list(map(weakref.ref, heaps))
        self.lengths = list(map(len, heaps))
        self.runs = list(map(weakref.ref, runs))

    def matches(self, heaps: list, runs: list) -> bool:
        return (list(map(len, heaps)) == self.lengths
                and list(map(weakref.ref, heaps)) == self.heaps
                and list(map(weakref.ref, runs)) == self.runs)


class BlockStore:
    """Block-structured files with round-robin placement across nodes.

    With ``catalog`` given, tables loaded under a name the catalog holds
    as a base file track that file (see the module docstring).
    """

    def __init__(self, num_nodes: int, block_size: int = 4 * 1024 * 1024,
                 catalog: Optional["StructureCatalog"] = None) -> None:
        if num_nodes < 1:
            raise StorageError("block store needs at least one node")
        if block_size < 1:
            raise StorageError("block size must be positive")
        self.num_nodes = num_nodes
        self.block_size = block_size
        self.catalog = catalog
        self._files: dict[str, list[Block]] = {}
        self._stamps: dict[str, _Stamp] = {}
        self._next_node = 0

    # -- loading ---------------------------------------------------------

    def load(self, name: str, records: Iterable[Record]) -> list[Block]:
        """Create file ``name`` from ``records``, packed into blocks.

        Blocks close when they exceed ``block_size`` bytes and are placed
        round-robin, continuing from wherever the previous load stopped
        (mirroring the paper's "distributed into the nodes by round-robin").
        When ``name`` is a base file of the bound catalog, ``records``
        must be that file's records in load order.
        """
        if name in self._files:
            raise StorageError(f"block file {name!r} already exists")
        first_node = self._next_node
        blocks, next_node = self._pack(records, first_node)
        base = self._base_file(name)
        if base is not None:
            assert self.catalog is not None
            if (sum(len(block) for block in blocks) != len(base)
                    or sum(block.nbytes for block in blocks)
                    != base.total_bytes):
                raise StorageError(
                    f"records loaded as {name!r} are not the catalog "
                    "file's records")
            self._stamps[name] = _Stamp(first_node, base.partitions,
                                        self.catalog.delta_runs(name))
        self._files[name] = blocks
        self._next_node = next_node
        return blocks

    def _pack(self, records: Iterable[Record],
              first_node: int) -> tuple[list[Block], int]:
        """Records packed into round-robin blocks from ``first_node``;
        returns the blocks and the node the next block would go to."""
        next_node = first_node
        blocks: list[Block] = []
        current: Optional[Block] = None
        for record in records:
            if current is None:
                current = Block(node_id=next_node)
                next_node = (next_node + 1) % self.num_nodes
            current.append(record)
            if current.nbytes >= self.block_size:
                blocks.append(current)
                current = None
        if current is not None and current.records:
            blocks.append(current)
        return blocks, next_node

    # -- the catalog binding ---------------------------------------------

    def _base_file(self, name: str) -> Optional[PartitionedFile]:
        """The bound catalog's base file ``name``, if there is one."""
        if self.catalog is None or name not in self.catalog.dfs:
            return None
        file = self.catalog.dfs.get(name)
        return file if isinstance(file, PartitionedFile) else None

    def _relayout(self, name: str, base: PartitionedFile, runs: list,
                  first_node: int) -> list[Block]:
        """Lay ``name`` out again from the live view of its base file,
        from its original first node, leaving the rotation alone."""
        from repro.ingest.delta import live_records

        assert self.catalog is not None
        key_fn = self.catalog.dfs.loader_info(name).key_fn
        blocks, __ = self._pack(
            (record for __, __, record, __ in
             live_records(base, runs, key_fn)), first_node)
        self._files[name] = blocks
        self._stamps[name] = _Stamp(first_node, base.partitions, runs)
        return blocks

    # -- access ----------------------------------------------------------

    def blocks(self, name: str) -> list[Block]:
        try:
            blocks = self._files[name]
        except KeyError:
            raise UnknownStructure(f"no block file named {name!r}") from None
        stamp = self._stamps.get(name)
        if stamp is not None:
            assert self.catalog is not None
            base = self.catalog.dfs.get_base(name)
            runs = self.catalog.delta_runs(name)
            if not stamp.matches(base.partitions, runs):
                return self._relayout(name, base, runs, stamp.first_node)
        return blocks

    def blocks_on_node(self, name: str, node_id: int) -> list[Block]:
        return [block for block in self.blocks(name)
                if block.node_id == node_id]

    def scan(self, name: str) -> Iterator[Record]:
        """All records of the file, block by block."""
        for block in self.blocks(name):
            yield from block.records

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def file_bytes(self, name: str) -> int:
        return sum(block.nbytes for block in self.blocks(name))

    def num_records(self, name: str) -> int:
        return sum(len(block) for block in self.blocks(name))
