"""Storage substrate: partitioners, B+trees, heap files, the I/O abstraction
(``PartitionedFile``/``BtreeFile``), the simple DFS, and the HDFS-like block
store."""

from repro.storage.blockstore import Block, BlockStore
from repro.storage.btree import BPlusTree
from repro.storage.cache import (
    CACHE_POLICIES,
    BufferPool,
    CacheStats,
    PageId,
)
from repro.storage.dfs import DistributedFileSystem
from repro.storage.files import (
    BtreeFile,
    File,
    IndexEntry,
    PartitionedFile,
    round_robin_placement,
)
from repro.storage.heapfile import HeapFile
from repro.storage.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    stable_hash,
)

__all__ = [
    "Block",
    "BlockStore",
    "BPlusTree",
    "BufferPool",
    "CacheStats",
    "CACHE_POLICIES",
    "PageId",
    "DistributedFileSystem",
    "BtreeFile",
    "File",
    "IndexEntry",
    "PartitionedFile",
    "round_robin_placement",
    "HeapFile",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "stable_hash",
]
