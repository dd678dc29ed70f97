"""The "simple distributed file system" used by ReDe.

Paper, Section III-E: "For ReDe, we created a simple distributed file system
for the experiments and used it instead of HDFS since HDFS is not
well-optimized for non-scan accesses such as lookups.  We loaded the files
into the distributed file system, which distributed the files into 128
partitions evenly spread into the nodes by hashing with their primary keys.
We also created local secondary indexes on the date columns ... and global
indexes for each foreign key".

:class:`DistributedFileSystem` is that namespace: it owns
:class:`~repro.storage.files.PartitionedFile` base files and
:class:`~repro.storage.files.BtreeFile` indexes, remembers how each base
file was keyed (the seed of the access-method registration that
:mod:`repro.core.catalog` formalizes), and can derive local and global
secondary indexes from key-extractor functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.records import Record
from repro.errors import StorageError, UnknownStructure
from repro.storage.files import (
    BtreeFile,
    File,
    KeyFn,
    KeysFn,
    PartitionedFile,
    index_buckets,
)
from repro.storage.partitioner import HashPartitioner, Partitioner

__all__ = ["DistributedFileSystem", "LoaderInfo"]


def _per_record(key_fn: KeyFn) -> KeysFn:
    """The batch key extraction that applies ``key_fn`` to each record."""
    return lambda records: list(map(key_fn, records))


@dataclass
class LoaderInfo:
    """How a base file's records were keyed at load time."""

    partition_key_fn: KeyFn
    key_fn: KeyFn


class DistributedFileSystem:
    """A namespace of partitioned files and B-tree indexes over a cluster."""

    def __init__(self, num_nodes: int,
                 default_partitions: Optional[int] = None) -> None:
        if num_nodes < 1:
            raise StorageError("DFS needs at least one node")
        self.num_nodes = num_nodes
        self.default_partitions = default_partitions or num_nodes
        self._files: dict[str, File] = {}
        self._loaders: dict[str, LoaderInfo] = {}

    # -- namespace -------------------------------------------------------

    def add(self, file: File) -> File:
        if file.name in self._files:
            raise StorageError(f"structure {file.name!r} already exists")
        self._files[file.name] = file
        return file

    def get(self, name: str) -> File:
        try:
            return self._files[name]
        except KeyError:
            raise UnknownStructure(f"no structure named {name!r}") from None

    def get_base(self, name: str) -> PartitionedFile:
        file = self.get(name)
        if not isinstance(file, PartitionedFile):
            raise StorageError(f"{name!r} is not a base file")
        return file

    def get_index(self, name: str) -> BtreeFile:
        file = self.get(name)
        if not isinstance(file, BtreeFile):
            raise StorageError(f"{name!r} is not a B-tree index")
        return file

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def names(self) -> list[str]:
        return sorted(self._files)

    def drop(self, name: str) -> None:
        if name not in self._files:
            raise UnknownStructure(f"no structure named {name!r}")
        del self._files[name]
        self._loaders.pop(name, None)

    # -- base files ------------------------------------------------------

    def create_file(self, name: str,
                    num_partitions: Optional[int] = None,
                    partitioner: Optional[Partitioner] = None
                    ) -> PartitionedFile:
        """Create an empty hash-partitioned base file."""
        if partitioner is None:
            partitioner = HashPartitioner(
                num_partitions or self.default_partitions)
        file = PartitionedFile(name, partitioner, num_nodes=self.num_nodes)
        self.add(file)
        return file

    def load(self, name: str, records: Iterable[Record],
             partition_key_fn: KeyFn,
             key_fn: Optional[KeyFn] = None,
             num_partitions: Optional[int] = None) -> PartitionedFile:
        """Create a base file and load records into it.

        ``partition_key_fn`` extracts the partitioning key from each record
        (the primary key, in the paper's layout); ``key_fn`` the in-partition
        key (defaults to the partition key).  The extractors are remembered
        so that index builds can reconstruct pointers to base records.
        """
        file = self.create_file(name, num_partitions=num_partitions)
        # append, not insert: nobody here reads a pointer per record.  A
        # None in-partition key defaults to the partition key, so when
        # the two are one function it runs once per record.
        own_key_fn = None if key_fn is partition_key_fn else key_fn
        for record in records:
            file.append(record, partition_key_fn(record),
                        None if own_key_fn is None else own_key_fn(record))
        self._loaders[name] = LoaderInfo(partition_key_fn,
                                         key_fn or partition_key_fn)
        return file

    def loader_info(self, name: str) -> LoaderInfo:
        try:
            return self._loaders[name]
        except KeyError:
            raise StorageError(
                f"no loader info for {name!r}; load it through "
                "DistributedFileSystem.load") from None

    # -- indexes ---------------------------------------------------------

    def build_global_index(self, index_name: str, base_name: str,
                           index_key_fn: KeyFn,
                           num_partitions: Optional[int] = None,
                           order: int = 64,
                           partitioner: Optional[Partitioner] = None
                           ) -> BtreeFile:
        """Build a global secondary index, partitioned by the index key.

        The paper builds one per foreign key: "global indexes for each
        foreign key of each file.  Each global index is also distributed
        into partitions by the corresponding foreign key."  Pass a
        :class:`~repro.storage.partitioner.RangePartitioner` to make range
        probes prunable to the overlapping partitions.
        """
        index = self.new_index(index_name, base_name, "global",
                               num_partitions=num_partitions, order=order,
                               partitioner=partitioner)
        return self.build_indexes(base_name,
                                  [(index, _per_record(index_key_fn))])[0]

    def build_local_index(self, index_name: str, base_name: str,
                          index_key_fn: KeyFn,
                          order: int = 64) -> BtreeFile:
        """Build a local secondary index, colocated with base partitions.

        The paper builds these on date columns (e.g. ``o_orderdate``); range
        probes visit every partition, each node handling its local ones.
        """
        index = self.new_index(index_name, base_name, "local", order=order)
        return self.build_indexes(base_name,
                                  [(index, _per_record(index_key_fn))])[0]

    def new_index(self, index_name: str, base_name: str, scope: str,
                  num_partitions: Optional[int] = None, order: int = 64,
                  partitioner: Optional[Partitioner] = None) -> BtreeFile:
        """An empty index over ``base_name``, shaped for ``scope``; not
        in the namespace until :meth:`build_indexes` fills it."""
        base = self.get_base(base_name)
        if scope == "local":
            # Local index partitions mirror the base file exactly, entry
            # placement included, so it reuses the base partitioner.
            placement = [base.node_of(pid)
                         for pid in range(base.num_partitions)]
            return BtreeFile(index_name, base.partitioner,
                             placement=placement, scope="local", order=order)
        if scope == "replicated":
            # One replica partition per node, placed on that node.
            return BtreeFile(index_name, HashPartitioner(self.num_nodes),
                             placement=list(range(self.num_nodes)),
                             scope="replicated", order=order)
        if partitioner is None:
            partitioner = HashPartitioner(
                num_partitions or self.default_partitions)
        return BtreeFile(index_name, partitioner, num_nodes=self.num_nodes,
                         scope=scope, order=order)

    def load_indexes(self, base_name: str,
                     targets: Sequence[tuple[BtreeFile, KeysFn]]) -> None:
        """(Re)load every ``(index, keys_fn)`` target from one pass over
        ``base_name``'s heaps (``keys_fn`` as :func:`index_buckets`
        takes it).

        Entries address base records *physically* (partition-routing key
        + slot), so each resolves to exactly the record that produced it
        even when the base file's logical key is non-unique.
        """
        base = self.get_base(base_name)
        loader = self.loader_info(base_name)
        built = index_buckets(base, loader.partition_key_fn, targets)
        for (index, __), (buckets, total_bytes) in zip(targets, built):
            index.load_entries(buckets, total_bytes)

    def build_indexes(self, base_name: str,
                      targets: Sequence[tuple[BtreeFile, KeysFn]]
                      ) -> list[BtreeFile]:
        """Fill fresh indexes from one heap pass and add them to the
        namespace; returns them in ``targets`` order."""
        self.load_indexes(base_name, targets)
        for index, __ in targets:
            self.add(index)
        return [index for index, __ in targets]
