"""Golden digests of the generated data and of the lake built over it.

Lake construction draws rows through one small helper over
``getrandbits``, sizes fact rows at generation, and builds
indexes from per-heap key batches with per-key memos.  None of that may
move a single value: every row, every row size, every index entry with
its size and order, and every structure's byte count must equal what the
stdlib-``randrange``, per-field-sizing, per-entry-call build produced.
The digests below were computed from that build (CPython 3.11), so a
stream that drifts on any interpreter in the matrix fails here.
"""

import hashlib

import pytest

from repro.datagen.claims import ClaimsGenerator
from repro.datagen.tpch import TABLE_NAMES, TpchGenerator
from repro.queries import TpchWorkload
from repro.storage import BtreeFile, PartitionedFile

TABLE_DIGESTS = {
    (0.001, 0):
        "d8a014b6884c1611efe454decfeb20e34a20c54caf315be2c0b556c9fb5fef8f",
    (0.004, 1):
        "f8b9d7fc7e3d3f8626d5fe7669c41682333f3ffea22ef88ee0067c85f6220769",
}

LAKE_DIGEST = (
    "54d491ce7825ca05e4ad13689eecb397e71a50e5f6ffa69ab05d201834e43d21")

CLAIMS_DIGEST = (
    "2a3f4d558800320128a4763db8fd8248cea86e9a91ec24307952e57367f471e9")


def _sha(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def table_lines(tables):
    """Table names in ``TABLE_NAMES`` order, then each row's items and
    size."""
    for name in TABLE_NAMES:
        yield name
        for record in tables[name]:
            yield repr(list(record.data.items()))
            yield str(record.size_bytes)


def lake_lines(lake):
    """Every structure by name: a base file's per-partition counts and
    bytes; an index's total bytes, then per partition each entry's key,
    payload fields and size, in tree order."""
    dfs = lake.dfs
    for name in dfs.names():
        file = dfs.get(name)
        yield name
        if isinstance(file, PartitionedFile):
            for heap in file.partitions:
                yield f"{len(heap)} {heap.total_bytes} {heap.distinct_keys}"
            continue
        assert isinstance(file, BtreeFile)
        yield str(file.total_bytes)
        for pid, tree in enumerate(file.trees):
            yield f"partition {pid}"
            for key, entry in tree.items():
                yield repr((key, list(entry.data.items()), entry.size_bytes))


@pytest.mark.parametrize("scale_factor, seed", sorted(TABLE_DIGESTS))
def test_generated_tables_match_their_golden_digest(scale_factor, seed):
    tables = TpchGenerator(scale_factor, seed).generate_all()
    assert _sha(table_lines(tables)) == TABLE_DIGESTS[scale_factor, seed]


def test_built_lake_matches_its_golden_digest():
    lake = TpchWorkload(scale_factor=0.002, seed=0, num_nodes=4)
    assert _sha(lake_lines(lake)) == LAKE_DIGEST


def test_claims_match_their_golden_digest():
    claims = ClaimsGenerator(num_claims=300, seed=7).generate()
    lines = (f"{record.data!r} {record.size_bytes}" for record in claims)
    assert _sha(lines) == CLAIMS_DIGEST
