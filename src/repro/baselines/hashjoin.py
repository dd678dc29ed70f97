"""Grace hash join: the data plane and the cost model.

The paper's baseline "executed the query using (grace) hash joins".  The
data plane here is a real hash join over row dictionaries (so baseline
answers are verifiably correct); the cost model charges what a distributed
grace join pays on the simulated cluster:

* **shuffle** — both inputs hash-partition across nodes; each node sends
  ``(N-1)/N`` of its share over its NIC;
* **build** — the smaller input is hashed, one CPU charge per tuple;
* **probe + emit** — one CPU charge per probe tuple and per output row.

Build sides larger than the per-node memory budget would spill in a real
grace join; the budget is tracked and reported, though at laptop scale the
joins stay in memory (as they effectively did for Impala on 64 GB nodes).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.records import estimate_size

__all__ = ["join_rows", "join_sized_rows", "HashJoinStats"]

Row = dict[str, Any]
KeyFn = Callable[[Row], Any]


@dataclass
class HashJoinStats:
    """What one hash join did, for cost charging and reporting."""

    build_rows: int = 0
    probe_rows: int = 0
    output_rows: int = 0
    build_bytes: int = 0
    probe_bytes: int = 0
    output_bytes: int = 0


def join_rows(build: list[Row], probe: list[Row], build_key: KeyFn,
              probe_key: KeyFn,
              residual: Optional[Callable[[Row], bool]] = None
              ) -> tuple[list[Row], HashJoinStats]:
    """Equi-join ``build`` x ``probe``; returns merged rows and stats.

    Output rows merge probe fields over build fields (probe wins on name
    clashes, which never occur with TPC-H's prefixed column names).  The
    optional ``residual`` predicate filters merged rows — how non-equi
    conjuncts (e.g. Q5's ``c_nationkey = s_nationkey``) apply after the
    equi-join.
    """
    output, __, stats = join_sized_rows(
        build, [estimate_size(row) for row in build],
        probe, [estimate_size(row) for row in probe],
        build_key, probe_key, residual)
    return output, stats


def join_sized_rows(build: list[Row], build_sizes: list[int],
                    probe: list[Row], probe_sizes: list[int],
                    build_key: KeyFn, probe_key: KeyFn,
                    residual: Optional[Callable[[Row], bool]] = None
                    ) -> tuple[list[Row], list[int], HashJoinStats]:
    """:func:`join_rows` over rows whose ``estimate_size`` is already known.

    ``build_sizes``/``probe_sizes`` run parallel to the rows; the output
    rows come back with their sizes too, so a join tree sizes each row
    once.  ``estimate_size`` of a dict is additive over disjoint key sets,
    so a merged row without a key clash costs the sum of its parents;
    only a clash re-estimates the merged row.
    """
    stats = HashJoinStats(build_rows=len(build), probe_rows=len(probe),
                          build_bytes=sum(build_sizes),
                          probe_bytes=sum(probe_sizes))
    table: dict[Any, list[tuple[Row, int]]] = defaultdict(list)
    for row, size in zip(build, build_sizes):
        key = build_key(row)
        if key is not None:
            table[key].append((row, size))
    output: list[Row] = []
    output_sizes: list[int] = []
    for row, size in zip(probe, probe_sizes):
        for match, match_size in table.get(probe_key(row), ()):
            merged = {**match, **row}
            if residual is not None and not residual(merged):
                continue
            output.append(merged)
            output_sizes.append(
                match_size + size if len(merged) == len(match) + len(row)
                else estimate_size(merged))
    stats.output_rows = len(output)
    stats.output_bytes = sum(output_sizes)
    return output, output_sizes, stats
