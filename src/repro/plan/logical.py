"""Logical plans: what a chain query *means*, before access paths.

A :class:`LogicalPlan` is a linear sequence of typed nodes — one
:class:`SourceNode` followed by :class:`JoinNode`\\ s — each carrying its
filters, the context fields available after it (``carried_context``), and
an optional cardinality annotation filled in by the planner.  It is the
shared currency between the :class:`~repro.core.chain.ChainQuery`
frontend, the per-stage planner, and the lowerings to
:class:`~repro.core.job.Job` / scan-engine plans.

Validation is eager: malformed chains raise
:class:`~repro.errors.JobDefinitionError` at build time (the frontend
method call), not deep inside an engine.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro.core.interpreters import Filter, Interpreter, MappingInterpreter
from repro.errors import JobDefinitionError

__all__ = ["SourceNode", "JoinNode", "LogicalNode", "LogicalPlan"]

#: kinds a :class:`SourceNode` can take
SOURCE_KINDS = ("index_range", "index_lookup", "pointers")


@dataclass
class SourceNode:
    """The chain's single entry point: an index probe or direct fetch.

    ``structure`` is the structure stage 0 dereferences (an index for the
    ``index_*`` kinds, a base file for ``pointers``); ``base`` optionally
    names the base file whose records the index entries are followed
    into.
    """

    kind: str
    structure: str
    base: Optional[str] = None
    low: Any = None
    high: Any = None
    keys: tuple = ()
    filters: list[Filter] = field(default_factory=list)
    #: context fields available downstream of this node
    carried_context: tuple[str, ...] = ()
    #: planner annotation: estimated rows flowing out of this node
    estimated_rows: Optional[float] = None

    @property
    def fetches(self) -> str:
        """The structure whose records this node emits."""
        return self.base if self.base is not None else self.structure

    def describe(self) -> str:
        if self.kind == "index_range":
            detail = f"range[{self.low!r}..{self.high!r}] {self.structure}"
        elif self.kind == "index_lookup":
            detail = f"lookup[{len(self.keys)} keys] {self.structure}"
        else:
            detail = f"pointers[{len(self.keys)} keys] {self.structure}"
        if self.base is not None:
            detail += f" -> {self.base}"
        return f"source {detail}"


@dataclass
class JoinNode:
    """One index nested-loop join hop of the chain."""

    target: str
    key: Optional[str] = None
    context_key: Optional[str] = None
    via_index: Optional[str] = None
    #: context additions this join makes: ``{ctx_name: record_field}``
    carry: dict[str, str] = field(default_factory=dict)
    broadcast: bool = False
    filters: list[Filter] = field(default_factory=list)
    carried_context: tuple[str, ...] = ()
    estimated_rows: Optional[float] = None

    @property
    def fetches(self) -> str:
        return self.target

    def describe(self) -> str:
        via = f" via {self.via_index}" if self.via_index else ""
        how = (f"key={self.key}" if self.key is not None
               else f"context_key={self.context_key}")
        mode = " broadcast" if self.broadcast else ""
        return f"join {self.target}{via} ({how}){mode}"


LogicalNode = Union[SourceNode, JoinNode]


class LogicalPlan:
    """An ordered, validated select-join chain."""

    def __init__(self, name: str = "chain",
                 interpreter: Optional[Interpreter] = None) -> None:
        self.name = name
        self.interpreter = interpreter or MappingInterpreter()
        self.nodes: list[LogicalNode] = []

    # -- construction (eagerly validated) --------------------------------

    def add_source(self, kind: str, structure: str,
                   base: Optional[str] = None, low: Any = None,
                   high: Any = None,
                   keys: Sequence[Any] = ()) -> SourceNode:
        if kind not in SOURCE_KINDS:
            raise JobDefinitionError(
                f"unknown source kind {kind!r} (expected one of "
                f"{SOURCE_KINDS})")
        if self.nodes:
            raise JobDefinitionError(
                "a chain can have only one source (from_* called twice?)")
        node = SourceNode(kind=kind, structure=structure, base=base,
                          low=low, high=high, keys=tuple(keys))
        self.nodes.append(node)
        return node

    def add_join(self, target: str, key: Optional[str] = None,
                 context_key: Optional[str] = None,
                 via_index: Optional[str] = None,
                 carry: Union[Sequence[str], Mapping[str, str], None] = None,
                 broadcast: bool = False) -> JoinNode:
        self._require_started("joins")
        if (key is None) == (context_key is None):
            raise JobDefinitionError(
                f"join to {target!r} needs exactly one of key or "
                "context_key")
        available = self.carried_context
        if context_key is not None and context_key not in available:
            carried = (", ".join(sorted(available))
                       if available else "nothing")
            raise JobDefinitionError(
                f"join(context_key={context_key!r}) refers to a context "
                f"field that is never carried (carried so far: {carried})")
        carry_map = self._check_carry(target, carry)
        node = JoinNode(target=target, key=key, context_key=context_key,
                        via_index=via_index, carry=carry_map,
                        broadcast=broadcast,
                        carried_context=tuple(
                            dict.fromkeys(available + tuple(carry_map))))
        self.nodes.append(node)
        return node

    def add_filter(self, new_filter: Filter) -> None:
        self._require_started("filters")
        self.nodes[-1].filters.append(new_filter)

    @staticmethod
    def _check_carry(target: str,
                     carry: Union[Sequence[str], Mapping[str, str], None]
                     ) -> dict[str, str]:
        """Normalize a carry spec, rejecting duplicate context names."""
        if carry is None:
            return {}
        if isinstance(carry, Mapping):
            return dict(carry)
        names = list(carry)
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise JobDefinitionError(
                f"duplicate carry name(s) in join to {target!r}: "
                f"{', '.join(duplicates)}")
        return {name: name for name in names}

    def _require_started(self, what: str) -> None:
        if not self.nodes:
            raise JobDefinitionError(
                f"call a from_* source before {what}")

    # -- views -----------------------------------------------------------

    @property
    def source(self) -> SourceNode:
        if not self.nodes:
            raise JobDefinitionError("the chain has no source yet")
        return self.nodes[0]  # type: ignore[return-value]

    @property
    def joins(self) -> list[JoinNode]:
        return [n for n in self.nodes[1:] if isinstance(n, JoinNode)]

    @property
    def carried_context(self) -> tuple[str, ...]:
        """Context fields available after the last node."""
        if not self.nodes:
            return ()
        return self.nodes[-1].carried_context

    def structures(self) -> list[str]:
        """Every structure the plan touches, in node order."""
        names: list[str] = []
        for node in self.nodes:
            if isinstance(node, SourceNode):
                names.append(node.structure)
                if node.base is not None:
                    names.append(node.base)
            else:
                if node.via_index is not None:
                    names.append(node.via_index)
                names.append(node.target)
        return names

    def describe(self) -> str:
        lines = [f"LogicalPlan {self.name!r} ({len(self.nodes)} nodes)"]
        for index, node in enumerate(self.nodes):
            line = f"  [{index}] {node.describe()}"
            if node.filters:
                line += ("  [filters: "
                         + ", ".join(type(f).__name__ for f in node.filters)
                         + "]")
            if node.estimated_rows is not None:
                line += f"  ~{node.estimated_rows:.0f} rows"
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self) -> str:
        chain = " -> ".join(n.fetches for n in self.nodes)
        return f"LogicalPlan({self.name!r}: {chain})"
