"""ChainQuery: a higher-level abstraction over Reference-Dereference.

Section V-A names this research direction: "the Reference-Dereference
abstraction ... might not be high-level enough.  A higher-level
abstraction brings not only better usability but also an opportunity for
query optimizations ... Exploring higher-level abstractions without
compromising flexibility and efficiency is an important research
challenge."

:class:`ChainQuery` is one such abstraction: a declarative
select-join-chain builder.  It records the chain as a
:class:`~repro.plan.logical.LogicalPlan` — the IR the per-stage planner
(:mod:`repro.plan.planner`) inspects — and *compiles to* a plain
:class:`~repro.core.job.Job` via the plan layer's default all-index
lowering, so every engine (and the planner) runs it unchanged:
no flexibility or efficiency is given up, the chain is just sugar over
choosing pre-defined Referencers/Dereferencers.

Malformed chains fail eagerly at the offending builder call with a
:class:`~repro.errors.JobDefinitionError` — two sources, filters before
a source, joins on never-carried context fields, duplicate carry names —
instead of failing deep inside an engine.

Example — TPC-H Q5′ in chain form::

    job = (ChainQuery("q5", interpreter=INTERP)
           .from_index_range("idx_orders_orderdate", low, high,
                             base="orders")
           .join("customer", key="o_custkey",
                 carry=["o_orderkey", "o_orderdate"])
           .join("nation", key="c_nationkey",
                 carry=["c_custkey", "c_nationkey"])
           .join("region", key="n_regionkey", carry=["n_name"])
           .filter_equals("r_name", "ASIA")
           .join("lineitem", context_key="o_orderkey", carry=["r_name"])
           .join("supplier", key="l_suppkey",
                 carry=["l_orderkey", "l_linenumber", "l_suppkey"])
           .filter_context_match("s_nationkey", "c_nationkey")
           .build())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, \
    Sequence, Union

from repro.core.interpreters import (
    ContextMatchFilter,
    FieldEqualsFilter,
    FieldRangeFilter,
    Filter,
    Interpreter,
    PredicateFilter,
)
from repro.core.job import Job
from repro.core.records import Record
from repro.errors import JobDefinitionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.logical import LogicalPlan

__all__ = ["ChainQuery"]


class ChainQuery:
    """Fluent select-join chains that compile to Reference-Dereference
    jobs through the plan layer."""

    def __init__(self, name: str = "chain",
                 interpreter: Optional[Interpreter] = None) -> None:
        # Imported lazily to keep core importable without the plan
        # package in partial checkouts; plan never imports core.chain.
        from repro.plan.logical import LogicalPlan

        self._logical = LogicalPlan(name, interpreter)

    @property
    def name(self) -> str:
        return self._logical.name

    @property
    def interpreter(self) -> Interpreter:
        return self._logical.interpreter

    # -- sources -----------------------------------------------------------

    def from_index_range(self, index: str, low: Any, high: Any,
                         base: Optional[str] = None) -> "ChainQuery":
        """Start from a B-tree range probe; optionally fetch the base
        records the entries point at."""
        self._logical.add_source("index_range", index, base=base, low=low,
                                 high=high)
        return self

    def from_index_lookup(self, index: str, keys: Sequence[Any],
                          base: Optional[str] = None) -> "ChainQuery":
        """Start from equality probes for each key in ``keys``."""
        self._logical.add_source("index_lookup", index, base=base,
                                 keys=keys)
        return self

    def from_pointers(self, file: str, keys: Sequence[Any]) -> "ChainQuery":
        """Start by fetching base records directly by partition key."""
        self._logical.add_source("pointers", file, keys=keys)
        return self

    # -- joins ---------------------------------------------------------------

    def join(self, target: str, key: Optional[str] = None,
             context_key: Optional[str] = None,
             via_index: Optional[str] = None,
             carry: Union[Sequence[str], Mapping[str, str], None] = None,
             broadcast: bool = False) -> "ChainQuery":
        """Index nested-loop join to ``target``.

        ``key`` takes the join key from the current record (schema-on-read);
        ``context_key`` takes it from carried context (resuming a chain
        after a dimension hop).  With ``via_index`` the key probes that
        secondary index first and follows its entries into ``target``
        (the global/local-index join of Fig. 4); without it, ``target`` is
        assumed partitioned by the join key (direct fetch).
        """
        self._logical.add_join(target, key=key, context_key=context_key,
                               via_index=via_index, carry=carry,
                               broadcast=broadcast)
        return self

    # -- filters ---------------------------------------------------------------

    def _attach_filter(self, new_filter: Filter) -> None:
        self._logical.add_filter(new_filter)

    def filter_equals(self, field: str, value: Any) -> "ChainQuery":
        """Keep rows whose interpreted ``field`` equals ``value``."""
        self._attach_filter(FieldEqualsFilter(self.interpreter, field,
                                              value))
        return self

    def filter_range(self, field: str, low: Any = None,
                     high: Any = None) -> "ChainQuery":
        """Keep rows whose interpreted ``field`` lies in ``[low, high]``."""
        self._attach_filter(FieldRangeFilter(self.interpreter, field, low,
                                             high))
        return self

    def filter_context_match(self, field: str,
                             context_key: str) -> "ChainQuery":
        """Keep rows whose ``field`` equals a carried context value — a
        residual join predicate."""
        self._attach_filter(ContextMatchFilter(self.interpreter, field,
                                               context_key))
        return self

    def filter_fn(self, fn: Callable[[Record, Mapping[str, Any]], bool],
                  name: str = "") -> "ChainQuery":
        """Arbitrary schema-on-read predicate."""
        self._attach_filter(PredicateFilter(fn, name=name))
        return self

    # -- compilation --------------------------------------------------------

    def logical_plan(self) -> "LogicalPlan":
        """The chain's logical plan — what the per-stage planner consumes.

        The returned plan is live (not a copy): further chain calls keep
        extending it.
        """
        if not self._logical.nodes:
            raise JobDefinitionError(
                "call a from_* source before compiling the chain")
        return self._logical

    def build(self) -> Job:
        """Compile to a validated Reference-Dereference job.

        This is the plan pipeline's identity path — ``LogicalPlan →
        all-index PhysicalPlan → Job`` — and emits exactly the function
        list the pre-plan ChainQuery did.
        """
        from repro.plan.lowering import compile_logical, lower_physical

        return lower_physical(compile_logical(self.logical_plan()))
