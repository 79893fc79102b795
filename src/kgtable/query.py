"""Chain execution as an in-memory path query, plus SPARQL text rendering.

A chain runs as one ``graph.walk`` along P1 from the subject entity plus
one walk along P2 from each entity x it reaches. Walks deduplicate their
frontier per hop, so memory is bounded by distinct entities (distinct
(x, node) bindings in the second segment) rather than by path multiplicity.
A deterministic node-expansion budget, one step allowance shared by all
walks of a query, stands in for a wall-clock timeout; exceeding it discards
all partial results. This module reaches ``graph.walk`` through the module
attribute and binds no name of its own for it, so a tracer that wraps the
name where its callers bind it leaves no unwrapped copy behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import graph
from .graph import KnowledgeGraph
from .paths import ChainPair, MetaPath

SPARQL_PREFIX = "prefix a: <http://rdf.basekb.com/ns/>"


@dataclass(frozen=True)
class QueryBudget:
    max_rows: int = 10000
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.max_rows <= 0 or self.max_steps <= 0:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class BudgetExceeded:
    """Marker result: the query ran over budget and its partial output was discarded."""

    reason: str  # "rows" or "steps"


@dataclass(frozen=True)
class TupleSet:
    pairs: frozenset[tuple[int, int]]

    def ordered(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)


def _allowance(budget: QueryBudget | None) -> graph.StepAllowance | None:
    return graph.StepAllowance(budget.max_steps) if budget is not None else None


def execute_prefix(
    g: KnowledgeGraph,
    se: int,
    p1: MetaPath,
    budget: QueryBudget | None = None,
) -> set[int] | BudgetExceeded:
    """Distinct entities reached from ``se`` via ``p1``."""
    try:
        xs = graph.walk(g, (se,), p1.tokens, _allowance(budget))
    except graph.StepsExhausted:
        return BudgetExceeded("steps")
    if budget is not None and len(xs) > budget.max_rows:
        return BudgetExceeded("rows")
    return xs


def execute_chain(
    g: KnowledgeGraph,
    se: int,
    chain: ChainPair,
    budget: QueryBudget | None = None,
) -> TupleSet | BudgetExceeded:
    """All distinct (x, y) pairs with x reached via P1 from ``se`` and y via P2 from x."""
    steps = _allowance(budget)
    try:
        xs = graph.walk(g, (se,), chain.p1.tokens, steps)
        pairs = {(x, y) for x in xs for y in graph.walk(g, (x,), chain.p2.tokens, steps)}
    except graph.StepsExhausted:
        return BudgetExceeded("steps")
    if budget is not None and len(pairs) > budget.max_rows:
        return BudgetExceeded("rows")
    return TupleSet(frozenset(pairs))


def _render_segment(path: MetaPath) -> str:
    return "/".join(
        ("^a:" + t.name) if t.inverse else ("a:" + t.name) for t in path.tokens
    )


def render_sparql(se_mid: str, chain: ChainPair) -> str:
    """Render the chain as SPARQL text selecting distinct (?x, ?y) pairs.

    The five-line template is fixed and golden-file tested byte for byte;
    inverse tokens use the property-path inverse operator ``^``.
    """
    return (
        f"{SPARQL_PREFIX}\n"
        "SELECT DISTINCT ?x ?y WHERE{\n"
        f"a:{se_mid} {_render_segment(chain.p1)} ?x .\n"
        f"?x {_render_segment(chain.p2)} ?y.\n"
        "}\n"
    )
