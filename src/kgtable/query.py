"""Chain execution as an in-memory path query, plus SPARQL text rendering.

A chain runs as one ``paths.segment_reach`` along P1 from the subject
entity plus one along P2 from each x it reached, through a memo when the
chains of a table share one; its result stays factorized as ``{x: Y_x}``.
A deterministic node-expansion budget, one step allowance shared by all
walks of a query, stands in for a wall-clock timeout, and rows are counted
as they come; exceeding either discards all partial results. This module
binds no name of its own for ``walk``, so a tracer that wraps the name
where its callers bind it leaves no unwrapped copy behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import graph
from .graph import KnowledgeGraph
from .paths import ChainPair, MetaPath, ReachMemo, segment_reach

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
    """Distinct (x, y) pairs as ``{x: Y_x}`` over the xs with some y; ``Y_x`` is read only.

    ``len`` and ``in`` build no pair set; ``pairs`` builds it on first use.
    """

    by_x: dict[int, set[int]]

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((x, y) for x, ys in self.by_x.items() for y in ys)

    def ordered(self) -> list[tuple[int, int]]:
        return sorted([(x, y) for x, ys in self.by_x.items() for y in ys])

    def __len__(self) -> int:
        return sum(map(len, self.by_x.values()))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        ys = self.by_x.get(pair[0])
        return ys is not None and pair[1] in ys


def _allowance(budget: QueryBudget | None) -> graph.StepAllowance:
    return graph.StepAllowance() if budget is None else graph.StepAllowance(budget.max_steps)


def execute_prefix(
    g: KnowledgeGraph,
    se: int,
    p1: MetaPath,
    budget: QueryBudget | None = None,
) -> set[int] | BudgetExceeded:
    """Distinct entities reached from ``se`` via ``p1``."""
    try:
        xs = segment_reach(g, p1.tokens, _allowance(budget))(se)
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
    memo: ReachMemo | None = None,
) -> TupleSet | BudgetExceeded:
    """All distinct (x, y) pairs with x reached via P1 from ``se`` and y via P2 from x.

    Stops at the first x, in sorted order, that takes the rows past ``max_rows``.
    """
    steps = _allowance(budget)
    try:
        xs = segment_reach(g, chain.p1.tokens, steps, memo)(se)
        reach_p2 = segment_reach(g, chain.p2.tokens, steps, memo)
        by_x, rows = {}, 0
        for x in sorted(xs):
            ys = reach_p2(x)
            if ys:
                rows += len(ys)
                if budget is not None and rows > budget.max_rows:
                    return BudgetExceeded("rows")
                by_x[x] = ys
    except graph.StepsExhausted:
        return BudgetExceeded("steps")
    return TupleSet(by_x)


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
