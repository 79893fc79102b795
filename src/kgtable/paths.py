"""Bounded simple-path enumeration and candidate chain construction.

A meta-path is a sequence of direction-marked predicate tokens; a chain
pairs a path from the subject entity to a column-1 entity with a path from
column 1 to column 2. Enumeration is depth-first with hub pruning (nodes
over the degree cap are never expanded), generic-prefix pruning on the
first edge and a target-neighbour barrier (only a target's neighbours
start the last hop). The chains of a table share their segments, so one
memo of segment reaches serves their join and every execution of them; a
reach without a memo runs through a fresh one. An entity whose first hop
leads to a single neighbour shares that neighbour's reach of the rest of
the segment, so the entities around a hub share one set of its members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import DEFAULT_DEGREE_CAP, KnowledgeGraph, PredicateToken, walk
from .graph import StepAllowance, StepsExhausted

MAX_SEGMENT_LENGTH = 3

# Default generic/common first-edge prefixes pruned from candidate paths.
DEFAULT_BANNED_PREFIXES = (
    "freebase",
    "common.topic.notable",
    "common.topic.image",
    "common.topic.webpage",
    "type.content",
    "type.object",
    "dataworld.gardening_hint",
)

SEGMENT_SEPARATOR = " / "


@dataclass(frozen=True, order=True)
class MetaPath:
    """A non-empty sequence of predicate tokens; canonical form joins on ``/``."""

    tokens: tuple[PredicateToken, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("meta-path must have at least one token")
        # Sorting, joining and saving chains read the canonical form many times.
        object.__setattr__(self, "_canonical", "/".join(t.render() for t in self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    def canonical(self) -> str:
        return self._canonical

    @classmethod
    def parse(cls, text: str) -> "MetaPath":
        return cls(tuple(PredicateToken.parse(p) for p in text.split("/") if p))

    def __str__(self) -> str:
        return self.canonical()


@dataclass(frozen=True, order=True)
class ChainPair:
    """A [P1 - P2] chain rooted at the subject entity.

    The canonical form separates the segments with `` / `` (spaced), which is
    distinct from the plain ``/`` joining tokens inside a segment.
    """

    p1: MetaPath
    p2: MetaPath

    def total_length(self) -> int:
        return len(self.p1) + len(self.p2)

    def canonical(self) -> str:
        return self.p1.canonical() + SEGMENT_SEPARATOR + self.p2.canonical()

    @classmethod
    def parse(cls, text: str) -> "ChainPair":
        parts = text.split(SEGMENT_SEPARATOR)
        if len(parts) != 2:
            raise ValueError(f"chain must have exactly two segments: {text!r}")
        return cls(MetaPath.parse(parts[0]), MetaPath.parse(parts[1]))

    def __str__(self) -> str:
        return self.canonical()


def enumerate_simple_paths(
    g: KnowledgeGraph,
    src: int,
    targets: Iterable[int],
    max_len: int = MAX_SEGMENT_LENGTH,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    banned_prefixes: Iterable[str] = DEFAULT_BANNED_PREFIXES,
) -> list[MetaPath]:
    """All simple paths from ``src`` to any of ``targets``, of length <= ``max_len``.

    A path may not revisit any entity, including ``src``, so none ends at
    ``src``. Intermediate nodes are only expanded while their degree is
    within ``degree_cap``; ``src`` is always expanded and targets need not
    satisfy the cap; a target is an intermediate only when there are others.
    Paths whose first token name starts with a banned prefix are dropped.
    Only a target's neighbours start the last hop (no other node can end a
    path). The result is the union over the targets, in canonical-string order.
    """
    targets = set(targets)
    for e in (src, *targets):
        g._check(e)
    if not 1 <= max_len <= MAX_SEGMENT_LENGTH:
        raise ValueError(f"max_len must be in 1..{MAX_SEGMENT_LENGTH}")
    targets.discard(src)
    if not targets:
        return []
    banned = tuple(banned_prefixes)
    unexpanded = targets if len(targets) == 1 else set()

    found: set[tuple[PredicateToken, ...]] = set()
    visited = {src}
    adj, degree = g._adj, g._degree  # neighbour ids need no id check
    near = set().union(*(nbrs for t in targets for nbrs in adj[t].values()))

    def _dfs(node: int, prefix: tuple[PredicateToken, ...]) -> None:
        for tok, nbrs in adj[node].items():
            if not prefix and tok.name.startswith(banned):
                continue
            path = prefix + (tok,)
            if not targets.isdisjoint(nbrs) and targets.intersection(nbrs) - visited:
                found.add(path)
            if len(path) == max_len:
                continue
            if len(path) == max_len - 1:
                nbrs = near.intersection(nbrs)
            for nbr in nbrs:
                if nbr not in visited and nbr not in unexpanded and degree[nbr] <= degree_cap:
                    visited.add(nbr)
                    _dfs(nbr, path)
                    visited.remove(nbr)

    _dfs(src, ())
    return sorted((MetaPath(p) for p in found), key=MetaPath.canonical)


ReachMemo = dict[tuple[PredicateToken, ...], dict[int, tuple[set[int], int]]]


def segment_reach(
    g: KnowledgeGraph, tokens: tuple[PredicateToken, ...], steps: StepAllowance,
    memo: ReachMemo | None = None,
) -> Callable[[int], set[int]]:
    """Maps a start entity to the entities it reaches along ``tokens``, charged to ``steps``.

    The memo (segment -> entity -> (reached, step charge)) walks each (entity,
    segment) once and charges repeats the recorded charge, so queries run
    out of steps as a walk would; without one, a fresh memo is used. A miss
    (no first-token edge) costs 1 step and reaches nothing without a walk.
    A first hop to a single neighbour shares that neighbour's memoized reach
    of the rest of the segment (the same set), charged 1 step more, as a
    walk would be.
    Reached sets are shared: read only.
    """
    memo = memo if memo is not None else {}
    seen = memo.setdefault(tokens, {})
    left = StepAllowance()
    rest = None  # the reach along tokens[1:], made on first use

    def reach(entity: int) -> set[int]:
        nonlocal rest
        hit = seen.get(entity)
        if hit is None:
            nbrs = g.adjacency(entity).get(tokens[0])
            if not nbrs:
                hit = seen[entity] = (set(), 1)
            elif len(nbrs) == 1 and len(tokens) > 1:
                rest = rest or segment_reach(g, tokens[1:], left, memo)
                left.left = steps.left - 1
                hit = seen[entity] = (rest(nbrs[0]), steps.left - left.left)
            else:
                left.left = steps.left
                hit = seen[entity] = (walk(g, (entity,), tokens, left), steps.left - left.left)
        reached, charge = hit
        if charge > steps.left:
            raise StepsExhausted
        steps.left -= charge
        return reached

    return reach


def join_chains(
    g: KnowledgeGraph,
    se: int,
    p1s: Iterable[MetaPath],
    p2s: Iterable[MetaPath],
    memo: ReachMemo | None = None,
) -> tuple[ChainPair, ...]:
    """M x N join of P1 and P2 candidates, keeping chains that retrieve something.

    A pair (p1, p2) survives when the entities reached from ``se`` via p1
    intersect the entities that have at least one p2-successor, i.e. the
    joined chain returns at least one (x, y) tuple when executed. The
    survivors come deduplicated by canonical string, in canonical order.
    """
    g._check(se)
    p1_list = sorted(set(p1s), key=MetaPath.canonical)
    p2_list = sorted(set(p2s), key=MetaPath.canonical)
    if not p1_list or not p2_list:
        return ()

    steps = StepAllowance()  # only measures the charges the memo records
    p1_reach = {p1: segment_reach(g, p1.tokens, steps, memo)(se) for p1 in p1_list}
    xs_union: set[int] = set().union(*p1_reach.values())

    kept: dict[str, ChainPair] = {}
    for p2 in p2_list:
        reach_p2 = segment_reach(g, p2.tokens, steps, memo)
        has_successor = {x for x in xs_union if reach_p2(x)}
        if not has_successor:
            continue
        for p1 in p1_list:
            if p1_reach[p1] & has_successor:
                chain = ChainPair(p1, p2)
                kept[chain.canonical()] = chain
    return tuple(kept[k] for k in sorted(kept))
