"""Bounded simple-path enumeration and candidate chain construction.

A meta-path is a sequence of direction-marked predicate tokens; a chain
pairs a path from the subject entity to a column-1 entity with a path from
column 1 to column 2. Enumeration is depth-first with hub pruning (nodes
over the degree cap are never expanded) and generic-prefix pruning on the
first edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import DEFAULT_DEGREE_CAP, KnowledgeGraph, PredicateToken, walk

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

    def __len__(self) -> int:
        return len(self.tokens)

    def canonical(self) -> str:
        return "/".join(t.render() for t in self.tokens)

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


@dataclass(frozen=True)
class CandidateChainSet:
    """Deduplicated chains in canonical-string order."""

    chains: tuple[ChainPair, ...]

    @classmethod
    def of(cls, chains: Iterable[ChainPair]) -> "CandidateChainSet":
        unique = {c.canonical(): c for c in chains}
        return cls(tuple(unique[k] for k in sorted(unique)))

    def __len__(self) -> int:
        return len(self.chains)

    def __iter__(self) -> Iterator[ChainPair]:
        return iter(self.chains)

    def __contains__(self, chain: ChainPair) -> bool:
        return chain in self.chains


def enumerate_simple_paths(
    g: KnowledgeGraph,
    src: int,
    dst: int,
    max_len: int = MAX_SEGMENT_LENGTH,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    banned_prefixes: Iterable[str] = DEFAULT_BANNED_PREFIXES,
) -> list[MetaPath]:
    """All simple paths from ``src`` to ``dst`` of length <= ``max_len``.

    A path may not revisit any entity, including ``src``, so ``src == dst``
    yields no path. Intermediate nodes are only expanded while their degree
    is within ``degree_cap``; ``src`` is always expanded and ``dst`` never
    needs to satisfy the cap. Paths whose first token name starts with a
    banned prefix are dropped. The result is a set, materialized in
    canonical-string sort order.
    """
    g._check(src)
    g._check(dst)
    if not 1 <= max_len <= MAX_SEGMENT_LENGTH:
        raise ValueError(f"max_len must be in 1..{MAX_SEGMENT_LENGTH}")
    if src == dst:
        return []
    banned = tuple(banned_prefixes)

    found: set[MetaPath] = set()
    visited = {src}

    def _dfs(node: int, prefix: tuple[PredicateToken, ...]) -> None:
        for tok, nbrs in g.adjacency(node).items():
            if not prefix and tok.name.startswith(banned):
                continue
            path = prefix + (tok,)
            deeper = len(path) < max_len
            for nbr in nbrs:
                if nbr == dst:
                    found.add(MetaPath(path))
                elif deeper and nbr not in visited and g.degree(nbr) <= degree_cap:
                    visited.add(nbr)
                    _dfs(nbr, path)
                    visited.remove(nbr)

    _dfs(src, ())
    return sorted(found, key=MetaPath.canonical)


def join_chains(
    g: KnowledgeGraph,
    se: int,
    p1s: Iterable[MetaPath],
    p2s: Iterable[MetaPath],
) -> CandidateChainSet:
    """M x N join of P1 and P2 candidates, keeping chains that retrieve something.

    A pair (p1, p2) survives when the entities reached from ``se`` via p1
    intersect the entities that have at least one p2-successor, i.e. the
    joined chain returns at least one (x, y) tuple when executed.
    """
    g._check(se)
    p1_list = sorted(set(p1s), key=MetaPath.canonical)
    p2_list = sorted(set(p2s), key=MetaPath.canonical)
    if not p1_list or not p2_list:
        return CandidateChainSet.of(())

    p1_reach = {p1: walk(g, {se}, p1.tokens) for p1 in p1_list}
    xs_union: set[int] = set().union(*p1_reach.values())

    kept = []
    for p2 in p2_list:
        has_successor = {x for x in xs_union if walk(g, {x}, p2.tokens)}
        if not has_successor:
            continue
        for p1 in p1_list:
            if p1_reach[p1] & has_successor:
                kept.append(ChainPair(p1, p2))
    return CandidateChainSet.of(kept)
