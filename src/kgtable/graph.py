"""In-memory knowledge graph with direction-encoded predicate edges.

Entity identifier strings (e.g. ``m.02dzsr``) are interned into dense
integer ids. Every triple (s, p, o) is stored under both endpoints: o under
token p on s and s under token ^p on o, so one adjacency map serves forward
and inverse traversal. The graph is immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .text import tokenize

DEFAULT_DEGREE_CAP = 500

# Tokens too generic to describe an entity type; dropped from prefix-derived
# predicate source types.
GENERIC_TYPE_TOKENS = frozenset({"base", "common", "type"})
# Entity-type strings starting with one of these are pruned wholesale.
GENERIC_TYPE_PREFIXES = ("base", "common", "type")


class ParseError(ValueError):
    """A line of an input file could not be parsed."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class UnknownEntityError(KeyError):
    """Lookup of an entity that is not part of the loaded graph."""


@dataclass(frozen=True, order=True)
class PredicateToken:
    """A predicate name plus a direction flag; ``^name`` marks the inverse."""

    name: str
    inverse: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("predicate name must be non-empty")

    def render(self) -> str:
        return ("^" + self.name) if self.inverse else self.name

    def flipped(self) -> "PredicateToken":
        return PredicateToken(self.name, not self.inverse)

    @classmethod
    def parse(cls, text: str) -> "PredicateToken":
        if text.startswith("^"):
            return cls(text[1:], True)
        return cls(text)

    def __str__(self) -> str:
        return self.render()


class KnowledgeGraph:
    """Immutable adjacency over interned entities.

    Entity ids are assigned by sorted order of the identifier strings. Each
    entity's edges are grouped by token: ``{PredicateToken: neighbour ids}``
    with tokens in (predicate name, inverse flag) order and each group's ids
    sorted, so any permutation of the input triples produces an identical
    graph. Equal tokens are one shared object.
    """

    def __init__(self, triples: Iterable[tuple[str, str, str]]):
        triple_set = sorted(set(triples))
        mids = sorted({t[0] for t in triple_set} | {t[2] for t in triple_set})
        self._mids: tuple[str, ...] = tuple(mids)
        self._ids: dict[str, int] = {m: i for i, m in enumerate(mids)}
        edges: list[list[tuple[str, bool, int]]] = [[] for _ in mids]
        for s, p, o in triple_set:
            si, oi = self._ids[s], self._ids[o]
            edges[si].append((p, False, oi))
            edges[oi].append((p, True, si))
        tokens: dict[tuple[str, bool], PredicateToken] = {}
        adj: list[dict[PredicateToken, tuple[int, ...]]] = []
        for entity_edges in edges:
            entity_edges.sort()
            groups: dict[PredicateToken, tuple[int, ...]] = {}
            for key, group in groupby(entity_edges, key=itemgetter(0, 1)):
                tok = tokens.get(key)
                if tok is None:
                    tok = tokens[key] = PredicateToken(*key)
                groups[tok] = tuple(nbr for _, _, nbr in group)
            adj.append(groups)
        self._adj: tuple[dict[PredicateToken, tuple[int, ...]], ...] = tuple(adj)
        self._degree: tuple[int, ...] = tuple(len(e) for e in edges)
        self._triples = tuple(triple_set)

    # -- entity interning ------------------------------------------------

    def __len__(self) -> int:
        return len(self._mids)

    def __contains__(self, mid: str) -> bool:
        return mid in self._ids

    def entity_id(self, mid: str) -> int:
        try:
            return self._ids[mid]
        except KeyError:
            raise UnknownEntityError(mid) from None

    def mid(self, entity: int) -> str:
        self._check(entity)
        return self._mids[entity]

    def entities(self) -> range:
        return range(len(self._mids))

    def predicate_names(self) -> tuple[str, ...]:
        return tuple(sorted({p for _, p, _ in self._triples}))

    def triples(self) -> tuple[tuple[str, str, str], ...]:
        return self._triples

    # -- adjacency -------------------------------------------------------

    def _check(self, entity: int) -> None:
        if not 0 <= entity < len(self._mids):
            raise UnknownEntityError(entity)

    def adjacency(self, entity: int) -> Mapping[PredicateToken, tuple[int, ...]]:
        """The entity's neighbour ids grouped by token; read-only."""
        self._check(entity)
        return self._adj[entity]

    def degree(self, entity: int) -> int:
        self._check(entity)
        return self._degree[entity]


class StepAllowance:
    """Node expansions left to the walks of one query; by default only counted."""

    __slots__ = ("left",)

    def __init__(self, left: int = sys.maxsize):
        self.left = left


class StepsExhausted(Exception):
    """A budgeted walk needed more node expansions than its allowance had left."""


def walk(
    g: KnowledgeGraph,
    frontier: Iterable[int],
    tokens: Sequence[PredicateToken],
    steps: StepAllowance | None = None,
) -> set[int]:
    """Entities reachable from ``frontier`` by following ``tokens`` in order.

    The one traversal that follows predicate tokens: each hop expands every
    entity of the deduplicated frontier by one adjacency lookup. With a step
    allowance, each hop charges one step per frontier entity before expanding
    it and raises ``StepsExhausted`` when the allowance cannot cover the hop;
    the charge depends only on the frontier and the tokens.
    """
    cur = set(frontier)
    for e in cur:
        g._check(e)
    adj = g._adj
    for tok in tokens:
        if not cur:
            break
        if steps is not None:
            if len(cur) > steps.left:
                raise StepsExhausted
            steps.left -= len(cur)
        nxt: set[int] = set()
        for e in cur:
            nxt.update(adj[e].get(tok, ()))
        cur = nxt
    return cur


def load_triples(path: str) -> KnowledgeGraph:
    """Load a graph from a tab-separated ``subject predicate object`` file.

    ``#``-prefixed comment lines and blank lines are ignored; duplicate
    triples are deduplicated silently; line order does not matter.
    """
    triples = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(parts):
                raise ParseError(path, line_no, "expected 'subject<TAB>predicate<TAB>object'")
            triples.append((parts[0], parts[1], parts[2]))
    return KnowledgeGraph(triples)


# -- entity / predicate metadata ------------------------------------------


@dataclass(frozen=True)
class EntityMeta:
    """Textual metadata of one entity; missing fields are empty, never absent."""

    name: str = ""
    description: tuple[str, ...] = ()
    notable_types: frozenset[str] = frozenset()
    rdf_types: frozenset[str] = frozenset()


EMPTY_ENTITY_META = EntityMeta()


@dataclass(frozen=True)
class PredicateMeta:
    src_type: frozenset[str]
    tgt_types: frozenset[str] = frozenset()


def predicate_src_tokens(name: str) -> frozenset[str]:
    """Source-type tokens derived from the predicate-name prefix.

    Drops the final dot-separated segment, tokenizes the remainder, and
    removes the generic tokens base/common/type. A name without a dot has
    no prefix and yields the empty set.
    """
    if "." not in name:
        return frozenset()
    prefix = name.rsplit(".", 1)[0]
    return frozenset(t for t in tokenize(prefix) if t not in GENERIC_TYPE_TOKENS)


class EntityMetaStore:
    """Entity-id keyed metadata with an empty default for unknown entities."""

    def __init__(self, by_entity: Mapping[int, EntityMeta] | None = None):
        self._by_entity = dict(by_entity or {})

    def get(self, entity: int) -> EntityMeta:
        return self._by_entity.get(entity, EMPTY_ENTITY_META)

    def __len__(self) -> int:
        return len(self._by_entity)

    def __iter__(self) -> Iterator[int]:
        return iter(self._by_entity)


class PredicateMetaStore:
    """Predicate-name keyed metadata; source types are always prefix-derived."""

    def __init__(self, tgt_by_name: Mapping[str, frozenset[str]] | None = None):
        self._tgt = dict(tgt_by_name or {})

    def get(self, name: str) -> PredicateMeta:
        return PredicateMeta(predicate_src_tokens(name), self._tgt.get(name, frozenset()))

    def __len__(self) -> int:
        return len(self._tgt)


def _json_lines(path: str) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"bad JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise ParseError(path, line_no, "expected a JSON object")
            yield line_no, record


def _type_tokens(values) -> frozenset[str]:
    out: set[str] = set()
    for v in values or []:
        out.update(tokenize(str(v)))
    return frozenset(out)


def load_entity_meta(path: str, g: KnowledgeGraph) -> EntityMetaStore:
    """Load line-delimited JSON ``{mid, name, description, notable_types, rdf_types}``.

    Records whose mid is not an entity of ``g`` are skipped: they can never
    be referenced through the graph.
    """
    by_entity: dict[int, EntityMeta] = {}
    for line_no, rec in _json_lines(path):
        mid = rec.get("mid")
        if not isinstance(mid, str) or not mid:
            raise ParseError(path, line_no, "missing 'mid'")
        if mid not in g:
            continue
        by_entity[g.entity_id(mid)] = EntityMeta(
            name=str(rec.get("name", "")),
            description=tokenize(str(rec.get("description", ""))),
            notable_types=_type_tokens(rec.get("notable_types")),
            rdf_types=_type_tokens(rec.get("rdf_types")),
        )
    return EntityMetaStore(by_entity)


def load_predicate_meta(path: str) -> PredicateMetaStore:
    """Load line-delimited JSON ``{name, expected_target_types}`` records."""
    tgt_by_name: dict[str, frozenset[str]] = {}
    for line_no, rec in _json_lines(path):
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError(path, line_no, "missing 'name'")
        tgt_by_name[name] = _type_tokens(rec.get("expected_target_types"))
    return PredicateMetaStore(tgt_by_name)
