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
from itertools import chain
from pathlib import Path
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
        # Every adjacency insert and walk lookup hashes a token: compute it once.
        object.__setattr__(self, "_hash", hash((self.name, self.inverse)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes, so a copy recomputes its hash.
        return PredicateToken, (self.name, self.inverse)

    def render(self) -> str:
        return ("^" + self.name) if self.inverse else self.name

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
        ids = {m: i for i, m in enumerate(mids)}
        preds = sorted({t[1] for t in triple_set})
        code = {p: 2 * i for i, p in enumerate(preds)}
        # Sorted triples append each group's ids ascending.
        grouped: list[dict[int, list[int]]] = [{} for _ in mids]
        for s, p, o in triple_set:
            si, oi, c = ids[s], ids[o], code[p]
            grouped[si].setdefault(c, []).append(oi)
            grouped[oi].setdefault(c + 1, []).append(si)
        self._assemble(mids, ids, preds, ([(c, gs[c]) for c in sorted(gs)] for gs in grouped))

    def _assemble(
        self,
        mids: Sequence[str],
        ids: dict[str, int],
        preds: Sequence[str],
        grouped: Iterable[Iterable[tuple[int, Sequence[int]]]],
    ) -> None:
        """Set the graph from its entities and each entity's ``(token code, ids)`` groups.

        ``mids`` lists the entities in id order and ``ids`` inverts it;
        ``preds`` lists the predicate names in sorted order. Token code 2i is
        predicate i forward and 2i + 1 its inverse, so groups in code order
        are in (name, inverse) order; each code maps to one shared token, and
        a code outside the tokens is a ``KeyError``.
        """
        self._mids: tuple[str, ...] = tuple(mids)
        self._ids = ids
        tokens = dict(enumerate(PredicateToken(p, inv) for p in preds for inv in (False, True)))
        adj = []
        for groups in grouped:  # plain loops: a comprehension per entity costs a call
            nbrs_by_token = {}
            for c, nbrs in groups:
                nbrs_by_token[tokens[c]] = tuple(nbrs)
            adj.append(nbrs_by_token)
        self._adj: tuple[dict[PredicateToken, tuple[int, ...]], ...] = tuple(adj)
        self._degree: tuple[int, ...] = tuple(sum(map(len, a.values())) for a in adj)

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

    def triples(self) -> tuple[tuple[str, str, str], ...]:
        """Every distinct triple in sorted order, read off the forward groups."""
        mids = self._mids
        return tuple(
            (mids[s], tok.name, mids[o])
            for s, groups in enumerate(self._adj)
            for tok, nbrs in groups.items()
            if not tok.inverse
            for o in nbrs
        )

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


def _tsv_rows(path: str, width: int, expected: str) -> Iterator[list[str]]:
    """The fields of each tab-separated line of ``path``.

    ``#``-prefixed comment lines and blank lines are skipped; a line without
    exactly ``width`` non-empty fields is a ``ParseError`` saying what was
    ``expected``.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != width or not all(parts):
                raise ParseError(path, line_no, f"expected {expected!r}")
            yield parts


def load_triples(path: str) -> KnowledgeGraph:
    """Load a graph from a tab-separated ``subject predicate object`` file.

    ``#``-prefixed comment lines and blank lines are ignored; duplicate
    triples are deduplicated silently; line order does not matter.
    """
    rows = _tsv_rows(path, 3, "subject<TAB>predicate<TAB>object")
    return KnowledgeGraph(tuple(parts) for parts in rows)


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


def read_json(path: str) -> dict:
    """The JSON object that makes up the whole file; anything else is a ``ParseError``."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"bad JSON: {exc.msg}") from exc
    if not isinstance(value, dict):
        raise ParseError(path, 1, "expected a JSON object")
    return value


def write_json_lines(path: str | Path, records: Iterable) -> None:
    """Write each record as one compact sorted-key JSON line, creating the directory.

    The one format of every JSON artifact, so equal records give equal bytes;
    a whole-file artifact is one record, which ``read_json`` reads back.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            # Records are trees, so the encoder need not track containers for cycles.
            text = json.dumps(record, sort_keys=True, separators=(",", ":"), check_circular=False)
            fh.write(text + "\n")


def _text_field(rec: dict, key: str, path: str, line_no: int) -> str:
    """A string field; absent or ``null`` is empty."""
    value = rec.get(key)
    if value is None:
        return ""
    if not isinstance(value, str):
        raise ParseError(path, line_no, f"{key!r} must be a string")
    return value


def _type_field(
    rec: dict, key: str, path: str, line_no: int, memo: dict[tuple[str, ...], frozenset[str]]
) -> frozenset[str]:
    """Tokens of a list-of-strings field; absent or ``null`` is empty.

    ``memo`` maps each distinct list to its tokens, so a file tokenizes each
    distinct list once and equal lists share one frozenset.
    """
    values = rec.get(key)
    if values is None:
        return frozenset()
    if isinstance(values, list):
        types = tuple(values)
        try:
            tokens = memo.get(types)  # holds lists of strings only
        except TypeError:  # an unhashable item
            tokens = None
        if tokens is not None:
            return tokens
        out: set[str] = set()
        for v in types:
            if not isinstance(v, str):
                break
            out.update(tokenize(v))
        else:
            tokens = memo[types] = frozenset(out)
            return tokens
    raise ParseError(path, line_no, f"{key!r} must be a list of strings")


def load_entity_meta(path: str, g: KnowledgeGraph) -> EntityMetaStore:
    """Load line-delimited JSON ``{mid, name, description, notable_types, rdf_types}``.

    ``name`` and ``description`` are strings and the type fields lists of
    strings; any other value is a ``ParseError``. Records whose mid is not an
    entity of ``g`` are checked but not stored: they can never be referenced
    through the graph.
    """
    by_entity: dict[int, EntityMeta] = {}
    types: dict[tuple[str, ...], frozenset[str]] = {}
    descriptions: dict[str, tuple[str, ...]] = {}  # equal descriptions share one token tuple
    for line_no, rec in _json_lines(path):
        mid = rec.get("mid")
        if not isinstance(mid, str) or not mid:
            raise ParseError(path, line_no, "missing 'mid'")
        name = _text_field(rec, "name", path, line_no)
        description = _text_field(rec, "description", path, line_no)
        notable_types = _type_field(rec, "notable_types", path, line_no, types)
        rdf_types = _type_field(rec, "rdf_types", path, line_no, types)
        if mid in g:
            tokens = descriptions.get(description)
            if tokens is None:
                tokens = descriptions[description] = tokenize(description)
            by_entity[g.entity_id(mid)] = EntityMeta(name, tokens, notable_types, rdf_types)
    return EntityMetaStore(by_entity)


def load_predicate_meta(path: str) -> PredicateMetaStore:
    """Load line-delimited JSON ``{name, expected_target_types}`` records."""
    tgt_by_name: dict[str, frozenset[str]] = {}
    types: dict[tuple[str, ...], frozenset[str]] = {}
    for line_no, rec in _json_lines(path):
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError(path, line_no, "missing 'name'")
        tgt_by_name[name] = _type_field(rec, "expected_target_types", path, line_no, types)
    return PredicateMetaStore(tgt_by_name)


# -- compiled KB -------------------------------------------------------------


def encode_kb(
    g: KnowledgeGraph, entity_meta: EntityMetaStore, pred_meta: PredicateMetaStore
) -> dict:
    """A loaded KB as one JSON record of integer ids and string tables.

    Each entity's groups are ``[token code, neighbour ids]`` in the codes of
    ``KnowledgeGraph._assemble``. Entity metadata refers to the distinct
    description-token tuples and type-token sets by index; records keep the
    stores' order, so equal stores give equal records.
    """
    tokens = {tok for groups in g._adj for tok in groups}
    preds = sorted({tok.name for tok in tokens})
    forward = {p: 2 * i for i, p in enumerate(preds)}
    code = {tok: forward[tok.name] + tok.inverse for tok in tokens}
    descriptions: dict[tuple[str, ...], int] = {}
    type_sets: dict[frozenset[str], int] = {}
    # Each distinct value gets the next index.
    d_index, t_index = descriptions.setdefault, type_sets.setdefault
    entities = [
        (e, m.name, d_index(m.description, len(descriptions)),
         t_index(m.notable_types, len(type_sets)), t_index(m.rdf_types, len(type_sets)))
        for e, m in entity_meta._by_entity.items()
    ]
    predicate_types = [(name, t_index(tgt, len(type_sets))) for name, tgt in pred_meta._tgt.items()]
    return {
        "mids": g._mids,
        "predicates": preds,
        "adjacency": [[(code[tok], nbrs) for tok, nbrs in groups.items()] for groups in g._adj],
        "descriptions": list(descriptions),
        "type_sets": [sorted(t) for t in type_sets],
        "entities": entities,
        "predicate_types": predicate_types,
    }


def _check_ids(what: str, ids: Iterable, n: int) -> None:
    """Raise ``ValueError`` unless every id is an int in ``range(n)``."""
    ids = list(ids)
    # A float makes the sum a float; any other non-int makes it raise.
    if ids and (type(sum(ids)) is not int or min(ids) < 0 or max(ids) >= n):
        raise ValueError(f"{what} id is not an entity of the graph")


def decode_kb(
    rec: dict, path: str, meta: bool = True
) -> tuple[KnowledgeGraph, EntityMetaStore | None, PredicateMetaStore | None]:
    """The graph and, with ``meta``, the metadata stores ``encode_kb`` recorded.

    Equal descriptions share one tuple and equal type sets one frozenset. A
    missing field, a value of the wrong type or an id out of range is a
    ``ParseError`` naming ``path``; without ``meta`` the metadata goes
    unread and unchecked, and both stores are ``None``.
    """
    try:
        mids, preds = rec["mids"], rec["predicates"]
        if not set(map(type, chain(mids, preds))) <= {str}:
            raise ValueError("a mid or predicate name is not a string")
        ids = {m: i for i, m in enumerate(mids)}
        if len(ids) != len(mids) or len(rec["adjacency"]) != len(mids):
            raise ValueError("mids repeat or differ in number from the adjacency lists")
        g = KnowledgeGraph.__new__(KnowledgeGraph)
        g._assemble(mids, ids, preds, rec["adjacency"])
        nbrs = chain.from_iterable(chain.from_iterable(map(dict.values, g._adj)))
        _check_ids("a neighbour", nbrs, len(mids))
        if not meta:
            return g, None, None
        descriptions = [tuple(d) for d in rec["descriptions"]]
        type_sets = [frozenset(t) for t in rec["type_sets"]]
        by_entity = {
            e: EntityMeta(name, descriptions[d], type_sets[notable], type_sets[rdf])
            for e, name, d, notable, rdf in rec["entities"]
        }
        tgt_by_name = {name: type_sets[t] for name, t in rec["predicate_types"]}
        strings = chain(
            chain.from_iterable(descriptions), chain.from_iterable(type_sets),
            (m.name for m in by_entity.values()), tgt_by_name,
        )
        if not set(map(type, strings)) <= {str}:
            raise ValueError("a name or token is not a string")
        _check_ids("an entity metadata", by_entity, len(mids))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(path, 1, f"bad compiled KB: {exc!r}") from exc
    return g, EntityMetaStore(by_entity), PredicateMetaStore(tgt_by_name)
