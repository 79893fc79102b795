"""In-memory knowledge graph with direction-encoded predicate edges.

Entity identifier strings (e.g. ``m.02dzsr``) are interned into dense
integer ids. Every triple (s, p, o) is stored under both endpoints: o under
token p on s and s under token ^p on o, so one adjacency map serves forward
and inverse traversal. The graph is read-only after construction: it keeps
its edges as flat integer columns and builds an entity's adjacency map on
first read. Decoded entries are memoized; threads may share a graph, and a
race decodes an entry twice into equal values.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

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


class checked:
    """The one rule for malformed input: a ``KeyError``, ``IndexError``,
    ``TypeError`` or ``ValueError`` raised in the block that decodes
    ``path:line_no`` becomes a ``ParseError`` naming it, with the message ``bad
    <what>: <repr of the error>``, or without ``what`` (or for a decode error,
    whose repr holds its whole input) the error's own text; a ``ParseError``
    passes unchanged. A file of records may move ``line_no``."""

    MALFORMED = (KeyError, IndexError, TypeError, ValueError)

    def __init__(self, path: str, line_no: int, what: str = ""):
        self.path, self.line_no, self.what = path, line_no, what

    def __enter__(self) -> "checked":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, self.MALFORMED) and not isinstance(exc, ParseError):
            plain = not self.what or isinstance(exc, UnicodeError)
            message = str(exc) if plain else f"bad {self.what}: {exc!r}"
            raise ParseError(self.path, self.line_no, message) from exc


def string(value, name: str, default: str | None = None) -> str:
    """``value``, which must be a string; else a ``TypeError`` naming ``name``.
    With a ``default``, ``None`` (an absent or ``null`` field) reads as it."""
    if value is None and default is not None:
        return default
    if not isinstance(value, str):
        raise TypeError(f"{name!r} must be a string")
    return value


def strings(value, name: str) -> tuple[str, ...]:
    """``value``, which must be a list of strings, as a tuple."""
    if type(value) is not list or not set(map(type, value)) <= {str}:
        raise TypeError(f"{name!r} must be a list of strings")
    return tuple(value)


def number(value, name: str) -> float:
    """``value``, which must be a finite int or float (not a bool), as a float."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name!r} must be a finite number")
    return float(value)


def integer(value, name: str) -> int:
    """``value``, which must be an int (not a bool)."""
    if type(value) is not int:
        raise TypeError(f"{name!r} must be an integer")
    return value


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


class _Memo(dict):
    """A dict that builds a missing key's value with ``build(key)`` and keeps it.

    A hit is a plain dict lookup. Two threads that miss one key both build
    it, into equal values, and either one is kept.
    """

    __slots__ = ("_build",)

    def __init__(self, build: Callable):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


class KnowledgeGraph:
    """Read-only adjacency over interned entities, decoded per entity on first read.

    Entity ids are assigned by sorted order of the identifier strings. Each
    entity's edges are grouped by token: ``{PredicateToken: neighbour ids}``
    with tokens in (predicate name, inverse flag) order and each group's ids
    sorted, so any permutation of the input triples produces an identical
    graph. Equal tokens are one shared object. Decoded entries are memoized;
    two threads that race on one entity decode it twice into equal values.
    """

    def __init__(self, triples: Iterable[tuple[str, str, str]]):
        triple_set = sorted(set(triples))
        mids = sorted({t[0] for t in triple_set} | {t[2] for t in triple_set})
        ids = {m: i for i, m in enumerate(mids)}
        preds = sorted({t[1] for t in triple_set})
        code = {p: 2 * i for i, p in enumerate(preds)}
        s, c, o = np.array(
            [(ids[s], code[p], ids[o]) for s, p, o in triple_set], dtype=np.int64
        ).reshape(-1, 3).T
        # Each triple is an edge of both endpoints; sort them by (entity, code, neighbour).
        ent, cod, nbr = np.concatenate([s, o]), np.concatenate([c, c + 1]), np.concatenate([o, s])
        order = np.lexsort((nbr, cod, ent))
        ent, cod, nbr = ent[order], cod[order], nbr[order]
        starts = np.flatnonzero(np.diff(ent * (2 * len(preds)) + cod, prepend=-1))
        goff = np.searchsorted(ent[starts], np.arange(len(mids) + 1))
        noff = np.append(starts, len(nbr))
        self._assemble(mids, preds, [a.astype(np.int32) for a in (goff, cod[starts], noff, nbr)])

    def _assemble(self, mids: Sequence[str], preds: Sequence[str], columns: Sequence) -> None:
        """Set the graph from its entities, predicate names and four int32 columns.

        ``columns`` are ``(goff, codes, noff, nbrs)``: entity e's groups are
        ``goff[e]:goff[e + 1]``, and group i has token code ``codes[i]`` and
        the neighbour ids ``nbrs[noff[i]:noff[i + 1]]``. Token code 2j is
        predicate j forward and 2j + 1 its inverse, so groups in code order
        are in (name, inverse) order; each code maps to one shared token.
        """
        self._mids: tuple[str, ...] = tuple(mids)
        self._ids = dict(zip(self._mids, range(len(self._mids))))
        self._preds = preds = tuple(preds)
        self._columns = columns
        goff, codes, noff, nbrs = columns
        self._degree: list[int] = np.diff(noff[goff]).tolist()
        tokens = _Memo(lambda c: PredicateToken(preds[c >> 1], c & 1 == 1))
        goff, codes, noff, nbrs = map(memoryview, columns)  # ints read without a whole-column copy

        def groups(e: int) -> dict[PredicateToken, tuple[int, ...]]:
            nbrs_by_token = {}
            for i in range(goff[e], goff[e + 1]):
                nbrs_by_token[tokens[codes[i]]] = tuple(nbrs[noff[i]:noff[i + 1]])
            return nbrs_by_token

        self._adj: Mapping[int, dict[PredicateToken, tuple[int, ...]]] = _Memo(groups)

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
        """Every distinct triple in sorted order, read off the forward groups' columns."""
        goff, codes, noff, nbrs = self._columns
        group = np.repeat(np.arange(len(codes)), np.diff(noff))  # of each neighbour
        entity = np.repeat(np.arange(len(self._mids)), np.diff(goff))[group]
        forward = codes[group] % 2 == 0
        mids, preds = self._mids, self._preds
        return tuple(
            (mids[s], preds[c >> 1], mids[o])
            for s, c, o in zip(*(a[forward].tolist() for a in (entity, codes[group], nbrs)))
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
    steps: StepAllowance,
) -> set[int]:
    """Entities reachable from ``frontier`` by following ``tokens`` in order.

    The one traversal that follows predicate tokens: each hop expands every
    entity of the deduplicated frontier by one adjacency lookup. Each hop
    charges ``steps`` one step per frontier entity before expanding it and
    raises ``StepsExhausted`` when the allowance cannot cover the hop; the
    charge depends only on the frontier and the tokens.
    """
    cur = set(frontier)
    for e in cur:
        g._check(e)
    adj = g._adj
    for tok in tokens:
        if not cur:
            break
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
    with open_text(path) as fh:
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


class EntityMeta(NamedTuple):
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
    """Entity-id keyed metadata with an empty default for unknown entities.

    With ``decode``, the records are those of ``entities``, and each is built
    by ``decode(entity)`` on its first read and memoized.
    """

    def __init__(
        self,
        by_entity: Mapping[int, EntityMeta] | None = None,
        decode: Callable[[int], EntityMeta] = lambda entity: EMPTY_ENTITY_META,
        entities: Sequence[int] = (),
    ):
        self._by_entity = _Memo(decode)
        self._by_entity.update(by_entity or {})
        self._entities = entities or tuple(self._by_entity)

    def get(self, entity: int) -> EntityMeta:
        return self._by_entity[entity]

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[int]:
        return iter(self._entities)


class PredicateMetaStore:
    """Predicate-name keyed metadata, memoized per name; source types are always prefix-derived."""

    def __init__(self, tgt_by_name: Mapping[str, frozenset[str]] | None = None):
        tgt = self._tgt = dict(tgt_by_name or {})
        self._meta = _Memo(lambda name: PredicateMeta(
            predicate_src_tokens(name), tgt.get(name, frozenset())))

    def get(self, name: str) -> PredicateMeta:
        return self._meta[name]

    def __len__(self) -> int:
        return len(self._tgt)


@contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text; a byte that is not UTF-8 is a ``ParseError`` naming its line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            data = Path(path).read_bytes()  # decoded whole, so the error holds the byte's offset
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(path, data.count(b"\n", 0, exc.start) + 1, str(exc)) from None
            raise


def _json_object(path: str, line_no: int, text: str) -> dict:
    """The JSON object ``text``, which starts at line ``line_no`` of ``path``."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, line_no + exc.lineno - 1, f"bad JSON: {exc.msg}") from exc
    if not isinstance(value, dict):
        raise ParseError(path, line_no, "expected a JSON object")
    return value


def _json_lines(path: str) -> Iterator[tuple[int, dict]]:
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if text := line.strip():  # one line, so JSON reports no line of its own
                yield line_no, _json_object(path, line_no, text)


def read_json(path: str) -> dict:
    """The JSON object that makes up the whole file; anything else is a ``ParseError``."""
    with open_text(path) as fh:
        return _json_object(path, 1, fh.read())


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


def _type_field(
    rec: dict, key: str, memo: dict[tuple[str, ...], frozenset[str]]
) -> frozenset[str]:
    """Tokens of a list-of-strings field; absent or ``null`` is empty.

    ``memo`` maps each distinct list, checked once, to its tokens, so a file
    tokenizes each distinct list once and equal lists share one frozenset.
    """
    values = rec.get(key)
    if values is None:
        return frozenset()
    try:
        tokens = memo.get(tuple(values)) if type(values) is list else None
    except TypeError:  # an unhashable item, which ``strings`` rejects
        tokens = None
    if tokens is None:
        types = strings(values, key)
        tokens = memo[types] = frozenset(t for v in types for t in tokenize(v))
    return tokens


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
    with checked(path, 0) as at:
        for at.line_no, rec in _json_lines(path):
            mid = rec.get("mid")
            if not isinstance(mid, str) or not mid:
                raise ValueError("missing 'mid'")
            name = string(rec.get("name"), "name", "")
            description = string(rec.get("description"), "description", "")
            notable_types = _type_field(rec, "notable_types", types)
            rdf_types = _type_field(rec, "rdf_types", types)
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
    with checked(path, 0) as at:
        for at.line_no, rec in _json_lines(path):
            name = rec.get("name")
            if not isinstance(name, str) or not name:
                raise ValueError("missing 'name'")
            tgt_by_name[name] = _type_field(rec, "expected_target_types", types)
    return PredicateMetaStore(tgt_by_name)

