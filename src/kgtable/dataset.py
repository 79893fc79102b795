"""Turn a raw table corpus plus linking files into annotated training data.

The KB, the word embeddings and each entity's SET tokens are compiled first
(``CompiledKB``); ``save_kb`` writes them as what serving reads besides the
dataset files. Pipeline per table, on that KB: link cells to graph entities,
build the query intent string and normalized column names, read the
subject's SET, enumerate and join candidate chains, execute every chain to
score it against the ground-truth rows, and label positives. Tables failing
any constraint are rejected with a reason. The corpus is then split
80/10/10, training tables are padded with sampled negatives, and two
vocabularies are built from the training+validation portions.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
import time
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .graph import (
    DEFAULT_DEGREE_CAP,
    EMPTY_ENTITY_META,
    GENERIC_TYPE_PREFIXES,
    EntityMeta,
    EntityMetaStore,
    KnowledgeGraph,
    ParseError,
    PredicateMetaStore,
    _Memo,
    _json_lines,
    _json_object,
    _tsv_rows,
    checked,
    integer,
    open_text,
    read_json,
    string,
    strings,
    write_json_lines,
)
from .paths import (
    DEFAULT_BANNED_PREFIXES,
    MAX_SEGMENT_LENGTH,
    ChainPair,
    MetaPath,
    enumerate_simple_paths,
    join_chains,
)
from .query import BudgetExceeded, QueryBudget, execute_chain
from .ranker import PretrainedEmbeddings
from .text import EMPTY_TOKEN, NUM_TOKEN, is_numeric, tokenize

OOV_TOKEN = "<oov>"
KB_FILE = "kb.bin"
# The dtype of each column of KB_FILE that is not int32.
KB_DTYPES = {"embedding_vectors": "<f8", "mids": "|u1", "names": "|u1", "description_tokens": "|u1"}
REBUILD = "rebuild the dataset with build-dataset"
RACY_NS = 2 * 10**9  # the coarsest common file timestamp granularity
MIN_LINKED_ROWS = 3
MIN_CHAIN_HITS = 2  # a retained chain must retrieve at least this many ground-truth rows
K_NEGATIVES = 10  # chains per training triple: one positive and k - 1 negatives


class TableRejected(Exception):
    def __init__(self, table_id: str, reason: str):
        super().__init__(f"table {table_id}: {reason}")
        self.table_id = table_id
        self.reason = reason


class ConfigurationError(ValueError):
    pass


# -- raw corpus ------------------------------------------------------------


@dataclass(frozen=True)
class RawCell:
    text: str
    urls: tuple[str, ...] = ()


@dataclass(frozen=True)
class RawTable:
    table_id: str
    page_title: str
    caption: str
    headers: tuple[str, ...]
    rows: tuple[tuple[RawCell, ...], ...]
    se_mid: str = ""


def _parse_cell(obj) -> RawCell:
    if not isinstance(obj, dict):
        raise ValueError("cell must be an object")
    urls = obj.get("urls")
    if urls is None:
        url = string(obj.get("url"), "url", "")
        urls = [url] if url else []
    return RawCell(text=string(obj.get("text"), "text", ""), urls=strings(urls, "urls"))


def _items(value, name: str) -> list:
    """``value``, which must be a list; else a ``TypeError`` naming ``name``."""
    if type(value) is not list:
        raise TypeError(f"{name!r} must be a list")
    return value


def read_corpus(path: str) -> list[RawTable]:
    """Read line-delimited JSON table records, validating row widths and id uniqueness.

    An absent or ``null`` ``table_id`` reads as the record's line number; an absent
    or ``null`` title, caption, subject mid, header, cell text or cell url reads as
    empty, and an empty url is none. ``headers``, ``rows``, rows and ``urls`` are lists.
    """
    tables: dict[str, RawTable] = {}
    for line_no, rec in _json_lines(path):
        with checked(path, line_no, "table record"):
            headers = tuple(string(h, "headers", "") for h in _items(rec["headers"], "headers"))
            rows = tuple(
                tuple(map(_parse_cell, _items(row, "row"))) for row in _items(rec["rows"], "rows"))
            title, caption, se_mid = (
                string(rec.get(k), k, "") for k in ("page_title", "caption", "se_mid"))
            table_id = string(rec.get("table_id"), "table_id", str(line_no))
        with checked(path, line_no):
            if any(len(row) != len(headers) for row in rows):
                raise ValueError("row width differs from header count")
            if table_id in tables:
                raise ValueError(f"duplicate table_id {table_id!r}")
        tables[table_id] = RawTable(table_id, title, caption, headers, rows, se_mid)
    return list(tables.values())


def read_tsv_map(path: str) -> dict[str, str]:
    """Two-column tab-separated file to dict; later duplicates win."""
    return dict(_tsv_rows(path, 2, "key<TAB>value"))


def read_tsv_multimap(path: str) -> dict[str, tuple[str, ...]]:
    """Tab-separated ``key<TAB>value`` lines grouped into key -> values."""
    grouped: dict[str, list[str]] = {}
    for key, value in _tsv_rows(path, 2, "key<TAB>value"):
        grouped.setdefault(key, []).append(value)
    return {k: tuple(v) for k, v in grouped.items()}


# -- annotated tables --------------------------------------------------------


@dataclass(frozen=True)
class LabeledChain:
    chain: ChainPair
    positive: bool
    recall: float
    precision: float
    f1: float

    @property
    def label(self) -> str:
        return "positive" if self.positive else "negative"


@dataclass(frozen=True)
class AnnotatedTable:
    table_id: str
    qis: tuple[str, ...]
    cn1: tuple[str, ...]
    cn2: tuple[str, ...]
    se: int
    se_name: str
    set_tokens: tuple[str, ...]
    rr: tuple[tuple[int, int], ...]
    chains: tuple[LabeledChain, ...]  # annotation sort order, positives first

    def positives(self) -> tuple[LabeledChain, ...]:
        return tuple(c for c in self.chains if c.positive)

    def negatives(self) -> tuple[LabeledChain, ...]:
        return tuple(c for c in self.chains if not c.positive)


# -- per-table operations ----------------------------------------------------


def link_cells(raw: RawTable, url2eid: Mapping[str, int]) -> list[tuple[int, int]]:
    """Link the first two columns via each cell's first hyperlink.

    A row survives only when both cells carry a url and the first url of
    each is in the mapping; all other rows are dropped.
    """
    linked = []
    for row in raw.rows:
        if len(row) < 2:
            continue
        c1, c2 = row[0], row[1]
        if not c1.urls or not c2.urls:
            continue
        e1 = url2eid.get(c1.urls[0])
        e2 = url2eid.get(c2.urls[0])
        if e1 is None or e2 is None:
            continue
        linked.append((e1, e2))
    return linked


def normalize_text(text: str) -> tuple[str, ...]:
    """Tokenize free text, mapping numerics to ``numtkn`` and emptiness to ``emptstr``."""
    tokens = tuple(NUM_TOKEN if is_numeric(t) else t for t in tokenize(text))
    return tokens if tokens else (EMPTY_TOKEN,)


def build_qis(page_title: str, caption: str, entity_name: str) -> tuple[str, ...]:
    """Query intent string: title + caption with the entity name removed.

    The first occurrence of the entity name is removed case-insensitively
    from the raw concatenation before tokenizing; numeric tokens map to
    ``numtkn`` and an empty result maps to ``[emptstr]``.
    """
    if not entity_name:
        raise ValueError("entity name must be non-empty")
    text = f"{page_title} {caption}"
    idx = text.lower().find(entity_name.lower())
    if idx >= 0:
        text = text[:idx] + text[idx + len(entity_name):]
    return normalize_text(text)


def _lemma(token: str) -> str:
    # Deterministic stand-in for lemmatization: strip a trailing plural
    # suffix from tokens of length >= 4.
    if len(token) >= 4:
        if token.endswith("es"):
            return token[:-2]
        if token.endswith("s"):
            return token[:-1]
    return token


def normalize_column_names(headers: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Normalize the first two headers into lemma-ish token sequences."""
    if len(headers) < 2:
        raise ValueError("need at least two column headers")
    out = []
    for header in headers[:2]:
        tokens = tuple(_lemma(t) for t in tokenize(header))
        if not tokens:
            raise ValueError("empty column name after normalization")
        out.append(tokens)
    return out[0], out[1]


def build_set(
    types: Sequence[str],
    type_freq: Mapping[str, int],
    fget_map: Mapping[str, str],
) -> tuple[str, ...]:
    """Subject entity type tokens.

    Prunes generic types, then picks the corpus-least-frequent surviving
    type (ties lexicographic) and appends its fine-grained mapping when one
    exists; ``(EMPTY_TOKEN,)`` when none survives.
    """
    surviving = [t for t in types if not t.startswith(GENERIC_TYPE_PREFIXES)]
    if not surviving:
        return (EMPTY_TOKEN,)
    best = min(surviving, key=lambda t: (type_freq.get(t, 0), t))
    tokens = list(tokenize(best))
    fine = fget_map.get(best)
    if fine:
        tokens.extend(tokenize(fine))
    return tuple(tokens)


def _score_chain(
    g: KnowledgeGraph,
    se: int,
    chain: ChainPair,
    rr: Sequence[tuple[int, int]],
    budget: QueryBudget,
    memo: dict | None = None,
) -> tuple[int, float, float, float] | None:
    """(hits, recall, precision, f1) for one chain, or None on budget overrun."""
    result = execute_chain(g, se, chain, budget, memo)
    if isinstance(result, BudgetExceeded):
        return None
    hits = sum(1 for r in set(rr) if r in result)
    recall = hits / len(rr)
    precision = hits / len(result) if len(result) else 0.0
    f1 = 0.0 if recall + precision == 0 else 2 * recall * precision / (recall + precision)
    return hits, recall, precision, f1


def annotate_chains(
    scored: Sequence[tuple[ChainPair, float, float, float]],
) -> tuple[LabeledChain, ...]:
    """Label chains: positives are all chains tying the best key.

    Chains sort by (recall desc, total length asc, f1 desc); every chain
    matching the best (recall, length, f1) triple is positive, the rest are
    negative.
    """
    if not scored:
        raise ValueError("no candidate chains to annotate")
    ordered = sorted(
        scored,
        key=lambda s: (-s[1], s[0].total_length(), -s[3], s[0].canonical()),
    )
    best_key = (ordered[0][1], ordered[0][0].total_length(), ordered[0][3])
    return tuple(
        LabeledChain(
            chain=c,
            positive=(r, c.total_length(), f) == best_key,
            recall=r,
            precision=p,
            f1=f,
        )
        for c, r, p, f in ordered
    )


# -- full pipeline ------------------------------------------------------------


@dataclass(frozen=True)
class BuildSettings:
    max_path_len: int = MAX_SEGMENT_LENGTH
    degree_cap: int = DEFAULT_DEGREE_CAP
    banned_prefixes: tuple[str, ...] = DEFAULT_BANNED_PREFIXES
    budget: QueryBudget = field(default_factory=QueryBudget)

    def __post_init__(self):
        if not 1 <= self.max_path_len <= MAX_SEGMENT_LENGTH:
            raise ConfigurationError(
                f"max_path_len must be in 1..{MAX_SEGMENT_LENGTH}, got {self.max_path_len}"
            )
        if self.degree_cap < 0:
            raise ConfigurationError(f"degree_cap must be at least 0, got {self.degree_cap}")


def annotate_table(
    raw: RawTable, kb: CompiledKB, url2eid: Mapping[str, int], settings: BuildSettings
) -> AnnotatedTable:
    """Run every per-table step; raises TableRejected on any failed constraint.

    The subject's SET is the one ``kb`` compiled for it, the one serving reads.
    """
    tid, g = raw.table_id, kb.graph
    if len(raw.headers) < 2:
        raise TableRejected(tid, "fewer than two columns")
    try:
        cn1, cn2 = normalize_column_names(raw.headers)
    except ValueError as exc:
        raise TableRejected(tid, str(exc)) from None

    rr = link_cells(raw, url2eid)
    if len(rr) < MIN_LINKED_ROWS:
        raise TableRejected(tid, f"fewer than {MIN_LINKED_ROWS} linked rows")
    c1_entities = [a for a, _ in rr]
    if len(set(c1_entities)) != len(c1_entities):
        raise TableRejected(tid, "core column entities are not unique")

    if not raw.se_mid or raw.se_mid not in g:
        raise TableRejected(tid, "subject entity not linked to the graph")
    se = g.entity_id(raw.se_mid)
    se_name = kb.entity_meta.get(se).name
    if not se_name:
        raise TableRejected(tid, "subject entity has no name")
    qis = build_qis(raw.page_title, raw.caption, se_name)

    set_tokens = kb.subject_sets[kb.subject_set_ids[se]]
    if set_tokens == (EMPTY_TOKEN,):
        raise TableRejected(tid, "no specific entity type survives pruning")

    limits = (settings.max_path_len, settings.degree_cap, settings.banned_prefixes)
    p1s = enumerate_simple_paths(g, se, c1_entities, *limits)
    p2s = {p for er1, er2 in rr for p in enumerate_simple_paths(g, er1, {er2}, *limits)}
    if not p1s or not p2s:
        raise TableRejected(tid, "no candidate paths for one of the segments")

    memo = {}  # the segment reaches this table's chains share
    scored = []
    for chain in join_chains(g, se, p1s, p2s, memo):
        result = _score_chain(g, se, chain, rr, settings.budget, memo)
        if result is None:
            continue  # over budget: removed directly
        hits, recall, precision, f1 = result
        if hits < MIN_CHAIN_HITS:
            continue
        scored.append((chain, recall, precision, f1))
    if not scored:
        raise TableRejected(tid, "no chain retrieves enough ground-truth rows")

    return AnnotatedTable(
        table_id=tid,
        qis=qis,
        cn1=cn1,
        cn2=cn2,
        se=se,
        se_name=se_name,
        set_tokens=set_tokens,
        rr=tuple(rr),
        chains=annotate_chains(scored),
    )


# -- split / vocabulary / padding ---------------------------------------------


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


SPLITS = ("train", "validation", "test")  # the order of the blocks of tables.jsonl


def split_dataset(table_ids: Iterable[str], seed: int) -> DatasetSplit:
    """Random 80/10/10 split; validation and test take ceil(0.1 n) each."""
    ids = sorted(table_ids)
    rng = random.Random(seed)
    rng.shuffle(ids)
    n = len(ids)
    n_val = math.ceil(0.1 * n)
    n_test = math.ceil(0.1 * n)
    n_train = n - n_val - n_test
    if n_train <= 0:
        raise ConfigurationError(f"{n} tables are too few for an 80/10/10 split")
    return DatasetSplit(
        train=tuple(sorted(ids[:n_train])),
        validation=tuple(sorted(ids[n_train:n_train + n_val])),
        test=tuple(sorted(ids[n_train + n_val:])),
        seed=seed,
    )


# Tokens kept of a chain; part of the trained model, so training and serving share it.
MAX_CHAIN_TOKENS = 200


@dataclass(frozen=True)
class ChainEncoding:
    indices: tuple[int, ...]
    canonical: str


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map with a reserved out-of-vocabulary slot at index 0.

    ``chains`` memoizes each chain's ``ChainEncoding`` by canonical string
    for the object's life, one command. It closes over the index, not the
    object, so the two form no reference cycle.
    """

    kind: str  # "TB_Vocab" or "KB_Vocab"
    tokens: tuple[str, ...]  # sorted, frequency >= 2, OOV excluded
    oov_token: str = OOV_TOKEN

    def __post_init__(self):
        index = {t: i + 1 for i, t in enumerate(self.tokens)}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "chains", _Memo(lambda text: ChainEncoding(
            tuple(index.get(t, 0) for t in tokenize(text)[:MAX_CHAIN_TOKENS]), text)))

    @property
    def size(self) -> int:
        return len(self.tokens) + 1

    def encode(self, tokens: Iterable[str]) -> tuple[int, ...]:
        return tuple(self._index.get(t, 0) for t in tokens)

    def content_hash(self) -> str:
        payload = "\n".join([self.kind, self.oov_token, *self.tokens])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_vocab(tables: Sequence[AnnotatedTable]) -> tuple[Vocabulary, Vocabulary]:
    """TB vocabulary from QIS/CN tokens, KB vocabulary from SET/chain tokens.

    Tokens occurring only once across the given tables (train+validation)
    are dropped and map to the OOV index. Each distinct chain is tokenized
    once, its tokens counted as often as the chain occurs.
    """
    tb_counts: Counter[str] = Counter()
    kb_counts: Counter[str] = Counter()
    for t in tables:
        tb_counts.update(t.qis)
        tb_counts.update(t.cn1)
        tb_counts.update(t.cn2)
        kb_counts.update(t.set_tokens)
    chain_counts = Counter(lc.chain.canonical() for t in tables for lc in t.chains)
    for text, n in chain_counts.items():
        for token in tokenize(text):
            kb_counts[token] += n
    tb = Vocabulary("TB_Vocab", tuple(sorted(t for t, c in tb_counts.items() if c >= 2)))
    kb = Vocabulary("KB_Vocab", tuple(sorted(t for t, c in kb_counts.items() if c >= 2)))
    return tb, kb


def pad_negatives(
    tables: Mapping[str, AnnotatedTable],
    split: DatasetSplit,
    seed: int = 0,
) -> dict[str, AnnotatedTable]:
    """Pad every training table to at least K_NEGATIVES - 1 negative chains.

    Extra negatives are sampled without replacement from the global pool of
    chains appearing as negatives anywhere in the dataset, excluding the
    table's own positives and existing negatives. Validation and test
    tables are never padded. Padded chains carry zero metrics.
    """
    pool = {lc.chain.canonical(): lc.chain for t in tables.values() for lc in t.negatives()}
    ordered = sorted(pool)
    rng = random.Random(seed)
    out = dict(tables)
    for tid in split.train:
        table = tables[tid]
        need = K_NEGATIVES - 1 - len(table.negatives())
        if need <= 0:
            continue
        if not pool:
            raise ConfigurationError("global negative pool is empty; cannot pad")
        present = {lc.chain.canonical() for lc in table.chains}
        candidates = [pool[c] for c in ordered if c not in present]
        picked = candidates if len(candidates) <= need else rng.sample(candidates, need)
        extra = tuple(
            LabeledChain(chain=c, positive=False, recall=0.0, precision=0.0, f1=0.0)
            for c in sorted(picked, key=ChainPair.canonical)
        )
        out[tid] = replace(table, chains=table.chains + extra)
    return out


# -- serialization -------------------------------------------------------------


def _table_to_json(t: AnnotatedTable, g: KnowledgeGraph) -> dict:
    return {
        "table_id": t.table_id,
        "qis": list(t.qis),
        "cn1": list(t.cn1),
        "cn2": list(t.cn2),
        "se": g.mid(t.se),
        "se_name": t.se_name,
        "set": list(t.set_tokens),
        "rr": [[g.mid(a), g.mid(b)] for a, b in t.rr],
        "chains": [
            {
                "p1": lc.chain.p1.canonical(),
                "p2": lc.chain.p2.canonical(),
                "label": lc.label,
                "recall": lc.recall,
                "precision": lc.precision,
                "f1": lc.f1,
            }
            for lc in t.chains
        ],
    }


def _table_from_json(rec: dict, g: KnowledgeGraph, memo: dict) -> AnnotatedTable:
    """Rebuild one table: a string id, result rows and chains, the first one positive.

    ``memo`` maps each segment string already parsed to its path, each
    ``(p1, p2)`` string pair to its chain and each chain record to its
    labelled chain, so equal chains and equal records are one object. A
    record's key holds the type of each metric and the sign of a zero, which
    keeps ``1`` apart from ``1.0`` and ``0.0`` from ``-0.0``, so a shared
    record saves as read; a metric that is not a number is a ``TypeError``.
    """

    def segment(text: str) -> MetaPath:
        path = memo.get(text)
        if path is None:
            path = memo[text] = MetaPath.parse(text)
        return path

    def labeled(c: dict) -> LabeledChain:
        p1, p2, positive = c["p1"], c["p2"], c["label"] == "positive"
        r, p, f = c["recall"], c["precision"], c["f1"]
        key = (p1, p2, positive, r, p, f, type(r), type(p), type(f),
               math.copysign(1, r), math.copysign(1, p), math.copysign(1, f))
        lc = memo.get(key)
        if lc is None:
            if not isinstance(p1, str) or not isinstance(p2, str):
                raise TypeError("chain 'p1' and 'p2' must be strings")
            pair = memo.get((p1, p2))
            if pair is None:
                pair = memo[p1, p2] = ChainPair(segment(p1), segment(p2))
            lc = memo[key] = LabeledChain(pair, positive, r, p, f)
        return lc

    table_id = string(rec["table_id"], "table_id")
    chains = tuple(map(labeled, rec["chains"]))
    if not chains or not chains[0].positive:
        raise ValueError("a table needs chains, the first of them positive")
    rr = tuple((g.entity_id(a), g.entity_id(b)) for a, b in rec["rr"])
    if len(set(rr)) < max(2, len(rr)):
        raise ValueError("a table needs two or more result rows, none repeated")
    return AnnotatedTable(
        table_id=table_id,
        qis=strings(rec["qis"], "qis"),
        cn1=strings(rec["cn1"], "cn1"),
        cn2=strings(rec["cn2"], "cn2"),
        se=g.entity_id(rec["se"]),
        se_name=string(rec["se_name"], "se_name"),
        set_tokens=strings(rec["set"], "set"),
        rr=rr,
        chains=chains,
    )


def save_dataset(
    out_dir: str,
    tables: Mapping[str, AnnotatedTable],
    split: DatasetSplit,
    tb_vocab: Vocabulary,
    kb_vocab: Vocabulary,
    g: KnowledgeGraph,
) -> None:
    """Write tables.jsonl, split.json and the two vocabulary files, byte-deterministic.

    tables.jsonl holds a block of each split's tables in turn, in the split's order;
    split.json holds the seed and each block's size: a table's split is its block.
    """
    out = Path(out_dir)
    blocks = {part: getattr(split, part) for part in SPLITS}
    write_json_lines(out / "tables.jsonl", (
        _table_to_json(tables[tid], g) for ids in blocks.values() for tid in ids))
    write_json_lines(out / "split.json", [
        {"seed": split.seed, **{part: len(ids) for part, ids in blocks.items()}}])
    for vocab, name in ((tb_vocab, "vocab_tb.json"), (kb_vocab, "vocab_kb.json")):
        write_json_lines(
            out / name,
            [{"kind": vocab.kind, "oov_token": vocab.oov_token, "tokens": list(vocab.tokens)}],
        )


def _sources(sources: Mapping[str, str], recorded: dict | None = None, built_ns: int = 0) -> dict:
    """Each configured source's ``[sha256, [size, mtime_ns, ctime_ns, ino, dev]]``
    (``None`` if unset), naming its config key if unreadable. A source whose
    signature is the one ``recorded`` in a KB file of mtime ``built_ns`` is not
    read, unless it changed within ``RACY_NS`` before that file (git's racy-git rule)."""
    entries = dict.fromkeys(sources)
    for name, path in filter(lambda item: item[1], sources.items()):
        try:
            st = os.stat(path)
            sig = [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev]
            old = (recorded or {}).get(name)
            fresh = old and old[1:] == [sig] and built_ns - max(sig[1:3]) >= RACY_NS
            entries[name] = old if fresh else [
                hashlib.sha256(Path(path).read_bytes()).hexdigest(), sig]
        except OSError as exc:
            raise ConfigurationError(f"{name} = {path}: {exc.strerror}") from None
    return entries


class CompiledKB(NamedTuple):
    """What serving reads of the input files, compiled once into ``KB_FILE``.

    Entity e's SET tokens are ``subject_sets[subject_set_ids[e]]``: those
    ``build_set`` derives from its types, ``subject_sets[0]``,
    ``(EMPTY_TOKEN,)``, where no specific type survives pruning.
    """

    graph: KnowledgeGraph
    entity_meta: EntityMetaStore
    pred_meta: PredicateMetaStore
    embeddings: PretrainedEmbeddings
    subject_sets: Sequence[tuple[str, ...]]
    subject_set_ids: Sequence[int]


def subject_set_column(
    g: KnowledgeGraph,
    types_by_mid: Mapping[str, tuple[str, ...]],
    type_freq: Mapping[str, int],
    fget_map: Mapping[str, str],
) -> tuple[list[tuple[str, ...]], list[int]]:
    """``CompiledKB.subject_sets`` and ``subject_set_ids`` over the build's
    type files and frequencies: the one SET of each entity, which
    ``annotate_table`` gives a table of that subject and ``complete`` reads."""
    sets = {(EMPTY_TOKEN,): 0}
    by_types: dict[tuple[str, ...], int] = {}  # most entities share a type list
    ids = []
    for e in range(len(g)):
        types = types_by_mid.get(g.mid(e), ())
        i = by_types.get(types)
        if i is None:
            tokens = build_set(types, type_freq, fget_map)
            i = by_types[types] = sets.setdefault(tokens, len(sets))
        ids.append(i)
    return list(sets), ids


def save_kb(out_dir: str, kb: CompiledKB, sources: Mapping[str, str]) -> None:
    """Write ``KB_FILE``: a JSON header line, space-padded to a multiple of 8
    bytes, then little-endian columns at 8-byte-aligned offsets of the body.
    The header holds the small tables, the ``_sources`` entries of ``sources``
    (config key -> path, empty when unset) and the column table, name ->
    ``[dtype, offset, count]``. Metadata records, in the store's order, index
    the distinct descriptions and type sets, so equal stores give equal bytes.
    A string table is a UTF-8 blob ``key`` cut at ``key_offsets``, the mids at newlines.
    """
    g, entity_meta, pred_meta, embeddings = kb.graph, kb.entity_meta, kb.pred_meta, kb.embeddings
    descriptions: dict[tuple[str, ...], int] = {}
    type_sets: dict[frozenset[str], int] = {}
    # Each distinct value gets the next index.
    d_index, t_index = descriptions.setdefault, type_sets.setdefault
    metas = [entity_meta.get(e) for e in entity_meta]
    columns = dict(zip(("group_offsets", "token_codes", "neighbour_offsets", "neighbour_ids"),
                       g._columns))
    columns["meta_entities"] = list(entity_meta)
    columns["meta_descriptions"] = [d_index(m.description, len(descriptions)) for m in metas]
    for key in ("notable_types", "rdf_types"):
        columns["meta_" + key] = [t_index(getattr(m, key), len(type_sets)) for m in metas]
    columns["predicate_type_sets"] = [t_index(t, len(type_sets)) for t in pred_meta._tgt.values()]
    columns["subject_set_ids"] = kb.subject_set_ids
    columns["description_offsets"] = np.cumsum([0, *map(len, descriptions)])  # into the tokens
    if any("\n" in m or not m for m in g._mids):
        raise ValueError("a mid is empty or holds a newline")
    columns["mids"] = np.frombuffer("\n".join(g._mids).encode("utf-8"), np.uint8)
    texts = {"names": [m.name for m in metas],
             "description_tokens": [t for d in descriptions for t in d]}
    for key, values in texts.items():
        columns[key + "_offsets"] = np.cumsum([0, *map(len, values)])
        columns[key] = np.frombuffer("".join(values).encode("utf-8"), np.uint8)
    columns["embedding_vectors"] = list(embeddings._vectors.values())
    table, body = {}, bytearray()
    for key, col in columns.items():
        col = np.asarray(col, KB_DTYPES.get(key, "<i4")).ravel()
        table[key] = [col.dtype.str, len(body), col.size]
        body += col.tobytes() + bytes(-col.nbytes % 8)
    header = json.dumps({
        "predicates": g._preds, "typed_predicates": list(pred_meta._tgt),
        "type_sets": [sorted(t) for t in type_sets], "subject_sets": kb.subject_sets,
        "embedding_tokens": list(embeddings._vectors), "embedding_dim": embeddings.dim,
        "sources": _sources(sources), "columns": table,
    }, sort_keys=True, separators=(",", ":"))
    header += " " * (-(len(header) + 1) % 8) + "\n"  # ASCII, so one byte a character
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    (Path(out_dir) / KB_FILE).write_bytes(header.encode("ascii") + body)


def _decode_kb(header: dict, body: memoryview, start: int) -> CompiledKB:
    """The ``CompiledKB`` of a header and the body at byte ``start`` of the file, checked whole."""
    views, end = {}, 0
    # In offset order, an empty column before a full one at the same offset.
    for key, (dtype, offset, count) in sorted(dict(header["columns"]).items(),
                                              key=lambda item: item[1][1:]):
        if dtype != KB_DTYPES.get(key, "<i4"):
            raise TypeError(f"column {key} is not {KB_DTYPES.get(key, '<i4')}")
        stop = integer(offset, key) + integer(count, key) * np.dtype(dtype).itemsize
        if (start + offset) % 8 or offset < end or count < 0 or stop > len(body):
            raise ValueError(f"column {key} is misaligned, overlaps another or runs past the end")
        views[key], end = np.frombuffer(body, dtype, count, offset), stop
    if len(body) != end + -end % 8:
        raise ValueError(f"the columns end at byte {end} of a {len(body)}-byte body")

    def ints(key: str, stop: int) -> np.ndarray:  # each value in range(stop)
        col = views[key].astype(np.int32, copy=False)  # native order, for a memoryview
        if col.size and (col.min() < 0 or col.max() >= stop):
            raise ValueError(f"{key} holds a value outside 0..{stop - 1}")
        return col

    def offsets(key: str, count: int, total: int) -> np.ndarray:  # count + 1 of 0..total
        off = ints(key, total + 1)
        if len(off) != count + 1 or off[0] != 0 or off[-1] != total or (np.diff(off) < 0).any():
            raise ValueError(f"{key} are not {count + 1} offsets rising from 0 to {total}")
        return off

    def texts(key: str) -> tuple[str, memoryview]:  # a blob decoded once, and its offsets
        text = str(views[key], "utf-8")
        at = offsets(key + "_offsets", len(views[key + "_offsets"]) - 1, len(text))
        return text, memoryview(at)

    preds = strings(header["predicates"], "predicates")
    typed = strings(header["typed_predicates"], "typed_predicates")
    type_sets = [frozenset(strings(t, "type_sets")) for t in header["type_sets"]]
    text = str(views["mids"], "utf-8")
    mids = text.split("\n") if text else []
    codes = ints("token_codes", 2 * len(preds))
    nbrs = ints("neighbour_ids", len(mids))
    goff = offsets("group_offsets", len(mids), len(codes))
    noff = offsets("neighbour_offsets", len(codes), len(nbrs))
    # Within an entity, each group's code exceeds the one before.
    rising = np.diff(codes) > 0
    rising[goff[(goff > 0) & (goff < len(codes))] - 1] = True
    if not rising.all():
        raise ValueError("an entity's token codes repeat or fall")
    g = KnowledgeGraph.__new__(KnowledgeGraph)
    g._assemble(mids, preds, (goff, codes, noff, nbrs))
    if len(g._ids) != len(mids) or "" in g._ids or sorted(mids) != mids:
        raise ValueError("mids are not distinct, non-empty and sorted, as entity ids are")

    names, name_at = texts("names")
    tokens, token_at = texts("description_tokens")
    d_at = memoryview(offsets("description_offsets", len(views["description_offsets"]) - 1,
                              len(token_at) - 1))
    stops = {"entities": len(mids), "descriptions": len(d_at) - 1,
             "notable_types": len(type_sets), "rdf_types": len(type_sets)}
    entities, d, notable, rdf = (ints("meta_" + key, stop) for key, stop in stops.items())
    tgt = ints("predicate_type_sets", len(type_sets))
    row = np.full(len(mids), -1, np.int32)  # each entity's metadata record, or -1
    row[entities] = np.arange(len(entities), dtype=np.int32)
    lengths = {int((row >= 0).sum()), len(d), len(notable), len(rdf), len(name_at) - 1}
    if lengths != {len(entities)} or len(tgt) != len(typed):
        raise ValueError("metadata entities repeat or columns differ in length")
    row, d, notable, rdf = map(memoryview, (row, d, notable, rdf))
    descriptions = _Memo(lambda i: tuple(
        tokens[token_at[j]:token_at[j + 1]] for j in range(d_at[i], d_at[i + 1])))

    def decode(entity: int) -> EntityMeta:
        r = row[entity] if 0 <= entity < len(row) else -1
        return EMPTY_ENTITY_META if r < 0 else EntityMeta(
            names[name_at[r]:name_at[r + 1]], descriptions[d[r]],
            type_sets[notable[r]], type_sets[rdf[r]])

    vocab = strings(header["embedding_tokens"], "embedding_tokens")
    dim = integer(header["embedding_dim"], "embedding_dim")
    if len(set(vocab)) != len(vocab) or dim < 0:
        raise ValueError("embedding tokens repeat or 'embedding_dim' is negative")
    vectors = views["embedding_vectors"].astype(np.float64, copy=False)
    if len(vectors) != len(vocab) * dim or not np.isfinite(vectors).all():
        raise ValueError(f"embedding_vectors is not {len(vocab) * dim} finite float64 values")
    sets = [strings(t, "subject_sets") for t in header["subject_sets"]]
    set_ids = ints("subject_set_ids", len(sets))
    if len(set_ids) != len(mids):
        raise ValueError(f"subject_set_ids holds {len(set_ids)} values, not {len(mids)}")
    return CompiledKB(
        g, EntityMetaStore(decode=decode, entities=memoryview(entities)),
        PredicateMetaStore(dict(zip(typed, (type_sets[t] for t in tgt.tolist())))),
        PretrainedEmbeddings(dict(zip(vocab, vectors.reshape(len(vocab), dim))), dim),
        sets, set_ids)


def load_kb(in_dir: str, sources: Mapping[str, str]) -> CompiledKB:
    """The ``CompiledKB`` that ``save_kb`` wrote, once the configured
    ``sources`` are checked to be the files it was compiled from (``_sources``).

    The file is read once and its columns viewed in place. Each is checked
    whole, and each string table's UTF-8 once, but an entity's adjacency,
    name and description are built on their first read; equal descriptions
    share one tuple. Any malformed field, column or text, or a non-finite
    vector value, is a ``ParseError`` naming the file.
    """
    path = Path(in_dir) / KB_FILE
    if not path.is_file():
        raise ConfigurationError(f"{path} is missing; {REBUILD}")
    data, built_ns = path.read_bytes(), path.stat().st_mtime_ns
    start = data.find(b"\n") + 1 or len(data)  # where the body starts
    with checked(str(path), 1):
        header = _json_object(str(path), 1, data[:start].decode("utf-8"))
    recorded = header.get("sources") if isinstance(header.get("sources"), dict) else {}
    # An entry not of the form [sha256, ...] records no file.
    recorded = {k: e for k, e in recorded.items() if type(e) is list and e and type(e[0]) is str}
    entries = _sources(sources, recorded, built_ns)
    for name, entry in entries.items():
        if (entry or [None])[0] != (recorded.get(name) or [None])[0]:
            given = sources[name] or "no file"
            raise ConfigurationError(f"{path} was not compiled from {name} = {given}; {REBUILD}")
    # Sources hashed equal and out of the racy window make kb.bin clean (git's index refresh).
    hashed = [e for name, e in entries.items() if e and e is not recorded.get(name)]
    if hashed and all(time.time_ns() - max(e[1][1:3]) >= RACY_NS for e in hashed):
        with suppress(OSError):  # a read-only dataset stays racy
            if path.stat().st_mtime_ns == built_ns:  # not rebuilt since it was read
                os.utime(path)
    with checked(str(path), 1, "compiled KB"):
        return _decode_kb(header, memoryview(data)[start:], start)


def load_vocabularies(in_dir: str) -> tuple[Vocabulary, Vocabulary]:
    """The TB and KB vocabularies ``save_dataset`` wrote."""
    vocabs = []
    for name in ("vocab_tb.json", "vocab_kb.json"):
        path = str(Path(in_dir) / name)
        v = read_json(path)
        with checked(path, 1, "vocabulary record"):
            if not isinstance(v["kind"], str) or not isinstance(v["oov_token"], str):
                raise TypeError("'kind' and 'oov_token' must be strings")
            vocabs.append(Vocabulary(v["kind"], strings(v["tokens"], "tokens"), v["oov_token"]))
    return vocabs[0], vocabs[1]


def load_dataset(
    in_dir: str, g: KnowledgeGraph, splits: Sequence[str] = SPLITS
) -> tuple[dict[str, AnnotatedTable], DatasetSplit, Vocabulary, Vocabulary]:
    """The tables of the blocks ``splits`` names, the split and the vocabularies
    ``save_dataset`` wrote. Another block's lines are counted, not parsed, and its
    split holds no ids. The records must number the block sizes of split.json
    added up, and no table id read may repeat.
    """
    base = Path(in_dir)
    split_path, tables_path = str(base / "split.json"), str(base / "tables.jsonl")
    rec = read_json(split_path)
    with checked(split_path, 1, "split record"):
        seed, sizes = integer(rec["seed"], "seed"), [integer(rec[k], k) for k in SPLITS]
        if min(sizes) < 0:
            raise ValueError("a block size is negative")
    stops = [sum(sizes[:i + 1]) for i in range(len(SPLITS))]  # where each block ends
    ids: dict[str, list[str]] = {part: [] for part in SPLITS}
    tables: dict[str, AnnotatedTable] = {}
    memo: dict = {}  # tables repeat a few segments and chains many times
    count = 0  # records so far
    with checked(tables_path, 0, "table record") as at, open_text(tables_path) as fh:
        for at.line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            block, count = bisect.bisect_right(stops, count), count + 1  # 3 is past the last block
            if block < len(SPLITS) and SPLITS[block] in splits:
                # One line, so JSON reports no line of its own.
                t = _table_from_json(_json_object(tables_path, at.line_no, line.strip()), g, memo)
                if t.table_id in tables:
                    raise ValueError(f"table id {t.table_id!r} repeats an earlier record")
                tables[t.table_id] = t
                ids[SPLITS[block]].append(t.table_id)
    if count != stops[-1]:
        raise ConfigurationError(f"{tables_path} holds {count} table records, but {split_path} "
                                 f"sizes its train, validation and test blocks {sizes}; {REBUILD}")
    return tables, DatasetSplit(*map(tuple, ids.values()), seed), *load_vocabularies(in_dir)


def subject_type_freq(
    corpus: Sequence[RawTable],
    g: KnowledgeGraph,
    types_by_mid: Mapping[str, tuple[str, ...]],
) -> Counter[str]:
    """Corpus-level type frequencies over the subject entities linked to ``g``."""
    type_freq: Counter[str] = Counter()
    for raw in corpus:
        if raw.se_mid and raw.se_mid in g:
            type_freq.update(types_by_mid.get(raw.se_mid, ()))
    return type_freq


def build_corpus_dataset(
    corpus: Sequence[RawTable],
    kb: CompiledKB,
    url2mid: Mapping[str, str],
    settings: BuildSettings,
    seed: int,
) -> tuple[dict[str, AnnotatedTable], DatasetSplit, Vocabulary, Vocabulary, dict[str, int]]:
    """Annotate a corpus on its compiled KB: tables, split, vocabularies, reject counts."""
    g = kb.graph
    url2eid = {u: g.entity_id(m) for u, m in url2mid.items() if m in g}
    tables: dict[str, AnnotatedTable] = {}
    rejects: Counter[str] = Counter()
    for raw in corpus:
        try:
            table = annotate_table(raw, kb, url2eid, settings)
        except TableRejected as exc:
            rejects[exc.reason] += 1
            continue
        tables[table.table_id] = table
    if not tables:
        reasons = "".join(f"; {n} rejected: {r}" for r, n in sorted(rejects.items()))
        raise ConfigurationError(f"none of its {len(corpus)} tables survived annotation{reasons}")

    split = split_dataset(tables.keys(), seed)
    tables = pad_negatives(tables, split, seed=seed)
    trainval = [tables[tid] for tid in sorted(split.train + split.validation)]
    tb_vocab, kb_vocab = build_vocab(trainval)
    return tables, split, tb_vocab, kb_vocab, dict(rejects)
