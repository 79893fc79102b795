"""Turn a raw table corpus plus linking files into annotated training data.

Pipeline per table: link cells to graph entities, build the query intent
string and normalized column names, derive subject entity types, enumerate
and join candidate chains, execute every chain to score it against the
ground-truth rows, and label positives. Tables failing any constraint are
rejected with a reason. The corpus is then split 80/10/10, training tables
are padded with sampled negatives, and two vocabularies are built from the
training+validation portions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .graph import (
    DEFAULT_DEGREE_CAP,
    GENERIC_TYPE_PREFIXES,
    EntityMetaStore,
    KnowledgeGraph,
    ParseError,
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
from .text import EMPTY_TOKEN, NUM_TOKEN, is_numeric, tokenize

OOV_TOKEN = "<oov>"
MIN_LINKED_ROWS = 3
MIN_CHAIN_HITS = 2  # a retained chain must retrieve at least this many ground-truth rows


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
        url = obj.get("url")
        urls = [url] if url else []
    return RawCell(text=str(obj.get("text", "")), urls=tuple(str(u) for u in urls))


def read_corpus(path: str) -> list[RawTable]:
    """Read line-delimited JSON table records, validating row widths."""
    tables = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"bad JSON: {exc.msg}") from exc
            try:
                headers = tuple(str(h) for h in rec["headers"])
                rows = tuple(
                    tuple(_parse_cell(c) for c in row) for row in rec["rows"]
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(path, line_no, f"bad table record: {exc}") from exc
            if any(len(row) != len(headers) for row in rows):
                raise ParseError(path, line_no, "row width differs from header count")
            tables.append(
                RawTable(
                    table_id=str(rec.get("table_id", line_no)),
                    page_title=str(rec.get("page_title", "")),
                    caption=str(rec.get("caption", "")),
                    headers=headers,
                    rows=rows,
                    se_mid=str(rec.get("se_mid", "")),
                )
            )
    return tables


def read_tsv_map(path: str) -> dict[str, str]:
    """Two-column tab-separated file to dict; later duplicates win."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not all(parts):
                raise ParseError(path, line_no, "expected 'key<TAB>value'")
            out[parts[0]] = parts[1]
    return out


def read_tsv_multimap(path: str) -> dict[str, tuple[str, ...]]:
    """Tab-separated ``key<TAB>value`` lines grouped into key -> values."""
    grouped: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not all(parts):
                raise ParseError(path, line_no, "expected 'key<TAB>value'")
            grouped.setdefault(parts[0], []).append(parts[1])
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
    exists.
    """
    surviving = [t for t in types if not t.startswith(GENERIC_TYPE_PREFIXES)]
    if not surviving:
        raise ValueError("no specific entity type survives pruning")
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
    budget: QueryBudget | None,
) -> tuple[int, float, float, float] | None:
    """(hits, recall, precision, f1) for one chain, or None on budget overrun."""
    result = execute_chain(g, se, chain, budget)
    if isinstance(result, BudgetExceeded):
        return None
    hits = len(result.pairs & set(rr))
    recall = hits / len(rr)
    precision = hits / len(result.pairs) if result.pairs else 0.0
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


def annotate_table(
    raw: RawTable,
    g: KnowledgeGraph,
    url2eid: Mapping[str, int],
    entity_meta: EntityMetaStore,
    types_by_mid: Mapping[str, tuple[str, ...]],
    type_freq: Mapping[str, int],
    fget_map: Mapping[str, str],
    settings: BuildSettings,
) -> AnnotatedTable:
    """Run every per-table step; raises TableRejected on any failed constraint."""
    tid = raw.table_id
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
    se_name = entity_meta.get(se).name
    if not se_name:
        raise TableRejected(tid, "subject entity has no name")
    qis = build_qis(raw.page_title, raw.caption, se_name)

    try:
        set_tokens = build_set(types_by_mid.get(raw.se_mid, ()), type_freq, fget_map)
    except ValueError as exc:
        raise TableRejected(tid, str(exc)) from None

    p1s, p2s = set(), set()
    for er1, er2 in rr:
        p1s.update(
            enumerate_simple_paths(
                g, se, er1, settings.max_path_len, settings.degree_cap,
                settings.banned_prefixes,
            )
        )
        p2s.update(
            enumerate_simple_paths(
                g, er1, er2, settings.max_path_len, settings.degree_cap,
                settings.banned_prefixes,
            )
        )
    if not p1s or not p2s:
        raise TableRejected(tid, "no candidate paths for one of the segments")

    scored = []
    for chain in join_chains(g, se, p1s, p2s):
        result = _score_chain(g, se, chain, rr, settings.budget)
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


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map with a reserved out-of-vocabulary slot at index 0."""

    kind: str  # "TB_Vocab" or "KB_Vocab"
    tokens: tuple[str, ...]  # sorted, frequency >= 2, OOV excluded
    oov_token: str = OOV_TOKEN

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {t: i + 1 for i, t in enumerate(self.tokens)}
        )

    @property
    def size(self) -> int:
        return len(self.tokens) + 1

    @property
    def oov_index(self) -> int:
        return 0

    def index(self, token: str) -> int:
        return self._index.get(token, 0)

    def encode(self, tokens: Iterable[str]) -> tuple[int, ...]:
        return tuple(self._index.get(t, 0) for t in tokens)

    def content_hash(self) -> str:
        payload = "\n".join([self.kind, self.oov_token, *self.tokens])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def chain_tokens(chain: ChainPair) -> tuple[str, ...]:
    return tokenize(chain.canonical())


def build_vocab(tables: Sequence[AnnotatedTable]) -> tuple[Vocabulary, Vocabulary]:
    """TB vocabulary from QIS/CN tokens, KB vocabulary from SET/chain tokens.

    Tokens occurring only once across the given tables (train+validation)
    are dropped and map to the OOV index.
    """
    tb_counts: Counter[str] = Counter()
    kb_counts: Counter[str] = Counter()
    for t in tables:
        tb_counts.update(t.qis)
        tb_counts.update(t.cn1)
        tb_counts.update(t.cn2)
        kb_counts.update(t.set_tokens)
        for lc in t.chains:
            kb_counts.update(chain_tokens(lc.chain))
    tb = Vocabulary("TB_Vocab", tuple(sorted(t for t, c in tb_counts.items() if c >= 2)))
    kb = Vocabulary("KB_Vocab", tuple(sorted(t for t, c in kb_counts.items() if c >= 2)))
    return tb, kb


def pad_negatives(
    tables: Mapping[str, AnnotatedTable],
    split: DatasetSplit,
    k: int = 10,
    seed: int = 0,
) -> dict[str, AnnotatedTable]:
    """Pad every training table to at least k-1 negative chains.

    Extra negatives are sampled without replacement from the global pool of
    chains appearing as negatives anywhere in the dataset, excluding the
    table's own positives and existing negatives. Validation and test
    tables are never padded. Padded chains carry zero metrics.
    """
    pool: dict[str, ChainPair] = {}
    for t in tables.values():
        for lc in t.negatives():
            pool[lc.chain.canonical()] = lc.chain
    rng = random.Random(seed)
    out = dict(tables)
    for tid in split.train:
        table = tables[tid]
        have = len(table.negatives())
        need = (k - 1) - have
        if need <= 0:
            continue
        if not pool:
            raise ConfigurationError("global negative pool is empty; cannot pad")
        present = {lc.chain.canonical() for lc in table.chains}
        candidates = [pool[c] for c in sorted(pool) if c not in present]
        picked = candidates if len(candidates) <= need else rng.sample(candidates, need)
        extra = tuple(
            LabeledChain(chain=c, positive=False, recall=0.0, precision=0.0, f1=0.0)
            for c in sorted(picked, key=ChainPair.canonical)
        )
        out[tid] = AnnotatedTable(
            table_id=table.table_id,
            qis=table.qis,
            cn1=table.cn1,
            cn2=table.cn2,
            se=table.se,
            se_name=table.se_name,
            set_tokens=table.set_tokens,
            rr=table.rr,
            chains=table.chains + extra,
        )
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


def _table_from_json(rec: dict, g: KnowledgeGraph) -> AnnotatedTable:
    return AnnotatedTable(
        table_id=rec["table_id"],
        qis=tuple(rec["qis"]),
        cn1=tuple(rec["cn1"]),
        cn2=tuple(rec["cn2"]),
        se=g.entity_id(rec["se"]),
        se_name=rec["se_name"],
        set_tokens=tuple(rec["set"]),
        rr=tuple((g.entity_id(a), g.entity_id(b)) for a, b in rec["rr"]),
        chains=tuple(
            LabeledChain(
                chain=ChainPair(MetaPath.parse(c["p1"]), MetaPath.parse(c["p2"])),
                positive=c["label"] == "positive",
                recall=c["recall"],
                precision=c["precision"],
                f1=c["f1"],
            )
            for c in rec["chains"]
        ),
    )


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_dataset(
    out_dir: str,
    tables: Mapping[str, AnnotatedTable],
    split: DatasetSplit,
    tb_vocab: Vocabulary,
    kb_vocab: Vocabulary,
    g: KnowledgeGraph,
) -> None:
    """Write tables.jsonl, split.json and the two vocabulary files.

    All output is byte-deterministic: tables are ordered by id and JSON is
    serialized with sorted keys.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "tables.jsonl", "w", encoding="utf-8") as fh:
        for tid in sorted(tables):
            fh.write(_dump_json(_table_to_json(tables[tid], g)) + "\n")
    with open(out / "split.json", "w", encoding="utf-8") as fh:
        fh.write(
            _dump_json(
                {
                    "seed": split.seed,
                    "train": list(split.train),
                    "validation": list(split.validation),
                    "test": list(split.test),
                }
            )
            + "\n"
        )
    for vocab, name in ((tb_vocab, "vocab_tb.json"), (kb_vocab, "vocab_kb.json")):
        with open(out / name, "w", encoding="utf-8") as fh:
            fh.write(
                _dump_json(
                    {
                        "kind": vocab.kind,
                        "oov_token": vocab.oov_token,
                        "tokens": list(vocab.tokens),
                    }
                )
                + "\n"
            )


def load_dataset(
    in_dir: str, g: KnowledgeGraph
) -> tuple[dict[str, AnnotatedTable], DatasetSplit, Vocabulary, Vocabulary]:
    base = Path(in_dir)
    tables: dict[str, AnnotatedTable] = {}
    with open(base / "tables.jsonl", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                t = _table_from_json(json.loads(line), g)
                tables[t.table_id] = t
    with open(base / "split.json", encoding="utf-8") as fh:
        rec = json.load(fh)
    split = DatasetSplit(
        train=tuple(rec["train"]),
        validation=tuple(rec["validation"]),
        test=tuple(rec["test"]),
        seed=rec["seed"],
    )
    vocabs = []
    for name in ("vocab_tb.json", "vocab_kb.json"):
        with open(base / name, encoding="utf-8") as fh:
            v = json.load(fh)
        vocabs.append(Vocabulary(v["kind"], tuple(v["tokens"]), v["oov_token"]))
    return tables, split, vocabs[0], vocabs[1]


def build_corpus_dataset(
    corpus: Sequence[RawTable],
    g: KnowledgeGraph,
    url2mid: Mapping[str, str],
    entity_meta: EntityMetaStore,
    types_by_mid: Mapping[str, tuple[str, ...]],
    fget_map: Mapping[str, str],
    settings: BuildSettings,
    seed: int,
    k_negatives: int = 10,
) -> tuple[dict[str, AnnotatedTable], DatasetSplit, Vocabulary, Vocabulary, dict[str, int]]:
    """Annotate a whole corpus and return tables, split, vocabularies and reject counts."""
    url2eid = {u: g.entity_id(m) for u, m in url2mid.items() if m in g}

    # Corpus-level type frequencies over the linked subject entities.
    type_freq: Counter[str] = Counter()
    for raw in corpus:
        if raw.se_mid and raw.se_mid in g:
            type_freq.update(types_by_mid.get(raw.se_mid, ()))

    tables: dict[str, AnnotatedTable] = {}
    rejects: Counter[str] = Counter()
    for raw in corpus:
        try:
            table = annotate_table(
                raw, g, url2eid, entity_meta, types_by_mid, type_freq, fget_map, settings
            )
        except TableRejected as exc:
            rejects[exc.reason] += 1
            continue
        tables[table.table_id] = table
    if not tables:
        raise ConfigurationError("no table survived annotation")

    split = split_dataset(tables.keys(), seed)
    tables = pad_negatives(tables, split, k=k_negatives, seed=seed)
    trainval = [tables[tid] for tid in sorted(split.train + split.validation)]
    tb_vocab, kb_vocab = build_vocab(trainval)
    return tables, split, tb_vocab, kb_vocab, dict(rejects)
