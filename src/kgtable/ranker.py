"""Candidate tuple featurization and gradient-boosted pairwise ranking.

Each retrieved (x, y) tuple is described by 27 features in a frozen order:
a core-column frequency count, description/notable-type/rdf-type overlap
against the example row, query-intent overlap, and difference scores
between the example row and the candidate against the chain's expected
types and the column names. Overlap comes in two flavours everywhere:
Jaccard on token sets and cosine of mean pre-trained word vectors.
``featurize`` builds one query's whole candidate matrix: each distinct
candidate entity is scored once per column. Once per ``PretrainedEmbeddings``
object, which lives for one command, each token set's mean vector is taken
and each notable or rdf type set compared with each query side; descriptions
are compared per entity, as a real KB rarely shares them. Training
featurizes all 27 columns; serving computes only the columns the model
splits on (``RankerModel.split_features``) and leaves the others NaN, which
a tree never reads, so the scores are the same.

The ranker is a from-scratch LambdaMART: small regression trees fit to
pairwise lambda gradients weighted by the NDCG swap delta.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import (
    EntityMetaStore,
    PredicateMetaStore,
    _Memo,
    checked,
    number,
    open_text,
    read_json,
    write_json_lines,
)
from .paths import ChainPair
from .text import jaccard

FEATURE_NAMES = (
    "c1_frequency",
    "desc_jac_col1",
    "desc_jac_col2",
    "desc_cos_col1",
    "desc_cos_col2",
    "qis_desc_jac_col1",
    "qis_desc_jac_col2",
    "qis_desc_cos_col1",
    "qis_desc_cos_col2",
    "notable_jac_col1",
    "notable_jac_col2",
    "notable_cos_col1",
    "notable_cos_col2",
    "rdf_jac_col1",
    "rdf_jac_col2",
    "rdf_cos_col1",
    "rdf_cos_col2",
    "chain_tgt1_diff_jac",
    "chain_src2_diff_jac",
    "chain_tgt2_diff_jac",
    "chain_tgt1_diff_cos",
    "chain_src2_diff_cos",
    "chain_tgt2_diff_cos",
    "colname_type_diff_jac_col1",
    "colname_type_diff_jac_col2",
    "colname_type_diff_cos_col1",
    "colname_type_diff_cos_col2",
)
NUM_FEATURES = len(FEATURE_NAMES)


class PretrainedEmbeddings:
    """Word vectors: token -> float64 vector of ``dim`` values.

    ``load`` parses a ``token v1 v2 .. vD`` text file. Only build-dataset
    calls it: it compiles the vectors into the dataset's ``kb.bin``, and
    every later command reads them from there (``dataset.load_kb``), bit for
    bit. Two memos live as long as the object, which is one command.
    Cosines memoize each token set's (mean vector, norm); a set is keyed by
    its frozenset, which loses nothing because the mean de-duplicates and
    sorts the tokens anyway. ``type_sims`` memoizes ``featurize``'s
    comparisons of a notable or rdf type set: (similarity, 0 for Jaccard or 1
    for cosine, query side, type set) -> the similarity of the side and the
    set. Type sets come from a small shared vocabulary; descriptions are not
    memoized, since a real KB rarely shares them.
    """

    def __init__(self, vectors: Mapping[str, np.ndarray], dim: int):
        self._vectors = dict(vectors)
        self.dim = dim
        self._means: dict[frozenset[str], tuple[np.ndarray, float]] = {}
        weak = weakref.proxy(self)  # no reference cycle: the object dies with its last user
        self.type_sims = _Memo(lambda key: (jaccard, weak.cosine)[key[0]](key[1], key[2]))

    @classmethod
    def load(cls, path: str) -> "PretrainedEmbeddings":
        vectors: dict[str, np.ndarray] = {}
        dim = 0
        with checked(path, 0) as at, open_text(path) as fh:
            for at.line_no, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) == 1:
                    raise ValueError(f"{parts[0]!r}: no values")
                try:
                    vec = np.asarray([float(v) for v in parts[1:]])
                except ValueError as exc:
                    raise ValueError(f"{parts[0]!r}: {exc}") from None
                if not np.isfinite(vec).all():
                    raise ValueError(f"{parts[0]!r}: non-finite value")
                dim = dim or len(vec)
                if len(vec) != dim:
                    raise ValueError(
                        f"vector for {parts[0]!r} has {len(vec)} values, expected {dim}"
                    )
                vectors[parts[0]] = vec
        return cls(vectors, dim)

    def mean_vector(self, tokens: Iterable[str]) -> np.ndarray:
        """Mean vector of the known tokens; zero vector when none are known."""
        rows = [self._vectors[t] for t in sorted(set(tokens)) if t in self._vectors]
        if not rows:
            return np.zeros(self.dim)
        return np.mean(rows, axis=0)

    def _mean_and_norm(self, tokens: Iterable[str]) -> tuple[np.ndarray, float]:
        key = frozenset(tokens)
        hit = self._means.get(key)
        if hit is None:
            vec = self.mean_vector(key)
            hit = self._means[key] = (vec, float(np.linalg.norm(vec)))
        return hit

    def cosine(self, tokens_a: Iterable[str], tokens_b: Iterable[str]) -> float:
        a, na = self._mean_and_norm(tokens_a)
        b, nb = self._mean_and_norm(tokens_b)
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(a @ b / (na * nb))


@dataclass(frozen=True)
class RankContext:
    """Raw-token query context of one ranking call."""

    qis_tokens: tuple[str, ...]
    cn1_tokens: tuple[str, ...]
    cn2_tokens: tuple[str, ...]
    chain: ChainPair
    er: tuple[int, int]


def chain_type_sets(
    chain: ChainPair, pred_meta: PredicateMetaStore
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(TGT of P1, SRC of P2, TGT of P2) token sets for a chain.

    The source side uses the first predicate of the segment (prefix rule)
    and the target side the expected types of the last predicate; an
    inverse token swaps the two roles.
    """

    def tgt(tok):
        meta = pred_meta.get(tok.name)
        return meta.src_type if tok.inverse else meta.tgt_types

    def src(tok):
        meta = pred_meta.get(tok.name)
        return meta.tgt_types if tok.inverse else meta.src_type

    return tgt(chain.p1.tokens[-1]), src(chain.p2.tokens[0]), tgt(chain.p2.tokens[-1])


# Feature positions of a column-1 and a column-2 candidate entity, in the
# order ``_column_features`` numbers them.
_COL1 = (1, 3, 5, 7, 9, 11, 13, 15, 17, 20, 18, 21, 23, 25)
_COL2 = (2, 4, 6, 8, 10, 12, 14, 16, 19, 22, 24, 26)
ALL_FEATURES = tuple(range(NUM_FEATURES))


def _column_features(
    example: int,
    entities: set[int],
    qis: frozenset[str],
    type_sets: Sequence[frozenset[str] | None],
    wanted: Sequence[int],
    entity_meta: EntityMetaStore,
    embeddings: PretrainedEmbeddings,
) -> dict[int, list[float]]:
    """One column's ``wanted`` features of each candidate entity, by entity id.

    Feature ``2k`` is the Jaccard and ``2k + 1`` the cosine of comparison ``k``
    of ``sides``: the candidate's description against the example entity's
    and the query intent, its notable and rdf types against the example's,
    then the example-minus-candidate overlap of notable types with each of
    ``type_sets`` (a type set is read only when one of its features is wanted).
    A comparison with a type set is read from ``embeddings.type_sims``; both
    similarities are symmetric, so a diff's (set, side) reads the (side, set) entry.
    """
    sims, type_sims = (jaccard, embeddings.cosine), embeddings.type_sims
    m = entity_meta.get(example)
    # (query side, candidate field as an index into (description, notable, rdf))
    sides = ((frozenset(m.description), 0), (qis, 0), (m.notable_types, 1), (m.rdf_types, 2))
    sides += tuple((t, 1) for t in type_sets)
    terms = []  # (index into sims, query side, candidate field, the example's overlap of a diff)
    for k, s in (divmod(i, 2) for i in wanted):
        side, f = sides[k]
        terms.append((s, side, f, type_sims[s, side, m.notable_types] if k >= 4 else None))
    rows = {}
    for entity in entities:
        c = entity_meta.get(entity)
        fields = (frozenset(c.description), c.notable_types, c.rdf_types)
        rows[entity] = [
            sims[s](side, fields[0]) if f == 0
            else type_sims[s, side, fields[f]] if ex is None
            else ex - type_sims[s, side, fields[f]]
            for s, side, f, ex in terms
        ]
    return rows


def featurize(
    ctx: RankContext,
    cands: Sequence[tuple[int, int]],
    entity_meta: EntityMetaStore,
    pred_meta: PredicateMetaStore,
    embeddings: PretrainedEmbeddings,
    columns: Iterable[int] = ALL_FEATURES,
) -> np.ndarray:
    """The (len(cands), 27) feature matrix of one query; missing metadata scores zero.

    Only the feature positions in ``columns`` are computed; the others are
    NaN. Every feature but the column-1 frequency compares the query with
    one candidate entity, so each distinct entity of a column is scored once.
    """
    wanted = frozenset(columns)
    f = np.full((len(cands), NUM_FEATURES), np.nan)
    if 0 in wanted:
        c1_frequency = Counter(x for x, _ in cands)
        f[:, 0] = [c1_frequency[x] for x, _ in cands]
    tgt_p1, src_p2, tgt_p2 = (  # features 17-22 read the chain's types
        chain_type_sets(ctx.chain, pred_meta) if wanted & set(range(17, 23)) else (None,) * 3
    )
    qis = frozenset(ctx.qis_tokens)
    for side, positions, type_sets in (
        (0, _COL1, (tgt_p1, src_p2, frozenset(ctx.cn1_tokens))),
        (1, _COL2, (tgt_p2, frozenset(ctx.cn2_tokens))),
    ):
        local = [i for i, p in enumerate(positions) if p in wanted]
        if local and cands:
            rows = _column_features(ctx.er[side], {c[side] for c in cands}, qis, type_sets,
                                    local, entity_meta, embeddings)
            f[:, [positions[i] for i in local]] = [rows[c[side]] for c in cands]
    return f


# -- ranking metrics ---------------------------------------------------------


def ndcg(relevances: Sequence[int]) -> float:
    """Binary-relevance NDCG of a ranked list; 0.0 when nothing is relevant."""
    gains = [rel / math.log2(i + 2) for i, rel in enumerate(relevances)]
    dcg = sum(gains)
    n_rel = sum(1 for r in relevances if r)
    if n_rel == 0:
        return 0.0
    idcg = sum(1.0 / math.log2(i + 2) for i in range(n_rel))
    return dcg / idcg


def precision_at_1(
    ranked: Sequence[tuple[int, int]], err: Iterable[tuple[int, int]]
) -> int:
    """1 when the top tuple is an expected row, 0 otherwise (0 on empty input)."""
    if not ranked:
        return 0
    return 1 if ranked[0] in set(err) else 0


# -- LambdaMART --------------------------------------------------------------


def _last_accepted(gains: np.ndarray) -> int:
    """Where ``best = 0.0; for g in gains: if g > best + 1e-12: best = g`` last accepts, or -1.

    Accepted gains are strict prefix maxima (records). From one record the
    loop accepts the next record unless that one gains at most 1e-12 on it;
    only such small steps need a search for the next record that clears
    the threshold.
    """
    run = np.maximum.accumulate(gains)
    records = np.flatnonzero(np.r_[True, run[1:] > run[:-1]])
    values = gains[records]
    small_steps = np.flatnonzero(~(values[1:] > values[:-1] + 1e-12))
    r = int(np.searchsorted(values, 1e-12, side="right"))
    if r == len(records):
        return -1
    while True:
        s = int(np.searchsorted(small_steps, r))
        if s == len(small_steps):
            return int(records[-1])
        r = int(small_steps[s])
        nxt = int(np.searchsorted(values, values[r] + 1e-12, side="right"))
        if nxt == len(records):
            return int(records[r])
        r = nxt


def _feature_sort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's rows by (value, row), and their sorted values (features x rows)."""
    order = np.argsort(X.T, axis=1, kind="stable")
    return order, np.take_along_axis(X.T, order, axis=1)


def _best_split(presorted: tuple, y: np.ndarray, total: float):
    """Best split of a node's rows, or None: (feature, threshold, the left rows).

    ``presorted`` is the node's ``_feature_sort``, ``y`` every row's target and ``total``
    the node's sum. All split points of all features are scored at once from the cumulative
    sums of the targets sorted by each feature. A split must beat the best gain so far by
    more than 1e-12, so the first of equally good splits, by feature then position, wins.
    """
    order, sv = presorted
    n = order.shape[1]
    base_sse_term = total * total / n
    # One row per feature, so the gains read feature by feature when flattened.
    left_sum = np.cumsum(y[order], axis=1)[:, :-1]
    nl = np.arange(1, n)
    gain = left_sum * left_sum / nl + (total - left_sum) ** 2 / (n - nl) - base_sse_term
    # Candidate splits sit between distinct consecutive values.
    gain[sv[:, :-1] == sv[:, 1:]] = -np.inf
    k = _last_accepted(gain.ravel())
    if k < 0:
        return None
    feat, i = divmod(k, n - 1)
    return feat, (sv[feat, i] + sv[feat, i + 1]) / 2.0, order[feat, : i + 1]


def _fit_tree(presorted: tuple, y: np.ndarray, mask: np.ndarray, depth: int) -> dict:
    """Exact greedy regression tree on the rows in ``mask``, in the form ``ranker.json`` stores.

    A leaf is ``{"value": v}`` and a split ``{"feature", "threshold", "left", "right"}``;
    a row goes left when its feature value is at most the threshold. ``presorted`` is the
    training's one ``_feature_sort``, filtered to the mask's rows: ties always go by row.
    """
    y_node = y[mask]
    if depth == 0 or len(y_node) < 2 or np.allclose(y_node, y_node[0]):
        return {"value": float(np.mean(y_node))}
    split = _best_split(presorted, y, float(np.sum(y_node)))
    if split is None:
        return {"value": float(np.mean(y_node))}
    feat, thr, left_rows = split
    left = np.zeros_like(mask)
    left[left_rows] = True
    goes_left = left[presorted[0]]
    tree = {"feature": feat, "threshold": float(thr)}
    for side, keep, rows in (("left", goes_left, left), ("right", ~goes_left, mask & ~left)):
        child = tuple(a[keep].reshape(len(a), -1) for a in presorted)
        tree[side] = _fit_tree(child, y, rows, depth - 1)
    return tree


def _tree_arrays(trees: Sequence[dict]) -> tuple:
    """Nodes of the trees as arrays: (feature, threshold, left, right, value, roots, depth).

    A leaf's children are the leaf itself, so a row routed past its leaf
    stays there, and ``depth`` routing steps bring every row to its leaf.
    A node that is neither a leaf nor a split is a ``ValueError``.
    """
    feature, threshold, left, right, value = [], [], [], [], []

    def add(node: dict) -> tuple[int, int]:
        if not isinstance(node, dict):
            raise ValueError("a tree node must be an object")
        i = len(feature)
        left.append(i)
        right.append(i)
        if "value" in node:
            feature.append(-1)
            threshold.append(0.0)
            value.append(number(node["value"], "value"))
            return i, 0
        f = node.get("feature")
        if type(f) is not int or not 0 <= f < NUM_FEATURES:
            raise ValueError(f"a split 'feature' must be an int in 0..{NUM_FEATURES - 1}")
        if "left" not in node or "right" not in node:
            raise ValueError("a split needs a 'left' and a 'right'")
        feature.append(f)
        threshold.append(number(node.get("threshold"), "threshold"))
        value.append(0.0)
        left[i], depth_left = add(node["left"])
        right[i], depth_right = add(node["right"])
        return i, 1 + max(depth_left, depth_right)

    rooted = [add(t) for t in trees]
    return (
        np.array(feature, dtype=np.int64), np.array(threshold, dtype=float),
        np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
        np.array(value, dtype=float), np.array([r for r, _ in rooted], dtype=np.int64),
        max((d for _, d in rooted), default=0),
    )


def _leaf_values(arrays: tuple, X: np.ndarray) -> np.ndarray:
    """(rows, trees) matrix of the value of the leaf each row of X reaches in each tree."""
    feature, threshold, left, right, value, roots, depth = arrays
    node = np.tile(roots, (X.shape[0], 1))
    rows = np.arange(X.shape[0])[:, None]
    for _ in range(depth):
        go_left = X[rows, feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return value[node]


# The shrinkage of each tree's output, and the steepness of the pairwise logistic loss.
TREE_LEARNING_RATE = 0.1
PAIRWISE_SIGMA = 1.0


@dataclass(frozen=True)
class RankerConfig:
    tree_count: int = 100
    tree_depth: int = 4

    def __post_init__(self):
        for key in ("tree_count", "tree_depth"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be at least 0, got {getattr(self, key)}")


@dataclass(frozen=True)
class TrainingGroup:
    """One (table, example row) query: candidate features plus binary relevance."""

    features: np.ndarray
    relevance: np.ndarray


class RankerModel:
    """Ensemble of regression trees; prediction is learning_rate * sum of outputs.

    ``trees`` holds each tree as ``_fit_tree`` returns it and ``ranker.json``
    stores it; the routing arrays are built from them once, which also
    checks every node.
    """

    def __init__(self, trees: Sequence[dict], learning_rate: float, sigma: float):
        self.trees = list(trees)
        self.learning_rate = learning_rate
        self.sigma = sigma
        self._nodes = _tree_arrays(self.trees)
        # The features ``predict`` routes on; it reads no other column.
        self.split_features = tuple(sorted(set(self._nodes[0].tolist()) - {-1}))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Scores of the rows of X; NaN in a column the trees read is a ``ValueError``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if np.isnan(X[:, list(self.split_features)]).any():
            raise ValueError("a feature the ranker reads is NaN")
        scores = np.zeros(X.shape[0])
        for leaf_values in _leaf_values(self._nodes, X).T:
            scores += leaf_values
        return self.learning_rate * scores


def _shape_batches(relevances: Sequence[np.ndarray]) -> list[tuple]:
    """Groups of consecutive rows with both classes, batched by (size, relevant positions):
    (the (k, size) row numbers of a batch's k groups, the relevant and the
    irrelevant positions, the ideal DCG). One-class groups get no lambda.
    """
    starts: dict[tuple[bool, ...], list[int]] = {}
    for lo, rel in zip(np.cumsum([0, *map(len, relevances)]).tolist(), relevances):
        if 0 < np.count_nonzero(rel > 0) < len(rel):
            starts.setdefault(tuple((rel > 0).tolist()), []).append(lo)
    batches = []
    for shape, firsts in starts.items():
        relevant = np.array(shape)
        idcg = sum(1.0 / math.log2(i + 2) for i in range(np.count_nonzero(relevant)))
        rows = np.add.outer(firsts, np.arange(len(shape)))
        batches.append((rows, np.flatnonzero(relevant), np.flatnonzero(~relevant), idcg))
    return batches


def _lambdas(scores: np.ndarray, batches: Sequence[tuple], sigma: float) -> np.ndarray:
    """LambdaMART's lambda gradient of each row, one array pass per ``_shape_batches`` batch.

    A group's (relevant i, irrelevant j) pair adds sigma / (1 + exp(sigma * (s_i - s_j)))
    * |delta NDCG of swapping i, j| to i and subtracts it from j. Each row sums in the
    order and layout of one group's (relevant x irrelevant) matrix: batching changes no bit.
    """
    lambdas = np.zeros(len(scores))
    for rows, rel, irr, idcg in batches:
        s = scores[rows]
        # 1 / log2(1 + rank), rank = 1 + position by descending score, ties by row.
        inv_log = 1.0 / np.log2(2.0 + np.argsort(np.argsort(-s, axis=1, kind="stable"), axis=1))
        coef = sigma / (1.0 + np.exp(sigma * (s[:, rel][:, :, None] - s[:, irr][:, None, :])))
        delta = np.abs(inv_log[:, rel][:, :, None] - inv_log[:, irr][:, None, :]) / idcg
        # C order makes each group's (r, c) slab sum as a one-group matrix does:
        # rows pairwise, columns down the rows in order (pairwise when c == 1).
        pair = np.ascontiguousarray(coef * delta)
        lambdas[rows[:, rel]] += pair.sum(axis=2)
        lambdas[rows[:, irr]] -= pair.sum(axis=1)
    return lambdas


def train_ranker(
    groups: Sequence[TrainingGroup], cfg: RankerConfig = RankerConfig()
) -> RankerModel:
    """Boost regression trees on accumulated lambda gradients.

    Fully deterministic: splits are exact greedy over all features. The groups
    are batched by shape once, and the features sorted once for every node.
    """
    usable = [g for g in groups if len(g.relevance)]
    if not usable:
        return RankerModel([], TREE_LEARNING_RATE, PAIRWISE_SIGMA)
    X = np.vstack([g.features for g in usable])
    batches = _shape_batches([g.relevance for g in usable])
    root, everything = _feature_sort(X), np.ones(X.shape[0], dtype=bool)
    scores = np.zeros(X.shape[0])
    trees = []
    for _ in range(cfg.tree_count):
        lambdas = _lambdas(scores, batches, PAIRWISE_SIGMA)
        tree = _fit_tree(root, lambdas, everything, cfg.tree_depth)
        trees.append(tree)
        scores += TREE_LEARNING_RATE * _leaf_values(_tree_arrays([tree]), X)[:, 0]
    return RankerModel(trees, TREE_LEARNING_RATE, PAIRWISE_SIGMA)


def rank(scores: Sequence[float], cands: Sequence[tuple[int, int]]) -> list[int]:
    """Candidate indices in descending score, ties by (C1 id, C2 id)."""
    return sorted(range(len(cands)), key=lambda i: (-scores[i], cands[i]))


# -- model files --------------------------------------------------------------


def save_ranker(path: str, model: RankerModel) -> None:
    payload = {
        "version": 1,
        "type": "lambdamart",
        "learning_rate": model.learning_rate,
        "sigma": model.sigma,
        "trees": model.trees,
    }
    write_json_lines(path, [payload])


def load_ranker(path: str) -> RankerModel:
    """The model ``save_ranker`` wrote; a malformed file is a ``ParseError`` naming it."""
    payload = read_json(path)
    with checked(path, 1):
        if payload.get("type") != "lambdamart" or payload.get("version") != 1:
            raise ValueError("not a ranker model file")
        trees = payload.get("trees")
        if not isinstance(trees, list):
            raise TypeError("'trees' must be a list")
        return RankerModel(trees, *(number(payload.get(k), k) for k in ("learning_rate", "sigma")))
