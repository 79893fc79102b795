"""Candidate tuple featurization and gradient-boosted pairwise ranking.

Each retrieved (x, y) tuple is described by 27 features in a frozen order:
a core-column frequency count, description/notable-type/rdf-type overlap
against the example row, query-intent overlap, and difference scores
between the example row and the candidate against the chain's expected
types and the column names. Overlap comes in two flavours everywhere:
Jaccard on token sets and cosine of mean pre-trained word vectors.
``featurize`` builds one query's whole candidate matrix: each distinct
candidate entity is scored once per column, and each token set's mean
vector once per ``PretrainedEmbeddings`` object.

The ranker is a from-scratch LambdaMART: small regression trees fit to
pairwise lambda gradients weighted by the NDCG swap delta.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import EntityMetaStore, PredicateMetaStore
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
    """Word vectors loaded from a ``token v1 v2 .. vD`` text file.

    Cosines memoize each token set's (mean vector, norm) for the lifetime of
    the object, which is one command; a set is keyed by its frozenset, which
    loses nothing because the mean de-duplicates and sorts the tokens anyway.
    """

    def __init__(self, vectors: Mapping[str, np.ndarray], dim: int):
        self._vectors = dict(vectors)
        self.dim = dim
        self._means: dict[frozenset[str], tuple[np.ndarray, float]] = {}

    @classmethod
    def load(cls, path: str) -> "PretrainedEmbeddings":
        vectors: dict[str, np.ndarray] = {}
        dim = 0
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 2:
                    continue
                vec = np.asarray([float(v) for v in parts[1:]])
                if dim == 0:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise ValueError(f"inconsistent embedding width for {parts[0]!r}")
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


# Feature columns of a column-1 and a column-2 candidate entity, in the
# order ``_column_features`` returns them.
_COL1 = [1, 3, 5, 7, 9, 11, 13, 15, 17, 18, 23, 20, 21, 25]
_COL2 = [2, 4, 6, 8, 10, 12, 14, 16, 19, 24, 22, 26]


def _column_features(
    example: int,
    entities: Iterable[int],
    qis: frozenset[str],
    type_sets: Sequence[frozenset[str]],
    entity_meta: EntityMetaStore,
    embeddings: PretrainedEmbeddings,
) -> dict[int, list[float]]:
    """One column's features of each distinct candidate entity, by entity id.

    The candidate's description, notable and rdf types against the example
    entity's and against the query intent, then the example-minus-candidate
    overlap of notable types with each of ``type_sets``.
    """
    cos = embeddings.cosine
    m = entity_meta.get(example)
    ex_desc, ex_notable, ex_rdf = frozenset(m.description), m.notable_types, m.rdf_types
    ex_jac = [jaccard(ex_notable, t) for t in type_sets]
    ex_cos = [cos(ex_notable, t) for t in type_sets]
    rows = {}
    for entity in set(entities):
        c = entity_meta.get(entity)
        desc, notable, rdf = frozenset(c.description), c.notable_types, c.rdf_types
        rows[entity] = [
            jaccard(ex_desc, desc), cos(ex_desc, desc),
            jaccard(qis, desc), cos(qis, desc),
            jaccard(ex_notable, notable), cos(ex_notable, notable),
            jaccard(ex_rdf, rdf), cos(ex_rdf, rdf),
            *(e - jaccard(notable, t) for e, t in zip(ex_jac, type_sets)),
            *(e - cos(notable, t) for e, t in zip(ex_cos, type_sets)),
        ]
    return rows


def featurize(
    ctx: RankContext,
    cands: Sequence[tuple[int, int]],
    entity_meta: EntityMetaStore,
    pred_meta: PredicateMetaStore,
    embeddings: PretrainedEmbeddings,
) -> np.ndarray:
    """The (len(cands), 27) feature matrix of one query; missing metadata scores zero.

    Every feature but the column-1 frequency compares the query with one
    candidate entity, so each distinct entity of a column is scored once.
    """
    tgt_p1, src_p2, tgt_p2 = chain_type_sets(ctx.chain, pred_meta)
    qis = frozenset(ctx.qis_tokens)
    cn1, cn2 = frozenset(ctx.cn1_tokens), frozenset(ctx.cn2_tokens)
    c1_frequency = Counter(x for x, _ in cands)
    col1 = _column_features(
        ctx.er[0], c1_frequency, qis, (tgt_p1, src_p2, cn1), entity_meta, embeddings
    )
    col2 = _column_features(
        ctx.er[1], (y for _, y in cands), qis, (tgt_p2, cn2), entity_meta, embeddings
    )
    f = np.empty((len(cands), NUM_FEATURES))
    for i, (x, y) in enumerate(cands):
        f[i, 0] = c1_frequency[x]
        f[i, _COL1] = col1[x]
        f[i, _COL2] = col2[y]
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


@dataclass(frozen=True)
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _fit_tree(X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int) -> TreeNode:
    y_idx = y[idx]
    if depth == 0 or len(idx) < 2 or np.allclose(y_idx, y_idx[0]):
        return TreeNode(value=float(np.mean(y_idx)))
    best_gain = 0.0
    best: tuple[int, float, np.ndarray, np.ndarray] | None = None
    total = float(np.sum(y_idx))
    n = len(idx)
    base_sse_term = total * total / n
    for feat in range(X.shape[1]):
        vals = X[idx, feat]
        order = np.argsort(vals, kind="stable")
        sv, sy = vals[order], y_idx[order]
        csum = np.cumsum(sy)
        # Candidate splits sit between distinct consecutive values.
        for i in range(n - 1):
            if sv[i] == sv[i + 1]:
                continue
            nl = i + 1
            left_sum = csum[i]
            gain = (
                left_sum * left_sum / nl
                + (total - left_sum) ** 2 / (n - nl)
                - base_sse_term
            )
            if gain > best_gain + 1e-12:
                thr = (sv[i] + sv[i + 1]) / 2.0
                best_gain = gain
                best = (feat, thr, idx[order[:nl]], idx[order[nl:]])
    if best is None:
        return TreeNode(value=float(np.mean(y_idx)))
    feat, thr, left_idx, right_idx = best
    return TreeNode(
        feature=feat,
        threshold=thr,
        left=_fit_tree(X, y, left_idx, depth - 1),
        right=_fit_tree(X, y, right_idx, depth - 1),
    )


def _predict_tree(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        cur = node
        while not cur.is_leaf:
            cur = cur.left if X[i, cur.feature] <= cur.threshold else cur.right
        out[i] = cur.value
    return out


@dataclass(frozen=True)
class RankerConfig:
    tree_count: int = 100
    tree_depth: int = 4
    learning_rate: float = 0.1
    sigma: float = 1.0


@dataclass(frozen=True)
class TrainingGroup:
    """One (table, example row) query: candidate features plus binary relevance."""

    features: np.ndarray
    relevance: np.ndarray


class RankerModel:
    """Ensemble of regression trees; prediction is learning_rate * sum of outputs."""

    def __init__(self, trees: Sequence[TreeNode], learning_rate: float, sigma: float):
        self.trees = list(trees)
        self.learning_rate = learning_rate
        self.sigma = sigma

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = np.zeros(X.shape[0])
        for tree in self.trees:
            scores += _predict_tree(tree, X)
        return self.learning_rate * scores

    def feature_importance(self) -> np.ndarray:
        """Split counts per feature across the ensemble."""
        counts = np.zeros(NUM_FEATURES)

        def visit(node: TreeNode):
            if not node.is_leaf:
                counts[node.feature] += 1
                visit(node.left)
                visit(node.right)

        for tree in self.trees:
            visit(tree)
        return counts


def pairwise_lambdas(
    scores: np.ndarray, relevance: np.ndarray, sigma: float
) -> np.ndarray:
    """Per-item lambda gradients for one group.

    For each (relevant i, irrelevant j) pair the contribution is
    sigma / (1 + exp(sigma * (s_i - s_j))) * |delta NDCG of swapping i, j|,
    added to i and subtracted from j. Groups lacking one of the classes
    contribute zero.
    """
    n = len(scores)
    lambdas = np.zeros(n)
    rel_idx = np.flatnonzero(relevance > 0)
    irr_idx = np.flatnonzero(relevance <= 0)
    if len(rel_idx) == 0 or len(irr_idx) == 0:
        return lambdas
    # Current 1-based ranks under descending score, ties broken by index.
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(n)
    ranks[order] = np.arange(1, n + 1)
    idcg = sum(1.0 / math.log2(i + 2) for i in range(len(rel_idx)))
    inv_log = 1.0 / np.log2(1.0 + ranks)
    diff = scores[rel_idx][:, None] - scores[irr_idx][None, :]
    coef = sigma / (1.0 + np.exp(sigma * diff))
    delta = np.abs(inv_log[rel_idx][:, None] - inv_log[irr_idx][None, :]) / idcg
    pair = coef * delta
    np.add.at(lambdas, rel_idx, pair.sum(axis=1))
    np.add.at(lambdas, irr_idx, -pair.sum(axis=0))
    return lambdas


def train_ranker(
    groups: Sequence[TrainingGroup], cfg: RankerConfig = RankerConfig()
) -> RankerModel:
    """Boost regression trees on accumulated lambda gradients.

    Fully deterministic: splits are exact greedy over all features.
    """
    usable = [g for g in groups if len(g.relevance)]
    if not usable:
        return RankerModel([], cfg.learning_rate, cfg.sigma)
    X = np.vstack([g.features for g in usable])
    bounds = np.cumsum([0] + [len(g.relevance) for g in usable])
    scores = np.zeros(X.shape[0])
    trees = []
    for _ in range(cfg.tree_count):
        lambdas = np.zeros(X.shape[0])
        for gi, g in enumerate(usable):
            lo, hi = bounds[gi], bounds[gi + 1]
            lambdas[lo:hi] = pairwise_lambdas(scores[lo:hi], g.relevance, cfg.sigma)
        tree = _fit_tree(X, lambdas, np.arange(X.shape[0]), cfg.tree_depth)
        trees.append(tree)
        scores += cfg.learning_rate * _predict_tree(tree, X)
    return RankerModel(trees, cfg.learning_rate, cfg.sigma)


def rank(scores: Sequence[float], cands: Sequence[tuple[int, int]]) -> list[int]:
    """Candidate indices in descending score, ties by (C1 id, C2 id)."""
    return sorted(range(len(cands)), key=lambda i: (-scores[i], cands[i]))


# -- model files --------------------------------------------------------------


def _node_to_json(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def _node_from_json(obj: dict) -> TreeNode:
    if "value" in obj:
        return TreeNode(value=obj["value"])
    return TreeNode(
        feature=obj["feature"],
        threshold=obj["threshold"],
        left=_node_from_json(obj["left"]),
        right=_node_from_json(obj["right"]),
    )


def save_ranker(path: str, model: RankerModel) -> None:
    payload = {
        "version": 1,
        "type": "lambdamart",
        "learning_rate": model.learning_rate,
        "sigma": model.sigma,
        "trees": [_node_to_json(t) for t in model.trees],
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_ranker(path: str) -> RankerModel:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("type") != "lambdamart" or payload.get("version") != 1:
        raise ValueError(f"not a ranker model file: {path}")
    return RankerModel(
        [_node_from_json(t) for t in payload["trees"]],
        payload["learning_rate"],
        payload["sigma"],
    )
