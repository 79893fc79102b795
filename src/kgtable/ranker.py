"""Candidate tuple featurization and gradient-boosted pairwise ranking.

Each retrieved (x, y) tuple is described by 27 features in a frozen order:
a core-column frequency count, description/notable-type/rdf-type overlap
against the example row, query-intent overlap, and difference scores
between the example row and the candidate against the chain's expected
types and the column names. Overlap comes in two flavours everywhere:
Jaccard on token sets and cosine of mean pre-trained word vectors.

The ranker is a from-scratch LambdaMART: small regression trees fit to
pairwise lambda gradients weighted by the NDCG swap delta.
"""

from __future__ import annotations

import json
import math
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
    """Word vectors loaded from a ``token v1 v2 .. vD`` text file."""

    def __init__(self, vectors: Mapping[str, np.ndarray], dim: int):
        self._vectors = dict(vectors)
        self.dim = dim

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

    def cosine(self, tokens_a: Iterable[str], tokens_b: Iterable[str]) -> float:
        a = self.mean_vector(tokens_a)
        b = self.mean_vector(tokens_b)
        na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
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


def featurize(
    ctx: RankContext,
    cand: tuple[int, int],
    cand_set: Sequence[tuple[int, int]],
    entity_meta: EntityMetaStore,
    pred_meta: PredicateMetaStore,
    embeddings: PretrainedEmbeddings,
) -> np.ndarray:
    """The 27-feature vector of one candidate tuple; missing metadata scores zero."""
    er1, er2 = ctx.er
    t1, t2 = cand
    m_er1, m_er2 = entity_meta.get(er1), entity_meta.get(er2)
    m_t1, m_t2 = entity_meta.get(t1), entity_meta.get(t2)

    d_er1, d_er2 = set(m_er1.description), set(m_er2.description)
    d_t1, d_t2 = set(m_t1.description), set(m_t2.description)
    qis = set(ctx.qis_tokens)

    tgt_p1, src_p2, tgt_p2 = chain_type_sets(ctx.chain, pred_meta)
    cos = embeddings.cosine

    f = np.empty(NUM_FEATURES)
    f[0] = sum(1 for x, _ in cand_set if x == t1)
    # Pairwise entity description match.
    f[1] = jaccard(d_er1, d_t1)
    f[2] = jaccard(d_er2, d_t2)
    f[3] = cos(d_er1, d_t1)
    f[4] = cos(d_er2, d_t2)
    # Query intent vs candidate descriptions.
    f[5] = jaccard(qis, d_t1)
    f[6] = jaccard(qis, d_t2)
    f[7] = cos(qis, d_t1)
    f[8] = cos(qis, d_t2)
    # Notable types.
    f[9] = jaccard(m_er1.notable_types, m_t1.notable_types)
    f[10] = jaccard(m_er2.notable_types, m_t2.notable_types)
    f[11] = cos(m_er1.notable_types, m_t1.notable_types)
    f[12] = cos(m_er2.notable_types, m_t2.notable_types)
    # Rdf types.
    f[13] = jaccard(m_er1.rdf_types, m_t1.rdf_types)
    f[14] = jaccard(m_er2.rdf_types, m_t2.rdf_types)
    f[15] = cos(m_er1.rdf_types, m_t1.rdf_types)
    f[16] = cos(m_er2.rdf_types, m_t2.rdf_types)
    # Entity notable type vs connecting chain expected type, example minus candidate.
    f[17] = jaccard(m_er1.notable_types, tgt_p1) - jaccard(m_t1.notable_types, tgt_p1)
    f[18] = jaccard(m_er1.notable_types, src_p2) - jaccard(m_t1.notable_types, src_p2)
    f[19] = jaccard(m_er2.notable_types, tgt_p2) - jaccard(m_t2.notable_types, tgt_p2)
    f[20] = cos(m_er1.notable_types, tgt_p1) - cos(m_t1.notable_types, tgt_p1)
    f[21] = cos(m_er1.notable_types, src_p2) - cos(m_t1.notable_types, src_p2)
    f[22] = cos(m_er2.notable_types, tgt_p2) - cos(m_t2.notable_types, tgt_p2)
    # Column names vs entity notable types, example minus candidate.
    cn1, cn2 = set(ctx.cn1_tokens), set(ctx.cn2_tokens)
    f[23] = jaccard(m_er1.notable_types, cn1) - jaccard(m_t1.notable_types, cn1)
    f[24] = jaccard(m_er2.notable_types, cn2) - jaccard(m_t2.notable_types, cn2)
    f[25] = cos(m_er1.notable_types, cn1) - cos(m_t1.notable_types, cn1)
    f[26] = cos(m_er2.notable_types, cn2) - cos(m_t2.notable_types, cn2)
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
    if depth == 0 or len(idx) < 2 or np.allclose(y[idx], y[idx][0]):
        return TreeNode(value=float(np.mean(y[idx])))
    best_gain = 0.0
    best: tuple[int, float, np.ndarray, np.ndarray] | None = None
    total = float(np.sum(y[idx]))
    n = len(idx)
    base_sse_term = total * total / n
    for feat in range(X.shape[1]):
        vals = X[idx, feat]
        order = np.argsort(vals, kind="stable")
        sv, sy = vals[order], y[idx][order]
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
                mask = vals <= thr
                best_gain = gain
                best = (feat, thr, idx[order[:nl]], idx[order[nl:]])
    if best is None:
        return TreeNode(value=float(np.mean(y[idx])))
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
    groups: Sequence[TrainingGroup],
    cfg: RankerConfig = RankerConfig(),
    seed: int = 0,
) -> RankerModel:
    """Boost regression trees on accumulated lambda gradients.

    Fully deterministic: splits are exact greedy over all features and the
    seed parameter is kept for interface stability only.
    """
    del seed
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


def rank(
    model: RankerModel,
    features: np.ndarray,
    cands: Sequence[tuple[int, int]],
) -> list[int]:
    """Candidate indices in descending model score, ties by (C1 id, C2 id)."""
    if len(cands) == 0:
        return []
    scores = model.predict(features)
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
