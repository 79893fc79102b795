"""Chain scoring and top-1 selection against the query context.

Three interchangeable scorers: token-overlap Jaccard, an L2-regularized
logistic model over concatenated count vectors, and a trainable
embedding matcher. The embedding matcher encodes each field as
the mean of its token embeddings, concatenates the context fields into a
query vector of the same dimension as the chain vector, and scores by
cosine; it trains with a margin hinge over (positive, negative) chain
pairs plus an L2 penalty on all parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .dataset import AnnotatedTable, ConfigurationError, Vocabulary, chain_tokens
from .paths import ChainPair

DEFAULT_MARGIN = 0.25
DEFAULT_L2_WEIGHT = 5e-6
DEFAULT_LEARNING_RATE = 1e-5


@dataclass(frozen=True)
class SelectorHyperParams:
    margin: float = DEFAULT_MARGIN
    l2_weight: float = DEFAULT_L2_WEIGHT
    learning_rate: float = DEFAULT_LEARNING_RATE
    batch_size: int = 250
    epochs: int = 2000
    k_negatives: int = 10
    dim_qis: int = 100
    dim_cn: int = 25
    dim_set: int = 100
    dim_chain: int = 250
    max_qis_tokens: int = 100
    max_cn_tokens: int = 10
    max_set_tokens: int = 100
    max_chain_tokens: int = 200
    linear_l2: float = 1e-3

    def __post_init__(self):
        if self.dim_qis + 2 * self.dim_cn + self.dim_set != self.dim_chain:
            raise ConfigurationError(
                "query and chain vector dimensions must match: "
                f"{self.dim_qis} + 2*{self.dim_cn} + {self.dim_set} != {self.dim_chain}"
            )


DEFAULT_HP = SelectorHyperParams()


@dataclass(frozen=True)
class QueryContext:
    """Vocabulary-index sequences of the four context fields (OOV mapped to 0)."""

    qis: tuple[int, ...]
    cn1: tuple[int, ...]
    cn2: tuple[int, ...]
    set_tokens: tuple[int, ...]


@dataclass(frozen=True)
class ChainEncoding:
    indices: tuple[int, ...]
    canonical: str


def encode_context(
    qis: Sequence[str],
    cn1: Sequence[str],
    cn2: Sequence[str],
    set_tokens: Sequence[str],
    tb_vocab: Vocabulary,
    kb_vocab: Vocabulary,
    hp: SelectorHyperParams = DEFAULT_HP,
) -> QueryContext:
    return QueryContext(
        qis=tb_vocab.encode(qis[: hp.max_qis_tokens]),
        cn1=tb_vocab.encode(cn1[: hp.max_cn_tokens]),
        cn2=tb_vocab.encode(cn2[: hp.max_cn_tokens]),
        set_tokens=kb_vocab.encode(set_tokens[: hp.max_set_tokens]),
    )


def context_for_table(
    table: AnnotatedTable,
    tb_vocab: Vocabulary,
    kb_vocab: Vocabulary,
    hp: SelectorHyperParams = DEFAULT_HP,
) -> QueryContext:
    return encode_context(
        table.qis, table.cn1, table.cn2, table.set_tokens, tb_vocab, kb_vocab, hp
    )


def encode_chain(
    chain: ChainPair,
    kb_vocab: Vocabulary | None,
    hp: SelectorHyperParams = DEFAULT_HP,
) -> ChainEncoding:
    canonical = chain.canonical()
    if kb_vocab is None:
        return ChainEncoding(indices=(), canonical=canonical)
    tokens = chain_tokens(chain)[: hp.max_chain_tokens]
    return ChainEncoding(indices=kb_vocab.encode(tokens), canonical=canonical)


# -- scoring ------------------------------------------------------------------


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; 0.0 by convention when either vector is zero."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def hinge_loss(
    q_vec: np.ndarray,
    p_vec: np.ndarray,
    n_vec: np.ndarray,
    margin: float = DEFAULT_MARGIN,
) -> float:
    """max(0, margin - cos(q, p) + cos(q, n))."""
    return max(0.0, margin - cosine(q_vec, p_vec) + cosine(q_vec, n_vec))


class JaccardScorer:
    """Overlap between the union of context token sets and the chain token set.

    Context fields are encoded in two different vocabulary spaces, so the
    indices are decoded back to token strings before comparing; the OOV
    index decodes to nothing, leaving unknown tokens unmatched.
    """

    def __init__(self, tb_vocab: Vocabulary, kb_vocab: Vocabulary):
        self._tb = tb_vocab
        self._kb = kb_vocab

    @staticmethod
    def _decode(vocab: Vocabulary, indices: Iterable[int]) -> set[str]:
        return {vocab.tokens[i - 1] for i in indices if i != 0}

    def score(self, ctx: QueryContext, chain: ChainEncoding) -> float:
        ctx_set = self._decode(self._tb, (*ctx.qis, *ctx.cn1, *ctx.cn2))
        ctx_set |= self._decode(self._kb, ctx.set_tokens)
        chain_set = self._decode(self._kb, chain.indices)
        if not ctx_set and not chain_set:
            return 0.0
        return len(ctx_set & chain_set) / len(ctx_set | chain_set)


class LinearScorer:
    """Affine score over the concatenated 5-block count-vector features."""

    def __init__(
        self,
        weights: np.ndarray,
        bias: float,
        tb_size: int,
        kb_size: int,
        tb_vocab_hash: str,
        kb_vocab_hash: str,
    ):
        expected = 3 * tb_size + 2 * kb_size
        if weights.shape != (expected,):
            raise ConfigurationError(
                f"weight vector has shape {weights.shape}, expected ({expected},)"
            )
        self.weights = weights
        self.bias = float(bias)
        self.tb_size = tb_size
        self.kb_size = kb_size
        self.tb_vocab_hash = tb_vocab_hash
        self.kb_vocab_hash = kb_vocab_hash

    def feature_vector(self, ctx: QueryContext, chain: ChainEncoding) -> np.ndarray:
        blocks = [
            _count_block(ctx.qis, self.tb_size),
            _count_block(ctx.cn1, self.tb_size),
            _count_block(ctx.cn2, self.tb_size),
            _count_block(ctx.set_tokens, self.kb_size),
            _count_block(chain.indices, self.kb_size),
        ]
        return np.concatenate(blocks)

    def score(self, ctx: QueryContext, chain: ChainEncoding) -> float:
        return float(self.weights @ self.feature_vector(ctx, chain) + self.bias)


def _count_block(indices: Sequence[int], size: int) -> np.ndarray:
    vec = np.zeros(size)
    if indices:
        counts = np.bincount(np.asarray(indices), minlength=size)
        vec[: len(counts)] = counts[:size]
    return vec


class EmbeddingScorer:
    """Mean-of-embeddings siamese matcher.

    Four embedding matrices: one per context field side (the two column
    names share one matrix, mirroring a single header encoder) and one for
    chains. The concatenated context means form the query vector, whose
    dimension equals the chain vector dimension by construction.
    """

    def __init__(
        self,
        qis_emb: np.ndarray,
        cn_emb: np.ndarray,
        set_emb: np.ndarray,
        chain_emb: np.ndarray,
        margin: float,
        tb_vocab_hash: str,
        kb_vocab_hash: str,
    ):
        if qis_emb.shape[1] + 2 * cn_emb.shape[1] + set_emb.shape[1] != chain_emb.shape[1]:
            raise ConfigurationError("context and chain embedding dimensions must match")
        self.qis_emb = qis_emb
        self.cn_emb = cn_emb
        self.set_emb = set_emb
        self.chain_emb = chain_emb
        self.margin = margin
        self.tb_vocab_hash = tb_vocab_hash
        self.kb_vocab_hash = kb_vocab_hash

    def matrices(self) -> dict[str, np.ndarray]:
        return {
            "qis": self.qis_emb,
            "cn": self.cn_emb,
            "set": self.set_emb,
            "chain": self.chain_emb,
        }

    def query_vector(self, ctx: QueryContext) -> np.ndarray:
        return np.concatenate(
            [
                _mean_rows(self.qis_emb, ctx.qis),
                _mean_rows(self.cn_emb, ctx.cn1),
                _mean_rows(self.cn_emb, ctx.cn2),
                _mean_rows(self.set_emb, ctx.set_tokens),
            ]
        )

    def chain_vector(self, chain: ChainEncoding) -> np.ndarray:
        return _mean_rows(self.chain_emb, chain.indices)

    def score(self, ctx: QueryContext, chain: ChainEncoding) -> float:
        return cosine(self.query_vector(ctx), self.chain_vector(chain))


def _mean_rows(mat: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    if not indices:
        return np.zeros(mat.shape[1])
    return mat[np.asarray(indices)].mean(axis=0)


def select_top1(
    scorer,
    ctx: QueryContext,
    chains: Iterable[ChainPair],
    kb_vocab: Vocabulary | None,
    hp: SelectorHyperParams = DEFAULT_HP,
) -> int:
    """Index of the highest-scoring chain; ties go to the smallest canonical string."""
    best: tuple[float, str] | None = None
    best_index = -1
    for i, chain in enumerate(chains):
        enc = encode_chain(chain, kb_vocab, hp)
        s = scorer.score(ctx, enc)
        key = (-s, enc.canonical)
        if best is None or key < best:
            best = key
            best_index = i
    if best is None:
        raise ValueError("no candidate chains to select from")
    return best_index


# -- embedding training ---------------------------------------------------------


def _cosine_with_grads(
    u: np.ndarray, v: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0, np.zeros_like(u), np.zeros_like(v)
    cos = float(np.dot(u, v) / (nu * nv))
    du = v / (nu * nv) - cos * u / (nu * nu)
    dv = u / (nu * nv) - cos * v / (nv * nv)
    return cos, du, dv


def triple_hinge_gradients(
    scorer: EmbeddingScorer,
    ctx: QueryContext,
    pos: ChainEncoding,
    neg: ChainEncoding,
) -> tuple[float, dict[str, np.ndarray]]:
    """Hinge loss of one (context, positive, negative) triple and its gradients.

    Gradients are with respect to the four embedding matrices; zero
    everywhere when the margin is satisfied.
    """
    grads = {k: np.zeros_like(m) for k, m in scorer.matrices().items()}
    q = scorer.query_vector(ctx)
    p = scorer.chain_vector(pos)
    n = scorer.chain_vector(neg)
    cos_p, dqp, dp = _cosine_with_grads(q, p)
    cos_n, dqn, dn = _cosine_with_grads(q, n)
    loss = scorer.margin - cos_p + cos_n
    if loss <= 0.0:
        return 0.0, grads
    dq = -dqp + dqn
    d1, d2 = scorer.qis_emb.shape[1], scorer.cn_emb.shape[1]
    d3 = scorer.set_emb.shape[1]
    _scatter_mean_grad(grads["qis"], ctx.qis, dq[:d1])
    _scatter_mean_grad(grads["cn"], ctx.cn1, dq[d1:d1 + d2])
    _scatter_mean_grad(grads["cn"], ctx.cn2, dq[d1 + d2:d1 + 2 * d2])
    _scatter_mean_grad(grads["set"], ctx.set_tokens, dq[d1 + 2 * d2:d1 + 2 * d2 + d3])
    _scatter_mean_grad(grads["chain"], pos.indices, -dp)
    _scatter_mean_grad(grads["chain"], neg.indices, dn)
    return float(loss), grads


def _scatter_mean_grad(grad: np.ndarray, indices: Sequence[int], dvec: np.ndarray) -> None:
    if not indices:
        return
    np.add.at(grad, np.asarray(indices), dvec / len(indices))


def _global_norm(mats: Mapping[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(m * m)) for m in mats.values())))


def _pick_negatives(
    negatives: Sequence[ChainEncoding], k_minus_1: int, rng: np.random.Generator
) -> list[ChainEncoding]:
    """First k-1 negatives in canonical order, topped up by seeded resampling."""
    ordered = sorted(negatives, key=lambda e: e.canonical)
    if len(ordered) >= k_minus_1:
        return ordered[:k_minus_1]
    if not ordered:
        return []
    fill = [ordered[int(rng.integers(len(ordered)))] for _ in range(k_minus_1 - len(ordered))]
    return ordered + fill


@dataclass(frozen=True)
class _TrainExample:
    ctx: QueryContext
    positives: tuple[ChainEncoding, ...]
    negatives: tuple[ChainEncoding, ...]


def _prepare_examples(
    tables: Sequence[AnnotatedTable],
    tb_vocab: Vocabulary,
    kb_vocab: Vocabulary,
    hp: SelectorHyperParams,
) -> list[_TrainExample]:
    examples = []
    for table in sorted(tables, key=lambda t: t.table_id):
        examples.append(
            _TrainExample(
                ctx=context_for_table(table, tb_vocab, kb_vocab, hp),
                positives=tuple(
                    encode_chain(lc.chain, kb_vocab, hp) for lc in table.positives()
                ),
                negatives=tuple(
                    encode_chain(lc.chain, kb_vocab, hp) for lc in table.negatives()
                ),
            )
        )
    return examples


def embedding_objective(
    scorer: EmbeddingScorer,
    examples: Sequence[_TrainExample],
    hp: SelectorHyperParams,
    rng_seed: int = 0,
) -> float:
    """Full training objective: summed hinge losses plus the L2 norm penalty."""
    rng = np.random.default_rng(rng_seed)
    total = 0.0
    for ex in examples:
        negs = _pick_negatives(ex.negatives, hp.k_negatives - 1, rng)
        for pos in ex.positives:
            p = scorer.chain_vector(pos)
            q = scorer.query_vector(ex.ctx)
            for neg in negs:
                total += hinge_loss(q, p, scorer.chain_vector(neg), scorer.margin)
    return total + hp.l2_weight * _global_norm(scorer.matrices())


def train_embedding(
    tables: Sequence[AnnotatedTable],
    tb_vocab: Vocabulary,
    kb_vocab: Vocabulary,
    hp: SelectorHyperParams = DEFAULT_HP,
    seed: int = 0,
    track_objective: bool = False,
) -> EmbeddingScorer:
    """Mini-batch gradient descent on the hinge objective.

    Deterministic given the seed: initialization, per-epoch shuffling and
    negative fill all come from one generator. When ``track_objective`` is
    set, the full objective is recorded per epoch on
    ``scorer.objective_history`` (index 0 holds the pre-training value).
    """
    if not tables:
        raise ConfigurationError("empty training set")
    rng = np.random.default_rng(seed)
    mats = {
        "qis": 0.1 * rng.standard_normal((tb_vocab.size, hp.dim_qis)),
        "cn": 0.1 * rng.standard_normal((tb_vocab.size, hp.dim_cn)),
        "set": 0.1 * rng.standard_normal((kb_vocab.size, hp.dim_set)),
        "chain": 0.1 * rng.standard_normal((kb_vocab.size, hp.dim_chain)),
    }
    for m in mats.values():
        m[0, :] = 0.0  # OOV rows start at zero
    scorer = EmbeddingScorer(
        mats["qis"], mats["cn"], mats["set"], mats["chain"],
        margin=hp.margin,
        tb_vocab_hash=tb_vocab.content_hash(),
        kb_vocab_hash=kb_vocab.content_hash(),
    )
    examples = _prepare_examples(tables, tb_vocab, kb_vocab, hp)

    history: list[float] = []
    if track_objective:
        history.append(embedding_objective(scorer, examples, hp))

    for _ in range(hp.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), hp.batch_size):
            batch = order[start:start + hp.batch_size]
            grads = {k: np.zeros_like(m) for k, m in mats.items()}
            for ei in batch:
                ex = examples[ei]
                negs = _pick_negatives(ex.negatives, hp.k_negatives - 1, rng)
                for pos in ex.positives:
                    for neg in negs:
                        _, g = triple_hinge_gradients(scorer, ex.ctx, pos, neg)
                        for k in grads:
                            grads[k] += g[k]
            norm = _global_norm(mats)
            if norm > 0:
                for k in grads:
                    grads[k] += hp.l2_weight * mats[k] / norm
            for k in mats:
                mats[k] -= hp.learning_rate * grads[k]
        if track_objective:
            history.append(embedding_objective(scorer, examples, hp))

    scorer.objective_history = history
    return scorer


# -- linear training -------------------------------------------------------------


def train_linear(
    tables: Sequence[AnnotatedTable],
    tb_vocab: Vocabulary,
    kb_vocab: Vocabulary,
    hp: SelectorHyperParams = DEFAULT_HP,
    seed: int = 0,
) -> LinearScorer:
    """L2-regularized logistic regression on +1/-1 labeled chain rows.

    Optimized with L-BFGS, which is deterministic for fixed inputs; the
    seed parameter exists for interface symmetry only.
    """
    del seed
    if not tables:
        raise ConfigurationError("empty training set")
    probe = LinearScorer(
        np.zeros(3 * tb_vocab.size + 2 * kb_vocab.size), 0.0,
        tb_vocab.size, kb_vocab.size,
        tb_vocab.content_hash(), kb_vocab.content_hash(),
    )
    rows, labels = [], []
    for table in sorted(tables, key=lambda t: t.table_id):
        ctx = context_for_table(table, tb_vocab, kb_vocab, hp)
        for lc in table.chains:
            enc = encode_chain(lc.chain, kb_vocab, hp)
            rows.append(probe.feature_vector(ctx, enc))
            labels.append(1.0 if lc.positive else -1.0)
    X = np.asarray(rows)
    y = np.asarray(labels)
    dim = X.shape[1]

    def objective(theta):
        w, b = theta[:dim], theta[dim]
        z = y * (X @ w + b)
        loss = float(np.sum(np.logaddexp(0.0, -z))) + hp.linear_l2 * float(w @ w)
        s = 1.0 / (1.0 + np.exp(z))  # sigmoid(-z)
        grad_w = -(X.T @ (y * s)) + 2.0 * hp.linear_l2 * w
        grad_b = -float(np.sum(y * s))
        return loss, np.concatenate([grad_w, [grad_b]])

    result = minimize(
        objective,
        np.zeros(dim + 1),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 500},
    )
    theta = result.x
    return LinearScorer(
        theta[:dim], float(theta[dim]),
        tb_vocab.size, kb_vocab.size,
        tb_vocab.content_hash(), kb_vocab.content_hash(),
    )


# -- model files --------------------------------------------------------------------


def save_scorer(path: str, scorer) -> None:
    if isinstance(scorer, EmbeddingScorer):
        payload = {
            "version": 1,
            "type": "embedding",
            "tb_vocab_hash": scorer.tb_vocab_hash,
            "kb_vocab_hash": scorer.kb_vocab_hash,
            "margin": scorer.margin,
            "dims": {
                "qis": scorer.qis_emb.shape[1],
                "cn": scorer.cn_emb.shape[1],
                "set": scorer.set_emb.shape[1],
                "chain": scorer.chain_emb.shape[1],
            },
            "params": {k: m.tolist() for k, m in scorer.matrices().items()},
        }
    elif isinstance(scorer, LinearScorer):
        payload = {
            "version": 1,
            "type": "linear",
            "tb_vocab_hash": scorer.tb_vocab_hash,
            "kb_vocab_hash": scorer.kb_vocab_hash,
            "tb_size": scorer.tb_size,
            "kb_size": scorer.kb_size,
            "weights": scorer.weights.tolist(),
            "bias": scorer.bias,
        }
    else:
        raise ConfigurationError(f"cannot serialize scorer of type {type(scorer).__name__}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_scorer(path: str, tb_vocab: Vocabulary, kb_vocab: Vocabulary):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != 1:
        raise ConfigurationError(f"unsupported model version {payload.get('version')}")
    if payload["tb_vocab_hash"] != tb_vocab.content_hash() or payload[
        "kb_vocab_hash"
    ] != kb_vocab.content_hash():
        raise ConfigurationError(
            "vocabulary hash mismatch between the model file and the loaded dataset"
        )
    if payload["type"] == "embedding":
        params = payload["params"]
        return EmbeddingScorer(
            np.asarray(params["qis"]),
            np.asarray(params["cn"]),
            np.asarray(params["set"]),
            np.asarray(params["chain"]),
            margin=payload["margin"],
            tb_vocab_hash=payload["tb_vocab_hash"],
            kb_vocab_hash=payload["kb_vocab_hash"],
        )
    if payload["type"] == "linear":
        return LinearScorer(
            np.asarray(payload["weights"]),
            payload["bias"],
            payload["tb_size"],
            payload["kb_size"],
            payload["tb_vocab_hash"],
            payload["kb_vocab_hash"],
        )
    raise ConfigurationError(f"unknown scorer type {payload['type']!r}")
