"""Chain scoring and top-1 selection against the query context.

Five interchangeable scorers share one method, ``scores(ctx, chains,
run_key)``, which scores every candidate chain of one query in one call:
the oracle (stored order, positives first), a seeded random pick,
token-overlap Jaccard, an L2-regularized logistic model over concatenated
count vectors, and a trainable embedding matcher. ``select_top1`` is the
one tie rule: highest score, then smallest canonical string. A command
tokenizes and encodes each distinct chain once, in the KB vocabulary's memo.

The embedding matcher encodes each field as the mean of its token
embeddings, concatenates the context fields into a query vector of the
same dimension as the chain vector, and scores by cosine; it trains with a
margin hinge over (positive, negative) chain pairs plus an L2 penalty on
all parameters. Training takes one gradient per mini-batch: the field
means of the batch's distinct contexts and chains are sparse averaging
matrices times the embedding matrices, so a batch costs a few sparse-dense
products rather than one pass per triple.
"""

from __future__ import annotations

import base64
import functools
import gc
import importlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np  # scipy is imported by the trainers alone: serving never loads it

from .dataset import K_NEGATIVES, AnnotatedTable, ChainEncoding, ConfigurationError, Vocabulary
from .graph import checked, number, read_json, string, write_json_lines
from .paths import ChainPair

# The hinge margin of embedding training, and the examples of one gradient step.
MARGIN = 0.25
BATCH_SIZE = 250


@dataclass(frozen=True)
class SelectorHyperParams:
    learning_rate: float = 1e-5
    epochs: int = 2000
    dim_qis: int = 100
    dim_cn: int = 25
    dim_set: int = 100
    dim_chain: int = 250

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be at least 0, got {self.epochs}")
        if self.dim_qis + 2 * self.dim_cn + self.dim_set != self.dim_chain:
            raise ConfigurationError(
                "dim_qis + 2*dim_cn + dim_set must equal dim_chain: "
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


# Tokens kept of each context field (each column name alike); a chain keeps
# dataset.MAX_CHAIN_TOKENS. They are part of the trained model, so training
# and serving share them.
MAX_QIS_TOKENS = 100
MAX_CN_TOKENS = 10
MAX_SET_TOKENS = 100


def context_for_table(
    table: AnnotatedTable, tb_vocab: Vocabulary, kb_vocab: Vocabulary
) -> QueryContext:
    return QueryContext(
        qis=tb_vocab.encode(table.qis[:MAX_QIS_TOKENS]),
        cn1=tb_vocab.encode(table.cn1[:MAX_CN_TOKENS]),
        cn2=tb_vocab.encode(table.cn2[:MAX_CN_TOKENS]),
        set_tokens=kb_vocab.encode(table.set_tokens[:MAX_SET_TOKENS]),
    )


def encode_chain(chain: ChainPair, kb_vocab: Vocabulary) -> ChainEncoding:
    """The chain's encoding from ``kb_vocab``'s memo, shared by every table of a command."""
    return kb_vocab.chains[chain.canonical()]


# -- scoring ------------------------------------------------------------------


class OracleScorer:
    """Scores chains by their stored position, first highest.

    Annotated tables store their positive chains first (``load_dataset``
    rejects a table without chains or whose first chain is not positive),
    and filtering keeps that order, so the pick is the first positive when
    there is one and the first chain otherwise. Serving-time candidates
    carry no labels.
    """

    def scores(self, ctx: QueryContext, chains: list[ChainEncoding], run_key: int) -> np.ndarray:
        return -np.arange(len(chains), dtype=float)


class RandomScorer:
    """One chain scores 1, the rest 0: a uniform pick seeded by the seed and the run key."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def scores(self, ctx: QueryContext, chains: list[ChainEncoding], run_key: int) -> np.ndarray:
        out = np.zeros(len(chains))
        out[random.Random(self.seed * 1_000_003 + run_key).randrange(len(chains))] = 1.0
        return out


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

    def scores(self, ctx: QueryContext, chains: list[ChainEncoding], run_key: int) -> np.ndarray:
        ctx_set = self._decode(self._tb, (*ctx.qis, *ctx.cn1, *ctx.cn2))
        ctx_set |= self._decode(self._kb, ctx.set_tokens)
        out = np.zeros(len(chains))
        for i, chain in enumerate(chains):
            chain_set = self._decode(self._kb, chain.indices)
            union = len(ctx_set | chain_set)
            if union:
                out[i] = len(ctx_set & chain_set) / union
        return out


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

    def context_vector(self, ctx: QueryContext) -> np.ndarray:
        """The four context blocks of the feature vector."""
        return np.concatenate([
            _count_block(ctx.qis, self.tb_size),
            _count_block(ctx.cn1, self.tb_size),
            _count_block(ctx.cn2, self.tb_size),
            _count_block(ctx.set_tokens, self.kb_size),
        ])

    def feature_vector(self, context: np.ndarray, chain: ChainEncoding) -> np.ndarray:
        return np.concatenate([context, _count_block(chain.indices, self.kb_size)])

    def scores(self, ctx: QueryContext, chains: list[ChainEncoding], run_key: int) -> np.ndarray:
        context = self.context_vector(ctx)
        return np.array(
            [self.weights @ self.feature_vector(context, chain) + self.bias for chain in chains]
        )


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

    def scores(self, ctx: QueryContext, chains: list[ChainEncoding], run_key: int) -> np.ndarray:
        """Cosine of the query vector with each chain vector; 0 where either is zero.

        The chain vectors are the rows of one matrix. Chains of equal token
        indices share a row, so they score exactly alike and their order is
        left to the tie rule.
        """
        q = np.concatenate([
            _mean_rows(self.qis_emb, ctx.qis),
            _mean_rows(self.cn_emb, ctx.cn1),
            _mean_rows(self.cn_emb, ctx.cn2),
            _mean_rows(self.set_emb, ctx.set_tokens),
        ])
        distinct, where = _distinct([chain.indices for chain in chains])
        c = np.array([_mean_rows(self.chain_emb, indices) for indices in distinct])
        norms = np.sqrt(np.einsum("ij,ij->i", c, c) * (q @ q))
        return _safe_div(c @ q, norms)[where]


def _mean_rows(mat: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    if not indices:
        return np.zeros(mat.shape[1])
    return mat[np.asarray(indices)].sum(axis=0) / len(indices)  # the mean, without its overhead


def select_top1(
    scorer, ctx: QueryContext, encodings: Sequence[ChainEncoding], run_key: int = 0
) -> int:
    """Index of the highest-scoring encoded chain; ties go to the smallest canonical string."""
    if len(encodings) == 1:
        return 0  # a lone chain needs no score
    if not encodings:
        raise ValueError("no candidate chains to select from")
    scores = scorer.scores(ctx, encodings, run_key)
    return min(range(len(encodings)), key=lambda i: (-scores[i], encodings[i].canonical))


# -- embedding training ---------------------------------------------------------

# The scipy module each trainer imports; serving imports none.
_TRAINER_MODULES = {"linear": "scipy.optimize", "embedding": "scipy.sparse"}


@functools.cache
def import_trainer(kind: str) -> None:
    """Import the scipy module of the ``kind`` trainer, then collect and freeze.

    Once per process and module, as ``cli`` freezes its own imports, so no
    later full collection rescans the module's objects. Called before the
    training data loads, the freeze holds the import and not that data.
    """
    if kind not in _TRAINER_MODULES:
        raise ConfigurationError(f"selector {kind!r} is not trainable (use linear or embedding)")
    importlib.import_module(_TRAINER_MODULES[kind])
    gc.collect()
    gc.freeze()


# Rows of the query and chain vectors gathered at once to dot them pair by
# pair, so a batch never holds a (pairs x dim) copy of either.
_GATHER_ELEMENTS = 1 << 16
# Weight of the penalty on the global L2 norm of the embedding matrices.
L2_WEIGHT = 5e-6


def _distinct(keys: Sequence) -> tuple[list, np.ndarray]:
    """Distinct keys in first-seen order, and each key's position among them."""
    ids: dict = {}
    where = np.fromiter(
        (ids.setdefault(k, len(ids)) for k in keys), dtype=np.int64, count=len(keys)
    )
    return list(ids), where


def _averaging_matrix(fields: Sequence[Sequence[int]], vocab_size: int):
    """Row r averages the embedding rows listed in ``fields[r]``; an empty field is a zero row."""
    from scipy import sparse

    lengths = np.fromiter(map(len, fields), dtype=np.int64, count=len(fields))
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.fromiter(
        itertools.chain.from_iterable(fields), dtype=np.int64, count=int(indptr[-1])
    )
    data = np.repeat(1.0 / np.maximum(lengths, 1), lengths)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(fields), vocab_size))


def _row_dots(a: np.ndarray, b: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """``a[rows_a[k]] . b[rows_b[k]]`` for every k, a bounded block of rows at a time."""
    step = max(1, _GATHER_ELEMENTS // max(1, a.shape[1]))
    out = np.empty(len(rows_a))
    for s in range(0, len(rows_a), step):
        out[s:s + step] = np.einsum(
            "ij,ij->i", a[rows_a[s:s + step]], b[rows_b[s:s + step]]
        )
    return out


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros(len(num)), where=den > 0)


def triple_hinge_gradients(
    scorer: EmbeddingScorer,
    ctxs: Sequence[QueryContext],
    positives: Sequence[ChainEncoding],
    negatives: Sequence[ChainEncoding],
) -> tuple[float, dict[str, np.ndarray]]:
    """Summed hinge loss of a batch of (context, positive, negative) triples and its gradients.

    The three sequences are parallel, one entry per triple. Each distinct
    context's query vector and each distinct chain's vector is computed
    once, as a sparse averaging matrix times an embedding matrix. A triple
    costs ``max(0, margin - cos(q, p) + cos(q, n))`` over the cosines of its
    two (context, chain) pairs. Each pair is weighted by the number of
    active triples that use it as a negative, less those that use it as a
    positive, and the gradients with respect to the four embedding matrices
    are sparse-dense products of those weights with the vectors. They are
    zero where no triple is active.
    """
    from scipy import sparse

    contexts, ctx_of = _distinct(ctxs)
    chains, chain_of = _distinct([c.indices for c in (*positives, *negatives)])
    n_ctx, n_chain = len(contexts), len(chains)
    a_qis = _averaging_matrix([c.qis for c in contexts], len(scorer.qis_emb))
    a_cn1 = _averaging_matrix([c.cn1 for c in contexts], len(scorer.cn_emb))
    a_cn2 = _averaging_matrix([c.cn2 for c in contexts], len(scorer.cn_emb))
    a_set = _averaging_matrix([c.set_tokens for c in contexts], len(scorer.set_emb))
    a_chain = _averaging_matrix(chains, len(scorer.chain_emb))
    q = np.hstack([
        a_qis @ scorer.qis_emb, a_cn1 @ scorer.cn_emb, a_cn2 @ scorer.cn_emb, a_set @ scorer.set_emb
    ])
    c = a_chain @ scorer.chain_emb
    q_norm = np.linalg.norm(q, axis=1)
    c_norm = np.linalg.norm(c, axis=1)

    # Distinct (context, chain) pairs; the positive pairs of the triples come
    # first in pair_of, the negative pairs after them.
    n_triples = len(ctxs)
    pair_ids = np.concatenate([ctx_of, ctx_of]) * n_chain + chain_of
    pair_keys, pair_of = np.unique(pair_ids, return_inverse=True)
    pair_ctx, pair_chain = np.divmod(pair_keys, n_chain)
    denom = q_norm[pair_ctx] * c_norm[pair_chain]
    cos = _safe_div(_row_dots(q, c, pair_ctx, pair_chain), denom)

    pos_pair, neg_pair = pair_of[:n_triples], pair_of[n_triples:]
    losses = scorer.margin - cos[pos_pair] + cos[neg_pair]
    active = losses > 0.0
    weights = (
        np.bincount(neg_pair[active], minlength=len(pair_keys))
        - np.bincount(pos_pair[active], minlength=len(pair_keys))
    ).astype(float)
    w = sparse.csr_matrix(
        (_safe_div(weights, denom), (pair_ctx, pair_chain)), shape=(n_ctx, n_chain)
    )
    # d cos(q, c) / dq = c / (|q||c|) - cos q / |q|^2, and symmetrically for c.
    weighted_cos = weights * cos
    dq = w @ c
    dq -= q * _safe_div(np.bincount(pair_ctx, weighted_cos, n_ctx), q_norm**2)[:, None]
    dc = w.T @ q
    dc -= c * _safe_div(np.bincount(pair_chain, weighted_cos, n_chain), c_norm**2)[:, None]
    d1, d2 = scorer.qis_emb.shape[1], scorer.cn_emb.shape[1]
    grads = {
        "qis": a_qis.T @ dq[:, :d1],
        "cn": a_cn1.T @ dq[:, d1:d1 + d2] + a_cn2.T @ dq[:, d1 + d2:d1 + 2 * d2],
        "set": a_set.T @ dq[:, d1 + 2 * d2:],
        "chain": a_chain.T @ dc,
    }
    return float(np.sum(losses[active])), grads


def _global_norm(mats: Mapping[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(m * m)) for m in mats.values())))


@dataclass(frozen=True)
class _TrainExample:
    ctx: QueryContext
    positives: tuple[ChainEncoding, ...]
    negatives: tuple[ChainEncoding, ...]  # the first K_NEGATIVES - 1, in canonical order


def _prepare_examples(
    tables: Sequence[AnnotatedTable], tb_vocab: Vocabulary, kb_vocab: Vocabulary
) -> list[_TrainExample]:
    """One example per table, by table id. ``build-dataset`` pads each training
    table to ``K_NEGATIVES - 1`` negatives; a table with fewer trains on those."""
    examples = []
    for table in sorted(tables, key=lambda t: t.table_id):
        negatives = (encode_chain(lc.chain, kb_vocab) for lc in table.negatives())
        examples.append(
            _TrainExample(
                ctx=context_for_table(table, tb_vocab, kb_vocab),
                positives=tuple(
                    encode_chain(lc.chain, kb_vocab) for lc in table.positives()
                ),
                negatives=tuple(sorted(negatives, key=lambda e: e.canonical))[:K_NEGATIVES - 1],
            )
        )
    return examples


def _triples(
    examples: Iterable[_TrainExample],
) -> tuple[list[QueryContext], list[ChainEncoding], list[ChainEncoding]]:
    """Parallel (context, positive, negative) lists: every positive against each negative."""
    ctxs, positives, negatives = [], [], []
    for ex in examples:
        for pos in ex.positives:
            ctxs += [ex.ctx] * len(ex.negatives)
            positives += [pos] * len(ex.negatives)
            negatives += ex.negatives
    return ctxs, positives, negatives


def train_embedding(
    tables: Sequence[AnnotatedTable],
    tb_vocab: Vocabulary,
    kb_vocab: Vocabulary,
    hp: SelectorHyperParams = DEFAULT_HP,
    seed: int = 0,
) -> EmbeddingScorer:
    """Mini-batch gradient descent on the hinge objective.

    Each batch of examples makes one ``triple_hinge_gradients`` call over
    all of its triples (every positive against each of its table's first
    k-1 negatives), then one step on the summed gradients plus the gradient
    of the L2 norm penalty. Deterministic given the seed: initialization and
    per-epoch shuffling come from one generator, so the first e epochs of a
    longer run give the same parameters as a run of e epochs.
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
        margin=MARGIN,
        tb_vocab_hash=tb_vocab.content_hash(),
        kb_vocab_hash=kb_vocab.content_hash(),
    )
    examples = _prepare_examples(tables, tb_vocab, kb_vocab)
    for _ in range(hp.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), BATCH_SIZE):
            batch = [examples[ei] for ei in order[start:start + BATCH_SIZE]]
            _, grads = triple_hinge_gradients(scorer, *_triples(batch))
            norm = _global_norm(mats)
            if norm > 0:
                for k in grads:
                    grads[k] += L2_WEIGHT * mats[k] / norm
            for k in mats:
                mats[k] -= hp.learning_rate * grads[k]
    return scorer


# -- linear training -------------------------------------------------------------

# Weight of the penalty on the squared linear weights.
LINEAR_L2 = 1e-3


def train_linear(
    tables: Sequence[AnnotatedTable], tb_vocab: Vocabulary, kb_vocab: Vocabulary
) -> LinearScorer:
    """L2-regularized logistic regression on +1/-1 labeled chain rows.

    Optimized with L-BFGS, which is deterministic for fixed inputs.
    """
    from scipy.optimize import minimize

    if not tables:
        raise ConfigurationError("empty training set")
    probe = LinearScorer(
        np.zeros(3 * tb_vocab.size + 2 * kb_vocab.size), 0.0,
        tb_vocab.size, kb_vocab.size,
        tb_vocab.content_hash(), kb_vocab.content_hash(),
    )
    rows, labels = [], []
    for table in sorted(tables, key=lambda t: t.table_id):
        context = probe.context_vector(context_for_table(table, tb_vocab, kb_vocab))
        for lc in table.chains:
            rows.append(probe.feature_vector(context, encode_chain(lc.chain, kb_vocab)))
            labels.append(1.0 if lc.positive else -1.0)
    X = np.asarray(rows)
    y = np.asarray(labels)
    dim = X.shape[1]

    def objective(theta):
        w, b = theta[:dim], theta[dim]
        z = y * (X @ w + b)
        loss = float(np.sum(np.logaddexp(0.0, -z))) + LINEAR_L2 * float(w @ w)
        s = 1.0 / (1.0 + np.exp(z))  # sigmoid(-z)
        grad_w = -(X.T @ (y * s)) + 2.0 * LINEAR_L2 * w
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


def _matrix_record(m: np.ndarray) -> dict:
    data = base64.b64encode(np.asarray(m, dtype="<f8").tobytes()).decode("ascii")
    return {"shape": list(m.shape), "data": data}


def save_scorer(path: str, scorer) -> None:
    """Write a trained scorer: each matrix as its shape and its base64 float64 bytes."""
    if isinstance(scorer, EmbeddingScorer):
        payload = {
            "type": "embedding",
            "margin": scorer.margin,
            "params": {k: _matrix_record(m) for k, m in scorer.matrices().items()},
        }
    elif isinstance(scorer, LinearScorer):
        payload = {
            "type": "linear",
            "tb_size": scorer.tb_size,
            "kb_size": scorer.kb_size,
            "weights": _matrix_record(scorer.weights),
            "bias": scorer.bias,
        }
    else:
        raise ConfigurationError(f"cannot serialize scorer of type {type(scorer).__name__}")
    payload.update(
        version=2,
        tb_vocab_hash=scorer.tb_vocab_hash,
        kb_vocab_hash=scorer.kb_vocab_hash,
    )
    write_json_lines(path, [payload])


def _matrix(rec: dict, name: str, shape: tuple) -> np.ndarray:
    """The matrix ``_matrix_record`` wrote, of ``shape``; ``None`` matches any length."""
    got = rec["shape"]
    if (
        type(got) is not list
        or len(got) != len(shape)
        or not all(type(n) is int and n >= 0 for n in got)
        or any(want not in (None, n) for want, n in zip(shape, got))
    ):
        raise ValueError(f"{name!r} must be a matrix of shape {shape}")
    count = math.prod(got)
    col = np.frombuffer(base64.b64decode(rec["data"], validate=True), "<f8")
    if len(col) != count or not np.isfinite(col).all():
        raise ValueError(f"data is not {count} finite float64 values")
    return col.astype(np.float64, copy=False).reshape(got)


def load_scorer(path: str, tb_vocab: Vocabulary, kb_vocab: Vocabulary):
    """The scorer ``save_scorer`` wrote; a malformed file is a ``ParseError`` naming it."""
    payload = read_json(path)
    with checked(path, 1):
        if payload.get("version") == 1:
            raise ValueError("a version-1 selector model; retrain it with train-selector")
        if payload.get("version") != 2 or payload.get("type") not in ("embedding", "linear"):
            raise ValueError("not a selector model file")
        hashes = tuple(string(payload.get(k), k) for k in ("tb_vocab_hash", "kb_vocab_hash"))
    if hashes != (tb_vocab.content_hash(), kb_vocab.content_hash()):
        raise ConfigurationError(
            f"vocabulary hash mismatch between the model file {path} and the loaded dataset"
        )
    tb, kb = tb_vocab.size, kb_vocab.size
    with checked(path, 1, "selector model"):  # a ConfigurationError is a ValueError too
        if payload["type"] == "embedding":
            params = payload["params"]
            rows = {"qis": tb, "cn": tb, "set": kb, "chain": kb}
            return EmbeddingScorer(
                *(_matrix(params[k], k, (n, None)) for k, n in rows.items()),
                number(payload["margin"], "margin"),
                *hashes,
            )
        if (payload["tb_size"], payload["kb_size"]) != (tb, kb):
            raise ValueError("'tb_size' and 'kb_size' must be the vocabulary sizes")
        weights = _matrix(payload["weights"], "weights", (3 * tb + 2 * kb,))
        return LinearScorer(weights, number(payload["bias"], "bias"), tb, kb, *hashes)
