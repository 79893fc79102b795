"""Independent brute-force reference implementations.

These deliberately avoid the library's graph and query code: adjacency is
rebuilt straight from the raw triple list and evaluation enumerates every
walk recursively, so agreement with the production code is meaningful.
The featurizer oracle scores one candidate at a time and caches nothing,
and the vocabulary oracle tokenizes every occurrence of a chain anew.
The selector's gradient oracle takes one (context, positive, negative)
triple at a time, its scoring oracles score one (context, chain) pair at a
time, and the tree oracle scans split points one by one. The lambda oracle
takes one group at a time, and the trainer oracle fits with both.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict

import numpy as np

Token = tuple[str, bool]  # (predicate name, inverse flag)


def _tokens(text: str) -> tuple[str, ...]:
    """The one normalization rule: lowercase, then split on whitespace and ``. _ / ^ -``."""
    return tuple(t for t in re.split(r"[\s._/^\-]+", text.lower()) if t)


def build_adjacency(triples) -> dict[str, list[tuple[Token, str]]]:
    adj: dict[str, list[tuple[Token, str]]] = defaultdict(list)
    for s, p, o in set(triples):
        adj[s].append(((p, False), o))
        adj[o].append(((p, True), s))
    return adj


def grouped_adjacency(triples) -> dict[str, list[tuple[Token, list[str]]]]:
    """Each entity's neighbours per token: tokens in (name, inverse) order, neighbours sorted."""
    out = {}
    for node, edges in build_adjacency(triples).items():
        groups: dict[Token, list[str]] = defaultdict(list)
        for tok, nbr in edges:
            groups[tok].append(nbr)
        out[node] = [(tok, sorted(groups[tok])) for tok in sorted(groups)]
    return out


def brute_simple_paths(
    triples, src: str, dst: str, max_len: int, degree_cap: int | None = None
) -> set[tuple[Token, ...]]:
    """Every simple path (no repeated node, src included) of length <= max_len.

    With a degree cap, a path never passes through a node with more than
    ``degree_cap`` edges, counting both directions; ``dst`` may exceed it.
    """
    adj = build_adjacency(triples)
    found: set[tuple[Token, ...]] = set()

    def rec(node: str, visited: frozenset[str], acc: tuple[Token, ...]) -> None:
        for tok, nbr in adj[node]:
            if nbr == dst:
                if len(acc) + 1 <= max_len:
                    found.add(acc + (tok,))
                continue
            if nbr in visited or len(acc) + 1 >= max_len:
                continue
            if degree_cap is not None and len(adj[nbr]) > degree_cap:
                continue
            rec(nbr, visited | {nbr}, acc + (tok,))

    rec(src, frozenset({src}), ())
    return found


def naive_walk_ends(adj, start: str, tokens: tuple[Token, ...]) -> set[str]:
    """All walk endpoints matching the token sequence, revisits allowed."""
    if not tokens:
        return {start}
    out: set[str] = set()
    for tok, nbr in adj[start]:
        if tok == tokens[0]:
            out |= naive_walk_ends(adj, nbr, tokens[1:])
    return out


def naive_chain_eval(triples, se: str, p1: tuple[Token, ...], p2: tuple[Token, ...]) -> set[tuple[str, str]]:
    """Materialize every binding of the two-segment chain, then deduplicate."""
    adj = build_adjacency(triples)
    pairs: set[tuple[str, str]] = set()
    for x in naive_walk_ends(adj, se, p1):
        for y in naive_walk_ends(adj, x, p2):
            pairs.add((x, y))
    return pairs


def _jaccard(a, b) -> float:
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _cosine(embeddings, tokens_a, tokens_b) -> float:
    a = embeddings.mean_vector(tokens_a)
    b = embeddings.mean_vector(tokens_b)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def naive_featurize(ctx, cand, cand_set, entity_meta, pred_meta, embeddings) -> np.ndarray:
    """The 27 features of one candidate tuple, recomputed from scratch."""

    def tgt(tok):
        meta = pred_meta.get(tok.name)
        return meta.src_type if tok.inverse else meta.tgt_types

    def src(tok):
        meta = pred_meta.get(tok.name)
        return meta.tgt_types if tok.inverse else meta.src_type

    def cos(a, b):
        return _cosine(embeddings, a, b)

    jaccard = _jaccard
    er1, er2 = ctx.er
    t1, t2 = cand
    m_er1, m_er2 = entity_meta.get(er1), entity_meta.get(er2)
    m_t1, m_t2 = entity_meta.get(t1), entity_meta.get(t2)
    d_er1, d_er2 = set(m_er1.description), set(m_er2.description)
    d_t1, d_t2 = set(m_t1.description), set(m_t2.description)
    qis = set(ctx.qis_tokens)
    tgt_p1 = tgt(ctx.chain.p1.tokens[-1])
    src_p2 = src(ctx.chain.p2.tokens[0])
    tgt_p2 = tgt(ctx.chain.p2.tokens[-1])
    cn1, cn2 = set(ctx.cn1_tokens), set(ctx.cn2_tokens)

    f = np.empty(27)
    f[0] = sum(1 for x, _ in cand_set if x == t1)
    f[1] = jaccard(d_er1, d_t1)
    f[2] = jaccard(d_er2, d_t2)
    f[3] = cos(d_er1, d_t1)
    f[4] = cos(d_er2, d_t2)
    f[5] = jaccard(qis, d_t1)
    f[6] = jaccard(qis, d_t2)
    f[7] = cos(qis, d_t1)
    f[8] = cos(qis, d_t2)
    f[9] = jaccard(m_er1.notable_types, m_t1.notable_types)
    f[10] = jaccard(m_er2.notable_types, m_t2.notable_types)
    f[11] = cos(m_er1.notable_types, m_t1.notable_types)
    f[12] = cos(m_er2.notable_types, m_t2.notable_types)
    f[13] = jaccard(m_er1.rdf_types, m_t1.rdf_types)
    f[14] = jaccard(m_er2.rdf_types, m_t2.rdf_types)
    f[15] = cos(m_er1.rdf_types, m_t1.rdf_types)
    f[16] = cos(m_er2.rdf_types, m_t2.rdf_types)
    f[17] = jaccard(m_er1.notable_types, tgt_p1) - jaccard(m_t1.notable_types, tgt_p1)
    f[18] = jaccard(m_er1.notable_types, src_p2) - jaccard(m_t1.notable_types, src_p2)
    f[19] = jaccard(m_er2.notable_types, tgt_p2) - jaccard(m_t2.notable_types, tgt_p2)
    f[20] = cos(m_er1.notable_types, tgt_p1) - cos(m_t1.notable_types, tgt_p1)
    f[21] = cos(m_er1.notable_types, src_p2) - cos(m_t1.notable_types, src_p2)
    f[22] = cos(m_er2.notable_types, tgt_p2) - cos(m_t2.notable_types, tgt_p2)
    f[23] = jaccard(m_er1.notable_types, cn1) - jaccard(m_t1.notable_types, cn1)
    f[24] = jaccard(m_er2.notable_types, cn2) - jaccard(m_t2.notable_types, cn2)
    f[25] = cos(m_er1.notable_types, cn1) - cos(m_t1.notable_types, cn1)
    f[26] = cos(m_er2.notable_types, cn2) - cos(m_t2.notable_types, cn2)
    return f


def _mean_rows(mat, indices) -> np.ndarray:
    if not indices:
        return np.zeros(mat.shape[1])
    return mat[np.asarray(indices)].mean(axis=0)


def _query_vector(mats, ctx) -> np.ndarray:
    return np.concatenate([
        _mean_rows(mats["qis"], ctx.qis),
        _mean_rows(mats["cn"], ctx.cn1),
        _mean_rows(mats["cn"], ctx.cn2),
        _mean_rows(mats["set"], ctx.set_tokens),
    ])


def _cosine_with_grads(u, v):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0, np.zeros_like(u), np.zeros_like(v)
    cos = float(np.dot(u, v) / (nu * nv))
    du = v / (nu * nv) - cos * u / (nu * nu)
    dv = u / (nu * nv) - cos * v / (nv * nv)
    return cos, du, dv


def hinge_loss(q_vec, p_vec, n_vec, margin: float) -> float:
    """max(0, margin - cos(q, p) + cos(q, n))."""
    cos_p = _cosine_with_grads(q_vec, p_vec)[0]
    cos_n = _cosine_with_grads(q_vec, n_vec)[0]
    return max(0.0, margin - cos_p + cos_n)


def _scatter_mean_grad(grad, indices, dvec) -> None:
    if not indices:
        return
    np.add.at(grad, np.asarray(indices), dvec / len(indices))


def triple_hinge_gradients(scorer, ctx, pos, neg):
    """Hinge loss of one (context, positive, negative) triple and its gradients.

    Gradients are with respect to the four embedding matrices; zero
    everywhere when the margin is satisfied.
    """
    mats = scorer.matrices()
    grads = {k: np.zeros_like(m) for k, m in mats.items()}
    q = _query_vector(mats, ctx)
    p = _mean_rows(mats["chain"], pos.indices)
    n = _mean_rows(mats["chain"], neg.indices)
    cos_p, dqp, dp = _cosine_with_grads(q, p)
    cos_n, dqn, dn = _cosine_with_grads(q, n)
    loss = scorer.margin - cos_p + cos_n
    if loss <= 0.0:
        return 0.0, grads
    dq = -dqp + dqn
    d1, d2 = mats["qis"].shape[1], mats["cn"].shape[1]
    _scatter_mean_grad(grads["qis"], ctx.qis, dq[:d1])
    _scatter_mean_grad(grads["cn"], ctx.cn1, dq[d1:d1 + d2])
    _scatter_mean_grad(grads["cn"], ctx.cn2, dq[d1 + d2:d1 + 2 * d2])
    _scatter_mean_grad(grads["set"], ctx.set_tokens, dq[d1 + 2 * d2:])
    _scatter_mean_grad(grads["chain"], pos.indices, -dp)
    _scatter_mean_grad(grads["chain"], neg.indices, dn)
    return float(loss), grads


def jaccard_chain_score(tb_vocab, kb_vocab, ctx, chain) -> float:
    """Jaccard of the context's and one chain's token sets; the OOV index decodes to nothing."""

    def decode(vocab, indices):
        return {vocab.tokens[i - 1] for i in indices if i != 0}

    ctx_set = decode(tb_vocab, ctx.qis + ctx.cn1 + ctx.cn2) | decode(kb_vocab, ctx.set_tokens)
    chain_set = decode(kb_vocab, chain.indices)
    if not ctx_set and not chain_set:
        return 0.0
    return len(ctx_set & chain_set) / len(ctx_set | chain_set)


def linear_chain_score(scorer, ctx, chain) -> float:
    """Weights times one chain's five count blocks (three TB, two KB), plus the bias."""
    sizes = (scorer.tb_size,) * 3 + (scorer.kb_size,) * 2
    fields = (ctx.qis, ctx.cn1, ctx.cn2, ctx.set_tokens, chain.indices)
    blocks = []
    for size, indices in zip(sizes, fields):
        block = np.zeros(size)
        for i in indices:
            block[i] += 1.0
        blocks.append(block)
    return float(scorer.weights @ np.concatenate(blocks) + scorer.bias)


def embedding_chain_score(scorer, ctx, chain) -> float:
    """Cosine of the context's query vector and one chain's mean embedding."""
    mats = scorer.matrices()
    return _cosine_with_grads(_query_vector(mats, ctx), _mean_rows(mats["chain"], chain.indices))[0]


def naive_fit_tree(X, y, idx, depth):
    """Exact greedy regression tree, scanning each feature's split points in a loop.

    A split must beat the best gain so far by more than 1e-12, so the first
    of equally good splits (by feature, then by position) wins. Trees are
    nested dicts: a leaf ``{"value"}``, a split ``{"feature", "threshold",
    "left", "right"}``.
    """
    idx = np.sort(idx)  # rows in row order, so tied values go by row
    y_idx = y[idx]
    if depth == 0 or len(idx) < 2 or np.allclose(y_idx, y_idx[0]):
        return {"value": float(np.mean(y_idx))}
    best_gain = 0.0
    best = None
    total = float(np.sum(y_idx))
    n = len(idx)
    base_sse_term = total * total / n
    for feat in range(X.shape[1]):
        vals = X[idx, feat]
        order = np.argsort(vals, kind="stable")
        sv, sy = vals[order], y_idx[order]
        csum = np.cumsum(sy)
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
        return {"value": float(np.mean(y_idx))}
    feat, thr, left_idx, right_idx = best
    return {
        "feature": feat,
        "threshold": thr,
        "left": naive_fit_tree(X, y, left_idx, depth - 1),
        "right": naive_fit_tree(X, y, right_idx, depth - 1),
    }


def naive_pairwise_lambdas(scores, relevance, sigma):
    """LambdaMART's per-item lambda gradients for one group.

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


def naive_train_ranker(groups, tree_count, tree_depth, learning_rate, sigma):
    """LambdaMART's trees, one group's lambdas and one row's leaf at a time."""
    groups = [g for g in groups if len(g.relevance)]
    if not groups:
        return []
    X = np.vstack([g.features for g in groups])
    bounds = np.cumsum([0] + [len(g.relevance) for g in groups])
    scores = np.zeros(len(X))
    trees = []
    for _ in range(tree_count):
        lambdas = np.concatenate([
            naive_pairwise_lambdas(scores[lo:hi], g.relevance, sigma)
            for g, lo, hi in zip(groups, bounds, bounds[1:])
        ])
        tree = naive_fit_tree(X, lambdas, np.arange(len(X)), tree_depth)
        leaves = []
        for x in X:
            node = tree
            while "value" not in node:
                node = node["left" if x[node["feature"]] <= node["threshold"] else "right"]
            leaves.append(node["value"])
        scores += learning_rate * np.array(leaves)
        trees.append(tree)
    return trees


def embedding_objective(scorer, tables, tb_vocab, kb_vocab) -> float:
    """Full training objective of ``train_embedding``: summed hinge losses plus the L2 norm penalty.

    The triples are those training takes (every positive against each of
    its table's first k-1 negatives); each triple's loss is computed on its own.
    """
    from kgtable import selector as sel

    examples = sel._prepare_examples(tables, tb_vocab, kb_vocab)
    mats = scorer.matrices()
    loss = sum(
        hinge_loss(
            _query_vector(mats, ctx),
            _mean_rows(mats["chain"], pos.indices),
            _mean_rows(mats["chain"], neg.indices),
            scorer.margin,
        )
        for ctx, pos, neg in zip(*sel._triples(examples))
    )
    norm = np.sqrt(sum(float(np.sum(m * m)) for m in mats.values()))
    return loss + sel.L2_WEIGHT * norm


def naive_entity_meta(path: str) -> dict[str, tuple[str, tuple[str, ...], frozenset, frozenset]]:
    """``mid -> (name, description tokens, notable type tokens, rdf type tokens)``.

    Every record is tokenized on its own, with no memo shared between
    records, by the one normalization rule.
    """
    import json

    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            out[rec["mid"]] = (
                rec.get("name") or "",
                _tokens(rec.get("description") or ""),
                frozenset(t for v in rec.get("notable_types") or () for t in _tokens(v)),
                frozenset(t for v in rec.get("rdf_types") or () for t in _tokens(v)),
            )
    return out


def naive_vocab_tokens(tables) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The TB and KB vocabulary tokens: those seen at least twice, sorted.

    Every token of every field and of every chain occurrence is counted on
    its own, the chain's canonical string tokenized anew each time.
    """
    tb, kb = Counter(), Counter()
    for t in tables:
        for tok in (*t.qis, *t.cn1, *t.cn2):
            tb[tok] += 1
        for tok in t.set_tokens:
            kb[tok] += 1
        for lc in t.chains:
            for tok in _tokens(lc.chain.canonical()):
                kb[tok] += 1
    return tuple(
        tuple(sorted(tok for tok, n in counts.items() if n >= 2)) for counts in (tb, kb)
    )
