import base64
import json
import random
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from kgtable import selector as sel
from kgtable.dataset import (
    K_NEGATIVES,
    AnnotatedTable,
    ConfigurationError,
    LabeledChain,
    Vocabulary,
)
from kgtable.graph import ParseError
from kgtable.paths import ChainPair, MetaPath

from conftest import TEST_HP
from oracles import (
    embedding_chain_score,
    embedding_objective,
    hinge_loss,
    jaccard_chain_score,
    linear_chain_score,
)
from oracles import triple_hinge_gradients as triple_oracle


def chain_of(p1, p2):
    return ChainPair(MetaPath.parse(p1), MetaPath.parse(p2))


class TestHingeLoss:
    def test_deep_inside_margin(self):
        q = np.array([1.0, 0.0])
        p = np.array([2.0, 0.0])
        n = np.array([-1.0, 0.0])
        assert hinge_loss(q, p, n, 0.25) == 0.0

    def test_identical_positive_and_negative_costs_the_margin(self):
        q = np.array([0.3, 0.7])
        v = np.array([1.0, 2.0])
        assert hinge_loss(q, v, v, 0.25) == pytest.approx(0.25)

    def test_direct_arithmetic(self):
        # Vectors engineered so cos(q, p) = 0.3 and cos(q, n) = 0.4.
        q = np.array([1.0, 0.0])
        p = np.array([0.3, np.sqrt(1 - 0.09)])
        n = np.array([0.4, np.sqrt(1 - 0.16)])
        assert hinge_loss(q, p, n, 0.25) == pytest.approx(0.35)

    def test_zero_vector_scores_zero(self):
        q = np.zeros(2)
        v = np.array([1.0, 0.0])
        assert hinge_loss(q, v, v, 0.25) == pytest.approx(0.25)


class TestJaccardScorer:
    def _fixture(self):
        tb = Vocabulary("TB_Vocab", ("actor", "character"))
        kb = Vocabulary("KB_Vocab", ("actor", "film", "role", "tv"))
        scorer = sel.JaccardScorer(tb, kb)
        ctx = sel.QueryContext(
            tb.encode(["actor"]), tb.encode(["character"]), tb.encode(["character"]),
            kb.encode(["tv"]),
        )
        return tb, kb, scorer, ctx

    def test_worked_example(self):
        _, kb, scorer, ctx = self._fixture()
        enc = sel.encode_chain(chain_of("tv.actor", "film.role"), kb)
        assert scorer.scores(ctx, [enc], 0).tolist() == [pytest.approx(2 / 5)]

    def test_identical_token_sets_score_one(self):
        tb = Vocabulary("TB_Vocab", ("a", "b"))
        kb = Vocabulary("KB_Vocab", ("a", "b"))
        scorer = sel.JaccardScorer(tb, kb)
        ctx = sel.QueryContext(tb.encode(["a"]), tb.encode(["b"]), tb.encode(["b"]), ())
        enc = sel.encode_chain(chain_of("a", "b"), kb)
        assert scorer.scores(ctx, [enc], 0).tolist() == [1.0]

    def test_bounded_and_symmetric_in_token_sets(self):
        _, kb, scorer, ctx = self._fixture()
        chains = (chain_of("tv.actor", "film.role"), chain_of("x.y", "z.w"))
        scores = scorer.scores(ctx, [sel.encode_chain(c, kb) for c in chains], 0)
        assert np.all((0.0 <= scores) & (scores <= 1.0))

    def test_oov_tokens_never_match(self):
        tb = Vocabulary("TB_Vocab", ())
        kb = Vocabulary("KB_Vocab", ())
        scorer = sel.JaccardScorer(tb, kb)
        ctx = sel.QueryContext(tb.encode(["mystery"]), tb.encode(["mystery"]), (), ())
        enc = sel.encode_chain(chain_of("mystery", "mystery"), kb)
        assert scorer.scores(ctx, [enc], 0).tolist() == [0.0]


class TestTruncation:
    def test_context_and_chain_keep_their_first_tokens(self):
        # 300 distinct tokens in sorted order, so token i encodes as index i + 1.
        words = tuple(f"w{i:03d}" for i in range(300))
        tb, kb = Vocabulary("TB_Vocab", words), Vocabulary("KB_Vocab", words)
        table = AnnotatedTable(
            table_id="t", qis=words[:150], cn1=words[:20], cn2=words[100:120], se=0,
            se_name="", set_tokens=words[50:200], rr=(), chains=(),
        )
        ctx = sel.context_for_table(table, tb, kb)
        assert ctx.qis == tuple(range(1, 101))
        assert ctx.cn1 == tuple(range(1, 11))
        assert ctx.cn2 == tuple(range(101, 111))
        assert ctx.set_tokens == tuple(range(51, 151))
        chain = chain_of(".".join(words[:150]), ".".join(words[150:]))
        assert sel.encode_chain(chain, kb).indices == tuple(range(1, 201))


class TestSelectTop1:
    class FixedScorer:
        def __init__(self, by_canonical):
            self.by_canonical = by_canonical

        def scores(self, ctx, chains, run_key):
            return np.array([self.by_canonical.get(c.canonical, 0.0) for c in chains])

    KB = Vocabulary("KB_Vocab", ())

    def _ctx(self):
        return sel.QueryContext((), (), (), ())

    def _encode(self, *chains):
        return [sel.encode_chain(c, self.KB) for c in chains]

    def test_single_candidate(self):
        class Unscorable:
            def scores(self, ctx, chains, run_key):
                raise AssertionError("a single chain needs no scores")

        assert sel.select_top1(Unscorable(), self._ctx(), self._encode(chain_of("p", "q"))) == 0

    def test_highest_score_wins(self):
        a, b = chain_of("a", "x"), chain_of("b", "x")
        scorer = self.FixedScorer({a.canonical(): 0.9, b.canonical(): 0.7})
        assert sel.select_top1(scorer, self._ctx(), self._encode(b, a)) == 1

    def test_ties_break_to_smallest_canonical(self):
        a, b = chain_of("a", "x"), chain_of("b", "x")
        scorer = self.FixedScorer({a.canonical(): 0.5, b.canonical(): 0.5})
        assert sel.select_top1(scorer, self._ctx(), self._encode(b, a)) == 1

    def test_empty_candidates_error(self):
        with pytest.raises(ValueError):
            sel.select_top1(self.FixedScorer({}), self._ctx(), [])

    def test_scale_invariance(self, bundle, trained):
        class Scaled:
            def __init__(self, inner, c):
                self.inner, self.c = inner, c

            def scores(self, ctx, chains, run_key):
                return self.c * self.inner.scores(ctx, chains, run_key)

        table = bundle.heldout_tables()[0]
        ctx = sel.context_for_table(table, bundle.tb_vocab, bundle.kb_vocab)
        encodings = [sel.encode_chain(lc.chain, bundle.kb_vocab) for lc in table.chains]
        base = sel.select_top1(trained.linear, ctx, encodings)
        for c in (0.25, 3.0):
            assert sel.select_top1(Scaled(trained.linear, c), ctx, encodings) == base


    def test_oracle_takes_the_first_chain_and_random_its_seeded_draw(self):
        chains = self._encode(*(chain_of(p, "x") for p in "dcba"))
        ctx = self._ctx()
        assert sel.select_top1(sel.OracleScorer(), ctx, chains, run_key=5) == 0
        for seed, run_key in ((0, 0), (3, 7), (11, 2)):
            want = random.Random(seed * 1_000_003 + run_key).randrange(len(chains))
            got = sel.select_top1(sel.RandomScorer(seed), ctx, chains, run_key=run_key)
            assert got == want


class TestBatchedScoringOracleParity:
    def test_scores_and_picks_match_the_per_chain_oracles(self, bundle, trained):
        """Every held-out table: one call per query equals the per-chain oracles.

        Jaccard and linear scores keep the oracles' arithmetic and must match
        exactly; the embedding scorer sums its chain means in another order.
        The bundle's held-out tables hold no OOV token, so each table is also
        encoded with vocabularies that drop every other token.
        """
        thinned = tuple(
            Vocabulary(v.kind, v.tokens[::2]) for v in (bundle.tb_vocab, bundle.kb_vocab)
        )
        oov = 0
        for tb, kb in ((bundle.tb_vocab, bundle.kb_vocab), thinned):
            scorers = (
                (sel.JaccardScorer(tb, kb), partial(jaccard_chain_score, tb, kb), 0.0),
                (trained.linear, partial(linear_chain_score, trained.linear), 0.0),
                (trained.embedding, partial(embedding_chain_score, trained.embedding), 1e-12),
            )
            for table in bundle.heldout_tables():
                ctx = sel.context_for_table(table, tb, kb)
                chains = [lc.chain for lc in table.chains]
                encodings = [sel.encode_chain(c, kb) for c in chains]
                oov += (*ctx.qis, *ctx.set_tokens, *encodings[0].indices).count(0)
                for scorer, oracle, tolerance in scorers:
                    name = type(scorer).__name__
                    want = [oracle(ctx, enc) for enc in encodings]
                    got = scorer.scores(ctx, encodings, 0)
                    assert np.max(np.abs(got - want)) <= tolerance, (name, table.table_id)
                    best = min(range(len(chains)), key=lambda i: (-want[i], encodings[i].canonical))
                    assert sel.select_top1(scorer, ctx, encodings) == best, name
        assert oov > 0


class TestEmbeddingScorer:
    def test_score_is_bounded(self, bundle, trained):
        table = bundle.heldout_tables()[0]
        ctx = sel.context_for_table(table, bundle.tb_vocab, bundle.kb_vocab)
        encodings = [sel.encode_chain(lc.chain, bundle.kb_vocab) for lc in table.chains]
        scores = trained.embedding.scores(ctx, encodings, 0)
        assert np.all((-1.0 <= scores) & (scores <= 1.0))

    def test_all_oov_chain_scores_zero_with_fresh_model(self, bundle):
        hp = sel.SelectorHyperParams(
            dim_qis=8, dim_cn=2, dim_set=8, dim_chain=20, epochs=0
        )
        scorer = sel.train_embedding(
            bundle.train_tables()[:3], bundle.tb_vocab, bundle.kb_vocab, hp, seed=0
        )
        table = bundle.train_tables()[0]
        ctx = sel.context_for_table(table, bundle.tb_vocab, bundle.kb_vocab)
        all_oov = sel.ChainEncoding(indices=(0, 0, 0), canonical="oov chain")
        assert scorer.scores(ctx, [all_oov], 0).tolist() == [0.0]

    def test_dimension_constraint_enforced(self):
        with pytest.raises(ConfigurationError):
            sel.SelectorHyperParams(dim_qis=10, dim_cn=10, dim_set=10, dim_chain=10)

    def test_negative_epochs_rejected(self):
        sel.SelectorHyperParams(epochs=0)
        with pytest.raises(ConfigurationError, match="epochs"):
            sel.SelectorHyperParams(epochs=-1)

    def test_zero_epochs_returns_initialization(self, bundle):
        hp = sel.SelectorHyperParams(
            dim_qis=8, dim_cn=2, dim_set=8, dim_chain=20, epochs=0
        )
        s1 = sel.train_embedding(bundle.train_tables(), bundle.tb_vocab, bundle.kb_vocab, hp, seed=5)
        s2 = sel.train_embedding(bundle.train_tables(), bundle.tb_vocab, bundle.kb_vocab, hp, seed=5)
        for k, m in s1.matrices().items():
            assert np.array_equal(m, s2.matrices()[k])
            assert np.all(m[0] == 0.0)


def _gradient_fixture():
    """A tiny scorer with an active hinge margin, away from the kink."""
    rng = np.random.default_rng(42)
    tb = Vocabulary("TB_Vocab", tuple(f"t{i}" for i in range(6)))
    kb = Vocabulary("KB_Vocab", tuple(f"k{i}" for i in range(8)))
    mats = {
        "qis": rng.normal(size=(tb.size, 5)),
        "cn": rng.normal(size=(tb.size, 2)),
        "set": rng.normal(size=(kb.size, 5)),
        "chain": rng.normal(size=(kb.size, 14)),
    }
    scorer = sel.EmbeddingScorer(
        mats["qis"], mats["cn"], mats["set"], mats["chain"],
        margin=0.6, tb_vocab_hash="", kb_vocab_hash="",
    )
    ctx = sel.QueryContext(qis=(1, 2, 3), cn1=(4,), cn2=(5, 6), set_tokens=(1, 2))
    pos = sel.ChainEncoding(indices=(3, 4, 5), canonical="pos")
    neg = sel.ChainEncoding(indices=(6, 7, 3), canonical="neg")
    return scorer, ctx, pos, neg


class TestGradients:
    def test_finite_difference_agreement(self):
        scorer, ctx, pos, neg = _gradient_fixture()
        loss, grads = sel.triple_hinge_gradients(scorer, [ctx], [pos], [neg])
        assert loss > 1e-3, "fixture must sit on the active side of the hinge"
        rng = np.random.default_rng(0)
        mats = scorer.matrices()
        h = 1e-5
        checked = 0
        while checked < 50:
            name = rng.choice(list(mats))
            m = mats[name]
            i = int(rng.integers(m.shape[0]))
            j = int(rng.integers(m.shape[1]))
            orig = m[i, j]
            m[i, j] = orig + h
            up = sel.triple_hinge_gradients(scorer, [ctx], [pos], [neg])[0]
            m[i, j] = orig - h
            down = sel.triple_hinge_gradients(scorer, [ctx], [pos], [neg])[0]
            m[i, j] = orig
            fd = (up - down) / (2 * h)
            analytic = grads[name][i, j]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
            assert rel < 1e-4, (name, i, j, analytic, fd)
            checked += 1

    def test_satisfied_margin_gives_zero_gradient(self):
        scorer, ctx, pos, neg = _gradient_fixture()
        scorer.margin = -10.0
        loss, grads = sel.triple_hinge_gradients(scorer, [ctx], [pos], [neg])
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads.values())


def _batch_fixture(rng):
    """A small scorer with zero OOV rows, and pools of contexts and chains.

    Fields draw with replacement from few tokens, so they repeat tokens and
    share them between cn1 and cn2 and between chains; one context and one
    chain hold only the OOV index, so their vectors are zero.
    """
    mats = {
        "qis": rng.normal(size=(6, 5)),
        "cn": rng.normal(size=(6, 2)),
        "set": rng.normal(size=(8, 5)),
        "chain": rng.normal(size=(8, 14)),
    }
    for m in mats.values():
        m[0] = 0.0
    scorer = sel.EmbeddingScorer(
        mats["qis"], mats["cn"], mats["set"], mats["chain"],
        margin=0.3, tb_vocab_hash="", kb_vocab_hash="",
    )

    def field(high, most):
        return tuple(int(t) for t in rng.integers(0, high, size=rng.integers(0, most + 1)))

    ctxs = [sel.QueryContext((0, 0), (0,), (), (0,))] + [
        sel.QueryContext(field(6, 4), field(3, 2), field(3, 2), field(8, 3)) for _ in range(4)
    ]
    chains = [sel.ChainEncoding((0, 0, 0), "oov")] + [
        sel.ChainEncoding(field(8, 5), f"c{i}") for i in range(7)
    ]
    return scorer, ctxs, chains


class TestBatchGradientOracleParity:
    def test_batch_equals_the_sum_of_per_triple_oracles(self):
        rng = np.random.default_rng(3)
        active = satisfied = 0
        for _ in range(40):
            scorer, ctxs, chains = _batch_fixture(rng)
            triples = []
            for _ in range(int(rng.integers(0, 12))):
                ctx = ctxs[int(rng.integers(len(ctxs)))]
                pos = chains[int(rng.integers(len(chains)))]
                negs = [chains[int(rng.integers(len(chains)))]]
                negs *= int(rng.integers(1, 3))  # a resampled negative repeats
                triples += [(ctx, pos, neg) for neg in negs]
            columns = [[t[i] for t in triples] for i in range(3)]
            loss, grads = sel.triple_hinge_gradients(scorer, *columns)
            want_loss = 0.0
            want = {k: np.zeros_like(m) for k, m in scorer.matrices().items()}
            for triple in triples:
                one_loss, one = triple_oracle(scorer, *triple)
                active += one_loss > 0
                satisfied += one_loss == 0
                want_loss += one_loss
                for k in want:
                    want[k] += one[k]
            assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
            for k, w in want.items():
                assert grads[k].shape == w.shape
                assert np.max(np.abs(grads[k] - w)) <= 1e-12 * max(1.0, np.max(np.abs(w))), k
        assert active and satisfied

    def test_empty_batch_is_zero(self):
        scorer, _, _ = _batch_fixture(np.random.default_rng(0))
        loss, grads = sel.triple_hinge_gradients(scorer, [], [], [])
        assert loss == 0.0
        for k, m in scorer.matrices().items():
            assert grads[k].shape == m.shape and not grads[k].any()


class TestTraining:
    def test_same_seed_reproduces_parameters(self, bundle):
        hp = sel.SelectorHyperParams(
            dim_qis=8, dim_cn=2, dim_set=8, dim_chain=20,
            learning_rate=0.05, epochs=3,
        )
        args = (bundle.train_tables()[:10], bundle.tb_vocab, bundle.kb_vocab, hp)
        s1 = sel.train_embedding(*args, seed=11)
        s2 = sel.train_embedding(*args, seed=11)
        for k, m in s1.matrices().items():
            assert np.array_equal(m, s2.matrices()[k])

    def test_objective_non_increasing_on_separable_corpus(self, bundle):
        hp = sel.SelectorHyperParams(
            dim_qis=8, dim_cn=2, dim_set=8, dim_chain=20, learning_rate=0.01,
        )
        args = (bundle.train_tables()[:20], bundle.tb_vocab, bundle.kb_vocab)
        # One generator drives training, so e epochs equal the start of a longer run.
        history = [
            embedding_objective(
                sel.train_embedding(*args, replace(hp, epochs=e), seed=2), *args
            )
            for e in range(13)
        ]
        assert history[-1] < history[0]
        tolerance = 1e-9 + 0.005 * history[0]
        for before, after in zip(history, history[1:]):
            assert after <= before + tolerance

    def test_empty_training_set_rejected(self, bundle):
        with pytest.raises(ConfigurationError):
            sel.train_embedding([], bundle.tb_vocab, bundle.kb_vocab, TEST_HP)
        with pytest.raises(ConfigurationError):
            sel.train_linear([], bundle.tb_vocab, bundle.kb_vocab)

    def test_trained_scorers_separate_heldout_tables(self, bundle, trained):
        from kgtable import harness

        heldout = bundle.heldout_tables()
        for scorer in (trained.linear, trained.embedding):
            accuracy = harness.accuracy_at_1(
                heldout, scorer, bundle.tb_vocab, bundle.kb_vocab
            )
            assert accuracy >= 0.95


class TestNegativePolicy:
    """Training pairs each positive with the negatives build-dataset gave its table."""

    @staticmethod
    def _trained_triples(monkeypatch, n_negatives):
        """For a table of two positives: the (positive, negative) canonical pairs
        one epoch trains on, its negatives in canonical order and its positives."""
        positives = [chain_of("p.a", "q.a"), chain_of("p.b", "q.b")]
        negatives = [chain_of(f"n{i:02d}.x", "n.y") for i in range(n_negatives)]
        chains = [LabeledChain(c, True, 1.0, 1.0, 1.0) for c in positives]
        # Stored out of canonical order, as padding appends after the table's own.
        chains += [LabeledChain(c, False, 0.0, 0.0, 0.0) for c in reversed(negatives)]
        table = AnnotatedTable("t", ("a",), ("b",), ("c",), 0, "SE", ("d",), (), tuple(chains))
        seen = []
        gradients = sel.triple_hinge_gradients
        monkeypatch.setattr(
            sel, "triple_hinge_gradients",
            lambda scorer, *triple: seen.append(triple) or gradients(scorer, *triple),
        )
        vocab = Vocabulary("KB_Vocab", ())
        sel.train_embedding([table], vocab, vocab, replace(TEST_HP, epochs=1))
        ((_, pos, neg),) = seen
        pairs = [(p.canonical, n.canonical) for p, n in zip(pos, neg)]
        return pairs, sorted(c.canonical() for c in negatives), [c.canonical() for c in positives]

    def test_fewer_negatives_than_k_are_each_used_once(self, monkeypatch):
        pairs, negatives, positives = self._trained_triples(monkeypatch, 3)
        assert pairs == [(p, n) for p in positives for n in negatives]

    def test_more_negatives_than_k_use_the_first_in_canonical_order(self, monkeypatch):
        pairs, negatives, positives = self._trained_triples(monkeypatch, K_NEGATIVES + 3)
        kept = negatives[:K_NEGATIVES - 1]
        assert pairs == [(p, n) for p in positives for n in kept]


def edit_matrix(rec, change=None, cut_bytes=0):
    """Replace a stored matrix by ``change(matrix)``, or drop its last ``cut_bytes``."""
    data = base64.b64decode(rec["data"])
    if change is not None:
        m = change(np.frombuffer(data, "<f8").reshape(rec["shape"]).copy())
        rec["shape"], data = list(m.shape), m.astype("<f8").tobytes()
    rec["data"] = base64.b64encode(data[:len(data) - cut_bytes]).decode("ascii")


def nan_first(m):
    m[0] = float("nan")
    return m


class TestSerialization:
    def test_roundtrip_embedding(self, bundle, trained, tmp_path):
        path = tmp_path / "emb.json"
        sel.save_scorer(str(path), trained.embedding)
        loaded = sel.load_scorer(str(path), bundle.tb_vocab, bundle.kb_vocab)
        table = bundle.heldout_tables()[0]
        ctx = sel.context_for_table(table, bundle.tb_vocab, bundle.kb_vocab)
        encodings = [sel.encode_chain(lc.chain, bundle.kb_vocab) for lc in table.chains]
        assert loaded.scores(ctx, encodings, 0) == pytest.approx(
            trained.embedding.scores(ctx, encodings, 0)
        )

    def test_roundtrip_linear(self, bundle, trained, tmp_path):
        path = tmp_path / "lin.json"
        sel.save_scorer(str(path), trained.linear)
        loaded = sel.load_scorer(str(path), bundle.tb_vocab, bundle.kb_vocab)
        assert np.array_equal(loaded.weights, trained.linear.weights)
        assert loaded.bias == trained.linear.bias

    def test_vocab_hash_mismatch_rejected(self, bundle, trained, tmp_path):
        path = tmp_path / "emb.json"
        sel.save_scorer(str(path), trained.embedding)
        other = Vocabulary("TB_Vocab", ("different",))
        with pytest.raises(ConfigurationError, match="hash"):
            sel.load_scorer(str(path), other, bundle.kb_vocab)

    # (scorer kind, edit of the saved payload) for each kind of malformed file.
    BAD_FILES = {
        "no-tb-hash": ("linear", lambda p: p.pop("tb_vocab_hash")),
        "hash-not-a-string": ("embedding", lambda p: p.update(kb_vocab_hash=7)),
        "no-type": ("linear", lambda p: p.pop("type")),
        "unknown-type": ("linear", lambda p: p.update(type="tree")),
        "no-params": ("embedding", lambda p: p.pop("params")),
        "params-a-list": ("embedding", lambda p: p.update(params=[])),
        "no-margin": ("embedding", lambda p: p.pop("margin")),
        "margin-a-string": ("embedding", lambda p: p.update(margin="0.25")),
        "no-weights": ("linear", lambda p: p.pop("weights")),
        "no-bias": ("linear", lambda p: p.pop("bias")),
        "bias-a-bool": ("linear", lambda p: p.update(bias=True)),
        "ragged-matrix": ("embedding", lambda p: edit_matrix(p["params"]["qis"], cut_bytes=3)),
        "non-numeric-entry": (
            "embedding", lambda p: p["params"]["set"]["shape"].__setitem__(0, "x")
        ),
        "missing-row": ("embedding", lambda p: edit_matrix(p["params"]["cn"], lambda m: m[:-1])),
        "narrow-chain-matrix": (
            "embedding", lambda p: edit_matrix(p["params"]["chain"], lambda m: m[:, :-1])
        ),
        "short-weights": ("linear", lambda p: edit_matrix(p["weights"], lambda m: m[:-1])),
        "wrong-tb-size": ("linear", lambda p: p.update(tb_size=p["tb_size"] + 1)),
        "version-1": ("linear", lambda p: p.update(version=1)),
        "nan-weight": ("linear", lambda p: edit_matrix(p["weights"], nan_first)),
        "shape-too-long": ("linear", lambda p: p["weights"]["shape"].append(1)),
        "data-not-base64": ("embedding", lambda p: p["params"]["qis"].update(data="AAA!")),
        "data-a-number": ("embedding", lambda p: p["params"]["qis"].update(data=7)),
        "matrix-a-list": ("embedding", lambda p: p["params"].update(set=[[0.0]])),
        "nan-bias": ("linear", lambda p: p.update(bias=float("nan"))),
    }

    @pytest.mark.parametrize("case", BAD_FILES)
    def test_malformed_file_is_a_parse_error_naming_it(self, bundle, trained, tmp_path, case):
        kind, edit = self.BAD_FILES[case]
        path = tmp_path / "selector.json"
        sel.save_scorer(str(path), getattr(trained, kind))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=re.escape(f"{path}:1: ")):
            sel.load_scorer(str(path), bundle.tb_vocab, bundle.kb_vocab)

    def test_file_stores_shapes_and_float64_bytes_and_loads_bit_exact(
        self, bundle, trained, tmp_path
    ):
        path = tmp_path / "selector.json"
        for scorer in (trained.embedding, trained.linear):
            sel.save_scorer(str(path), scorer)
            payload = json.loads(path.read_text())
            assert payload["version"] == 2 and "dims" not in payload
            loaded = sel.load_scorer(str(path), bundle.tb_vocab, bundle.kb_vocab)
            pairs = (
                [(loaded.weights, scorer.weights)] if scorer is trained.linear
                else zip(loaded.matrices().values(), scorer.matrices().values())
            )
            for got, want in pairs:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
