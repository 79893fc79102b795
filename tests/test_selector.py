import numpy as np
import pytest

from kgtable import selector as sel
from kgtable.dataset import ConfigurationError, Vocabulary
from kgtable.paths import ChainPair, MetaPath

from conftest import TEST_HP
from oracles import hinge_loss
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
        assert sel.cosine(q, v) == 0.0
        assert hinge_loss(q, v, v, 0.25) == pytest.approx(0.25)


class TestJaccardScorer:
    def _fixture(self):
        tb = Vocabulary("TB_Vocab", ("actor", "character"))
        kb = Vocabulary("KB_Vocab", ("actor", "film", "role", "tv"))
        scorer = sel.JaccardScorer(tb, kb)
        ctx = sel.encode_context(
            ["actor"], ["character"], ["character"], ["tv"], tb, kb
        )
        return tb, kb, scorer, ctx

    def test_worked_example(self):
        _, kb, scorer, ctx = self._fixture()
        enc = sel.encode_chain(chain_of("tv.actor", "film.role"), kb)
        assert scorer.score(ctx, enc) == pytest.approx(2 / 5)

    def test_identical_token_sets_score_one(self):
        tb = Vocabulary("TB_Vocab", ("a", "b"))
        kb = Vocabulary("KB_Vocab", ("a", "b"))
        scorer = sel.JaccardScorer(tb, kb)
        ctx = sel.encode_context(["a"], ["b"], ["b"], [], tb, kb)
        enc = sel.encode_chain(chain_of("a", "b"), kb)
        assert scorer.score(ctx, enc) == 1.0

    def test_bounded_and_symmetric_in_token_sets(self):
        _, kb, scorer, ctx = self._fixture()
        for chain in (chain_of("tv.actor", "film.role"), chain_of("x.y", "z.w")):
            enc = sel.encode_chain(chain, kb)
            assert 0.0 <= scorer.score(ctx, enc) <= 1.0

    def test_oov_tokens_never_match(self):
        tb = Vocabulary("TB_Vocab", ())
        kb = Vocabulary("KB_Vocab", ())
        scorer = sel.JaccardScorer(tb, kb)
        ctx = sel.encode_context(["mystery"], ["mystery"], [], [], tb, kb)
        enc = sel.encode_chain(chain_of("mystery", "mystery"), kb)
        assert scorer.score(ctx, enc) == 0.0


class TestSelectTop1:
    class FixedScorer:
        def __init__(self, scores):
            self.scores = scores

        def score(self, ctx, chain):
            return self.scores.get(chain.canonical, 0.0)

    def _ctx(self):
        return sel.QueryContext((), (), (), ())

    def test_single_candidate(self):
        c = chain_of("p", "q")
        assert sel.select_top1(self.FixedScorer({}), self._ctx(), [c], None) == 0

    def test_highest_score_wins(self):
        a, b = chain_of("a", "x"), chain_of("b", "x")
        scorer = self.FixedScorer({a.canonical(): 0.9, b.canonical(): 0.7})
        assert sel.select_top1(scorer, self._ctx(), [b, a], None) == 1

    def test_ties_break_to_smallest_canonical(self):
        a, b = chain_of("a", "x"), chain_of("b", "x")
        scorer = self.FixedScorer({a.canonical(): 0.5, b.canonical(): 0.5})
        assert sel.select_top1(scorer, self._ctx(), [b, a], None) == 1

    def test_empty_candidates_error(self):
        with pytest.raises(ValueError):
            sel.select_top1(self.FixedScorer({}), self._ctx(), [], None)

    def test_scale_invariance(self, bundle, trained):
        class Scaled:
            def __init__(self, inner, c):
                self.inner, self.c = inner, c

            def score(self, ctx, chain):
                return self.c * self.inner.score(ctx, chain)

        table = bundle.heldout_tables()[0]
        ctx = sel.context_for_table(table, bundle.tb_vocab, bundle.kb_vocab, TEST_HP)
        chains = [lc.chain for lc in table.chains]
        base = sel.select_top1(trained.linear, ctx, chains, bundle.kb_vocab, TEST_HP)
        for c in (0.25, 3.0):
            scaled = sel.select_top1(
                Scaled(trained.linear, c), ctx, chains, bundle.kb_vocab, TEST_HP
            )
            assert scaled == base


class TestEmbeddingScorer:
    def test_score_is_bounded(self, bundle, trained):
        table = bundle.heldout_tables()[0]
        ctx = sel.context_for_table(table, bundle.tb_vocab, bundle.kb_vocab, TEST_HP)
        for lc in table.chains:
            enc = sel.encode_chain(lc.chain, bundle.kb_vocab, TEST_HP)
            assert -1.0 <= trained.embedding.score(ctx, enc) <= 1.0

    def test_all_oov_chain_scores_zero_with_fresh_model(self, bundle):
        hp = sel.SelectorHyperParams(
            dim_qis=8, dim_cn=2, dim_set=8, dim_chain=20, epochs=0
        )
        scorer = sel.train_embedding(
            bundle.train_tables()[:3], bundle.tb_vocab, bundle.kb_vocab, hp, seed=0
        )
        table = bundle.train_tables()[0]
        ctx = sel.context_for_table(table, bundle.tb_vocab, bundle.kb_vocab, hp)
        all_oov = sel.ChainEncoding(indices=(0, 0, 0), canonical="oov chain")
        assert scorer.score(ctx, all_oov) == 0.0

    def test_dimension_constraint_enforced(self):
        with pytest.raises(ConfigurationError):
            sel.SelectorHyperParams(dim_qis=10, dim_cn=10, dim_set=10, dim_chain=10)

    def test_batch_size_below_one_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ConfigurationError, match="batch_size"):
                sel.SelectorHyperParams(batch_size=bad)

    def test_negative_epochs_rejected(self):
        sel.SelectorHyperParams(epochs=0)
        with pytest.raises(ConfigurationError, match="epochs"):
            sel.SelectorHyperParams(epochs=-1)

    def test_k_negatives_below_one_rejected(self):
        sel.SelectorHyperParams(k_negatives=1)
        with pytest.raises(ConfigurationError, match="k_negatives"):
            sel.SelectorHyperParams(k_negatives=0)

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
            dim_qis=8, dim_cn=2, dim_set=8, dim_chain=20,
            learning_rate=0.01, epochs=12,
        )
        scorer = sel.train_embedding(
            bundle.train_tables()[:20], bundle.tb_vocab, bundle.kb_vocab, hp,
            seed=2, track_objective=True,
        )
        history = scorer.objective_history
        assert history[-1] < history[0]
        tolerance = 1e-9 + 0.005 * history[0]
        for before, after in zip(history, history[1:]):
            assert after <= before + tolerance

    def test_empty_training_set_rejected(self, bundle):
        with pytest.raises(ConfigurationError):
            sel.train_embedding([], bundle.tb_vocab, bundle.kb_vocab, TEST_HP)
        with pytest.raises(ConfigurationError):
            sel.train_linear([], bundle.tb_vocab, bundle.kb_vocab, TEST_HP)

    def test_trained_scorers_separate_heldout_tables(self, bundle, trained):
        from kgtable import harness

        heldout = bundle.heldout_tables()
        for scorer in (trained.linear, trained.embedding):
            adapter = harness.ScorerChainSelector(
                scorer, bundle.tb_vocab, bundle.kb_vocab, TEST_HP
            )
            assert harness.accuracy_at_1(heldout, adapter) >= 0.95


class TestSerialization:
    def test_roundtrip_embedding(self, bundle, trained, tmp_path):
        path = tmp_path / "emb.json"
        sel.save_scorer(str(path), trained.embedding)
        loaded = sel.load_scorer(str(path), bundle.tb_vocab, bundle.kb_vocab)
        table = bundle.heldout_tables()[0]
        ctx = sel.context_for_table(table, bundle.tb_vocab, bundle.kb_vocab, TEST_HP)
        for lc in table.chains:
            enc = sel.encode_chain(lc.chain, bundle.kb_vocab, TEST_HP)
            assert loaded.score(ctx, enc) == pytest.approx(
                trained.embedding.score(ctx, enc)
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
