import math
import random

import numpy as np
import pytest

from kgtable import ranker as rk
from kgtable.graph import EntityMeta, EntityMetaStore, PredicateMetaStore
from kgtable.paths import ChainPair, MetaPath

SQ2 = math.sqrt(0.5)  # cosine of a 45 degree angle, appears all over the golden vector


def chain_of(p1, p2):
    return ChainPair(MetaPath.parse(p1), MetaPath.parse(p2))


def golden_fixture():
    """Three entities: the example row (A, B) and one candidate tuple (C, B)."""
    entity_meta = EntityMetaStore(
        {
            0: EntityMeta(  # A = ER1
                name="A",
                description=("alpha", "beta"),
                notable_types=frozenset({"actor", "tv"}),
                rdf_types=frozenset({"person"}),
            ),
            1: EntityMeta(  # B = ER2 and T2
                name="B",
                description=("delta",),
                notable_types=frozenset({"character"}),
                rdf_types=frozenset({"fiction"}),
            ),
            2: EntityMeta(  # C = T1
                name="C",
                description=("beta", "gamma"),
                notable_types=frozenset({"actor"}),
                rdf_types=frozenset({"person"}),
            ),
        }
    )
    pred_meta = PredicateMetaStore(
        {
            "tv.series.cast": frozenset({"actor"}),
            "tv.role.character": frozenset({"character"}),
        }
    )
    # Two-dimensional vectors along the axes make every cosine a closed form.
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    embeddings = rk.PretrainedEmbeddings(
        {
            "alpha": x, "beta": y, "gamma": x, "delta": y, "season": x,
            "actor": x, "tv": y, "character": x, "person": y, "fiction": x,
            "role": y,
        },
        dim=2,
    )
    ctx = rk.RankContext(
        qis_tokens=("beta", "season"),
        cn1_tokens=("actor",),
        cn2_tokens=("character",),
        chain=chain_of("tv.series.cast", "tv.role.character"),
        er=(0, 1),
    )
    return ctx, entity_meta, pred_meta, embeddings


GOLDEN_27 = [
    1.0,            # c1 frequency of the single candidate
    1 / 3,          # desc jaccard col1: {alpha,beta} vs {beta,gamma}
    1.0,            # desc jaccard col2: identical entity
    1.0,            # desc cosine col1: both means at 45 degrees
    1.0,            # desc cosine col2
    1 / 3,          # qis vs col1 description
    0.0,            # qis vs col2 description
    1.0,            # qis cosine col1
    SQ2,            # qis cosine col2
    0.5,            # notable jaccard col1: {actor,tv} vs {actor}
    1.0,            # notable jaccard col2
    SQ2,            # notable cosine col1
    1.0,            # notable cosine col2
    1.0, 1.0, 1.0, 1.0,  # rdf type matches
    -0.5,           # chain tgt1 diff jaccard: 1/2 - 1
    1 / 3,          # chain src2 diff jaccard: 1/3 - 0
    0.0,            # chain tgt2 diff jaccard
    SQ2 - 1.0,      # chain tgt1 diff cosine
    SQ2,            # chain src2 diff cosine
    0.0,            # chain tgt2 diff cosine
    -0.5,           # column name vs type diff jaccard col1
    0.0,            # column name vs type diff jaccard col2
    SQ2 - 1.0,      # column name vs type diff cosine col1
    0.0,            # column name vs type diff cosine col2
]


class TestFeaturizer:
    def test_golden_vector(self):
        ctx, entity_meta, pred_meta, embeddings = golden_fixture()
        feats = rk.featurize(ctx, (2, 1), [(2, 1)], entity_meta, pred_meta, embeddings)
        assert feats.shape == (27,)
        np.testing.assert_allclose(feats, GOLDEN_27, atol=1e-9)

    def test_feature_name_order_is_frozen(self):
        assert len(rk.FEATURE_NAMES) == 27
        assert rk.FEATURE_NAMES[0] == "c1_frequency"
        assert rk.FEATURE_NAMES[1] == "desc_jac_col1"
        assert rk.FEATURE_NAMES[17] == "chain_tgt1_diff_jac"
        assert rk.FEATURE_NAMES[22] == "chain_tgt2_diff_cos"
        assert rk.FEATURE_NAMES[26] == "colname_type_diff_cos_col2"

    def test_candidate_equal_to_example_row_self_matches(self):
        ctx, entity_meta, pred_meta, embeddings = golden_fixture()
        feats = rk.featurize(ctx, (0, 1), [(0, 1)], entity_meta, pred_meta, embeddings)
        assert feats[1] == feats[2] == 1.0
        np.testing.assert_allclose(feats[17:27], 0.0, atol=1e-12)

    def test_c1_frequency_counts_candidate_set(self):
        ctx, entity_meta, pred_meta, embeddings = golden_fixture()
        cand_set = [(2, 1), (2, 5), (2, 6), (7, 8)]
        feats = rk.featurize(ctx, (2, 1), cand_set, entity_meta, pred_meta, embeddings)
        assert feats[0] == 3.0

    def test_missing_metadata_scores_zero(self):
        ctx, _, pred_meta, embeddings = golden_fixture()
        feats = rk.featurize(
            ctx, (8, 9), [(8, 9)], EntityMetaStore({}), pred_meta, embeddings
        )
        assert feats[0] == 1.0
        np.testing.assert_allclose(feats[1:17], 0.0, atol=1e-12)

    def test_value_ranges(self, bundle, trained):
        from kgtable import harness
        from kgtable.query import execute_chain

        table = bundle.heldout_tables()[0]
        chain = harness.oracle_select(table)
        result = execute_chain(bundle.g, table.se, chain)
        pairs = sorted(result.pairs)
        featurizer = harness.FeatureTupleRanker(
            trained.ranker, bundle.entity_meta, bundle.pred_meta, bundle.embeddings
        )
        feats = featurizer.features_for(table, chain, table.rr[0], pairs)
        assert np.all(feats[:, 0] >= 1)
        jac_cols = [1, 2, 5, 6, 9, 10, 13, 14]
        assert np.all(feats[:, jac_cols] >= 0) and np.all(feats[:, jac_cols] <= 1)
        assert np.all(feats[:, 17:] >= -1) and np.all(feats[:, 17:] <= 1)


class TestChainTypeSets:
    def test_inverse_tokens_swap_roles(self):
        pred_meta = PredicateMetaStore({"a.b.c": frozenset({"target"})})
        plain = chain_of("a.b.c", "a.b.c")
        tgt1, src2, tgt2 = rk.chain_type_sets(plain, pred_meta)
        assert tgt1 == {"target"}
        assert src2 == {"a", "b"}
        assert tgt2 == {"target"}
        flipped = chain_of("^a.b.c", "^a.b.c")
        tgt1, src2, tgt2 = rk.chain_type_sets(flipped, pred_meta)
        assert tgt1 == {"a", "b"}
        assert src2 == {"target"}
        assert tgt2 == {"a", "b"}


class TestNdcg:
    def test_ideal_order_is_exactly_one(self):
        assert rk.ndcg([1, 1, 0]) == 1.0

    def test_worked_example(self):
        expected = (1 + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
        value = rk.ndcg([1, 0, 1])
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.9197, abs=1e-4)

    def test_no_relevant_items_is_zero(self):
        assert rk.ndcg([0, 0, 0]) == 0.0
        assert rk.ndcg([]) == 0.0

    def test_bounded_by_one_with_equality_iff_sorted(self):
        rng = random.Random(0)
        for _ in range(200):
            rels = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
            value = rk.ndcg(rels)
            assert value <= 1.0 + 1e-12
            if any(rels):
                assert (value == pytest.approx(1.0)) == (
                    sorted(rels, reverse=True) == rels
                )


class TestPrecisionAt1:
    def test_hit(self):
        assert rk.precision_at_1([(1, 2), (3, 4)], {(1, 2)}) == 1

    def test_miss(self):
        assert rk.precision_at_1([(3, 4), (1, 2)], {(1, 2)}) == 0

    def test_empty(self):
        assert rk.precision_at_1([], {(1, 2)}) == 0


class TestPairwiseLambdas:
    def test_antisymmetric_for_a_single_pair(self):
        lambdas = rk.pairwise_lambdas(np.array([0.2, 0.7]), np.array([1.0, 0.0]), 1.0)
        assert lambdas[0] == pytest.approx(-lambdas[1])
        assert lambdas[0] > 0

    def test_tied_scores_give_half_sigma_magnitude(self):
        sigma = 1.0
        lambdas = rk.pairwise_lambdas(np.zeros(2), np.array([1.0, 0.0]), sigma)
        delta = abs(1 / math.log2(2) - 1 / math.log2(3))  # idcg is 1
        assert lambdas[0] == pytest.approx(sigma / 2 * delta)

    def test_single_class_groups_contribute_nothing(self):
        assert np.all(rk.pairwise_lambdas(np.zeros(3), np.ones(3), 1.0) == 0)
        assert np.all(rk.pairwise_lambdas(np.zeros(3), np.zeros(3), 1.0) == 0)


def separable_groups(seed, n_groups=12, n_items=8):
    """Relevance is encoded in feature 0; the rest is noise."""
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(n_groups):
        rel = (rng.random(n_items) < 0.4).astype(float)
        feats = rng.normal(size=(n_items, 27))
        feats[:, 0] = rel
        groups.append(rk.TrainingGroup(features=feats, relevance=rel))
    return groups


class TestTrainRanker:
    def test_learns_a_separable_signal(self):
        model = rk.train_ranker(separable_groups(1), rk.RankerConfig(tree_count=20, tree_depth=2))
        for group in separable_groups(2):
            if not (0 < group.relevance.sum() < len(group.relevance)):
                continue
            order = rk.rank(model, group.features, [(i, i) for i in range(len(group.relevance))])
            ranked_rels = [int(group.relevance[i]) for i in order]
            assert rk.ndcg(ranked_rels) == pytest.approx(1.0)
            assert ranked_rels[0] == 1

    def test_zero_trees_mean_constant_scores(self):
        model = rk.RankerModel([], 0.1, 1.0)
        cands = [(3, 1), (1, 2), (1, 1)]
        order = rk.rank(model, np.zeros((3, 27)), cands)
        assert [cands[i] for i in order] == [(1, 1), (1, 2), (3, 1)]

    def test_deterministic(self):
        m1 = rk.train_ranker(separable_groups(5), rk.RankerConfig(tree_count=5, tree_depth=2))
        m2 = rk.train_ranker(separable_groups(5), rk.RankerConfig(tree_count=5, tree_depth=2))
        X = separable_groups(6)[0].features
        assert np.array_equal(m1.predict(X), m2.predict(X))

    def test_feature_importance_concentrates_on_the_signal(self):
        model = rk.train_ranker(separable_groups(1), rk.RankerConfig(tree_count=10, tree_depth=2))
        importance = model.feature_importance()
        assert importance[0] == importance.max() > 0


class TestRank:
    class FixedModel:
        def __init__(self, scores):
            self._scores = np.asarray(scores, dtype=float)

        def predict(self, X):
            return self._scores

    def test_descending_scores(self):
        order = rk.rank(self.FixedModel([0.1, 0.9, 0.5]), np.zeros((3, 27)), [(0, 0), (1, 1), (2, 2)])
        assert order == [1, 2, 0]

    def test_all_ties_fall_back_to_candidate_ids(self):
        cands = [(2, 9), (1, 3), (1, 2)]
        order = rk.rank(self.FixedModel([0.5, 0.5, 0.5]), np.zeros((3, 27)), cands)
        assert [cands[i] for i in order] == [(1, 2), (1, 3), (2, 9)]

    def test_empty_input(self):
        assert rk.rank(self.FixedModel([]), np.zeros((0, 27)), []) == []

    def test_invariant_under_monotone_score_transforms(self):
        scores = [0.1, 0.9, 0.5, 0.3]
        cands = [(i, i) for i in range(4)]
        base = rk.rank(self.FixedModel(scores), np.zeros((4, 27)), cands)
        scaled = rk.rank(self.FixedModel([3 * s + 7 for s in scores]), np.zeros((4, 27)), cands)
        assert base == scaled


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        model = rk.train_ranker(separable_groups(3), rk.RankerConfig(tree_count=4, tree_depth=2))
        path = tmp_path / "model.json"
        rk.save_ranker(str(path), model)
        loaded = rk.load_ranker(str(path))
        X = separable_groups(4)[0].features
        assert np.array_equal(model.predict(X), loaded.predict(X))


class TestEmbeddingsFile:
    def test_load_and_conventions(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("alpha 1.0 0.0\nbeta 0.0 1.0\n")
        emb = rk.PretrainedEmbeddings.load(str(path))
        assert emb.dim == 2
        assert emb.cosine({"alpha"}, {"alpha"}) == pytest.approx(1.0)
        assert emb.cosine({"alpha"}, {"beta"}) == pytest.approx(0.0)
        # Unknown tokens contribute nothing; fully unknown sets score zero.
        assert emb.cosine({"nope"}, {"alpha"}) == 0.0
        assert emb.mean_vector(()).tolist() == [0.0, 0.0]

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("alpha 1.0 0.0\nbeta 1.0\n")
        with pytest.raises(ValueError):
            rk.PretrainedEmbeddings.load(str(path))
