import math
import random

import numpy as np
import pytest

from kgtable import harness
from kgtable import ranker as rk
from kgtable.dataset import AnnotatedTable
from kgtable.graph import EntityMeta, EntityMetaStore, PredicateMetaStore
from kgtable.paths import ChainPair, MetaPath
from oracles import naive_featurize, naive_fit_tree

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
        feats = rk.featurize(ctx, [(2, 1)], entity_meta, pred_meta, embeddings)
        assert feats.shape == (1, 27)
        np.testing.assert_allclose(feats[0], GOLDEN_27, atol=1e-9)

    def test_feature_name_order_is_frozen(self):
        assert len(rk.FEATURE_NAMES) == 27
        assert rk.FEATURE_NAMES[0] == "c1_frequency"
        assert rk.FEATURE_NAMES[1] == "desc_jac_col1"
        assert rk.FEATURE_NAMES[17] == "chain_tgt1_diff_jac"
        assert rk.FEATURE_NAMES[22] == "chain_tgt2_diff_cos"
        assert rk.FEATURE_NAMES[26] == "colname_type_diff_cos_col2"

    def test_candidate_equal_to_example_row_self_matches(self):
        ctx, entity_meta, pred_meta, embeddings = golden_fixture()
        feats = rk.featurize(ctx, [(0, 1)], entity_meta, pred_meta, embeddings)[0]
        assert feats[1] == feats[2] == 1.0
        np.testing.assert_allclose(feats[17:27], 0.0, atol=1e-12)

    def test_c1_frequency_counts_candidate_set(self):
        ctx, entity_meta, pred_meta, embeddings = golden_fixture()
        cand_set = [(2, 1), (2, 5), (2, 6), (7, 8)]
        feats = rk.featurize(ctx, cand_set, entity_meta, pred_meta, embeddings)
        assert feats[0, 0] == 3.0

    def test_missing_metadata_scores_zero(self):
        ctx, _, pred_meta, embeddings = golden_fixture()
        feats = rk.featurize(ctx, [(8, 9)], EntityMetaStore({}), pred_meta, embeddings)[0]
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


def random_query(rng: random.Random):
    """A random query over a small vocabulary where some tokens have no vector,
    some entities no metadata and some predicates no expected types."""
    tokens = [f"w{i}" for i in range(10)]

    def pick(k):
        return [rng.choice(tokens) for _ in range(rng.randint(0, k))]

    entity_meta = EntityMetaStore(
        {
            e: EntityMeta(
                name=f"e{e}",
                description=tuple(pick(4)),
                notable_types=frozenset(pick(3)),
                rdf_types=frozenset(pick(3)),
            )
            for e in range(9)  # entities 9-11 are absent
        }
    )
    names = [f"{rng.choice(tokens)}.{rng.choice(tokens)}.p{i}" for i in range(4)]
    pred_meta = PredicateMetaStore({n: frozenset(pick(3)) for n in names[:3]})

    def segment():
        return "/".join(
            ("^" if rng.random() < 0.5 else "") + rng.choice(names)
            for _ in range(rng.randint(1, 2))
        )

    ctx = rk.RankContext(
        qis_tokens=tuple(pick(4)),
        cn1_tokens=tuple(pick(2)),
        cn2_tokens=tuple(pick(2)),
        chain=chain_of(segment(), segment()),
        er=(rng.randrange(12), rng.randrange(12)),
    )
    cands = {(rng.randrange(6), rng.randrange(12)) for _ in range(rng.randint(1, 14))}
    if rng.random() < 0.5:
        cands.add(ctx.er)
    return ctx, sorted(cands), entity_meta, pred_meta


class TestFeaturizeOracleParity:
    @pytest.mark.parametrize("dim", [3, 0])
    def test_matches_the_per_candidate_oracle_byte_for_byte(self, dim):
        rng = random.Random(11)
        vec_rng = np.random.default_rng(11)
        if dim:
            embeddings = rk.PretrainedEmbeddings(
                {f"w{i}": vec_rng.normal(size=dim) for i in range(7)}, dim
            )
        else:
            embeddings = rk.PretrainedEmbeddings({}, 1)
        seen = {"duplicate_c1": 0, "er_is_candidate": 0, "absent_entity": 0, "inverse": 0}
        for _ in range(150):
            ctx, cands, entity_meta, pred_meta = random_query(rng)
            got = rk.featurize(ctx, cands, entity_meta, pred_meta, embeddings)
            want = np.vstack(
                [naive_featurize(ctx, c, cands, entity_meta, pred_meta, embeddings) for c in cands]
            )
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            xs = [x for x, _ in cands]
            seen["duplicate_c1"] += len(set(xs)) < len(xs)
            seen["er_is_candidate"] += ctx.er in cands
            seen["absent_entity"] += any(e >= 9 for c in cands for e in c)
            seen["inverse"] += any(t.inverse for t in ctx.chain.p1.tokens + ctx.chain.p2.tokens)
        assert all(seen.values()), seen


class TestFeaturizeWorkCount:
    def test_mean_vectors_once_per_token_set_metadata_once_per_entity(self, monkeypatch):
        rng = random.Random(5)
        _, _, _, pred_meta = random_query(rng)
        # Distinct metadata per entity, so every token set is new.
        entity_meta = EntityMetaStore(
            {
                e: EntityMeta(
                    name=f"e{e}",
                    description=(f"d{e}", "shared"),
                    notable_types=frozenset({f"n{e}"}),
                    rdf_types=frozenset({f"r{e}", "shared"}),
                )
                for e in range(20)
            }
        )
        embeddings = rk.PretrainedEmbeddings({"shared": np.ones(2)}, 2)
        calls, gets = [], []
        mean_vector = rk.PretrainedEmbeddings.mean_vector
        monkeypatch.setattr(
            rk.PretrainedEmbeddings,
            "mean_vector",
            lambda self, tokens: calls.append(1) or mean_vector(self, tokens),
        )
        get = entity_meta.get
        monkeypatch.setattr(entity_meta, "get", lambda e: gets.append(e) or get(e))
        table = AnnotatedTable(
            table_id="q", qis=("query", "intent"), cn1=("c1",), cn2=("c2",), se=19,
            se_name="s", set_tokens=(), rr=((0, 1),), chains=(),
        )
        chain = chain_of("a.b.p0/^c.d.p1", "e.f.p2")
        pairs = [(x, y) for x in range(2, 8) for y in range(8, 14)] + [(0, 1)]
        k = len({e for pair in pairs for e in pair})
        ranker = harness.FeatureTupleRanker(
            rk.RankerModel([], 0.1, 1.0), entity_meta, pred_meta, embeddings
        )
        ranker.features_for(table, chain, (0, 1), pairs)
        assert 0 < len(calls) <= 12 + 3 * k
        # The example row once per column, each candidate entity once per column.
        assert len(gets) == 2 + len({x for x, _ in pairs}) + len({y for _, y in pairs})
        first = len(calls)
        ranker.features_for(table, chain, (0, 1), pairs)
        assert len(calls) == first


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
            cands = [(i, i) for i in range(len(group.relevance))]
            order = rk.rank(model.predict(group.features), cands)
            ranked_rels = [int(group.relevance[i]) for i in order]
            assert rk.ndcg(ranked_rels) == pytest.approx(1.0)
            assert ranked_rels[0] == 1

    def test_zero_trees_mean_constant_scores(self):
        model = rk.RankerModel([], 0.1, 1.0)
        cands = [(3, 1), (1, 2), (1, 1)]
        order = rk.rank(model.predict(np.zeros((3, 27))), cands)
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


def split_cases(seed, count=120):
    """(X, y) sets with ties, near-ties within 1e-12, a constant feature and n = 2.

    Columns: constant, a random feature, an exact copy of it (equal gains
    across features) and a copy with two neighbours swapped (gains a few
    1e-13 apart, given the 1e-13 offsets in y), plus a binary feature.
    """
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = 2 if case % 10 == 0 else int(rng.integers(3, 40))
        base = rng.integers(0, 4, size=n).astype(float) if case % 2 else rng.normal(size=n)
        swapped = base.copy()
        if n > 2:
            i = int(rng.integers(n - 1))
            swapped[[i, i + 1]] = swapped[[i + 1, i]]
        X = np.column_stack([np.ones(n), base, base, swapped, rng.integers(0, 2, size=n)])
        y = rng.choice([-1.0, 0.0, 1.0], size=n) + 1e-13 * rng.integers(-2, 3, size=n)
        yield X, y


class TestSplitScanOracleParity:
    def test_trees_match_the_loop_oracle_exactly(self):
        for X, y in split_cases(0):
            rows = np.arange(len(y))
            fast = rk._fit_tree(X, y, rows, 3)
            assert rk._node_to_json(fast) == rk._node_to_json(naive_fit_tree(X, y, rows, 3))
            # Midpoints of integer features land on thresholds, testing "<=".
            probe = np.vstack([X, (X + np.roll(X, 1, axis=0)) / 2])
            per_row = []
            for x in probe:
                node = fast
                while not node.is_leaf:
                    node = node.left if x[node.feature] <= node.threshold else node.right
                per_row.append(node.value)
            assert rk._leaf_values(rk._tree_arrays([fast]), probe)[:, 0].tolist() == per_row


class TestRank:
    def test_descending_scores(self):
        order = rk.rank([0.1, 0.9, 0.5], [(0, 0), (1, 1), (2, 2)])
        assert order == [1, 2, 0]

    def test_all_ties_fall_back_to_candidate_ids(self):
        cands = [(2, 9), (1, 3), (1, 2)]
        order = rk.rank([0.5, 0.5, 0.5], cands)
        assert [cands[i] for i in order] == [(1, 2), (1, 3), (2, 9)]

    def test_empty_input(self):
        assert rk.rank([], []) == []

    def test_invariant_under_monotone_score_transforms(self):
        scores = [0.1, 0.9, 0.5, 0.3]
        cands = [(i, i) for i in range(4)]
        base = rk.rank(scores, cands)
        scaled = rk.rank([3 * s + 7 for s in scores], cands)
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
