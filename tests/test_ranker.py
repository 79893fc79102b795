import gc
import json
import math
import random
import re
import weakref

import numpy as np
import pytest

from kgtable import dataset as ds
from kgtable import harness
from kgtable import ranker as rk
from kgtable.dataset import AnnotatedTable
from kgtable.graph import (
    EntityMeta,
    EntityMetaStore,
    ParseError,
    PredicateMetaStore,
    load_triples,
)
from kgtable.paths import ChainPair, MetaPath
from kgtable.query import QueryBudget
from oracles import naive_featurize, naive_fit_tree, naive_pairwise_lambdas, naive_train_ranker

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

    def test_golden_vector_from_the_compiled_kb(self, tmp_path):
        """The golden inputs saved into kb.json and loaded back featurize bit-identically."""
        ctx, entity_meta, pred_meta, embeddings = golden_fixture()
        graph = tmp_path / "graph.tsv"
        graph.write_text("A\tp\tB\nC\tp\tB\n")  # entity ids 0, 1, 2, as in the fixture
        sources = {"graph_path": str(graph)}
        kb = ds.CompiledKB(
            load_triples(str(graph)), entity_meta, pred_meta, embeddings,
            [(ds.EMPTY_TOKEN,)], [0, 0, 0],
        )
        ds.save_kb(str(tmp_path), kb, sources)
        _, c_entity_meta, c_pred_meta, c_embeddings, *_ = ds.load_kb(str(tmp_path), sources)
        want = rk.featurize(ctx, [(2, 1)], entity_meta, pred_meta, embeddings)
        got = rk.featurize(ctx, [(2, 1)], c_entity_meta, c_pred_meta, c_embeddings)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got[0], GOLDEN_27, atol=1e-9)

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

    def test_value_ranges(self, bundle):
        from kgtable.query import execute_chain

        table = bundle.heldout_tables()[0]
        chain = table.chains[0].chain  # the oracle chain
        result = execute_chain(bundle.g, table.se, chain)
        pairs = sorted(result.pairs)
        ctx = rk.RankContext(table.qis, table.cn1, table.cn2, chain, table.rr[0])
        # All 27 columns, as training computes them.
        feats = rk.featurize(
            ctx, pairs, bundle.entity_meta, bundle.pred_meta, bundle.embeddings
        )
        assert feats.shape == (len(pairs), 27)
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


def random_columns(rng: random.Random):
    """Every column, or a random subset as a served model reads them."""
    if rng.random() < 0.3:
        return rk.ALL_FEATURES
    return sorted(rng.sample(range(rk.NUM_FEATURES), rng.randint(1, rk.NUM_FEATURES)))


class TestTypeSetMemo:
    """``featurize`` compares each type set once per ``PretrainedEmbeddings`` object."""

    @staticmethod
    def embeddings():
        vec_rng = np.random.default_rng(3)
        return rk.PretrainedEmbeddings({f"w{i}": vec_rng.normal(size=3) for i in range(7)}, 3)

    def test_a_shared_memo_equals_a_fresh_one_per_query_byte_for_byte(self):
        rng = random.Random(23)
        shared, vectors = self.embeddings(), self.embeddings()._vectors
        for _ in range(150):
            ctx, cands, entity_meta, pred_meta = random_query(rng)
            columns = random_columns(rng)
            got = rk.featurize(ctx, cands, entity_meta, pred_meta, shared, columns)
            fresh = rk.PretrainedEmbeddings(vectors, 3)
            want = rk.featurize(ctx, cands, entity_meta, pred_meta, fresh, columns)
            assert got.tobytes() == want.tobytes()

    def test_keys_are_the_distinct_type_set_comparisons(self):
        rng = random.Random(29)
        embeddings, want, type_sets, descriptions = self.embeddings(), set(), set(), set()
        for _ in range(60):
            ctx, cands, entity_meta, pred_meta = random_query(rng)
            # Descriptions of their own tokens, so none equals a type set.
            metas = {e: entity_meta.get(e) for e in range(12)}
            entity_meta = EntityMetaStore({
                e: m._replace(description=("d", *(f"d{t}" for t in m.description)))
                for e, m in metas.items()
            })
            rk.featurize(ctx, cands, entity_meta, pred_meta, embeddings)
            chain_sets = rk.chain_type_sets(ctx.chain, pred_meta)
            for col, diff_sides in (
                (0, (chain_sets[0], chain_sets[1], frozenset(ctx.cn1_tokens))),
                (1, (chain_sets[2], frozenset(ctx.cn2_tokens))),
            ):
                m = entity_meta.get(ctx.er[col])
                for c in {entity_meta.get(cand[col]) for cand in cands}:
                    for s in (0, 1):
                        want |= {(s, m.notable_types, c.notable_types),
                                 (s, m.rdf_types, c.rdf_types)}
                        want |= {(s, t, n) for t in diff_sides
                                 for n in (m.notable_types, c.notable_types)}
                    type_sets |= {c.notable_types, c.rdf_types}
                    descriptions.add(frozenset(c.description))
                type_sets |= {m.notable_types}
        assert embeddings.type_sims.keys() == want
        assert all(key[2] in type_sets and key[2] not in descriptions for key in want)

    def test_the_memos_hold_no_reference_cycle(self):
        """A command's embeddings and predicate metadata are freed with their last reference."""
        ctx, cands, entity_meta, pred_meta = random_query(random.Random(31))
        embeddings = self.embeddings()
        rk.featurize(ctx, cands, entity_meta, pred_meta, embeddings)
        assert embeddings.type_sims
        refs = [weakref.ref(embeddings), weakref.ref(pred_meta)]
        gc.disable()
        try:
            del embeddings, pred_meta
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


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
        # Every column, as training featurizes; the empty model splits on none.
        ranker = harness.FeatureTupleRanker(
            rk.RankerModel([], 0.1, 1.0), entity_meta, pred_meta, embeddings, rk.ALL_FEATURES
        )
        ranker.features_for(table, chain, (0, 1), pairs)
        assert 0 < len(calls) <= 12 + 3 * k
        # The example row once per column, each candidate entity once per column.
        assert len(gets) == 2 + len({x for x, _ in pairs}) + len({y for _, y in pairs})
        first = len(calls)
        ranker.features_for(table, chain, (0, 1), pairs)
        assert len(calls) == first


class TestMaskedFeaturize:
    """Serving featurizes only the columns the model splits on."""

    # The split features of the trained corpus ranker of bench seed 1.
    CORPUS_SPLITS = (2, 3, 4, 7, 8, 11, 12)

    def test_scores_equal_full_width_and_unread_columns_are_nan(self, bundle, trained):
        from kgtable.query import execute_chain

        model = trained.ranker
        read = list(model.split_features)
        unread = [i for i in range(rk.NUM_FEATURES) if i not in read]
        assert read and unread
        featurizer = harness.FeatureTupleRanker(
            model, bundle.entity_meta, bundle.pred_meta, bundle.embeddings
        )
        checked = 0
        for table in bundle.heldout_tables():
            chain = table.chains[0].chain
            er = table.rr[0]
            pairs = harness.ranking_candidates(execute_chain(bundle.g, table.se, chain), er)
            if not pairs:
                continue
            masked = featurizer.features_for(table, chain, er, pairs)
            ctx = rk.RankContext(table.qis, table.cn1, table.cn2, chain, er)
            full = rk.featurize(
                ctx, pairs, bundle.entity_meta, bundle.pred_meta, bundle.embeddings
            )
            assert np.isnan(masked[:, unread]).all()
            assert np.array_equal(masked[:, read], full[:, read])
            assert np.array_equal(model.predict(masked), model.predict(full))
            checked += 1
        assert checked

    def test_split_features_and_nan_in_a_read_column(self):
        def split(feature, left, right):
            return {"feature": feature, "threshold": 0.5, "left": left, "right": right}

        up, down = {"value": 1.0}, {"value": -1.0}
        model = rk.RankerModel([split(9, up, split(2, down, up)), split(9, down, up)], 0.1, 1.0)
        assert model.split_features == (2, 9)
        X = np.full((2, rk.NUM_FEATURES), np.nan)
        X[:, [2, 9]] = [[0.0, 0.0], [1.0, 1.0]]
        assert model.predict(X).tolist() == [0.0, 0.2]
        X[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            model.predict(X)

    def test_masked_featurize_counts_cosines_and_type_lookups(self, monkeypatch):
        ctx, entity_meta, pred_meta, embeddings = golden_fixture()
        cosines, lookups = [], []
        cosine = rk.PretrainedEmbeddings.cosine
        monkeypatch.setattr(
            rk.PretrainedEmbeddings, "cosine",
            lambda self, a, b: cosines.append(1) or cosine(self, a, b),
        )
        get = pred_meta.get
        monkeypatch.setattr(pred_meta, "get", lambda name: lookups.append(name) or get(name))

        def count(columns):  # on fresh embeddings, so each count starts with no type-set memo
            del cosines[:], lookups[:]
            fresh = rk.PretrainedEmbeddings(embeddings._vectors, embeddings.dim)
            feats = rk.featurize(ctx, [(2, 1)], entity_meta, pred_meta, fresh, columns)
            return feats[0], len(cosines), len(lookups)

        # Column 1: 4 cosines against the example and the intent, and two per
        # type set, the example's and the candidate's; its chain target and its
        # column name are both {actor}, so 2 sets. Column 2's example is its
        # candidate, and its chain target and column name equal their notable
        # types: only the 2 descriptions and the notable and rdf types remain.
        feats, n_cos, n_types = count(rk.ALL_FEATURES)
        assert (n_cos, n_types) == (4 + 2 * 2 + 4, 3)
        # Three cosine features a column, no type set.
        feats, n_cos, n_types = count(self.CORPUS_SPLITS)
        assert (n_cos, n_types) == (6, 0)
        wanted = list(self.CORPUS_SPLITS)
        np.testing.assert_allclose(feats[wanted], np.asarray(GOLDEN_27)[wanted], atol=1e-9)
        assert np.isnan(np.delete(feats, wanted)).all()
        # One chain-type diff: the example's cosine and the candidate's.
        feats, n_cos, n_types = count([20])
        assert (n_cos, n_types) == (2, 3)
        assert feats[20] == pytest.approx(GOLDEN_27[20])


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


def batched_lambdas(scores, relevance, sigma):
    """One group's lambdas through the batched step."""
    return rk._lambdas(np.asarray(scores, dtype=float), rk._shape_batches([relevance]), sigma)


class TestPairwiseLambdas:
    def test_antisymmetric_for_a_single_pair(self):
        lambdas = batched_lambdas([0.2, 0.7], np.array([1.0, 0.0]), 1.0)
        assert lambdas[0] == pytest.approx(-lambdas[1])
        assert lambdas[0] > 0

    def test_tied_scores_give_half_sigma_magnitude(self):
        sigma = 1.0
        lambdas = batched_lambdas(np.zeros(2), np.array([1.0, 0.0]), sigma)
        delta = abs(1 / math.log2(2) - 1 / math.log2(3))  # idcg is 1
        assert lambdas[0] == pytest.approx(sigma / 2 * delta)

    def test_single_class_groups_contribute_nothing(self):
        assert np.all(batched_lambdas(np.zeros(3), np.ones(3), 1.0) == 0)
        assert np.all(batched_lambdas(np.zeros(3), np.zeros(3), 1.0) == 0)


def lambda_cases(seed, count=400):
    """(scores, relevances, sigma): groups of mixed shapes, each shape 1-5 times.

    Sizes run 1-300, so a row or column sum can be long enough (8, 128) for
    numpy's pairwise summation to change blocks; relevance is random or has
    a lone relevant or lone irrelevant row. Scores are tied, rounded (some
    equal), small, or spread far enough that ``exp`` overflows.
    """
    rng = np.random.default_rng(seed)
    for case in range(count):
        relevances = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.choice([1, 2, 3, 8, 9, 17, 129, 300]) if case % 2 else rng.integers(1, 301))
            rel = (rng.random(n) < rng.random()).astype(float)
            lone = int(rng.integers(n))
            if case % 3 == 1:
                rel = np.eye(n)[lone]
            elif case % 3 == 2:
                rel = 1.0 - np.eye(n)[lone]
            relevances += [rel] * int(rng.integers(1, 6))
        order = rng.permutation(len(relevances))
        relevances = [relevances[i] for i in order]
        size = sum(map(len, relevances))
        scale = (0.0, 1e-3, 1.0, 1e3)[case % 4]
        scores = np.round(rng.normal(size=size) * scale, int(rng.integers(0, 3)))
        yield scores, relevances, (0.5, 1.0, 2.0)[case // 12 % 3]


class TestBatchedLambdaOracleParity:
    def test_every_group_matches_the_one_group_oracle_bitwise(self):
        with np.errstate(over="ignore"):
            for scores, relevances, sigma in lambda_cases(0):
                got = rk._lambdas(scores, rk._shape_batches(relevances), sigma)
                bounds = np.cumsum([0] + [len(r) for r in relevances])
                for rel, lo, hi in zip(relevances, bounds, bounds[1:]):
                    want = naive_pairwise_lambdas(scores[lo:hi], rel, sigma)
                    assert got[lo:hi].tobytes() == want.tobytes()

    def test_one_batch_per_shape_and_none_for_one_class(self):
        rels = [np.array([1.0, 0.0]), np.ones(2), np.array([1.0, 0.0]), np.zeros(3),
                np.array([0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
        shapes = [(rows.tolist(), rel.tolist(), irr.tolist())
                  for rows, rel, irr, _ in rk._shape_batches(rels)]
        assert shapes == [([[0, 1], [4, 5]], [0], [1]), ([[9, 10]], [1], [0]),
                          ([[11, 12, 13]], [0], [1, 2])]


def mixed_groups(seed, n_groups=40):
    """Groups of 1-9 rows with random relevance and features, ties included."""
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(n_groups):
        n = int(rng.integers(1, 10))
        feats = rng.integers(0, 3, size=(n, 27)).astype(float)
        feats[:, ::2] = rng.normal(size=(n, 14))
        groups.append(rk.TrainingGroup(feats, (rng.random(n) < 0.3).astype(float)))
    return groups


class TestTrainerOracleParity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_mixed_shape_groups(self, seed, monkeypatch):
        sigma = (0.5, 1.0, 2.0)[seed - 1]
        monkeypatch.setattr(rk, "PAIRWISE_SIGMA", sigma)
        groups = mixed_groups(seed)
        assert rk.train_ranker(groups, rk.RankerConfig(tree_count=6, tree_depth=3)).trees == (
            naive_train_ranker(groups, 6, 3, rk.TREE_LEARNING_RATE, sigma))

    def test_bundle_training_groups(self, bundle, trained):
        groups = harness.ranker_training_groups(
            bundle.train_tables(), bundle.g, bundle.entity_meta, bundle.pred_meta,
            bundle.embeddings, QueryBudget(),
        )
        # The session model is trained on these groups with 30 trees of depth 3.
        assert trained.ranker.trees == naive_train_ranker(groups, 30, 3, 0.1, 1.0)


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
        splits = np.zeros(rk.NUM_FEATURES)

        def count(node):
            if "value" not in node:
                splits[node["feature"]] += 1
                count(node["left"])
                count(node["right"])

        for tree in model.trees:
            count(tree)
        assert splits[0] == splits.max() > 0


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
            fast = rk._fit_tree(rk._feature_sort(X), y, np.ones(len(y), dtype=bool), 3)
            assert fast == naive_fit_tree(X, y, rows, 3)
            # Midpoints of integer features land on thresholds, testing "<=".
            probe = np.vstack([X, (X + np.roll(X, 1, axis=0)) / 2])
            per_row = []
            for x in probe:
                node = fast
                while "value" not in node:
                    side = "left" if x[node["feature"]] <= node["threshold"] else "right"
                    node = node[side]
                per_row.append(node["value"])
            assert rk._leaf_values(rk._tree_arrays([fast]), probe)[:, 0].tolist() == per_row


class TestOneSortPerTraining:
    """Each node filters its parent's feature sort, so the training sorts once."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_node_holds_a_fresh_stable_sort_of_its_rows(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = 300
        # Mostly tied integer columns, a binary one and one without ties.
        X = np.column_stack([rng.integers(0, k, size=n) for k in (2, 3, 3, 5, 8)]
                            + [rng.normal(size=n)]).astype(float)
        y = rng.normal(size=n)
        nodes = []
        fit_tree = rk._fit_tree

        def record(presorted, y, mask, depth):
            nodes.append((presorted, mask))
            return fit_tree(presorted, y, mask, depth)

        monkeypatch.setattr(rk, "_fit_tree", record)
        rk._fit_tree(rk._feature_sort(X), y, np.ones(n, dtype=bool), 4)
        assert len(nodes) > 7
        for (order, sv), mask in nodes:
            rows = np.flatnonzero(mask)  # the node's rows in row order
            fresh = np.argsort(X[rows].T, axis=1, kind="stable")
            assert np.array_equal(order, rows[fresh])
            assert np.array_equal(sv, np.take_along_axis(X[rows].T, fresh, axis=1))

    def test_train_ranker_sorts_the_features_once(self, monkeypatch):
        calls = []
        feature_sort = rk._feature_sort
        monkeypatch.setattr(rk, "_feature_sort", lambda X: calls.append(X) or feature_sort(X))
        model = rk.train_ranker(mixed_groups(1), rk.RankerConfig(tree_count=5, tree_depth=3))
        assert len(calls) == 1
        assert any("left" in node["left"] for node in model.trees)  # children were split


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
        assert loaded.trees == model.trees
        X = separable_groups(4)[0].features
        assert np.array_equal(model.predict(X), loaded.predict(X))

    LEAF = {"value": 1.0}

    @pytest.mark.parametrize(
        "node",
        [
            {"feature": 99, "threshold": 0.5, "left": LEAF, "right": LEAF},
            {"feature": -1, "threshold": 0.5, "left": LEAF, "right": LEAF},
            {"feature": 3.0, "threshold": 0.5, "left": LEAF, "right": LEAF},
            {"feature": True, "threshold": 0.5, "left": LEAF, "right": LEAF},
            {"feature": 3, "left": LEAF, "right": LEAF},
            {"feature": 3, "threshold": 0.5, "right": LEAF},
            {"feature": 3, "threshold": 0.5, "left": LEAF},
            {"value": "1.0"},
            {"value": None},
            [],
        ],
        ids=[
            "feature-99", "feature-minus-1", "feature-float", "feature-bool",
            "no-threshold", "no-left", "no-right", "value-string", "value-null",
            "not-an-object",
        ],
    )
    def test_malformed_tree_is_a_parse_error_naming_the_file(self, tmp_path, node):
        model = rk.train_ranker(separable_groups(3), rk.RankerConfig(tree_count=2, tree_depth=2))
        path = tmp_path / "model.json"
        rk.save_ranker(str(path), model)
        payload = json.loads(path.read_text())
        payload["trees"].append({"feature": 0, "threshold": 0.5, "left": self.LEAF, "right": node})
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=re.escape(f"{path}:1: ")):
            rk.load_ranker(str(path))

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda p: p.update(learning_rate=float("nan")), "learning_rate"),
            (lambda p: p.update(sigma=float("inf")), "sigma"),
            (lambda p: p["trees"][-1].update(threshold=float("nan")), "threshold"),
            (lambda p: p["trees"][-1]["left"].update(value=float("inf")), "value"),
            (lambda p: p["trees"][-1]["right"].update(value=-(10**400)), "value"),
        ],
        ids=["learning-rate-nan", "sigma-inf", "threshold-nan", "leaf-inf", "leaf-huge-int"],
    )
    def test_non_finite_number_is_a_parse_error_naming_the_file(self, tmp_path, edit, key):
        # Loaded, a NaN or infinite number makes every score NaN or infinite.
        model = rk.train_ranker(separable_groups(3), rk.RankerConfig(tree_count=2, tree_depth=2))
        path = tmp_path / "model.json"
        rk.save_ranker(str(path), model)
        payload = json.loads(path.read_text())
        payload["trees"].append({"feature": 0, "threshold": 0.5, "left": {"value": 1.0},
                                 "right": {"value": 1.0}})
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=re.escape(f"{path}:1: {key!r} must be a finite")):
            rk.load_ranker(str(path))


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
        path.write_text("alpha 1.0 0.0\n\nbeta 1.0\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: vector for 'beta' has 1")):
            rk.PretrainedEmbeddings.load(str(path))

    def test_non_numeric_value_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("alpha 1.0 0.0\nbeta 0.5 abc\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: 'beta': could not convert")):
            rk.PretrainedEmbeddings.load(str(path))

    @pytest.mark.parametrize("text, line", [
        ("a 1.0 2.0\nlonely\nb 3.0 4.0\n", 2), ("lonely\na 1.0 2.0\n", 1), ("\n\nlonely\n", 3),
    ])
    def test_a_token_without_values_names_the_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}:{line}: 'lonely': no values")):
            rk.PretrainedEmbeddings.load(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("\n  \nalpha 1.0 0.0\n\t\nbeta 0.0 1.0\n\n")
        emb = rk.PretrainedEmbeddings.load(str(path))
        assert (emb.dim, sorted(emb._vectors)) == (2, ["alpha", "beta"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_file_and_line(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"alpha 1.0 0.0\nmusic 0.1 {value}\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: 'music': non-finite value")):
            rk.PretrainedEmbeddings.load(str(path))
