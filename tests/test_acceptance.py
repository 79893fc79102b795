"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Each test pins the tolerance stated in its docstring; time
budgets are asserted with wall-clock measurements.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from kgtable import harness
from kgtable import ranker as rk
from kgtable import selector as sel
from kgtable import synth
from kgtable.cli import main as cli_main
from kgtable.graph import KnowledgeGraph
from kgtable.paths import ChainPair, enumerate_simple_paths
from kgtable.query import QueryBudget, execute_chain, render_sparql

from oracles import brute_simple_paths, naive_chain_eval
from test_ranker import GOLDEN_27, golden_fixture, separable_groups

NO_CAP = 10**9


def test_criterion_01_oracle_accuracy_is_exactly_100_percent(bundle):
    """Oracle Accuracy@1 = 1.0 on any generated dataset; exact; < 1 s."""
    start = time.monotonic()
    acc = harness.accuracy_at_1(
        list(bundle.tables.values()), sel.OracleScorer(), bundle.tb_vocab, bundle.kb_vocab
    )
    assert acc == 1.0
    assert time.monotonic() - start < 1.0


def test_criterion_02_path_enumeration_matches_brute_force():
    """200 seeded graphs, <= 12 nodes / 40 edges, uncapped: exact set equality; < 30 s."""
    start = time.monotonic()
    for seed in range(200):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(2, 12))]
        triples = [
            (rng.choice(nodes), rng.choice(["p0", "p1", "p2", "p3", "p4"]), rng.choice(nodes))
            for _ in range(rng.randint(1, 40))
        ]
        g = KnowledgeGraph(triples)
        mids = [g.mid(e) for e in range(len(g))]
        for src in mids:
            for dst in mids:
                if src == dst:
                    continue
                for max_len in (1, 2, 3):
                    got = {
                        tuple((t.name, t.inverse) for t in p.tokens)
                        for p in enumerate_simple_paths(
                            g, g.entity_id(src), {g.entity_id(dst)}, max_len, NO_CAP, ()
                        )
                    }
                    want = brute_simple_paths(triples, src, dst, max_len)
                    assert got == want, (seed, src, dst, max_len)
    assert time.monotonic() - start < 30.0


def test_criterion_03_chain_execution_matches_naive_join():
    """100 seeded graphs, <= 30 triples: every buildable chain of length <= 6; < 30 s."""
    start = time.monotonic()
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        nodes = [f"n{i}" for i in range(rng.randint(3, 12))]
        triples = list(
            {
                (rng.choice(nodes), rng.choice(["p", "q", "r"]), rng.choice(nodes))
                for _ in range(rng.randint(3, 30))
            }
        )
        g = KnowledgeGraph(triples)
        se = g.entity_id(triples[0][0])
        chains: dict[str, ChainPair] = {}
        for a in range(len(g)):
            if a == se:
                continue
            p1s = enumerate_simple_paths(g, se, {a}, 3, NO_CAP, ())
            if not p1s:
                continue
            for b in range(len(g)):
                if b == a:
                    continue
                for p2 in enumerate_simple_paths(g, a, {b}, 3, NO_CAP, ()):
                    for p1 in p1s:
                        chain = ChainPair(p1, p2)
                        chains.setdefault(chain.canonical(), chain)
        for chain in chains.values():
            got = {
                (g.mid(x), g.mid(y)) for x, y in execute_chain(g, se, chain).pairs
            }
            want = naive_chain_eval(
                triples,
                g.mid(se),
                tuple((t.name, t.inverse) for t in chain.p1.tokens),
                tuple((t.name, t.inverse) for t in chain.p2.tokens),
            )
            assert got == want, (seed, chain.canonical())
    assert time.monotonic() - start < 30.0


def test_criterion_04_selector_ordering_on_separable_corpus(bundle, trained):
    """Trained scorers >= 0.95, JacSim >= 0.8, Random within 3 sigma; < 5 min."""
    start = time.monotonic()
    heldout = bundle.heldout_tables()

    def accuracy(scorer):
        return harness.accuracy_at_1(heldout, scorer, bundle.tb_vocab, bundle.kb_vocab)

    assert accuracy(trained.linear) >= 0.95
    assert accuracy(trained.embedding) >= 0.95
    assert accuracy(sel.JaccardScorer(bundle.tb_vocab, bundle.kb_vocab)) >= 0.8

    eligible = [t for t in heldout if t.negatives()]
    expectation = sum(1 / len(t.chains) for t in eligible) / len(eligible)
    variance = sum(
        (1 / len(t.chains)) * (1 - 1 / len(t.chains)) for t in eligible
    ) / len(eligible) ** 2
    accs = [accuracy(sel.RandomScorer(seed)) for seed in range(1000)]
    three_sigma = 3.0 * math.sqrt(variance / 1000)
    assert abs(float(np.mean(accs)) - expectation) <= three_sigma
    assert time.monotonic() - start < 300.0


def test_criterion_05_hinge_gradients_match_finite_differences():
    """50 random parameter points agree with central differences within 1e-4 relative."""
    rng = np.random.default_rng(42)
    tb_size, kb_size = 7, 9
    mats = {
        "qis": rng.normal(size=(tb_size, 5)),
        "cn": rng.normal(size=(tb_size, 2)),
        "set": rng.normal(size=(kb_size, 5)),
        "chain": rng.normal(size=(kb_size, 14)),
    }
    scorer = sel.EmbeddingScorer(
        mats["qis"], mats["cn"], mats["set"], mats["chain"],
        margin=0.6, tb_vocab_hash="", kb_vocab_hash="",
    )
    ctx = sel.QueryContext(qis=(1, 2, 3), cn1=(4,), cn2=(5, 6), set_tokens=(1, 2))
    pos = sel.ChainEncoding(indices=(3, 4, 5), canonical="pos")
    neg = sel.ChainEncoding(indices=(6, 7, 3), canonical="neg")
    loss, grads = sel.triple_hinge_gradients(scorer, [ctx], [pos], [neg])
    assert loss > 1e-3
    h = 1e-5
    for _ in range(50):
        name = rng.choice(list(mats))
        m = scorer.matrices()[name]
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
        assert abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6) < 1e-4


def test_criterion_06_featurizer_golden_values():
    """27 features in frozen order match hand-computed values to 1e-9."""
    ctx, entity_meta, pred_meta, embeddings = golden_fixture()
    feats = rk.featurize(ctx, [(2, 1)], entity_meta, pred_meta, embeddings)
    assert len(rk.FEATURE_NAMES) == 27
    assert feats.shape == (1, 27)
    feats = feats[0]
    np.testing.assert_allclose(feats, GOLDEN_27, atol=1e-9)
    assert feats[1] == pytest.approx(1 / 3, abs=1e-9)


def test_criterion_07_ndcg_fixtures():
    """[1,0,1] -> 0.9197 within 1e-4; ideal order exactly 1.0; all-zero 0.0."""
    assert rk.ndcg([1, 0, 1]) == pytest.approx(0.9197, abs=1e-4)
    assert rk.ndcg([1, 1, 0]) == 1.0
    assert rk.ndcg([0, 0, 0]) == 0.0


def test_criterion_08_ranker_learns_a_separable_fixture():
    """Trained model reaches NDCG = P@1 = 1.0; shuffles average strictly lower."""
    model = rk.train_ranker(
        separable_groups(1), rk.RankerConfig(tree_count=20, tree_depth=2)
    )
    trained_ndcgs, shuffle_means = [], []
    for gi, group in enumerate(separable_groups(2)):
        if not (0 < group.relevance.sum() < len(group.relevance)):
            continue
        cands = [(i, i) for i in range(len(group.relevance))]
        order = rk.rank(model.predict(group.features), cands)
        rels = [int(group.relevance[i]) for i in order]
        trained_ndcgs.append(rk.ndcg(rels))
        assert rels[0] == 1  # P@1
        shuffles = []
        for seed in range(100):
            rng = random.Random(seed * 977 + gi)
            shuffled = list(range(len(cands)))
            rng.shuffle(shuffled)
            shuffles.append(rk.ndcg([int(group.relevance[i]) for i in shuffled]))
        shuffle_means.append(float(np.mean(shuffles)))
    assert trained_ndcgs and all(v == pytest.approx(1.0) for v in trained_ndcgs)
    assert float(np.mean(shuffle_means)) < 1.0


def test_criterion_09_end_to_end_tuple_recall_ordering(bundle, trained):
    """Oracle >= trained >= Random mean recall; Random < trained at 95 percent confidence."""
    start = time.monotonic()
    heldout = bundle.heldout_tables()
    tuple_ranker = harness.RandomTupleRanker(0)
    budget = QueryBudget()

    def mean_recall(selector):
        _, summary = harness.run_e2e(
            heldout, bundle.g, selector, tuple_ranker, bundle.tb_vocab, bundle.kb_vocab, budget
        )
        return summary.metrics["tuple_recall"][2]

    oracle = mean_recall(sel.OracleScorer())
    learned = mean_recall(trained.embedding)
    random_means = [mean_recall(sel.RandomScorer(seed)) for seed in range(20)]
    assert oracle >= learned >= float(np.mean(random_means))

    # One-sided t-test: the 20 random means sit significantly below the
    # trained selector's mean recall.
    r_mean = float(np.mean(random_means))
    r_std = float(np.std(random_means, ddof=1))
    t_stat = (learned - r_mean) / (r_std / math.sqrt(len(random_means)))
    t_crit = float(scipy_stats.t.ppf(0.95, df=len(random_means) - 1))
    assert t_stat > t_crit, (learned, r_mean, r_std)
    assert time.monotonic() - start < 600.0


def test_criterion_10_core_column_p1_dominates_full_per_query(bundle, trained):
    """P1-mode C1 recall >= Full-mode C1 recall on every executed query; exact."""
    heldout = bundle.heldout_tables()
    runs, _ = harness.run_e2e(
        heldout, bundle.g, trained.embedding, harness.RandomTupleRanker(0),
        bundle.tb_vocab, bundle.kb_vocab, QueryBudget(),
    )
    p1, _ = harness.core_column_eval(runs, bundle.tables, bundle.g, "p1")
    full, _ = harness.core_column_eval(runs, bundle.tables, bundle.g, "full")
    assert len(p1) == len(full) > 0
    for a, b in zip(p1, full):
        assert a >= b


GOLDEN_SPARQL = [
    ("plain.rq", "m.02dzsr", "people.person.nationality", "tv.tv_program.country_of_origin"),
    (
        "multihop.rq",
        "m.02dzsr",
        "tv.tv_program.regular_cast/tv.regular_tv_appearance.actor",
        "tv.tv_actor.starring_roles/tv.regular_tv_appearance.character",
    ),
    (
        "inverse.rq",
        "m.0fjp3",
        "^music.album.artist/music.artist.track",
        "music.recording.song/^music.composition.recordings",
    ),
]


def test_criterion_11_sparql_golden_files_byte_match():
    """Rendered SPARQL equals the three golden files byte for byte."""
    golden_dir = Path(__file__).parent / "golden"
    for name, se, p1, p2 in GOLDEN_SPARQL:
        chain = ChainPair.parse(f"{p1} / {p2}")
        rendered = render_sparql(se, chain).encode("utf-8")
        assert rendered == (golden_dir / name).read_bytes(), name


def test_criterion_12_full_pipeline_is_byte_deterministic(tmp_path):
    """build-dataset + train + evaluate twice with one seed: byte-identical artifacts."""
    data = synth.make_corpus(str(tmp_path / "data"), n_tables=25, seed=3)
    artifacts = {}
    for run in ("r1", "r2"):
        root = tmp_path / run
        cfg = {
            "graph_path": data.graph,
            "entity_meta_path": data.entity_meta,
            "predicate_meta_path": data.predicate_meta,
            "corpus_path": data.corpus,
            "url2mid_path": data.url2mid,
            "mid2types_path": data.mid2types,
            "fget_path": data.fget,
            "embeddings_path": data.embeddings,
            "dataset_dir": str(root / "dataset"),
            "output_dir": str(root / "out"),
            "banned_prefixes": [],
            "selector": "embedding",
            "dim_qis": 16, "dim_cn": 4, "dim_set": 16, "dim_chain": 40,
            "learning_rate": 0.05,
            "epochs": 6,
            "tree_count": 8,
            "tree_depth": 3,
            "seed": 29,
        }
        cfg_path = tmp_path / f"config_{run}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["build-dataset", "--config", str(cfg_path)]) == 0
        assert cli_main(["train-selector", "--config", str(cfg_path)]) == 0
        assert cli_main(["train-ranker", "--config", str(cfg_path)]) == 0
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 0
        artifacts[run] = {
            rel: (root / rel).read_bytes()
            for rel in (
                "dataset/tables.jsonl",
                "dataset/split.json",
                "dataset/vocab_tb.json",
                "dataset/vocab_kb.json",
                "dataset/kb.bin",
                "dataset/selector.json",
                "dataset/ranker.json",
                "out/runs.jsonl",
                "out/summary.json",
                "out/metrics.csv",
            )
        }
    assert artifacts["r1"] == artifacts["r2"]
