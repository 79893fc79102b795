import numpy as np
import pytest

from kgtable import harness
from kgtable import selector as sel
from kgtable.dataset import AnnotatedTable, LabeledChain, Vocabulary
from kgtable.graph import EntityMetaStore, KnowledgeGraph, PredicateMetaStore
from kgtable.paths import ChainPair, MetaPath
from kgtable.query import QueryBudget, TupleSet, execute_chain
from kgtable.ranker import PretrainedEmbeddings



# The oracle and random scorers read no tokens, so empty vocabularies do.
NO_VOCABS = (Vocabulary("TB_Vocab", ()), Vocabulary("KB_Vocab", ()))


def chain_of(p1, p2):
    return ChainPair(MetaPath.parse(p1), MetaPath.parse(p2))


def labeled(p1, p2, positive, recall=0.5):
    return LabeledChain(chain_of(p1, p2), positive, recall, recall, recall)


@pytest.fixture
def small_world():
    """Two chains: 'p/q' connects all three rows, 'r/q' only the first."""
    triples = []
    for i in range(3):
        triples += [("se", "p", f"x{i}"), (f"x{i}", "q", f"y{i}")]
    triples += [("se", "r", "x0")]
    g = KnowledgeGraph(triples)
    rr = tuple((g.entity_id(f"x{i}"), g.entity_id(f"y{i}")) for i in range(3))
    table = AnnotatedTable(
        table_id="w",
        qis=("alpha",),
        cn1=("col",),
        cn2=("name",),
        se=g.entity_id("se"),
        se_name="SE",
        set_tokens=("stype",),
        rr=rr,
        chains=(labeled("p", "q", True, 1.0), labeled("r", "q", False, 1 / 3)),
    )
    return g, table


class TestFilterCcEr:
    def test_rows_connected_by_all_chains_keep_all(self, small_world):
        g, table = small_world
        assert len(harness.filter_cc_er(table, table.rr[0], g)) == 2

    def test_rows_connected_by_one_chain_keep_one(self, small_world):
        g, table = small_world
        kept = harness.filter_cc_er(table, table.rr[1], g)
        assert [lc.chain.canonical() for lc in kept] == ["p / q"]

    def test_unconnected_row_keeps_nothing(self, small_world):
        g, table = small_world
        fake_er = (table.rr[0][0], table.se)
        assert harness.filter_cc_er(table, fake_er, g) == ()


class TestTupleRecall:
    def test_full_and_partial(self):
        err = [(1, 2), (3, 4)]
        assert harness.tuple_recall(TupleSet({1: {2}, 3: {4}}), err) == 1.0
        assert harness.tuple_recall(TupleSet({1: {2}}), err) == 0.5
        assert harness.tuple_recall(TupleSet({}), err) == 0.0

    def test_empty_err_rejected(self):
        with pytest.raises(ValueError):
            harness.tuple_recall(TupleSet({}), [])


def oracle_pick(table):
    """The chain ``OracleScorer`` selects among all of the table's chains."""
    encodings = [sel.encode_chain(lc.chain, NO_VOCABS[1]) for lc in table.chains]
    ctx = sel.context_for_table(table, *NO_VOCABS)
    return table.chains[sel.select_top1(sel.OracleScorer(), ctx, encodings)].chain


class TestOracle:
    def test_first_positive_in_annotation_order(self, small_world):
        g, table = small_world
        assert oracle_pick(table).canonical() == "p / q"
        # Ranker training groups execute the same chain: 'p/q' retrieves all three rows.
        [group] = harness.ranker_training_groups(
            [table], g, EntityMetaStore(), PredicateMetaStore(), PretrainedEmbeddings({}, 1),
        )
        assert group.relevance.tolist() == [1.0, 1.0]

    def test_two_positives_take_the_first(self):
        table_chains = (labeled("b", "x", True), labeled("a", "x", True))
        table = AnnotatedTable(
            "t", ("q",), ("c",), ("d",), 0, "s", ("k",), ((1, 2), (3, 4), (5, 6)),
            table_chains,
        )
        # The stored position wins over the canonical-string tie rule.
        assert oracle_pick(table).canonical() == "b / x"
        assert table.chains[0].chain is oracle_pick(table)

    def test_oracle_accuracy_is_always_one(self, bundle):
        acc = harness.accuracy_at_1(list(bundle.tables.values()), sel.OracleScorer(), *NO_VOCABS)
        assert acc == 1.0


class TestAccuracyAt1:
    def test_always_negative_selector_scores_zero(self, bundle):
        class LastChainScorer:
            """Tables store positives first, so the last chain is a negative when any is."""

            def scores(self, ctx, chains, run_key):
                return np.arange(len(chains), dtype=float)

        acc = harness.accuracy_at_1(bundle.heldout_tables(), LastChainScorer(), *NO_VOCABS)
        assert acc == 0.0

    def test_tables_without_negatives_are_excluded(self):
        lonely = AnnotatedTable(
            "only-positive", ("q",), ("c",), ("d",), 0, "s", ("k",),
            ((1, 2), (3, 4), (5, 6)), (labeled("p", "q", True),),
        )
        with pytest.raises(ValueError):
            harness.accuracy_at_1([lonely], sel.OracleScorer(), *NO_VOCABS)


class TestRunE2e:
    def test_counts_cover_every_row(self, bundle, trained):
        heldout = bundle.heldout_tables()
        ranker = harness.FeatureTupleRanker(
            trained.ranker, bundle.entity_meta, bundle.pred_meta, bundle.embeddings
        )
        runs, summary = harness.run_e2e(
            heldout, bundle.g, sel.OracleScorer(), ranker, *NO_VOCABS, budget=QueryBudget()
        )
        assert sum(summary.counts.values()) == sum(len(t.rr) for t in heldout)
        assert len(runs) == sum(len(t.rr) for t in heldout)
        for run in runs:
            assert len(run.err) == len(bundle.tables[run.table_id].rr) - 1
            if run.status != harness.STATUS_OK:
                assert run.tuple_recall is None and run.ndcg is None

    def test_oracle_recall_dominates_every_selector_per_table(self, bundle):
        for table in bundle.heldout_tables():
            oracle_recall = max(lc.recall for lc in table.chains)
            assert oracle_pick(table) is table.chains[0].chain
            assert table.chains[0].chain.canonical() in {
                lc.chain.canonical() for lc in table.chains if lc.recall == oracle_recall
            }

    def test_single_candidate_makes_random_equal_oracle(self, small_world):
        g, table = small_world
        one_chain = AnnotatedTable(
            table.table_id, table.qis, table.cn1, table.cn2, table.se, table.se_name,
            table.set_tokens, table.rr, (table.chains[0],),
        )
        ranker = harness.RandomTupleRanker(3)
        runs_r, _ = harness.run_e2e([one_chain], g, sel.RandomScorer(1), ranker, *NO_VOCABS)
        runs_o, _ = harness.run_e2e([one_chain], g, sel.OracleScorer(), ranker, *NO_VOCABS)
        assert [r.tuple_recall for r in runs_r] == [r.tuple_recall for r in runs_o]

    def test_rows_selecting_one_chain_walk_each_segment_start_once(self, small_world, monkeypatch):
        # Work count, no wall clock: the queries of a table share one reach
        # memo, so the rows that select 'p/q' walk p from the subject entity
        # and q from each x once between them.
        from collections import Counter

        from kgtable import paths

        g, table = small_world
        walks = Counter()
        original = paths.walk

        def counting_walk(g, frontier, tokens, steps):
            frontier = tuple(frontier)
            walks[frontier, tuple(tokens)] += 1
            return original(g, frontier, tokens, steps)

        monkeypatch.setattr(paths, "walk", counting_walk)
        runs, _ = harness.run_e2e(
            [table], g, sel.OracleScorer(), harness.RandomTupleRanker(0), *NO_VOCABS
        )
        assert [r.selected.canonical() for r in runs] == ["p / q"] * 3
        assert len(walks) == 4 and max(walks.values()) == 1, walks
        monkeypatch.undo()
        for run in runs:
            assert run.ct == execute_chain(g, table.se, run.selected)

    def test_er_is_removed_from_ranking_but_not_retrieval(self, small_world):
        g, table = small_world
        runs, _ = harness.run_e2e(
            [table], g, sel.OracleScorer(), harness.RandomTupleRanker(0), *NO_VOCABS
        )
        for run in runs:
            assert run.er in run.ct.pairs  # retrieval keeps the example row
            assert run.p_at_1 == 1  # ranking metrics never see it


class TestSummaries:
    def test_permutation_invariance(self, bundle, trained):
        heldout = bundle.heldout_tables()
        ranker = harness.RandomTupleRanker(2)
        runs, summary = harness.run_e2e(heldout, bundle.g, sel.OracleScorer(), ranker, *NO_VOCABS)
        reversed_summary = harness.summarize(list(reversed(runs)))
        assert reversed_summary == summary

    def test_quartile_structure(self, small_world):
        g, table = small_world
        _, summary = harness.run_e2e(
            [table], g, sel.OracleScorer(), harness.RandomTupleRanker(0), *NO_VOCABS
        )
        assert set(summary.metrics) == {"tuple_recall", "ndcg", "p_at_1"}
        for values in summary.metrics.values():
            assert len(values) == 4

    def test_written_artifacts(self, small_world, tmp_path):
        g, table = small_world
        runs, summary = harness.run_e2e(
            [table], g, sel.OracleScorer(), harness.RandomTupleRanker(0), *NO_VOCABS
        )
        harness.write_runs(str(tmp_path / "runs.jsonl"), runs, g)
        harness.write_summary(str(tmp_path / "summary.json"), summary)
        harness.write_metrics_csv(str(tmp_path / "metrics.csv"), summary)
        assert len((tmp_path / "runs.jsonl").read_text().splitlines()) == len(runs)
        assert (tmp_path / "metrics.csv").read_text().startswith("metric,p25,p50,mean,p75")


class TestCoreColumnEval:
    def test_p1_contains_full_per_query(self, bundle):
        heldout = bundle.heldout_tables()
        runs, _ = harness.run_e2e(
            heldout, bundle.g, sel.RandomScorer(4), harness.RandomTupleRanker(4), *NO_VOCABS
        )
        p1, _ = harness.core_column_eval(runs, bundle.tables, bundle.g, "p1")
        full, _ = harness.core_column_eval(runs, bundle.tables, bundle.g, "full")
        assert len(p1) == len(full) > 0
        for a, b in zip(p1, full):
            assert a >= b - 1e-12

    def test_perfect_retrieval_scores_one(self, small_world):
        g, table = small_world
        runs, _ = harness.run_e2e(
            [table], g, sel.OracleScorer(), harness.RandomTupleRanker(0), *NO_VOCABS
        )
        recalls, stats = harness.core_column_eval(runs, {table.table_id: table}, g, "p1")
        assert all(r == 1.0 for r in recalls)
        assert stats["mean"] == 1.0

    def test_p1_prefix_over_the_default_row_budget_scores_zero(self):
        # P1 reaches max_rows + 1 entities; the chain retrieves only two rows.
        rows = QueryBudget().max_rows + 1
        triples = [("se", "p", f"x{i}") for i in range(rows)]
        triples += [("x0", "q", "y0"), ("x1", "q", "y1")]
        g = KnowledgeGraph(triples)
        table = AnnotatedTable(
            table_id="wide", qis=(), cn1=(), cn2=(), se=g.entity_id("se"), se_name="SE",
            set_tokens=(), rr=tuple((g.entity_id(f"x{i}"), g.entity_id(f"y{i}")) for i in (0, 1)),
            chains=(labeled("p", "q", True, 1.0),),
        )
        runs, _ = harness.run_e2e(
            [table], g, sel.OracleScorer(), harness.RandomTupleRanker(0), *NO_VOCABS
        )
        assert [r.status for r in runs] == [harness.STATUS_OK] * 2
        tables = {"wide": table}
        assert harness.core_column_eval(runs, tables, g, "p1")[0] == [0.0, 0.0]
        within = QueryBudget(max_rows=rows)
        assert harness.core_column_eval(runs, tables, g, "p1", within)[0] == [1.0, 1.0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            harness.core_column_eval([], {}, None, "sideways")


class TestRankerTrainingGroups:
    def test_over_budget_chain_is_skipped(self, small_world):
        g, table = small_world

        def groups(budget):
            return harness.ranker_training_groups(
                [table], g, EntityMetaStore(), PredicateMetaStore(),
                PretrainedEmbeddings({}, 1), budget,
            )

        # The oracle chain 'p/q' retrieves three rows.
        assert groups(QueryBudget(max_rows=1)) == []
        [group] = groups(QueryBudget())
        assert group.relevance.tolist() == [1.0, 1.0]
