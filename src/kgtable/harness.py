"""End-to-end simulation: every ground-truth row plays the example row once.

For each (table, row) query the harness filters the chains that actually
connect that row, scores them with the selector through ``select_top1``,
executes the best one and scores tuple recall against the remaining rows.
The queries of a table share one reach memo, so no segment is walked twice
from one entity and a repeat is charged the steps of its walk; every query
reads its chains' encodings from the KB vocabulary's per-command memo.
``rank_retrieved`` is the one ranking step, shared with ``complete``: it
drops the example row from the retrieved tuples, as training does, and
ranks the rest for NDCG and precision at 1. Queries whose filtered chain
set is empty are first-class skipped records so failure rates can be
reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import AnnotatedTable, LabeledChain, Vocabulary
from .graph import (
    EntityMetaStore,
    KnowledgeGraph,
    PredicateMetaStore,
    StepAllowance,
    walk,
    write_json_lines,
)
from .paths import ChainPair, ReachMemo
from .query import BudgetExceeded, QueryBudget, TupleSet, execute_chain, execute_prefix
from .ranker import (
    ALL_FEATURES,
    PretrainedEmbeddings,
    RankContext,
    RankerModel,
    TrainingGroup,
    featurize,
    ndcg,
    precision_at_1,
    rank,
)
from .selector import QueryContext, context_for_table, encode_chain, select_top1

STATUS_OK = "ok"
STATUS_SKIPPED = "skipped_empty_cc"
STATUS_BUDGET = "budget_exceeded"


@dataclass(frozen=True)
class QueryRun:
    table_id: str
    er: tuple[int, int]
    cc_er: tuple[LabeledChain, ...]
    selected: ChainPair | None
    ct: TupleSet | None
    err: tuple[tuple[int, int], ...]
    tuple_recall: float | None
    ndcg: float | None
    p_at_1: int | None
    status: str


@dataclass(frozen=True)
class MetricSummary:
    """Per-metric (25-ile, 50-ile, mean, 75-ile) over executed queries, plus counts."""

    metrics: dict[str, tuple[float, float, float, float]]
    counts: dict[str, int]


def _quartiles(values: Sequence[float]) -> tuple[float, float, float, float]:
    # Sorting first makes the summary bit-identical under any run order.
    arr = np.sort(np.asarray(values, dtype=float))
    return (
        float(np.percentile(arr, 25)),
        float(np.percentile(arr, 50)),
        float(arr.mean()),
        float(np.percentile(arr, 75)),
    )


def summarize(runs: Sequence[QueryRun]) -> MetricSummary:
    counts = {STATUS_OK: 0, STATUS_SKIPPED: 0, STATUS_BUDGET: 0}
    for r in runs:
        counts[r.status] = counts.get(r.status, 0) + 1
    executed = [r for r in runs if r.status == STATUS_OK]
    metrics = {}
    if executed:
        metrics["tuple_recall"] = _quartiles([r.tuple_recall for r in executed])
        metrics["ndcg"] = _quartiles([r.ndcg for r in executed])
        metrics["p_at_1"] = _quartiles([float(r.p_at_1) for r in executed])
    return MetricSummary(metrics=metrics, counts=counts)


def filter_cc_er(
    table: AnnotatedTable, er: tuple[int, int], g: KnowledgeGraph
) -> tuple[LabeledChain, ...]:
    """Chains whose P1 connects (SE, ER1) and whose P2 connects (ER1, ER2)."""
    er1, er2 = er
    p1_ok: dict[str, bool] = {}
    p2_ok: dict[str, bool] = {}
    kept = []
    for lc in table.chains:
        k1 = lc.chain.p1.canonical()
        if k1 not in p1_ok:
            p1_ok[k1] = er1 in walk(g, {table.se}, lc.chain.p1.tokens, StepAllowance())
        if not p1_ok[k1]:
            continue
        k2 = lc.chain.p2.canonical()
        if k2 not in p2_ok:
            p2_ok[k2] = er2 in walk(g, {er1}, lc.chain.p2.tokens, StepAllowance())
        if p2_ok[k2]:
            kept.append(lc)
    return tuple(kept)


def tuple_recall(ct: TupleSet, err: Sequence[tuple[int, int]]) -> float:
    if not err:
        raise ValueError("expected result rows must be non-empty")
    return sum(1 for r in set(err) if r in ct) / len(err)


# -- tuple rankers ----------------------------------------------------------------


class RandomTupleRanker:
    """Seeded per-run shuffle of the retrieved tuples."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def order(
        self,
        table: AnnotatedTable,
        chain: ChainPair,
        er: tuple[int, int],
        pairs: list[tuple[int, int]],
        run_key: int,
    ) -> tuple[list[tuple[int, int]], None]:
        ordered = list(pairs)
        random.Random(self.seed * 1_000_003 + run_key).shuffle(ordered)
        return ordered, None


class FeatureTupleRanker:
    """Ranks retrieved tuples with a trained model on their feature ``columns``,
    by default the ones the model splits on. Given ``columns``, only ``order``
    reads the model, so a featurizer alone takes ``None``."""

    def __init__(
        self,
        model: RankerModel | None,
        entity_meta: EntityMetaStore,
        pred_meta: PredicateMetaStore,
        embeddings: PretrainedEmbeddings,
        columns: Sequence[int] | None = None,
    ):
        self.model = model
        self.entity_meta = entity_meta
        self.pred_meta = pred_meta
        self.embeddings = embeddings
        self.columns = model.split_features if columns is None else columns

    def features_for(
        self,
        table: AnnotatedTable,
        chain: ChainPair,
        er: tuple[int, int],
        pairs: Sequence[tuple[int, int]],
    ) -> np.ndarray:
        ctx = RankContext(table.qis, table.cn1, table.cn2, chain, er)
        return featurize(
            ctx, pairs, self.entity_meta, self.pred_meta, self.embeddings, self.columns
        )

    def order(
        self,
        table: AnnotatedTable,
        chain: ChainPair,
        er: tuple[int, int],
        pairs: list[tuple[int, int]],
        run_key: int,
    ) -> tuple[list[tuple[int, int]], list[float]]:
        if not pairs:
            return [], []
        scores = self.model.predict(self.features_for(table, chain, er, pairs))
        order = rank(scores, pairs)
        return [pairs[i] for i in order], [float(scores[i]) for i in order]


def ranking_candidates(result: TupleSet, er: tuple[int, int]) -> list[tuple[int, int]]:
    """The tuples a ranker sees: every retrieved one but the example row, sorted."""
    return [p for p in result.ordered() if p != er]


def rank_retrieved(
    tuple_ranker,
    table: AnnotatedTable,
    chain: ChainPair,
    er: tuple[int, int],
    result: TupleSet,
    run_key: int,
) -> tuple[list[tuple[int, int]], list[float] | None]:
    """The ranking step of one query: its candidates best first, and their scores.

    The example row is dropped before featurizing, as in training. The
    scores are ``None`` for a ranker that has none.
    """
    return tuple_ranker.order(table, chain, er, ranking_candidates(result, er), run_key)


# -- end-to-end simulation ----------------------------------------------------------


def _run_one(
    table: AnnotatedTable,
    ctx: QueryContext,
    er: tuple[int, int],
    run_key: int,
    g: KnowledgeGraph,
    selector,
    tuple_ranker,
    kb_vocab: Vocabulary,
    budget: QueryBudget,
    memo: ReachMemo,
) -> QueryRun:
    err = tuple(r for r in table.rr if r != er)
    cc_er = filter_cc_er(table, er, g)
    if not cc_er:
        return QueryRun(
            table.table_id, er, cc_er, None, None, err,
            None, None, None, STATUS_SKIPPED,
        )
    encodings = [encode_chain(lc.chain, kb_vocab) for lc in cc_er]
    selected = cc_er[select_top1(selector, ctx, encodings, run_key)].chain
    result = execute_chain(g, table.se, selected, budget, memo)
    if isinstance(result, BudgetExceeded):
        return QueryRun(
            table.table_id, er, cc_er, selected, None, err,
            None, None, None, STATUS_BUDGET,
        )
    recall = tuple_recall(result, err)
    ranked, _ = rank_retrieved(tuple_ranker, table, selected, er, result, run_key)
    err_set = set(err)
    relevances = [1 if p in err_set else 0 for p in ranked]
    return QueryRun(
        table.table_id, er, cc_er, selected, result, err,
        recall, ndcg(relevances), precision_at_1(ranked, err_set), STATUS_OK,
    )


def run_e2e(
    tables: Sequence[AnnotatedTable],
    g: KnowledgeGraph,
    selector,
    tuple_ranker,
    tb_vocab: Vocabulary,
    kb_vocab: Vocabulary,
    budget: QueryBudget = QueryBudget(),
) -> tuple[list[QueryRun], MetricSummary]:
    """Simulate every row of every table as the example row.

    Each table's context and reach memo are built once; chain encodings
    come from ``kb_vocab``'s memo. Each run derives all its randomness from
    its position in the fixed job order.
    """
    runs = []
    for table in sorted(tables, key=lambda t: t.table_id):
        ctx = context_for_table(table, tb_vocab, kb_vocab)
        memo: ReachMemo = {}
        for er in table.rr:
            runs.append(_run_one(
                table, ctx, er, len(runs), g, selector, tuple_ranker, kb_vocab, budget, memo
            ))
    return runs, summarize(runs)


def ranker_training_groups(
    tables: Sequence[AnnotatedTable],
    g: KnowledgeGraph,
    entity_meta: EntityMetaStore,
    pred_meta: PredicateMetaStore,
    embeddings: PretrainedEmbeddings,
    budget: QueryBudget = QueryBudget(),
) -> list[TrainingGroup]:
    """One ranker training group per table, over its oracle chain's tuples.

    The oracle chain is the table's first, the pick of ``OracleScorer``,
    which ``load_dataset`` checks is positive. The example row is the first
    ground-truth row the chain retrieves; the other ground-truth rows are
    the relevant candidates. Tables whose chain runs over budget or
    retrieves nothing but the example row are skipped.
    """
    # Training fits trees on every feature, so it computes all 27 columns;
    # featurizing given its columns reads no model.
    featurizer = FeatureTupleRanker(None, entity_meta, pred_meta, embeddings, ALL_FEATURES)
    groups = []
    for table in tables:
        chain = table.chains[0].chain
        result = execute_chain(g, table.se, chain, budget)
        if isinstance(result, BudgetExceeded):
            continue
        er = next((r for r in table.rr if r in result), table.rr[0])
        pairs = ranking_candidates(result, er)
        if not pairs:
            continue
        err = {r for r in table.rr if r != er}
        feats = featurizer.features_for(table, chain, er, pairs)
        relevance = np.array([1.0 if p in err else 0.0 for p in pairs])
        groups.append(TrainingGroup(features=feats, relevance=relevance))
    return groups


def accuracy_at_1(
    tables: Sequence[AnnotatedTable], selector, tb_vocab: Vocabulary, kb_vocab: Vocabulary
) -> float:
    """Fraction of tables whose top-1 chain over all candidates is positive.

    Tables without any negative chain are excluded so the metric cannot be
    trivially satisfied.
    """
    eligible = [t for t in sorted(tables, key=lambda t: t.table_id) if t.negatives()]
    if not eligible:
        raise ValueError("no table has a negative chain")
    correct = 0
    for key, table in enumerate(eligible):
        ctx = context_for_table(table, tb_vocab, kb_vocab)
        encodings = [encode_chain(lc.chain, kb_vocab) for lc in table.chains]
        idx = select_top1(selector, ctx, encodings, key)
        correct += 1 if table.chains[idx].positive else 0
    return correct / len(eligible)


def core_column_eval(
    runs: Sequence[QueryRun],
    tables_by_id: Mapping[str, AnnotatedTable],
    g: KnowledgeGraph,
    mode: str,
    budget: QueryBudget = QueryBudget(),
) -> tuple[list[float], dict[str, float]]:
    """Core-column recall per executed run, in run order.

    Mode "p1" executes only the first chain segment; mode "full" projects
    the already-retrieved tuple set onto its first component. Recall is
    against the table's ground-truth column-1 entities minus the example.
    """
    if mode not in ("p1", "full"):
        raise ValueError("mode must be 'p1' or 'full'")
    recalls = []
    for run in runs:
        if run.status != STATUS_OK:
            continue
        table = tables_by_id[run.table_id]
        gt_c1 = {a for a, _ in table.rr} - {run.er[0]}
        if not gt_c1:
            continue
        if mode == "p1":
            xs = execute_prefix(g, table.se, run.selected.p1, budget)
            if isinstance(xs, BudgetExceeded):
                xs = set()
        else:
            xs = run.ct.by_x.keys()
        recalls.append(len(xs & gt_c1) / len(gt_c1))
    if not recalls:
        return [], {}
    q = _quartiles(recalls)
    return recalls, {"p25": q[0], "p50": q[1], "mean": q[2], "p75": q[3]}


# -- result files ----------------------------------------------------------------


def write_runs(path: str, runs: Sequence[QueryRun], g: KnowledgeGraph) -> None:
    records = (
        {
            "table_id": r.table_id,
            "er": [g.mid(r.er[0]), g.mid(r.er[1])],
            "status": r.status,
            "num_candidate_chains": len(r.cc_er),
            "selected": r.selected.canonical() if r.selected else None,
            "ct_size": len(r.ct) if r.ct is not None else None,
            "tuple_recall": r.tuple_recall,
            "ndcg": r.ndcg,
            "p_at_1": r.p_at_1,
        }
        for r in runs
    )
    write_json_lines(path, records)


def write_summary(path: str, summary: MetricSummary) -> None:
    payload = {
        "counts": summary.counts,
        "metrics": {
            name: {"p25": v[0], "p50": v[1], "mean": v[2], "p75": v[3]}
            for name, v in summary.metrics.items()
        },
    }
    write_json_lines(path, [payload])


def write_metrics_csv(path: str, summary: MetricSummary) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,p25,p50,mean,p75\n")
        for name in sorted(summary.metrics):
            p25, p50, mean, p75 = summary.metrics[name]
            fh.write(f"{name},{p25!r},{p50!r},{mean!r},{p75!r}\n")
