"""End-to-end simulation: every ground-truth row plays the example row once.

For each (table, row) query the harness filters the chains that actually
connect that row, asks the selector for the best chain, executes it,
scores tuple recall against the remaining rows, and ranks the retrieved
tuples for NDCG and precision at 1 (the example row is removed from the
ranked list before both). Queries whose filtered chain set is empty are
first-class skipped records so failure rates can be reported.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import AnnotatedTable, LabeledChain, Vocabulary
from .graph import EntityMetaStore, KnowledgeGraph, PredicateMetaStore, walk
from .paths import ChainPair
from .query import BudgetExceeded, QueryBudget, TupleSet, execute_chain, execute_prefix
from .ranker import (
    PretrainedEmbeddings,
    RankContext,
    RankerModel,
    TrainingGroup,
    featurize,
    ndcg,
    precision_at_1,
    rank,
)
from .selector import SelectorHyperParams, DEFAULT_HP, context_for_table, select_top1

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
            p1_ok[k1] = er1 in walk(g, {table.se}, lc.chain.p1.tokens)
        if not p1_ok[k1]:
            continue
        k2 = lc.chain.p2.canonical()
        if k2 not in p2_ok:
            p2_ok[k2] = er2 in walk(g, {er1}, lc.chain.p2.tokens)
        if p2_ok[k2]:
            kept.append(lc)
    return tuple(kept)


def tuple_recall(ct: TupleSet, err: Sequence[tuple[int, int]]) -> float:
    if not err:
        raise ValueError("expected result rows must be non-empty")
    return len(ct.pairs & set(err)) / len(err)


def oracle_select(table: AnnotatedTable) -> ChainPair:
    """First positive chain in annotation sort order."""
    for lc in table.chains:
        if lc.positive:
            return lc.chain
    raise ValueError(f"table {table.table_id} has no positive chain")


# -- chain selectors ------------------------------------------------------------


class OracleChainSelector:
    """Picks the first positive among the offered chains (first chain as fallback)."""

    def choose(self, table: AnnotatedTable, chains: Sequence[LabeledChain], run_key: int) -> int:
        for i, lc in enumerate(chains):
            if lc.positive:
                return i
        return 0


class RandomChainSelector:
    """Uniform choice among the offered chains, seeded per run for determinism."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def choose(self, table: AnnotatedTable, chains: Sequence[LabeledChain], run_key: int) -> int:
        rng = random.Random(self.seed * 1_000_003 + run_key)
        return rng.randrange(len(chains))


class ScorerChainSelector:
    """Adapts a chain scorer (jaccard, linear, embedding) to the harness."""

    def __init__(
        self,
        scorer,
        tb_vocab: Vocabulary,
        kb_vocab: Vocabulary,
        hp: SelectorHyperParams = DEFAULT_HP,
    ):
        self.scorer = scorer
        self.tb_vocab = tb_vocab
        self.kb_vocab = kb_vocab
        self.hp = hp
        self._ctx_cache: dict[str, object] = {}

    def _ctx(self, table: AnnotatedTable):
        ctx = self._ctx_cache.get(table.table_id)
        if ctx is None:
            ctx = context_for_table(table, self.tb_vocab, self.kb_vocab, self.hp)
            self._ctx_cache[table.table_id] = ctx
        return ctx

    def choose(self, table: AnnotatedTable, chains: Sequence[LabeledChain], run_key: int) -> int:
        return select_top1(
            self.scorer, self._ctx(table), [lc.chain for lc in chains],
            self.kb_vocab, self.hp,
        )


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
        pairs: Sequence[tuple[int, int]],
        run_key: int,
    ) -> list[tuple[int, int]]:
        ordered = sorted(pairs)
        rng = random.Random(self.seed * 1_000_003 + run_key)
        rng.shuffle(ordered)
        return ordered


class FeatureTupleRanker:
    """Featurizes retrieved tuples and ranks them with a trained model."""

    def __init__(
        self,
        model: RankerModel,
        entity_meta: EntityMetaStore,
        pred_meta: PredicateMetaStore,
        embeddings: PretrainedEmbeddings,
    ):
        self.model = model
        self.entity_meta = entity_meta
        self.pred_meta = pred_meta
        self.embeddings = embeddings

    def features_for(
        self,
        table: AnnotatedTable,
        chain: ChainPair,
        er: tuple[int, int],
        pairs: Sequence[tuple[int, int]],
    ) -> np.ndarray:
        ctx = RankContext(
            qis_tokens=table.qis,
            cn1_tokens=table.cn1,
            cn2_tokens=table.cn2,
            chain=chain,
            er=er,
        )
        return featurize(ctx, pairs, self.entity_meta, self.pred_meta, self.embeddings)

    def order(
        self,
        table: AnnotatedTable,
        chain: ChainPair,
        er: tuple[int, int],
        pairs: Sequence[tuple[int, int]],
        run_key: int,
    ) -> list[tuple[int, int]]:
        ordered = sorted(pairs)
        if not ordered:
            return []
        scores = self.model.predict(self.features_for(table, chain, er, ordered))
        return [ordered[i] for i in rank(scores, ordered)]


# -- end-to-end simulation ----------------------------------------------------------


def _run_one(
    table: AnnotatedTable,
    er: tuple[int, int],
    run_key: int,
    g: KnowledgeGraph,
    selector,
    tuple_ranker,
    budget: QueryBudget | None,
) -> QueryRun:
    err = tuple(r for r in table.rr if r != er)
    cc_er = filter_cc_er(table, er, g)
    if not cc_er:
        return QueryRun(
            table.table_id, er, cc_er, None, None, err,
            None, None, None, STATUS_SKIPPED,
        )
    selected = cc_er[selector.choose(table, cc_er, run_key)].chain
    result = execute_chain(g, table.se, selected, budget)
    if isinstance(result, BudgetExceeded):
        return QueryRun(
            table.table_id, er, cc_er, selected, None, err,
            None, None, None, STATUS_BUDGET,
        )
    recall = tuple_recall(result, err)
    ranked = tuple_ranker.order(table, selected, er, result.ordered(), run_key)
    ranked_wo_er = [p for p in ranked if p != er]
    err_set = set(err)
    relevances = [1 if p in err_set else 0 for p in ranked_wo_er]
    return QueryRun(
        table.table_id, er, cc_er, selected, result, err,
        recall, ndcg(relevances), precision_at_1(ranked_wo_er, err_set), STATUS_OK,
    )


def run_e2e(
    tables: Sequence[AnnotatedTable],
    g: KnowledgeGraph,
    selector,
    tuple_ranker,
    budget: QueryBudget | None = None,
) -> tuple[list[QueryRun], MetricSummary]:
    """Simulate every row of every table as the example row.

    Each run derives all its randomness from its position in the fixed job
    order.
    """
    runs = []
    for table in sorted(tables, key=lambda t: t.table_id):
        for er in table.rr:
            runs.append(_run_one(table, er, len(runs), g, selector, tuple_ranker, budget))
    return runs, summarize(runs)


def ranker_training_groups(
    tables: Sequence[AnnotatedTable],
    g: KnowledgeGraph,
    entity_meta: EntityMetaStore,
    pred_meta: PredicateMetaStore,
    embeddings: PretrainedEmbeddings,
    budget: QueryBudget | None = None,
) -> list[TrainingGroup]:
    """One ranker training group per table, over its oracle chain's tuples.

    The example row is the first ground-truth row the chain retrieves; the
    other ground-truth rows are the relevant candidates. Tables whose chain
    runs over budget or retrieves nothing but the example row are skipped.
    """
    # Featurizing reads no model, so an empty one stands in.
    featurizer = FeatureTupleRanker(
        RankerModel([], 0.1, 1.0), entity_meta, pred_meta, embeddings
    )
    groups = []
    for table in tables:
        chain = oracle_select(table)
        result = execute_chain(g, table.se, chain, budget)
        if isinstance(result, BudgetExceeded):
            continue
        er = next((r for r in table.rr if r in result.pairs), table.rr[0])
        pairs = sorted(p for p in result.pairs if p != er)
        if not pairs:
            continue
        err = {r for r in table.rr if r != er}
        feats = featurizer.features_for(table, chain, er, pairs)
        relevance = np.array([1.0 if p in err else 0.0 for p in pairs])
        groups.append(TrainingGroup(features=feats, relevance=relevance))
    return groups


def accuracy_at_1(tables: Sequence[AnnotatedTable], selector) -> float:
    """Fraction of tables whose top-1 chain over all candidates is positive.

    Tables without any negative chain are excluded so the metric cannot be
    trivially satisfied.
    """
    eligible = [t for t in sorted(tables, key=lambda t: t.table_id) if t.negatives()]
    if not eligible:
        raise ValueError("no table has a negative chain")
    correct = 0
    for key, table in enumerate(eligible):
        idx = selector.choose(table, table.chains, key)
        correct += 1 if table.chains[idx].positive else 0
    return correct / len(eligible)


def core_column_eval(
    runs: Sequence[QueryRun],
    tables_by_id: Mapping[str, AnnotatedTable],
    g: KnowledgeGraph,
    mode: str,
    budget: QueryBudget | None = None,
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
            xs = {x for x, _ in run.ct.pairs}
        recalls.append(len(xs & gt_c1) / len(gt_c1))
    if not recalls:
        return [], {}
    q = _quartiles(recalls)
    return recalls, {"p25": q[0], "p50": q[1], "mean": q[2], "p75": q[3]}


# -- result files ----------------------------------------------------------------


def write_runs(path: str, runs: Sequence[QueryRun], g: KnowledgeGraph) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for r in runs:
            rec = {
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
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def write_summary(path: str, summary: MetricSummary) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "counts": summary.counts,
        "metrics": {
            name: {"p25": v[0], "p50": v[1], "mean": v[2], "p75": v[3]}
            for name, v in summary.metrics.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def write_metrics_csv(path: str, summary: MetricSummary) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,p25,p50,mean,p75\n")
        for name in sorted(summary.metrics):
            p25, p50, mean, p75 = summary.metrics[name]
            fh.write(f"{name},{p25!r},{p50!r},{mean!r},{p75!r}\n")
