#!/usr/bin/env python3
"""Full experiment grid on a synthetic corpus.

Builds the dataset, trains the linear and embedding selectors plus the
tuple ranker, then simulates every (selector, ranker) scenario end to end
and prints chain-selection accuracy, the tuple-recall/NDCG/P@1 grid and
the core-column retrieval comparison.

Usage:
    python scripts/run_experiment.py --out runs/exp --tables 100 --seed 7
"""

import argparse
import time
from dataclasses import dataclass

from kgtable import dataset as ds
from kgtable import harness, ranker, selector, synth
from kgtable.graph import load_entity_meta, load_predicate_meta, load_triples
from kgtable.query import QueryBudget


@dataclass
class ExperimentConfig:
    out_dir: str = "runs/exp"
    n_tables: int = 100
    corpus_seed: int = 7
    split_seed: int = 13
    train_seed: int = 3
    epochs: int = 60
    learning_rate: float = 0.05
    tree_count: int = 30
    eval_split: str = "test"


def build(cfg: ExperimentConfig):
    paths = synth.make_corpus(f"{cfg.out_dir}/data", cfg.n_tables, cfg.corpus_seed)
    g = load_triples(paths.graph)
    entity_meta = load_entity_meta(paths.entity_meta, g)
    pred_meta = load_predicate_meta(paths.predicate_meta)
    embeddings = ranker.PretrainedEmbeddings.load(paths.embeddings)
    tables, split, tb_vocab, kb_vocab, rejects = ds.build_corpus_dataset(
        ds.read_corpus(paths.corpus),
        g,
        ds.read_tsv_map(paths.url2mid),
        entity_meta,
        ds.read_tsv_multimap(paths.mid2types),
        ds.read_tsv_map(paths.fget),
        ds.BuildSettings(banned_prefixes=()),
        seed=cfg.split_seed,
    )
    print(
        f"dataset: {len(tables)} tables "
        f"({len(split.train)}/{len(split.validation)}/{len(split.test)}), "
        f"rejects={rejects or 'none'}"
    )
    return paths, g, entity_meta, pred_meta, embeddings, tables, split, tb_vocab, kb_vocab


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/exp")
    parser.add_argument("--tables", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=60)
    args = parser.parse_args()
    cfg = ExperimentConfig(
        out_dir=args.out, n_tables=args.tables, corpus_seed=args.seed, epochs=args.epochs
    )

    t0 = time.time()
    _, g, entity_meta, pred_meta, embeddings, tables, split, tb_vocab, kb_vocab = build(cfg)
    hp = selector.SelectorHyperParams(
        dim_qis=32, dim_cn=8, dim_set=32, dim_chain=80,
        learning_rate=cfg.learning_rate, epochs=cfg.epochs,
    )
    train = [tables[tid] for tid in split.train]
    eval_ids = split.test if cfg.eval_split == "test" else split.validation
    heldout = [tables[tid] for tid in eval_ids]

    linear = selector.train_linear(train, tb_vocab, kb_vocab, hp)
    embedding = selector.train_embedding(train, tb_vocab, kb_vocab, hp, seed=cfg.train_seed)
    groups = harness.ranker_training_groups(
        train, g, entity_meta, pred_meta, embeddings, QueryBudget()
    )
    model = ranker.train_ranker(
        groups, ranker.RankerConfig(tree_count=cfg.tree_count, tree_depth=3)
    )
    print(f"trained selectors and ranker in {time.time() - t0:.1f}s")

    selectors = {
        "oracle": harness.OracleChainSelector(),
        "random": harness.RandomChainSelector(1),
        "jacsim": harness.ScorerChainSelector(
            selector.JaccardScorer(tb_vocab, kb_vocab), tb_vocab, kb_vocab, hp
        ),
        "linear": harness.ScorerChainSelector(linear, tb_vocab, kb_vocab, hp),
        "embedding": harness.ScorerChainSelector(embedding, tb_vocab, kb_vocab, hp),
    }
    rankers = {
        "rand": harness.RandomTupleRanker(1),
        "fr": harness.FeatureTupleRanker(model, entity_meta, pred_meta, embeddings),
    }

    print(f"\nchain selection Accuracy@1 ({cfg.eval_split} tables with negatives):")
    for name, s in selectors.items():
        print(f"  {name:10s} {harness.accuracy_at_1(heldout, s):.4f}")

    print("\nend-to-end scenarios [25-ile, 50-ile, mean, 75-ile]:")
    budget = QueryBudget()
    runs_by_selector = {}
    for sname, s in selectors.items():
        for rname, r in rankers.items():
            runs, summary = harness.run_e2e(heldout, g, s, r, budget)
            runs_by_selector[sname] = runs
            m = summary.metrics
            print(
                f"  [{sname:9s},{rname:4s}] "
                f"recall {tuple(round(v, 4) for v in m['tuple_recall'])}  "
                f"ndcg {tuple(round(v, 4) for v in m['ndcg'])}  "
                f"p@1 {m['p_at_1'][2]:.4f}  counts {summary.counts}"
            )

    print("\ncore-column C1 recall (mean, by selector):")
    for sname, runs in runs_by_selector.items():
        _, p1 = harness.core_column_eval(runs, tables, g, "p1")
        _, full = harness.core_column_eval(runs, tables, g, "full")
        print(f"  {sname:10s} p1 {p1['mean']:.4f}   full {full['mean']:.4f}")

    print(f"\ntotal {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
