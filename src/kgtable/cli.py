"""Command line entry point wiring the full pipeline.

Subcommands: build-dataset, train-selector, train-ranker, evaluate,
core-column-eval, complete, render-sparql. Every config key is exposed as
a flag (flags override the --config JSON file) and every subcommand is
idempotent given identical inputs and seed.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
from pathlib import Path

from . import dataset as ds
from . import harness, ranker, selector
from .config import RunConfig, config_defaults, load_config
from .dataset import ConfigurationError
from .graph import (
    EntityMetaStore,
    ParseError,
    PredicateMetaStore,
    load_entity_meta,
    load_predicate_meta,
    load_triples,
    read_json,
    write_json_lines,
)
from .paths import ChainPair, MetaPath, enumerate_simple_paths, join_chains
from .query import BudgetExceeded, execute_chain, render_sparql

gc.freeze()  # imports live as long as the process, so no collection need rescan them


def _config_flags() -> argparse.ArgumentParser:
    """A parent parser holding ``--config`` and one flag per config key."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="JSON config file; flags override it")
    for name, default in config_defaults().items():
        flag = "--" + name.replace("_", "-")
        kwargs: dict = {"dest": f"cfg_{name}", "help": f"config key (default: {default!r})"}
        if isinstance(default, int):
            kwargs["type"] = int
        elif isinstance(default, float):
            kwargs["type"] = float
        parser.add_argument(flag, **kwargs)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        name[len("cfg_"):]: value
        for name, value in vars(args).items()
        if name.startswith("cfg_") and value is not None
    }
    return load_config(args.config, overrides)


# -- shared loading -----------------------------------------------------------


def _kb_sources(cfg: RunConfig) -> dict[str, str]:
    """The KB files a compiled KB records, by config key."""
    if not cfg.graph_path:
        raise ConfigurationError("graph_path is required")
    return {
        "graph_path": cfg.graph_path,
        "entity_meta_path": cfg.entity_meta_path,
        "predicate_meta_path": cfg.predicate_meta_path,
    }


def _load_kb(cfg: RunConfig, meta: bool = True):
    """The KB that build-dataset compiled into the dataset directory."""
    return ds.load_kb(cfg.dataset_dir, _kb_sources(cfg), meta)


def _load_embeddings(cfg: RunConfig) -> ranker.PretrainedEmbeddings:
    if cfg.embeddings_path:
        return ranker.PretrainedEmbeddings.load(cfg.embeddings_path)
    return ranker.PretrainedEmbeddings({}, 1)


def _selector_model_path(cfg: RunConfig) -> str:
    return cfg.selector_model_path or str(Path(cfg.output_dir) / "selector.json")


def _ranker_model_path(cfg: RunConfig) -> str:
    return cfg.ranker_model_path or str(Path(cfg.output_dir) / "ranker.json")


def _make_scorer(cfg: RunConfig, tb_vocab, kb_vocab):
    if cfg.selector == "jacsim":
        return selector.JaccardScorer(tb_vocab, kb_vocab)
    if cfg.selector in ("linear", "embedding"):
        return selector.load_scorer(_selector_model_path(cfg), tb_vocab, kb_vocab)
    raise ConfigurationError(
        f"selector {cfg.selector!r} has no chain scorer (jacsim, linear, embedding)"
    )


def _make_chain_selector(cfg: RunConfig, tb_vocab, kb_vocab):
    if cfg.selector == "oracle":
        return harness.OracleChainSelector()
    if cfg.selector == "random":
        return harness.RandomChainSelector(cfg.seed)
    scorer = _make_scorer(cfg, tb_vocab, kb_vocab)
    return harness.ScorerChainSelector(scorer, tb_vocab, kb_vocab, cfg.selector_hp())


def _make_tuple_ranker(cfg: RunConfig, entity_meta, pred_meta, embeddings):
    if cfg.ranker == "random":
        return harness.RandomTupleRanker(cfg.seed)
    if cfg.ranker == "feature":
        model = ranker.load_ranker(_ranker_model_path(cfg))
        return harness.FeatureTupleRanker(model, entity_meta, pred_meta, embeddings)
    raise ConfigurationError(f"unknown ranker {cfg.ranker!r}")


# -- subcommands ----------------------------------------------------------------


def cmd_build_dataset(cfg: RunConfig) -> int:
    sources = _kb_sources(cfg)
    g = load_triples(cfg.graph_path)
    entity_meta = (
        load_entity_meta(cfg.entity_meta_path, g) if cfg.entity_meta_path else EntityMetaStore()
    )
    pred_meta = (
        load_predicate_meta(cfg.predicate_meta_path)
        if cfg.predicate_meta_path
        else PredicateMetaStore()
    )
    corpus = ds.read_corpus(cfg.corpus_path)
    url2mid = ds.read_tsv_map(cfg.url2mid_path)
    types_by_mid = ds.read_tsv_multimap(cfg.mid2types_path) if cfg.mid2types_path else {}
    fget_map = ds.read_tsv_map(cfg.fget_path) if cfg.fget_path else {}
    tables, split, tb_vocab, kb_vocab, type_freq, rejects = ds.build_corpus_dataset(
        corpus, g, url2mid, entity_meta, types_by_mid, fget_map,
        cfg.build_settings(), cfg.seed, cfg.k_negatives,
    )
    ds.save_dataset(cfg.dataset_dir, tables, split, tb_vocab, kb_vocab, g, type_freq)
    ds.save_kb(cfg.dataset_dir, g, entity_meta, pred_meta, sources)
    print(
        f"annotated {len(tables)} tables "
        f"(train/val/test = {len(split.train)}/{len(split.validation)}/{len(split.test)}) "
        f"-> {cfg.dataset_dir}"
    )
    for reason in sorted(rejects):
        print(f"  rejected {rejects[reason]}: {reason}")
    return 0


def cmd_train_selector(cfg: RunConfig) -> int:
    g, _, _ = _load_kb(cfg, meta=False)
    tables, split, tb_vocab, kb_vocab = ds.load_dataset(cfg.dataset_dir, g)
    train_tables = [tables[tid] for tid in split.train]
    hp = cfg.selector_hp()
    if cfg.selector == "linear":
        scorer = selector.train_linear(train_tables, tb_vocab, kb_vocab, hp, cfg.seed)
    elif cfg.selector == "embedding":
        scorer = selector.train_embedding(train_tables, tb_vocab, kb_vocab, hp, cfg.seed)
    else:
        raise ConfigurationError(
            f"selector {cfg.selector!r} is not trainable (use linear or embedding)"
        )
    path = _selector_model_path(cfg)
    selector.save_scorer(path, scorer)
    print(f"trained {cfg.selector} selector on {len(train_tables)} tables -> {path}")
    return 0


def cmd_train_ranker(cfg: RunConfig) -> int:
    g, entity_meta, pred_meta = _load_kb(cfg)
    tables, split, _, _ = ds.load_dataset(cfg.dataset_dir, g)
    embeddings = _load_embeddings(cfg)
    groups = harness.ranker_training_groups(
        [tables[tid] for tid in split.train], g, entity_meta, pred_meta, embeddings,
        cfg.budget(),
    )
    model = ranker.train_ranker(groups, cfg.ranker_cfg())
    path = _ranker_model_path(cfg)
    ranker.save_ranker(path, model)
    print(f"trained ranker on {len(groups)} query groups -> {path}")
    return 0


def _eval_tables(cfg: RunConfig, tables, split):
    if cfg.eval_split == "validation":
        ids = split.validation
    elif cfg.eval_split == "test":
        ids = split.test
    else:
        raise ConfigurationError(f"unknown eval_split {cfg.eval_split!r}")
    return [tables[tid] for tid in ids]


def cmd_evaluate(cfg: RunConfig) -> int:
    g, entity_meta, pred_meta = _load_kb(cfg)
    tables, split, tb_vocab, kb_vocab = ds.load_dataset(cfg.dataset_dir, g)
    embeddings = _load_embeddings(cfg)
    chain_selector = _make_chain_selector(cfg, tb_vocab, kb_vocab)
    tuple_ranker = _make_tuple_ranker(cfg, entity_meta, pred_meta, embeddings)
    eval_tables = _eval_tables(cfg, tables, split)
    runs, summary = harness.run_e2e(
        eval_tables, g, chain_selector, tuple_ranker, cfg.budget()
    )
    out = Path(cfg.output_dir)
    harness.write_runs(str(out / "runs.jsonl"), runs, g)
    harness.write_summary(str(out / "summary.json"), summary)
    harness.write_metrics_csv(str(out / "metrics.csv"), summary)
    total = sum(summary.counts.values())
    print(f"{cfg.eval_split}: {total} tabular queries, counts {summary.counts}")
    for name in sorted(summary.metrics):
        p25, p50, mean, p75 = summary.metrics[name]
        print(f"  {name}: 25-ile {p25:.4f}  50-ile {p50:.4f}  mean {mean:.4f}  75-ile {p75:.4f}")
    return 0


def cmd_core_column_eval(cfg: RunConfig) -> int:
    g, _, _ = _load_kb(cfg, meta=False)
    tables, split, tb_vocab, kb_vocab = ds.load_dataset(cfg.dataset_dir, g)
    chain_selector = _make_chain_selector(cfg, tb_vocab, kb_vocab)
    eval_tables = _eval_tables(cfg, tables, split)
    runs, _ = harness.run_e2e(
        eval_tables, g, chain_selector, harness.RandomTupleRanker(cfg.seed), cfg.budget()
    )
    payload = {}
    for mode in ("p1", "full"):
        recalls, stats = harness.core_column_eval(runs, tables, g, mode, cfg.budget())
        payload[mode] = {"summary": stats, "per_query": recalls}
        if stats:
            print(
                f"{mode}: mean C1 recall {stats['mean']:.4f} "
                f"(50-ile {stats['p50']:.4f}, 75-ile {stats['p75']:.4f})"
            )
    write_json_lines(Path(cfg.output_dir) / "core_column.json", [payload])
    return 0


def _derive_set_tokens(cfg: RunConfig, query: dict, se_mid: str) -> tuple[str, ...]:
    if query.get("set"):
        return tuple(query["set"])
    if cfg.mid2types_path:
        # Rank the subject's types by the build's frequencies, as build-dataset did.
        type_freq = ds.load_type_freq(cfg.dataset_dir)
        types_by_mid = ds.read_tsv_multimap(cfg.mid2types_path)
        fget_map = ds.read_tsv_map(cfg.fget_path) if cfg.fget_path else {}
        try:
            return ds.build_set(types_by_mid.get(se_mid, ()), type_freq, fget_map)
        except ValueError:
            pass
    return (ds.EMPTY_TOKEN,)


def cmd_complete(cfg: RunConfig, query_path: str) -> int:
    g, entity_meta, pred_meta = _load_kb(cfg)
    embeddings = _load_embeddings(cfg)
    query = read_json(query_path)
    for key in ("se", "er1", "er2", "cn1", "cn2"):
        if key not in query:
            raise ParseError(query_path, 1, f"missing {key!r}")
    for key in ("se", "er1", "er2"):
        mid = query[key]
        if not isinstance(mid, str) or mid not in g:
            raise ParseError(query_path, 1, f"{key!r} {mid!r} is not an entity of the graph")
    se, er1, er2 = (g.entity_id(query[key]) for key in ("se", "er1", "er2"))
    given_set = query.get("set") or []
    if not isinstance(given_set, list) or not all(isinstance(t, str) for t in given_set):
        raise ParseError(query_path, 1, "'set' must be a list of strings")
    se_name = query.get("se_name")
    if not isinstance(se_name, str | None):
        raise ParseError(query_path, 1, "'se_name' must be a string")
    se_name = se_name or entity_meta.get(se).name
    if query.get("qis"):
        qis = ds.normalize_text(str(query["qis"]))
    elif query.get("qd"):
        qis = ds.build_qis(str(query["qd"]), "", se_name or str(query["qd"]))
    else:
        raise ParseError(query_path, 1, "needs either 'qis' or 'qd'")
    try:
        cn1, cn2 = ds.normalize_column_names([str(query["cn1"]), str(query["cn2"])])
    except ValueError as exc:
        raise ParseError(query_path, 1, f"'cn1'/'cn2': {exc}") from exc
    # SET feeds only the chain scorers; a random pick reads no type frequencies.
    set_tokens = () if cfg.selector == "random" else _derive_set_tokens(cfg, query, query["se"])
    tuple_ranker = _make_tuple_ranker(cfg, entity_meta, pred_meta, embeddings)

    settings = cfg.build_settings()
    limits = (settings.max_path_len, settings.degree_cap, settings.banned_prefixes)
    p1s = enumerate_simple_paths(g, se, {er1}, *limits)
    p2s = enumerate_simple_paths(g, er1, {er2}, *limits)
    memo = {}  # the selected chain is executed from the join's reaches
    candidates = join_chains(g, se, p1s, p2s, memo)
    if not len(candidates):
        print(
            f"no connecting chain within length {settings.max_path_len}",
            file=sys.stderr,
        )
        return 1

    query_table = ds.AnnotatedTable(
        table_id="query", qis=qis, cn1=cn1, cn2=cn2, se=se,
        se_name=se_name, set_tokens=set_tokens, rr=((er1, er2),), chains=(),
    )
    if cfg.selector == "random":
        best_index = harness.RandomChainSelector(cfg.seed).choose(query_table, candidates, 0)
    else:
        tb_vocab, kb_vocab = ds.load_vocabularies(cfg.dataset_dir)
        hp = cfg.selector_hp()
        scorer = _make_scorer(cfg, tb_vocab, kb_vocab)
        ctx = selector.encode_context(qis, cn1, cn2, set_tokens, tb_vocab, kb_vocab, hp)
        best_index = selector.select_top1(scorer, ctx, candidates, kb_vocab, hp)
    best = candidates.chains[best_index]

    result = execute_chain(g, se, best, cfg.budget(), memo)
    if isinstance(result, BudgetExceeded):
        print(f"query exceeded its budget ({result.reason})", file=sys.stderr)
        return 1
    pairs = [p for p in result.ordered() if p != (er1, er2)]

    scores: list = []
    if isinstance(tuple_ranker, harness.FeatureTupleRanker) and pairs:
        feats = tuple_ranker.features_for(query_table, best, (er1, er2), pairs)
        predicted = tuple_ranker.model.predict(feats)
        order = ranker.rank(predicted, pairs)
        scores = [float(predicted[i]) for i in order]
        pairs = [pairs[i] for i in order]
    else:
        random.Random(cfg.seed).shuffle(pairs)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "completed.tsv"
    with open(result_path, "w", encoding="utf-8") as fh:
        fh.write("rank\tc1\tc1_name\tc2\tc2_name\tscore\n")
        for i, (x, y) in enumerate(pairs, start=1):
            score = repr(scores[i - 1]) if scores else ""
            fh.write(
                f"{i}\t{g.mid(x)}\t{entity_meta.get(x).name}\t"
                f"{g.mid(y)}\t{entity_meta.get(y).name}\t{score}\n"
            )
    print(f"selected chain: {best.canonical()}")
    print(f"wrote {len(pairs)} rows -> {result_path}")
    return 0


def cmd_render_sparql(cfg: RunConfig, se_mid: str, p1: str, p2: str) -> int:
    chain = ChainPair(MetaPath.parse(p1), MetaPath.parse(p2))
    sys.stdout.write(render_sparql(se_mid, chain))
    return 0


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgtable",
        description="Complete two-column entity tables from a knowledge graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Subparsers copy the config flags' actions instead of adding each again.
    config_flags = [_config_flags()]
    for name in (
        "build-dataset",
        "train-selector",
        "train-ranker",
        "evaluate",
        "core-column-eval",
    ):
        sub.add_parser(name, parents=config_flags)
    p = sub.add_parser("complete", parents=config_flags, help="resolve one tabular query file")
    p.add_argument("query_file", help="JSON file with qis/qd, se, cn1, cn2, er1, er2")
    p = sub.add_parser(
        "render-sparql", parents=config_flags, help="print the SPARQL text of a chain"
    )
    p.add_argument("--se", required=True, help="subject entity identifier")
    p.add_argument("--p1", required=True, help="first segment, e.g. 'a.b.c/^d.e.f'")
    p.add_argument("--p2", required=True, help="second segment")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "build-dataset":
            return cmd_build_dataset(cfg)
        if args.command == "train-selector":
            return cmd_train_selector(cfg)
        if args.command == "train-ranker":
            return cmd_train_ranker(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "core-column-eval":
            return cmd_core_column_eval(cfg)
        if args.command == "complete":
            return cmd_complete(cfg, args.query_file)
        if args.command == "render-sparql":
            return cmd_render_sparql(cfg, args.se, args.p1, args.p2)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, ParseError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
