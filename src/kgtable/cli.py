"""Command line entry point wiring the full pipeline.

Subcommands: build-dataset, train-selector, train-ranker, evaluate,
core-column-eval, complete, render-sparql. Every config key is exposed as
a flag (flags override the --config JSON file) and every subcommand is
idempotent given identical inputs and seed. build-dataset parses the KB,
word-embedding and type files once and compiles them into the dataset's
kb.bin; every later command opens that file, after checking the configured
files are the ones it was compiled from, and parses none of them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path

from . import dataset as ds
from . import harness, ranker, selector
from .config import RunConfig, config_defaults, load_config
from .dataset import ConfigurationError
from .graph import (
    EntityMetaStore,
    PredicateMetaStore,
    checked,
    load_entity_meta,
    load_predicate_meta,
    load_triples,
    read_json,
    string,
    strings,
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
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=f"cfg_{name}",
            type=type(default) if isinstance(default, (int, float)) else None,
            help=f"config key (default: {default!r})",
        )
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
    """The input files a compiled KB records, by config key."""
    if not cfg.graph_path:
        raise ConfigurationError("graph_path is required")
    return {
        "graph_path": cfg.graph_path,
        "entity_meta_path": cfg.entity_meta_path,
        "predicate_meta_path": cfg.predicate_meta_path,
        "embeddings_path": cfg.embeddings_path,
        "mid2types_path": cfg.mid2types_path,
        "fget_path": cfg.fget_path,
    }


def _load_kb(cfg: RunConfig) -> ds.CompiledKB:
    """The KB that build-dataset compiled into the dataset directory."""
    return ds.load_kb(cfg.dataset_dir, _kb_sources(cfg))


def _model_path(cfg: RunConfig, model: str) -> str:
    """``<model>_model_path``, else ``<model>.json`` beside the dataset the model was trained
    on, whose vocabularies selector.json is checked against: results never move a model."""
    return getattr(cfg, f"{model}_model_path") or str(Path(cfg.dataset_dir) / f"{model}.json")


def _make_selector(cfg: RunConfig, tb_vocab, kb_vocab):
    if cfg.selector == "oracle":
        return selector.OracleScorer()
    if cfg.selector == "random":
        return selector.RandomScorer(cfg.seed)
    if cfg.selector == "jacsim":
        return selector.JaccardScorer(tb_vocab, kb_vocab)
    if cfg.selector in ("linear", "embedding"):
        return selector.load_scorer(_model_path(cfg, "selector"), tb_vocab, kb_vocab)
    raise ConfigurationError(
        f"unknown selector {cfg.selector!r} (oracle, random, jacsim, linear, embedding)"
    )


def _make_tuple_ranker(cfg: RunConfig, entity_meta, pred_meta, embeddings):
    if cfg.ranker == "random":
        return harness.RandomTupleRanker(cfg.seed)
    if cfg.ranker == "feature":
        model = ranker.load_ranker(_model_path(cfg, "ranker"))
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
    embeddings = (
        ranker.PretrainedEmbeddings.load(cfg.embeddings_path)
        if cfg.embeddings_path
        else ranker.PretrainedEmbeddings({}, 1)
    )
    corpus = ds.read_corpus(cfg.corpus_path)
    url2mid = ds.read_tsv_map(cfg.url2mid_path)
    types_by_mid = ds.read_tsv_multimap(cfg.mid2types_path) if cfg.mid2types_path else {}
    fget_map = ds.read_tsv_map(cfg.fget_path) if cfg.fget_path else {}
    type_freq = ds.subject_type_freq(corpus, g, types_by_mid)
    sets = ds.subject_set_column(g, types_by_mid, type_freq, fget_map)
    kb = ds.CompiledKB(g, entity_meta, pred_meta, embeddings, *sets)
    try:
        tables, split, tb_vocab, kb_vocab, rejects = ds.build_corpus_dataset(
            corpus, kb, url2mid, cfg.build_settings(), cfg.seed)
    except ConfigurationError as exc:  # the corpus yields too few tables
        raise ConfigurationError(f"{cfg.corpus_path}: {exc}") from None
    ds.save_dataset(cfg.dataset_dir, tables, split, tb_vocab, kb_vocab, g)
    ds.save_kb(cfg.dataset_dir, kb, sources)
    print(
        f"annotated {len(tables)} tables "
        f"(train/val/test = {len(split.train)}/{len(split.validation)}/{len(split.test)}) "
        f"-> {cfg.dataset_dir}"
    )
    for reason in sorted(rejects):
        print(f"  rejected {rejects[reason]}: {reason}")
    return 0


def cmd_train_selector(cfg: RunConfig) -> int:
    selector.import_trainer(cfg.selector)
    g = _load_kb(cfg).graph
    tables, _, tb_vocab, kb_vocab = ds.load_dataset(cfg.dataset_dir, g, ("train",))
    train_tables = list(tables.values())
    if cfg.selector == "linear":
        scorer = selector.train_linear(train_tables, tb_vocab, kb_vocab)
    else:
        scorer = selector.train_embedding(
            train_tables, tb_vocab, kb_vocab, cfg.selector_hp(), cfg.seed
        )
    path = _model_path(cfg, "selector")
    selector.save_scorer(path, scorer)
    print(f"trained {cfg.selector} selector on {len(train_tables)} tables -> {path}")
    return 0


def cmd_train_ranker(cfg: RunConfig) -> int:
    g, entity_meta, pred_meta, embeddings, *_ = _load_kb(cfg)
    tables, *_ = ds.load_dataset(cfg.dataset_dir, g, ("train",))
    groups = harness.ranker_training_groups(
        list(tables.values()), g, entity_meta, pred_meta, embeddings, cfg.budget()
    )
    model = ranker.train_ranker(groups, cfg.ranker_cfg())
    path = _model_path(cfg, "ranker")
    ranker.save_ranker(path, model)
    print(f"trained ranker on {len(groups)} query groups -> {path}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    g, entity_meta, pred_meta, embeddings, *_ = _load_kb(cfg)
    tables, _, tb_vocab, kb_vocab = ds.load_dataset(cfg.dataset_dir, g, (cfg.eval_split,))
    chain_selector = _make_selector(cfg, tb_vocab, kb_vocab)
    tuple_ranker = _make_tuple_ranker(cfg, entity_meta, pred_meta, embeddings)
    runs, summary = harness.run_e2e(
        list(tables.values()), g, chain_selector, tuple_ranker, tb_vocab, kb_vocab, cfg.budget()
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
    g = _load_kb(cfg).graph
    tables, _, tb_vocab, kb_vocab = ds.load_dataset(cfg.dataset_dir, g, (cfg.eval_split,))
    chain_selector = _make_selector(cfg, tb_vocab, kb_vocab)
    runs, _ = harness.run_e2e(
        list(tables.values()), g, chain_selector, harness.RandomTupleRanker(cfg.seed),
        tb_vocab, kb_vocab, cfg.budget(),
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


def cmd_complete(cfg: RunConfig, query_path: str) -> int:
    if cfg.selector == "oracle":
        raise ConfigurationError(
            "the oracle selector needs labelled chains and complete's candidates have "
            "none; use jacsim, linear, embedding or random"
        )
    g, entity_meta, pred_meta, embeddings, subject_sets, subject_set_ids = _load_kb(cfg)
    query = read_json(query_path)
    with checked(query_path, 1):
        for key in ("se", "er1", "er2", "cn1", "cn2"):
            if key not in query:
                raise ValueError(f"missing {key!r}")
        for key in ("se", "er1", "er2"):
            if not isinstance(query[key], str) or query[key] not in g:
                raise ValueError(f"{key!r} {query[key]!r} is not an entity of the graph")
        se, er1, er2 = (g.entity_id(query[key]) for key in ("se", "er1", "er2"))
        given_set = () if query.get("set") is None else strings(query["set"], "set")
        se_name = string(query.get("se_name"), "se_name", "") or entity_meta.get(se).name
        qis_text, qd = (string(query.get(key), key, "") for key in ("qis", "qd"))
        if qis_text:
            qis = ds.normalize_text(qis_text)
        elif qd:
            qis = ds.build_qis(qd, "", se_name or qd)
        else:
            raise ValueError("needs either 'qis' or 'qd'")
        names = [string(query[key], key) for key in ("cn1", "cn2")]
        try:
            cn1, cn2 = ds.normalize_column_names(names)
        except ValueError as exc:
            raise ValueError(f"'cn1'/'cn2': {exc}") from None
    # A random pick reads no tokens: it needs no SET and no vocabularies.
    reads_tokens = cfg.selector != "random"
    set_tokens = (given_set or subject_sets[subject_set_ids[se]]) if reads_tokens else ()
    tuple_ranker = _make_tuple_ranker(cfg, entity_meta, pred_meta, embeddings)

    settings = cfg.build_settings()
    limits = (settings.max_path_len, settings.degree_cap, settings.banned_prefixes)
    p1s = enumerate_simple_paths(g, se, {er1}, *limits)
    p2s = enumerate_simple_paths(g, er1, {er2}, *limits)
    memo = {}  # the selected chain is executed from the join's reaches
    candidates = join_chains(g, se, p1s, p2s, memo)
    if not candidates:
        print(
            f"no connecting chain within length {settings.max_path_len}",
            file=sys.stderr,
        )
        return 1

    query_table = ds.AnnotatedTable(
        table_id="query", qis=qis, cn1=cn1, cn2=cn2, se=se,
        se_name=se_name, set_tokens=set_tokens, rr=((er1, er2),), chains=(),
    )
    tb_vocab, kb_vocab = (
        ds.load_vocabularies(cfg.dataset_dir) if reads_tokens
        else (ds.Vocabulary("TB_Vocab", ()), ds.Vocabulary("KB_Vocab", ()))
    )
    ctx = selector.context_for_table(query_table, tb_vocab, kb_vocab)
    chain_selector = _make_selector(cfg, tb_vocab, kb_vocab)
    encodings = [selector.encode_chain(c, kb_vocab) for c in candidates]
    best = candidates[selector.select_top1(chain_selector, ctx, encodings)]

    result = execute_chain(g, se, best, cfg.budget(), memo)
    if isinstance(result, BudgetExceeded):
        print(f"query exceeded its budget ({result.reason})", file=sys.stderr)
        return 1
    pairs, scores = harness.rank_retrieved(tuple_ranker, query_table, best, (er1, er2), result, 0)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "completed.tsv"
    with open(result_path, "w", encoding="utf-8") as fh:
        fh.write("rank\tc1\tc1_name\tc2\tc2_name\tscore\n")
        for i, (x, y) in enumerate(pairs, start=1):
            score = repr(scores[i - 1]) if scores is not None else ""
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


@functools.cache  # one per process: each parse_args starts from a fresh namespace
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
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
