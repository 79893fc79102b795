#!/usr/bin/env python3
"""Full experiment grid on a synthetic corpus, run through the kgtable command line.

Writes the corpus and its config as make_toy_data.py does, then runs every
stage through ``kgtable.cli.main`` with that config: build-dataset,
train-selector for the linear and the embedding selector, train-ranker,
evaluate for every (selector, ranker) pair and core-column-eval for every
selector. It prints chain-selection Accuracy@1, the tuple-recall/NDCG/P@1
grid read from each summary.json and the core-column retrieval comparison
read from each core_column.json. A command's own output is shown only when
it fails.

Usage:
    python scripts/run_experiment.py --out runs/exp --tables 100 --seed 7
"""

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

from kgtable import cli, harness
from kgtable import dataset as ds
from kgtable.config import load_config

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_toy_data import write_toy_data  # noqa: E402

SELECTORS = ("oracle", "random", "jacsim", "linear", "embedding")
TRAINED = ("linear", "embedding")
RANKERS = {"rand": "random", "fr": "feature"}  # grid label -> ranker


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/exp")
    parser.add_argument("--tables", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7, help="corpus seed")
    parser.add_argument("--epochs", type=int, help="selector epochs (default: the config's)")
    args = parser.parse_args()

    t0 = time.time()
    out = Path(args.out)
    config = str(write_toy_data(args.out, args.tables, args.seed))
    ranker_model = {"ranker_model_path": str(out / "models" / "ranker.json")}

    def settings(selector: str, ranker: str = "feature") -> dict:
        """The config keys that pick one (selector, ranker) pair and its model files."""
        values = {"selector": selector, "ranker": ranker, **ranker_model}
        if selector in TRAINED:
            values["selector_model_path"] = str(out / "models" / f"selector_{selector}.json")
        return values

    def run(command: str, values: dict, *extra: str) -> None:
        """``kgtable <command> --config <config>`` with ``values`` as flags."""
        argv = [command, "--config", config, *extra]
        for key, value in values.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            status = cli.main(argv)
        if status != 0:
            sys.stderr.write(captured.getvalue())
            raise SystemExit(f"kgtable {' '.join(argv)} exited with {status}")

    epochs = ["--epochs", str(args.epochs)] if args.epochs is not None else []
    run("build-dataset", {})
    for name in TRAINED:
        run("train-selector", settings(name), *epochs)
    run("train-ranker", ranker_model)
    print(f"built the dataset and trained selectors and ranker in {time.time() - t0:.1f}s")

    cfg = load_config(config)
    g = cli._load_kb(cfg).graph
    tables, _, tb_vocab, kb_vocab = ds.load_dataset(cfg.dataset_dir, g, (cfg.eval_split,))
    heldout = list(tables.values())
    print(f"\nchain selection Accuracy@1 ({cfg.eval_split} tables with negatives):")
    for name in SELECTORS:
        scorer = cli._make_selector(load_config(config, settings(name)), tb_vocab, kb_vocab)
        print(f"  {name:10s} {harness.accuracy_at_1(heldout, scorer, tb_vocab, kb_vocab):.4f}")

    print("\nend-to-end scenarios [25-ile, 50-ile, mean, 75-ile]:")
    for sname in SELECTORS:
        for rname, ranker in RANKERS.items():
            eval_dir = out / "eval" / f"{sname}-{rname}"
            run("evaluate", {**settings(sname, ranker), "output_dir": str(eval_dir)})
            summary = json.loads((eval_dir / "summary.json").read_text())
            m = {k: [round(v[q], 4) for q in ("p25", "p50", "mean", "p75")]
                 for k, v in summary["metrics"].items()}
            print(
                f"  [{sname:9s},{rname:4s}] recall {m['tuple_recall']}  ndcg {m['ndcg']}  "
                f"p@1 {summary['metrics']['p_at_1']['mean']:.4f}  counts {summary['counts']}"
            )

    print("\ncore-column C1 recall (mean, by selector):")
    for sname in SELECTORS:
        core_dir = out / "core" / sname
        run("core-column-eval", {**settings(sname), "output_dir": str(core_dir)})
        core = json.loads((core_dir / "core_column.json").read_text())
        p1, full = (core[mode]["summary"].get("mean", float("nan")) for mode in ("p1", "full"))
        print(f"  {sname:10s} p1 {p1:.4f}   full {full:.4f}")

    print(f"\ntotal {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
