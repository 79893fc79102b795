#!/usr/bin/env python3
"""Generate a synthetic corpus plus a ready-to-run config file and query file.

Usage:
    python scripts/make_toy_data.py --out runs/toy --tables 100 --seed 7
    kgtable build-dataset --config runs/toy/config.json
    ...
    kgtable complete runs/toy/query.json --config runs/toy/config.json
"""

import argparse
import json
from pathlib import Path

from kgtable import synth
from kgtable.dataset import read_tsv_map


def write_query(paths: synth.SynthPaths, path: Path) -> None:
    """A ``complete`` query file from the first table's first row whose two cells are linked."""
    url2mid = read_tsv_map(paths.url2mid)
    with open(paths.corpus, encoding="utf-8") as fh:
        table = json.loads(fh.readline())
    row = next(r for r in table["rows"] if all(cell.get("url") in url2mid for cell in r[:2]))
    query = {
        "qd": f"{table['page_title']} {table['caption']}",
        "se": table["se_mid"],
        "cn1": table["headers"][0],
        "cn2": table["headers"][1],
        "er1": url2mid[row[0]["url"]],
        "er2": url2mid[row[1]["url"]],
    }
    path.write_text(json.dumps(query, indent=2) + "\n")


def write_toy_data(out: str, n_tables: int, seed: int) -> Path:
    """Write the corpus under ``out/data``, its config and ``out/query.json``; return the
    config's path."""
    root = Path(out)
    paths = synth.make_corpus(str(root / "data"), n_tables=n_tables, seed=seed)
    config = {
        "graph_path": paths.graph,
        "entity_meta_path": paths.entity_meta,
        "predicate_meta_path": paths.predicate_meta,
        "corpus_path": paths.corpus,
        "url2mid_path": paths.url2mid,
        "mid2types_path": paths.mid2types,
        "fget_path": paths.fget,
        "embeddings_path": paths.embeddings,
        "dataset_dir": str(root / "dataset"),
        "output_dir": str(root / "out"),
        # The synthetic predicates never collide with the generic-prefix list,
        # and small embedding dimensions keep selector training quick.
        "banned_prefixes": [],
        "dim_qis": 32, "dim_cn": 8, "dim_set": 32, "dim_chain": 80,
        "learning_rate": 0.05,
        "epochs": 60,
        "tree_count": 30,
        "tree_depth": 3,
        "seed": 13,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n")
    write_query(paths, root / "query.json")
    return cfg_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/toy", help="output directory")
    parser.add_argument("--tables", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    cfg_path = write_toy_data(args.out, args.tables, args.seed)
    print(f"corpus with {args.tables} tables -> {Path(args.out) / 'data'}")
    print(f"config -> {cfg_path}")
    print(f"query -> {cfg_path.parent / 'query.json'}")


if __name__ == "__main__":
    main()
