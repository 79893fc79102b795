"""The benchmark's tracing wrappers install and come off cleanly.

``bench/tracing.py`` wraps kgtable functions by module and attribute name
and refuses to run when a kgtable module binds a wrapped function past its
wrapper. Installing the tracer here makes a renamed target or a new alias
fail the test suite in well under a second instead of aborting a traced
benchmark run. Running ``build-dataset``, ``train-selector``,
``train-ranker``, ``evaluate`` and ``complete`` under the tracer on a small
corpus checks that each still reaches every function the benchmark expects
it to call.
"""

import importlib.util
import json
from pathlib import Path

from kgtable import dataset as ds
from kgtable import harness, synth
from kgtable.cli import main
from kgtable.graph import load_triples

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    before = {
        (module, attr): tracing.Patches().resolve(module, attr)[2]
        for module, attr, *_ in tracing.TARGETS
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for (module, attr), raw in before.items():
        assert tracing.Patches().resolve(module, attr)[2] is raw, f"{module}.{attr}"


def test_pipeline_commands_reach_every_wrapped_function(tmp_path):
    data = synth.make_corpus(str(tmp_path / "data"), n_tables=20, seed=5)
    cfg = {
        "graph_path": data.graph,
        "entity_meta_path": data.entity_meta,
        "predicate_meta_path": data.predicate_meta,
        "corpus_path": data.corpus,
        "url2mid_path": data.url2mid,
        "mid2types_path": data.mid2types,
        "fget_path": data.fget,
        "embeddings_path": data.embeddings,
        "dataset_dir": str(tmp_path / "dataset"),
        "output_dir": str(tmp_path / "out"),
        "banned_prefixes": [],
        "dim_qis": 16, "dim_cn": 4, "dim_set": 16, "dim_chain": 40,
        "epochs": 1,
        "tree_count": 2,
        "tree_depth": 2,
        "seed": 3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    args = ["--config", str(cfg_path)]

    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["build-dataset", *args]) == 0
        assert main(["train-selector", *args]) == 0
        assert main(["train-ranker", *args]) == 0
        assert main(["evaluate", *args]) == 0
        # A query row that one of the table's chains connects.
        g = load_triples(data.graph)
        tables, *_ = ds.load_dataset(cfg["dataset_dir"], g)
        table = tables[sorted(tables)[0]]
        er = next(r for r in table.rr if harness.filter_cc_er(table, r, g))
        query = {
            "se": g.mid(table.se), "er1": g.mid(er[0]), "er2": g.mid(er[1]),
            "qd": " ".join(table.qis), "cn1": " ".join(table.cn1), "cn2": " ".join(table.cn2),
        }
        query_path = tmp_path / "query.json"
        query_path.write_text(json.dumps(query))
        assert main(["complete", str(query_path), *args]) == 0
    finally:
        tracer.uninstall()
    tracer.check_coverage(
        {"build-dataset", "train-selector", "train-ranker", "evaluate", "complete"}
    )
