import base64
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgtable import dataset as ds
from kgtable import cli, harness, ranker, selector, synth
from kgtable.cli import _kb_sources, main
from kgtable.config import RunConfig, config_defaults, load_config
from kgtable.dataset import BuildSettings, ConfigurationError
from kgtable.graph import (
    EntityMetaStore,
    KnowledgeGraph,
    PredicateMetaStore,
    load_entity_meta,
    load_triples,
)
from kgtable.paths import SEGMENT_SEPARATOR, ChainPair, MetaPath
from kgtable.query import QueryBudget
from kgtable.ranker import PretrainedEmbeddings, RankerConfig, RankerModel, save_ranker
from kgtable.selector import SelectorHyperParams


def save_kb(dataset, graph, meta=None, mid2types=None, type_freq=None):
    """Compile a graph file (an entity metadata file and a mid2types file, whose
    types rank by ``type_freq``) into ``dataset`` as build-dataset does."""
    g = load_triples(str(graph))
    entity_meta = load_entity_meta(str(meta), g) if meta else EntityMetaStore()
    types_by_mid = ds.read_tsv_multimap(str(mid2types)) if mid2types else {}
    sources = {
        "graph_path": str(graph),
        "entity_meta_path": str(meta) if meta else "",
        "predicate_meta_path": "",
        "embeddings_path": "",
        "mid2types_path": str(mid2types) if mid2types else "",
        "fget_path": "",
    }
    sets = ds.subject_set_column(g, types_by_mid, type_freq or {}, {})
    empty = PretrainedEmbeddings({}, 1)
    kb = ds.CompiledKB(g, entity_meta, PredicateMetaStore(), empty, *sets)
    ds.save_kb(str(dataset), kb, sources)


def b64(data):
    return base64.b64encode(data).decode("ascii")


def write_kb(path, header, body):
    """``header`` as one JSON line padded to 8 bytes, as save_kb writes it, then ``body``."""
    head = json.dumps(header)
    path.write_bytes((head + " " * (-(len(head) + 1) % 8) + "\n").encode() + bytes(body))


def edit_kb(change):
    """An edit of a ``kb.bin``: ``change(header, body)`` on its header and the body's bytes."""

    def edit(path):
        head, _, body = path.read_bytes().partition(b"\n")
        header, body = json.loads(head), bytearray(body)
        change(header, body)
        write_kb(path, header, body)

    return edit


def edit_column(key, change):
    """An edit of a ``kb.bin``: ``change(values, kb)`` on the values of column
    ``key``, where ``kb`` maps each header field and column name to its value;
    the columns are then laid out again as save_kb lays them out."""

    def edit(path):
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        columns = {k: np.frombuffer(body, dtype, count, offset)
                   for k, (dtype, offset, count) in header["columns"].items()}
        values = columns[key].tolist()
        change(values, {**header, **columns})
        columns[key] = np.asarray(values, columns[key].dtype)
        table, body = header["columns"], bytearray()
        for k, col in columns.items():
            table[k] = [col.dtype.str, len(body), col.size]
            body += col.tobytes() + bytes(-col.nbytes % 8)
        write_kb(path, header, body)

    return edit


def mid_count(kb):
    return len(kb["group_offsets"]) - 1


def repeat_a_token_code(codes, kb):
    """Give the second group of the first entity with two groups the first one's code."""
    offsets = kb["group_offsets"].tolist()
    first = next(a for a, b in zip(offsets, offsets[1:]) if b - a >= 2)
    codes[first + 1] = codes[first]


def retype(key, dtype):
    """An edit of a ``kb.bin``'s column table: column ``key`` read as ``dtype``, same bytes."""

    def change(header, body):
        old, offset, count = header["columns"][key]
        size = count * np.dtype(old).itemsize
        header["columns"][key] = [dtype, offset, size // np.dtype(dtype).itemsize]

    return edit_kb(change)


def write_query(cfg, path):
    """A query file holding the first row of the first test table."""
    g = load_triples(cfg["graph_path"])
    tables, split, *_ = ds.load_dataset(cfg["dataset_dir"], g)
    table = tables[split.test[0]]
    er1, er2 = table.rr[0]
    path.write_text(json.dumps({
        "qd": " ".join(table.qis), "se": g.mid(table.se), "cn1": " ".join(table.cn1),
        "cn2": " ".join(table.cn2), "er1": g.mid(er1), "er2": g.mid(er2),
    }))
    return path


def query_fields(table):
    """What a table tells the selector of its query: QIS, column names and SET."""
    return table.qis, table.cn1, table.cn2, table.set_tokens


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small corpus plus a config file, with dataset and models built once."""
    root = tmp_path_factory.mktemp("cli")
    data = synth.make_corpus(str(root / "data"), n_tables=30, seed=11)
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
        "selector": "linear",
        "dim_qis": 16, "dim_cn": 4, "dim_set": 16, "dim_chain": 40,
        "learning_rate": 0.05,
        "epochs": 12,
        "tree_count": 10,
        "tree_depth": 3,
        "seed": 13,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["build-dataset", "--config", str(cfg_path)]) == 0
    assert main(["train-selector", "--config", str(cfg_path)]) == 0
    assert main(["train-ranker", "--config", str(cfg_path)]) == 0
    return root, cfg_path, cfg


class TestPipelineCommands:
    def test_artifacts_exist(self, workspace):
        root, _, cfg = workspace
        for name in ("tables.jsonl", "split.json", "vocab_tb.json", "vocab_kb.json"):
            assert (Path(cfg["dataset_dir"]) / name).exists()
        assert (Path(cfg["dataset_dir"]) / "selector.json").exists()
        assert (Path(cfg["dataset_dir"]) / "ranker.json").exists()

    def test_evaluate_writes_reports(self, workspace, capsys):
        root, cfg_path, cfg = workspace
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "tuple_recall" in out
        for name in ("runs.jsonl", "summary.json", "metrics.csv"):
            assert (Path(cfg["output_dir"]) / name).exists()

    def test_moved_results_read_the_trained_models(self, workspace, tmp_path):
        """Where results go does not decide which model evaluate and complete read."""
        _, cfg_path, cfg = workspace
        query = write_query(cfg, tmp_path / "query.json")
        runs = []
        for out in (Path(cfg["output_dir"]), tmp_path / "moved"):
            flags = ["--config", str(cfg_path), "--output-dir", str(out)]
            assert main(["evaluate", *flags]) == 0
            assert main(["complete", str(query), *flags]) == 0
            runs.append([(out / name).read_bytes() for name in ("runs.jsonl", "completed.tsv")])
        assert runs[0] == runs[1]

    def test_evaluate_is_idempotent(self, workspace):
        root, cfg_path, cfg = workspace
        out = Path(cfg["output_dir"])
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        first = {n: (out / n).read_bytes() for n in ("runs.jsonl", "summary.json")}
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_a_command_tokenizes_each_distinct_chain_once(self, workspace, tmp_path, monkeypatch):
        """Both trainers and evaluate tokenize a chain's text once, however
        many tables hold the chain. Evaluate runs on all but the validation
        tables, so that the tables it runs on share chains."""
        _, cfg_path, cfg = workspace
        dataset = tmp_path / "dataset"
        shutil.copytree(cfg["dataset_dir"], dataset)
        split = json.loads((dataset / "split.json").read_text())
        lines = (dataset / "tables.jsonl").read_text().splitlines(keepends=True)
        n_train, n_val = split["train"], split["validation"]
        # The validation block first, then the train and test blocks as one test block.
        lines = lines[n_train:n_train + n_val] + lines[:n_train] + lines[n_train + n_val:]
        (dataset / "tables.jsonl").write_text("".join(lines))
        split.update(train=0, test=len(lines) - n_val)
        (dataset / "split.json").write_text(json.dumps(split))
        texts, original = [], ds.tokenize

        def tokenize(text):
            texts.append(text)
            return original(text)

        monkeypatch.setattr(ds, "tokenize", tokenize)
        model = ["--selector-model-path", str(tmp_path / "selector.json")]
        for argv in (
            ["train-selector", "--selector", "embedding", "--epochs", "1", *model],
            ["train-selector", "--selector", "linear", *model],
            ["evaluate", "--selector", "linear", *model, "--dataset-dir", str(dataset),
             "--output-dir", str(tmp_path / "out")],
        ):
            texts.clear()
            assert main([*argv, "--config", str(cfg_path)]) == 0
            chains = Counter(t for t in texts if SEGMENT_SEPARATOR in t)
            assert chains and max(chains.values()) == 1, (argv[0], chains.most_common(1))

    def test_core_column_eval(self, workspace, capsys):
        root, cfg_path, cfg = workspace
        assert main(["core-column-eval", "--config", str(cfg_path), "--selector", "jacsim"]) == 0
        payload = json.loads((Path(cfg["output_dir"]) / "core_column.json").read_text())
        per_p1 = payload["p1"]["per_query"]
        per_full = payload["full"]["per_query"]
        assert per_p1 and len(per_p1) == len(per_full)
        assert all(a >= b - 1e-12 for a, b in zip(per_p1, per_full))

    def test_core_column_eval_budgets_the_p1_prefixes(self, tmp_path, capsys):
        # P1 reaches five entities; the chain retrieves the table's two rows.
        triples = [("se", "p", f"x{i}") for i in range(5)]
        triples += [("x0", "q", "y0"), ("x1", "q", "y1")]
        graph = tmp_path / "graph.tsv"
        graph.write_text("".join(f"{s}\t{p}\t{o}\n" for s, p, o in triples))
        g = KnowledgeGraph(triples)
        chain = ChainPair(MetaPath.parse("p"), MetaPath.parse("q"))
        table = ds.AnnotatedTable(
            table_id="wide", qis=(), cn1=(), cn2=(), se=g.entity_id("se"), se_name="SE",
            set_tokens=(), rr=tuple((g.entity_id(f"x{i}"), g.entity_id(f"y{i}")) for i in (0, 1)),
            chains=(ds.LabeledChain(chain, True, 1.0, 1.0, 1.0),),
        )
        dataset = tmp_path / "dataset"
        ds.save_dataset(
            str(dataset), {"wide": table}, ds.DatasetSplit((), (), ("wide",), 0),
            ds.Vocabulary("TB_Vocab", ()), ds.Vocabulary("KB_Vocab", ()), g,
        )
        save_kb(dataset, graph)
        out = tmp_path / "out"
        argv = [
            "core-column-eval", "--graph-path", str(graph), "--dataset-dir", str(dataset),
            "--selector", "oracle", "--output-dir", str(out),
        ]
        per_query = {}
        for max_rows in ("3", "5"):
            assert main([*argv, "--max-rows", max_rows]) == 0
            payload = json.loads((out / "core_column.json").read_text())
            assert payload["full"]["per_query"] == [1.0, 1.0]
            per_query[max_rows] = payload["p1"]["per_query"]
        assert per_query == {"3": [0.0, 0.0], "5": [1.0, 1.0]}

    def test_flag_overrides_config(self, workspace, capsys):
        root, cfg_path, cfg = workspace
        assert main(["evaluate", "--config", str(cfg_path), "--eval-split", "validation"]) == 0
        assert "validation:" in capsys.readouterr().out

    def test_repeated_completes_freeze_nothing_and_keep_the_heap_flat(self, workspace, tmp_path):
        # Only the imports are frozen; one command's garbage must stay collectable.
        _, cfg_path, cfg = workspace
        query = write_query(cfg, tmp_path / "query.json")
        argv = ["complete", str(query), "--config", str(cfg_path)]
        frozen, tracked = [], []
        for _ in range(30):
            assert main(argv) == 0
            gc.collect()
            frozen.append(gc.get_freeze_count())
            tracked.append(len(gc.get_objects()))
        assert frozen == [frozen[0]] * 30
        assert max(tracked) - tracked[0] < 500, tracked


class TestCompleteCommand:
    @pytest.fixture()
    def tv_world(self, tmp_path):
        """A television gadget: the subject series is reached via inverse edges."""
        triples = [
            ("m.0311dg", "tv.tv_actor.starring_roles", "m.role1"),
            ("m.role1", "tv.regular_tv_appearance.character", "m.0h1c2m"),
            ("m.role1", "tv.regular_tv_appearance.series", "m.02dzsr"),
            ("m.actor2", "tv.tv_actor.starring_roles", "m.role2"),
            ("m.role2", "tv.regular_tv_appearance.character", "m.char2"),
            ("m.role2", "tv.regular_tv_appearance.series", "m.02dzsr"),
            ("m.02dzsr", "common.topic.webpage", "m.junkpage"),
            # An island, unreachable from the television gadget.
            ("m.lonely", "misc.note.tag", "m.lonely2"),
        ]
        graph = tmp_path / "graph.tsv"
        graph.write_text("".join(f"{s}\t{p}\t{o}\n" for s, p, o in triples))
        meta = tmp_path / "meta.jsonl"
        meta.write_text(
            "".join(
                json.dumps({"mid": m, "name": n}) + "\n"
                for m, n in [
                    ("m.02dzsr", "CSI: Miami"),
                    ("m.0311dg", "Emily Procter"),
                    ("m.0h1c2m", "Calleigh Duquesne"),
                    ("m.actor2", "Adam Rodriguez"),
                    ("m.char2", "Eric Delko"),
                ]
            )
        )
        save_kb(tmp_path / "dataset", graph, meta)
        kb_args = [
            "--graph-path", str(graph), "--entity-meta-path", str(meta),
            "--dataset-dir", str(tmp_path / "dataset"),
        ]
        query = tmp_path / "query.json"
        query.write_text(
            json.dumps(
                {
                    "qd": "CSI: Miami Season 5 Notable Cast Members",
                    "se": "m.02dzsr",
                    "cn1": "Actor",
                    "cn2": "Character",
                    "er1": "m.0311dg",
                    "er2": "m.0h1c2m",
                }
            )
        )
        return tmp_path, kb_args, query

    def test_completes_with_the_second_pair_on_top(self, tv_world, capsys):
        tmp_path, kb_args, query = tv_world
        code = main(
            [
                "complete", str(query),
                *kb_args,
                "--selector", "random",
                "--ranker", "random",
                "--output", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The banned-prefix webpage edge never reaches the chain set.
        assert "^tv.regular_tv_appearance.series/^tv.tv_actor.starring_roles" in out
        lines = (tmp_path / "out" / "completed.tsv").read_text().splitlines()
        assert len(lines) == 2  # header plus exactly one completion row
        rank, c1, c1_name, c2, c2_name, _ = lines[1].split("\t")
        assert (c1, c2) == ("m.actor2", "m.char2")
        assert (c1_name, c2_name) == ("Adam Rodriguez", "Eric Delko")

    def test_disconnected_example_row_fails_with_diagnostic(self, tv_world, capsys):
        tmp_path, kb_args, query = tv_world
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "qd": "whatever",
                    "se": "m.02dzsr",
                    "cn1": "Actor",
                    "cn2": "Character",
                    "er1": "m.0311dg",
                    "er2": "m.lonely",
                }
            )
        )
        code = main(
            [
                "complete", str(bad),
                *kb_args,
                "--selector", "random",
                "--ranker", "random",
                "--output", str(tmp_path / "out2"),
            ]
        )
        assert code == 1
        assert "no connecting chain within length 3" in capsys.readouterr().err

    def test_truncated_query_file_exits_2_with_file_and_line(self, tv_world, capsys):
        tmp_path, kb_args, query = tv_world
        query.write_text('{"qd": "whatever",\n')
        argv = ["complete", str(query), *kb_args, "--selector", "random"]
        assert main(argv) == 2
        assert f"{query}:2: bad JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"er2": "m.nope"}, "'er2' 'm.nope' is not an entity of the graph"),
            ({"se": ["m.02dzsr"]}, "'se' ['m.02dzsr'] is not an entity of the graph"),
            ({"se": None}, "'se' None is not an entity of the graph"),
            ({"cn1": ...}, "missing 'cn1'"),
            # The query is the six keys; an older file's SET, name or QIS is refused.
            ({"set": 5}, "unknown key 'set'"),
            ({"set": ["tv", 1]}, "unknown key 'set'"),
            *[({"set": v}, "unknown key 'set'") for v in ("", 0, False, {})],
            ({"set": None}, "unknown key 'set'"),
            ({"set": ["tv"]}, "unknown key 'set'"),
            ({"se_name": 5}, "unknown key 'se_name'"),
            ({"se_name": "CSI: Miami"}, "unknown key 'se_name'"),
            ({"cn2": ""}, "'cn1'/'cn2': empty column name after normalization"),
            ({"cn1": None}, "'cn1' must be a string"),
            ({"cn2": ["a", "b"]}, "'cn2' must be a string"),
            ({"qis": 7}, "unknown key 'qis'"),
            ({"qis": "cast"}, "unknown key 'qis'"),
            ({"title": "CSI", "qis": "cast"}, "unknown key 'qis'"),
            ({"title": "CSI"}, "unknown key 'title'"),
            ({"qd": 7}, "'qd' must be a string"),
            ({"qd": ...}, "missing 'qd'"),
            ({"qd": None}, "'qd' must be a string"),
            ({"qd": ""}, "'qd' is empty"),
        ],
        ids=[
            "unknown-entity", "entity-a-list", "entity-null", "missing-key", "set-a-number",
            "set-item-a-number", "set-empty-string", "set-zero", "set-false", "set-empty-object",
            "set-null", "set-a-list", "se-name-a-number", "se-name-a-string", "column-name-empty",
            "column-name-null", "column-name-a-list", "qis-a-number", "qis-a-string",
            "first-unknown-key", "other-key", "qd-a-number", "qd-missing", "qd-null", "qd-empty",
        ],
    )
    def test_bad_query_exits_2_naming_the_query_file(self, tv_world, capsys, edit, message):
        # ``...`` drops the key.
        tmp_path, kb_args, query = tv_world
        fields = {**json.loads(query.read_text()), **edit}
        query.write_text(json.dumps({k: v for k, v in fields.items() if v is not ...}))
        argv = ["complete", str(query), *kb_args, "--selector", "random"]
        assert main(argv) == 2
        assert f"{query}:1: {message}" in capsys.readouterr().err

    def test_unknown_ranker_exits_2_as_in_evaluate(self, tv_world, capsys):
        tmp_path, kb_args, query = tv_world
        argv = [
            "complete", str(query), *kb_args, "--selector", "random",
            "--ranker", "bogus", "--output-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 2
        assert "error: unknown ranker 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oracle_selector_exits_2_since_candidates_carry_no_labels(self, tv_world, capsys):
        tmp_path, kb_args, query = tv_world
        argv = [
            "complete", str(query), *kb_args, "--selector", "oracle", "--ranker", "random",
            "--output-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 2
        assert "error: the oracle selector needs labelled chains" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_same_seed_runs_are_byte_identical(self, tv_world):
        tmp_path, kb_args, query = tv_world
        blobs = []
        for sub in ("o1", "o2"):
            assert main(
                [
                    "complete", str(query),
                    *kb_args,
                    "--selector", "random",
                    "--ranker", "random",
                    "--seed", "21",
                    "--output", str(tmp_path / sub),
                ]
            ) == 0
            blobs.append((tmp_path / sub / "completed.tsv").read_bytes())
        assert blobs[0] == blobs[1]


class TestTrainServeParity:
    def test_training_evaluate_and_complete_featurize_the_same_candidates(
        self, tmp_path, monkeypatch
    ):
        """One (table, chain, example row): every path drops the row before featurizing."""
        triples = [("se", "p", f"x{i}") for i in range(3)]
        triples += [(f"x{i}", "q", f"y{i}") for i in range(3)]
        graph = tmp_path / "graph.tsv"
        graph.write_text("".join(f"{s}\t{p}\t{o}\n" for s, p, o in triples))
        g = KnowledgeGraph(triples)
        rr = tuple((g.entity_id(f"x{i}"), g.entity_id(f"y{i}")) for i in range(3))
        chain = ChainPair(MetaPath.parse("p"), MetaPath.parse("q"))
        table = ds.AnnotatedTable(
            table_id="w", qis=("cast",), cn1=("actor",), cn2=("role",), se=g.entity_id("se"),
            se_name="SE", set_tokens=(), rr=rr,
            chains=(ds.LabeledChain(chain, True, 1.0, 1.0, 1.0),),
        )
        dataset = tmp_path / "dataset"
        no_vocabs = (ds.Vocabulary("TB_Vocab", ()), ds.Vocabulary("KB_Vocab", ()))
        ds.save_dataset(
            str(dataset), {"w": table}, ds.DatasetSplit(("w",), (), (), 0), *no_vocabs, g
        )
        save_kb(dataset, graph)
        model = RankerModel([], 0.1, 1.0)
        save_ranker(str(tmp_path / "ranker.json"), model)

        seen = []
        features_for = harness.FeatureTupleRanker.features_for

        def recording(self, table, chain, er, pairs):
            seen.append((chain.canonical(), er, list(pairs)))
            return features_for(self, table, chain, er, pairs)

        monkeypatch.setattr(harness.FeatureTupleRanker, "features_for", recording)
        harness.ranker_training_groups(
            [table], g, EntityMetaStore(), PredicateMetaStore(), PretrainedEmbeddings({}, 1)
        )
        ranker = harness.FeatureTupleRanker(
            model, EntityMetaStore(), PredicateMetaStore(), PretrainedEmbeddings({}, 1)
        )
        harness.run_e2e([table], g, selector.OracleScorer(), ranker, *no_vocabs)
        del seen[2:]  # evaluate's later runs take the other rows as the example
        query = tmp_path / "query.json"
        query.write_text(json.dumps(
            {"qd": "cast", "se": "se", "er1": "x0", "er2": "y0", "cn1": "actor", "cn2": "role"}
        ))
        assert main([
            "complete", str(query), "--graph-path", str(graph), "--dataset-dir", str(dataset),
            "--selector", "random", "--ranker-model-path", str(tmp_path / "ranker.json"),
            "--output-dir", str(tmp_path / "out"),
        ]) == 0
        assert seen == [("p / q", rr[0], [rr[1], rr[2]])] * 3

    def test_complete_derives_each_tables_query_fields_as_the_build_did(
        self, workspace, tmp_path, monkeypatch
    ):
        """A query written from a corpus record, as a user would write it, gives
        the QIS, column names and SET the build annotated that table with."""
        _, cfg_path, cfg = workspace
        g = load_triples(cfg["graph_path"])
        tables, *_ = ds.load_dataset(cfg["dataset_dir"], g)
        seen = []
        context_for_table = selector.context_for_table
        monkeypatch.setattr(
            selector, "context_for_table",
            lambda table, *a: seen.append(query_fields(table)) or context_for_table(table, *a),
        )
        query = tmp_path / "query.json"
        want = []
        for raw in ds.read_corpus(cfg["corpus_path"]):
            if raw.table_id not in tables:  # rejected by the build
                continue
            table = tables[raw.table_id]
            er = next((r for r in table.rr if harness.filter_cc_er(table, r, g)), None)
            if er is None:
                continue
            query.write_text(json.dumps({
                "qd": f"{raw.page_title} {raw.caption}", "se": raw.se_mid,
                "cn1": raw.headers[0], "cn2": raw.headers[1],
                "er1": g.mid(er[0]), "er2": g.mid(er[1]),
            }))
            flags = ["--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]
            assert main(["complete", str(query), *flags]) == 0
            want.append(query_fields(table))
        assert len(want) > len(tables) // 2 and seen == want


class TestSubjectTypes:
    """``complete`` reads the subject's SET that the build compiled from its types."""

    @pytest.fixture()
    def typed_world(self, tmp_path):
        # Among the corpus's subjects x.rare is rarer than x.common; over every
        # entity of mid2types it is the other way round.
        types = tmp_path / "mid2types.tsv"
        rows = [("s1", "x.rare"), ("s1", "x.common"), ("s2", "x.common"), ("s3", "x.common")]
        rows += [(f"o{i}", "x.rare") for i in range(5)]
        types.write_text("".join(f"{m}\t{t}\n" for m, t in rows))
        graph = tmp_path / "graph.tsv"
        graph.write_text("s1\tp\ts2\ns2\tp\ts3\ns3\tq\tbase.thing\n")
        g = load_triples(str(graph))
        corpus = [
            ds.RawTable(f"t{i}", "", "", ("a", "b"), (), se_mid=mid)
            for i, mid in enumerate(("s1", "s2", "s3"))
        ]
        type_freq = ds.subject_type_freq(corpus, g, ds.read_tsv_multimap(str(types)))
        assert type_freq == {"x.rare": 1, "x.common": 3}
        dataset = tmp_path / "dataset"
        save_kb(dataset, graph, mid2types=types, type_freq=type_freq)
        return RunConfig(
            graph_path=str(graph), mid2types_path=str(types), dataset_dir=str(dataset)
        )

    def test_build_counts_subjects_without_a_specific_type_as_rejects(self, tmp_path, capsys):
        data = synth.make_corpus(str(tmp_path / "data"), n_tables=14, seed=5)
        subjects = [raw.se_mid for raw in ds.read_corpus(data.corpus)]
        generic, untyped = subjects[:2]
        types = Path(data.mid2types)
        rows = [line.split("\t") for line in types.read_text().splitlines()]
        rows = [(m, t) for m, t in rows if m not in (generic, untyped)]
        rows += [(generic, "base.thing"), (generic, "common.topic"), (generic, "type.object")]
        types.write_text("".join(f"{m}\t{t}\n" for m, t in rows))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "graph_path": data.graph, "entity_meta_path": data.entity_meta,
            "corpus_path": data.corpus, "url2mid_path": data.url2mid,
            "mid2types_path": data.mid2types, "dataset_dir": str(tmp_path / "dataset"),
            "banned_prefixes": [],
        }))
        assert main(["build-dataset", "--config", str(cfg)]) == 0
        rejected = subjects.count(generic) + subjects.count(untyped)
        out = capsys.readouterr().out
        assert f"  rejected {rejected}: no specific entity type survives pruning\n" in out
        assert f"annotated {len(subjects) - rejected} tables" in out

    def test_set_comes_from_the_saved_build_frequencies(self, typed_world):
        kb = ds.load_kb(typed_world.dataset_dir, _kb_sources(typed_world))
        sets = {
            kb.graph.mid(e): kb.subject_sets[kb.subject_set_ids[e]] for e in range(len(kb.graph))
        }
        # An entity without a specific type reads as the empty token.
        assert sets == {
            "s1": ("x", "rare"), "s2": ("x", "common"), "s3": ("x", "common"),
            "base.thing": (ds.EMPTY_TOKEN,),
        }

    def test_built_tables_agree_with_serving_time_set(self, workspace, tmp_path, monkeypatch):
        _, cfg_path, cfg = workspace
        kb = ds.load_kb(cfg["dataset_dir"], _kb_sources(load_config(str(cfg_path))))
        g = kb.graph
        tables, *_ = ds.load_dataset(cfg["dataset_dir"], g)
        for table in tables.values():
            assert kb.subject_sets[kb.subject_set_ids[table.se]] == table.set_tokens
        # And through complete: the query table it builds for one connected
        # row of each table carries the SET the build gave that table.
        seen = []
        context_for_table = selector.context_for_table
        monkeypatch.setattr(
            selector, "context_for_table",
            lambda table, *a: seen.append(table.set_tokens) or context_for_table(table, *a),
        )
        query = tmp_path / "query.json"
        want = []
        for table in tables.values():
            er = next((r for r in table.rr if harness.filter_cc_er(table, r, g)), None)
            if er is None:
                continue
            query.write_text(json.dumps({
                "se": g.mid(table.se), "er1": g.mid(er[0]), "er2": g.mid(er[1]),
                "qd": " ".join(table.qis), "cn1": " ".join(table.cn1), "cn2": " ".join(table.cn2),
            }))
            flags = ["--output-dir", str(tmp_path / "out")]
            assert main(["complete", str(query), "--config", str(cfg_path), *flags]) == 0
            want.append(table.set_tokens)
        assert len(want) > len(tables) // 2 and seen == want


class TestCompiledKB:
    """Serving commands load the KB that build-dataset compiled, and only that one."""

    SERVING = ("train-selector", "train-ranker", "evaluate", "core-column-eval", "complete")

    def _serving_argvs(self, cfg_path, query, *flags):
        for command in self.SERVING:
            head = [command, str(query)] if command == "complete" else [command]
            yield [*head, "--config", str(cfg_path), *flags]

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("graph_path", lambda text: text + "m.new\tp\tm.other\n"),
            ("entity_meta_path", lambda text: text.replace('"name"', '"name" ', 1)),
            ("predicate_meta_path", lambda text: "\n" + text),
            ("entity_meta_path", None),
            ("embeddings_path", lambda text: text.replace(" ", "  ", 1)),
            ("mid2types_path", lambda text: "\n" + text),
            ("fget_path", lambda text: "\n" + text),
            # Without the types it was built with, serving would read every SET as empty.
            ("mid2types_path", None),
        ],
        ids=["graph", "entity-meta", "predicate-meta", "entity-meta-unset", "embeddings",
             "mid2types", "fget", "mid2types-unset"],
    )
    def test_changed_kb_files_make_every_serving_command_ask_for_a_rebuild(
        self, workspace, tmp_path, capsys, key, edit
    ):
        _, cfg_path, cfg = workspace
        query = write_query(cfg, tmp_path / "query.json")
        edited = ""
        if edit is not None:
            edited = str(tmp_path / Path(cfg[key]).name)
            Path(edited).write_text(edit(Path(cfg[key]).read_text()))
        flag = "--" + key.replace("_", "-")
        out = ["--output-dir", str(tmp_path / "out")]
        kb = Path(cfg["dataset_dir"]) / ds.KB_FILE
        for argv in self._serving_argvs(cfg_path, query, flag, edited, *out):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"{kb} was not compiled from {key} = {edited or 'no file'}" in err, argv[0]
            assert "rebuild the dataset with build-dataset" in err
        assert not (tmp_path / "out").exists()

    PAST_THE_END = "is misaligned, overlaps another or runs past the end"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (None, "kb.bin is missing; rebuild the dataset with build-dataset"),
            ("truncate", "kb.bin:1: bad JSON"),
            (edit_kb(lambda h, body: h["columns"].pop("mids")),
             "kb.bin:1: bad compiled KB: KeyError('mids')"),
            (edit_column("neighbour_ids", lambda col, kb: col.__setitem__(0, mid_count(kb))),
             "neighbour_ids holds a value outside 0.."),
            (edit_column("neighbour_ids", lambda col, kb: col.__setitem__(0, -1)),
             "neighbour_ids holds a value outside 0.."),
            (retype("neighbour_ids", "|u1"), "column neighbour_ids is not <i4"),
            (edit_column(
                "token_codes", lambda col, kb: col.__setitem__(0, 2 * len(kb["predicates"]))
            ), "token_codes holds a value outside 0.."),
            (edit_column("group_offsets", lambda col, kb: col.pop()),
             "group_offsets are not"),
            (edit_kb(lambda h, body: h["sources"].clear()),
             "rebuild the dataset with build-dataset"),
            # A sources entry that is not [sha256, signature], such as a bare sha256.
            (edit_kb(lambda h, body: h["sources"].update(graph_path=h["sources"]["graph_path"][0])),
             "was not compiled from graph_path"),
            (edit_kb(lambda h, body: h["sources"].update(graph_path=7)),
             "was not compiled from graph_path"),
            (edit_column("meta_entities", lambda col, kb: col.__setitem__(0, mid_count(kb))),
             "meta_entities holds a value outside 0.."),
            (retype("names", "<i4"), "column names is not |u1"),
            # A column table entry of another shape than [dtype, offset, count].
            (edit_kb(lambda h, body: h["columns"].update(
                names=dict(zip(("dtype", "offset", "count"), h["columns"]["names"]))
            )), "kb.bin:1: bad compiled KB: TypeError"),
            # Negative indices would pick the last description or type set.
            (edit_column("meta_descriptions", lambda col, kb: col.__setitem__(0, -1)),
             "meta_descriptions holds a value outside 0.."),
            (edit_column("predicate_type_sets", lambda col, kb: col.__setitem__(0, -1)),
             "predicate_type_sets holds a value outside 0.."),
            (edit_kb(lambda h, body: body.__setitem__(h["columns"]["names"][1], 0xFF)),
             "'utf-8' codec can't decode byte 0xff"),
            (edit_column("neighbour_offsets", lambda col, kb: col.__setitem__(0, 1)),
             "neighbour_offsets are not"),
            (edit_column("neighbour_offsets", lambda col, kb: col.__setitem__(2, col[1] - 1)),
             "neighbour_offsets are not"),
            (edit_column("neighbour_offsets", lambda col, kb: col.__setitem__(-1, col[-1] - 1)),
             "neighbour_offsets are not"),
            (edit_column("token_codes", repeat_a_token_code),
             "an entity's token codes repeat or fall"),
            (edit_column("meta_rdf_types", lambda col, kb: col.pop()),
             "metadata entities repeat or columns differ in length"),
            (edit_column("meta_entities", lambda col, kb: col.__setitem__(1, col[0])),
             "metadata entities repeat or columns differ in length"),
            (edit_column("names_offsets", lambda col, kb: col.append(col[-1])),
             "metadata entities repeat or columns differ in length"),
            (edit_column("embedding_vectors", lambda col, kb: col.pop()),
             "embedding_vectors is not"),
            (edit_column("embedding_vectors", lambda col, kb: col.__setitem__(3, float("nan"))),
             "embedding_vectors is not"),
            (edit_kb(lambda h, body: h["embedding_tokens"].__setitem__(0, 7)),
             "'embedding_tokens' must be a list of strings"),
            (edit_kb(lambda h, body: h["embedding_tokens"].__setitem__(
                1, h["embedding_tokens"][0])), "embedding tokens repeat"),
            (edit_column("subject_set_ids",
                         lambda col, kb: col.__setitem__(0, len(kb["subject_sets"]))),
             "subject_set_ids holds a value outside 0.."),
            (edit_column("subject_set_ids", lambda col, kb: col.pop()),
             "subject_set_ids holds"),
            (edit_kb(lambda h, body: h["subject_sets"][0].append(7)),
             "'subject_sets' must be a list of strings"),
            # The body's layout: every column lies whole in the body, in order,
            # at an 8-byte-aligned offset, and the body ends with the last one.
            (edit_kb(lambda h, body: h["columns"]["token_codes"].__setitem__(1, 8 * 10**6)),
             "column token_codes " + PAST_THE_END),
            (edit_kb(lambda h, body: h["columns"]["token_codes"].__setitem__(
                1, h["columns"]["token_codes"][1] + 4)), "column token_codes " + PAST_THE_END),
            (edit_kb(lambda h, body: h["columns"]["neighbour_ids"].__setitem__(
                1, h["columns"]["neighbour_offsets"][1])), PAST_THE_END),
            (edit_kb(lambda h, body: body.__delitem__(slice(len(body) // 2, None))),
             PAST_THE_END),
            (edit_kb(lambda h, body: body.extend(bytes(8))), "the columns end at byte"),
            (edit_kb(lambda h, body: body.__setitem__(
                slice(h["columns"]["mids"][1], h["columns"]["mids"][1] + 2), "é".encode())),
             "kb.bin:1: bad compiled KB: ValueError('mids are not distinct, non-empty and sorted"),
            (lambda path: path.write_bytes(path.read_bytes().replace(b"\n", b" \n", 1)),
             PAST_THE_END),
            (edit_kb(lambda h, body: h.update(columns=[])), "bad compiled KB"),
            (lambda path: path.write_bytes(b'{"x": "\xff"}' + path.read_bytes()),
             "kb.bin:1: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=[
            "missing", "truncated", "no-mids", "neighbour-too-large", "neighbour-negative",
            "neighbour-bytes-not-int32", "unknown-token-code", "adjacency-short", "no-sources",
            "source-entry-a-string", "source-entry-a-number",
            "metadata-entity-too-large", "metadata-name-a-number", "metadata-names-an-object",
            "metadata-description-negative", "predicate-type-set-negative", "blob-not-utf8",
            "offsets-not-from-0", "offsets-decrease", "offsets-end-short", "token-codes-repeat",
            "metadata-columns-unequal", "metadata-entity-repeats", "names-short",
            "embedding-vectors-short", "embedding-vector-nan", "embedding-token-a-number",
            "embedding-tokens-repeat", "subject-set-id-too-large", "subject-set-ids-short",
            "subject-set-token-a-number", "column-past-the-end", "column-misaligned",
            "columns-overlap", "body-cut", "body-too-long", "mids-change-length",
            "header-misaligned", "column-table-a-list", "header-not-utf8",
        ],
    )
    def test_bad_compiled_kb_exits_2_naming_the_file(
        self, workspace, tmp_path, capsys, edit, message
    ):
        _, cfg_path, cfg = workspace
        query = write_query(cfg, tmp_path / "query.json")
        dataset = tmp_path / "dataset"
        dataset.mkdir()
        for src in Path(cfg["dataset_dir"]).iterdir():
            (dataset / src.name).write_bytes(src.read_bytes())
        kb = dataset / ds.KB_FILE
        if edit is None:
            kb.unlink()
        elif edit == "truncate":  # within the header line
            data = kb.read_bytes()
            kb.write_bytes(data[: data.index(b"\n") // 2])
        else:
            edit(kb)
        flags = ["--dataset-dir", str(dataset), "--output-dir", str(tmp_path / "out")]
        for argv in self._serving_argvs(cfg_path, query, *flags):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith(f"error: {kb}") and message in err, (argv[0], err)
            assert "Traceback" not in err

    def _built_from_a_copy(self, cfg_path, tmp_path):
        """A dataset built from a copy of the config's graph, and the flags that serve it."""
        graph = tmp_path / "graph.tsv"
        shutil.copy(load_config(str(cfg_path)).graph_path, graph)
        flags = ["--graph-path", str(graph), "--dataset-dir", str(tmp_path / "dataset")]
        assert main(["build-dataset", "--config", str(cfg_path), *flags]) == 0
        return graph, flags

    @pytest.mark.parametrize("restore", [None, "in-place", "replaced"],
                             ids=["racy", "mtime-restored", "mtime-restored-new-inode"])
    def test_equal_size_rewrite_makes_every_serving_command_ask_for_a_rebuild(
        self, workspace, tmp_path, capsys, restore
    ):
        _, cfg_path, cfg = workspace
        query = write_query(cfg, tmp_path / "query.json")
        graph, flags = self._built_from_a_copy(cfg_path, tmp_path)
        kb = tmp_path / "dataset" / ds.KB_FILE
        before, built = graph.stat(), kb.stat()
        data = bytearray(graph.read_bytes())
        data[-2] ^= 1  # a character of the last line
        if restore == "replaced":
            (tmp_path / "graph.new").write_bytes(data)
            os.replace(tmp_path / "graph.new", graph)
        else:
            with open(graph, "r+b") as fh:
                fh.write(data)
        if restore:
            # The old size and mtime, and a KB built well after them: only the
            # ctime and, for a new file, the inode tell the rewrite apart.
            os.utime(graph, ns=(before.st_atime_ns, before.st_mtime_ns))
            os.utime(kb, ns=(built.st_atime_ns, built.st_mtime_ns + 3 * 10**9))
        after = graph.stat()
        assert after.st_size == before.st_size
        assert after.st_mtime_ns == before.st_mtime_ns or not restore
        for argv in self._serving_argvs(cfg_path, query, *flags,
                                        "--output-dir", str(tmp_path / "out")):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"{kb} was not compiled from graph_path = {graph}; rebuild" in err, argv[0]
        assert not (tmp_path / "out").exists()

    def test_a_clean_load_reads_no_source(self, workspace, tmp_path, monkeypatch):
        """Unchanged sources are hashed only while racily clean: changed less
        than 2 s before kb.bin's mtime."""
        _, cfg_path, cfg = workspace
        shutil.copytree(cfg["dataset_dir"], tmp_path / "dataset")
        kb = tmp_path / "dataset" / ds.KB_FILE
        sources = _kb_sources(load_config(str(cfg_path)))
        changed = [max(st.st_mtime_ns, st.st_ctime_ns) for st in map(os.stat, sources.values())]
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *a: hashed.append(a) or sha256(*a))
        # Within 2 s of every source, then 3 s after the last one.
        for built_ns, reads in ((min(changed) + 10**9, len(sources)),
                                (max(changed) + 3 * 10**9, 0)):
            os.utime(kb, ns=(built_ns, built_ns))
            hashed.clear()
            ds.load_kb(str(tmp_path / "dataset"), sources)
            assert len(hashed) == reads

    def test_a_racy_load_out_of_the_window_makes_kb_clean(self, workspace, tmp_path, monkeypatch):
        """A load that hashes its sources equal, once they are older than the racy
        window, moves kb.bin's mtime to now, so later loads read none of them."""
        _, cfg_path, cfg = workspace
        shutil.copytree(cfg["dataset_dir"], tmp_path / "dataset")
        kb = tmp_path / "dataset" / ds.KB_FILE
        sources = _kb_sources(load_config(str(cfg_path)))
        changed = max(max(st.st_mtime_ns, st.st_ctime_ns) for st in map(os.stat, sources.values()))
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *a: hashed.append(a) or sha256(*a))
        age, n = time.time_ns() - changed, len(sources)
        # A window longer than the sources' age keeps kb.bin racy; a shorter one ends it.
        for window, reads in ((10 * age, [n, n]), (age // 2, [n, 0])):
            monkeypatch.setattr(ds, "RACY_NS", window)
            os.utime(kb, ns=(changed, changed))
            counts = []
            for _ in range(2):
                hashed.clear()
                ds.load_kb(str(tmp_path / "dataset"), sources)
                counts.append(len(hashed))
            assert counts == reads, window

    def test_missing_source_file_exits_2_naming_its_key(self, workspace, tmp_path, capsys):
        _, cfg_path, cfg = workspace
        query = write_query(cfg, tmp_path / "query.json")
        missing = tmp_path / "x"
        for head in (["complete", str(query)], ["evaluate"], ["train-ranker"]):
            for key in ("graph_path", "embeddings_path"):
                flag = "--" + key.replace("_", "-")
                argv = [*head, "--config", str(cfg_path), flag, str(missing),
                        "--output-dir", str(tmp_path / "out")]
                assert main(argv) == 2, argv
                err = capsys.readouterr().err
                assert err == f"error: {key} = {missing}: No such file or directory\n", err
        assert not (tmp_path / "out").exists()

    def test_complete_decodes_only_the_entities_it_reads(
        self, workspace, tmp_path, monkeypatch
    ):
        _, cfg_path, cfg = workspace
        query = write_query(cfg, tmp_path / "query.json")
        loaded = []
        load_kb = ds.load_kb
        monkeypatch.setattr(ds, "load_kb", lambda *a: loaded.append(load_kb(*a)) or loaded[-1])
        assert main(["complete", str(query), "--config", str(cfg_path)]) == 0
        (g, entity_meta, *_), = loaded
        # The example row's neighbourhood, not the whole graph, was decoded.
        assert 0 < len(g._adj) < len(g) and 0 < len(entity_meta._by_entity) < len(g)

    def test_complete_parses_no_raw_input(self, workspace, tmp_path, monkeypatch):
        """complete reads only compiled inputs: it hashes the source files, parses none."""
        _, cfg_path, cfg = workspace
        query = write_query(cfg, tmp_path / "query.json")

        def completed(out):
            assert main(["complete", str(query), "--config", str(cfg_path),
                         "--output-dir", str(out)]) == 0
            return (out / "completed.tsv").read_bytes()

        want = completed(tmp_path / "plain")

        def refuse(*args):
            raise AssertionError(f"complete parsed {args[-1]}")

        monkeypatch.setattr(ranker.PretrainedEmbeddings, "load", refuse)
        for module, name in ((ds, "read_tsv_multimap"), (ds, "read_tsv_map"),
                             (cli, "load_triples"), (cli, "load_entity_meta"),
                             (cli, "load_predicate_meta")):
            monkeypatch.setattr(module, name, refuse)
        assert completed(tmp_path / "guarded") == want

    def test_compiled_embeddings_equal_the_text_parse(self, workspace, tmp_path):
        _, cfg_path, cfg = workspace
        kb = ds.load_kb(cfg["dataset_dir"], _kb_sources(load_config(str(cfg_path))))
        text = PretrainedEmbeddings.load(cfg["embeddings_path"])
        assert kb.embeddings.dim == text.dim and text.dim > 1
        assert list(kb.embeddings._vectors) == list(text._vectors)
        for token, vec in text._vectors.items():
            got = kb.embeddings._vectors[token]
            assert got.dtype == vec.dtype and got.tobytes() == vec.tobytes(), token
        # Without an embeddings file, serving reads the empty embeddings.
        graph = tmp_path / "graph.tsv"
        graph.write_text("a\tp\tb\n")
        save_kb(tmp_path, graph)
        empty = ds.load_kb(str(tmp_path), _kb_sources(RunConfig(graph_path=str(graph))))
        assert (empty.embeddings.dim, empty.embeddings._vectors) == (1, {})


class TestRenderSparqlCommand:
    def test_prints_the_query(self, capsys):
        assert main(["render-sparql", "--se", "m.1", "--p1", "a.b/^c.d", "--p2", "e.f"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("prefix a: <http://rdf.basekb.com/ns/>\n")
        assert "a:m.1 a:a.b/^a:c.d ?x ." in out


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        # The selector's truncation lengths, L2 weights, margin, batch size and
        # negatives, and the ranker's tree rate and sigma are constants, not keys.
        removed = ("max_qis_tokens", "max_cn_tokens", "max_set_tokens", "max_chain_tokens",
                   "l2_weight", "linear_l2", "margin", "batch_size", "k_negatives",
                   "tree_learning_rate", "pairwise_sigma")
        cfg = tmp_path / "c.json"
        for key in ("no_such_key", *removed):
            cfg.write_text(json.dumps({key: 1}))
            with pytest.raises(ConfigurationError, match=key):
                load_config(str(cfg))
            assert main(["evaluate", "--config", str(cfg)]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err
            with pytest.raises(SystemExit) as exited:
                main(["evaluate", "--" + key.replace("_", "-"), "1"])
            assert exited.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_defaults_come_from_the_settings_classes(self):
        cfg = RunConfig()
        assert cfg.build_settings() == BuildSettings()
        assert cfg.budget() == QueryBudget()
        assert cfg.selector_hp() == SelectorHyperParams()
        assert cfg.ranker_cfg() == RankerConfig()

    def test_flags_win_over_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 1}')
        assert load_config(str(cfg), {"seed": 2}).seed == 2

    def test_help_lists_every_config_key(self, capsys):
        for command in ("evaluate", "complete", "render-sparql"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = capsys.readouterr().out
            for key in config_defaults():
                assert "--" + key.replace("_", "-") in text, (command, key)

    def test_successive_calls_leak_no_flag_value(self, tmp_path, monkeypatch):
        depths = []
        monkeypatch.setattr(cli, "cmd_train_ranker", lambda cfg: depths.append(cfg.tree_depth) or 0)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"tree_depth": 3}')
        for argv in (["--tree-depth", "2"], [], ["--tree-depth", "5"]):
            assert main(["train-ranker", "--config", str(cfg), *argv]) == 0
        assert main(["train-ranker"]) == 0
        assert depths == [2, 3, 5, RankerConfig().tree_depth]
        assert cli.build_parser() is cli.build_parser()

    def test_shared_parser_parses_as_a_fresh_one(self):
        render = ["render-sparql", "--se", "m.1", "--p1", "a.b", "--p2", "c.d"]
        argvs = (["build-dataset", "--seed", "3"], ["train-selector", "--config", "c.json"],
                 ["train-ranker", "--tree-depth", "2"], ["evaluate", "--eval-split", "test"],
                 ["core-column-eval", "--banned-prefixes", "a,b"],
                 ["complete", "q.json", "--max-rows", "5"], render)
        for argv in argvs + argvs:
            fresh = cli.build_parser.__wrapped__()
            assert cli.build_parser().parse_args(argv) == fresh.parse_args(argv)

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"seed": [1]}, "'seed' must be an integer"),
            ({"seed": {}}, "'seed' must be an integer"),
            ({"banned_prefixes": 0}, "'banned_prefixes' must be a list of strings"),
            ({"banned_prefixes": ["a", 1]}, "'banned_prefixes' must be a list of strings"),
            ({"tree_depth": ""}, "'tree_depth' must be an integer"),
            ({"tree_depth": "abc"}, "'tree_depth' must be an integer"),
            ({"epochs": 1.5}, "'epochs' must be an integer"),
            ({"epochs": True}, "'epochs' must be an integer"),
            ({"learning_rate": ["x"]}, "'learning_rate' must be a finite number"),
            ({"learning_rate": "0.1"}, "'learning_rate' must be a finite number"),
            ({"selector": 5}, "'selector' must be a string"),
            ({"graph_path": None}, "'graph_path' must be a string"),
        ],
        ids=["int-a-list", "int-an-object", "prefixes-a-number", "prefix-a-number",
             "int-empty", "int-a-word", "int-a-float", "int-a-bool", "float-a-list",
             "float-a-string", "string-a-number", "string-null"],
    )
    def test_bad_value_exits_2_naming_the_file_and_key(self, tmp_path, capsys, value, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(value))
        assert main(["render-sparql", "--config", str(cfg), "--se", "m.1", "--p1", "a.b",
                     "--p2", "c.d"]) == 2
        assert f"error: {cfg}:1: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"dim_set": 3}, "dim_qis + 2*dim_cn + dim_set must equal dim_chain: "
                             "100 + 2*25 + 3 != 250"),
            ({"epochs": -1}, "epochs must be at least 0, got -1"),
            ({"max_rows": 0}, "max_rows must be positive, got 0"),
            ({"max_steps": -5}, "max_steps must be positive, got -5"),
            ({"max_path_len": 4}, "max_path_len must be in 1..3, got 4"),
            ({"max_path_len": 0}, "max_path_len must be in 1..3, got 0"),
            ({"tree_depth": -1}, "tree_depth must be at least 0, got -1"),
            ({"degree_cap": -1}, "degree_cap must be at least 0, got -1"),
        ],
        ids=["dims-mismatch", "epochs-negative", "rows-zero", "steps-negative",
             "path-too-long", "path-zero", "depth-negative", "degree-cap-negative"],
    )
    def test_out_of_range_value_exits_2_naming_the_file_and_key(
        self, tmp_path, capsys, value, message
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(value))
        assert main(["render-sparql", "--config", str(cfg), "--se", "m.1", "--p1", "a.b",
                     "--p2", "c.d"]) == 2
        assert f"error: {cfg}:1: {message}" in capsys.readouterr().err

    def test_flags_may_make_a_file_consistent(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dim_qis": 32, "dim_cn": 8, "dim_set": 32, "max_rows": 0}))
        with pytest.raises(ds.ParseError, match="dim_chain"):
            load_config(str(cfg), {"max_rows": 5})
        loaded = load_config(str(cfg), {"dim_chain": 80, "max_rows": 5})
        assert (loaded.dim_chain, loaded.max_rows) == (80, 5)
        assert loaded.selector_hp().dim_chain == 80 and loaded.budget().max_rows == 5

    def test_well_typed_values_load_as_before(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"banned_prefixes": "a,,b", "learning_rate": 1, "seed": 3,
                                   "dataset_dir": "d", "max_rows": 7}))
        loaded = load_config(str(cfg))
        assert loaded == RunConfig(banned_prefixes=("a", "b"), learning_rate=1.0, seed=3,
                                   dataset_dir="d", max_rows=7)
        assert type(loaded.learning_rate) is float
        cfg.write_text(json.dumps({"banned_prefixes": ["a", "b"]}))
        assert load_config(str(cfg)).banned_prefixes == ("a", "b")

    def test_cli_error_paths_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"bogus": true}')
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err
        # A directory where a file belongs, and a byte that is not UTF-8.
        render = ["render-sparql", "--se", "m.1", "--p1", "a.b", "--p2", "c.d"]
        assert main([*render, "--config", str(tmp_path)]) == 2
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err
        cfg.write_bytes(b'{"seed": 1,\n "selector": "\xff"}\n')
        assert main([*render, "--config", str(cfg)]) == 2
        assert f"error: {cfg}:2: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        graph = tmp_path / "graph.tsv"
        graph.write_bytes(b"m.1\tp\tm.2\nm.2\tp\tm.\xff\n")
        assert main(["build-dataset", "--graph-path", str(graph)]) == 2
        assert f"error: {graph}:2: 'utf-8' codec" in capsys.readouterr().err
        graph.write_bytes(b"m.1\tp\tm.2\n")
        meta = tmp_path / "meta.jsonl"
        meta.write_bytes(b'{"mid": "m.1"}\n{"mid": "m.2"}\n{"mid": "\xfe"}\n')
        assert main(["build-dataset", "--graph-path", str(graph),
                     "--entity-meta-path", str(meta)]) == 2
        assert f"error: {meta}:3: 'utf-8' codec" in capsys.readouterr().err

    def test_bad_training_sizes_exit_2(self, workspace, tmp_path, capsys):
        _, cfg_path, _ = workspace
        argv = ["train-selector", "--config", str(cfg_path), "--selector", "embedding"]
        assert main([*argv, "--epochs", "-1"]) == 2
        assert "epochs" in capsys.readouterr().err
        # A missing dataset shows that train-ranker checks its settings before loading.
        missing = str(tmp_path / "no-dataset")
        for flag, bad, must in (
            ("--tree-count", "-3", "at least 0"), ("--tree-depth", "-1", "at least 0"),
            ("--learning-rate", "nan", "finite"),
        ):
            argv = ["train-ranker", "--config", str(cfg_path), "--dataset-dir", missing]
            assert main([*argv, flag, bad]) == 2
            err = capsys.readouterr().err
            assert flag[2:].replace("-", "_") in err and must in err and missing not in err, err

    def test_unknown_eval_split_exits_2_naming_the_key(self, capsys):
        assert main(["evaluate", "--eval-split", "train"]) == 2
        assert "error: eval_split must be validation or test, not 'train'" in (
            capsys.readouterr().err)

    def test_a_corpus_of_no_usable_table_exits_2_naming_it_and_each_reason(
        self, tmp_path, capsys
    ):
        graph, corpus, url2mid = (tmp_path / n for n in ("g.tsv", "corpus.jsonl", "u.tsv"))
        graph.write_text("m.1\tp\tm.2\n")
        url2mid.write_text("")
        argv = ["build-dataset", "--graph-path", str(graph), "--corpus-path", str(corpus),
                "--url2mid-path", str(url2mid), "--dataset-dir", str(tmp_path / "dataset")]
        corpus.write_text("")
        assert main(argv) == 2
        assert f"error: {corpus}: none of its 0 tables survived annotation\n" in (
            capsys.readouterr().err)
        one_column = {"headers": ["a"], "rows": [[{"text": "x"}]]}
        corpus.write_text(json.dumps(one_column) + "\n" + json.dumps(
            {"headers": ["a", "b"], "rows": [[{"text": "x"}, {"text": "y"}]]}) + "\n")
        assert main(argv) == 2
        assert (f"error: {corpus}: none of its 2 tables survived annotation; "
                "1 rejected: fewer than 3 linked rows; 1 rejected: fewer than two columns"
                in capsys.readouterr().err)

    def test_bad_metadata_field_exits_2_with_file_and_line(self, tmp_path, capsys):
        graph = tmp_path / "graph.tsv"
        graph.write_text("m.1\tp\tm.2\n")
        meta = tmp_path / "meta.jsonl"
        meta.write_text('{"mid": "m.1"}\n{"mid": "m.2", "rdf_types": 5}\n')
        argv = ["build-dataset", "--graph-path", str(graph), "--entity-meta-path", str(meta)]
        assert main(argv) == 2
        assert f"{meta}:2: 'rdf_types' must be a list of strings" in capsys.readouterr().err

    def test_corrupt_tables_line_exits_2_with_file_and_line(self, workspace, tmp_path, capsys):
        _, cfg_path, cfg = workspace
        dataset = tmp_path / "dataset"
        dataset.mkdir()
        for src in Path(cfg["dataset_dir"]).iterdir():
            (dataset / src.name).write_bytes(src.read_bytes())
        lines = (dataset / "tables.jsonl").read_text().splitlines(keepends=True)
        (dataset / "tables.jsonl").write_text(lines[0] + "{broken\n" + "".join(lines[1:]))
        argv = ["train-selector", "--config", str(cfg_path), "--dataset-dir", str(dataset)]
        assert main(argv) == 2
        assert f"{dataset / 'tables.jsonl'}:2: bad JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("tables.jsonl", lambda rec, prev: rec.update(chains=[])),
            ("tables.jsonl", lambda rec, prev: rec["chains"][0].update(label="negative")),
            ("tables.jsonl", lambda rec, prev: rec["qis"].append(7)),
            ("tables.jsonl", lambda rec, prev: rec["cn1"].append(7)),
            ("tables.jsonl", lambda rec, prev: rec["cn2"].append(7)),
            ("tables.jsonl", lambda rec, prev: rec["set"].append(7)),
            ("tables.jsonl", lambda rec, prev: rec["chains"][0].update(p1=7)),
            ("tables.jsonl", lambda rec, prev: rec["chains"][0].update(p2=7)),
            ("tables.jsonl", lambda rec, prev: rec.update(rr=[])),
            ("tables.jsonl", lambda rec, prev: rec.update(rr=rec["rr"][:1])),
            ("tables.jsonl", lambda rec, prev: rec["rr"].append(rec["rr"][-1])),
            ("tables.jsonl", lambda rec, prev: rec.update(table_id=7)),
            ("tables.jsonl", lambda rec, prev: rec.update(table_id=prev["table_id"])),
            ("split.json", lambda rec, prev: rec.update(test=str(rec["test"]))),
            ("split.json", lambda rec, prev: rec.update(train=-1)),
            ("split.json", lambda rec, prev: rec.update(seed=str(rec["seed"]))),
            ("vocab_tb.json", lambda rec, prev: rec["tokens"].append(7)),
            ("vocab_kb.json", lambda rec, prev: rec.update(oov_token=["<oov>"])),
        ],
        ids=["no-chains", "first-chain-negative", "int-in-qis", "int-in-cn1", "int-in-cn2",
             "int-in-set", "int-p1", "int-p2", "no-rr", "one-rr", "repeated-rr", "int-table-id",
             "test-id-twice", "string-test-split", "negative-train-split", "string-split-seed",
             "int-vocab-token", "list-oov-token"],
    )
    def test_bad_dataset_record_exits_2_with_file_and_line(
        self, workspace, tmp_path, capsys, name, edit
    ):
        """A command reads the tables of its own split only: a bad record of the
        test block stops evaluate but not train-selector, one of the train block
        stops both trainers. A bad split or vocabulary file stops every command."""
        _, cfg_path, cfg = workspace
        n_lines = len((Path(cfg["dataset_dir"]) / name).read_text().splitlines())
        # (line edited, the commands it stops, a command it does not stop)
        cases = [(1, ("train-selector", "train-ranker", "evaluate"), None)]
        if name == "tables.jsonl":
            cases = [(n_lines, ("evaluate",), "train-selector"),
                     (2, ("train-selector", "train-ranker"), "evaluate")]
        for line_no, stopped, unaffected in cases:
            dataset = tmp_path / f"dataset-{line_no}"
            shutil.copytree(cfg["dataset_dir"], dataset)
            lines = (dataset / name).read_text().splitlines(keepends=True)
            rec = json.loads(lines[line_no - 1])
            edit(rec, json.loads(lines[line_no - 2]) if line_no > 1 else None)
            lines[line_no - 1] = json.dumps(rec) + "\n"
            (dataset / name).write_text("".join(lines))
            flags = ["--config", str(cfg_path), "--dataset-dir", str(dataset),
                     "--output-dir", str(tmp_path / "out")]
            for command in stopped:
                assert main([command, *flags]) == 2
                err = capsys.readouterr().err
                assert f"{dataset / name}:{line_no}: " in err and "Traceback" not in err
            if unaffected:
                assert main([unaffected, *flags]) == 0, capsys.readouterr().err

    def test_repeated_table_id_exits_2_with_file_and_line(self, workspace, tmp_path, capsys):
        _, cfg_path, cfg = workspace
        dataset = tmp_path / "dataset"
        shutil.copytree(cfg["dataset_dir"], dataset)
        lines = (dataset / "tables.jsonl").read_text().splitlines(keepends=True)
        lines[-1] = lines[-2]  # both of the test block
        (dataset / "tables.jsonl").write_text("".join(lines))
        argv = ["evaluate", "--config", str(cfg_path), "--dataset-dir", str(dataset)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{dataset / 'tables.jsonl'}:{len(lines)}: " in err and "repeats" in err

    @pytest.mark.parametrize("edit", [lambda lines: lines[1:], lambda lines: lines + lines[:1]],
                             ids=["line-deleted", "line-added"])
    def test_tables_unlike_the_split_sizes_exit_2_naming_both(
        self, workspace, tmp_path, capsys, edit
    ):
        _, cfg_path, cfg = workspace
        dataset = tmp_path / "dataset"
        shutil.copytree(cfg["dataset_dir"], dataset)
        lines = (dataset / "tables.jsonl").read_text().splitlines(keepends=True)
        (dataset / "tables.jsonl").write_text("".join(edit(lines)))
        for command in ("train-selector", "train-ranker", "evaluate", "core-column-eval"):
            argv = [command, "--config", str(cfg_path), "--dataset-dir", str(dataset)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"{dataset / 'tables.jsonl'} holds" in err, err
            assert f"{dataset / 'split.json'} sizes" in err, err

    def test_bad_ranker_model_exits_2_with_file(self, workspace, tmp_path, capsys):
        _, cfg_path, cfg = workspace
        payload = json.loads((Path(cfg["dataset_dir"]) / "ranker.json").read_text())
        leaf = {"value": 0.0}
        payload["trees"][0] = {"feature": 99, "threshold": 0.0, "left": leaf, "right": leaf}
        bad = tmp_path / "ranker.json"
        bad.write_text(json.dumps(payload))
        argv = ["evaluate", "--config", str(cfg_path), "--ranker-model-path", str(bad)]
        assert main(argv) == 2
        assert f"{bad}:1: a split 'feature' must be an int in 0..26" in capsys.readouterr().err

    def test_version_1_selector_file_exits_2_asking_to_retrain(
        self, workspace, tmp_path, capsys
    ):
        _, cfg_path, cfg = workspace
        payload = json.loads((Path(cfg["dataset_dir"]) / "selector.json").read_text())
        old = tmp_path / "selector.json"
        old.write_text(json.dumps({**payload, "version": 1}))
        query = write_query(cfg, tmp_path / "query.json")
        for head in (["evaluate"], ["complete", str(query)]):
            assert main([*head, "--config", str(cfg_path), "--selector-model-path", str(old)]) == 2
            err = capsys.readouterr().err
            assert f"error: {old}:1: " in err and "retrain" in err, err

    def test_missing_file_exit_2(self, capsys):
        assert main(["evaluate", "--graph-path", "/nope/missing.tsv"]) == 2

    def test_vocab_hash_mismatch_detected(self, workspace, capsys):
        root, cfg_path, cfg = workspace
        vocab_path = Path(cfg["dataset_dir"]) / "vocab_tb.json"
        original = vocab_path.read_text()
        payload = json.loads(original)
        payload["tokens"] = payload["tokens"] + ["sneaky"]
        vocab_path.write_text(json.dumps(payload))
        try:
            assert main(["evaluate", "--config", str(cfg_path)]) == 2
            assert "hash" in capsys.readouterr().err
        finally:
            vocab_path.write_text(original)


# -- mutations of the files serving reads ------------------------------------------

# Each file a serving command reads, and the command that reads it.
SERVED_FILES = {
    "kb.bin": "complete", "selector-linear.json": "complete",
    "selector-embedding.json": "complete", "config.json": "complete", "query.json": "complete",
    "ranker.json": "complete", "vocab_tb.json": "complete", "vocab_kb.json": "complete",
    "tables.jsonl": "evaluate", "split.json": "evaluate",
}


def json_paths(value, path=()):
    """Paths to every node of a JSON value; a list contributes its first two
    items and its last."""
    yield path
    if isinstance(value, dict):
        for key in sorted(value):
            yield from json_paths(value[key], (*path, key))
    elif isinstance(value, list):
        for i in sorted({0, 1, len(value) - 1} & set(range(len(value)))):
            yield from json_paths(value[i], (*path, i))


def edit_bytes(text, kind):
    """A base64 column with its bytes edited, or ``text`` when it is no column."""
    try:
        data = bytearray(base64.b64decode(text, validate=True))
    except (TypeError, ValueError):
        return text
    return b64(bytes(edit_raw(data, kind)))


def edit_raw(data, kind):
    """``data``, a bytearray, with one kind of edit."""
    if kind == "cut8":
        data = data[:-8]
    elif kind == "cut3":
        data = data[:-3]
    elif kind == "add8":
        data += bytes(8)
    elif kind in ("nan", "inf") and len(data) >= 8:
        data[:8] = np.array([float(kind)], "<f8").tobytes()
    elif kind == "int-max" and len(data) >= 4:
        data[:4] = np.array([2**31 - 1], "<i4").tobytes()
    elif kind == "flip" and data:
        data[len(data) // 2] ^= 0xFF
    return data


def mutate(rec, path, op, body=None):
    """Apply one edit to the node at ``path``: set, delete, reverse, or edit bytes.

    With the ``body`` of a ``kb.bin``, whose header is ``rec``, a bytes edit of
    a column table entry edits that column's bytes in the body, in place.
    """
    if body is not None and op[0] == "bytes" and path[:1] == ("columns",) and len(path) == 2:
        dtype, offset, count = rec["columns"][path[1]]
        stop = offset + count * np.dtype(dtype).itemsize
        body[offset:stop] = edit_raw(body[offset:stop], op[1])
        return
    *head, last = path
    parent = rec
    for key in head:
        parent = parent[key]
    kind, *arg = op
    if kind == "delete":
        del parent[last]
    elif kind == "reverse" and isinstance(parent[last], list):
        parent[last].reverse()
    elif kind == "bytes":
        parent[last] = edit_bytes(parent[last], arg[0])
    elif kind == "set":
        parent[last] = arg[0]


MUTATION_OPS = [
    ("delete",), ("reverse",),
    *[("bytes", k) for k in ("cut8", "cut3", "add8", "nan", "inf", "int-max", "flip")],
    *[("set", v) for v in (None, True, -1, 0, 3, 2**40, 1.5, float("nan"), "x", "", [], {},
                           ["x"], [7])],
]


class TestServedFileMutations:
    """One edit anywhere in a file that ``complete`` or ``evaluate`` reads makes
    the command exit 0, 1 or 2 without a traceback, and an exit of 2 names the
    file."""

    @pytest.fixture(scope="class")
    def served(self, workspace, tmp_path_factory):
        _, cfg_path, cfg = workspace
        root = tmp_path_factory.mktemp("served")
        shutil.copytree(cfg["dataset_dir"], root / "dataset")
        shutil.copy(Path(cfg["dataset_dir"]) / "selector.json", root / "selector-linear.json")
        shutil.copy(Path(cfg["dataset_dir"]) / "ranker.json", root / "ranker.json")
        shutil.copy(cfg_path, root / "config.json")
        argv = ["train-selector", "--config", str(cfg_path), "--selector", "embedding",
                "--epochs", "1", "--selector-model-path", str(root / "selector-embedding.json")]
        assert main(argv) == 0
        write_query(cfg, root / "query.json")
        in_dataset = ("kb.bin", "vocab_tb.json", "vocab_kb.json", "tables.jsonl", "split.json")
        return root, {name: root / ("dataset" if name in in_dataset else "") / name
                      for name in SERVED_FILES}

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.tuples(st.sampled_from(sorted(SERVED_FILES)), st.integers(0, 10**4),
                     st.sampled_from(MUTATION_OPS)))
    @example(("kb.bin", ("columns", "embedding_vectors"), ("bytes", "cut8")))
    @example(("kb.bin", ("columns", "embedding_vectors"), ("bytes", "nan")))
    @example(("kb.bin", ("columns", "embedding_vectors"), ("bytes", "inf")))
    @example(("kb.bin", ("embedding_tokens", 0), ("set", 7)))
    @example(("kb.bin", ("columns", "subject_set_ids"), ("bytes", "int-max")))
    @example(("kb.bin", ("columns", "names"), ("bytes", "flip")))
    @example(("kb.bin", ("columns", "mids", 1), ("set", 3)))
    @example(("selector-embedding.json", ("params", "qis", "shape"), ("reverse",)))
    @example(("selector-linear.json", ("weights", "data"), ("bytes", "cut3")))
    @example(("config.json", ("tree_depth",), ("set", [])))
    @example(("config.json", ("dim_qis",), ("set", "")))
    @example(("config.json", ("epochs",), ("set", 1.5)))
    @example(("config.json", ("graph_path",), ("set", "x")))
    @example(("ranker.json", ("learning_rate",), ("set", float("nan"))))
    @example(("tables.jsonl", (1,), ("delete",)))
    @example(("vocab_kb.json", ("oov_token",), ("set", "x")))
    def test_mutated_file_exits_0_1_or_2_naming_it(self, served, mutation):
        root, files = served
        name, where, op = mutation
        target = files[name]
        original = target.read_bytes()
        by_line = name.endswith(".jsonl")  # a list of the records of its lines
        body = None  # of a kb.bin, whose header line is the record
        if name == "kb.bin":
            head, _, body = original.partition(b"\n")
            rec, body = json.loads(head), bytearray(body)
        else:
            lines = original.splitlines()
            rec = [json.loads(line) for line in lines] if by_line else json.loads(original)
        if isinstance(where, int):
            paths = list(json_paths(rec))[1:]  # not the record itself
            where = paths[where % len(paths)]
        mutate(rec, where, op, body)
        selector_kind = "embedding" if name == "selector-embedding.json" else "linear"
        head = ["complete", str(files["query.json"])]
        if SERVED_FILES[name] == "evaluate":
            head = ["evaluate"]
        argv = [
            *head, "--config", str(files["config.json"]),
            "--dataset-dir", str(root / "dataset"), "--selector", selector_kind,
            "--selector-model-path", str(files[f"selector-{selector_kind}.json"]),
            "--ranker-model-path", str(files["ranker.json"]),
        ]
        err = io.StringIO()
        try:
            if body is not None:
                write_kb(target, rec, body)
            else:
                target.write_text("".join(json.dumps(r) + "\n" for r in rec) if by_line
                                  else json.dumps(rec))
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = main([*argv, "--output-dir", out])
        finally:
            target.write_bytes(original)
        assert rc in (0, 1, 2), (where, op)
        assert "Traceback" not in err.getvalue()
        names = [str(target)]
        if name.startswith("vocab_"):  # checked against the model trained on it
            names.append(str(files["selector-linear.json"]))
        if name == "config.json":
            # A well-typed value is reported by its key, or as the file it names.
            names.append(where[0])
            if op[0] == "set" and isinstance(op[1], str):
                names.append(f"No such file or directory: {op[1]!r}")
        if rc == 2:
            assert any(n in err.getvalue() for n in names), (where, op, err.getvalue())
