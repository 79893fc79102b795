import gc
import json
from pathlib import Path

import pytest

from kgtable import dataset as ds
from kgtable import synth
from kgtable.cli import _derive_set_tokens, main
from kgtable.config import RunConfig, config_defaults, load_config
from kgtable.dataset import BuildSettings, ConfigurationError
from kgtable.graph import (
    EntityMetaStore,
    KnowledgeGraph,
    PredicateMetaStore,
    load_entity_meta,
    load_triples,
)
from kgtable.paths import ChainPair, MetaPath
from kgtable.query import QueryBudget
from kgtable.ranker import RankerConfig
from kgtable.selector import SelectorHyperParams


def save_kb(dataset, graph, meta=None):
    """Compile a graph file (and an entity metadata file) into ``dataset`` as build-dataset does."""
    g = load_triples(str(graph))
    entity_meta = load_entity_meta(str(meta), g) if meta else EntityMetaStore()
    sources = {
        "graph_path": str(graph),
        "entity_meta_path": str(meta) if meta else "",
        "predicate_meta_path": "",
    }
    ds.save_kb(str(dataset), g, entity_meta, PredicateMetaStore(), sources)


def write_query(cfg, path):
    """A query file holding the first row of the first test table."""
    g = load_triples(cfg["graph_path"])
    tables, split, *_ = ds.load_dataset(cfg["dataset_dir"], g)
    table = tables[split.test[0]]
    er1, er2 = table.rr[0]
    path.write_text(json.dumps({
        "qis": " ".join(table.qis), "se": g.mid(table.se), "cn1": " ".join(table.cn1),
        "cn2": " ".join(table.cn2), "er1": g.mid(er1), "er2": g.mid(er2),
    }))
    return path


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
        assert (Path(cfg["output_dir"]) / "selector.json").exists()
        assert (Path(cfg["output_dir"]) / "ranker.json").exists()

    def test_evaluate_writes_reports(self, workspace, capsys):
        root, cfg_path, cfg = workspace
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "tuple_recall" in out
        for name in ("runs.jsonl", "summary.json", "metrics.csv"):
            assert (Path(cfg["output_dir"]) / name).exists()

    def test_evaluate_is_idempotent(self, workspace):
        root, cfg_path, cfg = workspace
        out = Path(cfg["output_dir"])
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        first = {n: (out / n).read_bytes() for n in ("runs.jsonl", "summary.json")}
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

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
            ds.Vocabulary("TB_Vocab", ()), ds.Vocabulary("KB_Vocab", ()), g, {},
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
                    "se_name": "CSI: Miami",
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
                    "se_name": "CSI: Miami",
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
            ({"set": 5}, "'set' must be a list of strings"),
            ({"set": ["tv", 1]}, "'set' must be a list of strings"),
            ({"se_name": 5}, "'se_name' must be a string"),
            ({"cn2": ""}, "'cn1'/'cn2': empty column name after normalization"),
        ],
        ids=[
            "unknown-entity", "entity-a-list", "entity-null", "missing-key", "set-a-number",
            "set-item-a-number", "se-name-a-number", "column-name-empty",
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


class TestSubjectTypes:
    """``complete`` ranks the subject's types by the build's frequencies."""

    @pytest.fixture()
    def typed_world(self, tmp_path):
        # Among the corpus's subjects x.rare is rarer than x.common; over every
        # entity of mid2types it is the other way round.
        types = tmp_path / "mid2types.tsv"
        rows = [("s1", "x.rare"), ("s1", "x.common"), ("s2", "x.common"), ("s3", "x.common")]
        rows += [(f"o{i}", "x.rare") for i in range(5)]
        types.write_text("".join(f"{m}\t{t}\n" for m, t in rows))
        graph = tmp_path / "graph.tsv"
        graph.write_text("s1\tp\ts2\ns2\tp\ts3\n")
        g = load_triples(str(graph))
        corpus = [
            ds.RawTable(f"t{i}", "", "", ("a", "b"), (), se_mid=mid)
            for i, mid in enumerate(("s1", "s2", "s3"))
        ]
        type_freq = ds.subject_type_freq(corpus, g, ds.read_tsv_multimap(str(types)))
        assert type_freq == {"x.rare": 1, "x.common": 3}
        dataset = tmp_path / "dataset"
        ds.save_dataset(
            str(dataset), {}, ds.DatasetSplit((), (), (), 0),
            ds.Vocabulary("TB_Vocab", ()), ds.Vocabulary("KB_Vocab", ()), g, type_freq,
        )
        save_kb(dataset, graph)
        return RunConfig(
            graph_path=str(graph), mid2types_path=str(types), dataset_dir=str(dataset)
        )

    def test_set_comes_from_the_saved_build_frequencies(self, typed_world):
        assert _derive_set_tokens(typed_world, {}, "s1") == ("x", "rare")
        assert _derive_set_tokens(typed_world, {"set": ["given"]}, "s1") == ("given",)

    def test_missing_frequency_file_exits_2(self, typed_world, tmp_path, capsys):
        (Path(typed_world.dataset_dir) / ds.TYPE_FREQ_FILE).unlink()
        query = tmp_path / "query.json"
        query.write_text(json.dumps(
            {"qis": "x", "se": "s1", "er1": "s2", "er2": "s3", "cn1": "a", "cn2": "b"}
        ))
        argv = [
            "complete", str(query), "--graph-path", typed_world.graph_path,
            "--mid2types-path", typed_world.mid2types_path,
            "--dataset-dir", typed_world.dataset_dir, "--ranker", "random",
            "--output-dir", str(tmp_path / "out"),
        ]
        assert main([*argv, "--selector", "jacsim"]) == 2
        assert "rebuild the dataset" in capsys.readouterr().err
        # A random pick needs no SET, so it reads no type frequencies.
        assert main([*argv, "--selector", "random"]) == 0

    def test_built_tables_agree_with_serving_time_set(self, workspace):
        _, cfg_path, cfg = workspace
        run_cfg = load_config(str(cfg_path))
        g = load_triples(cfg["graph_path"])
        tables, *_ = ds.load_dataset(cfg["dataset_dir"], g)
        for table in tables.values():
            assert _derive_set_tokens(run_cfg, {}, g.mid(table.se)) == table.set_tokens


class TestCompiledKB:
    """Serving commands load the KB that build-dataset compiled, and only that one."""

    SERVING = ("train-selector", "train-ranker", "evaluate", "core-column-eval", "complete")
    META_READERS = ("train-ranker", "evaluate", "complete")

    def _serving_argvs(self, cfg_path, query, *flags, commands=SERVING):
        for command in commands:
            head = [command, str(query)] if command == "complete" else [command]
            yield [*head, "--config", str(cfg_path), *flags]

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("graph_path", lambda text: text + "m.new\tp\tm.other\n"),
            ("entity_meta_path", lambda text: text.replace('"name"', '"name" ', 1)),
            ("predicate_meta_path", lambda text: "\n" + text),
            ("entity_meta_path", None),
        ],
        ids=["graph", "entity-meta", "predicate-meta", "entity-meta-unset"],
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
        for argv in self._serving_argvs(cfg_path, query, flag, edited, *out):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"was not compiled from {key} = {edited or 'no file'}" in err, argv[0]
            assert "rebuild the dataset with build-dataset" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message, commands",
        [
            (None, "kb.json is missing; rebuild the dataset with build-dataset", SERVING),
            ("truncate", "kb.json:1: bad JSON", SERVING),
            (lambda rec: rec.pop("mids"), "kb.json:1: bad compiled KB: KeyError('mids')", SERVING),
            (lambda rec: rec["adjacency"][0][0][1].append(len(rec["mids"])),
             "a neighbour id is not an entity of the graph", SERVING),
            (lambda rec: rec["adjacency"][0][0][1].append(-1),
             "a neighbour id is not an entity of the graph", SERVING),
            (lambda rec: rec["adjacency"][0][0][1].append(0.5),
             "a neighbour id is not an entity of the graph", SERVING),
            (lambda rec: rec["adjacency"][0][0].__setitem__(0, 10**6),
             "kb.json:1: bad compiled KB: KeyError(1000000)", SERVING),
            (lambda rec: rec["adjacency"].pop(), "mids repeat or differ in number", SERVING),
            (lambda rec: rec["sources"].clear(), "rebuild the dataset with build-dataset", SERVING),
            # Only the commands that use the metadata read and check it.
            (lambda rec: rec["entities"][0].__setitem__(0, len(rec["mids"])),
             "an entity metadata id is not an entity of the graph", META_READERS),
            (lambda rec: rec["entities"][0].__setitem__(1, 5),
             "a name or token is not a string", META_READERS),
        ],
        ids=[
            "missing", "truncated", "no-mids", "neighbour-too-large", "neighbour-negative",
            "neighbour-a-float", "unknown-token-code", "adjacency-short", "no-sources",
            "metadata-entity-too-large", "metadata-name-a-number",
        ],
    )
    def test_bad_compiled_kb_exits_2_naming_the_file(
        self, workspace, tmp_path, capsys, edit, message, commands
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
        elif edit == "truncate":
            kb.write_text(kb.read_text()[: kb.stat().st_size // 2])
        else:
            rec = json.loads(kb.read_text())
            edit(rec)
            kb.write_text(json.dumps(rec))
        flags = ["--dataset-dir", str(dataset), "--output-dir", str(tmp_path / "out")]
        for argv in self._serving_argvs(cfg_path, query, *flags, commands=commands):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith(f"error: {kb}") and message in err, (argv[0], err)
            assert "Traceback" not in err


class TestRenderSparqlCommand:
    def test_prints_the_query(self, capsys):
        assert main(["render-sparql", "--se", "m.1", "--p1", "a.b/^c.d", "--p2", "e.f"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("prefix a: <http://rdf.basekb.com/ns/>\n")
        assert "a:m.1 a:a.b/^a:c.d ?x ." in out


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"no_such_key": 1}')
        with pytest.raises(ConfigurationError):
            load_config(str(cfg))

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

    def test_cli_error_paths_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"bogus": true}')
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_training_sizes_exit_2(self, workspace, capsys):
        _, cfg_path, _ = workspace
        for flag, bad in (("--batch-size", "0"), ("--epochs", "-1"), ("--k-negatives", "0")):
            argv = ["train-selector", "--config", str(cfg_path), "--selector", "embedding"]
            assert main([*argv, flag, bad]) == 2
            assert flag[2:].replace("-", "_") in capsys.readouterr().err

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

    def test_bad_ranker_model_exits_2_with_file(self, workspace, tmp_path, capsys):
        _, cfg_path, cfg = workspace
        payload = json.loads((Path(cfg["output_dir"]) / "ranker.json").read_text())
        leaf = {"value": 0.0}
        payload["trees"][0] = {"feature": 99, "threshold": 0.0, "left": leaf, "right": leaf}
        bad = tmp_path / "ranker.json"
        bad.write_text(json.dumps(payload))
        argv = ["evaluate", "--config", str(cfg_path), "--ranker-model-path", str(bad)]
        assert main(argv) == 2
        assert f"{bad}:1: a split 'feature' must be an int in 0..26" in capsys.readouterr().err

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
