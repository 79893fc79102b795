import json
from pathlib import Path

import pytest

from kgtable import synth
from kgtable.cli import main
from kgtable.config import RunConfig, config_defaults, load_config
from kgtable.dataset import BuildSettings, ConfigurationError
from kgtable.query import QueryBudget
from kgtable.ranker import RankerConfig
from kgtable.selector import SelectorHyperParams


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

    def test_flag_overrides_config(self, workspace, capsys):
        root, cfg_path, cfg = workspace
        assert main(["evaluate", "--config", str(cfg_path), "--eval-split", "validation"]) == 0
        assert "validation:" in capsys.readouterr().out


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
        return tmp_path, graph, meta, query

    def test_completes_with_the_second_pair_on_top(self, tv_world, capsys):
        tmp_path, graph, meta, query = tv_world
        code = main(
            [
                "complete", str(query),
                "--graph-path", str(graph),
                "--entity-meta-path", str(meta),
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
        tmp_path, graph, meta, query = tv_world
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
                "--graph-path", str(graph),
                "--entity-meta-path", str(meta),
                "--selector", "random",
                "--ranker", "random",
                "--output", str(tmp_path / "out2"),
            ]
        )
        assert code == 1
        assert "no connecting chain within length 3" in capsys.readouterr().err

    def test_same_seed_runs_are_byte_identical(self, tv_world):
        tmp_path, graph, meta, query = tv_world
        blobs = []
        for sub in ("o1", "o2"):
            assert main(
                [
                    "complete", str(query),
                    "--graph-path", str(graph),
                    "--entity-meta-path", str(meta),
                    "--selector", "random",
                    "--ranker", "random",
                    "--seed", "21",
                    "--output", str(tmp_path / sub),
                ]
            ) == 0
            blobs.append((tmp_path / sub / "completed.tsv").read_bytes())
        assert blobs[0] == blobs[1]


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
        with pytest.raises(SystemExit):
            main(["evaluate", "--help"])
        text = capsys.readouterr().out
        for key in config_defaults():
            assert "--" + key.replace("_", "-") in text

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
