import importlib.util
import json
import re
import sys
from pathlib import Path

from kgtable.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_make_toy_data_writes_a_query_that_completes(tmp_path, capsys):
    config = str(load_script("make_toy_data").write_toy_data(str(tmp_path), 30, 7))
    for argv in (["build-dataset"], ["train-selector", "--epochs", "1"], ["train-ranker"],
                 ["complete", str(tmp_path / "query.json")]):
        assert main([*argv, "--config", config]) == 0, argv
    rows = (tmp_path / "out" / "completed.tsv").read_text().splitlines()[1:]
    assert rows and "selected chain" in capsys.readouterr().out


def test_run_experiment_runs_every_stage(tmp_path, monkeypatch, capsys):
    script = load_script("run_experiment")
    monkeypatch.setattr(
        sys, "argv",
        ["run_experiment.py", "--out", str(tmp_path), "--tables", "30", "--epochs", "1"],
    )
    script.main()
    out = capsys.readouterr().out
    assert "chain selection Accuracy@1" in out
    assert "[embedding,fr  ]" in out
    assert "core-column C1 recall" in out
    # The grid prints what evaluate wrote: the mean tuple recall of one cell.
    line = next(line for line in out.splitlines() if "[embedding,fr  ]" in line)
    printed = re.search(r"recall \[[^,]+, [^,]+, ([^,]+),", line).group(1)
    summary = json.loads((tmp_path / "eval" / "embedding-fr" / "summary.json").read_text())
    assert float(printed) == round(summary["metrics"]["tuple_recall"]["mean"], 4)
