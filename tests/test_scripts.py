import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_experiment_runs_every_stage(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "run_experiment", SCRIPTS / "run_experiment.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(
        sys, "argv",
        ["run_experiment.py", "--out", str(tmp_path), "--tables", "30", "--epochs", "1"],
    )
    script.main()
    out = capsys.readouterr().out
    assert "chain selection Accuracy@1" in out
    assert "[embedding,fr  ]" in out
    assert "core-column C1 recall" in out
