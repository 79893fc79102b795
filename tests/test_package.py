import os
import subprocess
import sys
from pathlib import Path

import kgtable


def test_every_exported_name_resolves():
    assert [name for name in kgtable.__all__ if not hasattr(kgtable, name)] == []


def run_fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this kgtable."""
    env = dict(os.environ, PYTHONPATH=str(Path(kgtable.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


def test_serving_imports_leave_scipy_unloaded():
    """Only the selector trainers need scipy; importing the command line does not load it."""
    assert run_fresh("import sys, kgtable.cli; print('scipy' in sys.modules)") == "False"


def test_trainer_imports_of_scipy_are_frozen_once():
    """After the trainers' scipy imports a full collection has next to nothing
    left to scan (about 18,000 objects unfrozen), and later calls freeze
    nothing more."""
    code = (
        "import gc, kgtable.cli, kgtable.selector as s\n"
        "for kind in ('embedding', 'linear'): s.import_trainer(kind)\n"
        "frozen = gc.get_freeze_count()\n"
        "for kind in ('embedding', 'linear'): s.import_trainer(kind)\n"
        "print(len(gc.get_objects()) < 100, gc.get_freeze_count() == frozen)"
    )
    assert run_fresh(code) == "True True"
