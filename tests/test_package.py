import os
import subprocess
import sys
from pathlib import Path

import kgtable


def test_every_exported_name_resolves():
    assert [name for name in kgtable.__all__ if not hasattr(kgtable, name)] == []


def test_serving_imports_leave_scipy_unloaded():
    """Only the selector trainers need scipy; importing the command line does not load it."""
    code = "import sys, kgtable.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(kgtable.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
