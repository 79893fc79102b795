"""The benchmark's tracing wrappers install and come off cleanly.

``bench/tracing.py`` wraps kgtable functions by module and attribute name
and refuses to run when a kgtable module binds a wrapped function past its
wrapper. Installing the tracer here makes a renamed target or a new alias
fail the test suite in well under a second instead of aborting a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

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
