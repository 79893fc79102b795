#!/usr/bin/env python3
"""Benchmark of the kgtable pipeline on three generated workloads.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--workload all`` runs every workload, one after the other, each in a
fresh process. A run generates its inputs from the seed, drives the
pipeline in-process through ``kgtable.cli.main`` with one client in a
closed loop, checks the outputs, prints every metric with its unit and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of an untraced pass. ``--trace
1`` runs the same fixed work untraced and then traced, and reports the
per-layer metrics of the traced pass. Any failed check exits with status 1
and no JSON line. See bench/README.md.
"""

from __future__ import annotations

import os

# One client on a two-core host: keep numeric libraries to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("corpus", "hubs", "adhoc")
ORACLE_SAMPLE = 24

ARTIFACTS = {
    "build-dataset": ("tables.jsonl", "split.json", "vocab_tb.json", "vocab_kb.json"),
    "train-selector": ("selector.json",),
    "train-ranker": ("ranker.json",),
    "evaluate": ("runs.jsonl", "summary.json", "metrics.csv"),
    "core-column-eval": ("core_column.json",),
    "complete": ("completed.tsv",),
}

# Counts that must repeat exactly whenever the same command runs on the same inputs.
EXACT_COUNTS = (
    "paths.found", "paths.join_pairs", "query.rows", "ranker.candidates",
    "selector.train_triples",
)


class BenchError(RuntimeError):
    """A correctness check, the coverage guard or a pipeline step failed."""


@dataclass
class CommandRun:
    argv: list[str]
    start_ns: int
    end_ns: int
    rc: int | None  # None: the command raised
    stderr: str
    first_ns: int | None = None  # first query (evaluate) or path enumeration (complete)
    queries: list[tuple[int, int]] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def no_chain(self) -> bool:
        """The documented exit of ``complete`` when no chain connects the row."""
        return self.kind == "complete" and self.rc == 1 and self.stderr.startswith(
            "no connecting chain"
        )

    @property
    def failed(self) -> bool:
        return self.rc != 0 and not self.no_chain


def load_program() -> None:
    """Import kgtable from this checkout's ``src``; fail without it."""
    if not (ROOT / "src" / "kgtable" / "__init__.py").is_file():
        raise BenchError(f"no kgtable sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise BenchError(f"no test oracles at {ROOT / 'tests' / 'oracles.py'}")
    sys.path.insert(0, str(ROOT / "src"))
    import kgtable

    if Path(kgtable.__file__).resolve().parent != ROOT / "src" / "kgtable":
        raise BenchError(f"kgtable imported from {kgtable.__file__}, not this checkout")


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs command lists through ``kgtable.cli.main`` and records each call."""

    def __init__(self, root: str, probes=None, tracer=None):
        from kgtable import cli

        self.cli = cli
        self.root = root
        self.probes = probes
        self.tracer = tracer

    def artifacts(self, argv: list[str]) -> dict[str, str]:
        kind = argv[0]
        config = json.loads(Path(_option(argv, "--config")).read_text(encoding="utf-8"))
        if kind == "build-dataset":
            base = Path(config["dataset_dir"])
        else:
            base = Path(_option(argv, "--output-dir") or config["output_dir"])
        paths = [base / name for name in ARTIFACTS.get(kind, ())]
        return {str(p.relative_to(self.root)): _sha256(p) for p in paths if p.is_file()}

    def run(self, argv: list[str]) -> CommandRun:
        if self.probes:
            self.probes.begin_command()
        before = Counter(self.tracer.counts) if self.tracer else None
        out, err = io.StringIO(), io.StringIO()
        rc: int | None = None
        start = time.perf_counter_ns()
        if self.tracer:
            self.tracer.open("cli.command", scope=argv[0])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except Exception:  # a raised command is recorded as a failed operation
            err.write(traceback.format_exc())
        finally:
            if self.tracer:
                self.tracer.close()
        rec = CommandRun(list(argv), start, time.perf_counter_ns(), rc, err.getvalue())
        if self.probes:
            rec.first_ns = (
                self.probes.first_query_ns if rec.kind == "evaluate"
                else self.probes.first_enumerate_ns
            )
            if rec.kind == "evaluate":
                rec.queries = self.probes.queries
        if self.tracer:
            rec.counts = {k: v - before.get(k, 0) for k, v in self.tracer.counts.items()
                          if v != before.get(k, 0)}
        if rec.rc == 0:
            rec.artifacts = self.artifacts(argv)
        if rec.failed and rec.kind != "complete":
            raise BenchError(f"{argv[0]} failed (rc={rc}):\n{rec.stderr}")
        return rec

    def run_pass(self, fixed, extend, seconds: float | None) -> list[CommandRun]:
        """The fixed commands, then ``extend`` cycled until ``seconds`` have passed."""
        start = time.perf_counter()
        records = [self.run(argv) for argv in fixed]
        i = 0
        while seconds is not None and time.perf_counter() - start < seconds:
            records.append(self.run(extend[i % len(extend)]))
            i += 1
        return records


# -- checks -----------------------------------------------------------------------


def check_repeats(records: list[CommandRun], what: str, attr: str) -> int:
    """Every run of the same command must produce the same ``attr`` value.

    Returns the number of runs compared with an earlier one; fails when there
    is none, since the check would then have checked nothing.
    """
    first: dict[tuple, dict] = {}
    compared = 0
    for rec in records:
        if rec.failed:
            continue
        key = tuple(rec.argv)
        value = getattr(rec, attr)
        if attr == "counts":
            value = {k: value.get(k, 0) for k in EXACT_COUNTS}
        if key in first:
            if first[key] != value:
                raise BenchError(f"{what} differ between runs of {rec.kind}: "
                                 f"{first[key]} != {value}")
            compared += 1
        first.setdefault(key, value)
    if compared == 0:
        raise BenchError(f"no command ran twice successfully, so no {what} were compared")
    return compared


def check_evaluations(records: list[CommandRun]) -> dict[tuple, dict[str, int]]:
    """Query status counts of each distinct evaluate; fail when none is ok."""
    statuses = {}
    for argv in {tuple(r.argv) for r in records if r.kind == "evaluate"}:
        summary = Path(_option(list(argv), "--output-dir")) / "summary.json"
        counts = json.loads(summary.read_text(encoding="utf-8"))["counts"]
        if counts.get("ok", 0) == 0:
            raise BenchError(f"no query with status ok in {summary}")
        statuses[argv] = counts
    return statuses


def tally(records: list[CommandRun], statuses: dict) -> tuple[int, int]:
    """(attempted, failed): every query of an evaluate, every other command once."""
    attempted = failed = 0
    for rec in records:
        counts = statuses.get(tuple(rec.argv)) if rec.kind == "evaluate" else None
        if counts:
            attempted += sum(counts.values())
            failed += counts.get("budget_exceeded", 0)
        else:
            attempted += 1
            failed += rec.failed
    return attempted, failed


def check_oracle(inputs, seed: int) -> int:
    """Executed chains must equal the brute-force oracle of tests/oracles.py."""
    import random

    from kgtable import dataset as ds
    from kgtable.config import load_config
    from kgtable.graph import load_triples
    from kgtable.query import BudgetExceeded, execute_chain

    spec = importlib.util.spec_from_file_location("kgtable_oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    cfg = load_config(inputs.configs[0])
    g = load_triples(cfg.graph_path)
    triples = list(g.triples())
    tables, _, _, _ = ds.load_dataset(cfg.dataset_dir, g)
    # Chains with a nonzero recall were executed and scored during the build.
    executed = sorted(
        {(t.se, lc.chain.canonical()): lc.chain for t in tables.values()
         for lc in t.chains if lc.recall > 0}.items()
    )
    sample = random.Random(seed).sample(executed, min(ORACLE_SAMPLE, len(executed)))
    for (se, canonical), chain in sample:
        got = execute_chain(g, se, chain, cfg.budget())
        if isinstance(got, BudgetExceeded):
            raise BenchError(f"kept chain {canonical} exceeds its budget on re-execution")
        want = oracles.naive_chain_eval(
            triples, g.mid(se),
            tuple((t.name, t.inverse) for t in chain.p1.tokens),
            tuple((t.name, t.inverse) for t in chain.p2.tokens),
        )
        if {(g.mid(x), g.mid(y)) for x, y in got.pairs} != want:
            raise BenchError(
                f"execute_chain disagrees with the oracle on {canonical} from {g.mid(se)}"
            )
    return len(sample)


# -- metrics ------------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _quality(records: list[CommandRun]) -> tuple[float, float, int]:
    """Mean tuple recall and NDCG over ok queries of every distinct evaluate."""
    recalls, ndcgs = [], []
    for argv in sorted({tuple(r.argv) for r in records if r.kind == "evaluate"}):
        runs = Path(_option(list(argv), "--output-dir")) / "runs.jsonl"
        for line in runs.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec["status"] == "ok":
                recalls.append(rec["tuple_recall"])
                ndcgs.append(rec["ndcg"])
    return statistics.fmean(recalls), statistics.fmean(ndcgs), len(recalls)


@dataclass
class Timings:
    """Scaled (see hostspeed.py) and raw seconds of one pass, by what they time."""

    scaled: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    queries_per_s: list[float] = field(default_factory=list)  # one per evaluate

    def add(self, key: str, scaled_ns: float, raw_ns: int) -> None:
        self.scaled.setdefault(key, []).append(scaled_ns / 1e9)
        self.raw.setdefault(key, []).append(raw_ns / 1e9)


def timings(records: list[CommandRun], speed) -> Timings:
    out = Timings()
    for rec in records:
        if rec.failed:
            continue
        factor = speed.factor(rec.start_ns, rec.end_ns)
        out.add(rec.kind, speed.scaled_ns(rec.start_ns, rec.end_ns, factor),
                rec.end_ns - rec.start_ns)
        if rec.first_ns is not None:
            out.add(f"{rec.kind}:setup", speed.scaled_ns(rec.start_ns, rec.first_ns, factor),
                    rec.first_ns - rec.start_ns)
        if rec.queries:
            scaled = [speed.scaled_ns(q0, q1) for q0, q1 in rec.queries]
            for (q0, q1), value in zip(rec.queries, scaled):
                out.add("query", value, q1 - q0)
            out.queries_per_s.append(len(scaled) * 1e9 / sum(scaled))
    return out


def end_to_end(spec, records: list[CommandRun], t: Timings) -> tuple[dict, dict]:
    """(metrics, extras): metrics are the BENCHMARK.json end-to-end set."""

    def samples(key, minimum=1):
        values = t.scaled.get(key, [])
        if len(values) < minimum:
            raise BenchError(f"{len(values)} samples of {key}, fewer than {minimum}")
        return values

    setups = samples(f"{spec.serving}:setup")
    queries = [v * 1e3 for v in samples("query", 100)]
    completes = [v * 1e3 for v in samples("complete")]
    recall, ndcg, n_ok = _quality(records)

    metrics = {"setup_s": (statistics.median(setups), "s", len(setups))}
    for kind in ("build-dataset", "train-selector", "train-ranker"):
        values = samples(kind)
        metrics[kind.replace("-", "_") + "_s"] = (statistics.median(values), "s", len(values))
    metrics.update({
        "query_ms.p50": (statistics.median(queries), "ms", len(queries)),
        "query_ms.p90": (_percentile(queries, 90), "ms", len(queries)),
        "queries_per_s": (statistics.median(t.queries_per_s), "1/s", len(t.queries_per_s)),
        "complete_ms.p50": (statistics.median(completes), "ms", len(completes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "tuple_recall_mean": (recall, "share", n_ok),
        "ndcg_mean": (ndcg, "share", n_ok),
    })

    # Tail percentiles with at least ten samples beyond them, where a workload
    # has them, and the unscaled medians for reference.
    extras = {}
    if len(queries) >= 1000:
        extras["query_ms.p99"] = (_percentile(queries, 99), "ms", len(queries))
    if len(completes) >= 100:
        extras["complete_ms.p90"] = (_percentile(completes, 90), "ms", len(completes))
    for key in sorted(t.raw):
        extras[f"raw.{key}_s.p50"] = (statistics.median(t.raw[key]), "s", len(t.raw[key]))
    return metrics, extras


def per_layer(tracer, traced: Timings, untraced: Timings) -> dict:
    """The BENCHMARK.json per-layer set from the traced pass."""
    c = tracer.counts
    total = lambda name: tracer.total_ns[name] / 1e9  # noqa: E731
    self_s = lambda name: tracer.self_ns[name] / 1e9  # noqa: E731
    calls = tracer.calls
    pairs = c["paths.join_pairs"]
    traced_s = sum(sum(traced.scaled.get(kind, ())) for kind in ARTIFACTS)
    untraced_s = sum(sum(untraced.scaled.get(kind, ())) for kind in ARTIFACTS)
    rows = [
        ("graph.load_s", total("graph.load"), "s"),
        ("graph.meta_load_s", total("graph.meta_load"), "s"),
        ("graph.walk_s", total("graph.walk"), "s"),
        ("graph.walk_calls", calls["graph.walk"], "count"),
        ("graph.entities", c["graph.entities"], "count"),
        ("graph.edges", c["graph.edges"], "count"),
        ("paths.enumerate_s", total("paths.enumerate"), "s"),
        ("paths.enumerate_calls", calls["paths.enumerate"], "count"),
        ("paths.found", c["paths.found"], "count"),
        ("paths.join_s", self_s("paths.join"), "s"),
        ("paths.join_pairs", pairs, "count"),
        ("paths.join_kept", c["paths.join_kept"], "count"),
        ("paths.join_keep_ratio", c["paths.join_kept"] / pairs if pairs else 0.0, "share"),
        ("query.execute_s", total("query.execute"), "s"),
        ("query.execute_calls", calls["query.execute"], "count"),
        ("query.rows", c["query.rows"], "count"),
        ("query.budget_exceeded", c["query.budget_exceeded"], "count"),
        ("dataset.build_self_s", self_s("dataset.build") + self_s("dataset.annotate"), "s"),
        ("dataset.chains_scored", tracer.target_calls["kgtable.dataset.execute_chain"], "count"),
        ("dataset.chains_kept", c["dataset.chains_kept"], "count"),
        ("dataset.load_s", total("dataset.load"), "s"),
        ("dataset.read_s", total("dataset.read"), "s"),
        ("selector.train_s", total("selector.train"), "s"),
        ("selector.train_triples", c["selector.train_triples"], "count"),
        ("selector.choose_s", total("selector.choose"), "s"),
        ("selector.chains_scored", c["selector.chains_scored"], "count"),
        ("selector.load_s", total("selector.load"), "s"),
        ("ranker.featurize_s", total("ranker.featurize"), "s"),
        ("ranker.candidates", c["ranker.candidates"], "count"),
        ("ranker.predict_s", total("ranker.predict"), "s"),
        ("ranker.fit_s", total("ranker.fit"), "s"),
        ("ranker.train_rows", c["ranker.train_rows"], "count"),
        ("ranker.embeddings_load_s", total("ranker.embeddings_load"), "s"),
        ("ranker.model_load_s", total("ranker.model_load"), "s"),
        ("harness.filter_s", self_s("harness.filter"), "s"),
        ("harness.query_self_s", self_s("harness.query"), "s"),
        ("harness.skipped", c["harness.status.skipped_empty_cc"], "count"),
        ("cli.write_s", total("cli.write"), "s"),
        ("cli.unattributed_s", self_s("cli.command"), "s"),
        ("trace.overhead_share", traced_s / untraced_s - 1.0, "share"),
    ]
    return {name: (value, unit, None) for name, value, unit in rows}


GRAPH_LAYERS = ("paths.enumerate", "paths.join", "query.execute", "query.prefix", "graph.walk")
LOAD_SPANS = (
    "graph.load", "graph.meta_load", "dataset.load", "dataset.read",
    "selector.load", "ranker.embeddings_load", "ranker.model_load",
)


def layer_shares(tracer) -> dict:
    """The shares the traced run is expected to show (see bench/README.md)."""
    run_ns = sum(v for (scope, name), v in tracer.scoped_ns.items() if name == "cli.command")
    query_ns = tracer.scoped_ns[("evaluate:query", "harness.query")]
    complete_ns = tracer.scoped_ns[("complete", "cli.command")]
    return {
        "graph_self_share_of_run": sum(tracer.self_ns[n] for n in GRAPH_LAYERS) / run_ns,
        "featurize_share_of_evaluate_queries":
            tracer.scoped_ns[("evaluate:query", "ranker.featurize")] / query_ns,
        "load_share_of_complete": (
            sum(tracer.scoped_ns[("complete", n)] for n in LOAD_SPANS) / complete_ns
        ),
    }


# -- one workload ----------------------------------------------------------------------


def digest(directory: Path) -> str:
    """SHA-256 over the names and contents of the Python files in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def environment(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": digest(ROOT / "src" / "kgtable"),
        "bench_sha256": digest(ROOT / "bench"),
        "seed": seed,
        "sizes": sizes,
    }


def check_counts_across_runs(workload: str, seed: int, env: dict, counts: dict) -> bool:
    """Exact work counts must match an earlier run of the same sources and seed.

    Returns whether there was an earlier run to compare with.
    """
    key = f"{env['source_sha256'][:12]}-{env['bench_sha256'][:12]}"
    path = OUT / f"counts-{workload}-seed{seed}-{key}.json"
    exact = {k: counts.get(k, 0) for k in EXACT_COUNTS}
    if not path.is_file():
        path.write_text(json.dumps(exact, sort_keys=True) + "\n", encoding="utf-8")
        return False
    earlier = json.loads(path.read_text(encoding="utf-8"))
    if earlier != exact:
        raise BenchError(f"work counts differ from the earlier run in {path.name}: "
                         f"{earlier} != {exact}")
    return True


def run_pass(runner, speed, fixed, extend, seconds) -> tuple[list[CommandRun], Timings]:
    speed.start()
    try:
        records = runner.run_pass(fixed, extend, seconds)
    finally:
        speed.stop()
    return records, timings(records, speed)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    load_program()
    sys.path.insert(0, str(ROOT / "bench"))
    import hostspeed
    import tracing
    import workloads

    spec = workloads.SPECS[workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = workloads.make_inputs(workload, seed, work)
        fixed, extend = workloads.plan(workload, inputs)
        env = environment(seed, inputs.sizes)
        checks = []

        probes = tracing.Probes()
        probes.install()
        try:
            untraced, untraced_t = run_pass(
                Runner(inputs.root, probes=probes), hostspeed.HostSpeed(), fixed, extend,
                None if trace else seconds,
            )
        finally:
            probes.uninstall()
        n = check_repeats(untraced, "artifacts", "artifacts")
        statuses = check_evaluations(untraced)
        checks += [f"{n} repeated commands wrote the artifacts of their first run",
                   "every evaluate has ok queries"]

        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, traced_t = run_pass(
                    Runner(inputs.root, tracer=tracer), hostspeed.HostSpeed(), fixed, extend, None
                )
            finally:
                tracer.uninstall()
            tracer.check_coverage({r.kind for r in traced})
            checks.append("every expected wrapper recorded calls")
            if [(r.argv, r.artifacts) for r in untraced] != [(r.argv, r.artifacts) for r in traced]:
                raise BenchError("artifacts differ between the untraced and the traced pass")
            checks.append("untraced and traced passes wrote identical artifacts")
            n = check_repeats(traced, "work counts", "counts")
            checks.append(f"{n} repeated commands had the work counts of their first run")
            if check_counts_across_runs(workload, seed, env, tracer.counts):
                checks.append("work counts equal those of an earlier traced run")
            if spec.hubs and tracer.counts["query.budget_exceeded"] == 0:
                raise BenchError("no chain exceeded its budget on the hubs workload")
            metrics = per_layer(tracer, traced_t, untraced_t)
            extras = {k: (v, "share", None) for k, v in layer_shares(tracer).items()}
            tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv")
            records = traced
        else:
            metrics, extras = end_to_end(spec, untraced, untraced_t)
            records = untraced

        if spec.hubs:
            n = check_oracle(inputs, seed)
            checks.append(f"{n} sampled chains equal the brute-force oracle")

        attempted, failed = tally(records, statuses)
        query_status: Counter[str] = Counter()
        for counts in statuses.values():
            query_status.update(counts)
        return {
            "workload": workload, "trace": int(trace), "environment": env,
            "metrics": metrics, "extras": extras, "checks": checks,
            "attempted": attempted, "failed": failed, "query_status": dict(query_status),
            "complete_no_chain": sum(r.no_chain for r in records),
            "commands": [
                {"command": r.kind, "wall_s": (r.end_ns - r.start_ns) / 1e9, "rc": r.rc}
                for r in records
            ],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result: dict) -> None:
    env = result["environment"]
    print(
        f"kgtable benchmark: workload={result['workload']} seed={env['seed']} "
        f"trace={result['trace']} nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} commit={env['commit']} "
        f"source={env['source_sha256'][:12]} sizes={json.dumps(env['sizes'])}"
    )
    for group in ("metrics", "extras"):
        for name, (value, unit, n) in result[group].items():
            samples = f"  (n={n})" if n else ""
            print(f"  {name:28s} {value:14.6g} {unit}{samples}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"query_status={result['query_status']} complete_no_chain={result['complete_no_chain']}")
    for check in result["checks"]:
        print(f"  check ok: {check}")


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        if proc.returncode != 0:
            print(f"workload {workload} failed with exit status {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        last = json.loads(lines[-1])
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    if status == 0:
        print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as exc:  # tracing.CoverageError and BenchError included
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        if not isinstance(exc, RuntimeError):
            traceback.print_exc()
        return 1
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(result)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
