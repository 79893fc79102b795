"""Spans and counters recorded from outside the program.

Each wrapper replaces a kgtable function in the namespace where its callers
look the name up (``from .query import execute_chain`` binds a separate name
in every importing module), so each caller namespace gets its own wrapper.
Spans nest on one stack: a span's self time is its duration minus the time
its direct child spans cover. Spans are kept in compact arrays and written
out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from functools import wraps

from kgtable.query import BudgetExceeded

QUERY_ROOT = "harness.query"


def _sized(items) -> int:
    return len(set(items))


def _on_graph(counts, args, result):
    counts["graph.entities"] = len(result)
    counts["graph.edges"] = len(result.triples())


def _on_found(counts, args, result):
    counts["paths.found"] += len(result)


def _on_join(counts, args, result):
    counts["paths.join_pairs"] += _sized(args[2]) * _sized(args[3])
    counts["paths.join_kept"] += len(result)


def _on_execute(counts, args, result):
    if isinstance(result, BudgetExceeded):
        counts["query.budget_exceeded"] += 1
    else:
        counts["query.rows"] += len(result)


def _on_annotate(counts, args, result):
    counts["dataset.chains_kept"] += len(result.chains)


def _on_choose(counts, args, result):
    counts["selector.chains_scored"] += len(args[2])


def _on_features(counts, args, result):
    counts["ranker.candidates"] += len(args[4])


def _on_fit(counts, args, result):
    counts["ranker.train_rows"] += sum(len(g.relevance) for g in args[0])


def _on_query(counts, args, result):
    counts[f"harness.status.{result.status}"] += 1


def _on_triple(counts, args, result):
    counts["selector.train_triples"] += 1


# (module, attribute, span name or None for count-only, result hook, command
# kinds that must reach it). "Class.method" attributes are wrapped on the class.
TARGETS = (
    ("kgtable.cli", "load_triples", "graph.load", _on_graph, ("build-dataset", "complete")),
    ("kgtable.cli", "load_entity_meta", "graph.meta_load", None, ("build-dataset", "complete")),
    ("kgtable.cli", "load_predicate_meta", "graph.meta_load", None, ("evaluate", "complete")),
    ("kgtable.harness", "walk", "graph.walk", None, ("evaluate",)),
    ("kgtable.paths", "walk", "graph.walk", None, ("build-dataset", "complete")),
    ("kgtable.dataset", "enumerate_simple_paths", "paths.enumerate", _on_found, ("build-dataset",)),
    ("kgtable.cli", "enumerate_simple_paths", "paths.enumerate", _on_found, ("complete",)),
    ("kgtable.dataset", "join_chains", "paths.join", _on_join, ("build-dataset",)),
    ("kgtable.cli", "join_chains", "paths.join", _on_join, ("complete",)),
    ("kgtable.dataset", "execute_chain", "query.execute", _on_execute, ("build-dataset",)),
    ("kgtable.cli", "execute_chain", "query.execute", _on_execute, ("train-ranker", "complete")),
    ("kgtable.harness", "execute_chain", "query.execute", _on_execute, ("evaluate",)),
    ("kgtable.harness", "execute_prefix", "query.prefix", None, ("core-column-eval",)),
    ("kgtable.dataset", "build_corpus_dataset", "dataset.build", None, ("build-dataset",)),
    ("kgtable.dataset", "annotate_table", "dataset.annotate", _on_annotate, ("build-dataset",)),
    ("kgtable.dataset", "load_dataset", "dataset.load", None,
     ("train-selector", "evaluate", "complete")),
    ("kgtable.dataset", "read_corpus", "dataset.read", None, ("build-dataset",)),
    ("kgtable.dataset", "read_tsv_map", "dataset.read", None, ("build-dataset",)),
    ("kgtable.dataset", "read_tsv_multimap", "dataset.read", None, ("build-dataset", "complete")),
    ("kgtable.dataset", "save_dataset", "cli.write", None, ("build-dataset",)),
    ("kgtable.selector", "train_embedding", "selector.train", None, ("train-selector",)),
    ("kgtable.selector", "triple_hinge_gradients", None, _on_triple, ("train-selector",)),
    ("kgtable.selector", "save_scorer", "cli.write", None, ("train-selector",)),
    ("kgtable.selector", "load_scorer", "selector.load", None, ("evaluate", "complete")),
    ("kgtable.selector", "select_top1", "selector.choose", _on_choose, ("complete",)),
    ("kgtable.harness", "select_top1", "selector.choose", _on_choose, ("evaluate",)),
    ("kgtable.harness", "_run_one", "harness.query", _on_query, ("evaluate", "core-column-eval")),
    ("kgtable.harness", "filter_cc_er", "harness.filter", None, ("evaluate",)),
    ("kgtable.harness", "FeatureTupleRanker.features_for", "ranker.featurize", _on_features,
     ("train-ranker", "evaluate", "complete")),
    ("kgtable.harness", "write_runs", "cli.write", None, ("evaluate",)),
    ("kgtable.harness", "write_summary", "cli.write", None, ("evaluate",)),
    ("kgtable.harness", "write_metrics_csv", "cli.write", None, ("evaluate",)),
    ("kgtable.ranker", "RankerModel.predict", "ranker.predict", None, ("evaluate", "complete")),
    ("kgtable.ranker", "train_ranker", "ranker.fit", _on_fit, ("train-ranker",)),
    ("kgtable.ranker", "save_ranker", "cli.write", None, ("train-ranker",)),
    ("kgtable.ranker", "load_ranker", "ranker.model_load", None, ("evaluate", "complete")),
    ("kgtable.ranker", "PretrainedEmbeddings.load", "ranker.embeddings_load", None,
     ("train-ranker", "evaluate", "complete")),
)


class CoverageError(RuntimeError):
    """A wrapper could not be installed or an expected layer recorded no call."""


class Patches:
    """setattr with undo, for installing wrappers and removing them again."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def resolve(self, module: str, attr: str):
        """(owner object, attribute name, current raw value) of a target."""
        try:
            owner = importlib.import_module(module)
            *cls_path, name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[name] if cls_path else getattr(owner, name)
        except (ImportError, AttributeError, KeyError) as exc:
            raise CoverageError(f"cannot wrap {module}.{attr}: {exc!r}") from None
        return owner, name, raw

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name)
                           if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _replace(patches: Patches, module: str, attr: str, make):
    """Install make(function) in place of a target; return the function replaced."""
    owner, name, raw = patches.resolve(module, attr)
    if isinstance(raw, classmethod):
        patches.set(owner, name, classmethod(make(raw.__func__)))
        return raw.__func__
    if not callable(raw):
        raise CoverageError(f"{module}.{attr} is not callable")
    patches.set(owner, name, make(raw))
    return raw


def check_no_unwrapped_aliases(originals: dict[int, str]) -> None:
    """Fail when a kgtable module still binds an original wrapped function.

    Such a module calls the function without passing a wrapper, so its calls
    would escape the trace. The package ``__init__`` only re-exports names
    and the defining module's own binding is its definition; both are skipped.
    """
    for mod_name, mod in sorted(sys.modules.items()):
        if not mod_name.startswith("kgtable.") or mod is None:
            continue
        for name, value in vars(mod).items():
            label = originals.get(id(value))
            if label is None:
                continue
            if getattr(value, "__module__", None) == mod_name and value.__name__ == name:
                continue
            raise CoverageError(f"{mod_name}.{name} calls {label} past its wrapper")


class Probes:
    """The few timestamps end-to-end metrics need, for untraced passes.

    Records each evaluate query's start and end, and when a command reached
    its first query (evaluate) or first path enumeration (complete).
    """

    def __init__(self):
        self.patches = Patches()
        self.queries: list[tuple[int, int]] = []
        self.first_query_ns: int | None = None
        self.first_enumerate_ns: int | None = None

    def begin_command(self) -> None:
        self.queries = []
        self.first_query_ns = None
        self.first_enumerate_ns = None

    def install(self) -> None:
        def time_query(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                start = time.perf_counter_ns()
                if self.first_query_ns is None:
                    self.first_query_ns = start
                result = fn(*args, **kwargs)
                self.queries.append((start, time.perf_counter_ns()))
                return result
            return wrapper

        def mark_enumerate(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                if self.first_enumerate_ns is None:
                    self.first_enumerate_ns = time.perf_counter_ns()
                return fn(*args, **kwargs)
            return wrapper

        _replace(self.patches, "kgtable.harness", "_run_one", time_query)
        _replace(self.patches, "kgtable.cli", "enumerate_simple_paths", mark_enumerate)

    def uninstall(self) -> None:
        self.patches.undo()


class Tracer:
    """Spans at every target in ``TARGETS`` plus counters at the same boundaries."""

    def __init__(self):
        self.patches = Patches()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per finished span.
        self.span_id = array("q")
        self.parent = array("q")
        self.query = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[list] = []  # [id, name id, start ns, child ns, query id, scope]
        self._next_id = 1
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.scoped_ns: Counter[tuple[str, str]] = Counter()
        self.counts: Counter[str] = Counter()
        self.target_calls: Counter[str] = Counter()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, scope: str | None = None) -> None:
        """Start a span. Root spans name their scope (the command kind); query
        spans open the scope "<command>:query"; other spans inherit theirs."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        qid = sid if parent is None or name == QUERY_ROOT else parent[4]
        if parent is not None:
            scope = parent[5] + ":query" if name == QUERY_ROOT else parent[5]
        self._stack.append([sid, self._name_id(name), time.perf_counter_ns(), 0, qid, scope])

    def close(self) -> None:
        end = time.perf_counter_ns()
        sid, nid, start, child, qid, scope = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        name = self.names[nid]
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        self.calls[name] += 1
        self.scoped_ns[(scope, name)] += dur
        self.span_id.append(sid)
        self.parent.append(parent[0] if parent is not None else 0)
        self.query.append(qid)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)

    def install(self) -> None:
        originals: dict[int, str] = {}
        for module, attr, span, hook, _ in TARGETS:
            key = f"{module}.{attr}"

            def make(fn, span=span, hook=hook, key=key):
                if span is None:
                    @wraps(fn)
                    def counter(*args, **kwargs):
                        result = fn(*args, **kwargs)
                        self.target_calls[key] += 1
                        hook(self.counts, args, result)
                        return result
                    return counter

                @wraps(fn)
                def spanned(*args, **kwargs):
                    self.open(span)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        self.close()
                    self.target_calls[key] += 1
                    if hook is not None:
                        hook(self.counts, args, result)
                    return result
                return spanned

            original = _replace(self.patches, module, attr, make)
            originals[id(original)] = key
        check_no_unwrapped_aliases(originals)

    def uninstall(self) -> None:
        self.patches.undo()

    def check_coverage(self, kinds_run: set[str]) -> None:
        """Every target a command that ran must reach recorded at least one call."""
        missing = [
            f"{module}.{attr}"
            for module, attr, _, _, kinds in TARGETS
            if kinds_run & set(kinds) and not self.target_calls[f"{module}.{attr}"]
        ]
        if missing:
            raise CoverageError("wrappers recorded no call: " + ", ".join(missing))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tquery\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{self.parent[i]}\t{self.query[i]}\t"
                    f"{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )
