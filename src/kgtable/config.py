"""Run configuration: one flat dataclass, a JSON file, and flag overrides.

Flags win over the file, the file wins over defaults. Unknown keys in the
file are rejected so stale experiment manifests fail loudly, each value
must have its default's type, and the merged values must make valid
settings.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields

from .dataset import BuildSettings, ConfigurationError
from .graph import checked, integer, number, read_json, string, strings
from .query import QueryBudget
from .ranker import RankerConfig
from .selector import SelectorHyperParams

# The settings classes own the defaults; RunConfig only flattens them.
_BUILD = BuildSettings()
_BUDGET = QueryBudget()
_HP = SelectorHyperParams()
_RANKER = RankerConfig()


@dataclass
class RunConfig:
    # input files
    graph_path: str = ""
    entity_meta_path: str = ""
    predicate_meta_path: str = ""
    corpus_path: str = ""
    url2mid_path: str = ""
    mid2types_path: str = ""
    fget_path: str = ""
    embeddings_path: str = ""
    # artifact locations
    dataset_dir: str = "dataset"
    output_dir: str = "out"
    selector_model_path: str = ""
    ranker_model_path: str = ""
    # component choices
    selector: str = "embedding"  # oracle | random | jacsim | linear | embedding
    ranker: str = "feature"  # feature | random
    eval_split: str = "test"  # validation | test
    seed: int = 13
    # path search and query execution
    max_path_len: int = _BUILD.max_path_len
    degree_cap: int = _BUILD.degree_cap
    banned_prefixes: tuple[str, ...] = _BUILD.banned_prefixes
    max_rows: int = _BUDGET.max_rows
    max_steps: int = _BUDGET.max_steps
    # selector training
    learning_rate: float = _HP.learning_rate
    epochs: int = _HP.epochs
    dim_qis: int = _HP.dim_qis
    dim_cn: int = _HP.dim_cn
    dim_set: int = _HP.dim_set
    dim_chain: int = _HP.dim_chain
    # ranker training
    tree_count: int = _RANKER.tree_count
    tree_depth: int = _RANKER.tree_depth

    def budget(self) -> QueryBudget:
        return QueryBudget(max_rows=self.max_rows, max_steps=self.max_steps)

    def build_settings(self) -> BuildSettings:
        return BuildSettings(
            max_path_len=self.max_path_len,
            degree_cap=self.degree_cap,
            banned_prefixes=tuple(self.banned_prefixes),
            budget=self.budget(),
        )

    def selector_hp(self) -> SelectorHyperParams:
        return SelectorHyperParams(
            **{f.name: getattr(self, f.name) for f in fields(SelectorHyperParams)}
        )

    def ranker_cfg(self) -> RankerConfig:
        return RankerConfig(**{f.name: getattr(self, f.name) for f in fields(RankerConfig)})


_DEFAULTS = vars(RunConfig())
_READERS = {int: integer, float: number, str: string, tuple: strings}


def _coerce(name: str, value):
    """``value`` read as key ``name``'s default's type; a tuple also from "a,b"."""
    default = _DEFAULTS[name]
    if isinstance(default, tuple) and isinstance(value, str):
        return tuple(v for v in value.split(",") if v)
    return _READERS[type(default)](value, name)


def load_config(
    config_path: str | None = None, overrides: dict | None = None
) -> RunConfig:
    """Defaults, then the JSON file, then flag overrides; unknown keys fail, and
    a file value of another type than its default is a ``ParseError``. The merged
    values build every settings class, so a value out of range or at odds with
    another fails here, naming the config file when there is one."""
    values = {}
    if config_path:
        for name, value in read_json(config_path).items():
            if name not in _DEFAULTS:
                raise ConfigurationError(f"{config_path}: unknown config key {name!r}")
            with checked(config_path, 1):
                values[name] = _coerce(name, value)
    for name, value in (overrides or {}).items():
        if name not in _DEFAULTS:
            raise ConfigurationError(f"unknown config key {name!r}")
        values[name] = _coerce(name, value)
    cfg = RunConfig(**values)
    with checked(config_path, 1) if config_path else nullcontext():
        cfg.build_settings()  # and its budget
        cfg.selector_hp()
        cfg.ranker_cfg()
        if cfg.eval_split not in ("validation", "test"):
            raise ValueError(f"eval_split must be validation or test, not {cfg.eval_split!r}")
    return cfg


def config_defaults() -> dict:
    """Field name to default value, for help text and documentation."""
    return dict(_DEFAULTS)
