"""Run configuration: one flat dataclass, a JSON file, and flag overrides.

Flags win over the file, the file wins over defaults. Unknown keys in the
file are rejected so stale experiment manifests fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .dataset import BuildSettings, ConfigurationError
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
    # dataset construction
    k_negatives: int = _HP.k_negatives
    # selector training
    margin: float = _HP.margin
    l2_weight: float = _HP.l2_weight
    learning_rate: float = _HP.learning_rate
    batch_size: int = _HP.batch_size
    epochs: int = _HP.epochs
    dim_qis: int = _HP.dim_qis
    dim_cn: int = _HP.dim_cn
    dim_set: int = _HP.dim_set
    dim_chain: int = _HP.dim_chain
    max_qis_tokens: int = _HP.max_qis_tokens
    max_cn_tokens: int = _HP.max_cn_tokens
    max_set_tokens: int = _HP.max_set_tokens
    max_chain_tokens: int = _HP.max_chain_tokens
    linear_l2: float = _HP.linear_l2
    # ranker training
    tree_count: int = _RANKER.tree_count
    tree_depth: int = _RANKER.tree_depth
    tree_learning_rate: float = _RANKER.learning_rate
    pairwise_sigma: float = _RANKER.sigma

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
        return RankerConfig(
            tree_count=self.tree_count,
            tree_depth=self.tree_depth,
            learning_rate=self.tree_learning_rate,
            sigma=self.pairwise_sigma,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, value):
    default = getattr(RunConfig(), name)
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    if isinstance(default, tuple):
        if isinstance(value, str):
            return tuple(v for v in value.split(",") if v)
        return tuple(value)
    return str(value)


def load_config(
    config_path: str | None = None, overrides: dict | None = None
) -> RunConfig:
    """Defaults, then the JSON file, then flag overrides; unknown keys fail."""
    values = {}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ConfigurationError(f"{config_path}: expected a JSON object")
        for name, value in file_values.items():
            if name not in _FIELD_TYPES:
                raise ConfigurationError(f"{config_path}: unknown config key {name!r}")
            values[name] = _coerce(name, value)
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        if name not in _FIELD_TYPES:
            raise ConfigurationError(f"unknown config key {name!r}")
        values[name] = _coerce(name, value)
    return RunConfig(**values)


def config_defaults() -> dict:
    """Field name to default value, for help text and documentation."""
    return {f.name: getattr(RunConfig(), f.name) for f in fields(RunConfig)}
