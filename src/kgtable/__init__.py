"""kgtable: complete two-column entity tables from a knowledge graph.

Given a query description, two column names and one example row, the
pipeline enumerates candidate relation chains connecting the example
entities, learns to select the best chain, executes it as a path query
and ranks the retrieved entity tuples.
"""

from .graph import (
    EntityMeta,
    EntityMetaStore,
    KnowledgeGraph,
    PredicateMeta,
    PredicateMetaStore,
    PredicateToken,
    UnknownEntityError,
    load_entity_meta,
    load_predicate_meta,
    load_triples,
)
from .paths import (
    DEFAULT_BANNED_PREFIXES,
    CandidateChainSet,
    ChainPair,
    MetaPath,
    enumerate_simple_paths,
    join_chains,
)
from .query import (
    BudgetExceeded,
    QueryBudget,
    TupleSet,
    execute_chain,
    execute_prefix,
    render_sparql,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CandidateChainSet",
    "ChainPair",
    "DEFAULT_BANNED_PREFIXES",
    "EntityMeta",
    "EntityMetaStore",
    "KnowledgeGraph",
    "MetaPath",
    "PredicateMeta",
    "PredicateMetaStore",
    "PredicateToken",
    "QueryBudget",
    "TupleSet",
    "UnknownEntityError",
    "enumerate_simple_paths",
    "execute_chain",
    "execute_prefix",
    "join_chains",
    "load_entity_meta",
    "load_predicate_meta",
    "load_triples",
    "render_sparql",
    "__version__",
]
