"""kgtable: complete two-column entity tables from a knowledge graph.

Given a query description, two column names and one example row, the
pipeline enumerates candidate relation chains connecting the example
entities, learns to select the best chain, executes it as a path query
and ranks the retrieved entity tuples.
"""

__version__ = "0.1.0"
