from __future__ import annotations

from dataclasses import dataclass

import hypothesis
import pytest

from kgtable import dataset as ds
from kgtable import harness, ranker, selector, synth
from kgtable.graph import (
    EntityMetaStore,
    KnowledgeGraph,
    PredicateMetaStore,
    load_entity_meta,
    load_predicate_meta,
    load_triples,
)
from kgtable.query import QueryBudget

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")

# Small embedding dimensions keep selector training fast in tests; the
# query/chain dimension constraint still holds (32 + 2*8 + 32 = 80).
TEST_HP = selector.SelectorHyperParams(
    dim_qis=32,
    dim_cn=8,
    dim_set=32,
    dim_chain=80,
    learning_rate=0.05,
    epochs=60,
    batch_size=250,
)


@dataclass
class SynthBundle:
    paths: synth.SynthPaths
    g: KnowledgeGraph
    entity_meta: EntityMetaStore
    pred_meta: PredicateMetaStore
    embeddings: ranker.PretrainedEmbeddings
    tables: dict[str, ds.AnnotatedTable]
    split: ds.DatasetSplit
    tb_vocab: ds.Vocabulary
    kb_vocab: ds.Vocabulary

    def train_tables(self):
        return [self.tables[tid] for tid in self.split.train]

    def heldout_tables(self):
        return [self.tables[tid] for tid in self.split.validation + self.split.test]


@pytest.fixture(scope="session")
def bundle(tmp_path_factory) -> SynthBundle:
    paths = synth.make_corpus(str(tmp_path_factory.mktemp("synth")), n_tables=100, seed=7)
    g = load_triples(paths.graph)
    entity_meta = load_entity_meta(paths.entity_meta, g)
    pred_meta = load_predicate_meta(paths.predicate_meta)
    embeddings = ranker.PretrainedEmbeddings.load(paths.embeddings)
    tables, split, tb_vocab, kb_vocab, rejects = ds.build_corpus_dataset(
        ds.read_corpus(paths.corpus),
        g,
        ds.read_tsv_map(paths.url2mid),
        entity_meta,
        ds.read_tsv_multimap(paths.mid2types),
        ds.read_tsv_map(paths.fget),
        ds.BuildSettings(banned_prefixes=()),
        seed=13,
    )
    assert not rejects, f"synthetic corpus should annotate cleanly: {rejects}"
    return SynthBundle(
        paths, g, entity_meta, pred_meta, embeddings, tables, split, tb_vocab, kb_vocab
    )


@dataclass
class TrainedModels:
    linear: selector.LinearScorer
    embedding: selector.EmbeddingScorer
    ranker: ranker.RankerModel


@pytest.fixture(scope="session")
def trained(bundle) -> TrainedModels:
    train = bundle.train_tables()
    lin = selector.train_linear(train, bundle.tb_vocab, bundle.kb_vocab, TEST_HP)
    emb = selector.train_embedding(train, bundle.tb_vocab, bundle.kb_vocab, TEST_HP, seed=3)
    groups = harness.ranker_training_groups(
        train, bundle.g, bundle.entity_meta, bundle.pred_meta, bundle.embeddings,
        QueryBudget(),
    )
    model = ranker.train_ranker(groups, ranker.RankerConfig(tree_count=30, tree_depth=3))
    return TrainedModels(linear=lin, embedding=emb, ranker=model)
