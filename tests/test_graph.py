import copy
import dataclasses
import json
import pickle
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import build_adjacency, grouped_adjacency, naive_entity_meta

from kgtable import dataset as ds
from kgtable import synth
from kgtable.ranker import PretrainedEmbeddings
from kgtable.graph import (
    EntityMeta,
    EntityMetaStore,
    KnowledgeGraph,
    ParseError,
    PredicateMeta,
    PredicateMetaStore,
    PredicateToken,
    UnknownEntityError,
    load_entity_meta,
    load_predicate_meta,
    load_triples,
    predicate_src_tokens,
    walk,
    write_json_lines,
)


def graph_of(*triples):
    return KnowledgeGraph(triples)


class TestLoadTriples:
    def test_single_triple_builds_both_directions(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tp\tb\n")
        g = load_triples(str(path))
        a, b = g.entity_id("a"), g.entity_id("b")
        assert g.adjacency(a) == {PredicateToken("p"): (b,)}
        assert g.adjacency(b) == {PredicateToken("p", True): (a,)}

    def test_empty_file_gives_empty_graph(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("")
        g = load_triples(str(path))
        assert len(g) == 0

    def test_duplicate_triples_are_deduplicated(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tp\tb\na\tp\tb\n")
        g = load_triples(str(path))
        assert g.degree(g.entity_id("a")) == 1

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# a comment\n\na\tp\tb\n")
        assert len(load_triples(str(path))) == 2

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tp\tb\nbroken line\n")
        with pytest.raises(ParseError, match="2"):
            load_triples(str(path))


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdefgh"),
                st.sampled_from(["p", "q", "r"]),
                st.sampled_from("abcdefgh"),
            ),
            min_size=1,
            max_size=30,
        ),
        st.randoms(),
    )
    def test_load_determinism_under_permutation(self, triples, rnd):
        g1 = KnowledgeGraph(triples)
        shuffled = list(triples)
        rnd.shuffle(shuffled)
        g2 = KnowledgeGraph(shuffled)
        assert g1.triples() == g2.triples()
        assert [g1.mid(e) for e in range(len(g1))] == [g2.mid(e) for e in range(len(g2))]
        assert all(g1.adjacency(e) == g2.adjacency(e) for e in range(len(g1)))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdef"),
                st.sampled_from(["p", "q"]),
                st.sampled_from("abcdef"),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_inverse_closure_and_degree_consistency(self, triples):
        g = KnowledgeGraph(triples)
        for e in range(len(g)):
            groups = g.adjacency(e)
            assert list(groups) == sorted(groups)
            assert g.degree(e) == sum(len(nbrs) for nbrs in groups.values())
            for tok, nbrs in groups.items():
                assert list(nbrs) == sorted(set(nbrs))
                for nbr in nbrs:
                    inverse = PredicateToken(tok.name, not tok.inverse)
                    assert e in g.adjacency(nbr).get(inverse, ())

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcde"),
                st.sampled_from(["p", "q.r", "s"]),
                st.sampled_from("abcde"),
            ),
            max_size=30,
        )
    )
    @example([("a", "p", "a"), ("a", "p", "b"), ("a", "p", "b"), ("b", "p", "a"), ("c", "s", "a")])
    def test_groups_and_degrees_match_the_naive_adjacency(self, triples):
        g = KnowledgeGraph(triples)
        want = grouped_adjacency(triples)
        degree = build_adjacency(triples)
        assert sorted(want) == [g.mid(e) for e in range(len(g))]
        shared: dict[tuple[str, bool], PredicateToken] = {}
        for e in range(len(g)):
            groups = g.adjacency(e)
            got = [((t.name, t.inverse), [g.mid(n) for n in nbrs]) for t, nbrs in groups.items()]
            assert got == want[g.mid(e)]
            assert g.degree(e) == len(degree[g.mid(e)])
            for tok in groups:
                assert shared.setdefault((tok.name, tok.inverse), tok) is tok


class TestNeighbors:
    def test_unknown_entity_raises(self):
        g = graph_of(("hub", "p", "leaf0"), ("hub", "p", "leaf1"))
        with pytest.raises(UnknownEntityError):
            g.adjacency(9999)
        with pytest.raises(UnknownEntityError):
            g.degree(9999)
        with pytest.raises(UnknownEntityError):
            g.entity_id("nope")


class TestWalk:
    def test_walk_follows_tokens_in_order(self):
        g = graph_of(("s", "p", "a"), ("a", "q", "b"))
        s = g.entity_id("s")
        assert walk(g, {s}, (PredicateToken("p"), PredicateToken("q"))) == {g.entity_id("b")}
        assert walk(g, {s}, (PredicateToken("q"),)) == set()

    def test_unknown_start_entity_raises(self):
        g = graph_of(("s", "p", "a"))
        with pytest.raises(UnknownEntityError):
            walk(g, {9999}, (PredicateToken("p"),))
        with pytest.raises(UnknownEntityError):
            walk(g, {g.entity_id("s"), -1}, ())


class TestMetadata:
    def test_entity_meta_tokenization(self, tmp_path):
        g = graph_of(("m.1", "p", "m.2"))
        path = tmp_path / "meta.jsonl"
        path.write_text('{"mid": "m.1", "name": "One", "description": "a b"}\n')
        store = load_entity_meta(str(path), g)
        meta = store.get(g.entity_id("m.1"))
        assert meta.name == "One"
        assert set(meta.description) == {"a", "b"}

    def test_unseen_entity_gets_empty_meta(self):
        store = EntityMetaStore({})
        assert store.get(123) == EntityMeta()

    def test_malformed_json_line_reports_line_number(self, tmp_path):
        g = graph_of(("m.1", "p", "m.2"))
        path = tmp_path / "meta.jsonl"
        path.write_text('{"mid": "m.1"}\n{broken\n')
        with pytest.raises(ParseError, match="2"):
            load_entity_meta(str(path), g)

    def _meta_file(self, tmp_path, *records):
        path = tmp_path / "meta.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    def test_type_field_that_is_not_a_list_is_rejected(self, tmp_path):
        g = graph_of(("m.1", "p", "m.2"))
        path = self._meta_file(tmp_path, {"mid": "m.2"}, {"mid": "m.1", "rdf_types": 5})
        with pytest.raises(ParseError, match=r"meta\.jsonl:2: 'rdf_types' must be a list"):
            load_entity_meta(path, g)

    def test_type_field_that_is_a_string_is_rejected(self, tmp_path):
        g = graph_of(("m.1", "p", "m.2"))
        path = self._meta_file(tmp_path, {"mid": "m.1", "notable_types": "music.organization"})
        with pytest.raises(ParseError, match=r"meta\.jsonl:1: 'notable_types' must be a list"):
            load_entity_meta(path, g)

    def test_type_list_with_a_non_string_item_is_rejected(self, tmp_path):
        g = graph_of(("m.1", "p", "m.2"))
        for bad in ([["a.b"]], ["a.b", 3]):
            path = self._meta_file(tmp_path, {"mid": "m.1", "rdf_types": ["a.b"]},
                                   {"mid": "m.2", "rdf_types": bad})
            with pytest.raises(ParseError, match=r"meta\.jsonl:2: 'rdf_types'"):
                load_entity_meta(path, g)

    def test_null_text_fields_are_empty_and_other_values_rejected(self, tmp_path):
        g = graph_of(("m.1", "p", "m.2"))
        path = self._meta_file(
            tmp_path,
            {"mid": "m.1", "name": None, "description": None, "rdf_types": None},
        )
        assert load_entity_meta(path, g).get(g.entity_id("m.1")) == EntityMeta()
        for key in ("name", "description"):
            path = self._meta_file(tmp_path, {"mid": "m.1", key: 7})
            with pytest.raises(ParseError, match=rf"meta\.jsonl:1: '{key}' must be a string"):
                load_entity_meta(path, g)

    def test_predicate_type_field_must_be_a_list_of_strings(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"name": "a.b.c", "expected_target_types": "tv.genre"}\n')
        with pytest.raises(ParseError, match=r"preds\.jsonl:1: 'expected_target_types'"):
            load_predicate_meta(str(path))

    def test_equal_type_lists_share_one_token_set(self, tmp_path):
        g = graph_of(("m.1", "p", "m.2"))
        path = self._meta_file(
            tmp_path,
            {"mid": "m.1", "notable_types": ["tv.actor"], "rdf_types": ["tv.actor"]},
            {"mid": "m.2", "notable_types": ["tv.actor"], "rdf_types": ["tv.actor", "x"]},
        )
        store = load_entity_meta(path, g)
        one, two = store.get(g.entity_id("m.1")), store.get(g.entity_id("m.2"))
        assert one.notable_types == {"tv", "actor"}
        assert one.notable_types is one.rdf_types is two.notable_types
        assert two.rdf_types == {"tv", "actor", "x"}

    def test_equal_descriptions_share_one_token_tuple(self, tmp_path):
        g = graph_of(("m.1", "p", "m.2"))
        path = self._meta_file(
            tmp_path,
            {"mid": "m.1", "description": "An American actor."},
            {"mid": "m.2", "description": "An American actor."},
        )
        store = load_entity_meta(path, g)
        one, two = store.get(g.entity_id("m.1")), store.get(g.entity_id("m.2"))
        assert one.description == ("an", "american", "actor")
        assert one.description is two.description

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_every_entity_matches_the_per_record_oracle(self, tmp_path, seed):
        data = synth.make_corpus(str(tmp_path), n_tables=30, seed=seed)
        g = load_triples(data.graph)
        store = load_entity_meta(data.entity_meta, g)
        want = naive_entity_meta(data.entity_meta)
        assert len(store) == len(g)
        for e in range(len(g)):
            assert store.get(e) == EntityMeta(*want[g.mid(e)])

    def test_predicate_prefix_rule(self):
        assert predicate_src_tokens("tv.tv_actor.starring_roles") == {"tv", "actor"}
        # Generic tokens are dropped; the rest of the prefix survives.
        assert predicate_src_tokens("common.topic.description") == {"topic"}
        assert predicate_src_tokens("base.type.thing") == frozenset()
        assert predicate_src_tokens("nodot") == frozenset()

    def test_predicate_meta_store(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"name": "tv.tv_program.genre", "expected_target_types": ["tv.genre"]}\n'
        )
        store = load_predicate_meta(str(path))
        meta = store.get("tv.tv_program.genre")
        assert meta.src_type == {"tv", "program"}
        assert meta.tgt_types == {"tv", "genre"}
        # Predicates absent from the file still get a prefix-derived source.
        other = store.get("film.actor.performances")
        assert other.src_type == {"film", "actor"}
        assert other.tgt_types == frozenset()

    def test_predicate_meta_is_derived_once_per_name(self):
        store = PredicateMetaStore({"tv.tv_program.genre": frozenset({"tv", "genre"})})
        for name, tgt in (("tv.tv_program.genre", {"tv", "genre"}), ("nodot", set())):
            first = store.get(name)
            assert store.get(name) is first
            assert first == PredicateMeta(predicate_src_tokens(name), frozenset(tgt))


class TestPredicateToken:
    def test_render_and_parse_roundtrip(self):
        assert PredicateToken("p").render() == "p"
        assert PredicateToken("p", True).render() == "^p"
        assert PredicateToken.parse("^p") == PredicateToken("p", True)
        assert PredicateToken.parse("p") == PredicateToken("p")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            PredicateToken("")

    def test_equal_tokens_hash_equal_and_sort_by_name_then_direction(self):
        inverse = PredicateToken("p", True)
        copies = (copy.copy(inverse), pickle.loads(pickle.dumps(inverse)))
        for twin in (PredicateToken.parse("^p"), *copies):
            assert twin == inverse and hash(twin) == hash(inverse)
            assert {inverse: 1}[twin] == 1
        tokens = [PredicateToken("q"), inverse, PredicateToken("p"), PredicateToken("a.b", True)]
        assert [t.render() for t in sorted(tokens)] == ["^a.b", "p", "^p", "q"]
        assert dataclasses.replace(inverse, inverse=False) == PredicateToken("p")
        with pytest.raises(dataclasses.FrozenInstanceError):
            inverse.name = "q"


class TestJsonArtifacts:
    def test_one_compact_sorted_key_line_per_record(self, tmp_path):
        path = tmp_path / "new" / "dir" / "runs.jsonl"
        write_json_lines(path, iter([{"b": [1, 2.5], "a": None}, {"\u00e9": {"z": 0, "y": ""}}]))
        assert path.read_bytes() == b'{"a":null,"b":[1,2.5]}\n{"\\u00e9":{"y":"","z":0}}\n'



META_TEXT = st.sampled_from(["", "Ann", "An actor.", "an ACTOR", "A film/series"])
META_TYPES = st.lists(
    st.sampled_from(["tv.actor", "film.film", "base.x", "tv.tv_actor"]), max_size=3
)


class TestCompiledKB:
    """The compiled KB that build-dataset writes reloads as the raw files load."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdef"),
                st.sampled_from(["p", "q.r", "s.t.u"]),
                st.sampled_from("abcdef"),
            ),
            max_size=30,
        ),
        st.lists(
            st.fixed_dictionaries(
                {"mid": st.sampled_from("abcdefz")},
                optional={
                    "name": META_TEXT, "description": META_TEXT,
                    "notable_types": META_TYPES, "rdf_types": META_TYPES,
                },
            ),
            max_size=12,
        ),
        st.lists(
            st.fixed_dictionaries(
                {"name": st.sampled_from(["p", "q.r", "v.w"])},
                optional={"expected_target_types": META_TYPES},
            ),
            max_size=4,
        ),
    )
    @example(
        [("a", "p", "a"), ("a", "p", "b"), ("a", "p", "b"), ("b", "p", "a"), ("c", "q.r", "a")],
        [{"mid": "a", "description": "An actor."}, {"mid": "b", "description": "an ACTOR"}],
        [{"name": "p", "expected_target_types": ["tv.actor"]}],
    )
    def test_reloaded_kb_equals_the_raw_load(self, triples, meta, preds):
        subject_sets = [(ds.EMPTY_TOKEN,), ("x", "0"), ("x", "1")]

        with tempfile.TemporaryDirectory() as tmp:
            names = ("g.tsv", "m.jsonl", "p.jsonl")
            graph, meta_path, preds_path = (Path(tmp, name) for name in names)
            graph.write_text("".join(f"{s}\t{p}\t{o}\n" for s, p, o in triples))
            write_json_lines(meta_path, meta)
            write_json_lines(preds_path, preds)
            sources = {
                "graph_path": str(graph),
                "entity_meta_path": str(meta_path),
                "predicate_meta_path": str(preds_path),
            }
            g = load_triples(str(graph))
            entity_meta = load_entity_meta(str(meta_path), g)
            pred_meta = load_predicate_meta(str(preds_path))
            set_ids = [0 if e % 3 == 0 else 1 + e % 2 for e in range(len(g))]
            empty = PretrainedEmbeddings({}, 1)
            kb = ds.CompiledKB(g, entity_meta, pred_meta, empty, subject_sets, set_ids)
            ds.save_kb(tmp, kb, sources)
            cg, c_entity_meta, c_pred_meta, _, c_sets, c_set_ids = ds.load_kb(tmp, sources)

        assert cg._mids == g._mids and cg._ids == g._ids
        want = grouped_adjacency(triples)
        shared: dict[PredicateToken, PredicateToken] = {}
        raw_shared: dict[PredicateToken, PredicateToken] = {}
        descriptions: dict[tuple[str, ...], tuple[str, ...]] = {}
        type_sets: dict[frozenset[str], frozenset[str]] = {}
        records = set(entity_meta)
        for e in range(len(g)):
            assert list(cg.adjacency(e).items()) == list(g.adjacency(e).items())
            got = [((t.name, t.inverse), [cg.mid(n) for n in nbrs])
                   for t, nbrs in cg.adjacency(e).items()]
            assert got == want[cg.mid(e)]
            assert all(type(nbrs) is tuple for nbrs in cg.adjacency(e).values())
            assert cg.degree(e) == g.degree(e)
            for tok, raw in zip(cg.adjacency(e), g.adjacency(e)):
                assert shared.setdefault(tok, tok) is tok
                assert raw_shared.setdefault(raw, raw) is raw
            # Every entity, with a record or without, reads as the raw load,
            # and the records share equal descriptions and type sets.
            got = c_entity_meta.get(e)
            assert got == entity_meta.get(e)
            if e in records:
                assert descriptions.setdefault(got.description, got.description) is got.description
                for types in (got.notable_types, got.rdf_types):
                    assert type_sets.setdefault(types, types) is types
            assert c_sets[c_set_ids[e]] == subject_sets[set_ids[e]]
        assert cg.triples() == g.triples() == tuple(sorted(set(triples)))

        assert list(c_entity_meta) == list(entity_meta)
        assert len(c_pred_meta) == len(pred_meta)
        for name in {p for _, p, _ in triples} | {r["name"] for r in preds}:
            assert c_pred_meta.get(name) == pred_meta.get(name)


# Texts a compiled KB must carry through unchanged: empty, non-ASCII, and
# holding the newline and tab that separate the lines and fields of the inputs.
KB_TEXT = st.one_of(st.sampled_from(["", "Ann", "Zoë", "日本", "a\nb", "a\tb", "\x00"]),
                    st.text(max_size=5))
KB_TYPES = st.frozensets(KB_TEXT, max_size=3)


@st.composite
def small_kbs(draw):
    """A ``CompiledKB`` of a random small graph, with metadata for some of its
    entities, target types for some of its predicates, and random embeddings."""
    mids = st.sampled_from(["a", "b", "é", "日本", "m.1"])
    preds = st.sampled_from(["p", "q.r", "ü.v"])
    triples = draw(st.lists(st.tuples(mids, preds, mids), min_size=1, max_size=10))
    g = KnowledgeGraph(triples)
    metas = st.builds(EntityMeta, KB_TEXT, st.lists(KB_TEXT, max_size=3).map(tuple),
                      KB_TYPES, KB_TYPES)
    records = draw(st.dictionaries(st.sampled_from(range(len(g))), metas))
    typed = draw(st.dictionaries(st.sampled_from(["p", "q.r", "x.y"]), KB_TYPES))
    dim = draw(st.integers(0, 3))
    tokens = draw(st.lists(KB_TEXT, unique=True, max_size=4))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    vectors = {t: np.array(draw(st.lists(floats, min_size=dim, max_size=dim))) for t in tokens}
    sets = draw(st.lists(st.lists(KB_TEXT, max_size=2).map(tuple), min_size=1, max_size=3))
    set_ids = draw(st.lists(st.integers(0, len(sets) - 1), min_size=len(g), max_size=len(g)))
    return ds.CompiledKB(g, EntityMetaStore(records), PredicateMetaStore(typed),
                         PretrainedEmbeddings(vectors, dim), sets, set_ids)


class TestCompiledKBRoundTrip:
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(small_kbs())
    @example(ds.CompiledKB(  # one entity, no metadata, no typed predicate, no vectors
        KnowledgeGraph([("a", "p", "a")]), EntityMetaStore(), PredicateMetaStore(),
        PretrainedEmbeddings({"t": np.zeros(0)}, 0), [("x",)], [0]))
    def test_save_then_load_gives_back_every_part(self, kb):
        memos = []

        class Memo(ds._Memo):  # every lazily decoded table the load makes
            def __init__(self, build):
                super().__init__(build)
                memos.append(self)

        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ds, "_Memo", Memo):
            ds.save_kb(tmp, kb, {})
            got = ds.load_kb(tmp, {})
        # Opening the KB decodes no entity: no adjacency, metadata or description.
        assert memos and not any(memos)
        assert not got.graph._adj and not got.entity_meta._by_entity

        g = kb.graph
        assert got.graph._mids == g._mids and got.graph._preds == g._preds
        for e in range(len(g)):
            assert list(got.graph.adjacency(e).items()) == list(g.adjacency(e).items())
            assert got.entity_meta.get(e) == kb.entity_meta.get(e)
        assert list(got.entity_meta) == list(kb.entity_meta)
        assert got.entity_meta.get(len(g)) == got.entity_meta.get(-1) == EntityMeta()
        assert got.pred_meta._tgt == kb.pred_meta._tgt
        for name in ("p", "q.r", "ü.v", "x.y"):
            assert got.pred_meta.get(name) == kb.pred_meta.get(name)
        assert got.embeddings.dim == kb.embeddings.dim
        assert list(got.embeddings._vectors) == list(kb.embeddings._vectors)
        for token, vec in kb.embeddings._vectors.items():
            assert got.embeddings._vectors[token].tobytes() == vec.astype("<f8").tobytes()
        assert list(got.subject_sets) == list(kb.subject_sets)
        assert list(got.subject_set_ids) == list(kb.subject_set_ids)
