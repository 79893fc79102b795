import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgtable.graph import (
    EntityMeta,
    EntityMetaStore,
    KnowledgeGraph,
    ParseError,
    PredicateToken,
    UnknownEntityError,
    load_entity_meta,
    load_predicate_meta,
    load_triples,
    predicate_src_tokens,
    walk,
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
        assert [g1.mid(e) for e in g1.entities()] == [g2.mid(e) for e in g2.entities()]
        assert all(g1.adjacency(e) == g2.adjacency(e) for e in g1.entities())

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
        for e in g.entities():
            groups = g.adjacency(e)
            assert list(groups) == sorted(groups)
            assert g.degree(e) == sum(len(nbrs) for nbrs in groups.values())
            for tok, nbrs in groups.items():
                assert list(nbrs) == sorted(set(nbrs))
                for nbr in nbrs:
                    assert e in g.adjacency(nbr).get(tok.flipped(), ())


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


class TestPredicateToken:
    def test_render_and_parse_roundtrip(self):
        assert PredicateToken("p").render() == "p"
        assert PredicateToken("p", True).render() == "^p"
        assert PredicateToken.parse("^p") == PredicateToken("p", True)
        assert PredicateToken.parse("p") == PredicateToken("p")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            PredicateToken("")
