import random
from pathlib import Path

import pytest

from kgtable.graph import KnowledgeGraph, UnknownEntityError
from kgtable.paths import ChainPair, MetaPath, enumerate_simple_paths
from kgtable.query import (
    BudgetExceeded,
    QueryBudget,
    execute_chain,
    execute_prefix,
    render_sparql,
)

from oracles import naive_chain_eval

GOLDEN_DIR = Path(__file__).parent / "golden"


def chain_of(p1, p2):
    return ChainPair(MetaPath.parse(p1), MetaPath.parse(p2))


def mids(g, pairs):
    return {(g.mid(x), g.mid(y)) for x, y in pairs}


class TestExecuteChain:
    def test_fan_out(self):
        g = KnowledgeGraph(
            [("se", "p", "x1"), ("x1", "q", "y1"), ("se", "p", "x2"), ("x2", "q", "y2")]
        )
        result = execute_chain(g, g.entity_id("se"), chain_of("p", "q"))
        assert mids(g, result.pairs) == {("x1", "y1"), ("x2", "y2")}

    def test_inverse_token_in_p2(self):
        g = KnowledgeGraph([("se", "p", "x"), ("y", "q", "x")])
        result = execute_chain(g, g.entity_id("se"), chain_of("p", "^q"))
        assert mids(g, result.pairs) == {("x", "y")}

    def test_max_rows_exceeded_discards_everything(self):
        g = KnowledgeGraph(
            [("se", "p", "x1"), ("x1", "q", "y1"), ("se", "p", "x2"), ("x2", "q", "y2")]
        )
        result = execute_chain(
            g, g.entity_id("se"), chain_of("p", "q"), QueryBudget(max_rows=1)
        )
        assert result == BudgetExceeded("rows")

    def test_row_cap_is_inclusive(self):
        g = KnowledgeGraph([("se", "p", "x1"), ("x1", "q", "y1")])
        result = execute_chain(
            g, g.entity_id("se"), chain_of("p", "q"), QueryBudget(max_rows=1)
        )
        assert len(result.pairs) == 1

    def test_step_budget(self):
        g = KnowledgeGraph([(f"se", "p", f"x{i}") for i in range(10)] +
                           [(f"x{i}", "q", f"y{i}") for i in range(10)])
        result = execute_chain(
            g, g.entity_id("se"), chain_of("p", "q"), QueryBudget(max_steps=3)
        )
        assert result == BudgetExceeded("steps")

    def test_unknown_subject_raises(self):
        g = KnowledgeGraph([("a", "p", "b")])
        with pytest.raises(UnknownEntityError):
            execute_chain(g, 99, chain_of("p", "q"))

    def test_step_charge_is_exact_on_fan_in(self):
        # One step for se, then one per (x, node) binding of P2: (x1, x1),
        # (x2, x2), (x1, h), (x2, h). Both x reach y through the shared h.
        g = KnowledgeGraph(
            [("se", "p", "x1"), ("se", "p", "x2"), ("x1", "q", "h"), ("x2", "q", "h"),
             ("h", "r", "y")]
        )
        se, chain = g.entity_id("se"), chain_of("p", "q/r")
        result = execute_chain(g, se, chain, QueryBudget(max_steps=5))
        assert mids(g, result.pairs) == {("x1", "y"), ("x2", "y")}
        assert execute_chain(g, se, chain, QueryBudget(max_steps=4)) == BudgetExceeded("steps")


class TestExecutePrefix:
    def test_single_hop(self):
        g = KnowledgeGraph([("se", "p", "x1"), ("se", "p", "x2")])
        xs = execute_prefix(g, g.entity_id("se"), MetaPath.parse("p"))
        assert {g.mid(x) for x in xs} == {"x1", "x2"}

    def test_two_hop(self):
        g = KnowledgeGraph([("se", "p", "a"), ("a", "q", "b")])
        xs = execute_prefix(g, g.entity_id("se"), MetaPath.parse("p/q"))
        assert {g.mid(x) for x in xs} == {"b"}

    def test_unknown_subject_raises(self):
        g = KnowledgeGraph([("a", "p", "b")])
        with pytest.raises(UnknownEntityError):
            execute_prefix(g, 42, MetaPath.parse("p"))

    def test_step_charge_is_exact_on_two_hops(self):
        # One step for se, then one for each of a1 and a2.
        g = KnowledgeGraph([("se", "p", "a1"), ("se", "p", "a2"), ("a1", "q", "b"),
                            ("a2", "q", "b")])
        se, p1 = g.entity_id("se"), MetaPath.parse("p/q")
        xs = execute_prefix(g, se, p1, QueryBudget(max_steps=3))
        assert {g.mid(x) for x in xs} == {"b"}
        assert execute_prefix(g, se, p1, QueryBudget(max_steps=2)) == BudgetExceeded("steps")


class TestProperties:
    def _random_graph(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(3, 9))]
        triples = [
            (rng.choice(nodes), rng.choice(["p", "q", "r"]), rng.choice(nodes))
            for _ in range(rng.randint(3, 30))
        ]
        return triples, KnowledgeGraph(triples)

    def _sample_chains(self, g, se, max_segment=3, limit=40):
        chains = []
        for mid_entity in g.entities():
            if mid_entity == se:
                continue
            p1s = enumerate_simple_paths(g, se, mid_entity, max_segment, 10**9, ())
            for p1 in p1s[:3]:
                for other in g.entities():
                    if other == mid_entity:
                        continue
                    p2s = enumerate_simple_paths(g, mid_entity, other, max_segment, 10**9, ())
                    for p2 in p2s[:2]:
                        chains.append(ChainPair(p1, p2))
                        if len(chains) >= limit:
                            return chains
        return chains

    def test_matches_naive_evaluator(self):
        for seed in range(40):
            triples, g = self._random_graph(seed)
            se = g.entity_id(triples[0][0])
            for chain in self._sample_chains(g, se):
                got = mids(g, execute_chain(g, se, chain).pairs)
                want = naive_chain_eval(
                    triples,
                    g.mid(se),
                    tuple((t.name, t.inverse) for t in chain.p1.tokens),
                    tuple((t.name, t.inverse) for t in chain.p2.tokens),
                )
                assert got == want, (seed, chain.canonical())

    def test_composition_with_prefix(self):
        for seed in range(25):
            triples, g = self._random_graph(100 + seed)
            se = g.entity_id(triples[0][0])
            for chain in self._sample_chains(g, se, limit=15):
                xs = execute_prefix(g, se, chain.p1)
                projected = {x for x, _ in execute_chain(g, se, chain).pairs}
                assert projected <= xs

    def test_budget_monotonicity(self):
        triples, g = self._random_graph(7)
        se = g.entity_id(triples[0][0])
        for chain in self._sample_chains(g, se, limit=10):
            small = execute_chain(g, se, chain, QueryBudget(max_rows=2, max_steps=5))
            big = execute_chain(g, se, chain, QueryBudget(max_rows=10**6, max_steps=10**9))
            if not isinstance(small, BudgetExceeded):
                assert small.pairs == big.pairs


class TestRenderSparql:
    def test_contains_subject_and_hop_lines(self):
        text = render_sparql("m.02dzsr", chain_of("p", "q"))
        assert "a:m.02dzsr a:p ?x ." in text
        assert "?x a:q ?y." in text

    def test_inverse_token_rendered_with_caret_before_prefix(self):
        text = render_sparql("m.1", chain_of("^p", "q"))
        assert "a:m.1 ^a:p ?x ." in text

    @pytest.mark.parametrize(
        "golden,se,p1,p2",
        [
            ("plain.rq", "m.02dzsr", "people.person.nationality", "tv.tv_program.country_of_origin"),
            (
                "multihop.rq",
                "m.02dzsr",
                "tv.tv_program.regular_cast/tv.regular_tv_appearance.actor",
                "tv.tv_actor.starring_roles/tv.regular_tv_appearance.character",
            ),
            (
                "inverse.rq",
                "m.0fjp3",
                "^music.album.artist/music.artist.track",
                "music.recording.song/^music.composition.recordings",
            ),
        ],
    )
    def test_golden_files_byte_match(self, golden, se, p1, p2):
        expected = (GOLDEN_DIR / golden).read_bytes()
        assert render_sparql(se, chain_of(p1, p2)).encode("utf-8") == expected


class TestQueryBudget:
    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryBudget(max_rows=0)
        with pytest.raises(ValueError):
            QueryBudget(max_steps=-1)
