import random
from collections import Counter

import pytest

from kgtable.graph import KnowledgeGraph, PredicateToken, StepAllowance, StepsExhausted, walk
from kgtable.paths import (
    DEFAULT_BANNED_PREFIXES,
    ChainPair,
    MetaPath,
    enumerate_simple_paths,
    join_chains,
    segment_reach,
)
from kgtable.query import execute_chain

from oracles import brute_simple_paths, build_adjacency

NO_CAP = 10**9


def paths_as_tokens(paths):
    return {tuple((t.name, t.inverse) for t in p.tokens) for p in paths}


def enumerate_(g, src, dst, max_len=3, cap=NO_CAP, banned=()):
    return enumerate_simple_paths(g, g.entity_id(src), {g.entity_id(dst)}, max_len, cap, banned)


class TestEnumerate:
    def test_two_route_graph(self):
        g = KnowledgeGraph([("s", "p", "a"), ("a", "q", "b"), ("s", "r", "b")])
        found = {p.canonical() for p in enumerate_(g, "s", "b")}
        assert found == {"r", "p/q"}

    def test_inverse_edge(self):
        g = KnowledgeGraph([("b", "p", "a")])
        found = {p.canonical() for p in enumerate_(g, "a", "b")}
        assert found == {"^p"}

    def test_hub_pruning_kills_the_only_path(self):
        # The hub has degree 501 (both edge directions count), one over the cap.
        triples = [("s", "p", "h"), ("h", "q", "t")]
        triples += [("h", "x", f"pad{i:04d}") for i in range(499)]
        g = KnowledgeGraph(triples)
        assert g.degree(g.entity_id("h")) == 501
        assert enumerate_(g, "s", "t", cap=500) == []
        # The uncapped oracle still sees the path through the hub.
        assert brute_simple_paths(triples, "s", "t", 3) == {(("p", False), ("q", False))}
        assert paths_as_tokens(enumerate_(g, "s", "t", cap=501)) == {
            (("p", False), ("q", False))
        }

    def test_dst_degree_is_exempt_from_cap(self):
        triples = [("s", "p", "t")] + [("t", "x", f"pad{i:04d}") for i in range(600)]
        g = KnowledgeGraph(triples)
        assert {p.canonical() for p in enumerate_(g, "s", "t", cap=500)} == {"p"}

    def test_src_equals_dst_rejected(self):
        # A simple path may not revisit src, so none ends there.
        g = KnowledgeGraph([("a", "p", "b"), ("b", "q", "a")])
        assert enumerate_(g, "a", "a") == []
        # The argument checks still come first.
        with pytest.raises(ValueError):
            enumerate_(g, "a", "a", max_len=4)

    def test_max_len_outside_bounds_rejected(self):
        g = KnowledgeGraph([("a", "p", "b")])
        with pytest.raises(ValueError):
            enumerate_(g, "a", "b", max_len=4)

    def test_banned_prefix_applies_to_first_token_only(self):
        g = KnowledgeGraph(
            [
                ("s", "common.topic.notable_types", "a"),
                ("a", "x", "t"),
                ("s", "y", "a"),
                ("a", "common.topic.image", "t"),
            ]
        )
        found = {p.canonical() for p in enumerate_(g, "s", "t", banned=DEFAULT_BANNED_PREFIXES)}
        assert found == {"y/x", "y/common.topic.image"}

    def test_results_are_sorted_by_canonical_form(self):
        g = KnowledgeGraph([("s", "b", "t"), ("s", "a", "t"), ("s", "c", "t")])
        assert [p.canonical() for p in enumerate_(g, "s", "t")] == ["a", "b", "c"]


class TestEnumerateProperties:
    def _random_triples(self, rng, n_nodes, n_edges):
        nodes = [f"n{i}" for i in range(n_nodes)]
        preds = ["p0", "p1", "p2", "p3", "p4"]
        return [
            (rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
            for _ in range(n_edges)
        ]

    def test_oracle_equivalence_on_random_graphs(self):
        for seed in range(60):
            rng = random.Random(seed)
            triples = self._random_triples(rng, rng.randint(2, 8), rng.randint(1, 20))
            g = KnowledgeGraph(triples)
            mids = [g.mid(e) for e in range(len(g))]
            for src in mids:
                for dst in mids:
                    if src == dst:
                        continue
                    for max_len in (1, 2, 3):
                        got = paths_as_tokens(enumerate_(g, src, dst, max_len))
                        want = brute_simple_paths(triples, src, dst, max_len)
                        assert got == want, (seed, src, dst, max_len)

    def test_monotone_in_max_len(self):
        rng = random.Random(99)
        triples = self._random_triples(rng, 8, 25)
        g = KnowledgeGraph(triples)
        src, dst = g.mid(0), g.mid(len(g) - 1)
        sets = [set(enumerate_(g, src, dst, k)) for k in (1, 2, 3)]
        assert sets[0] <= sets[1] <= sets[2]

    def test_pruning_soundness(self):
        for seed in range(30):
            rng = random.Random(1000 + seed)
            triples = self._random_triples(rng, 8, 30)
            g = KnowledgeGraph(triples)
            src, dst = g.mid(0), g.mid(len(g) - 1)
            if src == dst:
                continue
            capped = set(enumerate_(g, src, dst, 3, cap=2))
            uncapped = set(enumerate_(g, src, dst, 3))
            assert capped <= uncapped


class TestPruneGeneric:
    def test_default_list_is_the_documented_seven(self):
        assert DEFAULT_BANNED_PREFIXES == (
            "freebase",
            "common.topic.notable",
            "common.topic.image",
            "common.topic.webpage",
            "type.content",
            "type.object",
            "dataworld.gardening_hint",
        )


class TestMultiTarget:
    def test_matches_the_union_of_single_target_oracles(self):
        seen = {"src among targets": 0, "target on another's path": 0, "target over cap": 0}
        for seed in range(80):
            rng = random.Random(500 + seed)
            nodes = [f"n{i}" for i in range(rng.randint(3, 9))]
            triples = [
                (rng.choice(nodes), rng.choice(["p", "q", "r"]), rng.choice(nodes))
                for _ in range(rng.randint(2, 28))
            ]
            g = KnowledgeGraph(triples)
            mids = [g.mid(e) for e in range(len(g))]
            for _ in range(4):
                src = rng.choice(mids)
                targets = rng.sample(mids, rng.randint(1, len(mids)))
                max_len = rng.choice((1, 2, 3))
                cap = rng.choice((NO_CAP, 2, 3, 4))
                got = paths_as_tokens(
                    enumerate_simple_paths(
                        g, g.entity_id(src), {g.entity_id(t) for t in targets}, max_len, cap, ()
                    )
                )
                # A simple path never returns to src.
                per_target = {
                    t: brute_simple_paths(triples, src, t, max_len, cap)
                    for t in targets if t != src
                }
                assert got == set().union(*per_target.values()), (seed, src, targets, cap)

                seen["src among targets"] += src in targets
                seen["target over cap"] += any(
                    found and g.degree(g.entity_id(t)) > cap for t, found in per_target.items()
                )
                seen["target on another's path"] += any(
                    found != brute_simple_paths(
                        [tr for tr in triples if other not in (tr[0], tr[2])],
                        src, t, max_len, cap,
                    )
                    for t, found in per_target.items()
                    for other in per_target if other != t
                )
        assert all(seen.values()), seen


class TestTargetNeighbourBarrier:
    PREDS = ("p0", "p1", "p2")

    def _graph(self, rng):
        """A random core with dead-end branches, and hubs next to core nodes."""
        core = [f"c{i}" for i in range(rng.randint(3, 7))]
        triples = [
            (rng.choice(core), rng.choice(self.PREDS), rng.choice(core))
            for _ in range(rng.randint(3, 14))
        ]
        for i in range(rng.randint(2, 10)):
            edge = (rng.choice(core), rng.choice(self.PREDS), f"d{i}")
            triples.append(edge if rng.random() < 0.5 else edge[::-1])
            if rng.random() < 0.5:
                triples.append((f"d{i}", rng.choice(self.PREDS), f"d{i}x"))
        for h in range(rng.randint(0, 2)):
            triples.append((f"h{h}", rng.choice(self.PREDS), rng.choice(core)))
            triples += [
                (f"h{h}", rng.choice(self.PREDS), f"h{h}l{j}") for j in range(rng.randint(3, 8))
            ]
        return core, triples

    @staticmethod
    def _skipped(triples, src, targets, max_len, cap, banned):
        """Nodes the DFS without the barrier expands before the last hop that touch no target."""
        adj = build_adjacency(triples)
        near = {nbr for t in targets for _, nbr in adj[t]}
        unexpanded = set(targets) if len(targets) == 1 else set()
        skipped = 0

        def rec(node, visited, depth):
            nonlocal skipped
            for (name, _), nbr in adj[node]:
                if depth == 0 and name.startswith(banned):
                    continue
                if nbr in visited or nbr in unexpanded or len(adj[nbr]) > cap:
                    continue
                if depth + 1 == max_len - 1:
                    skipped += nbr not in near
                elif depth + 1 < max_len - 1:
                    rec(nbr, visited | {nbr}, depth + 1)

        rec(src, frozenset({src}), 0)
        return skipped

    def test_matches_the_oracle_where_the_barrier_prunes(self):
        seen = Counter()
        for seed in range(120):
            rng = random.Random(7000 + seed)
            core, triples = self._graph(rng)
            g = KnowledgeGraph(triples)
            mids = [g.mid(e) for e in range(len(g))]
            for _ in range(4):
                src = rng.choice(mids)
                targets = set(rng.sample(core, rng.choice((1, 1, 2, 3)))) & set(mids) - {src}
                if not targets:
                    continue
                max_len = rng.choice((1, 2, 3))
                cap = rng.choice((NO_CAP, 2, 3))
                banned = rng.choice(((), ("p1",)))
                ids = {g.entity_id(t) for t in targets}
                got = paths_as_tokens(
                    enumerate_simple_paths(g, g.entity_id(src), ids, max_len, cap, banned)
                )
                want = {
                    p
                    for t in targets
                    for p in brute_simple_paths(triples, src, t, max_len, cap)
                    if not p[0][0].startswith(banned)
                }
                assert got == want, (seed, src, targets, max_len, cap, banned)
                seen[max_len, len(targets) > 1, cap, banned] += 1
                seen["barrier skipped a node"] += (
                    self._skipped(triples, src, targets, max_len, cap, banned) > 0
                )
        assert seen["barrier skipped a node"] > 0
        assert len(seen) == 3 * 2 * 3 * 2 + 1, seen


class TestSegmentReach:
    def test_a_miss_reaches_nothing_for_one_step_as_a_walk_does(self):
        toks = [PredicateToken(p, inv) for p in ("p", "q", "r") for inv in (False, True)]
        seen = Counter()
        for seed in range(40):
            rng = random.Random(9000 + seed)
            nodes = [f"n{i}" for i in range(rng.randint(2, 8))]
            g = KnowledgeGraph([
                (rng.choice(nodes), rng.choice("pqr"), rng.choice(nodes))
                for _ in range(rng.randint(1, 14))
            ])
            for _ in range(6):
                tokens = tuple(rng.choice(toks) for _ in range(rng.randint(1, 3)))
                memo = {}
                for entity in range(len(g)):
                    miss = tokens[0] not in g.adjacency(entity)
                    for left in (0, 1, 2, 10**6):
                        plain = StepAllowance(left)
                        try:
                            want = walk(g, (entity,), tokens, plain)
                        except StepsExhausted:
                            want = StepsExhausted
                        # Without a memo, with an empty memo entry, then from the memo.
                        for m in (None, memo, memo):
                            steps = StepAllowance(left)
                            try:
                                got = segment_reach(g, tokens, steps, m)(entity)
                            except StepsExhausted:
                                got = StepsExhausted
                            assert got == want, (seed, entity, tokens, left)
                            if got is not StepsExhausted:
                                assert steps.left == plain.left
                        if miss:
                            assert want == (StepsExhausted if left == 0 else set())
                            assert want is StepsExhausted or left - plain.left == 1
                            seen["miss", want is StepsExhausted] += 1
                        else:
                            seen["hit"] += 1
        assert len(seen) == 3, seen

    def test_entities_with_one_shared_first_hop_share_its_reach_as_a_walk_charges(self):
        # Spokes whose first hop leads only to the hub, which starts a chain of
        # single neighbours (hub -q-> mid -r-> members); noise edges may give a
        # spoke, the hub or mid more neighbours.
        tokens = tuple(PredicateToken(p, False) for p in "pqr")
        seen = Counter()
        for seed in range(30):
            rng = random.Random(7100 + seed)
            spokes = [f"s{i}" for i in range(rng.randint(2, 6))]
            members = [f"m{i}" for i in range(rng.randint(1, 5))]
            nodes = spokes + members + ["hub", "mid"]
            g = KnowledgeGraph(
                [(s, "p", "hub") for s in spokes]
                + [("hub", "q", "mid")]
                + [("mid", "r", m) for m in members]
                + [
                    (rng.choice(nodes), rng.choice("pqr"), rng.choice(nodes))
                    for _ in range(rng.randint(0, 4))
                ]
            )
            filled = {}
            for entity in range(len(g)):
                segment_reach(g, tokens, StepAllowance(), filled)(entity)
            for entity in range(len(g)):
                unlimited = StepAllowance()
                walk(g, (entity,), tokens, unlimited)
                charge = StepAllowance().left - unlimited.left
                for left in range(charge + 2):
                    plain = StepAllowance(left)
                    try:
                        want = walk(g, (entity,), tokens, plain)
                    except StepsExhausted:
                        want = StepsExhausted
                    for m in (None, {}, filled):
                        steps = StepAllowance(left)
                        try:
                            got = segment_reach(g, tokens, steps, m)(entity)
                        except StepsExhausted:
                            got = StepsExhausted
                        assert got == want, (seed, g.mid(entity), left)
                        if got is not StepsExhausted:
                            assert steps.left == plain.left, (seed, g.mid(entity), left)
                    seen["exhausted" if want is StepsExhausted else "reached"] += 1
            by_first_hop = {}
            for entity in range(len(g)):
                nbrs = g.adjacency(entity).get(tokens[0], ())
                if len(nbrs) == 1:
                    by_first_hop.setdefault(nbrs[0], []).append(entity)
            reach = segment_reach(g, tokens, StepAllowance())
            for entities in by_first_hop.values():
                first, *others = entities
                for other in others:
                    assert reach(other) is reach(first), (seed, g.mid(first), g.mid(other))
                    seen["shared"] += 1
        assert len(seen) == 3, seen


class TestJoinChains:
    def test_connected_pair_kept(self):
        g = KnowledgeGraph([("se", "p", "x1"), ("x1", "q", "y1")])
        cc = join_chains(g, g.entity_id("se"), [MetaPath.parse("p")], [MetaPath.parse("q")])
        assert [c.canonical() for c in cc] == ["p / q"]

    def test_disconnected_pair_dropped(self):
        # p1 reaches x1 only; q exists only out of x2.
        g = KnowledgeGraph(
            [("se", "p", "x1"), ("se", "r", "x2"), ("x2", "q", "y1"), ("x1", "s", "z")]
        )
        cc = join_chains(
            g, g.entity_id("se"), [MetaPath.parse("p")], [MetaPath.parse("q")]
        )
        assert len(cc) == 0

    def test_empty_p1_gives_empty_set(self):
        g = KnowledgeGraph([("se", "p", "x1")])
        assert len(join_chains(g, g.entity_id("se"), [], [MetaPath.parse("p")])) == 0

    def test_every_joined_chain_executes_to_at_least_one_tuple(self):
        rng = random.Random(5)
        nodes = [f"n{i}" for i in range(9)]
        triples = [
            (rng.choice(nodes), rng.choice(["p", "q", "r"]), rng.choice(nodes))
            for _ in range(25)
        ]
        g = KnowledgeGraph(triples)
        se = g.entity_id(triples[0][0])
        p1s, p2s = set(), set()
        for e in range(len(g)):
            if e != se:
                p1s.update(enumerate_simple_paths(g, se, {e}, 2, NO_CAP, ()))
        for a in range(len(g)):
            for b in range(len(g)):
                if a != b:
                    p2s.update(enumerate_simple_paths(g, a, {b}, 2, NO_CAP, ()))
        cc = join_chains(g, se, p1s, p2s)
        assert len(cc) > 0
        for chain in cc:
            assert len(execute_chain(g, se, chain).pairs) >= 1


class TestChainPair:
    def test_canonical_separators_are_distinct(self):
        chain = ChainPair(MetaPath.parse("a.b/c.d"), MetaPath.parse("^e.f"))
        assert chain.canonical() == "a.b/c.d / ^e.f"
        assert ChainPair.parse(chain.canonical()) == chain

    def test_total_length(self):
        chain = ChainPair(MetaPath.parse("a/b/c"), MetaPath.parse("d"))
        assert chain.total_length() == 4

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            MetaPath(())
