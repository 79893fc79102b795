import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgtable import dataset as ds
from kgtable.graph import KnowledgeGraph
from kgtable.paths import ChainPair, MetaPath
from kgtable.query import QueryBudget


def chain_of(p1, p2):
    return ChainPair(MetaPath.parse(p1), MetaPath.parse(p2))


class TestLinkCells:
    def _table(self, rows):
        return ds.RawTable(
            table_id="t", page_title="", caption="", headers=("A", "B"), rows=rows
        )

    def test_first_of_two_urls_wins(self):
        rows = (
            (
                ds.RawCell("x", ("u1", "u2")),
                ds.RawCell("y", ("u3",)),
            ),
        )
        url2eid = {"u1": 10, "u2": 11, "u3": 20}
        assert ds.link_cells(self._table(rows), url2eid) == [(10, 20)]

    def test_first_url_unmapped_drops_the_row(self):
        rows = ((ds.RawCell("x", ("missing", "u2")), ds.RawCell("y", ("u3",))),)
        assert ds.link_cells(self._table(rows), {"u2": 11, "u3": 20}) == []

    def test_cell_without_url_drops_the_row(self):
        rows = ((ds.RawCell("x", ()), ds.RawCell("y", ("u3",))),)
        assert ds.link_cells(self._table(rows), {"u3": 20}) == []

    def test_all_rows_dropped_gives_empty_sequence(self):
        rows = ((ds.RawCell("x", ()), ds.RawCell("y", ())),)
        assert ds.link_cells(self._table(rows), {}) == []


class TestBuildQis:
    def test_running_example(self):
        qis = ds.build_qis("CSI: Miami", "Season 5 Notable Cast Members", "CSI: Miami")
        assert qis == ("season", "numtkn", "notable", "cast", "members")

    def test_title_equal_to_entity_name_yields_empty_marker(self):
        assert ds.build_qis("CSI: Miami", "", "CSI: Miami") == ("emptstr",)

    def test_absent_entity_name_removes_nothing(self):
        assert ds.build_qis("Great Movies", "", "Casablanca") == ("great", "movies")

    def test_removal_is_case_insensitive_first_occurrence(self):
        qis = ds.build_qis("the THING list", "thing", "Thing")
        assert qis == ("the", "list", "thing")

    def test_empty_entity_name_rejected(self):
        with pytest.raises(ValueError):
            ds.build_qis("a", "b", "")


class TestNormalizeColumnNames:
    def test_plural_stripped(self):
        cn1, cn2 = ds.normalize_column_names(["Actors", "Character"])
        assert cn1 == ("actor",)
        assert cn2 == ("character",)

    def test_es_suffix(self):
        cn1, _ = ds.normalize_column_names(["Classes", "x"])
        assert cn1 == ("class",)

    def test_short_tokens_untouched(self):
        cn1, _ = ds.normalize_column_names(["gas", "x"])
        assert cn1 == ("gas",)

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError):
            ds.normalize_column_names(["", "x"])

    def test_single_header_rejected(self):
        with pytest.raises(ValueError):
            ds.normalize_column_names(["only"])


class TestBuildSet:
    def test_least_frequent_type_with_fine_grained_mapping(self):
        types = ["fictional_universe.work_of_fiction", "tv.program"]
        freq = {"fictional_universe.work_of_fiction": 7, "tv.program": 90}
        fget = {"fictional_universe.work_of_fiction": "f.broadcast_program"}
        tokens = ds.build_set(types, freq, fget)
        assert tokens == (
            "fictional", "universe", "work", "of", "fiction", "f", "broadcast", "program",
        )

    def test_only_generic_types_rejected(self):
        with pytest.raises(ValueError):
            ds.build_set(["common.topic"], {"common.topic": 3}, {})

    def test_no_fine_grained_entry(self):
        tokens = ds.build_set(["tv.program"], {"tv.program": 5}, {})
        assert tokens == ("tv", "program")

    def test_frequency_ties_break_lexicographically(self):
        tokens = ds.build_set(["z.beta", "a.alpha"], {"z.beta": 4, "a.alpha": 4}, {})
        assert tokens == ("a", "alpha")


class TestChainMetrics:
    def _graph(self):
        triples = []
        for i in range(4):
            triples += [("se", "p", f"x{i}"), (f"x{i}", "q", f"y{i}")]
        # Extra retrievals that are not ground truth.
        triples += [("x0", "q", "junk1"), ("x1", "q", "junk2")]
        return KnowledgeGraph(triples)

    def test_perfect_chain(self):
        g = KnowledgeGraph([("se", "p", "x0"), ("x0", "q", "y0")])
        rr = [(g.entity_id("x0"), g.entity_id("y0"))]
        assert ds._score_chain(g, g.entity_id("se"), chain_of("p", "q"), rr, None)[1:] == (
            1.0, 1.0, 1.0,
        )

    def test_half_recall_quarter_precision(self):
        # 4 ground-truth rows; the chain retrieves 8 tuples, 2 of them correct.
        triples = [("se", "p", f"x{i}") for i in range(2)]
        triples += [(f"x{i}", "q", f"y{i}") for i in range(2)]
        triples += [(f"x{i}", "q", f"junk{i}{j}") for i in range(2) for j in range(3)]
        g = KnowledgeGraph(triples)
        rr = [(g.entity_id(f"x{i}"), g.entity_id(f"y{i}")) for i in range(2)]
        rr += [(g.entity_id("junk00"), g.entity_id("junk10"))] * 0
        # Pad ground truth to 4 rows with pairs the chain cannot retrieve.
        rr += [(g.entity_id("junk01"), g.entity_id("junk11"))]
        rr += [(g.entity_id("junk02"), g.entity_id("junk12"))]
        _, recall, precision, f1 = ds._score_chain(
            g, g.entity_id("se"), chain_of("p", "q"), rr, None
        )
        assert recall == 0.5
        assert precision == 0.25
        assert f1 == pytest.approx(1 / 3)

    def test_disjoint_retrieval_is_all_zero(self):
        g = KnowledgeGraph([("se", "p", "x0"), ("x0", "q", "y0")])
        rr = [(g.entity_id("se"), g.entity_id("se"))]
        assert ds._score_chain(g, g.entity_id("se"), chain_of("p", "q"), rr, None)[1:] == (
            0.0, 0.0, 0.0,
        )

    def test_budget_overrun_flags_removal(self):
        g = self._graph()
        rr = [(g.entity_id(f"x{i}"), g.entity_id(f"y{i}")) for i in range(4)]
        result = ds._score_chain(
            g, g.entity_id("se"), chain_of("p", "q"), rr, QueryBudget(max_rows=2)
        )
        assert result is None


class TestAnnotateChains:
    def test_best_key_rule(self):
        a = (chain_of("a1/a2", "a3/a4"), 0.8, 0.5, 0.5)
        b = (chain_of("b1", "b2/b3"), 0.8, 0.4, 0.4)
        c = (chain_of("c1", "c2"), 0.6, 0.9, 0.9)
        labeled = ds.annotate_chains([a, b, c])
        by_label = {lc.chain.canonical(): lc.positive for lc in labeled}
        assert by_label == {"b1 / b2/b3": True, "a1/a2 / a3/a4": False, "c1 / c2": False}
        # Sorted: best key first.
        assert labeled[0].chain.canonical() == "b1 / b2/b3"

    def test_single_chain_is_positive(self):
        labeled = ds.annotate_chains([(chain_of("p", "q"), 0.5, 0.5, 0.5)])
        assert labeled[0].positive

    def test_exact_ties_are_all_positive(self):
        a = (chain_of("a", "b"), 0.8, 0.6, 0.7)
        b = (chain_of("c", "d"), 0.8, 0.6, 0.7)
        c = (chain_of("e", "f"), 0.7, 0.6, 0.65)
        labeled = ds.annotate_chains([a, b, c])
        assert sum(lc.positive for lc in labeled) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ds.annotate_chains([])


class TestSplit:
    def test_paper_scale_proportions(self):
        split = ds.split_dataset([f"t{i}" for i in range(4013)], seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (3209, 402, 402)

    @given(st.integers(3, 200), st.integers(0, 5))
    def test_partition_properties(self, n, seed):
        ids = [f"t{i}" for i in range(n)]
        split = ds.split_dataset(ids, seed)
        parts = [set(split.train), set(split.validation), set(split.test)]
        assert parts[0] | parts[1] | parts[2] == set(ids)
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_same_seed_same_split(self):
        ids = [f"t{i}" for i in range(50)]
        assert ds.split_dataset(ids, 3) == ds.split_dataset(ids, 3)
        assert ds.split_dataset(ids, 3) != ds.split_dataset(ids, 4)


def make_table(tid, chains, qis=("alpha", "beta"), set_tokens=("gamma",)):
    return ds.AnnotatedTable(
        table_id=tid,
        qis=qis,
        cn1=("col",),
        cn2=("name",),
        se=0,
        se_name="SE",
        set_tokens=set_tokens,
        rr=((1, 2), (3, 4), (5, 6)),
        chains=chains,
    )


def labeled(p1, p2, positive, recall=0.5):
    return ds.LabeledChain(chain_of(p1, p2), positive, recall, recall, recall)


class TestVocabulary:
    def test_frequency_one_tokens_become_oov(self):
        t1 = make_table("a", (labeled("x.p", "y.q", True),), qis=("rare", "shared"))
        t2 = make_table("b", (labeled("x.p", "y.q", True),), qis=("shared",))
        tb, kb = ds.build_vocab([t1, t2])
        assert "shared" in tb.tokens
        assert "rare" not in tb.tokens
        assert tb.index("rare") == tb.oov_index == 0
        assert tb.index("shared") > 0

    def test_kb_vocab_from_set_and_chains(self):
        t1 = make_table("a", (labeled("x.p", "y.q", True),), set_tokens=("stype",))
        t2 = make_table("b", (labeled("x.p", "y.q", True),), set_tokens=("stype",))
        _, kb = ds.build_vocab([t1, t2])
        assert {"stype", "x", "p", "y", "q"} <= set(kb.tokens)

    def test_encode_maps_unknown_to_zero(self):
        vocab = ds.Vocabulary("TB_Vocab", ("alpha", "beta"))
        assert vocab.encode(["beta", "nope", "alpha"]) == (2, 0, 1)

    def test_content_hash_changes_with_tokens(self):
        v1 = ds.Vocabulary("TB_Vocab", ("a",))
        v2 = ds.Vocabulary("TB_Vocab", ("b",))
        assert v1.content_hash() != v2.content_hash()


class TestPadNegatives:
    def _tables(self):
        tables = {}
        # Table "t0" has one positive and two negatives; pool comes from "t1".
        tables["t0"] = make_table(
            "t0",
            (labeled("p.a", "q.a", True, 1.0), labeled("p.b", "q.b", False),
             labeled("p.c", "q.c", False)),
        )
        negs = tuple(labeled(f"n{i}.x", f"n{i}.y", False) for i in range(12))
        tables["t1"] = make_table("t1", (labeled("p.a", "q.a", True, 1.0),) + negs)
        return tables

    def test_train_table_padded_to_nine(self):
        tables = self._tables()
        split = ds.DatasetSplit(train=("t0",), validation=("t1",), test=(), seed=0)
        out = ds.pad_negatives(tables, split, k=10, seed=1)
        assert len(out["t0"].negatives()) == 9
        # Padded chains never duplicate what the table already had.
        canons = [lc.chain.canonical() for lc in out["t0"].chains]
        assert len(canons) == len(set(canons))

    def test_validation_tables_untouched(self):
        tables = self._tables()
        split = ds.DatasetSplit(train=("t0",), validation=("t1",), test=(), seed=0)
        out = ds.pad_negatives(tables, split, k=10, seed=1)
        assert out["t1"] == tables["t1"]

    def test_table_positives_excluded_from_padding(self):
        tables = self._tables()
        split = ds.DatasetSplit(train=("t0",), validation=("t1",), test=(), seed=0)
        out = ds.pad_negatives(tables, split, k=10, seed=1)
        positives = {lc.chain.canonical() for lc in out["t0"].positives()}
        padded_negs = {lc.chain.canonical() for lc in out["t0"].negatives()}
        assert not positives & padded_negs

    def test_empty_pool_is_configuration_error(self):
        tables = {"t0": make_table("t0", (labeled("p.a", "q.a", True, 1.0),))}
        split = ds.DatasetSplit(train=("t0",), validation=(), test=(), seed=0)
        with pytest.raises(ds.ConfigurationError):
            ds.pad_negatives(tables, split, k=10, seed=1)


class TestCorpusIo:
    def test_read_corpus_validates_row_width(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rec = {"table_id": "t", "page_title": "x", "caption": "", "headers": ["a", "b"],
               "rows": [[{"text": "only one cell"}]]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ds.ParseError):
            ds.read_corpus(str(path))

    def test_cell_url_singleton_alias(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rec = {"table_id": "t", "page_title": "x", "caption": "", "headers": ["a", "b"],
               "rows": [[{"text": "x", "url": "u1"}, {"text": "y", "urls": ["u2", "u3"]}]]}
        path.write_text(json.dumps(rec) + "\n")
        table = ds.read_corpus(str(path))[0]
        assert table.rows[0][0].urls == ("u1",)
        assert table.rows[0][1].urls == ("u2", "u3")


class TestRoundTrip:
    def test_save_load_is_identity_and_deterministic(self, tmp_path, bundle):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            ds.save_dataset(
                str(out), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab,
                bundle.g,
            )
        for name in ("tables.jsonl", "split.json", "vocab_tb.json", "vocab_kb.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        tables, split, tb, kb = ds.load_dataset(str(out1), bundle.g)
        assert split == bundle.split
        assert tb.tokens == bundle.tb_vocab.tokens
        assert kb.tokens == bundle.kb_vocab.tokens
        assert tables == bundle.tables


class TestCorpusInvariants:
    def test_every_table_has_a_positive_with_maximal_key(self, bundle):
        for table in bundle.tables.values():
            positives = table.positives()
            assert positives
            best = max(
                (lc.recall, -lc.chain.total_length(), lc.f1) for lc in table.chains
            )
            for lc in positives:
                assert (lc.recall, -lc.chain.total_length(), lc.f1) == best

    def test_retained_chain_recall_floor(self, bundle):
        # Padded training negatives carry zero metrics; check the original
        # annotation through validation/test tables.
        for table in bundle.heldout_tables():
            for lc in table.chains:
                assert lc.recall >= 2 / len(table.rr)

    def test_oov_token_absent_from_corpus(self, bundle):
        for table in bundle.tables.values():
            for field in (table.qis, table.cn1, table.cn2, table.set_tokens):
                assert ds.OOV_TOKEN not in field

    def test_vocab_has_no_frequency_one_token(self, bundle):
        from collections import Counter

        counts = Counter()
        for tid in sorted(bundle.split.train + bundle.split.validation):
            t = bundle.tables[tid]
            counts.update(t.qis)
            counts.update(t.cn1)
            counts.update(t.cn2)
        for token in bundle.tb_vocab.tokens:
            assert counts[token] >= 2

    def test_core_column_unique_and_min_rows(self, bundle):
        for table in bundle.tables.values():
            c1 = [a for a, _ in table.rr]
            assert len(set(c1)) == len(c1)
            assert len(table.rr) >= 3


class TestRejections:
    def test_duplicate_core_column_rejected(self, bundle):
        raw = ds.RawTable(
            table_id="dup",
            page_title="Troupe 0 roster",
            caption="x",
            headers=("A", "B"),
            rows=tuple(
                (ds.RawCell("a", (u1,)), ds.RawCell("b", (u2,)))
                for u1, u2 in [
                    ("https://wiki.test/m.t000a0", "https://wiki.test/m.t000b0"),
                    ("https://wiki.test/m.t000a0", "https://wiki.test/m.t000b1"),
                    ("https://wiki.test/m.t000a1", "https://wiki.test/m.t000b1"),
                ]
            ),
            se_mid="m.t000se",
        )
        url2eid = {
            u: bundle.g.entity_id(m)
            for u, m in ds.read_tsv_map(bundle.paths.url2mid).items()
        }
        with pytest.raises(ds.TableRejected, match="core column"):
            ds.annotate_table(
                raw, bundle.g, url2eid, bundle.entity_meta, {}, {}, {},
                ds.BuildSettings(banned_prefixes=()),
            )
