import gc
import json
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgtable import dataset as ds
from kgtable.graph import KnowledgeGraph
from kgtable.paths import ChainPair, MetaPath
from kgtable.query import QueryBudget
from oracles import naive_vocab_tokens


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
        # The empty token is the SET that annotate_table rejects.
        assert ds.build_set(["common.topic"], {"common.topic": 3}, {}) == (ds.EMPTY_TOKEN,)

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
        got = ds._score_chain(g, g.entity_id("se"), chain_of("p", "q"), rr, QueryBudget())
        assert got[1:] == (1.0, 1.0, 1.0)

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
            g, g.entity_id("se"), chain_of("p", "q"), rr, QueryBudget()
        )
        assert recall == 0.5
        assert precision == 0.25
        assert f1 == pytest.approx(1 / 3)

    def test_disjoint_retrieval_is_all_zero(self):
        g = KnowledgeGraph([("se", "p", "x0"), ("x0", "q", "y0")])
        rr = [(g.entity_id("se"), g.entity_id("se"))]
        got = ds._score_chain(g, g.entity_id("se"), chain_of("p", "q"), rr, QueryBudget())
        assert got[1:] == (0.0, 0.0, 0.0)

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
        rare, shared = tb.encode(["rare", "shared"])
        assert rare == 0 < shared

    def test_kb_vocab_from_set_and_chains(self):
        t1 = make_table("a", (labeled("x.p", "y.q", True),), set_tokens=("stype",))
        t2 = make_table("b", (labeled("x.p", "y.q", True),), set_tokens=("stype",))
        _, kb = ds.build_vocab([t1, t2])
        assert {"stype", "x", "p", "y", "q"} <= set(kb.tokens)

    @pytest.mark.parametrize("seed", range(5))
    def test_build_vocab_counts_every_chain_occurrence(self, seed):
        """Tables drawing from a few shared chains give the vocabularies of an
        oracle that tokenizes every occurrence. A chain seen once keeps its own
        tokens out; one seen twice, in two tables, brings them in."""
        rng = random.Random(seed)
        words = ("film", "Actor", "tv_show", "cast-member", "role", "^type")
        shared = [
            chain_of(*(".".join(rng.sample(words, rng.randint(1, 3))) for _ in "12"))
            for _ in range(6)
        ]
        extra = {0: ("once.a",), 1: ("twice.b",), 2: ("twice.b",)}
        tables = [
            make_table(
                f"t{i}",
                tuple(labeled(c.p1.canonical(), c.p2.canonical(), rng.random() < 0.3)
                      for c in rng.sample(shared, rng.randint(1, 5)))
                + tuple(labeled(p1, "x", False) for p1 in extra.get(i, ())),
                qis=tuple(rng.choices(("alpha", "beta", "gamma", f"q{i}"), k=3)),
                set_tokens=tuple(rng.sample(("person", "place", f"s{i}"), 2)),
            )
            for i in range(8)
        ]
        tb, kb = ds.build_vocab(tables)
        assert (tb.tokens, kb.tokens) == naive_vocab_tokens(tables)
        assert "twice" in kb.tokens and "once" not in kb.tokens

    def test_chain_memo_holds_no_reference_cycle(self):
        """A vocabulary and its memoized chain encodings die with its last reference."""
        vocab = ds.Vocabulary("KB_Vocab", ("p", "x"))
        encoding = vocab.chains[chain_of("x.p", "y.q").canonical()]
        assert encoding == ds.ChainEncoding((2, 1, 0, 0), "x.p / y.q")
        ref = weakref.ref(vocab)
        gc.disable()
        try:
            del vocab
            assert ref() is None
        finally:
            gc.enable()

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
        out = ds.pad_negatives(tables, split, seed=1)
        assert len(out["t0"].negatives()) == 9
        # Padded chains never duplicate what the table already had.
        canons = [lc.chain.canonical() for lc in out["t0"].chains]
        assert len(canons) == len(set(canons))

    def test_validation_tables_untouched(self):
        tables = self._tables()
        split = ds.DatasetSplit(train=("t0",), validation=("t1",), test=(), seed=0)
        out = ds.pad_negatives(tables, split, seed=1)
        assert out["t1"] == tables["t1"]

    def test_table_positives_excluded_from_padding(self):
        tables = self._tables()
        split = ds.DatasetSplit(train=("t0",), validation=("t1",), test=(), seed=0)
        out = ds.pad_negatives(tables, split, seed=1)
        positives = {lc.chain.canonical() for lc in out["t0"].positives()}
        padded_negs = {lc.chain.canonical() for lc in out["t0"].negatives()}
        assert not positives & padded_negs

    def test_empty_pool_is_configuration_error(self):
        tables = {"t0": make_table("t0", (labeled("p.a", "q.a", True, 1.0),))}
        split = ds.DatasetSplit(train=("t0",), validation=(), test=(), seed=0)
        with pytest.raises(ds.ConfigurationError):
            ds.pad_negatives(tables, split, seed=1)


class TestCorpusIo:
    def test_read_corpus_validates_row_width(self, tmp_path):
        """Rows are as wide as the headers, every container is a list and every
        text field is a string: absent or null reads as empty, any other value
        names its line."""
        path = tmp_path / "corpus.jsonl"
        rec = {"table_id": "t", "page_title": "x", "caption": "", "headers": ["a", "b"],
               "rows": [[{"text": "only one cell"}]]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ds.ParseError):
            ds.read_corpus(str(path))
        # No caption or subject mid, a null title, header and cell text, and
        # an absent, null or empty URL.
        good = {"table_id": "t", "page_title": None, "headers": ["a", None],
                "rows": [[{"text": None, "url": "u"}, {"url": "", "urls": None}],
                         [{"url": None}, {}]]}
        path.write_text(json.dumps(good) + "\n")
        (table,) = ds.read_corpus(str(path))
        assert (table.page_title, table.caption, table.se_mid) == ("", "", "")
        assert table.headers == ("a", "") and [c.text for c in table.rows[0]] == ["", ""]
        assert [c.urls for row in table.rows for c in row] == [("u",), (), (), ()]
        assert ds.build_qis(table.page_title, table.caption, "Ann") == (ds.EMPTY_TOKEN,)
        cell_keys = ("text", "url", "urls")
        for key, value, must in (
            ("page_title", 5, "a string"), ("caption", ["x"], "a string"),
            ("se_mid", 3, "a string"), ("headers", ["a", 7], "a string"),
            ("text", 1.5, "a string"), ("text", ["x"], "a string"),
            ("headers", "ab", "a list"), ("rows", {"0": []}, "a list"),
            ("rows", [{"a": {}, "b": {}}], "a list"), ("url", 5, "a string"),
            ("url", ["u"], "a string"), ("urls", "http://x", "a list of strings"),
            ("urls", [None], "a list of strings"), ("table_id", 7, "a string"),
        ):
            bad = json.loads(json.dumps({**good, "table_id": "u"}))
            if key in cell_keys:
                bad["rows"][0][0][key] = value
            else:
                bad[key] = value
            path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
            name = "row" if key == "rows" and isinstance(value, list) else key
            message = rf"corpus\.jsonl:2: .*'{name}' must be {must}"
            with pytest.raises(ds.ParseError, match=message):
                ds.read_corpus(str(path))
        # A null id reads as absent: the record's line number.
        path.write_text(json.dumps({**good, "table_id": None}) + "\n"
                        + json.dumps({k: v for k, v in good.items() if k != "table_id"}) + "\n")
        assert [t.table_id for t in ds.read_corpus(str(path))] == ["1", "2"]

    @pytest.mark.parametrize(
        "ids", [("t1", "t2", "t1"), ("3", "t2", None)], ids=["repeated", "line-number"]
    )
    def test_duplicate_table_id_names_the_second_line(self, tmp_path, ids):
        # A record without an id takes its line number, which can repeat an explicit id.
        path = tmp_path / "corpus.jsonl"
        recs = [{"headers": ["a", "b"], "rows": []} for _ in ids]
        for rec, table_id in zip(recs, ids):
            if table_id is not None:
                rec["table_id"] = table_id
        path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        with pytest.raises(ds.ParseError, match=f"corpus.jsonl:3: duplicate table_id '{ids[0]}'"):
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
                str(out), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab, bundle.g
            )
        names = ("tables.jsonl", "split.json", "vocab_tb.json", "vocab_kb.json")
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        tables, split, tb, kb = ds.load_dataset(str(out1), bundle.g)
        assert split == bundle.split
        assert tb.tokens == bundle.tb_vocab.tokens
        assert kb.tokens == bundle.kb_vocab.tokens
        assert tables == bundle.tables
        # A block of each split in turn, and the block sizes.
        blocks = (bundle.split.train, bundle.split.validation, bundle.split.test)
        assert list(tables) == [tid for ids in blocks for tid in ids]
        assert json.loads((out1 / "split.json").read_text()) == dict(
            seed=bundle.split.seed, **dict(zip(ds.SPLITS, map(len, blocks))))

    @pytest.mark.parametrize(
        "move, count",
        [
            (lambda train, test: (train, test + train[:1]), 2),
            (lambda train, test: (train[1:], test), 0),
        ],
        ids=["in-two-blocks", "in-no-block"],
    )
    def test_a_split_that_misplaces_a_table_is_not_saved(self, tmp_path, bundle, move, count):
        split = bundle.split
        train, test = move(split.train, split.test)
        bad = ds.DatasetSplit(train, split.validation, test, split.seed)
        with pytest.raises(
            ds.ConfigurationError, match=rf"table '{split.train[0]}' sits in {count} split blocks"
        ):
            ds.save_dataset(
                str(tmp_path), bundle.tables, bad, bundle.tb_vocab, bundle.kb_vocab, bundle.g
            )
        assert not list(tmp_path.iterdir())

    def test_a_load_of_some_splits_parses_only_their_blocks(self, tmp_path, bundle):
        ds.save_dataset(
            str(tmp_path), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab,
            bundle.g,
        )
        path = tmp_path / "tables.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("{broken\n" + "".join(lines[1:]))  # the first train record
        for splits in (("test",), ("validation", "test")):
            tables, split, *_ = ds.load_dataset(str(tmp_path), bundle.g, splits)
            want = {part: getattr(bundle.split, part) if part in splits else ()
                    for part in ds.SPLITS}
            assert split == ds.DatasetSplit(**want, seed=bundle.split.seed)
            assert tables == {tid: bundle.tables[tid] for tid in split.validation + split.test}
        with pytest.raises(ds.ParseError, match=r"tables\.jsonl:1: bad JSON"):
            ds.load_dataset(str(tmp_path), bundle.g, ("train",))

    def test_loaded_segments_are_parsed_once_and_equal_a_fresh_parse(self, tmp_path, bundle):
        ds.save_dataset(
            str(tmp_path), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab,
            bundle.g,
        )
        tables, *_ = ds.load_dataset(str(tmp_path), bundle.g)
        by_text: dict[str, MetaPath] = {}
        seen = 0
        for table in tables.values():
            for lc in table.chains:
                for segment in (lc.chain.p1, lc.chain.p2):
                    text = segment.canonical()
                    assert segment == MetaPath.parse(text)
                    first = by_text.setdefault(text, segment)
                    assert first is segment, text
                    seen += 1
        assert seen > 2 * len(by_text)  # segments really repeat across chains

    def test_equal_loaded_chains_are_one_object(self, tmp_path, bundle):
        ds.save_dataset(
            str(tmp_path), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab,
            bundle.g,
        )
        tables, *_ = ds.load_dataset(str(tmp_path), bundle.g)
        by_text: dict[str, ChainPair] = {}
        seen = 0
        for table in tables.values():
            for lc in table.chains:
                assert by_text.setdefault(lc.chain.canonical(), lc.chain) is lc.chain
                seen += 1
        assert seen > 2 * len(by_text)  # chains really repeat across tables

    def test_equal_chain_records_are_one_object_and_save_as_read(self, tmp_path, bundle):
        ds.save_dataset(
            str(tmp_path), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab,
            bundle.g,
        )
        # Spellings of one metric value that JSON keeps apart: 1 and 1.0, 0.0 and -0.0.
        path = tmp_path / "tables.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[0])
        c = rec["chains"][0]
        spellings = [
            {**c, "recall": 1, "precision": 0.0},
            {**c, "recall": 1.0, "precision": 0.0},
            {**c, "recall": 1.0, "precision": -0.0},
        ]
        rec["chains"] = rec["chains"] + spellings + spellings
        lines[0] = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        path.write_text("".join(lines))

        tables, split, tb, kb = ds.load_dataset(str(tmp_path), bundle.g)
        by_record: dict[tuple, ds.LabeledChain] = {}
        seen = 0
        for table in tables.values():
            for lc in table.chains:
                key = (lc.chain.canonical(), lc.label, *map(repr, (lc.recall, lc.precision, lc.f1)))
                assert by_record.setdefault(key, lc) is lc
                seen += 1
        assert seen > len(by_record)  # padded negatives really repeat
        spelled = tables[rec["table_id"]].chains[-6:]
        assert spelled[:3] == spelled[3:]
        assert len({id(lc) for lc in spelled}) == 3
        assert [repr(lc.recall) for lc in spelled[:3]] == ["1", "1.0", "1.0"]

        out = tmp_path / "resaved"
        ds.save_dataset(str(out), tables, split, tb, kb, bundle.g)
        assert (out / "tables.jsonl").read_bytes() == path.read_bytes()

    def test_corrupt_table_line_names_the_file_and_line(self, tmp_path, bundle):
        ds.save_dataset(
            str(tmp_path), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab,
            bundle.g,
        )
        path = tmp_path / "tables.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[1])
        rec["chains"][0]["recall"] = "high"  # a metric that is not a number
        for bad in ("{broken\n", '{"table_id": "t"}\n', json.dumps(rec) + "\n"):
            path.write_text(lines[0] + bad + "".join(lines[1:]))
            with pytest.raises(ds.ParseError, match=r"tables\.jsonl:2: "):
                ds.load_dataset(str(tmp_path), bundle.g)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rec: rec.update(chains=[]), "the first of them positive"),
            (lambda rec: rec["chains"][0].update(label="negative"), "the first of them positive"),
            (lambda rec: rec["qis"].append(7), "'qis' must be a list of strings"),
            (lambda rec: rec.update(cn1="name"), "'cn1' must be a list of strings"),
            (lambda rec: rec["cn2"].append(None), "'cn2' must be a list of strings"),
            (lambda rec: rec["set"].append(["type"]), "'set' must be a list of strings"),
            (lambda rec: rec["chains"][0].update(p1=3), "chain 'p1' and 'p2' must be strings"),
            (lambda rec: rec["chains"][-1].update(p2=1.5), "chain 'p1' and 'p2' must be strings"),
            (lambda rec: rec.update(rr=rec["rr"][:1]), "two or more result rows"),
            (lambda rec: rec["rr"].insert(0, rec["rr"][-1]), "none repeated"),
        ],
        ids=["no-chains", "first-chain-negative", "int-in-qis", "string-cn1", "null-in-cn2",
             "list-in-set", "int-p1", "float-p2", "one-row", "repeated-row"],
    )
    def test_bad_table_record_names_the_line(self, tmp_path, bundle, edit, message):
        ds.save_dataset(
            str(tmp_path), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab,
            bundle.g,
        )
        path = tmp_path / "tables.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[1])
        edit(rec)
        path.write_text(lines[0] + json.dumps(rec) + "\n" + "".join(lines[2:]))
        with pytest.raises(ds.ParseError, match=rf"tables\.jsonl:2: .*{message}"):
            ds.load_dataset(str(tmp_path), bundle.g)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("split.json", '{"seed": 1,\n', r"split\.json:2: bad JSON"),
            ("split.json", '{"seed": 1, "train": []}\n', r"split\.json:1: bad split record"),
            ("vocab_tb.json", '{"kind": "TB_Vocab", "oov_token": "<oov>"}\n',
             r"vocab_tb\.json:1: bad vocabulary record: KeyError\('tokens'\)"),
            ("vocab_kb.json", "[]\n", r"vocab_kb\.json:1: expected a JSON object"),
            ("vocab_tb.json", '{"kind": "TB_Vocab", "oov_token": "<oov>", "tokens": ["a", "b", 2]}',
             r"vocab_tb\.json:1: bad vocabulary record: .*'tokens' must be a list of strings"),
            ("vocab_kb.json", '{"kind": "KB_Vocab", "oov_token": ["<oov>"], "tokens": ["a"]}',
             r"vocab_kb\.json:1: bad vocabulary record: .*'oov_token' must be strings"),
        ],
        ids=["truncated-split", "split-without-fields", "vocab-without-tokens", "vocab-not-object",
             "int-vocab-token", "list-oov-token"],
    )
    def test_bad_split_or_vocabulary_names_the_file(self, tmp_path, bundle, name, text, message):
        ds.save_dataset(
            str(tmp_path), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab,
            bundle.g,
        )
        (tmp_path / name).write_text(text)
        with pytest.raises(ds.ParseError, match=message):
            ds.load_dataset(str(tmp_path), bundle.g)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rec: rec.update(train=-1), "a block size is negative"),
            (lambda rec: rec.update(validation=1.0), "'validation' must be an integer"),
            (lambda rec: rec.update(test=str(rec["test"])), "'test' must be an integer"),
            (lambda rec: rec.update(seed=1.0), "'seed' must be an integer"),
            (lambda rec: rec.update(test=["t1", "t1"]),
             rf"'test' must be an integer.*; {ds.REBUILD}$"),
        ],
        ids=["negative-train", "float-validation", "string-test", "float-seed", "test-id-twice"],
    )
    def test_bad_split_ids_name_the_file(self, tmp_path, bundle, edit, message):
        ds.save_dataset(
            str(tmp_path), bundle.tables, bundle.split, bundle.tb_vocab, bundle.kb_vocab,
            bundle.g,
        )
        path = tmp_path / "split.json"
        rec = json.loads(path.read_text())
        edit(rec)
        path.write_text(json.dumps(rec))
        with pytest.raises(ds.ParseError, match=rf"split\.json:1: bad split record: .*{message}"):
            ds.load_dataset(str(tmp_path), bundle.g)


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
            ds.annotate_table(raw, bundle.kb, url2eid, ds.BuildSettings(banned_prefixes=()))

    @pytest.mark.parametrize("types", [("base.thing", "common.topic", "type.object"), None])
    def test_subject_without_a_specific_type_rejected(self, bundle, types):
        """Only generic types, or none: the compiled SET is the empty token,
        and a table of that subject is rejected."""
        raw = ds.read_corpus(bundle.paths.corpus)[0]
        url2mid = ds.read_tsv_map(bundle.paths.url2mid)
        url2eid = {u: bundle.g.entity_id(m) for u, m in url2mid.items()}
        settings = ds.BuildSettings(banned_prefixes=())
        assert ds.annotate_table(raw, bundle.kb, url2eid, settings).set_tokens != (ds.EMPTY_TOKEN,)
        types_by_mid = ds.read_tsv_multimap(bundle.paths.mid2types)
        del types_by_mid[raw.se_mid]
        if types:
            types_by_mid[raw.se_mid] = types
        sets = ds.subject_set_column(bundle.g, types_by_mid, {}, {})
        kb = bundle.kb._replace(subject_sets=sets[0], subject_set_ids=sets[1])
        with pytest.raises(ds.TableRejected) as exc:
            ds.annotate_table(raw, kb, url2eid, settings)
        assert exc.value.reason == "no specific entity type survives pruning"


class TestReachSharing:
    @pytest.fixture()
    def walks(self, monkeypatch):
        """Counts the walks by (frontier, tokens)."""
        from collections import Counter

        from kgtable import graph, paths

        walks = Counter()
        original = graph.walk

        def counting_walk(g, frontier, tokens, steps):
            frontier = tuple(frontier)
            walks[(frontier, tuple(tokens))] += 1
            return original(g, frontier, tokens, steps)

        monkeypatch.setattr(graph, "walk", counting_walk)
        monkeypatch.setattr(paths, "walk", counting_walk)
        return walks

    @staticmethod
    def _annotated(bundle, walks):
        """Yields each of the first 25 toy tables, annotated, with ``walks`` holding its walks."""
        g = bundle.g
        url2eid = {
            u: g.entity_id(m) for u, m in ds.read_tsv_map(bundle.paths.url2mid).items() if m in g
        }
        for raw in ds.read_corpus(bundle.paths.corpus)[:25]:
            walks.clear()
            yield raw, ds.annotate_table(
                raw, bundle.kb, url2eid, ds.BuildSettings(banned_prefixes=())
            )

    def test_each_segment_is_walked_once_per_table(self, bundle, walks):
        # Work count, no wall clock: the join and the scoring of every joined
        # chain share one memo, so no (entity, segment) is walked twice.
        chains = tables = 0
        for raw, table in self._annotated(bundle, walks):
            assert walks and max(walks.values()) == 1, raw.table_id
            chains += len(table.chains)
            tables += 1
        assert chains > 2 * tables

    def test_no_walk_starts_without_the_first_token(self, bundle, walks):
        # Work count, no wall clock: a start entity without the segment's
        # first token is answered from its adjacency, not walked.
        for raw, _ in self._annotated(bundle, walks):
            assert walks, raw.table_id
            for frontier, tokens in walks:
                assert all(tokens[0] in bundle.g.adjacency(e) for e in frontier), raw.table_id
