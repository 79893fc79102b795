from kgtable.text import is_numeric, jaccard, tokenize


def test_tokenize_lowercases_and_splits_on_punctuation():
    assert tokenize("tv.tv_actor.starring_roles") == ("tv", "tv", "actor", "starring", "roles")
    assert tokenize("A/B^C-D e.f") == ("a", "b", "c", "d", "e", "f")


def test_tokenize_drops_empty_pieces():
    assert tokenize("..__//  ") == ()
    assert tokenize("") == ()


def test_is_numeric():
    assert is_numeric("5")
    assert is_numeric("2003")
    assert not is_numeric("5th")
    assert not is_numeric("")


def test_jaccard_basics():
    assert jaccard({"a", "b"}, {"b", "c"}) == 1 / 3
    assert jaccard({"a"}, {"a"}) == 1.0
    assert jaccard(set(), set()) == 0.0
    assert jaccard({"a"}, set()) == 0.0
