import re

from hypothesis import given
from hypothesis import strategies as st

from kgtable.text import is_numeric, jaccard, tokenize

# Each separator, whitespace beyond ASCII, and a capital whose lowercase is longer.
SPECIAL = st.sampled_from([".", "_", "/", "^", "-", " ", "\t", "\n", "\u00a0", "\u2003", "\u0130"])


def test_tokenize_lowercases_and_splits_on_punctuation():
    assert tokenize("tv.tv_actor.starring_roles") == ("tv", "tv", "actor", "starring", "roles")
    assert tokenize("A/B^C-D e.f") == ("a", "b", "c", "d", "e", "f")


def test_tokenize_drops_empty_pieces():
    assert tokenize("..__//  ") == ()
    assert tokenize("") == ()


@given(st.text(alphabet=st.one_of(SPECIAL, st.characters())))
def test_tokenize_equals_a_split_on_separators_dropping_empty_pieces(text):
    pieces = re.split(r"[\s._/^\-]+", text.lower())
    assert tokenize(text) == tuple(t for t in pieces if t)


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
