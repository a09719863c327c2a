import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovdetect.corpus import (
    OOV_SYMBOL,
    Alphabet,
    TokenSeq,
    count_windows,
    detokenize,
    tokenize,
)
from markovdetect.errors import AtomBudgetError, TokenizerError
from oracles import loop_tokenize, tuple_windows


def test_char_round_trip():
    text = "abracadabra"
    seq, alphabet = tokenize(text, "char")
    assert detokenize(seq, alphabet, "char") == text
    # symbols are indexed in order of first appearance
    assert alphabet.symbols == ("a", "b", "r", "c", "d")


def test_char_coding_example():
    seq, alphabet = tokenize("aab", "char")
    assert seq.tokens.tolist() == [0, 0, 1]
    assert alphabet.symbols == ("a", "b")


def test_byte_round_trip_utf8():
    text = "héllo — ωorld"
    seq, alphabet = tokenize(text, "byte")
    assert alphabet.size == 256
    assert detokenize(seq, alphabet, "byte") == text
    assert len(seq) == len(text.encode("utf-8"))


def test_word_scheme_vocab_limit():
    text = "the cat sat on the mat the cat"
    seq, alphabet = tokenize(text, "word", vocab_limit=3)
    assert alphabet.size == 3
    assert OOV_SYMBOL in alphabet.symbols
    # "the" (3x) and "cat" (2x) survive; everything else folds to the oov bucket
    kept = set(alphabet.symbols) - {OOV_SYMBOL}
    assert kept == {"the", "cat"}


def test_word_scheme_keeps_all_below_limit():
    # most frequent word first, appearance order breaking ties
    seq, alphabet = tokenize("b a b", "word")
    assert alphabet.symbols == ("b", "a")
    assert detokenize(seq, alphabet, "word") == "b a b"


def test_empty_text_rejected():
    with pytest.raises(TokenizerError):
        tokenize("", "char")
    with pytest.raises(TokenizerError):
        tokenize("   ", "word")


def test_single_symbol_text_rejected():
    with pytest.raises(TokenizerError):
        tokenize("aaaa", "char")


def test_explicit_alphabet_oov_error():
    alphabet = Alphabet(symbols=("a", "b"))
    with pytest.raises(TokenizerError):
        tokenize("abc", "char", alphabet=alphabet)


def test_explicit_alphabet_oov_map():
    alphabet = Alphabet(symbols=("a", "b", OOV_SYMBOL), oov_policy="map")
    seq, _ = tokenize("abcd", "char", alphabet=alphabet)
    assert seq.tokens.tolist() == [0, 1, 2, 2]


# -- array tokenizer against the per-character loop ---------------------------

_MAP = ("a", "b", "\u00e9", "\U0001F600", "\ud800", "\x00", "\r", OOV_SYMBOL, "word")
ALPHABETS = [
    None,
    Alphabet(("a", "b", "c")),
    Alphabet(_MAP, oov_policy="map"),
    Alphabet(tuple(s for s in _MAP if s != OOV_SYMBOL)),
    Alphabet(tuple(chr(b) for b in range(128))),
    Alphabet(tuple(chr(b) for b in range(128)) + (OOV_SYMBOL,), oov_policy="map"),
]
TEXTS = [
    "abracadabra",
    "h\u00e9llo \u2014 \u03c9orld",
    "a\U0001F600b\U0001D518\U0001F600\U0010FFFF",  # beyond the BMP
    "e\u0301a\u0300e\u0301\u20dd",  # combining marks
    "line one\r\nline two\r\n",
    "a\x00b\x00\x00",
    "a\ud800b\udfffa\ud800",  # lone surrogates
    "",
    "aaaa",
    "\U0001F600" * 3,
    "caba",
]


def _outcome(text, scheme, alphabet, tokenizer):
    """Codes and alphabet, or the type and message of the error raised."""
    try:
        seq, used = tokenizer(text, scheme, alphabet=alphabet)
    except (TokenizerError, UnicodeError) as exc:
        return type(exc), str(exc)
    return seq.tokens.dtype, seq.tokens.tolist(), used


@pytest.mark.parametrize("scheme", ["char", "byte"])
@pytest.mark.parametrize("alphabet", ALPHABETS, ids=["none", "abc", "map", "error",
                                                     "ascii", "ascii-map"])
@pytest.mark.parametrize("text", TEXTS, ids=["ascii", "latin", "non-bmp", "combining",
                                             "crlf", "nul", "lone-surrogate", "empty",
                                             "one-symbol", "one-non-bmp", "caba"])
def test_tokenize_equals_the_per_character_loop(text, scheme, alphabet):
    """Codes, alphabet, and the type and message of every refusal (empty
    text, one symbol, the first character outside the alphabet in text
    order, a lone surrogate that UTF-8 cannot encode) are the loop's."""
    assert (_outcome(text, scheme, alphabet, tokenize)
            == _outcome(text, scheme, alphabet, loop_tokenize))


@given(text=st.text(max_size=80), scheme=st.sampled_from(["char", "byte"]),
       alphabet=st.sampled_from(ALPHABETS))
@settings(max_examples=300, deadline=None)
def test_tokenize_equals_the_per_character_loop_on_any_text(text, scheme, alphabet):
    assert (_outcome(text, scheme, alphabet, tokenize)
            == _outcome(text, scheme, alphabet, loop_tokenize))


WORD_TEXTS = ["the cat sat on the mat the cat", "b a b", "  a\tb\n a  c b \u00e9 a ",
              "one", "x y z x y x w v u", "", "   "]
WORD_ALPHABETS = [None, Alphabet(("the", "cat", "a", "b")),
                  Alphabet(("the", "cat", "x", OOV_SYMBOL), oov_policy="map")]


def _word_outcome(text, alphabet, vocab_limit, tokenizer):
    try:
        seq, used = tokenizer(text, "word", alphabet=alphabet, vocab_limit=vocab_limit)
    except TokenizerError as exc:
        return type(exc), str(exc)
    return seq.tokens.dtype, seq.tokens.tolist(), used


@pytest.mark.parametrize("vocab_limit", [None, 2, 3, 4, 100])
@pytest.mark.parametrize("alphabet", WORD_ALPHABETS, ids=["none", "error", "map"])
@pytest.mark.parametrize("text", WORD_TEXTS)
def test_word_tokenize_equals_the_per_word_loop(text, alphabet, vocab_limit):
    """The word alphabet (first-seen order, the vocabulary cap and its
    ties), the codes and the refusal of the first word outside an explicit
    alphabet, in text order, are those of the per-word loop."""
    assert (_word_outcome(text, alphabet, vocab_limit, tokenize)
            == _word_outcome(text, alphabet, vocab_limit, loop_tokenize))


def test_first_seen_order_reaches_past_the_first_block():
    """A symbol that first appears deep in a long text still takes its place
    in first-seen order."""
    text = "ab" * 50_000 + "z" + "ab" * 10 + "y"
    seq, alphabet = tokenize(text, "char")
    assert alphabet.symbols == ("a", "b", "z", "y")
    assert seq.tokens.tolist() == loop_tokenize(text)[0].tokens.tolist()


def test_alphabet_needs_two_symbols():
    with pytest.raises(ValueError):
        Alphabet(symbols=("a",))


def test_alphabet_json_round_trip():
    alphabet = Alphabet(symbols=("x", "y", OOV_SYMBOL), oov_policy="map")
    again = Alphabet.from_json(alphabet.to_json())
    assert again == alphabet


# -- window counting --------------------------------------------------------


def test_count_windows_hand_example():
    seq, _ = tokenize("aabab", "char")
    counts = count_windows(seq, 2)
    named = {("a", "a"): 1, ("a", "b"): 2, ("b", "a"): 1}
    assert counts == {(0, 0): 1, (0, 1): 2, (1, 0): 1}
    assert sum(counts.values()) == 4
    assert len(named) == len(counts)


def test_count_windows_length_zero_and_long():
    seq = TokenSeq(np.array([0, 1, 0]))
    assert count_windows(seq, 0) == {(): 4}
    assert count_windows(seq, 3) == {(0, 1, 0): 1}
    assert count_windows(seq, 4) == {}


@given(
    tokens=st.lists(st.integers(0, 2), min_size=2, max_size=40),
    k=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_window_marginalization(tokens, k):
    """Summing (k+1)-gram counts over the final symbol recovers the k-gram
    counts of the first m-1 positions."""
    if len(tokens) < k + 1:
        return
    seq = TokenSeq(np.array(tokens))
    full = count_windows(seq, k + 1)
    prefix = count_windows(TokenSeq(seq.tokens[:-1]), k)
    marginal: dict = {}
    for window, c in full.items():
        marginal[window[:-1]] = marginal.get(window[:-1], 0) + c
    assert marginal == prefix


@given(tokens=st.lists(st.integers(0, 4), min_size=0, max_size=50), length=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_window_total(tokens, length):
    seq = TokenSeq(np.array(tokens, dtype=np.int64))
    counts = count_windows(seq, length)
    expect = max(len(tokens) - length + 1, 0)
    assert sum(counts.values()) == expect
    assert counts == tuple_windows(tokens, length)


def test_count_windows_refusals():
    with pytest.raises(ValueError):
        count_windows(TokenSeq(np.array([0, 1])), -1)
    with pytest.raises(ValueError):
        count_windows(TokenSeq(np.array([0, -1, 1])), 2)
    # 256 ** 8 window codes overflow int64
    with pytest.raises(AtomBudgetError):
        count_windows(TokenSeq(np.arange(256)), 8)


def test_token_seq_validation():
    seq = TokenSeq(np.array([0, 3]))
    with pytest.raises(ValueError):
        seq.validate(2)
