"""Tokenization and window counting.

Symbols are always handled as integer codes into an :class:`Alphabet`; the
rest of the package never sees raw text.  Three schemes are supported:

* ``byte``  -- UTF-8 bytes of the text against a fixed 256-symbol alphabet,
  lossless round trip;
* ``char``  -- observed characters in order of first appearance, lossless;
* ``word``  -- whitespace-separated words, optionally capped to a vocabulary
  limit with the rarest words collapsed onto a reserved ``<oov>`` symbol.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TokenizerError
from .util import decode, encode

OOV_SYMBOL = "<oov>"
SCHEMES = ("byte", "char", "word")

_BYTE_SYMBOLS = tuple(chr(b) for b in range(256))
_TOO_FEW = "text uses fewer than 2 distinct symbols; pass an explicit alphabet"


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct token strings with a bijective index map."""

    symbols: tuple[str, ...]
    oov_policy: str = "error"  # "error" | "map"

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be unique")
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if self.oov_policy not in ("error", "map"):
            raise ValueError(f"unknown oov policy {self.oov_policy!r}")
        if self.oov_policy == "map" and OOV_SYMBOL not in self.symbols:
            raise ValueError("oov policy 'map' requires the reserved symbol in the alphabet")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            if self.oov_policy == "map":
                return self._index[OOV_SYMBOL]
            raise TokenizerError(f"symbol {symbol!r} not in alphabet") from None

    def symbol(self, index: int) -> str:
        return self.symbols[index]

    def to_json(self) -> dict:
        return {"symbols": list(self.symbols), "oov_policy": self.oov_policy}

    @classmethod
    def from_json(cls, obj: dict) -> "Alphabet":
        symbols = obj["symbols"]
        # exact types: a symbol of another type would be written back as it came
        if type(symbols) is not list or not set(map(type, symbols)) <= {str}:
            raise TypeError("alphabet symbols must be a list of strings")
        return cls(tuple(symbols), obj.get("oov_policy", "error"))


@dataclass
class TokenSeq:
    """Sequence of integer token codes."""

    tokens: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.tokens.ndim != 1:
            raise ValueError("token array must be one-dimensional")

    def __len__(self) -> int:
        return int(self.tokens.shape[0])

    def __iter__(self):
        return iter(self.tokens.tolist())

    def validate(self, alphabet_size: int) -> None:
        if len(self) and (self.tokens.min() < 0 or self.tokens.max() >= alphabet_size):
            raise ValueError("token code out of alphabet range")


def _word_alphabet(words: list[str], vocab_limit: int | None) -> Alphabet:
    if vocab_limit is not None and vocab_limit < 2:
        raise ValueError(f"vocab_limit {vocab_limit} is below 2: an alphabet needs "
                         "at least one word and <oov>")
    ordered = list(dict.fromkeys(words))  # in order of first appearance
    if len(ordered) < 2:
        raise TokenizerError(_TOO_FEW)
    if vocab_limit is not None and len(ordered) > vocab_limit:
        # keep the most frequent (limit - 1) words, reserving one slot for <oov>;
        # rarest first to go, ties (the sort is stable) toward later first appearance
        counts = Counter(words)
        keep = set(sorted(ordered, key=lambda w: -counts[w])[: vocab_limit - 1])
        return Alphabet(tuple(w for w in ordered if w in keep) + (OOV_SYMBOL,),
                        oov_policy="map")
    return Alphabet(tuple(ordered))


def _word_codes(words: list[str], alphabet: Alphabet) -> np.ndarray:
    """Codes of ``words`` under ``alphabet`` by one pass of its dict, applying
    its OOV policy to the first word it lacks, in text order."""
    miss = alphabet.index(OOV_SYMBOL) if alphabet.oov_policy == "map" else -1
    codes = np.fromiter(map(alphabet._index.get, words, repeat(miss)), np.int64, len(words))
    if miss < 0 and (codes < 0).any():
        raise TokenizerError(f"symbol {words[int(np.argmax(codes < 0))]!r} not in alphabet")
    return codes


def _first_seen(points: np.ndarray) -> np.ndarray:
    """The distinct values of a nonempty ``points`` in order of first appearance.

    A ``bincount`` gives the distinct values; ``np.unique`` over blocks of
    doubling length then finds where each first appears, and stops at the
    block that holds the last newcomer, which in ordinary text is early.
    """
    known = np.bincount(points) == 0
    values, starts = [], []
    start, block = 0, 1 << 12
    while not known.all():
        vals, at = np.unique(points[start:start + block], return_index=True)
        new = ~known[vals]
        known[vals[new]] = True
        values.append(vals[new])
        starts.append(at[new] + start)
        start, block = start + block, 2 * block
    return np.concatenate(values)[np.argsort(np.concatenate(starts))]


def _code_points(points: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """Codes of the one-character symbols with code points ``points`` under
    ``alphabet``, applying its OOV policy to the first symbol it lacks.

    One table indexed by code point, up to the largest in the text or the
    alphabet (so at most 0x110000 cells), maps the whole array at once.
    """
    single = [(ord(s), i) for i, s in enumerate(alphabet.symbols)
              if isinstance(s, str) and len(s) == 1]
    keys = np.array([key for key, _ in single], dtype=np.int64)
    miss = alphabet.index(OOV_SYMBOL) if alphabet.oov_policy == "map" else -1
    table = np.full(max(int(points.max(initial=0)), int(keys.max(initial=0))) + 1, miss,
                    dtype=np.int64)
    table[keys] = [i for _, i in single]
    codes = table[points]
    if miss < 0 and (codes < 0).any():
        lacking = chr(int(points[np.argmax(codes < 0)]))
        raise TokenizerError(f"symbol {lacking!r} not in alphabet")
    return codes


def tokenize(
    text: str,
    scheme: str = "char",
    alphabet: Alphabet | None = None,
    vocab_limit: int | None = None,
) -> tuple[TokenSeq, Alphabet]:
    """Encode ``text`` under ``scheme``; returns the codes and the alphabet used.

    When ``alphabet`` is given the text is coded against it (applying its OOV
    policy; the first symbol it lacks, in text order, raises under policy
    ``error``); otherwise an alphabet is built from the text.  Byte and char
    text is coded in whole-array passes: the UTF-8 bytes, or the code points
    of ``text.encode("utf-32-le", "surrogatepass")`` (so a lone surrogate is
    one symbol, as in ``list(text)``), go through one code-point table.
    Words are coded by one pass of the alphabet's dict.  Built from a char or
    word text with fewer than 2 distinct symbols, the alphabet is refused
    (:class:`TokenizerError`), and so is a word ``vocab_limit`` below 2
    (``ValueError``).
    """
    if scheme not in SCHEMES:
        raise TokenizerError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if scheme == "byte":
        if alphabet is None:
            alphabet = Alphabet(_BYTE_SYMBOLS)
        points = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        return TokenSeq(_code_points(points, alphabet)), alphabet
    parts = text.split() if scheme == "word" else text
    if not parts:
        raise TokenizerError(f"scheme {scheme!r} needs nonempty text")
    if scheme == "word":
        if alphabet is None:
            alphabet = _word_alphabet(parts, vocab_limit)
        return TokenSeq(_word_codes(parts, alphabet)), alphabet
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    if alphabet is None:
        seen = _first_seen(points)
        if len(seen) < 2:
            raise TokenizerError(_TOO_FEW)
        alphabet = Alphabet(tuple(map(chr, seen.tolist())))
    return TokenSeq(_code_points(points, alphabet)), alphabet


def detokenize(seq: TokenSeq, alphabet: Alphabet, scheme: str = "char") -> str:
    """Invert :func:`tokenize`.  Exact for byte and char; word joins with spaces."""
    symbols = [alphabet.symbol(t) for t in seq]
    if scheme == "byte":
        return "".join(symbols).encode("latin-1").decode("utf-8")
    if scheme == "char":
        return "".join(symbols)
    return " ".join(symbols)


def count_windows(seq: TokenSeq, length: int) -> dict[tuple[int, ...], int]:
    """Counts of fully contained windows of the given length.

    A length-``m`` sequence has ``m - length + 1`` such windows (``m + 1`` for
    length 0, all of them the empty tuple).  Windows are counted as base-``a``
    codes, ``a`` one more than the largest token, so ``a ** length`` must fit
    int64 (else :class:`AtomBudgetError`); negative tokens raise ValueError.
    """
    if length < 0:
        raise ValueError("window length must be >= 0")
    if length > len(seq):
        return {}
    a = int(seq.tokens.max(initial=0)) + 1
    seq.validate(a)
    codes, counts = np.unique(encode(sliding_window_view(seq.tokens, length), a),
                              return_counts=True)
    return dict(zip(map(tuple, decode(codes, a, length).tolist()), counts.tolist()))
