"""Small shared helpers: seeding, canonical JSON, base-a word codes."""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import AtomBudgetError, DataContractError


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key...).

    The mixing function is ``np.random.SeedSequence([seed, *key])``; the same
    tuple always yields the same stream, independent of call order, which is
    what makes fan-out across workers reproducible.
    """
    if seed < 0:
        raise ValueError("seeds must be non-negative integers")
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


# numpy's SeedSequence hash (a pool of four uint32 words) and PCG64 seeding
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _entropy_words(seed, key) -> np.ndarray:
    """(N, L) uint32 matrix whose row i is the word list ``SeedSequence``
    makes of ``[seed, *key]``, with each array entry taken at its index i.

    An int becomes its 32-bit words, low word first (0 is the one word
    ``[0]``); an array entry must lie in 0..2**32 - 1, so that it is one word
    in every row and cannot wrap."""
    columns, rows = [], []
    for value in (seed, *key):
        if np.ndim(value) == 1:
            value = np.asarray(value)
            if value.dtype.kind not in "iu":
                raise TypeError("batched keys must be integers")
            if value.size and (value.min() < 0 or value.max() > _MASK32):
                raise ValueError("batched keys must lie in 0 .. 2**32 - 1")
            columns.append(value.astype(np.uint32)[:, None])
            rows.append(len(value))
        else:
            value = int(value)
            if value < 0:
                raise ValueError("seeds and keys must be non-negative integers")
            words = [value & _MASK32]
            while value > _MASK32:
                value >>= 32
                words.append(value & _MASK32)
            columns.append(np.array([words], dtype=np.uint32))
    n = max(rows, default=1)
    return np.hstack([np.broadcast_to(c, (n, c.shape[1])) for c in columns])


def seed_state(seed, *key, words: int) -> np.ndarray:
    """``SeedSequence([seed, *key]).generate_state(words)`` (uint32) for
    every row of a batch, as an (N, words) array.

    ``seed`` and each key are an int, shared by all rows, or a 1-D integer
    array of N one-word keys; this is numpy's hash done column-wise in uint32
    arithmetic, so every row has the bits of its own ``SeedSequence``.
    """
    entropy = _entropy_words(seed, key)
    n, length = entropy.shape
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ value >> 16

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, length):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    const = _INIT_B
    out = np.empty((n, words), dtype=np.uint32)
    for i in range(words):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        out[:, i] = value ^ value >> 16
    return out


def spawn_draws(draw, seed, *key) -> list:
    """``[draw(spawn_rng(seed_i, *key_i)) for each row i]``, bit for bit,
    where ``seed`` and the keys are ints or 1-D arrays of one-word keys as
    :func:`seed_state` takes them.

    The rows are seeded in one vectorized pass, and each row's PCG64 state
    is set on one generator, which ``draw`` must not keep.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    # generate_state(4, uint64): word j is lo | hi << 32 of uint32 words 2j, 2j + 1
    w = seed_state(seed, *key, words=8).astype(np.uint64)
    seed_words = [(w[:, 2 * j] | w[:, 2 * j + 1] << 32).tolist() for j in range(4)]
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*seed_words):
        inc = (i_hi << 64 | i_lo) << 1 & _MASK128 | 1
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        out.append(draw(rng))
    return out


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """Short content hash of a JSON-serializable settings object."""
    return hashlib.sha1(canonical_json(obj).encode("utf-8")).hexdigest()


class JsonRecord:
    """Mixin for plain dataclass records whose JSON form is their fields."""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def dump_json(path: str | Path, obj) -> None:
    """Write JSON deterministically: sorted keys, fixed layout, trailing newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at ``path``; bytes that are not UTF-8 raise
    :class:`DataContractError` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataContractError(f"{path}: not UTF-8 text ({exc})") from exc


def load_json(path: str | Path):
    """The JSON value in the file at ``path``; a file that is not UTF-8 JSON
    raises :class:`DataContractError` naming it."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataContractError(f"{path}: not valid JSON ({exc})") from exc


def check_code_length(alphabet_size: int, length: int) -> None:
    """Refuse words whose base-``alphabet_size`` codes would overflow int64."""
    if alphabet_size ** length - 1 > np.iinfo(np.int64).max:
        raise AtomBudgetError(
            f"{alphabet_size}**{length} codes overflow int64; use a shorter length"
        )


def encode(atoms, alphabet_size: int) -> np.ndarray:
    """Base-``alphabet_size`` codes of words along the last axis.

    The first symbol is the most significant digit, so numeric order of codes
    equals lexicographic order of the words.  A single word gives a 0-d array.
    """
    atoms = np.asarray(atoms, dtype=np.int64)
    check_code_length(alphabet_size, atoms.shape[-1])
    codes = np.zeros(atoms.shape[:-1], dtype=np.int64)
    for j in range(atoms.shape[-1]):
        codes *= alphabet_size
        codes += atoms[..., j]
    return codes


def decode(codes, alphabet_size: int, length: int) -> np.ndarray:
    """Inverse of :func:`encode`: words of ``length`` symbols along a new last axis."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape + (length,), dtype=np.int64)
    for j in range(length - 1, -1, -1):
        codes, out[..., j] = np.divmod(codes, alphabet_size)
    return out
