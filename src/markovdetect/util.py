"""Small shared helpers: seeding, canonical JSON, base-a word codes."""
from __future__ import annotations

import dataclasses
import functools
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
        return _plain(self)


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _plain(value):
    """``value`` as ``dataclasses.asdict`` gives it, without its deep copy:
    dataclasses become dicts and lists, tuples and dicts are rebuilt, while
    every other value, a JSON scalar in a record, is kept as it is."""
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {name: _plain(getattr(value, name)) for name in _field_names(type(value))}
    return value


def dump_json(path: str | Path, obj) -> None:
    """Write JSON deterministically: sorted keys, fixed layout, trailing newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def load_json(path: str | Path):
    """The JSON value in the file at ``path``; a file that is not JSON raises
    :class:`DataContractError` naming it."""
    try:
        return json.loads(Path(path).read_text())
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
        codes = codes * alphabet_size + atoms[..., j]
    return codes


def decode(codes, alphabet_size: int, length: int) -> np.ndarray:
    """Inverse of :func:`encode`: words of ``length`` symbols along a new last axis."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape + (length,), dtype=np.int64)
    for j in range(length - 1, -1, -1):
        codes, out[..., j] = np.divmod(codes, alphabet_size)
    return out
