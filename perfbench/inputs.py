"""Seeded inputs owned by the benchmark.

Nothing here calls the package's samplers, so a change to
``markovdetect.markov.sample`` cannot change what the benchmark feeds in.
Every generator takes the workload seed and returns the same data for the
same seed.
"""
from __future__ import annotations

import numpy as np

# 16 letters and a space: a 17-symbol character alphabet
TEXT_SYMBOLS = "abcdefghijklmnop "


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def order2_rows(seed: int, key: int, a: int = len(TEXT_SYMBOLS)) -> np.ndarray:
    """Random order-2 transition rows, one per context ``c0 * a + c1``.

    Rows are Dirichlet(2) mixed with a uniform floor, so every context is
    reachable and a 60,000-character corpus visits each one many times.
    """
    rows = _rng(seed, 1, key).dirichlet(np.full(a, 2.0), size=a * a)
    return 0.9 * rows + 0.1 / a


def order2_text(rows: np.ndarray, length: int, seed: int, key: int,
                strands: int = 100) -> str:
    """Text of ``length`` characters from the order-2 chain ``rows``.

    The text is ``strands`` independent chains run side by side and then
    concatenated, which vectorizes generation; each strand starts from a
    uniformly drawn pair of symbols.
    """
    a = len(TEXT_SYMBOLS)
    rng = _rng(seed, 2, key)
    strands = max(1, min(strands, length // 50))
    steps = -(-length // strands)
    cdf = np.cumsum(rows, axis=1)
    cdf[:, -1] = 1.0
    out = np.empty((strands, steps), dtype=np.int64)
    out[:, :2] = rng.integers(0, a, size=(strands, 2))
    for t in range(2, steps):
        ctx = out[:, t - 2] * a + out[:, t - 1]
        u = rng.random(strands)
        out[:, t] = (u[:, None] >= cdf[ctx]).sum(axis=1)
    codes = out.reshape(-1)[:length]
    return "".join(np.array(list(TEXT_SYMBOLS))[codes])


def dirichlet_pair(seed: int, key: int, n_atoms: int) -> tuple[list[float], list[float]]:
    """Two Dirichlet(1) laws on ``n_atoms`` atoms, renormalized in float64."""
    rng = _rng(seed, 3, key)
    mu = rng.dirichlet(np.ones(n_atoms))
    nu = rng.dirichlet(np.ones(n_atoms))
    return (mu / mu.sum()).tolist(), (nu / nu.sum()).tolist()

