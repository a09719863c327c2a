"""Entropy-family scalars and process-level divergence machinery.

Everything is in nats.  Single-letter functions take plain probability
vectors; process-level ones take the model/source types from
:mod:`markovdetect.markov`.

:func:`estimate_profile` is the one entry point to the continuity structure
of a source.  For a hidden-Markov source it scores every word of each
context length with one :func:`markovdetect.markov.hmm_forward` call; for a
chain it reads rows off the stationary :func:`markovdetect.markov.window_law`.
Both give sorted int64 context codes plus a row matrix, and the rates group
those rows by their last k symbols.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AtomBudgetError, BoundInapplicableError, SupportViolationWarning
from .markov import (
    DEFAULT_ATOM_CAP,
    HiddenMarkovSource,
    MarkovModel,
    check_shared_alphabet,
    hmm_forward,
    stationary,
    window_law,
)
from .util import decode

PROB_TOL = 1e-12


def _as_prob(p, stack: bool = False) -> np.ndarray:
    """``p`` as a checked probability vector, or with ``stack`` a 2-d stack
    of them, one per row."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in ((1, 2) if stack else (1,)) or p.size < 1:
        raise ValueError("expected a 1-d probability vector" + (" or a stack" if stack else ""))
    # NaN fails both
    if not (p.min() >= 0 and (np.abs(p.sum(axis=-1) - 1.0) <= 1e-9).all()):
        raise ValueError("entries must be >= 0 and sum to 1")
    return p


def entropy(p) -> float:
    """Shannon entropy -sum p ln p, with 0 ln 0 = 0."""
    p = _as_prob(p)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def cross_entropy(p, q) -> float:
    """-E_p[ln q]; +inf (with a warning) where q has a hole in p's support."""
    p, q = _as_prob(p), _as_prob(q)
    mask = p > 0
    if np.any(q[mask] <= 0):
        warnings.warn("q assigns zero mass inside p's support", SupportViolationWarning)
        return math.inf
    return float(-np.sum(p[mask] * np.log(q[mask])))


def kl(p, q):
    """Relative entropy D(p||q) in nats; +inf on support violation.

    Two (pairs, atoms) stacks give an array, one divergence per row pair,
    each equal bit for bit to the divergence of that pair alone.
    """
    p, q = _as_prob(p, stack=True), _as_prob(q, stack=True)
    if p.shape != q.shape:
        raise ValueError("distributions must share the atom space")
    mask = p > 0
    hole = (mask & (q <= 0)).any(axis=-1)
    if hole.any():
        warnings.warn("q assigns zero mass inside p's support", SupportViolationWarning)
    if p.ndim == 1:
        return math.inf if hole else float(_kl_terms(p[mask], q[mask]))
    out = np.full(len(p), math.inf)
    # a full row sums as the 1-d sum does; a row with zeros sums its masked
    # entries, since padding them would change the summation's grouping
    full = mask.all(axis=1) & ~hole
    out[full] = _kl_terms(p[full], q[full])
    for i in np.flatnonzero(~full & ~hole).tolist():
        out[i] = _kl_terms(p[i, mask[i]], q[i, mask[i]])
    return out


def _kl_terms(p, q):
    """sum p ln(p / q) along the last axis."""
    return np.sum(p * np.log(p / q), axis=-1)


def perplexity(p, q) -> float:
    """exp of the cross entropy (nats convention throughout)."""
    return math.exp(cross_entropy(p, q))


def perplexity_ratio(p, q1, q2) -> float:
    """Perplexity of q1 over q2 against the same p: exp(H(p,q1) - H(p,q2))."""
    return math.exp(cross_entropy(p, q1) - cross_entropy(p, q2))


def exponent_from_entropies(h_cross: float, h_self: float) -> float:
    """Detection exponent as the cross-entropy excess over the source entropy."""
    diff = h_cross - h_self
    if diff < -PROB_TOL:
        raise ValueError("cross entropy below entropy: inconsistent inputs")
    return diff


class ChernoffInfo(NamedTuple):
    value: float
    weight: float  # minimizing interpolation weight in [0, 1]


def _chernoff_objective(p, q):
    common = (p > 0) & (q > 0)
    if not np.any(common):
        return None
    from scipy.special import logsumexp
    lp, lq = np.log(p[common]), np.log(q[common])

    def g(lam: float) -> float:
        return float(logsumexp(lam * lp + (1.0 - lam) * lq))

    return g


def chernoff(p, q) -> ChernoffInfo:
    """Chernoff information: worst-case Bayes exponent for p against q.

    Minimizes ln sum p^w q^(1-w) over w in [0, 1] by scipy's bounded Brent
    search, to within 1e-6 in w.  Supports are intersected first (flagged
    when they differ); disjoint supports give +inf.
    """
    p, q = _as_prob(p), _as_prob(q)
    if np.any((p > 0) != (q > 0)):
        warnings.warn("supports differ; restricting to the common support",
                      SupportViolationWarning)
    g = _chernoff_objective(p, q)
    if g is None:
        return ChernoffInfo(math.inf, math.nan)
    from scipy.optimize import minimize_scalar
    w = float(minimize_scalar(g, bounds=(0.0, 1.0), method="bounded",
                              options={"xatol": 1e-6}).x)
    return ChernoffInfo(-g(w), w)


def kl_rate(p_model: MarkovModel, q_model: MarkovModel) -> float:
    """Per-token divergence rate of stationary chain p_model from q_model.

    Both conditionals are read off the longest context either model needs, and
    averaged under p_model's stationary window law (:func:`window_law`).
    Equals ``kl`` of the rows for order-0 pairs; +inf when q_model misses mass
    somewhere p_model walks.
    """
    check_shared_alphabet(p_model, q_model)
    a, kp, kq = p_model.alphabet.size, p_model.order, q_model.order
    span = max(kp, kq)
    windows, mass = window_law(p_model, span, (p_model.codes, stationary(p_model)))
    rows_p = p_model.rows_at(windows % a ** kp)
    rows_q = q_model.rows_at(windows % a ** kq)
    live = rows_p > 0
    pp, qq = rows_p[live], rows_q[live]
    if (qq <= 0).any():
        warnings.warn("q_model assigns zero mass on p_model's support",
                      SupportViolationWarning)
        return math.inf
    terms = np.broadcast_to(mass[:, None], live.shape)[live] * pp * np.log(pp / qq)
    # cumsum adds the terms one by one in window-then-symbol order, like a loop
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


# -- continuity structure of a stationary source ---------------------------


@dataclass(frozen=True)
class ContinuityProfile:
    """Per-depth context sensitivity of next-symbol conditionals.

    ``rates[i]`` is the largest change of any conditional probability between
    two histories that agree on their most recent ``i + 1`` symbols; ``floor``
    is the smallest conditional probability the source ever assigns.
    """

    rates: tuple[float, ...]
    floor: float
    alphabet_size: int

    def __post_init__(self):
        if not self.rates:
            raise ValueError("profile needs at least one rate")
        if any(r < -PROB_TOL or r > 1 + PROB_TOL for r in self.rates):
            raise ValueError("rates must lie in [0, 1]")
        if any(b > a + 1e-9 for a, b in zip(self.rates, self.rates[1:])):
            raise ValueError("rates must be nonincreasing in the overlap depth")
        if not 0 < self.floor <= 1:
            raise ValueError("floor must lie in (0, 1]")
        if self.alphabet_size < 2:
            raise ValueError("alphabet size must be >= 2")

    @property
    def horizon(self) -> int:
        return len(self.rates)

    def to_json(self) -> dict:
        return {
            "gamma": [float(r) for r in self.rates],
            "p": float(self.floor),
            "alpha": amplification_factor(self),
            "horizon": self.horizon,
            "amax": self.alphabet_size,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ContinuityProfile":
        return cls(tuple(obj["gamma"]), obj["p"], obj["amax"])


def amplification_factor(profile: ContinuityProfile) -> float:
    """1 / prod(1 - rate) over the horizon; tracks history amplification."""
    prod = 1.0
    for r in profile.rates:
        if r >= 1.0:
            raise BoundInapplicableError("a continuity rate of 1 leaves no contraction")
        prod *= 1.0 - r
    return 1.0 / prod


def estimation_coefficient(profile: ContinuityProfile, k: int) -> float:
    """Prefactor mapping the depth-k continuity rate into the fit-error bound.

    Continuous in the rate: when rate(k) = 0 the limiting value
    ``A / prod(1 - A*rate(j))^2`` is returned.
    """
    if not 1 <= k <= profile.horizon:
        raise ValueError(f"k must lie in [1, {profile.horizon}]")
    a = profile.alphabet_size
    prod = 1.0
    for r in profile.rates:
        scaled = a * r
        if scaled >= 1.0:
            raise BoundInapplicableError(
                "alphabet_size * rate >= 1; the estimation bound does not apply"
            )
        prod *= (1.0 - scaled) ** 2
    rk = profile.rates[k - 1]
    if rk == 0.0:
        return a / prod
    return (1.0 - (1.0 - a * rk) ** k) / (k * rk * prod)


def _conditional_table(source, m: int, pi=None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted codes of the positive-probability length-``m`` contexts and the
    exact next-symbol law after each, one row per code."""
    if isinstance(source, HiddenMarkovSource):
        codes = np.arange(source.alphabet_size ** m)
        belief, log_prob = hmm_forward(source, decode(codes, source.alphabet_size, m))
        live = np.isfinite(log_prob)
        return codes[live], (belief[live] @ source.transition) @ source.emission

    if isinstance(source, MarkovModel):
        a, k = source.alphabet.size, source.order
        if pi is None:
            pi = stationary(source)
        codes, mass = window_law(source, max(m, k), (source.codes, pi), atom_cap=4 ** 12)
        if m >= k:
            codes = codes[mass > 0]
            rows = source.rows_at(codes % a ** k)
        else:  # average the rows of the contexts that end in each length-m suffix
            weighted = mass[:, None] * source.rows_at(codes)
            codes, group = np.unique(codes % a ** m, return_inverse=True)
            rows = np.zeros((len(codes), a))
            np.add.at(rows, group, weighted)
            rows /= np.bincount(group, weights=mass)[:, None]
        return codes, rows

    raise TypeError(f"unsupported source type {type(source).__name__}")


def _suffix_spread(codes: np.ndarray, rows: np.ndarray, a: int, k: int) -> float:
    """Largest gap in any symbol's probability between the rows of two
    contexts that end in the same ``k`` symbols."""
    suffix = codes % a ** k
    order = np.argsort(suffix, kind="stable")
    suffix, rows = suffix[order], rows[order]
    starts = np.flatnonzero(np.concatenate([[True], suffix[1:] != suffix[:-1]]))
    spread = np.maximum.reduceat(rows, starts) - np.minimum.reduceat(rows, starts)
    return float(spread.max())


def estimate_profile(source, k_max: int, m_max: int) -> ContinuityProfile:
    """Profile with exact rates for overlap depths 1..k_max within horizon m_max.

    For each context length m <= m_max the next-symbol laws of all
    positive-probability contexts come as sorted codes plus a row matrix.
    ``rates[k - 1]`` is the largest gap between the laws after two contexts
    of a length in [k, m_max] that share their last k symbols, found by
    grouping rows on ``code % a**k``; ``floor`` is the smallest probability
    in any of those laws.  Rates are truncated at m_max: deeper history
    dependence, if any, is assumed to have decayed to zero beyond it.
    """
    if not 1 <= k_max <= m_max:
        raise ValueError("need 1 <= k_max <= m_max")
    a = _alphabet_size(source)
    if a ** m_max > DEFAULT_ATOM_CAP:
        raise AtomBudgetError(f"{a}**{m_max} contexts exceed cap {DEFAULT_ATOM_CAP}")
    pi = stationary(source) if isinstance(source, MarkovModel) else None
    rates = [0.0] * k_max
    floor = 1.0
    for m in range(1, m_max + 1):
        codes, rows = _conditional_table(source, m, pi)
        floor = min(floor, float(rows.min()))
        for k in range(1, min(m, k_max) + 1):
            rates[k - 1] = max(rates[k - 1], _suffix_spread(codes, rows, a, k))
    if floor <= 0:
        raise BoundInapplicableError("source assigns a zero conditional; no positive floor")
    return ContinuityProfile(tuple(rates), floor, a)


def _alphabet_size(source) -> int:
    if isinstance(source, HiddenMarkovSource):
        return source.alphabet_size
    if isinstance(source, MarkovModel):
        return source.alphabet.size
    raise TypeError(f"unsupported source type {type(source).__name__}")
