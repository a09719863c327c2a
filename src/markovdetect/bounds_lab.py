"""Numerical bound evaluation and inequality probes on synthetic sources.

Two kinds of object live here and are deliberately kept apart:

* theorem-backed inequalities (the context-tree approximation bound, the
  coupling bound on transport by divergence, reverse Pinsker with a support
  floor, forward Pinsker) — these are pass/fail and failures mean a bug;
* open inequalities (a support-floor-free reverse Pinsker for sequence laws,
  and a squared-bound on the divergence of fitted models) — these are probed,
  and the output is evidence (sup ratios, scatters), never a verdict.

Everything is reproducible bit-for-bit from a seed, and reports carry a hash
of their sampler settings so runs can be told apart after the fact.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Alphabet
from .errors import BoundInapplicableError
from .infometrics import (
    ContinuityProfile,
    estimate_profile,
    estimation_coefficient,
    kl,
)
from .markov import (
    ChainWalk,
    HiddenMarkovSource,
    MarkovModel,
    fit_empirical,
    hmm_forward,
    hmm_sample,
    hmm_sample_windows,
    window_log_likelihood,
)
from .transport import DBAR_ATOM_CAP, dbar_empirical, dbar_value, dbar_values, l1_distance, tv
from .util import JsonRecord, config_hash, seed_state, spawn_draws, spawn_uniforms

_SLACK = 1e-12

SAMPLERS = {"dirichlet-uniform": 1.0, "boundary-biased": 0.1}


def digit_alphabet(size: int) -> Alphabet:
    """Alphabet of decimal digit symbols for purely synthetic sources."""
    if not 2 <= size <= 10:
        raise ValueError("digit alphabets cover sizes 2..10")
    return Alphabet(symbols=tuple(str(i) for i in range(size)))


# -- approximation bound ----------------------------------------------------


@dataclass(frozen=True)
class ApproxBoundInputs:
    """Inputs of the transport bound on fitting a memory-k model.

    ``train_len`` is the sample size the model is fitted on, ``rate_exponent``
    sets the fitted order as round(rate_exponent * ln(train_len)), and
    ``tail_exponent`` in (0, 1/2) trades the two terms of the bound.
    """

    train_len: int
    rate_exponent: float
    tail_exponent: float
    profile: ContinuityProfile

    def __post_init__(self):
        if self.train_len < 2:
            raise ValueError("train_len must be at least 2")
        if self.rate_exponent <= 0:
            raise ValueError("rate_exponent must be positive")
        if not 0.0 < self.tail_exponent < 0.5:
            raise ValueError("tail_exponent must lie in (0, 1/2)")
        limit = self.tail_exponent / abs(math.log(self.profile.floor))
        if not self.rate_exponent < limit:
            raise BoundInapplicableError(
                f"rate_exponent {self.rate_exponent} not below admissible "
                f"limit {limit} for floor {self.profile.floor}"
            )

    @property
    def order(self) -> int:
        return _resolved_order(self.train_len, self.rate_exponent)


def _resolved_order(train_len: int, rate_exponent: float) -> int:
    """The fitted order round(rate_exponent * ln(train_len))."""
    return round(rate_exponent * math.log(train_len))


def approx_bound(inputs: ApproxBoundInputs) -> float:
    """Transport-distance bound for the empirical memory-k approximation.

    Value: ``coef(k)/floor^2 * rate(k) + train_len^-(1/2 - tail_exponent)``
    with k = round(rate_exponent * ln(train_len)).  Holds eventually almost
    surely, so finite-sample violations are recordable, not contradictions.
    """
    k = inputs.order
    prof = inputs.profile
    if k < 1:
        raise BoundInapplicableError(f"resolved order {k} is below 1; grow train_len")
    if k > prof.horizon:
        raise BoundInapplicableError(
            f"resolved order {k} exceeds profile horizon {prof.horizon}"
        )
    rate_k = prof.rates[k - 1]
    first = estimation_coefficient(prof, k) / prof.floor ** 2 * rate_k
    second = inputs.train_len ** -(0.5 - inputs.tail_exponent)
    return first + second


def _close_gaps(model: MarkovModel) -> tuple[MarkovModel, int]:
    """Add uniform rows for reachable contexts the sample never continued.

    An empirical fit leaves the final context of the training sequence (and,
    under smoothing, contexts reachable only through smoothed transitions)
    without an outgoing row, which makes the fitted chain unsamplable.  The
    completion is reported so its size can be checked against train_len.
    """
    a = model.alphabet.size
    seen = frontier = model.init_codes
    missing = []
    while len(frontier):
        index = model.lookup(frontier)
        live = np.ones((len(frontier), a), dtype=bool)  # a missing row becomes uniform
        live[index >= 0] = model.rows[index[index >= 0]] > 0
        missing.append(frontier[index < 0])
        frontier = np.setdiff1d(model.successors(frontier)[live], seen)
        seen = np.union1d(seen, frontier)
    missing = np.concatenate(missing)
    if not len(missing):
        return model, 0
    closed = MarkovModel(
        order=model.order,
        alphabet=model.alphabet,
        codes=np.concatenate([model.codes, missing]),
        rows=np.vstack([model.rows, np.full((len(missing), a), 1.0 / a)]),
        init_codes=model.init_codes,
        init_probs=model.init_probs,
        scheme=model.scheme,
        smoothing=model.smoothing,
    )
    return closed, len(missing)


@dataclass
class ApproxRow(JsonRecord):
    train_len: int
    order: int
    dbar_estimate: float
    ci_low: float
    ci_high: float
    bound: float
    violation: bool
    completed_rows: int


@dataclass
class ApproxExperiment(JsonRecord):
    rows: list[ApproxRow]
    window: int
    n_windows: int
    seed: int
    profile: ContinuityProfile
    config_digest: str

    def to_json(self) -> dict:
        return {**super().to_json(), "profile": self.profile.to_json()}


def approx_experiment(
    source: HiddenMarkovSource,
    m_grid,
    rate_exponent: float,
    tail_exponent: float,
    window: int = 6,
    n_windows: int = 2000,
    bootstrap: int = 50,
    seed: int = 0,
    profile: ContinuityProfile | None = None,
) -> ApproxExperiment:
    """Fitted-model transport error against its bound, across training sizes.

    For each training size: sample a path, fit the resolved-order model,
    close unsampled rows, then estimate the per-letter transport distance
    between source windows and model windows and compare with the bound.
    """
    a = source.emission.shape[1]
    if a ** window > DBAR_ATOM_CAP:
        raise BoundInapplicableError(
            f"window {window} over {a} symbols exceeds the exact-transport cap"
        )
    m_grid = sorted(int(m) for m in m_grid)
    if profile is None:
        k = max(max(_resolved_order(m, rate_exponent) for m in m_grid), 1)
        profile = estimate_profile(source, k_max=k + 1, m_max=k + 2)
    alphabet = digit_alphabet(a)
    rows = []
    for m in m_grid:
        inputs = ApproxBoundInputs(m, rate_exponent, tail_exponent, profile)
        k = inputs.order
        train = hmm_sample(source, m, seed=_mix(seed, 30, m))
        model = fit_empirical(train, k, alphabet)
        model, added = _close_gaps(model)
        src_windows = hmm_sample_windows(source, n_windows, window,
                                         seed=_mix(seed, 31, m))
        model_windows = _model_windows(model, n_windows, window,
                                       seed=_mix(seed, 32, m))
        est = dbar_empirical(src_windows, model_windows, bootstrap=bootstrap,
                             seed=_mix(seed, 33, m))
        bound = approx_bound(inputs)
        rows.append(ApproxRow(
            train_len=m,
            order=k,
            dbar_estimate=est.estimate,
            ci_low=est.ci_low,
            ci_high=est.ci_high,
            bound=bound,
            violation=bool(est.estimate > bound + _SLACK),
            completed_rows=added,
        ))
    digest = config_hash({
        "m_grid": m_grid,
        "rate_exponent": rate_exponent,
        "tail_exponent": tail_exponent,
        "window": window,
        "n_windows": n_windows,
        "bootstrap": bootstrap,
        "seed": seed,
    })
    return ApproxExperiment(rows, window, n_windows, seed, profile, digest)


def _mix(seed: int, tag: int, m):
    """Derived integer seed below 2**31 for helpers that take a plain seed
    argument: the first word of ``SeedSequence([seed, tag, m])``.  ``m`` may
    be an array of one-word keys, which gives an array of seeds."""
    mixed = seed_state(seed, tag, m, words=1)[:, 0] % 2 ** 31
    return mixed if np.ndim(m) else int(mixed[0])


def _model_windows(model: MarkovModel, n_windows: int, width: int, seed: int) -> np.ndarray:
    """Window ``i`` is ``markov.sample(model, width, seed=_mix(seed, 34, i))``."""
    draws = 1 + max(width - model.order, 0)
    us = spawn_uniforms(draws, _mix(seed, 34, np.arange(n_windows)), 0)
    return ChainWalk.of(model).windows(width, us)


# -- theorem-backed inequality checks ---------------------------------------


@dataclass
class InequalityCheck(JsonRecord):
    lhs: float
    rhs: float
    holds: bool
    note: str = ""


def transport_vs_divergence_check(mu, nu, m: int) -> InequalityCheck:
    """Coupling bound: per-letter transport <= sqrt(KL / (2m)), exact for product laws."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    div = kl(mu, nu)
    lhs, _ = dbar_value(mu, nu, m)
    if math.isinf(div):
        return InequalityCheck(lhs, math.inf, True, "divergence infinite; bound vacuous")
    rhs = math.sqrt(div / (2.0 * m))
    return InequalityCheck(lhs, rhs, bool(lhs <= rhs + _SLACK))


def reverse_pinsker_check(p, q, convention: str = "l1") -> dict:
    """KL against squared distance over the smallest q-mass.

    The l1 convention (full sum of absolute differences) is the one the test
    suite asserts; the tv convention (half that) is reported because the
    norm choice is genuinely ambiguous and tv can fail.
    """
    if convention not in ("l1", "tv"):
        raise ValueError("convention must be 'l1' or 'tv'")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    qmin = float(q.min())
    if qmin <= 0.0:
        raise BoundInapplicableError("reverse Pinsker needs a strictly positive q")
    lhs = kl(p, q)
    dist = l1_distance(p, q) if convention == "l1" else tv(p, q)
    rhs = dist ** 2 / qmin
    ratio = 0.0 if rhs == 0.0 else lhs / rhs
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
        "qmin": qmin,
        "convention": convention,
        "holds": bool(lhs <= rhs + _SLACK),
    }


def forward_pinsker_holds(p, q, divergence):
    """Standing sanity gate: KL >= 2 * TV^2 in nats, always; ``divergence`` is kl(p, q).

    Two stacks of laws, one pair per row, give one verdict per row.
    """
    dist = 0.5 * np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum(axis=-1)
    holds = divergence >= 2.0 * dist ** 2 - _SLACK
    return bool(holds) if holds.ndim == 0 else holds


# -- probes of open inequalities --------------------------------------------


@dataclass
class ProbePoint(JsonRecord):
    index: int
    qmin: float
    dbar: float
    divergence: float
    ratio: float


@dataclass
class ProbeReport(JsonRecord):
    """Evidence record for the divergence-vs-squared-transport ratio."""

    alphabet_size: int
    window: int
    sampler: str
    seed: int
    instance_count: int
    excluded: int
    violations: int
    sup_ratio: float
    argmax: dict
    engine: str  # the transport engine that answered every instance
    points: list[ProbePoint] = field(repr=False)
    config_digest: str = ""

    def __post_init__(self):
        if self.sup_ratio < 0:
            raise ValueError("sup ratio cannot be negative")

    def to_json(self) -> dict:
        # the points are flat records of scalars, so they are written without
        # the deep copy ``dataclasses.asdict`` makes of each
        return {**vars(self), "points": [vars(p) for p in self.points]}

    def write(self, json_path: str | Path, csv_path: str | Path) -> None:
        """Write the report, ``json.dumps(self.to_json(), sort_keys=True,
        indent=2) + "\\n"`` byte for byte, and its scatter CSV: a
        ``qmin,dbar,kl,ratio`` header and one line per point.

        Each point column is formatted once, by ``repr`` as ``json`` writes
        a finite number (the probe excludes every pair whose numbers are not
        finite), and both files are filled from those texts, each point of
        ``points`` through one ``%`` template of its sorted keys.  The other
        keys go through ``json.dumps``.
        """
        texts = {name: list(map(kind.__repr__, [getattr(p, name) for p in self.points]))
                 for name, kind in _POINT_COLUMNS}
        points = ",\n    ".join(map(_POINT_TEMPLATE.__mod__, zip(*texts.values())))
        text = json.dumps({**vars(self), "points": []}, sort_keys=True, indent=2)
        if points:
            text = text.replace('\n  "points": []', f'\n  "points": [\n    {points}\n  ]', 1)
        Path(json_path).write_text(text + "\n")
        rows = zip(texts["qmin"], texts["dbar"], texts["divergence"], texts["ratio"])
        Path(csv_path).write_text("\n".join(["qmin,dbar,kl,ratio", *map(",".join, rows)]) + "\n",
                                  encoding="utf-8")


# a probe point's keys in sorted order, each with the type whose ``repr`` writes it
_POINT_COLUMNS = (("dbar", float), ("divergence", float), ("index", int), ("qmin", float),
                  ("ratio", float))
_POINT_TEMPLATE = ("{\n      " + ",\n      ".join(f'"{name}": %s' for name, _ in _POINT_COLUMNS)
                   + "\n    }")


def divergence_transport_probe(
    alphabet_size: int,
    window: int,
    n_instances: int,
    sampler: str = "dirichlet-uniform",
    seed: int = 0,
) -> ProbeReport:
    """Sample law pairs over length-``window`` sequences; record KL / transport^2.

    The question probed: can KL be bounded by a constant times the squared
    per-letter transport distance, uniformly in the pair?  Near-degenerate
    pairs (transport below 1e-9) carry no ratio information and are excluded
    but counted, as are pairs whose divergence is not finite, so every number
    of every point is finite.  The boundary-biased sampler pushes q-mass
    floors toward zero to stress any support dependence of the would-be
    constant.

    Instance i draws its pair from ``spawn_rng(seed, 20, i)`` (see
    :func:`_probe_laws`); the pairs are then stacked and their divergences,
    Pinsker gates and transport values computed for the whole stack at once.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {sorted(SAMPLERS)}")
    if n_instances < 100:
        raise ValueError("at least 100 instances are needed for a meaningful probe")
    n_atoms = alphabet_size ** window
    if n_atoms > DBAR_ATOM_CAP:
        raise BoundInapplicableError("window too long for exact transport")
    mus, nus = _probe_laws(n_atoms, n_instances, SAMPLERS[sampler], seed)
    divs = kl(mus, nus)
    violations = int((~forward_pinsker_holds(mus, nus, divs)).sum())
    values, engine = dbar_values(mus, nus, window, alphabet_size=alphabet_size)
    points: list[ProbePoint] = []
    excluded = 0
    sup_ratio, argmax = 0.0, {}
    # Python floats, so that each ratio is computed as for a single pair
    qmins = nus.min(axis=1).tolist()
    for i, (div, value) in enumerate(zip(divs.tolist(), values.tolist())):
        if value < 1e-9 or not math.isfinite(div):
            excluded += 1
            continue
        ratio = div / value ** 2
        points.append(ProbePoint(i, qmins[i], value, div, ratio))
        if ratio > sup_ratio:
            sup_ratio = ratio
            argmax = {
                "index": i,
                "qmin": qmins[i],
                "dbar": value,
                "kl": div,
                "mu": mus[i].tolist(),
                "nu": nus[i].tolist(),
            }
    digest = config_hash({
        "alphabet_size": alphabet_size,
        "window": window,
        "n_instances": n_instances,
        "sampler": sampler,
        "seed": seed,
    })
    return ProbeReport(
        alphabet_size=alphabet_size,
        window=window,
        sampler=sampler,
        seed=seed,
        instance_count=n_instances,
        excluded=excluded,
        violations=violations,
        sup_ratio=sup_ratio,
        argmax=argmax,
        engine=engine,
        points=points,
        config_digest=digest,
    )


def _probe_laws(n_atoms: int, n_instances: int, alpha: float, seed: int):
    """(mus, nus), two (n_instances, n_atoms) stacks: row i of each is one of
    the two ``dirichlet`` draws, in that order, of ``spawn_rng(seed, 20, i)``.

    Each instance is one ``standard_gamma`` call, normalized as
    ``Generator.dirichlet`` does when max alpha >= 0.1: every gamma times the
    reciprocal of its row's sequential sum, so each law has the bits of its
    ``dirichlet`` draw.
    """
    gammas = np.stack(spawn_draws(lambda rng: rng.standard_gamma(alpha, (2, n_atoms)),
                                  seed, 20, np.arange(n_instances)), axis=1)
    mus, nus = gammas * (1.0 / np.cumsum(gammas, axis=-1)[..., -1:])
    return mus, nus


@dataclass
class FittedDivergenceResult(JsonRecord):
    train_len: int
    order: int
    constant: float
    rhs: float
    d_estimate: float
    window: int
    n_windows: int
    infinite_flag: bool
    consistent: bool
    completed_rows: int


def fitted_divergence_eval(
    source: HiddenMarkovSource,
    train_len: int,
    rate_exponent: float,
    tail_exponent: float,
    constant: float,
    window: int = 12,
    n_windows: int = 2000,
    smoothing: float = 0.0,
    seed: int = 0,
) -> FittedDivergenceResult:
    """Probe: is the fitted model's divergence below constant * bound^2?

    ``d_estimate`` is the mean of ln(source prob) - ln(model prob) over
    length-``window`` source windows — a window-length divergence proxy for
    the intractable full-sequence rate.  A zero-probability window under the
    fitted model makes the proxy infinite; that is flagged, not hidden.
    """
    if constant <= 0:
        raise ValueError("constant must be positive")
    a = source.emission.shape[1]
    k = _resolved_order(train_len, rate_exponent)
    profile = estimate_profile(source, k_max=max(k, 1) + 1, m_max=max(k, 1) + 2)
    inputs = ApproxBoundInputs(train_len, rate_exponent, tail_exponent, profile)
    train = hmm_sample(source, train_len, seed=_mix(seed, 40, train_len))
    model = fit_empirical(train, k, digit_alphabet(a), smoothing=smoothing)
    model, added = _close_gaps(model)
    windows = hmm_sample_windows(source, n_windows, window,
                                 seed=_mix(seed, 41, train_len))
    _, log_source = hmm_forward(source, windows)
    gaps = log_source - window_log_likelihood(model, windows)
    infinite = bool(np.isinf(gaps).any())
    d_estimate = float("inf") if infinite else float(gaps.mean())
    rhs = constant * approx_bound(inputs) ** 2
    return FittedDivergenceResult(
        train_len=train_len,
        order=k,
        constant=constant,
        rhs=rhs,
        d_estimate=d_estimate,
        window=window,
        n_windows=n_windows,
        infinite_flag=infinite,
        consistent=bool(not infinite and d_estimate <= rhs + _SLACK),
        completed_rows=added,
    )
