"""Binary hypothesis testing between two sequence models.

The decision statistic is the per-token log-likelihood ratio; thresholds are
calibrated on the null side so the false-alarm mass stays below a requested
level, with ties resolved toward the null (never call text generated on a
tie).

Miss probabilities decay exponentially, which puts them far below anything
plain Monte Carlo can see at realistic lengths.  Three exact engines therefore
replace sampling whenever they apply, all computed in log space:

* full sequence enumeration when ``alphabet ** n`` fits the atom cap;
* the symbol-count lattice for i.i.d. models at any n (the statistic only
  depends on counts, whose law is multinomial);
* the transition-count lattice for binary order-<=1 models, using the
  classical count-matrix formula for the number of sequences realizing a
  given transition tally.

Monte Carlo remains the general path and is vectorized across trials.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp
from scipy.stats import beta as beta_dist

from .errors import (
    DegenerateStatisticWarning,
    MarkovDetectError,
    UninformativeFitError,
    UnseenContextError,
)
from .infometrics import chernoff, kl_rate
from .markov import MarkovModel, log_likelihood, sample, sequence_distribution
from .util import spawn_rng

SEQ_ATOM_CAP = 4096
IID_LATTICE_CAP = 400_000
CHAIN_LATTICE_NMAX = 2048
_TIE_TOL = 1e-15


def lrt_statistic(p_model: MarkovModel, q_model: MarkovModel, seq) -> float:
    """Per-token log-likelihood ratio (null over alternative), in nats.

    ``+inf``/``-inf`` on one-sided support violations; both sides impossible
    is an error since the sequence cannot occur under either model.
    """
    lp = log_likelihood(p_model, seq)
    lq = log_likelihood(q_model, seq)
    if math.isinf(lp) and math.isinf(lq):
        raise ValueError("sequence has probability 0 under both models")
    if math.isinf(lp):
        return -math.inf
    if math.isinf(lq):
        return math.inf
    return (lp - lq) / len(seq)


@dataclass
class TestOutcome:
    """Result of one calibrated miss-probability evaluation."""

    n: int
    epsilon: float | None
    threshold: float
    beta_hat: float
    log_beta: float
    ci_low: float
    ci_high: float
    trials: int
    method: str

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.beta_hat + 1e-12
                and self.beta_hat <= self.ci_high + 1e-12 and self.ci_high <= 1.0 + 1e-12):
            raise ValueError("confidence bounds must bracket the estimate")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.epsilon,
            "threshold": self.threshold,
            "beta_hat": self.beta_hat,
            "log_beta": self.log_beta,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.trials,
            "method": self.method,
        }


@dataclass
class ExponentFit:
    """Least-squares slope of -ln(miss) against n, with the theory value."""

    epsilon: float
    n_grid: tuple[int, ...]
    neg_log_beta: tuple[float, ...]
    thresholds: tuple[float, ...]
    slope: float
    slope_stderr: float
    theory: float
    excluded: tuple[int, ...]
    method: str

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "n_grid": list(self.n_grid),
            "neg_log_beta": list(self.neg_log_beta),
            "thresholds": list(self.thresholds),
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "theory": self.theory,
            "excluded": list(self.excluded),
            "method": self.method,
        }


@dataclass
class BayesErrorEstimate:
    n: int
    prior: float
    estimate: float
    stderr: float
    exponent_bound: float | None
    method: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "prior": self.prior,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "exponent_bound": self.exponent_bound,
            "method": self.method,
        }


# -- exact statistic tables -------------------------------------------------


def _clean_table(stats, lp, lq):
    """Drop impossible classes, order by statistic."""
    stats = np.asarray(stats, dtype=float)
    lp = np.asarray(lp, dtype=float)
    lq = np.asarray(lq, dtype=float)
    keep = ~((lp == -np.inf) & (lq == -np.inf))
    stats, lp, lq = stats[keep], lp[keep], lq[keep]
    order = np.argsort(stats, kind="stable")
    return stats[order], lp[order], lq[order]


def _table_sequences(p_model, q_model, n, cap=SEQ_ATOM_CAP):
    a = p_model.alphabet.size
    vec_p = sequence_distribution(p_model, n, atom_cap=cap)
    vec_q = sequence_distribution(q_model, n, atom_cap=cap)
    with np.errstate(divide="ignore"):
        lp = np.log(vec_p)
        lq = np.log(vec_q)
    stats = np.full(a ** n, np.nan)
    both = np.isfinite(lp) & np.isfinite(lq)
    stats[both] = (lp[both] - lq[both]) / n
    stats[np.isfinite(lp) & ~np.isfinite(lq)] = np.inf
    stats[~np.isfinite(lp) & np.isfinite(lq)] = -np.inf
    return _clean_table(stats, lp, lq)


def _compositions(total: int, parts: int) -> np.ndarray:
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    blocks = []
    for first in range(total + 1):
        rest = _compositions(total - first, parts - 1)
        col = np.full((len(rest), 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def _log_weighted(counts: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """sum_i counts_i * log_probs_i with the 0 * (-inf) = 0 convention."""
    out = np.zeros(len(counts))
    for i, lw in enumerate(log_probs):
        c = counts[:, i]
        if np.isfinite(lw):
            out += c * lw
        else:
            out = np.where(c > 0, -np.inf, out)
    return out


def _table_iid(p_model, q_model, n, cap=IID_LATTICE_CAP):
    a = p_model.alphabet.size
    if math.comb(n + a - 1, a - 1) > cap:
        return None
    counts = _compositions(n, a)
    log_coef = gammaln(n + 1) - gammaln(counts + 1).sum(axis=1)
    with np.errstate(divide="ignore"):
        lp_sym = np.log(p_model.row(()))
        lq_sym = np.log(q_model.row(()))
    lp = log_coef + _log_weighted(counts, lp_sym)
    lq = log_coef + _log_weighted(counts, lq_sym)
    num_p = _log_weighted(counts, lp_sym)
    num_q = _log_weighted(counts, lq_sym)
    stats = np.full(len(counts), np.nan)
    both = np.isfinite(num_p) & np.isfinite(num_q)
    stats[both] = (num_p[both] - num_q[both]) / n
    stats[np.isfinite(num_p) & ~np.isfinite(num_q)] = np.inf
    stats[~np.isfinite(num_p) & np.isfinite(num_q)] = -np.inf
    return _clean_table(stats, lp, lq)


def _lift_binary(model: MarkovModel):
    """(init over symbols, 2x2 rows) view of a binary order-<=1 model."""
    if model.order == 0:
        row = model.row(())
        return row.copy(), np.stack([row, row])
    init = np.array([model.init.get((0,), 0.0), model.init.get((1,), 0.0)])
    rows = np.stack([model.row((0,)), model.row((1,))])
    return init, rows


def _table_binary_chain(p_model, q_model, n):
    """Exact statistic law via transition-count enumeration (binary, order <= 1).

    Sequences sharing (first symbol, last symbol, transition counts) share
    both likelihoods; the class size is the count-matrix formula
    ``prod_a rowsum_a! / prod_ab N_ab! * cofactor`` validated against brute
    force in the tests.
    """
    init_p, rows_p = _lift_binary(p_model)
    init_q, rows_q = _lift_binary(q_model)
    with np.errstate(divide="ignore"):
        li_p, lr_p = np.log(init_p), np.log(rows_p)
        li_q, lr_q = np.log(init_q), np.log(rows_q)
    parts = []
    for x1 in (0, 1):
        for xn in (0, 1):
            d = (1 if x1 == 0 else 0) - (1 if xn == 0 else 0)
            n00, n11 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            n00, n11 = n00.ravel(), n11.ravel()
            rest = n - 1 - n00 - n11
            ok = (rest >= 0) & (((rest + d) % 2) == 0)
            n00, n11, rest = n00[ok], n11[ok], rest[ok]
            n01 = (rest + d) // 2
            n10 = (rest - d) // 2
            ok = (n01 >= 0) & (n10 >= 0)
            n00, n11, n01, n10 = n00[ok], n11[ok], n01[ok], n10[ok]
            r0, r1 = n00 + n01, n10 + n11
            c0, c1 = n00 + n10, n01 + n11
            ok = (r0 - c0 == (x1 == 0) - (xn == 0)) & (r1 - c1 == (x1 == 1) - (xn == 1))
            n00, n11, n01, n10, r0, r1 = (
                n00[ok], n11[ok], n01[ok], n10[ok], r0[ok], r1[ok])
            with np.errstate(divide="ignore", invalid="ignore"):
                m00 = np.where(r0 > 0, 1 - n00 / np.maximum(r0, 1), 1.0)
                m10 = np.where(r1 > 0, -n10 / np.maximum(r1, 1), 0.0)
                m01 = np.where(r0 > 0, -n01 / np.maximum(r0, 1), 0.0)
                m11 = np.where(r1 > 0, 1 - n11 / np.maximum(r1, 1), 1.0)
            minor = np.choose(2 * (1 - xn) + (1 - x1),
                              [m00, m01, m10, m11])
            cof = ((-1) ** (x1 + xn)) * minor
            pos = cof > 1e-14
            n00, n11, n01, n10, r0, r1, cof = (
                n00[pos], n11[pos], n01[pos], n10[pos], r0[pos], r1[pos], cof[pos])
            log_count = (gammaln(r0 + 1) + gammaln(r1 + 1)
                         - gammaln(n00 + 1) - gammaln(n01 + 1)
                         - gammaln(n10 + 1) - gammaln(n11 + 1)
                         + np.log(cof))
            counts = np.stack([n00, n01, n10, n11], axis=1)

            def model_terms(li, lr):
                log_rows = np.array([lr[0, 0], lr[0, 1], lr[1, 0], lr[1, 1]])
                return li[x1] + _log_weighted(counts, log_rows)

            tp = model_terms(li_p, lr_p)
            tq = model_terms(li_q, lr_q)
            stats = np.full(len(tp), np.nan)
            both = np.isfinite(tp) & np.isfinite(tq)
            stats[both] = (tp[both] - tq[both]) / n
            stats[np.isfinite(tp) & ~np.isfinite(tq)] = np.inf
            stats[~np.isfinite(tp) & np.isfinite(tq)] = -np.inf
            parts.append((stats, log_count + tp, log_count + tq))
    stats = np.concatenate([p[0] for p in parts])
    lp = np.concatenate([p[1] for p in parts])
    lq = np.concatenate([p[2] for p in parts])
    return _clean_table(stats, lp, lq)


def exact_statistic_table(p_model: MarkovModel, q_model: MarkovModel, n: int):
    """(sorted stats, log P-mass, log Q-mass) per statistic class, or None."""
    if p_model.alphabet.size != q_model.alphabet.size:
        raise ValueError("models must share an alphabet")
    a = p_model.alphabet.size
    if a ** n <= SEQ_ATOM_CAP:
        return _table_sequences(p_model, q_model, n)
    if p_model.order == 0 and q_model.order == 0:
        table = _table_iid(p_model, q_model, n)
        if table is not None:
            return table
    if a == 2 and p_model.order <= 1 and q_model.order <= 1 and n <= CHAIN_LATTICE_NMAX:
        return _table_binary_chain(p_model, q_model, n)
    return None


def _table_threshold(stats, lp, epsilon):
    uniq, first = np.unique(stats, return_index=True)
    cum = np.concatenate([[-np.inf], np.logaddexp.accumulate(lp)[:-1]])
    below = np.exp(cum[first])
    valid = np.flatnonzero(below <= epsilon + _TIE_TOL)
    if len(uniq) == 1:
        warnings.warn("all statistic classes coincide", DegenerateStatisticWarning)
    return float(uniq[valid[-1]])


def _table_log_beta(stats, lq, threshold):
    mask = stats >= threshold
    if not mask.any():
        return -math.inf
    return float(logsumexp(lq[mask]))


# -- Monte Carlo engine -----------------------------------------------------


def _log_matrix(rows: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(rows)


def _mc_stats_fast(sample_model, p_model, q_model, n, trials, rng):
    """Vectorized statistics for same-order models on a shared alphabet."""
    a = sample_model.alphabet.size
    k = sample_model.order
    if k == 0:
        counts = rng.multinomial(n, sample_model.row(()), size=trials)
        lp = _log_weighted(counts, _log_matrix(p_model.row(())))
        lq = _log_weighted(counts, _log_matrix(q_model.row(())))
        return _stats_from_ll(lp, lq, n)
    ctxs = sorted(sample_model.transitions)
    code = {c: i for i, c in enumerate(ctxs)}
    rows = np.stack([sample_model.transitions[c] for c in ctxs])
    cum = np.cumsum(rows, axis=1)
    wp = np.full((len(ctxs), a), np.nan)
    wq = np.full((len(ctxs), a), np.nan)
    for i, c in enumerate(ctxs):
        if c in p_model.transitions and c in q_model.transitions:
            wp[i] = _log_matrix(p_model.transitions[c])
            wq[i] = _log_matrix(q_model.transitions[c])
    init_items = sorted(sample_model.init.items())
    init_atoms = [c for c, _ in init_items]
    init_cum = np.cumsum([p for _, p in init_items])
    atom_lp = np.array([_init_log(p_model, c) for c in init_atoms])
    atom_lq = np.array([_init_log(q_model, c) for c in init_atoms])
    pick = np.searchsorted(init_cum, rng.random(trials) * init_cum[-1])
    pick = np.minimum(pick, len(init_atoms) - 1)
    lp = atom_lp[pick].astype(float)
    lq = atom_lq[pick].astype(float)
    missing = np.array([c not in code for c in init_atoms])
    if missing.any() and missing[pick].any():
        raise UnseenContextError("sampled initial context has no transition row")
    state = np.array([code[c] for c in init_atoms], dtype=np.int64)[pick]
    succ = np.full((len(ctxs), a), -1, dtype=np.int64)
    for i, c in enumerate(ctxs):
        for sym in range(a):
            nxt = code.get(c[1:] + (sym,))
            succ[i, sym] = -1 if nxt is None else nxt
    for _ in range(n - k):
        u = rng.random(trials)
        nxt_sym = (u[:, None] > cum[state]).sum(axis=1)
        np.minimum(nxt_sym, a - 1, out=nxt_sym)
        step_p = wp[state, nxt_sym]
        step_q = wq[state, nxt_sym]
        if np.isnan(step_p).any() or np.isnan(step_q).any():
            raise UnseenContextError("walk reached a context one model cannot score")
        lp = lp + step_p
        lq = lq + step_q
        state = succ[state, nxt_sym]
        if (state < 0).any():
            raise UnseenContextError("sampling walked into a context with no row")
    return _stats_from_ll(lp, lq, n)


def _init_log(model: MarkovModel, atom) -> float:
    p = model.init.get(atom, 0.0)
    return math.log(p) if p > 0 else -math.inf


def _stats_from_ll(lp, lq, n):
    stats = np.full(len(lp), np.nan)
    both = np.isfinite(lp) & np.isfinite(lq)
    stats[both] = (lp[both] - lq[both]) / n
    stats[np.isfinite(lp) & ~np.isfinite(lq)] = np.inf
    stats[~np.isfinite(lp) & np.isfinite(lq)] = -np.inf
    if np.isnan(stats).any():
        raise ValueError("a sampled sequence is impossible under both models")
    return stats


def _mc_stats(sample_model, p_model, q_model, n, trials, rng, salt):
    same = (sample_model.order == p_model.order == q_model.order)
    if same:
        return _mc_stats_fast(sample_model, p_model, q_model, n, trials, rng)
    out = np.empty(trials)
    for t in range(trials):
        seq = sample(sample_model, n, seed=int(rng.integers(2 ** 62)))
        out[t] = lrt_statistic(p_model, q_model, seq)
    return out


def np_threshold(p_model: MarkovModel, q_model: MarkovModel, n: int, epsilon: float,
                 trials: int = 10_000, seed: int = 0, method: str = "auto",
                 stream: int = 0) -> float:
    """Largest threshold keeping null-side false alarms at or below epsilon.

    Deciding "null" on statistics >= threshold (ties included) then has
    false-alarm probability <= epsilon, exactly on the enumeration paths and
    empirically over the calibration sample otherwise.
    """
    _check_test_args(n, epsilon, trials, method)
    if method != "mc":
        table = exact_statistic_table(p_model, q_model, n)
        if table is not None:
            stats, lp, _ = table
            return _table_threshold(stats, lp, epsilon)
        if method == "exact":
            raise MarkovDetectError("no exact enumeration applies; use method='auto' or 'mc'")
    rng = spawn_rng(seed, 10, stream)
    stats = np.sort(_mc_stats(p_model, p_model, q_model, n, trials, rng, 10))
    if stats[0] == stats[-1]:
        warnings.warn("all calibration statistics coincide", DegenerateStatisticWarning)
    return float(stats[int(epsilon * trials)])


def miss_probability(p_model: MarkovModel, q_model: MarkovModel, n: int,
                     threshold: float, trials: int = 10_000, seed: int = 0,
                     epsilon: float | None = None, method: str = "auto",
                     stream: int = 0) -> TestOutcome:
    """Probability that alternative-model text still looks null at the threshold."""
    _check_test_args(n, epsilon if epsilon is not None else 0.5, trials, method)
    if method != "mc":
        table = exact_statistic_table(p_model, q_model, n)
        if table is not None:
            stats, _, lq = table
            log_beta = _table_log_beta(stats, lq, threshold)
            beta = math.exp(log_beta) if log_beta > -math.inf else 0.0
            return TestOutcome(n, epsilon, threshold, beta, log_beta,
                               beta, beta, 0, "exact")
        if method == "exact":
            raise MarkovDetectError("no exact enumeration applies; use method='auto' or 'mc'")
    rng = spawn_rng(seed, 11, stream)
    stats = _mc_stats(q_model, p_model, q_model, n, trials, rng, 11)
    misses = int((stats >= threshold).sum())
    beta = misses / trials
    lo, hi = _clopper_pearson(misses, trials)
    log_beta = math.log(beta) if misses else -math.inf
    return TestOutcome(n, epsilon, threshold, beta, log_beta, lo, hi, trials, "mc")


def _clopper_pearson(k: int, n: int, conf: float = 0.95):
    alpha = 1.0 - conf
    lo = 0.0 if k == 0 else float(beta_dist.ppf(alpha / 2, k, n - k + 1))
    hi = 1.0 if k == n else float(beta_dist.ppf(1 - alpha / 2, k + 1, n - k))
    return lo, hi


def _check_test_args(n, epsilon, trials, method):
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if method == "mc" and trials < 1000:
        raise ValueError("Monte Carlo calibration needs at least 1000 trials")
    if method not in ("auto", "mc", "exact"):
        raise ValueError("method must be auto, mc or exact")


def exponent_fit(p_model: MarkovModel, q_model: MarkovModel, epsilon: float,
                 n_grid, trials: int = 10_000, seed: int = 0,
                 method: str = "auto") -> ExponentFit:
    """Slope of -ln(miss probability) against n across a grid of lengths.

    Grid points whose miss estimate is exactly zero carry no information and
    are excluded (and reported); at least three informative points remain or
    the fit refuses to run.  ``theory`` is the divergence rate of the pair.
    """
    n_grid = sorted(int(n) for n in n_grid)
    if len(set(n_grid)) != len(n_grid):
        raise ValueError("grid lengths must be distinct")
    used_n, ys, thresholds, excluded = [], [], [], []
    for n in n_grid:
        thr = np_threshold(p_model, q_model, n, epsilon, trials, seed,
                           method=method, stream=n)
        outcome = miss_probability(p_model, q_model, n, thr, trials, seed,
                                   epsilon=epsilon, method=method, stream=n)
        thresholds.append(thr)
        if outcome.log_beta == -math.inf:
            excluded.append(n)
            continue
        used_n.append(n)
        ys.append(-outcome.log_beta)
    if len(used_n) < 3:
        raise UninformativeFitError(
            f"only {len(used_n)} informative grid points; add trials or shrink n"
        )
    xs = np.asarray(used_n, dtype=float)
    yv = np.asarray(ys)
    xbar, ybar = xs.mean(), yv.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (yv - ybar)).sum() / sxx)
    resid = yv - (ybar + slope * (xs - xbar))
    dof = len(xs) - 2
    stderr = float(math.sqrt(max(float((resid ** 2).sum()), 0.0) / dof / sxx)) if dof else math.nan
    outcome_method = "exact" if exact_statistic_table(p_model, q_model, n_grid[0]) is not None \
        and method != "mc" else "mc"
    return ExponentFit(
        epsilon=epsilon,
        n_grid=tuple(used_n),
        neg_log_beta=tuple(float(y) for y in ys),
        thresholds=tuple(float(t) for t in thresholds),
        slope=slope,
        slope_stderr=stderr,
        theory=kl_rate(p_model, q_model),
        excluded=tuple(excluded),
        method=outcome_method,
    )


def bayes_error(p_model: MarkovModel, q_model: MarkovModel, n: int,
                prior: float = 0.5, trials: int = 10_000, seed: int = 0,
                method: str = "auto") -> BayesErrorEstimate:
    """Error of the maximum-posterior rule, ties toward the null model.

    For order-0 pairs the estimate is checked against the Chernoff bound
    ``exp(-n * C)``; exceeding it beyond three standard errors is treated as
    an internal fault.
    """
    if not 0.0 < prior < 1.0:
        raise ValueError("prior must lie strictly between 0 and 1")
    log_pi0, log_pi1 = math.log(prior), math.log(1.0 - prior)
    estimate = stderr = None
    if method != "mc":
        table = exact_statistic_table(p_model, q_model, n)
        if table is not None:
            _, lp, lq = table
            joint = np.minimum(log_pi0 + lp, log_pi1 + lq)
            estimate, stderr, used = float(np.exp(logsumexp(joint))), 0.0, "exact"
        elif method == "exact":
            raise MarkovDetectError("no exact enumeration applies; use method='auto' or 'mc'")
    if estimate is None:
        t_p = max(1, round(prior * trials))
        t_q = max(1, trials - t_p)
        rng_p = spawn_rng(seed, 12, 0)
        rng_q = spawn_rng(seed, 12, 1)
        stats_p = _mc_stats(p_model, p_model, q_model, n, t_p, rng_p, 12)
        stats_q = _mc_stats(q_model, p_model, q_model, n, t_q, rng_q, 13)
        margin = (log_pi1 - log_pi0) / n
        err_p = float((stats_p < margin).mean())      # null text called generated
        err_q = float((stats_q >= margin).mean())     # generated text called null
        estimate = prior * err_p + (1 - prior) * err_q
        stderr = math.sqrt(prior ** 2 * err_p * (1 - err_p) / t_p
                           + (1 - prior) ** 2 * err_q * (1 - err_q) / t_q)
        used = "mc"
    bound = None
    if p_model.order == 0 and q_model.order == 0:
        info = chernoff(p_model.row(()), q_model.row(()))
        if math.isfinite(info.value):
            bound = math.exp(-n * info.value)
            if estimate > bound + 3 * stderr + 1e-12:
                raise MarkovDetectError(
                    f"Bayes error {estimate} exceeds its exponential bound {bound}"
                )
    return BayesErrorEstimate(n, prior, estimate, stderr, bound, used)
