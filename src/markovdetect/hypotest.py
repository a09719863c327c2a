"""Binary hypothesis testing between two sequence models.

The decision statistic is the per-token log-likelihood ratio; thresholds are
calibrated on the null side so the false-alarm mass stays below a requested
level, with ties resolved toward the null (never call text generated on a
tie).

Miss probabilities decay exponentially, which puts them far below anything
plain Monte Carlo can see at realistic lengths.  Three exact engines therefore
replace sampling whenever they apply, all computed in log space:

* full sequence enumeration when ``alphabet ** n`` fits the atom cap;
* the symbol-count lattice for i.i.d. models while its C(n + a - 1, a - 1)
  type classes fit ``IID_LATTICE_CAP`` (the statistic only depends on
  counts, whose law is multinomial);
* the transition-count lattice for binary order-<=1 models.  A binary
  sequence is a string of runs: with first symbol x and s switches it has
  floor(s/2) + 1 runs of x and ceil(s/2) runs of the other symbol o, and
  its n_xx (n_oo) stays are spread over the runs of x (o), so the number of
  sequences with a given first symbol and transition tally is
  C(n_xx + runs_x - 1, runs_x - 1) * C(n_oo + runs_o - 1, runs_o - 1).

Monte Carlo is the general path: one walk, vectorized across trials, for any
pair of orders, whose statistics equal :func:`lrt_statistic` of the sampled
sequences (for all-order-0 pairs, :func:`class_statistic` of their symbol
counts).  It draws by :class:`markovdetect.markov.ChainWalk`, the guide
table (Chen & Asau 1974) search that all samplers share: it returns the same
symbol as a comparison against the whole cumulative row.  A step of the walk
is one ``rng.random(trials)``, a gather of guide cells (most of which hold
their answer, the rest needing one comparison or, rarely, a short scan), a
gather of the next states, kept as guide offsets, and one gather that reads
both models' log-probabilities into a ``(trials, 2)`` sum.  A context without
a row is checked once, when the walk ends.

``_engine``, the one selector, gives each calibration one of two engines:
``"exact"`` reads the table that applies unless the method is ``"mc"``, else
``"mc"`` runs the walk, on at least 1000 trials whichever method chose it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateStatisticWarning,
    MarkovDetectError,
    MethodUnavailableError,
    UninformativeFitError,
    UnseenContextError,
)
from .infometrics import chernoff, kl_rate
from .markov import (ChainWalk, MarkovModel, check_shared_alphabet, log_likelihood, window_law,
                     window_log_likelihood)
from .util import JsonRecord, decode, encode, spawn_rng

SEQ_ATOM_CAP = 4096
IID_LATTICE_CAP = 400_000
CHAIN_LATTICE_NMAX = 2048
_TIE_TOL = 1e-15
# classes per step of the threshold scan
_SCAN_CHUNK = 8192
# calibration engines: an exact table where one applies, Monte Carlo, or exact only
METHODS = ("auto", "mc", "exact")


def lrt_statistic(p_model: MarkovModel, q_model: MarkovModel, seq) -> float:
    """Per-token log-likelihood ratio (null over alternative), in nats.

    ``+inf``/``-inf`` on one-sided support violations; both sides impossible
    is an error since the sequence cannot occur under either model.
    """
    check_shared_alphabet(p_model, q_model)
    lp = log_likelihood(p_model, seq)
    lq = log_likelihood(q_model, seq)
    return float(_checked_stats(np.array([lp]), np.array([lq]), len(seq))[0])


@dataclass
class TestOutcome(JsonRecord):
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


@dataclass
class ExponentFit(JsonRecord):
    """Least-squares slope of -ln(miss) against n, with the theory value.

    ``thresholds`` and ``point_methods`` (``"exact"`` or ``"mc"``, the engine
    that answered) follow the sorted input grid, excluded points included;
    ``n_grid`` and ``neg_log_beta`` hold the informative points only.
    """

    epsilon: float
    n_grid: tuple[int, ...]
    neg_log_beta: tuple[float, ...]
    thresholds: tuple[float, ...]
    slope: float
    slope_stderr: float
    theory: float
    excluded: tuple[int, ...]
    method: str
    point_methods: tuple[str, ...]


@dataclass
class BayesErrorEstimate(JsonRecord):
    n: int
    prior: float
    estimate: float
    stderr: float
    exponent_bound: float | None
    method: str


# -- exact statistic tables -------------------------------------------------


def _llr_stats(lp, lq, n):
    """Per-token statistic (lp - lq) / n: +inf where only lq is -inf, -inf
    where only lp is, and nan where both are."""
    fp, fq = np.isfinite(lp), np.isfinite(lq)
    if fp.all() and fq.all():
        return (lp - lq) / n
    stats = np.full(len(lp), np.nan)
    stats[fp & fq] = (lp[fp & fq] - lq[fp & fq]) / n
    stats[fp & ~fq] = np.inf
    stats[~fp & fq] = -np.inf
    return stats


def _clean_table(stats, lp, lq):
    """Drop impossible classes, order by statistic."""
    stats = np.asarray(stats, dtype=float)
    lp = np.asarray(lp, dtype=float)
    lq = np.asarray(lq, dtype=float)
    impossible = (lp == -np.inf) & (lq == -np.inf)
    if impossible.any():
        keep = ~impossible
        stats, lp, lq = stats[keep], lp[keep], lq[keep]
    order = np.argsort(stats, kind="stable")
    return stats[order], lp[order], lq[order]


def _log_matrix(rows: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(rows)


def _table_sequences(p_model, q_model, n):
    """Every length-``n`` sequence, scored as :func:`lrt_statistic` scores it."""
    a = p_model.alphabet.size
    windows = decode(np.arange(a ** n), a, n)
    lp = window_log_likelihood(p_model, windows)
    lq = window_log_likelihood(q_model, windows)
    return _clean_table(_llr_stats(lp, lq, n), lp, lq)


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way to write ``total`` as ``parts`` ordered counts >= 0, one row
    each, in lexicographic order: the C(total + parts - 1, parts - 1) classes
    of stars and bars.  Columns are filled left to right, each row so far
    repeated once for every value its next count can take, 0 up to what it
    has left; the last count takes the rest."""
    rows = np.empty((1, 0), dtype=np.int64)
    rest = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        reps = rest + 1
        prefix = np.repeat(np.arange(len(rest)), reps)
        first = np.arange(len(prefix)) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([rows[prefix], first])
        rest = rest[prefix] - first
    return np.column_stack([rows, rest])


def _log_weighted(counts: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """sum_i counts_i * log_probs_i with the 0 * (-inf) = 0 convention."""
    counts = np.asarray(counts, dtype=float)
    out, term = np.zeros(len(counts)), np.empty(len(counts))
    for c, lw in zip(counts.T, log_probs):
        if np.isfinite(lw):
            out += np.multiply(c, lw, out=term)
        else:
            out[c > 0] = -np.inf
    return out


def _iid_scores(p_model, q_model, counts):
    """(lp, lq): each row of symbol ``counts`` times each model's log order-0
    row.  The i.i.d. lattice, :func:`class_statistic` and the all-order-0
    walk all score here, so their statistics agree bit for bit."""
    return tuple(_log_weighted(counts, _log_matrix(m.row(()))) for m in (p_model, q_model))


def _table_iid(p_model, q_model, n):
    from scipy.special import gammaln
    lg = gammaln(np.arange(n + 2))  # lg[k] = gammaln(k)
    counts = _compositions(n, p_model.alphabet.size)
    log_coef = lg[n + 1] - lg[counts + 1].sum(axis=1)
    counts = np.asfortranarray(counts, dtype=float)  # contiguous columns for _log_weighted
    num_p, num_q = _iid_scores(p_model, q_model, counts)
    return _clean_table(_llr_stats(num_p, num_q, n), log_coef + num_p, log_coef + num_q)


def _chain_logs(model):
    """Log-masses of the first symbol and log rows, flat in (00, 01, 10, 11)
    order, of a binary model of order <= 1."""
    codes, probs = window_law(model, 1, (model.init_codes, model.init_probs))
    rows = model.rows_at(np.arange(2) % 2 ** model.order)
    return _log_matrix(np.bincount(codes, probs, 2)), _log_matrix(rows).ravel()


def _table_binary_chain(p_model, q_model, n):
    """Exact statistic law via transition-count classes (binary, order <= 1).

    Sequences sharing their first symbol x and their transition counts share
    both likelihoods.  A sequence with s switches has s + 1 runs, alternately
    of x and of the other symbol o: runs_x = floor(s/2) + 1 and
    runs_o = ceil(s/2), which also fixes the counts of x->o and o->x
    switches.  Its stay_x = n_xx and stay_o = n_oo stays are spread over the
    runs of their symbol, any number to a run, so the class holds
    ``C(stay_x + runs_x - 1, runs_x - 1) * C(stay_o + runs_o - 1, runs_o - 1)``
    sequences (1 for the second factor when s = 0 and so stay_o = 0).  The
    classes of both first symbols share one array of (s, stay_x, stay_o).
    """
    from scipy.special import gammaln
    (li_p, lr_p), (li_q, lr_q) = _chain_logs(p_model), _chain_logs(q_model)
    lg = gammaln(np.arange(n + 2))  # lg[k] = gammaln(k)
    # with s switches stay_x runs from low to n - 1 - s: from 0, except that
    # s = 0 leaves no run of o to hold stays, so stay_x = n - 1
    by_s = np.arange(n)
    low = np.where(by_s > 0, 0, n - 1)
    sizes = n - by_s - low
    s = np.repeat(by_s, sizes)
    stay_x = np.arange(len(s)) - np.repeat(np.cumsum(sizes) - sizes - low, sizes)
    stay_o = n - 1 - s - stay_x
    runs_x, runs_o = s // 2 + 1, (s + 1) // 2
    some_o = np.maximum(runs_o, 1)
    log_count = (lg[stay_x + runs_x] - lg[stay_x + 1] - lg[runs_x]
                 + lg[stay_o + some_o] - lg[stay_o + 1] - lg[some_o])
    # (n00, n01, n10, n11) for x = 0, as contiguous float columns; reversed,
    # the same columns serve x = 1
    counts = np.empty((4, len(s)))
    counts[0], counts[1], counts[2], counts[3] = stay_x, runs_o, runs_x - 1, stay_o
    counts = counts.T
    # free the class arrays before the outputs are allocated: it lowers peak memory
    del by_s, low, sizes, s, stay_x, stay_o, runs_x, runs_o, some_o
    size = len(log_count)
    stats, lp, lq = np.empty(2 * size), np.empty(2 * size), np.empty(2 * size)
    for x, by_x in ((0, counts), (1, counts[:, ::-1])):
        tp = li_p[x] + _log_weighted(by_x, lr_p)
        tq = li_q[x] + _log_weighted(by_x, lr_q)
        half = slice(x * size, (x + 1) * size)
        stats[half] = _llr_stats(tp, tq, n)
        np.add(log_count, tp, out=lp[half])
        np.add(log_count, tq, out=lq[half])
    del counts, by_x, log_count, tp, tq
    return _clean_table(stats, lp, lq)


def _table_engine(p_model, q_model, n):
    """The exact table builder that applies at length ``n``, or None."""
    check_shared_alphabet(p_model, q_model)
    a = p_model.alphabet.size
    if a ** n <= SEQ_ATOM_CAP:
        return _table_sequences
    if (p_model.order == 0 and q_model.order == 0
            and math.comb(n + a - 1, a - 1) <= IID_LATTICE_CAP):
        return _table_iid
    if a == 2 and p_model.order <= 1 and q_model.order <= 1 and n <= CHAIN_LATTICE_NMAX:
        return _table_binary_chain
    return None


def exact_statistic_table(p_model: MarkovModel, q_model: MarkovModel, n: int):
    """(sorted stats, log P-mass, log Q-mass) per statistic class, or None."""
    engine = _table_engine(p_model, q_model, n)
    return None if engine is None else engine(p_model, q_model, n)


def class_statistic(p_model: MarkovModel, q_model: MarkovModel, seq,
                    method: str = "auto") -> float | None:
    """Statistic of ``seq`` computed as the calibration at its length computes
    it: by the exact table that applies, else by the Monte Carlo walk; None
    when that walk scores sequences as :func:`lrt_statistic` does.

    The lattice tables and the all-order-0 walk sum counts times log rows,
    where :func:`lrt_statistic` sums per-token logs, so the two can differ in
    the last bits.  Only this value ties with such a threshold exactly, which
    a verdict needs to send ties to the null.  The sequence table and the
    walk for other orders score each sequence as :func:`lrt_statistic` does.
    """
    n = len(seq)
    build = _exact_lookup(_table_engine, p_model, q_model, n, method)
    if build is None and max(p_model.order, q_model.order) > 0:
        return None
    if build is _table_sequences:
        return lrt_statistic(p_model, q_model, seq)
    tokens = seq.tokens
    if build is _table_binary_chain:
        counts = np.bincount(2 * tokens[:-1] + tokens[1:], minlength=4)[None]
        (li_p, lr_p), (li_q, lr_q) = _chain_logs(p_model), _chain_logs(q_model)
        lp = li_p[tokens[0]] + _log_weighted(counts, lr_p)
        lq = li_q[tokens[0]] + _log_weighted(counts, lr_q)
    else:  # the i.i.d. lattice or the all-order-0 walk
        counts = np.bincount(tokens, minlength=p_model.alphabet.size)[None]
        lp, lq = _iid_scores(p_model, q_model, counts)
    return float(_checked_stats(lp, lq, n)[0])


# -- Monte Carlo walk and the calibration engines --------------------------


def _checked_stats(lp, lq, n):
    """:func:`_llr_stats`, refusing a sequence impossible under both models."""
    stats = _llr_stats(lp, lq, n)
    if np.isnan(stats).any():
        raise ValueError("sequence has probability 0 under both models")
    return stats


def _follower(model: MarkovModel, w: np.ndarray, drawn: np.ndarray):
    """``read(sym)``: the log-probability ``w[state * a + sym]`` under
    ``model``, of order above the sample model's, of each next symbol,
    walking its own contexts from the windows ``drawn``."""
    a, k = model.alphabet.size, model.order
    succ = np.vstack([model.lookup(model.successors(model.codes)),
                      np.full(a, -1, dtype=np.int64)]).ravel()
    state = model.lookup(drawn % a ** k)

    def read(sym):
        nonlocal state
        j = state * a + sym
        state = succ[j]
        return w[j]
    return read


def _step_reader(models, sample_model: MarkovModel, drawn: np.ndarray):
    """``(read, gaps)``: ``read(flat)`` is the ``(trials, 2)`` log-probabilities
    under the two ``models`` of each step drawn at ``flat = row * a + symbol``
    of the sample model, NaN (only if ``gaps``) at a context a model has no
    row for.  A model of order at most the sample model's reads the suffix
    ``code % a**k`` of its context from one ``(rows * a + 1, 2)`` table, so
    one gather reads both; its last entry, the walk's sentinel draw, reads 0.
    A higher-order model fills its column by a :func:`_follower`.
    """
    a = sample_model.alphabet.size
    table = np.zeros((sample_model.rows.size + 1, 2))
    followers = []
    for col, model in enumerate(models):
        # index -1, a context with no row, reads the appended row of NaN
        w = np.vstack([_log_matrix(model.rows), np.full(a, np.nan)])
        if model.order > sample_model.order:
            followers.append((col, _follower(model, w.ravel(), drawn)))
        else:
            table[:-1, col] = w[model.lookup(sample_model.codes % a ** model.order)].ravel()
    gaps = bool(followers) or bool(np.isnan(table).any())
    if not followers:
        return (lambda flat: np.take(table, flat, axis=0)), gaps

    def read(flat):
        step, sym = np.take(table, flat, axis=0), flat % a
        for col, follow in followers:
            step[:, col] = follow(sym)
        return step
    return read, gaps


def _mc_stats(sample_model, p_model, q_model, n, trials, rng):
    """Statistics of ``trials`` length-``n`` sequences from ``sample_model``.

    All-order-0 models draw multinomial counts and score them as counts
    times log rows, bit for bit :func:`class_statistic` of a sequence with
    those counts.  Otherwise each statistic is bit for bit
    :func:`lrt_statistic` of its sequence: a :class:`ChainWalk` draws the
    initial k-gram and then each symbol, one ``rng.random(trials)`` per
    step.  The first min(n, K) symbols, K the largest order, are drawn as
    windows and scored by :func:`window_log_likelihood`, each later one by
    one :func:`_step_reader` row of both models, added in sequence order to
    a ``(trials, 2)`` sum; a step without a row keeps a -inf sum and raises
    on a finite one.
    """
    a, k = sample_model.alphabet.size, sample_model.order
    big_k = max(k, p_model.order, q_model.order)
    if big_k == 0:
        counts = rng.multinomial(n, sample_model.row(()), size=trials)
        return _checked_stats(*_iid_scores(p_model, q_model, counts), n)
    walk = ChainWalk.of(sample_model)
    length = min(n, big_k)
    u = np.stack([rng.random(trials) for _ in range(1 + max(length - k, 0))], axis=1)
    drawn = encode(walk.windows(length, u), a)
    codes, which = np.unique(drawn, return_inverse=True)
    windows = decode(codes, a, length)
    acc = np.empty((trials, 2))
    for col, model in enumerate((p_model, q_model)):
        acc[:, col] = window_log_likelihood(model, windows)[which]
    read, gaps = _step_reader((p_model, q_model), sample_model, drawn)
    rows = sample_model.lookup(drawn % a ** k)
    for flat in walk.steps(rows, (rng.random(trials) for _ in range(n - length))):
        step = read(flat)
        if gaps:  # a zero factor that came first decides
            step[np.isneginf(acc)] = 0.0
        acc += step
    # a step scored at a context with no row leaves nan in its trial's sum
    if np.isnan(acc).any():
        raise UnseenContextError("walk reached a context one model cannot score")
    return _checked_stats(acc[:, 0], acc[:, 1], n)


def _exact_lookup(lookup, p_model, q_model, n, method):
    """``lookup(p_model, q_model, n)``, a table or the function that builds it,
    under ``method``: None to sample.  Refuses an unknown method, models over
    different alphabets under every method, and "exact" finding nothing."""
    if method not in METHODS:
        raise ValueError("method must be auto, mc or exact")
    check_shared_alphabet(p_model, q_model)
    found = None if method == "mc" else lookup(p_model, q_model, n)
    if found is None and method == "exact":
        raise MethodUnavailableError("no exact enumeration applies; use method='auto' or 'mc'")
    return found


class _TableEngine:
    """Calibration read off an exact table: (stats, log P-mass, log Q-mass)
    per class, sorted by statistic, so each value's classes form one run."""

    name = "exact"

    def __init__(self, n, epsilon, table):
        self.n, self.epsilon, (self.stats, self.lp, self.lq) = n, epsilon, table

    def threshold(self, epsilon):
        """Largest statistic value whose classes below it carry P-mass <= epsilon.

        The P-mass below each class is summed a chunk at a time, each chunk
        carrying on from the last sum of the one before, so the sums are those
        of one sequential pass.  Sums never decrease, so the scan stops once
        one is too far above log(epsilon) for exp's rounding to bring it back:
        no class after it can pass the test."""
        stats, lp = self.stats, self.lp
        stop = math.log(epsilon + _TIE_TOL) + 1e-9
        parts, carry = [np.array([-np.inf])], lp[:0]
        for start in range(0, len(lp), _SCAN_CHUNK):
            chunk = np.concatenate([carry, lp[start:start + _SCAN_CHUNK]])
            parts.append(np.logaddexp.accumulate(chunk)[len(carry):])
            carry = parts[-1][-1:]
            if carry[0] > stop:
                break
        cum = np.concatenate(parts)[:len(stats)]
        first = np.flatnonzero(np.concatenate([[True], stats[1:len(cum)] != stats[:len(cum) - 1]]))
        valid = np.flatnonzero(np.exp(cum[first]) <= epsilon + _TIE_TOL)
        if stats[0] == stats[-1]:
            warnings.warn("all statistic classes coincide", DegenerateStatisticWarning)
        return float(stats[first[valid[-1]]])

    def miss(self, threshold):
        from scipy.special import logsumexp
        start = np.searchsorted(self.stats, threshold)  # the sorted tail is >= threshold
        log_beta = float(logsumexp(self.lq[start:])) if start < len(self.stats) else -math.inf
        beta = math.exp(log_beta)
        return TestOutcome(self.n, self.epsilon, threshold, beta, log_beta, beta, beta, 0,
                           self.name)

    def bayes(self, prior):
        from scipy.special import logsumexp
        joint = np.minimum(math.log(prior) + self.lp, math.log(1.0 - prior) + self.lq)
        return float(np.exp(logsumexp(joint))), 0.0


class _WalkEngine:
    """Calibration by the Monte Carlo walk, on streams keyed (seed, 10, stream)
    for thresholds, (seed, 11, stream) for misses, (seed, 12, 0 | 1) for Bayes errors."""

    name = "mc"

    def __init__(self, p_model, q_model, n, epsilon, trials, seed, stream):
        if trials < 1000:
            raise ValueError("Monte Carlo calibration needs at least 1000 trials")
        self.n, self.epsilon, self.trials, self.stream = n, epsilon, trials, stream
        self.p_model, self.q_model = p_model, q_model
        self.draw = lambda model, size, *key: _mc_stats(model, p_model, q_model, n, size,
                                                        spawn_rng(seed, *key))

    def threshold(self, epsilon):
        stats = np.sort(self.draw(self.p_model, self.trials, 10, self.stream))
        if stats[0] == stats[-1]:
            warnings.warn("all calibration statistics coincide", DegenerateStatisticWarning)
        return float(stats[int(epsilon * self.trials)])

    def miss(self, threshold):
        misses = int((self.draw(self.q_model, self.trials, 11, self.stream) >= threshold).sum())
        beta = misses / self.trials
        lo, hi = _clopper_pearson(misses, self.trials)
        log_beta = math.log(beta) if misses else -math.inf
        return TestOutcome(self.n, self.epsilon, threshold, beta, log_beta, lo, hi,
                           self.trials, self.name)

    def bayes(self, prior):
        t_p = max(1, round(prior * self.trials))
        t_q = max(1, self.trials - t_p)
        margin = (math.log(1.0 - prior) - math.log(prior)) / self.n
        # null text called generated, generated text called null
        err_p = float((self.draw(self.p_model, t_p, 12, 0) < margin).mean())
        err_q = float((self.draw(self.q_model, t_q, 12, 1) >= margin).mean())
        estimate = prior * err_p + (1 - prior) * err_q
        stderr = math.sqrt(prior ** 2 * err_p * (1 - err_p) / t_p
                           + (1 - prior) ** 2 * err_q * (1 - err_q) / t_q)
        return estimate, stderr


def _engine(p_model, q_model, n, epsilon, trials, seed, method, stream=0):
    """The one engine selector: the table that applies at length ``n`` unless ``method``
    is ``"mc"``, else the walk.  ``epsilon`` (None: none to record) is kept for outcomes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    table = _exact_lookup(exact_statistic_table, p_model, q_model, n, method)
    if table is None:
        return _WalkEngine(p_model, q_model, n, epsilon, trials, seed, stream)
    return _TableEngine(n, epsilon, table)


def np_threshold(p_model: MarkovModel, q_model: MarkovModel, n: int, epsilon: float,
                 trials: int = 10_000, seed: int = 0, method: str = "auto") -> float:
    """Largest threshold keeping null-side false alarms at or below epsilon.

    Deciding "null" on statistics >= threshold (ties included) then has
    false-alarm probability <= epsilon, exactly on the enumeration paths and
    empirically over the calibration sample otherwise.
    """
    return _engine(p_model, q_model, n, epsilon, trials, seed, method).threshold(epsilon)


def miss_probability(p_model: MarkovModel, q_model: MarkovModel, n: int,
                     threshold: float, trials: int = 10_000, seed: int = 0,
                     epsilon: float | None = None, method: str = "auto") -> TestOutcome:
    """Probability that alternative-model text still looks null at the threshold."""
    return _engine(p_model, q_model, n, epsilon, trials, seed, method).miss(threshold)


def _clopper_pearson(k: int, n: int, conf: float = 0.95):
    from scipy.special import betaincinv
    alpha = 1.0 - conf
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


def exponent_fit(p_model: MarkovModel, q_model: MarkovModel, epsilon: float,
                 n_grid, trials: int = 10_000, seed: int = 0,
                 method: str = "auto") -> ExponentFit:
    """Slope of -ln(miss probability) against n across a grid of lengths.

    The grid needs three distinct lengths.  Grid points whose miss estimate
    is exactly zero carry no information and are excluded (and reported); at
    least three informative points remain or the fit refuses to run.
    ``theory`` is the divergence rate of the pair.
    ``point_methods`` names the engine of each grid point, excluded ones
    included; ``method`` is ``"exact"`` when every point was answered by an
    exact table, ``"mc"`` when none was and ``"mixed"`` otherwise.
    """
    n_grid = sorted(int(n) for n in n_grid)
    if len(set(n_grid)) != len(n_grid):
        raise ValueError("grid lengths must be distinct")
    if len(n_grid) < 3:
        raise ValueError("need at least three grid lengths")
    used_n, ys, thresholds, excluded, methods = [], [], [], [], []
    for n in n_grid:
        engine = _engine(p_model, q_model, n, epsilon, trials, seed, method, stream=n)
        thresholds.append(engine.threshold(epsilon))
        outcome = engine.miss(thresholds[-1])
        methods.append(engine.name)
        del engine  # free its table before the next point builds its own
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
    return ExponentFit(
        epsilon=epsilon, n_grid=tuple(used_n), neg_log_beta=tuple(float(y) for y in ys),
        thresholds=tuple(float(t) for t in thresholds), slope=slope, slope_stderr=stderr,
        theory=kl_rate(p_model, q_model), excluded=tuple(excluded),
        method=methods[0] if len(set(methods)) == 1 else "mixed", point_methods=tuple(methods))


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
    engine = _engine(p_model, q_model, n, None, trials, seed, method)
    estimate, stderr = engine.bayes(prior)
    bound = None
    if p_model.order == 0 and q_model.order == 0:
        info = chernoff(p_model.row(()), q_model.row(()))
        if math.isfinite(info.value):
            bound = math.exp(-n * info.value)
            if estimate > bound + 3 * stderr + 1e-12:
                raise MarkovDetectError(
                    f"Bayes error {estimate} exceeds its exponential bound {bound}")
    return BayesErrorEstimate(n, prior, estimate, stderr, bound, engine.name)
