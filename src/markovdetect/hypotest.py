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

Both lattices read the log-factorials of their counts from one lookup,
:func:`_gammaln_range`, which returns ``scipy.special.gammaln``'s bits at the
integers, so building and reading an exact table loads no scipy.

A threshold is read off a table by a linear-domain screen: plain prefix sums
of the P-masses, a chunk at a time, decide what the reference, the exp of a
sequential log-domain sum (``logaddexp.accumulate``), decides, wherever the
two cannot fall on different sides of epsilon.  Inside a band of relative
half-width 4 N 2^-53 (|ln(epsilon + tol)| + 40) over the N classes, whose
derivation is in :meth:`_TableEngine.threshold`, the log-domain scan runs
instead, so every threshold keeps that scan's bits.

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


def _llr_stats(lp, lq, n, out=None):
    """Per-token statistic (lp - lq) / n: +inf where only lq is -inf, -inf
    where only lp is, and nan where both are; written into ``out`` if given."""
    fp, fq = np.isfinite(lp), np.isfinite(lq)
    stats = np.empty(len(lp)) if out is None else out
    if fp.all() and fq.all():
        np.subtract(lp, lq, out=stats)
        stats /= n
        return stats
    stats[...] = np.nan
    stats[fp & fq] = (lp[fp & fq] - lq[fp & fq]) / n
    stats[fp & ~fq] = np.inf
    stats[~fp & fq] = -np.inf
    return stats


def _clean_table(stats, lp, lq):
    """Drop impossible classes, order by statistic.

    The three arrays, which the caller gives up, are permuted by one stable
    order: each is gathered into the buffer of the one before it, so a
    single new array is made.  An impossible class (both masses -inf) is
    exactly one whose statistic :func:`_llr_stats` made NaN, which the sort
    puts after every other."""
    order = np.argsort(stats, kind="stable")
    kept = len(order) - int(np.count_nonzero(np.isnan(stats)))
    order = order[:kept]
    sorted_stats = stats[order]
    # "clip" writes straight into out, where "raise" would buffer it; no index is out of range
    np.take(lp, order, out=stats[:kept], mode="clip")
    np.take(lq, order, out=lp[:kept], mode="clip")
    return sorted_stats, stats[:kept], lp[:kept]


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


def _compositions(total: int, parts: int, dtype=np.int64) -> np.ndarray:
    """Every way to write ``total`` as ``parts`` ordered counts >= 0, one row
    each, in lexicographic order: the C(total + parts - 1, parts - 1) classes
    of stars and bars, as a C-ordered ``dtype`` array.

    The prefixes of j counts are built level by level, each repeated once
    for every value its next count can take, 0 up to the r it leaves; the
    table's column j repeats each prefix's last count once for each of the
    C(r + m, m) ways to end it, m = parts - j - 1.  The last two columns are
    0..r and r..0 for each prefix of parts - 2 counts, made in ``dtype`` by
    a running sum of ones that drops back to 0 where each prefix starts, so
    no temporary of the table's length is wider than ``dtype``.
    """
    if parts == 1:
        return np.full((1, 1), total, dtype=dtype)
    out = np.empty((math.comb(total + parts - 1, parts - 1), parts), dtype=dtype)
    rest = np.array([total], dtype=np.int64)
    for j in range(parts - 2):
        reps = rest + 1
        first = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rest = np.repeat(rest, reps) - first
        ends = np.ones_like(rest)  # C(rest + m, m) by its product formula
        for i in range(1, parts - j - 1):
            ends = ends * (rest + i) // i
        out[:, j] = np.repeat(first.astype(dtype), ends)
    ramp = np.ones(len(out), dtype=dtype)
    ramp[0] = 0
    ramp[np.cumsum(rest[:-1] + 1)] = -rest[:-1]
    np.cumsum(ramp, out=ramp)
    out[:, -2] = ramp
    np.subtract(np.repeat(rest.astype(dtype), rest + 1), ramp, out=out[:, -1])
    return out


def _log_weighted(columns, log_probs: np.ndarray, out=None) -> np.ndarray:
    """sum_i columns[i] * log_probs[i] with the 0 * (-inf) = 0 convention,
    into ``out`` if given.  Integer counts convert to float exactly inside
    each product, so they need no float copy.

    Each row counts the symbols or transitions of a sequence of length >= 1,
    so it holds a positive count, whose term is nonzero, 0.0 or -inf: the
    sum cannot end at -0.0 (zero counts against negative weights) and needs
    no 0.0 to start from, so the first finite column is multiplied straight
    into ``out``.  A -0.0 weight, whose term at a positive count is -0.0,
    keeps that start.  A row with a count at a -inf weight is -inf whatever
    the finite terms add to, so those rows are set last."""
    out = np.empty(len(columns[0])) if out is None else out
    finite = [(c, lw) for c, lw in zip(columns, log_probs) if np.isfinite(lw)]
    if finite and not any(lw == 0 and np.signbit(lw) for _, lw in finite):
        (c, lw), *finite = finite
        np.multiply(c, lw, out=out, dtype=np.float64)
    else:
        out[...] = 0.0
    term = np.empty(len(out)) if finite else None
    for c, lw in finite:
        out += np.multiply(c, lw, out=term, dtype=np.float64)
    for c, lw in zip(columns, log_probs):
        if not np.isfinite(lw):
            out[c > 0] = -np.inf
    return out


def _iid_scores(p_model, q_model, counts):
    """(lp, lq): each row of symbol ``counts`` times each model's log order-0
    row.  The i.i.d. lattice, :func:`class_statistic` and the all-order-0
    walk all score here, so their statistics agree bit for bit."""
    return tuple(_log_weighted(counts.T, _log_matrix(m.row(()))) for m in (p_model, q_model))


# cephes lgam: log(sqrt(2 pi)), and the Stirling series' coefficients below 1000 and from 1000 on
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
# gammaln(k) below 13: inf, then the log of the product (k - 1)(k - 2)...2, exact in doubles
_LGAM_HEAD = (math.inf, 0.0, 0.0, *(math.log(math.factorial(k - 1)) for k in range(3, 13)))


def _gammaln_range(count: int) -> np.ndarray:
    """``scipy.special.gammaln(np.arange(count))`` bit for bit, for counts up
    to ``IID_LATTICE_CAP + 2`` (the lattices read k <= n + 1): cephes ``lgam``
    at the integers 0 <= k < count.

    k = 0 is +inf and k = 1, 2 are 0.  Below 13 cephes returns the log of the
    product (k - 1)(k - 2)...2, exact in doubles; from 13 on it returns
    (x - 0.5) log x - x + log(sqrt(2 pi)) plus a Stirling series in 1 / x^2
    over x, each step rounded once as in its C, with no fused multiply-add.
    The logs are libm's, through ``math.log``: numpy's SIMD ``log`` differs
    from it at 18 of the first 400,000 integers, and ``math.lgamma`` differs
    from ``gammaln`` at 37,631 of the first 70,000.

    The copy spares the lattices the import of scipy.special, about 20 MB
    and 0.2 s of a fresh process.  Against ``gammaln``, medians of 8
    alternating fresh-process pairs (2-vCPU VM, scipy 1.17.1):
    ``scripts/table_scale.py --n 512`` 0.50 s, 66.4 MB -> 0.26 s, 46.6 MB, and
    ``exponent --method exact`` on the benchmark's chain pair 0.43 s, 66.4 MB
    -> 0.24 s, 46.6 MB.  A call costs more than ``gammaln``'s, mostly in the
    ``math.log`` calls: 71 against 6 us for 514 values, and 48 against 5 ms
    at the i.i.d. lattice's cap, where it takes an exact binary i.i.d.
    threshold and miss at n = 399,999 from 35 to 80 ms in a process that
    already has scipy loaded.
    """
    out = np.empty(count)
    out[:13] = _LGAM_HEAD[:count]
    x = np.arange(13.0, count)
    q = out[13:]
    np.subtract(x, 0.5, out=q)
    q *= np.fromiter(map(math.log, range(13, count)), np.float64, x.size)
    q -= x
    q += _LS2PI
    p = 1.0 / (x * x)
    series = np.empty_like(p)
    for part, coefs in ((slice(0, 1000 - 13), _LGAM_A), (slice(1000 - 13, None), _LGAM_B)):
        terms, at = series[part], p[part]  # Horner's rule, as cephes' polevl
        terms[:] = coefs[0]
        for coef in coefs[1:]:
            terms *= at
            terms += coef
    series /= x
    q += series
    return out


def _table_iid(p_model, q_model, n):
    lg = _gammaln_range(n + 2)  # lg[k] = gammaln(k)
    # the least of int8, int16 and int64 that holds every count + 1
    dtype = next(t for t in (np.int8, np.int16, np.int64) if n < np.iinfo(t).max)
    counts = _compositions(n, p_model.alphabet.size, dtype)
    lp, lq = _iid_scores(p_model, q_model, counts)
    # log n! / prod(c_i!), the row sums taken _SCAN_CHUNK rows at a time: a
    # row's sum reads that row alone, so the blocks give the bits of one sum
    log_coef = np.empty(len(counts))
    for start in range(0, len(counts), _SCAN_CHUNK):
        block = slice(start, start + _SCAN_CHUNK)
        lg[counts[block] + 1].sum(axis=1, out=log_coef[block])
    np.subtract(lg[n + 1], log_coef, out=log_coef)
    del counts  # before the statistics are allocated: it lowers peak memory
    stats = _llr_stats(lp, lq, n)
    lp += log_coef
    lq += log_coef
    del log_coef
    return _clean_table(stats, lp, lq)


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
    classes of both first symbols share one array of (s, stay_x, stay_o),
    held as int16 (n <= CHAIN_LATTICE_NMAX), and each half of the table is
    written straight into the output arrays.
    """
    (li_p, lr_p), (li_q, lr_q) = _chain_logs(p_model), _chain_logs(q_model)
    lg = _gammaln_range(n + 2)  # lg[k] = gammaln(k)
    # with s switches stay_x runs from low to n - 1 - s: from 0, except that
    # s = 0 leaves no run of o to hold stays, so stay_x = n - 1
    by_s = np.arange(n, dtype=np.int16)
    sizes = np.where(by_s > 0, n - by_s.astype(np.int64), 1)
    size = int(sizes.sum())
    # (n00, n01, n10, n11) = (stay_x, runs_o, runs_x - 1, stay_o) for x = 0,
    # as contiguous int16 rows; reversed, the same rows serve x = 1.  stay_x
    # is a cumulative sum of ones that drops back to 0 where each s > 0 starts.
    counts = np.empty((4, size), dtype=np.int16)
    stay_x, runs_o, runs_x1, stay_o = counts
    stay_x[:] = 1
    stay_x[0] = n - 1
    stay_x[np.cumsum(sizes)[:-1]] = by_s[1:] - n
    np.cumsum(stay_x, out=stay_x)
    s = np.repeat(by_s, sizes)
    np.add(s, 1, out=runs_o)
    runs_o >>= 1
    np.right_shift(s, 1, out=runs_x1)
    np.subtract(n - 1, s, out=stay_o)
    stay_o -= stay_x
    del s
    # log of the class count, its six terms taken left to right in one
    # buffer; each index is formed in one intp buffer, since numpy would
    # first cast an int16 index, which makes a gather about three times as slow
    at = np.add(stay_x, runs_x1, dtype=np.intp)
    at += 1
    log_count = lg[at]
    np.add(stay_x, 1, out=at)
    log_count -= lg[at]
    log_count -= np.repeat(lg[by_s // 2 + 1], sizes)  # lg[runs_x]
    np.maximum(runs_o, 1, out=at)  # some_o: the number of runs of o, or 1
    at += stay_o
    log_count += lg[at]
    np.add(stay_o, 1, out=at)
    log_count -= lg[at]
    np.maximum(runs_o, 1, out=at)
    log_count -= lg[at]
    del at
    stats, lp, lq = np.empty(2 * size), np.empty(2 * size), np.empty(2 * size)
    for x, by_x in ((0, counts), (1, counts[::-1])):
        half = slice(x * size, (x + 1) * size)
        for out, li, lr in ((lp[half], li_p[x], lr_p), (lq[half], li_q[x], lr_q)):
            _log_weighted(by_x, lr, out=out)
            out += li
        _llr_stats(lp[half], lq[half], n, out=stats[half])
        lp[half] += log_count
        lq[half] += log_count
    # free the class arrays before the sort: it lowers peak memory
    del counts, stay_x, runs_o, runs_x1, stay_o, by_x, log_count
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
        counts = np.bincount(2 * tokens[:-1] + tokens[1:], minlength=4)[:, None]
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


def _log_scan_threshold(stats, lp, bound):
    """The first statistic of the last run of ``stats`` whose P-mass below,
    as the exp of a log-domain sum, is at most ``bound``.

    The P-mass below each class is summed a chunk at a time into one
    buffer, each chunk carrying on from the last sum of the one before, so
    the sums are those of one sequential pass.  Sums never decrease, so the
    scan stops once one is too far above log(bound) for exp's rounding to
    bring it back: no class after it can pass the test."""
    stop = math.log(bound) + 1e-9
    below = np.empty(len(lp))  # below[i]: log of the P-mass of classes before i
    below[0], scanned = -np.inf, 1
    for start in range(0, len(lp), _SCAN_CHUNK):
        chunk = lp[start:start + _SCAN_CHUNK]
        if start:
            chunk = np.concatenate([below[start:start + 1], chunk])
        sums = np.logaddexp.accumulate(chunk)[1 if start else 0:]
        scanned = min(start + 1 + len(sums), len(lp))
        below[start + 1:scanned] = sums[:scanned - start - 1]
        if sums[-1] > stop:
            break
    # the first class of each statistic value whose P-mass below is <= bound
    passes = np.empty(scanned, dtype=bool)
    passes[0] = True
    np.not_equal(stats[1:scanned], stats[:scanned - 1], out=passes[1:])
    passes &= np.exp(below[:scanned], out=below[:scanned]) <= bound
    return float(stats[scanned - 1 - np.argmax(passes[::-1])])


def _screen_margin(classes, bound):
    """The relative half-width of the band around ``bound`` inside which the
    linear and log-domain sums over ``classes`` classes could disagree."""
    return 4 * classes * 2.0 ** -53 * (abs(math.log(bound)) + 40)


def _screen_threshold(stats, lp, bound):
    """The index of the class :func:`_log_scan_threshold` answers with, from
    linear prefix sums of the P-masses, or None where they cannot tell.

    Masses are exponentiated and summed a chunk at a time into one
    ``_SCAN_CHUNK`` buffer, carrying the sum, until it passes
    ``bound * (1 + margin)`` (the margin and its bound are in
    :meth:`_TableEngine.threshold`).  The answer is the start of the run
    holding ``at``, the last class whose mass below is at most
    ``bound * (1 - margin)``, unless the next run's start has its mass below
    inside the band between the two, where rounding could decide."""
    n = len(lp)
    margin = _screen_margin(n, bound)
    low, high = bound * (1 - margin), bound * (1 + margin)
    if not low >= 2.0 ** -1022:  # the bound needs normal sums
        return None
    sums = np.empty(min(n, _SCAN_CHUNK))
    carry, at, after = 0.0, n - 1, None
    for start in range(0, n, _SCAN_CHUNK):
        block = sums[:min(_SCAN_CHUNK, n - start)]
        np.exp(lp[start:start + _SCAN_CHUNK], out=block)
        block[0] += carry
        np.cumsum(block, out=block)  # block[j]: P-mass of the classes up to start + j
        carry = block[-1]
        if after is None:
            if carry <= low:
                continue
            # the mass below at is <= low, that below at + 1 is not
            at = start + int(np.searchsorted(block, low, side="right"))
            after = int(np.searchsorted(stats, stats[at], side="right"))  # the next run's start
            if after == n:
                break
        if after <= start + len(block):  # block holds the mass below the next run
            if block[after - 1 - start] <= high:
                return None
            break
        if carry > high:
            break
    # the run's first class: -0.0 and 0.0 tie, and the scan answers with the first
    return int(np.searchsorted(stats, stats[at], side="left"))


class _TableEngine:
    """Calibration read off an exact table: (stats, log P-mass, log Q-mass)
    per class, sorted by statistic, so each value's classes form one run."""

    name = "exact"

    def __init__(self, n, epsilon, table):
        self.n, self.epsilon, (self.stats, self.lp, self.lq) = n, epsilon, table

    def threshold(self, epsilon):
        """Largest statistic value whose classes below it carry P-mass <= epsilon.

        The reference is :func:`_log_scan_threshold`: the first class of the
        last run of tied statistics whose P-mass below, summed in log space
        and then exponentiated, is at most T = epsilon + ``_TIE_TOL``.
        :func:`_screen_threshold` picks the same class from plain prefix sums
        of the masses wherever they cannot round to the other side of T, and
        the log-domain scan runs only where they could.

        The bound behind the screen, with u = 2^-53 and 4 ulp (8u relative)
        allowed for each numpy or libm ``exp`` and ``log1p``, over the N
        classes of the table, S the exact P-mass below a class and S <= 1:

        * linear: each ``exp`` is within 8u of its mass, or within 4 * 2^-1074
          where it is subnormal or flushes to 0; a running sum of k
          non-negative terms is within (k - 1)u / (1 - (k - 1)u) of their
          total.  So the prefix sum L is within (8u + 1.01 N u) S + 8 N u T
          of S when T >= 2^-1022.
        * log: a step s' = logaddexp(s, x) = max + log1p(exp(-|s - x|)) is
          off by at most u |s'| (the last add), 5.6u (log1p of a value
          <= ln 2), 4u (exp's 8u of a value e <= 1, scaled by log1p's slope
          1 / (1 + e) to at most 8u e / (1 + e)) and u / e (the
          subtraction), so by at most u (|s'| + 10).
          An absolute error in a log sum is a relative one of the mass it
          stands for, and masses add, so step k leaves an absolute error of
          at most u (|ln S_k| + 10) S_k in every later mass.  As x |ln x|
          rises on (0, 1/e] and never exceeds 1/e, these add up to at most
          N u (max(|ln S|, 1) + 10) S; the final ``exp`` adds 8u.

        Where the test is close, S is within a small factor of T, so
        |ln S| <= |ln T| + 1, and with 8u <= 8 N u the two sums differ by at
        most d = N u (|ln T| + 37) of S.  A margin m >= 2d decides both sides
        of T: L <= T (1 - m) puts the scan's sum at or below T and
        L > T (1 + m) puts it above.  The screen takes m = 4 N u (|ln T| + 40),
        which leaves room for second-order terms: at most 7.6e-8 on the
        chain lattice at n = 2048 (4,192,258 classes) and epsilon = 0.5,
        where the largest relative gap measured above mass 1e-6 is 1.55e-13
        (4.0e-14 at n = 512, 2.6e-14 on the i.i.d. lattice at n = 890)."""
        stats, lp = self.stats, self.lp
        bound = epsilon + _TIE_TOL
        at = _screen_threshold(stats, lp, bound)
        if stats[0] == stats[-1]:
            warnings.warn("all statistic classes coincide", DegenerateStatisticWarning)
        return _log_scan_threshold(stats, lp, bound) if at is None else float(stats[at])

    def log_miss(self, threshold):
        start = np.searchsorted(self.stats, threshold)  # the sorted tail is >= threshold
        return _logsumexp(self.lq[start:]) if start < len(self.stats) else -math.inf

    def miss(self, threshold):
        log_beta = self.log_miss(threshold)
        beta = math.exp(log_beta)
        return TestOutcome(self.n, self.epsilon, threshold, beta, log_beta, beta, beta, 0,
                           self.name)

    def bayes(self, prior):
        """The Bayes error, the sum over classes of min(prior P-mass,
        (1 - prior) Q-mass), built in one buffer, its Q terms a chunk at a
        time, and summed in place."""
        joint = np.add(self.lp, math.log(prior))
        log_q = math.log(1.0 - prior)
        for start in range(0, len(joint), _SCAN_CHUNK):
            block = joint[start:start + _SCAN_CHUNK]
            np.minimum(block, self.lq[start:start + _SCAN_CHUNK] + log_q, out=block)
        return float(np.exp(_logsumexp(joint, overwrite=True))), 0.0


def _logsumexp(a: np.ndarray, overwrite: bool = False) -> float:
    """log(sum(exp(a))) of a non-empty 1-D float array, bit for bit what
    ``scipy.special.logsumexp`` (scipy >= 1.15) returns, with one scratch copy
    of ``a`` where scipy makes about five, or none if ``overwrite`` lets it
    write over ``a``.  As there, the largest entry m and its k ties are split
    out of the sum, which gives log1p(sum(exp(a - m) over the rest) / k) +
    log(k) + m, and a result that is not finite is replaced by
    log(sum(exp(a))).  That happens only if m is infinite or NaN or the result
    overflows, and log(exp(m)) is then that value, so ``a`` is not read again.
    On the Q column of the binary-chain table at n = 2048 (4.2M classes,
    33.5 MB) it peaks at 37.7 MB where scipy 1.17 peaks at 172 MB
    (tracemalloc), with the same bits.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a)
        rest = np.subtract(a, top, out=a if overwrite else None)
        ties = rest == 0  # a == top, as a - top == 0 only there
        np.exp(rest, out=rest)
        rest[ties] = 0.0
        k = np.float64(np.count_nonzero(ties))
        out = np.log1p(rest.sum() / k) + np.log(k) + top
        if not np.isfinite(out):
            out = np.log(np.exp(top))
    return float(out)


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
        """The epsilon-quantile of the calibration sample, the entry a sort
        would put at index int(epsilon * trials), found by selection."""
        stats = self.draw(self.p_model, self.trials, 10, self.stream)
        if stats.min() == stats.max():
            warnings.warn("all calibration statistics coincide", DegenerateStatisticWarning)
        k = int(epsilon * self.trials)
        stats.partition(k)
        return float(stats[k])

    def _misses(self, threshold):
        return int((self.draw(self.q_model, self.trials, 11, self.stream) >= threshold).sum())

    def log_miss(self, threshold):
        """The log of the miss frequency, without the interval (and the scipy
        import) of :meth:`miss`."""
        misses = self._misses(threshold)
        return math.log(misses / self.trials) if misses else -math.inf

    def miss(self, threshold):
        misses = self._misses(threshold)
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
        log_beta = engine.log_miss(thresholds[-1])
        methods.append(engine.name)
        del engine  # free its table before the next point builds its own
        if log_beta == -math.inf:
            excluded.append(n)
            continue
        used_n.append(n)
        ys.append(-log_beta)
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
