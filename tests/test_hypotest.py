import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from markovdetect import hypotest
from markovdetect.corpus import Alphabet, TokenSeq
from markovdetect.errors import (
    DegenerateStatisticWarning,
    MarkovDetectError,
    UnseenContextError,
)
from markovdetect.hypotest import (
    CHAIN_LATTICE_NMAX,
    _guide_table,
    _init_log,
    _llr_stats,
    _log_matrix,
    _mc_stats_fast,
    _table_binary_chain,
    _table_iid,
    _table_sequences,
    bayes_error,
    exact_statistic_table,
    exponent_fit,
    lrt_statistic,
    miss_probability,
    np_threshold,
)
from markovdetect.infometrics import chernoff, kl_rate
from markovdetect.markov import chain_model, fit_empirical, iid_model, sample
from oracles import model_from_dicts, whittle_binary_chain_table


def _aggregate(table):
    """Collapse a (stats, logp, logq) table to {rounded stat: (P, Q)} masses."""
    stats, lp, lq = table
    out = {}
    for s, a, b in zip(stats, lp, lq):
        key = round(float(s), 9)
        pa, pb = out.get(key, (0.0, 0.0))
        out[key] = (pa + math.exp(a), pb + math.exp(b))
    return out


def _tables_agree(t1, t2, tol=1e-10):
    a1, a2 = _aggregate(t1), _aggregate(t2)
    assert set(a1) == set(a2)
    for key in a1:
        assert a1[key][0] == pytest.approx(a2[key][0], abs=tol)
        assert a1[key][1] == pytest.approx(a2[key][1], abs=tol)


def test_chain_table_matches_enumeration(rng):
    """The transition-count law must agree with brute-force enumeration for
    every mix of binary order-0/order-1 models."""
    for trial in range(12):
        models = []
        for _ in range(2):
            if rng.random() < 0.3:
                models.append(iid_model(rng.dirichlet(np.ones(2))))
            else:
                models.append(chain_model(rng.dirichlet(np.ones(2), size=2)))
        p, q = models
        n = int(rng.integers(2, 11))
        _tables_agree(_table_binary_chain(p, q, n), _table_sequences(p, q, n))


def test_chain_table_handles_hard_zeros():
    p = chain_model(np.array([[1 / 3, 2 / 3], [1.0, 0.0]]))
    q = chain_model(np.array([[0.5, 0.5], [0.2, 0.8]]))
    _tables_agree(_table_binary_chain(p, q, 7), _table_sequences(p, q, 7))
    _tables_agree(_table_binary_chain(q, p, 7), _table_sequences(q, p, 7))


def _grouped_log_mass(stats, log_mass):
    """log of the summed mass of each distinct statistic of a sorted table."""
    starts = np.flatnonzero(np.concatenate([[True], stats[1:] != stats[:-1]]))
    top = np.maximum.reduceat(log_mass, starts)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        shifted = np.exp(log_mass - np.repeat(top, np.diff(np.append(starts, len(stats)))))
        return np.log(np.add.reduceat(shifted, starts)) + top


@pytest.mark.parametrize("n", [64, 512])
def test_chain_table_matches_whittle_cofactor(rng, n):
    """Run counts give the classes, statistics and thresholds of the
    cofactor formula, and its grouped log-masses to rounding."""
    for trial in range(6):
        models = []
        for _ in range(2):
            if rng.random() < 0.3:
                models.append(iid_model(rng.dirichlet(np.ones(2))))
            else:
                models.append(chain_model(rng.dirichlet(np.ones(2), size=2)))
        p, q = models
        got, want = _table_binary_chain(p, q, n), whittle_binary_chain_table(p, q, n)
        np.testing.assert_array_equal(got[0], want[0])
        for col in (1, 2):
            g, w = _grouped_log_mass(got[0], got[col]), _grouped_log_mass(want[0], want[col])
            np.testing.assert_array_equal(np.isfinite(g), np.isfinite(w))
            fin = np.isfinite(g)
            # log class sizes are sums of six gammaln values up to
            # gammaln(n + 1), each off by a few ulps in either formula
            np.testing.assert_allclose(g[fin], w[fin], rtol=0,
                                       atol=1e-14 * float(gammaln(n + 1)))
        for eps in (0.1, 0.5):
            assert (hypotest._table_threshold(got[0], got[1], eps)
                    == hypotest._table_threshold(want[0], want[1], eps))


def test_iid_lattice_matches_enumeration(rng):
    for a in (2, 3):
        p = iid_model(rng.dirichlet(np.ones(a)))
        q = iid_model(rng.dirichlet(np.ones(a)))
        n = 7
        _tables_agree(_table_iid(p, q, n), _table_sequences(p, q, n))


def test_table_masses_sum_to_one(fair_vs_biased):
    p, q = fair_vs_biased
    for n in (5, 50, 700):
        stats, lp, lq = exact_statistic_table(p, q, n)
        assert math.exp(max(lp.max(), 0) * 0) == 1.0  # guard against nan
        assert np.exp(lp[np.isfinite(lp)]).sum() == pytest.approx(1.0, abs=1e-9)
        assert np.exp(lq[np.isfinite(lq)]).sum() == pytest.approx(1.0, abs=1e-9)


def test_lrt_statistic_values(fair_vs_biased):
    p, q = fair_vs_biased
    seq = TokenSeq(np.array([0, 1, 0, 0]))
    expect = (4 * math.log(0.5) - (math.log(0.9) * 3 + math.log(0.1))) / 4
    assert lrt_statistic(p, q, seq) == pytest.approx(expect, abs=1e-12)


def test_lrt_statistic_one_sided_support():
    p = iid_model([1.0, 0.0])
    q = iid_model([0.5, 0.5])
    zeros = TokenSeq(np.array([0, 0]))
    ones = TokenSeq(np.array([1, 1]))
    assert lrt_statistic(p, q, zeros) == pytest.approx(math.log(2))
    assert lrt_statistic(q, p, ones) == math.inf
    assert lrt_statistic(p, q, ones) == -math.inf
    with pytest.raises(ValueError):
        lrt_statistic(p, iid_model([1.0, 0.0]), ones)


def test_threshold_respects_false_alarm_budget(fair_vs_biased):
    p, q = fair_vs_biased
    for eps in (0.05, 0.1, 0.3, 0.5):
        for n in (10, 60):
            t = np_threshold(p, q, n, eps)
            stats, lp, _ = exact_statistic_table(p, q, n)
            fa = np.exp(lp[stats < t]).sum()
            assert fa <= eps + 1e-12
            # maximality: the next support value above t would overshoot
            above = stats[stats > t]
            if len(above):
                fa_next = np.exp(lp[stats < above.min()]).sum()
                assert fa_next > eps


def test_threshold_ties_decide_null(fair_vs_biased):
    p, _ = fair_vs_biased
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateStatisticWarning)
        t = np_threshold(p, p, 20, 0.1)
        outcome = miss_probability(p, p, 20, t, epsilon=0.1)
    # statistic is identically zero: everything ties, everything stays null
    assert t == 0.0
    assert outcome.beta_hat == pytest.approx(1.0)


def test_degenerate_statistic_warns(fair_vs_biased):
    p, _ = fair_vs_biased
    with pytest.warns(DegenerateStatisticWarning):
        np_threshold(p, p, 10, 0.2)


def test_exact_outcome_fields(fair_vs_biased):
    p, q = fair_vs_biased
    t = np_threshold(p, q, 100, 0.1)
    out = miss_probability(p, q, 100, t, epsilon=0.1)
    assert out.method == "exact"
    assert out.trials == 0
    assert out.ci_low == out.beta_hat == out.ci_high
    assert out.log_beta == pytest.approx(math.log(out.beta_hat))


def _within_mc_noise(mc_value, exact_value, trials, sigmas=4):
    sigma = math.sqrt(max(exact_value * (1 - exact_value), 1e-12) / trials)
    return abs(mc_value - exact_value) <= sigmas * sigma


def test_mc_agrees_with_exact(fair_vs_biased):
    p, q = fair_vs_biased
    n = 30
    t = np_threshold(p, q, n, 0.1)
    exact = miss_probability(p, q, n, t, epsilon=0.1)
    mc = miss_probability(p, q, n, t, trials=40_000, seed=3, epsilon=0.1, method="mc")
    assert mc.method == "mc"
    assert _within_mc_noise(mc.beta_hat, exact.beta_hat, 40_000)
    assert mc.ci_low <= mc.beta_hat <= mc.ci_high


def test_mc_threshold_near_exact(fair_vs_biased):
    p, q = fair_vs_biased
    n = 40
    exact_t = np_threshold(p, q, n, 0.2)
    mc_t = np_threshold(p, q, n, 0.2, trials=60_000, seed=9, method="mc")
    # statistic support spacing is ~2*ln3/n; MC lands within a couple of steps
    assert abs(mc_t - exact_t) <= 3 * 2 * math.log(3) / n


def test_mc_markov_walk_matches_exact(rng):
    p = chain_model(np.array([[0.7, 0.3], [0.4, 0.6]]))
    q = chain_model(np.array([[0.3, 0.7], [0.6, 0.4]]))
    n = 25
    t = np_threshold(p, q, n, 0.1)
    exact = miss_probability(p, q, n, t, epsilon=0.1)
    mc = miss_probability(p, q, n, t, trials=40_000, seed=17, epsilon=0.1, method="mc")
    assert _within_mc_noise(mc.beta_hat, exact.beta_hat, 40_000)


def test_exact_method_refuses_when_unavailable():
    p = iid_model(np.full(5, 0.2))
    q = iid_model([0.4, 0.3, 0.1, 0.1, 0.1])
    with pytest.raises(MarkovDetectError):
        np_threshold(p, q, 5000, 0.1, method="exact")


def test_invalid_arguments(fair_vs_biased):
    p, q = fair_vs_biased
    with pytest.raises(ValueError):
        np_threshold(p, q, 10, 0.0)
    with pytest.raises(ValueError):
        np_threshold(p, q, 0, 0.1)
    with pytest.raises(ValueError):
        np_threshold(p, q, 10, 0.1, trials=10, method="mc")


# -- Monte Carlo walk -------------------------------------------------------


def _comparison_walk(sample_model, p_model, q_model, n, trials, rng):
    """Reference walk for order >= 1: each symbol is ``#{j : cum[state, j] < u}``
    counted by comparing ``u`` against the whole cumulative row."""
    a = sample_model.alphabet.size
    k = sample_model.order
    ctxs = sample_model.codes.tolist()
    code = {c: i for i, c in enumerate(ctxs)}
    cum = np.cumsum(sample_model.rows, axis=1)
    wp = np.full((len(ctxs), a), np.nan)
    wq = np.full((len(ctxs), a), np.nan)
    for i, c in enumerate(ctxs):
        ip, iq = int(p_model.lookup(c)), int(q_model.lookup(c))
        if ip >= 0 and iq >= 0:
            wp[i] = _log_matrix(p_model.rows[ip])
            wq[i] = _log_matrix(q_model.rows[iq])
    init_atoms = sample_model.init_codes
    init_cum = np.cumsum(sample_model.init_probs)
    atom_lp = _init_log(p_model, init_atoms)
    atom_lq = _init_log(q_model, init_atoms)
    pick = np.searchsorted(init_cum, rng.random(trials) * init_cum[-1])
    pick = np.minimum(pick, len(init_atoms) - 1)
    lp = atom_lp[pick].astype(float)
    lq = atom_lq[pick].astype(float)
    state = np.array([code[c] for c in init_atoms.tolist()], dtype=np.int64)[pick]
    succ = np.full((len(ctxs), a), -1, dtype=np.int64)
    for i, c in enumerate(ctxs):
        for sym in range(a):
            succ[i, sym] = code.get(c % a ** (k - 1) * a + sym, -1)
    for _ in range(n - k):
        u = rng.random(trials)
        nxt_sym = (u[:, None] > cum[state]).sum(axis=1)
        np.minimum(nxt_sym, a - 1, out=nxt_sym)
        step_p = wp[state, nxt_sym]
        step_q = wq[state, nxt_sym]
        assert not (np.isnan(step_p).any() or np.isnan(step_q).any())
        lp = lp + step_p
        lq = lq + step_q
        state = succ[state, nxt_sym]
        assert (state >= 0).all()
    return _llr_stats(lp, lq, n)


class _EdgeRng:
    """Uniforms in which every third draw is the largest double below 1 and
    every third is 0.5, a cumulative sum that ties with ``u``."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        u = self._rng.random(size)
        u[::3] = np.nextafter(1.0, 0.0)
        u[1::3] = 0.5
        return u


def _alphabet(a):
    return Alphabet(tuple(f"s{i}" for i in range(a)))


def _cyclic_fit(rng, a, length, smoothing):
    """Order-1 fit on text holding every symbol that repeats its first token
    at the end, so every context has a row."""
    toks = np.concatenate([np.arange(a), rng.choice(a, size=length)])
    toks = np.concatenate([toks, toks[:1]])
    return fit_empirical(TokenSeq(toks), 1, _alphabet(a), smoothing=smoothing)


def _walk_cases():
    rng = np.random.default_rng(77)
    text = rng.choice(17, size=30_000, p=rng.dirichlet(np.ones(17)))
    smoothed_p = fit_empirical(TokenSeq(text), 2, _alphabet(17), smoothing=0.01)
    smoothed_q = fit_empirical(TokenSeq(text), 2, _alphabet(17), smoothing=0.5)
    sparse_p = _cyclic_fit(rng, 5, 40, 0.0)
    sparse_q = _cyclic_fit(rng, 5, 3000, 0.1)
    binary_p = chain_model(np.array([[0.7, 0.3], [0.4, 0.6]]))
    binary_q = chain_model(np.array([[0.3, 0.7], [0.6, 0.4]]))
    dirichlet = {a: [chain_model(rng.dirichlet(np.full(a, 0.1), size=a)) for _ in range(2)]
                 for a in (3, 40)}
    # rows within the model's 1e-9 tolerance of a distribution, cumulative
    # sums ending below 1, so the edge uniforms overshoot the last column
    short = model_from_dicts(1, _alphabet(3), {
        (0,): np.array([0.2, 0.3, 0.5 - 4e-10]),
        (1,): np.array([0.6, 0.0, 0.4 - 4e-10]),
        (2,): np.array([0.1, 0.0, 0.9 - 4e-10]),
    }, {(0,): 0.5, (2,): 0.5})
    short_q = chain_model(np.array([[0.3, 0.3, 0.4], [0.5, 0.2, 0.3], [0.2, 0.2, 0.6]]))
    return {
        "17-symbol order-2 smoothed": (smoothed_p, smoothed_q, 60, np.random.default_rng),
        "unsmoothed with zeros": (sparse_p, sparse_q, 80, np.random.default_rng),
        "binary order-1": (binary_p, binary_q, 50, np.random.default_rng),
        "a=3 sparse": (*dirichlet[3], 40, np.random.default_rng),
        "a=40 sparse": (*dirichlet[40], 30, np.random.default_rng),
        "rows ending below 1": (short, short_q, 40, _EdgeRng),
    }


@pytest.mark.parametrize("guide_cap", [hypotest.GUIDE_CELL_CAP, 1])
def test_guide_walk_matches_comparison_walk(monkeypatch, guide_cap):
    """The guide-table walk returns bit-identical statistics to the full
    comparison walk from the same uniforms, whatever the guide size."""
    monkeypatch.setattr(hypotest, "GUIDE_CELL_CAP", guide_cap)
    for name, (p, q, n, make_rng) in _walk_cases().items():
        for sample_model in (p, q):
            got = _mc_stats_fast(sample_model, p, q, n, 2000, make_rng(5))
            want = _comparison_walk(sample_model, p, q, n, 2000, make_rng(5))
            assert np.array_equal(got, want), name


def test_guide_table_counts_cell_edges():
    cum = np.cumsum([[0.25, 0.25, 0.5], [0.0, 0.375, 0.625], [0.1, 0.2, 0.7]], axis=1)
    for g in (1, 2, 4, 8):
        edges = np.arange(g) / g
        want = (cum[:, None, :] < edges[None, :, None]).sum(axis=2)
        assert np.array_equal(_guide_table(cum, g), want)


def test_walk_refuses_context_the_alternative_cannot_score():
    p = chain_model(np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]))
    q = model_from_dicts(1, p.alphabet, {(0,): np.array([0.4, 0.4, 0.2]),
                                    (1,): np.array([0.3, 0.3, 0.4])},
                    {(0,): 0.5, (1,): 0.5})
    with pytest.raises(UnseenContextError, match="cannot score"):
        np_threshold(p, q, 50, 0.1, trials=1000, method="mc")


def test_walk_ignores_unsampled_initial_context_without_row():
    rows = {(0,): np.array([0.6, 0.4, 0.0]), (1,): np.array([0.3, 0.7, 0.0])}
    p = model_from_dicts(1, _alphabet(3), rows, {(0,): 0.5, (1,): 0.5, (2,): 1e-12})
    q = model_from_dicts(1, _alphabet(3), rows, {(0,): 0.5, (1,): 0.5})
    stats = _mc_stats_fast(p, p, q, 20, 1000, np.random.default_rng(0))
    assert np.array_equal(stats, np.zeros(1000))


def test_walk_refuses_successor_without_row():
    rows = {(0,): np.array([0.5, 0.5, 0.0]), (1,): np.array([0.0, 0.5, 0.5])}
    p = model_from_dicts(1, _alphabet(3), rows, {(0,): 1.0})
    with pytest.raises(UnseenContextError, match="no row"):
        np_threshold(p, p, 50, 0.1, trials=1000, method="mc")


# -- exponent fits ----------------------------------------------------------


def test_exponent_fit_median_level(fair_vs_biased):
    """At the median false-alarm level the second-order term vanishes and the
    fitted slope sits within 2% of the divergence rate."""
    p, q = fair_vs_biased
    fit = exponent_fit(p, q, 0.5, [50, 100, 200, 400])
    assert fit.method == "exact"
    assert fit.theory == pytest.approx(0.5 * math.log(25 / 9), abs=1e-12)
    assert abs(fit.slope - fit.theory) / fit.theory < 0.02


def test_exponent_fit_small_epsilon_undershoots(fair_vs_biased):
    """At epsilon = 0.1 the threshold sits a O(1/sqrt(n)) term below the
    divergence, so the finite-n fitted slope lands well under the rate --
    around 9% low on this grid.  This gap is the subject of the one
    acceptance criterion this suite fails honestly."""
    p, q = fair_vs_biased
    fit = exponent_fit(p, q, 0.1, [50, 100, 200, 400])
    gap = (fit.theory - fit.slope) / fit.theory
    assert 0.05 < gap < 0.20
    assert fit.slope < fit.theory


def test_exponent_fit_markov_chains(rng):
    rows_p = rng.dirichlet(np.ones(2) * 4, size=2)
    rows_q = rng.dirichlet(np.ones(2) * 4, size=2)
    p, q = chain_model(rows_p), chain_model(rows_q)
    fit = exponent_fit(p, q, 0.5, [200, 400, 600, 800])
    assert abs(fit.slope - fit.theory) / fit.theory < 0.1


def test_exponent_fit_reports_grid(fair_vs_biased):
    p, q = fair_vs_biased
    fit = exponent_fit(p, q, 0.5, [60, 120, 240])
    assert fit.n_grid == (60, 120, 240)
    assert len(fit.neg_log_beta) == 3
    assert len(fit.thresholds) == 3
    assert fit.excluded == ()
    assert all(y > 0 for y in fit.neg_log_beta)


def test_exponent_fit_labels_grid_straddling_chain_lattice():
    """A binary order-1 grid on both sides of the chain lattice's reach mixes
    exact and Monte Carlo points, and its label says so."""
    p = chain_model(np.array([[0.51, 0.49], [0.485, 0.515]]))
    q = chain_model(np.array([[0.5, 0.5], [0.5, 0.5]]))
    grid = [200, CHAIN_LATTICE_NMAX + 1, CHAIN_LATTICE_NMAX + 200]
    fit = exponent_fit(p, q, 0.5, grid, trials=1000)
    assert fit.n_grid == tuple(grid)
    assert fit.method == "mixed"
    assert exponent_fit(p, q, 0.5, [200, 400, 800], trials=1000).method == "exact"
    assert exponent_fit(p, q, 0.5, grid, trials=1000, method="mc").method == "mc"


def test_exponent_fit_needs_three_points(fair_vs_biased):
    p, q = fair_vs_biased
    with pytest.raises(MarkovDetectError):
        exponent_fit(p, q, 0.5, [50, 100])


# -- Bayes error ------------------------------------------------------------


def test_bayes_error_exact_below_chernoff(fair_vs_biased):
    p, q = fair_vs_biased
    info = chernoff(p.row(()), q.row(()))
    for n in (10, 25, 50):
        est = bayes_error(p, q, n, prior=0.5)
        assert est.method == "exact"
        assert est.exponent_bound == pytest.approx(math.exp(-n * info.value))
        assert est.estimate <= est.exponent_bound + 1e-12


def test_bayes_error_mc_matches_exact(fair_vs_biased):
    p, q = fair_vs_biased
    exact = bayes_error(p, q, 20, prior=0.5)
    mc = bayes_error(p, q, 20, prior=0.5, trials=40_000, seed=2, method="mc")
    assert mc.method == "mc"
    assert abs(mc.estimate - exact.estimate) < 4 * mc.stderr + 1e-6


def test_bayes_error_prior_weighting(fair_vs_biased):
    p, q = fair_vs_biased
    lop = bayes_error(p, q, 12, prior=0.05)
    hip = bayes_error(p, q, 12, prior=0.95)
    mid = bayes_error(p, q, 12, prior=0.5)
    # extreme priors make the problem easier than the balanced one
    assert lop.estimate < mid.estimate
    assert hip.estimate < mid.estimate


def test_bayes_error_validates_prior(fair_vs_biased):
    p, q = fair_vs_biased
    with pytest.raises(ValueError):
        bayes_error(p, q, 10, prior=0.0)


def test_bayes_error_rejects_unknown_method(fair_vs_biased):
    p, q = fair_vs_biased
    with pytest.raises(ValueError, match="method"):
        bayes_error(p, q, 10, method="bogus")


def test_whittle_runtime_allows_long_sequences(fair_vs_biased):
    # the count-lattice path keeps exact evaluation cheap well past
    # enumeration range
    p = chain_model(np.array([[0.8, 0.2], [0.3, 0.7]]))
    q = chain_model(np.array([[0.5, 0.5], [0.6, 0.4]]))
    t = np_threshold(p, q, 600, 0.5)
    out = miss_probability(p, q, 600, t, epsilon=0.5)
    assert out.method == "exact"
    assert 0.0 < out.beta_hat < 1.0
