import math
import platform
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.special import gammaln

from markovdetect import hypotest, markov
from markovdetect.corpus import Alphabet, TokenSeq
from markovdetect.errors import (
    DataContractError,
    DegenerateStatisticWarning,
    MarkovDetectError,
    UnseenContextError,
)
from markovdetect.hypotest import (
    _SCAN_CHUNK,
    CHAIN_LATTICE_NMAX,
    IID_LATTICE_CAP,
    _TableEngine,
    _clopper_pearson,
    _compositions,
    _gammaln_range,
    _llr_stats,
    _log_matrix,
    _logsumexp,
    _mc_stats,
    _table_binary_chain,
    _table_iid,
    _table_sequences,
    bayes_error,
    class_statistic,
    exact_statistic_table,
    exponent_fit,
    lrt_statistic,
    miss_probability,
    np_threshold,
)
from markovdetect.infometrics import chernoff, kl_rate
from markovdetect.markov import (MarkovModel, _guide_table, chain_model, fit_empirical,
                                 iid_model, sample)
from markovdetect.util import decode, encode, spawn_rng
from oracles import (dp_binary_chain_law, dp_binary_chain_test, full_scan_threshold,
                     loop_log_likelihood, model_from_dicts, onepass_table_binary_chain,
                     onepass_table_iid, recursive_compositions, whittle_binary_chain_table)


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
            assert (_TableEngine(n, eps, got).threshold(eps)
                    == _TableEngine(n, eps, want).threshold(eps))


def _grouped_masses(stats, log_mass, tie=1e-12):
    """Masses of a sorted table's statistics, grouped as the DP oracle groups them."""
    groups = np.concatenate([[0], np.cumsum(np.diff(stats) > tie)])
    return np.bincount(groups, np.exp(log_mass))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_chain_table_matches_class_count_dp(n):
    """The binary-chain lattice against a Python-int DP over (first, last,
    n00, n01, n10, n11) classes, on the chain pair that the benchmark's toy
    exponent-exact workload runs (epsilon 0.5): the same grouped law, the
    same threshold and the same miss probability."""
    p = chain_model([[0.7, 0.3], [0.4, 0.6]])
    q = chain_model([[0.5, 0.5], [0.5, 0.5]])
    stats, lp, lq = table = _table_binary_chain(p, q, n)
    law = np.array(dp_binary_chain_law(p, q, n))
    np.testing.assert_allclose(_grouped_masses(stats, lp), law[:, 1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(_grouped_masses(stats, lq), law[:, 2], rtol=1e-12, atol=0)
    threshold, log_beta = dp_binary_chain_test(p, q, n, 0.5)
    engine = _TableEngine(n, 0.5, table)
    got = engine.threshold(0.5)
    assert got == pytest.approx(threshold, rel=0, abs=1e-12)
    assert engine.miss(got).log_beta == pytest.approx(log_beta, rel=1e-12)


def test_chain_exponent_slope_matches_class_count_dp():
    """The exact slope over n = 16, 32, 64 is 0.06655490268684..., from the
    lattice and from the DP oracle alike.  The benchmark's toy pin for this
    fit, 0.06710288434521273, matches neither, so that pin is stale."""
    p = chain_model([[0.7, 0.3], [0.4, 0.6]])
    q = chain_model([[0.5, 0.5], [0.5, 0.5]])
    grid = np.array([16.0, 32.0, 64.0])
    ys = np.array([-dp_binary_chain_test(p, q, int(n), 0.5)[1] for n in grid])
    centred = grid - grid.mean()
    want = float((centred * (ys - ys.mean())).sum() / (centred ** 2).sum())
    fit = exponent_fit(p, q, 0.5, grid.astype(int).tolist(), method="exact")
    assert fit.point_methods == ("exact",) * 3
    assert fit.slope == pytest.approx(want, rel=1e-12)
    assert fit.slope == pytest.approx(0.06655490268684, abs=1e-13)
    assert abs(fit.slope - 0.06710288434521273) > 5e-4

def test_iid_lattice_matches_enumeration(rng):
    for a in (2, 3):
        p = iid_model(rng.dirichlet(np.ones(a)))
        q = iid_model(rng.dirichlet(np.ones(a)))
        n = 7
        _tables_agree(_table_iid(p, q, n), _table_sequences(p, q, n))


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_compositions_match_recursive_reference(parts):
    """Same rows in the same order as the recursion: the tables' stable sort
    then sees the same input, bit for bit."""
    for total in range(9):
        got = _compositions(total, parts)
        assert got.dtype == np.int64
        assert len(got) == math.comb(total + parts - 1, parts - 1)
        assert np.array_equal(got, recursive_compositions(total, parts))


@pytest.mark.parametrize("parts, totals", [(2, 127), (5, 16), (9, 8)])
def test_compositions_in_narrow_dtypes_match_recursive_reference(parts, totals):
    for total in range(totals):
        want = recursive_compositions(total, parts)
        for dtype in (np.int8, np.int16):
            got = _compositions(total, parts, dtype)
            assert got.dtype == dtype and got.flags.c_contiguous
            assert np.array_equal(got, want)


@pytest.mark.parametrize("a, n, classes", [(3, 892, 399_171), (4, 132, 400_995)])
def test_iid_table_builds_at_the_lattice_cap(a, n, classes):
    """Lattices at IID_LATTICE_CAP: the largest the engine takes for three
    symbols, and for four the first one past the cap, built directly."""
    p = iid_model(np.arange(1, a + 1) / (a * (a + 1) / 2))
    q = iid_model(np.full(a, 1 / a))
    assert hypotest._table_engine(p, q, n) is (_table_iid if classes <= IID_LATTICE_CAP else None)
    stats, lp, lq = _table_iid(p, q, n)
    assert len(stats) == classes
    assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-9)
    assert np.exp(lq).sum() == pytest.approx(1.0, abs=1e-9)


# -- the tables and the threshold scan against their one-pass versions -------


def _dirichlet_pair(rng, orders):
    return tuple(iid_model(rng.dirichlet(np.ones(2))) if k == 0
                 else chain_model(rng.dirichlet(np.ones(2), size=2)) for k in orders)


# (builder, one-pass reference, pair maker, lengths): Dirichlet(1) pairs, and
# pairs with zero masses, which give one-sided +-inf statistics and classes
# impossible under both models
ONE_PASS_CASES = {
    "binary order 0": (_table_binary_chain, onepass_table_binary_chain,
                       lambda rng: _dirichlet_pair(rng, (0, 0)), (1, 2, 3, 9, 64, 512)),
    "binary order 1": (_table_binary_chain, onepass_table_binary_chain,
                       lambda rng: _dirichlet_pair(rng, (1, 1)), (1, 2, 3, 9, 64, 511, 512)),
    "binary orders 0 and 1": (_table_binary_chain, onepass_table_binary_chain,
                              lambda rng: _dirichlet_pair(rng, (0, 1)), (2, 13, 512)),
    "binary zero masses": (
        _table_binary_chain, onepass_table_binary_chain,
        lambda rng: (chain_model([[1 / 3, 2 / 3], [1.0, 0.0]]),
                     chain_model([[1.0, 0.0], [0.2, 0.8]])), (1, 2, 3, 9, 64, 512)),
    "binary order 0 zero mass": (
        _table_binary_chain, onepass_table_binary_chain,
        lambda rng: (iid_model([1.0, 0.0]), chain_model([[0.5, 0.5], [0.9, 0.1]])),
        (2, 9, 512)),
    "3 symbols": (_table_iid, onepass_table_iid,
                  lambda rng: (iid_model(rng.dirichlet(np.ones(3))),
                               iid_model(rng.dirichlet(np.ones(3)))), (1, 2, 10, 100, 512)),
    "3 symbols zero masses": (
        _table_iid, onepass_table_iid,
        lambda rng: (iid_model([0.6, 0.4, 0.0]), iid_model([0.0, 0.5, 0.5])), (1, 2, 10, 512)),
    "4 symbols": (_table_iid, onepass_table_iid,
                  lambda rng: (iid_model(rng.dirichlet(np.ones(4))),
                               iid_model(rng.dirichlet(np.ones(4)))), (1, 2, 10, 60, 128)),
    "4 symbols zero masses": (
        _table_iid, onepass_table_iid,
        lambda rng: (iid_model([0.5, 0.2, 0.3, 0.0]), iid_model([0.25, 0.0, 0.25, 0.5])),
        (1, 2, 10, 128)),
    # the largest chain length, whose counts still fit the builder's int16 classes
    "binary order 1 at the length cap": (_table_binary_chain, onepass_table_binary_chain,
                                         lambda rng: _dirichlet_pair(rng, (1, 1)),
                                         (CHAIN_LATTICE_NMAX,)),
    # wide enough that numpy's pairwise sum groups a row's log-factorials
    "9 symbols": (_table_iid, onepass_table_iid,
                  lambda rng: (iid_model(rng.dirichlet(np.ones(9))),
                               iid_model(rng.dirichlet(np.ones(9)))), (1, 2, 9, 12)),
}


def _threshold_and_warning(scan):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = scan()
    return value, [w.category for w in caught]


@pytest.mark.parametrize("case", list(ONE_PASS_CASES))
def test_tables_and_calibrations_match_the_one_pass_versions(rng, case):
    """The same bytes of (stats, log P, log Q), and the same threshold, miss
    and Bayes results, as the builders and the full threshold scan that
    touch each class array once per step."""
    build, reference, pair, lengths = ONE_PASS_CASES[case]
    for trial in range(2):
        p, q = pair(rng)
        for n in lengths:
            got, want = build(p, q, n), reference(p, q, n)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (case, n)
            for eps in (0.01, 0.1, 0.5, 0.9):
                engine, frozen = _TableEngine(n, eps, got), _TableEngine(n, eps, want)
                threshold = _threshold_and_warning(lambda: engine.threshold(eps))
                assert threshold == _threshold_and_warning(
                    lambda: full_scan_threshold(want[0], want[1], eps)), (case, n, eps)
                assert engine.miss(threshold[0]) == frozen.miss(threshold[0])
            engine, frozen = _TableEngine(n, None, got), _TableEngine(n, None, want)
            for prior in (0.2, 0.5):
                assert engine.bayes(prior) == frozen.bayes(prior)


def test_one_pass_battery_reaches_infinities_and_dropped_classes(rng):
    """The battery above meets one-sided +-inf statistics and classes
    impossible under both models."""
    seen = set()
    for build, reference, pair, lengths in ONE_PASS_CASES.values():
        p, q = pair(rng)
        n = lengths[-1]
        stats = reference(p, q, n)[0]
        full = len(_compositions(n, p.alphabet.size)) if build is _table_iid else n * n - n + 2
        seen |= ({"+inf"} if np.isposinf(stats).any() else set()) | (
            {"-inf"} if np.isneginf(stats).any() else set()) | (
            {"dropped"} if len(stats) < full else set())
    assert seen == {"+inf", "-inf", "dropped"}


def _long_table(rng, classes=3 * _SCAN_CHUNK + 5, runs=1000):
    """A sorted table longer than three scan chunks, with runs of tied
    statistics and Dirichlet(1) masses."""
    stats = np.sort(rng.integers(0, runs, classes)).astype(float)
    return stats, np.log(rng.dirichlet(np.ones(classes))), np.log(rng.dirichlet(np.ones(classes)))


class _CountingLogaddexp:
    """``np.logaddexp`` that counts the values its ``accumulate`` reads."""

    def __init__(self):
        self.ufunc, self.read = np.logaddexp, 0

    def accumulate(self, values):
        self.read += len(values)
        return self.ufunc.accumulate(values)


@pytest.fixture
def logaddexp_reads(monkeypatch):
    counter = _CountingLogaddexp()
    monkeypatch.setattr(hypotest.np, "logaddexp", counter)
    return counter


class _CountingCumsum:
    """``np.cumsum`` that counts the values it reads."""

    def __init__(self):
        self.func, self.read = np.cumsum, 0

    def __call__(self, values, *args, **kwargs):
        self.read += len(values)
        return self.func(values, *args, **kwargs)


@pytest.fixture
def cumsum_reads(monkeypatch):
    counter = _CountingCumsum()
    monkeypatch.setattr(hypotest.np, "cumsum", counter)
    return counter


@pytest.fixture
def log_scans(monkeypatch):
    """The calls of the log-domain threshold scan, the screen's fallback."""
    calls = []
    scan = hypotest._log_scan_threshold

    def counted(*args):
        calls.append(args[-1])
        return scan(*args)
    monkeypatch.setattr(hypotest, "_log_scan_threshold", counted)
    return calls


def _scan_both(table, eps):
    got = _TableEngine(len(table[0]), eps, table).threshold(eps)
    assert got == full_scan_threshold(table[0], table[1], eps)
    return got


def test_threshold_scan_stops_at_a_run_whose_mass_below_is_epsilon(rng, logaddexp_reads):
    """epsilon equal to the P-mass below a run early in the second chunk,
    inside the screen's band: that run is the answer, as in the full scan,
    and the log-domain scan stops after that chunk."""
    stats, lp, lq = table = _long_table(rng)
    below = np.concatenate([[-np.inf], logaddexp_reads.ufunc.accumulate(lp)[:-1]])
    start = int(np.flatnonzero(stats[_SCAN_CHUNK + 1:] != stats[_SCAN_CHUNK:-1])[0]) + _SCAN_CHUNK + 1
    assert start < 2 * _SCAN_CHUNK - 100
    eps = float(np.exp(below[start]))
    assert _TableEngine(len(stats), eps, table).threshold(eps) == stats[start]
    assert logaddexp_reads.read == 2 * _SCAN_CHUNK + 1  # two chunks and one carried sum
    assert full_scan_threshold(stats, lp, eps) == stats[start]


def test_threshold_scan_below_the_first_class_mass(rng):
    stats, lp, lq = table = _long_table(rng)
    assert _scan_both(table, float(np.exp(lp[0])) / 2) == stats[0]


def test_threshold_scan_runs_to_the_last_class(rng, logaddexp_reads, cumsum_reads):
    """With half the P-mass on the last class, epsilon above the rest makes
    the screen read every chunk and answer the last statistic, with no
    log-domain scan."""
    stats, lp, lq = _long_table(rng)
    stats[-1] = stats[-2] + 1.0
    lp = np.log(np.append(np.exp(lp[:-1]) / np.exp(lp[:-1]).sum() / 2, 0.5))
    assert _TableEngine(len(stats), 0.6, (stats, lp, lq)).threshold(0.6) == stats[-1]
    assert cumsum_reads.read == len(stats)  # four chunks, each carried sum added in place
    assert logaddexp_reads.read == 0
    assert full_scan_threshold(stats, lp, 0.6) == stats[-1]


def test_threshold_scan_across_chunk_boundaries(rng):
    for classes in (1, 2, _SCAN_CHUNK - 1, _SCAN_CHUNK, _SCAN_CHUNK + 1, 2 * _SCAN_CHUNK + 3):
        table = _long_table(rng, classes, runs=max(2, classes // 4))
        for eps in (0.01, 0.1, 0.5, 0.9, 0.999):
            _threshold_and_warning(lambda: _scan_both(table, eps))


def test_threshold_scan_of_coincident_statistics_warns_once(rng):
    stats, lp, lq = _long_table(rng, runs=1)
    got = _threshold_and_warning(lambda: _TableEngine(len(stats), 0.3, (stats, lp, lq)).threshold(0.3))
    assert got == (stats[0], [DegenerateStatisticWarning])
    assert got == _threshold_and_warning(lambda: full_scan_threshold(stats, lp, 0.3))


def _run_start_table(rng, classes, start):
    """A long table with a run of tied statistics starting at ``start`` and
    the mass the full scan finds below it, as that scan computes it."""
    stats, lp, lq = _long_table(rng, classes, runs=max(2, classes // 4))
    stats[start:] += 0.5  # no run straddles start
    below = np.exp(np.logaddexp.accumulate(lp)[start - 1])
    return (stats, lp, lq), float(below)


def _screen_offsets(mass, classes):
    """epsilon at ``mass``, one ulp and half a screen margin either side, and
    two margins either side, each as (label, epsilon, inside the band)."""
    margin = hypotest._screen_margin(classes, mass)
    return [("at", mass, True), ("ulp up", np.nextafter(mass, 1.0), True),
            ("ulp down", np.nextafter(mass, 0.0), True),
            ("half margin up", mass * (1 + margin / 2), True),
            ("half margin down", mass * (1 - margin / 2), True),
            ("two margins up", mass * (1 + 2 * margin), False),
            ("two margins down", mass * (1 - 2 * margin), False)]


@pytest.mark.parametrize("start", [_SCAN_CHUNK - 1, _SCAN_CHUNK, _SCAN_CHUNK + 1])
def test_threshold_screen_at_the_mass_below_a_run_start(rng, log_scans, start):
    """epsilon at the P-mass below a run that starts across a chunk
    boundary, within an ulp or half a margin of it, falls in the screen's
    band and takes the log-domain scan; two margins off, the screen decides
    alone.  Each answer and warning is the full scan's."""
    table, mass = _run_start_table(rng, 2 * _SCAN_CHUNK + 3, start)
    stats, lp, _ = table
    answers = set()
    for label, eps, inside in _screen_offsets(mass - hypotest._TIE_TOL, len(stats)):
        log_scans.clear()
        got = _threshold_and_warning(lambda: _TableEngine(len(stats), eps, table).threshold(eps))
        assert got == _threshold_and_warning(lambda: full_scan_threshold(stats, lp, eps)), label
        assert len(log_scans) == inside, label
        answers.add(got[0])
    assert answers == {stats[start - 1], stats[start]}  # both sides of the run are answered


def test_threshold_screen_on_a_one_class_table(log_scans):
    stats, lp = np.array([0.25]), np.array([-1e-17])
    for eps in (1e-12, 0.5, np.nextafter(1.0, 0.0)):
        got = _threshold_and_warning(lambda: _TableEngine(1, eps, (stats, lp, lp)).threshold(eps))
        assert got == (0.25, [DegenerateStatisticWarning])
        assert got == _threshold_and_warning(lambda: full_scan_threshold(stats, lp, eps))
    assert log_scans == []


def test_threshold_screen_as_epsilon_nears_one(rng, log_scans):
    """epsilon a few ulp below 1 on a table with every mass tiny near the
    top: the answer is the full scan's, whichever path gives it."""
    stats, lp, lq = table = _long_table(rng, 2 * _SCAN_CHUNK + 3)
    for eps in (0.999, 1 - 1e-9, 1 - 1e-12, np.nextafter(1.0, 0.0)):
        got = _threshold_and_warning(lambda: _TableEngine(len(stats), eps, table).threshold(eps))
        assert got == _threshold_and_warning(lambda: full_scan_threshold(stats, lp, eps)), eps


def test_threshold_screen_where_masses_underflow(rng, log_scans, monkeypatch):
    """Classes whose masses underflow to 0 or subnormals in the linear sums,
    at epsilon down to a subnormal, answer as the full scan does; a bound
    below the normal range (with no tie tolerance) takes the log scan."""
    stats, lp, lq = _long_table(rng, _SCAN_CHUNK + 7, runs=50)
    lp[:3000] = rng.uniform(-760, -700, 3000)  # exp underflows or goes subnormal
    lp[3000:] -= np.logaddexp.reduce(lp[3000:])  # the rest carries all the mass
    table = (stats, lp, lq)
    for eps in (5e-324, 1e-310, 1e-300, 1e-16, 1e-3, 0.5):
        got = _threshold_and_warning(lambda: _TableEngine(len(stats), eps, table).threshold(eps))
        assert got == _threshold_and_warning(lambda: full_scan_threshold(stats, lp, eps)), eps
    monkeypatch.setattr(hypotest, "_TIE_TOL", 0.0)
    want = hypotest._log_scan_threshold(stats, lp, 1e-310)
    log_scans.clear()
    assert _TableEngine(len(stats), 1e-310, table).threshold(1e-310) == want
    assert log_scans == [1e-310]


def test_threshold_screen_needs_no_log_scan_on_the_benchmark_pairs(log_scans):
    """The exponent-exact benchmark's tables at epsilon = 0.5 are decided by
    the screen alone."""
    chain = (chain_model([[0.7, 0.3], [0.4, 0.6]]), chain_model([[0.5, 0.5], [0.5, 0.5]]))
    iid = (iid_model([0.5, 0.3, 0.2]), iid_model([0.4, 0.4, 0.2]))
    for (p, q), grid in ((chain, (128, 256, 512)), (iid, (50, 100, 150, 200))):
        for n in grid:
            stats, lp, lq = table = exact_statistic_table(p, q, n)
            got = _TableEngine(n, 0.5, table).threshold(0.5)
            assert got == full_scan_threshold(stats, lp, 0.5), n
    assert log_scans == []


def _traced_peak(call):
    """(result, peak bytes allocated while ``call()`` ran beyond those held
    when it started), from tracemalloc, to which numpy reports its buffers."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("a, n", [(4, 131), (5, 45), (9, 12)])
def test_iid_tables_of_wider_alphabets_are_built_without_full_size_copies(monkeypatch, a, n):
    """The i.i.d. build peaks at no more than 1.7 times its table's bytes at
    4, 5 and 9 symbols, where a (classes, a) float gather of log-factorials
    once took it to 2.0, 2.5 and 4.5 times, and gives the bits of the
    one-pass build, its row sums taken in blocks of any length."""
    rng = np.random.default_rng(a)
    p, q = (iid_model(rng.dirichlet(np.ones(a))) for _ in range(2))
    _table_iid(p, q, 5)  # imports and caches outside the traced call
    table, peak = _traced_peak(lambda: _table_iid(p, q, n))
    size = sum(column.nbytes for column in table)
    assert peak <= 1.7 * size, peak / size
    want = onepass_table_iid(p, q, n)
    for chunk in (_SCAN_CHUNK, len(table[0]) - 1, 7):  # the last block of one row, then many
        monkeypatch.setattr(hypotest, "_SCAN_CHUNK", chunk)
        for got, ref in zip(_table_iid(p, q, n), want):
            assert got.tobytes() == ref.tobytes(), chunk


@pytest.mark.parametrize("build, pair, n", [
    (_table_binary_chain, ([[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.5, 0.5]]), 512),
    (_table_iid, ([0.5, 0.3, 0.2], [0.4, 0.4, 0.2]), 892),  # 399,171 classes
])
def test_exact_tables_are_built_and_read_without_full_size_copies(build, pair, n):
    """Building a table peaks at no more than 1.8 times its bytes (its three
    columns, the sort order and one gathered column); the threshold scan, a
    miss over the whole table and a Bayes error each add at most 0.6 times
    them, the Bayes error with the bits of its two-column form."""
    make = chain_model if build is _table_binary_chain else iid_model
    p, q = make(pair[0]), make(pair[1])
    build(p, q, 20)  # imports and caches outside the traced calls
    table, peak = _traced_peak(lambda: build(p, q, n))
    size = sum(column.nbytes for column in table)
    assert peak <= 1.8 * size, peak / size
    engine = _TableEngine(n, 0.5, table)
    _, peak = _traced_peak(lambda: engine.threshold(0.5))
    assert peak <= 0.6 * size, peak / size
    _, peak = _traced_peak(lambda: engine.miss(table[0][0]))
    assert peak <= 0.6 * size, peak / size
    error, peak = _traced_peak(lambda: engine.bayes(0.5))
    assert peak <= 0.6 * size, peak / size
    _, lp, lq = table
    for prior in (0.5, 0.05):
        joint = np.minimum(lp + math.log(prior), lq + math.log(1.0 - prior))
        assert engine.bayes(prior) == (float(np.exp(_logsumexp(joint))), 0.0)


def _logsumexp_cases(rng, count):
    """1-D arrays spanning up to +-1e3, with -inf entries, ties at the
    maximum, entries all -inf and single entries."""
    for trial in range(count):
        size = 1 if trial % 7 == 0 else int(rng.integers(2, 400))
        scale = 10.0 ** rng.uniform(-3, 3)
        a = rng.uniform(-scale, scale, size) + rng.uniform(-scale, scale)
        if trial % 3 == 1:
            a[rng.random(size) < 0.3] = -np.inf
        if trial % 4 == 2:
            a[rng.integers(0, size, int(rng.integers(1, 4)))] = a.max()
        if trial % 5 == 3:
            a = np.round(a, 1)  # many ties, the maximum's among them
        if trial % 50 == 4:
            a[:] = -np.inf
        yield a


@pytest.mark.skipif(tuple(int(v) for v in scipy.__version__.split(".")[:2]) < (1, 15),
                    reason="scipy before 1.15 sums without splitting out the maximum")
def test_logsumexp_is_scipys_bit_for_bit(rng):
    from scipy.special import logsumexp
    for a in _logsumexp_cases(rng, 1200):
        got, want = _logsumexp(a), float(logsumexp(a))
        assert struct.pack("<d", got) == struct.pack("<d", want), (a, got, want)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 13, 14, 1000, 1001, CHAIN_LATTICE_NMAX + 2,
                                   IID_LATTICE_CAP + 2])
def test_gammaln_range_is_scipys_bit_for_bit(count):
    """The lattices' log-factorial lookup has gammaln's bits at every integer
    they can ask for; the counts are the edges of its branches and of both
    lattices' domains."""
    got, want = _gammaln_range(count), gammaln(np.arange(count))
    assert got.dtype == want.dtype and got.shape == want.shape
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ.size == 0, (
        f"gammaln of {differ.size} integers below {count} differs from scipy "
        f"{scipy.__version__} on {platform.machine()} ({platform.system()}), first at "
        f"k = {differ[:5].tolist()}; a platform that fuses multiply-adds changes cephes' bits")


def test_logsumexp_matches_an_exactly_rounded_sum(rng):
    for a in _logsumexp_cases(rng, 1200):
        top = float(a.max())
        if top == -math.inf:
            assert _logsumexp(a) == -math.inf
            continue
        want = top + math.log(math.fsum(math.exp(float(x) - top) for x in a))
        assert _logsumexp(a) == pytest.approx(want, rel=1e-12, abs=1e-12)


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


def test_class_statistic_ties_with_the_exact_threshold():
    """The binary-chain table computes a class's statistic as counts times log
    rows, where lrt_statistic sums per-token logs, so a sequence of the
    threshold class can score one rounding below the threshold.  Over random
    binary order-1 Dirichlet(1) pairs at n = 20..59 and epsilon = 0.1, the
    class statistic of every sampled sequence is one of the table's
    statistics bit for bit, and threshold-class sequences that lrt_statistic
    puts below the threshold compare equal to it."""
    rng = np.random.default_rng(2024)
    rescued = 0
    for _ in range(30):
        p = chain_model(rng.dirichlet(np.ones(2), size=2))
        q = chain_model(rng.dirichlet(np.ones(2), size=2))
        n = int(rng.integers(20, 60))
        stats = exact_statistic_table(p, q, n)[0]
        threshold = np_threshold(p, q, n, 0.1)
        for j in range(100):
            seq = sample(p if j % 2 else q, n, int(rng.integers(2 ** 31)))
            ranked = class_statistic(p, q, seq)
            assert ranked in stats
            rescued += ranked == threshold and lrt_statistic(p, q, seq) < threshold
        assert class_statistic(p, q, seq, method="mc") is None
    assert rescued > 0


def test_class_statistic_on_every_table_engine(rng):
    """Sequence enumeration, the i.i.d. lattice and the chain lattice each
    rank a sequence by a statistic in their own table; without a table the
    class statistic is None."""
    cases = [(chain_model(rng.dirichlet(np.ones(2), size=2)),
              chain_model(rng.dirichlet(np.ones(2), size=2)), 9),
             (iid_model(rng.dirichlet(np.ones(3))), iid_model(rng.dirichlet(np.ones(3))), 30),
             (iid_model([0.5, 0.5]), chain_model(rng.dirichlet(np.ones(2), size=2)), 40)]
    for p, q, n in cases:
        stats = exact_statistic_table(p, q, n)[0]
        for seed in range(40):
            seq = sample(q, n, seed)
            ranked = class_statistic(p, q, seq)
            assert ranked in stats
            assert ranked == pytest.approx(lrt_statistic(p, q, seq), rel=1e-12, abs=1e-12)
    p3 = chain_model(rng.dirichlet(np.ones(3), size=3))
    assert class_statistic(p3, p3, sample(p3, 20, 0)) is None


def test_order0_mc_threshold_ties_decide_null():
    """The all-order-0 walk scores counts times log rows, which can differ
    from lrt_statistic in the last bits.  Over 40 random 17-symbol pairs at
    n = 60, where the i.i.d. lattice is too large and Monte Carlo calibrates,
    a text with the counts of the calibration trial that sits on the
    threshold ties with it, and a tie goes to the null."""
    gen = np.random.default_rng(0)
    rescued = 0
    for _ in range(40):
        p = iid_model(gen.dirichlet(np.ones(17)))
        q = iid_model(gen.dirichlet(np.ones(17)))
        assert hypotest._table_engine(p, q, 60) is None
        threshold = np_threshold(p, q, 60, 0.1, trials=10_000, seed=0)
        stats = _mc_stats(p, p, q, 60, 10_000, spawn_rng(0, 10, 0))
        counts = spawn_rng(0, 10, 0).multinomial(60, p.row(()), size=10_000)
        on_threshold = counts[np.flatnonzero(stats == threshold)[0]]
        seq = TokenSeq(np.repeat(np.arange(17), on_threshold))
        assert class_statistic(p, q, seq) == threshold
        assert class_statistic(p, q, seq, method="mc") == threshold
        rescued += lrt_statistic(p, q, seq) < threshold
    assert rescued > 0


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


@pytest.mark.parametrize("method", ["auto", "mc", "exact"])
def test_calibrations_refuse_models_over_different_alphabets(method):
    """Same size, symbols permuted: every method refuses the pair, and so do
    the statistic, the exact table and the class statistic."""
    p = iid_model([0.5, 0.5], Alphabet(("a", "b")))
    q = iid_model([0.9, 0.1], Alphabet(("b", "a")))
    seq = TokenSeq(np.array([0, 1, 1, 0]))
    for refused in (lambda: np_threshold(p, q, 10, 0.1, trials=1000, method=method),
                    lambda: miss_probability(p, q, 10, 0.0, trials=1000, method=method),
                    lambda: class_statistic(p, q, seq, method),
                    lambda: lrt_statistic(p, q, seq),
                    lambda: exact_statistic_table(p, q, 10)):
        with pytest.raises(DataContractError, match="the two models must share an alphabet"):
            refused()


def test_invalid_arguments(fair_vs_biased):
    p, q = fair_vs_biased
    with pytest.raises(ValueError):
        np_threshold(p, q, 10, 0.0)
    with pytest.raises(ValueError):
        np_threshold(p, q, 0, 0.1)
    with pytest.raises(ValueError):
        np_threshold(p, q, 10, 0.1, trials=10, method="mc")


# -- Monte Carlo walk -------------------------------------------------------


def _comparison_start(model, window):
    """log P(window) token by token: the initial mass (or, for a window
    shorter than the order, its marginal) by ``math.log``, then each row
    entry by ``np.log``, added in order."""
    k = model.order
    total = loop_log_likelihood(model, TokenSeq(window[:k]))
    for i in range(k, len(window)):
        total += _log_matrix(model.row(tuple(window[i - k:i].tolist())))[window[i]]
    return total


def _comparison_draws(sample_model, n, trials, rng):
    """Reference draws: the initial k-gram (cut to ``n`` symbols) from the
    sample model's initial law, then each symbol ``#{j : cum[ctx, j] < u}``
    counted by comparing ``u`` against the whole cumulative row of its
    context, the last ``k`` symbols.  Returns the ``(trials, n)`` symbols."""
    a, k = sample_model.alphabet.size, sample_model.order
    init_cum = np.cumsum(sample_model.init_probs)
    pick = np.searchsorted(init_cum, rng.random(trials) * init_cum[-1])
    pick = np.minimum(pick, len(init_cum) - 1)
    seqs = np.empty((trials, n), dtype=np.int64)
    seqs[:, :min(n, k)] = decode(sample_model.init_codes[pick], a, k)[:, :n]
    for t in range(k, n):
        u = rng.random(trials)
        rows = sample_model.rows_at(encode(seqs[:, t - k:t], a))
        nxt_sym = (u[:, None] > np.cumsum(rows, axis=1)).sum(axis=1)
        seqs[:, t] = np.minimum(nxt_sym, a - 1)
    return seqs


def _comparison_walk(sample_model, p_model, q_model, n, trials, rng):
    """Reference walk for models of any orders, not all 0, where every
    context passed through has a row: the :func:`_comparison_draws`, their
    first L = min(n, K) symbols, K the largest order, scored by
    :func:`_comparison_start` and each later symbol by its row.  Returns the
    statistics and the symbols drawn."""
    big_k = max(sample_model.order, p_model.order, q_model.order)
    length = min(n, big_k)
    seqs = _comparison_draws(sample_model, n, trials, rng)
    lp = np.array([_comparison_start(p_model, w) for w in seqs[:, :length]])
    lq = np.array([_comparison_start(q_model, w) for w in seqs[:, :length]])
    every = np.arange(trials)
    a = sample_model.alphabet.size
    for t in range(length, n):
        for model, acc in ((p_model, lp), (q_model, lq)):
            ctx = encode(seqs[:, t - model.order:t], a)
            acc += _log_matrix(model.rows_at(ctx))[every, seqs[:, t]]
    return _llr_stats(lp, lq, n), seqs


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


@pytest.mark.parametrize("guide_cap", [markov.GUIDE_CELL_CAP, 1])
def test_guide_walk_matches_comparison_walk(monkeypatch, guide_cap):
    """The guide-table walk returns bit-identical statistics to the full
    comparison walk from the same uniforms, whatever the guide size."""
    monkeypatch.setattr(markov, "GUIDE_CELL_CAP", guide_cap)
    for name, (p, q, n, make_rng) in _walk_cases().items():
        for sample_model in (p, q):
            got = _mc_stats(sample_model, p, q, n, 2000, make_rng(5))
            want, _ = _comparison_walk(sample_model, p, q, n, 2000, make_rng(5))
            assert np.array_equal(got, want), name


def _mixed_order_cases():
    """Pairs of 3-symbol fits of every order pair in 0-2 but (0, 0), plus an
    order-0 alternative that never emits symbol 2, so some statistics are
    +inf."""
    rng = np.random.default_rng(41)
    texts = [TokenSeq(rng.choice(3, size=4000, p=rng.dirichlet(np.full(3, 5.0))))
             for _ in range(2)]
    fits = [[fit_empirical(text, k, _alphabet(3), smoothing=0.05) for k in range(3)]
            for text in texts]
    cases = {f"orders {kp}/{kq}": (fits[0][kp], fits[1][kq])
             for kp in range(3) for kq in range(3) if kp or kq}
    cases["order 2 vs one-sided order 0"] = (fits[0][2], iid_model([0.6, 0.4, 0.0],
                                                                  _alphabet(3)))
    return cases


def test_mixed_order_walk_matches_comparison_walk_and_lrt_statistic():
    """For any orders, and lengths below, at and above the largest order, the
    walk's statistics are bit for bit those of the reference walk and of
    lrt_statistic on each sequence the reference drew."""
    cases = _mixed_order_cases()
    for name, (p, q) in cases.items():
        for sample_model in (p, q):
            for n in (1, 2, 3, 25):
                got = _mc_stats(sample_model, p, q, n, 100, np.random.default_rng(n))
                want, seqs = _comparison_walk(sample_model, p, q, n, 100,
                                              np.random.default_rng(n))
                assert np.array_equal(got, want), (name, n)
                direct = [lrt_statistic(p, q, TokenSeq(seq)) for seq in seqs]
                assert np.array_equal(got, direct), (name, n)
    p, q = cases["order 2 vs one-sided order 0"]
    assert np.isinf(_mc_stats(p, p, q, 25, 300, np.random.default_rng(0))).any()


def test_unsmoothed_mixed_order_walk_matches_lrt_statistic():
    """Short unsmoothed fits of orders 1/2 and 2/1, where one model lacks the
    rows and initial k-grams of what the other samples: the walk gives
    lrt_statistic of each reference sequence bit for bit (-inf where a zero
    factor or an unseen initial k-gram comes before a context without a row,
    also in the first and last positions) and raises where it raises."""
    rng = np.random.default_rng(8)
    full = TokenSeq(np.concatenate([[0, 1, 2, 0, 0, 2, 2, 1, 1], rng.choice(3, 25), [0, 1]]))
    binary = TokenSeq(np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1]))
    open_text = TokenSeq(np.array([0, 1, 0, 0, 1, 1, 0, 1, 2, 2]))
    fits = {name: [fit_empirical(text, k, _alphabet(3)) for k in range(3)]
            for name, text in (("full", full), ("binary", binary), ("open", open_text))}
    values = raises = 0
    for kp, kq in ((1, 2), (2, 1)):
        for q_name in ("binary", "open"):
            p, q = fits["full"][kp], fits[q_name][kq]
            # the open fit's chain ends in a context with no row, so it only scores
            for sample_model in (p, q) if q_name == "binary" else (p,):
                for n in (3, 25):
                    seqs = _comparison_draws(sample_model, n, 300, np.random.default_rng(n))
                    try:
                        want = [lrt_statistic(p, q, TokenSeq(seq)) for seq in seqs]
                    except UnseenContextError:
                        raises += 1
                        with pytest.raises(UnseenContextError):
                            _mc_stats(sample_model, p, q, n, 300, np.random.default_rng(n))
                        continue
                    values += 1
                    got = _mc_stats(sample_model, p, q, n, 300, np.random.default_rng(n))
                    assert np.array_equal(got, want), (kp, kq, q_name, n)
    assert values >= 8 and raises >= 1, (values, raises)


def test_mixed_order_walk_draws_start_symbol_by_symbol():
    """A sample model below the largest order draws the symbols up to that
    order one at a time: a chain that walks into a context with no row
    raises only when it must draw from it, and no window law is enumerated,
    so 17**4 start windows are no obstacle."""
    rows = {(0,): np.array([0.5, 0.5, 0.0]), (1,): np.array([0.0, 0.5, 0.5])}
    open_q = model_from_dicts(1, _alphabet(3), rows, {(0,): 1.0})  # (2,) has no row
    p = MarkovModel(4, _alphabet(3), [0], [np.full(3, 1 / 3)], [0], [1.0])
    with pytest.raises(UnseenContextError, match="no row"):
        miss_probability(p, open_q, 10, 0.0, trials=1000, method="mc")
    # (0,) -> 0 or 1 -> 1 or 2 never needs a row for (2,) within 3 symbols
    assert np.isfinite(_mc_stats(open_q, open_q, open_q, 3, 100,
                                 np.random.default_rng(0))).all()
    wide_p = MarkovModel(4, _alphabet(17), [0], [np.full(17, 1 / 17)], [0], [1.0])
    uniform = iid_model(np.full(17, 1 / 17), _alphabet(17))
    stats = _mc_stats(uniform, wide_p, uniform, 10, 200, np.random.default_rng(0))
    assert np.array_equal(stats, np.full(200, -np.inf))


def test_mixed_binary_mc_agrees_with_exact_lattice():
    """Random binary order-0/order-1 mixes: the exact false-alarm mass around
    the Monte Carlo threshold brackets epsilon, and the exact miss just below
    the exact threshold lies in the Monte Carlo miss's Clopper-Pearson
    interval (at 1 - 1e-4, so that twelve pairs rarely miss by chance)."""
    rng = np.random.default_rng(2024)
    trials, eps, n = 40_000, 0.2, 30
    sigma = math.sqrt(eps * (1 - eps) / trials)
    for pair in range(12):
        chain = chain_model(rng.dirichlet(np.ones(2), size=2))
        iid = iid_model(rng.dirichlet(np.ones(2)))
        p, q = (chain, iid) if pair % 2 else (iid, chain)
        stats, lp, lq = exact_statistic_table(p, q, n)
        t_mc = np_threshold(p, q, n, eps, trials=trials, seed=pair, method="mc")
        # walk and lattice add the same logs in different orders
        assert np.exp(lp[stats < t_mc - 1e-9]).sum() <= eps + 4 * sigma
        assert np.exp(lp[stats <= t_mc + 1e-9]).sum() >= eps - 4 * sigma
        # walk and lattice round a class's statistic differently, so compare
        # midway below the exact threshold, where no class sits
        t = np_threshold(p, q, n, eps)
        t = (t + stats[stats < t - 1e-9].max()) / 2
        exact = miss_probability(p, q, n, t, epsilon=eps).beta_hat
        mc = miss_probability(p, q, n, t, trials=trials, seed=pair, epsilon=eps, method="mc")
        lo, hi = _clopper_pearson(round(mc.beta_hat * trials), trials, conf=1 - 1e-4)
        assert lo <= exact <= hi, pair


def test_mc_below_largest_order_matches_exact():
    """With fewer symbols than the largest order, every statistic is a point
    of the exact support and the calibrated threshold is the exact one."""
    cases = _mixed_order_cases()
    for name in ("orders 2/2", "orders 2/1", "orders 1/2"):
        p, q = cases[name]
        stats = exact_statistic_table(p, q, 1)[0]
        for sample_model in (p, q):
            got = _mc_stats(sample_model, p, q, 1, 5000, np.random.default_rng(3))
            # math.log and np.log of one mass may differ in the last bit
            assert np.abs(got[:, None] - stats[None, :]).min(axis=1).max() <= 1e-12, name
        mc = np_threshold(p, q, 1, 0.1, trials=20_000, method="mc")
        assert mc == pytest.approx(np_threshold(p, q, 1, 0.1, method="exact"), rel=1e-12)


def test_guide_table_counts_cell_edges():
    # the last row ends just above 1, as an initial law within tolerance may
    cum = np.cumsum([[0.25, 0.25, 0.5], [0.0, 0.375, 0.625], [0.1, 0.2, 0.7],
                     [0.5, 0.5 - 2e-10, 4e-10]], axis=1)
    for g in (1, 2, 4, 8):
        edges = np.arange(g + 1) / g
        want = ((cum[:, None, :] < edges[None, :, None]) | (cum[:, None, :] <= 0)).sum(axis=2)
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
    stats = _mc_stats(p, p, q, 20, 1000, np.random.default_rng(0))
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


@pytest.mark.parametrize("pair", ["iid", "chain"])
def test_exact_fits_are_pinned(pair):
    """The exact fits of the two exponent-exact benchmark pairs at epsilon
    0.5, bit for bit: a change to the tables' arithmetic or to which classes
    count as missed (ties go to the null) moves them."""
    make, p, q, grid, slope, thresholds = {
        "iid": (iid_model, [0.5, 0.3, 0.2], [0.4, 0.4, 0.2], [50, 100, 150, 200],
                0.029217630046281355,
                (0.02526715392157044, 0.02526715392157044, 0.025267153921570678,
                 0.02529456664824352)),
        "chain": (chain_model, [[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.5, 0.5]],
                  [128, 256, 512], 0.05730805459798856,
                  (0.05514210659785046, 0.055404942288167947, 0.05550352787884727)),
    }[pair]
    fit = exponent_fit(make(p), make(q), 0.5, grid, method="exact")
    assert fit.point_methods == ("exact",) * len(grid)
    assert (fit.slope, fit.thresholds) == (slope, thresholds)


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
    assert fit.point_methods == ("exact", "mc", "mc")
    exact = exponent_fit(p, q, 0.5, [200, 400, 800], trials=1000)
    assert (exact.method, exact.point_methods) == ("exact", ("exact",) * 3)
    mc = exponent_fit(p, q, 0.5, grid, trials=1000, method="mc")
    assert (mc.method, mc.point_methods) == ("mc", ("mc",) * 3)


def test_exponent_fit_needs_three_points(fair_vs_biased):
    """A grid of two lengths is a bad argument, refused before any point is
    calibrated; too few informative points among three or more is
    ``UninformativeFitError``."""
    p, q = fair_vs_biased
    with pytest.raises(ValueError, match="need at least three grid lengths"):
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


def test_bayes_error_validates_length_and_trials(fair_vs_biased):
    p, q = fair_vs_biased
    with pytest.raises(ValueError, match="n must be"):
        bayes_error(p, q, 0)
    with pytest.raises(ValueError, match="1000 trials"):
        bayes_error(p, q, 20, trials=10, method="mc")


def test_bayes_error_rejects_unknown_method(fair_vs_biased):
    p, q = fair_vs_biased
    with pytest.raises(ValueError, match="method"):
        bayes_error(p, q, 10, method="bogus")


def _iid17_pair():
    """A 17-symbol i.i.d. pair: at n = 60 its lattice exceeds the cap, so
    Monte Carlo calibrates."""
    gen = np.random.default_rng(5)
    return iid_model(gen.dirichlet(np.ones(17))), iid_model(gen.dirichlet(np.ones(17)))


@pytest.mark.parametrize("trials", [0, 999])
def test_auto_walk_needs_the_trial_floor(trials):
    """Monte Carlo needs 1000 trials whichever method chose it: "auto" on a
    pair with no table refuses fewer at every entry point."""
    p, q = _iid17_pair()
    assert exact_statistic_table(p, q, 60) is None
    calls = [lambda: np_threshold(p, q, 60, 0.1, trials=trials),
             lambda: miss_probability(p, q, 60, 0.0, trials=trials, epsilon=0.1),
             lambda: exponent_fit(p, q, 0.1, [60, 70, 80], trials=trials),
             lambda: bayes_error(p, q, 60, trials=trials)]
    for call in calls:
        with pytest.raises(ValueError, match="1000 trials"):
            call()


def test_tables_ignore_the_trial_count(fair_vs_biased):
    """Where a table applies, "auto" answers exactly with any trial count."""
    p, q = fair_vs_biased
    t = np_threshold(p, q, 30, 0.1, trials=10)
    assert t == np_threshold(p, q, 30, 0.1)
    assert miss_probability(p, q, 30, t, trials=10).method == "exact"
    assert bayes_error(p, q, 30, trials=10).method == "exact"
    assert exponent_fit(p, q, 0.5, [10, 20, 30], trials=10).method == "exact"


def test_class_statistic_checks_the_method():
    """class_statistic refuses what the calibration refuses: an unknown
    method, and "exact" where no table applies (three letters, order 1,
    n = 40)."""
    rng = np.random.default_rng(3)
    p = chain_model(rng.dirichlet(np.ones(3), size=3))
    q = chain_model(rng.dirichlet(np.ones(3), size=3))
    seq = sample(q, 40, 0)
    with pytest.raises(ValueError, match="method"):
        class_statistic(p, q, seq, method="bogus")
    for refused in (lambda: np_threshold(p, q, 40, 0.1, method="exact"),
                    lambda: class_statistic(p, q, seq, method="exact")):
        with pytest.raises(MarkovDetectError, match="no exact enumeration"):
            refused()
    assert class_statistic(p, q, seq) is None


class _StubEngine:
    """A third engine: threshold 0.25, miss probability exp(-n / 10)."""

    name = "stub"

    def __init__(self, n, epsilon):
        self.n, self.epsilon = n, epsilon

    def threshold(self, epsilon):
        return 0.25

    def log_miss(self, threshold):
        return -self.n / 10

    def miss(self, threshold):
        beta = math.exp(-self.n / 10)
        return hypotest.TestOutcome(self.n, self.epsilon, threshold, beta, -self.n / 10,
                                    beta, beta, 0, self.name)

    def bayes(self, prior):
        return 0.0, 0.0


def test_every_calibration_answers_through_the_one_selector(monkeypatch, fair_vs_biased):
    """An engine the selector returns answers np_threshold, miss_probability,
    exponent_fit (one stream per grid length) and bayes_error, and names
    itself in each record."""
    p, q = fair_vs_biased
    asked = []

    def select(p_model, q_model, n, epsilon, trials, seed, method, stream=0):
        asked.append((n, stream))
        return _StubEngine(n, epsilon)

    monkeypatch.setattr(hypotest, "_engine", select)
    assert np_threshold(p, q, 30, 0.1) == 0.25
    assert miss_probability(p, q, 30, 0.25, epsilon=0.1).method == "stub"
    fit = exponent_fit(p, q, 0.1, [20, 10, 30])
    assert fit.point_methods == ("stub",) * 3
    assert fit.method == "stub"
    assert fit.slope == pytest.approx(0.1)
    assert bayes_error(p, q, 30).method == "stub"
    assert asked == [(30, 0), (30, 0), (10, 10), (20, 20), (30, 30), (30, 0)]


def test_tables_are_built_once_per_length_unless_mc(monkeypatch):
    """The benchmark's tracer counts Monte Carlo trial steps under
    np_threshold only when no exact_statistic_table call under it returns a
    table.  So every calibration builds through that module attribute, once
    per length, under "auto" and "exact", and never under "mc"."""
    built = []
    real = hypotest.exact_statistic_table

    def record(p_model, q_model, n):
        table = real(p_model, q_model, n)
        built.append((n, table is not None))
        return table

    monkeypatch.setattr(hypotest, "exact_statistic_table", record)
    p, q = iid_model([0.5, 0.5]), iid_model([0.6, 0.4])
    grid = [10, 20, 30]
    for method in ("auto", "exact", "mc"):
        built.clear()
        t = np_threshold(p, q, 20, 0.1, trials=1000, method=method)
        miss_probability(p, q, 20, t, trials=1000, method=method)
        bayes_error(p, q, 20, trials=1000, method=method)
        exponent_fit(p, q, 0.5, grid, trials=1000, method=method)
        assert built == ([] if method == "mc" else [(n, True) for n in [20, 20, 20] + grid])
    built.clear()
    np_threshold(*_iid17_pair(), 60, 0.1, trials=1000)
    assert built == [(60, False)]


def test_whittle_runtime_allows_long_sequences(fair_vs_biased):
    # the count-lattice path keeps exact evaluation cheap well past
    # enumeration range
    p = chain_model(np.array([[0.8, 0.2], [0.3, 0.7]]))
    q = chain_model(np.array([[0.5, 0.5], [0.6, 0.4]]))
    t = np_threshold(p, q, 600, 0.5)
    out = miss_probability(p, q, 600, t, epsilon=0.5)
    assert out.method == "exact"
    assert 0.0 < out.beta_hat < 1.0


def test_readme_session_prints_the_values_it_quotes(capsys):
    """The README's three-line session, run as written, prints the fitted
    slope and the divergence rate its comment quotes, to the 4 places quoted."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A three-line session:\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    slope, theory = map(float, capsys.readouterr().out.split())
    quoted = re.search(r"# (\S+) vs (\S+) nats/token", block).groups()
    assert (round(slope, 4), round(theory, 4)) == tuple(map(float, quoted))
