import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovdetect.corpus import Alphabet
from markovdetect.errors import BoundInapplicableError, DataContractError, SupportViolationWarning
from markovdetect.infometrics import (
    ContinuityProfile,
    amplification_factor,
    chernoff,
    cross_entropy,
    entropy,
    estimate_profile,
    estimation_coefficient,
    exponent_from_entropies,
    kl,
    kl_rate,
    perplexity,
    perplexity_ratio,
)
from markovdetect.markov import HiddenMarkovSource, MarkovModel, chain_model, iid_model, stationary
from oracles import dict_profile, hmm_conditional

probs = st.integers(1, 50)


def _pair(draw_ints):
    vec = np.array(draw_ints, dtype=float)
    return vec / vec.sum()


dists = st.lists(probs, min_size=2, max_size=6).map(_pair)


@given(dists, dists)
@settings(max_examples=300, deadline=None)
def test_cross_entropy_decomposes(p, q):
    if len(p) != len(q):
        return
    assert cross_entropy(p, q) == pytest.approx(entropy(p) + kl(p, q), abs=1e-12)


@given(dists, dists)
@settings(max_examples=300, deadline=None)
def test_kl_nonnegative_and_zero_iff_equal(p, q):
    if len(p) != len(q):
        return
    assert kl(p, q) >= -1e-15
    assert kl(p, p) == pytest.approx(0.0, abs=1e-13)


@given(dists, dists, dists)
@settings(max_examples=200, deadline=None)
def test_perplexity_ratio_identity(p, q1, q2):
    if not len(p) == len(q1) == len(q2):
        return
    lhs = perplexity_ratio(p, q1, q2)
    rhs = math.exp(cross_entropy(p, q1) - cross_entropy(p, q2))
    assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("atoms", [4, 8, 16])
def test_kl_of_a_stack_equals_each_row(rng, atoms):
    """Row i of kl on two stacks is kl of pair i bit for bit: full rows,
    rows with zeros in p (summed over their support, as one pair is) and
    rows where q has a hole in p's support (inf, with one warning)."""
    p = rng.dirichlet(np.ones(atoms), size=60)
    q = rng.dirichlet(np.ones(atoms), size=60)
    p[1::3, 0] = 0.0
    q[2::6, 0] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    with pytest.warns(SupportViolationWarning) as caught:
        got = kl(p, q)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportViolationWarning)
        want = [kl(a, b) for a, b in zip(p, q)]
    assert got.shape == (60,)
    assert got.tolist() == want
    assert np.isinf(got[2::6]).all() and np.isfinite(np.delete(got, np.s_[2::6])).all()
    assert type(kl(p[0], q[0])) is float


def test_exponent_from_entropies_is_kl(rng):
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        got = exponent_from_entropies(cross_entropy(p, q), entropy(p))
        assert got == pytest.approx(kl(p, q), abs=1e-12)


def test_cross_entropy_support_hole_warns():
    with pytest.warns(SupportViolationWarning):
        value = cross_entropy([0.5, 0.5], [1.0, 0.0])
    assert value == math.inf


def test_perplexity_of_uniform_is_alphabet_size():
    assert perplexity([0.25] * 4, [0.25] * 4) == pytest.approx(4.0)


# -- Chernoff information ---------------------------------------------------


def test_chernoff_symmetric_pair_closed_form():
    # for (p, 1-p) against its mirror the optimum sits at weight 1/2
    p = 0.9
    info = chernoff([p, 1 - p], [1 - p, p])
    expect = -math.log(2 * math.sqrt(p * (1 - p)))
    assert info.value == pytest.approx(expect, abs=1e-9)
    assert info.weight == pytest.approx(0.5, abs=1e-4)


def test_chernoff_identical_is_zero():
    info = chernoff([0.3, 0.7], [0.3, 0.7])
    assert info.value == pytest.approx(0.0, abs=1e-10)


def test_chernoff_below_both_kl(rng):
    for _ in range(25):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        value = chernoff(p, q).value
        assert value <= kl(p, q) + 1e-9
        assert value <= kl(q, p) + 1e-9


def test_chernoff_agrees_with_dense_grid(rng):
    for _ in range(10):
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2))
        lams = np.linspace(1e-6, 1 - 1e-6, 20001)
        grid = np.array([
            -math.log(np.sum(p ** lam * q ** (1 - lam))) for lam in lams
        ])
        assert chernoff(p, q).value == pytest.approx(grid.max(), abs=1e-5)


@pytest.mark.parametrize("func", [kl, entropy, cross_entropy, chernoff])
def test_nan_entry_rejected(func):
    bad = [math.nan, 0.5, 0.25, 0.25]
    args = (bad,) if func is entropy else (bad, [0.25] * 4)
    with pytest.raises(ValueError):
        func(*args)
    if func is not entropy:
        with pytest.raises(ValueError):
            func([0.25] * 4, bad)


# -- divergence rates -------------------------------------------------------


def test_kl_rate_iid_reduces_to_single_letter():
    p = iid_model([0.5, 0.5])
    q = iid_model([0.9, 0.1])
    assert kl_rate(p, q) == pytest.approx(kl([0.5, 0.5], [0.9, 0.1]), abs=1e-12)
    assert kl_rate(p, q) == pytest.approx(0.5 * math.log(25 / 9), abs=1e-12)


def test_kl_rate_refuses_models_over_different_alphabets():
    """Same size, symbols permuted: code 0 names "a" in p and "b" in q."""
    p = iid_model([0.5, 0.5], Alphabet(("a", "b")))
    q = iid_model([0.9, 0.1], Alphabet(("b", "a")))
    with pytest.raises(DataContractError, match="the two models must share an alphabet"):
        kl_rate(p, q)
    with pytest.raises(DataContractError, match="the two models must share an alphabet"):
        kl_rate(p, iid_model([0.2, 0.3, 0.5]))


def test_kl_rate_markov_matches_stationary_sum(rng):
    rows_p = rng.dirichlet(np.ones(2), size=2)
    rows_q = rng.dirichlet(np.ones(2), size=2)
    p = chain_model(rows_p)
    q = chain_model(rows_q)
    pi = stationary(p)
    expect = sum(
        pi[s] * rows_p[s, a] * math.log(rows_p[s, a] / rows_q[s, a])
        for s in range(2)
        for a in range(2)
    )
    assert kl_rate(p, q) == pytest.approx(expect, abs=1e-10)


def test_kl_rate_mixed_orders(rng):
    # order-1 against order-0: E_pi[ sum_a P(a|s) ln(P(a|s)/q(a)) ]
    rows_p = rng.dirichlet(np.ones(2), size=2)
    qvec = rng.dirichlet(np.ones(2))
    p = chain_model(rows_p)
    q = iid_model(qvec)
    pi = stationary(p)
    expect = sum(
        pi[s] * rows_p[s, a] * math.log(rows_p[s, a] / qvec[a])
        for s in range(2)
        for a in range(2)
    )
    assert kl_rate(p, q) == pytest.approx(expect, abs=1e-10)


def test_kl_rate_support_violation_is_inf():
    p = chain_model(np.array([[0.5, 0.5], [0.5, 0.5]]))
    q = chain_model(np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.warns(SupportViolationWarning):
        assert kl_rate(p, q) == math.inf


# -- continuity profiles ----------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        ContinuityProfile(rates=(0.1, 0.2), floor=0.5, alphabet_size=2)  # increasing
    with pytest.raises(ValueError):
        ContinuityProfile(rates=(0.1,), floor=0.0, alphabet_size=2)


def test_amplification_factor_hand_value():
    prof = ContinuityProfile(rates=(0.5, 0.25), floor=0.1, alphabet_size=2)
    assert amplification_factor(prof) == pytest.approx(1 / (0.5 * 0.75), abs=1e-12)


def test_estimation_coefficient_hand_value():
    prof = ContinuityProfile(rates=(0.1, 0.0), floor=0.2, alphabet_size=2)
    # k=1: (1 - (1 - 2*0.1)^1) / (1 * 0.1 * (1 - 2*0.1)^2) = 0.2 / 0.064... no:
    # denominator product runs over j <= k, so 0.1 * 0.8^2 = 0.064; 0.2/0.064 = 3.125
    assert estimation_coefficient(prof, 1) == pytest.approx(3.125, abs=1e-12)


def test_estimation_coefficient_zero_rate_limit():
    prof = ContinuityProfile(rates=(0.0,), floor=0.2, alphabet_size=3)
    # gamma -> 0 limit: k*|A| / (k * prod(1 - |A| gamma_j)^2) = |A|
    assert estimation_coefficient(prof, 1) == pytest.approx(3.0, abs=1e-12)


def test_estimation_coefficient_requires_applicable_rate():
    prof = ContinuityProfile(rates=(0.6,), floor=0.1, alphabet_size=2)
    with pytest.raises(BoundInapplicableError):
        estimation_coefficient(prof, 1)  # |A| * rate >= 1


def _brute_conditional_spread(source, k, m):
    """Independent oracle: max over symbols and context pairs agreeing on the
    last k symbols of the gap in conditional probability, contexts length m."""
    conds = {}
    for code in range(2 ** m):
        ctx = [(code >> (m - 1 - i)) & 1 for i in range(m)]
        try:
            conds[tuple(ctx)] = hmm_conditional(source, ctx)
        except Exception:
            continue
    worst = 0.0
    for c1, v1 in conds.items():
        for c2, v2 in conds.items():
            if k and c1[-k:] != c2[-k:]:
                continue
            worst = max(worst, float(np.max(np.abs(v1 - v2))))
    return worst


def test_continuity_rate_matches_brute_force(two_state_hmm):
    rates = estimate_profile(two_state_hmm, k_max=2, m_max=4).rates
    for k in (1, 2):
        brute = max(_brute_conditional_spread(two_state_hmm, k, m) for m in range(k, 5))
        assert rates[k - 1] == pytest.approx(brute, abs=1e-12)


def test_continuity_rates_nonincreasing(two_state_hmm):
    prof = estimate_profile(two_state_hmm, k_max=4, m_max=5)
    assert all(a >= b - 1e-15 for a, b in zip(prof.rates, prof.rates[1:]))


def test_smoothing_floor_positive(two_state_hmm):
    floor = estimate_profile(two_state_hmm, k_max=1, m_max=4).floor
    assert 0.0 < floor < 0.5
    brute = min(float(hmm_conditional(two_state_hmm, [(code >> (m - 1 - i)) & 1
                                                      for i in range(m)]).min())
                for m in range(1, 5) for code in range(2 ** m))
    assert floor == pytest.approx(brute, abs=1e-15)


def test_order_one_chain_profile_is_flat(rng):
    # the next symbol depends on the last one only, so any shared suffix pins it
    rows = rng.dirichlet(np.ones(3), size=3)
    prof = estimate_profile(chain_model(rows), k_max=3, m_max=4)
    assert prof.rates == (0.0, 0.0, 0.0)
    assert prof.floor == rows.min()


@st.composite
def _sources(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = draw(st.integers(2, 3))
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        return HiddenMarkovSource.with_stationary_start(
            0.5 * rng.dirichlet(np.ones(n), size=n) + 0.5 / n,
            rng.dirichlet(np.ones(a), size=n))
    k = draw(st.integers(0, 2))
    codes = np.arange(a ** k)
    rows = 0.5 * rng.dirichlet(np.ones(a), size=len(codes)) + 0.5 / a
    model = MarkovModel(k, Alphabet(tuple("abc"[:a])), codes, rows, [0], [1.0])
    return MarkovModel(k, model.alphabet, codes, rows, codes, stationary(model))


@given(_sources(), st.integers(1, 3), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_profile_matches_dict_oracle(source, k_max, extra):
    prof = estimate_profile(source, k_max=k_max, m_max=k_max + extra)
    rates, floor = dict_profile(source, k_max, k_max + extra)
    np.testing.assert_allclose(prof.rates, rates, rtol=0, atol=1e-15)
    assert abs(prof.floor - floor) <= 1e-15


def test_profile_json_round_trip(two_state_hmm):
    prof = estimate_profile(two_state_hmm, k_max=3, m_max=4)
    again = ContinuityProfile.from_json(prof.to_json())
    assert again == prof
    obj = prof.to_json()
    assert set(obj) == {"gamma", "p", "alpha", "horizon", "amax"}
