import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovdetect.corpus import Alphabet, TokenSeq, tokenize
from markovdetect.errors import AtomBudgetError, NonConvergenceError, UnseenContextError
from oracles import (
    bisect_sample,
    comparison_hmm_sample_windows,
    counter_fit_json,
    dense_stationary,
    eig_stationary,
    hmm_conditional,
    hmm_filter,
    hmm_window_log_prob,
    loop_log_likelihood,
    markov_conditional,
    model_from_dicts,
    per_window_model_windows,
    recursive_sequence_distribution,
    recursive_stationary_windows,
    searchsorted_hmm_sample,
    stall_power_iteration,
    unique_fit,
)

from markovdetect import markov
from markovdetect.bounds_lab import _close_gaps, _mix, _model_windows
from markovdetect.infometrics import _conditional_table, kl_rate
from markovdetect.markov import (
    ChainWalk,
    HiddenMarkovSource,
    InverseCDF,
    MarkovModel,
    chain_model,
    fit_empirical,
    hmm_forward,
    hmm_sample,
    hmm_sample_windows,
    iid_model,
    log_likelihood,
    sample,
    stationary,
    window_law,
    window_log_likelihood,
)
from markovdetect.util import decode, encode


@pytest.fixture
def aabab_model(ab_alphabet):
    seq, _ = tokenize("aabab", "char")
    return fit_empirical(seq, 1, ab_alphabet)


def _dense_law(model, m):
    """The window law of length ``m`` from the initial law, scattered into a
    vector indexed by sequence code."""
    codes, probs = window_law(model, m, (model.init_codes, model.init_probs))
    out = np.zeros(model.alphabet.size ** m)
    out[codes] = probs
    return out


def test_fit_hand_counts(aabab_model):
    m = aabab_model
    assert m.init_mass(0) == pytest.approx(0.75)
    assert m.init_mass(1) == pytest.approx(0.25)
    np.testing.assert_allclose(m.row((0,)), [1 / 3, 2 / 3])
    np.testing.assert_allclose(m.row((1,)), [1.0, 0.0])


def test_fit_order_zero_is_frequency(ab_alphabet):
    seq, _ = tokenize("aabab", "char")
    m = fit_empirical(seq, 0, ab_alphabet)
    np.testing.assert_allclose(m.row(()), [0.6, 0.4])


def test_score_hand_value(aabab_model):
    seq, _ = tokenize("aab", "char")
    got = log_likelihood(aabab_model, seq)
    assert got == pytest.approx(math.log(3 / 4) + math.log(1 / 3) + math.log(2 / 3))


def test_score_zero_transition_is_minus_inf(aabab_model):
    seq, _ = tokenize("abb", "char")  # b->b never observed
    assert log_likelihood(aabab_model, seq) == -math.inf


def test_score_unseen_context_raises(ab_alphabet):
    model = model_from_dicts(
        order=1,
        alphabet=ab_alphabet,
        transitions={(0,): np.array([0.5, 0.5])},
        init={(0,): 1.0},
    )
    seq = TokenSeq(np.array([0, 1, 0]))
    with pytest.raises(UnseenContextError):
        log_likelihood(model, seq)


def test_score_shorter_than_order_marginalizes(ab_alphabet):
    model = model_from_dicts(
        order=2,
        alphabet=ab_alphabet,
        transitions={},
        init={(0, 0): 0.25, (0, 1): 0.35, (1, 0): 0.4},
    )
    seq = TokenSeq(np.array([0]))
    assert log_likelihood(model, seq) == pytest.approx(math.log(0.6))


def test_fit_needs_enough_tokens(ab_alphabet):
    seq, _ = tokenize("ab", "char")
    with pytest.raises(ValueError):
        fit_empirical(seq, 2, ab_alphabet)


def test_fit_refuses_a_negative_order(ab_alphabet):
    seq, _ = tokenize("abab", "char")
    with pytest.raises(ValueError, match="order must be >= 0"):
        fit_empirical(seq, -1, ab_alphabet)


def test_smoothing_fills_row_zeros(ab_alphabet):
    seq, _ = tokenize("aabab", "char")
    m = fit_empirical(seq, 1, ab_alphabet, smoothing=0.5)
    assert m.row((1,))[1] == pytest.approx(0.5 / 2.0)
    assert m.row((1,)).sum() == pytest.approx(1.0)


def _symbols(a):
    return Alphabet(tuple(f"s{i}" for i in range(a)))


@pytest.mark.parametrize("a, k", [(3, 0), (17, 2), (256, 1), (257, 1), (41, 2)])
@pytest.mark.parametrize("smoothing", [0.0, 0.01])
def test_fit_counts_on_both_sides_of_the_cap(monkeypatch, a, k, smoothing):
    """While a**(k+1) <= DEFAULT_ATOM_CAP (256**2 is the cap itself) the fit
    counts every cell with one dense bincount; above it (257**2 = 66,049,
    41**3) it sorts the contexts with np.unique.  Either way the codes, rows
    and initial law are the np.unique fit's, bit for bit, on a text that
    leaves many contexts unseen."""
    rng = np.random.default_rng(a * 10 + k)
    tokens = rng.integers(0, a, size=4000)
    seq = TokenSeq(tokens[tokens % 3 != 1])
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kw: calls.append(1) or unique(*args, **kw))
    model = fit_empirical(seq, k, _symbols(a), smoothing)
    monkeypatch.undo()
    assert len(calls) == (a ** (k + 1) > markov.DEFAULT_ATOM_CAP)
    codes, rows, init = unique_fit(seq, k, _symbols(a), smoothing)
    assert model.codes.tobytes() == codes.tobytes()
    assert model.init_codes.tobytes() == codes.tobytes()
    assert model.rows.tobytes() == rows.tobytes()
    assert model.init_probs.tobytes() == init.tobytes()


def _lookup_models():
    """Models with every row, with missing rows, with none, and one whose
    a**k is above the cap."""
    yield chain_model([[0.5, 0.5], [0.2, 0.8]])
    seq, alphabet = tokenize("the quick brown fox jumps over the lazy dog. " * 3, "char")
    for k in (0, 1, 2, 3):
        yield fit_empirical(seq, k, alphabet, smoothing=0.01)
    yield MarkovModel(1, _symbols(3), [], np.empty((0, 3)), [0], [1.0])
    yield fit_empirical(TokenSeq(np.random.default_rng(3).integers(0, 257, size=3000)), 2,
                        _symbols(257))


def test_lookup_equals_a_search_of_the_sorted_codes():
    """The dense code -> row table below the cap gives every row index
    ``_find`` gives, -1 for an absent context and for a code outside
    0 .. a**k - 1 included, in the shape of the input."""
    int64 = np.iinfo(np.int64)
    gaps = 0
    for model in _lookup_models():
        size = model.alphabet.size ** model.order
        probe = np.concatenate([np.arange(min(size, 6000)), model.codes,
                                [-1, -size, size, size + 7, int64.max, int64.min]])
        want = markov._find(model.codes, probe)
        gaps += bool((want[:min(size, 6000)] < 0).any())
        for _ in range(2):  # the table is built on the first call
            assert np.array_equal(model.lookup(probe), want)
        assert np.array_equal(model.lookup(probe[:4].reshape(2, 2)), want[:4].reshape(2, 2))
        assert model.lookup(np.int64(size)) == -1
    assert gaps == 4  # orders 2 and 3, the empty model and the 257-symbol one


def test_row_sums_validated(ab_alphabet):
    with pytest.raises(ValueError):
        model_from_dicts(
            order=0,
            alphabet=ab_alphabet,
            transitions={(): np.array([0.6, 0.6])},
            init={(): 1.0},
        )


def test_stationary_hand_value(aabab_model):
    pi = stationary(aabab_model)
    assert pi[0] == pytest.approx(0.6, abs=1e-9)
    assert pi[1] == pytest.approx(0.4, abs=1e-9)


def test_stationary_is_fixed_point(rng):
    rows = rng.dirichlet(np.ones(3), size=3)
    model = chain_model(rows)
    pi = stationary(model)
    vec = np.array([pi[s] for s in range(3)])
    np.testing.assert_allclose(vec @ rows, vec, atol=1e-9)


def test_stationary_not_closed_raises(ab_alphabet):
    model = model_from_dicts(
        order=1,
        alphabet=ab_alphabet,
        transitions={(0,): np.array([0.5, 0.5])},
        init={(0,): 1.0},
    )
    with pytest.raises(UnseenContextError):
        stationary(model)


def test_chain_model_defaults_to_stationary_init():
    rows = np.array([[1 / 3, 2 / 3], [1.0, 0.0]])
    model = chain_model(rows)
    assert model.init_mass(0) == pytest.approx(0.6, abs=1e-9)


def test_reducible_chain_has_no_stationary_law():
    # two closed classes: power iteration alone would return a start-dependent mix
    rows = np.array([[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.3, 0.7], [0, 0, 0.6, 0.4]])
    codes = np.arange(4)
    alphabet = Alphabet(("s0", "s1", "s2", "s3"))
    with pytest.raises(NonConvergenceError, match=r"context \(0,\) cannot reach"):
        stationary(MarkovModel(1, alphabet, codes, rows, [0], [1.0]))
    with pytest.raises(NonConvergenceError):
        chain_model(rows)
    p = chain_model(rows, init=np.full(4, 0.25))
    q = chain_model(np.full((4, 4), 0.25))
    with pytest.raises(NonConvergenceError):
        kl_rate(p, q)


def test_transient_contexts_get_no_mass():
    # context 0 leaks into the closed class {1, 2} and is never entered again
    rows = np.array([[0.5, 0.25, 0.25], [0.0, 0.4, 0.6], [0.0, 0.7, 0.3]])
    pi = stationary(chain_model(rows))
    assert pi[0] <= 1e-14
    np.testing.assert_allclose(pi[1:], [0.7 / 1.3, 0.6 / 1.3], rtol=0, atol=1e-14)


def test_stationary_stops_at_the_rounding_floor(monkeypatch):
    # nearly periodic: the iterates end in a two-cycle of floats whose L1 step
    # stays above STATIONARY_TOL, so only the stall rule ends the sweeps
    rows = np.array([[0.06, 0.94], [0.97, 0.03]])
    monkeypatch.setattr(markov, "STATIONARY_MAX_ITER", 5000)
    monkeypatch.setattr(markov, "STATIONARY_STALL_SWEEPS", 10 ** 9)
    with pytest.raises(NonConvergenceError):
        chain_model(rows)
    monkeypatch.undo()
    pi = stationary(chain_model(rows))
    np.testing.assert_allclose(pi, [0.97 / 1.91, 0.94 / 1.91], rtol=0, atol=1e-15)


def test_periodic_chain_converges_through_its_lazy_chain():
    # period 2: from the uniform law the iterates cycle with an L1 step of 2/3
    # and power iteration alone never stops; (I + P) / 2 mixes in a few sweeps
    rows = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    with pytest.raises(NonConvergenceError):
        stall_power_iteration(MarkovModel(1, Alphabet(("a", "b", "c")), np.arange(3),
                                          rows, [0], [1.0]), max_iter=10 ** 4)
    start = time.perf_counter()
    model = chain_model(rows)
    pi = stationary(model)
    assert time.perf_counter() - start < 1.0
    np.testing.assert_allclose(pi, [0.25, 0.5, 0.25], rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.init_probs, [0.25, 0.5, 0.25], rtol=0, atol=1e-12)
    # period 3, and a periodic state chain of a hidden-Markov source
    np.testing.assert_allclose(stationary(chain_model(np.roll(np.eye(3), 1, axis=1))),
                               np.full(3, 1 / 3), rtol=0, atol=1e-12)
    source = HiddenMarkovSource.with_stationary_start(rows, np.eye(3))
    np.testing.assert_allclose(source.start, [0.25, 0.5, 0.25], rtol=0, atol=1e-12)


def _converging_chains():
    """Chains that power iteration settles without lazy sweeps: dense and
    sparse random rows, a nearly periodic pair that ends on the stall rule,
    and fitted order-1 and order-2 text models."""
    rng = np.random.default_rng(99)
    for a in (2, 3, 5, 17):
        yield chain_model(rng.dirichlet(np.ones(a), size=a))
        rows = rng.dirichlet(np.full(a, 0.2), size=a)
        rows[rows < 0.05] = 0.0
        rows[np.arange(a), (np.arange(a) + 1) % a] += 0.05
        yield MarkovModel(1, Alphabet(tuple(f"s{i}" for i in range(a))), np.arange(a),
                          rows / rows.sum(axis=1, keepdims=True), [0], [1.0])
    yield MarkovModel(1, Alphabet(("a", "b")), np.arange(2),
                      np.array([[0.06, 0.94], [0.97, 0.03]]), [0], [1.0])
    text = "the quick brown fox jumps over the lazy dog and then naps. " * 40
    seq, alphabet = tokenize(text, "char")
    for k in (1, 2):
        yield fit_empirical(seq, k, alphabet)


def test_stationary_bit_identical_on_chains_that_converge_without_lazy_sweeps():
    for model in _converging_chains():
        assert np.array_equal(stationary(model), stall_power_iteration(model))


@given(seed=st.integers(0, 2 ** 32 - 1), a=st.integers(2, 4), k=st.integers(1, 2),
       smoothing=st.sampled_from([0.01, 0.1, 0.5]))
@settings(max_examples=60, deadline=None)
def test_stationary_matches_dense_solve(seed, a, k, smoothing):
    rng = np.random.default_rng(seed)
    truth = chain_model(0.7 * rng.dirichlet(np.full(a, 0.5), size=a) + 0.3 / a)
    seq = sample(truth, 60 * a ** k, seed)
    model = fit_empirical(seq, k, Alphabet(tuple(f"s{i}" for i in range(a))), smoothing)
    try:
        pi = stationary(model)
    except UnseenContextError:  # a k-gram never seen before the last token
        return
    np.testing.assert_allclose(pi, dense_stationary(model), rtol=0, atol=1e-13)


# -- sampling ---------------------------------------------------------------


def test_sample_deterministic(aabab_model):
    a = sample(aabab_model, 50, seed=7).tokens
    b = sample(aabab_model, 50, seed=7).tokens
    c = sample(aabab_model, 50, seed=8).tokens
    assert (a == b).all()
    assert not (a == c).all()


def test_sample_respects_hard_zeros(aabab_model):
    toks = sample(aabab_model, 2000, seed=3).tokens
    pairs = set(zip(toks[:-1].tolist(), toks[1:].tolist()))
    assert (1, 1) not in pairs  # b never follows b in the fitted chain


def test_sample_frequencies_converge():
    model = iid_model([0.2, 0.8])
    toks = sample(model, 20_000, seed=11).tokens
    assert abs((toks == 0).mean() - 0.2) < 0.01


# -- sequence enumeration ---------------------------------------------------


def test_sequence_distribution_sums_to_one(aabab_model):
    for n in (1, 2, 5):
        vec = _dense_law(aabab_model, n)
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)


def test_sequence_distribution_matches_scoring(rng):
    rows = rng.dirichlet(np.ones(2), size=2)
    model = chain_model(rows)
    vec = _dense_law(model, 6)
    for idx in range(0, 64, 7):
        seq = TokenSeq(np.array([(idx >> (5 - i)) & 1 for i in range(6)]))
        assert math.log(vec[idx]) == pytest.approx(log_likelihood(model, seq), abs=1e-10)


def test_markov_conditional_short_context_mixes(aabab_model, rng):
    # context shorter than the order: weight rows by the stationary law of
    # contexts compatible with the suffix -- here the empty context
    full = markov_conditional(aabab_model, ())
    pi = stationary(aabab_model)
    expect = pi[0] * aabab_model.row((0,)) + pi[1] * aabab_model.row((1,))
    np.testing.assert_allclose(full, expect, atol=1e-9)
    # the profile's table of an order-2 chain on length-1 contexts mixes the same way
    codes = encode(np.array([[i, j] for i in range(3) for j in range(3)]), 3)
    model = MarkovModel(2, Alphabet(tuple("abc")), codes, rng.dirichlet(np.ones(3), size=9),
                        [0], [1.0])
    table_codes, rows = _conditional_table(model, 1)
    assert table_codes.tolist() == [0, 1, 2]
    for code, row in zip(table_codes.tolist(), rows):
        np.testing.assert_allclose(row, markov_conditional(model, (code,)), rtol=0, atol=1e-15)


# -- serialization ----------------------------------------------------------


def test_model_round_trip_is_exact(tmp_path, rng):
    rows = rng.dirichlet(np.ones(2), size=2)
    model = chain_model(rows)
    path = tmp_path / "model.json"
    model.save(path)
    again = MarkovModel.load(path)
    assert again.order == model.order
    assert (again.codes == model.codes).all() and (again.rows == model.rows).all()
    assert (again.init_codes == model.init_codes).all()
    assert (again.init_probs == model.init_probs).all()
    model.save(tmp_path / "model2.json")
    assert path.read_bytes() == (tmp_path / "model2.json").read_bytes()


def test_model_file_with_contexts_out_of_code_order_loads_the_same(tmp_path):
    """A model file may list its transitions and initial law in any order:
    the loaded model sorts them by code, rows and masses following."""
    seq, alphabet = tokenize("the cat sat on the mat; a bat ate the hat. " * 5, "char")
    model = fit_empirical(seq, 2, alphabet, smoothing=0.1, scheme="char")
    obj = model.to_json()
    shuffle = np.random.default_rng(7).permutation
    for key in ("transitions", "init"):
        obj[key] = [obj[key][i] for i in shuffle(len(obj[key])).tolist()]
    assert obj["transitions"] != model.to_json()["transitions"]
    assert obj["init"] != model.to_json()["init"]
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    again = MarkovModel.load(path)
    assert again.to_json() == model.to_json()
    assert log_likelihood(again, seq) == log_likelihood(model, seq)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_sample_seed_stability(seed):
    model = iid_model([0.5, 0.5])
    assert (sample(model, 10, seed=seed).tokens == sample(model, 10, seed=seed).tokens).all()


def test_nan_and_negative_masses_rejected(ab_alphabet):
    with pytest.raises(ValueError):
        iid_model([math.nan, 0.5, 0.5])
    with pytest.raises(ValueError):
        chain_model([[0.5, 0.5], [math.nan, 1.0]], init=[0.5, 0.5])
    with pytest.raises(ValueError):
        MarkovModel(1, ab_alphabet, [0, 1], np.full((2, 2), 0.5), [0, 1], [-0.5, 1.5])
    with pytest.raises(ValueError):
        MarkovModel(1, ab_alphabet, [0, 1], np.full((2, 2), 0.5), [0, 1], [math.nan, 1.0])


# -- hidden-Markov sources --------------------------------------------------


def test_hmm_rows_validated():
    with pytest.raises(ValueError):
        HiddenMarkovSource(
            transition=np.array([[0.5, 0.6], [0.5, 0.5]]),
            emission=np.eye(2),
            start=np.array([0.5, 0.5]),
        )


@pytest.mark.parametrize("field", ["transition", "emission", "start"])
def test_hmm_nan_masses_rejected(field):
    arrays = {"transition": np.full((2, 2), 0.5), "emission": np.eye(2),
              "start": np.array([0.5, 0.5])}
    arrays[field].flat[0] = math.nan
    with pytest.raises(ValueError):
        HiddenMarkovSource(**arrays)


def test_hmm_stationary_start_is_fixed_point(two_state_hmm):
    start = two_state_hmm.start
    np.testing.assert_allclose(start @ two_state_hmm.transition, start, atol=1e-12)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_hmm_stationary_start_matches_eig(seed, n):
    # half of every row uniform keeps the chain mixing at rate <= 1/2, where
    # the power-iteration law is within ~STATIONARY_TOL of the eigenvector
    rng = np.random.default_rng(seed)
    transition = 0.5 * rng.dirichlet(np.ones(n), size=n) + 0.5 / n
    emission = rng.dirichlet(np.ones(3), size=n)
    start = HiddenMarkovSource.with_stationary_start(transition, emission).start
    np.testing.assert_allclose(start, eig_stationary(transition), rtol=0, atol=1e-14)


def test_hmm_stationary_start_validates_first():
    with pytest.raises(ValueError):
        HiddenMarkovSource.with_stationary_start([[0.5, 0.6], [0.5, 0.5]], np.eye(2))


def test_hmm_window_law_normalizes(two_state_hmm):
    _, log_p = hmm_forward(two_state_hmm, decode(np.arange(8), 2, 3))
    assert np.exp(log_p).sum() == pytest.approx(1.0, abs=1e-12)


def test_hmm_filter_belief_normalizes(two_state_hmm):
    belief, log_p = hmm_forward(two_state_hmm, [[0, 1, 1, 0], [1, 1, 0, 0]])
    np.testing.assert_allclose(belief.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for row, window in zip(belief, ([0, 1, 1, 0], [1, 1, 0, 0])):
        np.testing.assert_array_equal(row, hmm_filter(two_state_hmm, window)[0])
    assert log_p[0] == pytest.approx(hmm_window_log_prob(two_state_hmm, [0, 1, 1, 0]))


def test_hmm_conditional_matches_ratio(two_state_hmm):
    # conditional next-symbol law = window(ctx+sym) / window(ctx)
    ctx = [0, 1, 0]
    belief, log_ctx = hmm_forward(two_state_hmm, [ctx])
    cond = (belief[0] @ two_state_hmm.transition) @ two_state_hmm.emission
    np.testing.assert_allclose(cond, hmm_conditional(two_state_hmm, ctx), rtol=0, atol=1e-15)
    _, log_next = hmm_forward(two_state_hmm, [ctx + [0], ctx + [1]])
    np.testing.assert_allclose(cond, np.exp(log_next - log_ctx[0]), rtol=0, atol=1e-12)


def test_hmm_forward_matches_filter_on_sampled_windows(two_state_hmm):
    # the source of acceptance criterion C8, at the width fitted_divergence_eval uses
    windows = hmm_sample_windows(two_state_hmm, 2000, 12, seed=3)
    belief, log_p = hmm_forward(two_state_hmm, windows)
    np.testing.assert_array_equal(log_p, [hmm_window_log_prob(two_state_hmm, w) for w in windows])
    np.testing.assert_array_equal(belief, [hmm_filter(two_state_hmm, w)[0] for w in windows])


@given(seed=st.integers(0, 2 ** 32 - 1), states=st.integers(1, 4), a=st.integers(2, 4),
       width=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_hmm_forward_matches_filter(seed, states, a, width):
    rng = np.random.default_rng(seed)
    # zeroed entries make some windows impossible
    emission = rng.dirichlet(np.ones(a), size=states) * (rng.random((states, a)) < 0.8)
    emission[:, 0] += 1e-3
    source = HiddenMarkovSource.with_stationary_start(
        0.5 * rng.dirichlet(np.ones(states), size=states) + 0.5 / states,
        emission / emission.sum(axis=1, keepdims=True))
    windows = rng.integers(0, a, size=(30, width))
    belief, log_p = hmm_forward(source, windows)
    for row, lp, window in zip(belief, log_p, windows):
        try:
            want_belief, want_lp = hmm_filter(source, window)
        except UnseenContextError:
            assert lp == -np.inf and not row.any()
            continue
        np.testing.assert_allclose(row, want_belief, rtol=1e-13, atol=1e-15)
        assert lp == pytest.approx(want_lp, rel=1e-13, abs=1e-13)


def test_hmm_forward_refuses_bad_windows(two_state_hmm):
    for bad in ([0, 1], [[0, 2]], [[-1, 0]]):
        with pytest.raises(ValueError):
            hmm_forward(two_state_hmm, bad)


def test_hmm_sampling_deterministic(two_state_hmm):
    a = hmm_sample(two_state_hmm, 100, seed=5).tokens
    b = hmm_sample(two_state_hmm, 100, seed=5).tokens
    assert (a == b).all()


def test_hmm_sample_windows_shape_and_determinism(two_state_hmm):
    w1 = hmm_sample_windows(two_state_hmm, 40, 6, seed=9)
    w2 = hmm_sample_windows(two_state_hmm, 40, 6, seed=9)
    assert w1.shape == (40, 6)
    assert (w1 == w2).all()


def test_hmm_sample_windows_clamps_draws(monkeypatch):
    """Rows summing to just under one: a uniform above a row's last
    cumulative sum draws the last state or symbol, as in hmm_sample."""
    source = HiddenMarkovSource(
        transition=np.array([[0.5, 0.5 - 4e-10], [0.3, 0.7 - 4e-10]]),
        emission=np.array([[0.2, 0.3, 0.5 - 4e-10], [0.6, 0.1, 0.3 - 4e-10]]),
        start=np.array([1.0, 0.0]),
    )

    class TopRng:
        def random(self, size):
            return np.full(size, np.nextafter(1.0, 0.0))

    monkeypatch.setattr(markov, "spawn_rng", lambda seed, *key: TopRng())
    assert np.array_equal(hmm_sample_windows(source, 5, 4, seed=0), np.full((5, 4), 2))


def test_hidden_markov_source_refuses_mismatched_shapes():
    """A transition that is not square, an emission without one row per
    state and a start law without one mass per state are refused, not
    clamped by the samplers or broadcast by the forward recursion."""
    square = np.array([[0.9, 0.1], [0.2, 0.8]])
    emission = np.array([[0.8, 0.2], [0.3, 0.7]])
    for transition, emit, start in ((np.full((2, 3), 1 / 3), emission, [0.5, 0.5]),
                                    (square, np.full((3, 2), 0.5), [0.5, 0.5]),
                                    (square, emission, np.full(3, 1 / 3)),
                                    (square, emission, [[0.5, 0.5]])):
        with pytest.raises(ValueError, match="must be"):
            HiddenMarkovSource(transition, emit, start)
    assert HiddenMarkovSource(square, np.full((2, 3), 1 / 3), [0.5, 0.5]).alphabet_size == 3


def _c8_source():
    return HiddenMarkovSource.with_stationary_start(
        transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
        emission=np.array([[0.8, 0.2], [0.3, 0.7]]))


def _dirichlet_sources(count):
    """Random sources of 1-4 states (one state is an i.i.d. source) and 2-4
    symbols."""
    rng = np.random.default_rng(2025)
    for _ in range(count):
        s, a = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        yield HiddenMarkovSource(rng.dirichlet(np.ones(s), size=s),
                                 rng.dirichlet(np.ones(a), size=s), rng.dirichlet(np.ones(s)))


def test_hmm_samplers_match_per_symbol_oracles():
    """hmm_sample and hmm_sample_windows draw what the per-symbol searches
    drew, bit for bit: on the C8 source with the seeds approx_experiment and
    fitted_divergence_eval derive, and on random Dirichlet sources."""
    source = _c8_source()
    for m in (1_000, 10_000, 100_000):
        for tag in (30, 40):
            seed = _mix(0, tag, m)
            assert np.array_equal(hmm_sample(source, m, seed).tokens,
                                  searchsorted_hmm_sample(source, m, seed).tokens), (m, tag)
        for tag in (31, 41):
            seed = _mix(0, tag, m)
            assert np.array_equal(hmm_sample_windows(source, 1000, 6, seed),
                                  comparison_hmm_sample_windows(source, 1000, 6, seed))
    for i, source in enumerate(_dirichlet_sources(100)):
        assert np.array_equal(hmm_sample(source, 300, i).tokens,
                              searchsorted_hmm_sample(source, 300, i).tokens), i
        for width in (0, 1, 5):
            assert np.array_equal(hmm_sample_windows(source, 40, width, i),
                                  comparison_hmm_sample_windows(source, 40, width, i)), i


def test_model_windows_match_per_window_samples_on_c8_fits():
    """The one-walk model windows equal one bisect sample per window, bit for
    bit, for the closed fits of orders 0-3 on C8 training paths and widths
    below, at and above the order."""
    source = _c8_source()
    for m in (1_000, 10_000, 100_000):
        train = hmm_sample(source, m, _mix(0, 30, m))
        for k in range(4):
            model, _ = _close_gaps(fit_empirical(train, k, Alphabet(("0", "1"))))
            for width in (1, 2, 3, 6):
                seed = _mix(0, 32, m)
                assert np.array_equal(_model_windows(model, 200, width, seed),
                                      per_window_model_windows(model, 200, width, seed))


def _chain_draws_or_refusal(draw):
    try:
        return draw()
    except UnseenContextError:
        return UnseenContextError


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_chain_samplers_match_bisect_oracle(k, smoothing):
    """sample and the vectorized window walk draw the bisect oracle's tokens
    for fitted 3-symbol chains at lengths below, at and above the order, and
    refuse where it refuses: a text whose last symbol occurs nowhere else
    leaves the contexts that end in it without rows."""
    rng = np.random.default_rng(10 * k + int(10 * smoothing))
    alphabet = Alphabet(("a", "b", "c"))
    refused = 0
    for text in (np.concatenate([rng.choice(2, size=11), [2]]),
                 rng.choice(3, size=400, p=[0.5, 0.3, 0.2])):
        model = fit_empirical(TokenSeq(text), k, alphabet, smoothing)
        for n in (1, 2, 3, 40):
            want = [_chain_draws_or_refusal(lambda: bisect_sample(model, n, seed).tokens)
                    for seed in range(30)]
            got = [_chain_draws_or_refusal(lambda: sample(model, n, seed).tokens)
                   for seed in range(30)]
            for g, w in zip(got, want):
                assert g is w if w is UnseenContextError else np.array_equal(g, w), (n, g, w)
            refused += sum(w is UnseenContextError for w in want)
            windows = _chain_draws_or_refusal(lambda: _model_windows(model, 30, n, 5))
            oracle = _chain_draws_or_refusal(lambda: per_window_model_windows(model, 30, n, 5))
            if oracle is UnseenContextError:
                assert windows is UnseenContextError
            else:
                assert np.array_equal(windows, oracle)
    if k:
        assert refused > 0


def test_inverse_cdf_draws_equal_full_comparisons():
    """Rows with zeros, ties with the uniform, sums just below and above 1,
    and values scaled past 1 by an initial law's total: every draw is the
    count of cumulative sums below the value or equal to 0, clamped to the
    last column."""
    rows = np.array([[0.25, 0.0, 0.25, 0.5], [0.0, 0.0, 1.0, 0.0],
                     [0.1, 0.2, 0.3, 0.4 - 4e-10], [0.5, 0.5 - 2e-10, 4e-10, 0.0]])
    cum = np.cumsum(rows, axis=1)
    draw = InverseCDF(rows)
    u = np.concatenate([np.random.default_rng(0).random(4000), [0.0, 0.25, 0.5, 0.75],
                        np.full(4, np.nextafter(1.0, 0.0))])
    for row in range(4):
        for values in (u, u * draw.total[row]):
            want = np.minimum(((values[:, None] > cum[row]) | (cum[row] <= 0)).sum(axis=1), 3)
            assert np.array_equal(draw(np.full(len(values), row), values) - 4 * row, want)


def _cell_kind_rows(a, rng):
    """Rows of ``a`` columns that put every kind of guide cell to work: a
    Dirichlet row; masses of 1e-12 beside one large mass, so several sums
    share the first and the last cells; zero-mass columns at the start, in
    the middle and at the end; a row summing 4e-10 below 1 (the clamp) and
    one 4e-10 above it (an initial law within tolerance); and dyadic masses,
    whose sums fall on cell edges."""
    if a == 1:
        return np.array([[1.0], [1.0 - 4e-10], [1.0 + 4e-10]])
    rows = [rng.dirichlet(np.ones(a))]
    tiny = np.full(a, 1e-12)
    tiny[a // 2] = 1.0 - (a - 1) * 1e-12
    rows.append(tiny)
    for zero in ([0, a // 2, a - 1] if a > 2 else [[0], [1]]):
        row = rng.dirichlet(np.ones(a))
        row[zero] = 0.0
        rows.append(row / row.sum())
    for shift in (-4e-10, 4e-10):
        row = rng.dirichlet(np.ones(a))
        row[np.argmax(row)] += shift
        rows.append(row)
    dyadic = np.full(a, 2.0 ** -(a - 1).bit_length())
    dyadic[-1] = 1.0 - dyadic[:-1].sum()
    rows.append(dyadic)
    return np.array(rows)


@pytest.mark.parametrize("guide_cap", [markov.GUIDE_CELL_CAP, 1])
@pytest.mark.parametrize("a", [1, 2, 17, 103])
def test_inverse_cdf_cell_kinds_equal_full_comparisons(monkeypatch, a, guide_cap):
    """Cells with no sum, one sum and several sums inside, for uniforms of 0,
    equal to a cumulative sum, on a cell edge, just beside a sum, the
    largest double below 1, and scaled by a row's total as an initial law's
    are: every draw is the count of cumulative sums below the value or equal
    to 0, clamped to the last column."""
    monkeypatch.setattr(markov, "GUIDE_CELL_CAP", guide_cap)
    rng = np.random.default_rng(a)
    rows = _cell_kind_rows(a, rng)
    cum = np.cumsum(rows, axis=1)
    draw = InverseCDF(rows)
    kinds = set()
    for row in range(len(rows)):
        sums = cum[row][cum[row] < 1.0]
        u = np.concatenate([rng.random(3000), [0.0, np.nextafter(1.0, 0.0)], sums,
                            np.nextafter(sums, 0.0), np.nextafter(sums, 1.0),
                            np.arange(draw.g) / draw.g])
        for values in (u, u * draw.total[row]):
            want = np.minimum(((values[:, None] > cum[row]) | (cum[row] <= 0)).sum(axis=1), a - 1)
            assert np.array_equal(draw(np.full(len(values), row), values) - a * row, want), row
            cell = row * draw.cells + (values * draw.g).astype(np.int64)
            kinds |= set(np.where(draw.guide[cell] >= 0, "easy",
                                  np.where(draw.several[cell], "several", "one")).tolist())
    if guide_cap > 1 and a > 2:
        assert kinds == {"easy", "one", "several"}


def test_zero_uniform_draws_the_first_column_with_mass():
    """A uniform of exactly 0 skips one or two leading zero-mass columns, in
    the guide table draw and in a walk's start pick and steps, by path and by
    windows alike."""
    rows = np.array([[0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [0.2, 0.0, 0.8]])
    assert (InverseCDF(rows)(np.arange(3), np.zeros(3)) % 3).tolist() == [2, 1, 0]
    states = np.arange(3)
    # from state s a 0 draws column [2, 1, 0][s], which is the next state
    for start, want in (([0.0, 0.0, 1.0], [2, 0, 2, 0]), ([0.0, 0.3, 0.7], [1, 1, 1, 1])):
        walk = ChainWalk(rows, np.broadcast_to(states, rows.shape), np.array(start),
                         states, states[:, None])
        assert walk.path(4, np.zeros(4)).tolist() == want
        assert walk.windows(4, np.zeros((3, 4))).tolist() == [want] * 3


def test_chain_walk_refuses_to_draw_from_a_context_without_row():
    rows = {(0,): np.array([0.5, 0.5, 0.0]), (1,): np.array([0.0, 0.5, 0.5])}
    model = model_from_dicts(1, Alphabet(("a", "b", "c")), rows, {(0,): 1.0})
    walk = ChainWalk.of(model)
    # (0,) -> 0 or 1 -> 1 or 2: three symbols never draw from (2,)
    assert walk.windows(3, np.random.default_rng(0).random((50, 3))).shape == (50, 3)
    with pytest.raises(UnseenContextError, match="no row"):
        walk.windows(10, np.random.default_rng(0).random((50, 10)))
    with pytest.raises(UnseenContextError, match="no row"):
        sample(model, 200, seed=0)


def test_hmm_window_frequencies_match_law(two_state_hmm):
    wins = hmm_sample_windows(two_state_hmm, 30_000, 2, seed=21)
    emp = np.zeros(4)
    for a, b in wins:
        emp[2 * a + b] += 1
    emp /= len(wins)
    _, log_p = hmm_forward(two_state_hmm, decode(np.arange(4), 2, 2))
    assert np.abs(emp - np.exp(log_p)).max() < 0.01


# -- integer context codes against the tuple oracles -----------------------


@st.composite
def _words(draw):
    a = draw(st.integers(2, 300))
    length = draw(st.integers(0, 7))
    if a ** length > 2 ** 63:
        length = int(63 // math.log2(a))
    rows = draw(st.lists(st.lists(st.integers(0, a - 1), min_size=length, max_size=length),
                         min_size=1, max_size=20))
    return a, length, rows


@given(_words())
@settings(max_examples=100, deadline=None)
def test_decode_inverts_encode_in_lexicographic_order(case):
    a, length, rows = case
    words = np.array(rows, dtype=np.int64).reshape(len(rows), length)
    codes = encode(words, a)
    assert (decode(codes, a, length) == words).all()
    order = sorted(range(len(rows)), key=lambda i: (rows[i], i))
    assert (np.argsort(codes, kind="stable") == order).all()


def test_encode_refuses_codes_beyond_int64():
    assert int(encode((255,) * 7, 256)) == 256 ** 7 - 1
    with pytest.raises(AtomBudgetError):
        encode((0,) * 8, 256)


@given(st.sampled_from([2, 3, 17]), st.integers(0, 3), st.sampled_from([0.0, 0.01]),
       st.integers(0, 2 ** 32 - 1), st.integers(5, 400))
@settings(max_examples=60, deadline=None)
def test_fit_matches_counter_oracle(a, k, smoothing, seed, length):
    """The code-based fit writes the same model JSON as a fit on tuple counters."""
    rng = np.random.default_rng(seed)
    # skewed symbol laws leave contexts unseen and row entries zero
    toks = rng.choice(a, size=length, p=rng.dirichlet(np.full(a, 0.5)))
    seq = TokenSeq(toks)
    alphabet = Alphabet(tuple(f"s{i}" for i in range(a)))
    got = fit_empirical(seq, k, alphabet, smoothing=smoothing, scheme="char")
    assert got.to_json() == counter_fit_json(seq, k, alphabet, smoothing, "char")


def _random_chain(rng, a, k):
    """Order-k chain with a row for every context, about a third of the
    entries zero, and a start law with zeros."""
    n = a ** k
    rows = rng.dirichlet(np.ones(a), size=n) * (rng.random((n, a)) > 0.33)
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    start = rng.random(n) * (rng.random(n) > 0.25)
    start[0] += 0.1
    start /= start.sum()
    codes = np.arange(n)
    return MarkovModel(k, Alphabet(tuple(f"s{i}" for i in range(a))), codes, rows,
                       codes, start)


@given(st.sampled_from([2, 3]), st.integers(0, 2), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_window_law_matches_recursions_bit_for_bit(a, k, m, seed):
    model = _random_chain(np.random.default_rng(seed), a, k)
    assert np.array_equal(_dense_law(model, m),
                          recursive_sequence_distribution(model, m))
    if m >= k:
        start = model.init_probs[::-1]  # any law over the contexts
        codes, mass = window_law(model, m, (model.codes, start))
        want = recursive_stationary_windows(model, m, start)
        assert [tuple(w) for w in decode(codes, a, m).tolist()] == [w for w, _ in want]
        assert np.array_equal(mass, [p for _, p in want])


@given(st.sampled_from([2, 3, 17]), st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_log_likelihood_matches_token_loop(a, k, seed, length):
    """Same value as the math.log loop up to one rounding per token (np.log and
    math.log may differ in the last bit), the same -inf and the same refusals."""
    rng = np.random.default_rng(seed)
    law = rng.dirichlet(np.full(a, 0.5))
    alphabet = Alphabet(tuple(f"s{i}" for i in range(a)))
    model = fit_empirical(TokenSeq(rng.choice(a, size=200 + k, p=law)), k, alphabet)
    seq = TokenSeq(rng.choice(a, size=max(length, k), p=law))
    try:
        want = loop_log_likelihood(model, seq)
    except UnseenContextError:
        with pytest.raises(UnseenContextError):
            log_likelihood(model, seq)
        return
    got = log_likelihood(model, seq)
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=len(seq) * 4e-16, abs=1e-300)


@given(st.sampled_from([2, 3]), st.integers(0, 3), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_window_log_likelihood_matches_token_loop_per_row(a, k, m, seed):
    """Each row, shorter than the order or not, gets the loop's value up to
    one rounding per token, the same -inf and the same refusal; the batch
    refuses when a row does and otherwise returns the rows' values."""
    rng = np.random.default_rng(seed)
    alphabet = Alphabet(tuple(f"s{i}" for i in range(a)))
    # a short unsmoothed fit leaves zeros, unseen contexts and missing k-grams
    model = fit_empirical(TokenSeq(rng.choice(a, size=k + 10)), k, alphabet)
    windows = rng.choice(a, size=(6, m))
    refused, rows = False, []
    for window in windows:
        try:
            want = loop_log_likelihood(model, TokenSeq(window))
        except UnseenContextError:
            refused = True
            with pytest.raises(UnseenContextError):
                window_log_likelihood(model, window[None, :])
            continue
        got = window_log_likelihood(model, window[None, :])
        assert got.shape == (1,)
        rows.append(got[0])
        if math.isinf(want):
            assert got[0] == want
        else:
            assert got[0] == pytest.approx(want, rel=m * 4e-16, abs=1e-300)
    if refused:
        with pytest.raises(UnseenContextError):
            window_log_likelihood(model, windows)
    else:
        assert np.array_equal(window_log_likelihood(model, windows), rows)


def test_window_log_likelihood_refuses_bad_shapes(aabab_model):
    with pytest.raises(ValueError):
        window_log_likelihood(aabab_model, [0, 1])
    with pytest.raises(ValueError, match="empty"):
        window_log_likelihood(aabab_model, np.zeros((3, 0), dtype=np.int64))
