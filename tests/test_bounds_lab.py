import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from markovdetect import bounds_lab
from markovdetect.bounds_lab import (
    ApproxBoundInputs,
    approx_bound,
    approx_experiment,
    digit_alphabet,
    divergence_transport_probe,
    fitted_divergence_eval,
    forward_pinsker_holds,
    reverse_pinsker_check,
    transport_vs_divergence_check,
    _close_gaps,
    _mix,
)
from markovdetect.corpus import Alphabet, tokenize
from markovdetect.errors import BoundInapplicableError, SupportViolationWarning
from markovdetect.infometrics import ContinuityProfile, kl
from markovdetect.markov import HiddenMarkovSource, fit_empirical, sample
from markovdetect.transport import dbar_value, tv
from markovdetect.util import spawn_rng

from oracles import scalar_mix


@pytest.fixture
def hand_profile():
    return ContinuityProfile(rates=(0.1, 0.0), floor=0.2, alphabet_size=2)


def _nu_for_order_one(m):
    return 1.0 / math.log(m)


def test_bound_hand_value(hand_profile):
    inputs = ApproxBoundInputs(10_000, _nu_for_order_one(10_000), 0.25, hand_profile)
    assert inputs.order == 1
    assert approx_bound(inputs) == pytest.approx(7.9125, abs=1e-9)


def test_bound_vanishing_rate_leaves_tail_term():
    prof = ContinuityProfile(rates=(0.0,), floor=0.3, alphabet_size=2)
    inputs = ApproxBoundInputs(10_000, _nu_for_order_one(10_000), 0.25, prof)
    assert approx_bound(inputs) == pytest.approx(10_000 ** -0.25, abs=1e-12)


def test_bound_nonincreasing_in_train_len(hand_profile):
    # same resolved order, larger sample: only the tail term moves
    values = []
    for m in (9_000, 12_000, 20_000):
        inputs = ApproxBoundInputs(m, _nu_for_order_one(m), 0.25, hand_profile)
        assert inputs.order == 1
        values.append(approx_bound(inputs))
    assert values[0] > values[1] > values[2]


def test_bound_admissibility(hand_profile):
    # rate_exponent must stay below tail_exponent / |ln floor|
    with pytest.raises(BoundInapplicableError):
        ApproxBoundInputs(10_000, 0.2, 0.25, hand_profile)


def test_bound_rejects_order_beyond_horizon(hand_profile):
    inputs = ApproxBoundInputs(10 ** 9, 0.144, 0.4, hand_profile)
    assert inputs.order > hand_profile.horizon
    with pytest.raises(BoundInapplicableError):
        approx_bound(inputs)


def test_inputs_validation(hand_profile):
    with pytest.raises(ValueError):
        ApproxBoundInputs(10_000, -0.1, 0.25, hand_profile)
    with pytest.raises(ValueError):
        ApproxBoundInputs(10_000, 0.05, 0.6, hand_profile)


# -- theorem-backed checks --------------------------------------------------


def _product(p, m):
    v = np.array([1.0])
    for _ in range(m):
        v = np.kron(v, np.asarray(p, dtype=float))
    return v


def test_transport_vs_divergence_product_pairs(rng):
    for _ in range(200):
        m = int(rng.integers(1, 6))
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2))
        chk = transport_vs_divergence_check(_product(p, m), _product(q, m), m)
        assert chk.holds


def test_transport_vs_divergence_spec_instance():
    # worked instance: fair coin against (0.9, 0.1), three letters, no slack.
    # the inequality holds with either divergence direction on this pair
    lhs_fwd = transport_vs_divergence_check(_product([0.5, 0.5], 3), _product([0.9, 0.1], 3), 3)
    lhs_rev = transport_vs_divergence_check(_product([0.9, 0.1], 3), _product([0.5, 0.5], 3), 3)
    assert lhs_fwd.lhs == pytest.approx(0.4, abs=1e-9)
    assert lhs_fwd.holds and lhs_rev.holds
    assert lhs_rev.rhs == pytest.approx(math.sqrt(3 * 0.36798 / 6), abs=1e-4)


def test_transport_vs_divergence_infinite_divergence_flagged():
    with pytest.warns(SupportViolationWarning):
        chk = transport_vs_divergence_check(
            [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], 2
        )
    assert chk.holds
    assert "vacuous" in chk.note


def test_identical_laws_trivial():
    chk = transport_vs_divergence_check([0.25] * 4, [0.25] * 4, 2)
    assert chk.lhs == pytest.approx(0.0, abs=1e-11)
    assert chk.holds


def test_reverse_pinsker_l1_sweep(rng):
    for _ in range(2_000):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        if q.min() < 0.05:
            continue
        assert reverse_pinsker_check(p, q, "l1")["holds"]


def test_reverse_pinsker_spec_instance():
    out = reverse_pinsker_check([0.5, 0.5], [0.9, 0.1], "l1")
    assert out["lhs"] == pytest.approx(0.5 * math.log(25 / 9), abs=1e-12)
    assert out["rhs"] == pytest.approx(6.4, abs=1e-12)
    assert out["holds"]


def test_reverse_pinsker_tv_convention_can_fail():
    """Witness that the half-normalized convention is genuinely weaker --
    this is why the suite asserts only the full-L1 form."""
    p, q = [0.01, 0.99], [0.2, 0.8]
    l1_form = reverse_pinsker_check(p, q, "l1")
    tv_form = reverse_pinsker_check(p, q, "tv")
    assert l1_form["holds"]
    assert not tv_form["holds"]


def test_reverse_pinsker_rejects_zero_floor():
    with pytest.raises(BoundInapplicableError):
        reverse_pinsker_check([0.5, 0.5], [1.0, 0.0])


def test_forward_pinsker_sweep(rng):
    for _ in range(2_000):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert forward_pinsker_holds(p, q, kl(p, q))


# -- probes -----------------------------------------------------------------


def test_probe_deterministic():
    a = divergence_transport_probe(2, 2, 150, "dirichlet-uniform", seed=11)
    b = divergence_transport_probe(2, 2, 150, "dirichlet-uniform", seed=11)
    assert a.to_json() == b.to_json()
    c = divergence_transport_probe(2, 2, 150, "dirichlet-uniform", seed=12)
    assert c.sup_ratio != a.sup_ratio


def test_probe_single_letter_matches_kl_over_tv(rng):
    """m=1 coherence: each probe ratio equals kl/tv^2 recomputed from the
    instance distributions by the metric modules directly."""
    report = divergence_transport_probe(2, 1, 200, "dirichlet-uniform", seed=4)
    from markovdetect.util import spawn_rng

    for point in report.points[:50]:
        rng_i = spawn_rng(4, 20, point.index)
        mu = rng_i.dirichlet(np.ones(2))
        nu = rng_i.dirichlet(np.ones(2))
        assert point.ratio == pytest.approx(kl(mu, nu) / tv(mu, nu) ** 2, rel=1e-9)


def test_probe_stack_matches_pair_by_pair(monkeypatch):
    """The probe's stacked divergences, Pinsker gates and transport values
    give the points and counts of pair-by-pair calls: identical pairs
    (transport 0), zeros in mu (the masked divergence) and holes in nu
    (infinite divergence) are excluded or kept as one pair alone would be."""
    gen = np.random.default_rng(5)
    pairs = []
    for i in range(120):
        mu, nu = gen.dirichlet(np.ones(8)), gen.dirichlet(np.ones(8))
        if i % 4 == 1:
            nu = mu.copy()
        elif i % 4 == 2:
            mu[i % 8] = 0.0
        elif i % 4 == 3:
            nu[i % 8] = 0.0
        pairs.append((mu / mu.sum(), nu / nu.sum()))

    mus, nus = (np.array(laws) for laws in zip(*pairs))
    monkeypatch.setattr(bounds_lab, "_probe_laws", lambda *args: (mus, nus))
    with pytest.warns(SupportViolationWarning):
        report = divergence_transport_probe(2, 3, 120, seed=0)
    want = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportViolationWarning)
        for i, (mu, nu) in enumerate(pairs):
            div = kl(mu, nu)
            assert forward_pinsker_holds(mu, nu, div)
            value, _ = dbar_value(mu, nu, 3)
            if value >= 1e-9 and not math.isinf(div):
                want.append((i, float(nu.min()), value, div, div / value ** 2))
    got = [(p.index, p.qmin, p.dbar, p.divergence, p.ratio) for p in report.points]
    assert got == want
    assert report.excluded == 120 - len(want) == 60
    assert report.violations == 0
    assert report.engine == "tree-enumeration"


@pytest.mark.parametrize("sampler", sorted(bounds_lab.SAMPLERS))
@pytest.mark.parametrize("n_atoms", [2, 4, 8, 16])
def test_probe_laws_are_the_dirichlet_draws_of_each_instance(sampler, n_atoms):
    """Gammas normalized by their sequential sum are ``rng.dirichlet``'s bits
    only for alpha >= 0.1 (numpy draws smaller alphas by stick-breaking), so a
    sampler below that fails here rather than moving every probe digest."""
    alpha = bounds_lab.SAMPLERS[sampler]
    mus, nus = bounds_lab._probe_laws(n_atoms, 60, alpha, 3)
    for i in range(60):
        rng = spawn_rng(3, 20, i)
        assert np.array_equal(mus[i], rng.dirichlet(np.full(n_atoms, alpha)))
        assert np.array_equal(nus[i], rng.dirichlet(np.full(n_atoms, alpha)))


def test_mix_is_the_scalar_seed_sequence_formula():
    keys = [0, 1, 7, 1000, 2 ** 31, 2 ** 32 - 1]
    for seed in (0, 1, 2 ** 32, 2 ** 40):
        for tag in (30, 34):
            want = [scalar_mix(seed, tag, m) for m in keys]
            assert [_mix(seed, tag, m) for m in keys] == want
            assert _mix(seed, tag, np.array(keys)).tolist() == want
        assert _mix(seed, 30, 2 ** 70) == scalar_mix(seed, 30, 2 ** 70)


def test_probe_boundary_bias_raises_ratios():
    flat = divergence_transport_probe(2, 1, 400, "dirichlet-uniform", seed=0)
    edge = divergence_transport_probe(2, 1, 400, "boundary-biased", seed=0)
    assert edge.sup_ratio > flat.sup_ratio
    assert flat.violations == edge.violations == 0


def test_probe_report_fields(tmp_path):
    rep = divergence_transport_probe(2, 2, 120, "dirichlet-uniform", seed=9)
    assert rep.instance_count == 120
    assert rep.excluded + len(rep.points) == 120
    assert rep.argmax["kl"] == pytest.approx(rep.sup_ratio * rep.argmax["dbar"] ** 2, rel=1e-9)
    rep.write(tmp_path / "probe.json", tmp_path / "probe_scatter.csv")
    csv = (tmp_path / "probe_scatter.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "qmin,dbar,kl,ratio"
    assert len(csv.splitlines()) == 1 + len(rep.points)
    assert rep.config_digest


def _probe_of_pairs(monkeypatch, keep):
    """A probe of 100 8-atom pairs in which only the pairs ``keep`` differ:
    every other pair is one law twice, at transport 0, and is excluded."""
    gen = np.random.default_rng(8)
    mus = gen.dirichlet(np.ones(8), size=100)
    nus = mus.copy()
    nus[keep] = gen.dirichlet(np.ones(8), size=len(keep))
    monkeypatch.setattr(bounds_lab, "_probe_laws", lambda *args: (mus, nus))
    return divergence_transport_probe(2, 3, 100, seed=0)


@pytest.mark.parametrize("report", ["no points", "one point", "golden"])
def test_probe_writer_writes_json_dumps_and_the_scatter_lines(monkeypatch, tmp_path, report):
    """``ProbeReport.write`` gives probe.json the bytes of ``json.dumps`` of
    ``to_json`` and probe_scatter.csv one ``repr`` line per point, for a
    report with every instance excluded, one with a single point and the
    100-instance report whose files are pinned by digest."""
    if report == "golden":
        rep = divergence_transport_probe(2, 3, 100, "boundary-biased", seed=0)
    else:
        rep = _probe_of_pairs(monkeypatch, [] if report == "no points" else [37])
    assert len(rep.points) == {"no points": 0, "one point": 1, "golden": 100}[report]
    assert rep.excluded == 100 - len(rep.points)
    if not rep.points:
        assert rep.argmax == {} and rep.sup_ratio == 0.0
    rep.write(tmp_path / "probe.json", tmp_path / "probe_scatter.csv")
    want = json.dumps(rep.to_json(), sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "probe.json").read_text() == want
    lines = ["qmin,dbar,kl,ratio"]
    lines += [f"{p.qmin!r},{p.dbar!r},{p.divergence!r},{p.ratio!r}" for p in rep.points]
    assert (tmp_path / "probe_scatter.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_ratio_probe_sweep_script(tmp_path):
    """The sweep script writes one report and one scatter file per window
    and sampler."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "ratio_probe_sweep.py"
    subprocess.run([sys.executable, str(script), "--windows", "1,2", "--instances", "100",
                    "--out-dir", str(tmp_path)], check=True, capture_output=True)
    for m in (1, 2):
        for sampler in ("dirichlet_uniform", "boundary_biased"):
            assert (tmp_path / f"scatter_w{m}_{sampler}.csv").is_file()
            assert json.loads((tmp_path / f"probe_w{m}_{sampler}.json").read_text())["window"] == m


def test_probe_argument_validation():
    with pytest.raises(ValueError):
        divergence_transport_probe(2, 1, 50)
    with pytest.raises(ValueError):
        divergence_transport_probe(2, 1, 100, sampler="nope")
    with pytest.raises(BoundInapplicableError):
        divergence_transport_probe(2, 13, 100)


# -- fitted-model experiments ----------------------------------------------


def test_close_gaps_completes_final_context(ab_alphabet):
    # the training string ends in a context ("ab") that never recurs with a
    # successor, so the raw fit cannot generate past it
    seq, _ = tokenize("aaab", "char")
    model = fit_empirical(seq, 2, ab_alphabet)
    closed, added = _close_gaps(model)
    assert added >= 1
    toks = sample(closed, 30, seed=0).tokens
    assert len(toks) == 30


def test_close_gaps_sorts_a_completed_context_that_comes_first():
    # order 1 on "...110": the final context "0" never continues, and its code
    # sorts before the one fitted context "1"
    alphabet = Alphabet(("0", "1"))
    seq, _ = tokenize("1110", "char", alphabet=alphabet)
    model = fit_empirical(seq, 1, alphabet)
    closed, added = _close_gaps(model)
    assert added == 1
    assert closed.codes.tolist() == [0, 1]
    assert closed.rows.tolist() == [[0.5, 0.5], model.rows[0].tolist()]
    assert closed.row((1,)).tolist() == model.row((1,)).tolist()


def test_close_gaps_noop_when_closed(ab_alphabet):
    seq, _ = tokenize("aabab" * 20, "char")
    model = fit_empirical(seq, 1, ab_alphabet)
    closed, added = _close_gaps(model)
    assert added == 0
    assert closed is model


@pytest.fixture
def markov_disguised_as_hmm():
    """Order-1 chain written as an HMM (states = symbols, exact emissions)."""
    rows = np.array([[0.75, 0.25], [0.35, 0.65]])
    return HiddenMarkovSource.with_stationary_start(
        transition=rows, emission=np.eye(2)
    )


def test_approx_experiment_truth_in_class(markov_disguised_as_hmm):
    """When the source is itself order-1, the fitted chain converges and the
    transport estimates fall with the training size."""
    exp = approx_experiment(
        markov_disguised_as_hmm,
        m_grid=[500, 5_000, 50_000],
        rate_exponent=1.05 / math.log(50_000),
        tail_exponent=0.25,
        window=5,
        n_windows=800,
        bootstrap=25,
        seed=3,
    )
    assert [r.train_len for r in exp.rows] == [500, 5_000, 50_000]
    assert all(r.order == 1 for r in exp.rows)
    ests = [r.dbar_estimate for r in exp.rows]
    assert ests[-1] < ests[0] + 0.02
    assert ests[-1] < 0.05
    # an order-1 source has zero continuity rate at memory one, so the bound
    # reduces to its tail term and large samples must comply
    assert exp.rows[-1].dbar_estimate <= exp.rows[-1].bound + 1e-9
    assert exp.profile.rates[0] == pytest.approx(0.0, abs=1e-10)


def test_approx_experiment_deterministic(markov_disguised_as_hmm):
    kwargs = dict(
        m_grid=[300, 1_000],
        rate_exponent=1.05 / math.log(1_000),
        tail_exponent=0.3,
        window=4,
        n_windows=300,
        bootstrap=10,
        seed=8,
    )
    a = approx_experiment(markov_disguised_as_hmm, **kwargs)
    b = approx_experiment(markov_disguised_as_hmm, **kwargs)
    assert a.to_json() == b.to_json()


def test_approx_experiment_window_cap(two_state_hmm):
    with pytest.raises(BoundInapplicableError):
        approx_experiment(two_state_hmm, [100], 0.1, 0.25, window=13)


def test_fitted_divergence_truth_in_class(markov_disguised_as_hmm):
    out = fitted_divergence_eval(
        markov_disguised_as_hmm,
        train_len=50_000,
        rate_exponent=1.05 / math.log(50_000),
        tail_exponent=0.25,
        constant=1.0,
        window=8,
        n_windows=500,
        seed=5,
    )
    assert out.order == 1
    assert not out.infinite_flag
    assert out.d_estimate < 0.01
    assert out.consistent


def test_fitted_divergence_reseeding_stable(markov_disguised_as_hmm):
    outs = [
        fitted_divergence_eval(
            markov_disguised_as_hmm,
            train_len=20_000,
            rate_exponent=1.05 / math.log(20_000),
            tail_exponent=0.25,
            constant=1.0,
            window=6,
            n_windows=800,
            seed=seed,
        )
        for seed in (1, 2, 3)
    ]
    vals = [o.d_estimate for o in outs]
    assert max(vals) - min(vals) < 0.01


def test_digit_alphabet():
    assert digit_alphabet(3).symbols == ("0", "1", "2")
    with pytest.raises(ValueError):
        digit_alphabet(1)
