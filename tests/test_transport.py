import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from markovdetect import transport
from markovdetect.errors import NonConvergenceError
from markovdetect.transport import (
    Coupling,
    dbar_between,
    dbar_empirical,
    dbar_exact,
    hamming_cost,
    l1_distance,
    solve_transport,
    tv,
)
from markovdetect.util import all_atoms


def lp_oracle(supply, demand, cost):
    """Reference optimum via scipy's LP solver (independent of our simplex)."""
    nr, nc = cost.shape
    a_eq = []
    for i in range(nr):
        row = np.zeros(nr * nc)
        row[i * nc:(i + 1) * nc] = 1.0
        a_eq.append(row)
    for j in range(nc):
        row = np.zeros(nr * nc)
        row[j::nc] = 1.0
        a_eq.append(row)
    res = linprog(
        cost.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.concatenate([supply, demand]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return res.fun


def _dense_hamming(atoms_x, atoms_y):
    return (np.asarray(atoms_x)[:, None, :] != np.asarray(atoms_y)[None, :, :]).mean(axis=2)


def test_tv_and_l1():
    assert tv([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.4)
    assert l1_distance([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.8)


def test_hamming_cost_counts_mismatches():
    assert hamming_cost((0, 1, 1), (0, 0, 1)) == pytest.approx(1 / 3)
    assert hamming_cost((0, 1), (0, 1)) == 0.0


def test_solver_matches_lp_oracle(rng):
    for trial in range(100):
        nr = int(rng.integers(2, 9))
        nc = int(rng.integers(2, 9))
        supply = rng.dirichlet(np.ones(nr))
        demand = rng.dirichlet(np.ones(nc))
        cost = rng.random((nr, nc))
        value, _, _, _ = solve_transport(supply, demand, cost)
        assert value == pytest.approx(lp_oracle(supply, demand, cost), abs=1e-9)


def test_dbar_exact_matches_lp_oracle_binary_windows(rng):
    for trial in range(20):
        m = int(rng.integers(1, 6))
        n = 2 ** m
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        coupling = dbar_exact(mu, nu, m)
        atoms = all_atoms(2, m)
        cost = np.array([[hamming_cost(x, y) for y in atoms] for x in atoms])
        assert coupling.value == pytest.approx(lp_oracle(mu, nu, cost), abs=1e-9)


def test_single_letter_equals_tv(rng):
    for _ in range(50):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        assert dbar_exact(p, q, 1, alphabet_size=3).value == pytest.approx(
            tv(p, q), abs=1e-11
        )


def _product_law(p, m):
    v = np.array([1.0])
    for _ in range(m):
        v = np.kron(v, np.asarray(p, dtype=float))
    return v


def test_product_law_distance_equals_single_letter(rng):
    """Coordinatewise optimal couplings make the per-letter distance of a
    product law pair collapse to the single-letter total variation."""
    for m in (2, 3, 4):
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2))
        value = dbar_exact(_product_law(p, m), _product_law(q, m), m).value
        assert value == pytest.approx(tv(p, q), abs=1e-9)


def test_metric_axioms(rng):
    for _ in range(15):
        m = int(rng.integers(1, 4))
        n = 2 ** m
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        rho = rng.dirichlet(np.ones(n))
        d_xy = dbar_exact(mu, nu, m).value
        d_yx = dbar_exact(nu, mu, m).value
        d_xz = dbar_exact(mu, rho, m).value
        d_zy = dbar_exact(rho, nu, m).value
        assert d_xy == pytest.approx(d_yx, abs=1e-9)
        assert d_xy <= d_xz + d_zy + 1e-9
        assert dbar_exact(mu, mu, m).value == pytest.approx(0.0, abs=1e-11)


def test_coupling_marginals_and_value(rng):
    mu = rng.dirichlet(np.ones(8))
    nu = rng.dirichlet(np.ones(8))
    coupling = dbar_exact(mu, nu, 3)
    coupling.validate()
    recomputed = sum(
        mass * hamming_cost(coupling.atoms_x[i], coupling.atoms_y[j])
        for i, j, mass in coupling.entries
    )
    assert coupling.value == pytest.approx(recomputed, abs=1e-12)


def test_zero_mass_atoms_dropped():
    mu = np.array([0.5, 0.0, 0.5, 0.0])
    nu = np.array([0.0, 0.5, 0.0, 0.5])
    coupling = dbar_exact(mu, nu, 2)
    coupling.validate()
    # every sequence pair differs in exactly the final letter
    assert coupling.value == pytest.approx(0.5, abs=1e-12)


def test_dbar_between_ragged_supports():
    coupling = dbar_between(
        [(0, 0), (1, 1)], [0.5, 0.5],
        [(0, 1)], [1.0],
    )
    assert coupling.value == pytest.approx(0.5)


def test_coupling_json_deterministic(rng):
    mu = rng.dirichlet(np.ones(4))
    nu = rng.dirichlet(np.ones(4))
    a = dbar_exact(mu, nu, 2).to_json()
    b = dbar_exact(mu, nu, 2).to_json()
    assert a == b
    assert "dual_value" in a


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_degenerate_point_masses(code):
    # point masses at arbitrary atoms: distance = normalized Hamming distance
    x = [(code >> 2) & 1, (code >> 1) & 1, code & 1]
    vec_x = np.zeros(8)
    vec_x[4 * x[0] + 2 * x[1] + x[2]] = 1.0
    vec_y = np.zeros(8)
    vec_y[0] = 1.0
    value = dbar_exact(vec_x, vec_y, 3).value
    assert value == pytest.approx(sum(x) / 3, abs=1e-12)


# -- empirical estimator ----------------------------------------------------


def test_empirical_identical_samples_zero(rng):
    samples = rng.integers(0, 2, size=(200, 4))
    est = dbar_empirical(samples, samples.copy(), bootstrap=30, seed=0)
    assert est.estimate == pytest.approx(0.0, abs=1e-12)
    assert est.ci_low == pytest.approx(0.0, abs=1e-12)


def test_empirical_deterministic(rng):
    x = rng.integers(0, 2, size=(150, 3))
    y = rng.integers(0, 2, size=(180, 3))
    a = dbar_empirical(x, y, bootstrap=40, seed=5)
    b = dbar_empirical(x, y, bootstrap=40, seed=5)
    assert a == b


def test_empirical_ci_brackets_estimate(rng):
    x = rng.integers(0, 2, size=(300, 3))
    y = (rng.random((300, 3)) < 0.7).astype(np.int64)
    est = dbar_empirical(x, y, bootstrap=60, seed=2)
    assert est.ci_low <= est.estimate <= est.ci_high
    assert est.support_x <= 8 and est.support_y <= 8


def test_empirical_converges_to_exact(rng):
    # large same-law samples: estimate approaches the exact distance between laws
    p = np.array([0.7, 0.3])
    q = np.array([0.3, 0.7])
    x = (rng.random((20_000, 1)) > p[0]).astype(np.int64)
    y = (rng.random((20_000, 1)) > q[0]).astype(np.int64)
    est = dbar_empirical(x, y, bootstrap=20, seed=1)
    assert est.estimate == pytest.approx(tv(p, q), abs=0.02)


# -- min-cost flow engine ---------------------------------------------------


def _assert_certified(coupling, cost):
    """Plan feasible, duals feasible on the dense cost, and no duality gap."""
    coupling.validate()
    assert (cost - coupling.dual_x[:, None] - coupling.dual_y[None, :]).min() >= -1e-9
    dual_value = coupling.weights_x @ coupling.dual_x + coupling.weights_y @ coupling.dual_y
    assert dual_value == pytest.approx(coupling.value, abs=1e-9)
    plan_cost = sum(mass * cost[i, j] for i, j, mass in coupling.entries)
    assert plan_cost == pytest.approx(coupling.value, abs=1e-9)


@pytest.mark.parametrize("alphabet_size, m", [(2, 5), (2, 6), (3, 3)])
@pytest.mark.parametrize("concentration", [1.0, 0.05])
def test_flow_matches_simplex_on_dense_hamming_cost(rng, alphabet_size, m, concentration):
    # Dirichlet(0.05) laws put most atoms near 1e-30: they fail at the
    # default HiGHS tolerances, so they guard the tightened ones
    atoms = all_atoms(alphabet_size, m)
    cost = _dense_hamming(atoms, atoms)
    for _ in range(4):
        # floored at 1e-300 so the simplex core (strictly positive masses) takes them too
        mu = np.maximum(rng.dirichlet(np.full(len(atoms), concentration)), 1e-300)
        nu = np.maximum(rng.dirichlet(np.full(len(atoms), concentration)), 1e-300)
        coupling = dbar_exact(mu, nu, m, alphabet_size=alphabet_size)
        assert coupling.engine == "hamming-flow"
        simplex_value, _, _, _ = solve_transport(mu, nu, cost)
        assert coupling.value == pytest.approx(simplex_value, abs=1e-9)
        _assert_certified(coupling, cost)


def test_engine_switches_above_sixteen_atoms(rng):
    for m, engine in ((4, "simplex"), (5, "hamming-flow")):
        mu = rng.dirichlet(np.ones(2 ** m))
        nu = rng.dirichlet(np.ones(2 ** m))
        coupling = dbar_exact(mu, nu, m)
        assert coupling.engine == engine
        assert coupling.to_json()["engine"] == engine


def test_flow_product_laws_1024_atoms_equal_tv(rng):
    for _ in range(2):
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2))
        coupling = dbar_exact(_product_law(p, 10), _product_law(q, 10), 10)
        assert coupling.engine == "hamming-flow"
        assert coupling.value == pytest.approx(tv(p, q), abs=1e-9)
        coupling.validate()


def test_flow_ragged_supports_and_zero_mass_atoms(rng):
    cube = all_atoms(2, 5)
    for _ in range(5):
        ix = rng.choice(32, size=int(rng.integers(6, 20)), replace=False)
        iy = rng.choice(32, size=int(rng.integers(6, 20)), replace=False)
        atoms_x = [cube[i] for i in ix]
        atoms_y = [cube[i] for i in iy]
        wx = rng.dirichlet(np.ones(len(ix)))
        wy = rng.dirichlet(np.ones(len(iy)))
        wx[:2] = 0.0   # listed atoms carrying no mass
        wy[-1] = 0.0
        wx /= wx.sum()
        wy /= wy.sum()
        coupling = dbar_between(atoms_x, wx, atoms_y, wy)
        assert coupling.engine == "hamming-flow"
        cost = _dense_hamming(atoms_x, atoms_y)
        assert coupling.value == pytest.approx(lp_oracle(wx, wy, cost), abs=1e-9)
        _assert_certified(coupling, cost)


def test_flow_at_the_atom_cap(rng):
    m = 12
    mu = rng.dirichlet(np.ones(2 ** m))
    nu = rng.dirichlet(np.ones(2 ** m))
    coupling = dbar_exact(mu, nu, m)
    assert coupling.engine == "hamming-flow"
    coupling.validate()
    record = coupling.to_json()
    assert float(record["dual_value"]) == pytest.approx(coupling.value, abs=1e-9)
    atoms = np.asarray(coupling.atoms_x)
    i, j, mass = (np.array(col) for col in zip(*coupling.entries))
    plan_cost = float(mass @ (atoms[i] != atoms[j]).mean(axis=1))
    assert plan_cost == pytest.approx(coupling.value, abs=1e-9)
    # dual feasibility on a sample of the 2^24 atom pairs
    x, y = rng.integers(0, 2 ** m, size=(2, 20_000))
    slack = (atoms[x] != atoms[y]).mean(axis=1) - coupling.dual_x[x] - coupling.dual_y[y]
    assert slack.min() >= -1e-9


def test_empirical_flow_engine_matches_lp_oracle(rng):
    x = rng.integers(0, 2, size=(400, 5))
    y = (rng.random((400, 5)) < 0.3).astype(np.int64)
    est = dbar_empirical(x, y, bootstrap=10, seed=3)
    assert est.engine == "hamming-flow"
    atoms_x, counts_x = np.unique(x, axis=0, return_counts=True)
    atoms_y, counts_y = np.unique(y, axis=0, return_counts=True)
    want = lp_oracle(counts_x / 400, counts_y / 400, _dense_hamming(atoms_x, atoms_y))
    assert est.estimate == pytest.approx(want, abs=1e-9)
    assert est.ci_low <= est.estimate <= est.ci_high


def test_empirical_certifies_every_solve(rng, monkeypatch):
    small = rng.integers(0, 2, size=(100, 3))   # 8-atom cube: simplex
    large = rng.integers(0, 2, size=(100, 5))   # 32-atom cube: flow
    real_simplex = transport.solve_transport
    real_flow = transport._hamming_flow
    calls = {"simplex": 0, "flow": 0}

    def off_simplex(*args, **kwargs):
        calls["simplex"] += 1
        value, alloc, u, v = real_simplex(*args, **kwargs)
        return (value + 1e-3 if calls["simplex"] > 1 else value), alloc, u, v

    def off_flow(*args):
        calls["flow"] += 1
        flow, phi = real_flow(*args)
        return flow, (phi * 1.01 if calls["flow"] > 1 else phi)

    monkeypatch.setattr(transport, "solve_transport", off_simplex)
    monkeypatch.setattr(transport, "_hamming_flow", off_flow)
    # the point solve is exact; the first bootstrap replicate is not
    with pytest.raises(NonConvergenceError):
        dbar_empirical(small, small[::-1].copy(), bootstrap=5, seed=0)
    with pytest.raises(NonConvergenceError):
        dbar_empirical(large, large[::-1].copy(), bootstrap=5, seed=0)
