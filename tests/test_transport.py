import dataclasses
import hashlib
import itertools
import json
import math
import sys

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from markovdetect import transport
from markovdetect.errors import NonConvergenceError
from markovdetect.transport import (
    Coupling,
    dbar_between,
    dbar_empirical,
    dbar_exact,
    dbar_value,
    dbar_values,
    hamming_cost,
    l1_distance,
    tv,
)
from markovdetect.util import decode


def lp_oracle(supply, demand, cost, tight=False):
    """Reference optimum: the dense transportation LP (one variable per pair
    of atoms) solved by HiGHS's dual simplex, independent of the package's
    flow graphs.

    At HiGHS's default 1e-7 tolerances, Dirichlet(0.05) laws come out ~1e-7
    off.  ``tight`` sets 1e-10 tolerances and drops the last balance row, which
    the others imply and which a rounding-level imbalance of the two totals
    otherwise makes infeasible at that tolerance.
    """
    nr, nc = cost.shape
    cells = np.arange(nr * nc)
    a_eq = coo_matrix((np.ones(2 * nr * nc), (np.concatenate([cells // nc, nr + cells % nc]),
                                              np.concatenate([cells, cells]))),
                      shape=(nr + nc, nr * nc)).tocsr()
    b_eq = np.concatenate([supply, demand])
    if tight:
        a_eq, b_eq = a_eq[:-1], b_eq[:-1]
    res = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ds",
        options=transport._HIGHS_OPTIONS if tight else None,
    )
    assert res.status == 0
    return res.fun


def _cube(alphabet_size, m):
    return [tuple(w) for w in decode(np.arange(alphabet_size ** m), alphabet_size, m).tolist()]


def _dense_hamming(atoms_x, atoms_y):
    return (np.asarray(atoms_x)[:, None, :] != np.asarray(atoms_y)[None, :, :]).mean(axis=2)


def test_tv_and_l1():
    assert tv([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.4)
    assert l1_distance([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.8)


def test_hamming_cost_counts_mismatches():
    assert hamming_cost((0, 1, 1), (0, 0, 1)) == pytest.approx(1 / 3)
    assert hamming_cost((0, 1), (0, 1)) == 0.0


def test_dbar_exact_matches_lp_oracle_binary_windows(rng):
    for trial in range(20):
        m = int(rng.integers(1, 6))
        n = 2 ** m
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        coupling = dbar_exact(mu, nu, m)
        atoms = _cube(2, m)
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


@pytest.mark.parametrize("m", [2, 5])
def test_coupling_json_writes_no_negative_zero(m):
    """Both flow engines return the y prices as -phi, so a zero potential is
    -0.0 in ``dual_y``; the JSON form writes it as "0"."""
    nu = np.ones(2 ** m)
    nu[[0, -1]] = 4.0
    coupling = dbar_exact(np.full(2 ** m, 0.5 ** m), nu / nu.sum(), m)
    assert coupling.engine == ("tree-enumeration" if m == 2 else "hamming-flow")
    assert np.signbit(coupling.dual_y[coupling.dual_y == 0]).any()
    rec = coupling.to_json()
    assert "0" in rec["dual_y"]
    assert "-0" not in rec["dual_x"] + rec["dual_y"]


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


_SMALL_CUBES = [(a, m) for a in (2, 3, 4, 16) for m in (1, 2, 3, 4) if a ** m <= 16]


@given(st.sampled_from(_SMALL_CUBES), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_dbar_exact_zero_mass_atoms_equal_oracle(cube, seed):
    alphabet_size, m = cube
    n = alphabet_size ** m
    gen = np.random.default_rng(seed)
    mu = gen.dirichlet(np.ones(n)) * (gen.random(n) < 0.6)
    nu = gen.dirichlet(np.ones(n)) * (gen.random(n) < 0.6)
    mu[gen.integers(n)] += 1.0   # at least one atom keeps mass
    nu[gen.integers(n)] += 1.0
    mu /= mu.sum()
    nu /= nu.sum()
    coupling = dbar_exact(mu, nu, m, alphabet_size=alphabet_size)
    assert coupling.engine == dbar_value(mu, nu, m, alphabet_size=alphabet_size)[1]
    atoms = _cube(alphabet_size, m)
    cost = _dense_hamming(atoms, atoms)
    assert coupling.value == pytest.approx(lp_oracle(mu, nu, cost, tight=True), abs=1e-9)
    _assert_certified(coupling, cost)


def test_dbar_exact_rejects_nan_weights():
    mu = np.array([np.nan, 0.5, 0.25, 0.25])
    for solve in (dbar_exact, dbar_value):
        with pytest.raises(ValueError, match="probability vector"):
            solve(mu, np.full(4, 0.25), 2)
        with pytest.raises(ValueError, match="probability vector"):
            solve(np.full(4, 0.25), mu, 2)


def test_certificates_reject_nan_duals(rng):
    """A NaN potential at an x node or a y node, a NaN flow or a NaN excess
    fails the certificate on the cube and on the support graph."""
    cube = np.array(_cube(2, 2))
    for atoms_x, atoms_y in ((cube, cube), (cube[[0, 0, 3]], cube[[1, 2]])):
        graph = transport._flow_graph(atoms_x, atoms_y)
        excess = graph.excess(rng.dirichlet(np.ones(len(atoms_x))),
                              rng.dirichlet(np.ones(len(atoms_y))))
        tails, heads, flow, phi = graph.flow(excess)
        transport._certify_flow((tails, heads, flow, phi), excess, graph)
        for node in (graph.nodes_x[1], graph.nodes_y[1]):
            bad_phi = phi.copy()
            bad_phi[node] = np.nan
            with pytest.raises(NonConvergenceError):
                transport._certify_flow((tails, heads, flow, bad_phi), excess, graph)
        with pytest.raises(NonConvergenceError):
            transport._certify_flow((tails, heads, np.where(flow > 0, np.nan, flow), phi),
                                    excess, graph)
        bad_excess = excess.copy()
        bad_excess[1] = np.nan
        with pytest.raises(NonConvergenceError):
            transport._certify_flow((tails, heads, flow, phi), bad_excess, graph)


def test_validate_rejects_nan_mass(rng):
    coupling = dbar_exact(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)), 2)
    i, j, _ = coupling.entries[0]
    coupling.entries[0] = (i, j, np.nan)
    with pytest.raises(ValueError, match="marginals"):
        coupling.validate()


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


@pytest.mark.parametrize("shape, low, high", [((500, 4), -3, 3), ((400, 6), 0, 2), ((1, 5), -2, 2),
                                               ((300, 1), -5, 5), ((1, 1), -1, 0)])
def test_empirical_atoms_equal_unique_rows(shape, low, high):
    """``_empirical`` gives ``np.unique(axis=0)``'s atoms in their
    lexicographic order, negative letters included, and each one's share."""
    rows = np.random.default_rng(shape[0]).integers(low, high, size=shape)
    for sample in (rows, np.repeat(rows[:3], 4, axis=0)):
        atoms, counts = np.unique(sample, axis=0, return_counts=True)
        got_atoms, got_weights = transport._empirical(sample)
        assert np.array_equal(got_atoms, atoms) and got_atoms.dtype == atoms.dtype
        assert np.array_equal(got_weights, counts / counts.sum())


def _refuse_to_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("reached a solve")

    monkeypatch.setattr(transport, "_flow_graph", refuse)
    monkeypatch.setattr(transport, "_cube", refuse)


def test_empirical_refuses_a_sample_with_no_windows(monkeypatch):
    _refuse_to_solve(monkeypatch)
    with pytest.raises(ValueError, match="need at least one window in each sample"):
        dbar_empirical(np.zeros((0, 3), dtype=int), np.zeros((5, 3), dtype=int))


def test_empirical_refuses_windows_of_length_zero(monkeypatch):
    _refuse_to_solve(monkeypatch)
    with pytest.raises(ValueError, match="window length must be >= 1"):
        dbar_empirical(np.zeros((4, 0), dtype=int), np.zeros((5, 0), dtype=int))


def test_dbar_values_refuses_an_empty_stack(monkeypatch):
    _refuse_to_solve(monkeypatch)
    with pytest.raises(ValueError, match="need at least one pair"):
        dbar_values(np.zeros((0, 8)), np.zeros((0, 8)), 3)


@pytest.mark.parametrize("solve, mu", [
    (dbar_value, np.zeros(0)), (dbar_exact, np.zeros(0)), (dbar_values, np.zeros((2, 0)))],
    ids=["dbar_value", "dbar_exact", "dbar_values"])
def test_cube_solves_refuse_laws_with_no_atoms(monkeypatch, solve, mu):
    _refuse_to_solve(monkeypatch)
    with pytest.raises(ValueError, match="need at least one atom"):
        solve(mu, mu.copy(), 3)


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
    """The Hamming-graph flow against the dual simplex on the dense LP."""
    # Dirichlet(0.05) laws put most atoms near 1e-30: they fail at the
    # default HiGHS tolerances, so they guard the tightened ones
    atoms = _cube(alphabet_size, m)
    cost = _dense_hamming(atoms, atoms)
    for _ in range(4):
        mu = rng.dirichlet(np.full(len(atoms), concentration))
        nu = rng.dirichlet(np.full(len(atoms), concentration))
        coupling = dbar_exact(mu, nu, m, alphabet_size=alphabet_size)
        assert coupling.engine == "hamming-flow"
        assert coupling.value == pytest.approx(lp_oracle(mu, nu, cost, tight=True), abs=1e-9)
        _assert_certified(coupling, cost)


def test_value_and_coupling_name_the_same_engine(rng):
    """dbar_value, dbar_exact and dbar_empirical pick the engine from the
    supports alone; a one-letter alphabet, whose cube has no arcs, goes to
    the support graph."""
    for alphabet_size, m, engine in (
            (2, 1, "tree-enumeration"), (2, 3, "tree-enumeration"), (5, 1, "tree-enumeration"),
            (2, 4, "hamming-flow"), (3, 2, "hamming-flow"), (6, 1, "hamming-flow"),
            (2, 5, "hamming-flow"), (1, 2, "support-flow")):
        n = alphabet_size ** m
        mu, nu = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        value, value_engine = dbar_value(mu, nu, m, alphabet_size=alphabet_size)
        coupling = dbar_exact(mu, nu, m, alphabet_size=alphabet_size)
        assert value_engine == coupling.engine == coupling.to_json()["engine"] == engine
        assert value == pytest.approx(coupling.value, abs=1e-12)
        samples = decode(np.arange(n), alphabet_size, m)
        assert dbar_empirical(samples, samples[::-1], bootstrap=2).engine == engine


def test_flow_product_laws_1024_atoms_equal_tv(rng):
    for _ in range(2):
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2))
        coupling = dbar_exact(_product_law(p, 10), _product_law(q, 10), 10)
        assert coupling.engine == "hamming-flow"
        assert coupling.value == pytest.approx(tv(p, q), abs=1e-9)
        coupling.validate()


def test_flow_ragged_supports_and_zero_mass_atoms(rng):
    cube = _cube(2, 5)
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
    small = rng.integers(0, 2, size=(100, 3))   # 8-atom cube: tree enumeration
    large = rng.integers(0, 2, size=(100, 5))   # 32-atom cube: HiGHS
    def rows_after_the_first(real):
        """``real`` with the potentials of every stacked row it solves after
        its first row scaled by 1.01."""
        seen = [0]

        def off(excess, *args):
            tails, heads, flow, phi = real(excess, *args)
            rows = seen[0] + np.arange(len(excess))
            seen[0] += len(excess)
            return tails, heads, flow, np.where((rows >= 1)[:, None], phi * 1.01, phi)
        return off

    monkeypatch.setattr(transport, "_tree_flow", rows_after_the_first(transport._tree_flow))
    monkeypatch.setattr(transport, "_highs_flow", rows_after_the_first(transport._highs_flow))
    # the point solve (stacked row 0) is exact; the first bootstrap replicate is not
    with pytest.raises(NonConvergenceError):
        dbar_empirical(small, small[::-1].copy(), bootstrap=5, seed=0)
    with pytest.raises(NonConvergenceError):
        dbar_empirical(large, large[::-1].copy(), bootstrap=5, seed=0)


def test_empirical_solves_every_replicate_in_one_stack(rng, monkeypatch):
    """On the 3-cube the point estimate and five replicates are six rows of
    one tree-enumeration call, and the estimate is ``dbar_between``'s value."""
    x = rng.integers(0, 2, size=(100, 3))
    y = (rng.random((100, 3)) < 0.3).astype(np.int64)
    want = dbar_empirical(x, y, bootstrap=5, seed=4)
    real = transport._tree_flow
    rows = []

    def counted(excess, table, m):
        rows.append(len(excess))
        return real(excess, table, m)

    monkeypatch.setattr(transport, "_tree_flow", counted)
    assert dbar_empirical(x, y, bootstrap=5, seed=4) == want
    assert want.engine == "tree-enumeration"
    assert rows == [6]
    atoms_x, counts_x = np.unique(x, axis=0, return_counts=True)
    atoms_y, counts_y = np.unique(y, axis=0, return_counts=True)
    assert want.estimate == dbar_between(atoms_x, counts_x / 100, atoms_y, counts_y / 100).value


@pytest.mark.parametrize("alphabet_size, m", [(2, 2), (2, 3), (3, 1), (2, 4), (3, 2)])
def test_every_entry_point_gives_one_value(rng, alphabet_size, m):
    """``dbar_value``, a ``dbar_values`` row, ``dbar_exact(...).value`` and
    ``dbar_between`` on the cube's words report the same certified value bit
    for bit, on tree-enumeration and hamming-flow cubes."""
    n = alphabet_size ** m
    atoms = decode(np.arange(n), alphabet_size, m)
    mus = np.array([_laws(rng, n, kind) for kind in ("flat", "sparse", "zeros")])
    nus = np.array([_laws(rng, n, kind) for kind in ("flat", "sparse", "zeros")])
    values, engine = dbar_values(mus, nus, m, alphabet_size=alphabet_size)
    assert engine == ("tree-enumeration" if n <= 8 else "hamming-flow")
    for mu, nu, row in zip(mus, nus, values.tolist()):
        assert dbar_value(mu, nu, m, alphabet_size=alphabet_size) == (row, engine)
        assert dbar_exact(mu, nu, m, alphabet_size=alphabet_size).value == row
        assert dbar_between(atoms, mu, atoms, nu).value == row


@pytest.fixture
def fresh_cubes():
    """Cubes built inside the test, and none of them left cached after it."""
    transport._cube.cache_clear()
    yield
    transport._cube.cache_clear()


@pytest.mark.parametrize("m, engine", [(3, "tree-enumeration"), (5, "hamming-flow")])
def test_partial_supports_and_whole_cube_share_one_cached_cube(m, engine, fresh_cubes):
    """A partial support on the 2^m cube and ``dbar_values`` on that cube
    take one cached ``_cube``: the same bound solve, with the supports'
    words as the partial graph's nodes."""
    graph = transport._flow_graph(np.array([[0] * m, [1] * m]), np.array([[0] * (m - 1) + [1]]))
    assert graph.nodes_x.tolist() == [0, 2 ** m - 1] and graph.nodes_y.tolist() == [1]
    mu = np.full(2 ** m, 2.0 ** -m)
    assert dbar_values(mu, mu, m)[1] == graph.engine == engine
    cube = transport._cube(2, m)
    assert graph.flow is cube.flow and graph.block_rows == cube.block_rows
    assert (transport._cube.cache_info().misses, transport._cube.cache_info().currsize) == (1, 1)


def test_entry_points_build_one_highs_model_per_cube(rng, monkeypatch, fresh_cubes):
    """On a HiGHS cube, ``dbar_value``, ``dbar_values``, ``dbar_exact`` and
    ``dbar_empirical`` solve on one prebuilt model between them."""
    real, built = transport._flow_lp, []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(transport, "_flow_lp", counted)
    mus, nus = rng.dirichlet(np.ones(32), size=3), rng.dirichlet(np.ones(32), size=3)
    samples = rng.integers(0, 2, size=(60, 5))
    assert dbar_value(mus[0], nus[0], 5)[1] == "hamming-flow"
    assert dbar_values(mus, nus, 5)[1] == "hamming-flow"
    assert dbar_exact(mus[1], nus[1], 5).engine == "hamming-flow"
    assert dbar_empirical(samples, samples[::-1], bootstrap=2).engine == "hamming-flow"
    assert len(built) == 1


def test_one_letter_alphabet_answers_support_flow(fresh_cubes):
    """The one-word cube has no arcs, so its cached graph is the support
    graph, from every entry point."""
    assert transport._cube(1, 3).engine == "support-flow"
    assert dbar_value([1.0], [1.0], 3) == (0.0, "support-flow")
    values, engine = dbar_values(np.ones((2, 1)), np.ones((2, 1)), 3, alphabet_size=1)
    assert values.tolist() == [0.0, 0.0] and engine == "support-flow"
    coupling = dbar_exact([1.0], [1.0], 3)
    assert (coupling.engine, coupling.value) == ("support-flow", 0.0)
    assert coupling.entries == [(0, 0, 1.0)]


# -- spanning-tree enumeration on small cubes ---------------------------------


def _laws(gen, n, kind):
    if kind == "zeros":  # Dirichlet(1) with about 40% of the atoms emptied
        w = gen.dirichlet(np.ones(n)) * (gen.random(n) < 0.6)
        w[gen.integers(n)] += 1.0
        return w / w.sum()
    return gen.dirichlet(np.full(n, {"flat": 1.0, "sparse": 0.05}[kind]))


@pytest.mark.parametrize("alphabet_size, m", [(2, 1), (2, 2), (2, 3), (3, 1), (4, 1), (5, 1)])
@pytest.mark.parametrize("kind", ["flat", "sparse", "zeros"])
def test_tree_enumeration_matches_simplex_and_oracle(rng, alphabet_size, m, kind):
    """Values match the dense LP's dual simplex, and the tree-enumeration
    coupling of ``dbar_exact`` passes the dense certificate."""
    atoms = _cube(alphabet_size, m)
    cost = _dense_hamming(atoms, atoms)
    for _ in range(20):
        mu, nu = _laws(rng, len(atoms), kind), _laws(rng, len(atoms), kind)
        value, engine = dbar_value(mu, nu, m, alphabet_size=alphabet_size)
        assert engine == "tree-enumeration"
        assert value == pytest.approx(lp_oracle(mu, nu, cost, tight=True), abs=1e-9)
        coupling = dbar_exact(mu, nu, m, alphabet_size=alphabet_size)
        assert coupling.engine == "tree-enumeration"
        assert coupling.value == pytest.approx(value, abs=1e-12)
        _assert_certified(coupling, cost)


def _kirchhoff(alphabet_size, m):
    """Spanning trees of the cube's Hamming graph: a cofactor of its Laplacian."""
    n = alphabet_size ** m
    words = decode(np.arange(n), alphabet_size, m)
    adjacent = ((words[:, None, :] != words[None, :, :]).sum(axis=2) == 1).astype(float)
    laplacian = np.diag(adjacent.sum(axis=1)) - adjacent
    return round(np.linalg.det(laplacian[1:, 1:]))


@pytest.mark.parametrize("alphabet_size, m, trees", [
    (2, 1, 1), (2, 2, 4), (2, 3, 384), (3, 1, 3), (4, 1, 16), (5, 1, 125)])
def test_tree_table_holds_every_tree_and_lipschitz_potential(alphabet_size, m, trees):
    table = transport._tree_table(alphabet_size, m)
    assert len(table.trees) == _kirchhoff(alphabet_size, m) == trees
    tails, heads = transport._hamming_arcs(alphabet_size, m)
    phi = table.potentials
    assert (phi[:, 0] == 0).all() and (phi == np.rint(phi)).all()
    assert np.abs(phi[:, tails] - phi[:, heads]).max() <= 1  # 1/m per arc, in units of 1/m
    assert len(np.unique(phi, axis=0)) == len(phi)


def test_subset_gate_picks_the_enumerated_cubes(rng):
    """Tree enumeration answers the cubes with at most _TREE_ENUM_MAX edge
    subsets of size a^m - 1 (K_2..K_5, the 4-cycle, the 3-cube's 792); K_6's
    3,003, the 3x3 rook graph's 43,758 and the 4-cube's go to HiGHS."""
    assert math.comb(12, 7) == 792 <= transport._TREE_ENUM_MAX < math.comb(15, 5) == 3003
    enumerated = {(2, 1), (2, 2), (2, 3), (3, 1), (4, 1), (5, 1)}
    for alphabet_size, m in sorted(enumerated | {(2, 4), (3, 2), (6, 1)}):
        n = alphabet_size ** m
        mu, nu = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        _, engine = dbar_value(mu, nu, m, alphabet_size=alphabet_size)
        assert engine == ("tree-enumeration" if (alphabet_size, m) in enumerated
                          else "hamming-flow")


def test_larger_cubes_fall_back_without_enumerating(rng, monkeypatch):
    def refuse(a, m):
        raise AssertionError(f"enumerated the {a}^{m} cube")

    monkeypatch.setattr(transport, "_tree_table", refuse)
    transport._cube.cache_clear()
    try:
        for alphabet_size, m in ((2, 4), (3, 2)):
            n = alphabet_size ** m
            for kind in ("flat", "sparse", "zeros"):
                mu, nu = _laws(rng, n, kind), _laws(rng, n, kind)
                value, engine = dbar_value(mu, nu, m, alphabet_size=alphabet_size)
                assert engine == "hamming-flow"
                assert value == pytest.approx(
                    dbar_exact(mu, nu, m, alphabet_size=alphabet_size).value, abs=1e-12)
    finally:
        transport._cube.cache_clear()


_TREE_CUBES = [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (2, 3)]  # K_2..K_5, C_4, Q_3


@pytest.mark.parametrize("alphabet_size, m", _TREE_CUBES + [(2, 4)])
def test_dbar_values_equal_dbar_value_row_by_row(rng, alphabet_size, m):
    """A stack of pairs, solved in blocks, gives each pair's own value bit
    for bit: flat, sparse and zero-mass rows, and every fifth pair identical
    (value 0, which the probe excludes).  The 16-word cube is hamming-flow."""
    n = alphabet_size ** m
    per_kind = 8 if n == 16 else 45  # 135 rows: several blocks on the 3-cube
    mus = np.array([_laws(rng, n, kind) for kind in ("flat", "sparse", "zeros")
                    for _ in range(per_kind)])
    nus = np.array([_laws(rng, n, kind) for kind in ("flat", "sparse", "zeros")
                    for _ in range(per_kind)])
    nus[::5] = mus[::5]
    graph = transport._cube(alphabet_size, m)
    if n == 8:
        assert len(mus) > 2 * graph.block_rows
    values, engine = dbar_values(mus, nus, m, alphabet_size=alphabet_size)
    single = [dbar_value(mu, nu, m, alphabet_size=alphabet_size) for mu, nu in zip(mus, nus)]
    assert engine == graph.engine == ("hamming-flow" if n == 16 else "tree-enumeration")
    assert {e for _, e in single} == {engine}
    assert values.tolist() == [value for value, _ in single]
    assert values[::5].max() < 1e-9


def test_dbar_values_refuse_a_corrupted_flow_map(rng, monkeypatch, fresh_cubes):
    """Every row of every block is certified: flow maps knocked off by 1e-6
    fail the batch, and so does one bad row at the end of the stack."""
    mus, nus = rng.dirichlet(np.ones(8), size=53), rng.dirichlet(np.ones(8), size=53)
    block_rows = transport._cube(2, 3).block_rows
    assert 53 % block_rows
    table = transport._tree_table(2, 3)
    bad = table.flow_maps.copy()
    bad[:, 0] += 1e-6
    monkeypatch.setattr(transport, "_tree_table",
                        lambda a, m: dataclasses.replace(table, flow_maps=bad))
    transport._cube.cache_clear()  # the cube binds its table when built
    with pytest.raises(NonConvergenceError, match="infeasible flow"):
        dbar_values(mus, nus, 3)
    monkeypatch.undo()
    transport._cube.cache_clear()
    real = transport._tree_flow

    def last_row_off(excess, table, m):
        tails, heads, flow, phi = real(excess, table, m)
        if excess.ndim == 2 and len(excess) < block_rows:
            phi = phi.copy()
            phi[-1] *= 1.01
        return tails, heads, flow, phi

    dbar_values(mus, nus, 3)
    monkeypatch.setattr(transport, "_tree_flow", last_row_off)
    with pytest.raises(NonConvergenceError):
        dbar_values(mus, nus, 3)


_RECORD_FAULTS = {
    "nan potential": lambda tails, heads, flow, phi: (
        tails, heads, flow, np.where(np.arange(len(phi)) == 3, np.nan, phi)),
    "scaled potential": lambda tails, heads, flow, phi: (tails, heads, flow, phi * 1.01),
    "perturbed flow": lambda tails, heads, flow, phi: (
        tails, heads, flow + 1e-6 * (np.arange(len(flow)) == 0), phi),
}


def _certifies_every_solve(monkeypatch, solver, solve):
    """Each fault in the record ``solver`` returns raises on a later call of
    ``solve`` whose first call passed."""
    real = getattr(transport, solver)
    for fault in _RECORD_FAULTS.values():
        calls = []

        def faulty(*args):
            calls.append(args)
            record = real(*args)
            return fault(*record) if len(calls) > 1 else record

        monkeypatch.setattr(transport, solver, faulty)
        solve()
        with pytest.raises(NonConvergenceError):
            solve()


def test_tree_enumeration_certifies_every_solve(rng, monkeypatch):
    mu, nu = rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(8))
    _certifies_every_solve(monkeypatch, "_tree_flow", lambda: dbar_value(mu, nu, 3))


def test_hamming_flow_certifies_every_solve(rng, monkeypatch):
    """The coupling path certifies the same record as the value path."""
    mu, nu = rng.dirichlet(np.ones(32)), rng.dirichlet(np.ones(32))
    _certifies_every_solve(monkeypatch, "_highs_flow", lambda: dbar_value(mu, nu, 5))
    with pytest.raises(NonConvergenceError):
        dbar_exact(mu, nu, 5)


def test_support_flow_certifies_every_solve(rng, monkeypatch):
    atoms_x = [(0, 1), (0, 1), (1, 1), (2, 0)]   # a word listed twice
    atoms_y = [(0, 0), (1, 2), (2, 2)]
    wx, wy = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3))
    assert dbar_between(atoms_x, wx, atoms_y, wy).engine == "support-flow"
    _certifies_every_solve(monkeypatch, "_highs_flow",
                           lambda: dbar_between(atoms_x, wx, atoms_y, wy))


def test_flow_engines_accept_totals_apart_within_tolerance(rng):
    """The laws' totals may each be 1e-9 off one, so the excess may not sum
    to zero.  Each flow engine leaves a different node's balance implied
    (node 0 on tree enumeration, the last node on HiGHS), and the
    certificate accepts both."""
    for m in (3, 5):
        mu = rng.dirichlet(np.ones(2 ** m))
        nu = rng.dirichlet(np.ones(2 ** m))
        value, _ = dbar_value(mu * (1 + 0.9e-9), nu * (1 - 0.9e-9), m)
        assert value == pytest.approx(dbar_value(mu, nu, m)[0], abs=1e-8)


def test_dbar_exact_accepts_totals_apart_within_tolerance():
    """``_cube_laws`` lets each total be 1e-9 off one, so a coupling can
    match only one of two totals 1.8e-9 apart; ``validate`` allows for that
    difference and nothing more."""
    rng = np.random.default_rng(0)
    for m in (3, 5):
        mu = rng.dirichlet(np.ones(2 ** m)) * (1 + 0.9e-9)
        nu = rng.dirichlet(np.ones(2 ** m)) * (1 - 0.9e-9)
        coupling = dbar_exact(mu, nu, m)
        assert coupling.value == pytest.approx(dbar_value(mu, nu, m)[0], abs=1e-8)
        i, j, mass = coupling.entries[0]
        coupling.entries[0] = (i, j, mass + 2 * 1e-9 + abs(mu.sum() - nu.sum()))
        with pytest.raises(ValueError, match="marginals"):
            coupling.validate()


def test_dbar_between_rejects_unequal_totals_and_negative_weights():
    atoms = [(0, 0), (1, 1)]
    with pytest.raises(ValueError, match="equal totals"):
        dbar_between(atoms, [0.5, 0.5], atoms, [0.5, 0.5 + 1e-8])
    with pytest.raises(ValueError, match="non-negative"):
        dbar_between(atoms, [1.5, -0.5], atoms, [0.5, 0.5])
    with pytest.raises(ValueError, match="one weight per atom"):
        dbar_between(atoms, [1.0], atoms, [0.5, 0.5])


# -- HiGHS called directly, against linprog -----------------------------------


def _linprog_record(graph, excess):
    """Flows and potentials of ``linprog(method="highs")`` on the graph's flow
    LP, one row of a stack at a time: the reference for the direct HiGHS run."""
    cost = np.full(len(graph.tails), 1.0 / graph.m) if graph.hops is None else graph.hops / graph.m
    incidence = transport._incidence(graph.tails, graph.heads, graph.size)
    flows, phis = [], []
    for row in excess.reshape(-1, graph.size):
        res = linprog(cost, A_eq=incidence, b_eq=row[:-1], bounds=(0, None),
                      method="highs", options=transport._HIGHS_OPTIONS)
        assert res.status == 0
        flows.append(res.x)
        phis.append(np.append(res.eqlin.marginals, 0.0))
    return (np.reshape(flows, excess.shape[:-1] + (-1,)), np.reshape(phis, excess.shape))


def _assert_linprog_record(graph, excess):
    _, _, flow, phi = graph.flow(excess)
    want_flow, want_phi = _linprog_record(graph, excess)
    assert np.array_equal(flow, want_flow)
    assert np.array_equal(phi, want_phi)


_TWICE = ([(0, 0), (0, 0), (1, 2)], [(2, 1), (1, 1)])  # a word listed twice: the support graph


# the direct HiGHS bindings that the solves use, where scipy has them; 1.17
# is the oldest release checked to ship them
_HIGHS_BINDINGS = pytest.mark.skipif(
    tuple(map(int, scipy.__version__.split(".")[:2])) < (1, 17),
    reason="scipy releases before 1.17 may lack scipy.optimize._highspy._core")


@pytest.mark.parametrize("alphabet_size, m", [(3, 2), (2, 4), (4, 2), (16, 1), (2, 5), (2, 6),
                                              (4, 3)])
@pytest.mark.parametrize("concentration", [1.0, 0.05])
def test_highs_flow_equals_linprog_on_cubes(alphabet_size, m, concentration):
    """The prebuilt HiGHS model gives linprog's flows and duals bit for bit."""
    rng = np.random.default_rng(alphabet_size ** m)
    n = alphabet_size ** m
    graph = transport._cube(alphabet_size, m)
    assert graph.engine == "hamming-flow"
    for _ in range(4):
        mu = rng.dirichlet(np.full(n, concentration))
        nu = rng.dirichlet(np.full(n, concentration))
        _assert_linprog_record(graph, mu - nu)


def test_highs_flow_equals_linprog_on_the_support_graph(rng):
    graph = transport._flow_graph(*map(np.array, _TWICE))
    assert graph.engine == "support-flow"
    for _ in range(5):
        _assert_linprog_record(graph, graph.excess(rng.dirichlet(np.ones(3)),
                                                   rng.dirichlet(np.ones(2))))


def test_highs_flow_stack_rows_equal_linprog_and_single_rows(rng):
    graph = transport._cube(2, 5)
    mus, nus = rng.dirichlet(np.ones(32), size=6), rng.dirichlet(np.ones(32), size=6)
    _assert_linprog_record(graph, graph.excess(mus, nus))
    values = graph.value(mus, nus)
    for mu, nu, value in zip(mus, nus, values):
        assert graph.value(mu, nu) == value


def _highs_answers(rng):
    """A 64-word cube value and a support-graph value."""
    mu, nu = rng.dirichlet(np.ones(64)), rng.dirichlet(np.ones(64))
    return (dbar_value(mu, nu, 6)[0],
            dbar_between(_TWICE[0], [0.2, 0.3, 0.5], _TWICE[1], [0.4, 0.6]).value)


@_HIGHS_BINDINGS
def test_highs_solves_never_call_linprog(monkeypatch, fresh_cubes):
    """Where scipy has its direct HiGHS bindings, no solve goes through
    ``linprog``, so a scipy upgrade that removed them would show here."""
    want = _highs_answers(np.random.default_rng(6))
    transport._cube.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr("scipy.optimize.linprog", refuse)
    assert _highs_answers(np.random.default_rng(6)) == want


def test_highs_solves_fall_back_to_linprog(monkeypatch, fresh_cubes):
    """Without ``scipy.optimize._highspy._core`` every HiGHS solve goes
    through ``linprog``, with the same values."""
    import scipy.optimize
    want = _highs_answers(np.random.default_rng(6))
    transport._cube.cache_clear()
    calls = []
    real = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["method"])
        return real(*args, **kwargs)

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    monkeypatch.setattr("scipy.optimize.linprog", counted)
    assert _highs_answers(np.random.default_rng(6)) == want
    assert calls == ["highs", "highs"]


@_HIGHS_BINDINGS
def test_highs_flow_refuses_a_run_that_ends_short_of_optimal(monkeypatch, fresh_cubes):
    """A HiGHS run stopped by a zero iteration limit raises on a cube and on
    the support graph."""
    import scipy.optimize._highspy._core as highs

    class Stopped(highs._Highs):
        def run(self):
            self.setOptionValue("presolve", "off")
            self.setOptionValue("simplex_iteration_limit", 0)
            return super().run()

    monkeypatch.setattr(highs, "_Highs", Stopped)
    rng = np.random.default_rng(7)
    mu, nu = rng.dirichlet(np.ones(27)), rng.dirichlet(np.ones(27))
    with pytest.raises(NonConvergenceError, match="^min-cost flow failed:"):
        dbar_value(mu, nu, 3, 3)
    with pytest.raises(NonConvergenceError, match="^min-cost flow failed:"):
        dbar_between(_TWICE[0], [0.2, 0.3, 0.5], _TWICE[1], [0.4, 0.6])


# -- the support graph: supports that do not embed in a cube ----------------


def _assert_support_flow(atoms_x, wx, atoms_y, wy):
    coupling = dbar_between(atoms_x, wx, atoms_y, wy)
    assert coupling.engine == "support-flow"
    cost = _dense_hamming(atoms_x, atoms_y)
    assert coupling.value == pytest.approx(lp_oracle(wx, wy, cost, tight=True), abs=1e-9)
    _assert_certified(coupling, cost)
    return coupling


def test_support_flow_empirical_windows_above_the_cap():
    """17 symbols in windows of 3 make a 4,913-word cube, above the cap."""
    gen = np.random.default_rng(17)
    x = gen.integers(0, 17, size=(160, 3))
    y = np.minimum(gen.geometric(0.3, size=(160, 3)) - 1, 16)
    est = dbar_empirical(x, y, bootstrap=2, seed=0)
    assert est.engine == "support-flow"
    atoms_x, counts_x = np.unique(x, axis=0, return_counts=True)
    atoms_y, counts_y = np.unique(y, axis=0, return_counts=True)
    coupling = _assert_support_flow(atoms_x, counts_x / 160, atoms_y, counts_y / 160)
    assert est.estimate == pytest.approx(coupling.value, abs=1e-9)
    assert est.ci_low <= est.estimate <= est.ci_high


def test_support_flow_duplicated_word_and_negative_letter(rng):
    twice = [(0, 1, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    once = [(0, 0, 1), (1, 1, 0), (0, 1, 1)]
    for _ in range(5):
        wx, wy = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3))
        coupling = _assert_support_flow(twice, wx, once, wy)
        assert coupling.value == pytest.approx(
            dbar_between(twice[1:], [wx[1], wx[0] + wx[2], wx[3]], once, wy).value, abs=1e-9)
        _assert_support_flow([(-1, 0, 1), (2, 0, 0)], wx[:2] / wx[:2].sum(), once, wy)


# -- golden artifact bytes ----------------------------------------------------

_GOLDEN_TREE_DBAR = """{
  "dual_value": "0.30000000000000004",
  "dual_x": [
    "0",
    "0.5",
    "0.5",
    "1"
  ],
  "dual_y": [
    "0",
    "-0.5",
    "-0.5",
    "-1"
  ],
  "engine": "tree-enumeration",
  "support_x": 4,
  "support_y": 4,
  "value": "0.30000000000000004"
}
"""
_GOLDEN_TREE_CSV = (
    "atom_x,atom_y,mass\r\n"
    "00,00,0.10000000000000001\r\n"
    "01,01,0.20000000000000001\r\n"
    "10,00,0.099999999999999978\r\n"
    "10,10,0.20000000000000001\r\n"
    "11,00,0.20000000000000007\r\n"
    "11,01,0.099999999999999978\r\n"
    "11,11,0.10000000000000001\r\n"
)


def _dbar_artifacts(tmp_path, mu, nu, m):
    from markovdetect.cli import main
    (tmp_path / "mu.json").write_text(json.dumps(mu))
    (tmp_path / "nu.json").write_text(json.dumps(nu))
    assert main(["dbar", "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
                 "--window", str(m), "--alphabet-size", "2", "--out", str(tmp_path / "out")]) == 0
    return [(tmp_path / "out" / name).read_bytes() for name in ("dbar.json", "coupling.csv")]


def test_dbar_artifact_bytes_tree_pair(tmp_path):
    """dbar.json and coupling.csv of a 4-atom tree-enumeration pair, byte for byte."""
    dbar, csv_bytes = _dbar_artifacts(tmp_path, [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], 2)
    assert abs(float(json.loads(dbar)["value"]) - 0.3) <= 1e-12
    assert dbar.decode() == _GOLDEN_TREE_DBAR
    assert csv_bytes.decode() == _GOLDEN_TREE_CSV


def test_dbar_artifact_bytes_flow_pair(tmp_path):
    """dbar.json and coupling.csv of a 32-atom hamming-flow pair, by digest."""
    nu = [float((32 - i) ** 2) for i in range(32)]
    dbar, csv_bytes = _dbar_artifacts(
        tmp_path, [float(i + 1) / 528 for i in range(32)], [x / sum(nu) for x in nu], 5)
    assert hashlib.sha256(dbar).hexdigest() == (
        "ef56ca90fb6eef70979ef7fe6f15775e853944c158cd465fd117df8d5f7758bd")
    assert hashlib.sha256(csv_bytes).hexdigest() == (
        "3e93868586b08a3fa1b4019ad361de1089d863053c98374f059a915b0c5c851a")


def test_probe_artifact_bytes(tmp_path):
    """probe.json and probe_scatter.csv of 100 boundary-biased 8-atom pairs, by digest.

    The digests pin the tree-enumeration engine's floats; every recorded
    distance is the value of ``dbar_exact``'s coupling, bit for bit.
    """
    from markovdetect.cli import main
    from markovdetect.util import load_json, spawn_rng
    out = tmp_path / "probe"
    assert main(["probe", "--alphabet-size", "2", "--window", "3", "--instances", "100",
                 "--sampler", "boundary-biased", "--seed", "0", "--out", str(out)]) == 0
    report = load_json(out / "probe.json")
    assert report["engine"] == "tree-enumeration"
    assert (report["excluded"], report["violations"]) == (0, 0)
    assert report["sup_ratio"] == pytest.approx(1762.418418086017, rel=1e-12)
    assert len(report["points"]) == 100
    for point in report["points"]:
        rng = spawn_rng(0, 20, point["index"])
        mu = rng.dirichlet(np.full(8, 0.1))
        nu = rng.dirichlet(np.full(8, 0.1))
        assert point["dbar"] == dbar_exact(mu, nu, 3).value
    assert hashlib.sha256((out / "probe.json").read_bytes()).hexdigest() == (
        "a7360fe9573def285c6746ebce736c5bee381fe80c24947b8e8e89cbfc5f50c0")
    assert hashlib.sha256((out / "probe_scatter.csv").read_bytes()).hexdigest() == (
        "d675aea309deded710304ee6f261e0ed4131fbfa6367746456ebc6beb46f12b4")
