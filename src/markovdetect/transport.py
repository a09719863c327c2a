"""Ornstein-style per-letter transport distance between sequence laws.

Two exact engines answer, chosen by the size of the word cube a^m that both
supports embed in (a symbols, window m):

- ``"hamming-flow"`` for 16 < a^m <= ``DBAR_ATOM_CAP``.  The ground cost
  Hamming/m is the shortest-path metric of the Hamming graph (words joined
  when they differ in one letter, each edge costing 1/m), so the transport
  optimum equals a min-cost flow of mu - nu on that graph (the Beckmann /
  EMD-L1 reduction of Ling & Okada, 2007).  The flow LP has a^m * m * (a-1)
  arcs instead of the a^(2m) cells of the dense problem, and HiGHS solves it
  through ``scipy.optimize.linprog``.  Words missing from a support are
  zero-mass nodes.  The coupling is the diagonal min(mu, nu) plus a
  decomposition of the flow into paths.
- ``"simplex"``, a self-contained transportation simplex (northwest-corner
  start, dual/MODI pivots) on the dense cost matrix, for cubes of at most 16
  atoms, where a HiGHS call (about 2.5 ms) costs more than the whole simplex,
  and for cubes above the cap, whose supports are solved as given.

Both engines return dual prices, so optimality is certified rather than
taken on faith: on the flow path by node potentials that are 1/m-Lipschitz on
every arc plus a zero duality gap, on the simplex path by dual feasibility and
complementary slackness on the cost matrix.  Monte Carlo or entropic
shortcuts are deliberately absent: callers that need the distance get the
exact optimum or an error.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

from .errors import AtomBudgetError, NonConvergenceError
from .util import all_atoms, fmt17, spawn_rng

DBAR_ATOM_CAP = 4096
_SIMPLEX_MAX_ATOMS = 16  # cubes this small stay on the simplex: one HiGHS call costs more
_RC_TOL = 1e-11
_CERT_TOL = 1e-9
# HiGHS defaults (1e-7) left Dirichlet(0.05) laws 4.6e-8 off the simplex
# optimum, beyond the 1e-9 certificate; at 1e-10 the gap stays below 5e-11.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_FLOW_EPS = 1e-12  # flows and masses at or below this are rounding residue


def tv(p, q) -> float:
    """Total variation distance, half the L1 difference."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


def l1_distance(p, q) -> float:
    return float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def hamming_cost(x, y) -> float:
    """Fraction of positions where the two equal-length tuples disagree."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError("sequences must have equal length")
    return float(np.mean(x != y))


def _cost_matrix(atoms_x: np.ndarray, atoms_y: np.ndarray) -> np.ndarray:
    return (atoms_x[:, None, :] != atoms_y[None, :, :]).mean(axis=2)


@dataclass
class Coupling:
    """Optimal transport plan plus the dual prices certifying it."""

    atoms_x: list[tuple[int, ...]]
    atoms_y: list[tuple[int, ...]]
    weights_x: np.ndarray
    weights_y: np.ndarray
    entries: list[tuple[int, int, float]]  # (ix, iy, mass), mass > 0
    dual_x: np.ndarray
    dual_y: np.ndarray
    value: float
    engine: str  # "simplex" or "hamming-flow"

    def validate(self, tol: float = _CERT_TOL) -> None:
        row = np.zeros(len(self.atoms_x))
        col = np.zeros(len(self.atoms_y))
        for i, j, mass in self.entries:
            if mass < -tol:
                raise ValueError("negative mass in coupling")
            row[i] += mass
            col[j] += mass
        if np.abs(row - self.weights_x).max() > tol or np.abs(col - self.weights_y).max() > tol:
            raise ValueError("coupling marginals do not match")

    def to_json(self) -> dict:
        return {
            "value": fmt17(self.value),
            "dual_x": [fmt17(v) for v in self.dual_x],
            "dual_y": [fmt17(v) for v in self.dual_y],
            "dual_value": fmt17(
                float(self.weights_x @ self.dual_x + self.weights_y @ self.dual_y)
            ),
            "support_x": len(self.atoms_x),
            "support_y": len(self.atoms_y),
            "engine": self.engine,
        }

    def entries_to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["atom_x", "atom_y", "mass"])
            for i, j, mass in sorted(self.entries):
                writer.writerow([
                    "".join(map(str, self.atoms_x[i])),
                    "".join(map(str, self.atoms_y[j])),
                    fmt17(mass),
                ])


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    nr, nc = len(a), len(b)
    left_a = a.copy()
    left_b = b.copy()
    alloc = {}
    basis: list[tuple[int, int]] = []
    i = j = 0
    while True:
        x = min(left_a[i], left_b[j])
        basis.append((i, j))
        alloc[(i, j)] = x
        left_a[i] -= x
        left_b[j] -= x
        if i == nr - 1 and j == nc - 1:
            break
        if left_a[i] <= 1e-15 and i < nr - 1:
            i += 1
        else:
            j += 1
    return alloc, basis


def _duals_from_basis(basis, cost, nr, nc):
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for (i, j) in basis:
        adj.setdefault(i, []).append((nr + j, (i, j)))
        adj.setdefault(nr + j, []).append((i, (i, j)))
    u = np.full(nr, np.nan)
    v = np.full(nc, np.nan)
    u[0] = 0.0
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for other, (bi, bj) in adj.get(node, ()):
            if other in seen:
                continue
            seen.add(other)
            if other >= nr:
                v[other - nr] = cost[bi, bj] - u[bi]
            else:
                u[other] = cost[bi, bj] - v[bj]
            stack.append(other)
    if np.isnan(u).any() or np.isnan(v).any():
        raise NonConvergenceError("basis graph is disconnected")
    return u, v


def _basis_cycle(basis, enter, nr):
    """Alternating cycle closed by the entering cell, via the basis tree path."""
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for cell in basis:
        i, j = cell
        adj.setdefault(i, []).append((nr + j, cell))
        adj.setdefault(nr + j, []).append((i, cell))
    start, goal = enter[0], nr + enter[1]
    parent: dict[int, tuple[int, tuple[int, int]]] = {start: (-1, (-1, -1))}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for other, cell in adj.get(node, ()):
            if other not in parent:
                parent[other] = (node, cell)
                stack.append(other)
    path_cells = []
    node = goal
    while node != start:
        prev, cell = parent[node]
        path_cells.append(cell)
        node = prev
    return [enter] + path_cells


def solve_transport(supply, demand, cost, rule: str = "dantzig"):
    """Exact transportation optimum for positive supplies/demands.

    Returns (value, allocation dict, u, v) with u/v dual prices satisfying
    u_i + v_j <= c_ij everywhere and equality on allocated cells.
    """
    a = np.asarray(supply, dtype=float)
    b = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    if abs(a.sum() - b.sum()) > 1e-9:
        raise ValueError("total supply and demand differ")
    if a.min() <= 0 or b.min() <= 0:
        raise ValueError("solver core requires strictly positive masses")
    nr, nc = cost.shape
    alloc, basis = _northwest_corner(a, b)
    max_iter = 200 * (nr + nc) + 2000
    for _ in range(max_iter):
        u, v = _duals_from_basis(basis, cost, nr, nc)
        rc = cost - u[:, None] - v[None, :]
        for (i, j) in basis:
            rc[i, j] = 0.0
        if rule == "dantzig":
            enter_flat = int(np.argmin(rc))
            enter = divmod(enter_flat, nc)
            if rc[enter] >= -_RC_TOL:
                break
        else:  # bland: first negative in row-major order
            neg = np.argwhere(rc < -_RC_TOL)
            if len(neg) == 0:
                break
            enter = tuple(neg[0])
        cycle = _basis_cycle(basis, enter, nr)
        minus = cycle[1::2]
        theta = min(alloc[c] for c in minus)
        leave = next(c for c in minus if alloc[c] <= theta)
        for idx, cell in enumerate(cycle):
            if idx % 2 == 0:
                alloc[cell] = alloc.get(cell, 0.0) + theta
            else:
                alloc[cell] -= theta
        alloc.pop(leave, None)
        basis = [c for c in basis if c != leave] + [enter]
    else:
        if rule == "dantzig":  # extremely degenerate instance: retry with Bland
            return solve_transport(supply, demand, cost, rule="bland")
        raise NonConvergenceError("transportation simplex exceeded its pivot budget")
    value = float(sum(cost[c] * m for c, m in alloc.items()))
    return value, alloc, u, v


def _solve_with_zeros(wx, wy, cost):
    """Certified simplex optimum: drops zero-mass atoms and extends duals feasibly."""
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    ix = np.flatnonzero(wx > 0)
    iy = np.flatnonzero(wy > 0)
    value, alloc, u_r, v_r = solve_transport(wx[ix], wy[iy], cost[np.ix_(ix, iy)])
    u = np.empty(len(wx))
    v = np.empty(len(wy))
    u[ix] = u_r
    v[iy] = v_r
    drop_x = np.setdiff1d(np.arange(len(wx)), ix)
    drop_y = np.setdiff1d(np.arange(len(wy)), iy)
    if len(drop_y):
        v[drop_y] = (cost[ix][:, drop_y] - u[ix][:, None]).min(axis=0)
    if len(drop_x):
        # against the *full* v so dead (drop_x, drop_y) cells stay feasible too
        u[drop_x] = (cost[drop_x] - v[None, :]).min(axis=1)
    entries = [
        (int(ix[ri]), int(iy[rj]), float(mass))
        for (ri, rj), mass in sorted(alloc.items())
        if mass > 0
    ]
    _certify(cost, wx, wy, entries, u, v, value)
    return value, entries, u, v


def _certify(cost, wx, wy, entries, u, v, value):
    slack = cost - u[:, None] - v[None, :]
    if slack.min() < -_CERT_TOL:
        raise NonConvergenceError("dual certificate failed: infeasible prices")
    for i, j, mass in entries:
        if mass > 1e-12 and abs(slack[i, j]) > _CERT_TOL:
            raise NonConvergenceError("dual certificate failed: slackness violated")
    dual_value = float(wx @ u + wy @ v)
    if abs(dual_value - value) > _CERT_TOL:
        raise NonConvergenceError("dual certificate failed: duality gap")


# -- min-cost flow on the Hamming graph -------------------------------------


def _embed(ax: np.ndarray, ay: np.ndarray):
    """Place two (n, m) atom arrays in the word cube a^m for the flow engine.

    Letters index the alphabet directly, so a is one past the largest letter.
    Returns (a, nodes_x, nodes_y), the cube node of each atom, or None when the
    simplex answers: the cube is small or above the cap, a letter is negative,
    or a support lists one word twice.
    """
    if ax.size == 0 or ay.size == 0:
        return None
    m = ax.shape[1]
    a = int(max(ax.max(), ay.max())) + 1
    # size test first: small cubes, the common case, skip the other scans
    if not _SIMPLEX_MAX_ATOMS < a ** m <= DBAR_ATOM_CAP or min(ax.min(), ay.min()) < 0:
        return None
    place = a ** np.arange(m - 1, -1, -1, dtype=np.int64)
    nodes_x = ax @ place
    nodes_y = ay @ place
    if len(np.unique(nodes_x)) < len(nodes_x) or len(np.unique(nodes_y)) < len(nodes_y):
        return None
    return a, nodes_x, nodes_y


def _on_cube(weights: np.ndarray, nodes: np.ndarray, n: int) -> np.ndarray:
    dense = np.zeros(n)
    dense[nodes] = weights
    return dense


@lru_cache(maxsize=8)
def _hamming_graph(a: int, m: int):
    """Arcs of the Hamming graph on the a^m words, one each way along every edge.

    Returns read-only ``tails`` and ``heads`` node arrays and the node-arc
    incidence matrix (+1 at the tail, -1 at the head) without its last row,
    which the other rows imply because every column sums to zero.
    """
    nodes = np.arange(a ** m)
    tails, heads = [], []
    for i in range(m):
        stride = a ** (m - 1 - i)
        letter = (nodes // stride) % a
        for shift in range(1, a):
            tails.append(nodes)
            heads.append(nodes + ((letter + shift) % a - letter) * stride)
    tails = np.concatenate(tails)
    heads = np.concatenate(heads)
    arcs = np.arange(len(tails))
    incidence = csc_matrix(
        (np.repeat([1.0, -1.0], len(arcs)),
         (np.concatenate([tails, heads]), np.concatenate([arcs, arcs]))),
        shape=(len(nodes), len(arcs)),
    )[:-1]
    tails.flags.writeable = False
    heads.flags.writeable = False
    return tails, heads, incidence


def _hamming_flow(excess: np.ndarray, a: int, m: int):
    """Min-cost flow of ``excess`` (mu - nu on the cube) on the Hamming graph.

    Returns the arc flows, checked feasible, and the node potentials phi that
    HiGHS reports as duals of the conservation rows (phi = 0 on the last node).
    """
    tails, _, incidence = _hamming_graph(a, m)
    res = linprog(np.full(len(tails), 1.0 / m), A_eq=incidence, b_eq=excess[:-1],
                  bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise NonConvergenceError(f"min-cost flow failed: {res.message}")
    flow = res.x
    if flow.min() < -_CERT_TOL or np.abs(incidence @ flow - excess[:-1]).max() > _CERT_TOL:
        raise NonConvergenceError("flow certificate failed: infeasible flow")
    return flow, np.append(res.eqlin.marginals, 0.0)


def _certify_flow(phi, excess, value, a, m):
    """Potentials 1/m-Lipschitz on every arc, hence on the Hamming cost, and no gap.

    The arc bound gives phi[x] - phi[y] <= hamming(x, y)/m + m * _CERT_TOL for
    every pair, so (phi, -phi) are feasible transport duals.
    """
    tails, heads, _ = _hamming_graph(a, m)
    if (phi[tails] - phi[heads]).max() > 1.0 / m + _CERT_TOL:
        raise NonConvergenceError("flow certificate failed: potentials not 1/m-Lipschitz")
    if abs(float(phi @ excess) - value) > _CERT_TOL:
        raise NonConvergenceError("flow certificate failed: duality gap")


def _flow_plan(mu, nu, flow, a, m) -> dict[tuple[int, int], float]:
    """Coupling on cube nodes: the diagonal min(mu, nu) plus the flow cut into paths.

    An optimal flow runs only along arcs where the potentials drop by 1/m, so
    its support is acyclic and a walk along arcs with flow left ends at a node
    with demand left.  Solver rounding (flows off by ~1e-12) can leave a walk
    at a node with nothing to pass on; that arc's flow is rounding residue, so
    it is retired and the walk steps back.  Each step empties a supply, a
    demand or an arc; the residue dropped is judged by the marginal check.
    """
    tails, heads, _ = _hamming_graph(a, m)
    both = np.minimum(mu, nu)
    plan = {(k, k): float(both[k]) for k in np.flatnonzero(both > 0).tolist()}
    live = np.flatnonzero(flow > _FLOW_EPS)
    live = live[np.argsort(tails[live], kind="stable")]
    tail = tails[live].tolist()
    head = heads[live].tolist()
    left = flow[live].tolist()
    first = np.searchsorted(tails[live], np.arange(len(mu) + 1)).tolist()
    cursor = first[:-1]
    supply = np.maximum(mu - nu, 0.0).tolist()
    demand = np.maximum(nu - mu, 0.0).tolist()

    def walk(node):
        path = []
        while demand[node] <= _FLOW_EPS:
            k = cursor[node]
            while k < first[node + 1] and left[k] <= _FLOW_EPS:
                k += 1
            cursor[node] = k
            if k < first[node + 1]:
                path.append(k)
                node = head[k]
            elif path:
                k = path.pop()
                left[k] = 0.0
                node = tail[k]
            else:
                return None, path
        return node, path

    for source in np.flatnonzero(mu - nu > _FLOW_EPS).tolist():
        while supply[source] > _FLOW_EPS:
            sink, path = walk(source)
            if sink is None:
                break
            mass = min([supply[source], demand[sink]] + [left[k] for k in path])
            supply[source] -= mass
            demand[sink] -= mass
            for k in path:
                left[k] -= mass
            plan[(source, sink)] = plan.get((source, sink), 0.0) + mass
    return plan


def _flow_coupling(ax, wx, ay, wy, a, nodes_x, nodes_y):
    """Certified optimum, plan entries and duals from the flow engine."""
    m = ax.shape[1]
    n = a ** m
    mu = _on_cube(wx, nodes_x, n)
    nu = _on_cube(wy, nodes_y, n)
    flow, phi = _hamming_flow(mu - nu, a, m)
    plan = _flow_plan(mu, nu, flow, a, m)
    row = np.full(n, -1)
    row[nodes_x] = np.arange(len(nodes_x))
    col = np.full(n, -1)
    col[nodes_y] = np.arange(len(nodes_y))
    ends = np.array(list(plan), dtype=np.int64).reshape(-1, 2)
    i, j = row[ends[:, 0]], col[ends[:, 1]]
    mass = np.array(list(plan.values()))
    value = float(mass @ (ax[i] != ay[j]).sum(axis=1)) / m
    _certify_flow(phi, mu - nu, value, a, m)
    entries = sorted(zip(i.tolist(), j.tolist(), mass.tolist()))
    return value, entries, phi[nodes_x], -phi[nodes_y]


def dbar_exact(mu, nu, m: int, alphabet_size: int | None = None,
               atom_cap: int = DBAR_ATOM_CAP) -> Coupling:
    """Exact mean-Hamming transport distance between two length-m sequence laws.

    ``mu`` and ``nu`` are dense vectors over lexicographically ordered atoms.
    For m = 1 the optimum equals the total variation distance.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(mu) != len(nu):
        raise ValueError("distributions must share the atom space")
    if len(mu) > atom_cap:
        raise AtomBudgetError(f"{len(mu)} atoms exceed cap {atom_cap}")
    for name, w in (("mu", mu), ("nu", nu)):
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must be a probability vector")
    if alphabet_size is None:
        alphabet_size = round(len(mu) ** (1.0 / m))
    if alphabet_size ** m != len(mu):
        raise ValueError("atom count is not alphabet_size ** m")
    atoms = all_atoms(alphabet_size, m)
    return dbar_between(atoms, mu, atoms, nu)


def dbar_between(atoms_x, weights_x, atoms_y, weights_y) -> Coupling:
    """Transport distance between two weighted atom sets (shared length)."""
    ax = np.asarray(atoms_x, dtype=np.int64)
    ay = np.asarray(atoms_y, dtype=np.int64)
    wx = np.asarray(weights_x, dtype=float)
    wy = np.asarray(weights_y, dtype=float)
    if ax.ndim != 2 or ay.ndim != 2 or ax.shape[1] != ay.shape[1]:
        raise ValueError("atoms must be sequences of one shared length")
    embedded = _embed(ax, ay)
    if embedded is None:
        cost = _cost_matrix(ax, ay)
        value, entries, u, v = _solve_with_zeros(wx, wy, cost)
        engine = "simplex"
    else:
        value, entries, u, v = _flow_coupling(ax, wx, ay, wy, *embedded)
        engine = "hamming-flow"
    coupling = Coupling(
        atoms_x=[tuple(map(int, row)) for row in ax],
        atoms_y=[tuple(map(int, row)) for row in ay],
        weights_x=wx,
        weights_y=wy,
        entries=entries,
        dual_x=u,
        dual_y=v,
        value=value,
        engine=engine,
    )
    coupling.validate()
    return coupling


@dataclass
class EmpiricalTransport:
    """Plug-in transport distance between two window samples, with bootstrap CI."""

    estimate: float
    ci_low: float
    ci_high: float
    n_x: int
    n_y: int
    support_x: int
    support_y: int
    bootstrap: int
    engine: str  # "simplex" or "hamming-flow"

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_x": self.n_x,
            "n_y": self.n_y,
            "support_x": self.support_x,
            "support_y": self.support_y,
            "bootstrap": self.bootstrap,
            "engine": self.engine,
        }


def _empirical(rows: np.ndarray):
    atoms, counts = np.unique(rows, axis=0, return_counts=True)
    return atoms, counts / counts.sum()


def _value_solver(atoms_x: np.ndarray, atoms_y: np.ndarray):
    """(solve, engine): ``solve(wx, wy)`` is the certified optimum between the supports.

    The engine and its fixed data (cost matrix or cube embedding) are set up
    once, since the bootstrap re-solves on the same supports.
    """
    embedded = _embed(atoms_x, atoms_y)
    if embedded is None:
        cost = _cost_matrix(atoms_x, atoms_y)
        return (lambda wx, wy: _solve_with_zeros(wx, wy, cost)[0]), "simplex"
    a, nodes_x, nodes_y = embedded
    m = atoms_x.shape[1]

    def solve(wx, wy):
        excess = _on_cube(wx, nodes_x, a ** m) - _on_cube(wy, nodes_y, a ** m)
        flow, phi = _hamming_flow(excess, a, m)
        value = float(flow.sum()) / m
        _certify_flow(phi, excess, value, a, m)
        return value

    return solve, "hamming-flow"


def dbar_empirical(samples_x, samples_y, bootstrap: int = 200, seed: int = 0,
                   atom_cap: int = DBAR_ATOM_CAP) -> EmpiricalTransport:
    """Plug-in estimate with a percentile bootstrap interval (fixed seed).

    Inputs are (n, m) arrays of sampled windows.  Resampling happens on the
    empirical count vectors, which is equivalent to resampling the windows.
    """
    xs = np.asarray(samples_x, dtype=np.int64)
    ys = np.asarray(samples_y, dtype=np.int64)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[1] != ys.shape[1]:
        raise ValueError("need (n, m) sample arrays with matching window length")
    if bootstrap < 2:
        raise ValueError("bootstrap must be >= 2")
    atoms_x, wx = _empirical(xs)
    atoms_y, wy = _empirical(ys)
    if len(atoms_x) > atom_cap or len(atoms_y) > atom_cap:
        raise AtomBudgetError("empirical support exceeds the atom cap")
    solve, engine = _value_solver(atoms_x, atoms_y)
    point = solve(wx, wy)
    n_x, n_y = len(xs), len(ys)
    reps = np.empty(bootstrap)
    for b in range(bootstrap):
        rng = spawn_rng(seed, 3, b)
        rx = rng.multinomial(n_x, wx) / n_x
        ry = rng.multinomial(n_y, wy) / n_y
        reps[b] = solve(rx, ry)
    lo, hi = np.percentile(reps, [2.5, 97.5])
    # percentile intervals can drift off a boundary point estimate; widen so
    # the reported interval always brackets the estimate
    return EmpiricalTransport(
        estimate=float(point),
        ci_low=float(min(lo, point)),
        ci_high=float(max(hi, point)),
        n_x=n_x,
        n_y=n_y,
        support_x=len(atoms_x),
        support_y=len(atoms_y),
        bootstrap=bootstrap,
        engine=engine,
    )
