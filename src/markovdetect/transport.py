"""Ornstein-style per-letter transport distance between sequence laws.

Three exact engines answer, chosen by the size of the word cube a^m that both
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
  atoms and for cubes above the cap, whose supports are solved as given.  A
  whole ``dbar_exact`` call on it takes about 0.08 ms at 4 atoms and 0.15 ms
  at 8 atoms, against about 2.9 ms for one HiGHS call on the same cube's
  flow (2-vCPU Intel Xeon VM).  The basis is a spanning tree of rows and
  columns held as the allocation dict plus each node's basic neighbours; a
  pivot runs one depth-first search from row 0 for the duals and parent
  pointers and closes the entering cell's cycle along the tree path.  Since
  a tree fixes every dual as one chain of subtractions from u_0 = 0 and has
  one path between two nodes, the results do not depend on the traversal.
- ``"tree-enumeration"``, value only (``dbar_value``), for whole cubes whose
  Hamming graph has at most ``_TREE_ENUM_MAX`` edge subsets of the size of a
  spanning tree: K_2..K_5, the 4-cycle and the 3-cube (792 subsets).  The
  flow LP's optimum is the cheapest spanning-tree flow and its dual optimum
  the best integer 1/m-Lipschitz potential, so both are enumerated once per
  cube (384 trees and 495 potentials on the 3-cube, built in about 2 ms) and
  a solve is two small matrix products: about 0.025 ms at 4 atoms and
  0.035 ms at 8 atoms, numpy only.  ``dbar_value`` answers every other cube
  through the engine ``dbar_empirical`` would use on it.

Every engine returns dual prices, so optimality is certified rather than
taken on faith: both flow engines return one record of arcs, flows and node
potentials, which ``_certify_flow`` checks for a conserving non-negative flow,
potentials that are 1/m-Lipschitz on every arc of the cube and a zero duality
gap; on the simplex path by dual feasibility, complementary slackness and a zero
duality gap on the cost matrix.  Monte Carlo or entropic shortcuts are
deliberately absent: callers that need the distance get the exact optimum or
an error.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import AtomBudgetError, NonConvergenceError
from .util import JsonRecord, decode, encode, fmt17, spawn_rng

DBAR_ATOM_CAP = 4096
_SIMPLEX_MAX_ATOMS = 16  # cubes this small stay on the simplex: one HiGHS call costs more
_RC_TOL = 1e-11
_CERT_TOL = 1e-9
# HiGHS defaults (1e-7) left Dirichlet(0.05) laws 4.6e-8 off the simplex
# optimum, beyond the 1e-9 certificate; at 1e-10 the gap stays below 5e-11.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_FLOW_EPS = 1e-12  # flows and masses at or below this are rounding residue
# cubes with at most this many (n - 1)-edge subsets, the candidate spanning
# trees, are solved by enumerating them: K_2..K_5, the 4-cycle and the 3-cube
# (792); K_6 has 3,003, the 3x3 rook graph 43,758
_TREE_ENUM_MAX = 1024


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
    # mismatch counts over m, the same floats as the mean without its overhead
    return (atoms_x[:, None, :] != atoms_y[None, :, :]).sum(axis=2) / atoms_x.shape[1]


@dataclass
class Coupling:
    """Optimal transport plan plus the dual prices certifying it."""

    atoms_x: np.ndarray  # (n, m) int64 words
    atoms_y: np.ndarray
    weights_x: np.ndarray
    weights_y: np.ndarray
    entries: list[tuple[int, int, float]]  # (ix, iy, mass), mass > 0
    dual_x: np.ndarray
    dual_y: np.ndarray
    value: float
    engine: str  # "simplex" or "hamming-flow"

    def validate(self) -> None:
        i, j, mass = _entry_columns(self.entries)
        if (mass < -_CERT_TOL).any():
            raise ValueError("negative mass in coupling")
        row = np.bincount(i, weights=mass, minlength=len(self.atoms_x))
        col = np.bincount(j, weights=mass, minlength=len(self.atoms_y))
        # written so that a NaN mass or weight fails the check
        if not (np.abs(row - self.weights_x).max() <= _CERT_TOL
                and np.abs(col - self.weights_y).max() <= _CERT_TOL):
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
            words_x = self.atoms_x.tolist()
            words_y = self.atoms_y.tolist()
            for i, j, mass in sorted(self.entries):
                writer.writerow([
                    "".join(map(str, words_x[i])),
                    "".join(map(str, words_y[j])),
                    fmt17(mass),
                ])


def _northwest_corner(a: list[float], b: list[float]) -> dict[tuple[int, int], float]:
    """Northwest-corner start: nr + nc - 1 basic cells, a spanning tree."""
    nr, nc = len(a), len(b)
    left_a = list(a)
    left_b = list(b)
    alloc = {}
    i = j = 0
    while True:
        x = min(left_a[i], left_b[j])
        alloc[(i, j)] = x
        left_a[i] -= x
        left_b[j] -= x
        if i == nr - 1 and j == nc - 1:
            return alloc
        if left_a[i] <= 1e-15 and i < nr - 1:
            i += 1
        else:
            j += 1


def _basis_tree(nbrs, edge_cost):
    """Duals, parent pointers and depths of the basis tree, by one DFS from row 0.

    Nodes are the rows 0..nr-1 and the columns nr..; ``nbrs`` lists each
    node's basic neighbours and ``edge_cost[x][y]`` is the cost of the cell
    joining nodes x and y.  Every dual is fixed by the basic cell joining its
    node to the parent (u_0 = 0, u_i + v_j = c_ij on the cell).
    """
    n = len(nbrs)
    duals = [0.0] * n
    parent = [-1] * n
    depth = [-1] * n
    depth[0] = 0
    stack = [0]
    while stack:
        node = stack.pop()
        below = depth[node] + 1
        costs = edge_cost[node]
        base = duals[node]
        for other in nbrs[node]:
            if depth[other] < 0:
                depth[other] = below
                parent[other] = node
                duals[other] = costs[other] - base
                stack.append(other)
    if min(depth) < 0:
        raise NonConvergenceError("basis graph is disconnected")
    return duals, parent, depth


def _tree_path(parent, depth, start, goal, nr):
    """Basic cells on the tree path from node ``start`` to node ``goal``.

    Both ends climb the parent pointers to their lowest common ancestor.
    """
    up, down = [start], [goal]
    while depth[up[-1]] > depth[down[-1]]:
        up.append(parent[up[-1]])
    while depth[down[-1]] > depth[up[-1]]:
        down.append(parent[down[-1]])
    while up[-1] != down[-1]:
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    nodes = up + down[-2::-1]
    return [(x, y - nr) if x < nr else (y, x - nr) for x, y in zip(nodes, nodes[1:])]


def solve_transport(supply, demand, cost, rule: str = "dantzig"):
    """Exact transportation optimum for positive supplies/demands.

    Returns (value, allocation dict, u, v) with u/v dual prices satisfying
    u_i + v_j <= c_ij everywhere and equality on allocated cells.

    Pivot rules: northwest-corner start; Dantzig entering cell, the first
    minimum of the reduced costs in row-major order with basic cells at 0
    (Bland: the first negative one); leaving cell, the first minus cell of
    the cycle, listed from the entering cell's column back to its row, whose
    mass is at most theta; a Bland retry when the pivot budget runs out.

    The basis is a spanning tree of rows and columns, kept as the allocation
    dict (cells in the order they entered) and each node's basic neighbours.
    Each pivot runs one DFS from row 0 for the duals, parent pointers and
    depths, and the cycle is the tree path found by climbing both ends to
    their lowest common ancestor.  In a tree each dual is the same chain of
    subtractions from u_0 = 0 whatever order the search takes, and the path
    is unique, so the pivots, duals and allocations do not depend on the
    traversal.  The value is summed over the basis in that order.
    """
    a = np.asarray(supply, dtype=float)
    b = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    if not abs(a.sum() - b.sum()) <= 1e-9:
        raise ValueError("total supply and demand differ")
    if not (a.min() > 0 and b.min() > 0):
        raise ValueError("solver core requires strictly positive masses")
    nr, nc = cost.shape
    c = cost.tolist()
    # cost of the cell joining two nodes, indexed by node number from either end
    edge_cost = [[0.0] * nr + row for row in c] + [col + [0.0] * nc for col in cost.T.tolist()]
    alloc = _northwest_corner(a.tolist(), b.tolist())
    nbrs: list[list[int]] = [[] for _ in range(nr + nc)]
    for i, j in alloc:
        nbrs[i].append(nr + j)
        nbrs[nr + j].append(i)
    max_iter = 200 * (nr + nc) + 2000
    for _ in range(max_iter):
        duals, parent, depth = _basis_tree(nbrs, edge_cost)
        d = np.array(duals)
        u, v = d[:nr], d[nr:]
        rc = cost - u[:, None] - v[None, :]
        for cell in alloc:
            rc[cell] = 0.0
        if rule == "dantzig":  # first minimum in row-major order
            k = int(rc.argmin())
            if rc.flat[k] >= -_RC_TOL:
                break
        else:  # bland: first negative in row-major order
            neg = np.flatnonzero(rc < -_RC_TOL)
            if len(neg) == 0:
                break
            k = int(neg[0])
        enter = divmod(k, nc)
        cycle = [enter] + _tree_path(parent, depth, nr + enter[1], enter[0], nr)
        minus = cycle[1::2]
        theta = min(alloc[cell] for cell in minus)
        leave = next(cell for cell in minus if alloc[cell] <= theta)
        alloc[enter] = 0.0 + theta
        for cell in cycle[2::2]:
            alloc[cell] += theta
        for cell in minus:
            alloc[cell] -= theta
        del alloc[leave]
        nbrs[leave[0]].remove(nr + leave[1])
        nbrs[nr + leave[1]].remove(leave[0])
        nbrs[enter[0]].append(nr + enter[1])
        nbrs[nr + enter[1]].append(enter[0])
    else:
        if rule == "dantzig":  # extremely degenerate instance: retry with Bland
            return solve_transport(supply, demand, cost, rule="bland")
        raise NonConvergenceError("transportation simplex exceeded its pivot budget")
    value = 0.0  # summed in basis order, one rounding per cell
    for (i, j), mass in alloc.items():
        value += c[i][j] * mass
    return value, alloc, u, v


def _solve_with_zeros(wx, wy, cost):
    """Certified simplex optimum: drops zero-mass atoms and extends duals feasibly."""
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    keep_x = wx > 0
    keep_y = wy > 0
    ix = np.flatnonzero(keep_x)
    iy = np.flatnonzero(keep_y)
    value, alloc, u_r, v_r = solve_transport(wx[ix], wy[iy], cost[ix[:, None], iy])
    u = np.empty(len(wx))
    v = np.empty(len(wy))
    u[ix] = u_r
    v[iy] = v_r
    if len(iy) < len(wy):
        drop_y = ~keep_y
        v[drop_y] = (cost[ix][:, drop_y] - u[ix][:, None]).min(axis=0)
    if len(ix) < len(wx):
        # against the *full* v so dead (drop_x, drop_y) cells stay feasible too
        drop_x = ~keep_x
        u[drop_x] = (cost[drop_x] - v[None, :]).min(axis=1)
    ix = ix.tolist()
    iy = iy.tolist()
    entries = [(ix[ri], iy[rj], mass) for (ri, rj), mass in sorted(alloc.items()) if mass > 0]
    _certify(cost, wx, wy, entries, u, v, value)
    return value, entries, u, v


def _entry_columns(entries):
    """Row indices, column indices and masses of (i, j, mass) plan entries."""
    i, j, mass = zip(*entries) if entries else ((), (), ())
    return np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(mass, dtype=float)


def _certify(cost, wx, wy, entries, u, v, value):
    # comparisons are written so that a NaN anywhere fails them
    slack = cost - u[:, None] - v[None, :]
    if not slack.min() >= -_CERT_TOL:
        raise NonConvergenceError("dual certificate failed: infeasible prices")
    i, j, mass = _entry_columns(entries)
    if not (np.abs(slack[i, j]) <= _CERT_TOL)[mass > 1e-12].all():
        raise NonConvergenceError("dual certificate failed: slackness violated")
    dual_value = float(wx @ u + wy @ v)
    if not abs(dual_value - value) <= _CERT_TOL:
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
    nodes_x = encode(ax, a)
    nodes_y = encode(ay, a)
    if len(np.unique(nodes_x)) < len(nodes_x) or len(np.unique(nodes_y)) < len(nodes_y):
        return None
    return a, nodes_x, nodes_y


def _on_cube(weights: np.ndarray, nodes: np.ndarray, n: int) -> np.ndarray:
    dense = np.zeros(n)
    dense[nodes] = weights
    return dense


@lru_cache(maxsize=8)
def _hamming_arcs(a: int, m: int):
    """Arcs of the Hamming graph on the a^m words, one each way along every edge.

    Returns read-only ``tails`` and ``heads`` node arrays, built with numpy
    alone so that the engines that need no LP solver never load scipy.
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
    tails.flags.writeable = False
    heads.flags.writeable = False
    return tails, heads


@lru_cache(maxsize=8)
def _hamming_incidence(a: int, m: int):
    """Node-arc incidence of ``_hamming_arcs`` (+1 at the tail, -1 at the head)
    without its last row, which the other rows imply because every column sums
    to zero."""
    from scipy.sparse import csc_matrix
    tails, heads = _hamming_arcs(a, m)
    arcs = np.arange(len(tails))
    return csc_matrix(
        (np.repeat([1.0, -1.0], len(arcs)),
         (np.concatenate([tails, heads]), np.concatenate([arcs, arcs]))),
        shape=(a ** m, len(arcs)),
    )[:-1]


def _hamming_flow(excess: np.ndarray, a: int, m: int):
    """Min-cost flow of ``excess`` (mu - nu on the cube) on the Hamming graph.

    Returns the flow record ``(tails, heads, flow, phi)``: every arc of
    ``_hamming_arcs``, its flow, and the node potentials phi that HiGHS
    reports as duals of the conservation rows (phi = 0 on the last node).
    """
    from scipy.optimize import linprog
    incidence = _hamming_incidence(a, m)
    res = linprog(np.full(incidence.shape[1], 1.0 / m), A_eq=incidence, b_eq=excess[:-1],
                  bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise NonConvergenceError(f"min-cost flow failed: {res.message}")
    return (*_hamming_arcs(a, m), res.x, np.append(res.eqlin.marginals, 0.0))


def _certify_flow(record, excess: np.ndarray, a: int, m: int) -> float:
    """Certified value of a flow record ``(tails, heads, flow, phi)`` of ``excess``.

    The flow must be non-negative and balance the excess at every node but
    one, whose balance the others imply up to the rounding of sum(excess):
    each engine leaves a different node's row out of its solve.  The
    potentials must be 1/m-Lipschitz on every arc of the cube, which gives
    phi[x] - phi[y] <= hamming(x, y)/m + m * _CERT_TOL for every pair, so
    (phi, -phi) are feasible transport duals; and the duality gap must be zero.
    """
    tails, heads, flow, phi = record
    n = len(excess)
    net = np.bincount(tails, flow, n) - np.bincount(heads, flow, n)
    off = np.sort(np.abs(net - excess))  # NaN sorts last
    # comparisons are written so that a NaN anywhere fails them
    if not (flow.min() >= -_CERT_TOL and off[-2] <= _CERT_TOL):
        raise NonConvergenceError("flow certificate failed: infeasible flow")
    cube_tails, cube_heads = _hamming_arcs(a, m)
    if not (phi[cube_tails] - phi[cube_heads]).max() <= 1.0 / m + _CERT_TOL:
        raise NonConvergenceError("flow certificate failed: potentials not 1/m-Lipschitz")
    value = float(flow.sum()) / m
    if not abs(float(phi @ excess) - value) <= _CERT_TOL:
        raise NonConvergenceError("flow certificate failed: duality gap")
    return value


def _flow_plan(mu, nu, record) -> dict[tuple[int, int], float]:
    """Coupling on cube nodes: the diagonal min(mu, nu) plus the flow cut into paths.

    An optimal flow runs only along arcs where the potentials drop by 1/m, so
    its support is acyclic and a walk along arcs with flow left ends at a node
    with demand left.  Solver rounding (flows off by ~1e-12) can leave a walk
    at a node with nothing to pass on; that arc's flow is rounding residue, so
    it is retired and the walk steps back.  Each step empties a supply, a
    demand or an arc; the residue dropped is judged by the marginal check.
    """
    tails, heads, flow, _ = record
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
    excess = mu - nu
    record = _hamming_flow(excess, a, m)
    _certify_flow(record, excess, a, m)
    plan = _flow_plan(mu, nu, record)
    row = np.full(n, -1)
    row[nodes_x] = np.arange(len(nodes_x))
    col = np.full(n, -1)
    col[nodes_y] = np.arange(len(nodes_y))
    ends = np.array(list(plan), dtype=np.int64).reshape(-1, 2)
    i, j = row[ends[:, 0]], col[ends[:, 1]]
    mass = np.array(list(plan.values()))
    value = float(mass @ (ax[i] != ay[j]).sum(axis=1)) / m
    phi = record[3]
    if not abs(float(phi @ excess) - value) <= _CERT_TOL:  # the plan's own gap
        raise NonConvergenceError("flow certificate failed: duality gap of the plan")
    entries = sorted(zip(i.tolist(), j.tolist(), mass.tolist()))
    return value, entries, phi[nodes_x], -phi[nodes_y]


@lru_cache(maxsize=8)
def _word_cube(a: int, m: int) -> np.ndarray:
    """The a^m words of length m in code order, as a read-only (a^m, m) array."""
    atoms = decode(np.arange(a ** m), a, m)
    atoms.flags.writeable = False
    return atoms


def _cube_laws(mu, nu, m: int, alphabet_size: int | None):
    """Validated (mu, nu, alphabet_size) for two laws on the whole a^m word cube."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(mu) != len(nu):
        raise ValueError("distributions must share the atom space")
    if len(mu) > DBAR_ATOM_CAP:
        raise AtomBudgetError(f"{len(mu)} atoms exceed cap {DBAR_ATOM_CAP}")
    for name, w in (("mu", mu), ("nu", nu)):
        if not (w.min() >= 0 and abs(w.sum() - 1.0) <= 1e-9):  # NaN fails too
            raise ValueError(f"{name} must be a probability vector")
    if alphabet_size is None:
        alphabet_size = round(len(mu) ** (1.0 / m))
    if alphabet_size ** m != len(mu):
        raise ValueError("atom count is not alphabet_size ** m")
    return mu, nu, alphabet_size


def dbar_exact(mu, nu, m: int, alphabet_size: int | None = None) -> Coupling:
    """Exact mean-Hamming transport distance between two length-m sequence laws.

    ``mu`` and ``nu`` are dense vectors over lexicographically ordered atoms.
    For m = 1 the optimum equals the total variation distance.
    """
    mu, nu, alphabet_size = _cube_laws(mu, nu, m, alphabet_size)
    atoms = _word_cube(alphabet_size, m)
    return dbar_between(atoms, mu, atoms, nu)


def dbar_value(mu, nu, m: int, alphabet_size: int | None = None) -> tuple[float, str]:
    """Certified value of ``dbar_exact(mu, nu, m, ...)`` and the engine that answered.

    Builds no coupling.  Cubes with at most ``_TREE_ENUM_MAX`` edge subsets of
    size a^m - 1, the candidate spanning trees, answer by
    ``"tree-enumeration"``; every other cube by the engine ``dbar_empirical``
    would use on it (``"simplex"`` up to 16 words, ``"hamming-flow"`` above).
    """
    mu, nu, alphabet_size = _cube_laws(mu, nu, m, alphabet_size)
    solve, engine = _cube_solver(alphabet_size, m)
    return solve(mu, nu), engine


@lru_cache(maxsize=8)
def _cube_solver(a: int, m: int):
    """(solve, engine) for laws on the whole a^m cube, set up once per cube."""
    n = a ** m
    if a > 1 and math.comb(n * m * (a - 1) // 2, n - 1) <= _TREE_ENUM_MAX:  # one word has no edge
        def solve(mu, nu):
            excess = mu - nu
            return _certify_flow(_tree_flow(excess, a, m), excess, a, m)

        return solve, "tree-enumeration"
    atoms = _word_cube(a, m)
    return _value_solver(atoms, atoms)


# -- enumerated spanning-tree flows on small cubes ---------------------------


@dataclass(frozen=True)
class _TreeTable:
    """Every spanning tree's flow map and every integer potential of one cube.

    The flow LP min sum(f)/m, f >= 0 carrying the excess mu - nu along the
    arcs, has an optimal basic solution, and a basis is a spanning tree.  Each
    tree carries one flow that balances the excess, feasible once every edge's
    flow runs in the direction of its sign, so the optimum is the cheapest
    tree flow.  The dual's constraint matrix (arc-node incidence) is totally
    unimodular, so an optimal potential takes values in Z/m and is
    1/m-Lipschitz on every edge: the dual optimum is the best of the finitely
    many integer potentials with phi(word 0) = 0 that change by at most one
    along an edge.
    """

    tails: np.ndarray  # (edges,) each edge once, tail < head
    heads: np.ndarray
    trees: np.ndarray  # (trees, n - 1) edge indices of each spanning tree
    flow_maps: np.ndarray  # (trees * (n - 1), n - 1): inverse reduced incidences, stacked
    potentials: np.ndarray  # (potentials, n) integer-valued floats


@lru_cache(maxsize=8)
def _tree_table(a: int, m: int) -> _TreeTable:
    """Enumerate the cube's spanning trees and potentials; callers gate on the subset count."""
    tails, heads = _hamming_arcs(a, m)
    once = tails < heads
    tails, heads = tails[once], heads[once]
    n, n_edges = a ** m, len(tails)
    incidence = np.zeros((n, n_edges))
    incidence[tails, np.arange(n_edges)] = 1.0
    incidence[heads, np.arange(n_edges)] = -1.0
    # an (n - 1)-edge subset is a tree iff its incidence without node 0 is
    # invertible; the inverse has entries in {-1, 0, 1}.  The gate bounds the
    # number of subsets, so every array built here.
    subsets = np.array(list(itertools.combinations(range(n_edges), n - 1)))
    blocks = incidence[1:, subsets].transpose(1, 0, 2)
    is_tree = np.abs(np.linalg.det(blocks)) > 0.5
    flow_maps = np.rint(np.linalg.inv(blocks[is_tree])).reshape(-1, n - 1)
    # integer potentials word by word: every later word has an earlier neighbour,
    # so its value is that neighbour's plus -1, 0 or 1, kept if it is within
    # one of each earlier neighbour
    phi = np.zeros((1, 1))
    for node in range(1, n):
        earlier = np.concatenate([heads[tails == node], tails[heads == node]])
        earlier = earlier[earlier < node]
        rows = np.repeat(phi, 3, axis=0)
        value = rows[:, earlier[0]] + np.tile([-1.0, 0.0, 1.0], len(phi))
        keep = (np.abs(rows[:, earlier] - value[:, None]) <= 1).all(axis=1)
        phi = np.column_stack([rows, value])[keep]
    return _TreeTable(tails, heads, subsets[is_tree], flow_maps, phi)


def _tree_flow(excess: np.ndarray, a: int, m: int):
    """Cheapest spanning-tree flow of ``excess`` and the best integer potential.

    Returns the flow record ``(tails, heads, flow, phi)``: the tree's arcs
    oriented along their flow, the non-negative arc flows, and the potentials
    phi (phi[0] = 0) in units of the cost.
    """
    table = _tree_table(a, m)
    span = table.trees.shape[1]
    flows = (table.flow_maps @ excess[1:]).reshape(-1, span)
    best = int(np.abs(flows).sum(axis=1).argmin())
    flow = flows[best]
    edges = table.trees[best]
    forward = flow >= 0
    tails = np.where(forward, table.tails[edges], table.heads[edges])
    heads = np.where(forward, table.heads[edges], table.tails[edges])
    phi = table.potentials[int((table.potentials @ excess).argmax())]
    return tails, heads, np.abs(flow), phi / m


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
        atoms_x=ax,
        atoms_y=ay,
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
class EmpiricalTransport(JsonRecord):
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
        return _certify_flow(_hamming_flow(excess, a, m), excess, a, m)

    return solve, "hamming-flow"


def dbar_empirical(samples_x, samples_y, bootstrap: int = 200,
                   seed: int = 0) -> EmpiricalTransport:
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
    if len(atoms_x) > DBAR_ATOM_CAP or len(atoms_y) > DBAR_ATOM_CAP:
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
