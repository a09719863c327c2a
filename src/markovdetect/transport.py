"""Ornstein-style per-letter transport distance between sequence laws.

Every solve is a min-cost flow of mu - nu on a graph whose nodes are words
and whose arcs cost their Hamming distance over the window m.  When the
ground cost is the graph's shortest-path metric, the transport optimum equals
the cheapest such flow (the Beckmann / EMD-L1 reduction of Ling & Okada,
2007).  ``_flow_graph``, the one engine selector, picks the graph from the
two supports alone and binds its engine's solve and block size to it, so
``dbar_between``, ``dbar_exact``, ``dbar_empirical``, ``dbar_value`` and
``dbar_values`` name the same engine on the same supports, and every graph
solves a stack of weight pairs through one ``_FlowGraph.value`` path:

- The Hamming cube a^m (a symbols), when both supports embed in it: distinct
  words, non-negative letters and a^m <= ``DBAR_ATOM_CAP``.  Words are joined
  when they differ in one letter, each arc costing 1/m, and words missing
  from a support are zero-mass nodes.  Cubes with at most ``_TREE_ENUM_MAX``
  edge subsets of a spanning tree's size (K_2..K_5, the 4-cycle and the
  3-cube) answer by ``"tree-enumeration"``: the flow LP's optimum is the
  cheapest spanning-tree flow and its dual optimum the best integer
  1/m-Lipschitz potential, so both are enumerated once per cube (384 trees
  and 495 potentials on the 3-cube, built in about 2 ms) and a block of
  rows is two stacked matrix products, numpy only.  Every other cube answers
  by ``"hamming-flow"``: HiGHS's dual simplex on the a^m * m * (a-1) arcs,
  instead of the a^(2m) cells of the dense problem, one row at a time.
  ``_cube`` holds each cube's graph once: its arcs, this choice and the
  engine's tree table or HiGHS model.
- The bipartite support graph x -> y, for supports that do not embed (a cube
  above the cap, a word listed twice, a negative letter): one arc from each
  x atom to each y atom.  The same HiGHS solve answers it as
  ``"support-flow"``, and its flow is the coupling itself.

Each graph's HiGHS model is built once (``_flow_lp``) and each row only sets
its balances on it: the run ``scipy.optimize.linprog(method="highs")`` would
make, bit for bit, without its per-call parsing.  scipy releases without
the direct HiGHS bindings go through ``linprog``.  Both run without
presolve: it removes no row, column or nonzero of a flow LP (HiGHS logs
"Not reduced" on the 64-word cube), yet it cost about a quarter of a
64-atom solve (2.36 ms with it, 1.72 ms without, medians on a
2-vCPU VM), and every cube solve compared gave the same flows and duals.

Every engine returns one record of arcs, flows and node potentials per row
of excess, and ``_certify_flow`` checks each row: a conserving non-negative
flow, potentials that drop by no more than an arc's cost along every arc of
the graph, and a zero duality gap.  A coupling is the diagonal min(mu, nu) plus a
decomposition of the flow into paths.  Monte Carlo or entropic shortcuts are
deliberately absent: callers that need the distance get the exact optimum or
an error.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import AtomBudgetError, NonConvergenceError
from .util import JsonRecord, decode, encode, fmt17, fmt17_list, spawn_rng

DBAR_ATOM_CAP = 4096
_CERT_TOL = 1e-9
# HiGHS defaults (1e-7) left Dirichlet(0.05) laws 4.6e-8 off the optimum,
# beyond the 1e-9 certificate; at 1e-10 the gap stays below 5e-11.  Presolve
# reduces nothing in a flow LP, so it is off (see ``_flow_lp``).
_HIGHS_OPTIONS = {"presolve": False,
                  "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_FLOW_EPS = 1e-12  # flows and masses at or below this are rounding residue
# cubes with at most this many (n - 1)-edge subsets, the candidate spanning
# trees, are solved by enumerating them: K_2..K_5, the 4-cycle and the 3-cube
# (792); K_6 has 3,003, the 3x3 rook graph 43,758
_TREE_ENUM_MAX = 1024
# a block of tree-enumeration rows takes as many rows as keep its per-row
# products (every tree's flow, every potential's value) within this
_BLOCK_BYTES = 256 * 1024


def tv(p, q) -> float:
    """Total variation distance, half the L1 difference."""
    return 0.5 * l1_distance(p, q)


def l1_distance(p, q) -> float:
    return float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def hamming_cost(x, y) -> float:
    """Fraction of positions where the two equal-length tuples disagree."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError("sequences must have equal length")
    return float(np.mean(x != y))


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
    engine: str  # "tree-enumeration", "hamming-flow" or "support-flow"

    def validate(self) -> None:
        """Non-negative masses whose marginals are the weights.

        The weights' totals may differ by rounding, and a plan can match only
        one of them, so the marginals may be off by that difference on top of
        the certificate tolerance.
        """
        i, j, mass = _entry_columns(self.entries)
        if (mass < -_CERT_TOL).any():
            raise ValueError("negative mass in coupling")
        row = np.bincount(i, weights=mass, minlength=len(self.atoms_x))
        col = np.bincount(j, weights=mass, minlength=len(self.atoms_y))
        tol = _CERT_TOL + abs(float(self.weights_x.sum() - self.weights_y.sum()))
        # written so that a NaN mass or weight fails the check
        if not (np.abs(row - self.weights_x).max() <= tol
                and np.abs(col - self.weights_y).max() <= tol):
            raise ValueError("coupling marginals do not match")

    def to_json(self) -> dict:
        # adding 0.0 writes a zero price as "0", never as "-0"
        return {
            "value": fmt17(self.value),
            "dual_x": fmt17_list((self.dual_x + 0.0).tolist()),
            "dual_y": fmt17_list((self.dual_y + 0.0).tolist()),
            "dual_value": fmt17(
                float(self.weights_x @ self.dual_x + self.weights_y @ self.dual_y)
            ),
            "support_x": len(self.atoms_x),
            "support_y": len(self.atoms_y),
            "engine": self.engine,
        }

    def entries_to_csv(self, path: str | Path) -> None:
        """A header and one ``atom_x,atom_y,mass`` line per entry, each ended
        by CR LF as ``csv.writer`` ends them.  No field needs quoting: a word
        is its letters' digits (and minus signs) run together, a mass an
        ``fmt17`` float."""
        words_x = ["".join(map(str, word)) for word in self.atoms_x.tolist()]
        words_y = ["".join(map(str, word)) for word in self.atoms_y.tolist()]
        i, j, mass = _entry_columns(sorted(self.entries))
        lines = ["atom_x,atom_y,mass"]
        lines += [f"{words_x[x]},{words_y[y]},{text}"
                  for x, y, text in zip(i.tolist(), j.tolist(), fmt17_list(mass.tolist()))]
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")


def _entry_columns(entries):
    """Row indices, column indices and masses of (i, j, mass) plan entries."""
    i, j, mass = zip(*entries) if entries else ((), (), ())
    return np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(mass, dtype=float)


# -- the flow graphs and the engine selector ---------------------------------


@dataclass(frozen=True)
class _FlowGraph:
    """One transport graph set up for two supports, with its engine bound.

    Arc k runs from node ``tails[k]`` to node ``heads[k]`` and costs
    ``hops[k] / m``; on the Hamming cube ``hops`` is None, since every arc
    there changes one letter.  Atom i of the x support sits at node
    ``nodes_x[i]`` and atom j of the y support at ``nodes_y[j]``.  ``flow``,
    bound by the selector, maps an excess, or a stack of them, to the
    engine's flow record ``(tails, heads, flow, phi)``, one row of record per
    row of excess; ``block_rows`` is how many rows of a stack it takes at once.
    """

    engine: str
    flow: Callable[[np.ndarray], tuple]
    block_rows: int
    m: int
    size: int  # node count
    tails: np.ndarray
    heads: np.ndarray
    hops: np.ndarray | None
    nodes_x: np.ndarray
    nodes_y: np.ndarray

    def excess(self, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
        """The weights' difference wx - wy on the graph's nodes, row by row
        for stacks of weights."""
        return _on_nodes(wx, self.nodes_x, self.size) - _on_nodes(wy, self.nodes_y, self.size)

    def value(self, wx: np.ndarray, wy: np.ndarray):
        """Certified optimum between the supports weighted by ``wx`` and
        ``wy``, or one per row of two stacks of weights, solved ``block_rows``
        rows at a time.  Every row is certified, and a row's value does not
        depend on the rows stacked with it."""
        excess = self.excess(wx, wy)
        if excess.ndim == 1:
            return _certify_flow(self.flow(excess), excess, self)
        blocks = np.split(excess, range(self.block_rows, len(excess), self.block_rows))
        return np.concatenate([_certify_flow(self.flow(b), b, self) for b in blocks])


def _flow_graph(ax: np.ndarray, ay: np.ndarray) -> _FlowGraph:
    """The graph and engine for two (n, m) supports: the one engine selector.

    Letters index the alphabet directly, so the cube's a is one past the
    largest letter.  The supports embed in the cube when a > 1 (a one-word
    cube has no arcs), a^m <= ``DBAR_ATOM_CAP``, no letter is negative and
    neither support lists a word twice; they then take the cached ``_cube``,
    their words as its nodes.  Every other pair is solved by HiGHS on its
    support graph, one arc from each x atom to each y atom, one row at a time.
    """
    m = ax.shape[1]
    a = int(max(ax.max(), ay.max())) + 1
    n = a ** m
    if 1 < a and n <= DBAR_ATOM_CAP and min(ax.min(), ay.min()) >= 0:
        nodes_x, nodes_y = encode(ax, a), encode(ay, a)
        # counted with bincount: np.unique would load numpy.ma on the probe's path
        if np.bincount(nodes_x, minlength=n).max() == np.bincount(nodes_y, minlength=n).max() == 1:
            return replace(_cube(a, m), nodes_x=nodes_x, nodes_y=nodes_y)
    nx, ny = len(ax), len(ay)
    tails = np.repeat(np.arange(nx), ny)
    heads = nx + np.tile(np.arange(ny), nx)
    hops = (ax[:, None, :] != ay[None, :, :]).sum(axis=2).ravel()
    solve = _flow_lp(tails, heads, hops / m, nx + ny)
    return _FlowGraph("support-flow", lambda excess: _highs_flow(excess, tails, heads, solve), 1,
                      m, nx + ny, tails, heads, hops, np.arange(nx), nx + np.arange(ny))


@lru_cache(maxsize=8)
def _cube(a: int, m: int) -> _FlowGraph:
    """The whole a^m word cube as a graph, its engine bound: tree enumeration
    on cubes with at most ``_TREE_ENUM_MAX`` subsets of a^m - 1 of their
    a^m * m * (a - 1) / 2 edges, HiGHS row by row on the others.  The bound
    solves look ``_tree_flow`` and ``_highs_flow`` up when called.  The
    one-word cube (a = 1) has no arcs and takes the support graph."""
    n = a ** m
    if a == 1:
        word = np.zeros((1, m), dtype=np.int64)
        return _flow_graph(word, word)
    tails, heads = _hamming_arcs(a, m)
    if math.comb(len(tails) // 2, n - 1) <= _TREE_ENUM_MAX:
        table = _tree_table(a, m)
        rows = max(1, _BLOCK_BYTES // (8 * (len(table.flow_maps) + len(table.potentials))))
        engine, flow = "tree-enumeration", lambda excess: _tree_flow(excess, table, m)
    else:
        solve = _flow_lp(tails, heads, np.full(len(tails), 1.0 / m), n)
        engine, rows = "hamming-flow", 1
        flow = lambda excess: _highs_flow(excess, tails, heads, solve)
    nodes = np.arange(n)
    return _FlowGraph(engine, flow, rows, m, n, tails, heads, None, nodes, nodes)


def _on_nodes(weights: np.ndarray, nodes: np.ndarray, n: int) -> np.ndarray:
    dense = np.zeros(weights.shape[:-1] + (n,))
    dense[..., nodes] = weights
    return dense


def _hamming_arcs(a: int, m: int):
    """Arcs of the Hamming graph on the a^m words, one each way along every edge.

    Returns ``tails`` and ``heads`` node arrays, built with numpy alone so
    that the engines that need no LP solver never load scipy.
    """
    nodes = np.arange(a ** m)
    tails, heads = [], []
    for i in range(m):
        stride = a ** (m - 1 - i)
        letter = (nodes // stride) % a
        for shift in range(1, a):
            tails.append(nodes)
            heads.append(nodes + ((letter + shift) % a - letter) * stride)
    return np.concatenate(tails), np.concatenate(heads)


def _incidence(tails: np.ndarray, heads: np.ndarray, n: int):
    """Node-arc incidence (+1 at the tail, -1 at the head) without its last
    row, which the other rows imply because every column sums to zero."""
    from scipy.sparse import csc_matrix
    arcs = np.arange(len(tails))
    return csc_matrix(
        (np.repeat([1.0, -1.0], len(arcs)),
         (np.concatenate([tails, heads]), np.concatenate([arcs, arcs]))),
        shape=(n, len(arcs)),
    )[:-1]


def _flow_lp(tails: np.ndarray, heads: np.ndarray, cost: np.ndarray, n: int):
    """The min-cost flow LP of one graph's arcs ``tails -> heads`` at ``cost``
    on ``n`` nodes, built once for ``_highs_flow``.

    Returns ``solve(b) -> (flow, duals)``, the arc flows and the duals of the
    balance rows of every node but the last, whose balances are ``b``.  A
    solve sets its row bounds on the model built here and runs a fresh
    ``_Highs`` with the options built here: the run that ``linprog(cost,
    A_eq=_incidence(...), b_eq=b, bounds=(0, None), method="highs",
    options=_HIGHS_OPTIONS)`` makes, so the same flows and duals bit for bit,
    without ``linprog`` checking every argument again.  scipy releases
    without the direct HiGHS bindings (``scipy.optimize._highspy._core``)
    call ``linprog`` itself.

    Presolve is off on both paths (``_HIGHS_OPTIONS``; ``linprog`` takes it
    as a bool, HiGHS as "off").  It reduces nothing in a flow LP and only
    adds its own pass to every solve: a 64-atom cube solve took 2.36 ms with
    it and 1.72 ms without, support graphs of 160x108, 378x244 and 566x298
    atoms 76, 592 and 1,317 ms with it against 33, 349 and 871 ms without
    (medians of 3 on a 2-vCPU VM).  Cube solves gave the same flows and
    duals either way; on a degenerate support graph the simplex may end at
    another optimal vertex, whose value can differ in its last bit.
    """
    incidence = _incidence(tails, heads, n)
    try:
        import scipy.optimize._highspy._core as highs
    except ImportError:
        from scipy.optimize import linprog

        def solve(b):
            res = linprog(cost, A_eq=incidence, b_eq=b, bounds=(0, None),
                          method="highs", options=_HIGHS_OPTIONS)
            if res.status != 0:
                raise NonConvergenceError(f"min-cost flow failed: {res.message}")
            return res.x, res.eqlin.marginals
        return solve

    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = n - 1
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = incidence.indptr
    lp.a_matrix_.index_ = incidence.indices
    lp.a_matrix_.value_ = incidence.data
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(len(cost))
    lp.col_upper_ = np.full(len(cost), highs.kHighsInf)
    options = highs.HighsOptions()
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    for key, value in _HIGHS_OPTIONS.items():
        if key == "presolve":  # a bool for linprog, "on" or "off" for HiGHS
            value = "on" if value else "off"
        setattr(options, key, value)

    def solve(b):
        # the model is shared, but every solve sets its rows before passing it
        lp.row_lower_ = lp.row_upper_ = b
        run = highs._Highs()
        run.passOptions(options)
        run.passModel(lp)
        run.run()
        status = run.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            raise NonConvergenceError(
                f"min-cost flow failed: {run.modelStatusToString(status)}")
        solution = run.getSolution()
        return np.array(solution.col_value), np.array(solution.row_dual)
    return solve


def _highs_flow(excess: np.ndarray, tails: np.ndarray, heads: np.ndarray, solve):
    """Min-cost flow of ``excess`` along the arcs ``tails -> heads`` by HiGHS,
    one ``solve`` (the arcs' ``_flow_lp``) per row of a stack of excesses.

    Returns the flow record ``(tails, heads, flow, phi)``: every arc of the
    graph, the flow on each, and the node potentials phi that HiGHS reports as
    duals of the conservation rows (phi = 0 on the last node).
    """
    flows, phis = [], []
    for row in excess.reshape(-1, excess.shape[-1]):
        flow, duals = solve(row[:-1])
        flows.append(flow)
        phis.append(np.append(duals, 0.0))
    return (tails, heads, np.reshape(flows, excess.shape[:-1] + (-1,)),
            np.reshape(phis, excess.shape))


def _certify_flow(record, excess: np.ndarray, graph: _FlowGraph):
    """Certified value of a flow record ``(tails, heads, flow, phi)`` of
    ``excess``, or one value per row of a stack of excesses.

    A record's arcs are the graph's in order (HiGHS, shared by every row) or
    some of the cube's one-letter arcs (tree enumeration, one set per row).
    Each row's flow must be non-negative and balance its excess at every node
    but one, whose balance the others imply up to the rounding of
    sum(excess): each engine leaves a different node's row out of its solve.
    Along every arc of the graph the potentials may drop by at most the arc's
    cost.  On the cube that gives phi[x] - phi[y] <= hamming(x, y)/m +
    m * _CERT_TOL for every pair of words, and the support graph has an arc
    for every pair, so (phi, -phi) are feasible transport duals.  The duality
    gap must be zero.  A row that fails any check fails the whole call.
    """
    tails, heads, flow, phi = record
    n = excess.shape[-1]
    # row r's nodes are numbered from r * n, so one bincount nets every row
    shift = n * np.arange(excess.size // n).reshape(excess.shape[:-1] + (1,))
    net = (np.bincount((tails + shift).ravel(), flow.ravel(), excess.size)
           - np.bincount((heads + shift).ravel(), flow.ravel(), excess.size))
    off = np.sort(np.abs(net.reshape(excess.shape) - excess), axis=-1)  # NaN sorts last
    # comparisons are written so that a NaN anywhere fails them
    if not (flow.min() >= -_CERT_TOL and off[..., -2].max() <= _CERT_TOL):
        raise NonConvergenceError("flow certificate failed: infeasible flow")
    unit = graph.hops is None
    drop = phi[..., graph.tails] - phi[..., graph.heads]
    if not (drop <= (1 if unit else graph.hops) / graph.m + _CERT_TOL).all():
        raise NonConvergenceError("flow certificate failed: potentials drop past an arc's cost")
    value = (flow.sum(axis=-1) if unit else flow @ graph.hops) / graph.m
    if not np.abs((phi * excess).sum(axis=-1) - value).max() <= _CERT_TOL:
        raise NonConvergenceError("flow certificate failed: duality gap")
    return value


def _flow_plan(mu, nu, record) -> dict[tuple[int, int], float]:
    """Coupling on graph nodes: the diagonal min(mu, nu) plus the flow cut into paths.

    An optimal flow runs only along arcs where the potentials drop by the
    arc's cost, so its support is acyclic and a walk along arcs with flow left
    ends at a node with demand left.  Solver rounding (flows off by ~1e-12)
    can leave a walk at a node with nothing to pass on; that arc's flow is
    rounding residue, so it is retired and the walk steps back.  Each step
    empties a supply, a demand or an arc; the residue dropped is judged by the
    marginal check.
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


def _flow_coupling(graph: _FlowGraph, ax, wx, ay, wy):
    """Certified optimum (the value ``_FlowGraph.value`` gives), plan
    entries and duals of one flow solve."""
    mu = _on_nodes(wx, graph.nodes_x, graph.size)
    nu = _on_nodes(wy, graph.nodes_y, graph.size)
    excess = mu - nu
    record = graph.flow(excess)
    value = float(_certify_flow(record, excess, graph))
    plan = _flow_plan(mu, nu, record)
    row = np.full(graph.size, -1)
    row[graph.nodes_x] = np.arange(len(ax))
    col = np.full(graph.size, -1)
    col[graph.nodes_y] = np.arange(len(ay))
    ends = np.array(list(plan), dtype=np.int64).reshape(-1, 2)
    i, j = row[ends[:, 0]], col[ends[:, 1]]
    mass = np.array(list(plan.values()))
    cost = float(mass @ (ax[i] != ay[j]).sum(axis=1)) / graph.m
    phi = record[3]
    # the plan's own gap; a plan ships at most the smaller total, and every
    # cost is at most one, so its cost may fall short by the totals' difference
    if not abs(float(phi @ excess) - cost) <= _CERT_TOL + abs(float(excess.sum())):
        raise NonConvergenceError("flow certificate failed: duality gap of the plan")
    entries = sorted(zip(i.tolist(), j.tolist(), mass.tolist()))
    return value, entries, phi[graph.nodes_x], -phi[graph.nodes_y]


def _cube_laws(mu, nu, m: int, alphabet_size: int | None):
    """Validated (mu, nu, alphabet_size) for two laws, or two stacks of laws
    one per row, on the whole a^m word cube."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if m < 1:
        raise ValueError("m must be >= 1")
    if mu.ndim not in (1, 2) or mu.shape != nu.shape:
        raise ValueError("distributions must share the atom space")
    if mu.ndim == 2 and len(mu) == 0:
        raise ValueError("need at least one pair")
    n = mu.shape[-1]
    if n == 0:
        raise ValueError("need at least one atom")
    if n > DBAR_ATOM_CAP:
        raise AtomBudgetError(f"{n} atoms exceed cap {DBAR_ATOM_CAP}")
    for name, w in (("mu", mu), ("nu", nu)):
        # NaN fails too
        if not (w.min() >= 0 and (np.abs(w.sum(axis=-1) - 1.0) <= 1e-9).all()):
            raise ValueError(f"{name} must be a probability vector")
    if alphabet_size is None:
        alphabet_size = round(n ** (1.0 / m))
    if alphabet_size ** m != n:
        raise ValueError("atom count is not alphabet_size ** m")
    return mu, nu, alphabet_size


def dbar_exact(mu, nu, m: int, alphabet_size: int | None = None) -> Coupling:
    """Exact mean-Hamming transport distance between two length-m sequence laws.

    ``mu`` and ``nu`` are dense vectors over lexicographically ordered atoms.
    For m = 1 the optimum equals the total variation distance.
    """
    mu, nu, alphabet_size = _cube_laws(mu, nu, m, alphabet_size)
    atoms = decode(np.arange(alphabet_size ** m), alphabet_size, m)
    return dbar_between(atoms, mu, atoms, nu)


def dbar_value(mu, nu, m: int, alphabet_size: int | None = None) -> tuple[float, str]:
    """Certified value of ``dbar_exact(mu, nu, m, ...)`` and the engine that
    answered: :func:`dbar_values` on one pair."""
    value, engine = dbar_values(mu, nu, m, alphabet_size)
    return float(value), engine


def dbar_values(mus, nus, m: int, alphabet_size: int | None = None) -> tuple[np.ndarray, str]:
    """Certified ``dbar_exact`` values of the row pairs of two (pairs, a^m)
    stacks of laws, and the engine that answered them all.

    Builds no coupling, and takes the cube's graph from the cache that every
    entry point shares (``_cube``); tree enumeration solves blocks of about
    ten rows on the 3-cube.  A value equals the one row's solve bit for bit.
    Single laws give a single value.
    """
    mus, nus, alphabet_size = _cube_laws(mus, nus, m, alphabet_size)
    graph = _cube(alphabet_size, m)
    return graph.value(mus, nus), graph.engine


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


def _tree_table(a: int, m: int) -> _TreeTable:
    """Enumerate the cube's spanning trees and potentials; ``_cube`` gates on the subset count."""
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


def _tree_flow(excess: np.ndarray, table: _TreeTable, m: int):
    """Cheapest spanning-tree flow of ``excess`` and the best integer
    potential in the cube's ``table``, for one excess or for each row of a
    stack of them.

    Returns the flow record ``(tails, heads, flow, phi)``: the tree's arcs
    oriented along their flow, the non-negative arc flows, and the potentials
    phi (phi[0] = 0) in units of the cost.  Each row's products are one
    matrix-vector product, as for a single excess, so a row's record does not
    depend on the rows stacked with it.
    """
    trees, span = table.trees.shape
    flows = (table.flow_maps @ excess[..., 1:, None]).reshape(-1, span)  # row-major by tree
    # each tree's cost, added arc by arc: numpy's sum over an axis shorter
    # than 8 adds in the same order, and this fold is far faster on a stack
    cost = functools.reduce(np.add, map(np.abs, flows.T)).reshape(excess.shape[:-1] + (trees,))
    best = cost.argmin(axis=-1)
    flow = flows[best + trees * np.arange(best.size).reshape(best.shape)]
    edges = table.trees[best]
    forward = flow >= 0
    tails = np.where(forward, table.tails[edges], table.heads[edges])
    heads = np.where(forward, table.heads[edges], table.tails[edges])
    phi = table.potentials[(table.potentials @ excess[..., None])[..., 0].argmax(axis=-1)]
    return tails, heads, np.abs(flow), phi / m


def dbar_between(atoms_x, weights_x, atoms_y, weights_y) -> Coupling:
    """Transport distance between two weighted atom sets (shared length).

    The weights are non-negative, one per atom, and their totals may differ
    by rounding only: at most 2 * 1e-9, as for two laws each within 1e-9 of
    one.
    """
    ax = np.asarray(atoms_x, dtype=np.int64)
    ay = np.asarray(atoms_y, dtype=np.int64)
    wx = np.asarray(weights_x, dtype=float)
    wy = np.asarray(weights_y, dtype=float)
    if ax.ndim != 2 or ay.ndim != 2 or ax.shape[1] != ay.shape[1] or 0 in ax.shape + ay.shape:
        raise ValueError("atoms must be non-empty sequences of one shared length")
    if wx.shape != ax.shape[:1] or wy.shape != ay.shape[:1]:
        raise ValueError("need one weight per atom")
    if not (wx.min() >= 0 and wy.min() >= 0 and abs(wx.sum() - wy.sum()) <= 2 * _CERT_TOL):
        raise ValueError("weights must be non-negative with equal totals")
    graph = _flow_graph(ax, ay)
    value, entries, u, v = _flow_coupling(graph, ax, wx, ay, wy)
    coupling = Coupling(
        atoms_x=ax,
        atoms_y=ay,
        weights_x=wx,
        weights_y=wy,
        entries=entries,
        dual_x=u,
        dual_y=v,
        value=value,
        engine=graph.engine,
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
    engine: str  # "tree-enumeration", "hamming-flow" or "support-flow"


def _empirical(rows: np.ndarray):
    """The distinct rows in lexicographic order and the share of each: what
    ``np.unique(rows, axis=0, return_counts=True)`` gives, by one lexsort
    (last column first) and a mask of the rows that differ from the one
    before."""
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(rows))
    return rows[starts], counts / counts.sum()


def dbar_empirical(samples_x, samples_y, bootstrap: int = 200,
                   seed: int = 0) -> EmpiricalTransport:
    """Plug-in estimate with a percentile bootstrap interval (fixed seed).

    Inputs are (n, m) arrays of sampled windows.  Resampling happens on the
    empirical count vectors, which is equivalent to resampling the windows;
    replicate b draws its x counts, then its y counts, from stream
    ``spawn_rng(seed, 3, b)``.  The point estimate and every replicate are
    solved as one stack.
    """
    xs = np.asarray(samples_x, dtype=np.int64)
    ys = np.asarray(samples_y, dtype=np.int64)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[1] != ys.shape[1]:
        raise ValueError("need (n, m) sample arrays with matching window length")
    if xs.shape[1] < 1:
        raise ValueError("window length must be >= 1")
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("need at least one window in each sample")
    if bootstrap < 2:
        raise ValueError("bootstrap must be >= 2")
    atoms_x, wx = _empirical(xs)
    atoms_y, wy = _empirical(ys)
    if len(atoms_x) > DBAR_ATOM_CAP or len(atoms_y) > DBAR_ATOM_CAP:
        raise AtomBudgetError("empirical support exceeds the atom cap")
    n_x, n_y = len(xs), len(ys)
    rx, ry = np.empty((bootstrap + 1, len(wx))), np.empty((bootstrap + 1, len(wy)))
    rx[0], ry[0] = wx, wy
    for b in range(bootstrap):
        rng = spawn_rng(seed, 3, b)
        rx[b + 1] = rng.multinomial(n_x, wx) / n_x
        ry[b + 1] = rng.multinomial(n_y, wy) / n_y
    graph = _flow_graph(atoms_x, atoms_y)
    point, *reps = graph.value(rx, ry)
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
        engine=graph.engine,
    )
