"""Reference implementations the package's routines are held to.

The package keeps a chain as sorted integer context codes and dense row
matrices, the transportation simplex's basis tree in parent pointers, and
one power iteration for every stationary law.  These are the straightforward
loops over symbol tuples and dict adjacencies, and the dense eigenvector and
linear-solve stationary laws, that those routines replaced or stand for.
"""
import math
from collections import Counter

import numpy as np

from markovdetect.errors import NonConvergenceError
from markovdetect.markov import MarkovModel
from markovdetect.util import encode, fmt17


def model_from_dicts(order, alphabet, transitions, init, scheme=None, smoothing=0.0):
    """A model from ``{context tuple: row}`` and ``{k-gram tuple: probability}``."""
    a = alphabet.size
    ctxs = list(transitions)
    atoms = list(init)
    return MarkovModel(
        order, alphabet,
        encode(np.array(ctxs, dtype=np.int64).reshape(len(ctxs), order), a),
        np.array([transitions[c] for c in ctxs], dtype=float).reshape(len(ctxs), a),
        encode(np.array(atoms, dtype=np.int64).reshape(len(atoms), order), a),
        [init[c] for c in atoms],
        scheme=scheme, smoothing=smoothing,
    )


def tuple_windows(tokens, length):
    """Counts of the windows of ``length`` consecutive tokens, keyed by tuple."""
    toks = list(tokens)
    return Counter(tuple(toks[i:i + length]) for i in range(len(toks) - length + 1))


def counter_fit_json(seq, k, alphabet, smoothing=0.0, scheme=None):
    """The JSON form of an empirical fit computed on tuple counters."""
    a = alphabet.size
    m = len(seq)
    full = tuple_windows(seq.tokens.tolist(), k + 1)
    ctx_counts = tuple_windows(seq.tokens[: m - 1].tolist(), k)
    transitions = {}
    for ctx, denom in ctx_counts.items():
        row = np.zeros(a)
        for sym in range(a):
            row[sym] = full.get(ctx + (sym,), 0)
        if smoothing > 0:
            row = (row + smoothing) / (denom + smoothing * a)
        else:
            row = row / denom
        transitions[ctx] = row
    total = m - k
    init = {ctx: cnt / total for ctx, cnt in ctx_counts.items()}
    return {
        "format": "markovdetect-model",
        "order": k,
        "alphabet": alphabet.to_json(),
        "scheme": scheme,
        "smoothing": fmt17(smoothing),
        "transitions": sorted([list(ctx), [fmt17(p) for p in row]]
                              for ctx, row in transitions.items()),
        "init": sorted([list(ctx), fmt17(p)] for ctx, p in init.items()),
    }


def _init_items(model):
    for code, p in zip(model.init_codes.tolist(), model.init_probs.tolist()):
        yield model.context(code), p


def recursive_sequence_distribution(model, m):
    """Dense law of length-m sequences by a depth-first walk over tuples."""
    a, k = model.alphabet.size, model.order
    out = np.zeros(a ** m)
    if m < k:
        for ctx, p in _init_items(model):
            out[int(encode(ctx[:m], a))] += p
        return out

    def walk(prefix, mass):
        if len(prefix) == m:
            out[int(encode(prefix, a))] += mass
            return
        row = model.row(prefix[-k:] if k else ())
        for sym in range(a):
            if row[sym] > 0:
                walk(prefix + (sym,), mass * row[sym])

    for ctx, p in _init_items(model):
        if p > 0:
            walk(ctx, p)
    return out


def recursive_stationary_windows(model, length, pi):
    """(window tuple, mass) pairs of the law of ``length`` symbols started
    from ``pi`` (aligned with ``model.codes``), depth first."""
    k = model.order
    out = []

    def extend(window, mass):
        if len(window) == length:
            out.append((window, mass))
            return
        row = model.row(window[-k:] if k else ())
        for sym, pr in enumerate(row):
            if pr > 0:
                extend(window + (sym,), mass * pr)

    for code, mass in zip(model.codes.tolist(), np.asarray(pi).tolist()):
        if mass > 0:
            extend(model.context(code), mass)
    return out


def eig_stationary(transition):
    """Stationary law of a state chain: the eigenvector of eigenvalue 1,
    polished by up to 200 fixed-point steps."""
    transition = np.asarray(transition, dtype=float)
    vals, vecs = np.linalg.eig(transition.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, i])
    pi = np.abs(pi) / np.abs(pi).sum()
    for _ in range(200):
        nxt = pi @ transition
        if np.abs(nxt - pi).sum() < 1e-15:
            break
        pi = nxt
    return pi


def dense_stationary(model):
    """Stationary law of a closed, irreducible context chain by one dense
    solve of pi (P - I) = 0 with sum(pi) = 1."""
    n, a = model.rows.shape
    succ = model.lookup(model.successors(model.codes))
    transition = np.zeros((n, n))
    for i in range(n):
        for sym in range(a):
            if model.rows[i, sym] > 0:
                transition[i, succ[i, sym]] += model.rows[i, sym]
    lhs = transition.T - np.eye(n)
    lhs[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(lhs, rhs)


def loop_log_likelihood(model, seq):
    """Log-probability of ``seq`` one token at a time, with math.log."""
    k = model.order
    toks = seq.tokens.tolist()
    start = float(model.init_mass(encode(toks[:k], model.alphabet.size)))
    if start == 0.0:
        return -math.inf
    total = math.log(start)
    for i in range(k, len(toks)):
        p = model.row(tuple(toks[i - k:i]))[toks[i]]
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


# -- transportation simplex on a dict-keyed basis ------------------------------

_RC_TOL = 1e-11


def _northwest_corner(a, b):
    nr, nc = len(a), len(b)
    left_a = a.copy()
    left_b = b.copy()
    alloc = {}
    basis = []
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
    adj = {}
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
    adj = {}
    for cell in basis:
        i, j = cell
        adj.setdefault(i, []).append((nr + j, cell))
        adj.setdefault(nr + j, []).append((i, cell))
    start, goal = enter[0], nr + enter[1]
    parent = {start: (-1, (-1, -1))}
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


def dict_solve_transport(supply, demand, cost, rule="dantzig"):
    """Transportation simplex that rebuilds a dict adjacency of the basis on
    every pivot: (value, allocation dict, u, v)."""
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
            return dict_solve_transport(supply, demand, cost, rule="bland")
        raise NonConvergenceError("transportation simplex exceeded its pivot budget")
    value = float(sum(cost[c] * m for c, m in alloc.items()))
    return value, alloc, u, v


def dict_solve_with_zeros(wx, wy, cost):
    """Zero-mass atoms dropped by ``np.setdiff1d`` around the dict simplex:
    (value, entries, u, v) with the duals of dropped atoms extended feasibly."""
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    ix = np.flatnonzero(wx > 0)
    iy = np.flatnonzero(wy > 0)
    value, alloc, u_r, v_r = dict_solve_transport(wx[ix], wy[iy], cost[np.ix_(ix, iy)])
    u = np.empty(len(wx))
    v = np.empty(len(wy))
    u[ix] = u_r
    v[iy] = v_r
    drop_x = np.setdiff1d(np.arange(len(wx)), ix)
    drop_y = np.setdiff1d(np.arange(len(wy)), iy)
    if len(drop_y):
        v[drop_y] = (cost[ix][:, drop_y] - u[ix][:, None]).min(axis=0)
    if len(drop_x):
        u[drop_x] = (cost[drop_x] - v[None, :]).min(axis=1)
    entries = [
        (int(ix[ri]), int(iy[rj]), float(mass))
        for (ri, rj), mass in sorted(alloc.items())
        if mass > 0
    ]
    return value, entries, u, v
