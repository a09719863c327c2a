"""Finite-order Markov models and a hidden-Markov "genuine source" stand-in.

The empirical estimator for a context of length ``k`` divides the count of
``context+symbol`` windows in the full sample by the count of ``context``
windows in the sample minus its last position.  That denominator convention
makes every fitted row sum to exactly one: the final ``k``-gram of the sample
starts no transition, so it is excluded from context counts.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Alphabet, TokenSeq, count_windows
from .errors import AtomBudgetError, NonConvergenceError, UnseenContextError
from .util import atom_to_index, dump_json, fmt17, load_json, spawn_rng

DEFAULT_ATOM_CAP = 65536
STATIONARY_TOL = 1e-10
STATIONARY_MAX_ITER = 10 ** 6


@dataclass
class MarkovModel:
    """Order-``k`` chain: sparse transition rows plus an initial k-gram law."""

    order: int
    alphabet: Alphabet
    transitions: dict[tuple[int, ...], np.ndarray]
    init: dict[tuple[int, ...], float]
    scheme: str | None = None
    smoothing: float = 0.0

    def __post_init__(self):
        a = self.alphabet.size
        for ctx, row in self.transitions.items():
            row = np.asarray(row, dtype=float)
            self.transitions[ctx] = row
            if len(ctx) != self.order or row.shape != (a,):
                raise ValueError("malformed transition row")
            if row.min() < 0 or abs(row.sum() - 1.0) > 1e-9:
                raise ValueError(f"transition row for {ctx} is not a distribution")
        total = sum(self.init.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("initial distribution does not sum to 1")

    def row(self, context: tuple[int, ...]) -> np.ndarray:
        try:
            return self.transitions[context]
        except KeyError:
            raise UnseenContextError(
                f"no transition row for context {context}; "
                "refit with smoothing or more data"
            ) from None

    def contexts(self) -> list[tuple[int, ...]]:
        return sorted(self.transitions)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format": "markovdetect-model",
            "order": self.order,
            "alphabet": self.alphabet.to_json(),
            "scheme": self.scheme,
            "smoothing": fmt17(self.smoothing),
            "transitions": sorted(
                [list(ctx), [fmt17(p) for p in row]]
                for ctx, row in self.transitions.items()
            ),
            "init": sorted([list(ctx), fmt17(p)] for ctx, p in self.init.items()),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MarkovModel":
        return cls(
            order=obj["order"],
            alphabet=Alphabet.from_json(obj["alphabet"]),
            transitions={
                tuple(ctx): np.array([float(p) for p in row])
                for ctx, row in obj["transitions"]
            },
            init={tuple(ctx): float(p) for ctx, p in obj["init"]},
            scheme=obj.get("scheme"),
            smoothing=float(obj.get("smoothing", 0.0)),
        )

    def save(self, path) -> None:
        dump_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "MarkovModel":
        return cls.from_json(load_json(path))


def iid_model(probs, alphabet: Alphabet | None = None) -> MarkovModel:
    """Order-0 model from a probability vector; handy for single-letter tests."""
    probs = np.asarray(probs, dtype=float)
    if alphabet is None:
        alphabet = Alphabet(tuple(f"s{i}" for i in range(len(probs))))
    return MarkovModel(0, alphabet, {(): probs}, {(): 1.0})


def chain_model(rows, init=None, alphabet: Alphabet | None = None) -> MarkovModel:
    """Order-1 model from a dense row-stochastic matrix.

    ``init`` defaults to the chain's stationary distribution, which makes the
    model describe the stationary process.
    """
    rows = np.asarray(rows, dtype=float)
    a = rows.shape[0]
    if alphabet is None:
        alphabet = Alphabet(tuple(f"s{i}" for i in range(a)))
    transitions = {(i,): rows[i] for i in range(a)}
    model = MarkovModel(1, alphabet, transitions, {(0,): 1.0} if init is None else
                        {(i,): float(p) for i, p in enumerate(init)})
    if init is None:
        pi = stationary(model)
        model.init = {ctx: p for ctx, p in pi.items() if p > 0}
    return model


def fit_empirical(
    seq: TokenSeq,
    k: int,
    alphabet: Alphabet,
    smoothing: float = 0.0,
    scheme: str | None = None,
) -> MarkovModel:
    """Empirical order-``k`` fit by count ratios.

    With ``smoothing`` delta > 0 every in-context count is shifted by delta and
    the row renormalized (additive smoothing over the alphabet); contexts that
    never occur before the last position still get no row.
    """
    m = len(seq)
    if m < k + 1:
        raise ValueError(f"need at least {k + 1} tokens to fit order {k}")
    if not 0.0 <= smoothing <= 1.0:
        raise ValueError("smoothing must lie in [0, 1]")
    seq.validate(alphabet.size)
    a = alphabet.size
    full = count_windows(seq, k + 1)
    prefix = TokenSeq(seq.tokens[: m - 1])
    ctx_counts = count_windows(prefix, k)

    transitions: dict[tuple[int, ...], np.ndarray] = {}
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
    return MarkovModel(k, alphabet, transitions, init, scheme=scheme, smoothing=smoothing)


def log_likelihood(model: MarkovModel, seq: TokenSeq) -> float:
    """Natural-log probability of ``seq``; ``-inf`` when a factor is zero.

    Contexts with no fitted row raise :class:`UnseenContextError`; a zero
    probability inside an existing row (or an initial k-gram the model never
    saw) is a legitimate value and yields ``-inf``.
    """
    k = model.order
    toks = seq.tokens.tolist()
    m = len(toks)
    if m == 0:
        raise ValueError("cannot score an empty sequence")
    if m < k:
        mass = sum(p for ctx, p in model.init.items() if ctx[:m] == tuple(toks))
        return math.log(mass) if mass > 0 else -math.inf
    start = model.init.get(tuple(toks[:k]), 0.0)
    if start == 0.0:
        return -math.inf
    total = math.log(start)
    for i in range(k, m):
        row = model.row(tuple(toks[i - k : i]))
        p = row[toks[i]]
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def sample(model: MarkovModel, n: int, seed: int) -> TokenSeq:
    """Draw ``n`` tokens: initial k-gram from the init law, then transitions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = spawn_rng(seed, 0)
    k = model.order
    init_items = sorted(model.init.items())
    init_cum = np.cumsum([p for _, p in init_items])
    pick = bisect.bisect_right(init_cum.tolist(), rng.random() * init_cum[-1])
    out = list(init_items[min(pick, len(init_items) - 1)][0])
    if n <= k:
        return TokenSeq(np.array(out[:n], dtype=np.int64))
    cums: dict[tuple[int, ...], list[float]] = {}
    us = rng.random(n - k)
    for i in range(n - k):
        ctx = tuple(out[-k:]) if k else ()
        cum = cums.get(ctx)
        if cum is None:
            cum = np.cumsum(model.row(ctx)).tolist()
            cums[ctx] = cum
        out.append(min(bisect.bisect_right(cum, us[i] * cum[-1]), model.alphabet.size - 1))
    return TokenSeq(np.array(out, dtype=np.int64))


def stationary(model: MarkovModel) -> dict[tuple[int, ...], float]:
    """Stationary law of the context chain, by power iteration.

    Requires the chain restricted to fitted contexts to be closed, irreducible
    and aperiodic; failure to converge within the cap raises
    :class:`NonConvergenceError`.
    """
    k = model.order
    if k == 0:
        return {(): 1.0}
    ctxs = model.contexts()
    index = {c: i for i, c in enumerate(ctxs)}
    a = model.alphabet.size
    n = len(ctxs)
    # successor context and probability for every (context, symbol)
    succ = np.zeros((n, a), dtype=np.int64)
    prob = np.zeros((n, a))
    for i, ctx in enumerate(ctxs):
        row = model.transitions[ctx]
        for sym in range(a):
            if row[sym] <= 0:
                succ[i, sym] = 0
                continue
            nxt = ctx[1:] + (sym,)
            j = index.get(nxt)
            if j is None:
                raise UnseenContextError(
                    f"context chain is not closed: {ctx} -> {nxt} has no row"
                )
            succ[i, sym] = j
            prob[i, sym] = row[sym]
    x = np.full(n, 1.0 / n)
    flat_succ = succ.reshape(-1)
    for _ in range(STATIONARY_MAX_ITER):
        contrib = (x[:, None] * prob).reshape(-1)
        nxt = np.zeros(n)
        np.add.at(nxt, flat_succ, contrib)
        if np.abs(nxt - x).sum() < STATIONARY_TOL:
            x = nxt
            break
        x = nxt
    else:
        raise NonConvergenceError(
            "power iteration did not converge; chain may be reducible or periodic"
        )
    x = x / x.sum()
    return {ctx: float(x[i]) for i, ctx in enumerate(ctxs)}


def sequence_distribution(
    model: MarkovModel, m: int, atom_cap: int = DEFAULT_ATOM_CAP
) -> np.ndarray:
    """Exact law of length-``m`` sequences as a dense vector.

    Atoms are ordered lexicographically (symbol 0 varies last); the index of a
    tuple is its base-``|alphabet|`` value.  Raises when ``|alphabet|**m``
    exceeds ``atom_cap``.
    """
    a = model.alphabet.size
    if m < 1:
        raise ValueError("sequence length must be >= 1")
    if a ** m > atom_cap:
        raise AtomBudgetError(f"{a}**{m} atoms exceed cap {atom_cap}")
    k = model.order
    out = np.zeros(a ** m)
    if m < k:
        for ctx, p in model.init.items():
            out[atom_to_index(ctx[:m], a)] += p
        return out

    def walk(prefix: tuple[int, ...], logless_p: float) -> None:
        if len(prefix) == m:
            out[atom_to_index(prefix, a)] += logless_p
            return
        row = model.row(prefix[-k:] if k else ())
        for sym in range(a):
            if row[sym] > 0:
                walk(prefix + (sym,), logless_p * row[sym])

    for ctx, p in model.init.items():
        if p > 0:
            walk(ctx, p)
    return out


def markov_conditional(model: MarkovModel, context: tuple[int, ...]) -> np.ndarray:
    """Next-symbol law of the stationary chain given the last ``len(context)`` symbols.

    For contexts at least as long as the order this is a plain row lookup; for
    shorter ones the hidden part is averaged under the stationary law.
    """
    k = model.order
    if len(context) >= k:
        return model.row(context[len(context) - k :] if k else ())
    pi = stationary(model)
    L = len(context)
    acc = np.zeros(model.alphabet.size)
    mass = 0.0
    for ctx, p in pi.items():
        if p > 0 and (L == 0 or ctx[k - L :] == context):
            acc += p * model.transitions[ctx]
            mass += p
    if mass <= 0:
        raise UnseenContextError(f"context {context} has probability 0 under the model")
    return acc / mass


@dataclass
class HiddenMarkovSource:
    """Stationary-friendly hidden-Markov process emitting alphabet symbols."""

    transition: np.ndarray  # (S, S) state -> state
    emission: np.ndarray  # (S, A) state -> symbol
    start: np.ndarray  # (S,) initial state law

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        self.emission = np.asarray(self.emission, dtype=float)
        self.start = np.asarray(self.start, dtype=float)
        for name, mat in (("transition", self.transition), ("emission", self.emission)):
            if mat.ndim != 2 or mat.min() < 0 or np.abs(mat.sum(1) - 1).max() > 1e-9:
                raise ValueError(f"{name} matrix rows must be distributions")
        if abs(self.start.sum() - 1) > 1e-9 or self.start.min() < 0:
            raise ValueError("start distribution must sum to 1")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.emission.shape[1]

    @classmethod
    def with_stationary_start(cls, transition, emission) -> "HiddenMarkovSource":
        transition = np.asarray(transition, dtype=float)
        vals, vecs = np.linalg.eig(transition.T)
        i = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.real(vecs[:, i])
        pi = np.abs(pi) / np.abs(pi).sum()
        # polish with a few fixed-point steps for clean float accuracy
        for _ in range(200):
            nxt = pi @ transition
            if np.abs(nxt - pi).sum() < 1e-15:
                break
            pi = nxt
        return cls(transition, emission, pi)


def hmm_filter(source: HiddenMarkovSource, context) -> tuple[np.ndarray, float]:
    """Normalized state belief after observing ``context`` plus log P(context)."""
    belief = source.start.copy()
    log_prob = 0.0
    for t, sym in enumerate(context):
        if t > 0:
            belief = belief @ source.transition
        belief = belief * source.emission[:, sym]
        z = belief.sum()
        if z <= 0.0:
            raise UnseenContextError(f"context {tuple(context)} has probability 0 under the source")
        belief /= z
        log_prob += math.log(z)
    return belief, log_prob


def hmm_conditional(source: HiddenMarkovSource, context) -> np.ndarray:
    """Exact next-symbol law given an observed context (empty context allowed)."""
    context = tuple(context)
    if not context:
        return source.start @ source.emission
    belief, _ = hmm_filter(source, context)
    return (belief @ source.transition) @ source.emission


def hmm_window_log_prob(source: HiddenMarkovSource, window) -> float:
    """log P(window) under the source (forward recursion)."""
    _, lp = hmm_filter(source, tuple(window))
    return lp


def hmm_sample(source: HiddenMarkovSource, n: int, seed: int) -> TokenSeq:
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = spawn_rng(seed, 1)
    t_cum = np.cumsum(source.transition, axis=1)
    e_cum = np.cumsum(source.emission, axis=1)
    us = rng.random(2 * n)
    state = int(np.searchsorted(np.cumsum(source.start), us[0] * source.start.sum()))
    state = min(state, source.n_states - 1)
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        if i > 0:
            state = int(np.searchsorted(t_cum[state], us[2 * i] * t_cum[state, -1]))
            state = min(state, source.n_states - 1)
        sym = int(np.searchsorted(e_cum[state], us[2 * i + 1] * e_cum[state, -1]))
        out[i] = min(sym, source.alphabet_size - 1)
    return TokenSeq(out)


def hmm_sample_windows(source: HiddenMarkovSource, n_windows: int, width: int, seed: int) -> np.ndarray:
    """Independent stationary windows, vectorized across windows."""
    rng = spawn_rng(seed, 2)
    states = rng.choice(source.n_states, size=n_windows, p=source.start)
    out = np.empty((n_windows, width), dtype=np.int64)
    for t in range(width):
        if t > 0:
            u = rng.random(n_windows)
            cum = np.cumsum(source.transition, axis=1)[states]
            states = (u[:, None] > cum).sum(axis=1)
        u = rng.random(n_windows)
        cum = np.cumsum(source.emission, axis=1)[states]
        out[:, t] = (u[:, None] > cum).sum(axis=1)
    return out


def process_conditional(source, context) -> np.ndarray:
    """Next-symbol law for either source type, given the trailing context."""
    if isinstance(source, HiddenMarkovSource):
        return hmm_conditional(source, context)
    if isinstance(source, MarkovModel):
        return markov_conditional(source, tuple(context))
    raise TypeError(f"unsupported source type {type(source).__name__}")
