"""Finite-order Markov models and a hidden-Markov "genuine source" stand-in.

A model of order ``k`` over ``a`` symbols holds one representation of its
chain.  Contexts are int64 base-``a`` codes, first symbol most significant,
so numeric order of codes equals lexicographic order of the context words.
The model keeps the sorted codes of the contexts it has rows for, a dense
``(n_contexts, a)`` matrix of transition rows in that order, and its initial
k-gram law as sorted codes with their probabilities.
:func:`markovdetect.util.encode` and :func:`markovdetect.util.decode` are the
only conversions between codes and symbol tuples.  Codes must fit int64, so
``a ** k <= 2 ** 63``: order at most 63 for two symbols, 15 for 17 and 7 for
the 256-symbol byte scheme; longer orders raise :class:`AtomBudgetError`.
:func:`window_log_likelihood` scores every row of an ``(n, m)`` token array;
:func:`log_likelihood` is its one-window case.

The empirical estimator for a context of length ``k`` divides the count of
``context+symbol`` windows in the full sample by the count of ``context``
windows in the sample minus its last position.  That denominator convention
makes every fitted row sum to exactly one: the final ``k``-gram of the sample
starts no transition, so it is excluded from context counts.

A :class:`HiddenMarkovSource` stands in for a stationary source that is not
Markov of any order.  :func:`hmm_forward` is its one likelihood routine: the
forward recursion run across an ``(n, m)`` array of windows at once, giving
each window's log-probability and the state law after it, from which the
next-symbol law is ``belief @ transition @ emission``.  Constructors reject
negative and NaN masses, and a source whose matrices do not fit its states.

Every sampler draws by one inverse-CDF rule, ``cum`` a cumulative law: an
initial law gives ``#{j : cum[j] < u * cum[-1]}`` for a uniform ``u``, a
row ``#{j : cum[s, j] < u}``, clamped to the last index; sums of 0 count
too, so a uniform of exactly 0 skips the leading zero-mass columns.
:class:`ChainWalk` walks contexts or hidden states by it, :class:`InverseCDF`
draws symbols.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import Alphabet, TokenSeq
from .errors import AtomBudgetError, DataContractError, NonConvergenceError, UnseenContextError
from .util import check_code_length, decode, dump_json, encode, fmt17, load_json, spawn_rng

DEFAULT_ATOM_CAP = 65536
STATIONARY_TOL = 1e-15
STATIONARY_STALL_TOL = 1e-10
STATIONARY_STALL_SWEEPS = 64
STATIONARY_MAX_ITER = 10 ** 6
GUIDE_CELL_CAP = 1 << 20
_LEAST_POSITIVE = np.finfo(float).smallest_subnormal
_NO_ROW = "sampling walked into a context with no row; refit with smoothing or more data"


def _find(keys: np.ndarray, codes) -> np.ndarray:
    """Position of each code in the sorted ``keys``, -1 where it is absent."""
    codes = np.asarray(codes, dtype=np.int64)
    if not len(keys):
        return np.full(codes.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
    return np.where(keys[pos] == codes, pos, -1)


def _by_code(codes, values):
    """Codes as a sorted int64 vector, with ``values`` reordered to match."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    if (np.diff(codes) < 0).any():
        order = np.argsort(codes, kind="stable")
        return codes[order], values[order]
    return codes, values


@dataclass(eq=False)
class MarkovModel:
    """Order-``k`` chain: transition rows for sorted context codes plus an
    initial k-gram law (see the module docstring)."""

    order: int
    alphabet: Alphabet
    codes: np.ndarray  # (n_contexts,) sorted context codes
    rows: np.ndarray  # (n_contexts, a) transition rows, in code order
    init_codes: np.ndarray  # sorted k-gram codes of the initial law
    init_probs: np.ndarray
    scheme: str | None = None
    smoothing: float = 0.0

    def __post_init__(self):
        a, k = self.alphabet.size, self.order
        check_code_length(a, k)
        n = np.size(self.codes)
        self.codes, self.rows = _by_code(
            self.codes, np.asarray(self.rows, dtype=float).reshape(n, a))
        self.init_codes, self.init_probs = _by_code(
            self.init_codes,
            np.asarray(self.init_probs, dtype=float).reshape(np.size(self.init_codes)))
        for codes in (self.codes, self.init_codes):
            if len(codes) and (codes[0] < 0 or codes[-1] >= a ** k or (np.diff(codes) == 0).any()):
                raise ValueError("context codes must be distinct and below alphabet_size**order")
        if n:  # written as not (ok) so that NaN fails
            bad = np.flatnonzero(~((self.rows.min(axis=1) >= 0)
                                   & (np.abs(self.rows.sum(axis=1) - 1.0) <= 1e-9)))
            if len(bad):
                raise ValueError(f"transition row for {self.context(self.codes[bad[0]])} "
                                 "is not a distribution")
        if not (self.init_probs.min(initial=0.0) >= 0
                and abs(self.init_probs.sum() - 1.0) <= 1e-9):
            raise ValueError("initial probabilities must be >= 0 and sum to 1")
        self._rows_by_code = None  # lookup's code -> row table, built on first use

    def context(self, code) -> tuple[int, ...]:
        """The symbol tuple of one context code."""
        return tuple(decode(code, self.alphabet.size, self.order).tolist())

    def lookup(self, codes) -> np.ndarray:
        """Row index of each context code, -1 where the model has no row.

        While ``a ** k <= DEFAULT_ATOM_CAP`` this reads a dense code -> row
        table, built on first use (the codes are fixed once the model is
        made); above the cap it searches the sorted codes (:func:`_find`).
        """
        if self.alphabet.size ** self.order > DEFAULT_ATOM_CAP:
            return _find(self.codes, codes)
        if self._rows_by_code is None:
            self._rows_by_code = np.full(self.alphabet.size ** self.order + 1, -1, dtype=np.int64)
            self._rows_by_code[self.codes] = np.arange(len(self.codes))
        codes = np.asarray(codes, dtype=np.int64)
        # every code outside 0 .. a**k - 1 reads the last cell, which is -1
        outside = (codes < 0) | (codes >= len(self._rows_by_code) - 1)
        return self._rows_by_code[np.where(outside, -1, codes)]

    def rows_at(self, codes) -> np.ndarray:
        """Transition rows of the given context codes; every one must have a row."""
        index = self.lookup(codes)
        if (index < 0).any():
            missing = np.asarray(codes).reshape(-1)[np.argmax(index.reshape(-1) < 0)]
            raise UnseenContextError(
                f"no transition row for context {self.context(missing)}; "
                "refit with smoothing or more data"
            )
        return self.rows[index]

    def row(self, context: tuple[int, ...]) -> np.ndarray:
        return self.rows_at(encode(context, self.alphabet.size))

    def init_mass(self, codes) -> np.ndarray:
        """Initial probability of each k-gram code, 0 where the law has no atom."""
        index = _find(self.init_codes, codes)
        return np.where(index >= 0, self.init_probs[index], 0.0)

    def successors(self, codes) -> np.ndarray:
        """(..., a) codes of the context each context moves to on each symbol."""
        a, k = self.alphabet.size, self.order
        codes = np.asarray(codes, dtype=np.int64)[..., None]
        if k == 0:
            return np.zeros(codes.shape[:-1] + (a,), dtype=np.int64)
        return codes % a ** (k - 1) * a + np.arange(a)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        a, k = self.alphabet.size, self.order
        return {
            "format": "markovdetect-model",
            "order": k,
            "alphabet": self.alphabet.to_json(),
            "scheme": self.scheme,
            "smoothing": fmt17(self.smoothing),
            "transitions": [
                [ctx, [fmt17(p) for p in row]]
                for ctx, row in zip(decode(self.codes, a, k).tolist(), self.rows.tolist())
            ],
            "init": [
                [ctx, fmt17(p)]
                for ctx, p in zip(decode(self.init_codes, a, k).tolist(),
                                  self.init_probs.tolist())
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MarkovModel":
        alphabet = Alphabet.from_json(obj["alphabet"])
        k = obj["order"]

        def pairs(key):
            # a malformed entry is a TypeError, which ``load`` maps like a missing key
            if not all(isinstance(entry, list) and len(entry) == 2 for entry in obj[key]):
                raise TypeError(f"{key!r} entries must be [context, value] pairs")
            return obj[key]

        def codes(pairs):
            if not all(isinstance(ctx, list) and len(ctx) == k for ctx, _ in pairs):
                raise TypeError(f"contexts must be lists of {k} symbols")
            ctxs = np.array([ctx for ctx, _ in pairs], dtype=np.int64).reshape(len(pairs), k)
            if ((ctxs < 0) | (ctxs >= alphabet.size)).any():
                raise TypeError(f"context symbols must be codes below {alphabet.size}")
            return encode(ctxs, alphabet.size)

        transitions, init = pairs("transitions"), pairs("init")
        if not all(isinstance(row, list) and len(row) == alphabet.size for _, row in transitions):
            raise TypeError(f"transition rows must be lists of {alphabet.size} masses")
        return cls(
            order=k,
            alphabet=alphabet,
            codes=codes(transitions),
            rows=[[float(p) for p in row] for _, row in transitions],
            init_codes=codes(init),
            init_probs=[float(p) for _, p in init],
            scheme=obj.get("scheme"),
            smoothing=float(obj.get("smoothing", 0.0)),
        )

    def save(self, path) -> None:
        dump_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "MarkovModel":
        obj = load_json(path)
        try:
            return cls.from_json(obj)
        except (KeyError, TypeError) as exc:
            raise DataContractError(f"{path}: not a markovdetect model ({exc!r})") from exc
        except ValueError as exc:  # a law that is not a distribution, or a bad number
            raise ValueError(f"{path}: {exc}") from exc


def check_shared_alphabet(p_model: MarkovModel, q_model: MarkovModel) -> None:
    """Refuse two models whose alphabets list other symbols, or the same in another order."""
    if p_model.alphabet.symbols != q_model.alphabet.symbols:
        raise DataContractError("the two models must share an alphabet")


def iid_model(probs, alphabet: Alphabet | None = None) -> MarkovModel:
    """Order-0 model from a probability vector; handy for single-letter tests."""
    probs = np.asarray(probs, dtype=float)
    if alphabet is None:
        alphabet = Alphabet(tuple(f"s{i}" for i in range(len(probs))))
    return MarkovModel(0, alphabet, [0], probs[None, :], [0], [1.0])


def chain_model(rows, init=None, alphabet: Alphabet | None = None) -> MarkovModel:
    """Order-1 model from a dense row-stochastic matrix.

    ``init`` defaults to the chain's stationary distribution, which makes the
    model describe the stationary process.
    """
    rows = np.asarray(rows, dtype=float)
    a = rows.shape[0]
    if alphabet is None:
        alphabet = Alphabet(tuple(f"s{i}" for i in range(a)))
    codes = np.arange(a)
    if init is not None:
        return MarkovModel(1, alphabet, codes, rows, codes, init)
    model = MarkovModel(1, alphabet, codes, rows, [0], [1.0])
    pi = stationary(model)
    model.init_codes, model.init_probs = codes[pi > 0], pi[pi > 0]
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
    never occur before the last position still get no row.  While
    ``a ** (k + 1) <= DEFAULT_ATOM_CAP`` one ``bincount`` of
    ``context * a + symbol`` counts every cell; above the cap the contexts
    are sorted by ``np.unique`` and only the seen ones get cells.
    """
    m = len(seq)
    if k < 0:
        raise ValueError("order must be >= 0")
    if m < k + 1:
        raise ValueError(f"need at least {k + 1} tokens to fit order {k}")
    if not 0.0 <= smoothing <= 1.0:
        raise ValueError("smoothing must lie in [0, 1]")
    seq.validate(alphabet.size)
    a = alphabet.size
    # the context of every position that starts a transition, then its symbol
    contexts = encode(sliding_window_view(seq.tokens[: m - 1], k), a)
    if a ** (k + 1) <= DEFAULT_ATOM_CAP:
        contexts *= a  # in place: each transition's cell code, context * a + symbol
        contexts += seq.tokens[k:]
        cells = np.bincount(contexts, minlength=a ** (k + 1)).reshape(a ** k, a)
        denom = cells.sum(axis=1)
        codes = np.flatnonzero(denom)
        counts, denom = cells[codes], denom[codes]
    else:
        codes, which, denom = np.unique(contexts, return_inverse=True, return_counts=True)
        counts = np.bincount(which * a + seq.tokens[k:], minlength=len(codes) * a)
        counts = counts.reshape(len(codes), a)
    if smoothing > 0:
        rows = (counts + smoothing) / (denom + smoothing * a)[:, None]
    else:
        rows = counts / denom[:, None]
    return MarkovModel(k, alphabet, codes, rows, codes, denom / (m - k),
                       scheme=scheme, smoothing=smoothing)


def window_log_likelihood(model: MarkovModel, windows) -> np.ndarray:
    """Natural-log probability of each row of an ``(n, m)`` token array.

    The initial k-gram is scored by the initial law (a row shorter than the
    order by its :func:`window_law` marginal) with ``math.log``, each later
    token by its context's row with ``np.log``, summed in order by
    ``np.cumsum``.  A zero factor gives ``-inf`` and a context with no row
    raises :class:`UnseenContextError`, whichever comes first in the row.
    """
    windows = np.asarray(windows, dtype=np.int64)
    if windows.ndim != 2 or windows.shape[1] == 0:
        raise ValueError("cannot score an empty sequence or a non-(n, m) array")
    n, m = windows.shape
    k, a = model.order, model.alphabet.size
    codes, probs = window_law(model, min(m, k), (model.init_codes, model.init_probs))
    at = _find(codes, encode(windows[:, :k], a))
    start = np.where(at >= 0, probs[at], 0.0)
    logs = np.empty((n, max(m - k, 0) + 1))
    logs[:, 0] = [math.log(p) if p > 0 else -math.inf for p in start.tolist()]
    if m <= k:
        return logs[:, 0]
    contexts = encode(sliding_window_view(windows[:, :-1], k, axis=1), a)
    # index -1, a context with no row, reads the appended row of NaN
    probs = np.vstack([model.rows, np.full(a, np.nan)])[model.lookup(contexts), windows[:, k:]]
    # the first factor that is not positive decides: NaN raises, 0 gives -inf
    first = np.argmax(~(probs > 0), axis=1)
    fails = (start > 0) & np.isnan(probs[np.arange(n), first])
    model.rows_at(contexts[fails, first[fails]])  # raises for an unseen context
    with np.errstate(divide="ignore"):
        logs[:, 1:] = np.log(probs)
    out = np.cumsum(logs, axis=1)[:, -1]
    out[(start == 0) | (probs <= 0).any(axis=1)] = -math.inf
    return out


def log_likelihood(model: MarkovModel, seq: TokenSeq) -> float:
    """Natural-log probability of ``seq``, by :func:`window_log_likelihood`."""
    return float(window_log_likelihood(model, seq.tokens[None, :])[0])


def _stationary_law(succ: np.ndarray, prob: np.ndarray, name) -> np.ndarray:
    """Stationary law of the chain moving from state ``i`` to ``succ[i, j]``
    with probability ``prob[i, j]``, by power iteration from the uniform law.

    Sweeps stop once one moves the law by less than ``STATIONARY_TOL`` in L1
    norm, or once the step, below ``STATIONARY_STALL_TOL``, has made no new
    low for ``STATIONARY_STALL_SWEEPS`` sweeps: rounding then keeps it from
    shrinking, as on nearly periodic chains whose iterates end in a cycle of
    floats.  A step that stalls above ``STATIONARY_STALL_TOL`` instead marks
    a periodic chain, whose iterates cycle for good: the sweeps then go on
    with the lazy chain (I + P) / 2, which is aperiodic and has the same
    stationary laws.  The limit must be the only stationary law: every state
    must reach the state of largest mass along positive transitions, else
    :class:`NonConvergenceError` names (``name(i)``) the first that cannot.
    """
    n = len(succ)
    live = prob > 0
    flat_succ = np.where(live, succ, 0).reshape(-1)
    prob = np.where(live, prob, 0.0)
    x = np.full(n, 1.0 / n)
    low, since_low, lazy = math.inf, 0, False
    for _ in range(STATIONARY_MAX_ITER):
        nxt = np.bincount(flat_succ, weights=(x[:, None] * prob).reshape(-1), minlength=n)
        if lazy:
            nxt = 0.5 * (x + nxt)
        step = np.abs(nxt - x).sum()
        x = nxt
        low, since_low = (step, 0) if step < low else (low, since_low + 1)
        if step < STATIONARY_TOL:
            break
        if since_low >= STATIONARY_STALL_SWEEPS:
            if low < STATIONARY_STALL_TOL:
                break
            if not lazy:
                low, since_low, lazy = math.inf, 0, True
    else:
        raise NonConvergenceError(
            "power iteration did not converge; the chain mixes too slowly"
        )
    # backward reachability of the heaviest state along positive transitions
    reach = np.zeros(n, dtype=bool)
    reach[np.argmax(x)] = True
    while True:
        grown = reach | (live & reach[succ]).any(axis=1)
        if (grown == reach).all():
            break
        reach = grown
    if not reach.all():
        raise NonConvergenceError(
            f"chain is reducible: {name(int(np.argmin(reach)))} cannot reach "
            f"{name(int(np.argmax(x)))}, so the stationary law is not unique"
        )
    return x / x.sum()


def stationary(model: MarkovModel) -> np.ndarray:
    """Stationary law of the context chain, aligned with ``model.codes``.

    Power iteration until a sweep moves the law by less than
    ``STATIONARY_TOL`` = 1e-15 in L1 norm (the rounding floor of a sweep is a
    few 1e-17 on well-mixing chains), so the law is within about
    1e-15 * |l2| / (1 - |l2|) of the exact one, l2 the second eigenvalue.
    The chain on the fitted contexts must be closed, else
    :class:`UnseenContextError`, and must have a single closed class that
    every context reaches, else :class:`NonConvergenceError` names a context
    that does not; transient contexts end with mass near 1e-15 or less.
    Periodic chains converge through their lazy chain; chains too slow to
    converge within ``STATIONARY_MAX_ITER`` sweeps raise
    :class:`NonConvergenceError`.
    """
    if model.order == 0:
        return np.ones(1)
    live = model.rows > 0
    succ = model.lookup(model.successors(model.codes))
    open_ = np.argwhere(live & (succ < 0))
    if len(open_):
        i, sym = open_[0]
        ctx = model.context(model.codes[i])
        raise UnseenContextError(
            f"context chain is not closed: {ctx} -> {ctx[1:] + (int(sym),)} has no row"
        )
    return _stationary_law(succ, model.rows,
                           lambda i: f"context {model.context(model.codes[i])}")


def window_law(model: MarkovModel, length: int, start,
               atom_cap: int = DEFAULT_ATOM_CAP) -> tuple[np.ndarray, np.ndarray]:
    """Law of the first ``length`` symbols of the chain started from ``start``.

    ``start`` is a ``(codes, probs)`` law over the model's k-grams, such as
    its initial law or ``(model.codes, stationary(model))``.  Windows are
    extended one symbol at a time along positive transitions, so the result
    is the sorted codes of the positive-mass windows and their masses.  A
    window shorter than the order gets the marginal of ``start`` on its first
    ``length`` symbols.  More than ``atom_cap`` windows raise
    :class:`AtomBudgetError`.
    """
    a, k = model.alphabet.size, model.order
    if length < 0:
        raise ValueError("window length must be >= 0")
    check_code_length(a, length)
    codes = np.asarray(start[0], dtype=np.int64)
    probs = np.asarray(start[1], dtype=float)
    codes, probs = codes[probs > 0], probs[probs > 0]
    if length < k:
        prefix, which = np.unique(codes // a ** (k - length), return_inverse=True)
        return prefix, np.bincount(which, weights=probs, minlength=len(prefix))
    for _ in range(length - k):
        rows = model.rows_at(codes % a ** k)
        live = rows > 0
        probs = (probs[:, None] * rows)[live]
        codes = (codes[:, None] * a + np.arange(a))[live]
        if len(codes) > atom_cap:
            raise AtomBudgetError(f"window law of length {length} exceeds cap {atom_cap}")
    return codes, probs


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
        for name, mat in (("transition", self.transition), ("emission", self.emission),
                          ("start", self.start[None])):
            if mat.ndim != 2 or not (mat.min() >= 0 and np.abs(mat.sum(1) - 1).max() <= 1e-9):
                raise ValueError(f"{name} rows must be distributions")
        s = len(self.transition)
        if self.transition.shape != (s, s) or len(self.emission) != s or self.start.shape != (s,):
            raise ValueError("transition must be (S, S), emission (S, A) and start (S,)")

    @property
    def alphabet_size(self) -> int:
        return self.emission.shape[1]

    @classmethod
    def with_stationary_start(cls, transition, emission) -> "HiddenMarkovSource":
        """Source started from the stationary law of its state chain."""
        transition = np.asarray(transition, dtype=float)
        n = len(transition)
        source = cls(transition, emission, np.full(n, 1.0 / n))
        source.start = _stationary_law(np.broadcast_to(np.arange(n), (n, n)),
                                       source.transition, lambda i: f"state {i}")
        return source


def hmm_forward(source: HiddenMarkovSource, windows) -> tuple[np.ndarray, np.ndarray]:
    """Forward recursion (Rabiner 1989) run across the rows of an ``(n, m)``
    array of windows at once.

    Returns the normalized state law after each window's last symbol, shape
    ``(n, S)`` (the start law when ``m = 0``), and log P(window), shape ``(n,)``.
    The belief is renormalized at every symbol and the logs of the
    normalizers are summed in window order.  An impossible window gets
    log-probability ``-inf`` and an all-zero belief.
    """
    windows = np.asarray(windows, dtype=np.int64)
    if windows.ndim != 2:
        raise ValueError("windows must be an (n, m) array")
    if windows.size and not (windows.min() >= 0 and windows.max() < source.alphabet_size):
        raise ValueError("window symbols must lie in [0, alphabet_size)")
    n, m = windows.shape
    belief = np.repeat(source.start[None, :], n, axis=0)
    log_prob = np.zeros(n)
    for t in range(m):
        if t > 0:
            belief = belief @ source.transition
        belief *= source.emission[:, windows[:, t]].T
        z = belief.sum(axis=1)
        with np.errstate(divide="ignore"):
            log_prob += np.log(z)
        belief /= np.where(z > 0, z, 1.0)[:, None]
    return belief, log_prob


# -- sampling ---------------------------------------------------------------


def _guide_table(cum: np.ndarray, g: int) -> np.ndarray:
    """``guide[s, b] = #{j : cum[s, j] < b / g or cum[s, j] <= 0}`` for
    ``b = 0..g`` and a power of two ``g``; cell ``g`` serves the values from 1
    up to a total just above 1, which an initial law's scaled uniforms reach.
    Cell 0 counts the leading zero-mass columns, a lower edge for every value
    in it, so a value of exactly 0 draws the first column with mass.

    ``cum < b / g`` holds exactly when ``floor(cum * g) < b``, and scaling by a
    power of two is exact, so the table needs no float comparison at the cell
    edges: each positive cumulative sum counts toward every cell from
    ``floor(cum * g) + 1`` on, and a sum of 0 from cell 0 on.
    """
    n_rows = len(cum)
    first = np.minimum(np.floor(cum * g).astype(np.int64) + (cum > 0), g + 1)
    first += (np.arange(n_rows, dtype=np.int64) * (g + 2))[:, None]
    hits = np.bincount(first.ravel(), minlength=n_rows * (g + 2))
    return np.cumsum(hits.reshape(n_rows, g + 2)[:, :g + 1], axis=1)


class InverseCDF:
    """Vectorized inverse-CDF draws from the rows of an ``(n, a)`` matrix.

    ``draw(row, u)`` is the flat index ``row * a + j`` of
    ``j = #{j : cum[row, j] < u or cum[row, j] <= 0}`` clamped to ``a - 1``
    (which differs from ``cum < u`` only at ``u = 0``).  A guide table (Chen &
    Asau 1974) of ``g + 1`` cells a row, ``g`` four times the least power of
    two >= ``a`` and shrunk toward ``GUIDE_CELL_CAP`` cells, holds the count
    at the lower edge of each cell.  A cell with no cumulative sum in it holds
    the answer and compares nothing; a cell with sums in it is marked, its
    entry stored as ``~entry``, and places ``u`` by one comparison with its
    first sum; only a cell with several sums (:attr:`several`) scans on past
    that.  The entries are held in the least signed integer type that fits
    them, which keeps the table in cache.  ``cum`` holds the cumulative rows
    flat, the last column +inf (the clamp), and ``total`` each row's true
    last sum.

    Rows are addressed by guide offsets ``row * cells`` (:meth:`offsets`),
    which :meth:`at` draws from.  One row past the last is a sentinel that
    stands for a context with no row: every cell of it draws the flat index
    ``stuck``, which is ``n * a``.
    """

    def __init__(self, rows):
        cum = np.cumsum(rows, axis=1)
        n, a = cum.shape
        self.total = cum[:, -1].copy()
        self.g = 4 << max(a - 1, 0).bit_length()  # four times the least power of two >= a
        while self.g > 1 and n * self.g > GUIDE_CELL_CAP:
            self.g //= 2
        self.cells, self.stuck = self.g + 1, n * a
        counts = np.minimum(_guide_table(cum, self.g), a - 1)
        # the sums in a cell: the count at its upper edge less the one at its own
        inside = np.diff(counts, axis=1, append=np.full((n, 1), a - 1))
        entry = counts + (np.arange(n, dtype=np.int64) * a)[:, None]
        guide = np.append(np.where(inside > 0, ~entry, entry), np.full(self.cells, self.stuck))
        self.guide = guide.astype(np.min_scalar_type(~self.stuck))
        self.several = np.append(inside > 1, np.zeros(self.cells, dtype=bool))
        cum[:, -1] = np.inf
        self.cum = cum.ravel()

    def offsets(self, rows) -> np.ndarray:
        """Guide offsets of ``rows``; a row of -1, no row, is the sentinel."""
        rows = np.asarray(rows, dtype=np.int64)
        return np.where(rows < 0, len(self.total), rows) * self.cells

    def at(self, offset, u) -> np.ndarray:
        """Flat draws for the uniforms ``u`` from the rows at guide offsets ``offset``."""
        cell = (u * self.g).astype(np.int64)
        cell += offset
        idx = np.take(self.guide, cell).astype(np.int64)
        marked = np.flatnonzero(idx < 0)
        if marked.size:
            first = ~idx[marked]
            past = u[marked] > self.cum[first]
            first += past
            idx[marked] = first
            scan = marked[past & self.several[cell[marked]]]
            while scan.size:
                scan = scan[u[scan] > self.cum[idx[scan]]]
                idx[scan] += 1
        return idx

    def __call__(self, row, u) -> np.ndarray:
        return self.at(np.asarray(row) * self.cells, u)


class ChainWalk:
    """Paths over the rows of a matrix.  The start atom drawn from
    ``start_probs`` gives the first tokens (its row of ``start_tokens``) and
    row ``start_rows[atom]``; each column ``j`` then drawn from row ``s`` is a
    token and moves the walk to row ``succ[s, j]``.  Rows are carried as guide
    offsets of :attr:`draw`, so a step is a draw and one successor gather.
    Row -1, a context with no row, is the sentinel, which draws itself again;
    a walk that drew from it raises :class:`UnseenContextError` at its end.
    """

    def __init__(self, rows, succ, start_probs, start_rows, start_tokens):
        self.law = InverseCDF(start_probs[None])
        self.starts, self.tokens = start_rows, start_tokens
        self.draw = InverseCDF(rows)
        # successors by flat draw, the sentinel's draw last
        self.succ = self.draw.offsets(np.append(succ.ravel(), -1))
        self.a = rows.shape[1]

    @classmethod
    def of(cls, model: MarkovModel) -> "ChainWalk":
        """The walk of a model's contexts, whose tokens are its symbols."""
        a, k = model.alphabet.size, model.order
        return cls(model.rows, model.lookup(model.successors(model.codes)), model.init_probs,
                   model.lookup(model.init_codes), decode(model.init_codes, a, k))

    def steps(self, rows, draws):
        """Walk from ``rows``: for each array of uniforms in ``draws`` yield
        the flat draws ``row * a + token``.  A draw from the sentinel is the
        sentinel's, from then on, so the last draws tell whether the walk drew
        from a context with no row."""
        state, flat = self.draw.offsets(rows), None
        for u in draws:
            flat = self.draw.at(state, u)
            state = np.take(self.succ, flat)
            yield flat
        if flat is not None and (flat == self.draw.stuck).any():
            raise UnseenContextError(_NO_ROW)

    def windows(self, width: int, u) -> np.ndarray:
        """``(len(u), width)`` tokens: ``u[i, 0]`` draws row ``i``'s start
        tokens (cut to ``width``), each later ``u[i, j]`` one more token."""
        k = self.tokens.shape[1]
        pick = self.law(0, u[:, 0] * self.law.total[0])
        out = np.empty((len(u), width), dtype=np.int64)
        out[:, :k] = self.tokens[pick][:, :width]
        steps = self.steps(self.starts[pick], u[:, 1:1 + max(width - k, 0)].T)
        for t, flat in enumerate(steps, k):
            out[:, t] = flat % self.a
        return out

    def path(self, n: int, u) -> np.ndarray:
        """The ``n`` tokens :meth:`windows` draws from the values ``u``."""
        a, cells = self.a, self.draw.cells
        pick = int(self.law(0, u[:1] * self.law.total[0])[0])
        out = self.tokens[pick][:n].tolist()
        state = int(self.draw.offsets(self.starts[pick]))
        seen: dict[int, tuple[list[float], list[int]]] = {}
        # bisect_left counts the sums below v; the least positive float in
        # place of a 0 counts the zero sums too, as the guide's cell 0 does
        for v in np.maximum(u[1:], _LEAST_POSITIVE).tolist():
            row = seen.get(state)
            if row is None:
                at = state // cells * a
                if at == self.draw.stuck:
                    raise UnseenContextError(_NO_ROW)
                row = seen[state] = (self.draw.cum[at:at + a].tolist(),
                                     self.succ[at:at + a].tolist())
            sym = bisect.bisect_left(row[0], v)
            out.append(sym)
            state = row[1][sym]
        return np.array(out, dtype=np.int64)


def sample(model: MarkovModel, n: int, seed: int) -> TokenSeq:
    """Draw ``n`` tokens: initial k-gram from the init law, then transitions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u = spawn_rng(seed, 0).random(1 + max(n - model.order, 0))
    return TokenSeq(ChainWalk.of(model).path(n, u))


def _state_walk(source: HiddenMarkovSource) -> ChainWalk:
    """The walk of the hidden states, whose tokens are the states."""
    states = np.arange(len(source.start))
    return ChainWalk(source.transition, np.broadcast_to(states, source.transition.shape),
                     source.start, states, states[:, None])


def hmm_sample(source: HiddenMarkovSource, n: int, seed: int) -> TokenSeq:
    """``n`` symbols of one path.  The uniforms draw the start state, then
    alternate between the current state's symbol and the next state."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u = spawn_rng(seed, 1).random(2 * n)
    states = _state_walk(source).path(n, u[0::2])
    return TokenSeq(InverseCDF(source.emission)(states, u[1::2]) % source.alphabet_size)


def hmm_sample_windows(source: HiddenMarkovSource, n_windows: int, width: int, seed: int) -> np.ndarray:
    """Independent windows: row ``2t`` of the uniforms draws each window's
    state at ``t`` and row ``2t + 1`` its symbol, as in :func:`hmm_sample`."""
    if not width:
        return np.empty((n_windows, 0), dtype=np.int64)
    u = spawn_rng(seed, 2).random((2 * width, n_windows))
    states = _state_walk(source).windows(width, u[0::2].T)
    syms = InverseCDF(source.emission)(states.ravel(), u[1::2].T.ravel())
    return syms.reshape(n_windows, width) % source.alphabet_size
