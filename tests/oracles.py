"""Reference implementations on tuple-keyed dicts.

The package keeps a chain as sorted integer context codes and dense row
matrices.  These are the straightforward loops over symbol tuples that the
code-based routines replaced; the tests hold the routines to them.
"""
import math
from collections import Counter

import numpy as np

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
