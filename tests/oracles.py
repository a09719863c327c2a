"""Reference implementations the package's routines are held to.

The package keeps a chain as sorted integer context codes and dense row
matrices, one power iteration for every stationary law, one batched forward
recursion for hidden-Markov sources, run counts for the binary-chain
statistic classes, one column-at-a-time enumeration of the i.i.d. type
classes, statistic tables built in few array passes with a threshold scan
that stops early, and one vectorized seed hash for a batch of keys.  These
are the straightforward loops over symbol tuples and dicts, the dense
eigenvector and linear-solve stationary laws, the power iteration without
lazy sweeps, the per-context forward filter with its depth-first context
walk, Whittle's cofactor formula, the recursive composition builder, the
table builders and the full threshold scan that take one array pass per step,
one ``SeedSequence`` per derived seed, the per-character tokenizer and the
fit that sorts every context with ``np.unique``, that those routines replaced
or stand for.
"""
import bisect
import math
import warnings
from collections import Counter

import numpy as np
from scipy.special import gammaln

from markovdetect.corpus import _BYTE_SYMBOLS, OOV_SYMBOL, Alphabet, TokenSeq
from markovdetect.errors import (
    DegenerateStatisticWarning,
    NonConvergenceError,
    TokenizerError,
    UnseenContextError,
)
from markovdetect.hypotest import _TIE_TOL, _chain_logs, _compositions, _log_matrix
from markovdetect.markov import HiddenMarkovSource, MarkovModel, stationary, window_law
from markovdetect.util import decode, encode, fmt17, spawn_rng


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


def loop_word_alphabet(words, vocab_limit):
    """The word alphabet from first-seen indices: at most ``vocab_limit``
    symbols, the most frequent words and ``<oov>``, ties toward earlier
    first appearance."""
    counts = Counter(words)
    first_seen = {}
    for i, w in enumerate(words):
        first_seen.setdefault(w, i)
    ordered = sorted(first_seen, key=first_seen.get)
    if len(ordered) < 2:
        raise TokenizerError("text uses fewer than 2 distinct symbols; pass an explicit alphabet")
    if vocab_limit is not None and len(ordered) > vocab_limit:
        keep = sorted(ordered, key=lambda w: (-counts[w], first_seen[w]))[: vocab_limit - 1]
        keep = sorted(keep, key=first_seen.get)
        return Alphabet(tuple(keep) + (OOV_SYMBOL,), oov_policy="map")
    return Alphabet(tuple(ordered))


def loop_tokenize(text, scheme="char", alphabet=None, vocab_limit=None):
    """Tokenizing one symbol at a time through the alphabet's dict, distinct
    characters in order of first appearance, words by
    :func:`loop_word_alphabet`."""
    if scheme == "byte":
        if alphabet is None:
            alphabet = Alphabet(_BYTE_SYMBOLS)
        codes = [alphabet.index(chr(b)) for b in text.encode("utf-8")]
        return TokenSeq(np.array(codes, dtype=np.int64)), alphabet
    parts = text.split() if scheme == "word" else list(text)
    if not parts:
        raise TokenizerError(f"scheme {scheme!r} needs nonempty text")
    if scheme == "word" and alphabet is None:
        alphabet = loop_word_alphabet(parts, vocab_limit)
    if alphabet is None:
        seen = {}
        for ch in parts:
            seen.setdefault(ch)
        if len(seen) < 2:
            raise TokenizerError(
                "text uses fewer than 2 distinct symbols; pass an explicit alphabet"
            )
        alphabet = Alphabet(tuple(seen))
    codes = [alphabet.index(ch) for ch in parts]
    return TokenSeq(np.array(codes, dtype=np.int64)), alphabet


def unique_fit(seq, k, alphabet, smoothing=0.0):
    """Empirical order-``k`` fit that finds the contexts with ``np.unique``:
    ``(codes, rows, init_probs)``."""
    m, a = len(seq), alphabet.size
    contexts = encode(np.lib.stride_tricks.sliding_window_view(seq.tokens[: m - 1], k), a)
    codes, which, denom = np.unique(contexts, return_inverse=True, return_counts=True)
    counts = np.bincount(which * a + seq.tokens[k:], minlength=len(codes) * a)
    counts = counts.reshape(len(codes), a)
    if smoothing > 0:
        rows = (counts + smoothing) / (denom + smoothing * a)[:, None]
    else:
        rows = counts / denom[:, None]
    return codes, rows, denom / (m - k)


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


def stall_power_iteration(model, tol=1e-15, stall_tol=1e-10, stall_sweeps=64,
                          max_iter=10 ** 6):
    """Stationary law of a context chain by power iteration from the uniform
    law, stopped by the step tolerance or by a step stalled below
    ``stall_tol``, with no lazy sweeps: it never stops on a periodic chain."""
    n = len(model.codes)
    succ = model.lookup(model.successors(model.codes))
    live = model.rows > 0
    flat_succ = np.where(live, succ, 0).reshape(-1)
    prob = np.where(live, model.rows, 0.0)
    x = np.full(n, 1.0 / n)
    low, since_low = math.inf, 0
    for _ in range(max_iter):
        nxt = np.bincount(flat_succ, weights=(x[:, None] * prob).reshape(-1), minlength=n)
        step = np.abs(nxt - x).sum()
        x = nxt
        low, since_low = (step, 0) if step < low else (low, since_low + 1)
        if step < tol or (low < stall_tol and since_low >= stall_sweeps):
            return x / x.sum()
    raise NonConvergenceError("power iteration did not converge")


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


def markov_conditional(model, context):
    """Next-symbol law of the stationary chain given the last ``len(context)``
    symbols: a row lookup, or for contexts shorter than the order the rows
    of the matching contexts averaged under the stationary law."""
    k, a = model.order, model.alphabet.size
    if len(context) >= k:
        return model.row(tuple(context[len(context) - k:]))
    pi = stationary(model)
    match = (pi > 0) & (model.codes % a ** len(context) == encode(context, a))
    mass = pi[match].sum()
    if mass <= 0:
        raise UnseenContextError(f"context {context} has probability 0 under the model")
    return (pi[match, None] * model.rows[match]).sum(axis=0) / mass


# -- hidden-Markov sources, one context at a time ------------------------------


def hmm_filter(source, context):
    """Normalized state belief after observing ``context`` plus log P(context)."""
    belief = source.start.copy()
    log_prob = 0.0
    for t, sym in enumerate(context):
        if t > 0:
            belief = belief @ source.transition
        belief = belief * source.emission[:, sym]
        z = belief.sum()
        if z <= 0.0:
            raise UnseenContextError(
                f"context {tuple(context)} has probability 0 under the source")
        belief /= z
        log_prob += math.log(z)
    return belief, log_prob


def hmm_conditional(source, context):
    """Exact next-symbol law given an observed context (empty context allowed)."""
    context = tuple(context)
    if not context:
        return source.start @ source.emission
    belief, _ = hmm_filter(source, context)
    return (belief @ source.transition) @ source.emission


def hmm_window_log_prob(source, window):
    """log P(window) under the source (forward recursion)."""
    _, lp = hmm_filter(source, tuple(window))
    return lp


def dfs_conditional_table(source, m, pi=None):
    """``{context tuple: next-symbol law}`` for every positive-probability
    length-m context: a depth-first walk of the forward filter for a
    hidden-Markov source, the stationary window law for a chain."""
    if isinstance(source, HiddenMarkovSource):
        a = source.alphabet_size
        table = {}

        def walk(ctx, belief):
            if len(ctx) == m:
                table[ctx] = (belief @ source.transition) @ source.emission
                return
            prop = belief @ source.transition if ctx else source.start
            for sym in range(a):
                nxt = prop * source.emission[:, sym]
                z = nxt.sum()
                if z > 0:
                    walk(ctx + (sym,), nxt / z)

        walk((), source.start)
        return table
    a, k = source.alphabet.size, source.order
    if pi is None:
        pi = stationary(source)
    codes, mass = window_law(source, max(m, k), (source.codes, pi), atom_cap=4 ** 12)
    if m >= k:
        codes = codes[mass > 0]
        rows = source.rows_at(codes % a ** k)
    else:
        weighted = mass[:, None] * source.rows_at(codes)
        codes, group = np.unique(codes % a ** m, return_inverse=True)
        rows = np.zeros((len(codes), a))
        np.add.at(rows, group, weighted)
        rows /= np.bincount(group, weights=mass)[:, None]
    return dict(zip(map(tuple, decode(codes, a, m).tolist()), rows))


def dict_suffix_spread(table, k):
    """Largest gap between the laws of two contexts sharing their last k symbols."""
    hi, lo = {}, {}
    for ctx, dist in table.items():
        sfx = ctx[len(ctx) - k:]
        if sfx in hi:
            hi[sfx] = np.maximum(hi[sfx], dist)
            lo[sfx] = np.minimum(lo[sfx], dist)
        else:
            hi[sfx] = dist.copy()
            lo[sfx] = dist.copy()
    return max((float((hi[s] - lo[s]).max()) for s in hi), default=0.0)


def dict_profile(source, k_max, m_max):
    """(rates, floor) of the continuity profile from the dict tables."""
    pi = stationary(source) if isinstance(source, MarkovModel) else None
    rates = [0.0] * k_max
    floor = 1.0
    for m in range(1, m_max + 1):
        table = dfs_conditional_table(source, m, pi)
        for dist in table.values():
            floor = min(floor, float(dist.min()))
        for k in range(1, min(m, k_max) + 1):
            rates[k - 1] = max(rates[k - 1], dict_suffix_spread(table, k))
    return rates, floor


# -- i.i.d. type classes by recursion -----------------------------------------


def recursive_compositions(total, parts):
    """Compositions of ``total`` into ``parts`` counts >= 0 in lexicographic
    order: each first count in turn, before every composition of the rest."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    blocks = []
    for first in range(total + 1):
        rest = recursive_compositions(total - first, parts - 1)
        col = np.full((len(rest), 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


# -- exact statistic tables, one element-wise pass per step -------------------
#
# The table builders and the threshold scan in their plain form: six
# ``gammaln`` calls per chain table, classes from ``np.triu_indices`` and a
# keep mask, counts converted to float once per column, every mask applied,
# and one ``logaddexp.accumulate`` over the whole table.  The package's
# builders touch each class array fewer times and must give the same bits.


def onepass_llr_stats(lp, lq, n):
    """Per-token statistic (lp - lq) / n: +inf where only lq is -inf, -inf
    where only lp is, and nan where both are."""
    stats = np.full(len(lp), np.nan)
    fp, fq = np.isfinite(lp), np.isfinite(lq)
    stats[fp & fq] = (lp[fp & fq] - lq[fp & fq]) / n
    stats[fp & ~fq] = np.inf
    stats[~fp & fq] = -np.inf
    return stats


def onepass_clean_table(stats, lp, lq):
    """Drop impossible classes, order by statistic."""
    stats = np.asarray(stats, dtype=float)
    lp = np.asarray(lp, dtype=float)
    lq = np.asarray(lq, dtype=float)
    keep = ~((lp == -np.inf) & (lq == -np.inf))
    stats, lp, lq = stats[keep], lp[keep], lq[keep]
    order = np.argsort(stats, kind="stable")
    return stats[order], lp[order], lq[order]


def onepass_log_weighted(counts, log_probs):
    """sum_i counts_i * log_probs_i with the 0 * (-inf) = 0 convention."""
    out = np.zeros(len(counts))
    for i, lw in enumerate(log_probs):
        c = counts[:, i]
        if np.isfinite(lw):
            out += c * lw
        else:
            out = np.where(c > 0, -np.inf, out)
    return out


def onepass_table_iid(p_model, q_model, n):
    counts = _compositions(n, p_model.alphabet.size)
    log_coef = gammaln(n + 1) - gammaln(counts + 1).sum(axis=1)
    num_p = onepass_log_weighted(counts, _log_matrix(p_model.row(())))
    num_q = onepass_log_weighted(counts, _log_matrix(q_model.row(())))
    return onepass_clean_table(onepass_llr_stats(num_p, num_q, n),
                               log_coef + num_p, log_coef + num_q)


def onepass_table_binary_chain(p_model, q_model, n):
    """Transition-count classes (s switches, stay_o stays of the other symbol)
    from ``np.triu_indices``, counted by six ``gammaln`` calls."""
    (li_p, lr_p), (li_q, lr_q) = _chain_logs(p_model), _chain_logs(q_model)
    s, stays = np.triu_indices(n)
    stay_o = n - 1 - stays
    keep = (s > 0) | (stay_o == 0)
    s, stay_o = s[keep], stay_o[keep]
    stay_x = n - 1 - s - stay_o
    runs_x, runs_o = s // 2 + 1, (s + 1) // 2
    some_o = np.maximum(runs_o, 1)
    log_count = (gammaln(stay_x + runs_x) - gammaln(stay_x + 1) - gammaln(runs_x)
                 + gammaln(stay_o + some_o) - gammaln(stay_o + 1) - gammaln(some_o))
    counts = np.stack([stay_x, runs_o, runs_x - 1, stay_o], axis=1)
    size = len(log_count)
    stats, lp, lq = np.empty(2 * size), np.empty(2 * size), np.empty(2 * size)
    for x, by_x in ((0, counts), (1, counts[:, ::-1])):
        tp = li_p[x] + onepass_log_weighted(by_x, lr_p)
        tq = li_q[x] + onepass_log_weighted(by_x, lr_q)
        half = slice(x * size, (x + 1) * size)
        stats[half] = onepass_llr_stats(tp, tq, n)
        lp[half] = log_count + tp
        lq[half] = log_count + tq
    return onepass_clean_table(stats, lp, lq)


def full_scan_threshold(stats, lp, epsilon):
    """Largest statistic value whose classes below it carry P-mass <= epsilon,
    from the P-mass below every class of the table."""
    first = np.flatnonzero(np.concatenate([[True], stats[1:] != stats[:-1]]))
    cum = np.concatenate([[-np.inf], np.logaddexp.accumulate(lp)[:-1]])
    valid = np.flatnonzero(np.exp(cum[first]) <= epsilon + _TIE_TOL)
    if len(first) == 1:
        warnings.warn("all statistic classes coincide", DegenerateStatisticWarning)
    return float(stats[first[valid[-1]]])


# -- binary-chain statistic classes by Whittle's cofactor ---------------------


def lift_binary(model):
    """(init over symbols, 2x2 rows) view of a binary order-<=1 model."""
    if model.order == 0:
        row = model.row(())
        return row.copy(), np.stack([row, row])
    return model.init_mass([0, 1]), model.rows_at([0, 1])


def whittle_binary_chain_table(p_model, q_model, n):
    """(stats, log P, log Q) per (first symbol, transition counts) class, with
    class sizes ``prod_a rowsum_a! / prod_ab N_ab! * cofactor`` from four
    (first, last symbol) passes over an n x n grid of (n00, n11)."""
    init_p, rows_p = lift_binary(p_model)
    init_q, rows_q = lift_binary(q_model)
    with np.errstate(divide="ignore"):
        li_p, lr_p = np.log(init_p), np.log(rows_p)
        li_q, lr_q = np.log(init_q), np.log(rows_q)
    parts = []
    for x1 in (0, 1):
        for xn in (0, 1):
            d = (1 if x1 == 0 else 0) - (1 if xn == 0 else 0)
            n00, n11 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            n00, n11 = n00.ravel(), n11.ravel()
            rest = n - 1 - n00 - n11
            ok = (rest >= 0) & (((rest + d) % 2) == 0)
            n00, n11, rest = n00[ok], n11[ok], rest[ok]
            n01 = (rest + d) // 2
            n10 = (rest - d) // 2
            ok = (n01 >= 0) & (n10 >= 0)
            n00, n11, n01, n10 = n00[ok], n11[ok], n01[ok], n10[ok]
            r0, r1 = n00 + n01, n10 + n11
            c0, c1 = n00 + n10, n01 + n11
            ok = (r0 - c0 == (x1 == 0) - (xn == 0)) & (r1 - c1 == (x1 == 1) - (xn == 1))
            n00, n11, n01, n10, r0, r1 = (
                n00[ok], n11[ok], n01[ok], n10[ok], r0[ok], r1[ok])
            with np.errstate(divide="ignore", invalid="ignore"):
                m00 = np.where(r0 > 0, 1 - n00 / np.maximum(r0, 1), 1.0)
                m10 = np.where(r1 > 0, -n10 / np.maximum(r1, 1), 0.0)
                m01 = np.where(r0 > 0, -n01 / np.maximum(r0, 1), 0.0)
                m11 = np.where(r1 > 0, 1 - n11 / np.maximum(r1, 1), 1.0)
            minor = np.choose(2 * (1 - xn) + (1 - x1), [m00, m01, m10, m11])
            cof = ((-1) ** (x1 + xn)) * minor
            pos = cof > 1e-14
            n00, n11, n01, n10, r0, r1, cof = (
                n00[pos], n11[pos], n01[pos], n10[pos], r0[pos], r1[pos], cof[pos])
            log_count = (gammaln(r0 + 1) + gammaln(r1 + 1)
                         - gammaln(n00 + 1) - gammaln(n01 + 1)
                         - gammaln(n10 + 1) - gammaln(n11 + 1)
                         + np.log(cof))
            counts = np.stack([n00, n01, n10, n11], axis=1)
            log_rows_p = np.array([lr_p[0, 0], lr_p[0, 1], lr_p[1, 0], lr_p[1, 1]])
            log_rows_q = np.array([lr_q[0, 0], lr_q[0, 1], lr_q[1, 0], lr_q[1, 1]])
            tp = li_p[x1] + onepass_log_weighted(counts, log_rows_p)
            tq = li_q[x1] + onepass_log_weighted(counts, log_rows_q)
            parts.append((onepass_llr_stats(tp, tq, n), log_count + tp, log_count + tq))
    stats = np.concatenate([p[0] for p in parts])
    lp = np.concatenate([p[1] for p in parts])
    lq = np.concatenate([p[2] for p in parts])
    return onepass_clean_table(stats, lp, lq)


# -- binary-chain statistic law by dynamic programming on class counts ---------


def dp_binary_chain_classes(n):
    """``{(first, last, n00, n01, n10, n11): sequences}`` over every binary
    sequence of length ``n``, counted in Python ints one symbol at a time."""
    classes = {(x, x, 0, 0, 0, 0): 1 for x in (0, 1)}
    for _ in range(n - 1):
        grown = {}
        for (first, last, *counts), size in classes.items():
            for nxt in (0, 1):
                step = list(counts)
                step[2 * last + nxt] += 1
                key = (first, nxt, *step)
                grown[key] = grown.get(key, 0) + size
        classes = grown
    return classes


def dp_binary_chain_law(p_model, q_model, n, tie=1e-12):
    """Sorted ``[stat, P-mass, Q-mass]`` per statistic value of a binary
    order-<=1 pair, with statistics within ``tie`` of the previous one
    grouped; masses are exact class sizes times float sequence probabilities,
    summed with math.fsum."""
    logs = []
    for model in (p_model, q_model):
        init, rows = lift_binary(model)
        logs.append(([math.log(v) if v > 0 else -math.inf for v in init],
                     [math.log(v) if v > 0 else -math.inf for v in rows.ravel()]))

    def log_prob(which, first, counts):
        init, rows = logs[which]
        total = init[first]
        for count, lr in zip(counts, rows):
            if count:
                total += count * lr
        return total

    entries = []
    for (first, _, *counts), size in dp_binary_chain_classes(n).items():
        lp, lq = log_prob(0, first, counts), log_prob(1, first, counts)
        if lp == lq == -math.inf:
            continue
        stat = (math.inf if lq == -math.inf else -math.inf if lp == -math.inf
                else (lp - lq) / n)
        entries.append((stat, size * math.exp(lp), size * math.exp(lq)))
    entries.sort()
    law = []
    for stat, mp, mq in entries:
        if law and stat - law[-1][3] <= tie:
            law[-1][1].append(mp)
            law[-1][2].append(mq)
            law[-1][3] = stat
        else:
            law.append([stat, [mp], [mq], stat])
    return [[stat, math.fsum(mp), math.fsum(mq)] for stat, mp, mq, _ in law]


def dp_binary_chain_test(p_model, q_model, n, epsilon):
    """(threshold, ln miss) of the exact Neyman-Pearson test on the grouped
    law: the largest statistic whose lower values carry P-mass <= epsilon,
    and the Q-mass at or above it."""
    law = dp_binary_chain_law(p_model, q_model, n)
    below, pick = 0.0, 0
    for i, (_, mp, _) in enumerate(law):
        if below <= epsilon + 1e-15:
            pick = i
        below += mp
    miss = math.fsum(mq for _, _, mq in law[pick:])
    return law[pick][0], (math.log(miss) if miss > 0 else -math.inf)

def loop_log_likelihood(model, seq):
    """Log-probability of ``seq`` one token at a time, with math.log; a
    sequence shorter than the order sums the initial masses of the k-grams it
    begins, in code order."""
    k = model.order
    toks = seq.tokens.tolist()
    if len(toks) < k:
        mass = 0.0
        for ctx, p in _init_items(model):
            if ctx[:len(toks)] == tuple(toks):
                mass += p
        return math.log(mass) if mass > 0 else -math.inf
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


# -- samplers, one symbol at a time --------------------------------------------


def bisect_sample(model, n, seed):
    """``n`` tokens with ``bisect_right`` of ``u * cum[-1]`` on the initial
    law and on each transition row, one ``float`` at a time."""
    rng = spawn_rng(seed, 0)
    k, a = model.order, model.alphabet.size
    init_cum = np.cumsum(model.init_probs)
    pick = bisect.bisect_right(init_cum.tolist(), rng.random() * init_cum[-1])
    code = int(model.init_codes[min(pick, len(init_cum) - 1)])
    out = decode(code, a, k).tolist()
    if n <= k:
        return TokenSeq(np.array(out[:n], dtype=np.int64))
    row_of = dict(zip(model.codes.tolist(), range(len(model.codes))))
    cums = {}
    for u in rng.random(n - k).tolist():
        cum = cums.get(code)
        if cum is None:
            if code not in row_of:
                model.rows_at(code)  # raises: the context has no row
            cum = np.cumsum(model.rows[row_of[code]]).tolist()
            cums[code] = cum
        sym = min(bisect.bisect_right(cum, u * cum[-1]), a - 1)
        out.append(sym)
        code = (code * a + sym) % a ** k
    return TokenSeq(np.array(out, dtype=np.int64))


def searchsorted_hmm_sample(source, n, seed):
    """``n`` symbols of one hidden-Markov path with one ``np.searchsorted`` of
    ``u * cum[-1]`` per state and per symbol, uniforms in the order start,
    emission 0, transition 1, emission 1, ..."""
    rng = spawn_rng(seed, 1)
    t_cum = np.cumsum(source.transition, axis=1)
    e_cum = np.cumsum(source.emission, axis=1)
    us = rng.random(2 * n)
    state = int(np.searchsorted(np.cumsum(source.start), us[0] * source.start.sum()))
    state = min(state, len(source.start) - 1)
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        if i > 0:
            state = int(np.searchsorted(t_cum[state], us[2 * i] * t_cum[state, -1]))
            state = min(state, len(source.start) - 1)
        sym = int(np.searchsorted(e_cum[state], us[2 * i + 1] * e_cum[state, -1]))
        out[i] = min(sym, source.alphabet_size - 1)
    return TokenSeq(out)


def comparison_hmm_sample_windows(source, n_windows, width, seed):
    """Windows with start states from ``rng.choice`` and each later state and
    symbol ``#{j : cum[s, j] < u}`` counted against the whole row."""
    rng = spawn_rng(seed, 2)
    t_cum = np.cumsum(source.transition, axis=1)
    e_cum = np.cumsum(source.emission, axis=1)
    states = rng.choice(len(source.start), size=n_windows, p=source.start)
    out = np.empty((n_windows, width), dtype=np.int64)
    for t in range(width):
        if t > 0:
            u = rng.random(n_windows)
            states = np.minimum((u[:, None] > t_cum[states]).sum(axis=1), len(source.start) - 1)
        u = rng.random(n_windows)
        out[:, t] = np.minimum((u[:, None] > e_cum[states]).sum(axis=1), source.alphabet_size - 1)
    return out


def scalar_mix(seed, tag, m):
    """The derived seed ``bounds_lab._mix`` gives, from numpy's own
    ``SeedSequence`` of one key."""
    return int(np.random.SeedSequence([seed, tag, m]).generate_state(1)[0] % (2 ** 31))


def per_window_model_windows(model, n_windows, width, seed):
    """Model windows by one :func:`bisect_sample` call per window."""
    out = np.empty((n_windows, width), dtype=np.int64)
    for i in range(n_windows):
        out[i] = bisect_sample(model, width, seed=scalar_mix(seed, 34, i)).tokens
    return out
