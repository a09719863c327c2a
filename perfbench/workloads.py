"""The four benchmark workloads.

Each workload writes its inputs once (:meth:`prepare`), then the runner calls
:meth:`run_pass` in a closed loop: one client, each operation starting when
the previous one returns.  A pass is the workload's whole command sequence.
Outputs are checked by :meth:`check` after the timed section.  CLI commands go
in-process through ``markovdetect.cli.main(argv)``; experiments call
``markovdetect.bounds_lab`` directly.  Module attributes are looked up at call
time so the tracer's wrappers are seen.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

# Sizes: "full" is the benchmark, "toy" is for the smoke test.
SIZES = {
    "text-detect": {
        "full": {"chars": 60_000, "docs": 4},
        "toy": {"chars": 20_000, "docs": 2},
    },
    "exponent-exact": {
        "full": {"chain_grid": "128,256,512", "iid_grid": "50,100,150,200"},
        "toy": {"chain_grid": "16,32,64", "iid_grid": "10,20,30"},
    },
    "transport-bootstrap": {
        "full": {"pairs": 8, "window": 6, "m_grid": [1_000], "bootstrap": 5, "exp_window": 6,
                 "n_windows": 1000},
        "toy": {"pairs": 1, "window": 4, "m_grid": [1_000, 10_000], "bootstrap": 4,
                "exp_window": 4, "n_windows": 200},
    },
    "probe-small": {
        "full": {"instances": 400},
        "toy": {"instances": 100},
    },
}

# Outputs pinned at the commit that introduced the benchmark.  They depend on
# fixed inputs only, never on the workload seed.
PINS = {
    ("exponent-exact", "full"): {"chain": 0.057308054597988656, "iid": 0.029217630046281355},
    ("exponent-exact", "toy"): {"chain": 0.06710288434521273, "iid": 0.04296927817164857},
    # (estimate, ci_low, ci_high) per training size of the bootstrap experiment
    ("transport-bootstrap", "full"): {"experiment": [
        [0.03733333333333334, 0.03615, 0.046916666666666676]]},
    ("transport-bootstrap", "toy"): {"experiment": [
        [0.046250000000000006, 0.046250000000000006, 0.0773125],
        [0.04250000000000001, 0.04250000000000001, 0.07925000000000001]]},
    ("probe-small", "full"): {
        "w2_dirichlet-uniform": {"sup_ratio": 77.86181751217435, "excluded": 0, "violations": 0},
        "w2_boundary-biased": {"sup_ratio": 943715.7336437621, "excluded": 0, "violations": 0},
        "w3_dirichlet-uniform": {"sup_ratio": 64.62058853457701, "excluded": 0, "violations": 0},
        "w3_boundary-biased": {"sup_ratio": 2096.9177163042855, "excluded": 0, "violations": 0},
    },
    ("probe-small", "toy"): {
        "w2_dirichlet-uniform": {"sup_ratio": 27.5095009583842, "excluded": 0, "violations": 0},
        "w2_boundary-biased": {"sup_ratio": 37719.08136690645, "excluded": 0, "violations": 0},
        "w3_dirichlet-uniform": {"sup_ratio": 56.456392147361136, "excluded": 0, "violations": 0},
        "w3_boundary-biased": {"sup_ratio": 1762.418418086017, "excluded": 0, "violations": 0},
    },
}


@dataclass
class Op:
    """One timed operation: a CLI command or a library call."""

    stage: str
    start: float
    end: float
    out: Path | None = None
    result: object = None
    error: str | None = None
    info: dict = field(default_factory=dict)
    seconds: float = math.nan  # at reference host speed, set by the runner


def _call(stage: str, func, *args, out: Path | None = None, **info) -> Op:
    """Run one operation with its console output captured; time it."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = func(*args)
    except Exception as exc:  # an operation that raises counts as failed
        return Op(stage, start, time.perf_counter(), out, None,
                  f"{type(exc).__name__}: {exc}", info)
    end = time.perf_counter()
    error = None
    if isinstance(result, int) and result != 0:
        error = f"exit code {result}: {sink.getvalue().strip()[-300:]}"
    return Op(stage, start, end, out, result, error, info)


def _cli(stage: str, out: Path, argv: list[str], **info) -> Op:
    from markovdetect import cli
    return _call(stage, lambda: cli.main(argv + ["--out", str(out)]), out=out, **info)


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _rel_close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * max(abs(expected), 1e-300)


def _median(values) -> float:
    return float(statistics.median(values))


class Workload:
    """Inputs, one pass and output checks; see README.md for why each exists."""

    name = ""

    def __init__(self, size: str, seed: int, workdir: Path):
        self.params = SIZES[self.name][size]
        self.pins = PINS.get((self.name, size), {})
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.inputs.mkdir(parents=True)

    def prepare(self) -> None:
        """Write inputs and compute oracles; not timed."""

    def run_pass(self, pass_dir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> str | None:
        """Return why ``op``'s output is wrong, or None when it is right."""
        raise NotImplementedError

    def stage_metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


# -- text-detect --------------------------------------------------------------


class TextDetect(Workload):
    """Counting, fitting, scoring and the Monte Carlo walk; no transport."""

    name = "text-detect"
    order = 2
    smoothing = 0.01

    def prepare(self) -> None:
        chars, n_docs = self.params["chars"], self.params["docs"]
        self.rows = {src: inputs.order2_rows(self.seed, key) for key, src in enumerate("pq")}
        self.texts = {src: inputs.order2_text(self.rows[src], chars, self.seed, key)
                      for key, src in enumerate("pq")}
        for src, text in self.texts.items():
            (self.inputs / f"{src}.txt").write_text(text, encoding="utf-8")
        lengths = np.linspace(100, 400, n_docs).astype(int).tolist()
        self.docs = []
        for i, length in enumerate(lengths):
            src = "pq"[i % 2]
            text = inputs.order2_text(self.rows[src], length, self.seed, 100 + i)
            path = self.inputs / f"doc{i}.txt"
            path.write_text(text, encoding="utf-8")
            self.docs.append((path, text))
        if any(set(text) != set(inputs.TEXT_SYMBOLS) for text in self.texts.values()):
            raise RuntimeError("a training text misses a symbol; the oracle assumes all 17")
        oracle = {src: _trigram_oracle(text, self.smoothing) for src, text in self.texts.items()}
        self.oracle = oracle
        self.score_ll = oracle["p"].log_likelihood(self.texts["q"])
        self.doc_stats = [(oracle["p"].log_likelihood(text) - oracle["q"].log_likelihood(text))
                          / len(text) for _, text in self.docs]

    def run_pass(self, pass_dir: Path) -> list[Op]:
        model = {src: pass_dir / f"train_{src}" / "model.json" for src in "pq"}
        common = ["--order", str(self.order), "--smoothing", str(self.smoothing)]
        ops = [
            _cli("train", pass_dir / "train_p",
                 ["train", "--input", str(self.inputs / "p.txt")] + common, src="p"),
            _cli("train", pass_dir / "train_q",
                 ["train", "--input", str(self.inputs / "q.txt"), "--alphabet-from",
                  str(model["p"])] + common, src="q"),
            _cli("score", pass_dir / "score",
                 ["score", "--model", str(model["p"]), "--text", str(self.inputs / "q.txt")]),
        ]
        for i, (path, _) in enumerate(self.docs):
            ops.append(_cli("detect", pass_dir / f"detect{i}",
                            ["detect", "--model-p", str(model["p"]), "--model-q", str(model["q"]),
                             "--text", str(path)], doc=i))
        return ops

    def check(self, op: Op) -> str | None:
        if op.stage == "train":
            return _check_rows(_read(op.out / "model.json"), self.oracle[op.info["src"]])
        if op.stage == "score":
            got = _read(op.out / "score.json")["log_likelihood"]
            want = self.score_ll
            if not _rel_close(got, want, 1e-9):
                return f"log-likelihood {got!r} != oracle {want!r}"
            return None
        record = _read(op.out / "detect.json")
        want = self.doc_stats[op.info["doc"]]
        if not _rel_close(record["statistic"], want, 1e-9):
            return f"statistic {record['statistic']!r} != oracle {want!r}"
        verdict = "authentic" if record["statistic"] >= record["threshold"] else "generated"
        if record["verdict"] != verdict or not math.isfinite(record["threshold"]):
            return f"verdict {record['verdict']!r} inconsistent with statistic and threshold"
        return None

    def stage_metrics(self, passes):
        chars = self.params["chars"]
        return {
            "train_s": (_median(sum(o.seconds for o in ops if o.stage == "train")
                                for ops in passes), "s"),
            "score_tokens_per_s": (_median(chars / o.seconds for ops in passes
                                           for o in ops if o.stage == "score"), "tok/s"),
            "detect_p50_s": (_median(o.seconds for ops in passes
                                     for o in ops if o.stage == "detect"), "s"),
        }


class _TrigramOracle:
    """Order-2 fit by numpy trigram counts, keyed by symbol strings."""

    def __init__(self, rows: dict[str, dict[str, float]], init: dict[str, float]):
        self.rows = rows
        self.init = init

    def log_likelihood(self, text: str) -> float:
        terms = [math.log(self.init[text[:2]])]
        terms += [math.log(self.rows[text[i - 2:i]][text[i]]) for i in range(2, len(text))]
        return math.fsum(terms)


def _trigram_oracle(text: str, smoothing: float) -> _TrigramOracle:
    symbols = inputs.TEXT_SYMBOLS
    a = len(symbols)
    lookup = np.zeros(256, dtype=np.int64)
    lookup[np.frombuffer(symbols.encode("ascii"), dtype=np.uint8)] = np.arange(a)
    codes = lookup[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    tri = codes[:-2] * a * a + codes[1:-1] * a + codes[2:]
    counts = np.bincount(tri, minlength=a ** 3).reshape(a * a, a).astype(float)
    denom = counts.sum(axis=1)
    rows, init = {}, {}
    for ctx in np.flatnonzero(denom):
        key = symbols[ctx // a] + symbols[ctx % a]
        row = (counts[ctx] + smoothing) / (denom[ctx] + smoothing * a)
        rows[key] = {symbols[s]: float(row[s]) for s in range(a)}
        init[key] = float(denom[ctx] / (len(codes) - 2))
    return _TrigramOracle(rows, init)


def _check_rows(model: dict, oracle: _TrigramOracle) -> str | None:
    symbols = model["alphabet"]["symbols"]
    if len(model["transitions"]) != len(oracle.rows):
        return f"{len(model['transitions'])} fitted rows, oracle has {len(oracle.rows)}"
    for ctx, row in model["transitions"]:
        want = oracle.rows.get("".join(symbols[c] for c in ctx))
        if want is None:
            return f"fitted context {ctx} absent from the oracle"
        worst = max(abs(float(p) - want[symbols[s]]) for s, p in enumerate(row))
        if worst > 1e-12:
            return f"row {ctx} differs from the trigram oracle by {worst:.3g}"
    return None


# -- exponent-exact ---------------------------------------------------------


class ExponentExact(Workload):
    """The exact-table engines (binary-chain and i.i.d. lattices) and their memory."""

    name = "exponent-exact"
    pairs = {
        "chain": ([[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.5, 0.5]]),
        "iid": ([0.5, 0.3, 0.2], [0.4, 0.4, 0.2]),
    }

    def prepare(self) -> None:
        from markovdetect.markov import chain_model, iid_model
        for label, (p, q) in self.pairs.items():
            make = chain_model if label == "chain" else iid_model
            make(p).save(self.inputs / f"{label}_p.json")
            make(q).save(self.inputs / f"{label}_q.json")

    def run_pass(self, pass_dir: Path) -> list[Op]:
        return [
            _cli(f"exponent_{label}", pass_dir / label,
                 ["exponent", "--model-p", str(self.inputs / f"{label}_p.json"),
                  "--model-q", str(self.inputs / f"{label}_q.json"),
                  "--method", "exact", "--epsilon", "0.5",
                  "--n-grid", self.params[f"{label}_grid"]], pair=label)
            for label in self.pairs
        ]

    def check(self, op: Op) -> str | None:
        fit = _read(op.out / "exponent.json")
        if fit["method"] != "exact":
            return f"method {fit['method']!r}, expected 'exact'"
        want = self.pins[op.info["pair"]]
        if not _rel_close(fit["slope"], want, 1e-9):
            return f"slope {fit['slope']!r} != pinned {want!r}"
        return None

    def stage_metrics(self, passes):
        return {f"{stage}_s": (_median(o.seconds for ops in passes
                                       for o in ops if o.stage == stage), "s")
                for stage in ("exponent_chain", "exponent_iid")}


# -- transport-bootstrap ----------------------------------------------------


class TransportBootstrap(Workload):
    """Large exact transport solves and bootstrap re-solves."""

    name = "transport-bootstrap"

    def prepare(self) -> None:
        m = self.params["window"]
        self.oracle = []
        for k in range(self.params["pairs"]):
            mu, nu = inputs.dirichlet_pair(self.seed, k, 2 ** m)
            (self.inputs / f"mu{k}.json").write_text(json.dumps(mu), encoding="utf-8")
            (self.inputs / f"nu{k}.json").write_text(json.dumps(nu), encoding="utf-8")
            self.oracle.append(_linprog_dbar(mu, nu, m))

    def run_pass(self, pass_dir: Path) -> list[Op]:
        from markovdetect import bounds_lab
        from markovdetect.markov import HiddenMarkovSource
        ops = [
            _cli("dbar", pass_dir / f"dbar{k}",
                 ["dbar", "--mu", str(self.inputs / f"mu{k}.json"),
                  "--nu", str(self.inputs / f"nu{k}.json"),
                  "--window", str(self.params["window"]), "--alphabet-size", "2"], pair=k)
            for k in range(self.params["pairs"])
        ]
        # the hidden-Markov source of acceptance criterion C8
        source = HiddenMarkovSource.with_stationary_start(
            transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
            emission=np.array([[0.8, 0.2], [0.3, 0.7]]),
        )
        ops.append(_call(
            "bootstrap", bounds_lab.approx_experiment, source, self.params["m_grid"],
            2.0 / math.log(100_000), 0.25, self.params["exp_window"],
            self.params["n_windows"], self.params["bootstrap"], 0))
        return ops

    def check(self, op: Op) -> str | None:
        if op.stage == "dbar":
            record = _read(op.out / "dbar.json")
            value, dual = float(record["value"]), float(record["dual_value"])
            want = self.oracle[op.info["pair"]]
            if abs(value - want) > 1e-9:
                return f"dbar {value!r} != linprog oracle {want!r}"
            if abs(dual - value) > 1e-9:
                return f"dual value {dual!r} != primal value {value!r}"
            return None
        got = [[r.dbar_estimate, r.ci_low, r.ci_high] for r in op.result.rows]
        want = self.pins["experiment"]
        if len(got) != len(want) or not all(
                _rel_close(g, w, 1e-9) for gs, ws in zip(got, want) for g, w in zip(gs, ws)):
            return f"experiment estimates {got} != pinned {want}"
        return None

    def stage_metrics(self, passes):
        return {
            "dbar_s": (_median(o.seconds for ops in passes for o in ops if o.stage == "dbar"), "s"),
            "bootstrap_s": (_median(o.seconds for ops in passes
                                    for o in ops if o.stage == "bootstrap"), "s"),
        }


def _linprog_dbar(mu: list[float], nu: list[float], m: int) -> float:
    """Mean-Hamming transport cost over binary length-m atoms, by HiGHS."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix
    n = len(mu)
    idx = np.arange(n)
    digits = (idx[:, None] >> np.arange(m)[None, :]) & 1
    cost = (digits[:, None, :] != digits[None, :, :]).sum(axis=2) / m
    var = np.arange(n * n)
    rows = np.concatenate([var // n, n + var % n])
    a_eq = coo_matrix((np.ones(2 * n * n), (rows, np.concatenate([var, var]))),
                      shape=(2 * n, n * n)).tocsr()
    res = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


# -- probe-small --------------------------------------------------------------


class ProbeSmall(Workload):
    """Many tiny exact solves, where per-call overhead dominates."""

    name = "probe-small"
    configs = [(w, s) for w in (2, 3) for s in ("dirichlet-uniform", "boundary-biased")]

    def run_pass(self, pass_dir: Path) -> list[Op]:
        return [
            _cli("probe", pass_dir / f"probe_w{w}_{sampler}",
                 ["probe", "--alphabet-size", "2", "--window", str(w),
                  "--instances", str(self.params["instances"]), "--sampler", sampler,
                  "--seed", "0"], config=f"w{w}_{sampler}")
            for w, sampler in self.configs
        ]

    def check(self, op: Op) -> str | None:
        report = _read(op.out / "probe.json")
        want = self.pins[op.info["config"]]
        if report["violations"] != 0:
            return f"{report['violations']} forward-Pinsker violations"
        if (report["excluded"], report["violations"]) != (want["excluded"], want["violations"]) \
                or not _rel_close(report["sup_ratio"], want["sup_ratio"], 1e-9):
            return (f"probe summary {report['sup_ratio']!r}/{report['excluded']}/"
                    f"{report['violations']} != pinned {want}")
        return None

    def stage_metrics(self, passes):
        instances = self.params["instances"] * len(self.configs)
        return {"probe_instances_per_s": (
            _median(instances / sum(o.seconds for o in ops) for ops in passes), "1/s")}


WORKLOADS = {w.name: w for w in (TextDetect, ExponentExact, TransportBootstrap, ProbeSmall)}
