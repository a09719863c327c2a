"""Command-line front end.

Every command resolves its settings as CLI flags > ``--config`` JSON file >
built-in defaults, writes the resolved settings next to its outputs as
``resolved_config.json``, and keeps wall-clock metadata in a separate
``run_meta.json`` so the primary artifacts are byte-identical across reruns.

Exit codes: 0 success; 2 bad arguments or bad values; 3 I/O failure;
4 data-contract violation (malformed inputs, unseen contexts, atom budgets);
5 numerical failure (non-convergence, an inapplicable bound, or a decay fit
with too few informative grid points).
"""
from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds_lab import (
    ApproxBoundInputs,
    approx_bound,
    divergence_transport_probe,
)
from .corpus import SCHEMES, tokenize
from .errors import DataContractError, MarkovDetectError
from .hypotest import class_statistic, exponent_fit, lrt_statistic, np_threshold
from .infometrics import ContinuityProfile, kl_rate
from .markov import MarkovModel, fit_empirical, log_likelihood
from .transport import dbar_exact
from .util import dump_json, fmt17, load_json

ENV_OUT = "MARKOVDETECT_OUT"


# -- plumbing ---------------------------------------------------------------


def _out_dir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve(args, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = load_json(args.config)
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise DataContractError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if cfg.get("out") is None:
        cfg["out"] = os.environ.get(ENV_OUT, "runs")
    return cfg


def _write_run_files(out: Path, command: str, cfg: dict) -> None:
    dump_json(out / "resolved_config.json", {"command": command, **cfg})
    meta = {
        "command": command,
        "argv": sys.argv[1:],
        "written_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    dump_json(out / "run_meta.json", meta)


def _read_text(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_weights(path) -> list[float]:
    data = load_json(path)
    if isinstance(data, dict):
        data = data.get("weights")
    if not isinstance(data, list):
        raise DataContractError(f"{path}: expected a JSON list or {{'weights': [...]}}")
    return [float(x) for x in data]


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


# -- commands ---------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _resolve(args, {
        "input": None, "scheme": "char", "order": 1, "smoothing": 0.0,
        "vocab_limit": None, "alphabet_from": None, "seed": 0, "out": None,
    })
    if cfg["input"] is None:
        raise DataContractError("train needs --input")
    out = _out_dir(cfg)
    text = _read_text(cfg["input"])
    shared = None
    if cfg["alphabet_from"] is not None:
        donor = MarkovModel.load(cfg["alphabet_from"])
        if donor.scheme != cfg["scheme"]:
            raise DataContractError(
                f"--alphabet-from model uses scheme {donor.scheme!r}, not {cfg['scheme']!r}"
            )
        shared = donor.alphabet
    seq, alphabet = tokenize(text, cfg["scheme"], alphabet=shared,
                             vocab_limit=cfg["vocab_limit"])
    try:
        model = fit_empirical(seq, cfg["order"], alphabet,
                              smoothing=cfg["smoothing"], scheme=cfg["scheme"])
    except ValueError as exc:
        raise DataContractError(str(exc)) from exc
    model.save(out / "model.json")
    summary = {
        "tokens": len(seq),
        "alphabet_size": alphabet.size,
        "order": cfg["order"],
        "scheme": cfg["scheme"],
        "distinct_contexts": len(model.codes),
        "smoothing": cfg["smoothing"],
    }
    dump_json(out / "train_summary.json", summary)
    _write_run_files(out, "train", cfg)
    print(f"trained order-{cfg['order']} model on {len(seq)} tokens "
          f"({alphabet.size} symbols, {len(model.codes)} contexts) -> {out / 'model.json'}")
    return 0


def cmd_score(args) -> int:
    cfg = _resolve(args, {"model": None, "text": None, "out": None})
    for need in ("model", "text"):
        if cfg[need] is None:
            raise DataContractError(f"score needs --{need}")
    out = _out_dir(cfg)
    model = MarkovModel.load(cfg["model"])
    seq, _ = tokenize(_read_text(cfg["text"]), model.scheme, alphabet=model.alphabet)
    ll = log_likelihood(model, seq)
    ce = -ll / len(seq)
    record = {
        "tokens": len(seq),
        "log_likelihood": ll,
        "cross_entropy_per_token": ce,
        "perplexity": math.exp(ce),
    }
    dump_json(out / "score.json", record)
    _write_run_files(out, "score", cfg)
    print(f"{len(seq)} tokens  cross-entropy {ce:.6f} nats/token  "
          f"perplexity {math.exp(ce):.6f}")
    return 0


def cmd_detect(args) -> int:
    cfg = _resolve(args, {
        "model_p": None, "model_q": None, "text": None,
        "epsilon": 0.1, "trials": 10_000, "seed": 0, "method": "auto", "out": None,
    })
    for need in ("model_p", "model_q", "text"):
        if cfg[need] is None:
            raise DataContractError(f"detect needs --{need.replace('_', '-')}")
    out = _out_dir(cfg)
    p_model = MarkovModel.load(cfg["model_p"])
    q_model = MarkovModel.load(cfg["model_q"])
    if p_model.alphabet.symbols != q_model.alphabet.symbols:
        raise DataContractError("the two models must share an alphabet")
    seq, _ = tokenize(_read_text(cfg["text"]), p_model.scheme, alphabet=p_model.alphabet)
    n = len(seq)
    flags = []
    try:
        stat = lrt_statistic(p_model, q_model, seq)
    except ValueError as exc:
        raise DataContractError(str(exc)) from exc
    threshold = np_threshold(p_model, q_model, n, cfg["epsilon"],
                             trials=cfg["trials"], seed=cfg["seed"],
                             method=cfg["method"])
    if math.isinf(stat):
        flags.append("support_violation_" + ("alternative" if stat > 0 else "null"))
    # an exact threshold is a class statistic: compare the text's class with it
    # so that a tie, decided toward the null, is not lost to rounding
    ranked = class_statistic(p_model, q_model, seq, cfg["method"])
    verdict = "authentic" if (stat if ranked is None else ranked) >= threshold else "generated"
    record = {
        "tokens": n,
        "epsilon": cfg["epsilon"],
        "statistic": stat,
        "threshold": threshold,
        "verdict": verdict,
        "forced": bool(flags),
        "flags": flags,
        "kl_rate_null_to_alt": kl_rate(p_model, q_model),
        "kl_rate_alt_to_null": kl_rate(q_model, p_model),
    }
    dump_json(out / "detect.json", record)
    _write_run_files(out, "detect", cfg)
    print(f"verdict: {verdict}  statistic {stat:.6f}  threshold {threshold:.6f}  "
          f"(n={n}, epsilon={cfg['epsilon']})")
    return 0


def cmd_exponent(args) -> int:
    cfg = _resolve(args, {
        "model_p": None, "model_q": None, "epsilon": 0.1,
        "n_grid": [50, 100, 200, 400], "trials": 10_000, "seed": 0,
        "method": "auto", "gnuplot": False, "out": None,
    })
    for need in ("model_p", "model_q"):
        if cfg[need] is None:
            raise DataContractError(f"exponent needs --{need.replace('_', '-')}")
    out = _out_dir(cfg)
    p_model = MarkovModel.load(cfg["model_p"])
    q_model = MarkovModel.load(cfg["model_q"])
    fit = exponent_fit(p_model, q_model, cfg["epsilon"], cfg["n_grid"],
                       trials=cfg["trials"], seed=cfg["seed"], method=cfg["method"])
    dump_json(out / "exponent.json", fit.to_json())
    csv_lines = ["n,threshold,neg_log_beta"]
    dat_lines = []
    for n, thr, y in zip(fit.n_grid, fit.thresholds, fit.neg_log_beta):
        csv_lines.append(f"{n},{fmt17(thr)},{fmt17(y)}")
        dat_lines.append(f"{n} {fmt17(y)}")
    (out / "exponent.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    (out / "exponent.dat").write_text("\n".join(dat_lines) + "\n", encoding="utf-8")
    if cfg["gnuplot"]:
        gp = (
            "set xlabel 'n'\n"
            "set ylabel '-ln(miss probability)'\n"
            f"fitted(x) = {fmt17(fit.slope)} * x\n"
            "plot 'exponent.dat' using 1:2 with points title 'measured', "
            "fitted(x) with lines title 'fitted slope'\n"
        )
        (out / "exponent.gp").write_text(gp, encoding="utf-8")
    _write_run_files(out, "exponent", cfg)
    rel = abs(fit.slope - fit.theory) / fit.theory if fit.theory else math.nan
    print(f"fitted exponent {fit.slope:.6f} nats/token  theory {fit.theory:.6f}  "
          f"relative gap {rel:.2%}  ({fit.method}, epsilon={cfg['epsilon']})")
    return 0


def cmd_dbar(args) -> int:
    cfg = _resolve(args, {
        "mu": None, "nu": None, "window": 1, "alphabet_size": None, "out": None,
    })
    for need in ("mu", "nu"):
        if cfg[need] is None:
            raise DataContractError(f"dbar needs --{need}")
    out = _out_dir(cfg)
    mu = _load_weights(cfg["mu"])
    nu = _load_weights(cfg["nu"])
    coupling = dbar_exact(mu, nu, cfg["window"], alphabet_size=cfg["alphabet_size"])
    dump_json(out / "dbar.json", coupling.to_json())
    coupling.entries_to_csv(out / "coupling.csv")
    _write_run_files(out, "dbar", cfg)
    print(f"per-letter transport distance {coupling.value:.9f} over window {cfg['window']}")
    return 0


def cmd_ct_bound(args) -> int:
    cfg = _resolve(args, {
        "gamma": None, "floor": None, "alphabet_size": 2,
        "train_len": None, "rate_exponent": None, "tail_exponent": None, "out": None,
    })
    for need in ("gamma", "floor", "train_len", "rate_exponent", "tail_exponent"):
        if cfg[need] is None:
            raise DataContractError(f"ct-bound needs --{need.replace('_', '-')}")
    out = _out_dir(cfg)
    profile = ContinuityProfile(rates=tuple(cfg["gamma"]), floor=cfg["floor"],
                                alphabet_size=cfg["alphabet_size"])
    inputs = ApproxBoundInputs(cfg["train_len"], cfg["rate_exponent"],
                               cfg["tail_exponent"], profile)
    bound = approx_bound(inputs)
    record = {
        "bound": bound,
        "order": inputs.order,
        "train_len": cfg["train_len"],
        "rate_exponent": cfg["rate_exponent"],
        "tail_exponent": cfg["tail_exponent"],
        "profile": profile.to_json(),
    }
    dump_json(out / "ct_bound.json", record)
    _write_run_files(out, "ct-bound", cfg)
    print(f"approximation bound {bound:.9f} at resolved order {inputs.order}")
    return 0


def cmd_probe(args) -> int:
    cfg = _resolve(args, {
        "alphabet_size": 2, "window": 1, "instances": 1000,
        "sampler": "dirichlet-uniform", "seed": 0, "out": None,
    })
    out = _out_dir(cfg)
    report = divergence_transport_probe(
        cfg["alphabet_size"], cfg["window"], cfg["instances"],
        sampler=cfg["sampler"], seed=cfg["seed"],
    )
    dump_json(out / "probe.json", report.to_json())
    (out / "probe_scatter.csv").write_text(report.scatter_csv(), encoding="utf-8")
    _write_run_files(out, "probe", cfg)
    print(f"probed {report.instance_count} pairs: sup ratio {report.sup_ratio:.6f}, "
          f"{report.excluded} excluded, {report.violations} gate violations")
    return 0


_REPORT_READERS = {
    "train_summary.json": lambda d: (
        f"model: order {d['order']}, {d['alphabet_size']} symbols, "
        f"{d['distinct_contexts']} contexts from {d['tokens']} tokens"),
    "score.json": lambda d: (
        f"score: {d['cross_entropy_per_token']:.6f} nats/token, "
        f"perplexity {d['perplexity']:.6f} on {d['tokens']} tokens"),
    "detect.json": lambda d: (
        f"detect: {d['verdict']} (statistic {d['statistic']:.6f} vs "
        f"threshold {d['threshold']:.6f})"),
    "exponent.json": lambda d: (
        f"exponent: fitted {d['slope']:.6f} vs theory {d['theory']:.6f} "
        f"over n={d['n_grid']}"),
    "dbar.json": lambda d: (
        f"transport: {d['value']} ({d.get('engine', 'unrecorded')} engine)"),
    "ct_bound.json": lambda d: f"bound: {d['bound']} at order {d['order']}",
    "probe.json": lambda d: (
        f"probe: sup ratio {d['sup_ratio']:.6f} over {d['instance_count']} "
        f"instances ({d['sampler']}, {d.get('engine', 'unrecorded')} engine)"),
}


def cmd_report(args) -> int:
    cfg = _resolve(args, {"run_dir": None, "out": None})
    if cfg["run_dir"] is None:
        raise DataContractError("report needs --run-dir")
    run_dir = Path(cfg["run_dir"])
    if not run_dir.is_dir():
        raise DataContractError(f"{run_dir} is not a directory")
    out = _out_dir(cfg)
    lines = [f"report for {run_dir.name}"]
    for name in sorted(_REPORT_READERS):
        path = run_dir / name
        if path.exists():
            lines.append(_REPORT_READERS[name](load_json(path)))
    if len(lines) == 1:
        lines.append("no recognized artifacts found")
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    _write_run_files(out, "report", cfg)
    print(text, end="")
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovdetect",
        description="Fit Markov text models and measure how fast statistical "
                    "tests can tell two of them apart.",
        epilog="Exit codes: 2 bad arguments, 3 I/O, 4 data contract, "
               "5 numerical failure (non-convergence, inapplicable bound, "
               "too few informative grid points).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file of settings (flags win)")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./runs)")
        return p

    p = add("train", cmd_train, "fit an empirical Markov model on a text file")
    p.add_argument("--input", help="path to training text")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--order", type=int)
    p.add_argument("--smoothing", type=float)
    p.add_argument("--vocab-limit", type=int, dest="vocab_limit")
    p.add_argument("--alphabet-from", dest="alphabet_from",
                   help="reuse the alphabet of an existing model file")

    p = add("score", cmd_score, "cross-entropy and perplexity of a model on text")
    p.add_argument("--model", help="model.json from train")
    p.add_argument("--text", help="text file to score")

    p = add("detect", cmd_detect, "decide whether text matches the null model")
    p.add_argument("--model-p", dest="model_p", help="null (authentic-text) model")
    p.add_argument("--model-q", dest="model_q", help="alternative (generator) model")
    p.add_argument("--text", help="text file to classify")
    p.add_argument("--epsilon", type=float, help="false-alarm budget")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--method", choices=["auto", "mc", "exact"])

    p = add("exponent", cmd_exponent, "measure the miss-probability decay rate")
    p.add_argument("--model-p", dest="model_p")
    p.add_argument("--model-q", dest="model_q")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--n-grid", type=_int_list, dest="n_grid",
                   help="comma-separated sequence lengths")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--method", choices=["auto", "mc", "exact"])
    p.add_argument("--gnuplot", action="store_const", const=True,
                   help="also write a gnuplot script")

    p = add("dbar", cmd_dbar, "exact per-letter transport distance")
    p.add_argument("--mu", help="JSON weights of the first law")
    p.add_argument("--nu", help="JSON weights of the second law")
    p.add_argument("--window", type=int, help="sequence length the laws live on")
    p.add_argument("--alphabet-size", type=int, dest="alphabet_size")

    p = add("ct-bound", cmd_ct_bound, "evaluate the model-fitting transport bound")
    p.add_argument("--gamma", type=_float_list, help="continuity rates, outermost first")
    p.add_argument("--floor", type=float, help="uniform lower bound on conditionals")
    p.add_argument("--alphabet-size", type=int, dest="alphabet_size")
    p.add_argument("--train-len", type=int, dest="train_len")
    p.add_argument("--rate-exponent", type=float, dest="rate_exponent")
    p.add_argument("--tail-exponent", type=float, dest="tail_exponent")

    p = add("probe", cmd_probe, "sample law pairs and chart divergence vs transport")
    p.add_argument("--alphabet-size", type=int, dest="alphabet_size")
    p.add_argument("--window", type=int)
    p.add_argument("--instances", type=int)
    p.add_argument("--sampler", choices=["dirichlet-uniform", "boundary-biased"])
    p.add_argument("--seed", type=int)

    p = add("report", cmd_report, "summarize the artifacts in a run directory")
    p.add_argument("--run-dir", dest="run_dir")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MarkovDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"bad value: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
