"""Command-line front end.

Each command declares its settings once, in the ``@_command`` table on its
function; the parser, the defaults, the required checks and the check of
``--config`` values are built from it.  Settings resolve as CLI flags >
``--config`` JSON file > built-in defaults.  A config value must have its
flag's JSON type (a string, an integer, a number, a list of them for a
comma-separated flag, true/false for ``--gnuplot``); a config file that is
not a JSON object, an unknown key or a value of the wrong type exits 4 before
any output is written.  ``main`` writes the resolved settings next to the
outputs as ``resolved_config.json`` and wall-clock metadata in a separate
``run_meta.json``, so the primary artifacts are byte-identical across reruns.

Exit codes: 0 success; 2 bad arguments or bad values (``--method exact``
where no exact table applies included); 3 I/O failure; 4 data-contract
violation (malformed inputs, files that are not UTF-8 included, a model with
no tokenizer scheme given text to score, an empty text, unseen contexts, atom
budgets, two models over different alphabets); 5 numerical failure
(non-convergence, an inapplicable bound, or a decay fit with too few
informative grid points).
"""
from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bounds_lab import (
    SAMPLERS,
    ApproxBoundInputs,
    approx_bound,
    divergence_transport_probe,
)
from .corpus import SCHEMES, tokenize
from .errors import DataContractError, MarkovDetectError
from .hypotest import METHODS, class_statistic, exponent_fit, lrt_statistic, np_threshold
from .infometrics import ContinuityProfile, kl_rate
from .markov import MarkovModel, fit_empirical, log_likelihood
from .transport import dbar_exact
from .util import dump_json, fmt17, load_json, read_text

ENV_OUT = "MARKOVDETECT_OUT"


# -- settings ---------------------------------------------------------------


@dataclass(frozen=True)
class Setting:
    """One setting of a command: its flag's type, default, choices and help.

    ``type`` is ``str``, ``int``, ``float``, ``bool`` (a flag without a value)
    or ``list[int]``/``list[float]`` (a comma-separated flag).  A config value
    must have the matching JSON type; a float setting also takes an integer.
    """

    type: type = str
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str | None = None


_COMMANDS: dict[str, tuple] = {}  # name -> (cmd(cfg, out), help, settings)
_JSON_TYPES = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}


def _command(name: str, helptext: str, **settings: Setting):
    """Register the decorated ``cmd(cfg, out)`` as ``name`` with its settings."""
    def register(func):
        out = Setting(help=f"output directory (default ${ENV_OUT} or ./runs)")
        _COMMANDS[name] = (func, helptext, {**settings, "out": out})
        return func
    return register


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _item_type(setting: Setting) -> type:
    """The type of one value: a list setting's element type."""
    return getattr(setting.type, "__args__", (setting.type,))[0]


def _comma_list(item: type):
    def parse(text: str) -> list:
        try:
            return [item(x) for x in text.split(",") if x.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {item.__name__} list: {text!r}") from exc
    return parse


def _config_value(key: str, setting: Setting, value):
    """A config file's ``value`` for ``key``, held to its flag's type and choices."""
    if value is None and setting.default is None:
        return None
    item = _item_type(setting)
    fits = lambda v: type(v) is item or (item is float and type(v) is int)
    if setting.type is not item:
        if isinstance(value, list) and all(map(fits, value)):
            return [item(v) for v in value]
        want = f"a list, each {_JSON_TYPES[item]}"
    elif fits(value) and (setting.choices is None or value in setting.choices):
        return item(value)
    else:
        want = f"one of {', '.join(setting.choices)}" if setting.choices else _JSON_TYPES[item]
    raise DataContractError(f"config key {key!r} must be {want}, not {json.dumps(value)}")


def _resolve(command: str, args, settings: dict) -> dict:
    cfg = {key: setting.default for key, setting in settings.items()}
    if args.config:
        file_cfg = load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise DataContractError(f"{args.config}: a config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(settings))
        if unknown:
            raise DataContractError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in file_cfg.items():
            cfg[key] = _config_value(key, settings[key], value)
    cfg.update({k: v for k, v in vars(args).items() if k in settings and v is not None})
    if cfg["out"] is None:
        cfg["out"] = os.environ.get(ENV_OUT, "runs")
    for key, setting in settings.items():
        if setting.required and cfg[key] is None:
            raise DataContractError(f"{command} needs {_flag(key)}")
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


def _text_model(path) -> MarkovModel:
    """The model at ``path``, refused unless it carries a tokenizer scheme."""
    model = MarkovModel.load(path)
    if model.scheme not in SCHEMES:
        raise DataContractError(
            f"{path}: model has scheme {model.scheme!r}, so it was not trained from text "
            f"and cannot tokenize one; train it with one of {SCHEMES}")
    return model


def _text_tokens(path, model: MarkovModel):
    """The text at ``path`` coded under ``model``'s scheme and alphabet; an
    empty file, or one of only whitespace under the word scheme, raises
    :class:`DataContractError` naming it."""
    text = read_text(path)
    if not text:
        raise DataContractError(f"{path}: the text is empty, so there is nothing to score")
    if model.scheme == "word" and not text.split():
        raise DataContractError(f"{path}: the text has no words, so there is nothing to score")
    return tokenize(text, model.scheme, alphabet=model.alphabet)[0]


def _load_weights(path) -> list[float]:
    data = load_json(path)
    if isinstance(data, dict):
        data = data.get("weights")
    if not isinstance(data, list) or not all(isinstance(x, (int, float, str)) for x in data):
        raise DataContractError(f"{path}: expected a JSON list of numbers or {{'weights': [...]}}")
    return [float(x) for x in data]


# -- commands ---------------------------------------------------------------


@_command("train", "fit an empirical Markov model on a text file",
          input=Setting(required=True, help="path to training text"),
          scheme=Setting(str, "char", choices=SCHEMES),
          order=Setting(int, 1),
          smoothing=Setting(float, 0.0),
          vocab_limit=Setting(int),
          alphabet_from=Setting(help="reuse the alphabet of an existing model file"))
def cmd_train(cfg, out) -> None:
    text = read_text(cfg["input"])
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
    print(f"trained order-{cfg['order']} model on {len(seq)} tokens "
          f"({alphabet.size} symbols, {len(model.codes)} contexts) -> {out / 'model.json'}")


@_command("score", "cross-entropy and perplexity of a model on text",
          model=Setting(required=True, help="model.json from train"),
          text=Setting(required=True, help="text file to score"))
def cmd_score(cfg, out) -> None:
    model = _text_model(cfg["model"])
    seq = _text_tokens(cfg["text"], model)
    ll = log_likelihood(model, seq)
    ce = -ll / len(seq)
    record = {
        "tokens": len(seq),
        "log_likelihood": ll,
        "cross_entropy_per_token": ce,
        "perplexity": math.exp(ce),
    }
    dump_json(out / "score.json", record)
    print(f"{len(seq)} tokens  cross-entropy {ce:.6f} nats/token  "
          f"perplexity {math.exp(ce):.6f}")


# the Neyman-Pearson test's settings, shared by detect and exponent
_NP_TEST = {
    "model_p": Setting(required=True, help="null (authentic-text) model"),
    "model_q": Setting(required=True, help="alternative (generator) model"),
    "epsilon": Setting(float, 0.1, help="false-alarm budget"),
    "trials": Setting(int, 10_000, help="Monte Carlo calibration trials, at least 1000"),
    "seed": Setting(int, 0),
    "method": Setting(str, "auto", choices=METHODS),
}


@_command("detect", "decide whether text matches the null model",
          **_NP_TEST, text=Setting(required=True, help="text file to classify"))
def cmd_detect(cfg, out) -> None:
    p_model = _text_model(cfg["model_p"])
    q_model = MarkovModel.load(cfg["model_q"])
    seq = _text_tokens(cfg["text"], p_model)
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
    print(f"verdict: {verdict}  statistic {stat:.6f}  threshold {threshold:.6f}  "
          f"(n={n}, epsilon={cfg['epsilon']})")


@_command("exponent", "measure the miss-probability decay rate", **_NP_TEST,
          n_grid=Setting(list[int], [50, 100, 200, 400], help="comma-separated sequence lengths"),
          gnuplot=Setting(bool, False, help="also write a gnuplot script"))
def cmd_exponent(cfg, out) -> None:
    p_model = MarkovModel.load(cfg["model_p"])
    q_model = MarkovModel.load(cfg["model_q"])
    fit = exponent_fit(p_model, q_model, cfg["epsilon"], cfg["n_grid"],
                       trials=cfg["trials"], seed=cfg["seed"], method=cfg["method"])
    dump_json(out / "exponent.json", fit.to_json())
    csv_lines = ["n,threshold,neg_log_beta"]
    dat_lines = []
    # thresholds follow the sorted input grid, n_grid the informative points only
    threshold = dict(zip(sorted(cfg["n_grid"]), fit.thresholds))
    for n, y in zip(fit.n_grid, fit.neg_log_beta):
        csv_lines.append(f"{n},{fmt17(threshold[n])},{fmt17(y)}")
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
    rel = abs(fit.slope - fit.theory) / fit.theory if fit.theory else math.nan
    print(f"fitted exponent {fit.slope:.6f} nats/token  theory {fit.theory:.6f}  "
          f"relative gap {rel:.2%}  ({fit.method}, epsilon={cfg['epsilon']})")


@_command("dbar", "exact per-letter transport distance",
          mu=Setting(required=True, help="JSON weights of the first law"),
          nu=Setting(required=True, help="JSON weights of the second law"),
          window=Setting(int, 1, help="sequence length the laws live on"),
          alphabet_size=Setting(int))
def cmd_dbar(cfg, out) -> None:
    mu = _load_weights(cfg["mu"])
    nu = _load_weights(cfg["nu"])
    coupling = dbar_exact(mu, nu, cfg["window"], alphabet_size=cfg["alphabet_size"])
    dump_json(out / "dbar.json", coupling.to_json())
    coupling.entries_to_csv(out / "coupling.csv")
    print(f"per-letter transport distance {coupling.value:.9f} over window {cfg['window']}")


@_command("ct-bound", "evaluate the model-fitting transport bound",
          gamma=Setting(list[float], required=True, help="continuity rates, outermost first"),
          floor=Setting(float, required=True, help="uniform lower bound on conditionals"),
          alphabet_size=Setting(int, 2),
          train_len=Setting(int, required=True),
          rate_exponent=Setting(float, required=True),
          tail_exponent=Setting(float, required=True))
def cmd_ct_bound(cfg, out) -> None:
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
    print(f"approximation bound {bound:.9f} at resolved order {inputs.order}")


@_command("probe", "sample law pairs and chart divergence vs transport",
          alphabet_size=Setting(int, 2),
          window=Setting(int, 1),
          instances=Setting(int, 1000),
          sampler=Setting(str, "dirichlet-uniform", choices=tuple(SAMPLERS)),
          seed=Setting(int, 0))
def cmd_probe(cfg, out) -> None:
    report = divergence_transport_probe(
        cfg["alphabet_size"], cfg["window"], cfg["instances"],
        sampler=cfg["sampler"], seed=cfg["seed"],
    )
    dump_json(out / "probe.json", report.to_json())
    (out / "probe_scatter.csv").write_text(report.scatter_csv(), encoding="utf-8")
    print(f"probed {report.instance_count} pairs: sup ratio {report.sup_ratio:.6f}, "
          f"{report.excluded} excluded, {report.violations} gate violations")


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


@_command("report", "summarize the artifacts in a run directory",
          run_dir=Setting(required=True))
def cmd_report(cfg, out) -> None:
    run_dir = Path(cfg["run_dir"])
    if not run_dir.is_dir():
        raise DataContractError(f"{run_dir} is not a directory")
    lines = [f"report for {run_dir.name}"]
    for name in sorted(_REPORT_READERS):
        path = run_dir / name
        if path.exists():
            lines.append(_REPORT_READERS[name](load_json(path)))
    if len(lines) == 1:
        lines.append("no recognized artifacts found")
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")


# -- parser and entry point -------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built from the settings table on first use."""
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
    for name, (_, helptext, settings) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON file of settings (flags win)")
        for key, setting in settings.items():
            item = _item_type(setting)
            how = (dict(action="store_const", const=True) if item is bool else
                   dict(type=item if setting.type is item else _comma_list(item),
                        choices=setting.choices))
            p.add_argument(_flag(key), dest=key, help=setting.help, **how)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd, _, settings = _COMMANDS[args.command]
    try:
        cfg = _resolve(args.command, args, settings)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        cmd(cfg, out)
        _write_run_files(out, args.command, cfg)
    except MarkovDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"bad value: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
