"""End-to-end command tests: each one drives ``cli.main`` in-process."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovdetect
from markovdetect import hypotest
from markovdetect.cli import main
from markovdetect.corpus import Alphabet
from markovdetect.hypotest import class_statistic, lrt_statistic, np_threshold
from markovdetect.markov import MarkovModel, chain_model, iid_model, sample
from markovdetect.util import load_json

PRIMARY = lambda d: sorted(
    p.name for p in d.iterdir() if p.name != "run_meta.json"
)


def snapshot(d):
    """name -> bytes for everything except the wall-clock metadata file."""
    return {
        p.name: p.read_bytes() for p in d.iterdir() if p.name != "run_meta.json"
    }


@pytest.fixture
def texts(tmp_path):
    p_text = tmp_path / "authentic.txt"
    q_text = tmp_path / "generated.txt"
    sample = tmp_path / "sample.txt"
    p_text.write_text("aab" * 300, encoding="utf-8")
    q_text.write_text("abbb" * 200, encoding="utf-8")
    sample.write_text("aabaaabaabaaaabaabab", encoding="utf-8")
    return p_text, q_text, sample


@pytest.fixture
def trained(texts, tmp_path):
    p_text, q_text, _ = texts
    p_dir, q_dir = tmp_path / "p", tmp_path / "q"
    assert main(["train", "--input", str(p_text), "--order", "0",
                 "--out", str(p_dir)]) == 0
    assert main(["train", "--input", str(q_text), "--order", "0",
                 "--alphabet-from", str(p_dir / "model.json"),
                 "--out", str(q_dir)]) == 0
    return p_dir / "model.json", q_dir / "model.json"


def test_train_artifacts_and_rerun(texts, tmp_path, capsys):
    p_text, _, _ = texts
    out = tmp_path / "run"
    assert main(["train", "--input", str(p_text), "--order", "1",
                 "--out", str(out)]) == 0
    assert PRIMARY(out) == ["model.json", "resolved_config.json",
                            "train_summary.json"]
    summary = load_json(out / "train_summary.json")
    assert summary["tokens"] == 900
    assert summary["alphabet_size"] == 2
    assert summary["order"] == 1
    first = snapshot(out)
    assert main(["train", "--input", str(p_text), "--order", "1",
                 "--out", str(out)]) == 0
    assert snapshot(out) == first
    assert "trained order-1 model" in capsys.readouterr().out


def test_score_matches_hand_value(trained, tmp_path):
    p_model, _ = trained
    text = tmp_path / "tiny.txt"
    text.write_text("aab", encoding="utf-8")
    out = tmp_path / "score"
    assert main(["score", "--model", str(p_model), "--text", str(text),
                 "--out", str(out)]) == 0
    rec = load_json(out / "score.json")
    # the order-0 model fit on "aab"*300 has exact frequencies (2/3, 1/3)
    expect_ll = 2 * math.log(2 / 3) + math.log(1 / 3)
    assert rec["tokens"] == 3
    assert rec["log_likelihood"] == pytest.approx(expect_ll, rel=1e-12)
    assert rec["perplexity"] == pytest.approx(math.exp(-expect_ll / 3), rel=1e-12)


def test_detect_verdict_and_artifacts(trained, texts, tmp_path):
    p_model, q_model = trained
    _, _, sample = texts
    out = tmp_path / "det"
    assert main(["detect", "--model-p", str(p_model), "--model-q", str(q_model),
                 "--text", str(sample), "--epsilon", "0.1",
                 "--out", str(out)]) == 0
    rec = load_json(out / "detect.json")
    # the sample is a-heavy, like the null model and unlike the b-heavy one
    assert rec["verdict"] == "authentic"
    assert rec["statistic"] >= rec["threshold"]
    assert rec["tokens"] == 20
    assert rec["flags"] == []
    assert rec["kl_rate_null_to_alt"] > 0
    first = snapshot(out)
    main(["detect", "--model-p", str(p_model), "--model-q", str(q_model),
          "--text", str(sample), "--epsilon", "0.1", "--out", str(out)])
    assert snapshot(out) == first


def test_exponent_artifacts(trained, tmp_path):
    p_model, q_model = trained
    out = tmp_path / "exp"
    args = ["exponent", "--model-p", str(p_model), "--model-q", str(q_model),
            "--epsilon", "0.5", "--n-grid", "40,80,160", "--method", "exact",
            "--gnuplot", "--out", str(out)]
    assert main(args) == 0
    rec = load_json(out / "exponent.json")
    assert rec["n_grid"] == [40, 80, 160]
    assert rec["slope"] == pytest.approx(rec["theory"], rel=0.10)
    csv = (out / "exponent.csv").read_text(encoding="utf-8").splitlines()
    assert csv[0] == "n,threshold,neg_log_beta"
    assert len(csv) == 4
    assert len((out / "exponent.dat").read_text(encoding="utf-8").splitlines()) == 3
    assert "plot 'exponent.dat'" in (out / "exponent.gp").read_text(encoding="utf-8")
    first = snapshot(out)
    assert main(args) == 0
    assert snapshot(out) == first


def test_dbar_worked_example(tmp_path):
    # three fair-coin letters against three (0.9, 0.1) letters
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    mu.write_text(json.dumps({"weights": [0.125] * 8}), encoding="utf-8")
    biased = [
        0.9 * 0.9 * 0.9, 0.9 * 0.9 * 0.1, 0.9 * 0.1 * 0.9, 0.9 * 0.1 * 0.1,
        0.1 * 0.9 * 0.9, 0.1 * 0.9 * 0.1, 0.1 * 0.1 * 0.9, 0.1 * 0.1 * 0.1,
    ]
    nu.write_text(json.dumps(biased), encoding="utf-8")
    out = tmp_path / "dbar"
    args = ["dbar", "--mu", str(mu), "--nu", str(nu), "--window", "3",
            "--out", str(out)]
    assert main(args) == 0
    rec = load_json(out / "dbar.json")
    # coupling artifacts store floats as 17-digit strings for byte stability
    assert float(rec["value"]) == pytest.approx(0.4, abs=1e-9)
    assert rec["engine"] == "tree-enumeration"
    csv = (out / "coupling.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "atom_x,atom_y,mass"
    first = snapshot(out)
    assert main(args) == 0
    assert snapshot(out) == first
    assert main(["report", "--run-dir", str(out), "--out", str(tmp_path / "rep")]) == 0
    text = (tmp_path / "rep" / "report.txt").read_text(encoding="utf-8")
    assert f"transport: {rec['value']} (tree-enumeration engine)" in text


def test_dbar_rejects_nan_weights(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    mu.write_text("[NaN, 0.5, 0.25, 0.25]", encoding="utf-8")
    nu.write_text(json.dumps([0.25] * 4), encoding="utf-8")
    out = tmp_path / "dbar"
    assert main(["dbar", "--mu", str(mu), "--nu", str(nu), "--window", "2",
                 "--alphabet-size", "2", "--out", str(out)]) == 2
    assert "mu must be a probability vector" in capsys.readouterr().err
    assert not (out / "dbar.json").exists()


def test_dbar_flow_engine_above_sixteen_atoms(tmp_path):
    # five fair-coin letters against five (0.9, 0.1) letters: 32 atoms
    fair = [1 / 32] * 32
    biased = [0.9 ** (5 - bin(i).count("1")) * 0.1 ** bin(i).count("1") for i in range(32)]
    (tmp_path / "mu.json").write_text(json.dumps(fair), encoding="utf-8")
    (tmp_path / "nu.json").write_text(json.dumps(biased), encoding="utf-8")
    out = tmp_path / "dbar"
    args = ["dbar", "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--window", "5", "--out", str(out)]
    assert main(args) == 0
    rec = load_json(out / "dbar.json")
    assert rec["engine"] == "hamming-flow"
    assert float(rec["value"]) == pytest.approx(0.4, abs=1e-9)
    assert float(rec["dual_value"]) == pytest.approx(float(rec["value"]), abs=1e-9)
    rows = (out / "coupling.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert sum(float(r.split(",")[2]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    first = snapshot(out)
    assert main(args) == 0
    assert snapshot(out) == first


def test_ct_bound_worked_example(tmp_path):
    out = tmp_path / "ct"
    nu = 1.0 / math.log(10_000)
    assert main(["ct-bound", "--gamma", "0.1,0.0", "--floor", "0.2",
                 "--train-len", "10000", "--rate-exponent", f"{nu:.17g}",
                 "--tail-exponent", "0.25", "--out", str(out)]) == 0
    rec = load_json(out / "ct_bound.json")
    assert rec["bound"] == pytest.approx(7.9125, abs=1e-9)
    assert rec["order"] == 1


def test_probe_artifacts(tmp_path):
    out = tmp_path / "probe"
    args = ["probe", "--alphabet-size", "2", "--window", "1",
            "--instances", "150", "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    rec = load_json(out / "probe.json")
    assert rec["instance_count"] == 150
    scatter = (out / "probe_scatter.csv").read_text(encoding="utf-8")
    assert scatter.splitlines()[0] == "qmin,dbar,kl,ratio"
    first = snapshot(out)
    assert main(args) == 0
    assert snapshot(out) == first


def test_report_collects_artifacts(trained, texts, tmp_path, capsys):
    p_model, q_model = trained
    _, _, sample = texts
    run = tmp_path / "combined"
    main(["score", "--model", str(p_model), "--text", str(sample),
          "--out", str(run)])
    main(["detect", "--model-p", str(p_model), "--model-q", str(q_model),
          "--text", str(sample), "--out", str(run)])
    capsys.readouterr()
    out = tmp_path / "rep"
    assert main(["report", "--run-dir", str(run), "--out", str(out)]) == 0
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "score:" in text and "detect:" in text
    assert capsys.readouterr().out == text


def test_config_file_and_flag_precedence(texts, tmp_path):
    p_text, _, _ = texts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 2, "scheme": "char"}), encoding="utf-8")
    out1 = tmp_path / "c1"
    assert main(["train", "--input", str(p_text), "--config", str(cfg),
                 "--out", str(out1)]) == 0
    assert load_json(out1 / "train_summary.json")["order"] == 2
    # an explicit flag beats the file
    out2 = tmp_path / "c2"
    assert main(["train", "--input", str(p_text), "--config", str(cfg),
                 "--order", "1", "--out", str(out2)]) == 0
    assert load_json(out2 / "train_summary.json")["order"] == 1
    resolved = load_json(out2 / "resolved_config.json")
    assert resolved["command"] == "train"
    assert resolved["order"] == 1


def test_unknown_config_key_rejected(texts, tmp_path, capsys):
    p_text, _, _ = texts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ordre": 2}), encoding="utf-8")
    assert main(["train", "--input", str(p_text), "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 4
    assert "ordre" in capsys.readouterr().err


# (command, config key, a value of the wrong JSON type or outside the choices)
_BAD_CONFIG_VALUES = [
    ("train", "order", "2"),                # a string for an integer
    ("train", "smoothing", "0.1"),          # a string for a number
    ("train", "scheme", "bytes"),           # outside the choices
    ("train", "order", None),               # null where the default is set
    ("score", "model", 3),                  # a number for a path
    ("detect", "epsilon", "0.1"),
    ("detect", "trials", True),             # a boolean for an integer
    ("detect", "method", "fast"),
    ("exponent", "n_grid", 50),             # a scalar for a list
    ("exponent", "n_grid", [50, 100.0]),    # a float in an integer list
    ("exponent", "gnuplot", 1),
    ("dbar", "window", 2.0),                # a float for an integer
    ("ct-bound", "gamma", 0.1),
    ("ct-bound", "floor", True),            # a boolean for a number
    ("probe", "window", "2"),
    ("probe", "instances", 150.0),
    ("probe", "sampler", "uniform"),
    ("report", "run_dir", ["runs"]),        # a list for a path
]


@pytest.mark.parametrize("command, key, value", _BAD_CONFIG_VALUES)
def test_config_value_of_the_wrong_type_exits_4(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_config_file_that_is_not_an_object_exits_4(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 4
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


def test_config_file_gives_the_bytes_of_the_same_flags(trained, texts, tmp_path):
    """A config holding the values of a set of flags writes the same primary
    artifacts and resolved_config.json; an integer for a number is a number."""
    p_model, q_model = trained
    p_text, _, sample = texts
    (tmp_path / "mu.json").write_text(json.dumps([0.1, 0.2, 0.3, 0.4]), encoding="utf-8")
    (tmp_path / "nu.json").write_text(json.dumps([0.4, 0.3, 0.2, 0.1]), encoding="utf-8")
    models = {"model_p": str(p_model), "model_q": str(q_model)}
    cases = [
        ("train", {"input": str(p_text), "scheme": "char", "order": 2, "smoothing": 0,
                   "vocab_limit": None, "alphabet_from": str(p_model)}),
        ("detect", {**models, "text": str(sample), "epsilon": 0.2, "trials": 2000,
                    "seed": 3, "method": "mc"}),
        ("exponent", {**models, "epsilon": 0.5, "n_grid": [40, 80, 160],
                      "method": "exact", "gnuplot": True}),
        ("dbar", {"mu": str(tmp_path / "mu.json"), "nu": str(tmp_path / "nu.json"),
                  "window": 2, "alphabet_size": 2}),
        ("ct-bound", {"gamma": [0.1, 0], "floor": 0.2, "alphabet_size": 2,
                      "train_len": 10000, "rate_exponent": 0.1, "tail_exponent": 0.25}),
        ("probe", {"alphabet_size": 2, "window": 2, "instances": 100,
                   "sampler": "boundary-biased", "seed": 4}),
    ]
    for command, values in cases:
        out = tmp_path / command
        flags = []
        for key, value in values.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                flags.append(flag)
            elif value is not None:
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                flags += [flag, text]
        assert main([command, *flags, "--out", str(out)]) == 0, command
        by_flags = snapshot(out)
        for path in out.iterdir():
            path.unlink()
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(values), encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
        assert snapshot(out) == by_flags, command


def test_train_has_no_seed_setting(texts, tmp_path, capsys):
    p_text, _, _ = texts
    out = tmp_path / "run"
    assert main(["train", "--input", str(p_text), "--out", str(out)]) == 0
    assert "seed" not in load_json(out / "resolved_config.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0}), encoding="utf-8")
    assert main(["train", "--input", str(p_text), "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 4
    assert "unknown config keys: seed" in capsys.readouterr().err


# edits that turn a model file into one that is not a model; the context and
# width edits used to exit 2 with a numpy or unpacking message and no file
# name, boolean masses and symbols used to load as 1 and 0, a symbol of
# 0.5 as 0, and an alphabet given as one string as its characters
_MODEL_EDITS = {
    "no alphabet": lambda obj: obj.pop("alphabet"),
    "alphabet symbols as one string": lambda obj: obj["alphabet"].update(symbols="ab"),
    "entry without its row": lambda obj: obj.update(transitions=[[[0]]]),
    "init entry of three": lambda obj: obj.update(init=[[[], 1.0, 0]]),
    "context of the wrong length": lambda obj: obj["transitions"][0][0].append(0),
    "context symbol outside the alphabet": lambda obj: obj.update(
        order=1, transitions=[[[0], ["0.5", "0.5"]], [[5], ["0.5", "0.5"]]],
        init=[[[0], "1"]]),
    "row of the wrong width": lambda obj: obj["transitions"][0][1].pop(),
    "null mass": lambda obj: obj["transitions"][0][1].__setitem__(0, None),
    "mass that is a list": lambda obj: obj["transitions"][0][1].__setitem__(0, [0.5]),
    "boolean row": lambda obj: obj["transitions"][0].__setitem__(1, [True, False]),
    "boolean initial mass": lambda obj: obj["init"][0].__setitem__(1, True),
    "boolean context symbol": lambda obj: obj.update(
        order=1, transitions=[[[False], ["0.5", "0.5"]], [[True], ["0.5", "0.5"]]],
        init=[[[0], "1"]]),
    "fractional context symbol": lambda obj: obj.update(
        order=1, transitions=[[[0.5], ["0.5", "0.5"]]], init=[[[0], "1"]]),
    "boolean smoothing": lambda obj: obj.update(smoothing=True),
    "null smoothing": lambda obj: obj.update(smoothing=None),
}


@pytest.mark.parametrize("content", ["{}", "[1, 2]", *_MODEL_EDITS])
@pytest.mark.parametrize("command", ["score", "detect", "exponent", "train"])
def test_file_that_is_not_a_model_exits_4(trained, texts, tmp_path, capsys, command, content):
    p_model, q_model = trained
    p_text, _, sample = texts
    bad = tmp_path / "bad_model.json"
    if content in _MODEL_EDITS:
        obj = load_json(p_model)
        _MODEL_EDITS[content](obj)
        content = json.dumps(obj)
    bad.write_text(content, encoding="utf-8")
    argv = {
        "score": ["score", "--model", str(bad), "--text", str(sample)],
        "detect": ["detect", "--model-p", str(p_model), "--model-q", str(bad),
                   "--text", str(sample)],
        "exponent": ["exponent", "--model-p", str(bad), "--model-q", str(q_model)],
        "train": ["train", "--input", str(p_text), "--alphabet-from", str(bad)],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "detect", "train"])
def test_a_model_whose_symbols_are_not_all_strings_exits_4_naming_it(tmp_path, capsys, command):
    """A symbol 7 in place of "k" used to load: text without a "k" scored and
    was detected, and ``train --alphabet-from`` wrote the integer back."""
    text, sample = tmp_path / "text.txt", tmp_path / "sample.txt"
    text.write_text("kayak and banana " * 20, encoding="utf-8")
    sample.write_text("banana and a nab", encoding="utf-8")
    assert main(["train", "--input", str(text), "--smoothing", "0.1",
                 "--out", str(tmp_path / "p")]) == 0
    obj = load_json(tmp_path / "p" / "model.json")
    symbols = obj["alphabet"]["symbols"]
    symbols[symbols.index("k")] = 7
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    argv = {
        "score": ["score", "--model", str(bad), "--text", str(sample)],
        "detect": ["detect", "--model-p", str(bad), "--model-q", str(bad),
                   "--text", str(sample), "--trials", "1000"],
        "train": ["train", "--input", str(sample), "--alphabet-from", str(bad)],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 4
    assert f"{bad}: not a markovdetect model" in capsys.readouterr().err
    assert PRIMARY(out) == []


def test_a_mass_that_is_not_a_number_exits_2_naming_the_file(trained, texts, tmp_path, capsys):
    p_model, _ = trained
    _, _, sample = texts
    obj = load_json(p_model)
    obj["transitions"][0][1][0] = "abc"
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["score", "--model", str(bad), "--text", str(sample), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad value: {bad}: " in err and "'abc'" in err
    assert PRIMARY(out) == []


@pytest.mark.parametrize("flag", ["--config", "--model", "--model-p", "--model-q",
                                  "--alphabet-from", "--mu", "--nu"])
def test_json_syntax_error_exits_4_naming_the_file(trained, texts, tmp_path, capsys, flag):
    p_model, q_model = trained
    p_text, _, sample = texts
    bad = tmp_path / "bad.json"
    bad.write_text('{"order": 2\n', encoding="utf-8")
    law = tmp_path / "law.json"
    law.write_text(json.dumps([0.25] * 4), encoding="utf-8")
    argv = {
        "--config": ["train", "--input", str(p_text), "--config", str(bad)],
        "--model": ["score", "--model", str(bad), "--text", str(sample)],
        "--model-p": ["detect", "--model-p", str(bad), "--model-q", str(q_model),
                      "--text", str(sample)],
        "--model-q": ["exponent", "--model-p", str(p_model), "--model-q", str(bad)],
        "--alphabet-from": ["train", "--input", str(p_text), "--alphabet-from", str(bad)],
        "--mu": ["dbar", "--mu", str(bad), "--nu", str(law), "--window", "2"],
        "--nu": ["dbar", "--mu", str(law), "--nu", str(bad), "--window", "2"],
    }[flag]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert f"{bad}: not valid JSON" in err


@pytest.mark.parametrize("content", ["[null, 0.5, 0.25, 0.25]", "[[0.25], 0.25, 0.25, 0.25]",
                                     '{"weights": [0.5, null]}', "[true, false, false, false]"])
def test_dbar_weights_that_are_not_numbers_exit_4(tmp_path, capsys, content):
    mu = tmp_path / "mu.json"
    mu.write_text(content, encoding="utf-8")
    (tmp_path / "nu.json").write_text(json.dumps([0.25] * 4), encoding="utf-8")
    out = tmp_path / "dbar"
    assert main(["dbar", "--mu", str(mu), "--nu", str(tmp_path / "nu.json"),
                 "--window", "2", "--out", str(out)]) == 4
    assert f"{mu}: expected a JSON list of numbers" in capsys.readouterr().err
    assert not (out / "dbar.json").exists()


def test_dbar_laws_with_no_atoms_exit_2_naming_the_cause(tmp_path, capsys):
    for name in ("mu.json", "nu.json"):
        (tmp_path / name).write_text("[]", encoding="utf-8")
    out = tmp_path / "dbar"
    assert main(["dbar", "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
                 "--window", "3", "--out", str(out)]) == 2
    assert "need at least one atom" in capsys.readouterr().err
    assert not (out / "dbar.json").exists()


def test_out_env_var_honored(texts, tmp_path, monkeypatch):
    p_text, _, _ = texts
    target = tmp_path / "from_env"
    monkeypatch.setenv("MARKOVDETECT_OUT", str(target))
    assert main(["train", "--input", str(p_text), "--order", "0"]) == 0
    assert (target / "model.json").exists()


def test_exit_code_bad_value(trained, texts, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MARKOVDETECT_OUT", str(tmp_path / "out"))
    p_model, q_model = trained
    _, _, sample = texts
    assert main(["detect", "--model-p", str(p_model), "--model-q", str(q_model),
                 "--text", str(sample), "--epsilon", "1.5"]) == 2
    assert "bad value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "detect"])
def test_exit_code_nan_in_model(trained, texts, tmp_path, capsys, command):
    # a NaN mass is not a distribution: the model fails to load, exit 2
    p_model, q_model = trained
    _, _, sample = texts
    obj = load_json(p_model)
    obj["transitions"][0][1][0] = "nan"
    bad = tmp_path / "nan_model.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / command
    argv = (["score", "--model", str(bad)] if command == "score"
            else ["detect", "--model-p", str(bad), "--model-q", str(q_model)])
    assert main(argv + ["--text", str(sample), "--out", str(out)]) == 2
    assert "not a distribution" in capsys.readouterr().err
    assert not (out / f"{command}.json").exists()


@pytest.mark.parametrize("flaw", ["row", "init"])
@pytest.mark.parametrize("command", ["score", "detect-p", "detect-q"])
def test_a_model_whose_law_is_not_a_distribution_exits_2_naming_it(
        trained, texts, tmp_path, capsys, command, flaw):
    """A transition row summing to 0.9 or a negative initial mass fails to
    load: exit 2, and the message names the file, as detect loads two."""
    p_model, q_model = trained
    _, _, sample = texts
    obj = load_json(p_model)
    if flaw == "row":
        obj["transitions"][0][1] = ["0.5", "0.4"]
    else:
        obj["init"] = [[[], "-0.5"]]  # the order-0 law's one atom
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    argv = {"score": ["score", "--model", str(bad)],
            "detect-p": ["detect", "--model-p", str(bad), "--model-q", str(q_model)],
            "detect-q": ["detect", "--model-p", str(p_model), "--model-q", str(bad)]}[command]
    out = tmp_path / "out"
    assert main(argv + ["--text", str(sample), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    cause = ("transition row for () is not a distribution" if flaw == "row"
             else "initial probabilities must be >= 0 and sum to 1")
    assert f"bad value: {bad}: {cause}" in err
    assert PRIMARY(out) == []


def _text_argv(command, model, text, scheme="word"):
    """``command``'s argv reading the text file ``text``, scored under ``model``."""
    return {"train": ["train", "--scheme", scheme, "--input", str(text)],
            "score": ["score", "--model", str(model), "--text", str(text)],
            "detect": ["detect", "--model-p", str(model), "--model-q", str(model),
                       "--text", str(text)]}[command]


@pytest.mark.parametrize("scheme", ["byte", "char", "word"])
@pytest.mark.parametrize("command", ["train", "score", "detect"])
def test_an_empty_text_exits_4_naming_it(tmp_path, capsys, scheme, command):
    """Under every scheme an empty text file is refused before training or
    scoring: exit 4, the message names the file, and no primary artifact is
    written."""
    train = tmp_path / "train.txt"
    train.write_text("the cat sat on the mat " * 20, encoding="utf-8")
    model = tmp_path / "model" / "model.json"
    assert main(["train", "--input", str(train), "--scheme", scheme, "--order", "0",
                 "--out", str(model.parent)]) == 0
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert main(_text_argv(command, model, empty, scheme) + ["--out", str(out)]) == 4
    assert f"{empty}: the text is empty" in capsys.readouterr().err
    assert PRIMARY(out) == []


@pytest.mark.parametrize("command", ["train", "score", "detect"])
def test_a_text_without_words_exits_4_naming_it(tmp_path, capsys, command):
    """A word model given a text of only whitespace is refused like an empty
    text: exit 4, the message names the file, and no primary artifact is
    written."""
    train = tmp_path / "train.txt"
    train.write_text("the cat sat on the mat " * 20, encoding="utf-8")
    model = tmp_path / "model" / "model.json"
    assert main(["train", "--input", str(train), "--scheme", "word", "--order", "0",
                 "--out", str(model.parent)]) == 0
    blank = tmp_path / "blank.txt"
    blank.write_text("   \n ", encoding="utf-8")
    out = tmp_path / "out"
    assert main(_text_argv(command, model, blank) + ["--out", str(out)]) == 4
    assert f"{blank}: the text has no words" in capsys.readouterr().err
    assert PRIMARY(out) == []


@pytest.mark.parametrize("command, scheme, content, cause", [
    ("train", "word", "one one one", "text uses fewer than 2 distinct symbols"),
    ("train", "char", "aaaa", "text uses fewer than 2 distinct symbols"),
    ("score", "word", "one one one", "symbol 'one' not in alphabet"),
    ("detect", "word", "one one one", "symbol 'one' not in alphabet"),
])
def test_a_text_the_tokenizer_refuses_exits_4_naming_it(tmp_path, capsys, command, scheme,
                                                        content, cause):
    """A text with one distinct symbol cannot make an alphabet, and a model
    cannot code a word it lacks: exit 4, the message names the file, and no
    primary artifact is written."""
    train = tmp_path / "train.txt"
    train.write_text("the cat sat on the mat " * 20, encoding="utf-8")
    model = tmp_path / "model" / "model.json"
    assert main(["train", "--input", str(train), "--scheme", "word", "--order", "0",
                 "--out", str(model.parent)]) == 0
    text = tmp_path / "text.txt"
    text.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    assert main(_text_argv(command, model, text, scheme) + ["--out", str(out)]) == 4
    assert f"{text}: {cause}" in capsys.readouterr().err
    assert PRIMARY(out) == []


@pytest.mark.parametrize("limit", ["1", "0", "-2"])
def test_train_refuses_a_vocabulary_cap_below_2(tmp_path, capsys, limit):
    """A word alphabet needs one word and ``<oov>``, so a cap below 2 is a
    bad value: exit 2 naming the cap, and no primary artifact is written
    (a cap of 0 or -2 once sliced from the end and trained 6 or 4 symbols)."""
    text = tmp_path / "text.txt"
    text.write_text("a b c d a b a e f a b c", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--input", str(text), "--scheme", "word", "--order", "0",
                 "--vocab-limit", limit, "--out", str(out)]) == 2
    assert f"bad value: vocab_limit {limit} is below 2" in capsys.readouterr().err
    assert PRIMARY(out) == []


@pytest.mark.parametrize("null_text, alt_text, stat, flag, verdict", [
    ("ab", "aabb", -math.inf, "support_violation_null", "generated"),
    ("aabb", "ab", math.inf, "support_violation_alternative", "authentic"),
])
def test_detect_flags_a_transition_only_one_model_allows(
        tmp_path, null_text, alt_text, stat, flag, verdict):
    """Unsmoothed order-1 fits on "abab..." (a and b always alternate) and
    "aabb..." (every transition occurs): text holding "aa" is impossible
    under the first, so its statistic is infinite and the verdict forced."""
    models = {}
    for name, unit in (("p", null_text), ("q", alt_text)):
        src = tmp_path / f"{name}.txt"
        src.write_text(unit * 50, encoding="utf-8")
        shared = ["--alphabet-from", str(models["p"])] if models else []
        assert main(["train", "--input", str(src), "--order", "1", *shared,
                     "--out", str(tmp_path / name)]) == 0
        models[name] = tmp_path / name / "model.json"
    text = tmp_path / "text.txt"
    text.write_text("abaabab", encoding="utf-8")
    out = tmp_path / "det"
    assert main(["detect", "--model-p", str(models["p"]), "--model-q", str(models["q"]),
                 "--text", str(text), "--out", str(out)]) == 0
    rec = load_json(out / "detect.json")
    assert rec["statistic"] == stat
    assert rec["flags"] == [flag]
    assert rec["forced"] is True
    assert rec["verdict"] == verdict


def test_exit_code_io_failure(tmp_path, capsys):
    assert main(["score", "--model", str(tmp_path / "nope.json"),
                 "--text", str(tmp_path / "also-nope.txt")]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("command, which", [
    ("train", "text"), ("score", "text"), ("detect", "text"),
    ("score", "model"), ("detect", "model")])
def test_a_file_that_is_not_utf8_exits_4_naming_it(trained, texts, tmp_path, capsys,
                                                    command, which):
    """A text or model file holding byte 0xff is a malformed input: exit 4,
    the message names the file, and no primary artifact is written."""
    p_model, q_model = trained
    _, _, sample = texts
    bad = tmp_path / "latin1.bin"
    bad.write_bytes(b"ab\xffab")
    text, model = (bad, p_model) if which == "text" else (sample, bad)
    argv = {"train": ["train", "--input", str(text)],
            "score": ["score", "--model", str(model), "--text", str(text)],
            "detect": ["detect", "--model-p", str(model), "--model-q", str(q_model),
                       "--text", str(text)]}[command]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err
    assert PRIMARY(out) == []


@pytest.mark.parametrize("command", ["score", "detect"])
def test_a_model_not_trained_from_text_cannot_tokenize(texts, tmp_path, capsys, command):
    """Models made by ``chain_model`` or ``iid_model`` carry no scheme: score
    and detect exit 4 naming the model file, and write no artifact."""
    _, _, sample = texts
    path = tmp_path / "chain.json"
    chain_model([[0.5, 0.5], [0.2, 0.8]], alphabet=Alphabet(("a", "b"))).save(path)
    argv = (["score", "--model", str(path)] if command == "score"
            else ["detect", "--model-p", str(path), "--model-q", str(path)])
    out = tmp_path / "out"
    assert main(argv + ["--text", str(sample), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"{path}: model has scheme None, so it was not trained from text" in err
    assert PRIMARY(out) == []


def test_exit_code_data_contract(texts, trained, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MARKOVDETECT_OUT", str(tmp_path / "out"))
    _, _, sample = texts
    p_model, _ = trained
    # a model trained without the shared alphabet indexes symbols in
    # first-appearance order, which differs for a text starting with 'b',
    # and detect must refuse the pair
    flipped = tmp_path / "flipped.txt"
    flipped.write_text("bbba" * 200, encoding="utf-8")
    alt = tmp_path / "alt"
    assert main(["train", "--input", str(flipped), "--order", "0",
                 "--out", str(alt)]) == 0
    assert main(["detect", "--model-p", str(p_model),
                 "--model-q", str(alt / "model.json"),
                 "--text", str(sample)]) == 4
    assert "share an alphabet" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["auto", "mc"])
def test_exponent_refuses_models_over_permuted_alphabets(tmp_path, capsys, method):
    """Order-1 models trained on "abab..." and on "babb..." list their
    symbols as (a, b) and (b, a); comparing them code by code would set p's
    "a" against q's "b", so exponent exits 4 under every method."""
    models = []
    for name, text in (("ab", "abab" * 100), ("ba", "babb" * 100)):
        (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
        assert main(["train", "--input", str(tmp_path / f"{name}.txt"), "--order", "1",
                     "--out", str(tmp_path / name)]) == 0
        models.append(str(tmp_path / name / "model.json"))
    assert [load_json(m)["alphabet"]["symbols"] for m in models] == [["a", "b"], ["b", "a"]]
    capsys.readouterr()
    out = tmp_path / "e"
    assert main(["exponent", "--model-p", models[0], "--model-q", models[1],
                 "--n-grid", "20,40,80", "--method", method, "--trials", "1000",
                 "--out", str(out)]) == 4
    assert "the two models must share an alphabet" in capsys.readouterr().err
    assert not (out / "exponent.json").exists()


def test_train_refuses_a_negative_order(texts, tmp_path, capsys):
    p_text, _, _ = texts
    assert main(["train", "--input", str(p_text), "--order", "-1",
                 "--out", str(tmp_path / "x")]) == 4
    assert "order must be >= 0" in capsys.readouterr().err


def test_exponent_refuses_a_grid_of_two_lengths(trained, tmp_path, capsys):
    p_model, q_model = trained
    assert main(["exponent", "--model-p", str(p_model), "--model-q", str(q_model),
                 "--n-grid", "20,40", "--out", str(tmp_path / "x")]) == 2
    assert "need at least three grid lengths" in capsys.readouterr().err


def test_exit_code_numerical(tmp_path, capsys):
    # rate exponent far beyond the admissible region for this floor
    assert main(["ct-bound", "--gamma", "0.1", "--floor", "0.2",
                 "--train-len", "10000", "--rate-exponent", "0.9",
                 "--tail-exponent", "0.25", "--out", str(tmp_path / "x")]) == 5
    assert capsys.readouterr().err


def test_exit_code_uninformative_exponent_fit(trained, tmp_path, capsys):
    # at these lengths 1000 Monte Carlo trials see no miss at any grid point
    p_model, q_model = trained
    assert main(["exponent", "--model-p", str(p_model), "--model-q", str(q_model),
                 "--epsilon", "0.5", "--n-grid", "400,800,1600", "--method", "mc",
                 "--trials", "1000", "--out", str(tmp_path / "x")]) == 5
    assert "informative grid points" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_missing_required_setting(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "x")]) == 4
    assert "needs --input" in capsys.readouterr().err


def test_train_byte_order_beyond_int64_codes_exits_4(tmp_path, capsys):
    """Byte-scheme contexts of 8 symbols would need codes up to 256**8 - 1,
    beyond int64, so training refuses them with AtomBudgetError (exit 4)."""
    text = tmp_path / "t.txt"
    text.write_text("context codes of eight bytes overflow", encoding="utf-8")
    argv = ["train", "--input", str(text), "--scheme", "byte", "--out", str(tmp_path / "o")]
    assert main(argv + ["--order", "7"]) == 0
    assert main(argv + ["--order", "8"]) == 4
    assert "overflow int64" in capsys.readouterr().err


def _fresh_python(code, *args):
    """Stdout of ``code`` run by a fresh interpreter on this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_scipy_out():
    """scipy costs more to import than most commands take to run; the package
    loads it inside the engines that call it."""
    code = ("import json, sys\n"
            "import markovdetect\n"
            f"print(json.dumps({_SCIPY_LOADED}))\n"
            "import markovdetect.cli\n"
            f"print(json.dumps({_SCIPY_LOADED}))\n")
    assert [json.loads(line) for line in _fresh_python(code).splitlines()] == [[], []]


def test_monte_carlo_exponent_fit_leaves_scipy_out():
    """A Monte Carlo exponent fit keeps only log miss frequencies, so it never
    computes the Clopper-Pearson interval whose betaincinv loads
    scipy.special; miss_probability, which reports that interval, does."""
    code = ("import json, sys\n"
            "from markovdetect import exponent_fit, iid_model, miss_probability\n"
            "p, q = iid_model([0.5, 0.5]), iid_model([0.7, 0.3])\n"
            "fit = exponent_fit(p, q, 0.5, [4, 8, 12], trials=1000, method='mc')\n"
            "print(fit.method, json.dumps(%s))\n"
            "miss_probability(p, q, 8, 0.0, trials=1000, method='mc')\n"
            "print('scipy.special' in sys.modules)\n" % _SCIPY_LOADED)
    assert _fresh_python(code).split() == ["mc", "[]", "True"]


def test_python_dash_m_runs_the_cli():
    """``python -m markovdetect`` reaches ``cli.main`` through ``__main__``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "markovdetect", "--version"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == markovdetect.__version__


def test_parser_is_built_on_first_use_and_kept():
    code = ("from markovdetect import cli\n"
            "print(cli.build_parser.cache_info().currsize)\n"
            "print(cli.build_parser() is cli.build_parser())\n")
    assert _fresh_python(code).split() == ["0", "True"]


def _run_fresh(*groups):
    """Run ``main`` on each group of argv lists in turn, in one fresh
    interpreter; the scipy modules loaded after each group."""
    code = ("import json, sys\n"
            "from markovdetect.cli import main\n"
            "for group in json.loads(sys.argv[1]):\n"
            "    for argv in group:\n"
            "        assert main(argv) == 0, argv\n"
            f"    print('scipy:', json.dumps({_SCIPY_LOADED}))\n")
    out = _fresh_python(code, json.dumps(groups))
    return [json.loads(line[len("scipy:"):]) for line in out.splitlines()
            if line.startswith("scipy:")]


def test_commands_load_scipy_only_in_the_engines_that_call_it(tmp_path):
    """train, score, detect on Monte Carlo calibration, probe and dbar on the
    8-atom cube (tree enumeration), exact exponent and detect on the
    binary-chain and i.i.d. lattices, and a Monte Carlo exponent (which
    needs no Clopper-Pearson interval) never load scipy; a probe on the
    16-atom cube and a dbar on 32 atoms (both HiGHS) load it on demand, and
    every command writes the bytes an interpreter that imported scipy up
    front writes."""
    p_text, q_text = tmp_path / "authentic.txt", tmp_path / "generated.txt"
    p_text.write_text("abcacbbca" * 40, encoding="utf-8")
    q_text.write_text("aabbcabcc" * 40, encoding="utf-8")
    sample = tmp_path / "sample.txt"
    sample.write_text("abcabcaabbcc" * 3, encoding="utf-8")
    # symbol counts unlike p_text's, for an order-0 pair of the i.i.d. lattice
    skewed = tmp_path / "skewed.txt"
    skewed.write_text("aabacabca" * 40, encoding="utf-8")
    # a binary pair whose order-1 tables at n >= 13 are the chain lattice
    p_bin, q_bin, bin_sample = (tmp_path / f"{name}.txt" for name in ("p_bin", "q_bin", "s_bin"))
    p_bin.write_text("aab" * 300, encoding="utf-8")
    q_bin.write_text("abbb" * 200, encoding="utf-8")
    bin_sample.write_text("aabaaabaabaaaabaabab", encoding="utf-8")
    fair = [1 / 32] * 32
    biased = [0.9 ** (5 - bin(i).count("1")) * 0.1 ** bin(i).count("1") for i in range(32)]
    (tmp_path / "mu.json").write_text(json.dumps(fair), encoding="utf-8")
    (tmp_path / "nu.json").write_text(json.dumps(biased), encoding="utf-8")
    (tmp_path / "mu3.json").write_text(json.dumps([1 / 8] * 8), encoding="utf-8")
    biased3 = [0.9 ** (3 - bin(i).count("1")) * 0.1 ** bin(i).count("1") for i in range(8)]
    (tmp_path / "nu3.json").write_text(json.dumps(biased3), encoding="utf-8")

    def runs(root):
        p, q = root / "p", root / "q"
        models = {name: str(root / name / "model.json") for name in ("p0", "q0", "pb", "qb")}
        lattices = ["--method", "exact", "--epsilon", "0.5", "--n-grid", "20,40,80"]
        light = [
            ["train", "--input", str(p_text), "--order", "1", "--smoothing", "0.1",
             "--out", str(p)],
            ["train", "--input", str(q_text), "--order", "1", "--smoothing", "0.1",
             "--alphabet-from", str(p / "model.json"), "--out", str(q)],
            ["score", "--model", str(p / "model.json"), "--text", str(sample),
             "--out", str(root / "score")],
            ["detect", "--model-p", str(p / "model.json"), "--model-q", str(q / "model.json"),
             "--text", str(sample), "--trials", "2000", "--out", str(root / "detect")],
            ["probe", "--alphabet-size", "2", "--window", "3", "--instances", "100",
             "--out", str(root / "probe3")],
            ["dbar", "--mu", str(tmp_path / "mu3.json"), "--nu", str(tmp_path / "nu3.json"),
             "--window", "3", "--out", str(root / "dbar3")],
            ["train", "--input", str(p_text), "--order", "0", "--out", str(root / "p0")],
            ["train", "--input", str(skewed), "--order", "0",
             "--alphabet-from", models["p0"], "--out", str(root / "q0")],
            ["exponent", "--model-p", models["p0"], "--model-q", models["q0"], *lattices,
             "--out", str(root / "exponent_iid")],
            ["train", "--input", str(p_bin), "--order", "1", "--smoothing", "0.1",
             "--out", str(root / "pb")],
            ["train", "--input", str(q_bin), "--order", "1", "--smoothing", "0.1",
             "--alphabet-from", models["pb"], "--out", str(root / "qb")],
            ["exponent", "--model-p", models["pb"], "--model-q", models["qb"], *lattices,
             "--out", str(root / "exponent_chain")],
            ["detect", "--model-p", models["pb"], "--model-q", models["qb"],
             "--text", str(bin_sample), "--out", str(root / "detect_chain")],
            ["exponent", "--model-p", models["p0"], "--model-q", models["q0"], "--method", "mc",
             "--trials", "1000", "--epsilon", "0.5", "--n-grid", "4,8,12",
             "--out", str(root / "exponent_mc")],
        ]
        heavy = [
            ["exponent", "--model-p", str(p / "model.json"), "--model-q", str(q / "model.json"),
             "--epsilon", "0.5", "--n-grid", "3,5,7", "--out", str(root / "exponent")],
            ["probe", "--alphabet-size", "2", "--window", "4", "--instances", "100",
             "--out", str(root / "probe")],
            ["dbar", "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
             "--window", "5", "--out", str(root / "dbar")],
        ]
        return light, heavy

    without, loaded = _run_fresh(*runs(tmp_path / "fresh"))
    assert without == []
    assert {"scipy.special", "scipy.optimize", "scipy.sparse"} <= set(loaded)
    pair0, pair_bin = ([MarkovModel.load(tmp_path / "fresh" / name / "model.json")
                        for name in names] for names in (("p0", "q0"), ("pb", "qb")))
    assert hypotest._table_engine(*pair0, 20) is hypotest._table_iid
    assert hypotest._table_engine(*pair_bin, 20) is hypotest._table_binary_chain

    import scipy.optimize  # noqa: F401  (the in-process runs find scipy loaded)
    import scipy.special  # noqa: F401
    for argv in sum(runs(tmp_path / "warm"), []):
        assert main(argv) == 0
    for name in ("p", "q", "score", "detect", "probe", "probe3", "dbar3", "p0", "q0",
                 "exponent_iid", "pb", "qb", "exponent_chain", "detect_chain", "exponent_mc",
                 "exponent", "dbar"):
        fresh, warm = snapshot(tmp_path / "fresh" / name), snapshot(tmp_path / "warm" / name)
        for files in (fresh, warm):  # it records the output path
            del files["resolved_config.json"]
        assert fresh == warm, name


def _tie_case():
    """A binary order-1 pair, a length and a sequence of its threshold class
    whose lrt_statistic lies one rounding below the exact threshold."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = chain_model(rng.dirichlet(np.ones(2), size=2))
        q = chain_model(rng.dirichlet(np.ones(2), size=2))
        n = int(rng.integers(20, 60))
        threshold = np_threshold(p, q, n, 0.1)
        for seed in range(300):
            seq = sample(q, n, seed)
            if (class_statistic(p, q, seq) == threshold
                    and lrt_statistic(p, q, seq) < threshold):
                return p, q, seq
    raise AssertionError("no threshold-class sequence below the threshold")


def test_detect_sends_a_threshold_class_tie_to_the_null(tmp_path):
    """The exact binary-chain table computes a class's statistic as counts
    times log rows and lrt_statistic sums per-token logs, so text of the
    threshold class can score one rounding below the threshold; detect ranks
    the text by its class statistic, and the tie goes to the null."""
    p, q, seq = _tie_case()
    for name, model in (("p", p), ("q", q)):
        model.alphabet, model.scheme = Alphabet(("a", "b")), "char"
        model.save(tmp_path / f"{name}.json")
    text = tmp_path / "tie.txt"
    text.write_text("".join("ab"[t] for t in seq.tokens.tolist()), encoding="utf-8")
    out = tmp_path / "det"
    assert main(["detect", "--model-p", str(tmp_path / "p.json"),
                 "--model-q", str(tmp_path / "q.json"), "--text", str(text),
                 "--epsilon", "0.1", "--out", str(out)]) == 0
    rec = load_json(out / "detect.json")
    assert rec["statistic"] < rec["threshold"]
    assert rec["verdict"] == "authentic"


def _save_three_letter_pair(tmp_path):
    """p.json and q.json: order-1 character models on three letters, which
    have an exact table only while 3**n fits the enumeration cap."""
    abc = Alphabet(("a", "b", "c"))
    for name, stay in (("p", 0.6), ("q", 0.4)):
        rows = np.full((3, 3), (1 - stay) / 2)
        np.fill_diagonal(rows, stay)
        model = chain_model(rows, alphabet=abc)
        model.scheme = "char"
        model.save(tmp_path / f"{name}.json")


def test_exponent_records_each_grid_point_engine(tmp_path):
    """Order-1 models on three letters have an exact table only while 3**n
    fits the enumeration cap: the per-point engines follow the sorted grid,
    the Monte Carlo point with no miss included."""
    _save_three_letter_pair(tmp_path)
    out = tmp_path / "exp"
    assert main(["exponent", "--model-p", str(tmp_path / "p.json"),
                 "--model-q", str(tmp_path / "q.json"), "--epsilon", "0.5",
                 "--n-grid", "400,12,3,7,5", "--trials", "1000", "--out", str(out)]) == 0
    rec = load_json(out / "exponent.json")
    assert rec["n_grid"] == [3, 5, 7, 12]
    assert rec["excluded"] == [400]
    assert rec["point_methods"] == ["exact", "exact", "exact", "mc", "mc"]
    assert len(rec["thresholds"]) == 5
    assert rec["method"] == "mixed"


def test_exponent_csv_pairs_each_n_with_its_own_threshold(tmp_path):
    """An excluded point in the middle of the grid shifts nothing: each
    exponent.csv row carries the threshold of its own n, read off the sorted
    input grid that ``thresholds`` follows."""
    for name, probs in (("p", [0.5, 0.5]), ("q", [0.8, 0.2])):
        model = iid_model(probs, alphabet=Alphabet(("a", "b")))
        model.scheme = "char"
        model.save(tmp_path / f"{name}.json")
    out = tmp_path / "exp"
    grid = [20, 24, 28, 32, 36, 40, 44]
    assert main(["exponent", "--model-p", str(tmp_path / "p.json"),
                 "--model-q", str(tmp_path / "q.json"), "--method", "mc", "--trials", "1000",
                 "--seed", "10", "--epsilon", "0.1", "--n-grid", ",".join(map(str, grid)),
                 "--out", str(out)]) == 0
    rec = load_json(out / "exponent.json")
    assert rec["excluded"] == [40]
    threshold = dict(zip(grid, rec["thresholds"]))
    rows = (out / "exponent.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == rec["n_grid"]
    for row in rows:
        n, thr, _ = row.split(",")
        assert float(thr) == threshold[int(n)]
    assert float(rows[-1].split(",")[1]) != threshold[40]


def test_exact_method_without_a_table_exits_2(tmp_path, capsys):
    """``--method exact`` where no exact table applies is a bad argument value."""
    _save_three_letter_pair(tmp_path)
    assert main(["exponent", "--model-p", str(tmp_path / "p.json"),
                 "--model-q", str(tmp_path / "q.json"), "--method", "exact",
                 "--n-grid", "40,80,160", "--out", str(tmp_path / "exp")]) == 2
    assert "no exact enumeration applies" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "7"])
def test_detect_refuses_too_few_monte_carlo_trials(tmp_path, capsys, trials):
    """At 40 tokens the three-letter pair has no exact table, so "auto"
    calibrates by Monte Carlo, which needs 1000 trials: exit 2, no verdict."""
    _save_three_letter_pair(tmp_path)
    text = tmp_path / "text.txt"
    text.write_text("abcacbbcaa" * 4, encoding="utf-8")
    out = tmp_path / "det"
    assert main(["detect", "--model-p", str(tmp_path / "p.json"),
                 "--model-q", str(tmp_path / "q.json"), "--text", str(text),
                 "--trials", trials, "--out", str(out)]) == 2
    assert "1000 trials" in capsys.readouterr().err
    assert not (out / "detect.json").exists()
