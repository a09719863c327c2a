"""End-to-end command tests: each one drives ``cli.main`` in-process."""
import json
import math

import pytest

from markovdetect.cli import main
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
    assert rec["engine"] == "simplex"
    csv = (out / "coupling.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "atom_x,atom_y,mass"
    first = snapshot(out)
    assert main(args) == 0
    assert snapshot(out) == first


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


def test_exit_code_io_failure(tmp_path, capsys):
    assert main(["score", "--model", str(tmp_path / "nope.json"),
                 "--text", str(tmp_path / "also-nope.txt")]) == 3
    assert "i/o error" in capsys.readouterr().err


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
