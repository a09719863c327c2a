"""Smoke runs of the experiment scripts at toy size, each in a fresh interpreter."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, outputs", [
    ("exponent_sweep.py", ["--epsilons", "0.5", "--n-grid", "20,40,80", "--out", "e.json"],
     ["e.json"]),
    ("ratio_probe_sweep.py", ["--windows", "1,2", "--instances", "100", "--out-dir", "probe"],
     [f"probe/scatter_w{w}_{s}.csv" for w in (1, 2)
      for s in ("boundary_biased", "dirichlet_uniform")]),
    ("fitting_bound_sweep.py", ["--m-grid", "1000,2000", "--rate-exponent", "0.17",
                                "--n-windows", "200", "--bootstrap", "4", "--window", "4",
                                "--out", "f.json"], ["f.json"]),
])
def test_script_runs_and_writes_its_output(tmp_path, script, args, outputs):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in outputs:
        text = (tmp_path / name).read_text(encoding="utf-8")
        if name.endswith(".json"):
            assert json.loads(text)
        else:
            assert len(text.splitlines()) > 1


def test_train_scale_times_a_fresh_train(tmp_path):
    """The script trains on a corpus of exactly ``--chars`` characters that
    visits all 17**2 order-2 contexts, and reports the child's time and peak
    memory."""
    done = subprocess.run([sys.executable, str(SCRIPTS / "train_scale.py"), "--chars", "20000",
                           "--seed", "3", "--out", "s.json"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
    assert record["tokens"] == 20000
    assert record["distinct_contexts"] == 17 ** 2
    assert record["seconds"] > 0 and record["peak_rss_mb"] > 0
    assert "train --order 2 on 20000 characters" in done.stdout


def test_train_scale_times_a_fresh_word_train(tmp_path):
    """Under ``--scheme word`` the script trains on ``--words`` Zipf words
    over at most ``--vocab`` distinct ones, and reports the model's bytes."""
    done = subprocess.run([sys.executable, str(SCRIPTS / "train_scale.py"), "--scheme", "word",
                           "--vocab", "40", "--words", "3000", "--order", "1", "--seed", "3",
                           "--out", "w.json"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "w.json").read_text(encoding="utf-8"))
    assert record["tokens"] == record["words"] == 3000
    assert record["scheme"] == "word" and record["order"] == 1 and record["vocab"] == 40
    assert 2 <= record["alphabet_size"] <= 40
    assert record["model_bytes"] > 0 and record["seconds"] > 0
    assert "train --order 1 on 3000 words" in done.stdout


def test_detect_scale_times_a_fresh_detect(tmp_path):
    """The script runs detect on a document of exactly ``--chars`` characters
    from the null chain of its trained pair, and reports the child's time and
    peak memory."""
    done = subprocess.run([sys.executable, str(SCRIPTS / "detect_scale.py"), "--chars", "300",
                           "--seed", "3", "--out", "d.json"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "d.json").read_text(encoding="utf-8"))
    assert record["tokens"] == 300
    assert record["verdict"] in ("authentic", "generated")
    assert record["seconds"] > 0 and record["peak_rss_mb"] > 0
    assert "detect on 300 characters" in done.stdout


def test_dbar_scale_times_a_fresh_dbar_on_both_pairs(tmp_path):
    """The script solves the Dirichlet and the product-law pair on the 2^4
    cube, each in a child, and reports the engine, time and peak memory."""
    done = subprocess.run([sys.executable, str(SCRIPTS / "dbar_scale.py"), "--window", "4",
                           "--seed", "3", "--out", "d.json"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "d.json").read_text(encoding="utf-8"))
    assert record["window"] == 4 and [r["law"] for r in record["runs"]] == ["dirichlet", "product"]
    for run in record["runs"]:
        assert run["engine"] == "hamming-flow"
        assert 0 < run["value"] < 1 and run["seconds"] > 0 and run["peak_rss_mb"] > 0
    assert "dbar on the product pair at window 4: hamming-flow" in done.stdout


def test_table_scale_times_a_fresh_exact_exponent(tmp_path):
    """The script fits the benchmark's binary-chain pair on the grid N/4,
    N/2, N by the exact lattice in a child, and reports the engine, time and
    peak memory."""
    done = subprocess.run([sys.executable, str(SCRIPTS / "table_scale.py"), "--n", "64",
                           "--out", "t.json"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))
    assert record["n_grid"] == [16, 32, 64] and record["engine"] == "exact"
    assert record["slope"] > 0 and record["seconds"] > 0 and record["peak_rss_mb"] > 0
    assert "exponent on the chain pair at n = 16,32,64: exact" in done.stdout


def test_table_scale_times_the_iid_pair_and_refuses_a_grid_past_the_cap(tmp_path):
    """``--pair iid`` fits the benchmark's 3-symbol i.i.d. pair by the exact
    lattice, and refuses an N whose C(N + 2, 2) classes exceed
    IID_LATTICE_CAP (N = 893) before starting a child."""
    script = [sys.executable, str(SCRIPTS / "table_scale.py"), "--pair", "iid"]
    done = subprocess.run([*script, "--n", "40", "--out", "t.json"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))
    assert record["n_grid"] == [10, 20, 40] and record["engine"] == "exact"
    assert record["slope"] > 0 and record["seconds"] > 0 and record["peak_rss_mb"] > 0
    assert "exponent on the iid pair at n = 10,20,40: exact" in done.stdout
    refused = subprocess.run([*script, "--n", "893"], cwd=tmp_path,
                             capture_output=True, text=True, timeout=60)
    assert refused.returncode == 2 and "--n must lie in 12..892 on the iid pair" in refused.stderr
