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
