"""Time a fresh-process exact ``markovdetect exponent`` on the binary-chain lattice.

Writes the binary-chain pair of the benchmark's exponent-exact workload
(rows [[0.7, 0.3], [0.4, 0.6]] against the fair coin), then runs
``markovdetect exponent --method exact --epsilon 0.5`` on the grid N/4, N/2,
N of ``--n N`` in a child interpreter, and prints the engine that answered,
the child's wall time and its peak resident memory (``os.wait4`` of that
child).  The largest table is the one at N; the lattice takes N up to 2048.
Writing the models is not timed.

    python3 scripts/table_scale.py
    python3 scripts/table_scale.py --n 256 --out scale.json
"""
import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from detect_scale import _run
from train_scale import SRC

sys.path.insert(0, str(SRC))

from markovdetect.hypotest import CHAIN_LATTICE_NMAX  # noqa: E402
from markovdetect.markov import chain_model  # noqa: E402

PAIR = {"p": [[0.7, 0.3], [0.4, 0.6]], "q": [[0.5, 0.5], [0.5, 0.5]]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=CHAIN_LATTICE_NMAX)
    ap.add_argument("--out", type=Path, default=None,
                    help="optional JSON file for the timing")
    args = ap.parse_args()
    if not 12 <= args.n <= CHAIN_LATTICE_NMAX:
        ap.error(f"--n must lie in 12..{CHAIN_LATTICE_NMAX}")
    grid = [args.n // 4, args.n // 2, args.n]
    grid_text = ",".join(map(str, grid))

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for name, rows in PAIR.items():
            chain_model(rows).save(work / f"{name}.json")
        argv = [sys.executable, "-m", "markovdetect", "exponent",
                "--model-p", str(work / "p.json"), "--model-q", str(work / "q.json"),
                "--method", "exact", "--epsilon", "0.5",
                "--n-grid", grid_text, "--out", str(work / "exponent")]
        seconds, peak_mb = _run(argv, env, work / "exponent.log")
        fit = json.loads((work / "exponent" / "exponent.json").read_text())
    record = {"n_grid": grid, "engine": fit["method"], "slope": fit["slope"],
              "seconds": seconds, "peak_rss_mb": peak_mb}
    print(f"exponent on the chain pair at n = {grid_text}: {fit['method']}, {seconds:.2f} s, "
          f"peak RSS {peak_mb:.0f} MB")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
