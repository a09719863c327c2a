"""Time a fresh-process ``markovdetect train --order 2`` on a large corpus.

Writes a seeded order-2 character corpus of ``--chars`` characters over 16
letters and a space, then runs ``markovdetect train --order 2 --smoothing
0.01`` on it in a child interpreter and prints the child's wall time and peak
resident memory (``getrusage(RUSAGE_CHILDREN)``).  Generating the corpus is
not timed.

    python3 scripts/train_scale.py
    python3 scripts/train_scale.py --chars 200000 --seed 3 --out scale.json
"""
import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SYMBOLS = b"abcdefghijklmnop "
STRAND_LEN = 1000


def order2_corpus(chars: int, seed: int) -> str:
    """``chars`` characters of a random order-2 chain, run as independent
    strands of ``STRAND_LEN`` characters side by side and then concatenated.
    Rows are Dirichlet(2) mixed with a uniform floor, so every context is
    reachable."""
    a = len(SYMBOLS)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(0.9 * rng.dirichlet(np.full(a, 2.0), size=a * a) + 0.1 / a, axis=1)
    cdf[:, -1] = 1.0
    strands = -(-chars // STRAND_LEN)
    out = np.empty((STRAND_LEN, strands), dtype=np.uint8)
    out[:2] = rng.integers(0, a, size=(2, strands))
    for t in range(2, STRAND_LEN):
        ctx = out[t - 2].astype(np.int64) * a + out[t - 1]
        out[t] = (rng.random(strands)[:, None] >= cdf[ctx]).sum(axis=1)
    codes = out.T.reshape(-1)[:chars]
    return np.frombuffer(SYMBOLS, dtype=np.uint8)[codes].tobytes().decode("ascii")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chars", type=int, default=10_200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="optional JSON file for the timing")
    args = ap.parse_args()
    if args.chars < 2:
        ap.error("--chars must be at least 2")

    with tempfile.TemporaryDirectory() as work:
        corpus = Path(work) / "corpus.txt"
        corpus.write_text(order2_corpus(args.chars, args.seed), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "markovdetect", "train", "--input", str(corpus),
                "--order", "2", "--smoothing", "0.01", "--out", str(Path(work) / "model")]
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        if done.returncode:
            sys.exit(f"train exited {done.returncode}: {done.stderr.strip()}")
        summary = json.loads((Path(work) / "model" / "train_summary.json").read_text())
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    record = {"chars": args.chars, "seed": args.seed, "tokens": summary["tokens"],
              "distinct_contexts": summary["distinct_contexts"],
              "seconds": seconds, "peak_rss_mb": peak_mb}
    print(f"train --order 2 on {args.chars} characters: {seconds:.2f} s, "
          f"peak RSS {peak_mb:.0f} MB ({summary['distinct_contexts']} contexts)")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
