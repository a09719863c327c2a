"""Time a fresh-process ``markovdetect dbar`` on the binary word cube.

Writes two pairs of laws on the 2^m binary words of ``--window m``: a
Dirichlet(1) pair, and a product-law pair whose letters are i.i.d. under each
law (two Dirichlet(1) letter laws drawn from the seed), whose many tied
masses make the flow LP degenerate.  Each pair is solved by ``markovdetect
dbar`` in a child interpreter, and the script prints the engine that
answered, the child's wall time and its peak resident memory (``os.wait4``
of that child).  Writing the laws is not timed.

    python3 scripts/dbar_scale.py
    python3 scripts/dbar_scale.py --window 8 --seed 3 --out scale.json
"""
import argparse
import json
import tempfile
from pathlib import Path

import numpy as np

from train_scale import run_cli, write_record

MAX_WINDOW = 12  # 2**12 words, the exact-transport atom cap


def law_pairs(window: int, seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The Dirichlet(1) pair and the product-law pair on the 2**window words,
    in lexicographic word order."""
    rng = np.random.default_rng(seed)
    dirichlet = rng.dirichlet(np.ones(2 ** window), size=2)
    letters = rng.dirichlet(np.ones(2), size=2)
    product = np.ones((2, 1))
    for _ in range(window):
        product = (product[:, :, None] * letters[:, None, :]).reshape(2, -1)
    return {"dirichlet": tuple(dirichlet), "product": tuple(product)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--window", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="optional JSON file for the timings")
    args = ap.parse_args()
    if not 1 <= args.window <= MAX_WINDOW:
        ap.error(f"--window must lie in 1..{MAX_WINDOW}")

    runs = []
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for law, (mu, nu) in law_pairs(args.window, args.seed).items():
            for name, weights in (("mu", mu), ("nu", nu)):
                (work / f"{name}.json").write_text(json.dumps(weights.tolist()), encoding="utf-8")
            seconds, peak_mb = run_cli(["dbar", "--mu", str(work / "mu.json"),
                                        "--nu", str(work / "nu.json"),
                                        "--window", str(args.window), "--alphabet-size", "2",
                                        "--out", str(work / law)], work)
            result = json.loads((work / law / "dbar.json").read_text())
            runs.append({"law": law, "engine": result["engine"], "value": float(result["value"]),
                         "seconds": seconds, "peak_rss_mb": peak_mb})
            print(f"dbar on the {law} pair at window {args.window}: {result['engine']}, "
                  f"{seconds:.2f} s, peak RSS {peak_mb:.0f} MB")
    write_record(args.out, {"window": args.window, "seed": args.seed, "runs": runs})


if __name__ == "__main__":
    main()
