"""Time a fresh-process exact ``markovdetect exponent`` on a lattice.

Writes a pair of the benchmark's exponent-exact workload, by default the
binary-chain one (rows [[0.7, 0.3], [0.4, 0.6]] against the fair coin), with
``--pair iid`` the 3-symbol i.i.d. one ([0.5, 0.3, 0.2] against
[0.4, 0.4, 0.2]).  It then runs ``markovdetect exponent --method exact
--epsilon 0.5`` on the grid N/4, N/2, N of ``--n N`` in a child interpreter,
and prints the engine that answered, the child's wall time and its peak
resident memory (``os.wait4`` of that child).  The largest table is the one
at N; the chain lattice takes N up to 2048, the i.i.d. one N up to 892,
where its C(N + 2, 2) classes still fit ``IID_LATTICE_CAP``.  N defaults
to the largest.  Writing the models is not timed.

    python3 scripts/table_scale.py
    python3 scripts/table_scale.py --n 256 --out scale.json
    python3 scripts/table_scale.py --pair iid --n 200
"""
import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from train_scale import SRC, run_cli, write_record

sys.path.insert(0, str(SRC))

from markovdetect.hypotest import CHAIN_LATTICE_NMAX, IID_LATTICE_CAP  # noqa: E402
from markovdetect.markov import chain_model, iid_model  # noqa: E402

# each pair: its model maker, its (p, q) masses and the largest N its lattice takes
PAIRS = {
    "chain": (chain_model, ([[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.5, 0.5]]),
              CHAIN_LATTICE_NMAX),
    "iid": (iid_model, ([0.5, 0.3, 0.2], [0.4, 0.4, 0.2]),
            max(n for n in range(math.isqrt(2 * IID_LATTICE_CAP))
                if math.comb(n + 2, 2) <= IID_LATTICE_CAP)),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pair", choices=sorted(PAIRS), default="chain")
    ap.add_argument("--n", type=int, default=None, help="largest length (default: the largest "
                    "the pair's lattice takes)")
    ap.add_argument("--out", type=Path, default=None,
                    help="optional JSON file for the timing")
    args = ap.parse_args()
    make, masses, n_max = PAIRS[args.pair]
    if args.n is None:
        args.n = n_max
    if not 12 <= args.n <= n_max:
        ap.error(f"--n must lie in 12..{n_max} on the {args.pair} pair")
    grid = [args.n // 4, args.n // 2, args.n]
    grid_text = ",".join(map(str, grid))

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for name, rows in zip("pq", masses):
            make(rows).save(work / f"{name}.json")
        seconds, peak_mb = run_cli(["exponent", "--model-p", str(work / "p.json"),
                                    "--model-q", str(work / "q.json"), "--method", "exact",
                                    "--epsilon", "0.5", "--n-grid", grid_text,
                                    "--out", str(work / "exponent")], work)
        fit = json.loads((work / "exponent" / "exponent.json").read_text())
    record = {"n_grid": grid, "engine": fit["method"], "slope": fit["slope"],
              "seconds": seconds, "peak_rss_mb": peak_mb}
    print(f"exponent on the {args.pair} pair at n = {grid_text}: {fit['method']}, "
          f"{seconds:.2f} s, peak RSS {peak_mb:.0f} MB")
    write_record(args.out, record)


if __name__ == "__main__":
    main()
