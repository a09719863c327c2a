"""Chart the divergence-to-squared-transport ratio over random law pairs.

For each window size, samples distribution pairs, solves the exact transport
problem, and reports the largest KL / dbar^2 ratio seen, with the boundary
-biased sampler pushing mass toward the simplex edges where the ratio blows
up.  Each run's report goes to probe_w<m>_<sampler>.json, as ``markovdetect
probe`` writes probe.json, and its scatter CSV, which feeds straight into
gnuplot, to scatter_w<m>_<sampler>.csv.

    python3 scripts/ratio_probe_sweep.py
    python3 scripts/ratio_probe_sweep.py --windows 1,2,3,4 --instances 5000
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from markovdetect.bounds_lab import SAMPLERS, divergence_transport_probe


def parse_ints(text):
    return [int(x) for x in text.split(",") if x.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphabet-size", type=int, default=2)
    ap.add_argument("--windows", type=parse_ints, default=[1, 2, 3])
    ap.add_argument("--instances", type=int, default=1_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", type=Path, default=Path("runs/probe_sweep"))
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'window':>6} {'sampler':>18} {'sup ratio':>10} {'excluded':>9} "
          f"{'violations':>10}")
    for m in args.windows:
        for sampler in sorted(SAMPLERS):
            rep = divergence_transport_probe(args.alphabet_size, m,
                                             args.instances, sampler=sampler,
                                             seed=args.seed)
            print(f"{m:>6} {sampler:>18} {rep.sup_ratio:>10.4f} "
                  f"{rep.excluded:>9} {rep.violations:>10}")
            name = f"w{m}_{sampler.replace('-', '_')}"
            rep.write(args.out_dir / f"probe_{name}.json", args.out_dir / f"scatter_{name}.csv")
    print(f"wrote probe reports and scatter files to {args.out_dir}")


if __name__ == "__main__":
    main()
