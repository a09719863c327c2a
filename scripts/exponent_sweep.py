"""Sweep the miss-probability decay slope across false-alarm budgets.

Reproduces the headline detection experiment: for a pair of token models,
fit -ln(miss) against sequence length at several budgets and compare each
slope to the divergence rate.  The strict budget 0.1 shows the systematic
finite-length deficit; 0.5 recovers the rate almost exactly.

    python3 scripts/exponent_sweep.py
    python3 scripts/exponent_sweep.py --epsilons 0.05,0.5 --n-grid 100,200,400,800
    python3 scripts/exponent_sweep.py --chain-seed 2026
"""
import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from markovdetect.hypotest import METHODS, exponent_fit
from markovdetect.markov import chain_model, iid_model
from markovdetect.util import spawn_rng


def parse_floats(text):
    return [float(x) for x in text.split(",") if x.strip()]


def parse_ints(text):
    return [int(x) for x in text.split(",") if x.strip()]


def make_pair(args):
    if args.chain_seed is not None:
        rng = spawn_rng(args.chain_seed, 3)
        draw = lambda: chain_model(np.vstack([rng.dirichlet(np.ones(2))
                                              for _ in range(2)]))
        return draw(), draw(), f"random binary chains (seed {args.chain_seed})"
    p = parse_floats(args.p)
    q = parse_floats(args.q)
    return iid_model(p), iid_model(q), f"iid {p} vs {q}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", default="0.5,0.5", help="null letter weights")
    ap.add_argument("--q", default="0.9,0.1", help="alternative letter weights")
    ap.add_argument("--chain-seed", type=int, default=None,
                    help="draw a random order-1 binary pair instead")
    ap.add_argument("--epsilons", type=parse_floats, default=[0.1, 0.25, 0.5])
    ap.add_argument("--n-grid", type=parse_ints, default=[50, 100, 200, 400])
    ap.add_argument("--method", choices=METHODS, default="exact")
    ap.add_argument("--trials", type=int, default=100_000,
                    help="calibration samples when method=mc")
    ap.add_argument("--out", type=Path, default=None,
                    help="optional JSON file for the sweep results")
    args = ap.parse_args()

    p_model, q_model, label = make_pair(args)
    print(f"pair: {label}")
    print(f"lengths: {args.n_grid}   method: {args.method}")
    print(f"{'epsilon':>8} {'slope':>10} {'rate':>10} {'gap':>8}")
    records = []
    for eps in args.epsilons:
        fit = exponent_fit(p_model, q_model, eps, args.n_grid,
                           trials=args.trials, method=args.method)
        gap = abs(fit.slope - fit.theory) / fit.theory
        print(f"{eps:>8.3f} {fit.slope:>10.6f} {fit.theory:>10.6f} {gap:>7.2%}")
        records.append(fit.to_json())
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
