#!/usr/bin/env python3
"""Sweep eta over a range and report the greedy orthogonal family size."""

import argparse
from fractions import Fraction

from unclab.rationals import parse_rational
from unclab.resolutions import explore_orthogonal_family


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--etas", type=str, default="1/2,3/5,3/4,7/8,1/1",
                    help="comma-separated rationals")
    ap.add_argument("--budget", type=int, default=64)
    ap.add_argument("--seeds", type=str, default="0,1,2")
    args = ap.parse_args()

    etas = [parse_rational(s) for s in args.etas.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]

    print(f"{'eta':>8} {'seed':>5} {'size':>5} {'pairwise_max':>14} {'evals':>6}  note")
    for eta in etas:
        for seed in seeds:
            rep = explore_orthogonal_family(eta, args.budget, seed)
            pm = rep["pairwise_max"]
            print(f"{str(eta):>8} {seed:>5} {len(rep['family']):>5} "
                  f"{str(pm) if pm is not None else '-':>14} "
                  f"{rep['evaluations']:>6}  {rep.get('note', '')}")
        # family size should not depend on seed order for the degenerate floor
        if eta <= Fraction(1, 2):
            print(f"{'':>8} (floor case: size capped at 1 regardless of seed)")


if __name__ == "__main__":
    main()
