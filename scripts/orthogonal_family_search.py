#!/usr/bin/env python3
"""Sweep eta over a range and report the largest orthogonal family size."""

import argparse

from unclab.rationals import parse_rational
from unclab.resolutions import explore_orthogonal_family


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--etas", type=str, default="1/2,3/5,3/4,7/8,1/1",
                    help="comma-separated rationals")
    args = ap.parse_args()

    print(f"{'eta':>8} {'size':>5} {'pairwise_max':>14} {'evals':>6}  family / note")
    for eta in (parse_rational(s) for s in args.etas.split(",")):
        rep = explore_orthogonal_family(eta)
        pm = rep["pairwise_max"]
        print(f"{str(eta):>8} {len(rep['family']):>5} "
              f"{str(pm) if pm is not None else '-':>14} "
              f"{rep['evaluations']:>6}  {rep['note'] or ' '.join(rep['labels'])}")


if __name__ == "__main__":
    main()
