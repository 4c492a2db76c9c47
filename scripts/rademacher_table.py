#!/usr/bin/env python3
"""Pairwise bracket table for a level family of colour-coded sign vectors.

Builds one member per level with multiplicities n * k0^(m-l) so every
member has the same length, then prints the mutual bracket against the
per-pair bound. Everything exact; the table cells are Fractions.
"""

import argparse
import sys

from unclab.resolutions import (bracket, choose_multiplicities,
                                rademacher_bound, rademacher_family,
                                ris_condition)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k0", type=int, default=2)
    ap.add_argument("--m", type=int, default=3, help="number of levels")
    ap.add_argument("--n", type=int, default=1, help="top-level multiplicity")
    ap.add_argument("--ns", type=str, default=None,
                    help="comma-separated colour multiplicities; greedy if omitted")
    args = ap.parse_args()

    ns = (tuple(int(x) for x in args.ns.split(","))
          if args.ns else choose_multiplicities(args.k0))
    print(f"k0={args.k0} ns={ns} ris_condition={ris_condition(args.k0, ns)}")

    family = rademacher_family(args.k0, ns, args.n, args.m)
    labels = [f"R(n={args.n * args.k0 ** (args.m - l)},l={l})"
              for l in range(1, args.m + 1)]
    print("lengths:", [len(r) for r in family])
    print()

    # every directed bracket computed once (m * m of them); the
    # mutual bracket of a pair is the larger of its two directions
    directed = [[bracket(r, s)[0] for s in family] for r in family]
    mutual = [[max(directed[i][j], directed[j][i]) for j in range(args.m)]
              for i in range(args.m)]

    width = max(len(s) for s in labels) + 2
    header = " " * width + "".join(f"{lab:>{width}}" for lab in labels)
    print(header)
    for i in range(args.m):
        row = f"{labels[i]:>{width}}"
        for j in range(args.m):
            row += f"{str(mutual[i][j]):>{width}}"
        print(row)
    print()
    print("bounds (same-level on the diagonal):")
    for i in range(args.m):
        row = f"{labels[i]:>{width}}"
        for j in range(args.m):
            row += f"{str(rademacher_bound(args.k0, ns, i + 1, j + 1)):>{width}}"
        print(row)

    worst = max(mutual[i][j] /
                rademacher_bound(args.k0, ns, i + 1, j + 1)
                for i in range(args.m) for j in range(args.m))
    print(f"\nworst bracket/bound ratio: {worst} ({float(worst):.4f})")
    if worst > 1:
        sys.exit("a mutual bracket exceeds its bound")


if __name__ == "__main__":
    main()
