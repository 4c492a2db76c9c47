#!/usr/bin/env python3
# Walk the built-in parameter ladder and print each rung's certificate.
# --rung N also prints that rung's full certificate with its witnesses;
# --json dumps the serialized reports instead of the table.

import argparse
import json

from unclab.elton import elton_ladder
from unclab.serialize import to_jsonable


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rung", type=int, default=None,
                    help="print this rung (0-based) in full, with witnesses")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rungs = elton_ladder()
    if args.json:
        print(json.dumps(to_jsonable(rungs), indent=2, sort_keys=True))
        return

    cols = ["n1", "n2", "K", "ratio_case", "ratio_lower", "verification"]
    rows = []
    for r in rungs:
        p = r["params"]
        rows.append([str(p.n1), str(p.n2), str(p.K), str(r["ratio_case"]),
                     str(r.get("ratio_lower", "-")), r["verification"]])
    widths = [max(len(c), *(len(row[i]) for row in rows))
              for i, c in enumerate(cols)]
    print("  ".join(c.ljust(widths[i]) for i, c in enumerate(cols)))
    for row in rows:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(cols))))

    ratios = [r["ratio_case"] for r in rungs]
    print("\nmonotone:", all(a < b for a, b in zip(ratios, ratios[1:])))

    if args.rung is not None:
        print(f"\nrung {args.rung} full certificate:")
        print(json.dumps(to_jsonable(rungs[args.rung]), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
