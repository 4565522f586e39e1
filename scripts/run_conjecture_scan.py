"""Random-measure scan of the open inequality between the two mixing gauges.

For each sampled measure the script compares half the summed gap
coefficients (lhs) against one plus the largest row sum of the coefficient
matrix (rhs) and reports any measure where lhs exceeds rhs.
"""
import argparse

import numpy as np

from etamix import conjecture_scan, random_measure
from etamix.fileio import write_scan


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", help="also write the rows as CSV")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    mus = [random_measure(args.q, args.n, rng=rng) for _ in range(args.count)]
    rows = conjecture_scan(mus)

    margins = [r.rhs - r.lhs for r in rows]
    bad = [r for r in rows if not r.satisfied]
    print(
        f"{args.count} measures (q={args.q}, n={args.n}, seed={args.seed}): "
        f"{len(bad)} violations"
    )
    print(f"margin rhs - lhs: min {min(margins):.4f}, "
          f"median {sorted(margins)[len(margins) // 2]:.4f}")
    for r in bad:
        print(f"  violation at measure {r.measure_id}: lhs={r.lhs} rhs={r.rhs}")

    if args.output:
        write_scan(args.output, rows)
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
