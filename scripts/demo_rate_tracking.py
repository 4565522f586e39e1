"""Build a process tracking a prescribed mixing-rate profile and audit it.

Shows the checkpoint table (where each component locks the rate against the
profile) and the realized rate R(n) across all horizons, read off the
checkpoint horizons: R(n) = 1 + max{n_j - j : n_j <= n}, one pass over
n = 1..n_max and the checkpoints together.
"""
import argparse

from etamix import RateFunction, build_process, check_checkpoints


def make_rate(rate: str, n_max: int) -> RateFunction:
    if rate == "sqrt":
        return RateFunction.sqrt(n_max)
    if rate == "linear":
        return RateFunction.linear(n_max)
    if rate.startswith("const:"):
        return RateFunction.constant(int(rate.split(":", 1)[1]), n_max)
    raise SystemExit(f"unknown rate {rate!r} (sqrt, linear, const:<c>)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rate", default="sqrt", help="sqrt, linear, or const:<c>")
    ap.add_argument("--k-max", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=32)
    args = ap.parse_args()

    r = make_rate(args.rate, args.n_max)
    p = build_process(r, k_max=args.k_max, n_max=args.n_max)

    print(f"checkpoints ({args.rate} rate, k_max={args.k_max}, n_max={args.n_max}):")
    print("  k  eps_k   n_k  ratio    pass")
    for rep in check_checkpoints(p):
        print(
            f"  {rep.k}  {rep.eps:.3f}  {rep.n:3d}  "
            f"{rep.ratio:.4f}  {'yes' if rep.passed else 'NO'}"
        )

    print("\nrealized rate profile:")
    print("   n  r(n)  R(n)")
    cps, j, top = p.checkpoints, 0, 0
    for n in range(1, args.n_max + 1):
        while j < len(cps) and cps[j].n <= n:
            top = max(top, cps[j].n - cps[j].k)
            j += 1
        print(f"  {n:2d}  {r(n):4d}  {1 + top:.2f}")


if __name__ == "__main__":
    main()
