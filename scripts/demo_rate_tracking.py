"""Build a process tracking a prescribed mixing-rate profile and audit it.

Shows the checkpoint table (where each component locks the rate against the
profile) and the realized rate R(n) across all horizons, read off the
checkpoint horizons: R(n) = 1 + max{n_j - j : n_j <= n}, one pass over
n = 1..n_max and the checkpoints together.
"""
import argparse
from dataclasses import dataclass

from etamix import RateFunction, build_process, check_checkpoints


@dataclass
class Config:
    rate: str = "sqrt"
    k_max: int = 5
    n_max: int = 32


def make_rate(cfg: Config) -> RateFunction:
    if cfg.rate == "sqrt":
        return RateFunction.sqrt(cfg.n_max)
    if cfg.rate == "linear":
        return RateFunction.linear(cfg.n_max)
    if cfg.rate.startswith("const:"):
        return RateFunction.constant(int(cfg.rate.split(":", 1)[1]), cfg.n_max)
    raise SystemExit(f"unknown rate {cfg.rate!r} (sqrt, linear, const:<c>)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rate", default="sqrt", help="sqrt, linear, or const:<c>")
    ap.add_argument("--k-max", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=32)
    args = ap.parse_args()
    cfg = Config(rate=args.rate, k_max=args.k_max, n_max=args.n_max)

    r = make_rate(cfg)
    p = build_process(r, k_max=cfg.k_max, n_max=cfg.n_max)

    print(f"checkpoints ({cfg.rate} rate, k_max={cfg.k_max}, n_max={cfg.n_max}):")
    print("  k  eps_k   n_k  ratio    pass")
    for rep in check_checkpoints(p):
        print(
            f"  {rep.k}  {rep.eps:.3f}  {rep.n:3d}  "
            f"{rep.ratio:.4f}  {'yes' if rep.passed else 'NO'}"
        )

    print("\nrealized rate profile:")
    print("   n  r(n)  R(n)")
    cps, j, top = p.checkpoints, 0, 0
    for n in range(1, cfg.n_max + 1):
        while j < len(cps) and cps[j].n <= n:
            top = max(top, cps[j].n - cps[j].k)
            j += 1
        print(f"  {n:2d}  {r(n):4d}  {1 + top:.2f}")


if __name__ == "__main__":
    main()
