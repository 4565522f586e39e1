"""Processes whose mixing rate follows a prescribed growth function.

The mixing rate of a measure at horizon n is R(n) = the max row sum of the
unit-diagonal coefficient matrix Delta_n = I + [eta_bar of the length-n
prefix].  Given a valid rate r (integer, nondecreasing, 1 <= r(n) <= n), we
build one pure-row component per checkpoint k: build_process picks the
smallest horizon n_k and a constant row value h_k with

    1 - eps_k  <=  h_k * (n_k - k) / r(n_k)  <=  1,

and component k is the pure row-k measure on {0,1}^(n_k) with constant row
h_k.  One flip realizes a constant row: with v_{n_k} = (1 + h_k) / 2 and
v_t = 1/2 for k < t < n_k, every cell (k, t) is |2 v_{n_k} - 1| = h_k, which
is what the row solve finds.  h_k is always 1 (see build_process), so
component k is the copy X_{n_k} = X_k over iid fair bits.  The horizons are
nondecreasing in k, so one forward scan over n finds them all and the build
costs O(n_max + k_max).
Each component is kept in that flip-vector form
(:class:`~etamix.construction.PureRow`), whose prefix matrices are closed
form: cell (k, t) of the length-m prefix is TV(prod_{t<=s<=m} Bern(v_s), its
bit-flip mirror), which is 1 for t <= m = n_k and 0 for m < n_k.  Components
run in parallel, padded beyond their natural length by independent fair bits
that add nothing to any cell, and component k lives on row k (build_process
guarantees it), so no two add on one row: R(n) is 1 plus the largest
component row sum.  The audit reads each component's row (PureRow.row) and
builds neither an n-by-n array nor a 2^(n_k) measure: O(k_max * sum of n_k)
numpy work in all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import PureRow
from .measures import DEFAULT_STATE_CAP, StateCapExceeded


class HorizonTooSmall(ValueError):
    """No admissible checkpoint horizon within n_max; carries the fix, an
    n_max at which a rerun admits every checkpoint, named only within the
    rate-table cap."""

    def __init__(self, k: int, eps: float, n_max: int, required: int):
        self.k = k
        self.eps = eps
        self.n_max = n_max
        self.required_n_max = required
        fix = f"n_max >= {required} suffices"
        if required > DEFAULT_STATE_CAP:
            fix = f"the horizon it needs is past the {DEFAULT_STATE_CAP}-entry rate-table cap"
        super().__init__(f"no horizon <= {n_max} admits checkpoint k={k} at eps={eps}; {fix}")


@dataclass(frozen=True)
class RateFunction:
    """Tabulated integer rate r(1), ..., r(n_max)."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not self.values:
            raise ValueError("rate table is empty")

    @property
    def n_max(self) -> int:
        return len(self.values)

    def __call__(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside 1..{self.n_max}")
        return self.values[n - 1]

    @classmethod
    def from_callable(cls, fn, n_max: int) -> "RateFunction":
        if n_max > DEFAULT_STATE_CAP:
            raise StateCapExceeded(
                f"a rate table of {n_max} entries exceeds the state cap {DEFAULT_STATE_CAP}"
            )
        return cls(tuple(int(fn(n)) for n in range(1, n_max + 1)))

    @classmethod
    def sqrt(cls, n_max: int) -> "RateFunction":
        return cls.from_callable(lambda n: math.isqrt(n - 1) + 1, n_max)

    @classmethod
    def linear(cls, n_max: int) -> "RateFunction":
        return cls.from_callable(lambda n: n, n_max)

    @classmethod
    def constant(cls, c: int, n_max: int) -> "RateFunction":
        return cls.from_callable(lambda n: min(n, c), n_max)


def validate_rate(r: RateFunction) -> list[str]:
    """Violations of the validity conditions: 1 <= r(n) <= n, nondecreasing."""
    out = []
    for n, v in enumerate(r.values, start=1):
        if not 1 <= v <= n:
            out.append(f"r({n}) = {v} outside [1, {n}]")
    for n in range(2, r.n_max + 1):
        if r.values[n - 1] < r.values[n - 2]:
            out.append(f"r({n}) = {r.values[n - 1]} < r({n - 1}) = {r.values[n - 2]}")
    return out


def _admits(rn: int, n: int, k: int, eps: float) -> bool:
    """n admits checkpoint k: h (n - k) / r(n) = min(r(n), n - k) / r(n) >= 1 - eps."""
    return 1.0 - eps <= min(rn, n - k) / rn


def _horizon_bound(k: int, eps: float) -> int:
    """Least n admitting checkpoint k at the worst rate r(n) = n, so at every
    valid rate.  (n - k) / n grows with n: double, then halve the gap."""
    lo, hi = k, k + 1
    while not _admits(hi, hi, k, eps):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _admits(mid, mid, k, eps) else (mid, hi)
    return hi


@dataclass(frozen=True)
class Checkpoint:
    k: int
    eps: float
    n: int
    h: float


@dataclass(frozen=True, eq=False)
class TruncatedProcess:
    """Parallel family of pure-row components padded by independent fair bits.

    ``components[k-1]`` lives on {0,1}^(n_k) at its natural length; padding
    beyond n_k is implicit.
    """

    rate: RateFunction
    n_max: int
    checkpoints: tuple[Checkpoint, ...]
    components: tuple[PureRow, ...]

    @property
    def k_max(self) -> int:
        return len(self.components)


def _constant_row(n: int, k: int, h: float) -> PureRow:
    """Pure row k on {0,1}^n with every cell |2 v_n - 1| = h: one flip, at n."""
    return PureRow(n, k, (0.5,) * (n - k - 1) + ((1.0 + h) / 2.0,))


def build_process(
    r: RateFunction,
    k_max: int,
    n_max: int,
    eps: tuple[float, ...] | None = None,
) -> TruncatedProcess:
    """Assemble a process whose rate tracks r at k_max checkpoints.

    ``eps`` defaults to (1/2, 1/3, ..., 1/(k_max+1)) and must be strictly
    decreasing within (0, 1).  Checkpoint k takes the smallest horizon
    n_k > k with h_k * (n_k - k) / r(n_k) in [1 - eps_k, 1] for
    h_k = min(1, r(n_k) / (n_k - k)); a checkpoint no horizon <= n_max
    admits raises :class:`HorizonTooSmall`, naming :func:`_horizon_bound`
    for the last checkpoint as the fix.

    One forward scan finds every n_k.  If n admits k it admits k - 1:
    min(r, n - k + 1) / r >= min(r, n - k) / r, and 1 - eps_{k-1} <=
    1 - eps_k after rounding.  So n_k >= n_{k-1}, and the scan for k
    resumes at max(n_{k-1}, k + 1): O(n_max + k_max) steps in all.

    h_k is always 1.  At n = k+1, r(n) >= 1 = n - k.  If n is the first
    horizon with r(n) < n - k, then r(n-1) >= n-1-k and r is
    nondecreasing, so r(n-1) = n-1-k: horizon n-1 has ratio exactly 1 and
    admits k first.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if r.n_max < n_max:
        raise ValueError(f"rate table covers 1..{r.n_max}, need 1..{n_max}")
    bad = validate_rate(r)
    if bad:
        more = "" if len(bad) <= 8 else f" (+{len(bad) - 8} more)"
        raise ValueError("invalid rate: " + "; ".join(bad[:8]) + more)
    if eps is None:
        # checkpoint k needs a horizon n_k > k, so the loop below stops by
        # k = n_max at the latest
        eps = tuple(1.0 / (k + 1) for k in range(1, min(k_max, n_max) + 1))
    elif len(eps) != k_max:
        raise ValueError(f"need {k_max} eps values, got {len(eps)}")
    eps = tuple(float(e) for e in eps)
    if any(not 0.0 < e < 1.0 for e in eps):
        raise ValueError(f"eps values must lie in (0, 1), got {eps}")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"eps values must be strictly decreasing, got {eps}")

    checkpoints = []
    components = []
    n = 1
    for k, e in enumerate(eps, start=1):
        n = max(n, k + 1)
        while n <= n_max and not _admits(r.values[n - 1], n, k, e):
            n += 1
        if n > n_max:
            # the bound grows with k and as eps falls: a rerun's last checkpoint needs the most
            last = eps[-1] if len(eps) == k_max else 1 / (k_max + 1)
            raise HorizonTooSmall(k, e, n_max, _horizon_bound(k_max, last))
        h = min(1.0, r.values[n - 1] / (n - k))
        checkpoints.append(Checkpoint(k, e, n, h))
        components.append(_constant_row(n, k, h))
    return TruncatedProcess(r, n_max, tuple(checkpoints), tuple(components))


def delta_matrix(p: TruncatedProcess, n: int) -> np.ndarray:
    """Unit-diagonal coefficient matrix of the length-n prefix: the identity
    with each component's row, of its min(n, n_k) prefix, written into row k."""
    if not 1 <= n <= p.n_max:
        raise ValueError(f"n={n} outside 1..{p.n_max}")
    delta = np.eye(n)
    for c in p.components[: n - 1]:  # component k lives on row k < n
        m = min(n, c.n)
        delta[c.k - 1, c.k : m] = c.row(m)
    return delta


def rate_R(p: TruncatedProcess, n: int) -> float:
    """Mixing rate at horizon n: max row sum of the prefix Delta matrix."""
    if not 1 <= n <= p.n_max:
        raise ValueError(f"n={n} outside 1..{p.n_max}")
    return 1.0 + max(float(c.row(min(n, c.n)).sum()) for c in p.components)


@dataclass(frozen=True)
class CheckpointReport:
    """Checkpoint audit row.

    ``ratio`` compares the worst off-diagonal row sum of Delta at the
    checkpoint horizon against r(n_k); ``norm_ratio`` reports the companion
    convention that keeps the unit diagonal in the numerator.
    """

    k: int
    eps: float
    n: int
    h: float
    ratio: float
    norm_ratio: float
    passed: bool


def check_checkpoints(p: TruncatedProcess, tol: float = 1e-9) -> list[CheckpointReport]:
    """Audit every checkpoint: ratio must land in [1 - eps_k, 1 + tol]."""
    out = []
    for cp in p.checkpoints:
        big_r = rate_R(p, cp.n)
        rn = p.rate(cp.n)
        ratio = (big_r - 1.0) / rn
        out.append(
            CheckpointReport(
                cp.k, cp.eps, cp.n, cp.h, ratio, big_r / rn,
                1.0 - cp.eps <= ratio <= 1.0 + tol,
            )
        )
    return out
