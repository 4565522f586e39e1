"""Processes whose mixing rate follows a prescribed growth function.

The mixing rate of a measure at horizon n is R(n) = the max row sum of the
unit-diagonal coefficient matrix Delta_n = I + [eta_bar of the length-n
prefix].  Given a valid rate r (integer, nondecreasing, 1 <= r(n) <= n),
a :class:`RateFunction` table or a :class:`BuiltinRate` formula,
build_process picks, for each checkpoint k, the smallest horizon n_k with

    1 - eps_k  <=  min(r(n_k), n_k - k) / r(n_k)  <=  1,

which is h (n_k - k) / r(n_k) for the largest constant row value
h = min(1, r(n_k) / (n_k - k)) that keeps it <= 1.  As h is always 1 (see
build_process), component k is the copy X_{n_k} = X_k over iid fair bits,
and the checkpoint table is the whole process: ``components`` builds each
copy when read, a :class:`~etamix.construction.PureRow` on {0,1}^(n_max)
whose one flip is (n_k, 1), so the components form a product measure.

Component k lives on row k, so no two add on one row.  Row k of the
length-m prefix is zero for m < n_k and n_k - k ones from n_k on, so R(n)
is 1 plus the largest n_j - j over horizons n_j <= n.  check_checkpoints
reads that off the table in one pass; rate_R and delta_matrix read the
components' rows and are its test oracles.  Only those and ``components``
load numpy and the construction engine, so building and auditing a
process is pure Python.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import HorizonTooSmall, summarize

if TYPE_CHECKING:
    import numpy as np

    from .construction import PureRow


@dataclass(frozen=True)
class RateFunction:
    """Tabulated integer rate r(1), ..., r(n_max), checked when built: a float
    or a string is a TypeError (numpy integers pass), and a value outside
    [1, n] or a decrease a ValueError naming the first 8 violations."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(operator.index, self.values)))
        if not self.values:
            raise ValueError("rate table is empty")
        shown = summarize(_rate_violations(self.values), lambda v: v[0].format(*v[1]))
        if shown:
            raise ValueError("invalid rate: " + shown)

    @property
    def n_max(self) -> int:
        return len(self.values)

    def __call__(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside 1..{self.n_max}")
        return self.values[n - 1]


@dataclass(frozen=True)
class BuiltinRate:
    """Builtin rate on 1..n_max, computed when called: ``linear`` is n, ``sqrt``
    isqrt(n - 1) + 1 and ``const`` min(n, c) for an integer c >= 1.  Each lies
    in [1, n] and steps by 0 or 1, so it is valid by construction."""

    name: str
    n_max: int
    c: int = 1

    def __post_init__(self) -> None:
        if self.name not in ("sqrt", "linear", "const"):
            raise ValueError(f"unknown builtin rate {self.name!r}")
        object.__setattr__(self, "c", operator.index(self.c))
        if self.c < 1:
            raise ValueError(f"const rate value must be >= 1, got {self.c}")

    def __call__(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside 1..{self.n_max}")
        if self.name == "sqrt":
            return math.isqrt(n - 1) + 1
        return n if self.name == "linear" else min(n, self.c)


def _rate_violations(values: tuple[int, ...]):
    """Each violated validity condition as an unformatted (template, fields)
    pair, so a caller can format a few and count the rest."""
    for n, v in enumerate(values, start=1):
        if not 1 <= v <= n:
            yield "r({}) = {} outside [1, {}]", (n, v, n)
    for n in range(2, len(values) + 1):
        if values[n - 1] < values[n - 2]:
            yield "r({}) = {} < r({}) = {}", (n, values[n - 1], n - 1, values[n - 2])


def _admits(rn: int, n: int, k: int, eps: float) -> bool:
    """n admits checkpoint k: min(r(n), n - k) / r(n) >= 1 - eps."""
    return 1.0 - eps <= min(rn, n - k) / rn


def _gallop(r, k: int, eps: float, n: int, n_max) -> int:
    """Least horizon in [n, n_max] admitting checkpoint k, else n_max + 1, on
    a rate that steps by at most 1 (see build_process): double the step, then
    halve the gap (Bentley & Yao 1976), in fewer than 2 log2(n_max) + 1 calls."""
    lo, hi = n - 1, n
    while hi > n_max or not _admits(r(hi), hi, k, eps):
        if hi >= n_max:
            return n_max + 1
        lo, hi = hi, min(3 * hi - 2 * lo, n_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _admits(r(mid), mid, k, eps) else (mid, hi)
    return hi


@dataclass(frozen=True)
class Checkpoint:
    k: int
    eps: float
    n: int


@dataclass(frozen=True, eq=False)
class TruncatedProcess:
    """Parallel product of copy components, held as its checkpoint table."""

    rate: RateFunction | BuiltinRate
    n_max: int
    checkpoints: tuple[Checkpoint, ...]

    @property
    def k_max(self) -> int:
        return len(self.checkpoints)

    @functools.cached_property
    def components(self) -> tuple[PureRow, ...]:
        """``components[k-1]``: the copy X_{n_k} = X_k on {0,1}^(n_max), built when read."""
        from .construction import PureRow

        return tuple(PureRow(self.n_max, cp.k, ((cp.n, 1.0),)) for cp in self.checkpoints)


def build_process(
    r: RateFunction | BuiltinRate,
    k_max: int,
    n_max: int,
    eps: tuple[float, ...] | None = None,
) -> TruncatedProcess:
    """Assemble a process whose rate tracks r at k_max checkpoints.

    ``eps`` defaults to 1/(k + 1) at checkpoint k and must be strictly
    decreasing within (0, 1).  Checkpoint k takes the smallest horizon
    n_k > k with h_k * (n_k - k) / r(n_k) in [1 - eps_k, 1] for
    h_k = min(1, r(n_k) / (n_k - k)); a checkpoint no horizon <= n_max
    admits raises :class:`HorizonTooSmall`, naming as the fix the least
    n_max at which r(n) = n, the worst rate, admits the last checkpoint.

    If n admits k it admits k - 1: min(r, n - k + 1) / r >= min(r, n - k) / r,
    and 1 - eps_{k-1} <= 1 - eps_k after rounding.  So n_k >= n_{k-1}, and
    the search for k starts at max(n_{k-1}, k + 1): a table's scan takes
    O(n_max + k_max) steps in all.  A builtin steps by at most 1, so n + 1
    admits k if n does: the ratio stays 1 once r(n) <= n - k, and before
    that (n - k) / r(n) gains 1 above and 0 or 1 below, so it grows, and
    correctly rounded division keeps that order: a gallop is exact.

    h_k is always 1.  At n = k+1, r(n) >= 1 = n - k.  If n is the first
    horizon with r(n) < n - k, then r(n-1) >= n-1-k and r is
    nondecreasing, so r(n-1) = n-1-k: horizon n-1 has ratio exactly 1 and
    admits k first.  So component k is the copy X_{n_k} = X_k.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if r.n_max < n_max:
        raise ValueError(f"rate table covers 1..{r.n_max}, need 1..{n_max}")
    if eps is not None:
        if len(eps) != k_max:
            raise ValueError(f"need {k_max} eps values, got {len(eps)}")
        eps = tuple(float(e) for e in eps)
        if any(not 0.0 < e < 1.0 for e in eps):
            raise ValueError(f"eps values must lie in (0, 1), got {eps}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError(f"eps values must be strictly decreasing, got {eps}")
    checkpoints, n = [], 1
    for k in range(1, k_max + 1):
        e = 1.0 / (k + 1) if eps is None else eps[k - 1]
        n = max(n, k + 1)  # n_k > k, so this stops by k = n_max at the latest
        if isinstance(r, RateFunction):  # a table that steps by 2 can lose k again: scan
            while n <= n_max and not _admits(r.values[n - 1], n, k, e):
                n += 1
        else:
            n = _gallop(r, k, e, n, n_max)
        if n > n_max:
            # the fix grows with k and as eps falls: a rerun's last checkpoint needs the most
            last = 1 / (k_max + 1) if eps is None else eps[-1]
            fix = _gallop(lambda m: m, k_max, last, k_max + 1, math.inf)
            raise HorizonTooSmall(k, e, n_max, fix)
        checkpoints.append(Checkpoint(k, e, n))
    return TruncatedProcess(r, n_max, tuple(checkpoints))


def delta_matrix(p: TruncatedProcess, n: int) -> np.ndarray:
    """Unit-diagonal coefficient matrix of the length-n prefix: I plus each component's row."""
    if not 1 <= n <= p.n_max:
        raise ValueError(f"n={n} outside 1..{p.n_max}")
    import numpy as np

    delta = np.eye(n)
    for c in p.components[: n - 1]:  # component k lives on row k < n
        delta[c.k - 1, c.k :] = c.row(n)
    return delta


def rate_R(p: TruncatedProcess, n: int) -> float:
    """Mixing rate at horizon n: max row sum of the prefix Delta matrix."""
    if not 1 <= n <= p.n_max:
        raise ValueError(f"n={n} outside 1..{p.n_max}")
    return 1.0 + max(float(c.row(n).sum()) for c in p.components)


@dataclass(frozen=True)
class CheckpointReport:
    """Checkpoint audit row.

    ``ratio`` compares the worst off-diagonal row sum of Delta at the
    checkpoint horizon against r(n_k).
    """

    k: int
    eps: float
    n: int
    ratio: float
    passed: bool


def check_checkpoints(p: TruncatedProcess) -> list[CheckpointReport]:
    """Audit every checkpoint: ratio must land in [1 - eps_k, 1].

    Reads the horizons alone, nondecreasing as build_process makes them.
    At n_k every j <= k has n_j <= n_k and adds a row of n_j - j ones; a
    later j adds nothing if n_j > n_k and only n_k - j < n_k - k if
    n_j = n_k.  So R(n_k) - 1 is the running max of n_j - j over j <= k,
    which rate_R(p, n_k) - 1 equals bit for bit.  ratio divides that
    integer by r(n_k), and int division rounds correctly at any size, so
    ratio <= 1 is exact.
    """
    out = []
    top = 0
    for cp in p.checkpoints:
        top = max(top, cp.n - cp.k)
        rn = p.rate(cp.n)
        ratio = top / rn
        out.append(CheckpointReport(cp.k, cp.eps, cp.n, ratio, 1.0 - cp.eps <= ratio <= 1.0))
    return out
