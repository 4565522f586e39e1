"""Slow, independent reference implementations used only by tests.

Everything here works by direct enumeration over sequences (itertools plus
dict arithmetic) or closed-form algebra, deliberately sharing no code with
the package's vectorized paths.  The enumerations add and divide whatever
numbers the measure's ``prob`` returns, so a measure with Fraction atoms
gets exact coefficients.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from etamix import FiniteMeasure


def _atoms(mu: FiniteMeasure):
    q, n = mu.q, mu.n
    for x in itertools.product(range(q), repeat=n):
        yield x, mu.prob(x)


class FlipLawExact:
    """Law on {0,1}^n with Fraction atoms: X_1..X_k iid fair bits and each
    later X_t equal to X_k with probability v[t-k-1], independently.  Exact
    even where float atoms would be subnormal."""

    q = 2

    def __init__(self, n: int, k: int, v):
        self.n = n
        self._atoms = {}
        for x in itertools.product((0, 1), repeat=n):
            p = Fraction(1, 2 ** min(k, n))
            for t in range(k + 1, n + 1):
                f = Fraction(v[t - k - 1])
                p *= f if x[t - 1] == x[k - 1] else 1 - f
            self._atoms[x] = p

    def prob(self, x):
        return self._atoms[x]


def flip_cells_exact(n: int, k: int, flips):
    """Cells (k, k+1), ..., (k, n) of a flip-vector law as Fractions.

    ``flips`` are the (t, v_t) pairs with v_t != 1/2; every other position
    is a fair bit and cancels.  Cell (k, t) is the TV between the law of the
    flips at positions s >= t and its mirror, which flips every bit.  Each v
    must be a multiple of 2^-53 in [0, 1], so v = a / 2^53 for an integer a
    and the law of m flips is a list of integer products over 2^(53 m).
    """
    one = 2**53
    weight = {}
    for t, v in flips:
        a = Fraction(v) * one
        assert 0 <= a <= one and a.denominator == 1, f"v={v!r} is no multiple of 2^-53 in [0, 1]"
        weight[t] = int(a)
    law, m, cells = [1], 0, []
    for t in range(n, k, -1):
        if t in weight:  # the new flip is the top bit: 0 agrees with x_k, 1 differs
            law = [weight[t] * p for p in law] + [(one - weight[t]) * p for p in law]
            m += 1
        mirror = (1 << m) - 1
        diff = sum(abs(p - law[b ^ mirror]) for b, p in enumerate(law))
        cells.append(Fraction(diff, 2 * one**m))
    return cells[::-1]


def block_law_slow(mu: FiniteMeasure, prefix: tuple[int, ...], j: int):
    """Law of (X_j, ..., X_n) given a prefix, or None when the prefix is null."""
    total = 0
    law: dict[tuple[int, ...], float] = {}
    for x, p in _atoms(mu):
        if x[: len(prefix)] != prefix:
            continue
        total += p
        key = x[j - 1 :]
        law[key] = law.get(key, 0) + p
    if total <= 0.0:
        return None
    return {k: v / total for k, v in law.items()}


def tv_slow(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return sum(abs(a.get(k, 0) - b.get(k, 0)) for k in keys) / 2


def eta_bar_slow(mu: FiniteMeasure, i: int, j: int) -> float:
    q = mu.q
    best = 0.0
    for y in itertools.product(range(q), repeat=i - 1):
        laws = [block_law_slow(mu, y + (w,), j) for w in range(q)]
        for a in range(q):
            for b in range(a + 1, q):
                if laws[a] is None or laws[b] is None:
                    continue
                best = max(best, tv_slow(laws[a], laws[b]))
    return best


def mixing_matrix_slow(mu: FiniteMeasure):
    n = mu.n
    return [
        [eta_bar_slow(mu, i, j) if i < j else 0.0 for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def phi_slow(mu: FiniteMeasure, g: int) -> float:
    q, n = mu.q, mu.n
    best = 0.0
    for i in range(1, n - g + 1):
        j = i + g
        uncond: dict[tuple[int, ...], float] = {}
        for x, p in _atoms(mu):
            key = x[j - 1 :]
            uncond[key] = uncond.get(key, 0.0) + p
        for y in itertools.product(range(q), repeat=i):
            law = block_law_slow(mu, y, j)
            if law is not None:
                best = max(best, tv_slow(law, uncond))
    return best


def spectral_norm_2x2_charpoly(m) -> float:
    """Largest singular value of a 2x2 matrix from the characteristic
    polynomial of M^T M: lambda^2 - tr * lambda + det = 0."""
    a, b = m[0]
    c, d = m[1]
    g11 = a * a + c * c
    g12 = a * b + c * d
    g22 = b * b + d * d
    tr, det = g11 + g22, g11 * g22 - g12 * g12
    lam = 0.5 * (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0)))
    return math.sqrt(lam)


def validate_target_slow(entries, tol: float):
    """The three realizability rules cell by cell, as (kind, i, j, detail)
    tuples: each row's bad cells by column, then that row's rises."""
    n = len(entries)
    out = []
    for i in range(1, n + 1):
        row = [float(x) for x in entries[i - 1]]
        for j in range(1, n + 1):
            v = row[j - 1]
            if i >= j and not abs(v) <= tol:
                out.append(("lower-triangle", i, j, f"expected 0, got {v!r}"))
            if i < j and not -tol <= v <= 1.0 + tol:
                out.append(("range", i, j, f"{v!r} outside [0, 1]"))
        for j in range(i + 1, n):
            a, b = row[j - 1], row[j]
            if b > a + tol:
                out.append(("row-increase", i, j + 1, f"{b!r} exceeds {a!r} at ({i},{j})"))
    return out


def scan_constant_target(n: int, a: float):
    """(lhs, rhs) of the scan for the construction of the target whose every
    upper cell is a, in closed form.

    Row k copies X_k into position n with probability (1 + a)/2, and every
    other bit is a fair coin.  So rhs = 1 + (n - 1) a.  Given a past of length
    n - g, components 1..n - g each hold a biased bit at position n and every
    later bit is independent of the past, so phi_g = TV(Bin(n - g, (1 + a)/2),
    Bin(n - g, 1/2)), and lhs = 0.5 * sum_g phi_g.
    """
    p = (1 + a) / 2

    def phi(m):  # TV(Bin(m, p), Bin(m, 1/2))
        return 0.5 * sum(math.comb(m, s) * abs(p**s * (1 - p) ** (m - s) - 0.5**m)
                         for s in range(m + 1))

    return 0.5 * sum(phi(n - g) for g in range(1, n)), 1 + (n - 1) * a


def first_horizon(r, k: int, eps: float, n: int, n_max):
    """The least horizon m in [n, n_max] at which h = min(1, r(m) / (m - k))
    puts h (m - k) / r(m) in [1 - eps, 1], reading r one m at a time, or
    None if there is none."""
    for m in itertools.takewhile(lambda m: m <= n_max, itertools.count(n)):
        rm = r(m)
        h = min(1.0, rm / (m - k))
        if 1.0 - eps <= h * (m - k) / rm <= 1.0:
            return m
    return None


def first_horizons(r, k_max: int, n_max: int, eps=None):
    """Checkpoint horizons by definition: checkpoint k, at eps_k (default
    1/(k + 1)), takes its first horizon from max(n_{k-1}, k + 1) on.
    Returns the horizons and the first checkpoint none admits, or None."""
    horizons, n = [], 1
    for k in range(1, k_max + 1):
        n = first_horizon(r, k, 1.0 / (k + 1) if eps is None else eps[k - 1],
                          max(n, k + 1), n_max)
        if n is None:
            return horizons, k
        horizons.append(n)
    return horizons, None
