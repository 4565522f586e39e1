"""Synthesis of binary measures with a prescribed mixing-matrix row.

Given a target row h_{k+1} >= h_{k+2} >= ... >= h_n in [0, 1], we build a
measure on {0,1}^n whose mixing matrix is exactly h on row k and zero
elsewhere ("pure row k").  Starting from the uniform measure, positions are
visited in descending order t = n, n-1, ..., k+1; each visit multiplies the
current measure by a two-point weight on the agreement indicator of
(x_k, x_t), renormalized,

    new(x)  proportional to  (v * [x_k == x_t] + (1 - v) * [x_k != x_t]) * old(x),

and v is chosen so that eta_bar(new, k, t) equals h_t.  The descending order
matters: a visit at position t-1 leaves every conditional law of
(X_t, ..., X_n) given the first k symbols untouched, so the cells already
matched at t, t+1, ..., n stay matched.

The result is a flip vector: X_1, ..., X_k are iid fair bits and each later
X_t equals X_k with probability v_t, independently.  Cell (k, t) is then
TV(prod_{s>=t} Bern(v_s), its bit-flip mirror): on the tail law T of the
visited positions after t (v_s = 1/2 cancels), f(v) = sum_b |v s_b - r_b|
for r = T reversed and s = T + r, convex and linear between breakpoints
r_b / s_b.  So v_t solves one linear equation, on the piece found by sorting
the breakpoints, at O(|T| log |T|) with |T| <= 2^(solved positions).
:func:`solve_row` returns the flip vector as a :class:`PureRow`, which
keeps only the pairs (t, v_t) with v_t != 1/2 and whose mixing matrix is
closed-form too, the one evaluation of a row's cells.  Its 2^n atoms have
one replay: the uniform measure tilted by :func:`reweight` at each stored
pair, in visit order, and nowhere else.  :meth:`PureRow.dense` and the
dense reference :func:`pure_row_measure` (which also records eta_bar after
each visit) both run it, bit for bit.

Ascending order, kept only in the dense pure_row_measure(order="forward")
for demonstration, solves each cell as if the later positions were
untouched, so it picks v_t = (1 + h_t) / 2; the later tilts then move cell
(k, t) to TV(prod_{s>=t} Bern(v_s), its bit-flip mirror), which is >= h_t.
So ascending order only ever overshoots, never undershoots, and with odds
o_t = (1 + h_t) / (1 - h_t) cell (k, t) stays exact iff
o_t >= prod_{s>t} o_s.  When that holds for every t, both orders pick the
same flip vector; the row (0.5, 0.5, 0.2), with odds 3, 3, 1.5, misses cell
(k, k+1) by 0.075.

Stacking one pure-row component per row k = 1..n-1 in parallel realizes any
valid target matrix; see :func:`construct_from_target`.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import SolveError, TargetInvalid
from .measures import FiniteMeasure, SeqSpace, uniform
from .mixing import MixingMatrix, _block_laws, eta_bar, validate_target
from .products import ProductMeasure

#: Audit bound on |achieved - target| for every solved cell, which the exact
#: solve meets to a few float spacings.
SOLVE_TOL = 1e-12

#: Largest change of a conditional block law that
#: :func:`check_conditional_preservation` counts as preserved.
PRESERVATION_TOL = 1e-10


@dataclass(frozen=True)
class ValidRow:
    """Target row for a pure row-k construction on {0,1}^n.

    ``h[0]`` targets the pair (k, k+1), ``h[-1]`` the pair (k, n).  Entries
    must lie in [0, 1] and be nonincreasing.
    """

    n: int
    k: int
    h: tuple[float, ...]

    def __post_init__(self) -> None:
        n, k, h = self.n, self.k, tuple(float(x) for x in self.h)
        object.__setattr__(self, "h", h)
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k} n={n}")
        if len(h) != n - k:
            raise ValueError(f"k={k}, n={n} needs {n - k} entries, got {len(h)}")
        for x in h:
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"row entry {x!r} outside [0, 1]")
        if any(b > a for a, b in zip(h, h[1:])):
            raise ValueError(f"row entries must be nonincreasing, got {h}")

    def target(self, t: int) -> float:
        """Target coefficient for the pair (k, t)."""
        if not self.k < t <= self.n:
            raise ValueError(f"need k < t <= n, got t={t} for k={self.k} n={self.n}")
        return self.h[t - self.k - 1]


@dataclass(frozen=True)
class PureRow:
    """Flip-vector form of a pure row-k measure on {0,1}^n.

    X_1, ..., X_k are iid fair bits and, independently for each t > k, X_t
    equals X_k with probability v_t.  ``flips`` holds the pairs (t, v_t)
    with v_t != 1/2, ascending in t, and nothing else: every other X_t is a
    fair bit.  A measure has one spelling, so ``==`` compares measures.

    A product component is anything with ``n``, ``q``, ``dense()`` and
    ``rows()``, as a PureRow and a FiniteMeasure both are; :meth:`dense`
    builds the 2^n atoms on every call.
    """

    n: int
    k: int
    flips: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        flips = tuple((operator.index(t), float(v)) for t, v in self.flips)
        object.__setattr__(self, "flips", flips)
        ts = [self.k, *(t for t, _ in flips), self.n + 1]
        if not (1 <= self.k < self.n and all(a < b for a, b in zip(ts, ts[1:]))):
            raise ValueError(f"need 1 <= k < t_1 < ... <= n: k={self.k}, t={ts[1:-1]}, n={self.n}")
        if any(not 0.0 <= v <= 1.0 or v == 0.5 for _, v in flips):
            raise ValueError(f"each flip probability must lie in [0, 1] and not be 1/2: {flips}")

    @property
    def q(self) -> int:
        return 2

    def row(self, m: int) -> np.ndarray:
        """Cells (k, k+1), ..., (k, m) of the length-m prefix's mixing matrix.

        Given the first k bits, the later ones depend on X_k alone, so row k
        is the prefix's only nonzero row, and cell (k, t) is
        TV(prod_{t<=s<=m} Bern(v_s), its bit-flip mirror).  A cell changes
        only at a stored flip; those are visited from m down, each run
        between two filled by one slice, with no 2^m measure.
        """
        if not 1 <= m <= self.n:
            raise ValueError(f"prefix length {m} outside 1..{self.n}")
        out = np.zeros(max(m - self.k, 0))
        tail, cell, hi = np.ones(1), 0.0, out.size
        for t, v in reversed(self.flips):
            if t <= m:
                out[t - self.k : hi] = cell
                cell = _flip_cell(tail, v)
                tail = np.kron([v, 1.0 - v], tail)
                hi = t - self.k
        out[:hi] = cell
        return out

    def rows(self) -> tuple:
        """The mixing matrix's one nonzero row on {0,1}^n: :meth:`row` (n) on row k."""
        return ((self.k, self.row(self.n)),)

    def dense(self) -> FiniteMeasure:
        """The uniform measure tilted at each stored flip, from t = n down:
        the measure :func:`pure_row_measure` returns in its default order,
        bit for bit, checked as a measure once."""
        mu = uniform(SeqSpace(2, self.n))
        probs = mu.probs
        for t, v in reversed(self.flips):
            probs = _tilt(probs, self.k, t, v)
        return FiniteMeasure(mu.space, probs)


@dataclass(frozen=True)
class TraceStep:
    """Record of one solved position: chosen v, the cell value v achieves,
    and its signed miss ``residual = achieved - target``."""

    t: int
    v_star: float
    achieved: float
    residual: float


def reweight(mu: FiniteMeasure, k: int, t: int, v: float) -> FiniteMeasure:
    """Tilt mu by the two-point agreement weight on (x_k, x_t), renormalized."""
    if mu.q != 2:
        raise ValueError("reweighting is defined for binary alphabets only")
    if not 1 <= k < t <= mu.n:
        raise ValueError(f"need 1 <= k < t <= n, got k={k} t={t} n={mu.n}")
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v={v!r} outside [0, 1]")
    return FiniteMeasure(mu.space, _tilt(mu.probs, k, t, v))


def _tilt(probs: np.ndarray, k: int, t: int, v: float) -> np.ndarray:
    """The atoms of :func:`reweight`, from and to a bare binary atom vector."""
    # axes (x_1..x_{k-1}, x_k, x_{k+1}..x_{t-1}, x_t, x_{t+1}..x_n)
    blocks = probs.reshape(1 << (k - 1), 2, 1 << (t - k - 1), 2, -1)
    table = np.array([[v, 1.0 - v], [1.0 - v, v]])[:, None, :, None]
    w = (table * blocks).reshape(-1)
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError(f"reweighting with v={v!r} leaves no mass")
    return w / total


def _flip_cell(tail: np.ndarray, v: float) -> float:
    """TV(p, p[::-1]) for p = [v, 1-v] (x) tail: cell (k, t) of a pure row.

    ``tail`` is the law of the flips at the positions after t; reversing the
    vector flips every bit.  d = p - p[::-1] is antisymmetric under
    reversal, so both halves of |d| have the same sum and the TV is the sum
    over the first half.
    """
    return float(np.abs(v * tail - (1.0 - v) * tail[::-1]).sum())


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """Prefix sums of x to about one rounding each: np.cumsum's (3e-14 off at
    2^18 terms) plus the exact rounding error of each of its additions (TwoSum)."""
    c = np.cumsum(x)
    prev = np.concatenate(([0.0], c[:-1]))
    part = c - prev
    return c + np.cumsum((prev - (c - part)) + (x - part))


def _flip_solve(tail: np.ndarray, target: float) -> float:
    """Smallest v in [1/2, 1] with _flip_cell(tail, v) == target.

    With r = tail[::-1] and s = tail + r, f(v) = sum_b |v s_b - r_b| is
    2v - 1 past the last breakpoint r_b / s_b and v (2 S_j - S) - (2 R_j - R)
    right of breakpoint j, for prefix sums S_j, R_j in breakpoint order.
    """
    f_half = _flip_cell(tail, 0.5)
    if target <= f_half:
        return 0.5
    r, s = tail[::-1], tail + tail[::-1]
    c = np.divide(r, s, out=np.zeros_like(s), where=s > 0.0)  # empty pairs weigh nothing
    v = 0.5 * (1.0 + target)
    if v >= c.max():
        return v
    order = np.argsort(c)
    c, s_sum, r_sum = c[order], _prefix_sums(s[order]), _prefix_sums(r[order])
    up = c > 0.5
    knots = np.concatenate(([0.5], c[up], [1.0]))
    f_up = c[up] * (2.0 * s_sum[up] - s_sum[-1]) - (2.0 * r_sum[up] - r_sum[-1])
    f = np.concatenate(([f_half], f_up, [1.0]))
    # f[i-1] < target <= f[i] even where rounding breaks f's order, so the
    # piece through those two knots rises and w lies in (0, 1]
    i = int(np.searchsorted(f, target))
    w = (target - f[i - 1]) / (f[i] - f[i - 1])
    return float(knots[i - 1] + w * (knots[i] - knots[i - 1]))


def solve_row(row: ValidRow) -> tuple[PureRow, tuple[TraceStep, ...]]:
    """Flip vector for ``row``, solved on the closed-form cell from t = n down.

    A target equal to the one at t+1 keeps v = 1/2, the identity tilt of
    :func:`reweight`, and stores no pair.  Returns the :class:`PureRow` and
    one step per position in visit order, whose ``achieved`` is read from
    the row's own :meth:`PureRow.row`.  Builds no dense measure.  Raises
    :class:`SolveError` when a cell misses its target by more than SOLVE_TOL.
    """
    k, n = row.k, row.n
    vs, flips = [], []
    tail = np.ones(1)  # law of the flips after t; v = 1/2 cancels and is left out
    for t in range(n, k, -1):
        target = row.target(t)
        v = 0.5 if t < n and target == row.target(t + 1) else _flip_solve(tail, target)
        if v != 0.5:
            tail = np.kron([v, 1.0 - v], tail)
            flips.append((t, v))
        vs.append(v)
    pr = PureRow(n, k, tuple(reversed(flips)))
    visits = zip(range(n, k, -1), vs, reversed(pr.row(n).tolist()))
    steps = tuple(TraceStep(t, v, c, c - row.target(t)) for t, v, c in visits)
    worst = max(steps, key=lambda s: abs(s.residual))
    if abs(worst.residual) > SOLVE_TOL:
        raise SolveError(f"cell ({k},{worst.t}) missed its target by {worst.residual:.3e}")
    return pr, steps


def pure_row_measure(row: ValidRow, order: str = "backward", return_iterates: bool = False):
    """Binary measure on {0,1}^n whose mixing matrix is ``row`` on row k and
    zero elsewhere.

    Returns (measure, steps), or (measure, steps, iterates) with the full
    list of intermediate measures when ``return_iterates`` is set.  The
    iterates let callers verify that each step preserved the conditional
    laws of the not-yet-visited future blocks.  The v's come from
    :func:`solve_row`; each visit tilts where v_t != 1/2, as
    :meth:`PureRow.dense` does, so the measure is bit for bit the one it
    builds, and each step records eta_bar after its visit.  This is the
    dense sequential reference for :class:`PureRow`, not an engine path.

    ``order="forward"``, the only place ascending order lives, takes
    v_t = (1 + h_t) / 2 from t = k+1 up: what solving each cell on untouched
    later positions picks.  It has no preservation guarantee and exists to
    demonstrate that the descending order is essential: it never undershoots
    a cell, and realizes the row exactly iff each odds
    o_t = (1 + h_t) / (1 - h_t) is at least the product of the later odds,
    prod_{s>t} o_s (see the module docstring).
    """
    n, k = row.n, row.k
    if order == "backward":
        ts, vs = range(n, k, -1), [s.v_star for s in solve_row(row)[1]]
    elif order == "forward":
        ts = range(k + 1, n + 1)
        vs = [0.5 * (1.0 + row.target(t)) for t in ts]
    else:
        raise ValueError(f"unknown order {order!r}")
    mu = uniform(SeqSpace(2, n))
    iterates, steps = [mu], []
    for t, v in zip(ts, vs):
        if v != 0.5:
            mu = reweight(mu, k, t, v)
        achieved = eta_bar(mu, k, t)
        steps.append(TraceStep(t, v, achieved, achieved - row.target(t)))
        iterates.append(mu)
    if return_iterates:
        return mu, tuple(steps), iterates
    return mu, tuple(steps)


def check_conditional_preservation(
    before: FiniteMeasure, after: FiniteMeasure, k: int, t: int
) -> bool:
    """Did the law of (X_t, ..., X_n) given each first-k prefix survive, to
    PRESERVATION_TOL?

    Compares the two conditional block laws for every length-k prefix with
    positive mass; prefixes alive in only one measure count as failure.
    """
    if before.space != after.space:
        raise ValueError("measures live on different spaces")
    n = before.n
    if not 1 <= k < t <= n:
        raise ValueError(f"need 1 <= k < t <= n, got k={k} t={t} n={n}")

    laws_b, alive_b, _ = next(_block_laws(before, k, t))
    laws_a, alive_a, _ = next(_block_laws(after, k, t))
    if not np.array_equal(alive_b, alive_a):
        return False
    # before's atoms sum to 1, so some prefix is alive and the max has cells
    return float(np.abs(laws_b[alive_b] - laws_a[alive_b]).max()) <= PRESERVATION_TOL


def construct_from_target(h: MixingMatrix) -> tuple[ProductMeasure, list[tuple[TraceStep, ...]]]:
    """Measure over the packed alphabet {0,1}^(n-1) realizing a valid target.

    Row k of the target is delegated to an independent pure row-k component
    on {0,1}^n, kept as its :class:`PureRow` flip vector; the parallel
    product of the components then reproduces the whole matrix because each
    cell is nonzero in at most one component.  Returns the product and the
    :func:`solve_row` steps of rows 1, ..., n-1, in that order.  No dense
    measure is built for n >= 2.  Raises :class:`TargetInvalid` when the
    target fails validation and :class:`SolveError` when a solved cell
    misses its target.
    """
    violations = validate_target(h)
    if violations:
        raise TargetInvalid(violations)
    n = h.n
    if n == 1:
        return ProductMeasure((uniform(SeqSpace(2, 1)),)), []
    solved = [solve_row(ValidRow(n, k, tuple(h.entries[k - 1, k:n]))) for k in range(1, n)]
    return ProductMeasure(tuple(pr for pr, _ in solved)), [steps for _, steps in solved]
