"""Mixing coefficients of finite sequence measures.

The central quantity is eta(mu, i, j, y, w, w'): the total variation distance
between the conditional laws of the future block (X_j, ..., X_n) given two
length-i pasts that share the first i-1 symbols y and differ only in the last
symbol (w vs w').  Its worst case over pasts,

    eta_bar(mu, i, j) = max over y, w, w' of eta(mu, i, j, y, w, w'),

fills the strictly-upper-triangular mixing matrix of mu.  Realizable matrices
are exactly those with zeros on and below the diagonal, entries in [0, 1],
and rows nonincreasing to the right; `validate_target` checks those three
properties on prospective targets.

Also here: the uniform-mixing coefficient phi (conditional law of a future
block against the unconditional law, worst case over single positive-mass
pasts), the inequality eta_bar_{ij} <= 2 * phi_{j-i}, and an informational
scan comparing 0.5 * sum_g phi_g against 1 + max_i sum_{j>i} eta_bar_{ij}.
That inequality is false; :func:`conjecture_scan` names a witness.

eta_bar, phi and the construction's preservation check all read the same
conditional block laws, produced by one kernel, `_block_laws`: for a past
length i it conditions on every length-i prefix once and then walks the
block start j = i+1, ..., n, summing out one position per step, in O(q^n)
for the whole walk.  `_sweep`, the one pair loop, runs it once per i for all
the tables its caller asks for: the matrix, the phi vector, or both at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TargetInvalid  # noqa: F401  (raised by callers of validate_target)
from .measures import FiniteMeasure, _frozen, conditional, marginal, tv_distance


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """n-by-n matrix of worst-case conditional TV coefficients.

    ``entries[i-1, j-1]`` holds the coefficient for the 1-based position pair
    (i, j).  Instances built from user data may violate the realizability
    properties; run :func:`validate_target` to find out.  Matrices produced by
    :func:`mixing_matrix` satisfy them by construction (checked in tests).
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = _frozen(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "MixingMatrix":
        return cls(np.zeros((n, n)))


@dataclass(frozen=True)
class Violation:
    """One violated realizability property at a (1-based) cell."""

    kind: str  # "lower-triangle", "range", or "row-increase"
    i: int
    j: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at ({self.i},{self.j}): {self.detail}"


def eta(mu: FiniteMeasure, i: int, j: int, y, w: int, wp: int) -> float:
    """TV distance between laws of (X_j, ..., X_n) given pasts y+w and y+w'.

    Positions are 1-based with 1 <= i < j <= n; y supplies the first i-1
    symbols.  Raises ZeroProbabilityPrefix when either past carries no mass.
    """
    _check_pair(mu.n, i, j)
    y = tuple(y)
    if len(y) != i - 1:
        raise ValueError(f"y has length {len(y)}, expected {i - 1}")
    return tv_distance(_block_law(mu, y + (int(w),), j), _block_law(mu, y + (int(wp),), j))


def _block_law(mu: FiniteMeasure, prefix: tuple[int, ...], j: int) -> FiniteMeasure:
    """Law of (X_j, ..., X_n) given a length-i prefix, i < j."""
    i = len(prefix)
    suffix = conditional(mu, prefix)  # law of X_{i+1}..X_n
    return marginal(suffix, j - i, mu.n - i)


def _check_pair(n: int, i: int, j: int) -> None:
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i} j={j} n={n}")


def eta_bar(mu: FiniteMeasure, i: int, j: int) -> float:
    """Worst case of :func:`eta` over all pasts and symbol pairs.

    Pasts with zero probability are skipped; with no admissible pair the
    value is 0.  Vectorized over all length-(i-1) stems at once.
    """
    _check_pair(mu.n, i, j)
    return _sibling_max(*next(_block_laws(mu, i, j)))


def _block_laws(mu: FiniteMeasure, i: int, j: int):
    """Laws of (X_s, ..., X_n) given each length-i prefix, for s = j, ..., n.

    Yields ``(laws, alive, block)`` once per s: ``block`` is the unnormalized
    joint of prefix and block, shape (q^i, q^(n-s+1)); ``laws`` divides each
    row by its prefix mass (dead prefixes' rows are zero), and ``alive``
    marks the prefixes with positive mass, both grouped by sibling: (q^(i-1),
    q, ...).  The prefix masses are summed once, and each step sums out one
    position of the previous block, so a whole sweep touches O(q^n) numbers.
    """
    q, heads = mu.q, mu.q ** i
    mass = mu.probs.reshape(heads // q, q, -1).sum(axis=2)
    alive = mass > 0.0
    # a dead prefix has an all-zero block row, which dividing by 1 keeps zero
    denom = np.where(alive, mass, 1.0)[:, :, None]
    block = mu.probs.reshape(heads, q ** (j - 1 - i), -1).sum(axis=1)
    for s in range(j, mu.n + 1):
        if s > j:
            block = block.reshape(heads, q, -1).sum(axis=1)
        yield block.reshape(heads // q, q, -1) / denom, alive, block


def _sibling_max(laws: np.ndarray, alive: np.ndarray, _block: np.ndarray) -> float:
    """Largest TV distance between the laws of two live sibling prefixes,
    i.e. prefixes that differ only in their last symbol."""
    best = 0.0
    for a in range(laws.shape[1]):
        for b in range(a + 1, laws.shape[1]):
            both = alive[:, a] & alive[:, b]
            if not both.any():
                continue
            d = 0.5 * np.abs(laws[:, a] - laws[:, b]).sum(axis=1)
            best = max(best, float(d[both].max()))
    return best


def _phi_cell(laws: np.ndarray, alive: np.ndarray, block: np.ndarray) -> float:
    """Largest TV distance between a live prefix's block law and the
    unconditional one, the column sum of the joint."""
    d = 0.5 * np.abs(laws - block.sum(axis=0)).sum(axis=2)
    return float(d[alive].max())


def _sweep(mu: FiniteMeasure, *cells) -> list[np.ndarray]:
    """One n-by-n table per cell function, ``cell(laws, alive, block)`` at
    entry (i-1, j-1) for every pair i < j, from one sweep per past length i."""
    n = mu.n
    tables = [np.zeros((n, n)) for _ in cells]
    for i in range(1, n):
        for j, step in enumerate(_block_laws(mu, i, i + 1), start=i + 1):
            for table, cell in zip(tables, cells):
                table[i - 1, j - 1] = cell(*step)
    return tables


def _gap_max(table: np.ndarray) -> np.ndarray:
    """Largest cell on each superdiagonal g = 1..n-1, read-only."""
    return _frozen([table.diagonal(g).max() for g in range(1, len(table))])


def mixing_matrix(mu: FiniteMeasure) -> MixingMatrix:
    """Full matrix of eta_bar coefficients for all position pairs i < j."""
    return MixingMatrix(_sweep(mu, _sibling_max)[0])


def validate_target(h: MixingMatrix, tol: float = 0.0) -> list[Violation]:
    """Check the three realizability properties, reporting every bad cell.

    lower-triangle: entries on and below the diagonal are exactly zero.
    range: entries above the diagonal lie in [0, 1] (inclusive).
    row-increase: within each row, entries may not increase left to right.

    A NaN entry violates the lower-triangle or range rule, never a rise.
    Violations are listed row by row: bad cells by column, then rises.

    The default ``tol = 0`` is the right reading for hand-written targets.
    Matrices computed from a measure carry float noise of order 1e-16 in
    cells that are equal in exact arithmetic, so pass a small positive tol
    when validating those.
    """
    e, n = h.entries, h.n
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    cells = np.where(upper, ~((-tol <= e) & (e <= 1.0 + tol)), ~(np.abs(e) <= tol))
    rises = upper[:, :-1] & (e[:, 1:] > e[:, :-1] + tol)
    out: list[Violation] = []
    for r, c in np.argwhere(np.concatenate((cells, rises), axis=1)).tolist():
        i, j = r + 1, c + 1
        if c >= n:  # a rise from column j - n to j - n + 1
            j -= n
            a, b = float(e[r, j - 1]), float(e[r, j])
            out.append(Violation("row-increase", i, j + 1, f"{b!r} exceeds {a!r} at ({i},{j})"))
        elif i >= j:
            out.append(Violation("lower-triangle", i, j, f"expected 0, got {float(e[r, c])!r}"))
        else:
            out.append(Violation("range", i, j, f"{float(e[r, c])!r} outside [0, 1]"))
    return out


def phi_vector(mu: FiniteMeasure) -> np.ndarray:
    """Uniform-mixing coefficient phi_g at every gap g = 1..n-1, a read-only
    array nonincreasing in g, from one sweep per past length i.

    phi_g is the worst case, over positions i with i + g <= n and single
    positive-mass pasts y of length i, of the TV distance between the law of
    (X_{i+g}, ..., X_n) given X_1..X_i = y and its unconditional law.  The
    worst case over past *events* equals the worst case over atoms, since a
    conditional law given a union is a convex mixture of the atom laws.
    """
    return _gap_max(_sweep(mu, _phi_cell)[0])


def check_samson_inequality(mu: FiniteMeasure, slack: float = 1e-9) -> bool:
    """True when eta_bar(i, j) <= 2 * phi_{j-i} + slack for every pair."""
    e, phi = _sweep(mu, _sibling_max, _phi_cell)
    i, j = np.triu_indices(mu.n, 1)
    return not np.any(e[i, j] > 2.0 * _gap_max(phi)[j - i - 1] + slack)


@dataclass(frozen=True)
class ConjectureRow:
    """One scanned measure: lhs = 0.5 * sum of phi, rhs = 1 + max row sum."""

    measure_id: int
    n: int
    q: int
    lhs: float
    rhs: float
    satisfied: bool


def conjecture_scan(mus) -> list[ConjectureRow]:
    """Evaluate lhs <= rhs on a batch of measures.

    The inequality is false.  A witness on {0,1}^11: X_1..X_10 are fair bits
    with sum S, and X_11 = 1 with probability 1 for S <= 1, 1/3 for S in 2..4
    and 0 for S >= 5, giving lhs 2.1230 > rhs 2.0208.  Purely informational:
    rows report both sides and the comparison, and a violation is not an error.
    """
    rows = []
    for mid, mu in enumerate(mus):
        n = mu.n
        e, phi = _sweep(mu, _sibling_max, _phi_cell)
        lhs = 0.5 * float(_gap_max(phi).sum())
        rhs = 1.0 + max((float(e[i, i + 1 : n].sum()) for i in range(n - 1)), default=0.0)
        rows.append(ConjectureRow(mid, n, mu.q, lhs, rhs, lhs <= rhs))
    return rows
