"""Series and parallel products of sequence measures.

The series product concatenates two independent sequences over the same
alphabet: (mu (+) nu)(xy) = mu(x) * nu(y) on Sigma^(m+n).  The parallel
product runs several equal-length measures side by side over the product
alphabet: each position of the joint sequence carries one symbol from every
component, component 1 most significant in the packed symbol.

For a parallel product the mixing matrix obeys the sandwich

    max_c eta_bar_c(i, j)  <=  eta_bar(i, j)  <=  min(1, sum_c eta_bar_c(i, j))

per cell.  When at most one component is nonzero at each cell ("disjoint
rows", as with pure-row components) the two sides collapse and
:func:`factored_mixing_matrix` returns the max without building the joint;
elsewhere it sweeps the joint, under the state cap.

A component is anything with ``n``, ``q``, ``dense()`` and ``rows()``:
a FiniteMeasure, or a :class:`~etamix.construction.PureRow` flip vector.
``rows()`` yields ``(i, cells)`` for each row i that may be nonzero, with
the row's cells in columns i+1..n.  A product file and :func:`materialize`
read ``dense()``, and the factored matrix reads ``rows()``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DEFAULT_STATE_CAP, StateCapExceeded
from .measures import FiniteMeasure, SeqSpace
from .mixing import MixingMatrix, mixing_matrix

#: Widest gap between a cell's min(1, sum) and max that still takes the max,
#: which the true cell lies between.
EXACT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProductMeasure:
    """Parallel product of equal-length components, kept factored."""

    components: tuple

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("a product needs at least one component")
        n = comps[0].n
        for c in comps:
            if c.n != n:
                raise ValueError("components must share the same length n")

    @property
    def n(self) -> int:
        return self.components[0].n


def series_product(mu: FiniteMeasure, nu: FiniteMeasure) -> FiniteMeasure:
    """Concatenation measure on Sigma^(m+n): independent blocks, same alphabet."""
    if mu.q != nu.q:
        raise ValueError(f"alphabet mismatch: {mu.q} vs {nu.q}")
    cap = max(mu.space.state_cap, nu.space.state_cap)
    space = SeqSpace(mu.q, mu.n + nu.n, cap)
    return FiniteMeasure(space, np.outer(mu.probs, nu.probs).ravel())


def materialize(pm: ProductMeasure, state_cap: int = DEFAULT_STATE_CAP) -> FiniteMeasure:
    """Dense joint measure of a parallel product on the packed alphabet.

    The packed symbol at each position is the mixed-radix combination of the
    component symbols, component 1 most significant.  Refuses to build more
    than ``state_cap`` atoms.
    """
    n = pm.n
    space = SeqSpace(prod(c.q for c in pm.components), n, state_cap)  # raises on cap breach

    acc, q_acc = np.ones((1,) * n), 1  # one axis per position
    for comp in pm.components:
        outer = np.multiply.outer(acc, comp.dense().probs.reshape((comp.q,) * n))
        # axes are (a_1..a_n, b_1..b_n); interleave to (a_1, b_1, a_2, b_2, ...)
        perm = [ax for pair in zip(range(n), range(n, 2 * n)) for ax in pair]
        q_acc *= comp.q
        acc = outer.transpose(perm).reshape((q_acc,) * n)
    return FiniteMeasure(space, acc.ravel())


def factored_mixing_matrix(pm: ProductMeasure, state_cap: int = DEFAULT_STATE_CAP) -> MixingMatrix:
    """Exact mixing matrix of a parallel product, read from its components.

    Each component row's cells are folded once into a running max and sum.
    Where min(1, sum) and the max agree within EXACT_TOL at every cell, the
    max is the matrix and no joint is built.  Otherwise the matrix is swept
    from :func:`materialize`'s joint, which raises StateCapExceeded, naming
    the first row the components share, past ``state_cap`` atoms.
    """
    lower, upper = np.zeros((pm.n, pm.n)), np.zeros((pm.n, pm.n))
    for c in pm.components:
        for i, cells in c.rows():
            lower[i - 1, i:] = np.maximum(lower[i - 1, i:], cells)
            upper[i - 1, i:] += cells
    shared = np.flatnonzero((np.minimum(1.0, upper) - lower > EXACT_TOL).any(axis=1))
    if not shared.size:
        return MixingMatrix(lower)
    try:
        return mixing_matrix(materialize(pm, state_cap))
    except StateCapExceeded as exc:
        raise StateCapExceeded(f"components share row {shared[0] + 1}, whose cells need "
                               f"their joint, and {exc}") from None
