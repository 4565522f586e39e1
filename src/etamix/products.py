"""Series and parallel products of sequence measures.

The series product concatenates two independent sequences over the same
alphabet: (mu (+) nu)(xy) = mu(x) * nu(y) on Sigma^(m+n).  The parallel
product runs several equal-length measures side by side over the product
alphabet: each position of the joint sequence carries one symbol from every
component, component 1 most significant in the packed symbol.

For a parallel product the mixing matrix obeys the sandwich

    max_c eta_bar_c(i, j)  <=  eta_bar(i, j)  <=  min(1, sum_c eta_bar_c(i, j))

per cell.  When at most one component is nonzero at each cell ("disjoint
rows", as with pure-row components) the two sides collapse and the factored
matrix is exact without materializing the joint.

A component is anything with ``n``, ``q``, ``dense()`` and ``matrix()``:
a FiniteMeasure, or a :class:`~etamix.construction.PureRow` flip vector,
whose ``matrix()`` is closed-form and whose ``dense()`` builds its atoms on
each call.  A product file and :func:`materialize` read ``dense()``, and
the factored matrix reads ``matrix()``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DEFAULT_STATE_CAP
from .measures import FiniteMeasure, SeqSpace, _frozen
from .mixing import MixingMatrix

#: Widest factored interval :class:`FactoredMixing` still collapses to one matrix.
EXACT_TOL = 1e-9


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


@dataclass(frozen=True, eq=False)
class FactoredMixing:
    """Per-cell interval for the mixing matrix of a parallel product.

    ``lower`` is the max over component cells, ``upper`` is min(1, sum).
    When the components have disjoint nonzero rows the interval width is
    (numerically) zero and either bound serves as the exact matrix.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lower", "upper"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def width(self) -> float:
        return float(np.max(self.upper - self.lower)) if self.lower.size else 0.0

    def is_exact(self) -> bool:
        return self.width <= EXACT_TOL

    def exact(self) -> MixingMatrix:
        """The collapsed matrix; raises when the interval is wider than EXACT_TOL."""
        if not self.is_exact():
            raise ValueError(
                f"factored mixing interval has width {self.width:.3e} > {EXACT_TOL:.3e}; "
                "component rows are not disjoint"
            )
        return MixingMatrix(self.lower)


def factored_mixing_matrix(pm: ProductMeasure) -> FactoredMixing:
    """Mixing-matrix bounds of a parallel product from its components alone,
    folded one component at a time into a running max and sum."""
    cells = (c.matrix() for c in pm.components)
    lower = upper = next(cells)
    for m in cells:
        lower, upper = np.maximum(lower, m), upper + m
    return FactoredMixing(lower, np.minimum(1.0, upper))
