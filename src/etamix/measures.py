"""Dense probability measures on finite sequence spaces.

A measure lives on Sigma^n for the alphabet Sigma = {0, ..., q-1} and is
stored as a dense float64 vector of q**n atom probabilities.  Sequences map
to vector indices in mixed radix with the first position most significant:

    (x_1, ..., x_n)  <->  x_1 * q**(n-1) + x_2 * q**(n-2) + ... + x_n

so reshaping the vector to (q**i, q**(n-i)) puts every length-i prefix on its
own row.  All operations return new measures; nothing mutates shared state.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DEFAULT_STATE_CAP, StateCapExceeded

#: Allowed drift of sum(probs) away from 1 for a well-formed measure.
NORM_TOL = 1e-12


class ZeroProbabilityPrefix(ValueError):
    """Conditioning on a prefix with no mass; ``conditional`` and ``eta`` raise it."""


@dataclass(frozen=True)
class SeqSpace:
    """Finite sequence space Sigma^n with Sigma = {0, ..., q-1}."""

    q: int
    n: int
    state_cap: int = field(default=DEFAULT_STATE_CAP, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.q < 2 or self.n < 1:
            raise ValueError(f"need q >= 2 and n >= 1, got q={self.q} n={self.n}")
        if self.state_cap < 1:
            raise ValueError(f"the state cap must be >= 1, got {self.state_cap}")
        # 2**n > cap from n = cap.bit_length() on; checked first so that a
        # huge n never reaches the power
        if self.n >= self.state_cap.bit_length() or self.q ** self.n > self.state_cap:
            raise StateCapExceeded(
                f"q**n = {self.q}**{self.n} exceeds the state cap {self.state_cap}"
            )

    @property
    def size(self) -> int:
        return self.q ** self.n

    def index(self, seq) -> int:
        """Mixed-radix index of a sequence, first symbol most significant."""
        seq = tuple(int(s) for s in seq)
        if len(seq) > self.n:
            raise ValueError(f"sequence longer than n={self.n}")
        idx = 0
        for s in seq:
            if not 0 <= s < self.q:
                raise ValueError(f"symbol {s} outside alphabet of size {self.q}")
            idx = idx * self.q + s
        return idx


def _frozen(v: np.ndarray) -> np.ndarray:
    v = np.array(v, dtype=np.float64)
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class FiniteMeasure:
    """Probability measure on a :class:`SeqSpace`, dense atom vector."""

    space: SeqSpace
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = _frozen(self.probs)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (self.space.size,):
            raise ValueError(
                f"probs has shape {probs.shape}, expected ({self.space.size},)"
            )
        if np.any(probs < 0.0):
            raise ValueError("negative atom probability")
        total = float(probs.sum())
        if not abs(total - 1.0) <= NORM_TOL:  # a NaN total fails too
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")

    @property
    def q(self) -> int:
        return self.space.q

    @property
    def n(self) -> int:
        return self.space.n

    def dense(self) -> FiniteMeasure:
        """The measure itself: a FiniteMeasure is its own dense form."""
        return self

    def rows(self):
        """(i, cells (i, i+1..n)) of :func:`~etamix.mixing.mixing_matrix`, i < n."""
        from .mixing import mixing_matrix

        e = mixing_matrix(self).entries
        return ((i, e[i - 1, i:]) for i in range(1, self.n))

    def prob(self, seq) -> float:
        """Probability of one full-length sequence."""
        seq = tuple(seq)
        if len(seq) != self.space.n:
            raise ValueError("prob() wants a full-length sequence")
        return float(self.probs[self.space.index(seq)])


def _as_space(space: SeqSpace | int, n: int | None) -> SeqSpace:
    if isinstance(space, SeqSpace):
        if n is not None:
            raise ValueError("pass either a space or (q, n), not both")
        return space
    return SeqSpace(space, n)


def uniform(space: SeqSpace | int, n: int | None = None) -> FiniteMeasure:
    """Uniform measure, from a space or an (alphabet size, length) pair."""
    space = _as_space(space, n)
    return FiniteMeasure(space, np.full(space.size, 1.0 / space.size))


def from_weights(space: SeqSpace, weights) -> FiniteMeasure:
    """Normalize a nonnegative weight vector into a measure.

    Rejects negative entries and all-zero weight vectors.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (space.size,):
        raise ValueError(f"weights have shape {w.shape}, expected ({space.size},)")
    if np.any(w < 0.0):
        raise ValueError("negative weight")
    total = w.sum()
    if not total > 0.0:
        raise ValueError("weights sum to zero")
    return FiniteMeasure(space, w / total)


def random_measure(
    space: SeqSpace | int,
    n: int | None = None,
    *,
    rng: np.random.Generator,
) -> FiniteMeasure:
    """Full-support random measure: uniform weights, then normalized."""
    space = _as_space(space, n)
    return from_weights(space, rng.uniform(0.0, 1.0, size=space.size) + 1e-12)


def _as_vector(x) -> np.ndarray:
    if isinstance(x, FiniteMeasure):
        return x.probs
    return np.asarray(x, dtype=np.float64)


def tv_distance(p, r) -> float:
    """Total variation distance, half the l1 distance of the atom vectors.

    Accepts measures or raw arrays (of any sign) of equal dimension.
    """
    pv, rv = _as_vector(p), _as_vector(r)
    if pv.shape != rv.shape:
        raise ValueError(f"dimension mismatch: {pv.shape} vs {rv.shape}")
    return 0.5 * float(np.abs(pv - rv).sum())


def conditional(mu: FiniteMeasure, prefix) -> FiniteMeasure:
    """Law of the suffix (X_{i+1}, ..., X_n) given the length-i prefix.

    Raises :class:`ZeroProbabilityPrefix` when the prefix has no mass.
    """
    prefix = tuple(prefix)
    i = len(prefix)
    q, n = mu.q, mu.n
    if not 1 <= i < n:
        raise ValueError(f"prefix length {i} outside 1..{n - 1}")
    head = SeqSpace(q, i, mu.space.state_cap).index(prefix)
    row = mu.probs.reshape(q ** i, q ** (n - i))[head]
    mass = float(row.sum())
    if mass <= 0.0:
        raise ZeroProbabilityPrefix(f"prefix {prefix} has zero probability")
    return FiniteMeasure(SeqSpace(q, n - i, mu.space.state_cap), row / mass)


def marginal(mu: FiniteMeasure, start: int, stop: int) -> FiniteMeasure:
    """Joint law of positions start..stop (1-based, inclusive)."""
    q, n = mu.q, mu.n
    if not 1 <= start <= stop <= n:
        raise ValueError(f"positions {start}..{stop} outside 1..{n}")
    width = stop - start + 1
    block = mu.probs.reshape(q ** (start - 1), q ** width, q ** (n - stop))
    return FiniteMeasure(SeqSpace(q, width, mu.space.state_cap), block.sum(axis=(0, 2)))
