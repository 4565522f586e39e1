"""Shared builders for the test suite."""
from __future__ import annotations

import numpy as np

from etamix import FiniteMeasure, MixingMatrix, SeqSpace, from_weights


def copy_chain(n: int) -> FiniteMeasure:
    """Binary measure putting mass 1/2 on each constant sequence."""
    space = SeqSpace(2, n)
    probs = np.zeros(space.size)
    probs[0] = 0.5
    probs[-1] = 0.5
    return FiniteMeasure(space, probs)


def flip_pairs(k: int, v) -> tuple:
    """The (t, v_t) pairs a PureRow keeps for the flip vector v over
    positions k+1, k+2, ...: the halves dropped."""
    return tuple((t, x) for t, x in enumerate(v, start=k + 1) if x != 0.5)


def random_full_support(q: int, n: int, rng: np.random.Generator) -> FiniteMeasure:
    weights = rng.uniform(0.0, 1.0, size=q**n) + 1e-12
    return from_weights(SeqSpace(q, n), weights)


def random_valid_target(n: int, rng: np.random.Generator) -> MixingMatrix:
    """Random matrix satisfying the three realizability constraints, with
    rows made nonincreasing by sorting."""
    entries = np.zeros((n, n))
    for i in range(n - 1):
        row = np.sort(rng.uniform(0.0, 1.0, size=n - 1 - i))[::-1]
        entries[i, i + 1 :] = row
    return MixingMatrix(entries)
