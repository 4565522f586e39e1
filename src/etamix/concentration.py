"""Concentration bounds driven by a mixing matrix.

H is the strictly-upper-triangular mixing matrix, Gamma = I + sqrt(H)
entrywise and Delta = I + H.  ``bounds_report`` writes three values of
2 * exp(-t**2 / (2 * s**2)), each a bound on P(|f - E f| >= t) only for
the functions its source covers:

* ``kontram_inf``, s = ||Delta||_inf (max row sum): Kontorovich & Ramanan
  (Ann. Probab. 2008), Theorem 1.1, give 2 * exp(-t**2 / (2 n c**2 s**2))
  for f c-Lipschitz in Hamming distance.  The formula is the case
  n c^2 = 1, as for f = sum_i x_i / sqrt(n); it does not cover sum_i x_i.
* ``samson``, s = ||Gamma||_2: Samson (Ann. Probab. 2000), for convex f
  1-Lipschitz in Euclidean distance, with Gamma built from that paper's
  mixing coefficients; eta_bar stands in for them, which is not proven.
* ``kontram_2``, s = ||Delta||_2: no source for this form was found, so it
  is a number, not a proven bound.
"""
from __future__ import annotations

import math

import numpy as np

from .measures import _frozen
from .mixing import MixingMatrix, TargetInvalid, validate_target


def coupling_matrices(h: MixingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (Gamma, Delta) of a mixing matrix H: I + entrywise sqrt(H)
    and I + H.

    Requires zeros on and below the diagonal and entries in [0, 1]; row
    monotonicity is not needed here and is not enforced.
    """
    violations = [v for v in validate_target(h) if v.kind != "row-increase"]
    if violations:
        raise TargetInvalid(violations)
    eye = np.eye(h.n)
    return _frozen(eye + np.sqrt(h.entries)), _frozen(eye + h.entries)


def op_norm_2(m: np.ndarray) -> float:
    """Spectral norm (largest singular value), computed by LAPACK's SVD."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return float(np.linalg.norm(m, 2))


def _deviation(s: float, t: float) -> float:
    """2 * exp(-t^2 / (2 * s^2)), the form of both bounds, for a norm s."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return 2.0 * math.exp(-(t * t) / (2.0 * s * s))


def bounds_report(h: MixingMatrix, t: float) -> dict:
    """All bounds for one deviation level t, plus the Delta norms used, in
    the order ``bounds`` writes them.

    ``norm_inf`` (Delta's max row sum) and ``norm_2`` describe Delta and
    enter the two Delta bounds as taken; the Gamma bound takes Gamma's
    spectral norm.
    """
    gamma, delta = coupling_matrices(h)
    norm_inf, norm_2 = float(delta.sum(axis=1).max()), op_norm_2(delta)
    return {
        "t": float(t),
        "norm_inf": norm_inf,
        "norm_2": norm_2,
        "samson": _deviation(op_norm_2(gamma), t),
        "kontram_inf": _deviation(norm_inf, t),
        "kontram_2": _deviation(norm_2, t),
    }
