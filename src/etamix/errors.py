"""The exceptions ``etamix`` maps to exit codes, and the state cap.

Nothing here imports numpy, so the CLI can catch every one of them while
loading only the engine its command runs.  Each class is re-exported by
the module that raises it (``measures``, ``mixing``, ``construction``,
``process``, ``fileio``), and the package exports the same objects.
"""

#: Refuse dense vectors with more states than this (128 MiB of float64).
DEFAULT_STATE_CAP = 1 << 24


class FileFormatError(ValueError):
    """Unreadable or malformed input, or an output that cannot be written."""


class StateCapExceeded(ValueError):
    """The requested sequence space needs more dense states than the cap."""


class TargetInvalid(ValueError):
    """A prospective mixing matrix fails the realizability properties."""

    def __init__(self, violations: list):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:8])
        more = "" if len(violations) <= 8 else f" (+{len(violations) - 8} more)"
        super().__init__(f"invalid mixing target: {lines}{more}")


class SolveError(RuntimeError):
    """A solved cell missed its target by more than SOLVE_TOL."""


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
