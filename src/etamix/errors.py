"""The CLI's failure contract, and the state cap.

Each exception ``etamix`` maps to an exit code carries it as ``exit_code``:
``cli.main`` prints ``error: <exc>``, then each of its ``violations`` if it
has them, on stderr and returns that code; any other ValueError exits 2.
Nothing here imports numpy, so the CLI catches every one of them while
loading only the engine its command runs.  Each class is re-exported by the
module that raises it, and the package exports the same objects.
"""

#: Refuse dense vectors with more states than this (128 MiB of float64).
DEFAULT_STATE_CAP = 1 << 24


def summarize(items, fmt=str) -> str:
    """The first 8 items, each formatted by ``fmt``, joined by "; ", then
    " (+N more)" for the rest, which are counted and never formatted."""
    it = iter(items)
    head = "; ".join(fmt(x) for _, x in zip(range(8), it))
    rest = sum(1 for _ in it)
    return head + (f" (+{rest} more)" if rest else "")


class FileFormatError(ValueError):
    """Unreadable or malformed input, or an output that cannot be written."""

    exit_code = 2


class StateCapExceeded(ValueError):
    """The requested sequence space needs more dense states than the cap."""

    exit_code = 3


class TargetInvalid(ValueError):
    """A prospective mixing matrix fails the realizability properties."""

    exit_code = 4

    def __init__(self, violations: list):
        self.violations = violations
        super().__init__(f"invalid mixing target: {summarize(violations)}")


class HorizonTooSmall(ValueError):
    """No admissible checkpoint horizon within n_max; carries the fix, an
    n_max at which a rerun admits every checkpoint, named only within the
    rate-table cap."""

    exit_code = 5

    def __init__(self, k: int, eps: float, n_max: int, required: int):
        self.k = k
        self.eps = eps
        self.n_max = n_max
        self.required_n_max = required
        fix = f"n_max >= {required} suffices"
        if required > DEFAULT_STATE_CAP:
            fix = f"the horizon it needs is past the {DEFAULT_STATE_CAP}-entry rate-table cap"
        super().__init__(f"no horizon <= {n_max} admits checkpoint k={k} at eps={eps}; {fix}")


class SolveError(RuntimeError):
    """A solved cell missed its target by more than SOLVE_TOL."""

    exit_code = 6
