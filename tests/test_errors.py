"""The failure contract in ``etamix.errors``: each exception's exit code,
and the one summary of a long violation list."""
import re
from pathlib import Path

import pytest

from etamix import RateFunction, build_process
from etamix.errors import (
    FileFormatError,
    HorizonTooSmall,
    SolveError,
    StateCapExceeded,
    TargetInvalid,
)


def test_exit_codes_match_the_readme():
    text = Path(__file__).parents[1].joinpath("README.md").read_text()
    paragraph = text[text.index("Exit codes:"):].split("\n\n")[0]
    listed = {name: int(code) for code, name in re.findall(r"(\d)\s+`(\w+)`", paragraph)}
    exceptions = (FileFormatError, StateCapExceeded, TargetInvalid, HorizonTooSmall, SolveError)
    assert listed == {exc.__name__: exc.exit_code for exc in exceptions}


@pytest.mark.parametrize("count, suffix", [(8, ""), (9, " (+1 more)")])
def test_invalid_target_shows_eight(count, suffix):
    violations = [f"v{i}" for i in range(count)]
    shown = "; ".join(violations[:8])
    assert str(TargetInvalid(violations)) == f"invalid mixing target: {shown}{suffix}"


@pytest.mark.parametrize("count, suffix", [(8, ""), (9, " (+1 more)")])
def test_invalid_rate_shows_eight(count, suffix):
    # r(n) = 0 breaks 1 <= r(n) <= n once per entry and never decreases
    shown = "; ".join(f"r({n}) = 0 outside [1, {n}]" for n in range(1, 9))
    with pytest.raises(ValueError) as exc:
        build_process(RateFunction((0,) * count), k_max=1, n_max=count)
    assert str(exc.value) == f"invalid rate: {shown}{suffix}"
