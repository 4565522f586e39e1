"""File formats: JSON for measures, matrices, products, traces and bounds,
CSV for checkpoint and scan reports.

Writers are deterministic byte for byte: floats are emitted with 17
significant digits and every file starts with (or contains) the format
version tag.  Files are written atomically via a temp file and rename.
Measure readers renormalize atom vectors whose sum drifted by less than
1e-9 and reject anything worse.  numpy and the array modules are imported
by the readers and writers of arrays when they run; process specs and
checkpoint reports need neither.
"""
from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING

from . import __version__
from .errors import FileFormatError, StateCapExceeded
from .process import CheckpointReport, RateFunction

if TYPE_CHECKING:
    import numpy as np

    from .construction import ConstructionTrace
    from .measures import FiniteMeasure
    from .mixing import ConjectureRow, MixingMatrix
    from .products import ProductMeasure

FORMAT_VERSION = f"etamix-{__version__}"

#: Version tags a reader accepts besides none; no input format changed since 0.1.0.
READ_VERSIONS = ("etamix-0.1.0", "etamix-0.2.0", "etamix-0.3.0")

#: Acceptable drift of sum(probs) in a measure file before it is rejected.
READ_NORM_TOL = 1e-9


def _strict_int(x, what: str) -> int:
    """x as an int when it is an integral JSON number and not a bool."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise FileFormatError(f"{what} must be an integer, got {x!r}")
    return x


def _floats(xs, what: str) -> list[float]:
    """xs as floats when it is a JSON list of numbers, bools excluded."""
    if not isinstance(xs, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in xs
    ):
        raise FileFormatError(f"{what} must be a list of numbers")
    try:
        return list(map(float, xs))
    except OverflowError as exc:  # an integer literal past the float range
        raise FileFormatError(f"{what}: {exc}") from exc


def _numbers(xs, what: str) -> np.ndarray:
    """:func:`_floats` as a float64 array."""
    import numpy as np

    return np.asarray(_floats(xs, what), dtype=np.float64)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _float_list(xs: np.ndarray) -> str:
    """JSON list of xs at 17 significant digits, formatting each distinct value once.

    A pure row built on 2^n atoms holds at most 2^(n-k) distinct
    probabilities, so writing a product formats a small share of its
    values.  Values are told apart by their bits, so -0.0 and 0.0 keep
    their own text.
    """
    import numpy as np

    bits, where = np.unique(
        np.ascontiguousarray(xs, dtype=np.float64).view(np.uint64), return_inverse=True
    )
    text = [format(x, ".17g") for x in bits.view(np.float64).tolist()]
    return "[" + ", ".join([text[i] for i in where.tolist()]) + "]"


def atomic_write(path: str, text: str) -> None:
    """Write text then rename, so readers never observe partial files.  An
    OSError becomes a FileFormatError "cannot write", and no temp file stays."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


# --------------------------------------------------------------------------
# measures


def _measure_body(mu: FiniteMeasure, indent: str) -> str:
    return (
        f'{indent}"q": {mu.q},\n'
        f'{indent}"n": {mu.n},\n'
        f'{indent}"probs": {_float_list(mu.probs)}'
    )


def measure_to_json(mu: FiniteMeasure) -> str:
    return '{\n  "version": "%s",\n%s\n}\n' % (FORMAT_VERSION, _measure_body(mu, "  "))


def write_measure(path: str, mu: FiniteMeasure) -> None:
    atomic_write(path, measure_to_json(mu))


def _parse_measure_obj(obj, state_cap: int | None) -> FiniteMeasure:
    import numpy as np

    from .measures import SeqSpace, from_weights

    if not isinstance(obj, dict):
        raise FileFormatError("measure object must be a JSON object")
    try:
        q, n, probs = obj["q"], obj["n"], obj["probs"]
    except KeyError as exc:
        raise FileFormatError(f"measure object missing field {exc}") from exc
    q, n = _strict_int(q, "q"), _strict_int(n, "n")
    v = _numbers(probs, "probs")
    kwargs = {} if state_cap is None else {"state_cap": int(state_cap)}
    space = SeqSpace(q, n, **kwargs)  # StateCapExceeded may propagate
    if v.shape != (space.size,):
        raise FileFormatError(f"probs has {v.size} entries, expected {space.size}")
    if np.any(v < 0.0):
        raise FileFormatError("negative probability in measure file")
    total = float(v.sum())
    if not abs(total - 1.0) < READ_NORM_TOL:
        raise FileFormatError(
            f"probabilities sum to {total!r}; drift exceeds {READ_NORM_TOL}"
        )
    return from_weights(space, v)


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the stack
        raise FileFormatError(f"{path} is not readable JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    if obj.get("version", READ_VERSIONS[0]) not in READ_VERSIONS:
        raise FileFormatError(f"{path}: unknown version {obj['version']!r}")
    return obj


def read_measure(path: str, state_cap: int | None = None) -> FiniteMeasure:
    return _parse_measure_obj(_load(path), state_cap)


# --------------------------------------------------------------------------
# mixing matrices


def matrix_to_json(h: MixingMatrix) -> str:
    rows = ",\n".join("    " + _float_list(row) for row in h.entries)
    return (
        '{\n  "version": "%s",\n  "n": %d,\n  "entries": [\n%s\n  ]\n}\n'
        % (FORMAT_VERSION, h.n, rows)
    )


def write_matrix(path: str, h: MixingMatrix) -> None:
    atomic_write(path, matrix_to_json(h))


def read_matrix(path: str) -> MixingMatrix:
    import numpy as np

    from .mixing import MixingMatrix

    obj = _load(path)
    try:
        n, entries = obj["n"], obj["entries"]
    except KeyError as exc:
        raise FileFormatError(f"matrix file missing field {exc}") from exc
    n = _strict_int(n, "n")
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(not isinstance(r, list) or len(r) != n for r in entries)
    ):
        raise FileFormatError(f"entries must be an {n}-by-{n} array")
    v = np.array([_numbers(r, "each matrix row") for r in entries])
    if not np.all(np.isfinite(v)):
        raise FileFormatError("matrix entries must be finite numbers")
    return MixingMatrix(v)


# --------------------------------------------------------------------------
# parallel products (kept factored)


def product_to_json(pm: ProductMeasure) -> str:
    comps = ",\n".join(
        "    {\n%s\n    }" % _measure_body(c, "      ") for c in pm.components
    )
    return (
        '{\n  "version": "%s",\n  "n": %d,\n  "components": [\n%s\n  ]\n}\n'
        % (FORMAT_VERSION, pm.n, comps)
    )


def write_product(path: str, pm: ProductMeasure) -> None:
    atomic_write(path, product_to_json(pm))


def read_product(path: str, state_cap: int | None = None) -> ProductMeasure:
    """A product file, or a measure file read as a one-component product."""
    from .products import ProductMeasure

    obj = _load(path)
    if "components" in obj:
        return _parse_product_obj(obj, state_cap)
    return ProductMeasure((_parse_measure_obj(obj, state_cap),))


def _parse_product_obj(obj: dict, state_cap: int | None) -> ProductMeasure:
    from .products import ProductMeasure

    comps = obj.get("components")
    if not isinstance(comps, list) or not comps:
        raise FileFormatError("product file needs a nonempty components list")
    try:
        pm = ProductMeasure(tuple(_parse_measure_obj(c, state_cap) for c in comps))
    except (FileFormatError, StateCapExceeded):
        raise
    except ValueError as exc:
        raise FileFormatError(f"inconsistent product components: {exc}") from exc
    if "n" in obj and _strict_int(obj["n"], "n") != pm.n:
        raise FileFormatError(f"declared n={obj['n']} but components have n={pm.n}")
    return pm


# --------------------------------------------------------------------------
# process specs (input only)


def read_process_spec(path: str):
    """Returns (RateFunction, k_max, n_max, eps-or-None), checking JSON
    shapes and types; RateFunction and build_process check the values."""
    obj = _load(path)
    try:
        k_max, n_max, rate = obj["k_max"], obj["n_max"], obj["rate"]
    except KeyError as exc:
        raise FileFormatError(f"process spec missing field {exc}") from exc
    k_max, n_max = _strict_int(k_max, "k_max"), _strict_int(n_max, "n_max")
    # build_process checks this too, but a builtin rate tabulates n_max
    # entries before it runs, and n_max <= 0 would read as an empty table
    if n_max < 2:
        raise FileFormatError(f"n_max must be >= 2, got {n_max}")
    if not isinstance(rate, dict):
        raise FileFormatError("rate must be an object")
    kind = rate.get("kind")
    if kind == "table":
        values = rate.get("values")
        if not isinstance(values, list):
            raise FileFormatError("table rate needs a nonempty values list")
        r = RateFunction(tuple(_strict_int(v, "rate table value") for v in values))
    elif kind == "builtin":
        name = rate.get("name")
        if name == "sqrt":
            r = RateFunction.sqrt(n_max)
        elif name == "linear":
            r = RateFunction.linear(n_max)
        elif name == "const":
            c = _strict_int(rate.get("value"), "const rate value")
            r = RateFunction.constant(c, n_max)
        else:
            raise FileFormatError(f"unknown builtin rate {name!r}")
    else:
        raise FileFormatError(f"rate kind must be 'table' or 'builtin', got {kind!r}")
    eps = obj.get("eps")
    if eps is not None:
        eps = tuple(_floats(eps, "eps"))
    return r, k_max, n_max, eps


# --------------------------------------------------------------------------
# traces, bounds, CSV reports


def traces_to_json(traces: list[ConstructionTrace]) -> str:
    comps = []
    for tr in traces:
        steps = ",\n".join(
            '        {"t": %d, "v_star": %s, "achieved": %s, "residual": %s}'
            % (s.t, _fmt(s.v_star), _fmt(s.achieved), _fmt(s.residual))
            for s in tr.steps
        )
        comps.append(
            '    {\n      "k": %d,\n      "steps": [\n%s\n      ]\n    }'
            % (tr.k, steps)
        )
    return (
        '{\n  "version": "%s",\n  "components": [\n%s\n  ]\n}\n'
        % (FORMAT_VERSION, ",\n".join(comps))
    )


def write_traces(path: str, traces: list[ConstructionTrace]) -> None:
    atomic_write(path, traces_to_json(traces))


def bounds_to_json(report: dict) -> str:
    keys = ("t", "norm_inf", "norm_2", "samson", "kontram_inf", "kontram_2")
    body = ",\n".join(f'  "{k}": {_fmt(report[k])}' for k in keys)
    return '{\n  "version": "%s",\n%s\n}\n' % (FORMAT_VERSION, body)


def write_bounds(path: str, report: dict) -> None:
    atomic_write(path, bounds_to_json(report))


def checkpoint_csv(reports: list[CheckpointReport]) -> str:
    lines = [f"# {FORMAT_VERSION}", "k,eps_k,n_k,h_k,ratio,pass"]
    for r in reports:
        lines.append(
            f"{r.k},{_fmt(r.eps)},{r.n},1,{_fmt(r.ratio)},"
            f"{'true' if r.passed else 'false'}"
        )
    return "\n".join(lines) + "\n"


def write_checkpoints(path: str, reports: list[CheckpointReport]) -> None:
    atomic_write(path, checkpoint_csv(reports))


def scan_csv(rows: list[ConjectureRow]) -> str:
    lines = [f"# {FORMAT_VERSION}", "measure_id,n,q,lhs,rhs,satisfied"]
    for r in rows:
        lines.append(
            f"{r.measure_id},{r.n},{r.q},{_fmt(r.lhs)},{_fmt(r.rhs)},"
            f"{'true' if r.satisfied else 'false'}"
        )
    return "\n".join(lines) + "\n"


def write_scan(path: str, rows: list[ConjectureRow]) -> None:
    atomic_write(path, scan_csv(rows))
