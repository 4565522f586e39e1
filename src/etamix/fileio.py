"""File formats: JSON for measures, matrices, products, traces and bounds,
CSV for checkpoint and scan reports.

Every JSON file is ``{"version", **fields}`` laid out by one rule
(:func:`_json_chunks`), and every CSV file is a version comment, a header
and one line per row (:func:`_write_csv`).  Writers are deterministic byte
for byte: floats are emitted with 17 significant digits.  The text is
streamed chunk by chunk into a temp file that is then renamed over the
output, so readers never see a partial file; a write holds one 2^18-value
slice's text (:func:`_float_list`).

Measure readers renormalize atom vectors whose sum drifted by less than
1e-9 and reject anything worse.  numpy and the array modules are imported
by the readers and writers of arrays when they run, and the rate engine by
the process-spec reader; process specs and checkpoint reports need no numpy.
"""
from __future__ import annotations

import json
import os
from array import array
from collections.abc import Iterable
from itertools import chain
from typing import TYPE_CHECKING

from . import __version__
from .errors import DEFAULT_STATE_CAP, FileFormatError

if TYPE_CHECKING:
    import numpy as np

    from .construction import TraceStep
    from .measures import FiniteMeasure
    from .mixing import ConjectureRow, MixingMatrix
    from .process import CheckpointReport
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


def _floats(xs, what: str) -> array:
    """xs as a float array when it is a JSON list of numbers; type() refuses bools."""
    if not isinstance(xs, list) or not all(type(x) is float or type(x) is int for x in xs):
        raise FileFormatError(f"{what} must be a list of numbers")
    try:
        return array("d", xs)
    except OverflowError as exc:  # an integer literal past the float range
        raise FileFormatError(f"{what}: {exc}") from exc


def _fields(obj: dict, what: str, *names: str) -> list:
    """obj's values at names; a missing one is a FileFormatError."""
    try:
        return [obj[k] for k in names]
    except KeyError as exc:
        raise FileFormatError(f"{what} missing field {exc}") from exc


def _scalar(x) -> str:
    """x as JSON and CSV text: true/false, integers as digits, strings
    quoted, other numbers at 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return json.dumps(x)
    return format(float(x), ".17g")


def _is_scalar(x) -> bool:
    return isinstance(x, (str, int, float))


def _float_list(xs: np.ndarray):
    """JSON list of xs at 17 significant digits, yielded 2^18 values at a time.

    Each slice formats each of its distinct values once: a pure row built
    on 2^n atoms holds at most 2^(n-k) distinct probabilities, so writing a
    product formats a small share of its values, and every component up to
    n = 18 is one slice.  Values are told apart by their bits, so -0.0 and
    0.0 keep their own text.  A write holds one 2^18-value slice's text.
    """
    import numpy as np

    v = np.ascontiguousarray(xs, dtype=np.float64).view(np.uint64)
    yield "["
    for start in range(0, v.size, 1 << 18):
        bits, where = np.unique(v[start:start + (1 << 18)], return_inverse=True)
        text = np.array([format(x, ".17g") for x in bits.view(np.float64).tolist()], dtype=object)
        yield (", " if start else "") + ", ".join(text[where].tolist())
    yield "]"


def _json_chunks(x, pad: str):
    """x's JSON text in chunks, x's closing bracket at indent pad.

    Each object key goes on its own line two spaces deeper than its braces,
    except that an object of scalars inside a list takes one line; a 1-D
    array is one :func:`_float_list` line; any other list, iterator or 2-D
    array puts one item per line, reading an iterator's items as it writes
    them.  Arrays are told by ``ndim``, so a file without arrays needs no
    numpy.
    """
    inner = pad + "  "
    if isinstance(x, dict):
        sep = "{"
        for k, v in x.items():
            yield f'{sep}\n{inner}"{k}": '
            yield from _json_chunks(v, inner)
            sep = ","
        yield f"\n{pad}}}"
    elif getattr(x, "ndim", 0) == 1:
        yield from _float_list(x)
    elif not _is_scalar(x):
        yield "[\n"
        sep = inner
        for item in x:
            yield sep
            if isinstance(item, dict) and all(map(_is_scalar, item.values())):
                yield "{" + ", ".join(f'"{k}": {_scalar(v)}' for k, v in item.items()) + "}"
            else:
                yield from _json_chunks(item, inner)
            sep = ",\n" + inner
            del item  # so the next item is built with this one gone
        yield f"\n{pad}]"
    else:
        yield _scalar(x)


def _write_json(path: str, fields: dict) -> None:
    atomic_write(path, chain(_json_chunks({"version": FORMAT_VERSION, **fields}, ""), "\n"))


def _write_csv(path: str, header: str, rows) -> None:
    lines = (",".join(map(_scalar, row)) + "\n" for row in rows)
    atomic_write(path, chain([f"# {FORMAT_VERSION}\n{header}\n"], lines))


def atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks (or one string) to a temp file, then rename it over
    path, so readers never observe partial files.  An OSError becomes a
    FileFormatError "cannot write", and no temp file stays."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(6).hex()}.part")
    try:
        fh = open(tmp, "x")  # a new file (O_EXCL) of mode 0o666 less the umask
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


# --------------------------------------------------------------------------
# measures


def _measure_fields(mu: FiniteMeasure) -> dict:
    return {"q": mu.q, "n": mu.n, "probs": mu.probs}


def write_measure(path: str, mu: FiniteMeasure) -> None:
    _write_json(path, _measure_fields(mu))


def _parse_measure_obj(obj, state_cap: int = DEFAULT_STATE_CAP) -> FiniteMeasure:
    import numpy as np

    from .measures import FiniteMeasure, SeqSpace

    if not isinstance(obj, dict):
        raise FileFormatError("measure object must be a JSON object")
    q, n, probs = _fields(obj, "measure object", "q", "n", "probs")
    q, n = _strict_int(q, "q"), _strict_int(n, "n")
    v = np.frombuffer(_floats(probs, "probs"))
    space = SeqSpace(q, n, int(state_cap))  # StateCapExceeded may propagate
    if v.shape != (space.size,):
        raise FileFormatError(f"probs has {v.size} entries, expected {space.size}")
    if np.any(v < 0.0):
        raise FileFormatError("negative probability in measure file")
    total = float(v.sum())
    if not abs(total - 1.0) < READ_NORM_TOL:
        raise FileFormatError(
            f"probabilities sum to {total!r}; drift exceeds {READ_NORM_TOL}"
        )
    return FiniteMeasure(space, v / total)


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


# --------------------------------------------------------------------------
# mixing matrices


def write_matrix(path: str, h: MixingMatrix) -> None:
    _write_json(path, {"n": h.n, "entries": h.entries})


def read_matrix(path: str) -> MixingMatrix:
    import numpy as np

    from .mixing import MixingMatrix

    n, entries = _fields(_load(path), "matrix file", "n", "entries")
    n = _strict_int(n, "n")
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(not isinstance(r, list) or len(r) != n for r in entries)
    ):
        raise FileFormatError(f"entries must be an {n}-by-{n} array")
    v = np.array([_floats(r, "each matrix row") for r in entries])
    if not np.all(np.isfinite(v)):
        raise FileFormatError("matrix entries must be finite numbers")
    return MixingMatrix(v)


# --------------------------------------------------------------------------
# parallel products (kept factored)


def write_product(path: str, pm: ProductMeasure) -> None:
    """Each component's ``dense()`` is built and written one at a time, so
    its atoms live only while its own text is formatted."""
    comps = (_measure_fields(c.dense()) for c in pm.components)
    _write_json(path, {"n": pm.n, "components": comps})


def read_product(path: str, state_cap: int = DEFAULT_STATE_CAP) -> ProductMeasure:
    """A product file, or a measure file read as a one-component product."""
    from .products import ProductMeasure

    obj = _load(path)
    if "components" not in obj:
        return ProductMeasure((_parse_measure_obj(obj, state_cap),))
    comps = obj["components"]
    if not isinstance(comps, list) or not comps:
        raise FileFormatError("product file needs a nonempty components list")
    parsed = tuple(_parse_measure_obj(c, state_cap) for c in comps)
    try:
        pm = ProductMeasure(parsed)
    except ValueError as exc:
        raise FileFormatError(f"inconsistent product components: {exc}") from exc
    if "n" in obj and _strict_int(obj["n"], "n") != pm.n:
        raise FileFormatError(f"declared n={obj['n']} but components have n={pm.n}")
    return pm


# --------------------------------------------------------------------------
# process specs (input only)


def read_process_spec(path: str):
    """Returns (rate, k_max, n_max, eps-or-None), checking JSON shapes and
    types; RateFunction, BuiltinRate and build_process check the values."""
    from .process import BuiltinRate, RateFunction

    obj = _load(path)
    k_max, n_max, rate = _fields(obj, "process spec", "k_max", "n_max", "rate")
    k_max, n_max = _strict_int(k_max, "k_max"), _strict_int(n_max, "n_max")
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
        c = _strict_int(rate.get("value"), "const rate value") if name == "const" else 1
        r = BuiltinRate(name, n_max, c)
    else:
        raise FileFormatError(f"rate kind must be 'table' or 'builtin', got {kind!r}")
    eps = obj.get("eps")
    if eps is not None:
        eps = tuple(_floats(eps, "eps"))
    return r, k_max, n_max, eps


# --------------------------------------------------------------------------
# traces, bounds, CSV reports


def write_traces(path: str, traces: list[tuple[TraceStep, ...]]) -> None:
    """The steps of rows 1, 2, ..., each step's fields in order: t, v_star,
    achieved, residual."""
    _write_json(path, {"components": [
        {"k": k, "steps": [vars(s) for s in steps]} for k, steps in enumerate(traces, 1)
    ]})


def write_bounds(path: str, report: dict) -> None:
    """The report as given, in the order bounds_report builds its keys."""
    _write_json(path, report)


def write_checkpoints(path: str, reports: list[CheckpointReport]) -> None:
    _write_csv(path, "k,eps_k,n_k,h_k,ratio,pass",
               ((r.k, r.eps, r.n, 1, r.ratio, r.passed) for r in reports))


def write_scan(path: str, rows: list[ConjectureRow]) -> None:
    _write_csv(path, "measure_id,n,q,lhs,rhs,satisfied",
               ((r.measure_id, r.n, r.q, r.lhs, r.rhs, r.satisfied) for r in rows))
