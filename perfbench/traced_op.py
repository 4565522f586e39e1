"""Run one etamix command in-process with spans around each module's calls.

    python3 perfbench/traced_op.py SPANS_JSON etamix-args...

Imports ``etamix.cli``, replaces public names where their callers look them
up (``etamix.cli.mixing_matrix``, ``etamix.construction.solve_v`` and so on)
with timing wrappers, runs ``etamix.cli.main`` and exits with its code.  The
spans and counters go to SPANS_JSON when the command ends.  Nothing in the
etamix sources changes; the wrappers live only in this process.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter


class Tracer:
    """Spans (name, start, end, parent index) and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, name: str, k: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def high(self, name: str, v: float) -> None:
        self.counters[name] = max(self.counters.get(name, v), v)

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Time ``module.attr`` as span ``name``; a name the module lacks is skipped."""
        if hasattr(module, attr):
            setattr(module, attr, self.span(name, getattr(module, attr), after))


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tr: Tracer) -> None:
    """Wrap every public name the CLI reaches, at the module its caller reads it from."""
    import etamix.cli as cli
    import etamix.concentration as concentration
    import etamix.construction as construction
    import etamix.fileio as fileio
    import etamix.measures as measures
    import etamix.mixing as mixing
    import etamix.process as process
    import etamix.products as products

    for attr in dir(fileio):
        if attr.startswith("read_") or attr.startswith("write_"):
            kind = attr.split("_")[0]
            counter = "fileio.bytes_read" if kind == "read" else "fileio.bytes_written"
            tr.wrap(fileio, attr, f"fileio.{kind}",
                    lambda a, k, r, c=counter: tr.count(c, _size(a[0])))

    def matrix_done(a, k, r):
        mu = a[0]
        cells = mu.n * (mu.n - 1) // 2
        tr.count("mixing.matrix_calls")
        tr.count("mixing.cells", cells)
        tr.count("mixing.atoms_swept_computed", cells * mu.q ** mu.n)

    for mod in (cli, products, process, mixing):
        tr.wrap(mod, "mixing_matrix", "mixing.matrix", matrix_done)

    def eta_bar_done(a, k, r):
        tr.count("mixing.eta_bar_calls")
        tr.count("mixing.cells")
        tr.count("mixing.atoms_swept_computed", a[0].q ** a[0].n)

    tr.wrap(construction, "eta_bar", "mixing.eta_bar", eta_bar_done)

    def phi_done(a, k, r):
        mu = a[0]
        tr.count("mixing.atoms_swept_computed", mu.n * (mu.n - 1) // 2 * mu.q ** mu.n)

    tr.wrap(mixing, "phi_vector", "mixing.phi", phi_done)
    for mod in (cli, construction, concentration):
        tr.wrap(mod, "validate_target", "mixing.validate")
    tr.wrap(cli, "conjecture_scan", "mixing.scan")

    tr.wrap(cli, "random_measure", "measures.random_measure")
    # every FiniteMeasure checks its atom vector on construction
    tr.wrap(measures.FiniteMeasure, "__post_init__", "measures.validate",
            lambda a, k, r: tr.count("measures.measures_built"))

    tr.wrap(cli, "construct_from_target", "construction.construct")
    for mod in (construction, process):
        tr.wrap(mod, "pure_row_measure", "construction.pure_row")

    def solve_done(a, k, r):
        target = k["target"] if "target" in k else a[3]
        step = r[1]
        tr.count("construction.solve_v_calls")
        tr.count("construction.bisection_iters", step.iterations)
        tr.high("construction.max_residual", abs(step.achieved - target))

    tr.wrap(construction, "solve_v", "construction.solve_v", solve_done)
    tr.wrap(construction, "row_objective", "construction.objective",
            lambda a, k, r: tr.count("construction.objective_evals"))

    tr.wrap(cli, "factored_mixing_matrix", "products.factored")
    tr.wrap(cli, "build_process", "process.build",
            lambda a, k, r: tr.count("process.component_atoms",
                                     sum(c.probs.size for c in r.components)))
    tr.wrap(cli, "check_checkpoints", "process.audit")
    tr.wrap(cli, "bounds_report", "concentration.bounds")


def main(argv: list[str]) -> int:
    spans_path, etamix_args = argv[0], argv[1:]
    tr = Tracer()
    t0 = perf_counter()
    import etamix.cli
    tr.spans.append(["cli.import", t0, perf_counter(), -1])
    install(tr)
    code = 1
    try:
        code = tr.span("cli.main", etamix.cli.main)(etamix_args)
    finally:
        Path(spans_path).write_text(json.dumps({"spans": tr.spans, "counters": tr.counters}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
