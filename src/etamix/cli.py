"""Command line entry points.

Subcommands: mix, construct, rate, bounds, validate, product, scan.  Exit
codes: 0 success, 1 failed checkpoint audit; a failure exits as
:mod:`etamix.errors` states, with the ``exit_code`` of its exception (2
for any other ValueError).  ``construct`` solves each flip probability
exactly from the cell's piecewise-linear closed form, in O(|T| log |T|)
per position for a tail law of |T| atoms, audits every cell and prints its
trace's worst miss.  Output files are written atomically and depend only
on the inputs and the seed, so reruns are byte-identical.  Each command imports the engine it runs when it runs, so
``rate``, ``--help`` and ``--version`` never load numpy.
"""
from __future__ import annotations

import argparse
import sys

from . import fileio
from .errors import DEFAULT_STATE_CAP, FileFormatError, SolveError, TargetInvalid
from .process import build_process, check_checkpoints

EXIT_OK = 0
EXIT_CHECK_FAILED = 1


def _cmd_mix(args) -> int:
    from .mixing import mixing_matrix

    mu = fileio.read_measure(args.measure, state_cap=args.state_cap)
    fileio.write_matrix(args.output, mixing_matrix(mu))
    print(f"wrote {args.output} (n={mu.n})")
    return EXIT_OK


def _cmd_construct(args) -> int:
    from .construction import construct_from_target
    from .measures import SeqSpace

    h = fileio.read_matrix(args.matrix)
    # the product file holds 2^n atoms per component: refuse past the cap before solving
    SeqSpace(2, h.n)
    pm, traces = construct_from_target(h)
    fileio.write_product(args.output, pm)
    if args.trace:
        fileio.write_traces(args.trace, traces)
    dev = max((abs(s.residual) for tr in traces for s in tr.steps), default=0.0)
    print(f"wrote {args.output}; max |achieved - target| = {dev:.3e}")
    return EXIT_OK


def _cmd_rate(args) -> int:
    r, k_max, n_max, eps = fileio.read_process_spec(args.spec)
    p = build_process(r, k_max=k_max, n_max=n_max, eps=eps)
    reports = check_checkpoints(p)
    fileio.write_checkpoints(args.output, reports)
    ok = all(rep.passed for rep in reports)
    print(f"wrote {args.output}; {sum(r.passed for r in reports)}/{len(reports)} checkpoints pass")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_bounds(args) -> int:
    from .concentration import bounds_report

    h = fileio.read_matrix(args.matrix)
    fileio.write_bounds(args.output, bounds_report(h, args.t))
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .mixing import validate_target

    h = fileio.read_matrix(args.matrix)
    violations = validate_target(h)
    if not violations:
        print(f"{args.matrix}: valid mixing target (n={h.n})")
        return EXIT_OK
    for v in violations:
        print(str(v))
    return TargetInvalid.exit_code


def _cmd_product(args) -> int:
    from .products import ProductMeasure, materialize

    if len(args.measures) == 1:
        pm = fileio.read_product(args.measures[0], state_cap=args.state_cap)
    else:
        comps = tuple(
            fileio.read_measure(p, state_cap=args.state_cap) for p in args.measures
        )
        pm = ProductMeasure(comps)
    joint = materialize(pm, state_cap=args.state_cap)
    fileio.write_measure(args.output, joint)
    print(f"wrote {args.output} (q={joint.q}, n={joint.n})")
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.count < 1:
        raise FileFormatError(f"--count must be >= 1, got {args.count}")
    import numpy as np

    from .measures import SeqSpace, random_measure
    from .mixing import conjecture_scan

    rng = np.random.default_rng(args.seed)
    space = SeqSpace(args.q, args.n, args.state_cap)
    mus = [random_measure(space, rng=rng) for _ in range(args.count)]
    rows = conjecture_scan(mus)
    fileio.write_scan(args.output, rows)
    bad = sum(not r.satisfied for r in rows)
    print(f"wrote {args.output}; {len(rows)} measures scanned, {bad} violations")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="etamix",
        description="Mixing coefficients of finite sequence measures and "
        "measures built to order from prescribed coefficients.",
    )
    ap.add_argument("--version", action="version", version=fileio.FORMAT_VERSION)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument(
            "--state-cap", type=int, default=DEFAULT_STATE_CAP,
            help="max dense states a measure may use (default 2**24)",
        )

    p = sub.add_parser("mix", help="mixing matrix of a dense measure file")
    p.add_argument("measure")
    p.add_argument("-o", "--output", required=True)
    add_cap(p)
    p.set_defaults(fn=_cmd_mix)

    p = sub.add_parser("construct", help="build a product measure realizing a target matrix")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--trace", help="also write the per-step solver trace")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("rate", help="build a rate-tracking process and audit its checkpoints")
    p.add_argument("spec")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("bounds", help="concentration bounds from a mixing matrix")
    p.add_argument("matrix")
    p.add_argument("--t", type=float, required=True, help="deviation level")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("validate", help="check a matrix file against the realizability properties")
    p.add_argument("matrix")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("product", help="materialize a parallel product into a dense measure")
    p.add_argument("measures", nargs="+",
                   help="measure files, or a single factored product file")
    p.add_argument("-o", "--output", required=True)
    add_cap(p)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("scan", help="random-measure scan of the phi/eta inequality")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    add_cap(p)
    p.set_defaults(fn=_cmd_scan)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, SolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for v in getattr(exc, "violations", ()):
            print(str(v), file=sys.stderr)
        return getattr(exc, "exit_code", FileFormatError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
