"""End-to-end and per-module benchmark of the etamix CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; the program under test is
``src/etamix``, started as ``python -m etamix`` with ``src`` on PYTHONPATH.

Load model: a closed loop with one client.  Each operation is one or two
etamix child processes, timed from spawn to exit, one child at a time.
Before each operation the benchmark writes that operation's own seeded
input (outside the timed window); after it, the benchmark checks the output
files with its own reference code (also outside the window).  A nonzero
exit, a traceback on stderr or a failed check makes the operation fail.

Set-up is repeated SETUP_REPEATS times: write one input, run one untimed
warm-up operation on it.  ``setup_s`` is the median of those.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the loop alternates untraced
operations and operations run through ``traced_op.py``, which wraps the
public functions of every etamix module; the JSON then holds the per-module
metrics, and every span is written to ``.perfbench/spans-<workload>-seed<N>.json``.
``--tiny`` shrinks every input for a quick smoke run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import zlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
#: A child still running after this long is killed and its operation fails;
#: short enough that a run ends within 180 s even when every child hangs.
CHILD_TIMEOUT_S = 30.0
#: op_tail_s is the highest percentile with at least this many samples above it.
TAIL_BEYOND = 10

MODULES = ("cli", "fileio", "measures", "mixing", "construction", "products",
           "process", "concentration")
#: Spans whose self time is reported under another span's metric name.
SPAN_METRIC = {"construction.pure_row": "construction.construct_s",
               "construction.objective": "construction.solve_v_s"}
COUNTERS = {
    "fileio.bytes_read": "B/op", "fileio.bytes_written": "B/op",
    "measures.measures_built": "count/op", "mixing.matrix_calls": "count/op",
    "mixing.eta_bar_calls": "count/op", "mixing.cells": "count/op",
    "mixing.atoms_swept_computed": "count/op", "construction.solve_v_calls": "count/op",
    "construction.objective_evals": "count/op", "construction.bisection_iters": "count/op",
    "process.component_atoms": "count/op",
}
#: Self time per traced operation of each module's public entry points.
NAMED_TIMES = (
    "cli.import_s", "cli.overhead_s", "fileio.read_s", "fileio.write_s",
    "measures.random_measure_s", "measures.validate_s", "mixing.matrix_s", "mixing.phi_s",
    "mixing.validate_s", "mixing.eta_bar_s", "mixing.scan_s", "construction.construct_s",
    "construction.solve_v_s", "products.factored_s", "process.build_s", "process.audit_s",
    "concentration.bounds_s",
)
#: The NAMED_TIMES that are nonzero on every workload; the result line gives
#: these in seconds and every module's self time as a share of the operation.
ALWAYS_TIMED = ("cli.import_s", "cli.overhead_s", "fileio.write_s", "mixing.matrix_s")


class Runner:
    def __init__(self, workload, seed: int, workdir: Path):
        self.wl = workload
        self.seed = seed
        self.tag = zlib.crc32(workload.name.encode())
        self.workdir = workdir
        self.errlog = workdir / "stderr.txt"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failures: list[str] = []
        self.op_rss_mb: list[float] = []

    def rng(self, phase: int, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.tag, phase, i])

    def child(self, cmd: list[str]) -> tuple[float, float, int, str]:
        """Run one child to completion: (wall seconds, peak RSS MB, exit code, stderr)."""
        with open(self.errlog, "w+") as err:
            t0 = perf_counter()
            p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                 env=self.env, cwd=self.workdir)
            timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
                wall = perf_counter() - t0
                p.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if p.returncode is None:
                    p.kill()
                    p.wait()
            err.seek(0)
            text = err.read()
        return wall, usage.ru_maxrss / 1024.0, p.returncode, text

    def operation(self, job, traced: bool) -> tuple[float, list[dict]]:
        """Run a job's commands; returns the summed wall time and the traces.

        Checks the outputs afterwards and records a failure, if any.
        """
        wall, rss, traces, error = 0.0, 0.0, [], None
        for k, args in enumerate(job.commands):
            if traced:
                spans = self.workdir / f"spans{k}.json"
                cmd = [sys.executable, str(BENCH / "traced_op.py"), str(spans), *args]
            else:
                cmd = [sys.executable, "-m", "etamix", *args]
            w, r, code, err = self.child(cmd)
            wall += w
            rss = max(rss, r)
            if code != 0 or "Traceback" in err:
                last = err.strip().splitlines()[-1:] or [""]
                error = f"etamix {args[0]} exited {code}: {last[0]}"
                break
            if traced:
                traces.append(json.loads(spans.read_text()))
                spans.unlink()
        if error is None:
            try:
                self.wl.check(job)
            except CheckFailed as exc:
                error = str(exc)
        self.attempted += 1
        self.op_rss_mb.append(rss)
        if error is not None:
            self.failures.append(error)
        for f in job.files:
            f.unlink(missing_ok=True)
        return wall, traces

    def setup(self) -> tuple[list[float], list[int]]:
        """Each repeat: write one input, run one untimed warm-up operation."""
        times, sizes = [], []
        for r in range(SETUP_REPEATS):
            t0 = perf_counter()
            job = self.wl.make(self.rng(0, r), self.workdir)
            made = perf_counter() - t0
            wall, _ = self.operation(job, traced=False)
            times.append(made + wall)
            sizes.append(job.input_bytes)
        return times, sizes

    def timed(self, seconds: float, traced: bool):
        """Closed loop until the summed operation time reaches ``seconds``."""
        plain, traced_ops, window, i = [], [], 0.0, 0
        while window < seconds or not plain:
            order = (False, True) if i % 2 == 0 else (True, False)
            for tr in (order if traced else (False,)):
                job = self.wl.make(self.rng(1, len(plain) + len(traced_ops)), self.workdir)
                wall, traces = self.operation(job, tr)
                window += wall
                if tr:
                    traced_ops.append((wall, traces))
                else:
                    plain.append(wall)
            i += 1
        return plain, traced_ops, window


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With TAIL_BEYOND or fewer samples no percentile qualifies and the
    minimum (percentile 0) is the closest one.
    """
    s = sorted(samples)
    k = max(len(s) - 1 - TAIL_BEYOND, 0)
    return s[k], (100.0 * k / (len(s) - 1) if len(s) > 1 else 0.0)


def self_times(trace: dict) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's durations."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), c in zip(spans, child):
        out[name] += end - start - c
    return out


def per_module(traced_ops) -> tuple[dict, dict, dict, float]:
    """Per-op means of named self times and counters, module shares and the
    worst residual, from the traced operations."""
    named: dict[str, float] = defaultdict(float)
    modules: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    residual, total = 0.0, 0.0
    for wall, traces in traced_ops:
        total += wall
        accounted = 0.0
        for tr in traces:
            for name, s in self_times(tr).items():
                if name == "cli.main":  # its self time is part of cli.overhead_s
                    continue
                named[SPAN_METRIC.get(name, name + "_s")] += s
                modules[name.split(".")[0]] += s
                accounted += s
            for name, v in tr["counters"].items():
                if name == "construction.max_residual":
                    residual = max(residual, v)
                else:
                    counters[name] += v
        named["cli.overhead_s"] += wall - accounted
        modules["cli"] += wall - accounted
    n = len(traced_ops)
    named = {k: v / n for k, v in named.items()}
    shares = {m: 100.0 * modules.get(m, 0.0) / total for m in MODULES}
    return named, shares, {k: counters.get(k, 0.0) / n for k in COUNTERS}, residual


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run(args) -> dict:
    wl = WORKLOADS[args.workload](args.tiny)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(wl, args.seed, workdir)
        setup, sizes = runner.setup()
        plain, traced_ops, window = runner.timed(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = wl.facts()
    print(f"workload {wl.name}: {facts}, input file {statistics.median(sizes)} bytes")
    print(f"set-up repeats: {['%.4f' % s for s in setup]} s")
    for f in runner.failures:
        print(f"FAILED: {f}")
    error_rate = len(runner.failures) / runner.attempted
    print(f"error_rate = {error_rate:.4f} 1 ({len(runner.failures)} of {runner.attempted} operations)")

    print("op samples: " + " ".join(f"{w:.3f}" for w in plain) + " s")
    p50 = statistics.median(plain)
    if not args.trace:
        tail_value, pct = tail(plain)
        print(f"op_tail_s is p{pct:.1f} of {len(plain)} samples; "
              f"largest child RSS {max(runner.op_rss_mb):.1f} MB")
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "op_p50_s": metric(p50, "s"),
            "op_tail_s": metric(tail_value, "s"),
            "ops_per_s": metric(len(plain) / window, "1/s"),
            "peak_rss_mb": metric(statistics.median(runner.op_rss_mb), "MB"),
        }
    else:
        metrics = traced_metrics(wl.name, args.seed, plain, traced_ops)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not runner.failures, "attempted": runner.attempted,
            "failed": len(runner.failures), "metrics": metrics}


def traced_metrics(name: str, seed: int, plain, traced_ops) -> dict:
    named, shares, counters, residual = per_module(traced_ops)
    traced_p50 = statistics.median(w for w, _ in traced_ops)
    mean = statistics.fmean(w for w, _ in traced_ops)
    print(f"traced ops {len(traced_ops)}, untraced ops {len(plain)}; "
          f"untraced op p50 {statistics.median(plain):.4f} s")
    print("per-module self time per traced op:")
    for k in NAMED_TIMES + tuple(sorted(set(named) - set(NAMED_TIMES))):
        print(f"  {k:32s} {named.get(k, 0.0):.6f} s")
    print(f"sum of self times incl. cli.overhead_s: {sum(named.values()):.4f} s "
          f"= mean traced op {mean:.4f} s; traced op p50 {traced_p50:.4f} s")

    spans = [[op, c, *s] for op, (_, traces) in enumerate(traced_ops)
             for c, tr in enumerate(traces) for s in tr["spans"]]
    path = OUT / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["op", "child", "name", "start", "end", "parent"],
                                "spans": spans}))
    print(f"{len(spans)} spans written to {path.relative_to(ROOT)}")

    metrics = {
        "trace.op_p50_s": metric(traced_p50, "s"),
        "trace.overhead_s": metric(traced_p50 - statistics.median(plain), "s"),
    }
    metrics.update({k: metric(named.get(k, 0.0), "s") for k in ALWAYS_TIMED})
    metrics.update({f"{m}.self_pct": metric(shares[m], "%") for m in MODULES})
    metrics.update({k: metric(counters[k], u) for k, u in COUNTERS.items()})
    metrics["construction.max_residual"] = metric(residual, "1")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for smoke runs")
    args = ap.parse_args(argv)
    if not (SRC / "etamix" / "cli.py").is_file():
        print(f"error: no etamix sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
