"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload run.py knows (those of BENCHMARK.json, and mix_dense
and scan_small, which are runnable but not in BENCHMARK.json) with
``--tiny --seconds 1``, untraced and traced, and checks that the result line names exactly the end-to-end
(or per-layer) metrics with their units, that every output was correct and
that error_rate is 0.  Also checks that the benchmark refuses to run, without
printing a result, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits 1 on the first problem.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
            label = f"{name} --trace {trace}"
            if p.returncode != 0:
                problems.append(f"{label}: exit {p.returncode}\n{p.stderr}")
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {got} != {want}")
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or "error_rate = 0.0000" not in p.stdout:
                problems.append(f"{label}: failed operations\n{p.stdout}")
            print(f"{label}: {len(got)} metrics, {res['attempted']} operations ok")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for d in bench["paths"]:
        shutil.copytree(ROOT / d, bare / d, ignore=shutil.ignore_patterns("__pycache__"))
    p = run(bare, "--workload", bench["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        problems.append(f"without sources: exit {p.returncode}, stdout {p.stdout!r}")
    else:
        print(f"without sources: exit {p.returncode}, no result printed")

    for msg in problems:
        print("PROBLEM: " + msg)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
