"""Two sets of benchmark runs: medians, quartiles and a verdict per metric.

    python3 perfbench/compare.py [--base DIR] [--head DIR] [--seeds 10]
                                 [--first-seed 1] [--workloads a,b]

For every workload and seed, runs ``perfbench/run.py`` once in the base
checkout and once in the head checkout, alternating which goes first.  Both
sides use the same seeds and BENCHMARK.json's run_seconds.  With neither
--base nor --head, both sides are this checkout, which measures how well
two sets of runs of the same code agree.

Per metric and workload each side gives a median and quartiles
(``statistics.quantiles(values, n=4)``) and a spread, (q3 - q1) / median.
The verdict uses the metric's bound from BENCHMARK.json:

    unsteady  a side's spread exceeds the bound (not applied to setup_s)
    worse     head's median is worse than base's by more than the bound
    ok        neither

Every run's result goes to ``.perfbench/compare.json``.  Exits 1 when any
run fails or reports incorrect output, or any verdict is not ok.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Spread not held to the bound: set-up runs few times per run by design.
SPREAD_EXEMPT = {"setup_s"}


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{root} {workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def verdict(spec: dict, base: dict, head: dict) -> str:
    bound = spec["bound"]
    if spec["name"] not in SPREAD_EXEMPT and max(base["spread"], head["spread"]) > bound:
        return "unsteady"
    b, h = base["median"], head["median"]
    worse = h > b * (1 + bound) if spec["better"] == "lower" else h < b * (1 - bound)
    return "worse" if worse else "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, default=ROOT)
    ap.add_argument("--head", type=Path, default=ROOT)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    args = ap.parse_args(argv)

    bench = json.loads((args.head / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"]
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}

    runs = {side: {w: [] for w in names} for side in sides}
    for w in names:
        for k, seed in enumerate(range(args.first_seed, args.first_seed + args.seeds)):
            for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
                res = run_once(sides[side], w, seed, bench["run_seconds"])
                runs[side][w].append({"seed": seed, **res})
                print(f"{w} seed {seed} {side}: " + ", ".join(
                    f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()), flush=True)

    report, bad = {}, 0
    print(f"\n{'workload':14s} {'metric':26s} {'base median [q1, q3] spread':44s} "
          f"{'head median [q1, q3] spread':44s} verdict")
    for w in names:
        for spec in specs:
            s = {side: summary([r["metrics"][spec["name"]]["value"] for r in runs[side][w]])
                 for side in sides}
            v = verdict(spec, s["base"], s["head"])
            bad += v != "ok"
            report.setdefault(w, {})[spec["name"]] = {**s, "verdict": v}
            cols = [f"{x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}] {x['spread']:.3f}"
                    for x in s.values()]
            print(f"{w:14s} {spec['name']:26s} {cols[0]:44s} {cols[1]:44s} {v}")
    failed = sum(not r["correct"] or r["failed"] for side in runs.values()
                 for rs in side.values() for r in rs)
    print(f"\nruns with failed operations: {failed}; verdicts not ok: {bad}")
    out = ROOT / ".perfbench" / "compare.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"sides": {k: str(v) for k, v in sides.items()},
                               "runs": runs, "report": report}, indent=1))
    return 1 if failed or bad else 0


if __name__ == "__main__":
    sys.exit(main())
