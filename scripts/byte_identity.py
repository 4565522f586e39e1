"""Run one fixed corpus of etamix commands in two source trees and report
every difference in what they print, exit with or write.

    python3 scripts/byte_identity.py BASE HEAD

BASE and HEAD are repository roots, each holding ``src/etamix``.  The
inputs are made once, with a seeded stdlib ``random``, and copied into a
fresh working directory per tree.  Every command runs there as
``python -m etamix`` with that tree's ``src`` on PYTHONPATH and a fresh
PYTHONPYCACHEPREFIX per tree, so no stale bytecode is read and neither
tree is written to.  Bytecode is written to that prefix: with
PYTHONDONTWRITEBYTECODE=1 every command would compile numpy anew and the
corpus would take three times as long.  Paths on the command lines are
relative, so stdout and stderr compare as text.

The corpus: ``construct --trace``, ``bounds`` and ``validate`` on ten
n = 14 targets drawn like the benchmark's and on targets at n = 1, 2, 5
and 18; the three commands on an n = 4 target with every violation kind;
``product`` on the n = 5 output and on two q = 2, n = 3 measures, and
``mix`` on each joint; ``scan``; ``rate`` on linear, sqrt, const, table and
malformed specs; and ``--version``.

Prints one line per differing stdout, stderr, exit code or output file and
exits 1 if anything differs, 0 if nothing does.  Imports nothing from
either tree.  Temporary files go under TMPDIR; the n = 18 product file is
about 100 MB per tree.
"""
from __future__ import annotations

import filecmp
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

VERSION_TAG = "etamix-0.1.0"


def _target(rng: random.Random, n: int) -> list[list[float]]:
    """Zeros on and below the diagonal, each row's cells sorted descending."""
    return [[0.0] * (i + 1) + sorted((rng.random() for _ in range(n - 1 - i)), reverse=True)
            for i in range(n)]


def _dump(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump({"version": VERSION_TAG, **obj}, fh, indent=2)
        fh.write("\n")


def write_inputs(d: str) -> list[list[str]]:
    """Write the corpus's input files into d; return its command lines."""
    rng = random.Random(20260)
    targets = {f"t14_{i}": _target(rng, 14) for i in range(10)}
    targets.update({f"t{n}": _target(rng, n) for n in (1, 2, 5, 18)})
    # lower-triangle, range (above 1 and below 0) and row-increase
    # violations in one matrix
    targets["bad4"] = [[0.0, 0.5, 0.7, 1.5],
                       [0.3, 0.0, -0.2, 0.1],
                       [0.0, 0.25, 0.0, 0.4],
                       [0.0, 0.0, 0.0, 0.0]]
    commands = [["--version"]]
    for name, h in targets.items():
        _dump(os.path.join(d, f"{name}.json"), {"n": len(h), "entries": h})
        commands += [
            ["construct", f"{name}.json", "-o", f"{name}-product.json",
             "--trace", f"{name}-trace.json"],
            ["bounds", f"{name}.json", "--t", "1.0", "-o", f"{name}-bounds.json"],
            ["validate", f"{name}.json"],
        ]

    for name in ("m3a", "m3b"):
        w = [rng.random() + 1e-12 for _ in range(8)]
        _dump(os.path.join(d, f"{name}.json"), {"q": 2, "n": 3, "probs": [x / sum(w) for x in w]})
    for joint, parts in (("joint5", ["t5-product.json"]), ("joint3", ["m3a.json", "m3b.json"])):
        commands += [["product", *parts, "-o", f"{joint}.json"],
                     ["mix", f"{joint}.json", "-o", f"{joint}-matrix.json"]]

    commands += [["scan", "--count", "40", "--q", "2", "--n", "4", "--seed", "7", "-o", "scan2.csv"],
                 ["scan", "--count", "10", "--q", "3", "--n", "3", "--seed", "8", "-o", "scan3.csv"]]

    eps = [rng.uniform(lo, hi) for lo, hi in ((0.51, 0.55), (0.29, 0.33), (0.252, 0.27), (0.202, 0.21))]
    specs = {
        "linear": {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 4, "n_max": 64, "eps": eps},
        "sqrt": {"rate": {"kind": "builtin", "name": "sqrt"}, "k_max": 5, "n_max": 40},
        "const": {"rate": {"kind": "builtin", "name": "const", "value": 3}, "k_max": 2, "n_max": 20},
        "table": {"rate": {"kind": "table", "values": [1, 2, 2, 3, 3, 3, 4, 4, 4, 4]},
                  "k_max": 3, "n_max": 10},
        "too-short": {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 10, "n_max": 6},
        "bad-table": {"rate": {"kind": "table", "values": [1, 0.5, 2]}, "k_max": 1, "n_max": 3},
        "bad-kind": {"rate": {"kind": "spline"}, "k_max": 2, "n_max": 8},
        "bad-eps": {"rate": {"kind": "builtin", "name": "sqrt"}, "k_max": 2, "n_max": 8,
                    "eps": [None, 0.5]},
    }
    for name, spec in specs.items():
        _dump(os.path.join(d, f"rate-{name}.json"), spec)
        commands.append(["rate", f"rate-{name}.json", "-o", f"rate-{name}.csv"])
    return commands


def run_tree(tree: str, inputs: str, work: str, commands: list[list[str]]) -> list:
    """Copy the inputs to work and run every command there against tree's src."""
    shutil.copytree(inputs, work)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONPYCACHEPREFIX=tempfile.mkdtemp(prefix="pycache-", dir=os.path.dirname(work)))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    results = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "etamix", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        results.append((proc.stdout, proc.stderr, proc.returncode))
    return results


def compare(commands, base, head, base_dir: str, head_dir: str) -> list[str]:
    lines = []
    for argv, b, h in zip(commands, base, head):
        cmd = " ".join(argv)
        for what, bv, hv in zip(("stdout", "stderr", "exit code"), b, h):
            if bv != hv:
                lines.append(f"{what} differs: {cmd}" + (f" ({bv} vs {hv})" if what == "exit code" else ""))
    base_files, head_files = set(os.listdir(base_dir)), set(os.listdir(head_dir))
    for name in sorted(base_files | head_files):
        if name not in head_files:
            lines.append(f"file only in base: {name}")
        elif name not in base_files:
            lines.append(f"file only in head: {name}")
        elif not filecmp.cmp(os.path.join(base_dir, name), os.path.join(head_dir, name),
                             shallow=False):
            lines.append(f"file differs: {name}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(t, "src", "etamix")) for t in argv):
        print("usage: python3 scripts/byte_identity.py BASE HEAD  (repository roots)",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.mkdir(inputs)
        commands = write_inputs(inputs)
        dirs = [os.path.join(tmp, side) for side in ("base", "head")]
        base, head = (run_tree(tree, inputs, d, commands) for tree, d in zip(argv, dirs))
        lines = compare(commands, base, head, *dirs)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
