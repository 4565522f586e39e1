"""Seeded inputs, commands and output checks for the benchmark workloads.

Every workload turns one random generator into one operation: it writes the
operation's input files, names the ``etamix`` commands that make up the
operation, and later checks the files those commands wrote.  The checks use
this file's own reference code (numpy tensor reshapes, or plain Python
enumeration) and never call into the etamix package.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Version tag written into generated input files, as the seed release writes it.
FILE_VERSION = "etamix-0.1.0"


@dataclass
class Job:
    """One operation: its etamix command lines and what its checks need."""

    commands: list[list[str]]
    files: list[Path]
    expect: dict = field(default_factory=dict)
    input_bytes: int = 0


class CheckFailed(Exception):
    """An output file is missing, malformed or numerically wrong."""


def _load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


def _read_csv(path: Path) -> list[dict]:
    """Rows of an etamix CSV report, skipping its '#' version line."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc
    return list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _write(path: Path, text: str) -> int:
    path.write_text(text)
    return len(text)


# --------------------------------------------------------------------------
# reference mixing coefficients (own code, no etamix calls)


def ref_matrix(p: np.ndarray, q: int, n: int, rows=None) -> np.ndarray:
    """eta_bar cells of the dense measure p on q^n atoms, for the given
    1-based rows i (all rows by default); other cells stay 0.

    Per row: condition on each length-i prefix once, then sum one position
    out at a time, so cell (i, j) compares the laws of (X_j, ..., X_n) given
    two prefixes that differ only in position i.  A row costs O(q^n).
    """
    out = np.zeros((n, n))
    for i in range(1, n) if rows is None else rows:
        t = p.reshape(q ** (i - 1), q, -1)
        mass = t.sum(axis=2)
        cond = t / np.where(mass > 0.0, mass, 1.0)[:, :, None]
        for j in range(i + 1, n + 1):
            if j > i + 1:
                cond = cond.reshape(cond.shape[0], q, q, -1).sum(axis=2)
            for a, b in itertools.combinations(range(q), 2):
                alive = (mass[:, a] > 0.0) & (mass[:, b] > 0.0)
                if alive.any():
                    d = 0.5 * np.abs(cond[:, a] - cond[:, b]).sum(axis=1)
                    out[i - 1, j - 1] = max(out[i - 1, j - 1], float(d[alive].max()))
    return out


def _check_valid_rows(e: np.ndarray, tol: float) -> None:
    n = e.shape[0]
    _require(float(np.abs(np.tril(e)).max()) <= tol, "nonzero cell on or below the diagonal")
    for i in range(n - 1):
        row = e[i, i + 1:]
        _require(bool(np.all(row >= -tol) and np.all(row <= 1.0 + tol)),
                 f"row {i + 1} leaves [0, 1]")
        _require(bool(np.all(np.diff(row) <= tol)), f"row {i + 1} increases")


# --------------------------------------------------------------------------
# brute-force enumeration for the scan check (plain Python)


def _enum_block_law(atoms, prefix, j):
    law, total = {}, 0.0
    for x, w in atoms:
        if x[:len(prefix)] == prefix:
            total += w
            law[x[j - 1:]] = law.get(x[j - 1:], 0.0) + w
    return None if total <= 0.0 else {k: v / total for k, v in law.items()}


def _enum_tv(a, b):
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def enum_scan_row(p, q: int, n: int) -> tuple[float, float]:
    """(0.5 * sum_g phi_g, 1 + max row sum of eta_bar) by enumeration."""
    atoms = list(zip(itertools.product(range(q), repeat=n), (float(x) for x in p)))
    eta = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            for y in itertools.product(range(q), repeat=i - 1):
                laws = [_enum_block_law(atoms, y + (w,), j) for w in range(q)]
                for la, lb in itertools.combinations(laws, 2):
                    if la is not None and lb is not None:
                        eta[i][j] = max(eta[i][j], _enum_tv(la, lb))
    phis = []
    for g in range(1, n):
        best = 0.0
        for i in range(1, n - g + 1):
            uncond = _enum_block_law(atoms, (), i + g)
            for y in itertools.product(range(q), repeat=i):
                law = _enum_block_law(atoms, y, i + g)
                if law is not None:
                    best = max(best, _enum_tv(law, uncond))
        phis.append(best)
    rhs = 1.0 + max(sum(eta[i][i + 1:]) for i in range(1, n))
    return 0.5 * sum(phis), rhs


# --------------------------------------------------------------------------
# workloads


class MixDense:
    """`etamix mix` on a full-support random measure with q = 2."""

    name = "mix_dense"
    rows_checked = 4

    def __init__(self, tiny: bool):
        self.q, self.n = 2, (8 if tiny else 20)
        self.atoms = self.q ** self.n
        # 16-17 significant digits per atom, the precision etamix itself writes
        self.exp = 16 + int(math.log10(self.atoms))

    def facts(self) -> dict:
        return {"atoms": self.atoms, "vector_bytes": 8 * self.atoms}

    def make(self, rng: np.random.Generator, d: Path) -> Job:
        w = rng.uniform(0.0, 1.0, self.atoms) + 1e-12
        mant = np.rint(w / w.sum() * 10.0 ** self.exp).astype(np.int64)
        sep = f"e-{self.exp}"
        text = (
            f'{{\n  "version": "{FILE_VERSION}",\n  "q": {self.q},\n  "n": {self.n},\n'
            f'  "probs": [{(sep + ", ").join(map(str, mant.tolist()))}{sep}]\n}}\n'
        )
        src, out = d / "measure.json", d / "matrix.json"
        size = _write(src, text)
        rows = sorted({1, self.n - 1} | set(
            rng.choice(np.arange(2, self.n - 1), self.rows_checked - 2, replace=False).tolist()))
        return Job([["mix", str(src), "-o", str(out)]], [src, out],
                   {"mant": mant, "rows": rows, "out": out}, size)

    def check(self, job: Job) -> None:
        obj = _load_json(job.expect["out"])
        e = np.asarray(obj.get("entries"), dtype=float)
        _require(e.shape == (self.n, self.n), f"matrix shape {e.shape}")
        _check_valid_rows(e, 1e-12)
        p = job.expect["mant"] / 10.0 ** self.exp
        p = p / p.sum()
        ref = ref_matrix(p, self.q, self.n, job.expect["rows"])
        for i in job.expect["rows"]:
            dev = float(np.abs(e[i - 1] - ref[i - 1]).max())
            _require(dev <= 1e-12, f"row {i} is {dev:.3e} from the reference")


class ConstructN14:
    """`etamix construct --trace` then `etamix bounds --t 1.0` on one target."""

    name = "construct_n14"

    def __init__(self, tiny: bool):
        self.n = 5 if tiny else 14

    def facts(self) -> dict:
        atoms = 2 ** self.n
        return {"atoms": atoms, "vector_bytes": 8 * atoms, "components": self.n - 1}

    def make(self, rng: np.random.Generator, d: Path) -> Job:
        n = self.n
        h = np.zeros((n, n))
        for i in range(n - 1):
            h[i, i + 1:] = np.sort(rng.uniform(0.0, 1.0, n - 1 - i))[::-1]
        rows = ",\n".join("    [" + ", ".join(map(repr, r.tolist())) + "]" for r in h)
        text = (f'{{\n  "version": "{FILE_VERSION}",\n  "n": {n},\n'
                f'  "entries": [\n{rows}\n  ]\n}}\n')
        src = d / "target.json"
        prod, trace, bounds = d / "product.json", d / "trace.json", d / "bounds.json"
        size = _write(src, text)
        return Job(
            [["construct", str(src), "-o", str(prod), "--trace", str(trace)],
             ["bounds", str(src), "--t", "1.0", "-o", str(bounds)]],
            [src, prod, trace, bounds],
            {"h": h, "product": prod, "bounds": bounds}, size,
        )

    def check(self, job: Job) -> None:
        h, n = job.expect["h"], self.n
        comps = _load_json(job.expect["product"]).get("components")
        _require(isinstance(comps, list) and len(comps) == n - 1,
                 "product needs one component per row")
        mats = []
        for c in comps:
            _require(c.get("q") == 2 and c.get("n") == n, "component is not on {0,1}^n")
            mats.append(ref_matrix(np.asarray(c["probs"], dtype=float), 2, n))
        mats = np.stack(mats)
        for name, achieved in (("max", mats.max(axis=0)), ("sum", mats.sum(axis=0))):
            dev = float(np.abs(achieved - h).max())
            _require(dev <= 1e-9, f"|achieved - target| = {dev:.3e} ({name} over components)")
        b = _load_json(job.expect["bounds"])
        keys = ("t", "norm_inf", "norm_2", "samson", "kontram_inf", "kontram_2")
        _require(all(isinstance(b.get(k), (int, float)) and math.isfinite(b[k]) for k in keys),
                 "bounds report has a missing or non-finite value")
        delta = np.eye(n) + h
        _require(abs(b["norm_inf"] - delta.sum(axis=1).max()) <= 1e-12, "norm_inf is wrong")
        ref2 = float(np.linalg.norm(delta, 2))
        _require(abs(b["norm_2"] - ref2) <= 1e-6 * ref2, "norm_2 is wrong")


class ScanSmall:
    """`etamix scan --count 2000 --q 2 --n 4` with a fresh seed per operation."""

    name = "scan_small"
    q, n = 2, 4
    rows_checked = 16

    def __init__(self, tiny: bool):
        self.count = 50 if tiny else 2000

    def facts(self) -> dict:
        atoms = self.q ** self.n
        return {"atoms": atoms, "vector_bytes": 8 * atoms, "measures": self.count}

    def make(self, rng: np.random.Generator, d: Path) -> Job:
        seed = int(rng.integers(0, 2**31))
        out = d / "scan.csv"
        ids = sorted(rng.choice(self.count, min(self.rows_checked, self.count),
                                replace=False).tolist())
        cmd = ["scan", "--count", str(self.count), "--q", str(self.q), "--n", str(self.n),
               "--seed", str(seed), "-o", str(out)]
        return Job([cmd], [out], {"seed": seed, "ids": ids, "out": out})

    def check(self, job: Job) -> None:
        rows = _read_csv(job.expect["out"])
        _require(len(rows) == self.count, f"{len(rows)} scan rows, expected {self.count}")
        _require([int(r["measure_id"]) for r in rows] == list(range(self.count)),
                 "scan rows are not measures 0..count-1 in order")
        # scan draws each measure as uniform(0, 1) weights + 1e-12, normalized
        rng = np.random.default_rng(job.expect["seed"])
        w = rng.uniform(0.0, 1.0, (self.count, self.q ** self.n)) + 1e-12
        for mid in job.expect["ids"]:
            lhs, rhs = enum_scan_row(w[mid] / w[mid].sum(), self.q, self.n)
            r = rows[mid]
            got_l, got_r = float(r["lhs"]), float(r["rhs"])
            _require(abs(got_l - lhs) <= 1e-12 and abs(got_r - rhs) <= 1e-12,
                     f"row {mid}: ({got_l!r}, {got_r!r}), enumeration ({lhs!r}, {rhs!r})")
            if abs(lhs - rhs) > 1e-12:
                _require((r["satisfied"] == "true") == (lhs <= rhs), f"row {mid}: wrong verdict")


class RateLinear:
    """`etamix rate` with the builtin linear rate."""

    name = "rate_linear"

    # Each eps_k is drawn from an interval on which the checkpoint horizon
    # n_k = min{n : (n - k) / n >= 1 - eps_k} stays at 2, 7, 12, 20: every
    # operation gets its own spec and the same amount of work.
    EPS_RANGES = ((0.51, 0.55), (0.29, 0.33), (0.252, 0.27), (0.202, 0.21))

    def __init__(self, tiny: bool):
        self.k_max, self.n_max = (2, 16) if tiny else (4, 64)

    def horizons(self, eps) -> list[int]:
        return [next(n for n in range(k + 1, self.n_max + 1) if (n - k) / n >= 1.0 - e)
                for k, e in enumerate(eps, start=1)]

    def facts(self) -> dict:
        eps = [lo for lo, _ in self.EPS_RANGES[:self.k_max]]
        atoms = 2 ** max(self.horizons(eps))
        return {"atoms": atoms, "vector_bytes": 8 * atoms, "horizons": self.horizons(eps)}

    def make(self, rng: np.random.Generator, d: Path) -> Job:
        eps = [float(rng.uniform(lo, hi)) for lo, hi in self.EPS_RANGES[:self.k_max]]
        spec = {"version": FILE_VERSION, "k_max": self.k_max, "n_max": self.n_max,
                "rate": {"kind": "builtin", "name": "linear"}, "eps": eps}
        src, out = d / "spec.json", d / "checkpoints.csv"
        size = _write(src, json.dumps(spec, indent=2) + "\n")
        return Job([["rate", str(src), "-o", str(out)]], [src, out],
                   {"eps": eps, "out": out}, size)

    def check(self, job: Job) -> None:
        rows = _read_csv(job.expect["out"])
        eps = job.expect["eps"]
        _require(len(rows) == len(eps), f"{len(rows)} checkpoints, expected {len(eps)}")
        for k, (row, e, n_k) in enumerate(zip(rows, eps, self.horizons(eps)), start=1):
            _require(row["pass"] == "true", f"checkpoint {k} failed")
            _require(int(row["n_k"]) == n_k, f"checkpoint {k} at n={row['n_k']}, expected {n_k}")
            # linear rate: h_k = 1, so the audited ratio is (n_k - k) / n_k
            _require(abs(float(row["ratio"]) - (n_k - k) / n_k) <= 1e-9,
                     f"checkpoint {k} ratio {row['ratio']}")


WORKLOADS = {w.name: w for w in (MixDense, ConstructN14, ScanSmall, RateLinear)}
