"""Acceptance suite: one test per release criterion, one printed verdict each.

Each test prints ``ACCEPTANCE <id>: PASS/FAIL`` before asserting, so the
verdict survives in captured output either way.  Criteria with runtime
budgets measure wall time and include it in the verdict line.
"""
import math
import time

import numpy as np
import pytest

from etamix import (
    BuiltinRate,
    MixingMatrix,
    ProductMeasure,
    ValidRow,
    bounds_report,
    build_process,
    check_checkpoints,
    check_conditional_preservation,
    check_samson_inequality,
    conjecture_scan,
    construct_from_target,
    eta_bar,
    factored_mixing_matrix,
    marginal,
    materialize,
    mixing_matrix,
    op_norm_2,
    pure_row_measure,
    rate_R,
    reweight,
    series_product,
    solve_row,
    uniform,
)

import oracles
from helpers import random_full_support, random_valid_target


def verdict(cid: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def batch_500():
    """500 full-support measures cycling q in {2,3} and n in {3,4,5}."""
    rng = np.random.default_rng(424242)
    combos = [(q, n) for q in (2, 3) for n in (3, 4, 5)]
    return [random_full_support(*combos[i % 6], rng) for i in range(500)]


def test_criterion_1_targets_realized_exactly():
    rng = np.random.default_rng(20260825)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        h = random_valid_target(4, rng)
        pm, _ = construct_from_target(h)
        via_factored = factored_mixing_matrix(pm, state_cap=1).entries  # no joint
        via_brute = mixing_matrix(materialize(pm)).entries
        worst = max(
            worst,
            float(np.abs(via_factored - h.entries).max()),
            float(np.abs(via_brute - h.entries).max()),
        )
    elapsed = time.perf_counter() - t0
    verdict(
        "1 (fast tier)",
        worst <= 1e-9 and elapsed <= 5.0,
        f"25 targets at n=4, max dev {worst:.2e}, {elapsed:.2f}s",
    )

    t0 = time.perf_counter()
    h = random_valid_target(5, rng)
    pm, _ = construct_from_target(h)
    joint = materialize(pm)
    dev = float(np.abs(mixing_matrix(joint).entries - h.entries).max())
    elapsed = time.perf_counter() - t0
    verdict(
        "1 (slow tier)",
        dev <= 1e-9 and elapsed <= 120.0,
        f"n=5 joint with {joint.space.size} atoms, max dev {dev:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_pure_row_suite():
    n = 5
    pattern = (0.8, 0.5, 0.2)
    ok = True
    details = []
    for k in (1, 2, 3):
        want = pattern[: n - k]
        want = want + (0.0,) * (n - k - len(want))
        mu, _, its = pure_row_measure(ValidRow(n, k, want), return_iterates=True)
        e = mixing_matrix(mu).entries

        row_dev = float(np.abs(e[k - 1, k:] - want).max())
        off = e.copy()
        off[k - 1, :] = 0.0
        off_dev = float(np.abs(off).max())
        marg_dev = max(
            float(np.abs(marginal(mu, pos, pos).probs - 0.5).max())
            for pos in range(1, n + 1)
        )
        preserved = all(
            check_conditional_preservation(its[i], its[i + 1], k, t + 1)
            for i, t in enumerate(range(n, k, -1))
            if t < n
        )
        ok = ok and row_dev <= 1e-9 and off_dev <= 1e-9
        ok = ok and marg_dev <= 1e-10 and preserved
        details.append(f"k={k}: row {row_dev:.1e} off {off_dev:.1e}")

    mu0 = uniform(2, n)
    for k in (1, 2, 3):
        ok = ok and abs(eta_bar(reweight(mu0, k, n, 0.0), k, n) - 1.0) <= 1e-12
        ok = ok and abs(eta_bar(reweight(mu0, k, n, 1.0), k, n) - 1.0) <= 1e-12
        ok = ok and abs(eta_bar(reweight(mu0, k, n, 0.5), k, n)) <= 1e-12
    verdict("2", ok, "; ".join(details) + "; endpoints exact")


def test_criterion_3_row_monotonicity(batch_500):
    violations = 0
    for mu in batch_500:
        e = mixing_matrix(mu).entries
        n = e.shape[0]
        for i in range(n - 1):
            row = e[i, i + 1 :]
            violations += int(np.any(row[1:] > row[:-1] + 1e-12))
    verdict("3", violations == 0, f"500 measures, {violations} violations")


def test_criterion_4_parallel_sandwich():
    rng = np.random.default_rng(77001)
    worst_out = 0.0
    for _ in range(100):
        pm = ProductMeasure(
            (random_full_support(2, 3, rng), random_full_support(2, 3, rng))
        )
        cells = np.stack([mixing_matrix(c).entries for c in pm.components])
        truth = mixing_matrix(materialize(pm)).entries
        worst_out = max(
            worst_out,
            float((cells.max(axis=0) - truth).max()),
            float((truth - np.minimum(1.0, cells.sum(axis=0))).max()),
        )
    sandwich_ok = worst_out <= 1e-9

    worst_eq = 0.0
    for _ in range(25):
        rows = np.sort(rng.uniform(0.0, 1.0, size=2))[::-1]
        mu1, _ = pure_row_measure(ValidRow(3, 1, tuple(rows)))
        mu2, _ = pure_row_measure(ValidRow(3, 2, (float(rng.uniform()),)))
        pm = ProductMeasure((mu1, mu2))
        cells = np.stack([mixing_matrix(c).entries for c in pm.components])
        width = float((np.minimum(1.0, cells.sum(axis=0)) - cells.max(axis=0)).max())
        truth = mixing_matrix(materialize(pm)).entries
        worst_eq = max(
            worst_eq, width, float(np.abs(factored_mixing_matrix(pm).entries - truth).max())
        )
    verdict(
        "4",
        sandwich_ok and worst_eq <= 1e-9,
        f"100 pairs, worst overshoot {worst_out:.1e}; "
        f"25 disjoint pairs, worst gap {worst_eq:.1e}",
    )


def test_criterion_5_series_block_structure():
    rng = np.random.default_rng(55005)
    m = 2
    worst_cross = 0.0
    worst_match = 0.0
    for _ in range(50):
        mu = random_full_support(2, m, rng)
        nu = random_full_support(2, 2, rng)
        joint = mixing_matrix(series_product(mu, nu)).entries
        left = mixing_matrix(mu).entries
        n_tot = joint.shape[0]
        for i in range(1, n_tot):
            for j in range(i + 1, n_tot + 1):
                if i <= m < j:
                    worst_cross = max(worst_cross, abs(joint[i - 1, j - 1]))
                elif j <= m:
                    worst_match = max(
                        worst_match, abs(joint[i - 1, j - 1] - left[i - 1, j - 1])
                    )
    verdict(
        "5",
        worst_cross <= 1e-12 and worst_match <= 1e-12,
        f"50 pairs, cross {worst_cross:.1e}, in-block {worst_match:.1e}",
    )


def test_criterion_6_rate_tracking():
    t0 = time.perf_counter()
    n_max = 64
    p = build_process(BuiltinRate("sqrt", n_max), k_max=5, n_max=n_max)
    reports = check_checkpoints(p)
    ratios_ok = all(r.passed for r in reports)
    rs = [rate_R(p, n) for n in range(1, n_max + 1)]
    monotone = all(a <= b + 1e-12 for a, b in zip(rs, rs[1:]))
    bounded = all(1.0 - 1e-12 <= r <= n + 1e-12 for n, r in enumerate(rs, start=1))
    elapsed = time.perf_counter() - t0
    verdict(
        "6",
        ratios_ok and monotone and bounded and elapsed <= 30.0,
        f"checkpoints at n={[r.n for r in reports]}, "
        f"ratios {[round(r.ratio, 3) for r in reports]}, {elapsed:.2f}s",
    )


def test_criterion_7_factor_two_inequality_and_scan(batch_500):
    samson_bad = sum(not check_samson_inequality(mu, slack=1e-9) for mu in batch_500)
    rows = conjecture_scan(batch_500)
    scan_bad = sum(not r.satisfied for r in rows)
    verdict(
        "7",
        samson_bad == 0,
        f"factor-two violations {samson_bad}/500; "
        f"scan violations {scan_bad}/500 (informational)",
    )


def test_criterion_8_concentration_arithmetic():
    kont = bounds_report(MixingMatrix.zeros(3), 1.0)["kontram_inf"]
    kont_dev = abs(kont - 2.0 * math.exp(-0.5))
    m = [[1.0, 1.0], [0.0, 1.0]]
    want = oracles.spectral_norm_2x2_charpoly(m)
    golden_dev = abs(op_norm_2(np.array(m)) - want)
    assert abs(want - (1 + math.sqrt(5)) / 2) <= 1e-12
    verdict(
        "8",
        kont_dev <= 1e-12 and golden_dev <= 1e-9,
        f"identity dev {kont_dev:.1e}, golden-ratio dev {golden_dev:.1e}",
    )


def test_criterion_9_forward_order_failure_witness():
    # Ascending order picks v_t = (1+h_t)/2 and only ever overshoots cell
    # (k, t); the cell is exact iff the odds o_t = (1+h_t)/(1-h_t) are at
    # least the product of the later odds.  (0.5, 0.5, 0.2) has odds 3, 3, 1.5
    # and 3 < 4.5, so cell (1, 2) must drift; (0.8, 0.5, 0.2) has odds 9, 3,
    # 1.5, every cell is exact, both orders pick the same flip vector, and
    # their dense replays (tilts in opposite orders) agree to 4 ulp.
    row = ValidRow(4, 1, (0.5, 0.5, 0.2))
    fwd, _ = pure_row_measure(row, order="forward")
    bwd, _ = pure_row_measure(row)
    fwd_cells = mixing_matrix(fwd).entries[0, 1:] - row.h
    err = float(np.abs(fwd_cells).max())
    bwd_err = float(np.abs(mixing_matrix(bwd).entries[0, 1:] - row.h).max())
    contrast = ValidRow(4, 1, (0.8, 0.5, 0.2))
    fwd_c, fwd_steps = pure_row_measure(contrast, order="forward")
    bwd_c = pure_row_measure(contrast)[0].probs
    fwd_v = np.array([s.v_star for s in fwd_steps])
    bwd_v = np.array([s.v_star for s in reversed(solve_row(contrast)[1])])
    agree = fwd_v.tobytes() == bwd_v.tobytes() and bool(
        np.all(np.abs(fwd_c.probs - bwd_c) <= 4 * np.spacing(bwd_c))
    )
    cells = ", ".join(
        f"(1,{t}) {e:+.1e}" for t, e in enumerate(fwd_cells, start=2)
    )
    verdict(
        "9",
        err > 1e-3 and bwd_err <= 1e-9 and agree,
        f"row {row.h}: forward cell errors {cells}; backward max error "
        f"{bwd_err:.1e}; orders agree on {contrast.h}: {agree}",
    )
