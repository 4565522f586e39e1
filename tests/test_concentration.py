import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etamix.concentration as concentration
from etamix import (
    MixingMatrix,
    TargetInvalid,
    bounds_report,
    construct_from_target,
    coupling_matrices,
    op_norm_2,
)

import oracles


class TestCouplingMatrices:
    def test_zero_target_gives_identities(self):
        gamma, delta = coupling_matrices(MixingMatrix.zeros(3))
        assert np.array_equal(gamma, np.eye(3))
        assert np.array_equal(delta, np.eye(3))

    def test_square_root_applied_entrywise(self):
        gamma, delta = coupling_matrices(MixingMatrix([[0.0, 0.25], [0.0, 0.0]]))
        assert np.array_equal(gamma, [[1.0, 0.5], [0.0, 1.0]])
        assert np.array_equal(delta, [[1.0, 0.25], [0.0, 1.0]])

    def test_range_violation_rejected(self):
        with pytest.raises(TargetInvalid):
            coupling_matrices(MixingMatrix([[0.0, 1.5], [0.0, 0.0]]))

    def test_row_monotonicity_not_required(self):
        h = MixingMatrix([[0.0, 0.2, 0.4], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        _, delta = coupling_matrices(h)  # increasing row, but the bounds still apply
        assert delta[0, 2] == 0.4

    def test_matrices_read_only(self):
        for m in coupling_matrices(MixingMatrix.zeros(2)):
            with pytest.raises(ValueError):
                m[0, 0] = 5.0


class TestOpNorm2:
    def test_golden_ratio_matrix(self):
        m = [[1.0, 1.0], [0.0, 1.0]]
        want = oracles.spectral_norm_2x2_charpoly(m)
        assert want == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)
        assert op_norm_2(np.array(m)) == pytest.approx(want, abs=1e-9)
        # Delta of the target with rows 0.5 and 0.4999 on disjoint pairs: its
        # two largest singular values nearly coincide, and the norm is that
        # of the larger 2x2 block.
        near = np.eye(4)
        near[0, 1], near[2, 3] = 0.5, 0.4999
        want = oracles.spectral_norm_2x2_charpoly([[1.0, 0.5], [0.0, 1.0]])
        assert op_norm_2(near) == pytest.approx(want, abs=1e-12)

    def test_diagonal(self):
        assert op_norm_2(np.diag([3.0, 2.0])) == pytest.approx(3.0, abs=1e-9)

    def test_identity_and_zero(self):
        assert op_norm_2(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
        assert op_norm_2(np.zeros((3, 3))) == 0.0
        with pytest.raises(ValueError, match="ndim=1"):
            op_norm_2(np.ones(3))

    def test_matches_lapack_on_random_nonneg(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            m = rng.uniform(0.0, 1.0, size=(4, 4))
            assert op_norm_2(m) == pytest.approx(
                float(np.linalg.norm(m, 2)), abs=1e-8
            )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hoelder_bounds(self, seed):
        m = np.random.default_rng(seed).uniform(0.0, 1.0, size=(3, 3))
        s = op_norm_2(m)
        rows, cols = m.sum(axis=1).max(), m.sum(axis=0).max()  # ||M||_inf and ||M||_1
        assert s <= math.sqrt(rows * cols) + 1e-9
        assert s >= rows / math.sqrt(3) - 1e-9


class TestBounds:
    def test_at_t_zero_both_equal_two(self):
        rep = bounds_report(MixingMatrix.zeros(3), 0.0)
        assert rep["samson"] == rep["kontram_inf"] == rep["kontram_2"] == 2.0

    def test_identity_delta_hand_value(self):
        assert bounds_report(MixingMatrix.zeros(2), 1.0)["kontram_inf"] == pytest.approx(
            2.0 * math.exp(-0.5), abs=1e-15
        )

    def test_decreasing_in_t(self):
        h = MixingMatrix([[0.0, 0.25], [0.0, 0.0]])  # Gamma = [[1, 0.5], [0, 1]]
        vals = [bounds_report(h, t)["samson"] for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            concentration._deviation(op_norm_2(np.eye(2)), -1.0)
        with pytest.raises(ValueError):
            bounds_report(MixingMatrix.zeros(2), -0.5)

    def test_spectral_variant_is_tighter_for_this_target(self):
        h = MixingMatrix([[0.0, 0.6, 0.4], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
        rep = bounds_report(h, 1.0)
        assert rep["kontram_2"] < rep["kontram_inf"]


class TestBoundsReport:
    def test_nan_below_the_diagonal_is_an_invalid_target(self):
        with pytest.raises(TargetInvalid):
            bounds_report(MixingMatrix([[0.0, 0.5], [float("nan"), 0.0]]), 1.0)

    def test_keys_and_zero_target(self):
        rep = bounds_report(MixingMatrix.zeros(3), 1.0)
        assert list(rep) == ["t", "norm_inf", "norm_2", "samson", "kontram_inf",
                             "kontram_2"]
        assert rep["norm_inf"] == 1.0
        assert rep["norm_2"] == pytest.approx(1.0, abs=1e-12)
        for key in ("samson", "kontram_inf", "kontram_2"):
            assert rep[key] == pytest.approx(2.0 * math.exp(-0.5), abs=1e-9)

    def test_norms_describe_delta(self):
        h = MixingMatrix([[0.0, 1.0], [0.0, 0.0]])
        rep = bounds_report(h, 1.0)
        assert rep["norm_inf"] == 2.0
        assert rep["norm_2"] == pytest.approx(
            oracles.spectral_norm_2x2_charpoly([[1.0, 1.0], [0.0, 1.0]]), abs=1e-9
        )
        assert bounds_report(MixingMatrix.zeros(1), 1.0)["norm_inf"] == 1.0  # Delta = [[1]]

    def test_each_norm_taken_once(self, monkeypatch):
        # one SVD of Delta, shared by norm_2 and kontram_2, and one of Gamma
        calls = []
        monkeypatch.setattr(concentration, "op_norm_2",
                            lambda m: calls.append(m) or op_norm_2(m))
        h = MixingMatrix([[0.0, 0.5, 0.25], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        rep = bounds_report(h, 1.5)
        assert len(calls) == 2
        gamma, delta = coupling_matrices(h)
        assert rep["samson"] == concentration._deviation(op_norm_2(gamma), 1.5)
        assert rep["kontram_inf"] == concentration._deviation(delta.sum(axis=1).max(), 1.5)
        assert rep["kontram_2"] == concentration._deviation(op_norm_2(delta), 1.5)


class TestWhatTheBoundCovers:
    """kontram_inf on iid fair bits (Delta = I) against seeded draws of the
    sum S of n bits, P(|f - E f| >= t) read off 200,000 draws."""

    DRAWS = 200_000

    def _tail(self, rng, n, threshold):
        s = rng.binomial(n, 0.5, size=self.DRAWS)
        return float(np.mean(np.abs(s - n / 2) >= threshold))

    def _margin(self, p):
        return 4.0 * math.sqrt(p * (1.0 - p) / self.DRAWS) if p < 1.0 else 0.0

    @pytest.mark.parametrize("n", [100, 400])
    def test_scaled_sum_stays_under(self, n):
        # f = S / sqrt(n) changes by 1/sqrt(n) per coordinate: n c^2 = 1
        rng = np.random.default_rng(0)
        for t in (0.5, 1.0, 1.5, 2.0, 2.5):
            bound = bounds_report(MixingMatrix.zeros(n), t)["kontram_inf"]
            p = self._tail(rng, n, t * math.sqrt(n))
            assert p <= bound + self._margin(min(bound, 1.0))

    def test_unscaled_sum_is_a_witness(self):
        # f = S is 1-Lipschitz in Hamming distance, outside the bound's reach
        rng = np.random.default_rng(0)
        bound = bounds_report(MixingMatrix.zeros(100), 5.0)["kontram_inf"]
        p = self._tail(rng, 100, 5.0)
        assert bound == pytest.approx(7.5e-6, rel=0.01)
        assert p - self._margin(p) > bound and p == pytest.approx(0.367, abs=0.01)


def flip_product_draws(components, draws, rng):
    """Seeded draws of a product of flip-vector components, one (draws, n)
    bit array per component: X_1..X_k fair bits and each later X_t equal to
    X_k flipped with probability 1 - v_t, where v_t = 1/2 if no pair is
    stored.  Reads only ``n``, ``k`` and ``flips``."""
    for c in components:
        v = np.full(c.n - c.k, 0.5)
        for t, vt in c.flips:
            v[t - c.k - 1] = vt
        bits = rng.integers(0, 2, size=(draws, c.n), dtype=np.uint8)
        bits[:, c.k:] = bits[:, c.k - 1 : c.k] ^ (rng.random((draws, c.n - c.k)) >= v)
        yield bits


class TestOnConstructions:
    """kontram_inf on construct_from_target outputs, whose coordinates
    depend on each other.  f = (1/sqrt(n)) sum_t g_t, for g_t the parity of
    the component bits at position t, changes by at most 1/sqrt(n) per
    packed symbol: n c^2 = 1.  Every component bit is a fair bit and the
    components are independent, so each g_t is fair and E f = sqrt(n) / 2."""

    DRAWS = 20_000

    @staticmethod
    def _target(n, rng):
        """Rows of at most 8 runs (so at most 8 stored flips), each row
        scaled to a sum below 1/4."""
        h = np.zeros((n, n))
        for k in range(1, n):
            m = n - k
            cuts = np.sort(rng.choice(np.arange(1, m), size=min(8, m) - 1, replace=False))
            runs = np.diff(np.concatenate(([0], cuts, [m])))
            row = np.repeat(np.sort(rng.uniform(0.0, 1.0, size=runs.size))[::-1], runs)
            h[k - 1, k:] = row * (rng.uniform(0.0, 0.25) / row.sum())
        return MixingMatrix(h)

    @pytest.mark.parametrize("n", [50, 100])
    def test_parity_sum_stays_under(self, n):
        rng = np.random.default_rng(n)
        h = self._target(n, rng)
        pm, _ = construct_from_target(h)
        assert max(len(c.flips) for c in pm.components) <= 8
        g = np.zeros((self.DRAWS, n), dtype=np.uint8)
        for bits in flip_product_draws(pm.components, self.DRAWS, rng):
            g ^= bits
        dev = np.abs(g.sum(axis=1) / math.sqrt(n) - math.sqrt(n) / 2)
        for t in (1.5, 1.75, 2.0):
            bound = bounds_report(h, t)["kontram_inf"]
            assert bound < 1.0
            p = float(np.mean(dev >= t))
            assert p <= bound + 4.0 * math.sqrt(bound * (1.0 - bound) / self.DRAWS)
