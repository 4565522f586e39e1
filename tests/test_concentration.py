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
    coupling_matrices,
    op_norm_2,
    op_norm_inf,
    samson_bound,
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


class TestOpNormInf:
    def test_hand_value(self):
        assert op_norm_inf(np.array([[1.0, 1.0], [0.0, 1.0]])) == 2.0

    def test_one_by_one(self):
        assert op_norm_inf(np.array([[3.0]])) == 3.0

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            op_norm_inf(np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            op_norm_inf(np.ones(3))


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
        upper = math.sqrt(op_norm_inf(m) * op_norm_inf(m.T))
        assert s <= upper + 1e-9
        assert s >= op_norm_inf(m) / math.sqrt(3) - 1e-9


class TestBounds:
    def test_at_t_zero_both_equal_two(self):
        eye = np.eye(3)
        assert samson_bound(eye, 0.0) == 2.0
        rep = bounds_report(MixingMatrix.zeros(3), 0.0)
        assert rep["kontram_inf"] == rep["kontram_2"] == 2.0

    def test_identity_delta_hand_value(self):
        assert bounds_report(MixingMatrix.zeros(2), 1.0)["kontram_inf"] == pytest.approx(
            2.0 * math.exp(-0.5), abs=1e-15
        )

    def test_decreasing_in_t(self):
        gamma = np.array([[1.0, 0.5], [0.0, 1.0]])
        vals = [samson_bound(gamma, t) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            samson_bound(np.eye(2), -1.0)
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

    def test_each_norm_taken_once(self, monkeypatch):
        # one SVD of Delta, shared by norm_2 and kontram_2, and one of Gamma
        calls = []
        monkeypatch.setattr(concentration, "op_norm_2",
                            lambda m: calls.append(m) or op_norm_2(m))
        h = MixingMatrix([[0.0, 0.5, 0.25], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        rep = bounds_report(h, 1.5)
        assert len(calls) == 2
        gamma, delta = coupling_matrices(h)
        assert rep["samson"] == samson_bound(gamma, 1.5)
        assert rep["kontram_inf"] == concentration._deviation(op_norm_inf(delta), 1.5)
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
