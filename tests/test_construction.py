import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etamix.construction as construction
import etamix.measures as measures
from etamix import (
    MixingMatrix,
    PureRow,
    SeqSpace,
    TargetInvalid,
    ValidRow,
    check_conditional_preservation,
    construct_from_target,
    eta_bar,
    factored_mixing_matrix,
    from_weights,
    marginal,
    materialize,
    mixing_matrix,
    pure_row_measure,
    reweight,
    solve_row,
    uniform,
)

from helpers import random_valid_target
from oracles import FlipLawExact, mixing_matrix_slow


class TestValidRow:
    def test_accepts_valid_data(self):
        row = ValidRow(5, 2, (0.8, 0.5, 0.2))
        assert row.target(3) == 0.8
        assert row.target(5) == 0.2

    def test_length_must_match(self):
        with pytest.raises(ValueError):
            ValidRow(5, 2, (0.8, 0.5))

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            ValidRow(3, 0, (0.5, 0.5))
        with pytest.raises(ValueError):
            ValidRow(3, 3, ())

    def test_entries_in_range(self):
        with pytest.raises(ValueError):
            ValidRow(3, 1, (0.5, -0.1))
        with pytest.raises(ValueError):
            ValidRow(3, 1, (1.2, 0.1))

    def test_row_must_be_nonincreasing(self):
        with pytest.raises(ValueError):
            ValidRow(3, 1, (0.2, 0.5))

    def test_target_bounds(self):
        row = ValidRow(3, 1, (0.5, 0.2))
        with pytest.raises(ValueError):
            row.target(1)
        with pytest.raises(ValueError):
            row.target(4)


class TestReweight:
    def test_half_is_identity(self):
        mu = uniform(2, 3)
        assert np.array_equal(reweight(mu, 1, 3, 0.5).probs, mu.probs)

    def test_one_couples_exactly(self):
        nu = reweight(uniform(2, 2), 1, 2, 1.0)
        assert np.array_equal(nu.probs, [0.5, 0.0, 0.0, 0.5])

    def test_hand_value(self):
        nu = reweight(uniform(2, 2), 1, 2, 0.75)
        assert np.allclose(nu.probs, [0.375, 0.125, 0.125, 0.375], atol=1e-15)

    def test_marginals_stay_fair(self):
        mu = uniform(2, 4)
        nu = reweight(mu, 2, 4, 0.9)
        for pos in range(1, 5):
            assert np.allclose(marginal(nu, pos, pos).probs, [0.5, 0.5], atol=1e-12)

    def test_binary_alphabet_only(self):
        with pytest.raises(ValueError):
            reweight(uniform(3, 2), 1, 2, 0.8)

    def test_v_range_checked(self):
        mu = uniform(2, 2)
        with pytest.raises(ValueError):
            reweight(mu, 1, 2, 1.2)
        with pytest.raises(ValueError):
            reweight(mu, 1, 2, -0.1)

    def test_position_bounds_checked(self):
        mu = uniform(2, 3)
        with pytest.raises(ValueError):
            reweight(mu, 2, 2, 0.7)
        with pytest.raises(ValueError):
            reweight(mu, 0, 2, 0.7)

    def test_vanishing_mass_rejected(self):
        mu = from_weights(SeqSpace(2, 2), [0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            reweight(mu, 1, 2, 1.0)

    def test_is_the_agreement_mask_formula(self):
        # reference: weight v where bits k and t of the atom index agree
        rng = np.random.default_rng(7)
        for n in range(2, 8):
            idx = np.arange(1 << n)
            for k in range(1, n):
                for t in range(k + 1, n + 1):
                    mu = measures.random_measure(2, n, rng=rng)
                    agree = ((idx >> (n - k)) & 1) == ((idx >> (n - t)) & 1)
                    for v in (0.0, 0.5, 1.0, float(rng.uniform())):
                        w = np.where(agree, v, 1.0 - v) * mu.probs
                        want = w / float(w.sum())
                        assert reweight(mu, k, t, v).probs.tobytes() == want.tobytes()


class TestRowObjective:
    def test_linear_on_uniform(self):
        mu = uniform(2, 2)
        assert eta_bar(reweight(mu, 1, 2, 0.5), 1, 2) == 0.0
        assert eta_bar(reweight(mu, 1, 2, 1.0), 1, 2) == 1.0
        assert eta_bar(reweight(mu, 1, 2, 0.75), 1, 2) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_in_v(self):
        mu = uniform(2, 3)
        vals = [eta_bar(reweight(mu, 1, 3, v), 1, 3) for v in np.linspace(0.5, 1.0, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


@st.composite
def _tilted_pure_rows(draw):
    """(n, k, t, later, v): flips ``later`` at positions n, n-1, ..., t+1."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    t = draw(st.integers(k + 1, n))
    flip = st.one_of(st.just(0.5), st.just(1.0), st.floats(0.5, 1.0))
    later = draw(st.lists(flip, min_size=n - t, max_size=n - t))
    return n, k, t, later, draw(flip)


class TestSolveV:
    def test_interior_target(self):
        (step,) = solve_row(ValidRow(2, 1, (0.5,)))[1]
        assert step.v_star == 0.75
        assert step.achieved == pytest.approx(0.5, abs=1e-12)
        assert step.residual == step.achieved - 0.5
        assert abs(step.residual) <= construction.SOLVE_TOL

    def test_endpoint_targets_are_exact(self):
        one = np.ones(1)
        assert construction._flip_solve(one, 0.0) == 0.5
        assert construction._flip_solve(one, 1.0) == 1.0

    def test_target_validation(self):
        # targets reach the solve only through a ValidRow, which checks the range
        with pytest.raises(ValueError):
            solve_row(ValidRow(2, 1, (1.5,)))

    @pytest.mark.parametrize("h", [0.0, 1e-12, 0.3, 0.6, 1.0 - 2.0**-53, 1.0])
    def test_single_flip_is_half_one_plus_h(self, h):
        assert construction._flip_solve(np.ones(1), h) == (1.0 + h) / 2.0

    def test_target_below_the_floor_gives_half(self):
        # Couple (1,3) hard; the (1,2) cell then sits at 0.8 even at v = 1/2,
        # and nothing in [1/2, 1] brings it lower.
        mu = reweight(uniform(2, 3), 1, 3, 0.9)
        assert eta_bar(reweight(mu, 1, 2, 0.5), 1, 2) == pytest.approx(0.8, abs=1e-12)
        assert construction._flip_solve(np.array([0.9, 0.1]), 0.2) == 0.5

    def test_flat_piece_at_half(self):
        # tail [0.9, 0.1]: f is 0.8 on [1/2, 0.9] and 2v - 1 beyond
        tail = np.array([0.9, 0.1])
        assert construction._flip_solve(tail, 0.8) == 0.5
        v = construction._flip_solve(tail, np.nextafter(0.8, 1.0))
        assert np.isfinite(v) and v == pytest.approx(0.9, abs=1e-15)
        assert construction._flip_solve(tail, 0.85) == 0.925

    @settings(max_examples=200, deadline=None)
    @given(_tilted_pure_rows(), st.floats(0.0, 1.0))
    def test_solves_the_dense_cell(self, case, u):
        n, k, t, later, v = case
        mu = uniform(2, n)
        tail = np.ones(1)
        for s, v_s in zip(range(n, t, -1), later):
            mu = reweight(mu, k, s, v_s)
            if v_s != 0.5:
                tail = np.kron([v_s, 1.0 - v_s], tail)
        floor = eta_bar(reweight(mu, k, t, 0.5), k, t)
        # a free target and one the drawn flip reaches
        for target in (u, construction._flip_cell(tail, v)):
            v_star = construction._flip_solve(tail, target)
            assert 0.5 <= v_star <= 1.0
            if target <= construction._flip_cell(tail, 0.5):
                assert v_star == 0.5
                assert target <= floor + 1e-12
            else:
                assert abs(eta_bar(reweight(mu, k, t, v_star), k, t) - target) <= 1e-12

    def test_residuals_at_n20(self):
        rng = np.random.default_rng(2020)
        for _ in range(3):
            _, traces = construct_from_target(random_valid_target(20, rng))
            assert max(abs(s.residual) for tr in traces for s in tr.steps) <= 1e-14


class TestPureRowMeasure:
    def test_zero_row_returns_uniform(self):
        mu, trace = pure_row_measure(ValidRow(3, 1, (0.0, 0.0)))
        assert np.array_equal(mu.probs, np.full(8, 0.125))
        assert all(s.v_star == 0.5 for s in trace.steps)

    def test_ones_row(self):
        mu, _ = pure_row_measure(ValidRow(3, 1, (1.0, 1.0)))
        e = mixing_matrix(mu).entries
        assert e[0, 1] == e[0, 2] == 1.0
        assert abs(e[1, 2]) <= 1e-12

    def test_row_achieved_and_rest_zero(self):
        h = (0.6, 0.4)
        mu, _ = pure_row_measure(ValidRow(3, 1, h))
        e = mixing_matrix(mu).entries
        assert np.allclose(e[0, 1:], h, atol=1e-9)
        assert abs(e[1, 2]) <= 1e-9

    def test_interior_row_k(self):
        mu, _ = pure_row_measure(ValidRow(4, 2, (0.7, 0.3)))
        e = mixing_matrix(mu).entries
        assert np.allclose(e[1, 2:], (0.7, 0.3), atol=1e-9)
        off = e.copy()
        off[1, :] = 0.0
        assert np.abs(off).max() <= 1e-9

    def test_marginals_stay_fair(self):
        mu, _ = pure_row_measure(ValidRow(4, 1, (0.9, 0.5, 0.1)))
        for pos in range(1, 5):
            assert np.allclose(marginal(mu, pos, pos).probs, [0.5, 0.5], atol=1e-10)

    def test_trace_records_descending_positions(self):
        _, trace = pure_row_measure(ValidRow(4, 1, (0.9, 0.5, 0.1)))
        assert [s.t for s in trace.steps] == [4, 3, 2]
        assert trace.k == 1

    def test_deterministic(self):
        row = ValidRow(4, 2, (0.8, 0.2))
        a, ta = pure_row_measure(row)
        b, tb = pure_row_measure(row)
        assert np.array_equal(a.probs, b.probs)
        assert ta == tb

    def test_each_step_preserves_later_blocks(self):
        row = ValidRow(4, 1, (0.8, 0.5, 0.2))
        _, trace, its = pure_row_measure(row, return_iterates=True)
        for idx, step in enumerate(trace.steps):
            if step.t < 4:
                assert check_conditional_preservation(
                    its[idx], its[idx + 1], 1, step.t + 1
                )

    def test_preservation_check_detects_change(self):
        # The first backward step couples (1,4), which moves the conditional
        # law of the block starting at position 3.
        row = ValidRow(4, 1, (0.8, 0.5, 0.2))
        _, _, its = pure_row_measure(row, return_iterates=True)
        assert not check_conditional_preservation(its[0], its[1], 1, 3)

    def test_flat_segment_skips_the_solve(self, monkeypatch):
        solved = []
        real = construction._flip_solve

        def counting(tail, target):
            solved.append(target)
            return real(tail, target)

        monkeypatch.setattr(construction, "_flip_solve", counting)
        mu, trace = pure_row_measure(ValidRow(5, 1, (0.6,) * 4))
        assert solved == [0.6]
        assert [s.v_star for s in trace.steps[1:]] == [0.5] * 3
        assert np.allclose(mixing_matrix(mu).entries[0, 1:], 0.6, atol=1e-12)

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            pure_row_measure(ValidRow(3, 1, (0.5, 0.2)), order="sideways")


class TestVisitOrder:
    def test_forward_order_fails_on_flat_then_drop_row(self):
        # With targets (0.5, 0.5, 0.2) the early tilts feed back into the
        # already-solved cells, so ascending order cannot realize the row.
        row = ValidRow(4, 1, (0.5, 0.5, 0.2))
        fwd, _ = pure_row_measure(row, order="forward")
        err = np.abs(mixing_matrix(fwd).entries[0, 1:] - row.h).max()
        assert err > 1e-3

    def test_backward_order_succeeds_on_same_row(self):
        row = ValidRow(4, 1, (0.5, 0.5, 0.2))
        bwd, _ = pure_row_measure(row)
        err = np.abs(mixing_matrix(bwd).entries[0, 1:] - row.h).max()
        assert err <= 1e-9

    def test_orders_agree_when_each_odds_dominates_later_product(self):
        # For (0.8, 0.5, 0.2) every target's odds (1+h)/(1-h) dominate the
        # product of the later odds, so each backward solve lands past the
        # last breakpoint on v = (1 + h) / 2: both visit orders pick the same
        # flip vector bit for bit, and their dense replays, which tilt in
        # opposite orders, agree to rounding.
        row = ValidRow(4, 1, (0.8, 0.5, 0.2))
        fwd, fwd_trace = pure_row_measure(row, order="forward")
        fwd_v = np.array([s.v_star for s in fwd_trace.steps])
        assert fwd_v.tobytes() == np.array(solve_row(row)[0].v).tobytes()
        assert solve_row(row)[0].v == (0.9, 0.75, 0.6)
        bwd, _ = pure_row_measure(row)
        assert np.all(np.abs(fwd.probs - bwd.probs) <= 4 * np.spacing(bwd.probs))


class TestClosedFormCell:
    @settings(max_examples=200, deadline=None)
    @given(_tilted_pure_rows())
    def test_matches_dense_row_objective(self, case):
        n, k, t, later, v = case
        mu = uniform(2, n)
        tail = np.ones(1)
        for s, v_s in zip(range(n, t, -1), later):
            mu = reweight(mu, k, s, v_s)
            if v_s != 0.5:
                tail = np.kron([v_s, 1.0 - v_s], tail)
        dense = eta_bar(reweight(mu, k, t, v), k, t)
        assert abs(construction._flip_cell(tail, v) - dense) <= 1e-12

    @pytest.mark.parametrize("order", ["backward", "forward"])
    @pytest.mark.parametrize(
        "n,k,h",
        [
            (4, 1, (0.8, 0.5, 0.2)),
            (4, 1, (0.5, 0.5, 0.2)),
            (6, 2, (0.9, 0.6, 0.6, 0.1)),
            (5, 1, (1.0, 0.7, 0.7, 0.0)),
            (5, 3, (0.0, 0.0)),
            (8, 1, (0.93, 0.81, 0.62, 0.62, 0.4, 0.17, 0.05)),
        ],
    )
    def test_measure_is_the_replayed_reweight_chain(self, order, n, k, h):
        row = ValidRow(n, k, h)
        mu, trace = pure_row_measure(row, order=order)
        closed = solve_row(row)[1] if order == "backward" else trace.steps
        replay = uniform(2, n)
        for step, solved in zip(trace.steps, closed):
            t = step.t
            if order == "backward" and t < n and row.target(t) == row.target(t + 1):
                assert step.v_star == 0.5
            if step.v_star != 0.5:
                replay = reweight(replay, k, t, step.v_star)
            assert step.achieved == eta_bar(replay, k, t)
            assert step.residual == step.achieved - row.target(t)
            if order == "backward":
                # the closed-form cell the solve recorded is the dense eta_bar
                assert abs(solved.achieved - step.achieved) <= 1e-12
                assert solved.residual == solved.achieved - row.target(t)
                assert abs(solved.residual) <= construction.SOLVE_TOL
            else:
                # ascending order solves each cell on untouched later positions
                cell = construction._flip_cell(np.ones(1), step.v_star)
                assert abs(cell - step.achieved) <= 1e-12
        assert np.array_equal(mu.probs, replay.probs)

    @pytest.mark.parametrize(
        "n,k,h",
        [
            (4, 1, (0.8, 0.5, 0.2)),
            (4, 1, (0.5, 0.5, 0.2)),
            (6, 2, (0.9, 0.6, 0.6, 0.1)),
            (5, 1, (1.0, 0.7, 0.7, 0.0)),
            (5, 3, (0.0, 0.0)),
            (8, 1, (0.93, 0.81, 0.62, 0.62, 0.4, 0.17, 0.05)),
        ],
    )
    def test_pure_row_dense_is_the_measure(self, n, k, h):
        row = ValidRow(n, k, h)
        mu, trace = pure_row_measure(row)
        pr, steps = solve_row(row)
        assert pr.dense().probs.tobytes() == mu.probs.tobytes()
        assert [s.v_star for s in steps] == [s.v_star for s in trace.steps]
        assert pr.v == tuple(s.v_star for s in reversed(trace.steps))


@st.composite
def _valid_rows(draw):
    """ValidRows with n <= 8; half of them with one entry one float spacing
    above its right-hand neighbour, where a solve may land on v = 1/2."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    h = draw(st.lists(st.floats(0.0, 1.0), min_size=n - k, max_size=n - k))
    h.sort(reverse=True)
    if n - k > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - k - 2))
        h[i] = min(float(np.nextafter(h[i + 1], 2.0)), 1.0)
        h.sort(reverse=True)
    return ValidRow(n, k, tuple(h))


class TestOneReplay:
    @settings(max_examples=200, deadline=None)
    @given(_valid_rows())
    @example(ValidRow(8, 6, (0.3994252615788065, 0.3994252615788064)))
    def test_dense_is_the_reference_bit_for_bit(self, row):
        mu, trace = pure_row_measure(row)
        assert solve_row(row)[0].dense().probs.tobytes() == mu.probs.tobytes()


@st.composite
def _pure_rows(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    flip = st.one_of(st.just(0.5), st.just(1.0), st.floats(0.0, 1.0))
    return PureRow(n, k, draw(st.lists(flip, min_size=n - k, max_size=n - k)))


class TestPureRow:
    @settings(max_examples=40, deadline=None)
    @given(_pure_rows())
    # subnormal atoms: a float64 reference puts 1.1e-11 into cell (2, 3)
    @example(PureRow(3, 1, (2.2250738585e-313, 0.625)))
    def test_prefix_matrices_match_oracle(self, pr):
        k = pr.k
        for m in range(1, pr.n + 1):
            law = FlipLawExact(m, k, pr.v[: max(m - k, 0)])
            want = np.array(mixing_matrix_slow(law), dtype=float)
            row = pr.row(m)
            assert row.shape == (max(m - k, 0),)
            if k < m:
                assert np.abs(row - want[k - 1, k:]).max() <= 1e-12
                want[k - 1, k:] = 0.0
            assert not want.any()  # every other row of the prefix is zero
        placed = np.zeros((pr.n, pr.n))
        placed[k - 1, k:] = pr.row(pr.n)
        assert np.array_equal(pr.matrix(), placed)

    def test_measure_read_interface(self):
        pr = PureRow(3, 1, (0.5, 1.0))
        assert (pr.q, pr.n) == (2, 3)

    def test_dense_checks_one_measure(self, monkeypatch):
        # the uniform start and the result; the tilts in between are bare arrays
        built = []
        check = measures.FiniteMeasure.__post_init__
        monkeypatch.setattr(measures.FiniteMeasure, "__post_init__",
                            lambda self: built.append(self) or check(self))
        PureRow(6, 2, (0.9, 0.5, 0.7, 0.6)).dense()
        assert len(built) == 2

    def test_no_dense_measure_for_the_matrix(self):
        pr = PureRow(60, 7, (0.5,) * 52 + (1.0,))
        assert pr.row(60).tolist() == [1.0] * 53
        e = pr.matrix()
        assert e[6, 7:].tolist() == [1.0] * 53 and e.sum() == 53.0
        row = pr.row(59)
        assert row.shape == (52,) and not row.any()

    def test_validation(self):
        with pytest.raises(ValueError):
            PureRow(3, 3, ())
        with pytest.raises(ValueError):
            PureRow(3, 1, (0.5,))
        with pytest.raises(ValueError):
            PureRow(3, 1, (0.5, 1.5))
        with pytest.raises(ValueError):
            PureRow(3, 1, (0.5, 0.5)).row(4)
        with pytest.raises(ValueError):
            PureRow(3, 1, (0.5, 0.5)).row(0)


class TestRealizesRandomTargets:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_valid_target_realized_against_oracle(self, data):
        n = data.draw(st.integers(1, 5))
        level = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        entries = np.zeros((n, n))
        for i in range(n - 1):
            row = data.draw(st.lists(level, min_size=n - 1 - i, max_size=n - 1 - i))
            entries[i, i + 1 :] = sorted(row, reverse=True)
        pm, _ = construct_from_target(MixingMatrix(entries))
        # the oracle reads the atoms the components stand for; each cell is
        # nonzero in one component only, so the components sum
        dense = [c.dense() if isinstance(c, PureRow) else c for c in pm.components]
        achieved = sum(np.array(mixing_matrix_slow(c)) for c in dense)
        assert np.abs(achieved - entries).max() <= 1e-9


class TestConstructFromTarget:
    def test_zero_target_gives_uniform_joint(self):
        pm, traces = construct_from_target(MixingMatrix.zeros(3))
        joint = materialize(pm)
        assert joint.q == 4
        assert np.allclose(joint.probs, np.full(64, 1.0 / 64.0), atol=1e-15)
        assert len(traces) == 2

    def test_small_target_realized(self):
        h = MixingMatrix([[0.0, 0.6, 0.4], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
        pm, _ = construct_from_target(h)
        fm = factored_mixing_matrix(pm)
        assert fm.is_exact()
        assert np.allclose(fm.exact().entries, h.entries, atol=1e-9)
        truth = mixing_matrix(materialize(pm)).entries
        assert np.allclose(truth, h.entries, atol=1e-9)

    def test_invalid_target_raises_with_violations(self):
        bad = MixingMatrix([[0.0, 0.2, 0.4], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(TargetInvalid) as exc:
            construct_from_target(bad)
        assert exc.value.violations[0].kind == "row-increase"

    def test_length_one_target(self):
        pm, traces = construct_from_target(MixingMatrix.zeros(1))
        assert traces == []
        joint = materialize(pm)
        assert joint.n == 1 and joint.q == 2

    def test_builds_no_dense_measure(self, monkeypatch):
        # the benchmark's size: 13 rows of a random n=14 target
        n = 14
        rng = np.random.default_rng(0)
        entries = np.zeros((n, n))
        for i in range(n - 1):
            entries[i, i + 1 :] = np.sort(rng.uniform(size=n - 1 - i))[::-1]

        def refuse(self):
            raise AssertionError(f"dense measure built on {self.space}")

        monkeypatch.setattr(measures.FiniteMeasure, "__post_init__", refuse)
        pm, traces = construct_from_target(MixingMatrix(entries))
        achieved = factored_mixing_matrix(pm).exact().entries
        assert all(isinstance(c, PureRow) for c in pm.components)
        assert np.abs(achieved - entries).max() <= 1e-12
        assert max(abs(s.residual) for tr in traces for s in tr.steps) <= 1e-12

    def test_one_component_per_row(self):
        h = MixingMatrix([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        pm, traces = construct_from_target(h)
        assert len(pm.components) == 2
        assert [t.k for t in traces] == [1, 2]
