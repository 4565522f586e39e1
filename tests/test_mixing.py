import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etamix.mixing
from etamix import (
    MixingMatrix,
    SeqSpace,
    ZeroProbabilityPrefix,
    check_samson_inequality,
    conjecture_scan,
    construct_from_target,
    eta,
    eta_bar,
    from_weights,
    materialize,
    mixing_matrix,
    phi_vector,
    random_measure,
    series_product,
    uniform,
    validate_target,
)

import oracles
from helpers import copy_chain, random_full_support, random_valid_target

COPY3_MATRIX = [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]


def three_quarters_chain():
    """Binary Markov pair that copies the first symbol with probability 3/4."""
    return from_weights(SeqSpace(2, 2), [0.375, 0.125, 0.125, 0.375])


def dead_prefix_measure(q, n, rng):
    """Random measure with prefixes of several lengths carrying no mass."""
    w = rng.uniform(0.0, 1.0, size=(q,) * n)
    w[1, 0] = 0.0
    w[0, 1, 1] = 0.0
    w[1, 1, 0, 1] = 0.0
    return from_weights(SeqSpace(q, n), w.ravel())


def oracle_inputs():
    """Measures checked against the slow oracles: full support at several
    shapes, plus zero-mass prefixes that reach every step of a sweep."""
    rng = np.random.default_rng(9)
    yield random_full_support(2, 4, rng)
    yield random_full_support(3, 4, rng)
    yield random_full_support(2, 6, rng)
    yield dead_prefix_measure(2, 5, rng)
    yield dead_prefix_measure(3, 4, rng)


# realizability test cells: the rules' edges, NaN and inf, and float ties
# one spacing off a rule's edge, at tol 0 and at tol 0.15
TARGET_CELLS = (0.0, -0.0, 0.3, 0.5, 1.0, 1.2, -0.1, float("nan"), float("inf"),
                *(float(np.nextafter(a, b)) for a, b in ((0.3, 1.0), (0.5, 0.0),
                                                         (0.0, -1.0), (1.0, 2.0))),
                0.3 + 0.15, float(np.nextafter(0.3 + 0.15, 1.0)), 1.15, -0.15)


def iid_then_copy():
    """X1 fair and independent, X3 equal to X2, X2 fair."""
    return from_weights(SeqSpace(2, 3), [1, 0, 0, 1, 1, 0, 0, 1])


class TestEta:
    def test_copy_chain_is_one(self):
        assert eta(copy_chain(2), 1, 2, (), 0, 1) == 1.0

    def test_three_quarters_chain(self):
        assert eta(three_quarters_chain(), 1, 2, (), 0, 1) == pytest.approx(0.5)

    def test_same_past_is_zero(self):
        mu = random_measure(2, 3, rng=np.random.default_rng(0))
        assert eta(mu, 1, 2, (), 1, 1) == 0.0

    def test_symmetric_in_the_two_pasts(self):
        mu = random_measure(3, 3, rng=np.random.default_rng(1))
        assert eta(mu, 2, 3, (1,), 0, 2) == eta(mu, 2, 3, (1,), 2, 0)

    def test_independent_coordinates_give_zero(self):
        mu = uniform(2, 4)
        assert eta(mu, 1, 3, (), 0, 1) == 0.0

    def test_zero_prefix_raises(self):
        with pytest.raises(ZeroProbabilityPrefix):
            eta(copy_chain(3), 2, 3, (0,), 1, 0)

    def test_pair_bounds_checked(self):
        mu = uniform(2, 3)
        with pytest.raises(ValueError):
            eta(mu, 2, 2, (0,), 0, 1)
        with pytest.raises(ValueError):
            eta(mu, 0, 2, (), 0, 1)
        with pytest.raises(ValueError, match="y has length 0, expected 1"):
            eta(mu, 2, 3, (), 0, 1)


class TestEtaBar:
    def test_copy_chain_long_range(self):
        assert eta_bar(copy_chain(3), 1, 3) == 1.0

    def test_uniform_is_zero(self):
        mu = uniform(2, 4)
        for i in range(1, 4):
            for j in range(i + 1, 5):
                assert eta_bar(mu, i, j) == 0.0

    def test_matches_slow_oracle_random(self):
        rng = np.random.default_rng(42)
        for q, n in [(2, 3), (2, 4), (3, 3)]:
            mu = random_full_support(q, n, rng)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert eta_bar(mu, i, j) == pytest.approx(
                        oracles.eta_bar_slow(mu, i, j), abs=1e-12
                    )

    def test_matches_slow_oracle_sparse_support(self):
        mu = copy_chain(4)
        for i in range(1, 4):
            for j in range(i + 1, 5):
                assert eta_bar(mu, i, j) == pytest.approx(
                    oracles.eta_bar_slow(mu, i, j), abs=1e-12
                )

    def test_dominates_every_admissible_eta(self):
        mu = random_full_support(2, 4, np.random.default_rng(3))
        i, j = 2, 3
        bound = eta_bar(mu, i, j)
        best = 0.0
        for y in itertools.product(range(2), repeat=i - 1):
            for w in range(2):
                for wp in range(2):
                    best = max(best, eta(mu, i, j, y, w, wp))
        assert best == pytest.approx(bound, abs=1e-12)


class TestMixingMatrix:
    def test_copy_chain_golden(self):
        assert np.array_equal(mixing_matrix(copy_chain(3)).entries, COPY3_MATRIX)

    def test_matches_slow_oracle(self):
        for mu in oracle_inputs():
            fast = mixing_matrix(mu).entries
            slow = oracles.mixing_matrix_slow(mu)
            assert np.abs(fast - np.array(slow)).max() <= 1e-12, (mu.q, mu.n)

    def test_realizability_properties_hold(self):
        # Computed matrices carry ~1e-16 noise in cells that tie exactly,
        # hence the explicit tolerance.
        rng = np.random.default_rng(100)
        for _ in range(20):
            mu = random_full_support(2, 4, rng)
            h = mixing_matrix(mu)
            assert validate_target(h, tol=1e-12) == []

    def test_performance_budget(self):
        import time

        mu = random_full_support(2, 5, np.random.default_rng(0))
        mixing_matrix(mu)  # warm up
        best = min(
            (lambda s: (mixing_matrix(mu), time.perf_counter() - s))(
                time.perf_counter()
            )[1]
            for _ in range(3)
        )
        assert best < 0.010, f"n=5 matrix took {best * 1e3:.2f} ms"


class TestValidateTarget:
    def test_zero_matrix_is_valid(self):
        assert validate_target(MixingMatrix.zeros(4)) == []

    def test_row_increase_flagged(self):
        h = MixingMatrix([[0.0, 0.5, 0.7], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]])
        kinds = {v.kind for v in validate_target(h)}
        assert kinds == {"row-increase"}

    def test_range_violations_flagged(self):
        h = MixingMatrix([[0.0, -0.1], [0.0, 0.0]])
        assert {v.kind for v in validate_target(h)} == {"range"}
        h = MixingMatrix([[0.0, 1.5], [0.0, 0.0]])
        assert {v.kind for v in validate_target(h)} == {"range"}

    def test_lower_triangle_flagged(self):
        h = MixingMatrix([[0.1, 0.5], [0.2, 0.0]])
        vs = validate_target(h)
        assert {(v.kind, v.i, v.j) for v in vs} == {
            ("lower-triangle", 1, 1),
            ("lower-triangle", 2, 1),
        }

    def test_violation_reports_cell(self):
        h = MixingMatrix([[0.0, 0.2, 0.4], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        (v,) = validate_target(h)
        assert (v.kind, v.i, v.j) == ("row-increase", 1, 3)

    def test_nan_below_the_diagonal_flagged(self):
        (v,) = validate_target(MixingMatrix([[0.0, 0.5], [float("nan"), 0.0]]))
        assert (v.kind, v.i, v.j, v.detail) == ("lower-triangle", 2, 1, "expected 0, got nan")
        assert validate_target(MixingMatrix([[-0.0, 0.5], [-0.0, -0.0]])) == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
               st.lists(st.sampled_from(TARGET_CELLS), min_size=n, max_size=n),
               min_size=n, max_size=n)),
           st.sampled_from((0.0, 1e-12, 0.15)))
    def test_matches_cell_by_cell_oracle(self, entries, tol):
        got = validate_target(MixingMatrix(entries), tol)
        want = oracles.validate_target_slow(entries, tol)
        assert [(v.kind, v.i, v.j, v.detail) for v in got] == want

    def test_performance_budget(self):
        import time

        h = random_valid_target(2000, np.random.default_rng(0))
        best = min(
            (lambda s: (validate_target(h), time.perf_counter() - s))(time.perf_counter())[1]
            for _ in range(3)
        )
        assert best < 0.5, f"n=2000 validation took {best:.2f} s"


class TestPhi:
    def test_copy_chain_gap_one(self):
        # Conditioning on the first symbol pins the second, and the
        # unconditional law of the second is fair: TV distance 1/2.
        assert phi_vector(copy_chain(2))[0] == 0.5

    def test_product_measure_is_zero(self):
        assert phi_vector(uniform(2, 3)).tolist() == [0.0, 0.0]

    def test_iid_then_copy_hand_values(self):
        mu = iid_then_copy()
        assert phi_vector(mu)[0] == pytest.approx(0.5)
        assert phi_vector(mu)[1] == pytest.approx(0.0)

    def test_matches_slow_oracle(self):
        rng = np.random.default_rng(17)
        for mu in (random_full_support(2, 4, rng), *oracle_inputs()):
            for g in range(1, mu.n):
                want = oracles.phi_slow(mu, g)
                assert phi_vector(mu)[g - 1] == pytest.approx(want, abs=1e-12), (mu.q, mu.n, g)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_vector_nonincreasing(self, seed):
        mu = random_full_support(2, 4, np.random.default_rng(seed))
        v = phi_vector(mu)
        assert np.all(v[:-1] >= v[1:] - 1e-12)

    def test_vector_shape(self):
        pv = phi_vector(uniform(2, 4))
        assert pv.shape == (3,) and not pv.flags.writeable


class TestSamsonInequality:
    def test_holds_on_random_batch(self):
        rng = np.random.default_rng(23)
        assert all(
            check_samson_inequality(random_full_support(2, 4, rng)) for _ in range(20)
        )
        assert check_samson_inequality(uniform(2, 1))

    def test_tight_on_copy_chain(self):
        # eta_bar(1,2) = 1 while phi_1 = 1/2, so the factor two is exact.
        assert check_samson_inequality(copy_chain(2), slack=1e-15)

    def test_fails_below_the_bound(self):
        # eta_bar(1,2) = 1 = 2 * phi_1, so a negative slack breaks it
        assert not check_samson_inequality(copy_chain(2), slack=-0.1)


class TestConjectureScan:
    def test_copy_chain_row(self):
        (row,) = conjecture_scan([copy_chain(3)])
        assert row.lhs == pytest.approx(0.5)
        assert row.rhs == pytest.approx(3.0)
        assert row.satisfied

    def test_product_measure_row(self):
        (row,) = conjecture_scan([uniform(2, 3)])
        assert row.lhs == 0.0 and row.rhs == 1.0 and row.satisfied

    def test_length_one_measure(self):
        (row,) = conjecture_scan([uniform(2, 1)])
        assert (row.lhs, row.rhs, row.satisfied) == (0.0, 1.0, True)

    def test_ids_enumerate_input(self):
        rows = conjecture_scan([uniform(2, 2), copy_chain(2)])
        assert [r.measure_id for r in rows] == [0, 1]

    def test_inequality_is_false(self):
        # X_1..X_10 fair bits with sum S; X_11 = 1 with probability 1 for
        # S <= 1, 1/3 for S in 2..4 and 0 for S >= 5
        x = np.array(list(itertools.product((0, 1), repeat=11)))
        s = x[:, :10].sum(axis=1)
        f = np.where(s <= 1, 1.0, np.where(s <= 4, 1 / 3, 0.0))
        probs = np.where(x[:, 10] == 1, f, 1 - f) / 2**10
        (row,) = conjecture_scan([from_weights(SeqSpace(2, 11), probs)])
        assert not row.satisfied and row.lhs - row.rhs > 0.1
        assert (row.lhs, row.rhs) == pytest.approx((2.1230469, 2.0208333), abs=1e-7)

    def test_constant_target_closed_form(self):
        # the construction of the all-a target against the binomial closed
        # form, then the closed form alone where the dense engine cannot go
        for n, a in [(3, 0.5), (4, 0.5), (4, 1.0), (5, 0.5)]:
            pm, _ = construct_from_target(MixingMatrix(np.triu(np.full((n, n), a), 1)))
            (row,) = conjecture_scan([materialize(pm)])
            want = oracles.scan_constant_target(n, a)
            assert (row.lhs, row.rhs) == pytest.approx(want, abs=1e-12), (n, a)
        lhs, rhs = oracles.scan_constant_target(100, 0.21)
        assert lhs > rhs + 3.4
        assert (lhs, rhs) == pytest.approx((25.22, 21.79), abs=0.005)


class TestOneSweep:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        # counts the _block_laws sweeps each call makes
        calls, real = [], etamix.mixing._block_laws
        monkeypatch.setattr(etamix.mixing, "_block_laws",
                            lambda *a: calls.append(a[-2:]) or real(*a))
        return calls

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_sweep_per_past_length(self, sweeps, n):
        mu = random_full_support(2, n, np.random.default_rng(n))
        for run in (mixing_matrix, phi_vector, check_samson_inequality,
                    lambda m: conjecture_scan([m])):
            sweeps.clear()
            run(mu)
            assert sweeps == [(i, i + 1) for i in range(1, n)], run


class TestSeriesInteraction:
    def test_cross_block_coefficients_vanish(self):
        mu = series_product(copy_chain(2), copy_chain(2))
        e = mixing_matrix(mu).entries
        assert e[0, 1] == 1.0 and e[2, 3] == 1.0
        assert e[0, 2] == 0.0 and e[0, 3] == 0.0 and e[1, 2] == 0.0
