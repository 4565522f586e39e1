import tracemalloc

import numpy as np
import pytest

from etamix import (
    MixingMatrix,
    ProductMeasure,
    PureRow,
    SeqSpace,
    StateCapExceeded,
    ValidRow,
    construct_from_target,
    factored_mixing_matrix,
    from_weights,
    materialize,
    mixing_matrix,
    pure_row_measure,
    series_product,
    uniform,
)
from etamix.fileio import write_product

from helpers import copy_chain, random_full_support


class OnlyProtocol:
    """A product component with nothing but n, q, dense() and matrix()."""

    __slots__ = ("_c",)

    def __init__(self, component):
        self._c = component

    n = property(lambda self: self._c.n)
    q = property(lambda self: self._c.q)

    def dense(self):
        return self._c.dense()

    def matrix(self):
        return self._c.matrix()


def _random_components(n: int, rng: np.random.Generator) -> tuple:
    """One to three PureRow and FiniteMeasure components on {0,1}^n, mixed."""
    comps = []
    for _ in range(int(rng.integers(1, 4))):
        if n >= 2 and rng.random() < 0.6:
            k = int(rng.integers(1, n))
            v = rng.uniform(0.0, 1.0, n - k)
            v[rng.random(n - k) < 0.3] = 0.5
            comps.append(PureRow(n, k, tuple(v.tolist())))
        else:
            comps.append(random_full_support(2, n, rng))
    return tuple(comps)


class TestSeriesProduct:
    def test_uniform_times_uniform(self):
        joint = series_product(uniform(2, 2), uniform(2, 1))
        assert np.array_equal(joint.probs, np.full(8, 0.125))

    def test_atom_values(self):
        mu = from_weights(SeqSpace(2, 1), [0.3, 0.7])
        nu = from_weights(SeqSpace(2, 1), [0.9, 0.1])
        joint = series_product(mu, nu)
        assert joint.prob((0, 0)) == pytest.approx(0.27)
        assert joint.prob((1, 0)) == pytest.approx(0.63)

    def test_alphabets_must_match(self):
        with pytest.raises(ValueError):
            series_product(uniform(2, 2), uniform(3, 2))

    def test_block_structure_of_coefficients(self):
        mu = copy_chain(2)
        joint = series_product(mu, uniform(2, 1))
        expected = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert np.allclose(mixing_matrix(joint).entries, expected, atol=1e-12)

    def test_left_block_cells_match_left_factor(self):
        rng = np.random.default_rng(31)
        mu = random_full_support(2, 2, rng)
        nu = random_full_support(2, 2, rng)
        joint = series_product(mu, nu)
        e = mixing_matrix(joint).entries
        assert e[0, 1] == pytest.approx(mixing_matrix(mu).entries[0, 1], abs=1e-12)

    def test_right_block_cells_match_shifted_right_factor(self):
        rng = np.random.default_rng(32)
        mu = random_full_support(2, 2, rng)
        nu = random_full_support(2, 2, rng)
        joint = series_product(mu, nu)
        e = mixing_matrix(joint).entries
        assert e[2, 3] == pytest.approx(mixing_matrix(nu).entries[0, 1], abs=1e-12)

    def test_cross_block_cells_vanish(self):
        rng = np.random.default_rng(33)
        joint = series_product(
            random_full_support(2, 2, rng), random_full_support(2, 2, rng)
        )
        e = mixing_matrix(joint).entries
        for i in (1, 2):
            for j in (3, 4):
                assert abs(e[i - 1, j - 1]) <= 1e-12


class TestParallelProduct:
    def test_uniform_components_materialize_uniform(self):
        pm = ProductMeasure((uniform(2, 2), uniform(2, 2)))
        joint = materialize(pm)
        assert joint.q == 4 and joint.n == 2
        assert np.allclose(joint.probs, np.full(16, 1.0 / 16.0))

    def test_packing_puts_first_component_high(self):
        # Point masses: component one fixed at symbol 1, component two at 0.
        a = from_weights(SeqSpace(2, 1), [0.0, 1.0])
        b = from_weights(SeqSpace(2, 1), [1.0, 0.0])
        joint = materialize(ProductMeasure((a, b)))
        assert joint.prob((2,)) == 1.0  # packed symbol = 1 * 2 + 0

    def test_three_components(self):
        pm = ProductMeasure((uniform(2, 2), uniform(2, 2), uniform(2, 2)))
        joint = materialize(pm)
        assert joint.q == 8
        assert np.allclose(joint.probs, np.full(64, 1.0 / 64.0))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            ProductMeasure((uniform(2, 2), uniform(2, 3)))

    def test_at_least_one_component(self):
        with pytest.raises(ValueError):
            ProductMeasure(())

    def test_materialize_state_cap(self):
        comps = tuple(uniform(2, 13) for _ in range(2))
        with pytest.raises(StateCapExceeded):
            materialize(ProductMeasure(comps))
        # A wider cap admits the same product.
        joint = materialize(ProductMeasure(comps), state_cap=1 << 26)
        assert joint.space.size == 4**13

    def test_atom_factorizes(self):
        rng = np.random.default_rng(8)
        a = random_full_support(2, 2, rng)
        b = random_full_support(2, 2, rng)
        joint = materialize(ProductMeasure((a, b)))
        # Sequence ((1,0) packed, (0,1) packed) = (2, 1).
        assert joint.prob((2, 1)) == pytest.approx(
            a.prob((1, 0)) * b.prob((0, 1)), abs=1e-15
        )


class TestFactoredMixing:
    def test_sandwich_brackets_truth(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            pm = ProductMeasure(
                (random_full_support(2, 3, rng), random_full_support(2, 3, rng))
            )
            fm = factored_mixing_matrix(pm)
            truth = mixing_matrix(materialize(pm)).entries
            assert np.all(truth >= fm.lower - 1e-9)
            assert np.all(truth <= fm.upper + 1e-9)

    def test_disjoint_rows_collapse_to_equality(self):
        mu1, _ = pure_row_measure(ValidRow(3, 1, (0.8, 0.3)))
        mu2, _ = pure_row_measure(ValidRow(3, 2, (0.6,)))
        pm = ProductMeasure((mu1, mu2))
        fm = factored_mixing_matrix(pm)
        assert fm.width <= 1e-12
        assert fm.is_exact()
        truth = mixing_matrix(materialize(pm)).entries
        assert np.allclose(fm.exact().entries, truth, atol=1e-9)

    def test_overlapping_rows_are_not_exact(self):
        mu1, _ = pure_row_measure(ValidRow(2, 1, (0.6,)))
        mu2, _ = pure_row_measure(ValidRow(2, 1, (0.5,)))
        fm = factored_mixing_matrix(ProductMeasure((mu1, mu2)))
        assert not fm.is_exact()
        with pytest.raises(ValueError):
            fm.exact()

    def test_upper_clipped_at_one(self):
        mu1, _ = pure_row_measure(ValidRow(2, 1, (0.9,)))
        mu2, _ = pure_row_measure(ValidRow(2, 1, (0.8,)))
        fm = factored_mixing_matrix(ProductMeasure((mu1, mu2)))
        assert fm.upper[0, 1] == 1.0

    def test_single_component_is_exact(self):
        mu = random_full_support(2, 3, np.random.default_rng(4))
        fm = factored_mixing_matrix(ProductMeasure((mu,)))
        assert fm.width == 0.0
        assert np.allclose(fm.exact().entries, mixing_matrix(mu).entries)


class TestComponentProtocol:
    def test_a_component_needs_only_the_protocol(self, tmp_path):
        rng = np.random.default_rng(21)
        comps = (PureRow(3, 1, (0.8, 0.5)), random_full_support(2, 3, rng), PureRow(3, 2, (0.3,)))
        plain = ProductMeasure(comps)
        ducks = ProductMeasure(tuple(map(OnlyProtocol, comps)))
        assert materialize(ducks).probs.tobytes() == materialize(plain).probs.tobytes()
        want, got = factored_mixing_matrix(plain), factored_mixing_matrix(ducks)
        assert np.array_equal(got.lower, want.lower) and np.array_equal(got.upper, want.upper)
        write_product(str(tmp_path / "plain.json"), plain)
        write_product(str(tmp_path / "ducks.json"), ducks)
        assert (tmp_path / "ducks.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_fold_is_the_stacked_max_and_sum_bit_for_bit(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            pm = ProductMeasure(_random_components(int(rng.integers(1, 6)), rng))
            cells = np.stack([c.matrix() for c in pm.components])
            fm = factored_mixing_matrix(pm)
            assert fm.lower.tobytes() == cells.max(axis=0).tobytes()
            assert fm.upper.tobytes() == np.minimum(1.0, cells.sum(axis=0)).tobytes()

    def test_fold_holds_two_matrices_not_a_stack(self):
        # constant rows: one flip position per row, n - 1 components of n x n
        # cells, 500 MB stacked at n = 400
        n = 400
        e = np.triu(np.repeat(np.random.default_rng(23).uniform(0, 1, (n, 1)), n, axis=1), 1)
        pm, _ = construct_from_target(MixingMatrix(e))
        tracemalloc.start()
        try:
            fm = factored_mixing_matrix(pm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.abs(fm.exact().entries - e).max() <= 1e-12
