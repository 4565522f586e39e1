import time
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
from etamix.products import EXACT_TOL

from helpers import copy_chain, flip_pairs, random_full_support


class OnlyProtocol:
    """A product component with nothing but n, q, dense() and rows()."""

    __slots__ = ("_c",)

    def __init__(self, component):
        self._c = component

    n = property(lambda self: self._c.n)
    q = property(lambda self: self._c.q)

    def dense(self):
        return self._c.dense()

    def rows(self):
        return self._c.rows()


def _random_components(n: int, rng: np.random.Generator) -> tuple:
    """One to three PureRow and FiniteMeasure components on {0,1}^n, mixed."""
    comps = []
    for _ in range(int(rng.integers(1, 4))):
        if n >= 2 and rng.random() < 0.6:
            k = int(rng.integers(1, n))
            v = rng.uniform(0.0, 1.0, n - k)
            v[rng.random(n - k) < 0.3] = 0.5
            comps.append(PureRow(n, k, flip_pairs(k, v.tolist())))
        else:
            comps.append(random_full_support(2, n, rng))
    return tuple(comps)


def _full_matrix(c) -> np.ndarray:
    """A component's n x n mixing matrix, read without its rows()."""
    if isinstance(c, PureRow):
        out = np.zeros((c.n, c.n))
        out[c.k - 1, c.k :] = c.row(c.n)
        return out
    return mixing_matrix(c).entries


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


def _sandwich(pm: ProductMeasure):
    """max_c and min(1, sum_c) of the components' stacked matrices."""
    cells = np.stack([_full_matrix(c) for c in pm.components])
    return cells.max(axis=0), np.minimum(1.0, cells.sum(axis=0))


class TestFactoredMixing:
    def test_sandwich_brackets_truth(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            pm = ProductMeasure(
                (random_full_support(2, 3, rng), random_full_support(2, 3, rng))
            )
            lower, upper = _sandwich(pm)
            truth = mixing_matrix(materialize(pm)).entries
            assert np.all(truth >= lower - 1e-9)
            assert np.all(truth <= upper + 1e-9)
            assert np.array_equal(factored_mixing_matrix(pm).entries, truth)

    def test_disjoint_rows_collapse_to_equality(self):
        mu1, _ = pure_row_measure(ValidRow(3, 1, (0.8, 0.3)))
        mu2, _ = pure_row_measure(ValidRow(3, 2, (0.6,)))
        pm = ProductMeasure((mu1, mu2))
        lower, upper = _sandwich(pm)
        assert np.max(upper - lower) <= 1e-12
        got = factored_mixing_matrix(pm, state_cap=16)  # the joint has 64 atoms
        assert np.array_equal(got.entries, lower)
        truth = mixing_matrix(materialize(pm)).entries
        assert np.allclose(got.entries, truth, atol=1e-12)

    def test_overlapping_rows_read_the_joint(self):
        mu1, _ = pure_row_measure(ValidRow(2, 1, (0.6,)))
        mu2, _ = pure_row_measure(ValidRow(2, 1, (0.5,)))
        pm = ProductMeasure((mu1, mu2))
        lower, upper = _sandwich(pm)
        assert np.max(upper - lower) > 0.1
        truth = mixing_matrix(materialize(pm)).entries
        assert np.array_equal(factored_mixing_matrix(pm).entries, truth)
        with pytest.raises(StateCapExceeded, match=r"^components share row 1, .* state cap 15$"):
            factored_mixing_matrix(pm, state_cap=15)

    def test_upper_clipped_at_one(self):
        # two copies of X_1 into X_2: the sum 2 clips to the max, 1, so the
        # fold answers under a cap the 16-atom joint would pass
        pm = ProductMeasure((PureRow(2, 1, ((2, 1.0),)), PureRow(2, 1, ((2, 1.0),))))
        assert factored_mixing_matrix(pm, state_cap=8).entries[0, 1] == 1.0
        assert mixing_matrix(materialize(pm)).entries[0, 1] == 1.0

    def test_single_component_is_exact(self):
        mu = random_full_support(2, 3, np.random.default_rng(4))
        got = factored_mixing_matrix(ProductMeasure((mu,)), state_cap=8)
        assert got.entries.tobytes() == mixing_matrix(mu).entries.tobytes()


class TestComponentProtocol:
    def test_a_component_needs_only_the_protocol(self, tmp_path):
        rng = np.random.default_rng(21)
        comps = (PureRow(3, 1, ((2, 0.8),)), random_full_support(2, 3, rng),
                 PureRow(3, 2, ((3, 0.3),)))
        plain = ProductMeasure(comps)
        ducks = ProductMeasure(tuple(map(OnlyProtocol, comps)))
        assert materialize(ducks).probs.tobytes() == materialize(plain).probs.tobytes()
        want, got = factored_mixing_matrix(plain), factored_mixing_matrix(ducks)
        assert got.entries.tobytes() == want.entries.tobytes()
        write_product(str(tmp_path / "plain.json"), plain)
        write_product(str(tmp_path / "ducks.json"), ducks)
        assert (tmp_path / "ducks.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_fold_is_the_stacked_max_and_sum_bit_for_bit(self):
        rng = np.random.default_rng(22)
        shared = 0
        for _ in range(60):
            pm = ProductMeasure(_random_components(int(rng.integers(1, 6)), rng))
            lower, upper = _sandwich(pm)
            truth = mixing_matrix(materialize(pm)).entries
            got = factored_mixing_matrix(pm).entries
            if np.max(upper - lower) > EXACT_TOL:  # a shared row: the joint's sweep
                shared += 1
                assert got.tobytes() == truth.tobytes()
            else:
                assert got.tobytes() == lower.tobytes()
            assert np.abs(got - truth).max() <= 1e-12
        assert 10 <= shared <= 50

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
        assert np.abs(fm.entries - e).max() <= 1e-12

    def test_fold_writes_only_the_rows(self):
        # constant rows, one flip each; a fold that pads every row into an
        # n x n matrix takes over 5 s at n = 1,000
        n, flips = 1500, np.random.default_rng(24).uniform(0.5, 1.0, 1500).tolist()
        rows = [PureRow(n, k, ((n, flips[k]),)) for k in range(1, n)]
        pm = ProductMeasure(tuple(rows))
        start = time.perf_counter()
        fm = factored_mixing_matrix(pm)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"fold took {elapsed:.2f} s"
        placed = np.zeros((n, n))
        for c in rows:
            placed[c.k - 1, c.k :] = c.row(n)
        assert np.array_equal(fm.entries, placed)
