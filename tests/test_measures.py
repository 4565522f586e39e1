import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etamix import (
    FiniteMeasure,
    SeqSpace,
    StateCapExceeded,
    ZeroProbabilityPrefix,
    conditional,
    from_weights,
    marginal,
    mixing_matrix,
    random_measure,
    tv_distance,
    uniform,
)

from helpers import copy_chain


class TestSeqSpace:
    def test_size(self):
        assert SeqSpace(2, 3).size == 8
        assert SeqSpace(5, 4).size == 625

    def test_index_is_big_endian(self):
        space = SeqSpace(3, 2)
        assert space.index((1, 2)) == 5

    def test_index_round_trip(self):
        # itertools.product enumerates sequences in big-endian order
        for q, n in itertools.product(range(2, 5), range(1, 6)):
            seqs = itertools.product(range(q), repeat=n)
            assert [SeqSpace(q, n).index(s) for s in seqs] == list(range(q**n))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            SeqSpace(1, 3)
        with pytest.raises(ValueError):
            SeqSpace(2, 0)

    def test_state_cap_default(self):
        with pytest.raises(StateCapExceeded):
            SeqSpace(2, 25)
        SeqSpace(2, 24)  # exactly at the cap is fine

    def test_state_cap_custom(self):
        SeqSpace(2, 25, state_cap=1 << 26)
        with pytest.raises(StateCapExceeded):
            SeqSpace(4, 3, state_cap=10)

    def test_huge_length_refused_without_the_power(self):
        # q**n with n = 10**18 would never finish; the cap check runs first
        with pytest.raises(StateCapExceeded):
            SeqSpace(2, 10**18)
        with pytest.raises(StateCapExceeded):
            SeqSpace(3, 16, state_cap=1 << 25)
        SeqSpace(3, 15, state_cap=1 << 25)

    def test_cap_does_not_affect_equality(self):
        assert SeqSpace(2, 3) == SeqSpace(2, 3, state_cap=1 << 30)


class TestFiniteMeasure:
    def test_uniform(self):
        mu = uniform(2, 3)
        assert np.array_equal(mu.probs, np.full(8, 0.125))

    def test_from_weights(self):
        mu = from_weights(SeqSpace(2, 2), [1.0, 1.0, 2.0, 0.0])
        assert np.allclose(mu.probs, [0.25, 0.25, 0.5, 0.0])

    def test_from_weights_rejects_bad_input(self):
        space = SeqSpace(2, 2)
        with pytest.raises(ValueError):
            from_weights(space, [1.0, -1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            from_weights(space, [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            from_weights(space, [1.0, 1.0])

    def test_constructor_validates_normalization(self):
        space = SeqSpace(2, 1)
        with pytest.raises(ValueError):
            FiniteMeasure(space, np.array([0.6, 0.6]))
        FiniteMeasure(space, np.array([0.5, 0.5 + 1e-13]))

    @pytest.mark.parametrize("probs", [[np.nan] * 4, [0.5, 0.5, np.nan, 0.0]])
    def test_constructor_rejects_nan_atoms(self, probs):
        # a NaN total once passed the sum check, and mixing_matrix read zeros
        with pytest.raises(ValueError, match="sum to nan"):
            FiniteMeasure(SeqSpace(2, 2), np.array(probs))

    def test_probs_read_only(self):
        mu = uniform(2, 2)
        with pytest.raises(ValueError):
            mu.probs[0] = 1.0

    def test_is_its_own_product_component(self):
        mu = random_measure(2, 3, rng=np.random.default_rng(9))
        assert mu.dense() is mu
        assert np.array_equal(mu.matrix(), mixing_matrix(mu).entries)

    def test_prob_by_sequence(self):
        mu = copy_chain(3)
        assert mu.prob((0, 0, 0)) == 0.5
        assert mu.prob((0, 1, 0)) == 0.0

    def test_random_measure_is_deterministic(self):
        a = random_measure(3, 2, rng=np.random.default_rng(7))
        b = random_measure(3, 2, rng=np.random.default_rng(7))
        assert np.array_equal(a.probs, b.probs)
        assert np.all(a.probs > 0)
        assert abs(a.probs.sum() - 1.0) < 1e-12


class TestTvDistance:
    def test_hand_value(self):
        space = SeqSpace(2, 1)
        a = FiniteMeasure(space, np.array([0.5, 0.5]))
        b = FiniteMeasure(space, np.array([1.0, 0.0]))
        assert tv_distance(a, b) == 0.5

    def test_accepts_signed_vectors_and_arrays(self):
        assert tv_distance(np.array([0.2, 0.8]), np.array([0.8, 0.2])) == pytest.approx(0.6)
        # a difference of measures has entries of either sign
        assert tv_distance(np.array([0.3, -0.3]), np.zeros(2)) == pytest.approx(0.3)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    def test_metric_axioms(self, wa, wb, wc):
        space = SeqSpace(2, 2)

        def norm(w):
            arr = np.asarray(w) + 1e-9
            return FiniteMeasure(space, arr / arr.sum())

        a, b, c = norm(wa), norm(wb), norm(wc)
        dab = tv_distance(a, b)
        assert 0.0 <= dab <= 1.0
        assert dab == tv_distance(b, a)
        assert tv_distance(a, a) == 0.0
        assert dab <= tv_distance(a, c) + tv_distance(c, b) + 1e-12


class TestConditioning:
    def test_copy_chain_prefix(self):
        mu = copy_chain(2)
        nu = conditional(mu, (0,))
        assert np.array_equal(nu.probs, [1.0, 0.0])

    def test_zero_prefix_raises(self):
        mu = copy_chain(3)
        with pytest.raises(ZeroProbabilityPrefix):
            conditional(mu, (0, 1))

    def test_prefix_length_bounds(self):
        mu = uniform(2, 3)
        with pytest.raises(ValueError):
            conditional(mu, ())
        with pytest.raises(ValueError):
            conditional(mu, (0, 0, 0))

    def test_chain_rule_exhaustive(self):
        rng = np.random.default_rng(11)
        mu = random_measure(2, 4, rng=rng)
        for i in range(1, 4):
            for y in itertools.product(range(2), repeat=i):
                nu = conditional(mu, y)
                py = marginal(mu, 1, i).prob(y)
                for tail in itertools.product(range(2), repeat=nu.n):
                    assert nu.prob(tail) * py == pytest.approx(
                        mu.prob(y + tail), abs=1e-12
                    )


class TestMarginal:
    def test_uniform_marginal_is_uniform(self):
        mu = uniform(3, 4)
        assert np.allclose(marginal(mu, 2, 3).probs, np.full(9, 1.0 / 9.0))

    def test_copy_chain_marginals(self):
        mu = copy_chain(4)
        m = marginal(mu, 2, 2)
        assert np.array_equal(m.probs, [0.5, 0.5])
        pair = marginal(mu, 1, 2)
        assert np.array_equal(pair.probs, [0.5, 0.0, 0.0, 0.5])

    def test_composition(self):
        rng = np.random.default_rng(5)
        mu = random_measure(2, 5, rng=rng)
        direct = marginal(mu, 2, 4)
        via = marginal(marginal(mu, 1, 4), 2, 4)
        assert np.allclose(direct.probs, via.probs, atol=1e-14)

    def test_bounds_checked(self):
        mu = uniform(2, 3)
        with pytest.raises(ValueError):
            marginal(mu, 0, 2)
        with pytest.raises(ValueError):
            marginal(mu, 2, 4)
        with pytest.raises(ValueError):
            marginal(mu, 3, 2)


class TestPrefixProb:
    @settings(max_examples=25)
    @given(st.integers(0, 1000))
    def test_prefix_sums_to_one(self, seed):
        mu = random_measure(2, 3, rng=np.random.default_rng(seed))
        total = sum(marginal(mu, 1, 2).prob((a, b)) for a in range(2) for b in range(2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_full_length_prefix_is_atom(self):
        mu = copy_chain(3)
        assert marginal(mu, 1, 3).prob((1, 1, 1)) == 0.5
