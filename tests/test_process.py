import dataclasses
import functools
import math
import time
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etamix.measures as measures
import etamix.process as process_module
from etamix import (
    BuiltinRate,
    Checkpoint,
    HorizonTooSmall,
    ProductMeasure,
    PureRow,
    RateFunction,
    ValidRow,
    build_process,
    check_checkpoints,
    delta_matrix,
    factored_mixing_matrix,
    rate_R,
    series_product,
    solve_row,
    uniform,
)

from helpers import flip_pairs
from oracles import FlipLawExact, first_horizon, first_horizons, mixing_matrix_slow


class TestRateFunction:
    def test_sqrt_table(self):
        r = BuiltinRate("sqrt", 10)
        assert tuple(r(n) for n in range(1, 11)) == (1, 2, 2, 2, 3, 3, 3, 3, 3, 4)

    def test_linear_table(self):
        r = BuiltinRate("linear", 5)
        assert tuple(r(n) for n in range(1, 6)) == (1, 2, 3, 4, 5)

    def test_constant_table(self):
        r = BuiltinRate("const", 6, 3)
        assert tuple(r(n) for n in range(1, 7)) == (1, 2, 3, 3, 3, 3)

    def test_call_bounds(self):
        for r in (BuiltinRate("sqrt", 5), RateFunction((1, 2, 2, 2, 3))):
            assert r(1) == 1 and r(5) == 3
            with pytest.raises(ValueError):
                r(0)
            with pytest.raises(ValueError):
                r(6)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            RateFunction(())

    def test_values_must_be_integers(self):
        # int() used to truncate 2.7 to 2 and parse "2"
        for bad in (2.7, "2"):
            with pytest.raises(TypeError):
                RateFunction((1, bad))
        assert RateFunction(np.arange(1, 4)).values == (1, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["sqrt", "linear", "const"]), st.integers(1, 50),
           st.integers(1, 300))
    def test_builtins_are_valid(self, name, c, n_max):
        # valid by construction: the table of a builtin passes the table's
        # checks, and it steps by at most 1, which the gallop relies on
        r = BuiltinRate(name, n_max, c)
        values = RateFunction(tuple(r(n) for n in range(1, n_max + 1))).values
        assert all(b - a <= 1 for a, b in zip(values, values[1:]))

    def test_builtin_arguments_checked(self):
        with pytest.raises(ValueError, match="^unknown builtin rate 'cubic'$"):
            BuiltinRate("cubic", 8)
        with pytest.raises(ValueError, match="^const rate value must be >= 1, got 0$"):
            BuiltinRate("const", 8, 0)
        with pytest.raises(TypeError):
            BuiltinRate("const", 8, 2.5)

    def test_validate_flags_out_of_range(self):
        for values in ((1, 3), (0, 1)):  # r(2) > 2, r(1) < 1
            with pytest.raises(ValueError, match="invalid rate"):
                build_process(RateFunction(values), k_max=1, n_max=2)

    def test_validate_flags_decrease(self):
        with pytest.raises(ValueError, match="invalid rate") as exc:
            build_process(RateFunction((1, 2, 1)), k_max=1, n_max=3)
        assert "r(3)" in str(exc.value)


class TestFindNk:
    """The horizon search that finds each checkpoint's n_k, seen through
    build_process: a builtin's gallop against the definitional scan and
    against the forward scan of the same rate as a table."""

    def test_input_validation(self):
        r = BuiltinRate("sqrt", 10)
        with pytest.raises(ValueError):
            build_process(r, k_max=0, n_max=10)
        for e in (0.0, 1.0):
            with pytest.raises(ValueError):
                build_process(r, k_max=1, n_max=10, eps=(e,))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_gallop_matches_the_definitional_scan(self, data):
        name = data.draw(st.sampled_from(["sqrt", "linear", "const"]))
        n_max = data.draw(st.integers(2, 400))  # k_max > n_max occurs
        r = BuiltinRate(name, n_max, data.draw(st.integers(1, n_max + 2)))
        k_max = data.draw(st.integers(1, 40))
        eps = None
        if data.draw(st.booleans()):
            eps = data.draw(st.lists(st.floats(1e-3, 0.999), min_size=k_max,
                                     max_size=k_max, unique=True))
            eps = tuple(sorted(eps, reverse=True))
        table = RateFunction(tuple(r(n) for n in range(1, n_max + 1)))
        horizons, failed = first_horizons(r, k_max, n_max, eps)
        if failed is None:
            p, q = build_process(r, k_max, n_max, eps), build_process(table, k_max, n_max, eps)
            assert [cp.n for cp in p.checkpoints] == horizons
            assert p.checkpoints == q.checkpoints
            assert check_checkpoints(p) == check_checkpoints(q)
            return
        # at the linear rate, the worst, the last checkpoint needs the most
        last = 1 / (k_max + 1) if eps is None else eps[-1]
        required = first_horizon(lambda n: n, k_max, last, k_max + 1, math.inf)
        for rate in (r, table):
            with pytest.raises(HorizonTooSmall) as exc:
                build_process(rate, k_max, n_max, eps)
            assert (exc.value.k, exc.value.required_n_max) == (failed, required)

    @pytest.mark.parametrize("name, c", [("sqrt", 1), ("linear", 1), ("const", 10**9)])
    @pytest.mark.parametrize("eps", [None, (0.5, 0.25, 1e-3, 1e-6, 1e-9, 1e-12)])
    def test_gallop_calls_the_rate_logarithmically(self, monkeypatch, name, c, eps):
        # checkpoint k's calls: those of a build to k_max = k less those to k - 1
        n_max, calls = 10**18, 0
        call = BuiltinRate.__call__

        def counted(self, n):
            nonlocal calls
            calls += 1
            return call(self, n)

        monkeypatch.setattr(BuiltinRate, "__call__", counted)
        totals = [0]
        for k_max in range(1, 7):
            calls = 0
            build_process(BuiltinRate(name, n_max, c), k_max, n_max, eps and eps[:k_max])
            totals.append(calls)
        per_checkpoint = [b - a for a, b in zip(totals, totals[1:])]
        assert max(per_checkpoint) <= 2 * math.log2(n_max) + 2, per_checkpoint


class TestBuildProcess:
    def test_constant_one_rate(self):
        p = build_process(BuiltinRate("const", 12, 1), k_max=1, n_max=12, eps=(0.5,))
        assert p.checkpoints == (Checkpoint(1, 0.5, 2),)

    def test_linear_rate_boundary_ratio(self):
        # At n = 2 the ratio is exactly 1 - eps, which is admissible.
        p = build_process(BuiltinRate("linear", 12), k_max=1, n_max=12, eps=(0.5,))
        assert p.checkpoints == (Checkpoint(1, 0.5, 2),)

    def test_sqrt_rate_skips_tight_horizon(self):
        p = build_process(BuiltinRate("sqrt", 12), k_max=2, n_max=12, eps=(0.5, 0.25))
        assert p.checkpoints[1] == Checkpoint(2, 0.25, 4)

    def test_horizon_too_small_reports_fix(self):
        with pytest.raises(HorizonTooSmall) as exc:
            build_process(BuiltinRate("linear", 6), k_max=2, n_max=6, eps=(0.5, 0.25))
        assert (exc.value.k, exc.value.required_n_max) == (2, 8)
        p = build_process(BuiltinRate("linear", 8), k_max=2, n_max=8, eps=(0.5, 0.25))
        assert p.checkpoints[1] == Checkpoint(2, 0.25, 8)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepted_row_value_is_one(self, data):
        # The copy components rely on h = min(1, r(n_k) / (n_k - k)) = 1,
        # that is r(n_k) >= n_k - k, and the one forward scan
        # must land where a fresh scan from k + 1 lands for every checkpoint.
        n_max = data.draw(st.integers(2, 40))
        values = [1]
        for n in range(2, n_max + 1):
            values.append(data.draw(st.integers(values[-1], n)))
        k_max = data.draw(st.integers(1, n_max - 1))
        eps = data.draw(st.lists(st.floats(1e-3, 0.999), min_size=k_max,
                                 max_size=k_max, unique=True))
        eps = tuple(sorted(eps, reverse=True))
        r = RateFunction(tuple(values))
        try:
            checkpoints = build_process(r, k_max, n_max, eps).checkpoints
        except HorizonTooSmall as exc:
            assert first_horizon(r, exc.k, eps[exc.k - 1], exc.k + 1, n_max) is None
            k_max = exc.k - 1
            checkpoints = ()
            if k_max:
                checkpoints = build_process(r, k_max, n_max, eps[:k_max]).checkpoints
        assert [cp.n for cp in checkpoints] == [
            first_horizon(r, k, e, k + 1, n_max) for k, e in enumerate(eps[:k_max], start=1)
        ]
        assert all(r(cp.n) >= cp.n - cp.k for cp in checkpoints)

    def test_scan_resumes_at_the_last_horizon(self, monkeypatch):
        # one forward pass over a table: a restart at k + 1 per checkpoint would test
        # sum(n_k - k) ~ 338,000 horizons here
        calls = 0
        admits = process_module._admits

        def counted(*args):
            nonlocal calls
            calls += 1
            return admits(*args)

        monkeypatch.setattr(process_module, "_admits", counted)
        p = build_process(RateFunction(tuple(range(1, 10101))), k_max=100, n_max=10100)
        assert p.checkpoints[-1].n == 10100
        assert calls <= 10100 + 100

    def test_sqrt_instance_checkpoints(self):
        p = build_process(BuiltinRate("sqrt", 12), k_max=5, n_max=12)
        assert tuple(cp.n for cp in p.checkpoints) == (2, 4, 6, 7, 8)
        assert all(p.rate(cp.n) >= cp.n - cp.k for cp in p.checkpoints)
        assert p.k_max == 5

    def test_components_span_the_horizon(self):
        # each copy lives on {0,1}^(n_max) with its one flip at n_k, so the
        # components form a product
        p = build_process(BuiltinRate("sqrt", 12), k_max=3, n_max=12)
        assert [(c.n, c.k, c.flips) for c in p.components] == [
            (12, 1, ((2, 1.0),)), (12, 2, ((4, 1.0),)), (12, 3, ((6, 1.0),))]
        assert ProductMeasure(p.components).n == 12

    def test_components_hold_only_their_flips(self):
        # one pair per copy: storing every position up to n_k would hold
        # 9,045,057 numbers here
        p = build_process(BuiltinRate("linear", 90301), k_max=300, n_max=90301)
        start = time.perf_counter()
        comps = p.components
        elapsed = time.perf_counter() - start
        assert sum(len(c.flips) for c in comps) == 300
        assert all(c.flips == ((cp.n, 1.0),) for cp, c in zip(p.checkpoints, comps))
        assert elapsed < 0.1, f"components took {elapsed:.3f} s"

    def test_copy_components_are_the_row_solve(self):
        # h_k = 1: the copy's flip vector is the solve's output bit for bit
        p = build_process(BuiltinRate("sqrt", 12), k_max=5, n_max=12)
        for cp, comp in zip(p.checkpoints, p.components):
            solved, _ = solve_row(ValidRow(cp.n, cp.k, (1.0,) * (cp.n - cp.k)))
            assert comp.flips == solved.flips

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n - 1), st.floats(0.0, 1.0))))
    # h at the audit bound: v is still (1 + h) / 2, not the 1/2 within 1e-12 of it
    @example((2, 1, 1e-12))
    def test_constant_row_matches_the_row_solve(self, case):
        n, k, h = case
        direct = PureRow(n, k, flip_pairs(k, (0.5,) * (n - k - 1) + ((1.0 + h) / 2.0,)))
        solved, _ = solve_row(ValidRow(n, k, (h,) * (n - k)))
        # the one flip lies past the breakpoint of the empty tail, where the
        # solve takes (1 + h) / 2 itself
        assert direct == solved
        ((i, cells),) = direct.rows()
        assert i == k and np.abs(cells - h).max() <= 1e-15

    def test_default_eps_sequence(self):
        p = build_process(BuiltinRate("sqrt", 12), k_max=3, n_max=12)
        assert tuple(cp.eps for cp in p.checkpoints) == (1 / 2, 1 / 3, 1 / 4)

    def test_explicit_eps(self):
        p = build_process(BuiltinRate("sqrt", 12), k_max=2, n_max=12, eps=(0.5, 0.25))
        assert tuple(cp.eps for cp in p.checkpoints) == (0.5, 0.25)

    def test_parameter_validation(self):
        r = BuiltinRate("sqrt", 12)
        with pytest.raises(ValueError):
            build_process(r, k_max=0, n_max=12)
        with pytest.raises(ValueError):
            build_process(r, k_max=1, n_max=1)
        with pytest.raises(ValueError):
            build_process(r, k_max=1, n_max=20)  # table too short
        with pytest.raises(ValueError):
            build_process(RateFunction((1, 3, 3)), k_max=1, n_max=3)

    def test_eps_validation(self):
        r = BuiltinRate("sqrt", 12)
        with pytest.raises(ValueError):
            build_process(r, k_max=2, n_max=12, eps=(0.5,))
        with pytest.raises(ValueError):
            build_process(r, k_max=2, n_max=12, eps=(0.5, 0.5))
        with pytest.raises(ValueError):
            build_process(r, k_max=2, n_max=12, eps=(0.5, 1.5))

    def test_builds_no_dense_measure(self, monkeypatch):
        # the benchmark's linear spec: components at n_k = 2, 7, 12, 20
        def refuse(self):
            raise AssertionError(f"dense measure built on {self.space}")

        monkeypatch.setattr(measures.FiniteMeasure, "__post_init__", refuse)
        p = build_process(BuiltinRate("linear", 64), k_max=4, n_max=64,
                          eps=(0.51, 0.29, 0.252, 0.202))
        reports = check_checkpoints(p)
        assert "components" not in vars(p)  # the audit read the horizons alone
        assert [(c.n, c.flips) for c in p.components] == [
            (64, ((n_k, 1.0),)) for n_k in (2, 7, 12, 20)]
        assert all(r.passed for r in reports)

    def test_huge_sizes_fail_fast(self):
        # a builtin holds no table: n_max = 10^300 gives the horizons 64 does
        huge = build_process(BuiltinRate("linear", 10**300), k_max=3, n_max=10**300)
        small = build_process(BuiltinRate("linear", 64), k_max=3, n_max=64)
        assert huge.checkpoints == small.checkpoints
        assert check_checkpoints(huge) == check_checkpoints(small)
        # with default eps the first checkpoint past n_max - 1 stops the build
        with pytest.raises(HorizonTooSmall) as exc:
            build_process(BuiltinRate("linear", 6), k_max=10**300, n_max=6)
        assert exc.value.k <= 6

    def test_horizon_error_propagates(self):
        with pytest.raises(HorizonTooSmall):
            build_process(BuiltinRate("linear", 6), k_max=3, n_max=6, eps=(0.5, 0.4, 0.1))


@pytest.fixture(scope="module")
def process():
    return build_process(BuiltinRate("sqrt", 12), k_max=5, n_max=12)


class TestDeltaMatrix:
    def test_cells_at_horizon_four(self, process):
        # Components 1 and 2 copy at horizons 2 and 4 and contribute their
        # rows.  Component 3's one flip ties position 3 to position 6, so
        # the length-4 marginal is uniform and row 3 stays empty here.
        expected = np.eye(4)
        expected[0, 1] = 1.0
        expected[1, 2] = expected[1, 3] = 1.0
        assert np.allclose(delta_matrix(process, 4), expected, atol=1e-9)

    def test_row_appears_once_horizon_reaches_natural_length(self, process):
        d6 = delta_matrix(process, 6)
        assert np.allclose(d6[2, 3:6], [1.0, 1.0, 1.0], atol=1e-9)

    def test_rate_values_frozen(self, process):
        got = [rate_R(process, n) for n in range(1, 13)]
        assert np.allclose(got, [1, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4], atol=1e-9)

    def test_rate_monotone_and_bounded(self, process):
        rs = [rate_R(process, n) for n in range(1, 13)]
        assert all(a <= b + 1e-12 for a, b in zip(rs, rs[1:]))
        assert all(1.0 - 1e-12 <= r <= n + 1e-12 for n, r in enumerate(rs, start=1))

    def test_horizon_bounds(self, process):
        with pytest.raises(ValueError):
            delta_matrix(process, 0)
        with pytest.raises(ValueError):
            delta_matrix(process, 13)

    def test_padding_matches_series_with_fair_bit(self, process):
        # past n_k a copy's positions are fair bits: the component is the
        # copy on {0,1}^(n_k) followed by n_max - n_k independent ones
        for cp, comp in zip(process.checkpoints, process.components):
            copy = PureRow(cp.n, cp.k, ((cp.n, 1.0),)).dense()
            padded = series_product(copy, uniform(2, process.n_max - cp.n))
            assert np.abs(comp.dense().probs - padded.probs).max() <= 1e-12


class TestCheckCheckpoints:
    def test_sqrt_instance_passes(self):
        p = build_process(BuiltinRate("sqrt", 12), k_max=5, n_max=12)
        reports = check_checkpoints(p)
        assert [r.passed for r in reports] == [True] * 5
        assert np.allclose(
            [r.ratio for r in reports], [0.5, 1.0, 1.0, 1.0, 1.0], atol=1e-12
        )

    def test_corrupted_component_is_caught(self):
        # component 2 copied at horizon 3 in place of 4: its row holds one
        # cell, so R(3) - 1 = 1 against r(3) = 2, below 1 - eps_2 = 2/3
        p = build_process(BuiltinRate("sqrt", 12), k_max=5, n_max=12)
        table = list(p.checkpoints)
        table[1] = dataclasses.replace(table[1], n=3)
        broken = dataclasses.replace(p, checkpoints=tuple(table))
        reports = check_checkpoints(broken)
        assert not reports[1].passed and reports[1].ratio == 0.5
        assert reports[0].passed  # the untouched checkpoint still audits clean


class TestProcessIsAProduct:
    @pytest.mark.parametrize("name", ["linear", "sqrt"])
    def test_fold_reads_the_audited_rate(self, name):
        # the mix engine's fold of every length-n_k prefix checks R(n_k)
        # apart from check_checkpoints' argument over the horizons
        p = build_process(BuiltinRate(name, 1024), k_max=30, n_max=1024)
        for rep in check_checkpoints(p):
            prefixes = tuple(PureRow(rep.n, c.k, tuple(f for f in c.flips if f[0] <= rep.n))
                             for c in p.components if c.k < rep.n)
            # one row per component: the fold answers under a one-atom cap
            fm = factored_mixing_matrix(ProductMeasure(prefixes), state_cap=1)
            big_r = 1.0 + float(fm.entries.sum(axis=1).max())
            assert rep.passed and rep.ratio == (big_r - 1.0) / p.rate(rep.n)


@st.composite
def _processes(draw, n_max_hi):
    """A process built on a random valid rate table; k_max is cut back to
    the checkpoints its horizon admits at the default eps."""
    n_max = draw(st.integers(2, n_max_hi))
    values = [1]
    for n in range(2, n_max + 1):
        values.append(draw(st.integers(values[-1], n)))
    r = RateFunction(tuple(values))
    try:
        return build_process(r, k_max=draw(st.integers(1, n_max - 1)), n_max=n_max)
    except HorizonTooSmall as exc:  # checkpoint 1 (eps 1/2) is admitted at n = 2
        return build_process(r, k_max=exc.k - 1, n_max=n_max)


def _corrupted(draw, p):
    """A stand-in for p, with the n_max and components rate_R reads, and
    one component's flip vector redrawn at random."""
    i = draw(st.integers(0, p.k_max - 1))
    c = p.components[i]
    flip = st.one_of(st.just(0.5), st.just(1.0), st.floats(0.0, 1.0))
    v = draw(st.lists(flip, min_size=c.n - c.k, max_size=c.n - c.k))
    comps = list(p.components)
    comps[i] = PureRow(c.n, c.k, flip_pairs(c.k, v))
    return types.SimpleNamespace(n_max=p.n_max, components=tuple(comps))


@functools.lru_cache(maxsize=None)
def _oracle_prefix(m, k, v):
    """Mixing matrix of the length-m flip-vector law, by enumeration."""
    return np.array(mixing_matrix_slow(FlipLawExact(m, k, v)), dtype=float)


class TestRateFromRows:
    def test_horizon_bounds(self, process):
        with pytest.raises(ValueError):
            rate_R(process, 0)
        with pytest.raises(ValueError):
            rate_R(process, 13)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rate_matches_oracle_prefix_matrices(self, data):
        p = data.draw(_processes(8))
        if data.draw(st.booleans()):
            p = _corrupted(data.draw, p)
        for n in range(1, p.n_max + 1):
            delta = np.eye(n)
            for c in p.components:
                v = dict(c.flips)
                dense_v = tuple(v.get(t, 0.5) for t in range(c.k + 1, n + 1))
                delta += _oracle_prefix(n, c.k, dense_v)
            assert abs(rate_R(p, n) - delta.sum(axis=1).max()) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_processes(64))
    def test_rate_is_the_delta_row_sum(self, p):
        for n in range(1, p.n_max + 1):
            assert rate_R(p, n) == delta_matrix(p, n).sum(axis=1).max()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_audit_is_the_row_sum_rate(self, data):
        # the running max over the horizons is rate_R read off the rows, also
        # on a table redrawn with tied horizons, where n_k - k can fall
        p = data.draw(_processes(64))
        if data.draw(st.booleans()):
            table, n = [], 2
            for cp in p.checkpoints:
                n = data.draw(st.integers(max(n, cp.k + 1), p.n_max))
                table.append(dataclasses.replace(cp, n=n))
            p = dataclasses.replace(p, checkpoints=tuple(table))
        for rep in check_checkpoints(p):
            big_r = rate_R(p, rep.n)
            rn = p.rate(rep.n)
            assert rep.ratio == (big_r - 1.0) / rn
