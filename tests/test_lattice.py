import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmin import (
    CapExceededError,
    ChainProduct,
    Oracle,
    brute_force_minimize,
    check_submodular,
    cross_difference,
)

from latmin.lattice import DEFAULT_STRICTNESS_TOL

from helpers import (
    random_submodular_fn,
    random_submodular_oracle,
    random_table_oracle,
    reference_brute_force,
    reference_check_submodular,
)


def quad_distance_oracle():
    # d(z) = (x_a - x_b)^2 + (y_a - y_b)^2 over four chains (x_a, y_a, x_b, y_b)
    space = ChainProduct([4, 4, 4, 4])
    return Oracle(lambda z: (z[0] - z[2]) ** 2 + (z[1] - z[3]) ** 2, space)


class TestChainProduct:
    def test_direct_construction(self):
        X = ChainProduct([3, 3])
        assert X.n_chains == 2
        assert X.dims == (3, 3)
        assert X.cardinality == 9

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError, match="empty product"):
            ChainProduct([])

    def test_single_element_chain_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ChainProduct([3, 1])

    @pytest.mark.parametrize("size", [2.7, 3.0, "3", True, np.float64(3.0), np.True_])
    def test_a_size_that_is_not_an_integer_is_refused(self, size):
        message = f"chain 1 has size {size!r}; chain sizes must be integers"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ChainProduct([3, size])

    def test_numpy_integer_sizes_become_ints(self):
        X = ChainProduct(np.array([3, 4]))
        assert X.dims == (3, 4) and all(type(m) is int for m in X.dims)

    def test_sort_length_matches_eight_chain_setup(self):
        # 8 chains of size 3: sum(m_i) - N = 24 - 8
        assert ChainProduct([3] * 8).sort_length == 16

    def test_cap_flag_is_warning_state_not_error(self):
        X = ChainProduct([101] * 3)
        assert X.exceeds_cap
        f = Oracle(lambda x: 0.0, X)
        with pytest.raises(CapExceededError):
            brute_force_minimize(f)
        with pytest.raises(CapExceededError):
            check_submodular(f)

    def test_point_validation(self):
        X = ChainProduct([3, 2])
        assert X.contains((2, 1))
        assert not X.contains((3, 0))
        with pytest.raises(ValueError, match="outside lattice"):
            X.check_point((0, 2))

    @pytest.mark.parametrize("coordinate", [0.7, 1.0, True, "1", None])
    def test_a_coordinate_that_is_not_an_integer_is_refused(self, coordinate):
        X = ChainProduct([3, 3])
        point = X.check_point((np.int64(1), 1))
        assert point == (1, 1) and all(type(x) is int for x in point)
        message = f"point {(coordinate, 1)} has a coordinate that is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            X.check_point((coordinate, 1))

    @pytest.mark.parametrize("number", [-1, 9, 100, True, 1.0])
    def test_a_point_number_outside_the_lattice_is_refused(self, number):
        X = ChainProduct([3, 3])
        assert X.point(0) == (0, 0) and X.point(8) == (2, 2)
        message = f"point number {number!r} is not an integer from 0 to 8 for dims (3, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            X.point(number)

    @pytest.mark.parametrize("dims", [[2], [3, 2, 4], [5, 3]])
    def test_strides_number_points_in_enumeration_order(self, dims):
        X = ChainProduct(dims)
        numbers = [sum(xi * s for xi, s in zip(x, X.strides)) for x in X.points()]
        assert numbers == list(range(X.cardinality))

    @settings(max_examples=100, deadline=None)
    @given(dims=st.lists(st.integers(2, 5), min_size=1, max_size=4))
    def test_point_decodes_every_number_in_enumeration_order(self, dims):
        X = ChainProduct(dims)
        assert [X.point(k) for k in range(X.cardinality)] == list(X.points())


class TestCrossDifference:
    def test_quadratic_distance_same_axis_is_minus_two(self):
        f = quad_distance_oracle()
        assert cross_difference(f, (0, 0, 0, 0), 0, 2) == -2.0
        assert cross_difference(f, (1, 2, 0, 1), 1, 3) == -2.0

    def test_quadratic_distance_cross_axis_is_zero(self):
        f = quad_distance_oracle()
        assert cross_difference(f, (0, 0, 0, 0), 0, 3) == 0.0

    def test_constant_function_vanishes(self):
        X = ChainProduct([3, 4])
        f = Oracle(lambda x: 7.5, X)
        for x in [(0, 0), (1, 2), (0, 1)]:
            assert cross_difference(f, x, 0, 1) == 0.0

    def test_product_violation_by_corner_enumeration(self):
        # f = x*y on {0,1}^2: corners give (1 - 0) - (0 - 0) = +1
        X = ChainProduct([2, 2])
        f = Oracle(lambda x: x[0] * x[1], X)
        assert cross_difference(f, (0, 0), 0, 1) == 1.0

    def test_same_chain_rejected(self):
        f = quad_distance_oracle()
        with pytest.raises(ValueError, match="distinct"):
            cross_difference(f, (0, 0, 0, 0), 1, 1)

    @pytest.mark.parametrize("i, j", [(True, 0), (0, 1.0), (0.5, 1), (0, 4), (-1, 0)])
    def test_a_chain_index_that_is_not_an_integer_in_range_is_refused(self, i, j):
        f = quad_distance_oracle()
        message = f"chain indices {i!r}, {j!r}: need two integers from 0 to 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cross_difference(f, (0, 0, 0, 0), i, j)

    def test_out_of_lattice_shift_rejected(self):
        f = quad_distance_oracle()
        with pytest.raises(ValueError, match="leaves the lattice"):
            cross_difference(f, (3, 0, 0, 0), 0, 1)


class TestCheckSubmodular:
    def test_product_fails_with_one_violation(self):
        X = ChainProduct([2, 2])
        rep = check_submodular(Oracle(lambda x: x[0] * x[1], X))
        assert not rep.is_submodular
        assert len(rep.violations) == 1
        x, pair, value = rep.violations[0]
        assert (x, pair) == ((0, 0), (0, 1))
        assert value == 1.0

    def test_single_chain_vacuous(self):
        X = ChainProduct([5])
        rep = check_submodular(random_table_oracle(X, np.random.default_rng(0)))
        assert rep.is_submodular
        assert rep.points_checked == 0

    def test_generated_functions_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = ChainProduct(rng.integers(2, 5, size=rng.integers(2, 4)).tolist())
            assert check_submodular(random_submodular_oracle(X, rng)).is_submodular

    def test_violation_iff_positive_cross_difference(self):
        rng = np.random.default_rng(3)
        X = ChainProduct([3, 2, 3])
        f = random_table_oracle(X, rng)
        rep = check_submodular(f)
        flagged = {(x, pair) for x, pair, _ in rep.violations}
        for x in X.points():
            for i in range(3):
                if x[i] + 1 >= X.dims[i]:
                    continue
                for j in range(i + 1, 3):
                    if x[j] + 1 >= X.dims[j]:
                        continue
                    positive = cross_difference(f, x, i, j) > 1e-9
                    assert ((x, (i, j)) in flagged) == positive

    def test_sum_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            X = ChainProduct(rng.integers(2, 5, size=3).tolist())
            f = random_submodular_oracle(X, rng)
            g = random_submodular_oracle(X, rng)
            both = Oracle(lambda x: f(x) + g(x), X)
            assert check_submodular(both).is_submodular

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_refused_before_any_evaluation(self, tol):
        f = Oracle(lambda x: x[0] * x[1], ChainProduct([2, 2]))
        with pytest.raises(ValueError, match="^tol: "):
            check_submodular(f, tol=tol)
        assert f.calls == 0

    def test_evaluation_count_bound(self):
        X = ChainProduct([3, 4, 2])
        f = random_table_oracle(X, np.random.default_rng(5))
        f.calls = 0
        check_submodular(f)
        assert f.calls == X.cardinality

    def test_strictness_tolerance_absorbs_noise(self):
        X = ChainProduct([2, 2])
        f = Oracle(lambda x: 5e-10 * x[0] * x[1], X)
        assert check_submodular(f).is_submodular
        assert not check_submodular(f, tol=1e-12).is_submodular


class TestBruteForce:
    def test_monotone_function_bottoms_out(self):
        X = ChainProduct([3, 3])
        value, argmins = brute_force_minimize(Oracle(lambda x: x[0] + x[1], X))
        assert value == 0
        assert argmins == {(0, 0)}

    def test_tied_minimizers_all_reported(self):
        X = ChainProduct([3])
        value, argmins = brute_force_minimize(Oracle(lambda x: x[0] + (x[0] - 2) ** 2, X))
        assert value == 2
        assert argmins == {(1,), (2,)}

    def test_constant_function(self):
        X = ChainProduct([2, 2])
        value, argmins = brute_force_minimize(Oracle(lambda x: 5.0, X))
        assert value == 5.0
        assert argmins == set(X.points())

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(13)
        X = ChainProduct([3, 4])
        f = random_table_oracle(X, rng)
        v0, a0 = brute_force_minimize(f)
        shifted = Oracle(lambda x: f(x) + 11.25, X)
        v1, a1 = brute_force_minimize(shifted)
        assert a0 == a1
        assert v1 == pytest.approx(v0 + 11.25, abs=1e-12)


class TestNonFiniteCosts:
    def test_oracle_names_point_and_value(self):
        X = ChainProduct([3, 3])
        f = Oracle(lambda x: math.nan if x == (1, 1) else float(x[0] * x[1]), X)
        assert f((0, 2)) == 0.0
        with pytest.raises(ValueError, match=r"\(1, 1\) is not finite: nan"):
            f((1, 1))

    def test_an_overflowing_cost_names_its_point(self):
        X = ChainProduct([3])
        f = Oracle(lambda x: (x[0] - 1e200) ** 2, X)
        with pytest.raises(ValueError, match=r"^cost at \(2,\) is not finite: overflow$") as info:
            f((2,))
        assert isinstance(info.value.__cause__, OverflowError)
        assert f.calls == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sweeps_reject_a_non_finite_point(self, bad):
        # x0*x1 is supermodular; one bad point must not hide that or the minimum.
        X = ChainProduct([3, 3])
        f = Oracle(lambda x: bad if x == (1, 1) else float(x[0] * x[1]), X)
        with pytest.raises(ValueError, match=rf"\(1, 1\) is not finite: {bad}"):
            check_submodular(f)
        with pytest.raises(ValueError, match=rf"\(1, 1\) is not finite: {bad}"):
            brute_force_minimize(f)

    def test_a_cost_that_overflows_inside_a_sweep_names_its_point(self):
        X = ChainProduct([3, 3])
        f = Oracle(lambda x: math.exp(800.0 * x[0]), X)
        with pytest.raises(ValueError, match=r"^cost at \(1, 0\) is not finite: overflow$") as info:
            check_submodular(f)
        assert isinstance(info.value.__cause__, OverflowError)
        assert f.table is None
        assert f.calls == 4  # (0, 0), (0, 1), (0, 2), then (1, 0)

    def test_all_nan_cost_rejected(self):
        X = ChainProduct([2, 3])
        with pytest.raises(ValueError, match=r"\(0, 0\) is not finite"):
            brute_force_minimize(Oracle(lambda x: math.nan, X))


@st.composite
def table_oracles(draw):
    """Random value tables: arbitrary floats, small integers with signed zeros
    (ties between minimizers), or random submodular costs."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    space = ChainProduct(dims)
    kind = draw(st.sampled_from(["float", "int", "submodular"]))
    if kind == "submodular":
        fn = random_submodular_fn(space, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        values = [float(fn(x)) for x in space.points()]
    else:
        entries = (
            st.floats(-5.0, 5.0, allow_nan=False)
            if kind == "float"
            else st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
        )
        values = draw(st.lists(entries, min_size=space.cardinality, max_size=space.cardinality))
    table = dict(zip(space.points(), values))
    return Oracle(table.__getitem__, space)


class TestSweepsMatchReference:
    @given(table_oracles(), st.sampled_from([DEFAULT_STRICTNESS_TOL, 0.0, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_check_and_brute_force_match_point_by_point_sweeps(self, f, tol):
        X = f.space
        report = check_submodular(f, tol=tol)
        assert f.calls == X.cardinality
        violations, checked = reference_check_submodular(f, X, tol)
        # repr pins the order, the exact floats and the Python types.
        assert repr(report.violations) == repr(violations)
        assert report.points_checked == checked
        assert report.is_submodular == (not violations)

        f.calls = 0
        best, argmins = brute_force_minimize(f)
        assert f.calls == 0
        fresh = Oracle(f.fn, X)
        fresh_best, fresh_argmins = brute_force_minimize(fresh)
        assert fresh.calls == X.cardinality
        ref_best, ref_argmins = reference_brute_force(f, X)
        for b, a in ((best, argmins), (fresh_best, fresh_argmins)):
            assert repr(b) == repr(ref_best)
            assert a == ref_argmins
            assert all(type(c) is int for x in a for c in x)


class TestValueTable:
    """Each oracle keeps the table of its first exhaustive sweep."""

    def test_check_then_brute_force_evaluates_each_point_once(self):
        X = ChainProduct([3, 4, 2])
        f = random_submodular_oracle(X, np.random.default_rng(21))
        assert f.table is None
        assert check_submodular(f).is_submodular
        value, argmins = brute_force_minimize(f)
        assert f.calls == X.cardinality
        assert f.table.shape == X.dims
        assert value == min(f.fn(x) for x in X.points())
        assert argmins == {x for x in X.points() if f.fn(x) == value}

    def test_a_non_finite_sweep_keeps_no_table(self):
        X = ChainProduct([3, 3])
        f = Oracle(lambda x: math.inf if x == (2, 1) else float(x[0] + x[1]), X)
        with pytest.raises(ValueError, match=r"\(2, 1\) is not finite: inf"):
            brute_force_minimize(f)
        assert f.table is None
        with pytest.raises(ValueError, match=r"\(2, 1\) is not finite: inf"):
            check_submodular(f)
        assert f.table is None
        assert f.calls == 2 * (X.cardinality - 1)

    def test_a_cost_that_raises_partway_raises_that_error(self):
        X = ChainProduct([2, 3])

        def fn(x):
            if x == (1, 1):
                raise TypeError("no cost at (1, 1)")
            return float(sum(x))

        f = Oracle(fn, X)
        with pytest.raises(TypeError, match=r"^no cost at \(1, 1\)$"):
            brute_force_minimize(f)
        assert f.table is None
        assert f.calls == 5  # (1, 1) is point number 4

    def test_the_table_is_read_only(self):
        f = random_table_oracle(ChainProduct([2, 3]), np.random.default_rng(3))
        brute_force_minimize(f)
        with pytest.raises(ValueError, match="read-only"):
            f.table[0, 0] = -100.0
        with pytest.raises(ValueError, match="read-only"):
            f.table.base[0] = -100.0

    def test_zeroing_calls_keeps_the_table(self):
        X = ChainProduct([3, 3])
        f = random_table_oracle(X, np.random.default_rng(4))
        first = check_submodular(f)
        table = f.table
        f.calls = 0
        assert f.table is table
        again = check_submodular(f)
        assert f.calls == 0
        assert repr(again) == repr(first)

    def test_an_equal_space_reuses_the_table(self):
        X = ChainProduct([2, 3, 2])
        f = random_table_oracle(X, np.random.default_rng(6))
        check_submodular(f, X)
        table = f.table
        f.calls = 0
        equal = ChainProduct([2, 3, 2])
        assert equal is not X
        brute_force_minimize(f, equal)
        assert f.calls == 0
        assert f.table is table
