import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latmin import (
    ChainProduct,
    Oracle,
    Profile,
    brute_force_minimize,
    greedy_extension,
    theta,
    uniform_random_profile,
)
from latmin.extension import (
    FEASIBILITY_TOL,
    _descending,
    _value,
    _walk,
    check_rows,
)

from helpers import (
    profile_chain,
    random_chain_product,
    random_submodular_oracle,
    random_table_oracle,
    reference_check_row,
    reference_greedy_extension,
    reference_theta,
    reference_uniform_random_parts,
    walk_points,
)


def identity_oracle(m=3):
    X = ChainProduct([m])
    return Oracle(lambda x: float(x[0]), X), X


class TestGreedyExtension:
    def test_hand_executed_single_chain(self):
        f, X = identity_oracle()
        rho = Profile(X, np.array([0.8, 0.3]))
        res = greedy_extension(f, rho, X)
        assert res.value == pytest.approx(1.1, abs=1e-12)
        assert np.allclose(res.subgradient, [1.0, 1.0])
        order = _descending(rho.values.tolist())
        assert walk_points(X, order) == [(0,), (1,), (2,)]
        assert [rho.values[k] for k in order] == [0.8, 0.3]

    def test_degenerate_profile_recovers_f(self):
        f, X = identity_oracle()
        rho = Profile(X, np.array([1.0, 0.0]))
        assert greedy_extension(f, rho, X).value == f((1,))

    def test_all_zeros_and_all_ones_telescope(self):
        rng = np.random.default_rng(2)
        X = ChainProduct([3, 4, 2])
        f = random_table_oracle(X, rng)
        assert greedy_extension(f, Profile.from_point(X, X.bottom()), X).value == pytest.approx(f(X.bottom()))
        assert greedy_extension(f, Profile.from_point(X, X.top()), X).value == pytest.approx(f(X.top()))

    def test_agreement_at_every_lattice_point(self):
        rng = np.random.default_rng(4)
        X = ChainProduct([3, 2, 4])
        f = random_table_oracle(X, rng)
        for x in X.points():
            value = greedy_extension(f, Profile.from_point(X, x), X).value
            assert value == pytest.approx(f(x), rel=1e-12, abs=1e-12)

    def test_oracle_call_count_is_exactly_r_plus_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = random_chain_product(rng)
            f = random_table_oracle(X, rng)
            rho = uniform_random_profile(X, int(rng.integers(1000)))
            f.calls = 0
            greedy_extension(f, rho, X)
            assert f.calls == X.sort_length + 1

    def test_walk_chain_shape(self):
        rng = np.random.default_rng(6)
        X = ChainProduct([3, 3, 2])
        f = random_table_oracle(X, rng)
        rho = uniform_random_profile(X, 9)
        order = _descending(rho.values.tolist())
        points = walk_points(X, order)
        assert points[0] == X.bottom()
        assert points[-1] == X.top()
        assert len(points) == X.sort_length + 1
        for prev, cur in zip(points, points[1:]):
            assert sum(c - p for p, c in zip(prev, cur)) == 1
        values = [rho.values[k] for k in order]
        assert values == sorted(values, reverse=True)

    def test_infeasible_profile_rejected_not_projected(self):
        f, X = identity_oracle()
        with pytest.raises(ValueError, match="non-increasing"):
            greedy_extension(f, Profile(X, np.array([0.3, 0.8])), X)
        with pytest.raises(ValueError, match="leaves"):
            greedy_extension(f, Profile(X, np.array([1.2, 0.1])), X)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, bad):
        X = ChainProduct([3, 3])
        f = Oracle(lambda x: bad if x == (2, 2) else float(x[0] - x[1]), X)
        with pytest.raises(ValueError, match=rf"\(2, 2\) is not finite: {bad}"):
            greedy_extension(f, uniform_random_profile(X, 1), X)

    def test_shape_mismatch_rejected(self):
        f, X = identity_oracle()
        with pytest.raises(ValueError, match="does not match"):
            greedy_extension(f, Profile(X, np.array([0.5])), X)

    def test_tie_across_chains_is_value_stable(self):
        # Integer-valued f and dyadic profile entries make both orders exact.
        X = ChainProduct([3, 3])
        table = {x: float((x[0] + 2) ** 2 + 3 * x[1] + x[0] * x[1] * -1) for x in X.points()}
        f = Oracle(table.__getitem__, X)
        rho = Profile(X, np.array([0.75, 0.5, 0.5, 0.25]))
        values = rho.values.tolist()
        order = _descending(values)
        tied = [k for k in order if values[k] == 0.5]
        assert len(tied) == 2 and X.chain_of[tied[0]] != X.chain_of[tied[1]]
        swapped = list(order)
        a, b = swapped.index(tied[0]), swapped.index(tied[1])
        swapped[a], swapped[b] = swapped[b], swapped[a]
        memo = {}
        subgradient = _walk(f, memo, X, swapped)
        assert _value(memo[0], values, swapped, subgradient, X) == greedy_extension(f, rho, X).value

    def test_midpoint_convexity_for_submodular_costs(self):
        rng = np.random.default_rng(8)
        X = ChainProduct([3, 4, 2])
        f = random_submodular_oracle(X, rng)
        for trial in range(200):
            a = uniform_random_profile(X, 2 * trial)
            b = uniform_random_profile(X, 2 * trial + 1)
            mid = Profile(X, (a.values + b.values) / 2)
            lhs = greedy_extension(f, mid, X).value
            rhs = (greedy_extension(f, a, X).value + greedy_extension(f, b, X).value) / 2
            assert lhs <= rhs + 1e-9

    def test_product_cost_breaks_midpoint_convexity(self):
        X = ChainProduct([2, 2])
        f = Oracle(lambda x: float(x[0] * x[1]), X)
        found = False
        for trial in range(200):
            a = uniform_random_profile(X, 3 * trial)
            b = uniform_random_profile(X, 3 * trial + 2)
            mid = Profile(X, (a.values + b.values) / 2)
            lhs = greedy_extension(f, mid, X).value
            rhs = (greedy_extension(f, a, X).value + greedy_extension(f, b, X).value) / 2
            if lhs > rhs + 1e-9:
                found = True
                break
        assert found

    def test_subgradient_inequality_for_submodular_costs(self):
        rng = np.random.default_rng(9)
        X = ChainProduct([3, 3])
        f = random_submodular_oracle(X, rng)
        for trial in range(200):
            rho = uniform_random_profile(X, 5 * trial)
            sigma = uniform_random_profile(X, 5 * trial + 1)
            res = greedy_extension(f, rho, X)
            inner = float(np.dot(res.subgradient, sigma.values - rho.values))
            assert greedy_extension(f, sigma, X).value >= res.value + inner - 1e-9

    def test_min_equivalence_with_brute_force(self):
        rng = np.random.default_rng(10)
        X = ChainProduct([3, 4])
        f = random_submodular_oracle(X, rng)
        best, _ = brute_force_minimize(f)
        degenerate = [
            greedy_extension(f, Profile.from_point(X, x), X).value for x in X.points()
        ]
        assert min(degenerate) == pytest.approx(best, rel=1e-12)
        for trial in range(300):
            v = greedy_extension(f, uniform_random_profile(X, trial), X).value
            assert v >= best - 1e-9


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


DIMS = st.lists(st.integers(2, 5), min_size=1, max_size=4).map(ChainProduct)
# Ties within and across chains, both zeros, entries just below 0.
LEVELS = st.one_of(
    st.sampled_from([0.0, -0.0, -FEASIBILITY_TOL / 2, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)
RISES = st.sampled_from([0.0, FEASIBILITY_TOL / 2, FEASIBILITY_TOL / 8, 5e-324])


@st.composite
def feasible_parts(draw, space):
    """Per-chain vectors that pass validation, rises within tolerance included."""
    parts = []
    for m in space.dims:
        v = sorted(draw(st.lists(LEVELS, min_size=m - 1, max_size=m - 1)), reverse=True)
        for j in range(1, m - 1):
            rise = draw(RISES)
            if rise and v[j - 1] + rise <= 1.0 + FEASIBILITY_TOL:
                v[j] = v[j - 1] + rise
        parts.append(np.array(v))
    return parts


class TestFlatLayoutMatchesPerChainReference:
    @given(data=st.data(), space=DIMS, seed=st.integers(0, 2**32 - 1), small=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_walk_is_bit_identical(self, data, space, seed, small):
        parts = data.draw(feasible_parts(space))
        rng = np.random.default_rng(seed)
        if small:
            # Integer-ish costs with signed zeros make many equal steps.
            raw = rng.integers(-2, 3, size=space.cardinality) * 0.5
            raw = np.where((raw == 0) & rng.integers(0, 2, size=raw.size).astype(bool), -0.0, raw)
        else:
            raw = rng.uniform(-5.0, 5.0, size=space.cardinality)
        table = dict(zip(space.points(), raw.tolist()))
        f = Oracle(table.__getitem__, space)
        rho = Profile(space, np.concatenate(parts))

        res = greedy_extension(f, rho, space)
        value, subgradient, points, entries = reference_greedy_extension(f, space, parts)
        assert bits(res.value) == bits(value)
        order = _descending(rho.values.tolist())
        assert walk_points(space, order) == points
        assert res.subgradient.tobytes() == np.concatenate(subgradient).tobytes()
        assert order == [space.offsets[i] + j - 1 for _, i, j in entries]
        for t in (0.0, FEASIBILITY_TOL / 4, 0.25, 0.5, 0.7, 1.0, data.draw(st.floats(0.0, 1.0))):
            assert theta(rho, t) == reference_theta(parts, t)

    @given(space=DIMS, seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_profile_matches_per_chain_draws(self, space, seed):
        flat = uniform_random_profile(space, seed).values
        reference = np.concatenate(reference_uniform_random_parts(space, seed))
        assert flat.tobytes() == reference.tobytes()


class TestSetFunctionSpecialization:
    """Chains of size 2 must reproduce the classical hypercube extension."""

    @staticmethod
    def classical_lovasz(values_by_set, x):
        # sort coordinates descending, telescope over the growing support
        n = len(x)
        order = sorted(range(n), key=lambda i: -x[i])
        total = values_by_set[frozenset()]
        members = set()
        for i in order:
            members.add(i)
            total += x[i] * (
                values_by_set[frozenset(members)]
                - values_by_set[frozenset(members - {i})]
            )
        return total

    def test_matches_classical_formula_on_hypercube(self):
        rng = np.random.default_rng(12)
        n = 3
        X = ChainProduct([2] * n)
        values_by_set = {
            frozenset(i for i in range(n) if x[i]): float(v)
            for x, v in zip(X.points(), rng.uniform(-4, 4, X.cardinality))
        }
        f = Oracle(lambda x: values_by_set[frozenset(i for i in range(n) if x[i])], X)
        for trial in range(100):
            coords = rng.uniform(0, 1, size=n)
            rho = Profile(X, coords)
            ours = greedy_extension(f, rho, X).value
            classical = self.classical_lovasz(values_by_set, coords)
            assert ours == pytest.approx(classical, rel=1e-12, abs=1e-12)


class TestValidate:
    def test_rise_across_chain_boundary_accepted(self):
        X = ChainProduct([3, 3])
        Profile(X, np.array([0.5, 0.1, 0.9, 0.3])).validate(X)

    def test_rise_inside_a_chain_names_that_chain(self):
        X = ChainProduct([3, 3, 3])
        rho = Profile(X, np.array([0.9, 0.1, 0.8, 0.2, 0.3, 0.6]))
        with pytest.raises(ValueError, match="chain 2 is not non-increasing"):
            rho.validate(X)

    def test_box_violation_names_that_chain(self):
        X = ChainProduct([3, 3, 3])
        rho = Profile(X, np.array([0.9, 0.1, 0.8, -0.2, 0.3, 0.1]))
        with pytest.raises(ValueError, match="chain 1 leaves"):
            rho.validate(X)

    def test_nan_entry_rejected_naming_its_chain(self):
        X = ChainProduct([3, 3])
        rho = Profile(X, np.array([0.9, 0.1, np.nan, 0.5]))
        with pytest.raises(ValueError, match="chain 1 leaves"):
            rho.validate(X)
        Y = ChainProduct([3])
        with pytest.raises(ValueError, match="chain 0 leaves"):
            Profile(Y, np.array([np.nan, 0.5])).validate(Y)

    def test_nan_profile_never_reaches_the_extension(self):
        X = ChainProduct([3])
        f = Oracle(lambda x: float(x[0]), X)
        with pytest.raises(ValueError, match="chain 0 leaves"):
            greedy_extension(f, Profile(X, np.array([np.nan, 0.5])), X)
        assert f.calls == 0

    def test_first_offending_chain_is_named(self):
        X = ChainProduct([2, 3, 3])
        rho = Profile(X, np.array([0.5, 0.2, 0.4, 1.5, 0.1]))
        with pytest.raises(ValueError, match="chain 1 is not non-increasing"):
            rho.validate(X)


# Entries at and past both ends of the box, signed zeros, and non-finite values.
ROW_ENTRIES = [
    -0.0, 0.0, 1.0, -FEASIBILITY_TOL, 1.0 + FEASIBILITY_TOL, -2e-12, 1.0 + 2e-12,
    math.nan, math.inf, -math.inf,
]
# In-chain rises of exactly the tolerance and of the next float above it.
EDGE_RISES = [FEASIBILITY_TOL, math.nextafter(FEASIBILITY_TOL, 1.0)]


@st.composite
def checked_rows(draw):
    """A layout of 1-4 chains of 2-5 elements and a row for it: entries from
    the box's edges or anywhere near it, each chain sorted descending or
    not, then perhaps one in-chain rise at the tolerance and one NaN."""
    space = draw(DIMS)
    entry = st.sampled_from(ROW_ENTRIES) | st.floats(-0.1, 1.1)
    values = draw(st.lists(entry, min_size=space.sort_length, max_size=space.sort_length))
    if draw(st.booleans()):
        for start, end in zip(space.offsets, space.offsets[1:]):
            values[start:end] = sorted(values[start:end], reverse=True)
    if space.in_chain_steps and draw(st.booleans()):
        k = draw(st.sampled_from(space.in_chain_steps))
        base = draw(st.sampled_from([0.0, -0.0, 0.5]))
        values[k], values[k + 1] = base, base + draw(st.sampled_from(EDGE_RISES))
    if draw(st.booleans()):
        values[draw(st.integers(0, space.sort_length - 1))] = math.nan
    return space, values


def row_check_outcome(check, space, values):
    """None if `check` accepts the row, else its message."""
    try:
        check(values, space)
    except ValueError as exc:
        return str(exc)
    return None


class TestRowCheck:
    @settings(max_examples=500, deadline=None, database=None)
    @given(checked_rows())
    # A single in-chain step that rises by exactly the tolerance, and just above it.
    @example((ChainProduct([3]), [0.0, FEASIBILITY_TOL]))
    @example((ChainProduct([2, 3]), [0.5, 0.0, EDGE_RISES[1]]))
    # One-coordinate chains only: no in-chain step at all.
    @example((ChainProduct([2, 2, 2]), [0.0, 1.0, 0.3]))
    @example((ChainProduct([2, 2]), [math.inf, 0.3]))
    @example((ChainProduct([2, 2]), [0.3, -math.inf]))
    # A NaN that min and max both pass over.
    @example((ChainProduct([3, 2]), [0.5, math.nan, 0.3]))
    # Adjacent same-sign infinities, across a chain boundary and within one chain,
    # and a rise that overflows: none of them may warn.
    @example((ChainProduct((2, 2, 2, 3)), [-math.inf, -math.inf, 0.0, 0.0, 0.0]))
    @example((ChainProduct([3]), [math.inf, math.inf]))
    @example((ChainProduct([3]), [-1e308, 1e308]))
    def test_matches_the_generator_form(self, case):
        space, values = case
        want = row_check_outcome(reference_check_row, space, values)
        assert row_check_outcome(lambda row, space: check_rows([row], space), space, values) == want


class TestTheta:
    def test_threshold_between_entries(self):
        rho = Profile(ChainProduct([3]), np.array([0.8, 0.3]))
        assert theta(rho, 0.5) == (1,)

    def test_threshold_below_smallest_hits_top(self):
        rho = Profile(ChainProduct([3]), np.array([0.8, 0.3]))
        assert theta(rho, 0.1) == (2,)

    def test_degenerate_profile_rounds_to_its_point(self):
        X = ChainProduct([3, 2, 5])
        for x in X.points():
            rho = Profile.from_point(X, x)
            for t in (0.01, 0.3, 0.7, 0.99):
                assert theta(rho, t) == x

    def test_out_of_range_threshold_rejected(self):
        rho = Profile(ChainProduct([3]), np.array([0.8, 0.3]))
        with pytest.raises(ValueError, match="outside"):
            theta(rho, 1.5)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dims=st.lists(st.integers(2, 5), min_size=1, max_size=4), t=st.floats(0.05, 0.95))
    def test_point_number_is_the_strides_dot_the_per_chain_counts(self, data, dims, t):
        """A row with entries at t, at -0.0, 0.0 and 1.0 rounds to the tuple of
        per-chain counts of entries >= t, whose number strides . counts
        `space.point` decodes back to that tuple."""
        space = ChainProduct(dims)
        entry = st.one_of(st.sampled_from([t, -0.0, 0.0, 1.0]), st.floats(0.0, 1.0))
        row = data.draw(st.lists(entry, min_size=space.sort_length, max_size=space.sort_length))
        counts = tuple(
            int(np.count_nonzero(np.array(row[start:end]) >= t))
            for start, end in zip(space.offsets, space.offsets[1:])
        )
        number = sum(c * s for c, s in zip(counts, space.strides))
        assert space.point(number) == counts
        assert all(type(x) is int for x in space.point(number))
        point = theta(Profile(space, np.array(row)), t)
        assert point == counts
        assert all(type(x) is int for x in point)

    def test_negative_zero_meets_a_zero_threshold(self):
        space = ChainProduct([3, 2])
        assert theta(Profile(space, np.array([-0.0, -1e-13, 0.0])), 0.0) == (1, 1)

    def test_numpy_scalar_entries_round_like_python_numbers(self):
        space = ChainProduct([3, 2])
        assert theta(Profile(space, np.array([1, 0, 1])), 0.5) == (1, 1)
        assert theta(Profile(space, np.array([0.9, 0.2, 0.4], dtype=np.float32)), 0.5) == (1, 0)


class TestProfiles:
    def test_profile_from_bottom_point(self):
        X = ChainProduct([3])
        assert np.array_equal(profile_chain(Profile.from_point(X, (0,)), 0), [0.0, 0.0])

    def test_profile_from_top_point(self):
        X = ChainProduct([3])
        assert np.array_equal(profile_chain(Profile.from_point(X, (2,)), 0), [1.0, 1.0])

    def test_profile_from_mixed_point(self):
        X = ChainProduct([3, 2])
        rho = Profile.from_point(X, (1, 0))
        assert np.array_equal(profile_chain(rho, 0), [1.0, 0.0])
        assert np.array_equal(profile_chain(rho, 1), [0.0])

    def test_a_point_that_is_not_an_integer_makes_no_profile(self):
        with pytest.raises(ValueError, match=r"^point \(1\.9, 0\) has a coordinate that is not an integer$"):
            Profile.from_point(ChainProduct([3, 2]), (1.9, 0))

    def test_random_profile_deterministic_per_seed(self):
        X = ChainProduct([3, 3])
        a = uniform_random_profile(X, 123)
        b = uniform_random_profile(X, 123)
        assert all(np.array_equal(profile_chain(a, c), profile_chain(b, c)) for c in range(X.n_chains))

    def test_random_profile_feasible(self):
        X = ChainProduct([4, 2, 6])
        for seed in range(50):
            uniform_random_profile(X, seed).validate(X)

    @settings(max_examples=200, deadline=None)
    @given(dims=st.lists(st.integers(2, 6), min_size=1, max_size=4), seed=st.integers(0, 2**64 - 1))
    def test_random_profile_passes_the_row_check(self, dims, seed):
        # A solve does not check its own seeded start: this is why it need not.
        X = ChainProduct(dims)
        check_rows(uniform_random_profile(X, seed).values[None], X)

    def test_random_profile_leading_entry_mean(self):
        # First entry of a size-3 chain is the max of two uniforms: mean 2/3.
        X = ChainProduct([3])
        draws = [profile_chain(uniform_random_profile(X, seed), 0)[0] for seed in range(10_000)]
        assert np.mean(draws) == pytest.approx(2 / 3, abs=0.02)
