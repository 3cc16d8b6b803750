import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmin import ChainProduct, Profile, project_monotone_box, project_product, theta
from latmin import projection
from latmin.projection import _kernel

from helpers import grid_projection_oracle, profile_chain, reference_project, reference_project_monotone_box

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestMonotoneBox:
    def test_feasible_input_is_identity(self):
        assert np.array_equal(project_monotone_box([0.9, 0.2]), [0.9, 0.2])

    def test_violating_pair_pools_to_mean(self):
        # grid-search certified: closest feasible point to (0.2, 0.9)
        assert np.allclose(project_monotone_box([0.2, 0.9]), [0.55, 0.55], atol=1e-12)

    def test_monotone_but_outside_box_clips(self):
        assert np.array_equal(project_monotone_box([1.4, 1.2]), [1.0, 1.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            project_monotone_box([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            project_monotone_box([0.5, np.nan])

    def test_matches_grid_oracle_on_aligned_vectors(self):
        # Entries on a 12e-3 lattice keep every block mean on the oracle grid.
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            v = rng.integers(-100, 200, size=m) * 0.012
            assert np.max(np.abs(project_monotone_box(v) - grid_projection_oracle(v))) < 1e-6

    @given(st.lists(st.one_of(finite_floats, st.sampled_from([-0.0, 0.0, 0.5, 1.0])), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_numpy_clip_and_running_min(self, v):
        out = project_monotone_box(v)
        assert out.dtype == np.float64
        assert out.tobytes() == reference_project_monotone_box(v).tobytes()

    @given(st.lists(finite_floats, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, v):
        once = project_monotone_box(v)
        assert np.allclose(project_monotone_box(once), once, atol=1e-12)

    @given(
        st.lists(finite_floats, min_size=1, max_size=6),
        st.lists(finite_floats, min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_expansive(self, u, v):
        m = min(len(u), len(v))
        u, v = np.array(u[:m]), np.array(v[:m])
        pu, pv = project_monotone_box(u), project_monotone_box(v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    @given(st.lists(finite_floats, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_output_exactly_feasible(self, v):
        out = project_monotone_box(v)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.diff(out) <= 0.0)

    def test_optimality_certificate_against_sampled_feasible_points(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            v = rng.uniform(-1.0, 2.0, size=m)
            rho = project_monotone_box(v)
            for _ in range(40):
                sigma = np.sort(rng.uniform(0.0, 1.0, size=m))[::-1]
                assert float(np.dot(v - rho, sigma - rho)) <= 1e-9


class TestProductProjection:
    def test_feasible_chains_unchanged(self):
        X = ChainProduct([3, 4])
        rho = project_product(np.array([0.9, 0.1, 0.7, 0.7, 0.2]), X)
        assert np.array_equal(profile_chain(rho, 0), [0.9, 0.1])
        assert np.array_equal(profile_chain(rho, 1), [0.7, 0.7, 0.2])

    def test_only_infeasible_chain_changes(self):
        X = ChainProduct([3, 3])
        rho = project_product(np.array([0.9, 0.1, 0.1, 0.9]), X)
        assert np.array_equal(profile_chain(rho, 0), [0.9, 0.1])
        assert np.allclose(profile_chain(rho, 1), [0.5, 0.5])

    def test_separable_equals_whole_vector_grid_search(self):
        X = ChainProduct([3, 2, 4])
        rng = np.random.default_rng(29)
        for _ in range(10):
            parts = [rng.integers(-100, 200, size=k) * 0.012 for k in (2, 1, 3)]
            rho = project_product(np.concatenate(parts), X)
            for c, v in enumerate(parts):
                assert np.max(np.abs(profile_chain(rho, c) - grid_projection_oracle(v))) < 1e-6

    def test_shape_mismatch_rejected(self):
        X = ChainProduct([3, 3])
        with pytest.raises(ValueError, match=r"length 4, got shape \(2,\)"):
            project_product(np.array([0.5, 0.5]), X)
        with pytest.raises(ValueError, match=r"length 4, got shape \(2, 2\)"):
            project_product(np.array([[0.5, 0.5], [0.5, 0.4]]), X)

    def test_result_validates_as_profile(self):
        X = ChainProduct([4, 2, 3])
        rng = np.random.default_rng(31)
        for _ in range(20):
            parts = [rng.uniform(-1, 2, size=m - 1) for m in X.dims]
            project_product(np.concatenate(parts), X).validate(X)


# Signed zeros, the box ends, subnormals of both signs, entries just past
# the ends and far outside; drawn from a short list, they also make ties.
ROW_ENTRIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 0.5, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0 + 2**-52, -1.5, 2.5]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=True),
)


@st.composite
def projection_rows(draw):
    """An (n, r) array over chains of 2-6 elements each: 1-5 coordinates per chain."""
    space = ChainProduct(draw(st.lists(st.integers(2, 6), min_size=1, max_size=6)))
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(ROW_ENTRIES, min_size=n * space.sort_length, max_size=n * space.sort_length))
    return np.array(entries).reshape(n, space.sort_length), space


class TestProjectRow:
    @given(projection_rows())
    @settings(max_examples=500, deadline=None)
    def test_rows_match_the_chain_by_chain_reference_byte_for_byte(self, case):
        rows, space = case
        expected = np.array([reference_project(row, space) for row in rows])
        assert np.array([project_product(row, space).values for row in rows]).tobytes() == expected.tobytes()

    def test_a_rising_pair_pools_to_its_mean_then_clips(self):
        space = ChainProduct([3, 3, 2])
        rows = [[0.25, 0.75, -0.5, 2.0, 1.5], [-0.0, 0.0, 1.5, 0.5, -0.0]]
        out = np.array([project_product(row, space).values for row in rows])
        assert out.tolist() == [[0.5, 0.5, 0.75, 0.75, 1.0], [-0.0, 0.0, 1.0, 0.5, -0.0]]
        # -0.0 < 0.0 is false: the pair does not rise, and each zero keeps its sign.
        assert np.signbit(out[1]).tolist() == [True, False, False, False, True]

    # Signed zeros, the smallest subnormal, both box ends, past them, and ties.
    POOL_ENTRIES = [-0.5, -0.0, 0.0, 5e-324, 0.3, 0.7, 1.0, 1.5]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_pool_path_of_a_written_out_chain(self, m):
        # The chain goes first, at stride 2; a fixed 1-coordinate chain follows.
        space = ChainProduct([m + 1, 2])
        kernel = _kernel(space.dims)
        # A unit step from a row of -0.0 along the negated entries: every stepped
        # entry is the drawn one exactly, signed zeros included.
        row_in, gamma = [-0.0] * (m + 1), 1.0
        for entries in itertools.product(self.POOL_ENTRIES, repeat=m):
            g = [-x for x in (*entries, 0.5)]
            stepped = np.array(row_in) - gamma * np.array(g)
            expected = reference_project(stepped, space).tobytes()
            for t in (0.3, 0.7, 1.0):
                row, number = kernel(row_in, g, gamma, t)
                assert np.array(row).tobytes() == expected, (entries, t)
                assert space.point(number) == theta(Profile(space, np.array(row)), t), (entries, t)

    @pytest.mark.parametrize("m", [3, 4])
    def test_every_pool_path_of_pool3_and_pool4(self, m):
        pool = {3: projection._pool3, 4: projection._pool4}[m]
        space = ChainProduct([m + 1])
        for entries in itertools.product(self.POOL_ENTRIES, repeat=m):
            expected = reference_project(np.array(entries), space).tobytes()
            for t in (0.3, 0.7, 1.0):
                *row, above = pool(*entries, t)
                assert np.array(row).tobytes() == expected, (entries, t)
                assert (above,) == theta(Profile(space, np.array(row)), t), (entries, t)


class TestKernel:
    @pytest.mark.parametrize(
        "row, g, gamma",
        [
            ([0.5, 0.5, 0.5], [1e308, 0.0, 0.0], 10.0),  # gamma * g overflows to inf
            ([0.5, 0.5, 0.5], [0.0, 0.0, -1e308], 1e10),
            ([0.5, np.nan, 0.5], [0.0, 0.0, 0.0], 1.0),
            ([0.5, 0.5, 0.5], [0.0, 0.0, np.inf], 1.0),
        ],
    )
    def test_non_finite_stepped_entry_is_refused(self, row, g, gamma):
        with pytest.raises(ValueError, match="projection input has non-finite entries"):
            _kernel((3, 2))(row, g, gamma, 0.5)

    def test_long_shapes_compile(self, fresh_kernels):
        # More coordinates than one sum can test for finiteness (on Python 3.11 a sum of
        # 3000 terms nests past the compiler's recursion limit), and a chain in the stack loop.
        space = ChainProduct([2] * 4000 + [60])
        values = np.linspace(-0.5, 1.5, space.sort_length)
        expected = reference_project(values, space).tobytes()
        assert project_product(values, space).values.tobytes() == expected
        with pytest.raises(ValueError, match="non-finite"):
            project_product(np.append(values[:-1], np.inf), space)

    # The sha256 of the kernel source of the fig3 and swarm8 shapes, unchanged
    # since kernels were introduced: two-coordinate chains are written out.
    @pytest.mark.parametrize(
        "dims, digest",
        [
            ([3] * 8, "909fad19ea00978460427102437cf3dffd93f52a5c1906ebbc29ba2ea74396c8"),
            ([3] * 16, "d61f0d26daaecf8be04c44acaf88245f2c229c8a825e7efd283015dc47c4e1a6"),
        ],
    )
    def test_two_coordinate_chains_call_no_pooling_function(self, dims, digest):
        source = projection._source(ChainProduct(dims))
        assert "_pool" not in source
        assert hashlib.sha256(source.encode()).hexdigest() == digest

    # The sha256 of the generated `_pool3` and `_pool4` source and of the kernel source
    # of a shape with every chain form: 1 and 2 coordinates inline, 3 and 4 through
    # `_pool3` and `_pool4`, 6 through `_pool`.  A change to the generator changes them.
    @pytest.mark.parametrize(
        "source, digest",
        [
            (lambda: projection._pool_source(3), "ddac910160415bdfc5e0c50f4cd7c0c17456f5c3ab9225e94c10e5c72ec835a1"),
            (lambda: projection._pool_source(4), "f3fabd75cfb931f111031d7bc114b845c775075b20515c57670123f601e23f5a"),
            (
                lambda: projection._source(ChainProduct([2, 3, 4, 5, 7])),
                "f7bd67e8676ddbc16874aef2aa175d0256a2736e2a769bb81a316546a8d2c053",
            ),
        ],
        ids=["pool3", "pool4", "every-chain-form"],
    )
    def test_generated_pooling_source_is_pinned(self, source, digest):
        assert hashlib.sha256(source().encode()).hexdigest() == digest

    def test_a_two_and_a_one_coordinate_chain_are_written_out(self):
        assert projection._source(ChainProduct([3, 2])) == (
            "def kernel(m, g, gamma, t):\n"
            "    m0, m1, m2, = m\n"
            "    g0, g1, g2, = g\n"
            "    x0 = m0 - gamma * g0\n"
            "    x1 = m1 - gamma * g1\n"
            "    x2 = m2 - gamma * g2\n"
            "    if not (0.0 * x0 + 0.0 * x1 + 0.0 * x2 == 0.0):\n"
            '        raise ValueError("projection input has non-finite entries")\n'
            "    number = 0\n"
            "    if x0 < x1:\n"
            "        x0 = x1 = (x0 + x1) / 2\n"
            "    x0 = 0.0 if x0 < 0.0 else 1.0 if x0 > 1.0 else x0\n"
            "    x1 = 0.0 if x1 < 0.0 else 1.0 if x1 > 1.0 else x1\n"
            "    if x1 >= t:\n"
            "        number += 4\n"
            "    elif x0 >= t:\n"
            "        number += 2\n"
            "    x2 = 0.0 if x2 < 0.0 else 1.0 if x2 > 1.0 else x2\n"
            "    if x2 >= t:\n"
            "        number += 1\n"
            "    return [x0, x1, x2], number\n"
        )

    def test_three_and_four_coordinate_chains_call_pool3_and_pool4_once(self, monkeypatch, fresh_kernels):
        called = []
        for name in ("_pool3", "_pool4"):
            pool = getattr(projection, name)
            monkeypatch.setattr(projection, name, lambda *args, name=name, pool=pool: called.append(name) or pool(*args))
        space = ChainProduct([5, 4, 3])
        values = [0.9, 0.2, 0.6, 0.7, 0.8, 0.3, 0.9, 0.4, 0.7]
        row, number = fresh_kernels(space.dims)(values, [0.0] * space.sort_length, 0.0, 0.5)
        assert called == ["_pool4", "_pool3"]
        assert "_pool(" not in projection._source(space)
        assert np.array(row).tobytes() == reference_project(np.array(values), space).tobytes()
        assert space.point(number) == theta(Profile(space, np.array(row)), 0.5)

    def test_the_cache_never_grows_past_its_bound(self, monkeypatch, fresh_kernels):
        monkeypatch.setattr(projection, "_compile", lambda space: space.dims)
        bound = projection.KERNEL_CACHE_SIZE
        for m in range(2, bound + 12):
            assert fresh_kernels((m,)) == (m,)
            assert fresh_kernels.cache_info().currsize <= bound
        assert fresh_kernels.cache_info().currsize == bound
        # The least recently used shapes went first.
        fresh_kernels((bound + 11,))
        fresh_kernels((2,))
        assert fresh_kernels.cache_info()[:2] == (1, bound + 11)


@st.composite
def rounding_cases(draw):
    """A row on 1-4 chains of 2-5 elements, a threshold t in (0, 1), and entries at t,
    just below it, at the box ends and just past them, signed zeros and outside."""
    t = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    space = ChainProduct(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    below_t = math.nextafter(t, -math.inf)
    entry = st.one_of(
        st.sampled_from([-0.0, 0.0, t, below_t, 1.0, 1.0 + 1e-13, -1e-13, 1.5, -0.5]),
        st.floats(-0.5, 1.5),
    )
    values = draw(st.lists(entry, min_size=space.sort_length, max_size=space.sort_length))
    return values, space, t


class TestProjectionRounding:
    @given(rounding_cases())
    @settings(max_examples=500, deadline=None)
    def test_number_is_the_rounding_rule_of_the_projected_row(self, case):
        values, space, t = case
        row, number = _kernel(space.dims)(values, [0.0] * space.sort_length, 0.0, t)
        assert space.point(number) == theta(Profile(space, np.array(row)), t)
        assert np.array(row).tobytes() == project_product(values, space).values.tobytes()
        assert np.array(row).tobytes() == reference_project(np.array(values), space).tobytes()
