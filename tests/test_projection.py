import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmin import ChainProduct, project_monotone_box, project_product

from latmin.projection import project_row

from helpers import grid_projection_oracle, reference_project, reference_project_monotone_box

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
        assert np.array_equal(rho.chain(0), [0.9, 0.1])
        assert np.array_equal(rho.chain(1), [0.7, 0.7, 0.2])

    def test_only_infeasible_chain_changes(self):
        X = ChainProduct([3, 3])
        rho = project_product(np.array([0.9, 0.1, 0.1, 0.9]), X)
        assert np.array_equal(rho.chain(0), [0.9, 0.1])
        assert np.allclose(rho.chain(1), [0.5, 0.5])

    def test_separable_equals_whole_vector_grid_search(self):
        X = ChainProduct([3, 2, 4])
        rng = np.random.default_rng(29)
        for _ in range(10):
            parts = [rng.integers(-100, 200, size=k) * 0.012 for k in (2, 1, 3)]
            rho = project_product(np.concatenate(parts), X)
            for c, v in enumerate(parts):
                assert np.max(np.abs(rho.chain(c) - grid_projection_oracle(v))) < 1e-6

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
        assert np.array([project_row(row, space) for row in rows.tolist()]).tobytes() == expected.tobytes()

    def test_a_rising_pair_pools_to_its_mean_then_clips(self):
        space = ChainProduct([3, 3, 2])
        rows = [[0.25, 0.75, -0.5, 2.0, 1.5], [-0.0, 0.0, 1.5, 0.5, -0.0]]
        out = np.array([project_row(row, space) for row in rows])
        assert out.tolist() == [[0.5, 0.5, 0.75, 0.75, 1.0], [-0.0, 0.0, 1.0, 0.5, -0.0]]
        # -0.0 < 0.0 is false: the pair does not rise, and each zero keeps its sign.
        assert np.signbit(out[1]).tolist() == [True, False, False, False, True]

