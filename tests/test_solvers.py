import dataclasses
import functools
import gc
import itertools
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latmin import (
    ChainProduct,
    Oracle,
    Profile,
    SolverParams,
    WeightMatrix,
    brute_force_minimize,
    centralized_minimize,
    check_submodular,
    distributed_minimize,
    greedy_extension,
    mix_profiles,
    uniform_random_profile,
    validate_weight_matrix,
)

from latmin import extension, projection, solvers
from latmin.extension import FEASIBILITY_TOL, check_rows
from latmin.scenario import bundled_scenario_path, load_scenario

from helpers import (
    as_bytes,
    forest_minimum,
    left_sum,
    line_matrix,
    profile_chain,
    random_chain_product,
    random_submodular_fn,
    random_submodular_oracle,
    random_table_oracle,
    reference_centralized_minimize,
    reference_check_row,
    reference_distributed_minimize,
    reference_mix_row,
    reference_mixing_plan,
    reference_steps_extension,
    reference_strongly_connected,
    solve_bytes,
    step_size,
)

LINE_GRAPH_MATRIX = [
    [0.7, 0.3, 0.0, 0.0],
    [0.3, 0.6, 0.1, 0.0],
    [0.0, 0.1, 0.6, 0.3],
    [0.0, 0.0, 0.3, 0.7],
]


class TestWeightMatrix:
    def test_line_graph_matrix_passes_all_conditions(self):
        report = validate_weight_matrix(LINE_GRAPH_MATRIX, eta=0.1)
        assert report.ok
        assert report.failures() == []

    def test_identity_fails_only_connectivity(self):
        report = validate_weight_matrix(np.eye(4), eta=0.1)
        assert not report.strongly_connected
        assert report.diagonal_at_least_eta
        assert report.edges_at_least_eta
        assert report.doubly_stochastic

    def test_small_edge_fails_only_eta_condition(self):
        a = [
            [0.7, 0.3, 0.0, 0.0],
            [0.3, 0.65, 0.05, 0.0],
            [0.0, 0.05, 0.65, 0.3],
            [0.0, 0.0, 0.3, 0.7],
        ]
        report = validate_weight_matrix(a, eta=0.1)
        assert report.strongly_connected
        assert report.diagonal_at_least_eta
        assert not report.edges_at_least_eta
        assert report.doubly_stochastic

    def test_row_stochastic_only_fails_condition_four(self):
        report = validate_weight_matrix([[0.6, 0.4], [0.2, 0.8]], eta=0.1)
        assert report.strongly_connected
        assert report.diagonal_at_least_eta
        assert report.edges_at_least_eta
        assert not report.doubly_stochastic
        assert any("condition 4" in msg for msg in report.failures())

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            validate_weight_matrix(np.ones((2, 3)) / 3, eta=0.1)

    @pytest.mark.parametrize("build", [validate_weight_matrix, WeightMatrix])
    def test_no_agent_rejected(self, build):
        # Each condition holds vacuously on an empty matrix, and a solve would then fail in numpy.
        with pytest.raises(ValueError, match="^matrix: need at least one agent$"):
            build(np.zeros((0, 0)), eta=0.5)

    @pytest.mark.parametrize("eta", ["x", None, True, 0.0, math.nan])
    @pytest.mark.parametrize("build", [validate_weight_matrix, WeightMatrix])
    def test_an_eta_outside_the_open_unit_interval_is_refused_by_name(self, build, eta):
        with pytest.raises(ValueError, match=rf"^eta: must lie in \(0,1\), got {re.escape(repr(eta))}$"):
            build([[1.0]], eta=eta)

    def test_weight_matrix_type_rejects_invalid(self):
        with pytest.raises(ValueError, match="condition 4"):
            WeightMatrix([[0.6, 0.4], [0.2, 0.8]], eta=0.1)
        ok = WeightMatrix(LINE_GRAPH_MATRIX, eta=0.1)
        assert ok.n_agents == 4

    def test_equality_compares_entries_and_eta(self):
        fig3 = bundled_scenario_path("paper_fig3.cfg")
        network = load_scenario(fig3).network
        assert network == load_scenario(fig3).network
        assert network != WeightMatrix(np.full((4, 4), 0.25), eta=network.eta)
        assert network != WeightMatrix(network.entries, eta=network.eta / 2)
        assert network != network.entries

    def test_is_unhashable_by_its_own_name(self):
        # Equal by value, so not hashable: the error names the class, not the array it holds.
        with pytest.raises(TypeError, match=re.escape("unhashable type: 'WeightMatrix'")):
            hash(WeightMatrix([[1.0]], eta=0.5))


def with_entries(matrix, *entries):
    """A copy of `matrix` with each (i, j, value) of `entries` written in."""
    a = np.array(matrix, dtype=float)
    for i, j, value in entries:
        a[i, j] = value
    return a


class TestNetworkBoundary:
    # The first bad entry in row-major order is the one named; a later one is not.
    @pytest.mark.parametrize("build", [validate_weight_matrix, WeightMatrix])
    @pytest.mark.parametrize(
        "entries, named",
        [
            ([(1, 2, math.nan), (3, 3, -0.5)], "entry (1, 2) is nan"),
            ([(2, 1, math.inf)], "entry (2, 1) is inf"),
            ([(0, 0, -math.inf), (0, 1, math.nan)], "entry (0, 0) is -inf"),
            ([(0, 1, -0.1), (2, 2, math.inf)], "entry (0, 1) is -0.1"),
        ],
    )
    def test_a_bad_entry_is_rejected_by_name(self, build, entries, named):
        message = f"matrix: {named}; weights must be finite and non-negative"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(with_entries(LINE_GRAPH_MATRIX, *entries), eta=0.1)

    def test_negative_zero_is_a_zero_weight(self):
        assert validate_weight_matrix(with_entries(LINE_GRAPH_MATRIX, (0, 2, -0.0)), eta=0.1).ok

    def test_entries_are_a_read_only_copy(self):
        source = np.array(LINE_GRAPH_MATRIX)
        network = WeightMatrix(source, eta=0.1)
        with pytest.raises(ValueError, match="read-only"):
            network.entries[0, 0] = 0.5
        source[0, 0] = 0.5
        assert network.entries.tolist() == LINE_GRAPH_MATRIX
        with pytest.raises(dataclasses.FrozenInstanceError):
            network.entries = np.array([[-1.0, 2.0], [2.0, -1.0]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            network.eta = 5.0
        assert network == WeightMatrix(LINE_GRAPH_MATRIX, eta=0.1)


@st.composite
def supports(draw):
    n = draw(st.integers(1, 9))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    return np.array(cells).reshape(n, n) < density


@st.composite
def weight_matrices(draw):
    n = draw(st.integers(1, 9))
    weight = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1.0)
    return np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n))).reshape(n, n)


class TestNetworkInternals:
    @settings(max_examples=300, deadline=None, database=None)
    @given(supports())
    def test_closure_agrees_with_a_search_from_every_agent(self, support):
        assert solvers._strongly_connected(support) == reference_strongly_connected(support)

    @settings(max_examples=200, deadline=None, database=None)
    @given(weight_matrices())
    @example(np.array([[1.0]]))
    def test_mixing_slots_equal_the_entry_loop(self, weights):
        # Slot s from the entry loop's plan: each agent's s-th correction, else
        # the agent's own row at weight -0.0.
        agents, neighbors, ws = reference_mixing_plan(weights)
        n_agents = len(weights)
        mine = [np.flatnonzero(agents == i) for i in range(n_agents)]
        want_neighbors, want_ws = [], []
        for s in range(max(len(m) for m in mine)):
            slot_neighbors = np.arange(n_agents)
            slot_ws = np.full((n_agents, 1), -0.0)
            for i, m in enumerate(mine):
                if s < len(m):
                    slot_neighbors[i] = neighbors[m[s]]
                    slot_ws[i] = ws[m[s]]
            want_neighbors.append(slot_neighbors)
            want_ws.append(slot_ws)
        want = (
            np.array(want_neighbors, dtype=np.intp).reshape(len(want_neighbors), n_agents),
            np.array(want_ws, dtype=float).reshape(len(want_ws), n_agents, 1),
        )
        for g, w in zip(solvers._mixing_plan(weights)[2], want, strict=True):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()


class TestMixingPlan:
    """A network's mixing plan is built once per `WeightMatrix`, and each mixer once per (neighbor lists, r)."""

    def test_two_solves_on_one_network_build_its_plan_once(self, monkeypatch):
        built = []
        mixing_plan = solvers._mixing_plan
        monkeypatch.setattr(solvers, "_mixing_plan", lambda weights: built.append(weights) or mixing_plan(weights))
        matrix = WeightMatrix(LINE_GRAPH_MATRIX, eta=0.1)
        X = ChainProduct([3, 3])
        rng = np.random.default_rng(8)
        fs = [random_submodular_oracle(X, rng) for _ in range(4)]
        for seed in (1, 2):
            distributed_minimize(fs, X, matrix, SolverParams(iterations=5, gamma=0.2, seed=seed))
        assert len(built) == 1
        lists, weights, table = matrix._plan
        assert lists == ((1,), (0, 2), (1, 3), (2,))
        assert weights == (0.3, 0.3, 0.1, 0.1, 0.3, 0.3)
        for kept, fresh in zip(table, solvers._mixing_plan(matrix.entries)[2], strict=True):
            assert not kept.flags.writeable
            assert kept.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0
        state = np.array([uniform_random_profile(X, seed).values for seed in range(4)])
        expected = mix_profiles(state, LINE_GRAPH_MATRIX).tobytes()
        assert solvers._mix(state, *table, np.empty_like(state)).tobytes() == expected
        mixed = solvers._mixer(lists, X.sort_length)(state.tolist(), weights)
        assert np.array(mixed).tobytes() == expected

    def test_central_solves_build_the_lone_agents_plan_at_most_once(self, monkeypatch):
        built = []
        mixing_plan = solvers._mixing_plan
        monkeypatch.setattr(solvers, "_mixing_plan", lambda weights: built.append(weights) or mixing_plan(weights))
        X = ChainProduct([3, 4])
        rng = np.random.default_rng(10)
        for seed in (1, 2):
            f = random_submodular_oracle(X, rng)
            params = SolverParams(iterations=40, gamma=0.3, schedule="diminishing", seed=seed)
            point, value, trace = centralized_minimize(f, X, params)
            ref_point, ref_value, ref_ext, ref_best = reference_centralized_minimize(f, X, params)
            assert (point, as_bytes(value)) == (ref_point, as_bytes(ref_value))
            assert trace.ext_values.tobytes() == ref_ext.tobytes()
            assert trace.best_rounded.tobytes() == ref_best.tobytes()
        assert len(built) <= 1

    def test_each_mixer_is_compiled_once_per_neighbor_lists_and_r(self, monkeypatch):
        compiled = []
        function = solvers._function
        monkeypatch.setattr(solvers, "_function", lambda source, name, filename: compiled.append(filename) or function(source, name, filename))
        solvers._mixer.cache_clear()
        try:
            rng = np.random.default_rng(9)
            # Two line networks of three with other weights share their lists, a star does not.
            line = [[0.6, 0.4, 0.0], [0.4, 0.2, 0.4], [0.0, 0.4, 0.6]]
            star = [[0.5, 0.25, 0.25], [0.25, 0.75, 0.0], [0.25, 0.0, 0.75]]
            for entries, dims in ((line_matrix(3), [3, 3]), (line, [3, 3]), (line, [4, 3]), (star, [3, 3]), (line_matrix(3), [4, 3])):
                X = ChainProduct(dims)
                fs = [random_submodular_oracle(X, rng) for _ in range(3)]
                distributed_minimize(fs, X, WeightMatrix(entries, eta=0.1), SolverParams(iterations=3, gamma=0.2))
        finally:
            solvers._mixer.cache_clear()
        assert compiled == [
            "<solvers mixer ((1,), (0, 2), (1,)) r=4>",
            "<solvers mixer ((1,), (0, 2), (1,)) r=5>",
            "<solvers mixer ((1, 2), (0,), (0,)) r=4>",
        ]


class TestStepSize:
    def test_constant(self):
        params = SolverParams(iterations=10, gamma=0.1)
        assert step_size(7, params) == 0.1

    def test_diminishing(self):
        params = SolverParams(iterations=10, gamma=1.0, schedule="diminishing")
        assert step_size(4, params) == 0.5
        assert step_size(1, params) == 1.0

    def test_round_index_starts_at_one(self):
        params = SolverParams(iterations=10, gamma=0.1)
        with pytest.raises(ValueError):
            step_size(0, params)

    @pytest.mark.parametrize("iterations", [20.9, 20.0, True, "20"])
    def test_iterations_must_be_an_integer(self, iterations):
        with pytest.raises(ValueError, match="^iterations: need an integer"):
            SolverParams(iterations=iterations, gamma=0.1)
        assert SolverParams(iterations=np.int64(20), gamma=0.1).iterations == 20

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed: need a non-negative integer"):
            SolverParams(iterations=5, gamma=0.1, seed=seed)
        assert SolverParams(iterations=5, gamma=0.1, seed=np.int64(7)).seed == 7

    @pytest.mark.parametrize("iterations", [1, 10_000])
    @pytest.mark.parametrize("gamma", [0.2, 1, 7.25, 3e-9])
    @pytest.mark.parametrize("schedule", ["constant", "diminishing"])
    def test_a_solve_steps_by_step_size_bit_for_bit(self, monkeypatch, schedule, gamma, iterations):
        kernel, used = solvers._kernel, []

        def recording(dims):
            project = kernel(dims)

            def stepping(row, g, gamma_k, t_hat):
                used.append(gamma_k)
                return project(row, g, gamma_k, t_hat)

            return stepping

        monkeypatch.setattr(solvers, "_kernel", recording)
        space = ChainProduct([3, 2])
        params = SolverParams(iterations=iterations, gamma=gamma, schedule=schedule)
        centralized_minimize(Oracle(lambda x: x[0] - x[1], space), space, params)
        want = [step_size(k, params) for k in range(1, iterations + 1)]
        assert [(type(g), as_bytes(g)) for g in used] == [(type(g), as_bytes(g)) for g in want]

    def test_param_validation(self):
        with pytest.raises(ValueError, match="iterations"):
            SolverParams(iterations=0, gamma=0.1)
        with pytest.raises(ValueError, match="gamma"):
            SolverParams(iterations=5, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            SolverParams(iterations=5, gamma=math.inf)
        with pytest.raises(ValueError, match="^gamma: "):
            SolverParams(iterations=5, gamma=True)
        with pytest.raises(ValueError, match="t_hat"):
            SolverParams(iterations=5, gamma=0.1, t_hat=1.0)
        with pytest.raises(ValueError, match="schedule"):
            SolverParams(iterations=5, gamma=0.1, schedule="warp")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("gamma", "0.1", "gamma: step size must be positive and finite, got '0.1'"),
            ("gamma", None, "gamma: step size must be positive and finite, got None"),
            ("gamma", [0.1], "gamma: step size must be positive and finite, got [0.1]"),
            ("t_hat", "0.5", "t_hat: rounding threshold must be strictly inside (0,1)"),
            ("t_hat", None, "t_hat: rounding threshold must be strictly inside (0,1)"),
        ],
    )
    def test_a_value_that_is_not_a_number_is_refused_naming_its_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolverParams(**{"iterations": 5, "gamma": 0.1, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("gamma", np.float32(0.3)), ("gamma", np.float64(0.3)), ("gamma", 2), ("t_hat", np.float32(0.55)), ("t_hat", np.float64(0.55))],
    )
    def test_a_numpy_or_int_value_solves_as_its_python_float(self, field, value):
        # A float32 step size or threshold would carry the solve into single precision.
        X = ChainProduct([3, 3, 2])
        rng = np.random.default_rng(6)
        # Costs flat along the last chain, whose one entry then stays just below
        # the float32 threshold, where a float32 comparison would round it up.
        fns = [random_submodular_fn(ChainProduct([3, 3]), rng) for _ in range(2)]
        tables = [{x: float(fn(x[:2])) for x in X.points()} for fn in fns]
        start = uniform_random_profile(X, 1).values
        start[4] = np.nextafter(float(np.float32(0.55)), 0.0)
        fields = {"iterations": 12, "gamma": 0.3, "schedule": "diminishing", "t_hat": 0.7, field: value}
        params = SolverParams(**fields)
        assert type(getattr(params, field)) is float
        want = SolverParams(**{**fields, field: float(value)})
        case = (X, tables, WeightMatrix(line_matrix(2), eta=0.1))
        initial = [Profile(X, start)] * 2
        assert solve_bytes(distributed_minimize, *case, params, initial) == solve_bytes(
            distributed_minimize, *case, want, initial
        )


class TestCentralized:
    def test_recovers_brute_force_value_on_single_chain(self):
        X = ChainProduct([3])
        f = Oracle(lambda x: x[0] + (x[0] - 2) ** 2, X)
        params = SolverParams(iterations=200, gamma=0.1, seed=1)
        point, value, trace = centralized_minimize(f, X, params)
        assert value == 2
        assert point in {(1,), (2,)}

    def test_linear_increasing_cost_returns_bottom(self):
        X = ChainProduct([3, 3])
        f = Oracle(lambda x: 2.0 * x[0] + 1.0 * x[1], X)
        params = SolverParams(iterations=300, gamma=0.1, seed=2)
        point, value, _ = centralized_minimize(f, X, params)
        assert point == (0, 0)
        assert value == 0.0

    def test_constant_cost_flat_trace(self):
        X = ChainProduct([3, 4])
        f = Oracle(lambda x: 5.0, X)
        params = SolverParams(iterations=50, gamma=0.1, seed=3)
        point, value, trace = centralized_minimize(f, X, params)
        assert value == 5.0
        assert np.all(trace.ext_values == 5.0)
        assert np.all(trace.best_rounded == 5.0)


    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_plain_single_agent_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = random_chain_product(rng)
        f = random_submodular_oracle(X, rng) if seed % 2 else random_table_oracle(X, rng)
        schedule = "diminishing" if seed < 3 else "constant"
        params = SolverParams(iterations=80, gamma=0.2, schedule=schedule, seed=seed)
        ref_point, ref_value, ref_ext, ref_best = reference_centralized_minimize(f, X, params)
        # Centralized, and a one-agent consensus solve called directly.
        lone = WeightMatrix([[1.0]], eta=0.5)
        points, values, d_trace = distributed_minimize([f], X, lone, params)
        solves = [centralized_minimize(f, X, params), (points[0], values[0], d_trace)]
        for point, value, trace in solves:
            assert (point, value) == (ref_point, ref_value)
            assert np.array_equal(trace.ext_values, ref_ext)
            assert np.array_equal(trace.best_rounded, ref_best)
            assert np.array_equal(trace.disagreement, np.zeros(params.iterations))

    def test_negative_zero_cost_keeps_its_sign(self):
        X = ChainProduct([3, 3])
        f = Oracle(lambda x: -0.0 if x == (0, 0) else float(x[0] + x[1]), X)
        params = SolverParams(iterations=100, gamma=0.1, seed=2)
        point, value, trace = centralized_minimize(f, X, params)
        assert point == (0, 0)
        assert math.copysign(1.0, value) == -1.0
        assert math.copysign(1.0, trace.best_rounded[-1]) == -1.0


class TestDistributed:
    def test_nan_initial_profile_rejected(self):
        X = ChainProduct([3, 2])
        fs = [Oracle(lambda x: float(x[0]), X) for _ in range(2)]
        matrix = WeightMatrix([[0.5, 0.5], [0.5, 0.5]], eta=0.1)
        params = SolverParams(iterations=5, gamma=0.1, seed=1)
        good = Profile(X, np.array([0.6, 0.2, 0.4]))
        bad = Profile(X, np.array([0.6, 0.2, np.nan]))
        with pytest.raises(ValueError, match="chain 1 leaves"):
            distributed_minimize(fs, X, matrix, params, initial=[good, bad])

    # A line of 2 at r 4 mixes in generated code, a complete network of 5 at r 10 in numpy.
    @pytest.mark.parametrize("n, dims", [(2, [3, 3]), (5, [3] * 5)])
    def test_a_boolean_initial_profile_solves_as_its_floats(self, n, dims):
        X = ChainProduct(dims)
        start = np.array([True, False] * X.n_chains)
        fns = [random_submodular_fn(X, np.random.default_rng(i)) for i in range(n)]
        tables = [{x: float(fn(x)) for x in X.points()} for fn in fns]
        matrix = WeightMatrix(np.full((n, n), 1.0 / n), eta=0.1)
        params = SolverParams(iterations=10, gamma=0.2)
        solves = [solve_bytes(distributed_minimize, X, tables, matrix, params, [Profile(X, v)] * n)
                  for v in (start, start.astype(float))]
        assert solves[0] == solves[1]

    def test_initial_profile_of_another_lattice_rejected(self):
        X = ChainProduct([3, 2])
        fs = [Oracle(lambda x: float(x[0]), X) for _ in range(2)]
        matrix = WeightMatrix([[0.5, 0.5], [0.5, 0.5]], eta=0.1)
        params = SolverParams(iterations=5, gamma=0.1, seed=1)
        good = Profile(X, np.array([0.6, 0.2, 0.4]))
        other = Profile(ChainProduct([2, 3]), np.array([0.6, 0.4, 0.2]))
        with pytest.raises(ValueError, match=r"on dims \(2, 3\) does not match dims \(3, 2\)"):
            distributed_minimize(fs, X, matrix, params, initial=[good, other])

    def test_total_cost_adds_agents_left_to_right_from_zero(self):
        # Python 3.12's compensated sum() gives 0.2 for these costs; 3.10 and 3.11 give 0.1.
        X = ChainProduct([2])
        fs = [Oracle(lambda x, c=c: c, X) for c in (0.1, 1e16, -1e16, 0.1)]
        matrix = WeightMatrix(line_matrix(4), eta=0.1)
        _, values, trace = distributed_minimize(fs, X, matrix, SolverParams(iterations=2, gamma=0.1))
        assert values == [0.1] * 4
        assert trace.best_rounded.tolist() == [0.1, 0.1]

    def test_two_agent_chain_example(self):
        X = ChainProduct([3])
        f0 = Oracle(lambda x: float(x[0]), X)
        f1 = Oracle(lambda x: float((x[0] - 2) ** 2), X)
        matrix = WeightMatrix([[0.7, 0.3], [0.3, 0.7]], eta=0.1)
        params = SolverParams(
            iterations=500, gamma=0.2, schedule="diminishing", t_hat=0.7, seed=5
        )
        points, values, trace = distributed_minimize([f0, f1], X, matrix, params)
        assert values == [2.0, 2.0]
        assert all(p in {(1,), (2,)} for p in points)
        assert trace.disagreement[-1] < trace.disagreement[0]

    def test_identical_costs_stay_in_lockstep(self):
        X = ChainProduct([3, 3])
        fs = [Oracle(lambda x: (x[0] - 1) ** 2 + x[1], X) for _ in range(3)]
        matrix = WeightMatrix(line_matrix(3), eta=0.1)
        params = SolverParams(iterations=60, gamma=0.1, seed=6)
        points, values, trace = distributed_minimize(fs, X, matrix, params)
        assert np.all(trace.disagreement == 0.0)
        assert len(set(points)) == 1

    def test_each_point_evaluated_at_most_once_per_solve(self):
        X = ChainProduct([3, 4, 2])
        rng = np.random.default_rng(21)
        fs = [random_submodular_oracle(X, rng) for _ in range(3)]
        matrix = WeightMatrix(line_matrix(3), eta=0.1)
        params = SolverParams(iterations=200, gamma=0.2, schedule="diminishing", seed=3)
        first = distributed_minimize(fs, X, matrix, params)
        calls = [f.calls for f in fs]
        assert all(0 < c <= X.cardinality for c in calls)
        # Nothing is remembered between solves: the same solve pays again.
        for f in fs:
            f.calls = 0
        second = distributed_minimize(fs, X, matrix, params)
        assert [f.calls for f in fs] == calls
        assert first[:2] == second[:2]

    def test_centralized_evaluates_each_point_at_most_once_per_solve(self):
        X = ChainProduct([3, 4, 2])
        f = random_submodular_oracle(X, np.random.default_rng(22))
        params = SolverParams(iterations=200, gamma=0.2, schedule="diminishing", seed=4)
        first = centralized_minimize(f, X, params)
        calls = f.calls
        assert 0 < calls <= X.cardinality
        f.calls = 0
        second = centralized_minimize(f, X, params)
        assert f.calls == calls
        assert first[:2] == second[:2]

    @pytest.mark.parametrize("dims", [[2, 2], [3, 3], [4, 4]])
    def test_an_overflowing_step_is_rejected(self, dims):
        # Neighboring points differ by 2e308, so every subgradient entry
        # overflows; dims with 1, 2 and 3 coordinates per chain reach each
        # branch of the projection.
        X = ChainProduct(dims)
        f = Oracle(lambda x: 1e308 if sum(x) % 2 else -1e308, X)
        params = SolverParams(iterations=5, gamma=0.1, seed=1)
        with pytest.raises(ValueError, match="non-finite"):
            centralized_minimize(f, X, params)
        with pytest.raises(ValueError, match="non-finite"):
            distributed_minimize([f, f], X, WeightMatrix(line_matrix(2), eta=0.1), params)

    def test_matrix_agent_count_mismatch_rejected(self):
        X = ChainProduct([3])
        fs = [Oracle(lambda x: float(x[0]), X) for _ in range(3)]
        matrix = WeightMatrix([[0.7, 0.3], [0.3, 0.7]], eta=0.1)
        params = SolverParams(iterations=5, gamma=0.1)
        with pytest.raises(ValueError, match="does not match"):
            distributed_minimize(fs, X, matrix, params)

    def test_mixing_preserves_chain_sums(self):
        X = ChainProduct([4, 3, 5])
        a = np.asarray(LINE_GRAPH_MATRIX)
        profiles = [uniform_random_profile(X, seed) for seed in range(4)]
        state = np.array([p.values for p in profiles])
        mixed = [Profile(X, mix_profiles(state, a)[i]) for i in range(4)]
        for c in range(X.n_chains):
            before = sum(profile_chain(p, c) for p in profiles)
            after = sum(profile_chain(m, c) for m in mixed)
            assert np.max(np.abs(before - after)) <= 1e-12

    def test_mixing_feasible_profiles_stays_feasible(self):
        X = ChainProduct([3, 6])
        a = np.asarray(LINE_GRAPH_MATRIX)
        state = np.array([uniform_random_profile(X, seed).values for seed in range(4)])
        for i in range(4):
            Profile(X, mix_profiles(state, a)[i]).validate(X)

    def test_consensus_contraction_over_seeds(self):
        # With distinct starts, diminishing steps shrink the disagreement.
        contracted = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            X = random_chain_product(rng, max_chains=3, max_size=4)
            fs = [random_submodular_oracle(X, rng) for _ in range(3)]
            starts = [uniform_random_profile(X, 50 * seed + i) for i in range(3)]
            matrix = WeightMatrix(line_matrix(3), eta=0.1)
            params = SolverParams(
                iterations=300, gamma=0.2, schedule="diminishing", seed=seed
            )
            _, _, trace = distributed_minimize(fs, X, matrix, params, initial=starts)
            if trace.disagreement[-1] < trace.disagreement[0]:
                contracted += 1
        assert contracted == 20

    def test_desk_scale_exactness_sample(self):
        # Small slice of the acceptance population: exact or within 5%.
        rng = np.random.default_rng(200)
        exact = 0
        for trial in range(10):
            X = random_chain_product(rng, max_chains=4, max_size=5)
            n_agents = int(rng.integers(2, 5))
            fs = [random_submodular_oracle(X, rng) for _ in range(n_agents)]
            total = Oracle(lambda x: left_sum(f(x) for f in fs), X)
            best, _ = brute_force_minimize(total)
            matrix = WeightMatrix(line_matrix(n_agents), eta=0.1)
            params = SolverParams(
                iterations=2000, gamma=0.2, schedule="diminishing", t_hat=0.7, seed=trial
            )
            _, values, _ = distributed_minimize(fs, X, matrix, params)
            rel = max(abs(v - best) / max(abs(best), 1e-12) for v in values)
            assert rel <= 0.05
            if all(v == best for v in values):
                exact += 1
        assert exact >= 9

    def test_shared_threshold_agreement_on_unique_minimizer(self):
        rng = np.random.default_rng(300)
        seen = 0
        trial = 0
        while seen < 5 and trial < 40:
            trial += 1
            X = random_chain_product(rng, max_chains=3, max_size=4)
            fs = [random_submodular_oracle(X, rng) for _ in range(2)]
            total = Oracle(lambda x: fs[0](x) + fs[1](x), X)
            best, argmins = brute_force_minimize(total)
            if len(argmins) != 1:
                continue
            seen += 1
            matrix = WeightMatrix(line_matrix(2), eta=0.1)
            params = SolverParams(
                iterations=2000, gamma=0.2, schedule="diminishing", t_hat=0.7, seed=trial
            )
            points, values, _ = distributed_minimize(fs, X, matrix, params)
            if all(v == best for v in values):
                assert points[0] == points[1]
        assert seen == 5


TINY = SolverParams(iterations=3, gamma=0.1, seed=1)
HALVES = WeightMatrix([[0.5, 0.5], [0.5, 0.5]], eta=0.1)

# Each solve and sweep entry point, given two oracles and a space.
ENTRY_POINTS = {
    "distributed_minimize": lambda fs, space: distributed_minimize(fs, space, HALVES, TINY),
    "centralized_minimize": lambda fs, space: centralized_minimize(fs[0], space, TINY),
    "check_submodular": lambda fs, space: check_submodular(fs[0], space),
    "brute_force_minimize": lambda fs, space: brute_force_minimize(fs[0], space),
    "greedy_extension": lambda fs, space: greedy_extension(fs[0], Profile.from_point(space, space.bottom()), space),
}


class TestOracleSpace:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("oracle_dims, space_dims", [([3], [2, 2]), ([2, 2], [3, 3]), ([3], [3, 3])])
    def test_space_of_another_lattice_rejected(self, entry, oracle_dims, space_dims):
        X = ChainProduct(oracle_dims)
        fs = [Oracle(lambda x: float(math.prod(x)), X) for _ in range(2)]
        Y = ChainProduct(space_dims)
        message = rf"dims {re.escape(str(Y.dims))} is not the oracle's lattice, dims {re.escape(str(X.dims))}"
        with pytest.raises(ValueError, match=message):
            ENTRY_POINTS[entry](fs, Y)
        assert all(f.calls == 0 for f in fs)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_equal_space_built_apart_accepted(self, entry):
        fs = [Oracle(lambda x: float(sum(x)), ChainProduct([2, 3])) for _ in range(2)]
        ENTRY_POINTS[entry](fs, ChainProduct([2, 3]))


def recording_oracle(fn, space: ChainProduct):
    """An oracle on fn, and the list of every point fn was asked for."""
    asked = []

    def logged(x):
        asked.append(x)
        return fn(x)

    return Oracle(logged, space), asked


class TestSolveMemo:
    """A solve keeps one dict of values per agent; the walks and the rounded
    points' total costs read it, and only a missing point reaches the oracle."""

    def test_each_distinct_point_is_evaluated_once_in_the_per_agent_loops_order(self):
        # Agents that disagree round to several points, some not yet walked:
        # each is priced once, in the order the agents reach it.
        X = ChainProduct([4, 3, 3])
        rng = np.random.default_rng(1)
        fns = [random_submodular_fn(X, rng) for _ in range(4)]
        matrix = WeightMatrix(line_matrix(4), eta=0.1)
        params = SolverParams(iterations=30, gamma=0.55, seed=1)
        asked = []
        for solver in (distributed_minimize, reference_distributed_minimize):
            logged = [recording_oracle(fn, X) for fn in fns]
            trace = solver([f for f, _ in logged], X, matrix, params)[2]
            trace.best_rounded
            asked.append([points for _, points in logged])
        assert asked[0] == asked[1]
        for points in asked[0]:
            assert len(points) == len(set(points)) > X.sort_length + 1

    def test_an_unread_trace_asks_for_no_point_after_the_final_ones(self):
        # The rounds ask only for walk points, the solve then for its final points;
        # the points rounded to in earlier rounds alone are asked for when the trace is read.
        X = ChainProduct([4, 3, 3])
        rng = np.random.default_rng(1)
        fns = [random_submodular_fn(X, rng) for _ in range(4)]
        matrix = WeightMatrix(line_matrix(4), eta=0.1)
        params = SolverParams(iterations=30, gamma=0.55, seed=1)
        unread = [recording_oracle(fn, X) for fn in fns]
        points = distributed_minimize([f for f, _ in unread], X, matrix, params)[0]
        assert len(set(points)) > 1
        read = [recording_oracle(fn, X) for fn in fns]
        distributed_minimize([f for f, _ in read], X, matrix, params)[2].best_rounded
        for (f, cut), (g, asked) in zip(unread, read):
            assert cut == asked[: len(cut)] and set(points) <= set(cut)
            assert f.calls == len(cut) < len(asked) == g.calls

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_cost_only_rounded_to_raises_when_the_trace_is_read(self, bad):
        # Agent 1 rounds to (0, 1) in an earlier round; agent 0 never walks it, and no agent returns it.
        X = ChainProduct([3, 3])
        rng = np.random.default_rng(0)
        fns = [random_submodular_fn(X, rng) for _ in range(2)]
        f = Oracle(lambda x: bad if x == (0, 1) else fns[0](x), X)
        params = SolverParams(iterations=8, gamma=0.4, seed=0)
        points, _, trace = distributed_minimize([f, Oracle(fns[1], X)], X, WeightMatrix(line_matrix(2), eta=0.1), params)
        assert (0, 1) not in points
        assert trace.ext_values.shape == (8, 2) and trace.disagreement.shape == (8,)
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"cost at \(0, 1\) is not finite: {bad}"):
                trace.best_rounded

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cost_raises_naming_the_point(self, bad):
        X = ChainProduct([2, 3])
        f = Oracle(lambda x: bad if x == (1, 2) else float(x[0]), X)
        params = SolverParams(iterations=5, gamma=0.1, seed=1)
        with pytest.raises(ValueError, match=rf"cost at \(1, 2\) is not finite: {bad}"):
            centralized_minimize(f, X, params)
        with pytest.raises(ValueError, match=r"cost at \(1, 2\) is not finite"):
            distributed_minimize([f, f], X, WeightMatrix(line_matrix(2), eta=0.1), params)

    def test_lockstep_agents_price_each_rounded_point_once(self):
        X = ChainProduct([3, 3, 2])
        fn = random_submodular_fn(X, np.random.default_rng(24))
        logged = [recording_oracle(fn, X) for _ in range(3)]
        matrix = WeightMatrix(star_matrix(3), eta=0.1)
        params = SolverParams(iterations=40, gamma=0.15, seed=9)
        points, _, trace = distributed_minimize([f for f, _ in logged], X, matrix, params)
        assert np.all(trace.disagreement == 0.0) and len(set(points)) == 1
        # Agreeing agents round to one point per round; no agent's oracle sees a point twice.
        for f, asked in logged:
            assert asked == logged[0][1]
            assert len(asked) == len(set(asked)) == f.calls
        table = {x: float(fn(x)) for x in X.points()}
        case = (X, [table] * 3, matrix, params, None)
        assert solve_bytes(distributed_minimize, *case) == solve_bytes(reference_distributed_minimize, *case)


class TestKernelPerShape:
    def test_solves_on_equal_dims_share_one_kernel(self, monkeypatch, fresh_kernels):
        compiled = []
        compile_kernel = projection._compile
        monkeypatch.setattr(projection, "_compile", lambda space: compiled.append(space.dims) or compile_kernel(space))
        rng = np.random.default_rng(6)
        for dims in ([3, 4, 2], [3, 4, 2], [4, 3, 2]):
            X = ChainProduct(dims)
            fs = [random_submodular_oracle(X, rng) for _ in range(2)]
            distributed_minimize(fs, X, WeightMatrix(line_matrix(2), eta=0.1), TINY)
        assert compiled == [(3, 4, 2), (4, 3, 2)]

    def test_chains_of_six_and_seven_elements_go_through_the_stack_loop(self, monkeypatch, fresh_kernels):
        # Every other solver test draws chains of at most 5 elements, written out
        # in the kernel; these pool in `projection._pool`.
        pooled = []
        pool = projection._pool

        def recorded_pool(values, t):
            pooled.append(values)
            return pool(values, t)

        monkeypatch.setattr(projection, "_pool", recorded_pool)
        X = ChainProduct([6, 7, 3])
        rng = np.random.default_rng(41)
        fns = [random_submodular_fn(X, rng) for _ in range(3)]
        tables = [{x: float(fn(x)) for x in X.points()} for fn in fns]
        matrix = WeightMatrix(line_matrix(3), eta=0.1)
        params = SolverParams(iterations=80, gamma=0.6, schedule="diminishing", t_hat=0.6, seed=4)
        case = (X, tables, matrix, params, None)
        assert solve_bytes(distributed_minimize, *case) == solve_bytes(reference_distributed_minimize, *case)
        assert {len(values) for values in pooled} == {5, 6}
        # Some stepped chain rose, so the stack pooled it.
        assert any(a < b for values in pooled for a, b in zip(values, values[1:]))


@st.composite
def long_budget_cases(draw):
    """A consensus solve of 1-4 agents on a line, on at most 4 chains of 2-4
    elements, with random submodular costs and 100-300 diminishing rounds:
    late rounds take small steps, so agents walk orders they walked before."""
    space = ChainProduct(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fns = [random_submodular_fn(space, rng) for _ in range(n)]
    tables = [{x: float(fn(x)) for x in space.points()} for fn in fns]
    params = SolverParams(
        iterations=draw(st.integers(100, 300)),
        gamma=draw(st.floats(0.05, 0.5)),
        schedule="diminishing",
        t_hat=draw(st.floats(0.05, 0.95)),
        seed=draw(st.integers(0, 1000)),
    )
    return space, tables, WeightMatrix(line_matrix(n), eta=0.1), params


class TestWalkCache:
    """An agent that meets a sort order again reuses that order's f-steps and
    subgradient: same bytes, same oracle requests, fewer walks."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(long_budget_cases())
    def test_long_budgets_match_the_per_agent_loop(self, case):
        space, tables, matrix, params = case
        got = []
        for solver in (distributed_minimize, reference_distributed_minimize):
            logged = [recording_oracle(table.__getitem__, space) for table in tables]
            costs = [f for f, _ in logged]
            got.append((solve_bytes(solver, space, costs, matrix, params), [asked for _, asked in logged]))
        assert got[0] == got[1]

    def test_a_repeated_order_is_not_walked_again(self, monkeypatch):
        walks = []

        def counted_walk(*args):
            walks.append(args[3])
            return walk(*args)

        walk = solvers._walk
        monkeypatch.setattr(solvers, "_walk", counted_walk)
        X = ChainProduct([3, 4, 2])
        rng = np.random.default_rng(5)
        fs = [random_submodular_oracle(X, rng) for _ in range(3)]
        params = SolverParams(iterations=200, gamma=0.2, schedule="diminishing", seed=3)
        distributed_minimize(fs, X, WeightMatrix(line_matrix(3), eta=0.1), params)
        assert 0 < len(walks) < 3 * params.iterations // 10


class FloatSub(float):
    """A float subclass, which a cost may return."""


def overflowing(value):
    raise OverflowError("math range error")


def missing(value):
    raise KeyError("no cost here")


# What a cost gives at one point, from its true value there: (the cost, whether the
# walk asks for that point again through the `Oracle`, so that the cost sees it twice).
MISSES = {
    "int": (lambda v: 3, False),
    "huge int": (lambda v: 10**400, True),
    "np.float64": (np.float64, False),
    "float subclass": (FloatSub, False),
    "inf": (lambda v: math.inf, True),
    "-inf": (lambda v: -math.inf, True),
    "nan": (lambda v: math.nan, True),
    "OverflowError": (overflowing, True),
    "KeyError": (missing, False),
}


def cost_with_miss(fn, k, miss):
    """fn, but `miss(fn(x))` at the k-th distinct point asked for (0 is the first);
    and the list of every point asked for."""
    asked, seen = [], {}

    def cost(x):
        asked.append(x)
        value = fn(x)
        return miss(value) if seen.setdefault(x, len(seen)) == k else value

    return cost, asked


def outcome(call):
    """What `call()` returned, or the type, message and cause type of what it raised."""
    try:
        return "returned", call()
    except Exception as exc:
        return "raised", type(exc), str(exc), type(exc.__cause__)


class TestWalkMiss:
    """A walk takes a missing point's value straight from the cost function, and
    asks again through the `Oracle` when it overflows or is not finite: every
    result, error, message and `calls` is what asking through the `Oracle` gives,
    and so is every request, except that on an error path the failing point
    reaches the cost a second time."""

    @staticmethod
    def check(got, want, kind, k):
        (got_result, got_calls, got_asked), (want_result, want_calls, want_asked) = got, want
        assert got_result == want_result
        assert got_calls == want_calls
        twice = MISSES[kind][1] and k > 0  # the bottom is asked for through the `Oracle`
        assert got_asked == want_asked + want_asked[-1:] * twice
        assert len(set(want_asked)) > k

    @pytest.mark.parametrize("k", [0, 1, 5])
    @pytest.mark.parametrize("kind", MISSES)
    def test_an_extension_miss_keeps_the_oracle_contract(self, kind, k):
        X = ChainProduct([3, 4, 2])
        fn = random_submodular_fn(X, np.random.default_rng(3))
        rho = uniform_random_profile(X, 5)
        runs = []
        for extension in (greedy_extension, reference_steps_extension):
            cost, asked = cost_with_miss(fn, k, MISSES[kind][0])
            f = Oracle(cost, X)

            def walk():
                res = extension(f, rho, X)
                return as_bytes(res.value), res.subgradient.tobytes()

            runs.append((outcome(walk), f.calls, asked))
        self.check(*runs, kind, k)

    @pytest.mark.parametrize("k", [0, 3, 14])
    @pytest.mark.parametrize("kind", MISSES)
    def test_a_solve_miss_keeps_the_oracle_contract(self, kind, k):
        # The reference asks for every point through two `Oracle` layers.
        X = ChainProduct([4, 3, 3])
        rng = np.random.default_rng(2)
        fns = [random_submodular_fn(X, rng) for _ in range(2)]
        matrix = WeightMatrix(line_matrix(2), eta=0.1)
        params = SolverParams(iterations=10, gamma=0.4, seed=2)
        runs = []
        for solver in (distributed_minimize, reference_distributed_minimize):
            cost, asked = cost_with_miss(fns[0], k, MISSES[kind][0])
            fs = [Oracle(cost, X), Oracle(fns[1], X)]

            def solve():
                points, values, trace = solver(fs, X, matrix, params)
                return repr(points), [as_bytes(v) for v in values], trace.ext_values.tobytes(), trace.best_rounded.tobytes()

            runs.append((outcome(solve), [f.calls for f in fs], asked))
        self.check(*runs, kind, k)


def star_matrix(n):
    """Hub 0 linked to every other agent, all positive weights 1/n."""
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = 1.0 / n
    a[np.diag_indices(n)] = 1.0 - a.sum(axis=1)
    return a


GRAPHS = {
    "line": line_matrix,
    "complete": lambda n: np.full((n, n), 1.0 / n),
    "star": star_matrix,
}

# Entries that test the sign of zero, the ends of [0,1], an underflowing
# correction (a negative subnormal) and both ends of the tolerance.
SPECIAL_ENTRIES = [-0.0, 0.0, 1.0, -5e-324, -1e-13, 1.0 + 5e-13]


@st.composite
def profile_entries(draw, m):
    """One chain's m - 1 entries: non-increasing up to at most one rise within tolerance."""
    entry = st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(0.0, 1.0))
    values = sorted(draw(st.lists(entry, min_size=m - 1, max_size=m - 1)), reverse=True)
    if m > 2 and draw(st.booleans()):
        k = draw(st.integers(1, m - 2))
        values[k] = max(values[k], min(values[k - 1] + 5e-13, 1.0))
    return values


@st.composite
def consensus_cases(draw):
    """A consensus solve: 1-5 agents on a line, complete or star graph, costs
    with or without ties, and a shared seeded start or drawn starts."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    space = ChainProduct(dims)
    n = draw(st.integers(1, 5))
    graph = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))] if n > 1 else lambda _: [[1.0]]
    matrix = WeightMatrix(graph(n), eta=0.05)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "uniform", "submodular"]))
    tables = []
    for _ in range(n):
        if kind == "ties":
            values = [
                float(v) or (-0.0 if rng.random() < 0.5 else 0.0)
                for v in rng.integers(-2, 3, space.cardinality)
            ]
        elif kind == "uniform":
            values = rng.uniform(-5.0, 5.0, space.cardinality).tolist()
        else:
            fn = random_submodular_fn(space, rng)
            values = [float(fn(x)) for x in space.points()]
        tables.append(dict(zip(space.points(), values)))
    params = SolverParams(
        iterations=draw(st.integers(1, 25)),
        gamma=draw(st.floats(0.01, 0.5)),
        schedule=draw(st.sampled_from(["constant", "diminishing"])),
        t_hat=draw(st.floats(0.05, 0.95)),
        seed=draw(st.integers(0, 1000)),
    )
    initial = None
    if draw(st.booleans()):
        initial = [
            Profile(space, np.array([v for m in dims for v in draw(profile_entries(m))]))
            for _ in range(n)
        ]
    return space, tables, matrix, params, initial


class TestWholeStateRounds:
    @settings(max_examples=200, deadline=None, database=None)
    @given(consensus_cases())
    def test_rounds_match_the_per_agent_loop_byte_for_byte(self, case):
        expected = solve_bytes(reference_distributed_minimize, *case)
        assert solve_bytes(distributed_minimize, *case) == expected

    # Hub 0 holds negative subnormals where leaves hold -0.0: a leaf's
    # correction 0.2 * -5e-324 underflows to -0.0, so its -0.0 survives.
    STAR_STATE = np.array([
        [0.5, -5e-324, 1.0, -5e-324],
        [0.5, -0.0, 1.0, -0.0],
        [-0.0, -0.0, 0.25, -0.0],
        [0.9, 0.3, -0.0, -0.0],
        [1.0, 1.0, 0.6, 0.2],
    ])

    @staticmethod
    def assert_mixing_matches_per_row(mix, state, weights):
        mixed = mix(state, weights)
        assert mixed.shape == state.shape
        for i, row in enumerate(mixed):
            assert row.tobytes() == reference_mix_row(state, weights[i], i).tobytes(), i

    def test_mixing_matches_per_row_form_with_negative_zeros_on_a_star(self):
        weights = star_matrix(5)
        mixed = mix_profiles(self.STAR_STATE, weights)
        assert math.copysign(1.0, mixed[1, 1]) == -1.0
        self.assert_mixing_matches_per_row(mix_profiles, self.STAR_STATE, weights)

    @settings(max_examples=300, deadline=None, database=None)
    @given(weight_matrices(), st.data())
    def test_mixing_matches_per_row_form_on_random_weights(self, weights, data):
        # Every agent with fewer neighbors than the most connected one pads its slots.
        n = len(weights)
        r = data.draw(st.integers(1, 5))
        entry = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.3, 1.0])
        state = np.array(data.draw(st.lists(entry, min_size=n * r, max_size=n * r))).reshape(n, r)
        self.assert_mixing_matches_per_row(mix_profiles, state, weights)

    def test_mixing_takes_nested_lists(self):
        weights = star_matrix(5)
        expected = mix_profiles(self.STAR_STATE, weights)
        for state, ws in ((self.STAR_STATE.tolist(), weights), (self.STAR_STATE, weights.tolist())):
            assert mix_profiles(state, ws).tobytes() == expected.tobytes()
        assert mix_profiles(np.eye(2), [[0.5, 0.5], [0.5, 0.5]]).tolist() == [[0.5, 0.5], [0.5, 0.5]]

    @pytest.mark.parametrize("weights", [[[1.0]], np.eye(3), np.full((2, 3), 1 / 3)], ids=["1x1", "3x3", "2x3"])
    def test_weights_of_another_shape_than_the_rows_are_refused(self, weights):
        message = f"weights: need shape (2, 2) for 2 rows, got {np.shape(weights)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mix_profiles(np.eye(2), weights)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=str)
    def test_a_non_finite_entry_is_refused_before_mixing(self, bad):
        # Agent 0 has no neighbor, so it pads its correction slot with its own row at
        # weight -0.0, and -0.0 * (inf - inf) would be NaN where one neighbor at a time keeps inf.
        weights = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
        message = f"state: entry (0, 1) is {bad}; rows must be finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mix_profiles([[0.5, bad], [0.0, 0.0], [1.0, 1.0]], weights)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    def test_a_non_finite_weight_is_refused_before_mixing(self, bad):
        # Mixed, a NaN weight gives a NaN row and an inf weight a -inf row.
        message = f"weights: entry (0, 1) is {bad}; weights must be finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mix_profiles([[0.5, 0.2], [0.3, 0.1]], [[0.5, bad], [0.5, 0.5]])

    @pytest.mark.parametrize("state", [0.5, [0.5, 0.2], np.zeros((2, 2, 1))], ids=["scalar", "1-D", "3-D"])
    def test_a_state_that_is_not_rows_is_refused(self, state):
        message = f"state: need a 2-D array, one row per agent, got shape {np.shape(state)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mix_profiles(state, np.full((2, 2), 0.5))

    def test_zero_padded_mixing_fails_the_byte_comparison(self):
        def zero_padded(state, weights):
            # Every row takes a term from every other agent, zero weight or not.
            mixed = state.copy()
            for i in range(len(state)):
                for j in range(len(state)):
                    if j != i:
                        mixed[i] += weights[i, j] * (state[j] - state[i])
            return mixed

        with pytest.raises(AssertionError):
            self.assert_mixing_matches_per_row(zero_padded, self.STAR_STATE, star_matrix(5))


class TestGeneratedMixer:
    """A small round mixes in generated code on lists, with `mix_profiles`'s bytes."""

    @staticmethod
    def generated(state, weights):
        lists, ws, _ = solvers._mixing_plan(np.asarray(weights, dtype=float))
        return np.array(solvers._mixer(lists, state.shape[1])(state.tolist(), ws))

    @settings(max_examples=300, deadline=None, database=None)
    @given(weight_matrices(), st.data())
    def test_rows_equal_mix_profiles_byte_for_byte(self, weights, data):
        # Zeros and -0.0 among the weights, in one direction of an edge or both, and in the rows.
        n, r = len(weights), data.draw(st.integers(1, 5))
        entry = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.3, 1.0]) | st.floats(0.0, 1.0)
        state = np.array(data.draw(st.lists(entry, min_size=n * r, max_size=n * r))).reshape(n, r)
        assert self.generated(state, weights).tobytes() == mix_profiles(state, weights).tobytes()

    def test_rows_equal_mix_profiles_on_the_star_with_negative_zeros(self):
        state, weights = TestWholeStateRounds.STAR_STATE, star_matrix(5)
        assert self.generated(state, weights).tobytes() == mix_profiles(state, weights).tobytes()

    def test_a_lone_agents_row_is_returned_unchanged(self):
        row = [0.5, -0.0, 0.25]
        (mixed,) = solvers._mixer(((),), 3)([row], [])
        assert mixed is row and mixed == [0.5, -0.0, 0.25]

    # A line of 3 at r 6 mixes 24 corrections in generated code; a complete
    # network of 5 at r 8, 160, is past the crossover and mixes in numpy.
    @pytest.mark.parametrize("graph, n, dims, generated", [
        ("line", 3, [3, 3, 3, 2], True),
        ("complete", 5, [4, 4, 3], False),
    ])
    def test_a_solve_on_each_side_of_the_crossover_matches_the_per_agent_loop(self, monkeypatch, graph, n, dims, generated):
        space = ChainProduct(dims)
        matrix = WeightMatrix(GRAPHS[graph](n), eta=0.05)
        assert (space.sort_length * len(matrix._plan[1]) <= solvers._MIXER_CORRECTIONS) == generated
        rng = np.random.default_rng(n)
        fns = [random_submodular_fn(space, rng) for _ in range(n)]
        tables = [{x: float(fn(x)) for x in space.points()} for fn in fns]
        params = SolverParams(iterations=150, gamma=0.2, schedule="diminishing", seed=4)
        expected = solve_bytes(reference_distributed_minimize, space, tables, matrix, params)
        mixed = []
        mix = solvers._mix
        monkeypatch.setattr(solvers, "_mix", lambda *args: mixed.append(1) or mix(*args))
        assert solve_bytes(distributed_minimize, space, tables, matrix, params) == expected
        assert len(mixed) == (0 if generated else params.iterations)

    # A line of 3 at r 9 writes 27 floats a round: blocks of 1, 3 and 4 rounds, and the default.
    @pytest.mark.parametrize("cap", [4 * 27, 4 * 81, 4 * 108 + 3, None])
    def test_rows_reach_the_buffers_over_ragged_blocks(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(solvers, "_BATCH_FLOATS", cap)
        space = ChainProduct([5, 3, 4])
        rng = np.random.default_rng(3)
        fns = [random_submodular_fn(space, rng) for _ in range(3)]
        tables = [{x: float(fn(x)) for x in space.points()} for fn in fns]
        # 37 rounds: a multiple of none of the block lengths 3 < 4 < 37.
        case = (space, tables, WeightMatrix(line_matrix(3), eta=0.1), SolverParams(iterations=37, gamma=0.4, seed=7))
        assert solve_bytes(distributed_minimize, *case) == solve_bytes(reference_distributed_minimize, *case)

    def test_sharing_an_edges_difference_between_its_agents_is_not_exact(self):
        # Each agent takes its own x_j - x_i.  Agent 1 reusing agent 0's x_1 - x_0 as
        # x_1 - w * (x_1 - x_0) turns the 0.0 that -0.0 + w * (-0.0 - -0.0) gives into -0.0.
        state, weights = np.array([[-0.0], [-0.0]]), np.full((2, 2), 0.5)
        d = state[1, 0] - state[0, 0]
        shared = [state[0, 0] + 0.5 * d, state[1, 0] - 0.5 * d]
        mixed = mix_profiles(state, weights)
        assert math.copysign(1.0, mixed[1, 0]) == 1.0 and math.copysign(1.0, shared[1]) == -1.0
        assert self.generated(state, weights).tobytes() == mixed.tobytes()


class TestBatchedDisagreement:
    """The disagreement trace, computed in batches when the trace is read,
    has the bytes of the per-round largest pairwise norm."""

    @staticmethod
    def disagreement_bytes(solver, space, tables, matrix, params):
        fs = [Oracle(table.__getitem__, space) for table in tables]
        return solver(fs, space, matrix, params)[2].disagreement.tobytes()

    @staticmethod
    def tables(space, n, seed):
        rng = np.random.default_rng(seed)
        fns = [random_submodular_fn(space, rng) for _ in range(n)]
        return [{x: float(fn(x)) for x in space.points()} for fn in fns]

    def test_one_agent_keeps_zeros(self):
        X = ChainProduct([4, 3, 5])
        case = (X, self.tables(X, 1, 3), WeightMatrix([[1.0]], eta=0.5), SolverParams(iterations=12, gamma=0.2, seed=2))
        got = self.disagreement_bytes(distributed_minimize, *case)
        assert got == self.disagreement_bytes(reference_distributed_minimize, *case)
        assert got == np.zeros(12).tobytes()

    def test_a_single_round(self):
        X = ChainProduct([3, 4])
        case = (X, self.tables(X, 3, 4), WeightMatrix(line_matrix(3), eta=0.1), SolverParams(iterations=1, gamma=0.3, seed=5))
        got = self.disagreement_bytes(distributed_minimize, *case)
        assert got == self.disagreement_bytes(reference_distributed_minimize, *case)
        assert np.frombuffer(got)[0] > 0.0

    # 10 pairs of 5 agents times r = 9 differences per round: caps of one
    # round's, three rounds' and just under five rounds' worth, and the default.
    @pytest.mark.parametrize("cap", [90, 270, 449, None])
    def test_five_agents_over_ragged_batches(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(solvers, "_BATCH_FLOATS", cap)
        X = ChainProduct([5, 3, 4])
        assert X.sort_length == 9
        matrix = WeightMatrix(np.full((5, 5), 0.2), eta=0.1)
        # 37 rounds: a multiple of none of the batch lengths 1 < 3 < 4 < 37.
        case = (X, self.tables(X, 5, 6), matrix, SolverParams(iterations=37, gamma=0.4, seed=7))
        got = self.disagreement_bytes(distributed_minimize, *case)
        assert got == self.disagreement_bytes(reference_distributed_minimize, *case)
        assert np.count_nonzero(np.frombuffer(got)) > 0


class TestTraceOnRead:
    """Each column of a solve's trace is computed from its log when first read, and only that column."""

    X = ChainProduct([4, 3, 5])
    PARAMS = SolverParams(iterations=60, gamma=0.3, schedule="diminishing", seed=4)
    COLUMNS = ("ext_values", "disagreement", "best_rounded")

    def case(self):
        rng = np.random.default_rng(8)
        fns = [random_submodular_fn(self.X, rng) for _ in range(3)]
        tables = [{x: float(fn(x)) for x in self.X.points()} for fn in fns]
        return self.X, tables, WeightMatrix(line_matrix(3), eta=0.1), self.PARAMS

    @pytest.fixture
    def priced(self, monkeypatch):
        """Every `solvers._value` call's row, as the solve's trace makes them."""
        rows = []

        def counted(bottom, row, *piece):
            rows.append(row)
            return value(bottom, row, *piece)

        value = solvers._value
        monkeypatch.setattr(solvers, "_value", counted)
        return rows

    def test_an_unread_trace_prices_no_row(self, priced):
        space, tables, matrix, params = self.case()
        _, _, trace = distributed_minimize([Oracle(t.__getitem__, space) for t in tables], space, matrix, params)
        assert trace.best_rounded.shape == (params.iterations,)
        assert priced == []
        trace.disagreement
        assert priced == []
        trace.ext_values
        assert len(priced) == params.iterations * len(tables)

    @pytest.mark.parametrize("order", itertools.permutations(COLUMNS), ids="-".join)
    def test_a_read_trace_has_the_per_agent_loops_bytes(self, order):
        space, tables, matrix, params = self.case()
        traces = [
            solver([Oracle(t.__getitem__, space) for t in tables], space, matrix, params)[2]
            for solver in (distributed_minimize, reference_distributed_minimize)
        ]
        got, expected = [[getattr(t, name).tobytes() for name in order] for t in traces]
        assert got == expected

    def test_a_second_read_returns_the_same_arrays(self, priced):
        space, tables, matrix, params = self.case()
        _, _, trace = distributed_minimize([Oracle(t.__getitem__, space) for t in tables], space, matrix, params)
        ext_values, disagreement = trace.ext_values, trace.disagreement
        assert len(priced) == params.iterations * len(tables)
        assert trace.ext_values is ext_values and trace.disagreement is disagreement
        assert len(priced) == params.iterations * len(tables)

    def test_a_read_trace_still_holds_the_solves_log(self, monkeypatch):
        logs = []

        class Recorded(solvers.SolveTrace):
            def __init__(self, *log):
                logs.append(log)
                super().__init__(*log)

        monkeypatch.setattr(solvers, "SolveTrace", Recorded)
        space, tables, matrix, params = self.case()
        _, _, trace = distributed_minimize([Oracle(t.__getitem__, space) for t in tables], space, matrix, params)
        ((_, _, mixed, walks, rounds, price),) = logs
        assert mixed.shape == (params.iterations, len(tables), space.sort_length)
        trace.ext_values, trace.disagreement, trace.best_rounded
        # Everything the trace's attributes reach through containers, views and closures.
        held, pending = set(), list(vars(trace).values())
        while pending:
            obj = pending.pop()
            if id(obj) not in held and not isinstance(obj, (type, types.ModuleType)):
                held.add(id(obj))
                pending += gc.get_referents(obj)
                if isinstance(obj, np.ndarray) and obj.base is not None:
                    pending.append(obj.base)
        logs = {"mixed": mixed, "walks": walks, "rounds": rounds, "price": price}
        for name, log in logs.items():
            assert id(log) in held, name


@pytest.fixture
def kernel_rows(monkeypatch):
    """Every row that a kernel `solvers._kernel` returns gives back, in call order."""
    rows = []
    kernel = solvers._kernel

    def recording_kernel(dims):
        project = kernel(dims)

        def recorded(*args):
            row, number = project(*args)
            rows.append(row)
            return row, number

        return recorded

    monkeypatch.setattr(solvers, "_kernel", recording_kernel)
    return rows


class TestProjectionReplay:
    """`projected` replays each agent-round's kernel call from the log, with the solve's bytes."""

    ITERATIONS = 40
    # (agents, graph, dims, mixed in a generated mixer): a line of 3 at r = 6 has 24
    # corrections, a complete network of 4 at r = 16 has 192, a lone agent none.
    CASES = {
        "generated": (3, line_matrix, [3, 4, 2], True),
        "numpy": (4, GRAPHS["complete"], [5, 5, 5, 5], False),
        "lone": (1, line_matrix, [4, 3, 5], True),
    }

    def solve(self, case, schedule):
        n, graph, dims, generated = self.CASES[case]
        space, matrix = ChainProduct(dims), WeightMatrix(graph(n), eta=0.1)
        assert (space.sort_length * len(matrix._plan[1]) <= solvers._MIXER_CORRECTIONS) == generated
        rng = np.random.default_rng(n)
        fs = [random_submodular_oracle(space, rng) for _ in range(n)]
        params = SolverParams(iterations=self.ITERATIONS, gamma=0.3, schedule=schedule, seed=3)
        if n == 1:
            return centralized_minimize(fs[0], space, params)[2]
        return distributed_minimize(fs, space, matrix, params)[2]

    @pytest.mark.parametrize("schedule", ["constant", "diminishing"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_replayed_rows_are_the_solves_rows(self, kernel_rows, case, schedule):
        trace = self.solve(case, schedule)
        solved = np.array(kernel_rows).tobytes()
        assert trace.projected.tobytes() == solved

    def test_only_the_first_read_of_disagreement_replays(self, kernel_rows):
        trace = self.solve("generated", "diminishing")
        calls = self.ITERATIONS * 3
        assert len(kernel_rows) == calls
        trace.ext_values, trace.best_rounded, trace.lower_bound
        assert len(kernel_rows) == calls
        trace.disagreement
        assert len(kernel_rows) == 2 * calls
        trace.disagreement, trace.projected
        assert len(kernel_rows) == 2 * calls


def test_a_solve_keeps_one_round_buffer():
    space, matrix = ChainProduct([5] * 6), WeightMatrix(line_matrix(3), eta=0.1)
    costs = [lambda x, c=c: left_sum(c * xi for xi in x) for c in (1.0, -0.5, 0.25)]
    params = SolverParams(iterations=2000, gamma=0.05, seed=1)
    # A one-round solve first, so the compiled kernel and mixer are not counted.
    distributed_minimize([Oracle(c, space) for c in costs], space, matrix, SolverParams(iterations=1, gamma=0.05))
    fs = [Oracle(c, space) for c in costs]
    tracemalloc.start()
    try:
        _, _, trace = distributed_minimize(fs, space, matrix, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = 8 * params.iterations * len(fs) * space.sort_length
    assert trace.mixed.nbytes == buffer
    # The mixed rows' buffer, 1,125 KiB, and the log: about 1.5 buffers; a second
    # round buffer would take it to about 2.5.
    assert peak < 1.75 * buffer


def test_reading_ext_values_streams_the_buffer():
    space, matrix = ChainProduct([5] * 6), WeightMatrix(line_matrix(3), eta=0.1)
    costs = [lambda x, c=c: left_sum(c * xi for xi in x) for c in (1.0, -0.5, 0.25)]
    params = SolverParams(iterations=2000, gamma=0.05, seed=1)
    _, _, trace = distributed_minimize([Oracle(c, space) for c in costs], space, matrix, params)
    tracemalloc.start()
    try:
        values = trace.ext_values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The values take a 24th of the 1,125 KiB buffer; the buffer as one list of
    # Python floats would take about 4.5 buffers.
    assert values.shape == (2000, 3)
    assert peak < 0.25 * trace.mixed.nbytes


@st.composite
def certificate_cases(draw):
    """A solve of 1-3 agents on a line, each with a random submodular cost on 1-3 chains of 2-4."""
    space = ChainProduct(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fns = [random_submodular_fn(space, rng) for _ in range(n)]
    tables = [{x: float(fn(x)) for x in space.points()} for fn in fns]
    params = SolverParams(
        iterations=draw(st.integers(1, 60)),
        gamma=draw(st.floats(0.01, 0.5)),
        schedule=draw(st.sampled_from(["constant", "diminishing"])),
        seed=draw(st.integers(0, 1000)),
    )
    return space, tables, WeightMatrix(line_matrix(n), eta=0.1), params


class TestCertificate:
    """The trace's lower bound and best point, read from the solve's log."""

    @staticmethod
    def total(tables, point):
        return left_sum(t[point] for t in tables) if len(tables) > 1 else tables[0][point]

    @settings(max_examples=200, deadline=None, database=None)
    @given(certificate_cases())
    def test_the_bound_is_below_the_minimum_and_the_best_point_above_it(self, case):
        space, tables, matrix, params = case
        fs = [Oracle(t.__getitem__, space) for t in tables]
        _, _, trace = distributed_minimize(fs, space, matrix, params)
        calls = [f.calls for f in fs]
        lb = trace.lower_bound
        # The bound asks no oracle for anything.
        assert [f.calls for f in fs] == calls
        least = min(self.total(tables, x) for x in space.points())
        ub = trace.best_rounded[-1].item()
        assert lb.shape == (params.iterations,) and (np.diff(lb) >= 0.0).all()
        assert lb[-1] <= least + solvers.CERTIFY_TOL * max(1.0, abs(least)) and least <= ub
        assert as_bytes(self.total(tables, trace.best_point)) == as_bytes(ub)
        assert trace.certified == (ub - lb[-1] <= solvers.CERTIFY_TOL * max(1.0, abs(ub)))

    @pytest.mark.parametrize("n", [1, 3])
    def test_a_modular_cost_is_bounded_exactly_from_the_first_round(self, n):
        # A sum of per-chain terms has one linear extension, so each round's
        # subgradients price every point.
        space = ChainProduct([4, 3, 5])
        rng = np.random.default_rng(n)
        terms = [[rng.uniform(-2.0, 2.0, m).tolist() for m in space.dims] for _ in range(n)]
        tables = [{x: left_sum(c[v] for c, v in zip(t, x)) for x in space.points()} for t in terms]
        fs = [Oracle(t.__getitem__, space) for t in tables]
        _, _, trace = distributed_minimize(fs, space, WeightMatrix(line_matrix(n), eta=0.1), SolverParams(iterations=5, gamma=0.2))
        least = min(self.total(tables, x) for x in space.points())
        assert trace.lower_bound == pytest.approx([least] * 5, abs=1e-12)

    def test_half_the_fig3_steps_are_certified_at_the_bundled_block(self, monkeypatch):
        from latmin import ctf

        certified = []

        def recorded(*args):
            solve = distributed_minimize(*args)
            certified.append(solve[2].certified)
            return solve

        monkeypatch.setattr(ctf, "distributed_minimize", recorded)
        ctf.run_game(load_scenario(bundled_scenario_path("paper_fig3.cfg")))
        assert (len(certified), sum(certified)) == (40, 20)


class TestStepRecovery:
    """A trace read recovers each visit's f-step from the walk's subgradient by
    replaying the chain levels along the order, so `ext_values` are the sum over
    a list of steps in visit order, byte for byte, also where a rise within
    tolerance puts a later entry of a chain first."""

    @pytest.mark.parametrize("rise", ["ulp", "half tolerance"])
    def test_rising_rows_price_as_a_list_of_steps(self, rise):
        X = ChainProduct([4, 3, 5])
        rng = np.random.default_rng(12)
        # Arbitrary costs, so that no two steps are alike.
        tables = [{x: float(v) for x, v in zip(X.points(), rng.uniform(-5.0, 5.0, X.cardinality))} for _ in range(3)]
        start = uniform_random_profile(X, 3).values.tolist()
        # Every chain rises at each step, within tolerance, so its entries sort last first.
        for k in X.in_chain_steps:
            start[k + 1] = np.nextafter(start[k], 2.0) if rise == "ulp" else start[k] + FEASIBILITY_TOL / 2
        order = sorted(range(X.sort_length), key=start.__getitem__, reverse=True)
        assert order.index(X.offsets[1] + 1) < order.index(X.offsets[1])
        # Agents that start alike mix to their start, so the first round walks these rows.
        initial = [Profile(X, np.array(start))] * 3
        case = (X, tables, WeightMatrix(line_matrix(3), eta=0.1), SolverParams(iterations=20, gamma=0.3, seed=1), initial)
        by_steps = functools.partial(reference_distributed_minimize, extension=reference_steps_extension)
        assert solve_bytes(distributed_minimize, *case) == solve_bytes(by_steps, *case)


def raised_message(call, *args):
    """The message of the ValueError `call(*args)` raises, or None if it returns."""
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


# Entries at and past the edges of [0,1] and its tolerance, and in-chain
# rises of exactly the tolerance and of the next float above it.
EDGE_ENTRIES = [math.nan, math.inf, -math.inf, -0.0, -FEASIBILITY_TOL, -2e-12, 1.0 + FEASIBILITY_TOL, 1.0 + 2e-12]
EDGE_RISES = [FEASIBILITY_TOL, math.nextafter(FEASIBILITY_TOL, 1.0)]


@st.composite
def mixed_buffers(draw):
    """1-6 rounds of 1-4 agents' rows on 1-4 chains of 2-5 elements: each row
    per chain sorted uniform draws, then up to three entries set to an edge
    value or lifted into an in-chain rise, exact at 0 and 0.5."""
    space = ChainProduct(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    rounds, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rows = []
    for _ in range(rounds * n):
        row = []
        for m in space.dims:
            row += sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=m - 1, max_size=m - 1)), reverse=True)
        rows.append(row)
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if space.in_chain_steps and draw(st.booleans()):
            k = draw(st.sampled_from(space.in_chain_steps))
            row[k] = draw(st.sampled_from([row[k], 0.0, -0.0, 0.5]))
            row[k + 1] = row[k] + draw(st.sampled_from(EDGE_RISES))
        else:
            row[draw(st.integers(0, space.sort_length - 1))] = draw(st.sampled_from(EDGE_ENTRIES))
    return space, np.array(rows).reshape(rounds, n, space.sort_length)


# Each way to spoil a row, and the words of the error `check_rows` then raises.
SPOILED = {"nan": "leaves [0,1]", "above": "leaves [0,1]", "rise": "is not non-increasing"}


def spoil(row, kind):
    """Make `row`, a flat profile on ChainProduct([4, 3, 3]), infeasible:
    a NaN in chain 1, an entry just past 1 + tol in chain 2, or a rise just
    past tol inside chain 0."""
    if kind == "nan":
        row[4] = math.nan
    elif kind == "above":
        row[5] = 1.0 + 2 * FEASIBILITY_TOL
    else:
        row[:3] = [0.5, 0.5, 0.5 + 2 * FEASIBILITY_TOL]


def spoiling_mix(monkeypatch, spoiled):
    """Wrap the mixers `solvers._mixer` makes so that round k's mixed rows have row i
    spoiled as `spoiled[k][i]` says.  Returns the list of rounds mixed so far and a
    dict that gets each spoiled row, by (round, agent), as a list."""
    mixer = solvers._mixer
    rounds, rows = [], {}

    def spoiling_mixer(*plan):
        mix = mixer(*plan)

        def spoiling(*args):
            mixed = [list(row) for row in mix(*args)]
            rounds.append(len(rounds) + 1)
            for i, kind in spoiled.get(len(rounds), {}).items():
                spoil(mixed[i], kind)
                rows[len(rounds), i] = list(mixed[i])
            return mixed

        return spoiling

    monkeypatch.setattr(solvers, "_mixer", spoiling_mixer)
    return rounds, rows


SPOILED_SPACE = ChainProduct([4, 3, 3])


def spoiled_solve(n, iterations=6, oracle=None):
    """A seeded solve of n agents on SPOILED_SPACE, centralized for one agent."""
    rng = np.random.default_rng(n)
    fs = [random_submodular_oracle(SPOILED_SPACE, rng) if oracle is None else oracle for _ in range(n)]
    params = SolverParams(iterations=iterations, gamma=0.3, seed=2)
    if n == 1:
        return centralized_minimize(fs[0], SPOILED_SPACE, params)
    return distributed_minimize(fs, SPOILED_SPACE, WeightMatrix(line_matrix(n), eta=0.1), params)


# Edge rows for the row check, by space: each kind changes a random feasible row's
# entries, by flat index, and says whether the row stays feasible.  On [4, 3, 3]
# the chains sit at 0:3, 3:5 and 5:7; on [2, 2, 2, 2] no chain has an in-chain step.
HIDDEN = {
    ChainProduct([4, 3, 3]): {
        "nan": ({4: math.nan}, False),
        "inf": ({0: math.inf}, False),
        "-inf": ({6: -math.inf}, False),
        "-0.0": ({2: -0.0}, True),
        "at -tol": ({6: -FEASIBILITY_TOL}, True),
        "past -tol": ({6: -2e-12}, False),
        "at 1 + tol": ({3: 1.0 + FEASIBILITY_TOL}, True),
        "past 1 + tol": ({3: 1.0 + 2e-12}, False),
        "rise at tol": ({1: 0.0, 2: EDGE_RISES[0]}, True),
        "rise past tol": ({1: 0.0, 2: EDGE_RISES[1]}, False),
        "rise across a chain boundary": ({2: 0.0, 3: 1.0}, True),
    },
    ChainProduct([2, 2, 2, 2]): {
        "nan": ({1: math.nan}, False),
        "inf": ({3: math.inf}, False),
        "-inf": ({0: -math.inf}, False),
        "past 1 + tol": ({2: 1.0 + 2e-12}, False),
        "rises across every chain boundary": ({0: 0.0, 1: 1.0, 2: -0.0, 3: 1.0 + FEASIBILITY_TOL}, True),
    },
}


class TestMixedRowCheck:
    """The mixed rows are checked in one `check_rows` pass per solve.  A bad
    one raises the row check's error for the first bad row, by round then
    agent, ahead of anything that failed after that row was mixed."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(mixed_buffers(), st.sampled_from([None, 1, 7, 40]))
    # One-coordinate chains only, and a rise of exactly tol before one just past it.
    @example((ChainProduct([2, 2, 2]), np.array([[[0.0, 1.0, math.nan]]])), None)
    @example((ChainProduct([3]), np.array([[[0.0, FEASIBILITY_TOL]], [[0.0, EDGE_RISES[1]]]])), None)
    # Adjacent same-sign infinities, across a chain boundary and within one chain:
    # their difference is NaN, which must not warn.
    @example((ChainProduct((2, 2, 2, 3)), np.array([[[-math.inf, -math.inf, 0.0, 0.0, 0.0]]])), None)
    @example((ChainProduct([3]), np.array([[[math.inf, math.inf]]])), None)
    # A rise that overflows.
    @example((ChainProduct([3]), np.array([[[-1e308, 1e308]]])), None)
    def test_raises_check_rows_error_on_the_first_row_it_rejects(self, case, cap):
        space, kept = case
        rows = kept.reshape(-1, space.sort_length)
        errors = [raised_message(reference_check_row, row, space) for row in rows.tolist()]
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(extension, "_BATCH_FLOATS", cap)
            got = raised_message(check_rows, rows, space)
        assert got == next(filter(None, errors), None)

    def test_temporaries_stay_within_a_batch(self):
        # 2000 rounds of 4 agents on 4 chains of 5: 128,000 floats in 32 batches.
        space = ChainProduct([5, 5, 5, 5])
        kept = np.tile(np.linspace(1.0, 0.0, space.sort_length), (2000, 4, 1))
        tracemalloc.start()
        try:
            check_rows(kept.reshape(-1, space.sort_length), space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Eight floats per entry of a batch, and less than half the buffer: one pass over
        # the whole buffer at once would peak above its size.
        assert peak < 8 * 8 * extension._BATCH_FLOATS < kept.nbytes / 2

    @pytest.mark.parametrize("where", [1, 5, 11])
    @pytest.mark.parametrize("space, kind", [
        pytest.param(space, kind, id=f"{'x'.join(map(str, space.dims))}-{kind}")
        for space, kinds in HIDDEN.items()
        for kind in kinds
    ])
    def test_one_edge_row_hidden_in_a_batch_is_ruled_on_as_the_reference_does(self, space, kind, where):
        # Twelve rows in batches of four: row 1 sits in the first batch, 5 in the middle one, 11 in the last.
        changes, feasible = HIDDEN[space][kind]
        rows = np.array([uniform_random_profile(space, seed).values for seed in range(12)])
        for index, value in changes.items():
            rows[where, index] = value
        want = [raised_message(reference_check_row, row, space) for row in rows.tolist()]
        assert (want[where] is None) == feasible and want.count(None) >= 11
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(extension, "_BATCH_FLOATS", 4 * space.sort_length)
            assert raised_message(check_rows, rows, space) == want[where]
            assert [raised_message(check_rows, row[None], space) for row in rows] == want

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kind", sorted(SPOILED))
    @pytest.mark.parametrize("bad_round", [1, 4])
    def test_a_spoiled_mixed_row_raises_check_rows_error(self, monkeypatch, n, kind, bad_round):
        _, rows = spoiling_mix(monkeypatch, {bad_round: {n - 1: kind}})
        with pytest.raises(ValueError) as raised:
            spoiled_solve(n)
        want = raised_message(check_rows, [rows[bad_round, n - 1]], SPOILED_SPACE)
        assert SPOILED[kind] in want
        assert str(raised.value) == want

    # The first spoiled row by round, then by agent, is the one named.
    @pytest.mark.parametrize(
        "spoiled, first",
        [
            ({2: {2: "above"}, 3: {0: "nan"}}, (2, 2)),
            ({2: {2: "nan", 1: "rise"}}, (2, 1)),
        ],
    )
    def test_the_first_spoiled_row_is_named(self, monkeypatch, spoiled, first):
        _, rows = spoiling_mix(monkeypatch, spoiled)
        with pytest.raises(ValueError) as raised:
            spoiled_solve(3)
        assert str(raised.value) == raised_message(check_rows, [rows[first]], SPOILED_SPACE)

    @pytest.mark.parametrize("spoiled", [{}, {2: {1: "above"}}])
    def test_an_oracle_failing_in_a_later_round_loses_to_a_spoiled_row(self, monkeypatch, spoiled):
        rounds, rows = spoiling_mix(monkeypatch, spoiled)
        fn = random_submodular_fn(SPOILED_SPACE, np.random.default_rng(11))
        failed = []

        def cost(x):
            # Up from round 3 every new point fails.
            if len(rounds) >= 3:
                failed.append(x)
                raise RuntimeError(f"no cost at {x}")
            return fn(x)

        with pytest.raises((ValueError, RuntimeError)) as raised:
            spoiled_solve(3, oracle=Oracle(cost, SPOILED_SPACE))
        if spoiled:
            assert str(raised.value) == raised_message(check_rows, [rows[2, 1]], SPOILED_SPACE)
        else:
            assert raised.type is RuntimeError and str(raised.value) == f"no cost at {failed[0]}"
        # The oracle did fail, after the spoiled row was mixed.
        assert failed and len(rounds) >= 3

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_row_is_checked_one_at_a_time(self, monkeypatch, n):
        checked = []
        monkeypatch.setattr(solvers, "check_rows", lambda rows, space: checked.append(rows.shape))
        spoiled_solve(n, iterations=30)
        assert checked == [(30 * n, SPOILED_SPACE.sort_length)]


@st.composite
def forests(draw):
    """Unary tables on 1-8 chains of 2-4 levels and a pairwise table on each edge
    of a random forest: vertex v joins an earlier vertex in either direction, or none."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=8))
    cost = st.floats(-10.0, 10.0)
    unary = [draw(st.lists(cost, min_size=m, max_size=m)) for m in sizes]
    edges, pairwise = [], []
    for v in range(1, len(sizes)):
        u = draw(st.none() | st.integers(0, v - 1))
        if u is not None:
            i, j = (u, v) if draw(st.booleans()) else (v, u)
            edges.append((i, j))
            pairwise.append([draw(st.lists(cost, min_size=sizes[j], max_size=sizes[j])) for _ in range(sizes[i])])
    return sizes, unary, edges, pairwise


class TestBeyondTheBruteForceCap:
    """Exactness where brute force cannot reach, against a min-sum dynamic program on a forest."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(forests())
    def test_the_forest_minimum_is_the_brute_force_minimum(self, forest):
        sizes, unary, edges, pairwise = forest
        space = ChainProduct(sizes)

        def cost(x):
            terms = [u[xv] for u, xv in zip(unary, x)]
            return left_sum(terms + [t[x[i]][x[j]] for (i, j), t in zip(edges, pairwise)])

        best, _ = brute_force_minimize(Oracle(cost, space))
        assert forest_minimum(unary, edges, pairwise) == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_a_cycle_is_refused(self):
        table = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError, match="^edges: not a forest$"):
            forest_minimum([[0.0, 0.0]] * 3, [(0, 1), (1, 2), (2, 0)], [table] * 3)

    def test_three_agents_reach_the_minimum_at_9e20_points(self):
        # 30 chains of 5: 5 ** 30 = 9.3e20 points, r = 120.  The terms are 30
        # unary tables and |x_i - x_{i+1}| along the path, dealt to 3 agents in turn.
        rng = np.random.default_rng(0)
        unary = np.round(rng.normal(size=(30, 5)), 3).tolist()
        space = ChainProduct([5] * 30)
        terms = [lambda x, i=i: unary[i][x[i]] for i in range(30)]
        terms += [lambda x, i=i: abs(x[i] - x[i + 1]) for i in range(29)]
        fs = [Oracle(lambda x, mine=terms[a::3]: left_sum(t(x) for t in mine), space) for a in range(3)]
        matrix = WeightMatrix(np.full((3, 3), 1 / 3), eta=0.1)
        _, values, trace = distributed_minimize(fs, space, matrix, SolverParams(2000, 0.5, "diminishing", seed=0))
        gaps = [[abs(a - b) for b in range(5)] for a in range(5)]
        best = forest_minimum(unary, [(i, i + 1) for i in range(29)], [gaps] * 29)
        assert best == pytest.approx(-14.786, abs=1e-9)
        assert values == pytest.approx([best] * 3, abs=1e-9)
        assert trace.lower_bound[-1] == pytest.approx(-14.987, abs=5e-4)
