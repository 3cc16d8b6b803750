import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from latmin import ChainProduct, Oracle, check_submodular, ctf
from latmin.cli import main
from latmin.ctf import (
    Arena,
    AttackerParams,
    DefenderParams,
    StepContext,
    adaptive_alpha,
    attacker_modes,
    attacker_policy,
    attacker_pursuit_weights,
    avoidance_planes,
    build_step_problem,
    decode_actions,
    defender_cost,
    predict_attackers,
    reachable_cells,
    run_game,
    threat_distance,
)
from latmin.scenario import Scenario, bundled_scenario_path, load_scenario
from latmin.solvers import SolverParams, WeightMatrix

from helpers import as_bytes, reference_build_step_problem, reference_defender_cost

GOLDEN = bundled_scenario_path("paper_fig3.cfg")


def toy_arena(size=6, horizon=8, obstacles=()):
    return Arena(
        size=size,
        horizon=horizon,
        zone=[(1, size - 1), (2, size - 1), (3, size - 1), (4, size - 1)],
        responsibilities=[
            [(1, size - 1), (2, size - 1)],
            [(3, size - 1), (4, size - 1)],
        ],
        obstacles=set(obstacles),
    )


def toy_defender_params(**overrides):
    base = dict(
        pursuit_gain=20.0,
        cohesion=np.array([[0.0, 0.1], [0.1, 0.0]]),
        mobility=[1.0, 1.0],
        zeta1=200.0,
        zeta2=5.0,
        alpha_f_nom=0.9,
        alpha_a_nom=0.1,
        beta=0.7,
        delta_th=[5.0, 5.0],
    )
    base.update(overrides)
    return DefenderParams(**base)


def toy_attacker_params():
    return AttackerParams(eta_avoid_nom=0.7, eta_base_nom=0.3, delta_th=4.0, kappa=0.9)


def toy_context(
    defenders,
    predicted=(),
    alphas=None,
    pursuit=None,
    planes=None,
    params=None,
    arena=None,
):
    arena = arena or toy_arena()
    n_d = len(defenders)
    predicted = list(predicted)
    return StepContext(
        arena=arena,
        u_max=1,
        defenders=list(defenders),
        predicted=predicted,
        alphas=alphas or [(0.0, 1.0)] * n_d,
        pursuit=pursuit if pursuit is not None else np.zeros((n_d, len(predicted))),
        planes=planes or [(set(), set())] * n_d,
        params=params or toy_defender_params(),
    )


def toy_scenario(**overrides):
    fields = dict(
        seed=5,
        arena=toy_arena(size=8, horizon=10, obstacles={(1, 3)}),
        u_max=1,
        defenders_start=[(2, 2), (6, 2)],
        attackers_start=[(0, 0), (7, 0)],
        defender_params=toy_defender_params(),
        attacker_params=toy_attacker_params(),
        network=WeightMatrix([[0.7, 0.3], [0.3, 0.7]], eta=0.1),
        solver=SolverParams(iterations=10, gamma=0.1, t_hat=0.7, seed=5),
    )
    arena = overrides.get("arena", fields["arena"])
    if "arena" not in overrides:
        fields["arena"] = Arena(
            size=8,
            horizon=10,
            zone=[(2, 7), (3, 7), (4, 7), (5, 7)],
            responsibilities=[[(2, 7), (3, 7)], [(4, 7), (5, 7)]],
            obstacles={(1, 3)},
        )
    fields.update(overrides)
    return Scenario(**fields)


class TestReachableCells:
    def test_interior_cell_reaches_nine(self):
        assert len(reachable_cells((3, 3), 1, 6)) == 9

    def test_corner_cell_reaches_four(self):
        assert len(reachable_cells((0, 0), 1, 6)) == 4

    def test_zero_speed_is_singleton(self):
        assert reachable_cells((2, 5), 0, 6) == [(2, 5)]


class TestAvoidancePlanes:
    def test_pair_two_apart_in_x(self):
        defenders = [(3, 5), (5, 5)]
        xi, yi = avoidance_planes(0, defenders, set())
        xj, yj = avoidance_planes(1, defenders, set())
        assert (xi, yi) == ({4}, set())
        assert (xj, yj) == ({4}, set())

    def test_triple_matches_symmetric_assignment(self):
        # i conflicts with j along x and with l along y; j and l are clear
        # of each other.
        defenders = [(5, 5), (7, 4), (4, 7)]
        xi, yi = avoidance_planes(0, defenders, set())
        xj, yj = avoidance_planes(1, defenders, set())
        xl, yl = avoidance_planes(2, defenders, set())
        assert (xi, yi) == ({6}, {6})
        assert (xj, yj) == ({6}, set())
        assert (xl, yl) == (set(), {6})

    def test_isolated_defender_has_no_planes(self):
        defenders = [(1, 1), (8, 8)]
        assert avoidance_planes(0, defenders, set(), u_max=1) == (set(), set())

    def test_adjacent_obstacle_walled_off(self):
        planes = avoidance_planes(0, [(3, 3)], {(4, 3), (3, 5)})
        assert planes == ({4}, set())  # (3,5) is outside the reachable box

    def test_diagonal_obstacle_uses_x_plane(self):
        assert avoidance_planes(0, [(3, 3)], {(4, 4)}) == ({4}, set())

    def test_unsupported_speed_rejected(self):
        with pytest.raises(ValueError, match="u_max"):
            avoidance_planes(0, [(1, 1), (2, 2)], set(), u_max=2)

    def test_planes_guarantee_pairwise_separation(self):
        # Exhaustive: for every overlapping pair, no legal move pair collides.
        rng = np.random.default_rng(41)
        for _ in range(200):
            a = tuple(int(v) for v in rng.integers(2, 8, size=2))
            b = tuple(int(v) for v in rng.integers(2, 8, size=2))
            if a == b:
                continue
            defenders = [a, b]
            pa = avoidance_planes(0, defenders, set())
            pb = avoidance_planes(1, defenders, set())
            moves_a = [
                c for c in reachable_cells(a, 1, 10)
                if c[0] not in pa[0] and c[1] not in pa[1]
            ]
            moves_b = [
                c for c in reachable_cells(b, 1, 10)
                if c[0] not in pb[0] and c[1] not in pb[1]
            ]
            assert not (set(moves_a) & set(moves_b))


class TestDefenderCost:
    def test_everything_off_is_zero(self):
        ctx = toy_context(defenders=[(3, 3)], alphas=[(0.0, 0.0)], params=toy_defender_params(
            cohesion=np.zeros((1, 1)), mobility=[0.0], delta_th=[5.0]
        ))
        assert defender_cost(0, [(0, 0)], ctx) == 0.0

    def test_mobility_unit_weight_diagonal_step(self):
        ctx = toy_context(defenders=[(3, 3)], alphas=[(0.0, 0.0)], params=toy_defender_params(
            cohesion=np.zeros((1, 1)), mobility=[1.0], delta_th=[5.0]
        ))
        assert defender_cost(0, [(1, 1)], ctx) == 2.0

    def test_barrier_peaks_at_plane(self):
        ctx = toy_context(
            defenders=[(3, 3)],
            alphas=[(0.0, 0.0)],
            planes=[({4}, set())],
            params=toy_defender_params(cohesion=np.zeros((1, 1)), mobility=[0.0], delta_th=[5.0]),
        )
        on_plane = defender_cost(0, [(1, 0)], ctx)
        assert on_plane == pytest.approx(200.0)
        beside = defender_cost(0, [(0, 0)], ctx)
        assert beside == pytest.approx(200.0 * math.exp(-5.0))

    def test_moves_off_grid_priced_at_clamped_cell(self):
        arena = toy_arena()
        ctx = toy_context(
            defenders=[(0, 0)],
            alphas=[(0.0, 1.0)],
            params=toy_defender_params(cohesion=np.zeros((1, 1)), mobility=[0.0], delta_th=[5.0]),
            arena=Arena(
                size=6, horizon=8, zone=[(1, 5)], responsibilities=[[(1, 5)]], obstacles=set()
            ),
        )
        # stepping out at the corner costs the same as staying
        assert defender_cost(0, [(-1, -1)], ctx) == defender_cost(0, [(0, 0)], ctx)


class TestAdaptiveAlpha:
    def test_nominal_at_threshold(self):
        assert adaptive_alpha(20.0, 20.0, 0.7, 0.1, 0.9) == (pytest.approx(0.1), pytest.approx(0.9))

    def test_vanishes_far_away(self):
        a, f = adaptive_alpha(1e6, 20.0, 0.7, 0.1, 0.9)
        assert a == pytest.approx(0.0, abs=1e-12)
        assert f == pytest.approx(1.0)

    def test_closed_form_value(self):
        a, f = adaptive_alpha(15.0, 20.0, 0.7, 0.1, 0.9)
        assert a == pytest.approx(0.1 * math.exp(3.5) / (0.1 * math.exp(3.5) + 0.9), rel=1e-12)
        assert a == pytest.approx(0.7863, abs=5e-5)

    def test_weights_sum_to_one_exactly(self):
        for delta in np.linspace(0.0, 40.0, 97):
            a, f = adaptive_alpha(float(delta), 12.0, 0.4, 0.3, 0.7)
            assert a + f == 1.0

    def test_strictly_decreasing_in_distance(self):
        deltas = np.linspace(0.0, 40.0, 81)
        values = [adaptive_alpha(float(d), 10.0, 0.7, 0.1, 0.9)[0] for d in deltas]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_no_threat_is_pure_defense(self):
        assert adaptive_alpha(math.inf, 20.0, 0.7, 0.1, 0.9) == (0.0, 1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            adaptive_alpha(-1.0, 20.0, 0.7, 0.1, 0.9)


class TestPursuitWeights:
    def test_unique_nearest_gets_full_gain(self):
        rng = np.random.default_rng(0)
        row = attacker_pursuit_weights(
            0, [(0, 0), (3, 3)], [True, True], [(3, 5)], 20.0, rng
        )
        assert row.tolist() == [0.0, 20.0]

    def test_tie_broken_reproducibly_per_seed(self):
        picks = set()
        for _ in range(10):
            rng = np.random.default_rng(99)
            row = attacker_pursuit_weights(
                0, [(0, 2), (4, 2)], [True, True], [(2, 2)], 20.0, rng
            )
            picks.add(int(np.argmax(row)))
        assert len(picks) == 1

    def test_all_captured_gives_zero_row(self):
        rng = np.random.default_rng(1)
        row = attacker_pursuit_weights(
            0, [(0, 0), (3, 3)], [False, False], [(3, 5)], 20.0, rng
        )
        assert not row.any()

    def test_threat_distance_ignores_captured(self):
        d = threat_distance([(0, 0), (3, 5)], [True, False], [(3, 5)])
        assert d == 8.0
        assert threat_distance([(3, 5)], [False], [(3, 5)]) == math.inf


class TestPredictAttackers:
    def test_steps_toward_zone(self):
        arena = Arena(
            size=6, horizon=5, zone=[(2, 5)], responsibilities=[[(2, 5)]], obstacles=set()
        )
        assert predict_attackers([(2, 2)], [True], arena, 1) == [(2, 3)]

    def test_adjacent_cell_enters_zone(self):
        arena = Arena(
            size=6, horizon=5, zone=[(2, 5)], responsibilities=[[(2, 5)]], obstacles=set()
        )
        assert predict_attackers([(2, 4)], [True], arena, 1) == [(2, 5)]

    def test_wide_zone_tie_resolves_deterministically(self):
        # diagonal and straight moves tie in Manhattan distance to a wide
        # zone; the smaller-x rule picks the left diagonal every time
        arena = toy_arena()
        assert predict_attackers([(2, 2)], [True], arena, 1) == [(1, 3)]

    def test_captured_attacker_stays(self):
        arena = toy_arena()
        assert predict_attackers([(2, 2)], [False], arena, 1) == [(2, 2)]

    def test_tie_takes_smaller_x_then_y(self):
        arena = Arena(
            size=7, horizon=5, zone=[(0, 6), (6, 6)],
            responsibilities=[[(0, 6), (6, 6)]], obstacles=set(),
        )
        # equidistant between the two zone cells: both diagonal moves tie
        assert predict_attackers([(3, 3)], [True], arena, 1) == [(2, 4)]


class TestAttackerPolicy:
    def test_mode_probabilities_at_threshold(self):
        params = toy_attacker_params()
        eta_avoid, eta_base = attacker_modes((0, 0), [(4, 0)], params)
        assert eta_avoid == pytest.approx(0.7)
        assert eta_base == pytest.approx(0.3)

    def test_avoid_probability_vanishes_far_away(self):
        params = toy_attacker_params()
        eta_avoid, _ = attacker_modes((0, 0), [(100, 100)], params)
        assert eta_avoid == pytest.approx(0.0, abs=1e-12)

    def test_close_defender_boosts_avoidance(self):
        params = toy_attacker_params()
        eta_avoid, _ = attacker_modes((0, 0), [(1, 1)], params)
        expected = 0.7 * math.exp(0.9 * 2.0) / (0.3 + 0.7 * math.exp(0.9 * 2.0))
        assert eta_avoid == pytest.approx(expected, rel=1e-12)
        assert eta_avoid == pytest.approx(0.9338, abs=1e-4)

    def test_never_enters_obstacles(self):
        arena = toy_arena(obstacles={(2, 3), (3, 3), (3, 2)})
        params = toy_attacker_params()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            cell = attacker_policy(0, [(2, 2)], [(5, 5)], params, arena, 1, rng)
            assert cell not in arena.obstacles
            assert arena.in_grid(cell)

    def test_base_mode_reduces_zone_distance(self):
        arena = toy_arena()
        params = AttackerParams(eta_avoid_nom=0.0, eta_base_nom=1.0, delta_th=4.0, kappa=0.9)
        zone_gap = lambda c: min(abs(c[0] - z[0]) + abs(c[1] - z[1]) for z in arena.zone)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cell = attacker_policy(0, [(2, 1)], [(5, 5)], params, arena, 1, rng)
            assert zone_gap(cell) == zone_gap((2, 1)) - 1


class TestStepProblem:
    def test_dimensions_and_sort_length(self):
        ctx = toy_context(defenders=[(1, 1), (3, 3), (5, 1), (4, 4)], params=toy_defender_params(
            cohesion=np.zeros((4, 4)), mobility=[1.0] * 4, delta_th=[5.0] * 4
        ))
        arena8 = Arena(
            size=8, horizon=5, zone=[(0, 7)], responsibilities=[[(0, 7)]] * 4, obstacles=set()
        )
        ctx.arena = arena8
        oracles, space = build_step_problem(ctx)
        assert space.dims == (3,) * 8
        assert space.sort_length == 16
        assert space.cardinality == 9**4 == 6561
        assert len(oracles) == 4

    def test_decode_roundtrip(self):
        assert decode_actions((0, 1, 2, 1), 2, 1) == [(-1, 0), (1, 0)]

    def test_oracle_matches_defender_cost(self):
        ctx = toy_context(defenders=[(2, 2), (4, 4)])
        oracles, space = build_step_problem(ctx)
        for point in [(0, 0, 0, 0), (2, 2, 1, 1), (1, 0, 2, 2)]:
            actions = decode_actions(point, 2, 1)
            assert oracles[0](point) == defender_cost(0, actions, ctx)
            assert oracles[1](point) == defender_cost(1, actions, ctx)


def term_context(**kwargs):
    defaults = dict(
        defenders=[(2, 2), (4, 3)],
        predicted=[(1, 4), (5, 5)],
        alphas=[(0.0, 0.0)] * 2,
        pursuit=np.zeros((2, 2)),
        planes=[(set(), set())] * 2,
        params=toy_defender_params(cohesion=np.zeros((2, 2)), mobility=[0.0, 0.0]),
    )
    defaults.update(kwargs)
    return toy_context(**defaults)


class TestStepCostSubmodularity:
    @pytest.mark.parametrize("distance", ["manhattan", "squared"])
    def test_assembled_cost_is_submodular(self, distance):
        ctx = toy_context(
            defenders=[(2, 2), (3, 3)],
            predicted=[(1, 4), (4, 1)],
            alphas=[(0.3, 0.7), (0.8, 0.2)],
            pursuit=np.array([[20.0, 0.0], [0.0, 20.0]]),
            planes=[({3}, set()), (set(), {4})],
            params=toy_defender_params(distance=distance),
        )
        oracles, space = build_step_problem(ctx)
        total = Oracle(lambda x: oracles[0](x) + oracles[1](x), space)
        assert check_submodular(total, space).is_submodular

    def test_zone_term_alone(self):
        ctx = term_context(alphas=[(0.0, 1.0)] * 2)
        oracles, space = build_step_problem(ctx)
        for f in oracles:
            assert check_submodular(f, space).is_submodular

    def test_pursuit_term_alone(self):
        ctx = term_context(alphas=[(1.0, 0.0)] * 2, pursuit=np.full((2, 2), 7.0))
        oracles, space = build_step_problem(ctx)
        for f in oracles:
            assert check_submodular(f, space).is_submodular

    def test_cohesion_term_alone(self):
        ctx = term_context(params=toy_defender_params(
            cohesion=np.array([[0.0, 0.5], [0.5, 0.0]]), mobility=[0.0, 0.0]
        ))
        oracles, space = build_step_problem(ctx)
        for f in oracles:
            assert check_submodular(f, space).is_submodular

    def test_barrier_term_alone(self):
        ctx = term_context(planes=[({3}, {2}), ({4}, set())])
        oracles, space = build_step_problem(ctx)
        for f in oracles:
            assert check_submodular(f, space).is_submodular

    def test_mobility_term_alone(self):
        ctx = term_context(params=toy_defender_params(
            cohesion=np.zeros((2, 2)), mobility=[1.0, 2.0]
        ))
        oracles, space = build_step_problem(ctx)
        for f in oracles:
            assert check_submodular(f, space).is_submodular

    def test_clamped_cost_still_submodular_at_boundary(self):
        # defenders pressed into the corner so clamping actually bites
        ctx = toy_context(
            defenders=[(0, 0), (5, 5)],
            predicted=[(3, 3)],
            alphas=[(0.5, 0.5)] * 2,
            pursuit=np.full((2, 1), 5.0),
            params=toy_defender_params(),
        )
        oracles, space = build_step_problem(ctx)
        total = Oracle(lambda x: oracles[0](x) + oracles[1](x), space)
        assert check_submodular(total, space).is_submodular


class TestRunGame:
    def test_no_attackers_settles_near_centers(self):
        s = toy_scenario(
            attackers_start=[],
            defender_params=toy_defender_params(mobility=[0.25, 0.25]),
            arena=Arena(
                size=8, horizon=12,
                zone=[(2, 7), (3, 7), (4, 7), (5, 7)],
                responsibilities=[[(2, 7), (3, 7)], [(4, 7), (5, 7)]],
                obstacles={(1, 3)},
            ),
            solver=SolverParams(iterations=15, gamma=0.1, t_hat=0.7, seed=5),
        )
        res = run_game(s)
        assert res.outcome == "defense"
        assert not any(e.kind == "capture" for e in res.events)
        centroids = [(2.5, 7.0), (4.5, 7.0)]
        for (cx, cy), p in zip(centroids, res.final_defenders):
            assert abs(p[0] - cx) + abs(p[1] - cy) <= 1.0

    def test_no_unsafe_events_in_seeded_runs(self):
        for seed in (1, 2, 3):
            res = run_game(toy_scenario(seed=seed))
            assert not any(e.kind == "collision_check" for e in res.events)
            for rec in res.steps:
                assert len(set(rec.defenders)) == len(rec.defenders)
                assert not any(p in toy_scenario().arena.obstacles for p in rec.defenders)

    def test_determinism_bit_identical(self):
        a = run_game(toy_scenario())
        b = run_game(toy_scenario())
        assert a.steps == b.steps
        assert a.events == b.events
        assert a.outcome == b.outcome

    def test_capture_flag_matches_cooccupancy_in_every_record(self):
        # capture status at k holds exactly when a defender shares the cell at k
        s = toy_scenario(
            attackers_start=[(2, 4), (6, 4)],
            defender_params=toy_defender_params(delta_th=[20.0, 20.0]),
        )
        res = run_game(s)
        for rec in res.steps:
            occupied = set(rec.defenders)
            for g, pos in enumerate(rec.attackers):
                assert rec.captured[g] == (pos in occupied)
        occupied = set(res.final_defenders)
        for g, pos in enumerate(res.final_attackers):
            assert res.final_captured[g] == (pos in occupied)

    def test_flag_event_halts_game(self):
        # a defenseless setup: defenders pinned far away, attacker adjacent
        s = toy_scenario(
            attackers_start=[(2, 6)],
            defenders_start=[(0, 0), (7, 0)],
            attacker_params=AttackerParams(
                eta_avoid_nom=0.0, eta_base_nom=1.0, delta_th=4.0, kappa=0.0
            ),
            defender_params=toy_defender_params(mobility=[50.0, 50.0]),
            arena=Arena(
                size=8, horizon=10,
                zone=[(2, 7), (3, 7), (4, 7), (5, 7)],
                responsibilities=[[(2, 7), (3, 7)], [(4, 7), (5, 7)]],
                obstacles=set(),
            ),
        )
        res = run_game(s)
        assert res.outcome == "offense"
        assert len(res.steps) < s.arena.horizon
        assert any(e.kind == "flag" for e in res.events)

    def test_infeasible_starts_rejected(self):
        with pytest.raises(ValueError, match="obstacle"):
            run_game(toy_scenario(defenders_start=[(1, 3), (6, 2)]))
        with pytest.raises(ValueError, match="share"):
            run_game(toy_scenario(defenders_start=[(2, 2), (2, 2)]))

    def test_step_records_carry_behavior_weights(self):
        res = run_game(toy_scenario())
        for rec in res.steps:
            assert len(rec.alpha_a) == 2
            assert len(rec.eta_avoid) == 2
            assert all(0.0 <= a <= 1.0 for a in rec.alpha_a)
            assert all(0.0 <= e <= 1.0 for e in rec.eta_avoid)


class TestArenaValidation:
    def test_zone_obstacle_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Arena(size=6, horizon=5, zone=[(1, 5)], responsibilities=[[(1, 5)]],
                  obstacles={(1, 5)})

    def test_partial_cover_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            Arena(size=6, horizon=5, zone=[(1, 5), (2, 5)],
                  responsibilities=[[(1, 5)]], obstacles=set())

    def test_out_of_grid_zone_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Arena(size=6, horizon=5, zone=[(1, 6)], responsibilities=[[(1, 6)]],
                  obstacles=set())


class TestParamValidation:
    @pytest.mark.parametrize(
        "field", ["pursuit_gain", "cohesion", "mobility", "zeta1", "zeta2", "alpha_a_nom", "beta", "delta_th"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_defender_field_named(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field}: not finite"):
            toy_defender_params(**{field: bad})

    @pytest.mark.parametrize("field", ["eta_avoid_nom", "eta_base_nom", "delta_th", "kappa"])
    def test_non_finite_attacker_field_named(self, field):
        fields = dict(eta_avoid_nom=0.7, eta_base_nom=0.3, delta_th=4.0, kappa=0.9)
        with pytest.raises(ValueError, match=rf"^{field}: not finite"):
            AttackerParams(**{**fields, field: math.nan})


def assert_oracles_equal_defender_cost(ctx, points):
    """Every step oracle equals `defender_cost` byte for byte at every point,
    and `defender_cost` equals its one-function form."""
    oracles, space = build_step_problem(ctx)
    for point in points:
        actions = decode_actions(point, ctx.n_defenders, ctx.u_max)
        for i, f in enumerate(oracles):
            expected = as_bytes(defender_cost(i, actions, ctx))
            assert as_bytes(f(point)) == expected, (i, point)
            assert as_bytes(reference_defender_cost(i, actions, ctx)) == expected, (i, point)


ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def step_contexts(draw):
    """2-3 defenders on a small grid, so moves clamp at edges and corners,
    with obstacles within reach, so avoidance planes appear."""
    n = draw(st.integers(2, 3))
    size = draw(st.integers(3, 6))
    grid = [(x, y) for x in range(size) for y in range(size)]
    zone = [(x, size - 1) for x in range(size)]
    responsibilities = [
        draw(st.lists(st.sampled_from(zone), min_size=1, max_size=3, unique=True)) for _ in range(n)
    ]
    responsibilities[-1] += [c for c in zone if not any(c in r for r in responsibilities)]
    defenders = draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n, unique=True))
    near = st.tuples(st.integers(0, n - 1), st.integers(-1, 1), st.integers(-1, 1))
    obstacles = {
        (defenders[i][0] + dx, defenders[i][1] + dy)
        for i, dx, dy in draw(st.lists(near, max_size=3))
    }
    arena = Arena(
        size=size,
        horizon=5,
        zone=zone,
        responsibilities=responsibilities,
        obstacles={c for c in obstacles if 0 <= min(c) and max(c) < size and c not in zone},
    )
    predicted = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3))
    weight = st.one_of(ZEROS, st.floats(0.01, 50.0))
    pursuit = np.array([
        [0.0] * len(predicted) if draw(st.booleans())
        else draw(st.lists(weight, min_size=len(predicted), max_size=len(predicted)))
        for _ in range(n)
    ])
    alpha_a = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    params = toy_defender_params(
        # Asymmetric, with zero entries and a diagonal that must be skipped.
        cohesion=np.array(draw(st.lists(
            st.lists(st.one_of(ZEROS, st.floats(0.001, 5.0)), min_size=n, max_size=n),
            min_size=n, max_size=n,
        ))),
        mobility=draw(st.lists(st.one_of(ZEROS, st.floats(0.0, 5.0)), min_size=n, max_size=n)),
        zeta1=draw(st.floats(1.0, 300.0)),
        zeta2=draw(st.floats(1.0, 10.0)),
        delta_th=[5.0] * n,
        distance=draw(st.sampled_from(sorted(ctf.DISTANCES))),
    )
    return toy_context(
        defenders=defenders,
        predicted=predicted,
        alphas=[(a, 1.0 - a) for a in alpha_a],
        pursuit=pursuit,
        planes=[avoidance_planes(i, defenders, arena.obstacles) for i in range(n)],
        params=params,
        arena=arena,
    )


def tables_property(**overrides):
    """The property: on random contexts, the step oracles equal `defender_cost` everywhere."""

    @settings(max_examples=60, deadline=None, database=None, **overrides)
    @given(step_contexts())
    def check(ctx):
        space = ChainProduct([3] * (2 * ctx.n_defenders))
        assert_oracles_equal_defender_cost(ctx, space.points())

    return check


test_step_tables_equal_defender_cost_at_every_point = tables_property()


def barrier_before_cohesion(tables, i):
    """A mutant of the tabulated cost that adds the cohesion after the barrier."""
    side, k = tables.side, 2 * i
    head, barrier, mobility = tables.head[i], tables.barrier[i], tables.mobility[i]
    pairs = [(table, 2 * j) for j, table in tables.cohesion[i]]

    def cost(point):
        a = point[k] * side + point[k + 1]
        cohesion = 0.0
        for table, kj in pairs:
            cohesion += table[a][point[kj] * side + point[kj + 1]]
        return ((head[a] + barrier[a]) + cohesion) + mobility[a]

    return cost


def fig3_step_zero():
    scenario = load_scenario(GOLDEN)
    defenders, attackers, captured, (pursuit_rngs, _, _) = ctf.game_start(scenario)
    return ctf.step_context(scenario, defenders, attackers, captured, pursuit_rngs)


def swarm8_context(seed=3):
    """An 8-defender step like the generated swarm games: a 20x20 grid, the
    defenders close enough to exchange planes, obstacles within reach and
    four attackers, two of them pursued."""
    rng = np.random.default_rng(seed)
    n = 8
    zone = [(2 + c, 19) for c in range(2 * n)]
    defenders = [(2 + 2 * i, 17 - i % 2) for i in range(n)]
    obstacles = {(3, 16), (10, 18), (15, 15)}
    arena = Arena(
        size=20, horizon=12, zone=zone,
        responsibilities=[zone[2 * i:2 * i + 2] for i in range(n)], obstacles=obstacles,
    )
    attackers = [(4, 13), (11, 2), (16, 12), (0, 5)]
    active = [True] * len(attackers)
    alphas, pursuit = [], np.zeros((n, len(attackers)))
    for i in range(n):
        delta = threat_distance(attackers, active, arena.responsibilities[i])
        alphas.append(adaptive_alpha(delta, 20.0, 0.7, 0.1, 0.9))
        if i in (1, 6):
            pursuit[i] = attacker_pursuit_weights(
                i, attackers, active, arena.responsibilities[i], 20.0, rng
            )
    cohesion = [[0.0 if i == j else {1: 0.5, 2: 0.1}.get(abs(i - j), 0.01) for j in range(n)]
                for i in range(n)]
    cohesion[3][5] = 0.0
    return toy_context(
        defenders=defenders,
        predicted=predict_attackers(attackers, active, arena, 1),
        alphas=alphas,
        pursuit=pursuit,
        planes=[avoidance_planes(i, defenders, obstacles) for i in range(n)],
        params=toy_defender_params(
            cohesion=np.array(cohesion), mobility=[1.0] * n, delta_th=[20.0] * n
        ),
        arena=arena,
    )


class TestStepTables:
    def test_fig3_step_zero_every_point(self):
        ctx = fig3_step_zero()
        oracles, space = build_step_problem(ctx)
        assert space.cardinality == 3**8
        assert_oracles_equal_defender_cost(ctx, space.points())

    def test_swarm8_sized_random_points(self):
        ctx = swarm8_context()
        assert sum(len(x) + len(y) for x, y in ctx.planes) >= 8
        points = np.random.default_rng(11).integers(0, 3, size=(500, 16)).tolist()
        assert_oracles_equal_defender_cost(ctx, [tuple(p) for p in points])

    def test_property_catches_cohesion_added_after_the_barrier(self, monkeypatch):
        monkeypatch.setattr(ctf, "_tabulated_cost", barrier_before_cohesion)
        with pytest.raises(AssertionError):
            tables_property(phases=[Phase.generate])()

    def test_oracles_capture_the_context_when_built(self):
        ctx = toy_context(defenders=[(2, 2), (4, 4)], planes=[({3}, set()), (set(), {3})])
        oracles, _ = build_step_problem(ctx)
        before = [f((0, 2, 1, 1)) for f in oracles]
        ctx.defenders[0] = (0, 0)
        ctx.planes[0] = (set(), set())
        ctx.params.mobility[:] = 9.0
        assert [f((0, 2, 1, 1)) for f in oracles] == before

    def test_fig3_game_and_check_match_the_defender_cost_closure(self, tmp_path, monkeypatch, capsys):
        outputs = []
        for build in (build_step_problem, reference_build_step_problem):
            monkeypatch.setattr(ctf, "build_step_problem", build)
            out = tmp_path / build.__name__
            assert main(["simulate", str(GOLDEN), "--out", str(out)]) == 0
            capsys.readouterr()
            main(["check", str(GOLDEN)])
            outputs.append((
                (out / "trajectories.csv").read_bytes(),
                (out / "events.csv").read_bytes(),
                capsys.readouterr().out,
            ))
        assert outputs[0] == outputs[1]
        assert "submodular: yes" in outputs[0][2]
