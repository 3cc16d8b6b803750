import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import latmin
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
    predict_attackers,
    run_game,
    threat_distance,
)
from latmin.scenario import Scenario, bundled_scenario_path, load_scenario
from latmin.solvers import SolverParams, WeightMatrix, _mixing_plan, distributed_minimize

from conftest import FIELD_CACHES
from helpers import (
    DISTANCES,
    as_bytes,
    cell_distances,
    left_sum,
    line_matrix,
    reference_attacker_modes,
    reference_attacker_policy,
    reference_attacker_pursuit_weights,
    reference_avoidance_planes,
    reference_build_step_problem,
    reference_clamp,
    reference_decode,
    reference_defender_cost,
    reference_distributed_minimize,
    reference_predict_attackers,
    reference_reachable_cells,
    reference_threat_distance,
    solve_bytes,
)

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


def landing_cells(ctx, i):
    """The distinct cells defender i can land on, sorted."""
    return sorted(set(ctx.landing[i]))


class TestLanding:
    def test_interior_cell_reaches_nine(self):
        assert landing_cells(toy_context(defenders=[(3, 3)]), 0) == reference_reachable_cells((3, 3), 1, 6)

    def test_corner_cell_reaches_four(self):
        assert len(landing_cells(toy_context(defenders=[(0, 0)]), 0)) == 4

    def test_zero_speed_is_singleton(self):
        ctx = dataclasses.replace(toy_context(defenders=[(2, 5)]), u_max=0)
        assert ctx.landing == [[(2, 5)]]

    @pytest.mark.parametrize("u_max", [0, 1, 2])
    def test_every_chain_level_lands_on_the_clamped_cell(self, u_max):
        # Every start cell of a 4x4 grid, so the clamp bites on every edge and corner.
        arena = Arena(size=4, horizon=1, zone=[(0, 3)], responsibilities=[[(0, 3)]], obstacles=set())
        starts = [(x, y) for x in range(4) for y in range(4)]
        ctx = dataclasses.replace(toy_context(defenders=starts, arena=arena), u_max=u_max)
        side = 2 * u_max + 1
        assert [len(cells) for cells in ctx.landing] == [side * side] * len(starts)
        for i, pos in enumerate(starts):
            assert landing_cells(ctx, i) == reference_reachable_cells(pos, u_max, 4)
            for lx in range(side):
                for ly in range(side):
                    (ux, uy), = reference_decode((lx, ly), 1, u_max)
                    expected = reference_clamp((pos[0] + ux, pos[1] + uy), 4)
                    assert ctx.landing[i][lx * side + ly] == expected

    @pytest.mark.parametrize("u_max", [0, 1, 2])
    def test_the_move_list_is_built_once_per_speed(self, u_max):
        moves = ctf._offsets((u_max,) * 4, u_max)
        assert type(moves) is tuple and ctf._offsets((u_max,) * 4, u_max) is moves

    @pytest.mark.parametrize("cell", [(-3, 2), (8, 0), (2, 8), (0, -1)])
    def test_a_defender_off_the_grid_is_refused_naming_it(self, cell):
        ctx = toy_context(defenders=[(1, 1), cell], arena=toy_arena(size=8))
        message = re.escape(f"defenders[1]: cell {cell} outside the grid of size 8")
        for read in (lambda: ctx._cells, lambda: ctx.landing, lambda: build_step_problem(ctx)):
            with pytest.raises(ValueError, match=message):
                read()

    @pytest.mark.parametrize("cells", [[(0, 0), (7, 7)], [(0, 7), (7, 0)], [(0, 3), (7, 4)], [(3, 0), (4, 7)]])
    def test_corner_and_edge_defenders_still_build(self, cells):
        ctx = toy_context(defenders=cells, arena=toy_arena(size=8))
        oracles, space = build_step_problem(ctx)
        assert [c for c, _ in ctx._cells] == cells and len(oracles) == 2 and space.dims == (3,) * 4


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

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_equals_the_two_loop_reference(self, data):
        # Some defenders share a cell; obstacles lie 0-3 cells from a defender.
        size = data.draw(st.integers(2, 8))
        cells = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        defenders = data.draw(st.lists(cells, min_size=1, max_size=8))
        defenders += data.draw(st.lists(st.sampled_from(defenders), max_size=8 - len(defenders)))
        defenders = data.draw(st.permutations(defenders))
        offsets = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        near = data.draw(st.lists(st.tuples(st.sampled_from(defenders), offsets), max_size=6))
        obstacles = {(x + dx, y + dy) for (x, y), (dx, dy) in near}
        for i in range(len(defenders)):
            expected = reference_avoidance_planes(i, defenders, obstacles)
            assert avoidance_planes(i, defenders, obstacles) == expected

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
                c for c in reference_reachable_cells(a, 1, 10)
                if c[0] not in pa[0] and c[1] not in pa[1]
            ]
            moves_b = [
                c for c in reference_reachable_cells(b, 1, 10)
                if c[0] not in pb[0] and c[1] not in pb[1]
            ]
            assert not (set(moves_a) & set(moves_b))


def step_cost(ctx, i, actions):
    """Defender i's step oracle at the lattice point that encodes the joint actions."""
    oracles, _ = build_step_problem(ctx)
    return oracles[i](tuple(c + ctx.u_max for u in actions for c in u))


class TestDefenderCost:
    def test_everything_off_is_zero(self):
        ctx = toy_context(defenders=[(3, 3)], alphas=[(0.0, 0.0)], params=toy_defender_params(
            cohesion=np.zeros((1, 1)), mobility=[0.0], delta_th=[5.0]
        ))
        assert step_cost(ctx, 0, [(0, 0)]) == 0.0

    def test_mobility_unit_weight_diagonal_step(self):
        ctx = toy_context(defenders=[(3, 3)], alphas=[(0.0, 0.0)], params=toy_defender_params(
            cohesion=np.zeros((1, 1)), mobility=[1.0], delta_th=[5.0]
        ))
        assert step_cost(ctx, 0, [(1, 1)]) == 2.0

    def test_barrier_peaks_at_plane(self):
        ctx = toy_context(
            defenders=[(3, 3)],
            alphas=[(0.0, 0.0)],
            planes=[({4}, set())],
            params=toy_defender_params(cohesion=np.zeros((1, 1)), mobility=[0.0], delta_th=[5.0]),
        )
        on_plane = step_cost(ctx, 0, [(1, 0)])
        assert on_plane == pytest.approx(200.0)
        beside = step_cost(ctx, 0, [(0, 0)])
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
        assert step_cost(ctx, 0, [(-1, -1)]) == step_cost(ctx, 0, [(0, 0)])


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


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.floats(0.0, 1.0),
       st.floats(-1e4, 700.0), st.integers(0, 10**6))
def test_switch_weights_split_one_at_every_nominal_and_gap(nominal, rate, delta_th, gap):
    """At nominal weights 0 and 1 and at gaps and thresholds where exp underflows,
    `adaptive_alpha` and `attacker_modes` give finite weights in [0,1] that sum to
    1, byte for byte b / (b + other) wherever that did not divide 0 by 0, else 1.0."""
    other = 1.0 - nominal
    boosted = nominal * math.exp(rate * (delta_th - gap))
    expected = boosted / (boosted + other) if boosted + other else 1.0
    params = AttackerParams(eta_avoid_nom=nominal, eta_base_nom=other, delta_th=delta_th, kappa=rate)
    alphas = adaptive_alpha(float(gap), delta_th, rate, nominal, other)
    for weights in (alphas, attacker_modes((0, 0), [(gap, 0)], params)):
        assert all(math.isfinite(w) and 0.0 <= w <= 1.0 for w in weights)
        assert sum(weights) == 1.0
        assert as_bytes(weights[0]) == as_bytes(expected)


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


@st.composite
def attacker_scenes(draw):
    """Small grids, so equal distances and tied candidates are common, with
    obstacles, captured attackers and one to four zone cells and defenders."""
    size = draw(st.integers(2, 7))
    grid = [(x, y) for x in range(size) for y in range(size)]
    zone = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4, unique=True))
    free = [c for c in grid if c not in zone]
    obstacles = set(draw(st.lists(st.sampled_from(free), max_size=4))) if free else set()
    open_cells = [c for c in grid if c not in obstacles]
    attackers = draw(st.lists(st.sampled_from(open_cells), min_size=1, max_size=4))
    active = draw(st.lists(st.booleans(), min_size=len(attackers), max_size=len(attackers)))
    defenders = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4))
    eta = draw(st.floats(0.0, 1.0))
    params = AttackerParams(
        eta_avoid_nom=eta, eta_base_nom=1.0 - eta,
        delta_th=draw(st.floats(0.0, 6.0)), kappa=draw(st.floats(0.0, 1.0)),
    )
    arena = Arena(size=size, horizon=5, zone=zone, responsibilities=[zone], obstacles=obstacles)
    return arena, attackers, active, defenders, params, draw(st.integers(0, 2)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None, database=None)
@given(attacker_scenes())
def test_attacker_geometry_equals_the_per_pair_reference(scene):
    """Every attacker-side function returns what the one-`manhattan`-call-per-pair
    form returns, and draws the same numbers from the stream."""
    arena, attackers, active, defenders, params, u_max, seed = scene
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert predict_attackers(attackers, active, arena, u_max) == reference_predict_attackers(
        attackers, active, arena, u_max
    )
    for cells in (arena.zone, arena.zone[:1]):
        assert as_bytes(threat_distance(attackers, active, cells)) == as_bytes(
            reference_threat_distance(attackers, active, cells)
        )
        row = attacker_pursuit_weights(0, attackers, active, cells, 20.0, rng)
        assert row.tobytes() == reference_attacker_pursuit_weights(0, attackers, active, cells, 20.0, ref_rng).tobytes()
    for pos in attackers:
        modes = attacker_modes(pos, defenders, params)
        assert list(map(as_bytes, modes)) == list(map(as_bytes, reference_attacker_modes(pos, defenders, params)))
    for g, live in enumerate(active):
        if live:
            move = attacker_policy(g, attackers, defenders, params, arena, u_max, rng)
            assert move == reference_attacker_policy(g, attackers, defenders, params, arena, u_max, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_step_context_equals_the_per_defender_reference(data):
    """`step_context` gives each defender the threat distance and pursuit row
    of the per-pair references, drawing ties from its stream as they do."""
    scenario = load_scenario(GOLDEN)
    arena, dp = scenario.arena, scenario.defender_params
    defenders, _, _, _ = ctf.game_start(scenario)
    cells = st.tuples(st.integers(0, arena.size - 1), st.integers(0, arena.size - 9))
    attackers = data.draw(st.lists(cells, min_size=1, max_size=4))
    # Repeated cells make exact ties, so streams draw.
    attackers += data.draw(st.lists(st.sampled_from(attackers), max_size=3))
    captured = data.draw(st.lists(st.booleans(), min_size=len(attackers), max_size=len(attackers)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rngs = [np.random.default_rng([seed, i]) for i in range(len(defenders))]
    ref_rngs = [np.random.default_rng([seed, i]) for i in range(len(defenders))]
    ctx = ctf.step_context(scenario, defenders, attackers, captured, rngs)
    active = [not c for c in captured]
    for i, ref_rng in enumerate(ref_rngs):
        zone = arena.responsibilities[i]
        delta = reference_threat_distance(attackers, active, zone)
        alphas = adaptive_alpha(float(delta), float(dp.delta_th[i]), dp.beta, dp.alpha_a_nom, dp.alpha_f_nom)
        assert list(map(as_bytes, ctx.alphas[i])) == list(map(as_bytes, alphas))
        row = reference_attacker_pursuit_weights(i, attackers, active, zone, dp.pursuit_gain, ref_rng)
        assert ctx.pursuit[i].tobytes() == row.tobytes()
        assert rngs[i].bit_generator.state == ref_rng.bit_generator.state


CELL_SETS = st.lists(st.tuples(st.integers(-3, 9), st.integers(-3, 9)), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(sorted(DISTANCES)), CELL_SETS, CELL_SETS, st.integers(2, 7))
def test_cell_distances_equal_the_scalar_distances(metric, a, b, size):
    """The broadcast reference gives `DISTANCES[metric]` byte for byte between
    every pair of cells, raw (some off the grid) and clamped to the grid."""
    d = DISTANCES[metric]
    clamped_a, clamped_b = ([reference_clamp(c, size) for c in cells] for cells in (a, b))
    for cells_a, cells_b in ((a, b), (clamped_a, clamped_b)):
        table = cell_distances(metric, np.array(cells_a)[:, None], np.array(cells_b)[None])
        assert table.dtype == np.float64
        assert [[as_bytes(v) for v in row] for row in table.tolist()] == [
            [as_bytes(d(p, q)) for q in cells_b] for p in cells_a
        ]


def test_the_game_has_no_scalar_distances():
    """Step geometry comes from integer arithmetic; the per-pair distances
    live in the tests only, as references."""
    for name in ("manhattan", "squared_euclidean", "DISTANCES"):
        assert not hasattr(ctf, name), name


@st.composite
def field_arenas(draw):
    """A 2-8 grid whose zone is split at random into responsibility sets."""
    size = draw(st.integers(2, 8))
    grid = [(x, y) for x in range(size) for y in range(size)]
    zone = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=8, unique=True))
    k = draw(st.integers(1, len(zone)))
    owners = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=len(zone) - k, max_size=len(zone) - k))
    responsibilities = [[c for c, owner in zip(zone, owners) if owner == i] for i in range(k)]
    return Arena(size=size, horizon=1, zone=zone, responsibilities=responsibilities, obstacles=set())


@settings(max_examples=100, deadline=None, database=None)
@given(field_arenas(), st.sampled_from(sorted(DISTANCES)), st.floats(1.0, 300.0), st.floats(1.0, 10.0))
def test_field_tables_equal_what_they_keep(arena, metric, z1, z2):
    """At every grid cell, each kept gap is `_gap` and each kept mean distance
    the row mean from `cell_distances`; each barrier row is the Gaussian wall of
    its plane, also at planes past the +-2 of a step (a hand-built context can
    have them)."""
    grid = [(x, y) for x in range(arena.size) for y in range(arena.size)]
    for targets in (arena.zone, *arena.responsibilities):
        kept = tuple(targets)
        assert [ctf._zone_gap(kept, c) for c in grid] == [ctf._gap(c, targets) for c in grid]
        for u in (1, 2):
            steps = ctf._offsets((u,) * 4, u)
            assert [ctf._step_gaps(kept, u, c) for c in grid] == [
                tuple(ctf._gap((x + ox, y + oy), targets) for ox, oy in steps) for x, y in grid]
        rows = cell_distances(metric, np.array(grid)[:, None], np.array(targets)[None])
        assert [as_bytes(ctf._mean_distance(metric, kept, c)) for c in grid] == list(
            map(as_bytes, (rows.sum(axis=1) / len(targets)).tolist()))

    def wall(d):
        return as_bytes(z1 * math.exp(-z2 * d ** 2))

    pattern = (1, 1, 1, 1)
    xs, ys = zip(*ctf._offsets(pattern, 1))
    for c in range(-8, 9):
        assert list(map(as_bytes, ctf._barrier(z1, z2, 1, pattern, (c,), ()))) == [wall(x - c) for x in xs]
        assert list(map(as_bytes, ctf._barrier(z1, z2, 1, pattern, (), (c,)))) == [wall(y - c) for y in ys]


def test_equal_targets_share_one_table_and_changed_ones_get_their_own(fresh_fields):
    def hits_and_misses(f):
        return f.cache_info()[:2]

    zone = [(1, 5), (2, 5)]
    assert [threat_distance([(0, 0)], [True], cells) for cells in (zone, list(zone), zone + [(0, 1)])] == [6, 6, 1]
    assert hits_and_misses(ctf._zone_gap) == (1, 2)
    # Each build reads a mean distance at each of a defender's 9 landing cells,
    # one pull table per pair (both weigh 0.1), each made of 9 rows, and one
    # barrier row per defender; every toy arena and parameter record is a new
    # object with equal content, so the second build and the third's means,
    # pulls, lattice and costs are all read from what the first kept.
    for params in (toy_defender_params(), toy_defender_params(), toy_defender_params(zeta1=300.0)):
        build_step_problem(toy_context(
            defenders=[(2, 2), (4, 4)], planes=[({3}, set()), (set(), {3})], params=params, arena=toy_arena()
        ))
    assert hits_and_misses(ctf._mean_distance) == (36, 18)
    assert hits_and_misses(ctf._pull) == (4, 2)
    # A row is read only when its pull table is made.
    assert hits_and_misses(ctf._row) == (0, 18)
    assert hits_and_misses(ctf._barrier) == (2, 4)
    assert hits_and_misses(ctf._joint_space) == (2, 1)
    assert hits_and_misses(ctf._cost_maker) == (4, 2)


def test_cells_given_as_lists_read_the_tables_of_their_tuples(fresh_fields):
    zone, attackers = [(1, 5), (2, 5)], [(0, 0), (2, 3)]
    for cells, positions in ((zone, attackers), ([list(c) for c in zone], [list(p) for p in attackers])):
        assert threat_distance(positions, [True, True], cells) == 2.0
        row = attacker_pursuit_weights(0, positions, [True, True], cells, 20.0, np.random.default_rng(0))
        assert row.tolist() == [0.0, 20.0]
    # Two attackers, two reads each per round: only the first round's threat
    # distance misses.
    assert ctf._zone_gap.cache_info()[:3] == (6, 2, ctf.FIELD_KEYS)


def test_each_attacker_reads_its_one_step_zone_gaps_from_one_row(fresh_fields):
    arena = toy_arena()
    attackers, active = [(2, 1), (4, 2), (2, 1)], [True, True, False]
    assert predict_attackers(attackers, active, arena, 1) == reference_predict_attackers(attackers, active, arena, 1)
    # Two live attackers on two cells: one row each, and no gap read cell by cell.
    assert ctf._step_gaps.cache_info()[:2] == (0, 2)
    base = AttackerParams(eta_avoid_nom=0.0, eta_base_nom=1.0, delta_th=4.0, kappa=0.9)
    attacker_policy(0, attackers, [(5, 5)], base, arena, 1, np.random.default_rng(0))
    assert ctf._step_gaps.cache_info()[:2] == (1, 2)
    assert ctf._zone_gap.cache_info().currsize == 0


def test_each_field_cache_stops_at_its_bound(fresh_fields):
    bound = ctf.FIELD_KEYS
    assert [cache.cache_parameters() for cache in fresh_fields] == [{"maxsize": bound, "typed": False}] * len(fresh_fields)
    # A cache keeps the FIELD_KEYS keys read last and computes the rest again.
    cells = [(x, 0) for x in range(bound + 10)]
    assert [ctf._zone_gap(((0, 0),), c) for c in cells] == list(range(bound + 10))
    assert [ctf._zone_gap(((0, 0),), c) for c in cells[::-1]] == list(range(bound + 10))[::-1]
    assert ctf._zone_gap.cache_info()[2:] == (bound, bound)


@st.composite
def kept_row_cases(draw):
    """Two cells, a target and avoidance planes on a 2-8 grid, the cells drawn
    from the border half the time, so that every clamp pattern comes up."""
    size = draw(st.integers(2, 8))
    grid = [(x, y) for x in range(size) for y in range(size)]
    border = [c for c in grid if {0, size - 1} & set(c)]
    cells = st.one_of(st.sampled_from(border), st.sampled_from(grid))
    a, b, target = draw(cells), draw(cells), draw(st.sampled_from(grid))
    offsets = st.sets(st.integers(-3, 3), max_size=3)
    planes = ({a[0] + d for d in draw(offsets)}, {a[1] + d for d in draw(offsets)})
    return size, a, b, target, planes


@settings(max_examples=150, deadline=None, database=None)
@given(kept_row_cases(), st.sampled_from(sorted(DISTANCES)), st.sampled_from([1, 2]),
       st.floats(0.001, 2.0), st.floats(1.0, 300.0), st.floats(1.0, 10.0))
def test_kept_rows_equal_the_broadcast_formula(case, metric, u_max, weight, z1, z2):
    """Each kept pull table, distance row (what pursuit reads) and barrier row
    is, byte for byte, the broadcast of `cell_distances` or the wall sum over
    the clamped landing cells.  The tables are kept across examples, so two
    geometries that shared a key would show as a mismatch."""
    size, a, b, target, planes = case
    arena = Arena(size=size, horizon=1, zone=[(0, 0)], responsibilities=[[(0, 0)]], obstacles=set())
    ctx = dataclasses.replace(toy_context(defenders=[a, b], arena=arena), u_max=u_max)
    (_, pattern_a), (_, pattern_b) = ctx._cells
    moves = range(-u_max, u_max + 1)
    land_a, land_b = ([reference_clamp((x + ux, y + uy), size) for ux in moves for uy in moves] for x, y in (a, b))

    pull = ctf._pull(metric, weight, u_max, pattern_a, pattern_b, a[0] - b[0], a[1] - b[1])
    expected = weight * cell_distances(metric, np.array(land_a)[:, None], np.array(land_b)[None])
    assert [list(map(as_bytes, row)) for row in pull] == [list(map(as_bytes, row)) for row in expected.tolist()]

    distances = ctf._row(metric, 1.0, u_max, pattern_a, target[0] - a[0], target[1] - a[1])
    expected = cell_distances(metric, np.array(land_a), target)
    assert list(map(as_bytes, distances)) == list(map(as_bytes, expected.tolist()))

    x_planes, y_planes = (sorted(p) for p in planes)
    relative = (tuple(c - a[0] for c in x_planes), tuple(c - a[1] for c in y_planes))
    walls = [left_sum(z1 * math.exp(-z2 * (x - c) ** 2) for c in x_planes)
             + left_sum(z1 * math.exp(-z2 * (y - c) ** 2) for c in y_planes) for x, y in land_a]
    assert list(map(as_bytes, ctf._barrier(z1, z2, u_max, pattern_a, *relative))) == list(map(as_bytes, walls))


@pytest.mark.parametrize("metric", sorted(DISTANCES))
def test_oracles_on_the_grid_border_equal_the_reference_cost(metric):
    """Defenders on a corner and two edges, with planes and pursuit, so that
    every kept row is read at a clamp pattern: every oracle equals
    `reference_defender_cost` at every point."""
    arena = Arena(size=6, horizon=8, zone=[(1, 5), (2, 5), (3, 5)],
                  responsibilities=[[(1, 5)], [(2, 5)], [(3, 5)]], obstacles={(1, 1)})
    ctx = toy_context(
        defenders=[(0, 0), (5, 2), (2, 5)],
        predicted=[(0, 1), (5, 5)],
        alphas=[(0.3, 0.7), (0.6, 0.4), (0.1, 0.9)],
        pursuit=np.array([[20.0, 0.0], [0.0, 20.0], [5.0, 7.0]]),
        planes=[({1}, {1}), (set(), {3}), ({1, 3}, {4})],
        params=toy_defender_params(
            cohesion=np.array([[0.0, 0.5, 0.1], [0.5, 0.0, 0.01], [0.2, 0.3, 0.0]]),
            mobility=[1.0, 2.0, 0.5], delta_th=[5.0] * 3, distance=metric,
        ),
        arena=arena,
    )
    assert_oracles_equal_defender_cost(ctx, ChainProduct([3] * 6).points())


def test_the_kept_rows_stay_few_after_a_fig3_game(fresh_fields, monkeypatch):
    """Rows are kept by relative geometry, so the first fig3 game at seed 7
    (480 pull-table, 160 pursuit and 160 barrier reads) keeps 191 pull
    tables, 84 distance rows (weight 1.0), 564 rows in all and 11 barrier
    rows.  Keyed by absolute cells, the first three kinds would keep 435,
    147 and 117."""
    row, keys = ctf._row, set()

    def seen(*key):
        keys.add(key)
        return row(*key)

    monkeypatch.setattr(ctf, "_row", seen)
    run_game(load_scenario(GOLDEN))
    distances = sum(1 for key in keys if key[1] == 1.0)
    kept = [f.cache_info().currsize for f in (ctf._pull, row, ctf._barrier)]
    assert (*kept, len(keys), distances) == (191, 564, 11, 564, 84)


def test_import_and_load_fill_no_field_table():
    """Tables are filled by the first game step that reads them, never by
    importing `latmin` or loading a scenario."""
    code = (
        "import latmin\n"
        "from latmin.scenario import bundled_scenario_path, load_scenario\n"
        "load_scenario(bundled_scenario_path('paper_fig3.cfg'))\n"
        "from conftest import FIELD_CACHES\n"
        "print([(f.__name__, f.cache_info().currsize) for f in FIELD_CACHES])\n"
    )
    # The rest of the environment is passed on, PYTHONDONTWRITEBYTECODE included.
    path = os.pathsep.join([str(Path(latmin.__file__).parents[1]), str(Path(__file__).parent)])
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=60)
    empty = [(f.__name__, 0) for f in FIELD_CACHES]
    assert len(empty) >= 9 and (run.returncode, run.stdout, run.stderr) == (0, f"{empty}\n", "")


def test_an_unknown_distance_is_rejected_naming_both_metrics():
    with pytest.raises(ValueError, match=r"distance: unknown distance 'euclid'; pick from \['manhattan', 'squared'\]"):
        toy_defender_params(distance="euclid")


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

    def test_chain_levels_pick_the_landing_cell(self):
        ctx = toy_context(defenders=[(2, 2), (4, 4)])
        assert ctx.landing[0][0 * 3 + 1] == (1, 2)
        assert ctx.landing[1][2 * 3 + 1] == (5, 4)

    def test_oracle_matches_defender_cost(self):
        ctx = toy_context(defenders=[(2, 2), (4, 4)])
        oracles, space = build_step_problem(ctx)
        for point in [(0, 0, 0, 0), (2, 2, 1, 1), (1, 0, 2, 2)]:
            actions = reference_decode(point, 2, 1)
            assert oracles[0](point) == reference_defender_cost(0, actions, ctx)
            assert oracles[1](point) == reference_defender_cost(1, actions, ctx)


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

    def test_each_defender_lands_on_its_own_slice_clamped(self, monkeypatch):
        # Random answers, a different one per agent, from starts at the edge,
        # so a defender that read another agent's slice, or skipped the
        # clamp, would land elsewhere.
        rng = np.random.default_rng(5)
        answers = []

        def solve(oracles, space, network, params):
            answers.append([tuple(rng.integers(0, 3, size=space.n_chains).tolist()) for _ in oracles])
            return answers[-1], None, None

        monkeypatch.setattr(ctf, "distributed_minimize", solve)
        s = toy_scenario(attackers_start=[], defenders_start=[(0, 1), (7, 0)])
        result = run_game(s)
        tracks = [rec.defenders for rec in result.steps] + [result.final_defenders]
        assert len(answers) == s.arena.horizon
        clamped = 0
        for before, after, points in zip(tracks, tracks[1:], answers):
            moves = [reference_decode(p, 2, 1)[i] for i, p in enumerate(points)]
            raw = [(x + ux, y + uy) for (x, y), (ux, uy) in zip(before, moves)]
            assert after == [reference_clamp(c, s.arena.size) for c in raw]
            clamped += sum(not s.arena.in_grid(c) for c in raw)
        assert clamped

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

    def test_attacker_weight_is_the_one_at_the_recorded_cells(self):
        # eta_avoid is attacker_modes against the defenders' cells at the
        # start of step k; the mode draw uses their cells after the move.
        scenario = load_scenario(GOLDEN)
        scenario = dataclasses.replace(scenario, arena=dataclasses.replace(scenario.arena, horizon=6))
        params = scenario.attacker_params
        steps = run_game(scenario).steps
        for rec in steps:
            assert rec.eta_avoid == [attacker_modes(a, rec.defenders, params)[0] for a in rec.attackers]
        drawn = [
            [attacker_modes(a, after.defenders, params)[0] for a in rec.attackers]
            for rec, after in zip(steps, steps[1:])
        ]
        assert any(rec.eta_avoid != weights for rec, weights in zip(steps, drawn))


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

    # A file's loader makes these ints; a record built in code is held to the same rule.
    NOT_INTEGERS = [7.5, "7", True, None]

    @pytest.mark.parametrize("field", ["size", "horizon"])
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_a_size_or_horizon_that_is_not_an_integer_is_refused_by_name(self, field, bad):
        fields = dict(size=6, horizon=5, zone=[(1, 5)], responsibilities=[[(1, 5)]], obstacles=set())
        with pytest.raises(ValueError, match=rf"^{field}: need an integer, got {re.escape(repr(bad))}$"):
            Arena(**{**fields, field: bad})

    @pytest.mark.parametrize("field", ["defense_zone", "obstacles"])
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_a_cell_coordinate_that_is_not_an_integer_is_refused_by_name(self, field, bad):
        cells = {"defense_zone": [(1, 5)], "obstacles": set()}
        cells[field] = [(3, 5), (bad, 4)] if field == "defense_zone" else {(bad, 4)}
        with pytest.raises(ValueError, match=rf"^{field}: cell \({re.escape(repr(bad))}, 4\) has a coordinate that is not an integer$"):
            Arena(size=6, horizon=5, zone=cells["defense_zone"], responsibilities=[[(1, 5)]],
                  obstacles=cells["obstacles"])

    def test_numpy_integers_are_held_as_python_ints(self):
        arena = Arena(size=np.int64(6), horizon=np.int32(5), zone=[(np.int64(1), 5)],
                      responsibilities=[[(1, np.int8(5))]], obstacles={(np.int16(2), 2)})
        values = [arena.size, arena.horizon, *arena.zone[0], *arena.responsibilities[0][0], *next(iter(arena.obstacles))]
        assert values == [6, 5, 1, 5, 1, 5, 2, 2]
        assert {type(v) for v in values} == {int}


class TestParamValidation:
    @pytest.mark.parametrize(
        "field", ["pursuit_gain", "cohesion", "mobility", "zeta1", "zeta2", "alpha_a_nom", "beta", "delta_th"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_defender_field_named(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field}: not finite"):
            toy_defender_params(**{field: bad})

    @pytest.mark.parametrize("alpha_f, alpha_a, field", [
        (1.5, -0.5, "alpha_f_nom"),
        (-0.5, 1.5, "alpha_f_nom"),
        (1.0, -1e-10, "alpha_a_nom"),
    ])
    def test_nominal_weights_outside_unit_interval_rejected(self, alpha_f, alpha_a, field):
        with pytest.raises(ValueError, match=rf"^{field}: nominal behavior weights must lie in \[0,1\]"):
            toy_defender_params(alpha_f_nom=alpha_f, alpha_a_nom=alpha_a)

    def test_base_mode_weight_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^eta_base_nom: nominal mode weights must lie in \[0,1\]"):
            AttackerParams(eta_avoid_nom=0.0, eta_base_nom=1.0000000005, delta_th=4.0, kappa=0.9)

    def test_a_switch_weight_that_overflows_is_refused(self):
        limit = math.log(sys.float_info.max)
        params = toy_defender_params(beta=1.0, delta_th=[5.0, limit])
        assert math.isfinite(adaptive_alpha(0.0, limit, 1.0, 0.1, 0.9)[0])
        with pytest.raises(ValueError, match=r"^delta_th: beta \* delta_th must be at most 709\.782712893, got 710$"):
            dataclasses.replace(params, delta_th=[5.0, 710.0])
        attacker = AttackerParams(eta_avoid_nom=0.7, eta_base_nom=0.3, delta_th=limit, kappa=1.0)
        assert math.isfinite(attacker_modes((0, 0), [(0, 0)], attacker)[0])
        with pytest.raises(ValueError, match=r"^delta_th: kappa \* delta_th must be at most 709\.782712893, got 720$"):
            dataclasses.replace(attacker, kappa=0.9, delta_th=800.0)

    NOT_REALS = pytest.mark.parametrize("bad", ["7", True, None, np.True_], ids=repr)

    @pytest.mark.parametrize("field", ["pursuit_gain", "zeta1", "zeta2", "alpha_f_nom", "alpha_a_nom", "beta"])
    @NOT_REALS
    def test_a_defender_scalar_that_is_not_a_real_number_is_refused_by_name(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field}: need a real number, got {re.escape(repr(bad))}$"):
            toy_defender_params(**{field: bad})

    @pytest.mark.parametrize("field", ["eta_avoid_nom", "eta_base_nom", "delta_th", "kappa"])
    @NOT_REALS
    def test_an_attacker_field_that_is_not_a_real_number_is_refused_by_name(self, field, bad):
        fields = dict(eta_avoid_nom=0.7, eta_base_nom=0.3, delta_th=4.0, kappa=0.9)
        with pytest.raises(ValueError, match=rf"^{field}: need a real number, got {re.escape(repr(bad))}$"):
            AttackerParams(**{**fields, field: bad})

    def test_numpy_scalars_are_held_as_python_floats(self):
        defender = toy_defender_params(pursuit_gain=np.int64(20), zeta1=np.float32(200.0), beta=np.float64(0.5))
        attacker = AttackerParams(eta_avoid_nom=np.float32(0.75), eta_base_nom=0.25, delta_th=np.int64(4), kappa=np.float64(0.9))
        values = [defender.pursuit_gain, defender.zeta1, defender.beta, attacker.eta_avoid_nom, attacker.delta_th, attacker.kappa]
        assert values == [20.0, 200.0, 0.5, 0.75, 4.0, 0.9]
        assert {type(v) for v in values} == {float}

    @pytest.mark.parametrize("bad", [None, 3, ["manhattan"]], ids=repr)
    def test_a_distance_that_is_not_a_string_is_refused_by_name(self, bad):
        with pytest.raises(ValueError, match=rf"^distance: need a string, got {re.escape(repr(bad))}$"):
            toy_defender_params(distance=bad)

    ARRAY_FIELDS = pytest.mark.parametrize("field", ["cohesion", "mobility", "delta_th"])

    @ARRAY_FIELDS
    @pytest.mark.parametrize("bad, kind", [
        ("x", "string"),
        ("0.5", "string"),
        ([1.0, "0.5"], "string"),
        (np.array(["1.0"]), "string"),
        (True, "boolean"),
        (np.True_, "boolean"),
        ([[0.0, True], [0.5, 0.0]], "boolean"),
        (np.array([True, False]), "boolean"),
    ], ids=repr)
    def test_an_array_field_of_strings_or_booleans_is_refused_by_name(self, field, bad, kind):
        with pytest.raises(ValueError, match=rf"^{field}: expected a number, got a {kind}$"):
            toy_defender_params(**{field: bad})

    @ARRAY_FIELDS
    @pytest.mark.parametrize("bad", [None, [1.0, None], [[0.0, None], [0.5, 0.0]]], ids=repr)
    def test_an_array_field_holding_none_is_refused_by_name_not_read_as_nan(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field}: expected a number, got null$"):
            toy_defender_params(**{field: bad})

    @ARRAY_FIELDS
    @pytest.mark.parametrize("bad", [{}, object(), [[1.0], [1.0, 2.0]], 10**400], ids=["mapping", "object", "ragged", "huge-int"])
    def test_an_array_field_that_cannot_be_read_is_refused_by_name(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field}: "):
            toy_defender_params(**{field: bad})

    def test_a_scalar_too_large_for_a_float_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^zeta1: int too large to convert to float$"):
            toy_defender_params(zeta1=10**400)

    @pytest.mark.parametrize("field", ["eta_avoid_nom", "eta_base_nom", "delta_th", "kappa"])
    def test_non_finite_attacker_field_named(self, field):
        fields = dict(eta_avoid_nom=0.7, eta_base_nom=0.3, delta_th=4.0, kappa=0.9)
        with pytest.raises(ValueError, match=rf"^{field}: not finite"):
            AttackerParams(**{**fields, field: math.nan})


def assert_oracles_equal_defender_cost(ctx, points):
    """Every step oracle equals `reference_defender_cost` byte for byte at every point.

    The builder is looked up on the module, so a patched one is the one checked.
    """
    oracles, space = ctf.build_step_problem(ctx)
    for point in points:
        actions = reference_decode(point, ctx.n_defenders, ctx.u_max)
        for i, f in enumerate(oracles):
            expected = as_bytes(reference_defender_cost(i, actions, ctx))
            assert as_bytes(f(point)) == expected, (i, point)


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
        distance=draw(st.sampled_from(sorted(DISTANCES))),
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


def step_oracles_property(**overrides):
    """The property: on random contexts, the step oracles equal the reference cost everywhere."""

    @settings(max_examples=60, deadline=None, database=None, **overrides)
    @given(step_contexts())
    def check(ctx):
        space = ChainProduct([3] * (2 * ctx.n_defenders))
        assert_oracles_equal_defender_cost(ctx, space.points())

    return check


test_step_oracles_equal_reference_cost_at_every_point = step_oracles_property()


def mutant_cost_source(find, replace):
    """`ctf._cost_source`, the template of every defender's cost, compiled
    from its own source with one piece of text replaced."""
    source = inspect.getsource(ctf._cost_source)
    assert source.count(find) == 1, find
    namespace = dict(vars(ctf))
    exec(compile(source.replace(find, replace), ctf.__file__, "exec"), namespace)
    return namespace["_cost_source"]


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


def team_context(n, lonely=None):
    """n defenders in two rows on a (2n + 4)-square grid, each pulled toward
    every teammate by a distinct weight, so the order of the pulls shows in
    their sum; defender `lonely`, if given, has a zero cohesion row and
    column."""
    rng = np.random.default_rng(n)
    size = 2 * n + 4
    zone = [(2 + c, size - 1) for c in range(2 * n)]
    defenders = [(2 + 2 * i, size - 3 - i % 2) for i in range(n)]
    arena = Arena(
        size=size, horizon=12, zone=zone,
        responsibilities=[zone[2 * i:2 * i + 2] for i in range(n)], obstacles={(3, size - 4)},
    )
    cohesion = rng.uniform(0.01, 1.0, size=(n, n))
    np.fill_diagonal(cohesion, 0.0)
    if lonely is not None:
        cohesion[lonely, :] = cohesion[:, lonely] = 0.0
    predicted = [(1, 3), (size - 2, 5)]
    return toy_context(
        defenders=defenders,
        predicted=predicted,
        alphas=[(a, 1.0 - a) for a in rng.uniform(0.0, 1.0, size=n).tolist()],
        pursuit=np.where(np.arange(n)[:, None] % 4 == np.arange(2), 20.0, 0.0),
        planes=[avoidance_planes(i, defenders, arena.obstacles) for i in range(n)],
        params=toy_defender_params(cohesion=cohesion, mobility=[1.0] * n, delta_th=[20.0] * n),
        arena=arena,
    )


class TestGameScaleRounds:
    """The consensus round against the per-agent loop at the games' row
    lengths: r = 16 with 4 agents and r = 32 with 8."""

    @staticmethod
    def assert_rounds_match_the_per_agent_loop(ctx, matrix, params):
        oracles, space = build_step_problem(ctx)
        costs = [f.fn for f in oracles]
        expected = solve_bytes(reference_distributed_minimize, space, costs, matrix, params)
        assert solve_bytes(distributed_minimize, space, costs, matrix, params) == expected

    def test_fig3_step_zero(self):
        scenario = load_scenario(GOLDEN)
        assert scenario.solver.iterations == 20
        self.assert_rounds_match_the_per_agent_loop(fig3_step_zero(), scenario.network, scenario.solver)

    def test_swarm8_step_on_a_line(self):
        params = SolverParams(iterations=20, gamma=0.1, seed=7)
        matrix = WeightMatrix(line_matrix(8), eta=0.1)
        self.assert_rounds_match_the_per_agent_loop(swarm8_context(), matrix, params)


@st.composite
def cohesion_matrices(draw):
    """Non-negative cohesion weights for 1-5 defenders, with zeros and -0.0 on and off the diagonal."""
    n = draw(st.integers(1, 5))
    weight = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 2.0)
    return np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n))).reshape(n, n)


class TestStepOracles:
    def test_fig3_step_zero_every_point(self):
        ctx = fig3_step_zero()
        oracles, space = build_step_problem(ctx)
        assert space.cardinality == 3**8
        assert_oracles_equal_defender_cost(ctx, space.points())

    def test_every_fig3_term_is_submodular_on_its_own(self, monkeypatch):
        # A lower bound from the agents' subgradients needs each agent's own
        # term submodular, not only their sum.
        reports = []

        def build_and_check(ctx):
            oracles, space = build_step_problem(ctx)
            reports.extend(check_submodular(Oracle(f.fn, space)) for f in oracles)
            return oracles, space

        monkeypatch.setattr(ctf, "build_step_problem", build_and_check)
        result = run_game(load_scenario(GOLDEN))
        assert len(reports) == 4 * len(result.steps) == 160
        assert all(r.is_submodular and r.points_checked == 28 * 2**2 * 3**6 for r in reports)

    def test_swarm8_sized_random_points(self):
        ctx = swarm8_context()
        assert sum(len(x) + len(y) for x, y in ctx.planes) >= 8
        points = np.random.default_rng(11).integers(0, 3, size=(500, 16)).tolist()
        assert_oracles_equal_defender_cost(ctx, [tuple(p) for p in points])

    @pytest.mark.parametrize("lonely", [None, 5])
    def test_sixteen_defenders_at_random_points(self, lonely):
        ctx = team_context(16, lonely)
        pulls = [int(np.count_nonzero(row)) for row in ctx.params.cohesion]
        assert pulls == [15] * 16 if lonely is None else [0 if i == 5 else 14 for i in range(16)]
        points = np.random.default_rng(5).integers(0, 3, size=(150, 32)).tolist()
        assert_oracles_equal_defender_cost(ctx, [tuple(p) for p in points])

    def test_property_catches_cohesion_added_after_the_barrier(self, monkeypatch, fresh_fields):
        mutant = mutant_cost_source("((head[a] + c) + barrier[a])", "((head[a] + barrier[a]) + c)")
        monkeypatch.setattr(ctf, "_cost_source", mutant)
        with pytest.raises(AssertionError):
            step_oracles_property(phases=[Phase.generate])()

    def test_swarm8_points_catch_pulls_added_in_decreasing_j(self, monkeypatch, fresh_fields):
        # Two pulls commute, so the 2-3-defender property cannot see this.
        mutant = mutant_cost_source("for j in partners]", "for j in partners[::-1]]")
        monkeypatch.setattr(ctf, "_cost_source", mutant)
        with pytest.raises(AssertionError):
            self.test_swarm8_sized_random_points()

    def test_each_layout_is_compiled_once_per_process(self, monkeypatch, fresh_fields):
        layouts, source = [], ctf._cost_source

        def counted(k, partners, side):
            layouts.append((k, partners))
            return source(k, partners, side)

        monkeypatch.setattr(ctf, "_cost_source", counted)
        first, _ = build_step_problem(fig3_step_zero())
        again, _ = build_step_problem(fig3_step_zero())
        # fig3's cohesion matrix has no zero off the diagonal.
        assert layouts == [(2 * i, tuple(j for j in range(4) if j != i)) for i in range(4)]
        assert [f.fn.__code__ for f in first] == [f.fn.__code__ for f in again]
        assert ctf._cost_maker.cache_info()[:2] == (4, 4)

    @settings(max_examples=100, deadline=None, database=None)
    @given(cohesion_matrices())
    def test_each_defenders_partners_are_its_mixing_neighbors(self, weights):
        # Zeros and -0.0 off the diagonal are no partner, as they are no neighbor in mixing.
        n = len(weights)
        arena = Arena(size=6, horizon=8, zone=[(1, 5)], responsibilities=[[(1, 5)]] * n, obstacles=set())
        params = toy_defender_params(cohesion=weights, mobility=[1.0] * n, delta_th=[5.0] * n)
        layouts, source = [], ctf._cost_source

        def counted(k, partners, side):
            layouts.append((k, partners))
            return source(k, partners, side)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ctf, "_cost_source", counted)
            ctf._cost_maker.cache_clear()
            build_step_problem(toy_context([(i, 2) for i in range(n)], params=params, arena=arena))
        ctf._cost_maker.cache_clear()
        assert layouts == [(2 * i, partners) for i, partners in enumerate(_mixing_plan(weights)[0])]

    def test_the_cost_code_names_its_layout(self):
        oracles, _ = build_step_problem(swarm8_context())
        # swarm8 has cohesion[3][5] == 0, so defender 3 does not pull toward 5.
        assert oracles[3].fn.__code__.co_filename == "<defender cost: chain 6, partners (0, 1, 2, 4, 6, 7), side 3>"
        with pytest.raises(IndexError) as raised:
            oracles[3].fn((0,) * 6 + (3, 0) + (0,) * 8)
        assert raised.traceback[-1].path == oracles[3].fn.__code__.co_filename

    def test_oracles_capture_the_context_when_built(self):
        ctx = toy_context(defenders=[(2, 2), (4, 4)], planes=[({3}, set()), (set(), {3})])
        oracles, _ = build_step_problem(ctx)
        before = [f((0, 2, 1, 1)) for f in oracles]
        ctx.defenders[0] = (0, 0)
        ctx.planes[0] = (set(), set())
        ctx.params.mobility[:] = 9.0
        assert [f((0, 2, 1, 1)) for f in oracles] == before

    def test_fig3_game_and_check_match_the_defender_cost_closure(self, tmp_path, monkeypatch, capsys, fresh_fields):
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
