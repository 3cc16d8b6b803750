"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import dataclasses
import io
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from latmin import (
    ChainProduct,
    Oracle,
    Profile,
    SolverParams,
    WeightMatrix,
    brute_force_minimize,
    check_submodular,
    cross_difference,
    distributed_minimize,
    greedy_extension,
    project_monotone_box,
    uniform_random_profile,
    validate_weight_matrix,
)
from latmin.cli import write_events, write_trajectories
from latmin.ctf import StepContext, build_step_problem, run_game
from latmin.scenario import bundled_scenario_path, load_scenario

from helpers import (
    grid_projection_oracle,
    left_sum,
    line_matrix,
    random_chain_product,
    random_submodular_oracle,
    random_table_oracle,
)

GOLDEN = bundled_scenario_path("paper_fig3.cfg")

LINE_GRAPH_MATRIX = [
    [0.7, 0.3, 0.0, 0.0],
    [0.3, 0.6, 0.1, 0.0],
    [0.0, 0.1, 0.6, 0.3],
    [0.0, 0.0, 0.3, 0.7],
]


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --------------------------------------------------------------------------
# shared expensive computations (criterion 8 reruns them for determinism)

def solve_instance(trial: int):
    rng = np.random.default_rng(100 + 7 * trial)
    space = random_chain_product(rng, max_chains=4, max_size=5)
    n_agents = int(rng.integers(2, 5))
    oracles = [random_submodular_oracle(space, rng) for _ in range(n_agents)]
    total = Oracle(lambda x: left_sum(f(x) for f in oracles), space)
    best, _ = brute_force_minimize(total)
    matrix = WeightMatrix(line_matrix(n_agents), eta=0.1)
    params = SolverParams(
        iterations=2000, gamma=0.2, schedule="diminishing", t_hat=0.7, seed=trial
    )
    points, values, trace = distributed_minimize(oracles, space, matrix, params)
    return best, values, trace


def trace_csv_bytes(trace) -> bytes:
    buf = io.StringIO()
    for k in range(trace.ext_values.shape[0]):
        row = [f"{v:.17g}" for v in trace.ext_values[k]]
        row += [f"{trace.disagreement[k]:.17g}", f"{trace.best_rounded[k]:.17g}"]
        buf.write(",".join(row) + "\n")
    return buf.getvalue().encode()


def run_solver_population():
    exact = 0
    worst_rel = 0.0
    digest = []
    for trial in range(50):
        best, values, trace = solve_instance(trial)
        rel = max(abs(v - best) / max(abs(best), 1e-12) for v in values)
        worst_rel = max(worst_rel, rel)
        if all(v == best for v in values):
            exact += 1
        digest.append(trace_csv_bytes(trace))
    return exact, worst_rel, b"".join(digest)


def golden_scenario(delta_th):
    data = yaml.safe_load(GOLDEN.read_text())
    scenario = load_scenario(GOLDEN)
    if np.isscalar(delta_th):
        delta_th = [float(delta_th)] * 4
    return dataclasses.replace(
        scenario,
        defender_params=dataclasses.replace(
            scenario.defender_params, delta_th=np.asarray(delta_th, dtype=float)
        ),
    )


def run_golden(delta_th):
    result = run_game(golden_scenario(delta_th))
    with tempfile.TemporaryDirectory() as tmp:
        traj_path = Path(tmp) / "trajectories.csv"
        events_path = Path(tmp) / "events.csv"
        write_trajectories(traj_path, result)
        write_events(events_path, result)
        return result, traj_path.read_bytes(), events_path.read_bytes()


@pytest.fixture(scope="module")
def solver_population():
    return run_solver_population()


@pytest.fixture(scope="module")
def golden_runs():
    settings = [5, 10, 15, 20, (20.0, 8.0, 8.0, 20.0)]
    return {str(d): run_golden(d) for d in settings}


# --------------------------------------------------------------------------

def test_criterion_1_extension_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    checked = 0
    worst = 0.0
    while checked < 200:
        space = random_chain_product(rng, max_chains=5, max_size=5)
        f = random_table_oracle(space, rng)
        points = list(space.points())
        for idx in rng.choice(len(points), size=min(10, len(points)), replace=False):
            x = points[int(idx)]
            value = greedy_extension(f, Profile.from_point(space, x), space).value
            worst = max(worst, abs(value - f(x)) / max(abs(f(x)), 1e-12))
            checked += 1
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-12 and elapsed < 5.0,
        f"{checked} degenerate profiles, worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_convexity_iff_submodularity():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    violations = 0
    for fn in range(10):
        space = random_chain_product(rng, max_chains=4, max_size=5)
        f = random_submodular_oracle(space, rng)
        for pair in range(1000):
            a = uniform_random_profile(space, (fn, pair, 0))
            b = uniform_random_profile(space, (fn, pair, 1))
            mid = Profile(space, (a.values + b.values) / 2)
            lhs = greedy_extension(f, mid, space).value
            rhs = (
                greedy_extension(f, a, space).value + greedy_extension(f, b, space).value
            ) / 2
            if lhs > rhs + 1e-9:
                violations += 1

    space = ChainProduct([2, 2])
    product = Oracle(lambda x: float(x[0] * x[1]), space)
    positive_cross = cross_difference(product, (0, 0), 0, 1) > 0
    found_pair = False
    for trial in range(500):
        a = uniform_random_profile(space, 2 * trial)
        b = uniform_random_profile(space, 2 * trial + 1)
        mid = Profile(space, (a.values + b.values) / 2)
        lhs = greedy_extension(product, mid, space).value
        rhs = (
            greedy_extension(product, a, space).value
            + greedy_extension(product, b, space).value
        ) / 2
        if lhs > rhs + 1e-9:
            found_pair = True
            break
    elapsed = time.monotonic() - start
    report(
        2,
        violations == 0 and (found_pair or positive_cross) and elapsed < 30.0,
        f"0 violations expected, saw {violations}; non-submodular witness "
        f"(pair={found_pair}, cross={positive_cross}), {elapsed:.1f}s",
    )


def test_criterion_3_solver_exactness(solver_population):
    start = time.monotonic()
    exact, worst_rel, _ = solver_population
    elapsed = time.monotonic() - start
    report(
        3,
        exact >= 48 and worst_rel <= 0.05,
        f"exact {exact}/50 (need >=48), worst relative error {worst_rel:.4f} (need <=0.05)",
    )


def test_criterion_4_projection_matches_grid_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        # entries on a 12e-3 lattice keep every clipped block mean on the
        # 1e-3 oracle grid, so the comparison is exact up to round-off
        v = rng.integers(-100, 200, size=m) * 0.012
        gap = np.max(np.abs(project_monotone_box(v) - grid_projection_oracle(v, 1e-3)))
        worst = max(worst, float(gap))
    elapsed = time.monotonic() - start
    report(
        4,
        worst <= 1e-6 and elapsed < 60.0,
        f"100 vectors, worst coordinate gap {worst:.2e} (need <=1e-6), {elapsed:.1f}s",
    )


def test_criterion_5_network_validation():
    good = validate_weight_matrix(LINE_GRAPH_MATRIX, eta=0.1)
    identity = validate_weight_matrix(np.eye(4), eta=0.1)
    small_edge = validate_weight_matrix(
        [
            [0.7, 0.3, 0.0, 0.0],
            [0.3, 0.65, 0.05, 0.0],
            [0.0, 0.05, 0.65, 0.3],
            [0.0, 0.0, 0.3, 0.7],
        ],
        eta=0.1,
    )
    row_only = validate_weight_matrix([[0.6, 0.4], [0.2, 0.8]], eta=0.1)
    ok = (
        good.ok
        and (not identity.strongly_connected)
        and identity.diagonal_at_least_eta
        and identity.edges_at_least_eta
        and identity.doubly_stochastic
        and small_edge.strongly_connected
        and small_edge.diagonal_at_least_eta
        and (not small_edge.edges_at_least_eta)
        and small_edge.doubly_stochastic
        and row_only.strongly_connected
        and row_only.diagonal_at_least_eta
        and row_only.edges_at_least_eta
        and (not row_only.doubly_stochastic)
    )
    report(
        5,
        ok,
        "line-graph matrix passes all four conditions; each counterexample "
        "fails exactly its intended condition",
    )


def test_criterion_6_step_cost_submodular():
    scenario = load_scenario(GOLDEN)
    ctx = StepContext(
        arena=dataclasses.replace(
            scenario.arena,
            size=6,
            zone=[(1, 5), (2, 5), (3, 5), (4, 5)],
            responsibilities=[[(1, 5), (2, 5)], [(3, 5), (4, 5)]],
            obstacles={(2, 3)},
            horizon=10,
        ),
        u_max=1,
        defenders=[(1, 2), (4, 2)],
        predicted=[(3, 1), (5, 4)],
        alphas=[(0.3, 0.7), (0.9, 0.1)],
        pursuit=np.array([[20.0, 0.0], [0.0, 20.0]]),
        planes=[({2}, set()), (set(), {3})],
        params=scenario.defender_params,
    )
    oracles, space = build_step_problem(ctx)
    assert space.cardinality == 81
    total = Oracle(lambda x: oracles[0](x) + oracles[1](x), space)
    rep = check_submodular(total, space)

    quad_space = ChainProduct([4, 4, 4, 4])
    quad = Oracle(lambda z: (z[0] - z[2]) ** 2 + (z[1] - z[3]) ** 2, quad_space)
    exact_minus_two = all(
        cross_difference(quad, x, i, j) == -2.0
        for x in [(0, 0, 0, 0), (1, 2, 0, 1), (2, 2, 2, 2)]
        for i, j in [(0, 2), (1, 3)]
    )
    report(
        6,
        rep.is_submodular and exact_minus_two,
        f"assembled 2-defender step cost submodular on 3^4 lattice "
        f"({rep.points_checked} cross differences); same-axis quadratic "
        f"cross difference is exactly -2",
    )


def test_criterion_7_golden_runs(golden_runs):
    scenario = load_scenario(GOLDEN)
    zone = set(scenario.arena.zone)
    obstacles = scenario.arena.obstacles
    problems = []
    per_run = []
    for key, (result, _, _) in golden_runs.items():
        steps_ok = len(result.steps) == 40 and result.outcome == "defense"
        collisions = [e for e in result.events if e.kind == "collision_check"]
        zone_breach = any(
            tuple(p) in zone for rec in result.steps for p in rec.attackers
        ) or any(tuple(p) in zone for p in result.final_attackers)
        obstacle_hit = any(
            tuple(p) in obstacles for rec in result.steps for p in rec.defenders
        ) or any(tuple(p) in obstacles for p in result.final_defenders)
        shared = any(
            len(set(rec.defenders)) != len(rec.defenders) for rec in result.steps
        ) or len(set(result.final_defenders)) != 4
        ok = steps_ok and not collisions and not zone_breach and not obstacle_hit and not shared
        per_run.append(f"dth={key}: steps={len(result.steps)}")
        if not ok:
            problems.append(key)

    centroids = [
        (sum(c[0] for c in cells) / len(cells), sum(c[1] for c in cells) / len(cells))
        for cells in scenario.arena.responsibilities
    ]
    result5 = golden_runs["5"][0]
    leash = 0.0
    for rec in result5.steps:
        for i, p in enumerate(rec.defenders):
            leash = max(leash, abs(p[0] - centroids[i][0]) + abs(p[1] - centroids[i][1]))
    for i, p in enumerate(result5.final_defenders):
        leash = max(leash, abs(p[0] - centroids[i][0]) + abs(p[1] - centroids[i][1]))

    report(
        7,
        not problems and leash <= 6.0,
        f"five 40-step runs clean ({'; '.join(per_run)}); "
        f"delta_th=5 max centroid distance {leash} (need <=6)",
    )


def test_criterion_8_determinism(solver_population, golden_runs):
    _, _, first_digest = solver_population
    _, _, second_digest = run_solver_population()
    solver_ok = first_digest == second_digest

    golden_ok = True
    for key in ("5", "20"):
        _, traj_a, ev_a = golden_runs[key]
        _, traj_b, ev_b = run_golden(5 if key == "5" else 20)
        golden_ok = golden_ok and traj_a == traj_b and ev_a == ev_b

    report(
        8,
        solver_ok and golden_ok,
        f"solver traces byte-identical across rerun: {solver_ok}; "
        f"golden-run CSVs byte-identical across rerun: {golden_ok}",
    )
