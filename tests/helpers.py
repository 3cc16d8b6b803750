"""Shared test fixtures: instance generators and independent oracles."""

from __future__ import annotations

import itertools
import math
import struct
import types

import numpy as np

from latmin import (
    ChainProduct,
    Oracle,
    Profile,
    SolverParams,
    WeightMatrix,
    cross_difference,
    greedy_extension,
    theta,
    uniform_random_profile,
)
from latmin.ctf import StepContext
from latmin.extension import FEASIBILITY_TOL, ExtensionResult
from latmin.lattice import DEFAULT_STRICTNESS_TOL

Cell = tuple[int, int]


def manhattan(a: Cell, b: Cell) -> float:
    return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))


def squared_euclidean(a: Cell, b: Cell) -> float:
    return float((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)


# The scalar distances a `DefenderParams.distance` names, one cell pair per call.
DISTANCES = {
    "manhattan": manhattan,
    "squared": squared_euclidean,
}


def cell_distances(metric: str, a, b) -> np.ndarray:
    """The `metric` distance between cells, |dx| + |dy| ("manhattan") or
    dx^2 + dy^2 ("squared") cast to float, elementwise over integer arrays
    whose last axis is (x, y); the other axes broadcast as in `a - b`.  The
    broadcast reference that the game's kept rows are checked against."""
    terms = {"manhattan": np.abs, "squared": np.square}[metric](np.subtract(a, b))
    return (terms[..., 0] + terms[..., 1]).astype(float)


def left_sum(values) -> float:
    """Floats added one at a time from 0.0, left to right: `sum()` before Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def as_bytes(value) -> bytes:
    """A float's IEEE bytes, so that 0.0 and -0.0 differ."""
    return struct.pack("<d", float(value))


def step_size(k: int, params: SolverParams) -> float:
    """Step length for round k (1-based), one round at a time: the reference for the
    step sizes a solve lists before its first round."""
    if k < 1:
        raise ValueError("round index starts at 1")
    if params.schedule == "constant":
        return params.gamma
    return params.gamma / math.sqrt(k)


def line_matrix(n):
    """Consensus weights on a path of n agents: 0.3 to each neighbor, the rest on the diagonal."""
    if n == 1:
        return [[1.0]]
    a = np.eye(n)
    for i in range(n - 1):
        a[i, i] -= 0.3
        a[i + 1, i + 1] -= 0.3
        a[i, i + 1] = a[i + 1, i] = 0.3
    return a


def solve_bytes(solver, space, costs, matrix, params, initial=None):
    """Everything a solve reports, as bytes where a float's sign of zero counts.

    `costs` holds each agent's cost: a value table over the points of
    `space`, or a function of a point.  Each solve gets fresh oracles, so
    their call counts are its own.
    """
    fs = [Oracle(cost.__getitem__ if isinstance(cost, dict) else cost, space) for cost in costs]
    points, values, trace = solver(fs, space, matrix, params, initial=initial)
    return (
        repr(points),
        [as_bytes(v) for v in values],
        trace.ext_values.tobytes(),
        trace.disagreement.tobytes(),
        trace.best_rounded.tobytes(),
        [f.calls for f in fs],
    )


def random_table_oracle(space: ChainProduct, rng, low=-5.0, high=5.0) -> Oracle:
    """An arbitrary (generally non-submodular) cost from a frozen value table."""
    table = {x: float(v) for x, v in zip(space.points(), rng.uniform(low, high, space.cardinality))}
    return Oracle(table.__getitem__, space)


def random_submodular_fn(space: ChainProduct, rng):
    """A random submodular cost built from closure-preserving pieces.

    Mixes per-chain terms of arbitrary shape (cross differences vanish),
    pairwise separation penalties |x_i - x_j| or (x_i - x_j)^2 and
    complement couplings -a*x_i*x_j (all with non-positive cross
    differences), and a concave function of the coordinate sum.
    """
    n = space.n_chains
    per_chain = [rng.uniform(0.0, 3.0, size=m) for m in space.dims]

    pair_terms = []
    n_pairs = int(rng.integers(1, n + 1)) if n >= 2 else 0
    for _ in range(n_pairs):
        i, j = rng.choice(n, size=2, replace=False)
        kind = rng.integers(3)
        a = float(rng.uniform(0.05, 0.4))
        pair_terms.append((int(i), int(j), int(kind), a))

    concave_w = float(rng.uniform(0.0, 1.0))

    def fn(x):
        total = left_sum(float(per_chain[i][xi]) for i, xi in enumerate(x))
        for i, j, kind, a in pair_terms:
            if kind == 0:
                total += a * abs(x[i] - x[j])
            elif kind == 1:
                total += a * (x[i] - x[j]) ** 2
            else:
                total -= a * x[i] * x[j]
        total += concave_w * np.sqrt(1.0 + sum(x))
        return total

    return fn


def random_submodular_oracle(space: ChainProduct, rng) -> Oracle:
    return Oracle(random_submodular_fn(space, rng), space)


def random_chain_product(rng, max_chains=4, max_size=5, min_chains=2) -> ChainProduct:
    n = int(rng.integers(min_chains, max_chains + 1))
    return ChainProduct([int(m) for m in rng.integers(2, max_size + 1, size=n)])


def grid_projection_oracle(v, pitch=1e-3) -> np.ndarray:
    """Exhaustive search for the closest non-increasing [0,1] vector on a grid.

    Dynamic program over positions with the running grid level as state;
    equivalent to enumerating every feasible grid vector.  Exact for inputs
    whose true projection lies on the grid.
    """
    v = np.asarray(v, dtype=float)
    grid = np.round(np.arange(0.0, 1.0 + pitch / 2, pitch), 9)
    n_levels = grid.size
    # cost[g] = best total cost of the suffix starting at this position,
    # given the previous (left) entry sits at grid level g or above.
    best = np.zeros(n_levels)
    choice = []
    for k in range(v.size - 1, -1, -1):
        local = (grid - v[k]) ** 2 + best
        # Entry k may use any level <= its left neighbor's level; precompute
        # the best admissible suffix for each neighbor level.
        idx = np.zeros(n_levels, dtype=int)
        run_best = np.inf
        run_idx = 0
        for g in range(n_levels):
            if local[g] < run_best:
                run_best = local[g]
                run_idx = g
            best[g] = run_best
            idx[g] = run_idx
        choice.append(idx)
    choice.reverse()
    out = np.zeros(v.size)
    level = n_levels - 1
    for k in range(v.size):
        level = int(choice[k][level])
        out[k] = grid[level]
    return out


def reference_check_submodular(f: Oracle, space: ChainProduct, tol=DEFAULT_STRICTNESS_TOL):
    """The point-by-point sweep over the public `cross_difference`.

    Returns (violations, points_checked) in the order the sweep meets them:
    by point in row-major order, then by chain pair.
    """
    violations = []
    checked = 0
    n = space.n_chains
    for x in space.points():
        for i in range(n):
            if x[i] + 1 >= space.dims[i]:
                continue
            for j in range(i + 1, n):
                if x[j] + 1 >= space.dims[j]:
                    continue
                checked += 1
                d = cross_difference(f, x, i, j)
                if d > tol:
                    violations.append((x, (i, j), d))
    return violations, checked


def reference_brute_force(f: Oracle, space: ChainProduct):
    """Minimum and all minimizers by a scan in row-major order."""
    best = math.inf
    argmins = set()
    for x in space.points():
        v = f(x)
        if v < best:
            best = v
            argmins = {x}
        elif v == best:
            argmins.add(x)
    return best, argmins


def forest_minimum(unary, edges, pairwise) -> float:
    """The least total of unary[v][x_v] over every vertex v plus
    pairwise[e][x_i][x_j] over every edge e = (i, j), by min-sum dynamic
    programming from the leaves up, each tree rooted at its least vertex.
    `edges` must form a forest on the vertices 0 .. len(unary) - 1."""
    belief = [np.array(u, dtype=float) for u in unary]
    # around[v]: each neighbor u of v with the edge's table indexed [x_v][x_u].
    around = [[] for _ in belief]
    for (i, j), table in zip(edges, pairwise, strict=True):
        table = np.asarray(table, dtype=float)
        around[i].append((j, table))
        around[j].append((i, table.T))
    total, seen, trees = 0.0, set(), 0
    for root in range(len(belief)):
        if root in seen:
            continue
        seen.add(root)
        trees += 1
        # Each vertex after its parent, with the table from the parent to it.
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            for u, table in around[v]:
                if u not in seen:
                    seen.add(u)
                    order.append((v, u, table))
                    stack.append(u)
        for parent, v, table in reversed(order):
            belief[parent] += (table + belief[v]).min(axis=1)
        total += belief[root].min().item()
    if len(edges) != len(belief) - trees:
        raise ValueError("edges: not a forest")
    return total


def reference_check_row(values: list[float], space: ChainProduct) -> None:
    """The row check as two generators over the entries, then a chain-by-chain
    numpy pass that raises the message naming the first offending chain."""
    lo, hi = -FEASIBILITY_TOL, 1.0 + FEASIBILITY_TOL
    # Written as "not inside" so that NaN entries count as outside.
    if all(lo <= v <= hi for v in values) and not any(
        values[k + 1] - values[k] > FEASIBILITY_TOL for k in space.in_chain_steps
    ):
        return
    for i, (start, end) in enumerate(itertools.pairwise(space.offsets)):
        p = np.array(values[start:end])
        if not np.all((p >= lo) & (p <= hi)):
            raise ValueError(f"profile chain {i} leaves [0,1]: {p}")
        if np.any(np.diff(p) > FEASIBILITY_TOL):
            raise ValueError(f"profile chain {i} is not non-increasing: {p}")


def reference_project_monotone_box(v) -> np.ndarray:
    """Pool adjacent violators on numpy entries, np.clip, running minimum."""
    means: list[float] = []
    counts: list[int] = []
    for x in np.asarray(v, dtype=float):
        means.append(float(x))
        counts.append(1)
        while len(means) > 1 and means[-2] < means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    out = np.clip(np.repeat(means, counts), 0.0, 1.0)
    np.minimum.accumulate(out, out=out)
    return out


def reference_project(values, space: ChainProduct) -> np.ndarray:
    """`reference_project_monotone_box` on each chain of a flat vector in turn."""
    return np.concatenate(
        [reference_project_monotone_box(values[start:end]) for start, end in itertools.pairwise(space.offsets)]
    )


def reference_centralized_minimize(f: Oracle, space: ChainProduct, params: SolverParams):
    """A single-agent projected-subgradient loop with no mixing step.

    Returns (point, value, ext_values, best_rounded) for comparison with
    `centralized_minimize`, which runs the consensus loop with one agent.
    """
    rho = uniform_random_profile(space, params.seed)
    ext_values = np.zeros((params.iterations, 1))
    best_rounded = np.zeros(params.iterations)
    best = math.inf
    for k in range(1, params.iterations + 1):
        gamma_k = step_size(k, params)
        res = greedy_extension(f, rho, space)
        ext_values[k - 1, 0] = res.value
        rho = Profile(space, reference_project(rho.values - gamma_k * res.subgradient, space))
        best = min(best, f(theta(rho, params.t_hat)))
        best_rounded[k - 1] = best
    point = theta(rho, params.t_hat)
    return point, f(point), ext_values, best_rounded


def reference_memoized(f: Oracle) -> Oracle:
    """A memo in front of f that is itself an `Oracle`.

    Every request passes two `Oracle.__call__` layers.
    """
    values: dict[tuple[int, ...], float] = {}

    def lookup(point):
        value = values.get(point)
        if value is None:
            value = values[point] = f(point)
        return value

    return Oracle(lookup, f.space)


def reference_mix_row(state: np.ndarray, weights_row: np.ndarray, self_index: int) -> np.ndarray:
    """One agent's mixed profile: own row plus each neighbor's correction in index order."""
    own = state[self_index]
    mixed = own.copy()
    for j, w in enumerate(weights_row):
        if j != self_index and w != 0.0:
            mixed += w * (state[j] - own)
    return mixed


def reference_strongly_connected(support: np.ndarray) -> bool:
    """Whether a depth-first search from every agent reaches all agents along `support`'s edges."""
    n = support.shape[0]
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(support[u]):
                if v not in seen:
                    seen.add(int(v))
                    stack.append(int(v))
        if len(seen) < n:
            return False
    return True


def reference_mixing_plan(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero off-diagonal weight as (agent, neighbor, weight), listed entry by entry."""
    agents, neighbors, ws = [], [], []
    for i, row in enumerate(weights.tolist()):
        for j, w in enumerate(row):
            if j != i and w != 0.0:
                agents.append(i)
                neighbors.append(j)
                ws.append(w)
    return np.array(agents, dtype=np.intp), np.array(neighbors, dtype=np.intp), np.array(ws)[:, None]


def reference_distributed_minimize(
    oracles: list[Oracle],
    space: ChainProduct,
    matrix: WeightMatrix,
    params: SolverParams,
    initial: list[Profile] | None = None,
    extension=greedy_extension,
):
    """The consensus loop one agent at a time: per-row mixing, `extension`
    (`greedy_extension` by default), chain-by-chain
    `reference_project_monotone_box`, `theta`, `np.linalg.norm` and a
    two-layer memo.  It prices the final points, then every round's
    rounded points for `best_rounded` in round then agent order.

    Returns (points, values, trace) like `distributed_minimize`, the trace
    a namespace of the three arrays.
    """
    a = matrix.entries
    n_agents = len(oracles)
    starts = [uniform_random_profile(space, params.seed)] * n_agents if initial is None else initial
    for p in starts:
        p.validate(space)
    state = np.array([p.values for p in starts])
    oracles = [reference_memoized(f) for f in oracles]

    def total_cost(point) -> float:
        return left_sum(f(point) for f in oracles) if n_agents > 1 else oracles[0](point)

    ext_values = np.zeros((params.iterations, n_agents))
    disagreement = np.zeros(params.iterations)
    rounded = []
    for k in range(1, params.iterations + 1):
        gamma_k = step_size(k, params)
        new_state = np.empty_like(state)
        for i, f in enumerate(oracles):
            mixed = reference_mix_row(state, a[i], i)
            res = extension(f, Profile(space, mixed), space)
            ext_values[k - 1, i] = res.value
            new_state[i] = reference_project(mixed - gamma_k * res.subgradient, space)
        state = new_state
        pairs = itertools.combinations(state, 2)
        disagreement[k - 1] = max((float(np.linalg.norm(p - q)) for p, q in pairs), default=0.0)
        rounded.append([theta(Profile(space, row), params.t_hat) for row in state])
    points = rounded[-1]
    values = [total_cost(x) for x in points]
    # The running minimum is priced after the final values, as a solve's trace prices it when read.
    best_rounded = np.zeros(params.iterations)
    best = math.inf
    for k, round_points in enumerate(rounded):
        for x in round_points:
            best = min(best, total_cost(x))
        best_rounded[k] = best
    trace = types.SimpleNamespace(ext_values=ext_values, disagreement=disagreement, best_rounded=best_rounded)
    return points, values, trace


def reference_greedy_extension(f: Oracle, space: ChainProduct, parts: list[np.ndarray]):
    """The extension on a list of per-chain vectors, sorting (value, chain, position) tuples.

    Returns (value, per-chain subgradients, walk points, sorted entries),
    each entry (value, chain, 1-based position).  No feasibility check.
    """
    entries = [(v, i, j + 1) for i, part in enumerate(parts) for j, v in enumerate(part.tolist())]
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    x = [0] * space.n_chains
    points = [tuple(x)]
    prev = f(points[0])
    value = prev
    subgradient = [np.zeros(m - 1) for m in space.dims]
    for t, i, _ in entries:
        x[i] += 1
        points.append(tuple(x))
        cur = f(points[-1])
        step = cur - prev
        value += t * step
        subgradient[i][x[i] - 1] = step
        prev = cur
    return float(value), subgradient, points, entries


def reference_steps_extension(f: Oracle, rho: Profile, space: ChainProduct) -> ExtensionResult:
    """The extension as priced from a list of f-steps: one walk along the stable
    descending sort asks f for every point and records each step in visit
    order, and the value adds row[k] times the k-th visit's step to f(bottom).
    No feasibility check."""
    values = rho.values.tolist()
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    x = [0] * space.n_chains
    bottom = prev = f(tuple(x))
    subgradient = [0.0] * space.sort_length
    steps = []
    for k in order:
        i = space.chain_of[k]
        x[i] += 1
        cur = f(tuple(x))
        steps.append(cur - prev)
        subgradient[space.offsets[i] + x[i] - 1] = cur - prev
        prev = cur
    value = bottom
    for k, step in zip(order, steps):
        value += values[k] * step
    return ExtensionResult(value=value, subgradient=np.array(subgradient))


def walk_points(space: ChainProduct, order) -> list[tuple[int, ...]]:
    """The r + 1 points the extension's walk visits along an order of flat
    indices: the bottom, then one unit step on each index's chain in turn."""
    x = [0] * space.n_chains
    points = [tuple(x)]
    for k in order:
        x[space.chain_of[k]] += 1
        points.append(tuple(x))
    return points


def profile_chain(rho: Profile, i: int) -> np.ndarray:
    """A view of chain i's coordinates of a profile."""
    offsets = rho.space.offsets
    return rho.values[offsets[i] : offsets[i + 1]]


def reference_theta(parts: list[np.ndarray], t: float) -> tuple[int, ...]:
    """Per chain, how many entries are at least t."""
    return tuple(sum(v >= t for v in p.tolist()) for p in parts)


def reference_uniform_random_parts(space: ChainProduct, seed) -> list[np.ndarray]:
    """Per chain in turn, m_i - 1 uniform draws sorted descending."""
    rng = np.random.default_rng(seed)
    return [np.sort(rng.uniform(0.0, 1.0, size=m - 1))[::-1] for m in space.dims]


# ---------------------------------------------------------------------------
# One-step geometry, one cell at a time

def reference_decode(point, n_defenders: int, u_max: int) -> list[tuple[int, int]]:
    """Each defender's (ux, uy) move at a lattice point: chains 2i and 2i+1
    hold ux + u_max and uy + u_max."""
    return [(point[2 * i] - u_max, point[2 * i + 1] - u_max) for i in range(n_defenders)]


def reference_clamp(cell: Cell, size: int) -> Cell:
    """The grid cell nearest to `cell` on each axis."""
    return (min(max(cell[0], 0), size - 1), min(max(cell[1], 0), size - 1))


def reference_reachable_cells(pos: Cell, u_max: int, size: int) -> list[Cell]:
    """Every grid cell at most u_max away from pos on each axis, sorted."""
    x, y = pos
    box = itertools.product(range(x - u_max, x + u_max + 1), range(y - u_max, y + u_max + 1))
    return sorted(c for c in box if 0 <= c[0] < size and 0 <= c[1] < size)


def reference_avoidance_planes(i, defenders, obstacles, u_max=1) -> tuple[set[int], set[int]]:
    """Teammates and obstacles in two loops, each naming its separating axis."""
    if u_max != 1:
        raise ValueError("avoidance planes are only supported for u_max = 1")

    def separating_axis(dx, dy):
        return "x" if abs(dx) >= abs(dy) else "y"

    xi, yi = defenders[i]
    x_planes: set[int] = set()
    y_planes: set[int] = set()
    for j, (xj, yj) in enumerate(defenders):
        if j == i:
            continue
        dx, dy = xj - xi, yj - yi
        if abs(dx) > 2 * u_max or abs(dy) > 2 * u_max or (dx, dy) == (0, 0):
            continue
        if separating_axis(dx, dy) == "x":
            x_planes.add(xi + (1 if dx > 0 else -1))
        else:
            y_planes.add(yi + (1 if dy > 0 else -1))
    for ox, oy in obstacles:
        dx, dy = ox - xi, oy - yi
        if abs(dx) > u_max or abs(dy) > u_max or (dx, dy) == (0, 0):
            continue
        if separating_axis(dx, dy) == "x":
            x_planes.add(ox)
        else:
            y_planes.add(oy)
    return x_planes, y_planes


def reference_build_step_problem(ctx: StepContext):
    """Per-defender oracles that call `reference_defender_cost` on every point, reading `ctx` live."""
    n = ctx.n_defenders
    space = ChainProduct([2 * ctx.u_max + 1] * (2 * n))

    def make(i):
        return Oracle(
            lambda point, i=i: reference_defender_cost(i, reference_decode(point, n, ctx.u_max), ctx),
            space,
        )

    return [make(i) for i in range(n)], space


def reference_defender_cost(i: int, actions: list[tuple[int, int]], ctx: StepContext) -> float:
    """Local cost of defender i under a joint action, all five terms inline.

    Moves that would leave the grid are priced at the clamped landing cell.
    The terms are summed in `build_step_problem`'s order: head, cohesion,
    barrier, mobility.
    """
    d = DISTANCES[ctx.params.distance]
    nxt = [
        reference_clamp((p[0] + u[0], p[1] + u[1]), ctx.arena.size)
        for p, u in zip(ctx.defenders, actions)
    ]
    zi = nxt[i]
    alpha_a, alpha_f = ctx.alphas[i]

    zone_pull = left_sum(d(zi, z) for z in ctx.arena.responsibilities[i])
    zone_pull /= len(ctx.arena.responsibilities[i])

    pursuit = 0.0
    for g, w in enumerate(ctx.pursuit[i]):
        if w != 0.0:
            pursuit += w * d(zi, ctx.predicted[g])

    cohesion = 0.0
    for j, zj in enumerate(nxt):
        w = ctx.params.cohesion[i, j]
        if w != 0.0 and j != i:
            cohesion += w * d(zi, zj)

    z1, z2 = ctx.params.zeta1, ctx.params.zeta2
    x_planes, y_planes = ctx.planes[i]
    barrier = left_sum(z1 * math.exp(-z2 * (zi[0] - cx) ** 2) for cx in sorted(x_planes))
    barrier += left_sum(z1 * math.exp(-z2 * (zi[1] - cy) ** 2) for cy in sorted(y_planes))

    ux, uy = actions[i]
    mobility = ctx.params.mobility[i] * (ux * ux + uy * uy)

    return alpha_f * zone_pull + alpha_a * pursuit + cohesion + barrier + mobility


# ---------------------------------------------------------------------------
# Attacker-side geometry, one `manhattan` call per cell pair

def reference_threat_distance(attackers, active, zone_cells) -> float:
    best = math.inf
    for pos, live in zip(attackers, active):
        if not live:
            continue
        best = min(best, min(manhattan(pos, z) for z in zone_cells))
    return best


def reference_attacker_pursuit_weights(i, attackers, active, responsibility, gain, rng) -> np.ndarray:
    row = np.zeros(len(attackers))
    dists = [
        min(manhattan(pos, z) for z in responsibility) if live else math.inf
        for pos, live in zip(attackers, active)
    ]
    best = min(dists, default=math.inf)
    if math.isinf(best):
        return row
    tied = [g for g, d in enumerate(dists) if d == best]
    target = tied[0] if len(tied) == 1 else int(rng.choice(tied))
    row[target] = gain
    return row


def reference_predict_attackers(attackers, active, arena, u_max):
    predicted = []
    for pos, live in zip(attackers, active):
        if not live:
            predicted.append(pos)
            continue
        candidates = reference_reachable_cells(pos, u_max, arena.size)
        predicted.append(
            min(candidates, key=lambda c: (min(manhattan(c, z) for z in arena.zone), c))
        )
    return predicted


def reference_attacker_modes(pos, defenders, params):
    gap = min(manhattan(pos, d) for d in defenders)
    boosted = params.eta_avoid_nom * math.exp(params.kappa * (params.delta_th - gap))
    eta_avoid = boosted / (params.eta_base_nom + boosted)
    return eta_avoid, 1.0 - eta_avoid


def reference_attacker_policy(i, attackers, defenders, params, arena, u_max, rng):
    """Scores every candidate twice: once for the best score, once for the ties."""
    pos = attackers[i]
    eta_avoid, _ = reference_attacker_modes(pos, defenders, params)
    avoid_mode = rng.uniform() < eta_avoid
    candidates = [
        c for c in reference_reachable_cells(pos, u_max, arena.size) if c not in arena.obstacles
    ]
    if avoid_mode:
        score = lambda c: -min(manhattan(c, d) for d in defenders)
    else:
        score = lambda c: min(manhattan(c, z) for z in arena.zone)
    best = min(score(c) for c in candidates)
    tied = [c for c in candidates if score(c) == best]
    return tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
