"""Grid capture-the-flag workload driven by submodular potential fields.

Defenders guard a zone on an integer grid.  At every step each defender's
local cost blends five potentials: attraction to its assigned zone cells,
pursuit of the nearest threat, cohesion with teammates, Gaussian barrier
walls along collision-avoidance planes, and a mobility penalty.  The joint
one-step action problem is a submodular minimization over one chain per
decision coordinate, solved by the consensus machinery each step in a
receding-horizon loop.  Attackers follow a seeded two-mode policy (head
for the zone / evade the nearest defender).

Everything is deterministic given the scenario and seed: attacker mode
draws and tie-breaks consume per-player streams, pursuit tie-breaks
per-defender streams, and the per-step solver seeds a third stream, so no
subsystem's draws can perturb another's.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .lattice import ChainProduct, Oracle
from .solvers import distributed_minimize

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

Cell = tuple[int, int]


def manhattan(a: Cell, b: Cell) -> float:
    return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))


def squared_euclidean(a: Cell, b: Cell) -> float:
    return float((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)


DISTANCES: dict[str, Callable[[Cell, Cell], float]] = {
    "manhattan": manhattan,
    "squared": squared_euclidean,
}


@dataclass
class Arena:
    """Grid, protected zone with per-defender responsibilities, obstacles.

    Each construction error starts with the scenario-file name of the
    offending field (`defense_zone` for `zone`).
    """

    size: int
    horizon: int
    zone: list[Cell]
    responsibilities: list[list[Cell]]
    obstacles: set[Cell]

    def __post_init__(self):
        self.zone = [tuple(c) for c in self.zone]
        self.responsibilities = [[tuple(c) for c in r] for r in self.responsibilities]
        self.obstacles = {tuple(c) for c in self.obstacles}
        if self.size < 2:
            raise ValueError("size: must be at least 2")
        if self.horizon < 1:
            raise ValueError("horizon: must be at least 1")
        zone_set = set(self.zone)
        for name, cells in (("defense_zone", self.zone), ("obstacles", self.obstacles)):
            for c in cells:
                if not self.in_grid(c):
                    raise ValueError(f"{name}: cell {c} outside the grid of size {self.size}")
        if zone_set & self.obstacles:
            raise ValueError("obstacles: overlap the defense zone")
        covered = set()
        for i, cells in enumerate(self.responsibilities):
            extra = set(cells) - zone_set
            if extra:
                raise ValueError(f"responsibilities[{i}]: contains non-zone cells {sorted(extra)}")
            if not cells:
                raise ValueError(f"responsibilities[{i}]: empty")
            covered |= set(cells)
        if covered != zone_set:
            raise ValueError("responsibilities: do not cover the defense zone")

    def in_grid(self, c: Cell) -> bool:
        return 0 <= c[0] < self.size and 0 <= c[1] < self.size

    def clamp(self, c: Cell) -> Cell:
        hi = self.size - 1
        return (min(max(c[0], 0), hi), min(max(c[1], 0), hi))


def _require_finite(params) -> None:
    """Reject a NaN or infinite value in any numeric field, naming the field."""
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if not isinstance(value, str) and not np.all(np.isfinite(value)):
            raise ValueError(f"{field.name}: not finite: {value}")


@dataclass
class DefenderParams:
    """Cost weights and behavior-switching constants for the defense team.

    Each construction error starts with the name of the offending field.
    """

    pursuit_gain: float  # weight placed on the single pursued attacker
    cohesion: np.ndarray  # pairwise cohesion weights, zero diagonal allowed
    mobility: np.ndarray  # per-defender action penalty
    zeta1: float  # barrier height on avoidance planes
    zeta2: float  # barrier falloff
    alpha_f_nom: float
    alpha_a_nom: float
    beta: float  # switch sharpness
    delta_th: np.ndarray  # per-defender switch threshold
    distance: str = "manhattan"

    def __post_init__(self):
        self.cohesion = np.asarray(self.cohesion, dtype=float)
        self.mobility = np.atleast_1d(np.asarray(self.mobility, dtype=float))
        self.delta_th = np.atleast_1d(np.asarray(self.delta_th, dtype=float))
        _require_finite(self)
        if abs(self.alpha_f_nom + self.alpha_a_nom - 1.0) > 1e-9:
            raise ValueError(
                "alpha_f_nom, alpha_a_nom: nominal behavior weights must sum to 1, "
                f"got {self.alpha_f_nom} and {self.alpha_a_nom}"
            )
        for name in ("zeta1", "zeta2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: barrier constants zeta1, zeta2 must be at least 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta: must lie in [0,1]")
        for name in ("pursuit_gain", "cohesion", "mobility"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name}: cost weights must be non-negative")
        if self.distance not in DISTANCES:
            raise ValueError(
                f"distance: unknown distance {self.distance!r}; pick from {sorted(DISTANCES)}"
            )


@dataclass
class AttackerParams:
    """Two-mode stochastic policy constants for the offense team.

    Each construction error starts with the name of the offending field.
    """

    eta_avoid_nom: float
    eta_base_nom: float
    delta_th: float
    kappa: float

    def __post_init__(self):
        _require_finite(self)
        if abs(self.eta_avoid_nom + self.eta_base_nom - 1.0) > 1e-9:
            raise ValueError(
                "eta_avoid_nom, eta_base_nom: nominal mode weights must sum to 1, "
                f"got {self.eta_avoid_nom} and {self.eta_base_nom}"
            )
        if not (0.0 <= self.eta_avoid_nom <= 1.0):
            raise ValueError("eta_avoid_nom: nominal mode weights must lie in [0,1]")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa: must lie in [0,1]")


def reachable_cells(pos: Cell, u_max: int, grid_size: int) -> list[Cell]:
    """All cells reachable in one step, clipped to the grid, sorted."""
    cells = []
    for ux in range(-u_max, u_max + 1):
        for uy in range(-u_max, u_max + 1):
            c = (pos[0] + ux, pos[1] + uy)
            if 0 <= c[0] < grid_size and 0 <= c[1] < grid_size:
                cells.append(c)
    return sorted(cells)


def _separating_axis(dx: int, dy: int) -> str:
    # Separate along the axis with more room; ties go to x.
    return "x" if abs(dx) >= abs(dy) else "y"


def avoidance_planes(
    i: int,
    defenders: list[Cell],
    obstacles: set[Cell],
    u_max: int = 1,
) -> tuple[set[int], set[int]]:
    """Column/row coordinates defender i must keep off next step.

    For every teammate whose one-step reachable box overlaps defender i's,
    both agents give up the plane one step toward the other along the axis
    where they are farthest apart; staying on their own sides of those
    planes makes a shared landing cell impossible.  Obstacles inside the
    reachable box are walled off by the plane through the obstacle along
    its largest offset axis.
    """
    if u_max != 1:
        raise ValueError("avoidance planes are only supported for u_max = 1")
    xi, yi = defenders[i]
    x_planes: set[int] = set()
    y_planes: set[int] = set()
    for j, (xj, yj) in enumerate(defenders):
        if j == i:
            continue
        dx, dy = xj - xi, yj - yi
        if abs(dx) > 2 * u_max or abs(dy) > 2 * u_max or (dx, dy) == (0, 0):
            continue
        if _separating_axis(dx, dy) == "x":
            x_planes.add(xi + (1 if dx > 0 else -1))
        else:
            y_planes.add(yi + (1 if dy > 0 else -1))
    for ox, oy in obstacles:
        dx, dy = ox - xi, oy - yi
        if abs(dx) > u_max or abs(dy) > u_max or (dx, dy) == (0, 0):
            continue
        if _separating_axis(dx, dy) == "x":
            x_planes.add(ox)
        else:
            y_planes.add(oy)
    return x_planes, y_planes


def adaptive_alpha(
    delta: float,
    delta_th: float,
    beta: float,
    alpha_a_nom: float,
    alpha_f_nom: float,
) -> tuple[float, float]:
    """Behavior split (attack weight, defend weight) at threat distance delta.

    At delta == delta_th the nominal split is returned; the attack weight
    grows exponentially as the threat closes in.  With no threat at all
    (delta infinite) the defender is purely defensive.  The two weights sum
    to 1 exactly.
    """
    if delta < 0:
        raise ValueError("threat distance cannot be negative")
    if math.isinf(delta):
        return 0.0, 1.0
    boosted = alpha_a_nom * math.exp(beta * (delta_th - delta))
    alpha_a = boosted / (boosted + alpha_f_nom)
    return alpha_a, 1.0 - alpha_a


def threat_distance(attackers: list[Cell], active: list[bool], zone_cells: list[Cell]) -> float:
    """Smallest Manhattan distance from any active attacker to the cells."""
    best = math.inf
    for pos, live in zip(attackers, active):
        if not live:
            continue
        best = min(best, min(manhattan(pos, z) for z in zone_cells))
    return best


def attacker_pursuit_weights(
    i: int,
    attackers: list[Cell],
    active: list[bool],
    responsibility: list[Cell],
    gain: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pursuit weight row: the full gain on one nearest active attacker.

    Nearness is Manhattan distance to defender i's responsibility cells;
    exact ties are broken by a draw from the defender's stream.  With no
    active attacker the row is all zeros.
    """
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


def predict_attackers(
    attackers: list[Cell],
    active: list[bool],
    arena: Arena,
    u_max: int,
) -> list[Cell]:
    """Defense-side mobility model: every active attacker takes the one-step
    move that most reduces its Manhattan distance to the defense zone
    (ties to the smaller x, then smaller y cell); captured attackers stay."""
    predicted = []
    for pos, live in zip(attackers, active):
        if not live:
            predicted.append(pos)
            continue
        candidates = reachable_cells(pos, u_max, arena.size)
        predicted.append(
            min(candidates, key=lambda c: (min(manhattan(c, z) for z in arena.zone), c))
        )
    return predicted


def attacker_modes(
    pos: Cell,
    defenders: list[Cell],
    params: AttackerParams,
) -> tuple[float, float]:
    """(eta_avoid, eta_base) mode probabilities at the current separation."""
    gap = min(manhattan(pos, d) for d in defenders)
    boosted = params.eta_avoid_nom * math.exp(params.kappa * (params.delta_th - gap))
    eta_avoid = boosted / (params.eta_base_nom + boosted)
    return eta_avoid, 1.0 - eta_avoid


def attacker_policy(
    i: int,
    attackers: list[Cell],
    defenders: list[Cell],
    params: AttackerParams,
    arena: Arena,
    u_max: int,
    rng: np.random.Generator,
) -> Cell:
    """One move for active attacker i: draw a mode, then take the best cell.

    Attack-base heads for the defense zone, avoid backs away from the
    nearest defender.  Obstacle cells are never entered.  The mode draw and
    any tie-break consume attacker i's own stream.
    """
    pos = attackers[i]
    eta_avoid, _ = attacker_modes(pos, defenders, params)
    avoid_mode = rng.uniform() < eta_avoid
    candidates = [
        c for c in reachable_cells(pos, u_max, arena.size) if c not in arena.obstacles
    ]
    if avoid_mode:
        score = lambda c: -min(manhattan(c, d) for d in defenders)
    else:
        score = lambda c: min(manhattan(c, z) for z in arena.zone)
    best = min(score(c) for c in candidates)
    tied = [c for c in candidates if score(c) == best]
    return tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]


@dataclass
class StepContext:
    """Everything the per-step cost oracles close over."""

    arena: Arena
    u_max: int
    defenders: list[Cell]
    predicted: list[Cell]
    alphas: list[tuple[float, float]]
    pursuit: np.ndarray  # (n_d, n_a)
    planes: list[tuple[set[int], set[int]]]
    params: DefenderParams

    @property
    def n_defenders(self) -> int:
        return len(self.defenders)


def _landing(ctx: StepContext, i: int, u: tuple[int, int]) -> Cell:
    """Defender i's landing cell under move u, clamped to the grid."""
    p = ctx.defenders[i]
    return ctx.arena.clamp((p[0] + u[0], p[1] + u[1]))


def _head(ctx: StepContext, i: int, zi: Cell, d) -> float:
    """Defender i's zone pull and pursuit at landing cell zi, weighted by its alphas."""
    alpha_a, alpha_f = ctx.alphas[i]

    zone_pull = sum(d(zi, z) for z in ctx.arena.responsibilities[i])
    zone_pull /= len(ctx.arena.responsibilities[i])

    pursuit = 0.0
    for g, w in enumerate(ctx.pursuit[i]):
        if w != 0.0:
            pursuit += w * d(zi, ctx.predicted[g])

    return alpha_f * zone_pull + alpha_a * pursuit


def _partners(ctx: StepContext, i: int) -> list[tuple[int, float]]:
    """(j, cohesion weight) for every teammate j that defender i is drawn to, in increasing j."""
    weights = ctx.params.cohesion
    return [(j, weights[i, j]) for j in range(ctx.n_defenders) if weights[i, j] != 0.0 and j != i]


def _cohesion_term(w, distance):
    """A teammate's pull: its weight times the landing-cell distance (a number or a table)."""
    return w * distance


def _barrier(ctx: StepContext, i: int, zi: Cell) -> float:
    """Gaussian walls on defender i's avoidance planes at landing cell zi."""
    z1, z2 = ctx.params.zeta1, ctx.params.zeta2
    x_planes, y_planes = ctx.planes[i]
    barrier = sum(z1 * math.exp(-z2 * (zi[0] - cx) ** 2) for cx in sorted(x_planes))
    barrier += sum(z1 * math.exp(-z2 * (zi[1] - cy) ** 2) for cy in sorted(y_planes))
    return barrier


def _mobility(ctx: StepContext, i: int, u: tuple[int, int]) -> float:
    """Defender i's action penalty for move u."""
    return ctx.params.mobility[i] * (u[0] * u[0] + u[1] * u[1])


def defender_cost(i: int, actions: list[tuple[int, int]], ctx: StepContext) -> float:
    """Local cost of defender i under a joint candidate action.

    Moves that would leave the grid are charged at the clamped landing
    cell, which keeps the decision space a full chain product.  This is
    the reference definition; `build_step_problem` tabulates the same
    terms and adds them in the same order.
    """
    d = DISTANCES[ctx.params.distance]
    zi = _landing(ctx, i, actions[i])
    cohesion = 0.0
    for j, w in _partners(ctx, i):
        cohesion += _cohesion_term(w, d(zi, _landing(ctx, j, actions[j])))
    return _head(ctx, i, zi, d) + cohesion + _barrier(ctx, i, zi) + _mobility(ctx, i, actions[i])


def decode_actions(point, n_defenders: int, u_max: int) -> list[tuple[int, int]]:
    """Lattice point over 2*n_d chains -> per-defender (ux, uy) moves."""
    return [
        (point[2 * i] - u_max, point[2 * i + 1] - u_max)
        for i in range(n_defenders)
    ]


@dataclass
class StepTables:
    """One step's defender costs, tabulated by move index.

    Defender i's move index is a = point[2i] * side + point[2i+1], with
    side = 2*u_max + 1.  `head[i][a]`, `barrier[i][a]` and `mobility[i][a]`
    are its own terms under move a; `cohesion[i]` lists (j, table) in
    increasing j for every teammate j it is drawn to, with table[a][b]
    the pull of j when i moves by a and j by b.
    """

    side: int
    head: list[list[float]]
    barrier: list[list[float]]
    mobility: list[list[float]]
    cohesion: list[list[tuple[int, list[list[float]]]]]


def step_tables(ctx: StepContext) -> StepTables:
    """Evaluate every term of every defender's cost once per own move.

    The cohesion distances of each pair of defenders are tabulated once
    and read in both directions.
    """
    d = DISTANCES[ctx.params.distance]
    n, u_max = ctx.n_defenders, ctx.u_max
    steps = range(-u_max, u_max + 1)
    moves = [(ux, uy) for ux in steps for uy in steps]
    cells = [[_landing(ctx, i, u) for u in moves] for i in range(n)]
    distances: dict[tuple[int, int], np.ndarray] = {}

    def distance_table(i, j):
        lo, hi = min(i, j), max(i, j)
        if (lo, hi) not in distances:
            distances[lo, hi] = np.array([[d(a, b) for b in cells[hi]] for a in cells[lo]])
        return distances[lo, hi] if i < j else distances[lo, hi].T

    return StepTables(
        side=len(steps),
        head=[[float(_head(ctx, i, z, d)) for z in cells[i]] for i in range(n)],
        barrier=[[float(_barrier(ctx, i, z)) for z in cells[i]] for i in range(n)],
        mobility=[[float(_mobility(ctx, i, u)) for u in moves] for i in range(n)],
        cohesion=[
            [(j, _cohesion_term(w, distance_table(i, j)).tolist()) for j, w in _partners(ctx, i)]
            for i in range(n)
        ],
    )


def _tabulated_cost(tables: StepTables, i: int) -> Callable[[tuple[int, ...]], float]:
    """Defender i's cost read from the tables, summed in `defender_cost`'s order."""
    side, k = tables.side, 2 * i
    head, barrier, mobility = tables.head[i], tables.barrier[i], tables.mobility[i]
    pairs = [(table, 2 * j) for j, table in tables.cohesion[i]]

    def cost(point):
        a = point[k] * side + point[k + 1]
        cohesion = 0.0
        for table, kj in pairs:
            cohesion += table[a][point[kj] * side + point[kj + 1]]
        return ((head[a] + cohesion) + barrier[a]) + mobility[a]

    return cost


def build_step_problem(ctx: StepContext) -> tuple[list[Oracle], ChainProduct]:
    """Per-defender cost oracles over the joint action lattice.

    One chain of size 2*u_max + 1 per decision coordinate, in the order
    (ux_0, uy_0, ux_1, uy_1, ...); index u + u_max encodes move u.  The
    oracles read `step_tables(ctx)`, so they equal `defender_cost` bit for
    bit at every lattice point, and they capture the context as it is
    now: changing `ctx` afterwards does not change them.
    """
    space = ChainProduct([2 * ctx.u_max + 1] * (2 * ctx.n_defenders))
    tables = step_tables(ctx)
    return [Oracle(_tabulated_cost(tables, i), space) for i in range(ctx.n_defenders)], space


@dataclass
class StepRecord:
    """State at the start of step k plus the behavior weights used in it."""

    k: int
    defenders: list[Cell]
    attackers: list[Cell]
    captured: list[bool]
    alpha_a: list[float]
    eta_avoid: list[float]


@dataclass
class Event:
    k: int
    kind: str  # capture | release | flag | collision_check
    subject: str
    detail: str


@dataclass
class GameResult:
    steps: list[StepRecord]
    events: list[Event]
    outcome: str  # "defense" or "offense"
    final_defenders: list[Cell]
    final_attackers: list[Cell]
    final_captured: list[bool]


def _captured_now(attackers: list[Cell], defenders: list[Cell]) -> list[bool]:
    occupied = set(defenders)
    return [pos in occupied for pos in attackers]


def game_start(scenario: "Scenario"):
    """Start state of a game at the scenario's seed.

    Returns (defenders, attackers, captured, streams): the start cells, the
    capture flags, and the random streams spawned from the seed, in order
    per-defender pursuit streams, per-attacker policy streams, solver seeds.
    """
    defenders = [tuple(c) for c in scenario.defenders_start]
    attackers = [tuple(c) for c in scenario.attackers_start]
    root = np.random.SeedSequence(scenario.seed)
    def_ss, att_ss, sol_ss = root.spawn(3)
    streams = (
        [np.random.default_rng(s) for s in def_ss.spawn(len(defenders))],
        [np.random.default_rng(s) for s in att_ss.spawn(len(attackers))],
        np.random.default_rng(sol_ss),
    )
    return defenders, attackers, _captured_now(attackers, defenders), streams


def step_context(
    scenario: "Scenario",
    defenders: list[Cell],
    attackers: list[Cell],
    captured: list[bool],
    pursuit_rngs: list[np.random.Generator],
) -> StepContext:
    """The defenders' view of one game step: predicted attackers, behavior
    weights, pursuit rows (ties drawn from each defender's stream) and
    avoidance planes."""
    arena, dparams, u_max = scenario.arena, scenario.defender_params, scenario.u_max
    active = [not c for c in captured]
    predicted = predict_attackers(attackers, active, arena, u_max)
    alphas = []
    pursuit = np.zeros((len(defenders), len(attackers)))
    for i, rng in enumerate(pursuit_rngs):
        delta_i = threat_distance(attackers, active, arena.responsibilities[i])
        alphas.append(adaptive_alpha(
            delta_i, float(dparams.delta_th[i]), dparams.beta, dparams.alpha_a_nom, dparams.alpha_f_nom
        ))
        pursuit[i] = attacker_pursuit_weights(
            i, attackers, active, arena.responsibilities[i], dparams.pursuit_gain, rng
        )
    planes = [avoidance_planes(i, defenders, arena.obstacles, u_max) for i in range(len(defenders))]
    return StepContext(arena, u_max, defenders, predicted, alphas, pursuit, planes, dparams)


def first_step_problem(scenario: "Scenario") -> tuple[list[Oracle], ChainProduct]:
    """The joint action problem `run_game` solves at k = 0, at the scenario's seed."""
    defenders, attackers, captured, (pursuit_rngs, _, _) = game_start(scenario)
    return build_step_problem(step_context(scenario, defenders, attackers, captured, pursuit_rngs))


def run_game(scenario: "Scenario") -> GameResult:
    """Play the receding-horizon game to the horizon or first breach.

    Each step: predict attackers, refresh behavior weights, pursuit rows and
    avoidance planes, solve the joint action problem with the scenario's
    network and budget, apply each defender's own slice of its own rounded
    answer, move the attackers, then update capture state.  The game ends
    early if an uncaptured attacker stands in the defense zone.
    """
    arena = scenario.arena
    aparams = scenario.attacker_params
    u_max = scenario.u_max
    defenders, attackers, captured, streams = game_start(scenario)
    defender_rngs, attacker_rngs, solver_seed_stream = streams
    n_d, n_a = len(defenders), len(attackers)

    steps: list[StepRecord] = []
    events: list[Event] = []
    outcome = "defense"

    for k in range(arena.horizon):
        active = [not c for c in captured]
        ctx = step_context(scenario, defenders, attackers, captured, defender_rngs)
        etas = [attacker_modes(pos, defenders, aparams)[0] for pos in attackers]

        steps.append(
            StepRecord(
                k=k,
                defenders=list(defenders),
                attackers=list(attackers),
                captured=list(captured),
                alpha_a=[a for a, _ in ctx.alphas],
                eta_avoid=etas,
            )
        )

        oracles, space = build_step_problem(ctx)
        params = dataclasses.replace(
            scenario.solver,
            seed=int(solver_seed_stream.integers(0, 2**63 - 1)),
        )
        points, _, _ = distributed_minimize(oracles, space, scenario.network, params)
        moves = [decode_actions(points[i], n_d, u_max)[i] for i in range(n_d)]
        defenders = [
            arena.clamp((p[0] + u[0], p[1] + u[1])) for p, u in zip(defenders, moves)
        ]

        # Safety audit: violations become events, silence means all clear.
        seen: dict[Cell, int] = {}
        for i, pos in enumerate(defenders):
            if pos in seen:
                events.append(
                    Event(k, "collision_check", f"d{seen[pos]}-d{i}", f"shared cell {pos}")
                )
            seen[pos] = i
            if pos in arena.obstacles:
                events.append(Event(k, "collision_check", f"d{i}", f"obstacle cell {pos}"))

        attackers = [
            attacker_policy(g, attackers, defenders, aparams, arena, u_max, attacker_rngs[g])
            if live
            else attackers[g]
            for g, live in enumerate(active)
        ]

        now = _captured_now(attackers, defenders)
        for g, (before, after) in enumerate(zip(captured, now)):
            if after and not before:
                events.append(Event(k, "capture", f"a{g}", f"held at {attackers[g]}"))
            elif before and not after:
                events.append(Event(k, "release", f"a{g}", f"freed at {attackers[g]}"))
        captured = now

        breach = [
            g for g in range(n_a) if not captured[g] and attackers[g] in set(arena.zone)
        ]
        if breach:
            g = breach[0]
            events.append(Event(k, "flag", f"a{g}", f"entered zone at {attackers[g]}"))
            outcome = "offense"
            break

    return GameResult(
        steps=steps,
        events=events,
        outcome=outcome,
        final_defenders=list(defenders),
        final_attackers=list(attackers),
        final_captured=list(captured),
    )
