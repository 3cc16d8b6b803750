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
import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .lattice import ChainProduct, Oracle, _left_sum
from .solvers import distributed_minimize

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

Cell = tuple[int, int]


# Each metric's per-axis term, over integer arrays and ints alike: a distance
# is the sum of the two.
_AXIS_TERMS = {"manhattan": abs, "squared": lambda d: d * d}


def cell_distances(metric: str, a, b) -> np.ndarray:
    """The `metric` distance between cells, |dx| + |dy| ("manhattan") or
    dx^2 + dy^2 ("squared") cast to float, elementwise over integer arrays
    whose last axis is (x, y); the other axes broadcast as in `a - b`."""
    terms = _AXIS_TERMS[metric](np.subtract(a, b))
    return (terms[..., 0] + terms[..., 1]).astype(float)


def _gap(cell: Cell, cells) -> int:
    """Smallest Manhattan distance from cell to any of cells."""
    x, y = cell
    return min(abs(x - cx) + abs(y - cy) for cx, cy in cells)


# Quantities whose targets never move during a game (the zone, each
# defender's responsibility cells, the barrier constants) are kept per
# process: one table per distinct target content, at most FIELD_TABLES
# tables of each kind, each holding at most FIELD_KEYS values.
FIELD_TABLES = 64
FIELD_KEYS = 4096


class _Field(dict):
    """`fill(key)` by key, computed on first read and kept while there is room."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self.fill(key)
        if len(self) < FIELD_KEYS:
            self[key] = value
        return value


@functools.lru_cache(maxsize=FIELD_TABLES)
def _gaps(targets: tuple[Cell, ...]) -> _Field:
    """`_gap` from a cell to `targets`, by cell."""
    return _Field(lambda cell: _gap(cell, targets))


@functools.lru_cache(maxsize=FIELD_TABLES)
def _mean_distances(metric: str, targets: tuple[Cell, ...]) -> _Field:
    """Mean `metric` distance from a cell to `targets`, by cell.  The
    distances are integers, so the sum is exact in any order."""
    term = _AXIS_TERMS[metric]

    def mean(cell):
        x, y = cell
        return sum(term(x - tx) + term(y - ty) for tx, ty in targets) / len(targets)

    return _Field(mean)


@functools.lru_cache(maxsize=FIELD_TABLES)
def _walls(zeta1: float, zeta2: float) -> _Field:
    """Barrier wall height at integer offset d from a plane, by d."""
    return _Field(lambda d: zeta1 * math.exp(-zeta2 * d ** 2))


@functools.lru_cache(maxsize=FIELD_TABLES)
def _joint_space(n_chains: int, side: int) -> ChainProduct:
    """The joint action lattice, one per team size, so its layout is computed once."""
    return ChainProduct([side] * n_chains)


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


def _check_nominal(params, first: str, second: str, what: str) -> None:
    """Reject a NaN or infinite value in any numeric field, then nominal
    `what` weights `first` and `second` that do not sum to 1 or leave [0,1],
    naming the field."""
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if not isinstance(value, str) and not np.all(np.isfinite(value)):
            raise ValueError(f"{field.name}: not finite: {value}")
    a, b = getattr(params, first), getattr(params, second)
    if abs(a + b - 1.0) > 1e-9:
        raise ValueError(f"{first}, {second}: nominal {what} weights must sum to 1, got {a} and {b}")
    for name, value in ((first, a), (second, b)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}: nominal {what} weights must lie in [0,1]")


# The largest x with a finite math.exp(x).
_EXP_LIMIT = math.log(sys.float_info.max)


def _check_switch_exponent(params, rate: str) -> None:
    """Reject a `delta_th` at which the switch weight exp(rate * (delta_th - gap))
    overflows: gaps are never negative, so rate * delta_th is its largest exponent."""
    top = float(np.max(getattr(params, rate) * params.delta_th))
    if top > _EXP_LIMIT:
        raise ValueError(f"delta_th: {rate} * delta_th must be at most {_EXP_LIMIT:.12g}, got {top:.12g}")


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
        _check_nominal(self, "alpha_f_nom", "alpha_a_nom", "behavior")
        for name in ("zeta1", "zeta2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: barrier constants zeta1, zeta2 must be at least 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta: must lie in [0,1]")
        _check_switch_exponent(self, "beta")
        for name in ("pursuit_gain", "cohesion", "mobility"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name}: cost weights must be non-negative")
        if self.distance not in _AXIS_TERMS:
            raise ValueError(
                f"distance: unknown distance {self.distance!r}; pick from {sorted(_AXIS_TERMS)}"
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
        _check_nominal(self, "eta_avoid_nom", "eta_base_nom", "mode")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa: must lie in [0,1]")
        _check_switch_exponent(self, "kappa")


def _one_step_moves(u_max: int) -> list[Cell]:
    """Every one-step move (ux, uy), ux in the outer loop: chain levels
    (lx, ly) encode move lx * side + ly, and a cell's landing cells come
    out in (x, y) order."""
    steps = range(-u_max, u_max + 1)
    return [(ux, uy) for ux in steps for uy in steps]


def avoidance_planes(
    i: int,
    defenders: list[Cell],
    obstacles: set[Cell],
    u_max: int = 1,
) -> tuple[set[int], set[int]]:
    """Column/row coordinates defender i must keep off next step.

    A teammate within 2 * u_max and an obstacle within u_max on both axes
    each cost defender i the plane one step toward it, along the axis with
    the larger offset (ties to x).  Two teammates that keep off the planes
    they give up can never land on one cell, and a plane given up to an
    obstacle runs through it.  A teammate on defender i's cell gives none.
    """
    if u_max != 1:
        raise ValueError("avoidance planes are only supported for u_max = 1")
    xi, yi = defenders[i]
    x_planes: set[int] = set()
    y_planes: set[int] = set()
    for cells, reach in ((defenders, 2 * u_max), (obstacles, u_max)):
        for x, y in cells:
            dx, dy = x - xi, y - yi
            if abs(dx) > reach or abs(dy) > reach or (dx, dy) == (0, 0):
                continue
            if abs(dx) >= abs(dy):
                x_planes.add(xi + (1 if dx > 0 else -1))
            else:
                y_planes.add(yi + (1 if dy > 0 else -1))
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
    gaps = _gaps(tuple(map(tuple, zone_cells)))
    return float(min((gaps[tuple(pos)] for pos, live in zip(attackers, active) if live), default=math.inf))


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
    table = _gaps(tuple(map(tuple, responsibility)))
    gaps = [table[tuple(pos)] if live else math.inf for pos, live in zip(attackers, active)]
    row = np.zeros(len(gaps))
    best = min(gaps, default=math.inf)
    if math.isinf(best):
        return row
    tied = [g for g, d in enumerate(gaps) if d == best]
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
    gaps = _gaps(tuple(arena.zone))

    def gap(cell):
        return gaps[cell] if arena.in_grid(cell) else math.inf

    # One-step cells come in sorted order, so the first nearest one is the
    # smallest (x, y) among the ties.
    moves = _one_step_moves(u_max)
    return [
        min(((x + ux, y + uy) for ux, uy in moves), key=gap) if live else (x, y)
        for (x, y), live in zip(attackers, active)
    ]


def attacker_modes(
    pos: Cell,
    defenders: list[Cell],
    params: AttackerParams,
) -> tuple[float, float]:
    """(eta_avoid, eta_base) mode probabilities at the current separation."""
    gap = float(_gap(pos, defenders))
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
        c for c in ((pos[0] + ux, pos[1] + uy) for ux, uy in _one_step_moves(u_max))
        if arena.in_grid(c) and c not in arena.obstacles
    ]
    if avoid_mode:
        scores = [-_gap(c, defenders) for c in candidates]
    else:
        gaps = _gaps(tuple(arena.zone))
        scores = [gaps[c] for c in candidates]
    best = min(scores)
    tied = [c for c, score in zip(candidates, scores) if score == best]
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

    @functools.cached_property
    def landing(self) -> np.ndarray:
        """landing[i, lx, ly]: defender i's cell after the move its chain
        levels (lx, ly) encode, clamped to the grid.  Computed on first read."""
        side = 2 * self.u_max + 1
        cells = np.reshape(self.defenders, (-1, 1, 2)) + _one_step_moves(self.u_max)
        return np.clip(cells, 0, self.arena.size - 1).reshape(-1, side, side, 2)


def _barrier(ctx: StepContext, i: int, cells: list[list[int]]) -> list[float]:
    """Gaussian walls on defender i's avoidance planes at each landing cell.

    The x planes' walls depend only on a cell's x and the y planes' only on
    its y, so each is summed once per distinct coordinate, from wall
    heights kept per pair of barrier constants.
    """
    walls = _walls(ctx.params.zeta1, ctx.params.zeta2)
    x_planes, y_planes = (sorted(planes) for planes in ctx.planes[i])
    xs, ys = {x for x, _ in cells}, {y for _, y in cells}
    wall_x = {x: _left_sum(walls[x - cx] for cx in x_planes) for x in xs}
    wall_y = {y: _left_sum(walls[y - cy] for cy in y_planes) for y in ys}
    return [float(wall_x[x] + wall_y[y]) for x, y in cells]


def build_step_problem(ctx: StepContext) -> tuple[list[Oracle], ChainProduct]:
    """Per-defender cost oracles over the joint action lattice.

    One chain of size side = 2*u_max + 1 per decision coordinate, in the
    order (ux_0, uy_0, ux_1, uy_1, ...); index u + u_max encodes move u, so
    defender i's move index is a = point[2i] * side + point[2i+1].  Its
    cost at landing cell z_i = ctx.landing[i, point[2i], point[2i+1]] is
    ((head + cohesion) + barrier) + mobility, with the pulls of its
    cohesion partners added in increasing j.  Moves that would leave the
    grid are priced at the clamped landing cell, the cell `run_game`
    applies, which keeps the decision space a full chain product.

    Each defender's own terms are evaluated once per own move.  Its zone
    pull and its walls are read from tables kept per responsibility set
    and per pair of barrier constants; the distances to predicted attackers
    and between the landing cells of each pair whose pull an oracle reads
    come from integer coordinate arrays, once per step.  So the oracles
    capture the context as it is now: changing `ctx` afterwards does not
    change them.
    """
    metric, weights = ctx.params.distance, ctx.params.cohesion
    n, side, moves = ctx.n_defenders, 2 * ctx.u_max + 1, _one_step_moves(ctx.u_max)
    # cells[i, a]: defender i's landing cell under its move a.
    cells = ctx.landing.reshape(n, side * side, 2)
    landing = cells.tolist()
    space = _joint_space(2 * n, side)
    # The pairs (i, j) with j's pull in defender i's cost, i then j increasing.
    own, partner = np.nonzero((weights[:n, :n] != 0.0) & ~np.eye(n, dtype=bool))
    # Each pair's pull[a][b], when i moves by a and j by b.
    pulls = (weights[own, partner, None, None] * cell_distances(
        metric, cells[own, :, None], cells[partner, None, :]
    )).tolist()
    pairs = [[] for _ in range(n)]
    for i, j, pull in zip(own.tolist(), partner.tolist(), pulls):
        pairs[i].append((pull, 2 * j))

    def head_terms(i):
        """Zone pull and pursuit at each landing cell, weighted by defender i's alphas."""
        alpha_a, alpha_f = ctx.alphas[i]
        mean = _mean_distances(metric, tuple(ctx.arena.responsibilities[i]))
        pursuit = [0.0] * len(landing[i])
        for g, w in enumerate(ctx.pursuit[i].tolist()):
            if w != 0.0:
                dist = cell_distances(metric, cells[i], ctx.predicted[g]).tolist()
                pursuit = [p + w * d for p, d in zip(pursuit, dist)]
        return [alpha_f * mean[x, y] + alpha_a * p for (x, y), p in zip(landing[i], pursuit)]

    def oracle(i):
        k = 2 * i
        head = head_terms(i)
        barrier = _barrier(ctx, i, landing[i])
        weight = float(ctx.params.mobility[i])
        mobility = [weight * (ux * ux + uy * uy) for ux, uy in moves]
        terms = pairs[i]

        def cost(point):
            a = point[k] * side + point[k + 1]
            cohesion = 0.0
            for table, kj in terms:
                cohesion += table[a][point[kj] * side + point[kj + 1]]
            return ((head[a] + cohesion) + barrier[a]) + mobility[a]

        return Oracle(cost, space)

    return [oracle(i) for i in range(n)], space


@dataclass
class StepRecord:
    """State at the start of step k and the behavior weights at that state.

    `alpha_a[i]` is the attack weight of defender i's step cost.
    `eta_avoid[g]` is `attacker_modes` at attacker g's cell against these
    defender cells; attacker g's mode draw in step k comes after the
    defenders move, so it uses the weight at their new cells.
    """

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
        cells = arena.responsibilities[i]
        delta_i = threat_distance(attackers, active, cells)
        alphas.append(adaptive_alpha(
            delta_i, float(dparams.delta_th[i]), dparams.beta, dparams.alpha_a_nom, dparams.alpha_f_nom
        ))
        pursuit[i] = attacker_pursuit_weights(i, attackers, active, cells, dparams.pursuit_gain, rng)
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
    defenders, attackers, captured, streams = game_start(scenario)
    defender_rngs, attacker_rngs, solver_seed_stream = streams
    n_a = len(attackers)
    zone = set(arena.zone)

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
        # Only the points: the trace, which holds the step's memos until read, is dropped here.
        points = distributed_minimize(oracles, space, scenario.network, params)[0]
        # Each defender applies its own slice of its own answer.
        defenders = [tuple(ctx.landing[i, p[2 * i], p[2 * i + 1]].tolist()) for i, p in enumerate(points)]

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
            attacker_policy(g, attackers, defenders, aparams, arena, scenario.u_max, attacker_rngs[g])
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

        breach = [g for g in range(n_a) if not captured[g] and attackers[g] in zone]
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
