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

from .lattice import ChainProduct, Oracle, _integer, _left_sum, _numbers, _real
from .projection import _function
from .solvers import _links, distributed_minimize

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

Cell = tuple[int, int]


# Each metric's per-axis term, over integer arrays and ints alike: a distance
# is the sum of the two.
_AXIS_TERMS = {"manhattan": abs, "squared": lambda d: d * d}


def _gap(cell: Cell, cells) -> int:
    """Smallest Manhattan distance from cell to any of cells."""
    x, y = cell
    return min(abs(x - cx) + abs(y - cy) for cx, cy in cells)


# Every quantity that depends only on targets fixed for a game (the zone, each
# defender's responsibility cells, the barrier constants) or on relative geometry
# is a plain function of its whole key, kept per process for the FIELD_KEYS keys
# read most recently.
FIELD_KEYS = 4096
_kept = functools.lru_cache(maxsize=FIELD_KEYS)


@_kept
def _zone_gap(targets: tuple[Cell, ...], cell: Cell) -> int:
    return _gap(cell, targets)


@_kept
def _step_gaps(targets: tuple[Cell, ...], u_max: int, cell: Cell) -> tuple[int, ...]:
    """The gap to `targets` from each one-step cell of cell, unclamped, in `_offsets` order."""
    x, y = cell
    return tuple([_gap((x + ox, y + oy), targets) for ox, oy in _offsets((u_max,) * 4, u_max)])


@_kept
def _mean_distance(metric: str, targets: tuple[Cell, ...], cell: Cell) -> float:
    """Mean `metric` distance from cell to `targets`.  The distances are
    integers, so the sum is exact in any order."""
    term, (x, y) = _AXIS_TERMS[metric], cell
    return sum(term(x - tx) + term(y - ty) for tx, ty in targets) / len(targets)


@_kept
def _offsets(pattern: tuple[int, int, int, int], u_max: int) -> tuple[Cell, ...]:
    """Landing cell minus own cell for each one-step move, ux outer, so chain levels
    (lx, ly) are move lx * side + ly, for a cell whose clamp pattern (left, right,
    down, up) is how far its moves reach on each side; pattern (u_max,) * 4 gives
    the moves themselves.  The game's one move list and one clamp."""
    left, right, down, up = pattern
    steps = range(-u_max, u_max + 1)
    xs = [min(max(s, -left), right) for s in steps]
    ys = [min(max(s, -down), up) for s in steps]
    return tuple([(ox, oy) for ox in xs for oy in ys])


@_kept
def _scaled(weight: float, d: int) -> float:
    """weight * d, one float object per distinct value, which the rows share."""
    return weight * float(d)


@_kept
def _row(metric: str, weight: float, u_max: int, pattern, dx: int, dy: int) -> tuple[float, ...]:
    """weight * distance from a cell to each landing cell of another whose clamp
    pattern is `pattern`, (dx, dy) being the cell minus the other's.  Pursuit
    reads weight 1.0."""
    term = _AXIS_TERMS[metric]
    return tuple([_scaled(weight, term(dx - ox) + term(dy - oy)) for ox, oy in _offsets(pattern, u_max)])


@_kept
def _pull(metric: str, weight: float, u_max: int, pattern_i, pattern_j, dx: int, dy: int):
    """A pair's pull table: row a is `_row` from defender i's landing cell under
    its move a to j's landing cells, (dx, dy) being i's cell minus j's."""
    return tuple([_row(metric, weight, u_max, pattern_j, dx + ox, dy + oy) for ox, oy in _offsets(pattern_i, u_max)])


@_kept
def _barrier(zeta1: float, zeta2: float, u_max: int, pattern, x_planes, y_planes) -> tuple[float, ...]:
    """Gaussian walls zeta1 * exp(-zeta2 * d**2) at each landing cell of a cell with
    clamp pattern `pattern` and sorted avoidance planes `x_planes`, `y_planes`
    relative to it, each axis's walls summed once per distinct offset, in plane order."""

    def walls(offsets, planes):
        return {o: _left_sum(zeta1 * math.exp(-zeta2 * (o - c) ** 2) for c in planes) for o in set(offsets)}

    offsets = _offsets(pattern, u_max)
    xs, ys = zip(*offsets)
    wall_x, wall_y = walls(xs, x_planes), walls(ys, y_planes)
    return tuple([float(wall_x[ox] + wall_y[oy]) for ox, oy in offsets])


@_kept
def _joint_space(n_chains: int, side: int) -> ChainProduct:
    """The joint action lattice, one per team size, so its layout is computed once."""
    return ChainProduct([side] * n_chains)


def _int_cells(name: str, cells) -> list[Cell]:
    """`cells` as tuples of Python ints; a coordinate that is not an integer raises, naming `name`."""
    for c in cells:
        if not all(map(_integer, c)):
            raise ValueError(f"{name}: cell {tuple(c)} has a coordinate that is not an integer")
    return [tuple(map(int, c)) for c in cells]


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
        for name, least in (("size", 2), ("horizon", 1)):
            value = getattr(self, name)
            if not _integer(value):
                raise ValueError(f"{name}: need an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name}: must be at least {least}")
            setattr(self, name, int(value))
        self.zone = _int_cells("defense_zone", self.zone)
        sets = enumerate(self.responsibilities)
        self.responsibilities = [_int_cells(f"responsibilities[{i}]", r) for i, r in sets]
        self.obstacles = set(_int_cells("obstacles", self.obstacles))
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


def _check_nominal(params, first: str, second: str, what: str, arrays=(), text=()) -> None:
    """Refuse, naming the field, a field in `text` that is not a string, one in
    `arrays` that is or holds a string or a boolean or cannot be read as a float
    array, any other that is not a real number, a NaN or infinite number, and
    nominal `what` weights `first` and `second` off [0,1] or not summing to 1.
    A real number is stored as a Python float, an array field as a float array."""
    for field in dataclasses.fields(params):
        name, value = field.name, getattr(params, field.name)
        if name in text:
            if not isinstance(value, str):
                raise ValueError(f"{name}: need a string, got {value!r}")
            continue
        if name not in arrays and not _real(value):
            raise ValueError(f"{name}: need a real number, got {value!r}")
        try:
            value = np.asarray(_numbers(value), dtype=float) if name in arrays else float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from exc
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name}: not finite: {value}")
        setattr(params, name, value)
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
        arrays, text = ("cohesion", "mobility", "delta_th"), ("distance",)
        _check_nominal(self, "alpha_f_nom", "alpha_a_nom", "behavior", arrays=arrays, text=text)
        self.mobility, self.delta_th = np.atleast_1d(self.mobility), np.atleast_1d(self.delta_th)
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


def _switch(nominal: float, other: float, exponent: float) -> float:
    """The boosted weight b / (b + other), b = nominal * exp(exponent), of a switch
    whose nominal weights are `nominal` and `other`.  When b + other is 0 (other is
    0, so nominal is 1, and exp underflows) it is 1.0, the limit."""
    boosted = nominal * math.exp(exponent)
    total = boosted + other
    return boosted / total if total else 1.0


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
    alpha_a = _switch(alpha_a_nom, alpha_f_nom, beta * (delta_th - delta))
    return alpha_a, 1.0 - alpha_a


def threat_distance(attackers: list[Cell], active: list[bool], zone_cells: list[Cell]) -> float:
    """Smallest Manhattan distance from any active attacker to the cells."""
    zone = tuple(map(tuple, zone_cells))
    return float(min((_zone_gap(zone, tuple(pos)) for pos, live in zip(attackers, active) if live), default=math.inf))


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
    cells = tuple(map(tuple, responsibility))
    gaps = [_zone_gap(cells, tuple(pos)) if live else math.inf for pos, live in zip(attackers, active)]
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
    zone = tuple(arena.zone)
    moves = _offsets((u_max,) * 4, u_max)

    def step(x, y):
        # One-step cells come in sorted order, so the first nearest one is the
        # smallest (x, y) among the ties.
        cells = [(x + ux, y + uy) for ux, uy in moves]
        gaps = [g if arena.in_grid(c) else math.inf for c, g in zip(cells, _step_gaps(zone, u_max, (x, y)))]
        return cells[gaps.index(min(gaps))]

    return [step(x, y) if live else (x, y) for (x, y), live in zip(attackers, active)]


def attacker_modes(
    pos: Cell,
    defenders: list[Cell],
    params: AttackerParams,
) -> tuple[float, float]:
    """(eta_avoid, eta_base) mode probabilities at the current separation."""
    gap = float(_gap(pos, defenders))
    eta_avoid = _switch(params.eta_avoid_nom, params.eta_base_nom, params.kappa * (params.delta_th - gap))
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
    x, y = pos
    cells = [(x + ux, y + uy) for ux, uy in _offsets((u_max,) * 4, u_max)]
    allowed = [a for a, c in enumerate(cells) if arena.in_grid(c) and c not in arena.obstacles]
    candidates = [cells[a] for a in allowed]
    if avoid_mode:
        scores = [-_gap(c, defenders) for c in candidates]
    else:
        gaps = _step_gaps(tuple(arena.zone), u_max, (x, y))
        scores = [gaps[a] for a in allowed]
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
    def _cells(self) -> list[tuple[Cell, tuple[int, int, int, int]]]:
        """Per defender, in Python ints: its cell and its clamp pattern
        (min(x, u_max), min(size - 1 - x, u_max), the same in y).  A defender
        off the grid raises, naming it."""
        top, u, cells = self.arena.size - 1, self.u_max, [tuple(map(int, c)) for c in self.defenders]
        for i, c in enumerate(cells):
            if not self.arena.in_grid(c):
                raise ValueError(f"defenders[{i}]: cell {c} outside the grid of size {self.arena.size}")
        return [((x, y), (min(x, u), min(top - x, u), min(y, u), min(top - y, u))) for x, y in cells]

    @functools.cached_property
    def landing(self) -> list[list[Cell]]:
        """landing[i][a]: defender i's cell after move a = lx * side + ly, which
        its chain levels (lx, ly) encode, clamped to the grid.  Computed on first read."""
        return [[(x + ox, y + oy) for ox, oy in _offsets(pattern, self.u_max)] for (x, y), pattern in self._cells]


def _cost_source(k: int, partners: tuple[int, ...], side: int) -> str:
    """Source of `make(head, barrier, mobility, *pulls)`, which binds one
    step's tables to the cost of the defender whose move is chains k and
    k + 1 and whose cohesion partners are `partners`, one pull table each,
    in increasing j."""
    pulls = [f"pull{j}[a][point[{2 * j}] * {side} + point[{2 * j + 1}]]" for j in partners]
    # One statement per pull, so no expression nests deeper as the team grows.
    cohesion = [f"c = 0.0 + {pulls[0]}", *(f"c += {pull}" for pull in pulls[1:])] if pulls else ["c = 0.0"]
    lines = [
        f"def make(head, barrier, mobility{''.join(f', pull{j}' for j in partners)}):",
        "    def cost(point):",
        f"        a = point[{k}] * {side} + point[{k + 1}]",
        *(f"        {line}" for line in cohesion),
        "        return ((head[a] + c) + barrier[a]) + mobility[a]",
        "    return cost",
    ]
    return "\n".join(lines) + "\n"


@_kept
def _cost_maker(k: int, partners: tuple[int, ...], side: int):
    """`_cost_source`'s `make` for this layout, compiled by `projection._function`
    once per process."""
    filename = f"<defender cost: chain {k}, partners {partners}, side {side}>"
    return _function(_cost_source(k, partners, side), "make", filename)


def build_step_problem(ctx: StepContext) -> tuple[list[Oracle], ChainProduct]:
    """Per-defender cost oracles over the joint action lattice.

    One chain of size side = 2*u_max + 1 per decision coordinate, in the
    order (ux_0, uy_0, ux_1, uy_1, ...); index u + u_max encodes move u, so
    defender i's move index is a = point[2i] * side + point[2i+1].  Its
    cost at landing cell z_i = ctx.landing[i][point[2i] * side + point[2i+1]] is
    ((head + cohesion) + barrier) + mobility, with the pulls of its
    cohesion partners, its `solvers._links` in the cohesion weights, added
    in increasing j.  Moves that would leave the grid are priced at the
    clamped landing cell, the cell `run_game` applies, which keeps the
    decision space a full chain product.

    Each defender's own terms are evaluated once per own move.  Its zone
    pull (`_mean_distance`), its pursuit distances (`_row` at weight 1.0),
    its walls (`_barrier`) and each pull table its oracle reads (`_pull`,
    one per partner) are kept per process, the last three by clamp
    pattern and relative offset, so a step computes only head and
    mobility per own move.  Kept rows are tuples, so the oracles
    capture the context as it is now: changing `ctx` afterwards does not
    change them.

    Pricing a point is straight-line table lookups: each defender's cost
    is a function generated from its layout (its chain, its partners in
    increasing j and `side`) by `_cost_source`, compiled once per process
    by `_cost_maker` and bound here to this step's head, barrier, mobility
    and pull tables.  It sums in the order above, one statement per pull.
    """
    metric, weights, u_max = ctx.params.distance, ctx.params.cohesion, ctx.u_max
    n, side, cells, moves = ctx.n_defenders, 2 * u_max + 1, ctx._cells, _offsets((u_max,) * 4, u_max)
    space = _joint_space(2 * n, side)
    # Defender i's cohesion partners, in increasing j, are its `_links` in the weights.
    links = _links(weights[:n, :n])
    # Each partner j's pull[a][b], when i moves by a and j by b.
    tables = [[] for _ in range(n)]
    for i, row in enumerate(links):
        (xi, yi), pattern_i = cells[i]
        for j, w in row:
            (xj, yj), pattern_j = cells[j]
            tables[i].append(_pull(metric, w, u_max, pattern_i, pattern_j, xi - xj, yi - yj))

    def head_terms(i):
        """Zone pull and pursuit at each landing cell, weighted by defender i's alphas."""
        ((x, y), pattern), landing = cells[i], ctx.landing[i]
        alpha_a, alpha_f = ctx.alphas[i]
        targets = tuple(ctx.arena.responsibilities[i])
        pursuit = [0.0] * len(landing)
        for g, w in enumerate(ctx.pursuit[i].tolist()):
            if w != 0.0:
                gx, gy = ctx.predicted[g]
                pursuit = [p + w * d for p, d in zip(pursuit, _row(metric, 1.0, u_max, pattern, gx - x, gy - y))]
        return [alpha_f * _mean_distance(metric, targets, c) + alpha_a * p for c, p in zip(landing, pursuit)]

    def barrier(i):
        (x, y), pattern = cells[i]
        x_planes, y_planes = ctx.planes[i]
        return _barrier(ctx.params.zeta1, ctx.params.zeta2, u_max, pattern,
                        tuple(sorted(cx - x for cx in x_planes)), tuple(sorted(cy - y for cy in y_planes)))

    def oracle(i):
        weight = float(ctx.params.mobility[i])
        mobility = [weight * (ux * ux + uy * uy) for ux, uy in moves]
        make = _cost_maker(2 * i, tuple(j for j, _ in links[i]), side)
        return Oracle(make(head_terms(i), barrier(i), mobility, *tables[i]), space)

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
    n_a, side = len(attackers), 2 * scenario.u_max + 1
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
        defenders = [ctx.landing[i][p[2 * i] * side + p[2 * i + 1]] for i, p in enumerate(points)]

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
