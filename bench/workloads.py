"""The benchmark's four workloads: inputs from a seed, one op set, checks.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  A workload is a list of *items* generated from
the seed; one pass runs every item once.  An item is one game (fig3,
swarm8), one solve (population) or one audit (audit).  The item count is
fixed by --seconds, never by how fast a run goes, so that every run of a
workload does the same amount of work, and a run averages over many
distinct inputs instead of repeating a few.

- fig3: the bundled 4-defender 20x20 game, one game per item, played
  through `latmin.cli.main(["simulate", ...])`; an op is one game step.
- swarm8: generated 8-defender, 8-attacker games; op = game step.
- population: random submodular problems generated here; op = one solve.
- audit: 3-defender step problems built from seeded game states; an op is
  `check_submodular` plus `brute_force_minimize` on the summed cost.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from latmin import cli, ctf, lattice, solvers
from latmin import scenario as scen

# The fig3 workload's solver block, pinned here so that an edit to the
# bundled paper_fig3.cfg cannot silently change the workload.
PINNED_SOLVER = {"iterations": 20, "gamma": 0.1, "schedule": "constant", "t_hat": 0.7}

# Population solver budget: the acceptance population's schedule, with a
# tenth of its 2000 iterations so that one run holds enough solves.
POPULATION_SOLVER = {"iterations": 200, "gamma": 0.2, "schedule": "diminishing", "t_hat": 0.7}

WORKLOADS = ("fig3", "swarm8", "population", "audit")

# Item count per run: --seconds divided by the nominal item time below
# (measured on a 2-vCPU shared x86-64 VM, Python 3.11), rounded up to a
# whole number of strata, so that every seed gets the same mix of
# problem shapes.  A run has at least MIN_OPS ops, for the tail percentile.
NOMINAL_ITEM_S = {"fig3": 3.9, "swarm8": 5.2, "population": 0.14, "audit": 1.3}
STRATUM = {"fig3": 1, "swarm8": 1, "population": 36, "audit": 5}
MIN_OPS = 20

# Game j of a run is played with game seed --seed + GAME_SEED_STRIDE * j,
# so the first game of a run is the game seed given on the command line.
GAME_SEED_STRIDE = 1000


def item_count(name: str, seconds: float) -> int:
    stratum = STRATUM[name]
    strata = max(1, math.ceil(seconds / NOMINAL_ITEM_S[name] / stratum - 1e-9))
    n = strata * stratum
    if name == "audit":  # one op per item
        n = max(n, math.ceil(MIN_OPS / stratum) * stratum)
    return n


@dataclass
class ItemResult:
    """What one item (a game, a solve or an audit) did."""

    wall: float  # seconds spent inside the program
    latencies: list[float]  # seconds, one per op
    failed: list[bool]  # one per op
    digest: str  # sha256 over the item's outputs
    starts: list[float]  # clock at the start of each op
    consensus_solves: int = 0  # solves by more than one agent
    agreed: int = 0  # ... in which every agent rounded to the same point


def _next_op(tracer) -> None:
    if tracer is not None:
        tracer.op += 1


def _probe(probe) -> None:
    if probe is not None:
        probe()


# ---------------------------------------------------------------------------
# Generated game files

def line_matrix(n: int) -> list[list[float]]:
    """Line-graph consensus weights: 0.3 to each neighbour, rest on self."""
    a = np.eye(n)
    for i in range(n - 1):
        a[i, i] -= 0.3
        a[i + 1, i + 1] -= 0.3
        a[i, i + 1] = a[i + 1, i] = 0.3
    return [[float(v) for v in row] for row in a]


def _cohesion(n: int) -> list[list[float]]:
    weights = {1: 0.5, 2: 0.1}
    return [[0.0 if i == j else weights.get(abs(i - j), 0.01) for j in range(n)] for i in range(n)]


def _random_cells(rng, count, xs, ys, taken):
    cells = []
    while len(cells) < count:
        c = (int(rng.integers(xs[0], xs[1] + 1)), int(rng.integers(ys[0], ys[1] + 1)))
        if c not in taken:
            taken.add(c)
            cells.append(c)
    return cells


def generated_game(n_defenders, n_attackers, rng, size=20, horizon=12, n_obstacles=6) -> dict:
    """A game file in the bundled scenario's format and behaviour constants.

    Defenders start two columns apart below a zone of two cells each, so
    neighbours' reachable boxes overlap and avoidance planes are in play.
    Attackers start at least size - 3 rows from the zone, so with
    horizon < size - 3 no breach can end a game early and every game has
    exactly `horizon` steps.
    """
    x0 = (size - 2 * n_defenders) // 2
    zone = [(x0 + c, size - 1) for c in range(2 * n_defenders)]
    defenders = [(x0 + 2 * i, size - 3) for i in range(n_defenders)]
    taken = set(zone) | set(defenders)
    obstacles = _random_cells(rng, n_obstacles, (0, size - 1), (5, size - 6), taken)
    attackers = _random_cells(rng, n_attackers, (0, size - 1), (0, 2), taken)
    return {
        "kind": "game",
        "seed": 0,
        "arena": {
            "size": size,
            "horizon": horizon,
            "defense_zone": [list(c) for c in zone],
            "responsibilities": [[list(c) for c in zone[2 * i:2 * i + 2]] for i in range(n_defenders)],
            "obstacles": [list(c) for c in obstacles],
        },
        "players": {
            "u_max": 1,
            "defenders": [list(c) for c in defenders],
            "attackers": [list(c) for c in attackers],
        },
        "defenders": {
            "pursuit_gain": 20.0,
            "cohesion": _cohesion(n_defenders),
            "mobility": [1.0] * n_defenders,
            "zeta1": 200.0,
            "zeta2": 5.0,
            "alpha_f_nom": 0.9,
            "alpha_a_nom": 0.1,
            "beta": 0.7,
            "delta_th": 20,
            "distance": "manhattan",
        },
        "attackers": {"eta_avoid_nom": 0.7, "eta_base_nom": 0.3, "delta_th": 4.0, "kappa": 0.9},
        "network": {"eta": 0.1, "matrix": line_matrix(n_defenders)},
        "solver": dict(PINNED_SOLVER),
    }


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Games: fig3 and swarm8

class GameWorkload:
    """One game per item, played through the command-line entry point; an
    op is one game step."""

    def __init__(self, workdir: Path, games: list[tuple[dict, int]]):
        self.workdir = workdir
        self.games = games  # (game file contents, game seed)
        self.paths: list[Path] = []
        self.scenarios: list = []
        self.tracer = None
        self.probe = None  # host-speed probe run between steps, if set

    @property
    def n_items(self) -> int:
        return len(self.games)

    def setup(self) -> None:
        for j, (game, _) in enumerate(self.games):
            path = self.workdir / f"game-{j}.cfg"
            path.write_text(yaml.safe_dump(game, sort_keys=False))
            self.paths.append(path)
            self.scenarios.append(scen.load_scenario(path))

    def run_item(self, j: int) -> ItemResult:
        out = self.workdir / f"game-{j}"
        marks: list[tuple[float, float]] = []  # clock before and after a probe
        solves: list = []
        inner = ctf.distributed_minimize
        tracer, probe = self.tracer, self.probe

        def stamped(oracles, space, *args, **kwargs):
            # A step runs from one solve to the next.  Without a probe that
            # is one clock read per step; a probe is timed out of both steps.
            t = perf_counter()
            if probe is None:
                marks.append((t, t))
            else:
                probe()
                marks.append((t, perf_counter()))
            _next_op(tracer)
            answer = inner(oracles, space, *args, **kwargs)
            solves.append((space, answer[0]))
            return answer

        argv = ["simulate", str(self.paths[j]), "--out", str(out), "--seed-override", str(self.games[j][1])]
        status, error = None, None
        ctf.distributed_minimize = stamped
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
        except Exception as exc:  # a crash is a failed op, not a crashed benchmark
            error = exc
        finally:
            end = perf_counter()
            ctf.distributed_minimize = inner
        _probe(probe)

        starts = [m[1] for m in marks] or [start]
        ends = [m[0] for m in marks[1:]] + [end]
        result = ItemResult(
            wall=end - start - sum(m[1] - m[0] for m in marks),
            latencies=[b - a for a, b in zip(starts, ends)],
            failed=[True] * len(starts),
            digest=f"error {status} {error!r}",
            starts=starts,
        )
        if status != 0 or error is not None:
            return result
        traj = (out / "trajectories.csv").read_bytes()
        events = (out / "events.csv").read_bytes()
        result.digest = _sha(traj, events)
        bad = self._bad_steps(self.scenarios[j], traj, events, len(starts))
        result.failed = [k in bad for k in range(len(starts))]
        for k, (space, points) in enumerate(solves):
            if not all(space.contains(p) for p in points):
                result.failed[k] = True
            result.agreed += len(set(points)) == 1
        result.consensus_solves = len(solves)
        return result

    @staticmethod
    def _bad_steps(scenario, traj: bytes, events: bytes, n_steps: int) -> set[int]:
        """Steps with a collision_check event, or defenders that share a
        cell, stand on an obstacle or off the grid, or move more than u_max."""
        arena, u_max = scenario.arena, scenario.u_max
        bad = {int(row["k"]) for row in csv.DictReader(io.StringIO(events.decode()))
               if row["type"] == "collision_check"}
        by_step: dict[int, list[tuple[int, int]]] = {}
        for row in csv.DictReader(io.StringIO(traj.decode())):
            if row["team"] == "defender":
                by_step.setdefault(int(row["k"]), []).append((int(row["x"]), int(row["y"])))
        if sorted(by_step) != list(range(n_steps)):
            return set(range(n_steps))
        for k, cells in by_step.items():
            if len(set(cells)) != len(cells) or any(
                c in arena.obstacles or not arena.in_grid(c) for c in cells
            ):
                # State at the start of step k is the outcome of step k - 1.
                bad.add(max(k - 1, 0))
            nxt = by_step.get(k + 1)
            if nxt and any(max(abs(a[0] - b[0]), abs(a[1] - b[1])) > u_max for a, b in zip(cells, nxt)):
                bad.add(k)
        return {k for k in bad if 0 <= k < n_steps}


def game_seeds(seed: int, n: int) -> list[int]:
    return [seed + GAME_SEED_STRIDE * j for j in range(n)]


def fig3(workdir: Path, seed: int, n: int, smoke: bool) -> GameWorkload:
    """The bundled game with its solver block pinned, for n game seeds."""
    game = yaml.safe_load(scen.bundled_scenario_path("paper_fig3.cfg").read_text())
    game["solver"] = dict(PINNED_SOLVER)
    if smoke:
        game["arena"]["horizon"] = 3
    return GameWorkload(workdir, [(game, s) for s in game_seeds(seed, n)])


def swarm8(workdir: Path, seed: int, n: int, smoke: bool) -> GameWorkload:
    rng = np.random.default_rng([8, seed])
    games = []
    for s in game_seeds(seed, n):
        game = generated_game(8, 8, rng, horizon=2 if smoke else 12, n_obstacles=8)
        game["seed"] = s
        games.append((game, s))
    return GameWorkload(workdir, games)


# ---------------------------------------------------------------------------
# Population: random submodular problems

def random_submodular_fn(dims, rng):
    """A random submodular cost from closure-preserving pieces: arbitrary
    per-chain terms, pairwise |x_i - x_j|, (x_i - x_j)^2 or -a x_i x_j
    couplings, and a concave function of the coordinate sum."""
    n = len(dims)
    per_chain = [rng.uniform(0.0, 3.0, size=m) for m in dims]
    pairs = []
    for _ in range(int(rng.integers(1, n + 1))):
        i, j = rng.choice(n, size=2, replace=False)
        pairs.append((int(i), int(j), int(rng.integers(3)), float(rng.uniform(0.05, 0.4))))
    concave_w = float(rng.uniform(0.0, 1.0))

    def fn(x):
        total = sum(float(per_chain[i][xi]) for i, xi in enumerate(x))
        for i, j, kind, a in pairs:
            if kind == 0:
                total += a * abs(x[i] - x[j])
            elif kind == 1:
                total += a * (x[i] - x[j]) ** 2
            else:
                total -= a * x[i] * x[j]
        return total + concave_w * math.sqrt(1.0 + sum(x))

    return fn


@dataclass
class Instance:
    space: lattice.ChainProduct
    oracles: list
    matrix: solvers.WeightMatrix
    params: solvers.SolverParams
    central: bool


class PopulationWorkload:
    """Solves of random problems: 2-4 chains of size 2-5, 2-4 agents.

    Chain and agent counts cycle through all nine combinations and every
    fourth instance is solved centrally on the summed cost, so each block
    of 36 instances holds every combination of the three in equal shares.
    Within a block, each chain position of each combination takes every
    size 2-5 once, in random order.  Sizes stay uniform on 2-5, and a run's
    work varies little between seeds.
    """

    def __init__(self, seed: int, n_instances: int, solver: dict):
        self.seed = seed
        self.n_instances = n_instances
        self.solver = solver
        self.instances: list[Instance] = []
        self.answers: dict[int, object] = {}
        self.tracer = None
        self.probe = None  # host-speed probe run around each solve, if set

    @property
    def n_items(self) -> int:
        return self.n_instances

    def setup(self) -> None:
        rng = np.random.default_rng([3, self.seed])
        for j in range(self.n_instances):
            k = j % 36  # the block's combination k % 9 in its k // 9-th repeat
            if k == 0:
                sizes = [[rng.permutation([2, 3, 4, 5]) for _ in range(4)] for _ in range(9)]
            n_chains, n_agents = 2 + j % 3, 2 + (j // 3) % 3
            space = lattice.ChainProduct([int(sizes[k % 9][c][k // 9]) for c in range(n_chains)])
            oracles = [lattice.Oracle(random_submodular_fn(space.dims, rng), space) for _ in range(n_agents)]
            params = solvers.SolverParams(seed=int(rng.integers(0, 2**31)), **self.solver)
            self.instances.append(
                Instance(space, oracles, solvers.WeightMatrix(line_matrix(n_agents), eta=0.1), params, j % 4 == 3)
            )

    def run_item(self, j: int) -> ItemResult:
        inst = self.instances[j]
        _next_op(self.tracer)
        _probe(self.probe)
        t0 = perf_counter()
        try:
            if inst.central:
                total = lattice.Oracle(lambda x, fs=inst.oracles: sum(f(x) for f in fs), inst.space)
                point, value, _ = solvers.centralized_minimize(total, inst.space, inst.params)
                answer = ([point], [value])
            else:
                points, values, _ = solvers.distributed_minimize(
                    inst.oracles, inst.space, inst.matrix, inst.params
                )
                answer = (points, values)
        except Exception as exc:  # a crash is a failed op
            answer = exc
        latency = perf_counter() - t0
        _probe(self.probe)
        self.answers[j] = answer
        bad = isinstance(answer, Exception) or not all(inst.space.contains(p) for p in answer[0])
        result = ItemResult(
            wall=latency,
            latencies=[latency],
            failed=[bad],
            digest=_sha(repr(answer if bad else answer[0]).encode()),
            starts=[t0],
        )
        if not inst.central and not bad:
            result.consensus_solves = 1
            result.agreed = len(set(answer[0])) == 1
        return result

    def exactness(self) -> tuple[int, int]:
        """Solves whose every agent value equals the brute-force minimum,
        over all instances (compared after timing, not timed)."""
        exact = 0
        for j, inst in enumerate(self.instances):
            answer = self.answers.get(j)
            if answer is None or isinstance(answer, Exception):
                continue
            total = lattice.Oracle(lambda x, fs=inst.oracles: sum(f(x) for f in fs), inst.space)
            best, _ = lattice.brute_force_minimize(total)
            exact += all(v == best for v in answer[1])
        return exact, len(self.instances)


# ---------------------------------------------------------------------------
# Audit: exhaustive check and brute force on game-step problems

def cross_difference_count(dims) -> int:
    """Admissible (point, chain pair) count: sum over i<j of
    (m_i - 1)(m_j - 1) times the product of the other chain sizes."""
    total = 0
    for i in range(len(dims)):
        for j in range(i + 1, len(dims)):
            rest = math.prod(m for k, m in enumerate(dims) if k not in (i, j))
            total += (dims[i] - 1) * (dims[j] - 1) * rest
    return total


# Defender offsets of the audited states: which pairs sit within two cells
# of each other (and so exchange avoidance planes) differs between them.
FORMATIONS = (
    ((0, 0), (1, 1), (2, 0)),
    ((0, 0), (2, 0), (4, 0)),
    ((0, 0), (1, 2), (3, 1)),
    ((0, 0), (2, 2), (3, 0)),
    ((0, 0), (0, 2), (2, 1)),
)


@dataclass
class GameState:
    defenders: list[tuple[int, int]]
    attackers: list[tuple[int, int]]
    rng_seed: int


class AuditWorkload:
    """Step problems from seeded states of a generated 3-defender game."""

    def __init__(self, workdir: Path, seed: int, n_defenders: int, n_states: int):
        self.workdir = workdir
        self.seed = seed
        self.n_defenders = n_defenders
        self.n_states = n_states
        self.path = workdir / "audit.cfg"
        self.scenario = None
        self.states: list[GameState] = []
        self.tracer = None
        self.probe = None  # host-speed probe run around each audit, if set

    @property
    def n_items(self) -> int:
        return self.n_states

    def setup(self) -> None:
        rng = np.random.default_rng([6, self.seed])
        game = generated_game(self.n_defenders, 3, rng)
        self.path.write_text(yaml.safe_dump(game, sort_keys=False))
        self.scenario = scen.load_scenario(self.path)
        arena = self.scenario.arena
        zone_x = [c[0] for c in arena.zone]
        for j in range(self.n_states):
            # Formations cycle, so every seed audits the same mix of
            # avoidance-plane counts; only their placement is random.  The
            # rows used lie above every obstacle's reach.
            offsets = FORMATIONS[j % len(FORMATIONS)][: self.n_defenders]
            x0 = int(rng.integers(min(zone_x) - 2, max(zone_x) - 2))
            y0 = arena.size - 4
            defenders = [(x0 + dx, y0 + dy) for dx, dy in offsets]
            taken = set(arena.obstacles) | set(defenders)
            attackers = _random_cells(rng, 3, (0, arena.size - 1), (2, arena.size - 8), taken)
            self.states.append(GameState(defenders, attackers, int(rng.integers(0, 2**31))))

    def step_problem(self, state: GameState):
        """The joint action problem of a game step, via the ctf step setup."""
        sc = self.scenario
        arena, dp, u_max = sc.arena, sc.defender_params, sc.u_max
        n_d, n_a = len(state.defenders), len(state.attackers)
        active = [True] * n_a
        rng = np.random.default_rng(state.rng_seed)
        predicted = ctf.predict_attackers(state.attackers, active, arena, u_max)
        alphas, pursuit = [], np.zeros((n_d, n_a))
        for i in range(n_d):
            delta = ctf.threat_distance(state.attackers, active, arena.responsibilities[i])
            alphas.append(ctf.adaptive_alpha(
                delta, float(dp.delta_th[i]), dp.beta, dp.alpha_a_nom, dp.alpha_f_nom
            ))
            pursuit[i] = ctf.attacker_pursuit_weights(
                i, state.attackers, active, arena.responsibilities[i], dp.pursuit_gain, rng
            )
        planes = [ctf.avoidance_planes(i, state.defenders, arena.obstacles, u_max) for i in range(n_d)]
        ctx = ctf.StepContext(arena, u_max, list(state.defenders), predicted, alphas, pursuit, planes, dp)
        return ctf.build_step_problem(ctx)

    def run_item(self, j: int) -> ItemResult:
        _next_op(self.tracer)
        _probe(self.probe)
        t0 = perf_counter()
        try:
            oracles, space = self.step_problem(self.states[j])
            total = lattice.Oracle(lambda x, fs=oracles: sum(f(x) for f in fs), space)
            report = lattice.check_submodular(total, space)
            best, argmins = lattice.brute_force_minimize(total, space)
            answer = (space.dims, report, best, argmins)
        except Exception as exc:  # a crash is a failed op
            answer = exc
        latency = perf_counter() - t0
        _probe(self.probe)
        if isinstance(answer, Exception):
            return ItemResult(latency, [latency], [True], _sha(repr(answer).encode()), [t0])
        dims, report, best, argmins = answer
        bad = (
            not report.is_submodular
            or report.points_checked != cross_difference_count(dims)
            or not math.isfinite(best)
            or not argmins
            or not all(space.contains(x) for x in argmins)
        )
        output = f"{report.points_checked} {best!r} {sorted(argmins)}"
        return ItemResult(latency, [latency], [bad], _sha(output.encode()), [t0])

    def notes(self) -> list[str]:
        return [f"cross differences per op: {cross_difference_count((3,) * 2 * self.n_defenders)}"]


def make(name: str, workdir: Path, seed: int, seconds: float, smoke: bool = False):
    """The workload `name` with inputs from `seed`, sized for `seconds`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; pick from {', '.join(WORKLOADS)}")
    n = item_count(name, seconds)
    if name == "fig3":
        return fig3(workdir, seed, 7 if smoke else n, smoke)
    if name == "swarm8":
        return swarm8(workdir, seed, 10 if smoke else n, smoke)
    if name == "population":
        solver = dict(POPULATION_SOLVER, iterations=20) if smoke else POPULATION_SOLVER
        return PopulationWorkload(seed, 36 if smoke else n, solver)
    return AuditWorkload(workdir, seed, 2 if smoke else 3, 20 if smoke else n)
