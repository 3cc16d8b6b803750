"""Scenario files: one YAML-structured format for problems and games.

A file is either `kind: problem` (a lattice, one objective per agent from
the built-in registry, optionally a network and solver block) or
`kind: game` (full arena, teams, behavior parameters, network, solver).
Seeds are mandatory; nothing in the toolkit draws from the wall clock.
Every load failure names the offending field, and parse, schema, and
invariant failures are distinct exception types.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .ctf import Arena, AttackerParams, DefenderParams
from .lattice import ChainProduct, Oracle
from .solvers import SolverParams, validate_weight_matrix


class ScenarioError(ValueError):
    """Base class for anything wrong with a scenario file."""


class ScenarioParseError(ScenarioError):
    """The file is not readable structured text."""


class ScenarioSchemaError(ScenarioError):
    """A field is missing, unknown, or of the wrong shape."""


class ScenarioInvariantError(ScenarioError):
    """The fields parse but violate a domain invariant."""


# ---------------------------------------------------------------------------
# Built-in objectives for standalone problems

def _linear(spec, space):
    coeffs = [float(c) for c in spec.get("coefficients", [])]
    if len(coeffs) != space.n_chains:
        raise ScenarioSchemaError(
            f"objectives.coefficients: need {space.n_chains} values, got {len(coeffs)}"
        )
    return lambda x: sum(c * xi for c, xi in zip(coeffs, x))


def _quadratic(spec, space):
    centers = [float(c) for c in spec.get("centers", [])]
    weights = [float(w) for w in spec.get("weights", [1.0] * space.n_chains)]
    if len(centers) != space.n_chains:
        raise ScenarioSchemaError(
            f"objectives.centers: need {space.n_chains} values, got {len(centers)}"
        )
    if len(weights) != space.n_chains:
        raise ScenarioSchemaError(
            f"objectives.weights: need {space.n_chains} values, got {len(weights)}"
        )
    return lambda x: sum(w * (xi - c) ** 2 for w, c, xi in zip(weights, centers, x))


def _product(spec, space):
    def fn(x):
        out = 1.0
        for xi in x:
            out *= xi
        return out

    return fn


OBJECTIVES = {
    "linear": _linear,
    "quadratic": _quadratic,
    "product": _product,
}


def build_objective(spec: dict, space: ChainProduct) -> Oracle:
    """Instantiate a registry objective as a counting oracle."""
    kind = spec.get("type")
    if kind not in OBJECTIVES:
        raise ScenarioSchemaError(
            f"objectives.type: unknown objective {kind!r}; pick from {sorted(OBJECTIVES)}"
        )
    return Oracle(OBJECTIVES[kind](spec, space), space)


# ---------------------------------------------------------------------------
# Records

@dataclass(eq=False)
class Problem:
    """A standalone minimization instance loaded from file."""

    seed: int
    dims: list[int]
    objectives: list[dict]
    solver: dict
    network_matrix: list[list[float]] | None = None
    network_eta: float | None = None

    def space(self) -> ChainProduct:
        return ChainProduct(self.dims)

    def oracles(self) -> list[Oracle]:
        space = self.space()
        return [build_objective(spec, space) for spec in self.objectives]

    def to_dict(self) -> dict:
        out = {
            "kind": "problem",
            "seed": self.seed,
            "dims": list(self.dims),
            "objectives": [dict(o) for o in self.objectives],
            "solver": dict(self.solver),
        }
        if self.network_matrix is not None:
            out["network"] = {"eta": self.network_eta, "matrix": self.network_matrix}
        return out

    def __eq__(self, other):
        return isinstance(other, Problem) and self.to_dict() == other.to_dict()


@dataclass(eq=False)
class Scenario:
    """A full game configuration, loaded from file or built in code.

    Construction rejects a speed other than u_max = 1 and start cells off
    the grid, on an obstacle, or shared by two defenders, naming the field.
    """

    seed: int
    arena: Arena
    u_max: int
    defenders_start: list[tuple[int, int]]
    attackers_start: list[tuple[int, int]]
    defender_params: DefenderParams
    attacker_params: AttackerParams
    network_matrix: list[list[float]]
    network_eta: float
    solver_params: SolverParams

    def __post_init__(self):
        if self.u_max != 1:
            raise ScenarioInvariantError(f"players.u_max: avoidance planes need 1, got {self.u_max}")
        for team, cells in (("defenders", self.defenders_start), ("attackers", self.attackers_start)):
            cells = [tuple(c) for c in cells]
            for i, c in enumerate(cells):
                where = f"players.{team}[{i}]: start {c}"
                if not self.arena.in_grid(c):
                    raise ScenarioInvariantError(f"{where} outside the grid")
                if c in self.arena.obstacles:
                    raise ScenarioInvariantError(f"{where} on an obstacle")
                if team == "defenders" and c in cells[:i]:
                    raise ScenarioInvariantError(
                        f"{where} shared with players.defenders[{cells.index(c)}]"
                    )

    def to_dict(self) -> dict:
        return _scenario_dict(self)

    def __eq__(self, other):
        return isinstance(other, Scenario) and self.to_dict() == other.to_dict()


# ---------------------------------------------------------------------------
# Loading

def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ScenarioSchemaError(f"{where}.{key}: missing required field")
    return block[key]


def _cells(value, where: str) -> list[tuple[int, int]]:
    try:
        cells = [(int(x), int(y)) for x, y in value]
    except (TypeError, ValueError) as exc:
        raise ScenarioSchemaError(f"{where}: expected a list of [x, y] pairs") from exc
    return cells


def _load_yaml(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: not valid structured text: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{path}: empty or top level is not a mapping")
    return data


def _check_network(matrix, eta, where="network"):
    try:
        a = np.asarray(matrix, dtype=float)
    except ValueError as exc:
        raise ScenarioSchemaError(f"{where}.matrix: not a numeric matrix") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ScenarioSchemaError(f"{where}.matrix: must be square, got shape {a.shape}")
    report = validate_weight_matrix(a, eta)
    if not report.ok:
        raise ScenarioInvariantError(
            f"{where}.matrix: " + "; ".join(report.failures())
        )


def _solver_block(block: dict, where="solver") -> dict:
    known = {"iterations", "gamma", "schedule", "t_hat"}
    unknown = set(block) - known
    if unknown:
        raise ScenarioSchemaError(f"{where}: unknown fields {sorted(unknown)}")
    out = {
        "iterations": int(_require(block, "iterations", where)),
        "gamma": float(_require(block, "gamma", where)),
    }
    if "schedule" in block:
        out["schedule"] = str(block["schedule"])
    if "t_hat" in block:
        out["t_hat"] = float(block["t_hat"])
    try:
        SolverParams(seed=0, **out)
    except ValueError as exc:
        raise ScenarioInvariantError(f"{where}: {exc}") from exc
    return out


def _load_problem(data: dict, seed: int) -> Problem:
    dims = [int(m) for m in _require(data, "dims", "problem")]
    try:
        ChainProduct(dims)
    except ValueError as exc:
        raise ScenarioInvariantError(f"dims: {exc}") from exc
    objectives = _require(data, "objectives", "problem")
    if not isinstance(objectives, list) or not objectives:
        raise ScenarioSchemaError("objectives: need a non-empty list")
    solver = _solver_block(_require(data, "solver", "problem"))
    network = data.get("network")
    matrix = eta = None
    if network is not None:
        matrix = _require(network, "matrix", "network")
        eta = float(_require(network, "eta", "network"))
        _check_network(matrix, eta)
        if len(matrix) != len(objectives):
            raise ScenarioInvariantError(
                f"network.matrix: {len(matrix)} agents but {len(objectives)} objectives"
            )
    problem = Problem(
        seed=seed,
        dims=dims,
        objectives=[dict(o) for o in objectives],
        solver=solver,
        network_matrix=matrix,
        network_eta=eta,
    )
    space = problem.space()
    for spec in problem.objectives:
        build_objective(spec, space)  # validates shapes up front
    return problem


def _load_game(data: dict, seed: int) -> Scenario:
    arena_block = _require(data, "arena", "scenario")
    players = _require(data, "players", "scenario")
    defenders_block = _require(data, "defenders", "scenario")
    attackers_block = _require(data, "attackers", "scenario")
    network = _require(data, "network", "scenario")
    solver = _solver_block(_require(data, "solver", "scenario"))

    responsibilities = [
        _cells(r, f"arena.responsibilities[{i}]")
        for i, r in enumerate(_require(arena_block, "responsibilities", "arena"))
    ]
    try:
        arena = Arena(
            size=int(_require(arena_block, "size", "arena")),
            horizon=int(_require(arena_block, "horizon", "arena")),
            zone=_cells(_require(arena_block, "defense_zone", "arena"), "arena.defense_zone"),
            responsibilities=responsibilities,
            obstacles=set(_cells(arena_block.get("obstacles", []), "arena.obstacles")),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioInvariantError(f"arena: {exc}") from exc

    defenders_start = _cells(_require(players, "defenders", "players"), "players.defenders")
    attackers_start = _cells(_require(players, "attackers", "players"), "players.attackers")
    u_max = int(players.get("u_max", 1))
    n_d = len(defenders_start)
    if len(responsibilities) != n_d:
        raise ScenarioInvariantError(
            f"arena.responsibilities: {len(responsibilities)} sets for {n_d} defenders"
        )

    delta_th = defenders_block.get("delta_th", 0.0)
    if np.isscalar(delta_th):
        delta_th = [float(delta_th)] * n_d
    if len(delta_th) != n_d:
        raise ScenarioInvariantError(
            f"defenders.delta_th: need 1 or {n_d} values, got {len(delta_th)}"
        )
    mobility = defenders_block.get("mobility", 1.0)
    if np.isscalar(mobility):
        mobility = [float(mobility)] * n_d
    if len(mobility) != n_d:
        raise ScenarioInvariantError(
            f"defenders.mobility: need 1 or {n_d} values, got {len(mobility)}"
        )
    cohesion = np.asarray(_require(defenders_block, "cohesion", "defenders"), dtype=float)
    if cohesion.shape != (n_d, n_d):
        raise ScenarioInvariantError(
            f"defenders.cohesion: need a {n_d}x{n_d} matrix, got shape {cohesion.shape}"
        )
    try:
        defender_params = DefenderParams(
            pursuit_gain=float(_require(defenders_block, "pursuit_gain", "defenders")),
            cohesion=cohesion,
            mobility=mobility,
            zeta1=float(_require(defenders_block, "zeta1", "defenders")),
            zeta2=float(_require(defenders_block, "zeta2", "defenders")),
            alpha_f_nom=float(_require(defenders_block, "alpha_f_nom", "defenders")),
            alpha_a_nom=float(_require(defenders_block, "alpha_a_nom", "defenders")),
            beta=float(_require(defenders_block, "beta", "defenders")),
            delta_th=[float(d) for d in delta_th],
            distance=str(defenders_block.get("distance", "manhattan")),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioInvariantError(f"defenders: {exc}") from exc

    try:
        attacker_params = AttackerParams(
            eta_avoid_nom=float(_require(attackers_block, "eta_avoid_nom", "attackers")),
            eta_base_nom=float(_require(attackers_block, "eta_base_nom", "attackers")),
            delta_th=float(_require(attackers_block, "delta_th", "attackers")),
            kappa=float(_require(attackers_block, "kappa", "attackers")),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioInvariantError(f"attackers: {exc}") from exc

    matrix = _require(network, "matrix", "network")
    eta = float(_require(network, "eta", "network"))
    _check_network(matrix, eta)
    if len(matrix) != n_d:
        raise ScenarioInvariantError(
            f"network.matrix: {len(matrix)} agents for {n_d} defenders"
        )

    return Scenario(
        seed=seed,
        arena=arena,
        u_max=u_max,
        defenders_start=defenders_start,
        attackers_start=attackers_start,
        defender_params=defender_params,
        attacker_params=attacker_params,
        network_matrix=[[float(v) for v in row] for row in matrix],
        network_eta=eta,
        solver_params=SolverParams(seed=seed, **solver),
    )


def load_scenario(path) -> Scenario | Problem:
    """Load and fully validate a scenario or problem file."""
    data = _load_yaml(path)
    kind = data.get("kind")
    if kind not in ("problem", "game"):
        raise ScenarioSchemaError(
            f"kind: expected 'problem' or 'game', got {kind!r}"
        )
    if "seed" not in data:
        raise ScenarioSchemaError("seed: missing required field (seeds are mandatory)")
    seed = int(data["seed"])
    if kind == "problem":
        return _load_problem(data, seed)
    return _load_game(data, seed)


# ---------------------------------------------------------------------------
# Writing

def _scenario_dict(s: Scenario) -> dict:
    return {
        "kind": "game",
        "seed": s.seed,
        "arena": {
            "size": s.arena.size,
            "horizon": s.arena.horizon,
            "defense_zone": [list(c) for c in s.arena.zone],
            "responsibilities": [[list(c) for c in r] for r in s.arena.responsibilities],
            "obstacles": [list(c) for c in sorted(s.arena.obstacles)],
        },
        "players": {
            "u_max": s.u_max,
            "defenders": [list(c) for c in s.defenders_start],
            "attackers": [list(c) for c in s.attackers_start],
        },
        "defenders": {
            "pursuit_gain": s.defender_params.pursuit_gain,
            "cohesion": [[float(v) for v in row] for row in s.defender_params.cohesion],
            "mobility": [float(v) for v in s.defender_params.mobility],
            "zeta1": s.defender_params.zeta1,
            "zeta2": s.defender_params.zeta2,
            "alpha_f_nom": s.defender_params.alpha_f_nom,
            "alpha_a_nom": s.defender_params.alpha_a_nom,
            "beta": s.defender_params.beta,
            "delta_th": [float(v) for v in s.defender_params.delta_th],
            "distance": s.defender_params.distance,
        },
        "attackers": {
            "eta_avoid_nom": s.attacker_params.eta_avoid_nom,
            "eta_base_nom": s.attacker_params.eta_base_nom,
            "delta_th": s.attacker_params.delta_th,
            "kappa": s.attacker_params.kappa,
        },
        "network": {"eta": s.network_eta, "matrix": s.network_matrix},
        "solver": {
            "iterations": s.solver_params.iterations,
            "gamma": s.solver_params.gamma,
            "schedule": s.solver_params.schedule,
            "t_hat": s.solver_params.t_hat,
        },
    }


def write_scenario(path, record: Scenario | Problem) -> None:
    """Serialize a scenario/problem so that loading it back is identity."""
    Path(path).write_text(yaml.safe_dump(record.to_dict(), sort_keys=False))


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'paper_fig3.cfg')."""
    return Path(resources.files("latmin") / "scenarios" / name)
