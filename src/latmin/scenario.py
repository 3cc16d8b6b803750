"""Scenario files: one YAML-structured format for problems and games.

A file is either `kind: problem` (a lattice, one objective per agent from
the built-in registry, optionally a network and solver block) or
`kind: game` (full arena, teams, behavior parameters, network, solver).
Seeds are mandatory; nothing in the toolkit draws from the wall clock.
Every load failure names the offending field, and parse, schema, and
invariant failures are distinct exception types.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
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


def _convert(value, convert, where: str):
    """convert(value); a value it cannot read is a schema error naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioSchemaError(f"{where}: cannot read {value!r}: {exc}") from exc


def _whole(value) -> int:
    """value as an int when it is a whole number: 20 and 20.0 read, 20.9 and true do not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not a whole number")
    return int(value)


def _floats(values) -> list[float]:
    return [float(v) for v in values]


_array = partial(np.asarray, dtype=float)


# ---------------------------------------------------------------------------
# Built-in objectives for standalone problems

def _linear(spec, space):
    coeffs = _convert(spec.get("coefficients", []), _floats, "objectives.coefficients")
    if len(coeffs) != space.n_chains:
        raise ScenarioSchemaError(
            f"objectives.coefficients: need {space.n_chains} values, got {len(coeffs)}"
        )
    return lambda x: sum(c * xi for c, xi in zip(coeffs, x))


def _quadratic(spec, space):
    centers = _convert(spec.get("centers", []), _floats, "objectives.centers")
    weights = _convert(spec.get("weights", [1.0] * space.n_chains), _floats, "objectives.weights")
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

    Construction rejects a speed other than u_max = 1, start cells off the
    grid, on an obstacle, or shared by two defenders, and per-defender
    fields (responsibilities, delta_th, mobility, cohesion, network) sized
    for another team, naming the field.  A single delta_th or mobility
    value is taken for every defender.
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
        n_d = len(self.defenders_start)
        n_sets = len(self.arena.responsibilities)
        if n_sets != n_d:
            raise ScenarioInvariantError(
                f"arena.responsibilities: {n_sets} sets for {n_d} defenders"
            )
        dp = self.defender_params
        for name in ("delta_th", "mobility"):
            values = getattr(dp, name)
            if values.shape not in ((1,), (n_d,)):
                raise ScenarioInvariantError(
                    f"defenders.{name}: need 1 or {n_d} values, got {values.size}"
                )
        if dp.cohesion.shape != (n_d, n_d):
            raise ScenarioInvariantError(
                f"defenders.cohesion: need a {n_d}x{n_d} matrix, got shape {dp.cohesion.shape}"
            )
        if len(self.network_matrix) != n_d:
            raise ScenarioInvariantError(
                f"network.matrix: {len(self.network_matrix)} agents for {n_d} defenders"
            )
        self.defender_params = dataclasses.replace(
            dp, delta_th=np.resize(dp.delta_th, n_d), mobility=np.resize(dp.mobility, n_d)
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


def _mapping(value, where: str, known=None) -> dict:
    """value as a mapping; with `known` given, a key outside it is a schema error.

    `where` is the mapping's dotted name, empty for a file's top level.
    """
    if not isinstance(value, dict):
        raise ScenarioSchemaError(f"{where}: expected a mapping, got {value!r}")
    unknown = set(value) - set(known) if known is not None else set()
    if unknown:
        prefix = f"{where}." if where else ""
        names = ", ".join(prefix + str(key) for key in sorted(unknown, key=str))
        raise ScenarioSchemaError(f"{names}: unknown field")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioSchemaError(f"{where}: expected a list, got {value!r}")
    return value


def _read(block: dict, key: str, where: str, convert=float, default=None):
    """block[key] read by `convert`; required unless a default is given."""
    value = _require(block, key, where) if default is None else block.get(key, default)
    return _convert(value, convert, f"{where}.{key}")


def _cells(value, where: str) -> list[tuple[int, int]]:
    return _convert(value, lambda pairs: [(_whole(x), _whole(y)) for x, y in pairs], where)


NETWORK_FIELDS = ("eta", "matrix")

# The blocks of a game file besides `solver`, and the fields each may hold.
GAME_BLOCKS = {
    "arena": ("size", "horizon", "defense_zone", "responsibilities", "obstacles"),
    "players": ("u_max", "defenders", "attackers"),
    "defenders": tuple(f.name for f in dataclasses.fields(DefenderParams)),
    "attackers": tuple(f.name for f in dataclasses.fields(AttackerParams)),
    "network": NETWORK_FIELDS,
}


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


def _check_network(matrix, eta, where="network") -> list[list[float]]:
    a = _convert(matrix, _array, f"{where}.matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ScenarioSchemaError(f"{where}.matrix: must be square, got shape {a.shape}")
    report = validate_weight_matrix(a, eta)
    if not report.ok:
        raise ScenarioInvariantError(
            f"{where}.matrix: " + "; ".join(report.failures())
        )
    return a.tolist()


def _solver_block(block, where="solver") -> dict:
    block = _mapping(block, where, ("iterations", "gamma", "schedule", "t_hat"))
    out = {
        "iterations": _read(block, "iterations", where, _whole),
        "gamma": _read(block, "gamma", where),
    }
    if "schedule" in block:
        out["schedule"] = str(block["schedule"])
    if "t_hat" in block:
        out["t_hat"] = _read(block, "t_hat", where)
    try:
        SolverParams(seed=0, **out)
    except ValueError as exc:
        raise ScenarioInvariantError(f"{where}.{exc}") from exc
    return out


def _load_problem(data: dict, seed: int) -> Problem:
    _mapping(data, "", ("kind", "seed", "dims", "objectives", "network", "solver"))
    dims = _read(data, "dims", "problem", lambda ms: [_whole(m) for m in ms])
    try:
        ChainProduct(dims)
    except ValueError as exc:
        raise ScenarioInvariantError(f"dims: {exc}") from exc
    objectives = _require(data, "objectives", "problem")
    if not isinstance(objectives, list) or not objectives:
        raise ScenarioSchemaError("objectives: need a non-empty list")
    for k, spec in enumerate(objectives):
        _mapping(spec, f"objectives[{k}]")
    solver = _solver_block(_require(data, "solver", "problem"))
    network = data.get("network")
    matrix = eta = None
    if network is not None:
        _mapping(network, "network", NETWORK_FIELDS)
        matrix = _require(network, "matrix", "network")
        eta = _read(network, "eta", "network")
        matrix = _check_network(matrix, eta)
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
    _mapping(data, "", ("kind", "seed", *GAME_BLOCKS, "solver"))
    arena_block, players, defenders_block, attackers_block, network = (
        _mapping(_require(data, name, "scenario"), name, GAME_BLOCKS[name])
        for name in ("arena", "players", "defenders", "attackers", "network")
    )
    solver = _solver_block(_require(data, "solver", "scenario"))

    responsibilities = [
        _cells(r, f"arena.responsibilities[{i}]")
        for i, r in enumerate(
            _list(_require(arena_block, "responsibilities", "arena"), "arena.responsibilities")
        )
    ]
    try:
        arena = Arena(
            size=_read(arena_block, "size", "arena", _whole),
            horizon=_read(arena_block, "horizon", "arena", _whole),
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
    u_max = _read(players, "u_max", "players", _whole, 1)

    try:
        defender_params = DefenderParams(
            pursuit_gain=_read(defenders_block, "pursuit_gain", "defenders"),
            cohesion=_read(defenders_block, "cohesion", "defenders", _array),
            mobility=_read(defenders_block, "mobility", "defenders", _array, 1.0),
            zeta1=_read(defenders_block, "zeta1", "defenders"),
            zeta2=_read(defenders_block, "zeta2", "defenders"),
            alpha_f_nom=_read(defenders_block, "alpha_f_nom", "defenders"),
            alpha_a_nom=_read(defenders_block, "alpha_a_nom", "defenders"),
            beta=_read(defenders_block, "beta", "defenders"),
            delta_th=_read(defenders_block, "delta_th", "defenders", _array, 0.0),
            distance=str(defenders_block.get("distance", "manhattan")),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioInvariantError(f"defenders.{exc}") from exc

    try:
        attacker_params = AttackerParams(
            eta_avoid_nom=_read(attackers_block, "eta_avoid_nom", "attackers"),
            eta_base_nom=_read(attackers_block, "eta_base_nom", "attackers"),
            delta_th=_read(attackers_block, "delta_th", "attackers"),
            kappa=_read(attackers_block, "kappa", "attackers"),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioInvariantError(f"attackers.{exc}") from exc

    matrix = _require(network, "matrix", "network")
    eta = _read(network, "eta", "network")
    return Scenario(
        seed=seed,
        arena=arena,
        u_max=u_max,
        defenders_start=defenders_start,
        attackers_start=attackers_start,
        defender_params=defender_params,
        attacker_params=attacker_params,
        network_matrix=_check_network(matrix, eta),
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
    seed = _convert(data["seed"], _whole, "seed")
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
