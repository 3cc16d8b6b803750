"""Scenario files: one YAML-structured format for problems and games.

A file is either `kind: problem` (a lattice, one objective per agent from
the built-in registry, optionally a network and solver block) or
`kind: game` (full arena, teams, behavior parameters, network, solver).
Seeds are mandatory; nothing in the toolkit draws from the wall clock.
One field table per kind drives loading, unknown-key checks, defaults and
writing.  Every load failure names the offending field, and parse,
schema, and invariant failures are distinct exception types.
"""

from __future__ import annotations

import dataclasses
import reprlib
from collections.abc import Hashable
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .ctf import Arena, AttackerParams, DefenderParams
from .lattice import ChainProduct, Oracle, _left_sum
from .solvers import SolverParams, WeightMatrix


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
        # Cut short in depth and length: a file can nest lists deeper than
        # `repr` can recurse, or make a list that holds itself.
        raise ScenarioSchemaError(f"{where}: cannot read {reprlib.repr(value)}: {exc}") from exc


def _holds(value, kind) -> bool:
    """Whether value is a `kind`, or a list that holds one at any depth.

    Each list is walked once: a YAML alias can make a list that holds itself.
    """
    pending, seen = [value], set()
    while pending:
        value = pending.pop()
        if isinstance(value, kind):
            return True
        if isinstance(value, list) and id(value) not in seen:
            seen.add(id(value))
            pending.extend(value)
    return False


def _numbers(value):
    """value unless it is or holds a string or a boolean: neither "7" nor true is a number."""
    for kind, name in ((str, "a string"), (bool, "a boolean")):
        if _holds(value, kind):
            raise ValueError(f"expected a number, got {name}")
    return value


def _whole(value) -> int:
    """value as an int when it is a whole number: 20 and 20.0 read, 20.9, true and "20" do not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not a whole number")
    return int(_numbers(value))


def _seed(value) -> int:
    seed = _whole(value)
    if seed < 0:
        raise ValueError("seeds are non-negative")
    return seed


def _items(values) -> list:
    """values when it is a list: a mapping or a string is not read as its keys or characters."""
    if not isinstance(values, list):
        raise TypeError("expected a list")
    return values


def _floats(values) -> list[float]:
    numbers = [float(v) for v in _items(_numbers(values))]
    if not np.all(np.isfinite(numbers)):
        raise ValueError("not finite")
    return numbers


def _cells(pairs) -> list[tuple[int, int]]:
    return [(_whole(x), _whole(y)) for x, y in _items(pairs)]


def _mapping(value, where: str, known=None) -> dict:
    """value as a mapping; with `known` given, a key outside it is a schema error.

    `where` is the mapping's dotted name, empty for a file's top level.
    """
    if not isinstance(value, dict):
        raise ScenarioSchemaError(f"{where}: expected a mapping, got {reprlib.repr(value)}")
    unknown = set(value) - set(known) if known is not None else set()
    if unknown:
        prefix = f"{where}." if where else ""
        names = ", ".join(prefix + str(key) for key in sorted(unknown, key=str))
        raise ScenarioSchemaError(f"{names}: unknown field")
    return value


# ---------------------------------------------------------------------------
# Field tables.  A reader reads a file value at its dotted name `where` and
# checks its shape; a field's `write` puts the record's value in file form.

def _leaf(convert):
    """A reader of one value that `convert` reads."""
    return lambda value, where: _convert(value, convert, where)


def _each(read):
    """A reader of a list whose entries `read` reads, each named `where[i]`."""
    return lambda value, where: [
        read(v, f"{where}[{i}]") for i, v in enumerate(_convert(value, _items, where))
    ]


def _cell_lists(cells) -> list[list[int]]:
    return [list(c) for c in cells]


@dataclass(frozen=True)
class Field:
    """A block's key: its reader, its default when absent (`...`: required;
    None: set nothing), the record attribute it fills (default: the key),
    and its writer."""

    key: str
    read: object
    default: object = ...
    attr: str | None = None
    write: object = lambda value: value  # a block writes with its table

    @property
    def flat(self) -> bool:
        """A block that builds no record of its own keeps its fields on the parent's record."""
        return isinstance(self.read, Table) and self.read.build is dict


@dataclass(frozen=True)
class Table:
    """A block: its fields in file order, and the record `build(**fields)` makes of them.

    As a reader it rejects unknown keys and turns a ValueError from `build`
    into an invariant error prefixed by the block's name.  `write` skips
    None and a block with nothing to write.
    """

    fields: tuple
    build: object = dict

    def __call__(self, value, where: str):
        block = _mapping(value, where, [f.key for f in self.fields])
        values = {}
        for f in self.fields:
            name = f"{where}.{f.key}" if where else f.key
            if f.key in block:
                read = f.read(block[f.key], name)
            elif f.default is ...:
                raise ScenarioSchemaError(f"{name}: missing required field")
            elif f.default is None:
                continue
            else:
                read = f.default
            if f.flat:
                values.update(read)
            else:
                values[f.attr or f.key] = read
        try:
            return self.build(**values)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioInvariantError(f"{where}.{exc}" if where else str(exc)) from exc

    def write(self, record) -> dict | None:
        out = {}
        for f in self.fields:
            value = record if f.flat else getattr(record, f.attr or f.key)
            written = None if value is None else getattr(f.read, "write", f.write)(value)
            if written is not None:
                out[f.key] = written
        return out or None


WHOLE = _leaf(_whole)
FLOAT = _leaf(lambda value: float(_numbers(value)))
TEXT = _leaf(str)
ARRAY = _leaf(lambda values: np.asarray(_numbers(values), dtype=float))
FLOATS = _leaf(_floats)
CELLS = _leaf(_cells)


# ---------------------------------------------------------------------------
# Built-in objectives for standalone problems

def _linear(x, coefficients):
    return _left_sum(c * xi for c, xi in zip(coefficients, x))


def _quadratic(x, centers, weights=None):
    weights = [1.0] * len(x) if weights is None else weights
    return _left_sum(w * (xi - c) ** 2 for w, c, xi in zip(weights, centers, x))


def _product(x):
    out = 1.0
    for xi in x:
        out *= xi
    return out


# Each type's cost and field table; every field but `type` holds one number per chain.
TYPE = Field("type", TEXT)
OBJECTIVES = {
    "linear": (_linear, Table((TYPE, Field("coefficients", FLOATS)))),
    "quadratic": (_quadratic, Table((TYPE, Field("centers", FLOATS), Field("weights", FLOATS, None)))),
    "product": (_product, Table((TYPE,))),
}


def _objective(value, where: str) -> dict:
    """An objective entry, read by the field table its `type` picks."""
    kind = _mapping(value, where).get("type")
    if not isinstance(kind, str) or kind not in OBJECTIVES:
        raise ScenarioSchemaError(
            f"{where}.type: unknown objective {reprlib.repr(kind)}; pick from {sorted(OBJECTIVES)}"
        )
    return OBJECTIVES[kind][1](value, where)


def build_objective(spec: dict, space: ChainProduct, where: str = "objectives") -> Oracle:
    """Instantiate a registry objective as a counting oracle; errors name it `where`."""
    values = _objective(spec, where)
    cost = OBJECTIVES[values.pop("type")][0]
    for key, numbers in values.items():
        if len(numbers) != space.n_chains:
            raise ScenarioSchemaError(
                f"{where}.{key}: need {space.n_chains} values, got {len(numbers)}"
            )
    return Oracle(partial(cost, **values), space)


# ---------------------------------------------------------------------------
# Records

def _check_network(network: WeightMatrix, n_agents: int, team: str) -> None:
    if network.n_agents != n_agents:
        raise ScenarioInvariantError(f"network.matrix: {network.n_agents} agents for {n_agents} {team}")


@dataclass(eq=False)
class Problem:
    """A standalone minimization instance loaded from file.

    Construction checks `dims`, the objectives and the network's size, if
    any, naming the field.  The solver runs at the problem's seed.
    """

    seed: int
    dims: list[int]
    objectives: list[dict]
    solver: SolverParams
    network: WeightMatrix | None = None

    def __post_init__(self):
        self.solver = dataclasses.replace(self.solver, seed=self.seed)
        try:
            self.space()
        except ValueError as exc:
            raise ScenarioInvariantError(f"dims: {exc}") from exc
        if not self.objectives:
            raise ScenarioInvariantError("objectives: need a non-empty list")
        self.oracles()
        if self.network is not None:
            _check_network(self.network, len(self.objectives), "objectives")

    def space(self) -> ChainProduct:
        return ChainProduct(self.dims)

    def oracles(self) -> list[Oracle]:
        space = self.space()
        return [build_objective(o, space, f"objectives[{k}]") for k, o in enumerate(self.objectives)]

    def to_dict(self) -> dict:
        return {"kind": "problem", **PROBLEM.write(self)}

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
    network: WeightMatrix
    solver: SolverParams

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
        _check_network(self.network, n_d, "defenders")
        self.defender_params = dataclasses.replace(
            dp, delta_th=np.resize(dp.delta_th, n_d), mobility=np.resize(dp.mobility, n_d)
        )

    def to_dict(self) -> dict:
        return {"kind": "game", **GAME.write(self)}

    def __eq__(self, other):
        return isinstance(other, Scenario) and self.to_dict() == other.to_dict()


# ---------------------------------------------------------------------------
# A file's keys are written in the order its table lists them.

SOLVER = Field("solver", Table((
    Field("iterations", WHOLE),
    Field("gamma", FLOAT),
    Field("schedule", TEXT, None),
    Field("t_hat", FLOAT, None),
), SolverParams))
NETWORK = Table((
    Field("eta", FLOAT),
    Field("matrix", ARRAY, attr="entries", write=np.ndarray.tolist),
), WeightMatrix)

GAME = Table((
    Field("seed", _leaf(_seed)),
    Field("arena", Table((
        Field("size", WHOLE),
        Field("horizon", WHOLE),
        Field("defense_zone", CELLS, attr="zone", write=_cell_lists),
        Field("responsibilities", _each(CELLS), write=lambda sets: [_cell_lists(r) for r in sets]),
        Field("obstacles", CELLS, (), write=lambda cells: _cell_lists(sorted(cells))),
    ), Arena)),
    Field("players", Table((
        Field("u_max", WHOLE, 1),
        Field("defenders", CELLS, attr="defenders_start", write=_cell_lists),
        Field("attackers", CELLS, attr="attackers_start", write=_cell_lists),
    ))),
    Field("defenders", Table((
        Field("pursuit_gain", FLOAT),
        Field("cohesion", ARRAY, write=np.ndarray.tolist),
        Field("mobility", ARRAY, 1.0, write=np.ndarray.tolist),
        Field("zeta1", FLOAT),
        Field("zeta2", FLOAT),
        Field("alpha_f_nom", FLOAT),
        Field("alpha_a_nom", FLOAT),
        Field("beta", FLOAT),
        Field("delta_th", ARRAY, 0.0, write=np.ndarray.tolist),
        Field("distance", TEXT, None),
    ), DefenderParams), attr="defender_params"),
    Field("attackers", Table((
        Field("eta_avoid_nom", FLOAT),
        Field("eta_base_nom", FLOAT),
        Field("delta_th", FLOAT),
        Field("kappa", FLOAT),
    ), AttackerParams), attr="attacker_params"),
    Field("network", NETWORK),
    SOLVER,
), Scenario)

PROBLEM = Table((
    Field("seed", _leaf(_seed)),
    Field("dims", _leaf(lambda ms: [_whole(m) for m in _items(ms)])),
    Field("objectives", _each(_objective), write=lambda specs: [dict(s) for s in specs]),
    SOLVER,
    Field("network", NETWORK, None),
), Problem)


# ---------------------------------------------------------------------------
# Loading and writing

class _LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's parser when PyYAML was built with it.  Both loaders resolve
    and construct with the same safe rules, so they load the same records.
    A key given twice in one mapping is refused, naming both of its lines."""

    def construct_mapping(self, node, deep=False):
        first_lines = {}
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                continue  # the base class rejects it
            if key in first_lines:
                raise yaml.constructor.ConstructorError(
                    None, None,
                    f"duplicate key {key!r} (first given on line {first_lines[key]})",
                    key_node.start_mark,
                )
            first_lines[key] = key_node.start_mark.line + 1
        return super().construct_mapping(node, deep=deep)


def _one_line(exc: yaml.YAMLError) -> str:
    """The parser's report in one line: its context, then its problem, each with
    its line and column when it has a mark, or the position of a character that
    cannot be read."""
    if isinstance(exc, yaml.reader.ReaderError):
        return f"unacceptable character #x{exc.character:04x}: {exc.reason} at position {exc.position}"
    return "; ".join(
        text + (f" at line {mark.line + 1}, column {mark.column + 1}" if mark else "")
        for text, mark in ((exc.context, exc.context_mark), (exc.problem, exc.problem_mark))
        if text
    )


# Deepest collection nesting a file may have.  libyaml's composer recurses per
# level and kills the process at about 25,000; the parser's events do not recurse.
MAX_NESTING = 10_000
# The same without libyaml: the pure-Python composer takes two Python frames a
# level, so it raises RecursionError at about 500 under the default limit of 1,000.
PURE_MAX_NESTING = 200


def _refuse_deep_nesting(raw: bytes) -> None:
    """Raise a parse error at the first collection that starts more levels
    deep than `_LOADER`'s limit: MAX_NESTING for libyaml, else PURE_MAX_NESTING.
    Every collection starts at one of the bytes `[{-:?`, so a file with no
    more of them than the limit is not walked."""
    limit = MAX_NESTING if issubclass(_LOADER, getattr(yaml, "CSafeLoader", ())) else PURE_MAX_NESTING
    if sum(map(raw.count, (b"[", b"{", b"-", b":", b"?"))) <= limit:
        return
    depth = 0
    for event in yaml.parse(raw, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > limit:
                raise yaml.MarkedYAMLError(
                    problem=f"nested deeper than {limit} levels", problem_mark=event.start_mark
                )
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def _load_yaml(path) -> dict:
    try:
        raw = Path(path).read_bytes()  # PyYAML decodes UTF-8, or UTF-16 with a BOM
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        _refuse_deep_nesting(raw)
        data = yaml.load(raw, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: not valid structured text: {_one_line(exc)}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{path}: empty or top level is not a mapping")
    return data


def load_scenario(path) -> Scenario | Problem:
    """Load and fully validate a scenario or problem file."""
    data = _load_yaml(path)
    kind = data.pop("kind", None)
    if kind not in ("problem", "game"):
        raise ScenarioSchemaError(
            f"kind: expected 'problem' or 'game', got {reprlib.repr(kind)}"
        )
    return (PROBLEM if kind == "problem" else GAME)(data, "")


def write_scenario(path, record: Scenario | Problem) -> None:
    """Serialize a scenario/problem so that loading it back is identity."""
    Path(path).write_text(yaml.safe_dump(record.to_dict(), sort_keys=False))


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'paper_fig3.cfg')."""
    return Path(resources.files("latmin") / "scenarios" / name)
