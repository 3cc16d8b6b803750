"""The scenario field tables: malformed fields, unknown keys, seeds, and round trips."""

import copy
import dataclasses
import hashlib
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from latmin.cli import main
from latmin.ctf import AttackerParams, DefenderParams
from latmin import scenario
from latmin.scenario import (
    GAME,
    PROBLEM,
    ScenarioInvariantError,
    ScenarioParseError,
    ScenarioSchemaError,
    bundled_scenario_path,
    load_scenario,
    write_scenario,
)
from latmin.solvers import SolverParams

GOLDEN = bundled_scenario_path("paper_fig3.cfg")
README = Path(__file__).resolve().parent.parent / "README.md"
README_PROBLEM = re.search(r"### `kind: problem`\n\n```yaml\n(.*?)```", README.read_text(), re.S)[1]


def field_paths(node, prefix=()):
    """Every key's path in a file: through mappings and lists of mappings (objective entries)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from field_paths(value, prefix + (key,))
    elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        for i, value in enumerate(node):
            yield prefix + (i,)
            yield from field_paths(value, prefix + (i,))


def dotted(path) -> str:
    out = ""
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else (f".{step}" if out else step)
    return out


FILES = {"fig3": yaml.safe_load(GOLDEN.read_text()), "problem": yaml.safe_load(README_PROBLEM)}
FIELDS = [(name, path) for name, data in FILES.items() for path in field_paths(data)]
EDITS = {
    "scalar": 7,
    "text": "x",
    "list": [1, 2],
    "mapping": {"a": 1},
    "nan": math.nan,
    "null": None,
    "negative": -1,
}


def edited(data, path, edit):
    """data with the field at `path` replaced by an EDITS value, misspelt or deleted."""
    data = copy.deepcopy(data)
    *parents, key = path
    block = data
    for step in parents:
        block = block[step]
    if edit == "misspell":
        block[f"{key}x"] = block.pop(key)
    elif edit == "delete":
        block.pop(key)
    else:
        block[key] = EDITS[edit]
    return data


def names_field(err: str, path) -> bool:
    """err names the field: its dotted name, or, for a rule between two fields
    of one block (`alpha_f_nom` sums to 1 with `alpha_a_nom`), the block and its key."""
    block, key = dotted(path[:-1]), str(path[-1])
    return dotted(path) in err or (f"{block}." in err and key in err)


class TestMalformedFieldProperty:
    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        field=st.sampled_from(FIELDS),
        edit=st.sampled_from([*EDITS, "misspell", "delete"]),
    )
    def test_check_succeeds_or_exits_two_naming_the_field(self, field, edit, capsys):
        name, path = field
        assume(not (isinstance(path[-1], int) and edit in ("misspell", "delete")))
        data = edited(FILES[name], path, edit)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "edited.cfg"
            cfg.write_text(yaml.safe_dump(data))
            code = main(["check", str(cfg)])
        err = capsys.readouterr().err
        if edit == "misspell":
            assert code == 2
            misspelt = (*path[:-1], f"{path[-1]}x")
            assert names_field(err, path) or names_field(err, misspelt), err
        else:
            assert code in (0, 2)
            assert code == 0 or names_field(err, path), err


# A quoted number in each kind of numeric field: (file, field path, value, field named).
QUOTED = [
    ("fig3", ("seed",), "7", "seed"),
    ("fig3", ("arena", "size"), "20", "arena.size"),
    ("fig3", ("defenders", "zeta1"), "200", "defenders.zeta1"),
    ("fig3", ("players", "defenders", 0), ["4", "17"], "players.defenders"),
    ("fig3", ("defenders", "mobility"), ["1", "1", "1", "1"], "defenders.mobility"),
    ("fig3", ("network", "eta"), "0.1", "network.eta"),
    ("fig3", ("network", "matrix", 0, 0), "0.7", "network.matrix"),
    ("fig3", ("solver", "iterations"), "20", "solver.iterations"),
    ("problem", ("dims",), ["3", "4"], "dims"),
    ("problem", ("objectives", 0, "coefficients"), ["0.5", "-1.0"], "objectives[0].coefficients"),
]
# A boolean in a field of each number reader: float, array and float list.
BOOLEANS = [
    ("fig3", ("defenders", "zeta1"), True, "defenders.zeta1"),
    ("fig3", ("solver", "gamma"), True, "solver.gamma"),
    ("fig3", ("network", "matrix", 0, 0), True, "network.matrix"),
    ("fig3", ("defenders", "mobility"), [1.0, False, 1.0, 1.0], "defenders.mobility"),
    ("problem", ("objectives", 0, "coefficients"), [True, -1.0], "objectives[0].coefficients"),
]
# A broken sum rule between two fields: (file, field path, value, message).
SUM_RULES = [
    ("fig3", ("defenders", "alpha_a_nom"), 5, "defenders.alpha_f_nom, alpha_a_nom: "
     "nominal behavior weights must sum to 1, got 0.9 and 5.0"),
    ("fig3", ("attackers", "eta_base_nom"), 5, "attackers.eta_avoid_nom, eta_base_nom: "
     "nominal mode weights must sum to 1, got 0.7 and 5.0"),
]
# A switch threshold whose mode weight exp(rate * delta_th) overflows at distance 0.
SWITCH_EXPONENTS = [
    ("fig3", ("defenders", "delta_th"), 5000.0,
     "defenders.delta_th: beta * delta_th must be at most 709.782712893, got 3500"),
    ("fig3", ("attackers", "delta_th"), 5000.0,
     "attackers.delta_th: kappa * delta_th must be at most 709.782712893, got 4500"),
]
VALUE_ERRORS = [
    *[
        (name, path, value, ScenarioSchemaError,
         rf"{re.escape(field)}: cannot read .*: expected a number, got a string")
        for name, path, value, field in QUOTED
    ],
    *[
        (name, path, value, ScenarioInvariantError, re.escape(m))
        for name, path, value, m in SUM_RULES + SWITCH_EXPONENTS
    ],
]


@pytest.mark.parametrize(
    "name, path, value, error, message", VALUE_ERRORS, ids=[dotted(c[1]) for c in VALUE_ERRORS]
)
def test_value_errors_name_the_field(tmp_path, capsys, name, path, value, error, message):
    data = copy.deepcopy(FILES[name])
    *parents, key = path
    block = data
    for step in parents:
        block = block[step]
    block[key] = value
    cfg = write_yaml(tmp_path / "edited.cfg", data)
    with pytest.raises(error) as caught:
        load_scenario(cfg)
    assert re.fullmatch(message, str(caught.value)), caught.value
    assert main(["check", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {caught.value}\n"


def problem_with(**fields):
    data = yaml.safe_load(README_PROBLEM)
    data.update(fields)
    return data


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return path


class TestObjectiveEntries:
    @pytest.mark.parametrize(
        "objectives, message",
        [
            (
                [{"type": "linear", "coefficients": [1.0]},
                 {"type": "quadratic", "centers": [2.0], "weight": [3.0]}],
                r"objectives\[1\]\.weight: unknown field",
            ),
            ([{"type": ["linear"]}], r"objectives\[0\]\.type: unknown objective \['linear'\]"),
            ([{"type": {"a": 1}}], r"objectives\[0\]\.type: unknown objective"),
            (
                [{"type": "linear", "coefficients": [1.0]},
                 {"type": "linear", "coefficients": [1.0, 2.0]}],
                r"objectives\[1\]\.coefficients: need 1 values, got 2",
            ),
            ([{"type": "product", "coefficients": [1.0]}], r"objectives\[0\]\.coefficients: unknown"),
            ([{"type": "linear"}], r"objectives\[0\]\.coefficients: missing required field"),
        ],
        ids=["misspelt-key", "type-list", "type-mapping", "entry-named", "foreign-key", "missing"],
    )
    def test_entry_errors_name_the_entry(self, tmp_path, capsys, objectives, message):
        path = write_yaml(tmp_path / "problem.cfg", problem_with(objectives=objectives))
        with pytest.raises(ScenarioSchemaError, match=rf"^{message}"):
            load_scenario(path)
        assert main(["check", str(path)]) == 2
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("field", ["coefficients", "centers", "weights"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_numbers_rejected_before_solving(self, tmp_path, capsys, field, value):
        objectives = [
            {"type": "linear", "coefficients": [1.0]},
            {"type": "quadratic", "centers": [2.0], "weights": [1.0]},
        ]
        objectives[0 if field == "coefficients" else 1][field] = [value]
        path = write_yaml(tmp_path / "problem.cfg", problem_with(objectives=objectives))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == 2
        where = f"objectives[{0 if field == 'coefficients' else 1}].{field}"
        assert f"{where}: cannot read [{value}]: not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_weights_default_to_one(self, tmp_path):
        objectives = [{"type": "quadratic", "centers": [2.0]} for _ in range(2)]
        path = write_yaml(tmp_path / "problem.cfg", problem_with(objectives=objectives))
        problem = load_scenario(path)
        assert [f((0,)) for f in problem.oracles()] == [4.0, 4.0]
        assert "weights" not in problem.to_dict()["objectives"][0]


class TestSeeds:
    @pytest.mark.parametrize("kind", ["game", "problem"])
    def test_negative_seed_in_file_names_seed(self, tmp_path, capsys, kind):
        data = yaml.safe_load(GOLDEN.read_text()) if kind == "game" else problem_with()
        data["seed"] = -1
        path = write_yaml(tmp_path / "seed.cfg", data)
        with pytest.raises(ScenarioSchemaError, match=r"^seed: .*non-negative"):
            load_scenario(path)
        command = "simulate" if kind == "game" else "solve"
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize("seed", ["-5", "x", "1.5", "²"])
    def test_bad_seed_override_is_a_usage_error(self, tmp_path, capsys, command, seed):
        path = write_yaml(tmp_path / "problem.cfg", problem_with()) if command == "solve" else GOLDEN
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out), "--seed-override", seed]) == 2
        err = capsys.readouterr().err
        assert "--seed-override" in err
        assert "seeds are non-negative integers" in err
        assert not out.exists()

    def test_problem_solver_runs_at_the_seed(self, tmp_path):
        problem = load_scenario(write_yaml(tmp_path / "problem.cfg", problem_with(seed=11)))
        assert problem.solver.seed == 11
        assert dataclasses.replace(problem, seed=12).solver.seed == 12


# sha256 of `write_scenario` output for the bundled game and the README problem.
WRITTEN = {
    "fig3": "77d19101d3add064994a1e9962db570b45ef3bdc086f7944bf54b6fc2eefd845",
    "problem": "273a3299e075c04bafce38f345010d3ac38dc09ae7531fc43f5c5bfa2b4e5a9a",
}


class TestWriting:
    @pytest.mark.parametrize("name", sorted(WRITTEN))
    def test_written_bytes_are_pinned(self, tmp_path, name):
        source = tmp_path / "source.cfg"
        source.write_text(README_PROBLEM if name == "problem" else GOLDEN.read_text())
        out = tmp_path / "written.cfg"
        write_scenario(out, load_scenario(source))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITTEN[name]

    @pytest.mark.parametrize("name", sorted(WRITTEN))
    def test_a_record_built_from_numpy_scalars_writes_and_loads_back_equal(self, tmp_path, name):
        source = tmp_path / "source.cfg"
        source.write_text(README_PROBLEM if name == "problem" else GOLDEN.read_text())
        original = load_scenario(source)
        rebuilt = numpy_scalars(original)
        out = tmp_path / "written.cfg"
        write_scenario(out, rebuilt)
        assert load_scenario(out) == original
        assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITTEN[name]
        assert type(rebuilt.seed) is int and type(rebuilt.solver.iterations) is int

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_write_then_load_is_identity_on_generated_games(self, data):
        assert_round_trip(data.draw(games()))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_write_then_load_is_identity_on_generated_problems(self, data):
        assert_round_trip(data.draw(problems()))


def numpy_scalars(value):
    """`value` with each Python int and float in it, through records, mappings'
    values, lists, tuples and sets, made a numpy scalar; arrays and strings are kept."""
    if value is None or isinstance(value, (bool, str, np.ndarray)):
        return value
    if isinstance(value, dict):
        return {key: numpy_scalars(v) for key, v in value.items()}
    if isinstance(value, int):
        return np.int64(value)
    if isinstance(value, float):
        return np.float64(value)
    if isinstance(value, (list, tuple, set)):
        return type(value)(map(numpy_scalars, value))
    return type(value)(**{f.name: numpy_scalars(getattr(value, f.name)) for f in dataclasses.fields(value)})


def assert_round_trip(data: dict):
    with tempfile.TemporaryDirectory() as tmp:
        record = load_scenario(write_yaml(Path(tmp) / "generated.cfg", data))
        first = Path(tmp) / "first.cfg"
        write_scenario(first, record)
        again = load_scenario(first)
        assert again == record
        second = Path(tmp) / "second.cfg"
        write_scenario(second, again)
        assert second.read_bytes() == first.read_bytes()


def line_matrix(n: int) -> list[list[float]]:
    """A doubly stochastic line-graph mixing matrix, all weights >= 0.1."""
    rows = [[0.3 if abs(i - j) == 1 else 0.0 for j in range(n)] for i in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1.0 - sum(row)
    return rows


UNIT = st.floats(0.0, 1.0)
WEIGHTS = st.floats(0.0, 50.0)


def optional(draw, block: dict, keys):
    """block with a drawn subset of its optional keys left out."""
    for key in keys:
        if draw(st.booleans()):
            del block[key]
    return block


def solver_block(draw) -> dict:
    block = {
        "iterations": draw(st.integers(1, 100)),
        "gamma": draw(st.floats(1e-3, 1.0)),
        "schedule": draw(st.sampled_from(["constant", "diminishing"])),
        "t_hat": draw(st.floats(0.05, 0.95)),
    }
    return optional(draw, block, ["schedule", "t_hat"])


@st.composite
def games(draw) -> dict:
    n = draw(st.integers(1, 3))
    size = draw(st.integers(2 * n + 2, 12))
    zone = [[x, size - 1] for x in range(2 * n)]
    per_defender = st.one_of(st.floats(0.0, 5.0), st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    alpha_f, eta_avoid = draw(UNIT), draw(UNIT)
    return {
        "kind": "game",
        "seed": draw(st.integers(0, 2**32)),
        "arena": optional(draw, {
            "size": size,
            "horizon": draw(st.integers(1, 20)),
            "defense_zone": zone,
            "responsibilities": [zone[2 * i:2 * i + 2] for i in range(n)],
            "obstacles": draw(st.lists(
                st.lists(st.integers(0, size - 1), min_size=2, max_size=2).filter(
                    lambda c: 1 <= c[1] <= size - 3
                ),
                max_size=3,
            )),
        }, ["obstacles"]),
        "players": optional(draw, {
            "u_max": 1,
            "defenders": [[2 * i, size - 2] for i in range(n)],
            "attackers": draw(st.lists(
                st.lists(st.integers(0, size - 1), min_size=1, max_size=1).map(lambda c: [c[0], 0]),
                min_size=1, max_size=3,
            )),
        }, ["u_max"]),
        "defenders": optional(draw, {
            "pursuit_gain": draw(WEIGHTS),
            "cohesion": draw(st.lists(st.lists(UNIT, min_size=n, max_size=n), min_size=n, max_size=n)),
            "mobility": draw(per_defender),
            "zeta1": draw(st.floats(1.0, 300.0)),
            "zeta2": draw(st.floats(1.0, 10.0)),
            "alpha_f_nom": alpha_f,
            "alpha_a_nom": 1.0 - alpha_f,
            "beta": draw(UNIT),
            "delta_th": draw(per_defender),
            "distance": draw(st.sampled_from(["manhattan", "squared"])),
        }, ["mobility", "delta_th", "distance"]),
        "attackers": {
            "eta_avoid_nom": eta_avoid,
            "eta_base_nom": 1.0 - eta_avoid,
            "delta_th": draw(st.floats(0.0, 10.0)),
            "kappa": draw(UNIT),
        },
        "network": {"eta": 0.1, "matrix": line_matrix(n)},
        "solver": solver_block(draw),
    }


@st.composite
def problems(draw) -> dict:
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    numbers = st.lists(st.floats(-10.0, 10.0), min_size=len(dims), max_size=len(dims))
    objective = st.one_of(
        st.fixed_dictionaries({"type": st.just("linear"), "coefficients": numbers}),
        st.fixed_dictionaries(
            {"type": st.just("quadratic"), "centers": numbers}, optional={"weights": numbers}
        ),
        st.just({"type": "product"}),
    )
    objectives = draw(st.lists(objective, min_size=1, max_size=3))
    data = {
        "kind": "problem",
        "seed": draw(st.integers(0, 2**32)),
        "dims": dims,
        "objectives": objectives,
        "solver": solver_block(draw),
    }
    if draw(st.booleans()):
        data["network"] = {"eta": 0.1, "matrix": line_matrix(len(objectives))}
    return data


def block_keys(table, key) -> set:
    (block,) = [f.read for f in table.fields if f.key == key]
    assert all((f.attr or f.key) == f.key for f in block.fields)
    return {f.key for f in block.fields}


@pytest.mark.parametrize(
    "table, key, params",
    [
        (GAME, "defenders", DefenderParams),
        (GAME, "attackers", AttackerParams),
        (GAME, "solver", SolverParams),
        (PROBLEM, "solver", SolverParams),
    ],
)
def test_parameter_blocks_list_every_parameter(table, key, params):
    # A parameter added without a file key (or a key without a parameter) fails here.
    fields = {f.name for f in dataclasses.fields(params)} - {"seed"}
    assert block_keys(table, key) == fields


@pytest.mark.parametrize(
    "block, key, record, params",
    [
        ("solver", "schedule", lambda s: s.solver, SolverParams),
        ("solver", "t_hat", lambda s: s.solver, SolverParams),
        ("defenders", "distance", lambda s: s.defender_params, DefenderParams),
    ],
)
def test_a_left_out_key_takes_the_record_default(tmp_path, block, key, record, params):
    # The record's dataclass is the one home of these defaults.
    data = copy.deepcopy(FILES["fig3"])
    del data[block][key]
    loaded = record(load_scenario(write_yaml(tmp_path / "default.cfg", data)))
    assert getattr(loaded, key) == params.__dataclass_fields__[key].default


@pytest.mark.parametrize("name, path, value, field", BOOLEANS, ids=[dotted(c[1]) for c in BOOLEANS])
def test_booleans_are_not_numbers(tmp_path, name, path, value, field):
    data = copy.deepcopy(FILES[name])
    *parents, key = path
    block = data
    for step in parents:
        block = block[step]
    block[key] = value
    with pytest.raises(ScenarioSchemaError) as caught:
        load_scenario(write_yaml(tmp_path / "edited.cfg", data))
    message = rf"{re.escape(field)}: cannot read .*: expected a number, got a boolean"
    assert re.fullmatch(message, str(caught.value)), caught.value



def eight_defender_game() -> dict:
    """A swarm-sized game: 8 defenders and attackers on a 20x20 grid, a
    16-cell zone, obstacles, and weights whose shortest repr is long."""
    n, size = 8, 20
    zone = [[2 + c, size - 1] for c in range(2 * n)]
    return {
        "kind": "game",
        "seed": 7,
        "arena": {
            "size": size,
            "horizon": 12,
            "defense_zone": zone,
            "responsibilities": [zone[2 * i:2 * i + 2] for i in range(n)],
            "obstacles": [[3, 9], [10, 12], [15, 7], [0, 5]],
        },
        "players": {
            "u_max": 1,
            "defenders": [[2 + 2 * i, size - 3] for i in range(n)],
            "attackers": [[2 * i + 1, i % 3] for i in range(n)],
        },
        "defenders": {
            "pursuit_gain": 20.0,
            "cohesion": [[0.0 if i == j else 1 / (1 + abs(i - j)) ** 2 for j in range(n)] for i in range(n)],
            "mobility": [1.0 + i / 7 for i in range(n)],
            "zeta1": 200.0,
            "zeta2": 5.0,
            "alpha_f_nom": 0.9,
            "alpha_a_nom": 0.1,
            "beta": 0.7,
            "delta_th": 20,
            "distance": "manhattan",
        },
        "attackers": {"eta_avoid_nom": 0.7, "eta_base_nom": 0.3, "delta_th": 4.0, "kappa": 0.9},
        "network": {"eta": 0.1, "matrix": line_matrix(n)},
        "solver": {"iterations": 20, "gamma": 0.1, "schedule": "constant", "t_hat": 0.7},
    }


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestLibyamlLoader:
    """Files are parsed by libyaml; the pure-Python loader would read the same records."""

    LOADERS = (yaml.SafeLoader, yaml.CSafeLoader)

    def test_libyaml_parses_when_available(self):
        assert issubclass(scenario._LOADER, yaml.CSafeLoader)

    @pytest.mark.parametrize("name", ["fig3", "eight_defenders"])
    def test_both_loaders_read_equal_records(self, tmp_path, monkeypatch, name):
        path = GOLDEN if name == "fig3" else write_yaml(tmp_path / "swarm.cfg", eight_defender_game())
        loaded = []
        for loader in self.LOADERS:
            monkeypatch.setattr(scenario, "_LOADER", loader)
            # repr tells 1 from 1.0, which == on the dicts would not.
            loaded.append((repr(scenario._load_yaml(path)), load_scenario(path)))
        assert loaded[0] == loaded[1]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_both_loaders_agree_on_generated_files(self, data):
        text = yaml.safe_dump(data.draw(st.one_of(games(), problems())), sort_keys=False)
        assert repr(yaml.load(text, Loader=yaml.SafeLoader)) == repr(yaml.load(text, Loader=yaml.CSafeLoader))

    @pytest.mark.parametrize("text", [
        "{: not yaml ::", "key: [1, 2", "a:\n\t- 1\n", "- a\nb: c\n", "a: 'unclosed", "&x a: *y", "\x00",
    ])
    def test_malformed_text_is_a_parse_error_with_both_loaders(self, tmp_path, monkeypatch, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        for loader in self.LOADERS:
            monkeypatch.setattr(scenario, "_LOADER", loader)
            with pytest.raises(ScenarioParseError, match="not valid structured text"):
                load_scenario(path)

    def test_a_utf16_file_with_a_bom_loads_the_bundled_record(self, tmp_path, monkeypatch):
        path = tmp_path / "fig3-utf16.cfg"
        path.write_bytes(GOLDEN.read_text(encoding="utf-8").encode("utf-16"))
        assert path.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
        for loader in self.LOADERS:
            monkeypatch.setattr(scenario, "_LOADER", loader)
            assert load_scenario(path) == load_scenario(GOLDEN)

    @pytest.mark.parametrize("text, report", [
        # The pure loader also names the anchor: "found duplicate anchor 'a'".
        ("&a x: &a y\n", "; first occurrence at line 1, column 1; second occurrence at line 1, column 7"),
        ("a: 1\n---\nb: 2\n", "expected a single document in the stream at line 1, column 1; "
                              "but found another document at line 2, column 1"),
    ])
    def test_a_composer_error_keeps_its_context(self, tmp_path, monkeypatch, text, report):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        for loader in self.LOADERS:
            monkeypatch.setattr(scenario, "_LOADER", loader)
            with pytest.raises(ScenarioParseError) as caught:
                load_scenario(path)
            assert str(caught.value).endswith(report)

    def test_a_context_without_a_mark_is_printed_without_a_position(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "tab.cfg"
        path.write_text("a:\n\t- 1\n")
        monkeypatch.setattr(scenario, "_LOADER", yaml.SafeLoader)
        with pytest.raises(ScenarioParseError, match="while scanning for the next token; found character"):
            load_scenario(path)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}: ") and err.count("\n") == 1


class TestNestingLimit:
    """Collections nested deeper than MAX_NESTING are refused before a loader
    composes them; the walk that counts them reads only the parser's events."""

    @staticmethod
    def nested(levels: int) -> bytes:
        return b"seed: " + b"[" * levels + b"1" + b"]" * levels

    def test_the_first_collection_past_the_limit_is_named(self):
        limit = scenario.MAX_NESTING
        scenario._refuse_deep_nesting(self.nested(limit - 1))
        # Siblings do not add up: a collection's end closes its level.
        scenario._refuse_deep_nesting(b"seed: [" + b"[1], " * limit + b"]")
        with pytest.raises(yaml.MarkedYAMLError) as caught:
            scenario._refuse_deep_nesting(self.nested(limit))
        mark = caught.value.problem_mark
        assert (mark.line, mark.column) == (0, len(b"seed: ") + limit - 1)

    def test_the_pure_loader_refuses_a_file_its_composer_cannot_recurse_through(self, tmp_path, monkeypatch, capsys):
        # Without libyaml the pure loader parses, and its recursive composer fails near 500 levels.
        monkeypatch.setattr(scenario, "_LOADER", yaml.SafeLoader)
        limit = scenario.PURE_MAX_NESTING
        path = tmp_path / "deep.cfg"
        path.write_bytes(b"kind: problem\n" + self.nested(limit - 1))
        assert scenario._load_yaml(path)["kind"] == "problem"
        path.write_bytes(b"kind: problem\n" + self.nested(3000))
        assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert captured.err == (
            f"parse error: {path}: not valid structured text: "
            f"nested deeper than {limit} levels at line 2, column {len(b'seed: ') + limit}\n"
        )

    def test_a_shallow_file_with_many_collection_bytes_is_walked_and_loads(self, tmp_path):
        path = tmp_path / "dashes.cfg"
        path.write_text("# " + "-" * 2 * scenario.MAX_NESTING + "\n" + README_PROBLEM)
        plain = tmp_path / "plain.cfg"
        plain.write_text(README_PROBLEM)
        assert load_scenario(path) == load_scenario(plain)

    def test_a_parse_error_met_by_the_walk_keeps_its_report(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# " + "-" * 2 * scenario.MAX_NESTING + "\nkey: [1, 2\n")
        with pytest.raises(ScenarioParseError, match="not valid structured text: while parsing a flow sequence"):
            load_scenario(path)


class TestDuplicateKeys:
    """A key given twice in one mapping is refused, not silently overwritten."""

    @pytest.mark.parametrize("line, repeat", [
        ("seed: 7\n", "seed: 9\n"),
        ("  gamma: 0.1\n", "  gamma: 0.5\n"),
        ("  size: 20\n", "  size: 20\n"),
    ])
    def test_a_repeated_key_is_a_parse_error_naming_it_and_its_lines(self, tmp_path, capsys, line, repeat):
        text = GOLDEN.read_text()
        first = text[:text.index(line)].count("\n") + 1
        path = tmp_path / "twice.cfg"
        path.write_text(text.replace(line, line + repeat, 1))
        key = line.split(":")[0].strip()
        message = rf"duplicate key '{key}' \(first given on line {first}\) at line {first + 1}, column"
        with pytest.raises(ScenarioParseError, match=message):
            load_scenario(path)
        assert main(["check", str(path)]) == 2
        assert f"duplicate key '{key}'" in capsys.readouterr().err

    def test_a_repeated_key_in_a_list_entry_is_refused(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text(
            "kind: problem\nseed: 1\ndims: [3]\n"
            "objectives: [{type: linear, coefficients: [1.0], type: linear}]\n"
            "solver: {iterations: 5, gamma: 0.1}\n"
        )
        with pytest.raises(ScenarioParseError, match=r"duplicate key 'type' \(first given on line 4\)"):
            load_scenario(path)

    def test_an_unhashable_key_is_still_a_parse_error(self, tmp_path):
        path = tmp_path / "list_key.cfg"
        path.write_text("[1]: a\n[1]: b\n")
        with pytest.raises(ScenarioParseError, match="found unhashable key"):
            load_scenario(path)

    def test_a_merged_key_may_be_overridden(self, tmp_path):
        path = tmp_path / "merge.cfg"
        path.write_text("base: &b {x: 1, y: 2}\nother:\n  <<: *b\n  x: 3\n")
        assert scenario._load_yaml(path) == {"base": {"x": 1, "y": 2}, "other": {"x": 3, "y": 2}}
