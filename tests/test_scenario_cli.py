import csv
import dataclasses
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from latmin import cli, ctf, scenario, solvers
from latmin.cli import main
from latmin.scenario import (
    Problem,
    Scenario,
    ScenarioInvariantError,
    ScenarioParseError,
    ScenarioSchemaError,
    build_objective,
    bundled_scenario_path,
    load_scenario,
    write_scenario,
)
from latmin.lattice import ChainProduct
from latmin.solvers import WeightMatrix

GOLDEN = bundled_scenario_path("paper_fig3.cfg")

PROBLEM_TEXT = """
kind: problem
seed: 3
dims: [3]
objectives:
  - {type: linear, coefficients: [1.0]}
  - {type: quadratic, centers: [2.0], weights: [1.0]}
network:
  eta: 0.1
  matrix:
    - [0.7, 0.3]
    - [0.3, 0.7]
solver:
  iterations: 4000
  gamma: 0.01
  schedule: diminishing
  t_hat: 0.7
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "two_agent.cfg"
    path.write_text(PROBLEM_TEXT)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestLoadScenario:
    def test_golden_file_loads_with_line_graph_matrix(self):
        s = load_scenario(GOLDEN)
        assert isinstance(s, Scenario)
        assert s.network.entries.tolist() == [
            [0.7, 0.3, 0.0, 0.0],
            [0.3, 0.6, 0.1, 0.0],
            [0.0, 0.1, 0.6, 0.3],
            [0.0, 0.0, 0.3, 0.7],
        ]
        assert s.arena.size == 20
        assert s.arena.horizon == 40
        assert s.solver.iterations == 20
        assert s.solver.gamma == 0.1
        assert s.solver.t_hat == 0.7
        assert s.defender_params.zeta1 == 200.0
        assert s.defender_params.zeta2 == 5.0
        assert s.defender_params.pursuit_gain == 20.0

    def test_bad_column_sums_name_condition_four(self, tmp_path):
        # rows still sum to 1; columns sum to 1.1 and 0.9
        data = yaml.safe_load(GOLDEN.read_text())
        data["network"]["matrix"][0] = [0.8, 0.2, 0.0, 0.0]
        data["network"]["matrix"][1] = [0.3, 0.6, 0.1, 0.0]
        path = tmp_path / "bad.cfg"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioInvariantError, match="condition 4"):
            load_scenario(path)

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        with pytest.raises(ScenarioParseError):
            load_scenario(path)

    def test_garbage_is_parse_error(self, tmp_path):
        path = tmp_path / "garbage.cfg"
        path.write_text("{: not yaml ::")
        with pytest.raises(ScenarioParseError):
            load_scenario(path)

    def test_missing_seed_is_schema_error(self, tmp_path):
        data = yaml.safe_load(GOLDEN.read_text())
        del data["seed"]
        path = tmp_path / "noseed.cfg"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioSchemaError, match="seed"):
            load_scenario(path)

    def test_missing_field_names_the_field(self, tmp_path):
        data = yaml.safe_load(GOLDEN.read_text())
        del data["defenders"]["zeta1"]
        path = tmp_path / "nozeta.cfg"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioSchemaError, match="defenders.zeta1"):
            load_scenario(path)

    def test_bad_iterations_is_invariant_error(self, tmp_path):
        data = yaml.safe_load(GOLDEN.read_text())
        data["solver"]["iterations"] = 0
        path = tmp_path / "iter0.cfg"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioInvariantError, match="iterations"):
            load_scenario(path)

    def test_problem_file_loads(self, problem_file):
        p = load_scenario(problem_file)
        assert isinstance(p, Problem)
        assert p.dims == [3]
        assert len(p.objectives) == 2

    def test_game_round_trip_is_identity(self, tmp_path):
        s = load_scenario(GOLDEN)
        out = tmp_path / "copy.cfg"
        write_scenario(out, s)
        assert load_scenario(out) == s

    def test_problem_round_trip_is_identity(self, problem_file, tmp_path):
        p = load_scenario(problem_file)
        out = tmp_path / "copy.cfg"
        write_scenario(out, p)
        assert load_scenario(out) == p

    def test_per_defender_delta_th_list(self, tmp_path):
        data = yaml.safe_load(GOLDEN.read_text())
        data["defenders"]["delta_th"] = [20, 8, 8, 20]
        path = tmp_path / "mixed.cfg"
        path.write_text(yaml.safe_dump(data))
        s = load_scenario(path)
        assert s.defender_params.delta_th.tolist() == [20.0, 8.0, 8.0, 20.0]


def write_game(path, **players):
    """The golden game file with some `players` fields replaced."""
    data = yaml.safe_load(GOLDEN.read_text())
    data["players"].update(players)
    path.write_text(yaml.safe_dump(data))
    return path


class TestStartChecks:
    @pytest.mark.parametrize("u_max", [0, 2])
    def test_unsupported_speed_rejected_at_load(self, tmp_path, u_max):
        path = write_game(tmp_path / "speed.cfg", u_max=u_max)
        with pytest.raises(ScenarioInvariantError, match=r"players\.u_max"):
            load_scenario(path)

    def test_defender_on_obstacle_rejected_at_load(self, tmp_path):
        path = write_game(tmp_path / "rock.cfg", defenders=[[4, 17], [9, 8], [12, 17], [16, 17]])
        with pytest.raises(ScenarioInvariantError, match=r"players\.defenders\[1\].*obstacle"):
            load_scenario(path)

    def test_check_refuses_a_defender_on_an_obstacle(self, tmp_path, capsys):
        path = write_game(tmp_path / "rock.cfg", defenders=[[4, 17], [9, 8], [12, 17], [16, 17]])
        assert main(["check", str(path)]) == 2
        assert "players.defenders[1]" in capsys.readouterr().err

    def test_attacker_off_grid_rejected_at_load(self, tmp_path):
        path = write_game(tmp_path / "off.cfg", attackers=[[3, 2], [8, 1], [12, 20], [17, 1]])
        with pytest.raises(ScenarioInvariantError, match=r"players\.attackers\[2\].*outside"):
            load_scenario(path)

    def test_shared_defender_start_rejected_at_load(self, tmp_path):
        path = write_game(tmp_path / "shared.cfg", defenders=[[4, 17], [8, 17], [4, 17], [16, 17]])
        with pytest.raises(ScenarioInvariantError, match=r"players\.defenders\[2\].*share"):
            load_scenario(path)

    def test_programmatic_scenarios_are_checked_too(self):
        s = load_scenario(GOLDEN)
        with pytest.raises(ScenarioInvariantError, match=r"players\.u_max"):
            dataclasses.replace(s, u_max=2)
        with pytest.raises(ScenarioInvariantError, match=r"players\.defenders\[0\].*obstacle"):
            dataclasses.replace(s, defenders_start=[(4, 10), (8, 17), (12, 17), (16, 17)])

    def test_programmatic_defender_counts_are_checked(self):
        s = load_scenario(GOLDEN)
        with pytest.raises(ScenarioInvariantError, match="4 sets for 5 defenders"):
            dataclasses.replace(s, defenders_start=s.defenders_start + [(1, 1)])
        with pytest.raises(ScenarioInvariantError, match=r"network\.matrix: 2 agents for 4"):
            dataclasses.replace(s, network=WeightMatrix([[0.5, 0.5], [0.5, 0.5]], eta=0.1))

    # Cells drawn near the 20x20 grid's edges and on its obstacles as well as anywhere.
    CELLS = st.one_of(
        st.tuples(st.integers(-1, 20), st.integers(-1, 20)),
        st.sampled_from([(4, 10), (9, 8), (14, 11), (6, 14), (12, 6), (16, 8)]),
        st.tuples(st.integers(3, 5), st.integers(16, 18)),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        defenders=st.lists(CELLS, min_size=4, max_size=4),
        attackers=st.lists(CELLS, min_size=1, max_size=4),
    )
    def test_load_fails_exactly_on_bad_starts(self, defenders, attackers):
        golden = load_scenario(GOLDEN)
        bad = len(set(defenders)) < len(defenders) or any(
            not golden.arena.in_grid(c) or c in golden.arena.obstacles
            for c in defenders + attackers
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = write_game(
                Path(tmp) / "starts.cfg",
                defenders=[list(c) for c in defenders],
                attackers=[list(c) for c in attackers],
            )
            if bad:
                with pytest.raises(ScenarioInvariantError, match=r"players\.(defenders|attackers)\["):
                    load_scenario(path)
            else:
                assert load_scenario(path).defenders_start == defenders


def write_golden_with(path, field, value):
    """The golden game file with one field, given by its dotted name, replaced."""
    data = yaml.safe_load(GOLDEN.read_text())
    *blocks, key = field.split(".")
    target = data
    for block in blocks:
        target = target[block]
    target[key] = value
    path.write_text(yaml.safe_dump(data))
    return path


class TestMalformedFields:
    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize(
        "field, value",
        [
            # Values that int() or float() cannot read.
            ("solver.iterations", math.inf),
            ("solver.iterations", [20]),
            ("seed", "seven"),
            ("arena.size", math.nan),
            ("defenders.cohesion", [[0.0, "x"], [1.0, 0.0]]),
            # Values that read but are not finite.
            ("attackers.delta_th", math.nan),
            ("solver.gamma", math.inf),
            ("defenders.pursuit_gain", math.nan),
            ("defenders.zeta1", math.inf),
            ("defenders.delta_th", [20.0, math.nan, 8.0, 20.0]),
            ("defenders.mobility", -math.inf),
            ("attackers.eta_base_nom", math.nan),
        ],
    )
    def test_exits_two_naming_the_field(self, tmp_path, capsys, command, field, value):
        path = write_golden_with(tmp_path / "bad.cfg", field, value)
        argv = [command, str(path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_a_nan_weight_exits_two_naming_its_entry(self, tmp_path, capsys, command):
        text = GOLDEN.read_text()
        first_row = "- [0.7, 0.3, 0.0, 0.0]"
        assert text.count(first_row) == 1
        path = tmp_path / "nan.cfg"
        path.write_text(text.replace(first_row, "- [.nan, 0.3, 0.0, 0.0]"))
        argv = [command, str(path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "network.matrix: entry (0, 0) is nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("defenders.delta_th", [20, 8, 8], r"defenders\.delta_th: need 1 or 4 values, got 3"),
            ("defenders.mobility", [1.0, 1.0], r"defenders\.mobility: need 1 or 4 values, got 2"),
            ("defenders.cohesion", [[0.0, 0.5], [0.5, 0.0]], r"defenders\.cohesion: need a 4x4"),
            (
                "arena.responsibilities",
                [[[6, 19], [7, 19], [8, 19], [9, 19]], [[10, 19], [11, 19], [12, 19], [13, 19]]],
                r"arena\.responsibilities: 2 sets for 4 defenders",
            ),
        ],
    )
    def test_per_defender_counts_rejected_at_load(self, tmp_path, field, value, message):
        path = write_golden_with(tmp_path / "count.cfg", field, value)
        with pytest.raises(ScenarioInvariantError, match=message):
            load_scenario(path)

    def test_single_values_apply_to_every_defender(self, tmp_path):
        path = write_golden_with(tmp_path / "one.cfg", "defenders.mobility", [2.5])
        assert load_scenario(path).defender_params.mobility.tolist() == [2.5] * 4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("solver.iterations", 20.9),
            ("solver.iterations", True),
            ("seed", 7.5),
            ("seed", False),
            ("arena.size", 20.5),
            ("arena.horizon", True),
            ("players.u_max", 1.5),
            ("players.defenders", [[4, 17.5], [8, 17], [12, 17], [16, 17]]),
            ("players.attackers", [[3, 2], [8, True], [12, 2], [17, 1]]),
            ("arena.obstacles", [[4.2, 10]]),
            ("arena.defense_zone", [[6, 19.5]]),
        ],
    )
    def test_non_whole_integer_field_exits_two_naming_it(self, tmp_path, capsys, field, value):
        path = write_golden_with(tmp_path / "bad.cfg", field, value)
        with pytest.raises(ScenarioSchemaError, match=rf"^{re.escape(field)}: .*not a whole number"):
            load_scenario(path)
        assert main(["check", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[3, 2.5], [3, True]])
    def test_non_whole_dims_rejected(self, tmp_path, value):
        data = yaml.safe_load(PROBLEM_TEXT)
        data["dims"] = value
        path = tmp_path / "problem.cfg"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioSchemaError, match=r"^dims: .*not a whole number"):
            load_scenario(path)

    def test_whole_floats_still_load(self, tmp_path):
        data = yaml.safe_load(GOLDEN.read_text())
        data["seed"] = 7.0
        data["solver"]["iterations"] = 20.0
        data["arena"]["size"] = 20.0
        data["players"]["defenders"][0] = [4.0, 17.0]
        path = tmp_path / "whole.cfg"
        path.write_text(yaml.safe_dump(data))
        loaded = load_scenario(path)
        assert loaded == load_scenario(GOLDEN)
        assert type(loaded.solver.iterations) is int
        assert type(loaded.seed) is int
        assert all(type(c) is int for c in loaded.defenders_start[0])


class TestBlockShapesAndUnknownKeys:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("arena.responsibilities", 5),
            ("solver", 5),
            ("players", 5),
            ("network", 5),
            ("arena.obstacles", 5),
            ("defenders", [1, 2]),
            ("attackers", "fast"),
            ("arena", [5]),
        ],
    )
    def test_wrong_container_exits_two_naming_the_field(self, tmp_path, capsys, field, value):
        path = write_golden_with(tmp_path / "bad.cfg", field, value)
        with pytest.raises(ScenarioSchemaError, match=rf"^{re.escape(field)}: "):
            load_scenario(path)
        assert main(["check", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_a_list_for_a_block_is_not_a_missing_field(self, tmp_path, capsys):
        path = write_golden_with(tmp_path / "bad.cfg", "defenders", [1, 2])
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "defenders: expected a mapping" in err
        assert "missing" not in err

    @pytest.mark.parametrize(
        "field",
        [
            "sede",
            "arena.obstacle",
            "players.umax",
            "defenders.mobilty",
            "attackers.kapa",
            "network.etta",
            "solver.iteration",
        ],
    )
    def test_misspelt_game_key_rejected(self, tmp_path, capsys, field):
        path = write_golden_with(tmp_path / "typo.cfg", field, 2.0)
        with pytest.raises(ScenarioSchemaError, match=rf"^{re.escape(field)}: unknown field"):
            load_scenario(path)
        assert main(["check", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(objective=[]), "objective: unknown field"),
            (lambda d: d["network"].update(etta=0.1), "network.etta: unknown field"),
            (lambda d: d.update(network=5), "network: expected a mapping"),
            (lambda d: d.update(objectives=[5]), r"objectives\[0\]: expected a mapping"),
        ],
        ids=["top-level-key", "network-key", "network-scalar", "objective-scalar"],
    )
    def test_problem_file_blocks_checked(self, tmp_path, capsys, edit, message):
        data = yaml.safe_load(PROBLEM_TEXT)
        edit(data)
        path = tmp_path / "problem.cfg"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioSchemaError, match=rf"^{message}"):
            load_scenario(path)
        assert main(["check", str(path)]) == 2


class TestBuiltinObjectives:
    def test_linear(self):
        space = ChainProduct([3, 3])
        f = build_objective({"type": "linear", "coefficients": [2.0, 1.0]}, space)
        assert f((1, 2)) == 4.0

    def test_linear_adds_terms_left_to_right_from_zero(self):
        # Python 3.12's compensated sum() gives 0.2 for these terms; 3.10 and 3.11 give 0.1.
        space = ChainProduct([2, 2, 2, 2])
        f = build_objective({"type": "linear", "coefficients": [0.1, 1e16, -1e16, 0.1]}, space)
        assert f((1, 1, 1, 1)) == 0.1

    def test_quadratic(self):
        space = ChainProduct([3])
        f = build_objective({"type": "quadratic", "centers": [2.0], "weights": [1.5]}, space)
        assert f((0,)) == 6.0

    def test_product(self):
        space = ChainProduct([2, 2])
        f = build_objective({"type": "product"}, space)
        assert f((1, 1)) == 1.0
        assert f((0, 1)) == 0.0

    def test_unknown_type_rejected(self):
        with pytest.raises(ScenarioSchemaError, match="unknown objective"):
            build_objective({"type": "mystery"}, ChainProduct([2]))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ScenarioSchemaError, match="coefficients"):
            build_objective({"type": "linear", "coefficients": [1.0]}, ChainProduct([2, 2]))


class TestCheckCommand:
    def test_builtin_supermodular_demo_fails_with_violation(self, tmp_path, capsys):
        path = tmp_path / "product.cfg"
        path.write_text(
            "kind: problem\nseed: 1\ndims: [2, 2]\n"
            "objectives: [{type: product}]\n"
            "solver: {iterations: 5, gamma: 0.1}\n"
        )
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "submodular: no (1 violations)" in out

    def test_problem_file_passes(self, problem_file, capsys):
        code = main(["check", str(problem_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "submodular: yes" in out

    def test_minimum_line_follows_the_verdict(self, tmp_path, problem_file, capsys):
        # x + (x - 2)^2 on {0, 1, 2}: 4, 2, 2.
        assert main(["check", str(problem_file)]) == 0
        assert capsys.readouterr().out == (
            "checked 0 cross differences on (3,)\n"
            "submodular: yes\n"
            "minimum: 2 at 2 of 3 points\n"
        )
        path = tmp_path / "product.cfg"
        path.write_text(
            "kind: problem\nseed: 1\ndims: [2, 2]\n"
            "objectives: [{type: product}]\n"
            "solver: {iterations: 5, gamma: 0.1}\n"
        )
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == (
            "checked 1 cross differences on (2, 2)\n"
            "submodular: no (1 violations)\n"
            "  violation at (0, 0), chains (0,1): cross difference 1\n"
            "minimum: 0 at 3 of 4 points\n"
        )

    def test_the_minimum_costs_no_evaluations(self, problem_file, monkeypatch, capsys):
        built = []
        oracles = Problem.oracles

        def spy(problem):
            built.append(oracles(problem))
            return built[-1]

        monkeypatch.setattr(Problem, "oracles", spy)
        assert main(["check", str(problem_file)]) == 0
        assert "minimum: 2 at 2 of 3 points" in capsys.readouterr().out
        # Loading validates the objectives too; the check sums the last build.
        assert [f.calls for f in built[-1]] == [3, 3]

    def test_the_game_minimum_costs_no_evaluations(self, monkeypatch, capsys):
        built = []
        first = cli.first_step_problem

        def spy(record):
            built.append(first(record))
            return built[-1]

        monkeypatch.setattr(cli, "first_step_problem", spy)
        assert main(["check", str(GOLDEN)]) == 0
        out = capsys.readouterr().out
        ((fs, space),) = built
        assert f"at 1 of {space.cardinality} points" in out
        assert [f.calls for f in fs] == [space.cardinality] * len(fs)

    def test_single_chain_reports_zero_pairs(self, tmp_path, capsys):
        path = tmp_path / "one.cfg"
        path.write_text(
            "kind: problem\nseed: 1\ndims: [4]\n"
            "objectives: [{type: linear, coefficients: [1.0]}]\n"
            "solver: {iterations: 5, gamma: 0.1}\n"
        )
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "checked 0 cross differences" in out

    def test_game_scenario_step_cost_is_submodular(self, capsys):
        code = main(["check", str(GOLDEN)])
        assert code == 0

    def test_game_file_checks_the_games_own_step_zero(self, tmp_path, monkeypatch):
        # Defender 2's two nearest attackers (a1, a2) are tied at k = 0, so
        # its pursuit row depends on which stream draws the tie-break.
        path = write_game(tmp_path / "tie.cfg", attackers=[[3, 3], [12, 3], [10, 2], [19, 2]])
        data = yaml.safe_load(path.read_text())
        data["seed"], data["arena"]["horizon"] = 1, 1
        path.write_text(yaml.safe_dump(data))
        contexts = []
        build = ctf.build_step_problem

        def spy(ctx):
            contexts.append(ctx)
            return build(ctx)

        monkeypatch.setattr(ctf, "build_step_problem", spy)
        assert main(["check", str(path)]) == 0
        ctf.run_game(load_scenario(path))
        checked, played = contexts
        responsibility = played.arena.responsibilities[2]
        assert ctf.threat_distance([(12, 3)], [True], responsibility) == ctf.threat_distance(
            [(10, 2)], [True], responsibility
        )
        assert np.array_equal(checked.pursuit, played.pursuit)
        assert checked.alphas == played.alphas
        assert checked.planes == played.planes
        assert checked.predicted == played.predicted
        assert checked.defenders == played.defenders

    def test_missing_args_is_usage_error(self, capsys):
        assert main(["check"]) == 2

    @pytest.mark.parametrize("extra, named", [
        (["--builtin", "product", "--dims", "2", "2"], "--builtin product"),
        (["--builtin", "product"], "--builtin product"),
        (["--dims", "2", "2"], "--dims 2 2"),
    ])
    def test_a_file_with_builtin_inputs_is_usage_error(self, capsys, extra, named):
        assert main(["check", str(GOLDEN), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {named}" in captured.err

    def test_builtin_without_a_file_is_usage_error(self, capsys):
        assert main(["check", "--builtin", "product", "--dims", "2", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --builtin" in captured.err

    def test_nominal_weights_outside_unit_interval_are_usage_error(self, tmp_path, capsys):
        data = yaml.safe_load(GOLDEN.read_text())
        data["defenders"].update(alpha_f_nom=1.5, alpha_a_nom=-0.5)
        path = tmp_path / "alpha.cfg"
        path.write_text(yaml.safe_dump(data))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "defenders.alpha_f_nom: nominal behavior weights must lie in [0,1]" in captured.err

    def test_unreadable_file_is_usage_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.cfg")]) == 2


class TestSolveCommand:
    def test_distributed_solve_writes_solution_and_trace(self, problem_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", str(problem_file), "--out", str(out)])
        assert code == 0
        solution = read_rows(out / "solution.csv")
        assert solution[0] == ["agent", "point", "value"]
        assert len(solution) == 3
        assert [row[2] for row in solution[1:]] == ["2", "2"]
        trace = read_rows(out / "trace.csv")
        assert trace[0] == ["iter", "agent", "ext_value", "disagreement", "best_rounded"]
        assert len(trace) == 1 + 4000 * 2
        assert float(trace[-1][3]) < 1e-3  # final disagreement

    def test_central_mode_same_value(self, problem_file, tmp_path):
        out = tmp_path / "central"
        code = main(["solve", str(problem_file), "--mode", "central", "--out", str(out)])
        assert code == 0
        solution = read_rows(out / "solution.csv")
        assert len(solution) == 2
        assert solution[1][2] == "2"

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize("iterations", ["0", "-3", "x"])
    def test_iters_override_zero_is_usage_error(self, problem_file, tmp_path, capsys, command, iterations):
        path = problem_file if command == "solve" else GOLDEN
        out = tmp_path / "x"
        code = main([command, str(path), "--out", str(out), "--iters-override", iterations])
        assert code == 2
        err = capsys.readouterr().err
        assert "--iters-override" in err and "iterations" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["central", "distributed"])
    def test_overrides_match_an_edited_file(self, problem_file, tmp_path, mode):
        data = yaml.safe_load(problem_file.read_text())
        data["seed"], data["solver"]["iterations"] = 9, 7
        edited = tmp_path / "edited.cfg"
        edited.write_text(yaml.safe_dump(data))
        a, b = tmp_path / "a", tmp_path / "b"
        overrides = ["--seed-override", "9", "--iters-override", "7"]
        assert main(["solve", str(problem_file), "--mode", mode, "--out", str(a), *overrides]) == 0
        assert main(["solve", str(edited), "--mode", mode, "--out", str(b)]) == 0
        for name in ("solution.csv", "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert len(read_rows(a / "trace.csv")) == 1 + 7 * (1 if mode == "central" else 2)

    def test_a_cost_error_met_when_the_trace_is_read_makes_no_out(self, tmp_path, capsys):
        # The first objective is not finite at (0, 2) alone: an agent rounds to it in an
        # earlier round, but agent 0 never walks it and no agent returns it.
        path = tmp_path / "late.cfg"
        path.write_text(
            "kind: problem\nseed: 0\ndims: [3, 3]\nobjectives:\n"
            "  - {type: quadratic, centers: [2.0, 0.0], weights: [2.5e+307, 2.5e+307]}\n"
            "  - {type: linear, coefficients: [0.0, -3.0e+307]}\n"
            "network: {eta: 0.1, matrix: [[0.7, 0.3], [0.3, 0.7]]}\n"
            "solver: {iterations: 6, gamma: 0.3, schedule: constant, t_hat: 0.7}\n"
        )
        record = load_scenario(path)
        points, _, trace = solvers.distributed_minimize(
            record.oracles(), record.space(), record.network, record.solver
        )
        assert (0, 2) not in points
        with pytest.raises(ValueError, match=r"cost at \(0, 2\) is not finite: inf"):
            trace.best_rounded
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: cost at (0, 2) is not finite: inf\n")
        assert not out.exists()


class TestOutputDir:
    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_existing_file_as_out_exits_two(self, problem_file, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        path = problem_file if command == "solve" else GOLDEN
        assert main([command, str(path), "--out", str(taken)]) == 2
        assert f"{command}: cannot create output dir: " in capsys.readouterr().err
        assert taken.read_text() == "not a directory"


    @pytest.mark.parametrize("command, name", [("solve", "solution.csv"), ("simulate", "trajectories.csv")])
    def test_an_unwritable_output_file_exits_two(self, problem_file, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        path = problem_file if command == "solve" else GOLDEN
        assert main([command, str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"{command}: cannot write output: " in captured.err
        assert str(out / name) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestSimulateCommand:
    @pytest.fixture
    def fast_golden(self, tmp_path):
        data = yaml.safe_load(GOLDEN.read_text())
        data["arena"]["horizon"] = 6
        path = tmp_path / "fast.cfg"
        path.write_text(yaml.safe_dump(data))
        return path

    def test_row_count_contract(self, fast_golden, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", str(fast_golden), "--out", str(out)]) == 0
        rows = read_rows(out / "trajectories.csv")
        assert rows[0] == ["k", "player_id", "team", "x", "y", "alpha_a", "captured"]
        assert len(rows) == 1 + 6 * 8
        events = read_rows(out / "events.csv")
        assert events[0] == ["k", "type", "subject", "detail"]

    def test_same_seed_byte_identical(self, fast_golden, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(fast_golden), "--out", str(a)])
        main(["simulate", str(fast_golden), "--out", str(b)])
        assert (a / "trajectories.csv").read_bytes() == (b / "trajectories.csv").read_bytes()
        assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()

    def test_seed_override_changes_output(self, fast_golden, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(fast_golden), "--out", str(a)])
        main(["simulate", str(fast_golden), "--out", str(b), "--seed-override", "99"])
        assert (a / "trajectories.csv").read_bytes() != (b / "trajectories.csv").read_bytes()

    def test_overrides_match_an_edited_file(self, fast_golden, tmp_path):
        data = yaml.safe_load(fast_golden.read_text())
        data["seed"], data["solver"]["iterations"] = 9, 7
        edited = tmp_path / "edited.cfg"
        edited.write_text(yaml.safe_dump(data))
        a, b, plain = tmp_path / "a", tmp_path / "b", tmp_path / "plain"
        overrides = ["--seed-override", "9", "--iters-override", "7"]
        assert main(["simulate", str(fast_golden), "--out", str(a), *overrides]) == 0
        assert main(["simulate", str(edited), "--out", str(b)]) == 0
        assert main(["simulate", str(fast_golden), "--out", str(plain)]) == 0
        for name in ("trajectories.csv", "events.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / "trajectories.csv").read_bytes() != (plain / "trajectories.csv").read_bytes()

    def test_overrides_leave_the_loaded_record_alone(self, fast_golden, tmp_path, monkeypatch):
        loaded = []

        def spy(path):
            loaded.append(load_scenario(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_scenario", spy)
        argv = ["simulate", str(fast_golden), "--out", str(tmp_path / "sim")]
        assert main([*argv, "--seed-override", "9", "--iters-override", "7"]) == 0
        (record,) = loaded
        assert (record.seed, record.solver.iterations) == (7, 20)

    def test_one_simulate_validates_the_network_once(self, fast_golden, tmp_path, monkeypatch):
        calls = []
        validate = solvers.validate_weight_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return validate(*args, **kwargs)

        # Every module's binding, so a check through an imported name counts too.
        for module in (solvers, scenario, ctf, cli):
            if hasattr(module, "validate_weight_matrix"):
                monkeypatch.setattr(module, "validate_weight_matrix", counting)
        argv = ["simulate", str(fast_golden), "--out", str(tmp_path / "sim")]
        assert main([*argv, "--seed-override", "9", "--iters-override", "7"]) == 0
        assert len(calls) == 1

    def test_svg_written_on_request(self, fast_golden, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", str(fast_golden), "--out", str(out), "--svg"])
        svg = (out / "arena.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_capture_trend_across_threshold_sweep(self, tmp_path):
        # golden seed: pursuit range shrinks with delta_th, captures follow
        data = yaml.safe_load(GOLDEN.read_text())
        counts = {}
        for dth in (20, 15, 10, 5):
            data["defenders"]["delta_th"] = dth
            path = tmp_path / f"dth{dth}.cfg"
            path.write_text(yaml.safe_dump(data))
            out = tmp_path / f"out{dth}"
            assert main(["simulate", str(path), "--out", str(out)]) == 0
            events = read_rows(out / "events.csv")[1:]
            counts[dth] = sum(1 for row in events if row[1] == "capture")
        assert counts[20] >= counts[15] >= counts[10] >= counts[5]
        assert counts[20] > 0

    def test_game_file_required(self, problem_file, tmp_path):
        assert main(["simulate", str(problem_file), "--out", str(tmp_path / "x")]) == 2
