import argparse
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import latmin
from latmin import ChainProduct, ExtensionResult, Oracle, Profile, cli, ctf, extension, lattice, projection
from latmin.scenario import Problem, Scenario

REMOVED = {
    latmin: ("make_chain_product", "profile_from_point"),
    lattice: ("make_chain_product",),
    extension: ("profile_from_point", "check_row", "rounding_rule", "point_of_number"),
    projection: ("project_row",),
    ctf: ("defender_cost", "step_tables", "StepTables", "reachable_cells", "decode_actions"),
    ctf.Arena: ("clamp",),
    ChainProduct: ("in_chain_pairs",),
    Profile: ("zeros", "ones", "chain"),
    ExtensionResult: ("points", "order"),
    Oracle: ("reset_calls",),
    Problem: ("solver_params", "network_matrix", "network_eta"),
    Scenario: ("solver_params", "network_matrix", "network_eta"),
}


def test_every_exported_name_resolves():
    assert len(set(latmin.__all__)) == len(latmin.__all__)
    for name in latmin.__all__:
        assert getattr(latmin, name) is not None, name


def test_removed_aliases_stay_removed():
    for owner, names in REMOVED.items():
        # A record's fields are its constructor's parameters, with or without a default.
        fields = inspect.signature(owner).parameters if isinstance(owner, type) else {}
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
            assert name not in fields, f"{owner.__name__}.{name}"
            assert name not in latmin.__all__


def test_step_context_fields_stay_positional():
    # The audit benchmark builds a StepContext from these eight, by position.
    assert [f.name for f in dataclasses.fields(ctf.StepContext)] == [
        "arena", "u_max", "defenders", "predicted", "alphas", "pursuit", "planes", "params"
    ]


def test_games_read_only_their_scenario():
    # A seed or budget comes from the record, not from a side option.
    for play in (ctf.run_game, ctf.game_start):
        assert list(inspect.signature(play).parameters) == ["scenario"], play.__name__


def test_readme_usage_matches_the_parser():
    # Each `latmin <command>` line of README's "Command line" block, with its
    # continuation lines, names the file it takes and lists exactly the
    # subcommand's options, so a removed flag cannot linger in the docs.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme.read_text(), re.S)[1]
    usages = dict(re.findall(r"^latmin (\w+)(.*(?:\n[ \t]+.*)*)", block, re.M))
    (commands,) = [
        a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert usages.keys() == commands.keys()
    for command, usage in usages.items():
        actions = commands[command]._actions
        options = {s for a in actions for s in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == options, command
        assert [a.dest for a in actions if not a.option_strings] == ["path"], command
        assert re.match(r"\s+<[a-z ]+file>", usage), command


def test_benchmark_traced_names_resolve():
    # The traced benchmark run wraps these by name; a rename would break it.
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    assert traced
    for module, names in traced.items():
        home = importlib.import_module(f"latmin.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"latmin.{module}.{name}"


def test_benchmark_workload_names_resolve():
    # The untraced benchmark reads these module attributes; a deletion would break it.
    workloads = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    tree = ast.parse(workloads.read_text())
    modules = {
        alias.asname or alias.name: importlib.import_module(f"latmin.{alias.name}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "latmin"
        for alias in node.names
    }
    assert {"cli", "ctf", "lattice", "solvers", "scen"} <= set(modules)
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("ctf", "build_step_problem") in read
    for alias, name in sorted(read):
        assert hasattr(modules[alias], name), f"{alias}.{name}"


def test_readme_lists_the_entry_points_the_program_does_not_call():
    # A public function no src module uses is either an entry point for
    # callers, listed in README, or dead code; re-exports do not count.
    src = Path(latmin.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    public = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (line,) = re.findall(r"^Entry points the program does not call: (.*)$", readme, re.M)
    assert set(re.findall(r"`(\w+)`", line)) == public - referenced
