import ast
import importlib
import inspect
from pathlib import Path

import latmin
from latmin import ctf, extension, lattice
from latmin.scenario import Problem, Scenario

REMOVED = {
    latmin: ("make_chain_product", "profile_from_point"),
    lattice: ("make_chain_product",),
    extension: ("profile_from_point",),
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


def test_games_read_only_their_scenario():
    # A seed or budget comes from the record, not from a side option.
    for play in (ctf.run_game, ctf.game_start):
        assert list(inspect.signature(play).parameters) == ["scenario"], play.__name__


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
