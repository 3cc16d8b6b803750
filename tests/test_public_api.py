import latmin
from latmin import extension, lattice
from latmin.scenario import Problem

REMOVED = {
    latmin: ("make_chain_product", "profile_from_point"),
    lattice: ("make_chain_product",),
    extension: ("profile_from_point",),
    Problem: ("solver_params",),
}


def test_every_exported_name_resolves():
    assert len(set(latmin.__all__)) == len(latmin.__all__)
    for name in latmin.__all__:
        assert getattr(latmin, name) is not None, name


def test_removed_aliases_stay_removed():
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
            assert name not in latmin.__all__
