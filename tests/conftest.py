import pytest

from latmin import ctf
from latmin.projection import _kernel

# The game's per-process tables: distances to fixed cells, joint lattices, the
# compiled defender costs, and the pull, pursuit and barrier rows kept by
# relative geometry.
FIELD_CACHES = (ctf._gaps, ctf._mean_distances, ctf._joint_space, ctf._cost_maker,
                ctf._rows, ctf._pulls, ctf._barriers)


@pytest.fixture
def fresh_kernels():
    """An empty projection kernel cache, emptied again afterwards, so that a
    kernel compiled under a test's monkeypatch is never kept."""
    _kernel.cache_clear()
    yield _kernel
    _kernel.cache_clear()


@pytest.fixture
def fresh_fields():
    """Empty game field caches, emptied again afterwards, so that a table
    filled or a cost compiled under a test's monkeypatch or a mutant of
    `ctf` is never kept."""
    for cache in FIELD_CACHES:
        cache.cache_clear()
    yield FIELD_CACHES
    for cache in FIELD_CACHES:
        cache.cache_clear()
