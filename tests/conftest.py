import pytest

from latmin import ctf
from latmin.projection import _kernel

# The game's per-process tables: every function of `ctf` that `ctf._kept`
# memoizes, in definition order (an AST test keeps `lru_cache` in `ctf` to
# `_kept` alone, so these are all of its memos).
FIELD_CACHES = tuple(f for f in vars(ctf).values()
                     if hasattr(f, "cache_info") and getattr(f, "__module__", None) == ctf.__name__)


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
