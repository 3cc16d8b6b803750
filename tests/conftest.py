import pytest

from latmin.projection import _kernel


@pytest.fixture
def fresh_kernels():
    """An empty projection kernel cache, emptied again afterwards, so that a
    kernel compiled under a test's monkeypatch is never kept."""
    _kernel.cache_clear()
    yield _kernel
    _kernel.cache_clear()
