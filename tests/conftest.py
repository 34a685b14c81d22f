"""Every test starts with empty analytic caches, so a test that counts
quadratures sees the same work whatever ran before it."""

import pytest

from constelsim import analytic


@pytest.fixture(autouse=True)
def analytic_caches():
    """Every cache of the analytic layer, found by its ``cache_clear``, emptied."""
    caches = [obj for obj in vars(analytic).values() if hasattr(obj, "cache_clear")]
    for cache in caches:
        cache.cache_clear()
    return caches
