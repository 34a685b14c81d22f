"""Every test starts with empty analytic caches, so a test that counts
quadratures sees the same work whatever ran before it.

Hypothesis runs every phase but ``explain``, which reruns a failing example
under tracing to report the lines it covers; on this package's array code
that took gigabytes of memory. The tests' own ``@settings`` inherit it."""

import pytest
from hypothesis import Phase, settings

from constelsim import analytic

settings.register_profile("no-explain", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("no-explain")


@pytest.fixture(autouse=True)
def analytic_caches():
    """Every cache of the analytic layer, found by its ``cache_clear``, emptied."""
    caches = [obj for obj in vars(analytic).values() if hasattr(obj, "cache_clear")]
    for cache in caches:
        cache.cache_clear()
    return caches
