"""Every test starts with empty analytic caches, so a test that counts
quadratures sees the same work whatever ran before it."""

import pytest

from constelsim import analytic


@pytest.fixture(autouse=True)
def analytic_caches():
    """The analytic layer caches (count law, LEO ranks, MEO pass), emptied."""
    caches = (analytic._interferer_law, analytic._leo_rank_probs, analytic._meo_pass_prob)
    for cache in caches:
        cache.cache_clear()
    return caches
