"""Every test starts with empty analytic caches, so a test that counts
quadratures sees the same work whatever ran before it. The helpers that
more than one test module needs are defined here once: :func:`nudged`, and
the ``quadrature_labels`` recorder of ``analytic.integrate_adaptive`` calls.

Hypothesis runs every phase but ``explain``, which reruns a failing example
under tracing to report the lines it covers; on this package's array code
that took gigabytes of memory. The tests' own ``@settings`` inherit it."""

import math

import numpy as np
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


@pytest.fixture
def quadrature_labels(monkeypatch):
    """The label of each ``analytic.integrate_adaptive`` call the test
    makes, in call order."""
    labels = []
    original = analytic.integrate_adaptive

    def counting(func, a, b, rtol, label):
        labels.append(label)
        return original(func, a, b, rtol, label)

    monkeypatch.setattr(analytic, "integrate_adaptive", counting)
    return labels


def nudged(x, ulps):
    """``x`` moved by ``ulps`` units in the last place, up or down."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return float(x)
