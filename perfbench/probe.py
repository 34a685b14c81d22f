"""Machine-speed probe that runs beside a benchmark invocation.

    python3 perfbench/probe.py OUT

Every ``INTERVAL_S`` it runs one fixed unit of work and appends
``<monotonic time at start> <CPU seconds of the unit>`` to OUT. The unit is
made of the same kinds of operation as the workloads: numpy on arrays the
size of a LEO shell, and an adaptive quadrature over a ``scipy.special``
series. The run pins the probe to the CPU of the invocation it watches. A
contended core then slows the probe in step with the invocation. The
probe's CPU time excludes the slices the invocation itself takes. The
benchmark scales each timing by nominal unit time / median unit time over
the same window.

The process runs until it is terminated.
"""

import sys
import time

import numpy as np
from scipy import integrate, special

INTERVAL_S = 0.03

_ORDERS = np.arange(1.0, 33.0)
_TARGET = np.array([1.0, 0.0, 0.0])


def _series(x: float) -> float:
    return float(np.dot(special.gammainc(_ORDERS, 20.0 * x), _ORDERS))


def unit(rng: np.random.Generator) -> int:
    """One fixed unit of work; returns a value so nothing is optimised away."""
    u = rng.random((2000, 2))
    polar = np.arccos(1.0 - 2.0 * u[:, 0])
    azimuth = 2.0 * np.pi * u[:, 1]
    sin_p = np.sin(polar)
    xyz = np.column_stack([sin_p * np.cos(azimuth), sin_p * np.sin(azimuth), np.cos(polar)])
    visible = int((np.arccos(np.clip(xyz @ _TARGET, -1.0, 1.0)) < 0.3).sum())
    integrate.quad(_series, 0.0, 1.0, epsrel=1e-10)
    return visible


def main(out_path: str) -> int:
    rng = np.random.default_rng(0)
    with open(out_path, "w", encoding="utf-8") as out:
        while True:
            time.sleep(INTERVAL_S)
            wall = time.monotonic()
            cpu = time.process_time()
            unit(rng)
            out.write(f"{wall} {time.process_time() - cpu}\n")
            out.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
