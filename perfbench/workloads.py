"""The benchmark's workloads: one ``constelsim`` CLI command each.

Every workload runs at the baseline configuration unless its ``overrides``
say otherwise, with ``--jobs 1``. The MC master seed comes from the
benchmark's ``--seed`` argument; ``curve-loc`` runs no MC, so the seed does
not change its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

K_VALUES = (1, 2, 3, 4, 5, 6)
SYSTEMS = ("leo", "meo", "hybrid")

# MC references are drawn from this master seed. It lies above 2**32 and
# run seeds are reduced modulo 2**32, so no run reuses the reference stream.
REFERENCE_SEED = 7_777_777_777
REFERENCE_TRIALS = 100_000
REFERENCE_RTOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str  # "curve" or "validate"
    args: tuple[str, ...]  # CLI arguments besides --set, --seed, --jobs and --out
    overrides: dict = field(default_factory=dict)  # config keys passed as --set
    work: int = 1  # sweep points (curve) or MC trials per invocation (validate)
    work_unit: str = "points"
    metrics: tuple[str, ...] = ()  # validate metric families, in CSV order

    def argv(self, seed: int, out_path: str) -> list[str]:
        """CLI arguments for one invocation."""
        sets = [arg for key, value in self.overrides.items() for arg in ("--set", f"{key}={value}")]
        return [self.subcommand, *self.args, *sets, "--seed", str(seed), "--jobs", "1", "--out", out_path]

    def reference_argv(self, out_path: str) -> list[str]:
        """CLI arguments that produce the stored reference: tight quadrature
        and, for validate, many more MC trials from the reference seed.
        argparse keeps the last value of a repeated option."""
        extra = ["--rtol", repr(REFERENCE_RTOL)]
        if self.subcommand == "validate":
            extra += ["--trials", str(REFERENCE_TRIALS)]
        return self.argv(REFERENCE_SEED, out_path) + extra

    def validate_keys(self) -> list[tuple[str, int]]:
        """(metric column, K) of every validate row, in CSV order."""
        return [(f"{system}_{metric}", k) for metric in self.metrics for system in SYSTEMS for k in K_VALUES]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="curve-loc",
            why="hybrid localizability sweep for K=1..6, purely analytic: "
                "sr_cdf inside rank-coverage passes; bypasses the constellation and MC layers",
            subcommand="curve",
            args=("--metric", "localizability", "--system", "hybrid", "--K", "1,2,3,4,5,6",
                  "--sweep", "n_leo=1000:2000:1000"),
            work=2,
            work_unit="points",
        ),
        Workload(
            name="validate-avail",
            why="availability-only validate: MC sampling and visibility; "
                "bypasses fading, SINR and nearly all quadrature",
            subcommand="validate",
            args=("--metrics", "availability", "--trials", "5000"),
            work=5000,
            work_unit="trials",
            metrics=("availability",),
        ),
        Workload(
            name="validate-dense",
            why="full validate at 2000 km LEO altitude: 9 visible LEO per trial, ragged "
                "interferer sets, and heavy analytic and MC work in one run",
            subcommand="validate",
            args=("--trials", "3000"),
            overrides={"leo.altitude_km": "2000"},
            work=3000,
            work_unit="trials",
            metrics=("availability", "localizability"),
        ),
    )
}
