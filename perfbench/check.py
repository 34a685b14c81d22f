"""Correctness check of one CLI output against the stored reference.

An output value fails when its invocation raised or exited with an
unexpected status, when its CSV row is missing or malformed, or when it
lies outside the gate:

* analytic values: |value - reference| <= 1e-10, the reference being the
  same command at quadrature rtol 1e-10;
* MC values: |value - reference| <= Z * sigma + 1/n, with the reference a
  100k-trial run from a seed no benchmark run uses, and
  sigma = sqrt(max(se, se_ref * sqrt(n_ref / n))**2 + se_ref**2). Taking
  the larger of the run's own standard error and the one the reference
  predicts guards against batch-means errors that come out too small; the
  1/n term covers the discreteness of a trial count. Z = 6 keeps the
  family-wise false-fail rate over a run's rows far below one in a
  thousand, so a correct engine with another random stream passes on any
  seed.

``validate`` exits 1 when rows fall outside its own tolerances; that is the
documented model gap, not a failure here. Its exit status must still agree
with its ``pass`` column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ANALYTIC_ATOL = 1e-10
MC_Z = 6.0
_DELTA_ATOL = 1e-9  # CSV values carry 12 significant digits

VALIDATE_HEADER = ["metric", "K", "analytic", "empirical", "std_err", "delta", "pass"]


@dataclass
class CheckResult:
    attempted: int
    failed: int
    max_abs_delta: float = 0.0  # largest |analytic - reference|
    max_abs_z: float = 0.0  # largest |MC - reference| / sigma

    def merge(self, other: "CheckResult") -> "CheckResult":
        return CheckResult(
            self.attempted + other.attempted,
            self.failed + other.failed,
            max(self.max_abs_delta, other.max_abs_delta),
            max(self.max_abs_z, other.max_abs_z),
        )


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    if not text.endswith("\n"):
        raise ValueError("CSV does not end with a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text}")
    return value


def expected_values(workload, ref: dict) -> int:
    """Number of output values one invocation of ``workload`` produces."""
    if workload.subcommand == "curve":
        return len(ref["rows"]) * (len(ref["header"]) - 1)
    return 2 * len(workload.validate_keys())


def check_output(workload, ref: dict, csv_text: str | None, returncode: int | None, n_trials: int) -> CheckResult:
    """Check one invocation's CSV; ``csv_text`` is None when none was written."""
    attempted = expected_values(workload, ref)
    allowed = (0,) if workload.subcommand == "curve" else (0, 1)
    if csv_text is None or returncode not in allowed:
        return CheckResult(attempted, attempted)
    try:
        header, rows = parse_csv(csv_text)
    except ValueError:
        return CheckResult(attempted, attempted)
    if workload.subcommand == "curve":
        return _check_curve(ref, header, rows, attempted)
    return _check_validate(workload, ref, header, rows, returncode, n_trials, attempted)


def _check_curve(ref, header, rows, attempted) -> CheckResult:
    if header != ref["header"] or len(rows) != len(ref["rows"]):
        return CheckResult(attempted, attempted)
    result = CheckResult(attempted, 0)
    for row, ref_row in zip(rows, ref["rows"]):
        n_values = len(ref_row) - 1
        try:
            values = [_finite(v) for v in row]
        except ValueError:
            result.failed += n_values
            continue
        if len(values) != len(ref_row) or values[0] != ref_row[0]:
            result.failed += n_values
            continue
        for value, expected in zip(values[1:], ref_row[1:]):
            delta = abs(value - expected)
            result.max_abs_delta = max(result.max_abs_delta, delta)
            result.failed += delta > ANALYTIC_ATOL
    return result


def _parse_validate_row(row):
    if len(row) != len(VALIDATE_HEADER) or row[6] not in ("true", "false"):
        raise ValueError("malformed validate row")
    analytic, empirical, std_err, delta = (_finite(v) for v in row[2:6])
    if std_err < 0 or abs(delta - (analytic - empirical)) > _DELTA_ATOL:
        raise ValueError("inconsistent validate row")
    return (row[0], int(row[1])), analytic, empirical, std_err, row[6] == "true"


def _check_validate(workload, ref, header, rows, returncode, n_trials, attempted) -> CheckResult:
    keys = workload.validate_keys()
    if header != VALIDATE_HEADER or len(rows) > len(keys):
        return CheckResult(attempted, attempted)
    parsed = {}
    for row in rows:
        try:
            key, *values = _parse_validate_row(row)
        except ValueError:
            continue
        if key not in keys or key in parsed:
            return CheckResult(attempted, attempted)
        parsed[key] = values
    if (returncode == 1) != any(not passed for *_, passed in parsed.values()):
        return CheckResult(attempted, attempted)

    result = CheckResult(attempted, 0)
    n_ref = ref["mc_trials"]
    for key in keys:
        if key not in parsed:
            result.failed += 2
            continue
        analytic, empirical, std_err, _ = parsed[key]
        expected = ref["rows"][f"{key[0]},{key[1]}"]
        delta = abs(analytic - expected["analytic"])
        result.max_abs_delta = max(result.max_abs_delta, delta)
        result.failed += delta > ANALYTIC_ATOL

        se_ref = expected["std_err"]
        sigma = math.hypot(max(std_err, se_ref * math.sqrt(n_ref / n_trials)), se_ref)
        gap = abs(empirical - expected["empirical"])
        if sigma > 0:
            result.max_abs_z = max(result.max_abs_z, gap / sigma)
        result.failed += gap > MC_Z * sigma + 1.0 / n_trials
    return result
