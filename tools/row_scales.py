"""Each ``validate`` row on its own scale: whether it agrees, passes only on
the floor, or fails.

    python3 tools/row_scales.py VALIDATE_CSV [VALIDATE_CSV ...]

``validate`` passes an availability row at |delta| <= max(0.01, 3 SE) and
a faithful localizability row at max(0.02, 3 SE), so a row can pass while
the closed form sits many standard errors from the simulation. Reads each
CSV that ``constelsim validate`` wrote and prints one JSON object. Under
``files``, per path, ``rows`` holds for each row its ``metric`` and ``K``
and:

- ``z``: delta / std_err;
- ``ratio``: analytic / empirical, and ``ratio_se``, its delta-method
  standard error |analytic| * std_err / empirical ** 2 (the closed form
  carries no error);
- ``class``: ``fails`` if the row failed, else ``agrees`` if
  |delta| <= 3 std_err, else ``floor``: it passes only on the floor.

A field that would divide by a zero or non-finite std_err or empirical
value, or would not be finite, is null. ``counts`` holds the number of
rows of each class.
"""

from __future__ import annotations

import argparse
import csv
import json
import math

HEADER = ["metric", "K", "analytic", "empirical", "std_err", "delta", "pass"]
CLASSES = ("agrees", "floor", "fails")


def _quotient(numerator: float, denominator: float) -> float | None:
    """``numerator / denominator``, or None when the denominator is zero or
    not finite, or the quotient is not finite."""
    if denominator == 0.0 or not math.isfinite(denominator):
        return None
    quotient = numerator / denominator
    return quotient if math.isfinite(quotient) else None


def scale_row(row: dict) -> dict:
    """The scales and class of one CSV row, given as its column texts."""
    analytic, empirical, se, delta = (float(row[key]) for key in ("analytic", "empirical", "std_err", "delta"))
    kind = "fails" if row["pass"] == "false" else "agrees" if abs(delta) <= 3.0 * se else "floor"
    return {"metric": row["metric"], "K": int(row["K"]), "z": _quotient(delta, se),
            "ratio": _quotient(analytic, empirical), "ratio_se": _quotient(abs(analytic) * se, empirical**2),
            "class": kind}


def scale_file(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != HEADER:
            raise ValueError(f"{path}: not a validate CSV (header {reader.fieldnames})")
        rows = [scale_row(row) for row in reader]
    return {"counts": {kind: sum(row["class"] == kind for row in rows) for kind in CLASSES}, "rows": rows}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description="Classify validate rows as agrees, floor or fails.")
    parser.add_argument("paths", nargs="+", metavar="VALIDATE_CSV")
    args = parser.parse_args(argv)
    try:
        result = {"files": {path: scale_file(path) for path in args.paths}}
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    print(json.dumps(result, allow_nan=False))
    return result


if __name__ == "__main__":
    main()
