"""Output checks: a CSV against its committed reference.

A CSV passes when its header and every non-numeric cell equal the
reference's and every numeric cell lies within REL_TOL (relative) or
ABS_TOL (absolute) of the reference value; NaN matches only NaN. The
tolerance admits last-digit changes from a different summation order and
nothing a Monte Carlo or quadrature change of substance would produce.
"""

from __future__ import annotations

import csv
import io
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(text: str, reference: str) -> str | None:
    """None when text matches reference within tolerance, else the first
    difference found."""
    rows = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(reference)))
    if len(rows) != len(ref):
        return f"{len(rows)} rows, reference has {len(ref)}"
    for i, (row, ref_row) in enumerate(zip(rows, ref)):
        if len(row) != len(ref_row):
            return f"row {i}: {len(row)} cells, reference has {len(ref_row)}"
        for j, (cell, ref_cell) in enumerate(zip(row, ref_row)):
            if cell == ref_cell:
                continue
            x, y = _number(cell), _number(ref_cell)
            if i == 0 or x is None or y is None:
                return f"row {i} col {j}: {cell!r} != {ref_cell!r}"
            if math.isnan(x) and math.isnan(y):
                continue
            if not math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return f"row {i} col {j}: {cell} differs from {ref_cell} beyond tolerance"
    return None
