"""Text artifact helpers: repeatable float formatting and CSV matrices.

Every float written to a CSV/JSON artifact goes through ``fmt_float``
(17 significant digits), which round-trips IEEE doubles exactly, so a
rerun with the same seed produces byte-identical files.
"""

from __future__ import annotations

import numpy as np


class CsvError(ValueError):
    pass


def fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def write_float_matrix(matrix: np.ndarray, path) -> None:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(fmt_float(v) for v in row) + "\n")


def read_float_matrix(path) -> np.ndarray:
    """Parse a headerless CSV of floats; errors name the 1-based line."""
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise CsvError(f"{path}: line {lineno}: not a float row: {line!r}") from None
            if not np.isfinite(row).all():
                raise CsvError(f"{path}: line {lineno}: non-finite value in {line!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise CsvError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise CsvError(f"{path}: no data rows")
    return np.array(rows)
