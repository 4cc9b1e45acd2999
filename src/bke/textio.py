"""The one artifact writer, plus repeatable float formatting, JSON and CSV,
and the one bounded read of the binary readers.

Every file bke writes goes through ``write_artifact``: it makes the parent
directory, writes a sibling ``<name>.partial`` and renames it over the
target, so an artifact is replaced whole or not at all. Every float
written to a CSV/JSON artifact goes through ``fmt_float`` (17 significant
digits), which round-trips IEEE doubles exactly, so a rerun with the same
seed produces byte-identical files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np


class CsvError(ValueError):
    pass


def fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def write_artifact(path, content: str | bytes) -> None:
    """Write content (str as UTF-8) to path, whole or not at all: a failure
    leaves the earlier file, if any, and no ``.partial`` behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "wb") as fh:
            fh.write(content.encode("utf-8") if isinstance(content, str) else content)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def read_exact(fh, n: int, error: type[Exception], what: str) -> bytes:
    """Read n bytes, checking first that the file still holds them; a short
    file raises the reader's own error type."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise error(f"truncated {what}: wanted {n} bytes, got {left}")
    return fh.read(n)


def write_json(path, doc) -> None:
    write_artifact(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """One line per row after the header line (none if header is empty);
    floats through fmt_float, ints and strings as they are."""
    lines = [header] if header else []
    lines += [[fmt_float(c) if isinstance(c, float) else str(c) for c in row] for row in rows]
    write_artifact(path, "".join(",".join(line) + "\n" for line in lines))


def write_float_matrix(matrix: np.ndarray, path) -> None:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    write_csv(path, (), arr.tolist())


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
