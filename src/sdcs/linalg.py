"""Input checks and the matrix fixture format.

``as_matrix`` and ``as_vector`` coerce array-likes to float64 and reject
non-finite entries and empty or misshapen input at every public entry
point.  The text fixture format stores a matrix with round-trip-exact
floats.  The package factors its matrices with numpy's LAPACK-backed
routines where it needs them; this module holds no factorization.
"""

from __future__ import annotations

import numpy as np


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array with positive dimensions."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={v.ndim}")
    if v.size < 1:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def read_matrix_text(text: str) -> np.ndarray:
    """Parse the matrix fixture format: 'rows cols' then one line per row."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix fixture")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("fixture header must be 'rows cols'")
    rows, cols = int(header[0]), int(header[1])
    if rows < 1 or cols < 1:
        raise ValueError("fixture dimensions must be positive")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data lines, got {len(lines) - 1}")
    out = np.empty((rows, cols), dtype=np.float64)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != cols:
            raise ValueError(f"row {i}: expected {cols} entries, got {len(parts)}")
        out[i] = [float(p) for p in parts]
    return as_matrix(out, "fixture")


def write_matrix_text(a) -> str:
    """Render a matrix in the fixture format with round-trip-exact floats."""
    a = as_matrix(a)
    rows = [f"{a.shape[0]} {a.shape[1]}"]
    for i in range(a.shape[0]):
        rows.append(" ".join(repr(float(x)) for x in a[i]))
    return "\n".join(rows) + "\n"
