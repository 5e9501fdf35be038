"""Finite difference operators and their inverse powers.

The first-order difference matrix is bidiagonal (+1 diagonal, -1 first
subdiagonal); its inverse is the running-sum operator.  Inverse powers
have an exact integer-valued closed form: entry (i, j) of the r-th
inverse power is binomial(i - j + r - 1, r - 1) for i >= j.

Inverse powers and their singular values and right singular vectors are
cached per (m, r) since sweeps reuse them across many trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def difference_matrix(m: int) -> np.ndarray:
    """m x m first-order difference operator."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.eye(m) - np.eye(m, k=-1)


def inverse_difference_power(m: int, r: int) -> np.ndarray:
    """r-th power of the inverse difference operator, exactly integer-valued."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    # First column via the integer binomial recurrence c[k] = c[k-1]*(k+r-1)/k.
    col = [1] * m
    for k in range(1, m):
        col[k] = col[k - 1] * (k + r - 1) // k
    colarr = np.array(col, dtype=np.float64)
    out = np.zeros((m, m))
    i, j = np.tril_indices(m)
    out[i, j] = colarr[i - j]
    return out


@dataclass(frozen=True)
class DifferencePower:
    """Inverse difference power with its singular values s (non-increasing)
    and the matching right singular vectors as the rows of vt."""

    m: int
    r: int
    inv_power: np.ndarray
    s: np.ndarray
    vt: np.ndarray


@lru_cache(maxsize=None)
def difference_power(m: int, r: int) -> DifferencePower:
    """Cached inverse power, singular values and V^T for dimension m, order r.

    The returned arrays are marked read-only; they are shared across
    callers and threads.
    """
    inv = inverse_difference_power(m, r)
    _, s, vt = np.linalg.svd(inv, full_matrices=False)
    for arr in (inv, s, vt):
        arr.setflags(write=False)
    return DifferencePower(m=m, r=r, inv_power=inv, s=s, vt=vt)


def singular_profile(m: int, r: int) -> np.ndarray:
    """Singular values of the r-th inverse difference power, non-increasing."""
    return difference_power(m, r).s.copy()


def projected_basis(m: int, r: int, ell: int) -> np.ndarray:
    """First ell rows of V^T from the SVD of the inverse difference power.

    These rows span the directions paired with the ell largest singular
    values; they are orthonormal as rows of an orthogonal matrix.
    """
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    return difference_power(m, r).vt[:ell].copy()
