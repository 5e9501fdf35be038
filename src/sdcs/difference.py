"""Finite difference operators and their inverse powers.

The first-order difference matrix is bidiagonal (+1 diagonal, -1 first
subdiagonal); its inverse is the running-sum operator.  Inverse powers
have an exact integer-valued closed form: entry (i, j) of the r-th
inverse power is binomial(i - j + r - 1, r - 1) for i >= j.

Two small bounded caches serve the sweeps, which reuse one (m, r) across
many trials:

- ``difference_power(m, r)`` keeps the dense r-th inverse power of the last
  (m, r) only, m*m doubles (32 MB at m=2000), for the noise-shaping
  reconstruction, and releases it before building another;
- ``projected_basis(m, r, ell)`` holds the top-ell right singular vectors
  of that power in an LRU cache, ell*m doubles per key (0.5 MB at m=2000,
  ell=31).

The basis comes from block subspace iteration that applies the inverse
power as r running sums, so no dense m x m matrix and no m x m SVD is
formed for it.  It starts from the closed-form right singular vectors of
the first inverse power, so at r = 1 it is exact after one step.  The full
singular value profile (``singular_profile``) is the one dense SVD left;
it is uncached.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Keys the basis cache keeps.
_BASIS_CACHE_SIZE = 8

# Subspace iteration: stop once the sine of the largest principal angle
# between successive top-ell Ritz bases is at most _BASIS_TOL, or at most
# _BASIS_FLOOR * eps * sigma_1 / sigma_ell where rounding sets a higher
# floor; raise at the cap.
_BASIS_TOL = 1e-12
_BASIS_FLOOR = 16.0
_BASIS_MAX_ITERS = 100
_EPS = float(np.finfo(np.float64).eps)
# Every integer up to this is an exact double.
_EXACT_INT = 2**53


def _check_order(m: int, r: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")


def check_exact_power(m: int, r: int) -> None:
    """Raise ValueError unless every entry of the r-th inverse power at m is
    an exact double.

    The entries are the binomials C(k + r - 1, r - 1), k < m, increasing in
    k, so the largest is C(m + r - 2, r - 1); doubles hold every integer up
    to 2^53 exactly.
    """
    top = math.comb(m + r - 2, r - 1)
    if top > _EXACT_INT:
        raise ValueError(
            f"(m, r) = ({m}, {r}) is out of range: the largest entry of the "
            f"inverse difference power, C({m + r - 2}, {r - 1}) = {top:.3g}, "
            f"exceeds 2^53, so it is not an exact double"
        )


def inverse_difference_power(m: int, r: int) -> np.ndarray:
    """r-th power of the inverse difference operator, exactly integer-valued.

    Raises ValueError where an entry would exceed 2^53 (check_exact_power).
    """
    _check_order(m, r)
    check_exact_power(m, r)
    # First column via the integer binomial recurrence c[k] = c[k-1]*(k+r-1)/k.
    col = [1] * m
    for k in range(1, m):
        col[k] = col[k - 1] * (k + r - 1) // k
    colarr = np.array(col, dtype=np.float64)
    # Toeplitz fill: row i is c_i, ..., c_0 followed by zeros, the reverse
    # of the length-m window of [0, ..., 0, c_0, ..., c_{m-1}] starting at i.
    padded = np.concatenate([np.zeros(m - 1), colarr])
    return sliding_window_view(padded, m)[:, ::-1].copy()


# difference_power's one kept entry, (m, r) -> dense power, or empty.
_power_slot: dict[tuple[int, int], np.ndarray] = {}


def difference_power(m: int, r: int) -> np.ndarray:
    """Dense r-th inverse difference power for dimension m, kept for the
    last (m, r) asked for.

    A sweep visits one (m, r) at a time, so one slot serves it.  The kept
    array is dropped before a new one is built, so the module never holds
    two.  The returned array is read-only; it is shared across callers.
    """
    if (m, r) in _power_slot:
        return _power_slot[m, r]
    _power_slot.clear()
    inv = inverse_difference_power(m, r)
    inv.setflags(write=False)
    _power_slot[m, r] = inv
    return inv


def singular_profile(m: int, r: int) -> np.ndarray:
    """Singular values of the r-th inverse difference power, non-increasing."""
    return np.linalg.svd(inverse_difference_power(m, r), compute_uv=False)


def _apply_power(x: np.ndarray, r: int) -> np.ndarray:
    """D^{-r} @ x as r running sums down the columns."""
    for _ in range(r):
        x = np.cumsum(x, axis=0)
    return x


def _apply_power_t(x: np.ndarray, r: int) -> np.ndarray:
    """D^{-rT} @ x as r running sums up the columns."""
    x = x[::-1]
    for _ in range(r):
        x = np.cumsum(x, axis=0)
    return x[::-1]


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _top_right_singular_rows(m: int, r: int, ell: int) -> np.ndarray:
    """Rows spanning the top-ell right singular subspace of D^{-r}.

    Block subspace iteration (Halko, Martinsson and Tropp, SIAM Review
    2011) with block size b = min(m, 2 ell + 8): each step applies D^{-r}
    to the orthonormal block Q, takes the Rayleigh-Ritz SVD of D^{-r} Q
    (its left factor orthonormalizes that sweep), then applies D^{-rT} and
    re-orthonormalizes by QR.  The Ritz values converge at the square of
    the subspace angle, so the stop tests the angle itself.  Each step
    shrinks the angle to the exact subspace by (sigma_{b+1}/sigma_ell)^2,
    below 1/4, so the basis returned is nearer the exact one than the last
    step moved it.  Rounding keeps successive iterates apart by about
    eps * sigma_1 / sigma_ell (0.04-1.2 times that, measured for r <= 3 and
    m <= 5000), which exceeds 1e-12 for r = 3 and large ell; the stop then
    accepts a small multiple of that floor instead of iterating to the cap.
    With b = m the first Rayleigh-Ritz step is exact.

    The start block is the top-b right singular vectors of D^{-1}: the
    eigenvectors cos(theta_j (k + 1/2)), theta_j = (2j - 1) pi / (2m + 1),
    of D D^T, the second-difference matrix with a 1 in its (0, 0) entry
    (the DCT family; Strang, SIAM Review 1999).  At r = 1 the first Ritz
    basis is exact to rounding and the stop passes at the second step.  At
    r = 2 and 3 the top-ell subspace lies within sine 0.10 and 0.21 of the
    start's span (measured against the dense SVD for m <= 1000 and ell up
    to 3 ceil(m (5/m)^0.7)), so every target direction is present and the
    iteration takes 9 and 6 steps.
    """
    b = min(m, 2 * ell + 8)
    theta = (2.0 * np.arange(1, b + 1) - 1.0) * (math.pi / (2 * m + 1))
    q, _ = np.linalg.qr(np.cos(np.outer(np.arange(m) + 0.5, theta)))
    prev = None
    for _ in range(_BASIS_MAX_ITERS):
        u, s, wt = np.linalg.svd(_apply_power(q, r), full_matrices=False)
        ritz = q @ wt[:ell].T
        if b == m:
            break
        if prev is not None:
            # sin of the largest principal angle between span(prev) and span(ritz)
            resid = prev - ritz @ (ritz.T @ prev)
            tol = max(_BASIS_TOL, _BASIS_FLOOR * _EPS * s[0] / s[ell - 1])
            if np.linalg.eigvalsh(resid.T @ resid)[-1] <= tol * tol:
                break
        prev = ritz
        q, _ = np.linalg.qr(_apply_power_t(u, r))
    else:
        raise RuntimeError(
            f"projection basis for m={m}, r={r}, ell={ell} did not converge "
            f"in {_BASIS_MAX_ITERS} iterations"
        )
    out = np.ascontiguousarray(ritz.T)
    out.setflags(write=False)
    return out


def projected_basis(m: int, r: int, ell: int) -> np.ndarray:
    """ell orthonormal rows spanning the top-ell right singular vectors of D^{-r}.

    These are the directions paired with the ell largest singular values
    (the first ell rows of V^T, up to an orthogonal change of basis within
    their span, which no caller's result depends on).
    """
    _check_order(m, r)
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    return _top_right_singular_rows(m, r, ell).copy()
