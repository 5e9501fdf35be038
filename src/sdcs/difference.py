"""Finite difference operators and their inverse powers.

The first-order difference matrix is bidiagonal (+1 diagonal, -1 first
subdiagonal); its inverse is the running-sum operator, and the r-th
inverse power D^{-r} is applied as r running sums.  Entry (i, j) of D^{-r}
is binomial(i - j + r - 1, r - 1) for i >= j, an integer.

The kept per-(m, r) state.  This docstring is its one description.  The
sweeps reuse one (m, r) across many trials, so the module keeps what was
built for the last (m, r) asked for, in one dict:

- ``difference_power(m, r)``, the dense D^{-r} (m*m doubles) that the
  noise-shaping reconstruction multiplies by;
- ``projected_basis(m, r, ell)``, the top-ell right singular rows of
  D^{-r} (ell*m doubles), one for each ell asked for.

Building anything for another (m, r) empties the dict first, so it never
holds the arrays of two (m, r), and a sweep, which visits one (m, r) at a
time, builds each of its keys once.  Every build checks (m, r) with
check_exact_power.  Both functions hand every caller the kept array
itself, read-only, so a warm call copies nothing.

The dense power lives in a private anonymous memory mapping of its own,
viewed as an m x m array (see _dense_power), of which only the entries on
and below the diagonal are written.  Linux backs a private anonymous page
with memory only once it is written; until then every read of it, the BLAS
products over the upper triangle included, sees one shared page of zeros.
So the pages wholly above the diagonal cost no resident memory.

Once a row spans at least a page, the row stride is m rounded up to a
whole number of pages (see _zero_mapped), so every row starts on a page
boundary and row i's written run, entries 0..i, backs
ceil(8 (i + 1) / PAGESIZE) pages.  The zeros backed past each run then
average half a page per row; at a stride of m doubles the runs start
anywhere in a page, and about a page of zeros is backed per row.  Shorter
rows keep the stride m, since padding them to a page would multiply the
pages they span (5x at m = 100).  The padding columns are neither written nor read.
The array is then not C-contiguous, but its columns have unit stride, so
numpy hands it to BLAS without a copy, with the row stride as the leading
dimension.  BLAS packs its operands into blocks of its own before it
multiplies, so the stride enters no digit: every product returns the
digits an ordinary array gives.  Huge pages are refused for the
mapping: a huge page is backed whole at its first write, and one spans
rows on both sides of the diagonal.  The mapping is unmapped when the last
reference to the array goes, once the dict drops it and no caller still
holds it.

A basis is formed from running sums alone (see _top_right_rows), never
from the dense power, which only the reconstruction asks for.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

# Lanczos stop: the bound on the sine of the largest principal angle to the
# exact top-ell subspace is at most _BASIS_TOL, or at most
# _BASIS_FLOOR * eps * sigma_1 / sigma_ell where rounding sets a higher floor.
_BASIS_TOL = 1e-12
_BASIS_FLOOR = 16.0
_EPS = float(np.finfo(np.float64).eps)
# Every integer up to this is an exact double.
_EXACT_INT = 2**53


def check_exact_power(m: int, r: int) -> None:
    """Raise ValueError unless m >= 1, r >= 1 and every entry of the r-th
    inverse power at m is an exact double.

    The library's entry points (full_pipeline, SweepConfig,
    difference_power and projected_basis) call it.  The entries are the
    binomials C(k + r - 1, r - 1), k < m, increasing in k, so the largest
    is C(m + r - 2, r - 1); doubles hold every integer up to 2^53 exactly.
    That allows m <= 368 at r = 9, m <= 4041 at r = 6 and any practical m
    at r <= 3.  It is not the whole of what is supported: the command line
    caps r at 3 (sdcs.cli), and (m, r) = (200, 9), inside this envelope,
    gives support-correct rows whose err_l2 exceeds the error bound,
    because b = D^{-r} q rounds.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    top = math.comb(m + r - 2, r - 1)
    if top > _EXACT_INT:
        raise ValueError(
            f"(m, r) = ({m}, {r}) is out of range: the largest entry of the "
            f"inverse difference power, C({m + r - 2}, {r - 1}) = {top:.3g}, "
            f"exceeds 2^53, so it is not an exact double"
        )


# What was built for the last (m, r) asked for: the dense power under
# (m, r, None) and the basis of each ell under (m, r, ell).  Every key
# shares one (m, r).
_kept: dict[tuple[int, int, int | None], np.ndarray] = {}


def _kept_or_built(m: int, r: int, ell: int | None, build) -> np.ndarray:
    """The array kept under (m, r, ell), else the one build() returns, kept
    (see the module docstring); the old arrays are released before the new
    one is made."""
    key = (m, r, ell)
    if key not in _kept:
        check_exact_power(m, r)
        if next(iter(_kept), key)[:2] != (m, r):
            _kept.clear()
        built = build()
        built.setflags(write=False)
        _kept[key] = built
    return _kept[key]


def difference_power(m: int, r: int) -> np.ndarray:
    """Dense r-th inverse difference power for dimension m, kept (see the
    module docstring).

    The power is lower-triangular Toeplitz, so it is filled from its first
    column, D^{-r} e_0, taken as r running sums.  Every partial sum is an
    integer no larger than the largest entry, so the fill is exact.
    """
    return _kept_or_built(m, r, None, lambda: _dense_power(m, r))


def _dense_power(m: int, r: int) -> np.ndarray:
    unit = np.zeros(m)
    unit[0] = 1.0
    reversed_column = _apply_power(unit, r)[::-1]
    power = _zero_mapped(m)
    # With c the first column, row i is c_i, ..., c_0 followed by zeros that
    # are never written (see the module docstring).
    for i in range(m):
        power[i, :i + 1] = reversed_column[m - 1 - i:]
    return power


def _zero_mapped(m: int) -> np.ndarray:
    """An m x m array of zeros in a private anonymous mapping of its own,
    with huge pages refused where the platform allows it.

    Its row stride is m doubles while a row is shorter than a page, and m
    rounded up to a whole number of pages from there, so that every row
    starts on a page boundary (see the module docstring); the array is the
    first m columns of that m x stride view.
    """
    per_page = mmap.PAGESIZE // 8
    stride = m if m < per_page else -(-m // per_page) * per_page
    if hasattr(mmap, "MAP_PRIVATE"):
        buffer = mmap.mmap(-1, 8 * m * stride, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:  # Windows: an anonymous mapping reads as zeros all the same
        buffer = mmap.mmap(-1, 8 * m * stride)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype=np.float64).reshape(m, stride)[:, :m]


def _apply_power(x: np.ndarray, r: int) -> np.ndarray:
    """D^{-r} @ x as r running sums down the columns."""
    for _ in range(r):
        x = np.cumsum(x, axis=0)
    return x


def _order_one_rows(m: int, ell: int) -> np.ndarray:
    """The top-ell right singular vectors of D^{-1}, as rows, in closed form.

    They are the eigenvectors cos(theta_j (k + 1/2)), theta_j =
    (2j - 1) pi / (2m + 1), j = 1, ..., ell, of D D^T, the second-difference
    matrix with a 1 in its (0, 0) entry (the DCT family; Strang, SIAM
    Review 1999).  Their eigenvalues 4 sin^2(theta_j / 2) increase with j,
    so the singular values of D^{-1} fall, and each has squared norm
    (2m + 1) / 4.
    """
    # theta_j (k + 1/2) = (2j - 1)(2k + 1) pi / (4m + 2), reduced modulo 2 pi
    # in integers so that no angle carries a rounding error of order m eps.
    # The table is converted once and then filled in place, so at most two
    # ell x m arrays are alive at once.
    period = 8 * m + 4
    odd = np.outer(2 * np.arange(ell) + 1, 2 * np.arange(m) + 1)
    odd %= period
    rows = odd.astype(np.float64)
    del odd
    rows *= 2.0 * math.pi / period
    np.cos(rows, out=rows)
    rows *= 2.0 / math.sqrt(2 * m + 1)
    return rows


def _reorthogonalize(w: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """w less its part in the span of the orthonormal rows of basis, and
    the norm of what is left.

    Classical Gram-Schmidt, with a second pass when the first cancels more
    than half of the norm (twice is enough: Giraud, Langou and Rozloznik,
    Numer. Math. 2005).
    """
    before = np.linalg.norm(w)
    w = w - (basis @ w) @ basis
    after = np.linalg.norm(w)
    if after < 0.5 * before:
        w = w - (basis @ w) @ basis
        after = np.linalg.norm(w)
    return w, float(after)


def _lanczos_rows(m: int, r: int, ell: int) -> np.ndarray:
    """Top-ell right singular rows of A = D^{-r}, for 1 <= ell <= m, by
    Golub-Kahan-Lanczos bidiagonalization (Golub and Kahan, SIAM J. Numer.
    Anal. B 1965) with full reorthogonalization (Simon and Zha, SIAM J.
    Sci. Comput. 2000).

    From the unit start v_1 = (1, ..., 1) / sqrt(m), step j sets

        alpha_j u_j = A v_j - beta_{j-1} u_{j-1},
        beta_j v_{j+1} = A^T u_j - alpha_j v_j,

    each new vector reorthogonalized against every earlier one of its
    sequence.  After k steps A V_k = U_k B_k and A^T U_k = V_k B_k^T +
    beta_k v_{k+1} e_k^T, with B_k the k x k upper bidiagonal of the alphas
    (diagonal) and betas (superdiagonal).  A is r running sums, and A^T the
    same on the reversed vector, reversed.

    Stop rule.  Let B_k = P S Q^T.  The ell Ritz rows W = Q_ell^T V_k and
    their partners U_k P_ell satisfy A W^T = U_k P_ell S_ell exactly, and
    A^T U_k P_ell - W^T S_ell = beta_k v_{k+1} (e_k^T P_ell): a rank-one
    residual of norm rho = beta_k ||e_k^T P_ell||.  By Wedin's theorem
    (BIT 1972) the sine of the largest principal angle between span(W) and
    the exact top-ell right singular subspace is at most
    rho / (s_ell - sigma_{ell+1}).  B_k is a compression of A, so its
    singular values s_j lie below A's sigma_j and climb towards them; the
    stop puts s_{ell+1} in place of sigma_{ell+1} and returns W once

        rho <= tol * (s_ell - s_{ell+1}),   tol = max(1e-12, 16 eps s_1 / s_ell).

    That gap is an estimate, as for any Krylov method, which cannot see a
    singular value its start vector misses; the all-ones start weights
    every direction here, and the tests hold the rows to the dense SVD.
    The computed rho falls past rounding, so the stop is always reached;
    the floor term ends the iteration once rho is below what rounding of
    the relation (about eps sigma_1) leaves meaningful, at r = 3 and large
    ell.  The returned rows then carry that rounding, about eps sigma_1
    divided by the gap, as any backward-stable SVD's do.  In exact
    arithmetic beta_m = 0, so k = m ends the loop at the latest, and at
    ell = m, where the rows must span the whole space, it is the only stop.

    B_k is factored when k first exceeds ell (at k = m if ell = m) and then
    every max(4, k / 8) steps: all those small SVDs cost about as much as
    the last, and at most an eighth more steps run than the stop needs.
    The Lanczos rows start at min(m, 2 ell + 8) and double when full, never
    past m, so they hold O(k m) doubles.  Each check factors B_k, held in
    one k x k array, drops B_k once factored and its factors unless it
    stops, so at most one B_k and its factors (3 k^2 doubles) are alive
    beside the rows.
    """
    cap = min(m, 2 * ell + 8)
    v_rows, u_rows = np.empty((cap, m)), np.empty((cap, m))
    alphas: list[float] = []
    betas: list[float] = []
    v = np.full(m, 1.0 / math.sqrt(m))
    k, check = 0, min(m, ell + 1)
    while True:
        if k == len(v_rows):
            more = np.empty((min(m, 2 * k) - k, m))
            v_rows, u_rows = np.concatenate([v_rows, more]), np.concatenate([u_rows, more])
        v_rows[k] = v
        u = _apply_power(v, r)
        if k:
            u -= betas[-1] * u_rows[k - 1]
        u, alpha = _reorthogonalize(u, u_rows[:k])
        u_rows[k] = u / alpha
        # D^{-rT} is D^{-r} with rows and columns reversed
        w = _apply_power(u_rows[k, ::-1], r)[::-1] - alpha * v
        w, beta = _reorthogonalize(w, v_rows[: k + 1])
        alphas.append(alpha)
        betas.append(beta)
        k += 1
        if k == check:
            b = np.zeros((k, k))
            b.flat[::k + 1] = alphas
            b.flat[1::k + 1] = betas[:-1]
            p, s, qt = np.linalg.svd(b)
            del b
            tol = max(_BASIS_TOL, _BASIS_FLOOR * _EPS * s[0] / s[ell - 1])
            if k == m or beta * np.linalg.norm(p[-1, :ell]) <= tol * (s[ell - 1] - s[ell]):
                return qt[:ell] @ v_rows[:k]
            del p, qt
            check = min(m, k + max(4, k // 8))
        v = w / beta


def _top_right_rows(m: int, r: int, ell: int) -> np.ndarray:
    """Rows spanning the top-ell right singular subspace of D^{-r}: the
    closed form (_order_one_rows) at r = 1, where nothing is factored, and
    Golub-Kahan-Lanczos (_lanczos_rows) in O(k m) memory otherwise."""
    return _order_one_rows(m, ell) if r == 1 else _lanczos_rows(m, r, ell)


def projected_basis(m: int, r: int, ell: int) -> np.ndarray:
    """ell orthonormal rows spanning the top-ell right singular vectors of D^{-r}.

    These are the directions paired with the ell largest singular values
    (the first ell rows of V^T, up to an orthogonal change of basis within
    their span, which no caller's result depends on), kept (see the module
    docstring).
    """
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= {m}, got ell={ell}")
    return _kept_or_built(m, r, ell, lambda: _top_right_rows(m, r, ell))
