"""Reference operators and rounding constants that only the tests use."""

import math
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul

import numpy as np

U = float(np.finfo(np.float64).eps) / 2  # unit roundoff


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error bound of k roundings."""
    return k * U / (1.0 - k * U)


def difference_matrix(m: int) -> np.ndarray:
    """m x m first-order difference operator: +1 diagonal, -1 first subdiagonal."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.eye(m) - np.eye(m, k=-1)


def inverse_difference_power(m: int, r: int) -> np.ndarray:
    """r-th power of the inverse difference operator from its closed form:
    entry (i, j) is the binomial C(i - j + r - 1, r - 1) for i >= j, taken
    in Python integers and rounded once to double.  Raises ValueError where
    an entry exceeds 2^53, so every entry returned is exact."""
    col = [math.comb(k + r - 1, r - 1) for k in range(m)]
    if col[-1] > 2**53:
        raise ValueError(f"C({m + r - 2}, {r - 1}) = {col[-1]:.3g} exceeds 2^53")
    lag = np.subtract.outer(np.arange(m), np.arange(m))
    return np.where(lag >= 0, np.array(col, dtype=np.float64)[np.maximum(lag, 0)], 0.0)


def singular_profile(m: int, r: int) -> np.ndarray:
    """Singular values of the r-th inverse difference power, non-increasing,
    from one dense SVD."""
    return np.linalg.svd(inverse_difference_power(m, r), compute_uv=False)


def round_half_away(t: float) -> int:
    """Nearest integer to t, ties away from zero."""
    k = math.floor(abs(t) + 0.5)
    return k if t >= 0 else -k


def round_each_entry(y, delta: float) -> np.ndarray:
    """Vectorized rounding of each entry to the nearest multiple of delta,
    ties away from zero: the order-0 quantizer's reference.  Adding +0.0
    turns the -0.0 of a negative entry that rounds to zero into +0.0, the
    zero the sequential loop stores."""
    t = np.asarray(y, dtype=np.float64) / delta
    return delta * np.sign(t) * np.floor(np.abs(t) + 0.5) + 0.0


def correlation_root(m: int, corr: float) -> np.ndarray:
    """Symmetric root of the unit-diagonal tridiagonal covariance with
    off-diagonal corr, dense, from its eigendecomposition."""
    sig = np.eye(m) + corr * (np.eye(m, k=1) + np.eye(m, k=-1))
    w, q = np.linalg.eigh(sig)
    return (q * np.sqrt(w)) @ q.T


def randbelow_reference(rng, bound):
    """Uniform integer in range(bound) from raw draws, rejecting those at
    or above the largest multiple of bound not above 2^64."""
    limit = (1 << 64) - (1 << 64) % bound
    while True:
        x = int(rng.uint64s(1)[0])
        if x < limit:
            return x % bound


def choose_indices_reference(rng, n, k):
    """The sequential definition: one randbelow(n - i) per position."""
    pool = list(range(n))
    for i in range(k):
        j = i + randbelow_reference(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return np.array(sorted(pool[:k]), dtype=np.intp)


def every_support_deviation(a, supports) -> float:
    """Worst eigenvalue deviation from 1 of the Gram submatrices of a on
    the support rows, every one solved with eigvalsh (floored at 0)."""
    gram = a.T @ a
    subs = gram[supports[:, :, None], supports[:, None, :]]
    w = np.linalg.eigvalsh(subs)
    return max(0.0, float(np.max(np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0]))))


def ric_exact_reference(a, s: int) -> float:
    """Exact order-s restricted isometry constant, every support solved."""
    supports = np.array(list(combinations(range(a.shape[1]), s)), dtype=np.intp)
    return every_support_deviation(a, supports)


def ric_monte_carlo_reference(a, s: int, trials: int, rng) -> float:
    """Monte Carlo constant over sequentially drawn supports, every one solved."""
    supports = np.stack([choose_indices_reference(rng, a.shape[1], s) for _ in range(trials)])
    return every_support_deviation(a, supports)



def _integers(values):
    """Integers N_i and one power of two d with values_i = N_i / d exactly:
    every double is a dyadic rational."""
    ratios = [float(v).as_integer_ratio() for v in values]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios], d


def _running_sums(values, r: int):
    """D^{-r} applied to a column of integers: r running sums, exactly."""
    for _ in range(r):
        values = list(accumulate(values))
    return values


def _integer_columns(phi_t, r: int):
    """The columns of A = D^{-r} phi_t as integers over one power of two d:
    (columns, d) with A = columns / d exactly."""
    phi_t = np.asarray(phi_t, dtype=np.float64)
    m, k = phi_t.shape
    ints, d = _integers(phi_t.ravel(order="F"))
    return [_running_sums(ints[j * m:(j + 1) * m], r) for j in range(k)], d


def sobolev_exact(phi_t, q, r: int):
    """The Sobolev dual reconstruction of the stored doubles in exact
    arithmetic: x* = A^+ b with A = D^{-r} phi_t and b = D^{-r} q, as k
    Fractions, and the squared norm of its residual b - A x*, a Fraction.

    D^{-r} has integer entries and every double is a dyadic rational, so A
    and b are the integer running sums of phi_t and q, each over one power
    of two.  x* solves the k x k normal equations A^T A x = A^T b by exact
    Gauss-Jordan elimination, and ||b - A x*||^2 = b^T b - b^T A x*.
    Raises ValueError where A has dependent columns.
    """
    cols, d_a = _integer_columns(phi_t, r)
    k = len(cols)
    b_ints, d_b = _integers(np.asarray(q, dtype=np.float64))
    b = _running_sums(b_ints, r)
    # A = cols / d_a and b / d_b: cols^T cols z = cols^T b gives x* = z d_a / d_b
    rhs = [sum(map(mul, c, b)) for c in cols]
    rows = [[Fraction(sum(map(mul, ci, cj))) for cj in cols] + [Fraction(t)]
            for ci, t in zip(cols, rhs)]
    for p in range(k):  # A^T A is semidefinite: a zero pivot means dependent columns
        if rows[p][p] == 0:
            raise ValueError("A has dependent columns")
        for i in range(k):
            if i != p:
                f = rows[i][p] / rows[p][p]
                rows[i] = [a - f * c for a, c in zip(rows[i], rows[p])]
    z = [rows[i][k] / rows[i][i] for i in range(k)]
    resid_sq = (sum(map(mul, b, b)) - sum(map(mul, z, rhs))) / (d_b * d_b)
    return [zi * d_a / d_b for zi in z], resid_sq


def err_star(x_t, x_star) -> float:
    """||x_t - x*|| for doubles x_t and Fractions x* (sobolev_exact): exact
    up to the final conversion to double and square root, so within a
    relative 1.5 u, u = 2^-53."""
    return math.sqrt(float(sum((Fraction(float(a)) - b) ** 2 for a, b in zip(x_t, x_star))))


def _positive_definite(gram, lam) -> bool:
    """Whether gram - lam I is positive definite, exactly.  Gaussian
    elimination without pivoting gives the pivots of its LDL^T, and by
    Sylvester's law of inertia it is definite exactly when every pivot is
    positive.  The first pivot that is not ends the elimination: the
    leading minor it closes is then not positive."""
    k = len(gram)
    rows = [[Fraction(g) - (lam if i == j else 0) for j, g in enumerate(row)]
            for i, row in enumerate(gram)]
    for p in range(k):
        if rows[p][p] <= 0:
            return False
        for i in range(p + 1, k):
            f = rows[i][p] / rows[p][p]
            rows[i] = [a - f * c for a, c in zip(rows[i], rows[p])]
    return True


def sigma_min_sq_bracket(phi_t, r: int):
    """Fractions (lo, hi) with lo < lambda_min(A^T A) <= hi and hi - lo <=
    2^-40 hi, where A = D^{-r} phi_t of the stored doubles, so lambda_min is
    sigma_min(A)^2 exactly.

    A = columns / d over integers (as in sobolev_exact), so A^T A = G / d^2
    with G the integer Gram matrix.  Bisection on lambda keeps G - lo I
    positive definite and G - hi I not (_positive_definite), from lo = 0
    and hi = the smallest diagonal entry of G, a Rayleigh quotient.
    Raises ValueError where A has dependent columns.
    """
    cols, d = _integer_columns(phi_t, r)
    gram = [[sum(map(mul, ci, cj)) for cj in cols] for ci in cols]
    lo, hi = Fraction(0), Fraction(min(gram[i][i] for i in range(len(gram))))
    if not _positive_definite(gram, lo):
        raise ValueError("A has dependent columns")
    while hi - lo > hi * Fraction(1, 2**40):
        mid = (lo + hi) / 2
        if _positive_definite(gram, mid):
            lo = mid
        else:
            hi = mid
    return lo / (d * d), hi / (d * d)
