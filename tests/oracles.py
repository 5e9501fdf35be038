"""Reference operators and rounding constants that only the tests use."""

import math
from itertools import combinations

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
