"""Restricted isometry constant estimation and projection diagnostics.

The order-s constant of a matrix A is the smallest delta with
(1 - delta) <= ||A_T x||^2 / ||x||^2 <= (1 + delta) over all supports T of
size s, i.e. the worst extreme-eigenvalue deviation of the support Gram
matrices G_T from 1.  Exact computation enumerates supports (exponential in
s, capped); the Monte Carlo variant maximizes over sampled supports and
therefore never exceeds the exact value.

Both scans run one kernel that solves only the supports that can set the
maximum.  By Gershgorin's theorem, and because G_T is positive
semidefinite, a support's deviation is at most
max(max_i R_i - 1, 1 - max(min_i (2 G_ii - R_i), 0)), with R_i the absolute
row sums of G_T.  The kernel solves supports with eigvalsh in descending
order of that bound and stops once the next bound plus a rounding margin
is below the running maximum.  The margin covers the backward error of the
eigensolver and of the row sums, so no skipped support could have raised
the computed maximum: the value is bit for bit that of a scan that solves
every support.  supports_checked counts the supports covered, solved or
skipped.

Normalization is always the caller's job: nothing here rescales inputs,
except for projected_matrix whose 1/sqrt(ell) factor is part of its
definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .difference import projected_basis
from .linalg import as_matrix
from .measurement import Ensemble, sample_matrix
from .rng import RngStream

ENUMERATION_CAP = 10**6
# Supports per block of a scan, and per eigvalsh call within a block.
_BLOCK = 16_384
_CHUNK = 256
# The pruning margin is _MARGIN * s^2 * u * (max_i R_i + 1).  eigvalsh is
# backward stable: it returns the exact eigenvalues of G_T + E with
# ||E||_2 <= p(s) u ||G_T||_2, p a low-degree polynomial (O(s^2) in the
# worst-case analysis of the Householder reduction), so by Weyl's theorem
# each computed eigenvalue is within p(s) u max_i R_i of the exact one.  The
# row sums and the subtractions of 1 add at most (s + 2) u (max_i R_i + 1).
_MARGIN = 8.0
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RipEstimate:
    s: int
    value: float
    mode: str  # "exact" | "monte-carlo"
    supports_checked: int


def _max_deviation(gram: np.ndarray, supports: np.ndarray, worst: float) -> float:
    """max(worst, the worst eigenvalue deviation from 1 over the support rows).

    Solves only the supports whose Gershgorin bound plus margin is not
    below the running maximum; see the module docstring.
    """
    s = supports.shape[1]
    diag = np.diagonal(gram)[supports]
    absg = np.abs(gram)
    rowsum = np.abs(diag)
    for a, b in combinations(range(s), 2):
        pair = absg[supports[:, a], supports[:, b]]
        rowsum[:, a] += pair
        rowsum[:, b] += pair
    top = np.max(rowsum, axis=1)
    floor = np.maximum(np.min(2.0 * diag - rowsum, axis=1), 0.0)
    bound = np.maximum(top - 1.0, 1.0 - floor) + _MARGIN * s * s * _EPS * (top + 1.0)
    order = np.flatnonzero(bound >= worst)
    order = order[np.argsort(-bound[order])]
    for lo in range(0, order.size, _CHUNK):
        chunk = order[lo:lo + _CHUNK]
        if bound[chunk[0]] < worst:
            break
        t = supports[chunk]
        w = np.linalg.eigvalsh(gram[t[:, :, None], t[:, None, :]])
        worst = max(worst, float(np.max(np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0]))))
    return worst


def ric_exact(a, s: int) -> RipEstimate:
    """Exact restricted isometry constant by support enumeration.

    Supports are visited in lexicographic order in blocks.  Raises when
    the support count exceeds ENUMERATION_CAP; use ric_monte_carlo instead
    for such instances.
    """
    a = as_matrix(a)
    n = a.shape[1]
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= {n}, got s={s}")
    total = math.comb(n, s)
    if total > ENUMERATION_CAP:
        raise ValueError(
            f"comb({n}, {s}) = {total} supports exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; use ric_monte_carlo"
        )
    gram = a.T @ a
    it = combinations(range(n), s)
    worst = 0.0
    for done in range(0, total, _BLOCK):
        count = min(_BLOCK, total - done)
        block = np.fromiter(chain.from_iterable(islice(it, count)), dtype=np.intp,
                            count=count * s)
        worst = _max_deviation(gram, block.reshape(count, s), worst)
    return RipEstimate(s=s, value=worst, mode="exact", supports_checked=total)


def ric_monte_carlo(a, s: int, trials: int, rng: RngStream) -> RipEstimate:
    """Lower bound on the constant from uniformly sampled supports."""
    a = as_matrix(a)
    n = a.shape[1]
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= {n}, got s={s}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gram = a.T @ a
    worst = 0.0
    for done in range(0, trials, _BLOCK):
        block = rng.choose_index_rows(min(_BLOCK, trials - done), n, s)
        worst = _max_deviation(gram, block, worst)
    return RipEstimate(s=s, value=worst, mode="monte-carlo", supports_checked=trials)


def projected_matrix(phi, r: int, ell: int) -> np.ndarray:
    """The ell x N matrix (1/sqrt(ell)) * (first ell projection rows) @ phi."""
    phi = as_matrix(phi, "phi")
    m = phi.shape[0]
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= {m}, got ell={ell}")
    return (projected_basis(m, r, ell) @ phi) / math.sqrt(ell)


@dataclass(frozen=True)
class SmallBallSummary:
    """Empirical distribution of squared projected column norms."""

    ell: int
    trials: int
    mean: float
    quantile_levels: tuple[float, ...]
    quantiles: np.ndarray

    def as_pairs(self) -> list[tuple[float, float]]:
        return [(lv, float(qv)) for lv, qv in zip(self.quantile_levels, self.quantiles)]


_DEFAULT_LEVELS = (0.01, 0.05, 0.10, 0.25, 0.50)


def small_ball_probe(
    ensemble: Ensemble,
    m: int,
    r: int,
    ell: int,
    trials: int,
    rng: RngStream,
    quantile_levels: tuple[float, ...] = _DEFAULT_LEVELS,
) -> SmallBallSummary:
    """Sample ||projection @ column||^2 over independent ensemble columns.

    A healthy ensemble keeps the lower quantiles well away from zero;
    for entrywise-independent unit-variance ensembles the mean is ell.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if any(not 0.0 <= lv <= 1.0 for lv in quantile_levels):
        raise ValueError("quantile levels must lie in [0, 1]")
    if sorted(quantile_levels) != list(quantile_levels):
        raise ValueError("quantile levels must be non-decreasing")
    w = projected_basis(m, r, ell)
    cols = sample_matrix(ensemble, m, trials, rng)
    sq = np.sum((w @ cols) ** 2, axis=0)
    return SmallBallSummary(
        ell=ell,
        trials=trials,
        mean=float(np.mean(sq)),
        quantile_levels=tuple(quantile_levels),
        quantiles=np.quantile(sq, quantile_levels),
    )
