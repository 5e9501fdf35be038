"""Random measurement ensembles and sparse test signals.

All entries are mean zero and unit variance across ensembles so that
results are comparable when the number of measurements grows; matrices
are deliberately left unnormalized (no 1/sqrt(m) factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .rng import RngStream

ENSEMBLE_KINDS = ("gaussian", "rademacher", "column-model")
# Correlation roots kept, one dense m x m root per key; a sweep visits one m
# at a time, so memory stays bounded for any m-grid.
_ROOT_CACHE_SIZE = 2


@dataclass(frozen=True)
class Ensemble:
    """Measurement ensemble descriptor.

    gaussian      independent standard normal entries
    rademacher    independent +/-1 entries
    column-model  independent columns with unit-variance but correlated
                  entries: column = S^(1/2) g with g i.i.d. Rademacher
                  and S a unit-diagonal tridiagonal correlation matrix
                  (off-diagonal ``column_corr``)
    """

    kind: str
    column_corr: float = 0.3

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}; expected one of {ENSEMBLE_KINDS}")
        if not 0.0 <= self.column_corr < 0.5:
            # Tridiagonal correlation is positive definite iff |corr| < 0.5.
            raise ValueError("column_corr must lie in [0, 0.5)")


@dataclass(frozen=True)
class SparseSignal:
    """Exactly sparse vector with support and amplitude-floor metadata."""

    n: int
    support: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    amplitude_floor: float

    def __post_init__(self):
        if self.support.size != self.values.size:
            raise ValueError("support and values must have equal length")
        if self.support.size < 1 or self.support.size > self.n:
            raise ValueError("support size must lie in [1, n]")
        if np.min(np.abs(self.values)) < self.amplitude_floor:
            raise ValueError("values violate the amplitude floor")

    @property
    def s(self) -> int:
        return int(self.support.size)

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.support] = self.values
        return x


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _correlation_root(m: int, corr: float) -> np.ndarray:
    """Symmetric PSD square root of the tridiagonal unit-diagonal correlation."""
    sig = np.eye(m) + corr * (np.eye(m, k=1) + np.eye(m, k=-1))
    w, q = np.linalg.eigh(sig)
    if np.min(w) <= 0:
        raise ValueError("correlation matrix is not positive definite")
    root = (q * np.sqrt(w)) @ q.T
    root.setflags(write=False)
    return root


def sample_matrix(ensemble: Ensemble, m: int, n: int, rng: RngStream) -> np.ndarray:
    """Draw an m x n measurement matrix from the given ensemble."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if ensemble.kind == "gaussian":
        return rng.normals(m * n).reshape(m, n)
    if ensemble.kind == "rademacher":
        return rng.rademacher(m * n).reshape(m, n)
    # column-model: correlate entries within each column, columns independent
    g = rng.rademacher(m * n).reshape(m, n)
    return _correlation_root(m, ensemble.column_corr) @ g


def sample_sparse_signal(
    n: int,
    s: int,
    floor: float,
    magnitude_cap: float,
    rng: RngStream,
) -> SparseSignal:
    """Draw an s-sparse signal: uniform support, magnitudes uniform on
    [floor, magnitude_cap], independent random signs."""
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    if not 0.0 < floor <= magnitude_cap:
        raise ValueError("need 0 < floor <= magnitude_cap")
    support = rng.choose_indices(n, s)
    mags = floor + (magnitude_cap - floor) * rng.uniforms(s)
    signs = rng.rademacher(s)
    return SparseSignal(n=n, support=support, values=mags * signs, amplitude_floor=floor)
