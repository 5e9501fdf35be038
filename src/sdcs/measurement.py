"""Random measurement ensembles and sparse test signals.

All entries are mean zero and unit variance across ensembles so that
results are comparable when the number of measurements grows; matrices
are deliberately left unnormalized (no 1/sqrt(m) factor).

The layer keeps no state and no cache: every draw is a function of its
arguments and the stream alone.  ``sample_matrix`` returns the whole
m x n draw, and ``prefetch_matrix`` can start a gaussian one on the
stream's helper thread ahead of it (for the sweep's successor hand-off, see
``sdcs.experiments.trial_instances``).  ``column_windows`` yields the same
draw a few columns at a time, bit for bit, so it never holds the m x n
draw (see the column windows of ``sdcs.rng``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream

ENSEMBLE_KINDS = ("gaussian", "rademacher", "column-model")
# Off-diagonal of the column-model covariance; below 1/2, so it is positive
# definite for every m.
_COLUMN_CORR = 0.3
# Entries per window of column_windows: 256 KiB of doubles, so a normal window
# with its raw-draw positions (256 KiB) and Box-Muller block buffers (two
# arrays of 128 KiB) takes 768 KiB.
_WINDOW = 1 << 15


@dataclass(frozen=True)
class Ensemble:
    """Measurement ensemble descriptor.

    gaussian      independent standard normal entries
    rademacher    independent +/-1 entries
    column-model  independent columns with unit-variance but correlated
                  entries: column = S^(1/2) g with g i.i.d. Rademacher,
                  S the unit-diagonal tridiagonal covariance with
                  off-diagonal 0.3 and S^(1/2) its symmetric root
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}; expected one of {ENSEMBLE_KINDS}")


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

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.support] = self.values
        return x


def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I down the columns of x; it is its own inverse.

    Entry (j, k) of the transform is sqrt(2/(m+1)) sin(jk pi/(m+1)),
    j, k = 1..m.  The FFT of the odd extension [0, x, 0, -reversed x] of
    length 2m + 2 has imaginary part -2 (DST-I x) at indices 1..m.
    """
    m = x.shape[0]
    ext = np.zeros((2 * m + 2,) + x.shape[1:])
    ext[1:m + 1] = x
    ext[m + 2:] = -x[::-1]
    return np.fft.rfft(ext, axis=0)[1:m + 1].imag * (-1.0 / math.sqrt(2.0 * (m + 1)))


def _base_draw(ensemble: Ensemble, size: int, rng: RngStream) -> np.ndarray:
    """The next size entrywise-independent draws of the ensemble: normals
    for gaussian, Rademacher signs for rademacher and column-model."""
    if ensemble.kind == "gaussian":
        return rng.normals(size)
    return rng.rademacher(size)


def _column_root(x: np.ndarray) -> np.ndarray:
    """S^(1/2) @ x, S the column-model covariance.

    S = I + c T is tridiagonal Toeplitz, so its eigenvectors are the DST-I
    vectors, with eigenvalues 1 + 2c cos(j pi/(m+1)) >= 1 - 2c > 0 (Strang,
    SIAM Review 1999), and S^(1/2) x = V (sqrt(lam) * V x).
    """
    m = x.shape[0]
    lam = 1.0 + 2.0 * _COLUMN_CORR * np.cos(np.arange(1, m + 1) * (math.pi / (m + 1)))
    return _dst1(np.sqrt(lam)[:, None] * _dst1(x))


def sample_matrix(ensemble: Ensemble, m: int, n: int, rng: RngStream) -> np.ndarray:
    """Draw an m x n measurement matrix from the given ensemble."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    draw = _base_draw(ensemble, m * n, rng).reshape(m, n)
    if ensemble.kind == "column-model":
        # correlate entries within each column, columns independent
        return _column_root(draw)
    return draw


def prefetch_matrix(ensemble: Ensemble, m: int, n: int, rng: RngStream) -> None:
    """Prefetch the normals of a later sample_matrix(ensemble, m, n, rng)
    (RngStream.prefetch_normals); rademacher and column-model draws have
    none, so only gaussian draws are prefetched."""
    if ensemble.kind == "gaussian":
        rng.prefetch_normals(m * n)


def column_windows(ensemble: Ensemble, m: int, n: int, rng: RngStream):
    """Yield (c0, sample_matrix(ensemble, m, n, rng)[:, c0:c1]) over windows
    of consecutive columns, about _WINDOW entries each, bit for bit, each
    formed from its own draws.  Once the last window is taken, the stream is
    where sample_matrix leaves it."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    for c0, window in rng._windows(m, n, max(1, _WINDOW // m), ensemble.kind == "gaussian"):
        yield c0, _column_root(window) if ensemble.kind == "column-model" else window


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
    if not (0.0 < floor <= magnitude_cap and math.isfinite(magnitude_cap)):
        raise ValueError("need finite 0 < floor <= magnitude_cap")
    support = rng.choose_indices(n, s)
    mags = floor + (magnitude_cap - floor) * rng.uniforms(s)
    signs = rng.rademacher(s)
    return SparseSignal(n=n, support=support, values=mags * signs, amplitude_floor=floor)
