import gc
import math
import tracemalloc

import numpy as np
import pytest

from oracles import U, correlation_root, gamma
from sdcs.difference import projected_basis
from sdcs.measurement import (
    _DRAW_BLOCK,
    ENSEMBLE_KINDS,
    Ensemble,
    projected_draw,
    sample_matrix,
    sample_sparse_signal,
)
from sdcs.rng import RngStream


def test_ensemble_validation():
    for kind in ("gaussian", "rademacher", "column-model"):
        Ensemble(kind)
    with pytest.raises(ValueError, match="unknown ensemble"):
        Ensemble("bernoulli")


def test_rademacher_entries():
    a = sample_matrix(Ensemble("rademacher"), 20, 30, RngStream(4))
    assert set(np.unique(a)) == {-1.0, 1.0}


def test_gaussian_moments_at_1e5():
    a = sample_matrix(Ensemble("gaussian"), 250, 400, RngStream(6))
    assert -0.02 < a.mean() < 0.02
    assert 0.97 < a.var() < 1.03


def test_determinism_bitwise():
    for kind in ("gaussian", "rademacher", "column-model"):
        a = sample_matrix(Ensemble(kind), 15, 11, RngStream(99))
        b = sample_matrix(Ensemble(kind), 15, 11, RngStream(99))
        assert np.array_equal(a, b)


def test_column_model_moments_and_correlation():
    ens = Ensemble("column-model")
    a = sample_matrix(ens, 40, 2500, RngStream(13))
    assert -0.02 < a.mean() < 0.02
    assert 0.97 < a.var() < 1.03
    adjacent = np.mean(a[:-1, :] * a[1:, :])
    assert 0.27 < adjacent < 0.33
    two_apart = np.mean(a[:-2, :] * a[2:, :])
    assert abs(two_apart) < 0.03


def fft_error(n: int) -> float:
    """Normwise relative error bound of numpy's FFT of length n.

    pocketfft runs either passes of the prime factors p of n or, for a large
    prime factor, Bluestein's algorithm; the bound is the larger of the two.
    A pass of radix p forms each output as p products with twiddles that
    are correct to u, so its error is gamma(p + 4) times the l1 norm of the
    inputs, sqrt(p) gamma(p + 4) relative in the 2-norm (Higham, Accuracy
    and Stability of Numerical Algorithms, Lemma 3.5 and Section 24.1).
    Bluestein takes three transforms of a length below 4n whose factors
    are at most 11, where the pass bound is below 15 u per bit of length,
    and three chirp products.
    """
    direct, k, p = 0.0, n, 2
    while k > 1:
        while k % p == 0:
            direct += math.sqrt(p) * gamma(p + 4)
            k //= p
        p += 1
    return max(direct, 45 * U * math.log2(4 * n) + gamma(10))


def test_column_model_is_the_symmetric_root_of_its_covariance():
    """A column-model draw is correlation_root(m, 0.3) @ g, g the same
    Rademacher draws, to within the rounding of the transform path.

    The draw is z = V (d * V g), V the orthonormal DST-I and d = sqrt(lam),
    max d = sqrt(1 + 2c).  Each V is one FFT of length N = 2m + 2 of the odd
    extension (norm sqrt(2) ||x||), scaled by 1/sqrt(N) with two more
    roundings, so it errs by at most psi ||x||, psi = sqrt(2) fft_error(N) +
    gamma(3).  Forming d: theta_j = j (pi/(m+1)) errs by gamma(3) pi, cos by
    2u, then 1 + 0.6 cos by 2u more, so lam errs by at most 10u; as
    lam >= 0.4, sqrt(lam) errs relatively by 10u/0.8 + u, and the product
    with V g by one more u: psi_d = 15u.  The three stages compose to
    ||z_hat - z|| <= max d ((1 + psi)^2 (1 + psi_d) - 1) ||g||, which is
    of order u log m for lengths with small factors.  The reference adds
    its own rounding (eigh's backward error, through the root's condition
    1/(2 sqrt(lam_min)), and two dense products); LAPACK states no
    constant for it, and it stays inside this bound at these sizes.
    """
    ens = Ensemble("column-model")
    for m in [*range(1, 301), 1000, 2000]:
        n = 4 if m <= 300 else 2
        g = RngStream(m).rademacher(m * n).reshape(m, n)
        ref = correlation_root(m, 0.3) @ g
        got = sample_matrix(ens, m, n, RngStream(m))
        psi = math.sqrt(2.0) * fft_error(2 * m + 2) + gamma(3)
        tol = math.sqrt(1.6) * ((1 + psi) ** 2 * (1 + 15 * U) - 1)
        err = np.linalg.norm(got - ref, axis=0)
        assert np.all(err <= tol * np.linalg.norm(g, axis=0)), (m, err, tol)


def test_column_model_draw_holds_no_square_array_and_keeps_nothing():
    # one m x m double array at m = 10^4 is 800 MB; the draw needs O(m n)
    tracemalloc.start()
    try:
        sample_matrix(Ensemble("column-model"), 10_000, 8, RngStream(3))
        _, peak = tracemalloc.get_traced_memory()
        # draws at several m in a row leave nothing allocated behind
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        for m in (300, 400, 500):
            sample_matrix(Ensemble("column-model"), m, 3, RngStream(m))
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert after - before < 64 * 2**10


# (m, n): one block; two blocks, the second short (150 rows, then 50);
# one row per block, as a row is longer than a block.
@pytest.mark.parametrize("m, n", [(1, 5), (200, _DRAW_BLOCK // 150), (3, _DRAW_BLOCK + 7)])
@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_projected_draw_is_the_product_with_the_whole_draw(kind, m, n):
    """projected_draw equals w @ sample_matrix on the same draws, to within
    the rounding of the two paths, and consumes the same draws.

    gaussian, rademacher: both paths form each entry as an inner product of
    w_i and the same column x_j, m products summed in some order (BLAS's,
    or block partials then the blocks), so each is within
    gamma_m (|w_i|.|x_j|) of the exact value (Higham, Accuracy and
    Stability of Numerical Algorithms, Section 3.1), and they differ by at
    most twice that.  gamma_2m in place of gamma_m covers the rounding of
    forming |W||X| here.

    column-model: the reference is fl(w_i . z_j), z_j = S^(1/2) g_j + e_j
    from the transform path, with ||e_j|| <= tau ||g_j|| and tau the bound
    of test_column_model_is_the_symmetric_root_of_its_covariance.  The
    blocked path is fl(w'_i . g_j), w'_i = S^(1/2) w_i + f_i by the same
    transform applied to w_i, ||f_i|| <= tau ||w_i||.  Each differs from
    w_i^T S^(1/2) g_j by its root error, at most tau ||w_i|| ||g_j|| by
    Cauchy-Schwarz, plus its product's rounding: gamma_m (|W||Z|)_ij, and
    gamma_m ||w'_i|| ||g_j|| <= gamma_m (sqrt(1.6) + tau) ||w_i|| ||g_j||,
    as ||S^(1/2)|| = sqrt(1 + 2c) = sqrt(1.6).
    """
    ens = Ensemble(kind)
    w = RngStream(m + 1).normals(5 * m).reshape(5, m)
    ref_rng, got_rng = RngStream(n), RngStream(n)
    x = sample_matrix(ens, m, n, ref_rng)
    got = projected_draw(ens, w, n, got_rng)
    assert got_rng.counter == ref_rng.counter
    ref = w @ x
    tol = 2 * gamma(2 * m) * (np.abs(w) @ np.abs(x))
    if kind == "column-model":
        g = RngStream(n).rademacher(m * n).reshape(m, n)
        psi = math.sqrt(2.0) * fft_error(2 * m + 2) + gamma(3)
        tau = math.sqrt(1.6) * ((1 + psi) ** 2 * (1 + 15 * U) - 1)
        norms = np.outer(np.linalg.norm(w, axis=1), np.linalg.norm(g, axis=0))
        tol = (gamma(2 * m) * (np.abs(w) @ np.abs(x))
               + (2 * tau + gamma(2 * m) * (math.sqrt(1.6) + tau)) * norms)
    assert np.all(np.abs(got - ref) <= tol)


def test_projected_draw_validation():
    with pytest.raises(ValueError):
        projected_draw(Ensemble("gaussian"), np.ones(3), 4, RngStream(0))
    with pytest.raises(ValueError):
        projected_draw(Ensemble("gaussian"), np.ones((2, 3)), 0, RngStream(0))


def test_sample_matrix_validates_dims():
    with pytest.raises(ValueError):
        sample_matrix(Ensemble("gaussian"), 0, 3, RngStream(0))


def test_sparse_signal_construction():
    rng = RngStream(21)
    sig = sample_sparse_signal(50, 6, 0.5, 5.0, rng)
    assert sig.support.size == 6
    assert np.all(np.diff(sig.support) > 0)
    assert np.min(np.abs(sig.values)) >= 0.5
    assert np.max(np.abs(sig.values)) <= 5.0
    dense = sig.to_dense()
    assert dense.shape == (50,)
    off = np.setdiff1d(np.arange(50), sig.support)
    assert np.all(dense[off] == 0.0)
    assert np.array_equal(dense[sig.support], sig.values)


def test_sparse_signal_full_support():
    sig = sample_sparse_signal(5, 5, 0.1, 1.0, RngStream(3))
    assert np.array_equal(sig.support, np.arange(5))


def test_sparse_signal_validation():
    with pytest.raises(ValueError):
        sample_sparse_signal(10, 0, 0.1, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        sample_sparse_signal(10, 2, 1.0, 0.5, RngStream(0))
    with pytest.raises(ValueError):
        sample_sparse_signal(10, 2, 0.0, 0.5, RngStream(0))


def test_sparse_signal_support_frequencies():
    rng = RngStream(31)
    counts = np.zeros(4)
    for _ in range(10_000):
        sig = sample_sparse_signal(4, 1, 0.2, 2.0, rng)
        counts[sig.support[0]] += 1
    assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)


def test_sparse_signal_sign_balance():
    rng = RngStream(37)
    vals = np.concatenate(
        [sample_sparse_signal(30, 10, 1.0, 2.0, rng).values for _ in range(50)]
    )
    frac_pos = np.mean(vals > 0)
    assert 0.4 < frac_pos < 0.6


def test_projected_gaussian_stays_gaussian():
    # rotation invariance: entries of (projection @ gaussian) pass the same
    # moment tolerances as raw gaussian entries at a matched sample count
    m, n, r, ell = 250, 400, 2, 250
    phi = sample_matrix(Ensemble("gaussian"), m, n, RngStream(8))
    w = projected_basis(m, r, ell)
    proj = w @ phi
    assert proj.size == 100_000
    assert -0.02 < proj.mean() < 0.02
    assert 0.97 < proj.var() < 1.03
