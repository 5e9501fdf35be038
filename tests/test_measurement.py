import numpy as np
import pytest

from sdcs.difference import projected_basis
from sdcs.measurement import Ensemble, _correlation_root, sample_matrix, sample_sparse_signal
from sdcs.rng import RngStream


def test_ensemble_validation():
    for kind in ("gaussian", "rademacher", "column-model"):
        Ensemble(kind)
    with pytest.raises(ValueError, match="unknown ensemble"):
        Ensemble("bernoulli")
    with pytest.raises(ValueError, match="column_corr"):
        Ensemble("column-model", column_corr=0.6)


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


def test_correlation_root_cache_stays_bounded():
    ens = Ensemble("column-model")
    first = sample_matrix(ens, 6, 3, RngStream(1))
    for m in (6, 7, 8, 9, 10):
        sample_matrix(ens, m, 3, RngStream(m))
    assert _correlation_root.cache_info().currsize <= 2
    # m = 6 was evicted; its recomputed root draws the same bits
    assert sample_matrix(ens, 6, 3, RngStream(1)).tobytes() == first.tobytes()


def test_sample_matrix_validates_dims():
    with pytest.raises(ValueError):
        sample_matrix(Ensemble("gaussian"), 0, 3, RngStream(0))


def test_sparse_signal_construction():
    rng = RngStream(21)
    sig = sample_sparse_signal(50, 6, 0.5, 5.0, rng)
    assert sig.s == 6
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
