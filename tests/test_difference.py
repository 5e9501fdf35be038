import math
import tracemalloc

import numpy as np
import pytest

import sdcs.difference as difference
from oracles import difference_matrix
from sdcs.difference import (
    difference_power,
    inverse_difference_power,
    projected_basis,
    singular_profile,
)
from sdcs.rng import RngStream

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_difference_matrix_small():
    assert np.array_equal(difference_matrix(1), [[1.0]])
    want = [[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]
    assert np.array_equal(difference_matrix(3), want)
    with pytest.raises(ValueError):
        difference_matrix(0)


def test_inverse_power_closed_form_small():
    assert np.array_equal(inverse_difference_power(3, 1), np.tril(np.ones((3, 3))))
    want = [[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [3.0, 2.0, 1.0]]
    assert np.array_equal(inverse_difference_power(3, 2), want)


def test_inverse_power_binomial_entries():
    for m in (1, 2, 8, 10, 257):
        for r in (1, 2, 3, 4):
            want = np.array([[math.comb(i - j + r - 1, r - 1) if i >= j else 0
                              for j in range(m)] for i in range(m)], dtype=np.float64)
            inv = inverse_difference_power(m, r)
            assert inv.flags.c_contiguous
            assert inv.tobytes() == want.tobytes()


def test_inverse_power_entries_stay_exact_doubles():
    # largest entry C(m + r - 2, r - 1): 7.3e13 at (200, 9), 6.4e21 at (2000, 9)
    inv = inverse_difference_power(200, 9)
    assert inv[:, 0].tolist() == [float(math.comb(k + 8, 8)) for k in range(200)]
    with pytest.raises(ValueError, match=r"C\(2007, 8\) = 6.44e\+21, exceeds 2\^53"):
        inverse_difference_power(2000, 9)
    with pytest.raises(ValueError, match="2\\^53"):
        difference_power(2000, 9)


def test_inverse_power_builds_without_index_arrays():
    tracemalloc.start()
    try:
        inv = inverse_difference_power(1000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * inv.nbytes


def test_difference_power_holds_one_dense_power_at_a_time():
    # The kept power is released before the next is built, so building a
    # third (m, r) never has two others alive beside it.
    difference._power_slot.clear()
    tracemalloc.start()
    try:
        difference_power(500, 1)
        difference_power(500, 2)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        inv = difference_power(500, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 1.5 * inv.nbytes
    assert peak <= 1.5 * inv.nbytes
    assert difference_power(500, 3) is inv


@pytest.mark.parametrize("m", [1, 8, 33, 128])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_defining_identity(m, r):
    d_pow = np.linalg.matrix_power(difference_matrix(m), r)
    prod = d_pow @ inverse_difference_power(m, r)
    assert np.max(np.abs(prod - np.eye(m))) <= 1e-9


@pytest.mark.parametrize("m", [8, 32, 128])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_closed_form_matches_numeric_inverse(m, r):
    d_pow = np.linalg.matrix_power(difference_matrix(m), r)
    numeric = np.linalg.inv(d_pow)
    closed = inverse_difference_power(m, r)
    assert np.max(np.abs(closed - numeric)) <= 1e-8 * np.max(np.abs(closed))


def test_difference_power_caching_and_invariants():
    dp1 = difference_power(12, 2)
    dp2 = difference_power(12, 2)
    assert dp1 is dp2
    assert not dp1.flags.writeable
    dense = inverse_difference_power(12, 2)
    assert np.array_equal(dp1, dense)
    s = singular_profile(12, 2)
    assert np.all(s > 0)
    assert np.allclose(s, np.linalg.svd(dense, compute_uv=False), rtol=1e-13, atol=0)
    # the rows of the full projection basis are right singular vectors of the
    # dense oracle: dense @ vt.T has orthogonal columns of norms s, and vt is
    # orthogonal
    vt = projected_basis(12, 2, 12)
    av = dense @ vt.T
    assert np.max(np.abs(av.T @ av - np.diag(s ** 2))) <= 1e-9 * s[0] ** 2
    assert np.max(np.abs(vt @ vt.T - np.eye(12))) <= 1e-12


def test_singular_profile_small_exact():
    assert np.allclose(singular_profile(1, 1), [1.0])
    # 2x2 case reduces to the lower-triangular all-ones Gram eigenproblem
    assert np.allclose(singular_profile(2, 1), [GOLDEN, GOLDEN - 1.0], atol=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_singular_profile_power_law_envelope(r):
    # scaled profile sigma_j * (j/m)^r stays in a stable band as m grows
    ratios = {}
    for m in (64, 128):
        s = singular_profile(m, r)
        j = np.arange(1, m + 1)
        scaled = s * (j / m) ** r
        ratios[m] = scaled.max() / scaled.min()
    assert abs(ratios[128] / ratios[64] - 1.0) < 0.1


def test_profile_non_increasing():
    s = singular_profile(50, 2)
    assert np.all(np.diff(s) <= 0)


def test_projected_basis_orthonormal_rows():
    m, r = 20, 2
    full = projected_basis(m, r, m)
    assert np.max(np.abs(full @ full.T - np.eye(m))) <= 1e-10
    assert np.max(np.abs(full.T @ full - np.eye(m))) <= 1e-10
    part = projected_basis(m, r, 7)
    assert part.shape == (7, m)
    assert np.max(np.abs(part @ part.T - np.eye(7))) <= 1e-10
    single = projected_basis(m, r, 1)
    assert np.linalg.norm(single[0]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        projected_basis(m, r, 0)
    with pytest.raises(ValueError):
        projected_basis(m, r, m + 1)


@pytest.mark.parametrize("r", [1, 2])
def test_projection_inequality_chain(r):
    # sigma_min(Dinv^r @ Phi_T) >= sigma_ell(Dinv^r) * sigma_min(P_ell V^T Phi_T)
    m, s = 24, 3
    rng = RngStream(100 + r)
    phi_t = rng.normals(m * s).reshape(m, s)
    lhs = np.linalg.svd(inverse_difference_power(m, r) @ phi_t, compute_uv=False)[-1]
    sing = singular_profile(m, r)
    for ell in range(s, m + 1):
        proj = projected_basis(m, r, ell) @ phi_t
        smin_proj = np.linalg.svd(proj, compute_uv=False)[-1]
        rhs = sing[ell - 1] * smin_proj
        assert lhs >= rhs - 1e-10 * max(1.0, lhs)


def principal_sine(rows_a, rows_b):
    """Sine of the largest principal angle between two orthonormal row spans."""
    resid = rows_a.T - rows_b.T @ (rows_b @ rows_a.T)
    return np.linalg.norm(resid, 2)


@pytest.mark.parametrize(
    ("r", "m"), [(r, m) for r in (1, 2, 3) for m in (8, 64, 512)] + [(3, 1000)])
def test_projected_basis_spans_dense_top_right_singular_vectors(r, m):
    vt = np.linalg.svd(inverse_difference_power(m, r))[2]
    for ell in sorted({1, math.ceil(m * (5 / m) ** 0.7), m}):
        w = projected_basis(m, r, ell)
        assert w.shape == (ell, m)
        assert np.max(np.abs(w @ w.T - np.eye(ell))) <= 1e-12
        assert principal_sine(w, vt[:ell]) <= 1e-9


def test_projected_basis_repeatable_bytes():
    first = projected_basis(300, 1, 17)
    again = projected_basis(300, 1, 17)
    assert first is not again
    assert first.tobytes() == again.tobytes()
    difference._top_right_singular_rows.cache_clear()
    assert projected_basis(300, 1, 17).tobytes() == first.tobytes()


def test_caches_stay_bounded():
    for m in range(40, 50):
        difference_power(m, 1)
        projected_basis(m, 1, 3)
    assert list(difference._power_slot) == [(49, 1)]
    basis = difference._top_right_singular_rows.cache_info()
    assert basis.currsize == basis.maxsize
    assert basis.maxsize < 10


def test_projected_basis_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(difference, "_BASIS_MAX_ITERS", 2)
    difference._top_right_singular_rows.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="did not converge"):
            projected_basis(400, 2, 20)
    finally:
        difference._top_right_singular_rows.cache_clear()


def test_order_one_basis_converges_at_the_second_step(monkeypatch):
    # The start block is the closed-form top-b right singular subspace of
    # D^{-1}, so the first Ritz basis is exact and the stop passes at the
    # second: one SVD per step.
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    difference._top_right_singular_rows.cache_clear()
    try:
        projected_basis(2000, 1, 31)
    finally:
        difference._top_right_singular_rows.cache_clear()
    assert calls == [(2000, 70), (2000, 70)]
