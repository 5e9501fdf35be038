import math
import mmap
import os
import subprocess
import sys
import tracemalloc
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdcs.difference as difference
from oracles import difference_matrix, inverse_difference_power, singular_profile
from sdcs.difference import check_exact_power, difference_power, projected_basis
from sdcs.recovery import projection_dim
from sdcs.rng import RngStream

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
EPS = float(np.finfo(np.float64).eps)
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


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
            for inv in (inverse_difference_power(m, r), difference_power(m, r)):
                assert inv.tobytes() == want.tobytes()
    # The layout the products rely on (see the sdcs.difference module
    # docstring): unit column stride, so BLAS takes the row stride as its
    # leading dimension; a row stride of m doubles below one page and of m
    # rounded up to a whole number of pages from there; a page-aligned base.
    per_page = mmap.PAGESIZE // 8
    for m in (1, 10, 257, 511, 512, 513, 1023, 1025, 2000):
        inv = difference_power(m, 2)
        stride = m if m < per_page else -(-m // per_page) * per_page
        assert inv.shape == (m, m)
        assert inv.strides == (8 * stride, 8)
        assert inv.__array_interface__["data"][0] % mmap.PAGESIZE == 0
        assert np.array_equal(inv, inverse_difference_power(m, 2))


def largest_exact_m(r):
    """Largest m that check_exact_power accepts at order r, capped at 400."""
    m = 400
    while math.comb(m + r - 2, r - 1) > 2**53:
        m -= 1
    return m


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 15).flatmap(
    lambda r: st.tuples(st.integers(1, largest_exact_m(r)), st.just(r))))
@example((368, 9))
@example((76, 15))
def test_difference_power_is_the_binomial_oracle(mr):
    # the running-sum fill is exact inside the 2^53 envelope, at its edges too
    m, r = mr
    check_exact_power(m, r)
    assert np.array_equal(difference_power(m, r), inverse_difference_power(m, r))


def test_inverse_power_entries_stay_exact_doubles():
    # largest entry C(m + r - 2, r - 1): 7.3e13 at (200, 9), 6.4e21 at (2000, 9)
    inv = difference_power(200, 9)
    assert inv[:, 0].tolist() == [float(math.comb(k + 8, 8)) for k in range(200)]
    with pytest.raises(ValueError, match=r"C\(2007, 8\) = 6.44e\+21, exceeds 2\^53"):
        difference_power(2000, 9)
    # the envelope's edges at r = 9 and r = 15
    for m, r in ((369, 9), (77, 15)):
        with pytest.raises(ValueError, match="2\\^53"):
            difference_power(m, r)
        with pytest.raises(ValueError, match="2\\^53"):
            inverse_difference_power(m, r)


def test_inverse_power_builds_without_index_arrays():
    # The power's own pages are a memory mapping, which tracemalloc does not
    # see; what it sees is the build's temporaries: the unit vector and at
    # most two running sums at once (3 m-vectors), plus a few small objects.
    # Any m x m temporary (8 MB here) would break the bound.
    m = 1000
    difference._kept.clear()
    tracemalloc.start()
    try:
        difference_power(m, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * m


def test_difference_power_holds_one_dense_power_at_a_time(monkeypatch):
    # The kept power is released before the next is built, so building a
    # second and a third (m, r) finds no earlier power alive.  tracemalloc
    # cannot see the powers' mappings, so each is watched by a weak reference.
    dense = difference._dense_power
    built = []

    def watched(m, r):
        assert [ref for ref in built if ref() is not None] == []
        power = dense(m, r)
        built.append(weakref.ref(power))
        return power

    monkeypatch.setattr(difference, "_dense_power", watched)
    difference._kept.clear()
    difference_power(500, 1)
    difference_power(500, 2)
    inv = difference_power(500, 3)
    assert len(built) == 3
    assert difference_power(500, 3) is inv


RESIDENT_GROWTH = """
import numpy as np
from sdcs.difference import difference_power

def resident():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status
                    if line.startswith("VmRSS:"))

m = 2000
a, v = np.ones((m, 5)), np.ones(m)
# the first products start BLAS's threads and buffers, before the baseline
plain = np.ones((m, m))
plain @ a, plain @ v
del plain
before = resident()
inv = difference_power(m, 3)
inv @ a, inv @ v
print((resident() - before) / (8 * m * m))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or mmap.PAGESIZE != 4096,
                    reason="reads VmRSS from /proc; the bound is for 4 KiB pages")
def test_dense_power_upper_triangle_stays_off_resident_memory():
    # Only the lower triangle of the power is written, and the pages wholly
    # above the diagonal stay unbacked even once BLAS has read them (see the
    # sdcs.difference module docstring).  Row i starts on a page boundary
    # and its written run, entries 0..i, backs ceil(8 (i + 1) / 4096) pages:
    # 4928 pages over the 2000 rows, 0.631 of 8 m^2 bytes.  The slack of 64
    # pages (0.008) covers the rest the process touches after the baseline:
    # the two products' results (8 m (5 + 1) bytes, 24 pages) and the
    # build's m-vectors (16 KB, 4 pages each).  Rows at a stride of m
    # doubles start anywhere in a page and back about one more page each
    # (0.724 measured); a plain array is backed whole, about 1.0.
    m, page = 2000, 4096
    written = sum(-(-8 * (i + 1) // page) for i in range(m))
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", RESIDENT_GROWTH],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) <= (written + 64) * page / (8 * m * m)


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
    # a repeat call hands back the kept rows themselves, read-only
    first = projected_basis(300, 1, 17)
    assert projected_basis(300, 1, 17) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    difference._kept.clear()
    assert projected_basis(300, 1, 17).tobytes() == first.tobytes()


def test_caches_stay_bounded():
    # the one kept dict holds only what was built for the last (m, r)
    for m in range(40, 50):
        difference_power(m, 2)
        projected_basis(m, 2, 3)
        projected_basis(m, 2, 30)  # ell near m: Lanczos runs to k = m or close to it
        projected_basis(m, 1, 3)
    assert list(difference._kept) == [(49, 1, 3)]
    projected_basis(49, 1, 5)
    difference_power(49, 1)
    assert list(difference._kept) == [(49, 1, 3), (49, 1, 5), (49, 1, None)]
    projected_basis(49, 2, 3)
    assert list(difference._kept) == [(49, 2, 3)]


def count_builds(monkeypatch):
    """Patch the two cold builders of sdcs.difference to record their keys."""
    built = []
    dense, rows = difference._dense_power, difference._top_right_rows

    def counted_dense(m, r):
        built.append((m, r, None))
        return dense(m, r)

    def counted_rows(m, r, ell):
        built.append((m, r, ell))
        return rows(m, r, ell)

    monkeypatch.setattr(difference, "_dense_power", counted_dense)
    monkeypatch.setattr(difference, "_top_right_rows", counted_rows)
    difference._kept.clear()
    return built


# The order in which one benchmark process asks for the kept arrays, as
# (m, r, ell, calls).  A sweep trial asks for difference_power(m, r) (the
# Sobolev stage) and then projected_basis(m, r, ell), ell =
# projection_dim(m, 5, 0.7), for `calls` trials of one (m, r) block; the
# orders alternate at each m.  The order-0 baseline block asks for neither.
# A RIP op asks only for projected_basis.
SWEEP_ACCEPT = tuple((m, r, ell, 20) for m, ell in ((100, 13), (200, 16), (400, 19), (800, 23))
                     for r in (1, 2))
SWEEP_LARGE_M = tuple((m, r, ell, 13) for m, ell in ((1000, 25), (2000, 31)) for r in (1, 3))
RIP_DIAG = ((800, 2, 23, 15), (200, 2, 16, 7))


@pytest.mark.parametrize(("order", "with_power"), [
    (SWEEP_ACCEPT, True), (SWEEP_LARGE_M, True), (RIP_DIAG, False)])
def test_each_workload_key_is_built_once(monkeypatch, order, with_power):
    built = count_builds(monkeypatch)
    want = []
    for m, r, ell, calls in order:
        if with_power:
            assert projection_dim(m, 5, 0.7) == ell
        for _ in range(calls):
            if with_power:
                difference_power(m, r)
            projected_basis(m, r, ell)
        want += [(m, r, None), (m, r, ell)] if with_power else [(m, r, ell)]
    assert built == want


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize(("m", "ell"), [
    (20, 1), (20, 5), (20, 6), (20, 8), (20, 19), (20, 20),
    (300, 145), (300, 146), (300, 299), (300, 300)])
def test_basis_never_builds_the_dense_power(monkeypatch, r, m, ell):
    # At r >= 2 every basis, small ell and ell up to m alike, comes from
    # running sums: the dense power is neither built nor kept, and the only
    # m x m matrix factored is the Lanczos bidiagonal B_m, once k reaches m.
    built = count_builds(monkeypatch)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append((np.shape(a), np.array_equal(a, np.triu(np.tril(a, 1)))))
        return svd(a, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("a basis build asked for the dense power")

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(difference, "_dense_power", refuse)
    w = projected_basis(m, r, ell)
    assert w.shape == (ell, m)
    assert built == [(m, r, ell)]
    assert list(difference._kept) == [(m, r, ell)]
    # each factored matrix is a k x k upper bidiagonal B_k, k <= m
    assert shapes and all(a == b <= m and bidiagonal for (a, b), bidiagonal in shapes)


def test_order_one_basis_is_the_closed_form(monkeypatch):
    # At r = 1 the rows are the closed-form right singular vectors
    # cos(theta_j (k + 1/2)): nothing is factored, at small ell or at ell up
    # to m, and they span the dense SVD's top rows.
    m = 300

    def refuse(*args, **kwargs):
        raise AssertionError("the order-one basis factors nothing")

    rows = {}
    with monkeypatch.context() as patch:
        for name in ("svd", "qr", "eigh"):
            patch.setattr(np.linalg, name, refuse)
        difference._kept.clear()
        for ell in (31, 146, m):
            rows[ell] = projected_basis(m, 1, ell)
    vt = np.linalg.svd(inverse_difference_power(m, 1))[2]
    for ell, w in rows.items():
        assert np.max(np.abs(w @ w.T - np.eye(ell))) <= 1e-12
        assert principal_sine(vt[:ell], w) <= 1e-12


def order_one_rows_in_one_expression(m, ell):
    """The closed-form order-1 rows as one expression, through full-size
    temporaries: the same ufuncs on the same values as _order_one_rows."""
    period = 8 * m + 4
    odd = np.outer(2 * np.arange(ell) + 1, 2 * np.arange(m) + 1) % period
    return np.cos(odd * (2.0 * math.pi / period)) * (2.0 / math.sqrt(2 * m + 1))


@pytest.mark.parametrize("m, ell", [(1, 1), (100, 7), (800, 23), (2000, 31), (64, 64)])
def test_order_one_rows_built_in_place_equal_the_one_expression(m, ell):
    assert np.array_equal(difference._order_one_rows(m, ell),
                          order_one_rows_in_one_expression(m, ell))


def test_order_one_rows_hold_at_most_two_tables():
    # The ell x m table is reduced as integers, converted once and filled
    # in place: the integer table and the float one are alive together, and
    # nothing else of that size.  The slack, one m-vector, covers the index
    # vectors of the outer product; a third table (8 ell m bytes) breaks it.
    m, ell = 2000, 31
    tracemalloc.start()
    try:
        difference._order_one_rows(m, ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * ell * m + 8 * m


@lru_cache(maxsize=2)
def dense_svd(m, r):
    """Singular values and right singular rows of the binomial oracle."""
    _, s, vt = np.linalg.svd(inverse_difference_power(m, r))
    return s, vt


def basis_error_bound(s, ell, m):
    """What the stop rule promises for the sine to the dense SVD's top rows.

    The Lanczos stop bounds the sine to the exact subspace by
    tol = max(1e-12, 16 eps s_1 / s_ell).  Rounding adds, to that basis and
    to the oracle's alike, the error of a backward-stable SVD: a backward
    error of at most m eps s_1 (a dimension-sized growth factor), which
    Wedin's theorem turns into m eps s_1 / gap, with gap = s_ell - s_{ell+1}
    (s_{m+1} = 0).
    """
    tol = max(1e-12, 16 * EPS * s[0] / s[ell - 1])
    gap = s[ell - 1] - (s[ell] if ell < m else 0.0)
    return tol + 2 * m * EPS * s[0] / gap


def ells_low_or_high(m):
    """ell in [1, m], drawn from below about m / 2 or from above it, where
    the Lanczos run ends at or near k = m."""
    high = st.integers(max(1, (m - 7) // 2), m)
    return high if m < 11 else st.one_of(st.integers(1, (m - 9) // 2), high)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 300).flatmap(
    lambda m: st.tuples(st.just(m), st.sampled_from((1, 2, 3)), ells_low_or_high(m))))
@example((300, 2, 145))  # ell about m / 2
@example((300, 3, 146))
@example((300, 2, 299))  # ell = m - 1 and ell = m: Lanczos runs to k = m
@example((300, 2, 300))
@example((300, 3, 299))
@example((300, 3, 300))
@example((300, 3, 1))
@example((12, 1, 1))
def test_projected_basis_matches_the_dense_svd_within_the_stop_bound(key):
    m, r, ell = key
    s, vt = dense_svd(m, r)
    w = projected_basis(m, r, ell)
    assert w.shape == (ell, m)
    assert np.max(np.abs(w @ w.T - np.eye(ell))) <= 1e-12
    assert principal_sine(vt[:ell], w) <= basis_error_bound(s, ell, m)


def test_lanczos_without_a_stop_runs_to_k_equals_m_and_is_exact(monkeypatch):
    # With a negative tolerance the stop cannot pass before k = m, where the
    # Lanczos vectors span the whole space: the rows grow past their first
    # 2 ell + 8 and still match the dense SVD.
    monkeypatch.setattr(difference, "_BASIS_TOL", -1.0)
    monkeypatch.setattr(difference, "_BASIS_FLOOR", -1.0)
    s, vt = dense_svd(60, 2)
    w = difference._lanczos_rows(60, 2, 5)
    assert w.shape == (5, 60)
    assert np.max(np.abs(w @ w.T - np.eye(5))) <= 1e-12
    assert principal_sine(vt[:5], w) <= basis_error_bound(s, 5, 60)


def test_cold_basis_memory_is_linear_in_m():
    # The Lanczos rows grow with the steps taken, about 2 ell here, never
    # to an m x m array (3.2 GB at m = 20000).
    m, r = 20000, 3
    ell = projection_dim(m, 5, 0.7)
    difference._kept.clear()
    tracemalloc.start()
    try:
        w = projected_basis(m, r, ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.shape == (ell, m)
    # two Lanczos sequences of at most twice their first min(m, 2 ell + 8) rows
    assert peak <= 4 * min(m, 2 * ell + 8) * m * 8


def test_basis_at_ell_near_m_holds_at_most_m_lanczos_rows():
    """Peak memory of a cold basis at (800, 2, 710), where Lanczos stops at
    k = 799 (checks at k = 711 and 799), and at (400, 3, 250).

    In units of m^2 doubles, at most: the two Lanczos row sequences, each
    capped at m rows (2); one B_k and its factors P and Q^T while it is
    factored, or the last factors and the ell x m rows returned (3; the
    previous check's factors are dropped first).  Beside
    them, the alpha and beta lists (2m Python floats, 32 bytes each with
    their list slots) and a few m-vectors: 128 m bytes.  That is 5 m^2
    doubles and 128 m bytes, 25.7 MB at m = 800.  Keeping the previous
    factors alive measured 33.7 and 7.2 MB; row sequences started at
    2 ell + 8 = 1428 rows 41.8 MB at (800, 2, 710).
    """
    for m, r, ell in ((800, 2, 710), (400, 3, 250)):
        difference._kept.clear()
        tracemalloc.start()
        try:
            w = projected_basis(m, r, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.shape == (ell, m)
        assert peak <= 5 * m * m * 8 + 128 * m
