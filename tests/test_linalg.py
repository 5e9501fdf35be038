import math

import numpy as np
import pytest

from sdcs.linalg import as_matrix, as_vector, read_matrix_text, write_matrix_text
from sdcs.rng import RngStream

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
LOWER_ONES_2 = np.array([[1.0, 0.0], [1.0, 1.0]])


def random_matrix(rng, m, n, scale=1.0):
    return scale * rng.normals(m * n).reshape(m, n)


def singular_values(a):
    return np.linalg.svd(a, compute_uv=False)


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.inf])


# The SVD tests below pin the np.linalg.svd contract that bpdn_solve,
# sobolev_reconstruct (least squares on the support at order 0) and the
# projection basis call directly: s non-increasing and non-negative (s[0]
# is the norm, s[-1] the smallest singular value), orthonormal factors,
# exact reconstruction.


def test_svd_identity_and_permutation():
    assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])
    assert np.allclose(singular_values([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0])


def test_svd_lower_triangular_ones():
    # eigenvalues of [[2,1],[1,1]] give singular values (golden, golden - 1)
    assert np.allclose(singular_values(LOWER_ONES_2), [GOLDEN, GOLDEN - 1.0], atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 1), (2, 5), (5, 2), (8, 8), (20, 13)])
def test_svd_invariants(shape):
    rng = RngStream(hash(shape) & 0xFFFF)
    a = random_matrix(rng, *shape, scale=3.0)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    k = min(shape)
    assert s.shape == (k,)
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)
    assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-10
    assert np.max(np.abs(vh @ vh.T - np.eye(k))) <= 1e-10
    recon = u @ np.diag(s) @ vh
    assert np.max(np.abs(a - recon)) <= 1e-9 * (1.0 + np.max(np.abs(a)))


def test_singular_values_match_gram_eigenproblem():
    # the RIP scans take squared singular values of support submatrices
    # from their Gram eigenvalues; both Gram matrices carry them
    rng = RngStream(44)
    a = random_matrix(rng, 6, 4)
    w = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
    assert np.allclose(singular_values(a) ** 2, w, atol=1e-10)
    assert np.linalg.eigvalsh(a @ a.T)[-1] == pytest.approx(w[0], rel=1e-13)


def test_sigma_min_submultiplicative():
    rng = RngStream(9)
    for _ in range(10):
        a = random_matrix(rng, 5, 5)
        b = random_matrix(rng, 5, 5)
        lhs = singular_values(a @ b)[-1]
        rhs = singular_values(a)[-1] * singular_values(b)[-1]
        assert lhs >= rhs - 1e-12 * max(1.0, lhs)


def test_matrix_fixture_roundtrip():
    a = np.array([[1.5, -2.25], [0.1, 3.0], [-4.75, 0.0]])
    text = write_matrix_text(a)
    assert text.splitlines()[0] == "3 2"
    assert np.array_equal(read_matrix_text(text), a)


def test_matrix_fixture_parse_errors():
    with pytest.raises(ValueError):
        read_matrix_text("")
    with pytest.raises(ValueError, match="rows cols"):
        read_matrix_text("3\n1 2 3\n")
    with pytest.raises(ValueError, match="data lines"):
        read_matrix_text("2 2\n1 2\n")
    with pytest.raises(ValueError, match="entries"):
        read_matrix_text("1 3\n1 2\n")
