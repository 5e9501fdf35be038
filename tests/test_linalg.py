import math

import numpy as np
import pytest

from sdcs.linalg import (
    as_matrix,
    least_squares,
    read_matrix_text,
    write_matrix_text,
)
from sdcs.rng import RngStream

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
LOWER_ONES_2 = np.array([[1.0, 0.0], [1.0, 1.0]])


def random_matrix(rng, m, n, scale=1.0):
    return scale * rng.normals(m * n).reshape(m, n)


def singular_values(a):
    return np.linalg.svd(a, compute_uv=False)


def pinv(a):
    """The pseudoinverse, one least_squares solve per identity column."""
    return np.column_stack([least_squares(a, e) for e in np.eye(np.shape(a)[0])])


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        least_squares([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0])


# The SVD tests below pin the np.linalg.svd contract that difference_power,
# sobolev_reconstruct and least_squares call directly: s non-increasing and
# non-negative (s[0] is the norm, s[-1] the smallest singular value),
# orthonormal factors, exact reconstruction.


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


def test_pseudoinverse_identity_and_diagonal():
    assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12)


def test_pseudoinverse_left_inverse_full_column_rank():
    a = random_matrix(RngStream(5), 5, 3)
    assert np.max(np.abs(pinv(a) @ a - np.eye(3))) <= 1e-8


def test_pseudoinverse_penrose_identities():
    a = random_matrix(RngStream(6), 7, 4)
    p = pinv(a)
    assert np.max(np.abs(a @ p @ a - a)) <= 1e-8
    assert np.max(np.abs(p @ a @ p - p)) <= 1e-8
    assert np.max(np.abs((a @ p).T - a @ p)) <= 1e-8
    assert np.max(np.abs((p @ a).T - p @ a)) <= 1e-8


def test_pseudoinverse_involution():
    rng = RngStream(8)
    for n in (4, 16, 64):
        a = random_matrix(rng, n, n)
        assert np.max(np.abs(pinv(pinv(a)) - a)) <= 1e-7 * max(
            1.0, np.max(np.abs(a))
        )


def test_least_squares_identity_and_mean():
    b = np.array([0.3, -1.2, 4.0])
    assert np.allclose(least_squares(np.eye(3), b), b, atol=1e-12)
    assert np.allclose(least_squares([[1.0], [1.0]], [0.0, 2.0]), [1.0], atol=1e-12)


def test_least_squares_normal_equations():
    rng = RngStream(12)
    a = random_matrix(rng, 6, 3)
    b = rng.normals(6)
    x = least_squares(a, b)
    # residual orthogonal to the column space
    assert np.max(np.abs(a.T @ (a @ x - b))) <= 1e-8


def test_least_squares_dimension_check():
    with pytest.raises(ValueError, match="mismatch"):
        least_squares(np.eye(3), [1.0, 2.0])


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
