import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sdcs.difference as difference
import sdcs.recovery as recovery
from oracles import (difference_matrix, err_star, gamma, inverse_difference_power,
                     sigma_min_sq_bracket, sobolev_exact)
from sdcs.difference import difference_power, projected_basis
from sdcs.experiments import SweepConfig, run_msq_baseline, trial_seed
from sdcs.measurement import Ensemble, sample_matrix, sample_sparse_signal
from sdcs.quantizer import QuantizerConfig, quantization_noise_bound, sigma_delta_quantize
from sdcs.recovery import (
    DegenerateDrawError,
    bpdn_solve,
    draw_instance,
    full_pipeline,
    msq_trial,
    projection_dim,
    sobolev_reconstruct,
    support_from,
)
from sdcs.rng import RngStream

GAUSS = Ensemble("gaussian")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def sobolev_dual(phi_t, r):
    """The noise-shaping dual as a matrix, one column per canonical q."""
    return np.column_stack([sobolev_reconstruct(phi_t, e, r)[0] for e in np.eye(phi_t.shape[0])])


class TestBpdn:
    def test_identity_equality_constrained(self):
        q = np.array([1.0, -2.0, 0.5])
        res = bpdn_solve(np.eye(3), q, 0.0)
        assert res.converged
        assert np.max(np.abs(res.x - q)) <= 1e-12

    def test_zero_when_ball_contains_q(self):
        res = bpdn_solve(np.eye(2), [0.3, 0.4], 0.5)
        assert res.converged
        assert np.array_equal(res.x, np.zeros(2))

    def test_hand_instance(self):
        res = bpdn_solve([[2.0, 1.0]], [2.0], 0.0)
        assert res.converged
        assert np.max(np.abs(res.x - np.array([1.0, 0.0]))) <= 1e-12

    def test_optimality_by_feasibility(self):
        # whenever the true signal is feasible the minimizer's l1 norm
        # cannot exceed it, and the constraint holds
        for seed in range(5):
            rng = RngStream(200 + seed)
            phi = rng.normals(50 * 24).reshape(50, 24)
            sig = sample_sparse_signal(24, 3, 0.5, 3.0, rng)
            x = sig.to_dense()
            noise = rng.normals(50)
            eps = 0.4
            e = noise / np.linalg.norm(noise) * (0.9 * eps)
            q = phi @ x + e
            res = bpdn_solve(phi, q, eps)
            assert res.converged
            assert res.violation <= 1e-12
            assert np.sum(np.abs(res.x)) <= np.sum(np.abs(x))
            # the path ends on the exact minimizer: the gap is rounding
            assert abs(res.gap) <= 1e-12 * np.sum(np.abs(res.x))

    def test_iteration_cap_flags_nonconvergence(self, monkeypatch):
        rng = RngStream(5)
        phi = rng.normals(20 * 30).reshape(20, 30)
        q = rng.normals(20)
        full = bpdn_solve(phi, q, 0.01)
        assert full.converged and full.iterations > 20
        monkeypatch.setattr(recovery, "_MAX_STEPS_PER_DIM", 1)  # cap min(m, n) = 20 steps
        res = bpdn_solve(phi, q, 0.01)
        assert not res.converged
        assert res.iterations == 20
        assert res.x.shape == (30,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            bpdn_solve(np.eye(3), [1.0, 2.0], 0.1)

    def test_zero_matrix_is_infeasible(self):
        q = np.array([3.0, 0.0, -4.0])
        res = bpdn_solve(np.zeros((3, 5)), q, 1.5)
        assert not res.converged
        assert res.iterations == 0
        assert res.gap == math.inf
        assert res.violation == 5.0 - 1.5
        assert np.array_equal(res.x, np.zeros(5))

    def test_path_end_outside_the_ball_is_infeasible(self):
        # q is at distance 1 from range(phi): the path ends at lam = 0 on the
        # least-squares point x = 1 with the residual still above epsilon
        for eps in (0.0, 0.5):
            res = bpdn_solve([[1.0], [0.0]], [1.0, 1.0], eps)
            assert not res.converged
            assert res.iterations == 1
            assert res.gap == math.inf
            assert res.violation == 1.0 - eps
            assert np.array_equal(res.x, [1.0])

    def test_rows_annihilating_a_fixed_start_vector(self):
        # a norm estimate started from v0 = 1 + 1e-3*arange(n) sees phi @ v0 = 0
        v0 = 1.0 + 1e-3 * np.arange(3)
        phi = np.array([[v0[1], -1.0, 0.0], [v0[2], 0.0, -1.0]])
        assert np.array_equal(phi @ v0, np.zeros(2))
        q = np.array([1.0, -2.0])
        res = bpdn_solve(phi, q, 0.0)
        assert res.converged
        # the l1 minimizer over an affine set is one of its 2-sparse points
        basic = []
        for keep in ([0, 1], [0, 2], [1, 2]):
            x = np.zeros(3)
            x[keep] = np.linalg.solve(phi[:, keep], q)
            basic.append(x)
        best = min(basic, key=lambda x: np.sum(np.abs(x)))
        assert np.max(np.abs(res.x - best)) <= 1e-12

    def test_no_rounding_joins_at_zero_epsilon(self):
        # q = 0.64 phi_0 lies in the span of column 0.  Where that column
        # leads the path, its first piece runs to lam = 0 and ends on
        # x = 0.64 e_0; rounding in the residual must not let the other
        # columns join just above lam = 0.
        led = 0
        for seed in range(200):
            phi = RngStream(seed).normals(12).reshape(4, 3)
            q = 0.64 * phi[:, 0]
            if int(np.argmax(np.abs(phi.T @ q))) != 0:
                continue
            led += 1
            res = bpdn_solve(phi, q, 0.0)
            assert res.converged
            assert res.iterations == 1
            assert np.flatnonzero(res.x).tolist() == [0]
        assert led == 162

    def test_zero_epsilon_path_ends_on_the_spanning_column(self):
        # The same family whatever column leads: where another column leads,
        # its coefficient reaches 0 exactly at lam = 0, so its drop coincides
        # with the stop and must be taken there, not left as dust.
        for seed in range(200):
            phi = RngStream(seed).normals(12).reshape(4, 3)
            res = bpdn_solve(phi, 0.64 * phi[:, 0], 0.0)
            assert res.converged
            assert np.flatnonzero(res.x).tolist() == [0], (seed, res.x)

    def test_config_validation(self):
        for eps in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                bpdn_solve(np.eye(2), [1.0, 1.0], eps)


def dense_bpdn(phi, q, eps, max_iters=20_000, tol=1e-9):
    """Reference BPDN: the Chambolle-Pock primal-dual loop on the full phi.

    Returns the last iterate and whether the relative primal change and
    the constraint violation both fell below tol within max_iters.  With
    eps = 0 the feasible set {x : phi x = q} is unchanged when phi and q
    are replaced by vt and (u^T q) / s from the SVD of phi; on those
    orthonormal rows the loop's rate no longer depends on the condition
    of phi.
    """
    if eps == 0.0:
        u, sv, vt = np.linalg.svd(phi, full_matrices=False)
        keep = sv > sv[0] * 1e-12
        phi, q = vt[keep], (u[:, keep].T @ q) / sv[keep]
    m, n = phi.shape
    opnorm = np.linalg.norm(phi, 2)
    tau = sigma = 0.995 / opnorm
    x, px, px_prev, xi = np.zeros(n), np.zeros(m), np.zeros(m), np.zeros(m)
    for _ in range(max_iters):
        v = xi + sigma * (2.0 * px - px_prev)
        p = v / sigma
        d = p - q
        nd = math.sqrt(d @ d)
        proj = q + d * (eps / nd) if nd > eps else p
        xi = v - sigma * proj
        w = x - tau * (phi.T @ xi)
        x_new = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
        px_prev = px
        px = phi @ x_new
        step = x_new - x
        x = x_new
        res = px - q
        if (math.sqrt(step @ step) < tol * max(1.0, math.sqrt(x @ x))
                and math.sqrt(res @ res) - eps <= tol):
            return x, True
    return x, False


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    kind=st.sampled_from(["noisy", "duplicate-column", "in-range", "zero", "inside-ball"]),
    eps=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# A column that leaves at a zero crossing still has its correlation at the
# level on its old side.  Letting it rejoin there at once stalls the path
# (no convergence within the cap); masking both sides ends the path on a
# non-minimal l1 norm (excess 0.64 on the second example).
@example(m=8, n=8, kind="in-range", eps=0.5, seed=2898271429)
@example(m=6, n=7, kind="in-range", eps=0.5, seed=301398159)
# eps = 0: a residual event solved as a quadratic in the step from r has a
# double root at lam = 0 and leaves violations near 1e-8.
@example(m=6, n=7, kind="in-range", eps=0.5, seed=4082210491)
# a duplicate of an active column must never join (singular Gram matrix)
@example(m=2, n=6, kind="duplicate-column", eps=0.141, seed=914102164)
def test_homotopy_matches_dense_loop(m, n, kind, eps, seed):
    rng = RngStream(seed)
    phi = rng.normals(m * n).reshape(m, n)
    if kind == "duplicate-column" and n > 1:
        phi[:, -1] = phi[:, 0]  # rank-deficient
    elif kind == "zero":
        phi[:] = 0.0
    x_true = rng.normals(n) * (rng.normals(n) > 0.3)
    x_true[0] += 1.0
    noise = rng.normals(m)
    noise /= np.linalg.norm(noise)
    if kind == "in-range":
        q, eps = phi @ x_true, 0.0
    elif kind == "inside-ball":
        q = 0.9 * eps * noise
    elif kind == "zero":
        q = (1.0 + eps) * noise
    else:
        q = phi @ x_true + 0.9 * eps * noise  # x_true is feasible
    got = bpdn_solve(phi, q, eps)
    q_norm = float(np.linalg.norm(q))
    if kind == "zero":
        assert not got.converged and got.gap == math.inf
        assert got.violation == q_norm - eps
        assert np.array_equal(got.x, np.zeros(n))
        return
    assert got.converged
    r = q - phi @ got.x
    assert np.linalg.norm(r) <= eps + 1e-12 * max(1.0, q_norm)
    on = got.x != 0.0
    if eps > 0.0 and on.any():
        # KKT certificate of the LASSO point at the level lam = ||phi^T r||_inf
        c = phi.T @ r
        lam = np.max(np.abs(c))
        assert np.all(c[on] * np.sign(got.x[on]) >= lam * (1.0 - 1e-9))
    want, ok = dense_bpdn(phi, q, eps)
    assert ok
    l1_want = float(np.sum(np.abs(want)))
    assert np.sum(np.abs(got.x)) <= l1_want + 1e-6 * max(1.0, l1_want)


def test_solver_calls_no_qr_or_eigvalsh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bpdn_solve factors only its active columns, by SVD")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rng = RngStream(32)
    for m, n in ((40, 8), (9, 9), (6, 9)):  # tall, square, wide
        phi = rng.normals(m * n).reshape(m, n)
        q = phi @ rng.normals(n) + 0.01 * rng.normals(m)
        assert bpdn_solve(phi, q, 0.1).converged


class TestSupportFrom:
    def test_hand_case(self):
        assert np.array_equal(support_from([0.1, -3.0, 2.0], 2), [1, 2])

    def test_exact_nonzeros(self):
        x = np.zeros(8)
        x[[2, 5, 6]] = [1.0, -2.0, 0.5]
        assert np.array_equal(support_from(x, 3), [2, 5, 6])

    def test_tie_toward_smaller_index(self):
        assert np.array_equal(support_from([1.0, 1.0, 0.0], 1), [0])
        assert np.array_equal(support_from([0.0, 2.0, 2.0, 2.0], 2), [1, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            support_from([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            support_from([1.0, 2.0], 3)


class TestSobolev:
    def test_left_inverse_identity(self):
        rng = RngStream(42)
        m, s = 30, 4
        phi_t = rng.normals(m * s).reshape(m, s)
        for r in (0, 2):
            dual = sobolev_dual(phi_t, r)
            assert dual.shape == (s, m)
            assert np.max(np.abs(dual @ phi_t - np.eye(s))) <= 1e-8
        # order 0 is the canonical dual; both pseudoinverses are backward
        # stable, so they differ by at most about kappa m u ||pinv||
        pinv = np.linalg.pinv(phi_t)
        sv = np.linalg.svd(phi_t, compute_uv=False)
        tol = 10.0 * m * np.finfo(float).eps * (sv[0] / sv[-1]) / sv[-1]
        assert np.max(np.abs(sobolev_dual(phi_t, 0) - pinv)) <= tol

    def test_exact_recovery_without_quantization(self):
        rng = RngStream(43)
        m, n, s, r = 40, 16, 3, 1
        phi = rng.normals(m * n).reshape(m, n)
        sig = sample_sparse_signal(n, s, 0.5, 2.0, rng)
        x = sig.to_dense()
        got, _ = sobolev_reconstruct(phi[:, sig.support], phi @ x, r)
        assert np.max(np.abs(got - sig.values)) <= 1e-8

    @pytest.mark.parametrize(("m", "r"), [(100, 1), (800, 2), (2000, 3), (368, 9)] + [
        (m, r) for m in (511, 512, 513, 1023, 1025, 2000) for r in (1, 2, 3) if (m, r) != (2000, 3)])
    def test_digits_equal_those_from_a_plain_power(self, monkeypatch, m, r):
        # The kept power is a view of a memory mapping whose upper triangle
        # is never written and whose rows start on page boundaries once a
        # row spans a page (512 doubles at 4 KiB), so the view is not
        # C-contiguous from m = 513 on.  BLAS packs its operands, so it must
        # return the same digits as from a plain C-contiguous array.  Its
        # digits do depend on the operands' order and shape, so D^{-r} Phi_T
        # and D^{-r} q are compared at each support size, formed as the
        # reconstruction forms them, on both sides of one and two pages.
        rng = RngStream(m + r)
        n = 40
        phi = rng.normals(m * n).reshape(m, n)
        q = rng.normals(m)
        inv, plain = difference_power(m, r), inverse_difference_power(m, r)
        assert plain.flags.c_contiguous
        for s in (1, 3, 5, 11):
            phi_t = phi[:, 3 * np.arange(s)]
            assert (inv @ phi_t).tobytes() == (plain @ phi_t).tobytes()
        assert (inv @ q).tobytes() == (plain @ q).tobytes()
        phi_t = phi[:, [3, 9, 17, 22, 38]]
        x_hat, smin = sobolev_reconstruct(phi_t, q, r)
        monkeypatch.setattr(recovery, "difference_power", lambda *_: plain)
        want_x, want_smin = sobolev_reconstruct(phi_t, q, r)
        assert np.array_equal(x_hat, want_x)
        assert smin == want_smin

    def test_products_copy_no_dense_power(self):
        # The kept power's rows are padded to whole pages at m = 2000, so it
        # reaches BLAS as a strided view; were numpy to copy it first, the
        # copy (8 m^2 bytes, 32 MB) would show in tracemalloc, which sees
        # numpy's data but not the power's own mapping.  What the
        # reconstruction allocates is D^{-r} Phi_T, the SVD's factors and
        # vectors of length m: O(m s) doubles, under 1 MB here.
        m, n, r = 2000, 40, 3
        rng = RngStream(m + r)
        phi_t = rng.normals(m * n).reshape(m, n)[:, [3, 9, 17, 22, 38]]
        q = rng.normals(m)
        difference_power(m, r)
        tracemalloc.start()
        try:
            sobolev_reconstruct(phi_t, q, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m // 32

    def test_scalar_case(self):
        got, smin = sobolev_reconstruct(np.array([[2.0]]), [3.0], 1)
        assert got == pytest.approx([1.5])
        assert smin == 2.0

    @pytest.mark.parametrize("r", [1, 2])
    def test_minimizes_shaped_operator_norm(self, r):
        rng = RngStream(50 + r)
        m, s = 40, 4
        phi_t = rng.normals(m * s).reshape(m, s)
        d_pow = np.linalg.matrix_power(difference_matrix(m), r)
        shaped_sob = np.linalg.norm(sobolev_dual(phi_t, r) @ d_pow, 2)
        shaped_canonical = np.linalg.norm(np.linalg.pinv(phi_t) @ d_pow, 2)
        assert shaped_sob <= shaped_canonical * (1.0 + 1e-9)

    def test_rank_deficiency_raises(self):
        col = RngStream(3).normals(20)
        phi = np.column_stack([col, col, RngStream(4).normals(20)])
        with pytest.raises(DegenerateDrawError):
            sobolev_reconstruct(phi[:, [0, 1]], np.ones(20), 1)

    def test_support_validation(self):
        phi_t = RngStream(5).normals(12).reshape(6, 2)
        with pytest.raises(ValueError, match="q length"):
            sobolev_reconstruct(phi_t, np.ones(5), 0)
        with pytest.raises(ValueError, match="support larger than the number of measurements"):
            sobolev_reconstruct(phi_t.T, np.ones(2), 1)
        with pytest.raises(ValueError, match="phi_t must be 2-D"):
            sobolev_reconstruct(phi_t[:, 0], np.ones(6), 1)
        # r = 0 is the canonical dual, so a negative order is the first
        # invalid one, not the power's r >= 1
        with pytest.raises(ValueError, match="r must be >= 0"):
            sobolev_reconstruct(phi_t, np.ones(6), -1)


class TestErrorBound:
    # the bound delta*sqrt(m) / (2 sigma_min) takes sigma_min from sobolev_reconstruct

    def test_scalar_value(self):
        m, delta = 1, 1.0
        _, smin = sobolev_reconstruct(np.array([[2.0]]), [1.0], 1)
        assert delta * math.sqrt(m) / (2.0 * smin) == pytest.approx(0.25)

    def test_homogeneity(self):
        phi_t = RngStream(9).normals(30 * 3).reshape(30, 3)
        q = np.ones(30)
        _, base = sobolev_reconstruct(phi_t, q, 2)
        _, scaled = sobolev_reconstruct(4.0 * phi_t, q, 2)
        assert scaled == pytest.approx(4.0 * base)
        want = np.linalg.svd(inverse_difference_power(30, 2) @ phi_t, compute_uv=False)[-1]
        assert base == pytest.approx(want, rel=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    r=st.sampled_from([0, 1, 2, 3]),
    s=st.integers(1, 4),
    m=st.integers(1, 64),
    delta=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sobolev_stage_exact_and_within_bound(r, s, m, delta, seed):
    # at r = 0, A = Phi_T and the bound is the least-squares bound
    # delta sqrt(m) / (2 sigma_min(Phi_T))
    m = max(m, s)
    rng = RngStream(seed)
    phi_t = rng.normals(m * s).reshape(m, s)
    x = rng.normals(s)
    y = phi_t @ x
    exact, smin = sobolev_reconstruct(phi_t, y, r)
    a = inverse_difference_power(m, r) @ phi_t if r else phi_t
    sv = np.linalg.svd(a, compute_uv=False)
    smax = sv[0]
    assert abs(smin - sv[-1]) <= 10.0 * m * np.finfo(float).eps * smax
    # backward-stable least squares: forward error of order m * u * cond
    tol = 10.0 * m * np.finfo(float).eps * (smax / smin) * np.linalg.norm(x)
    assert np.linalg.norm(exact - x) <= tol

    quant = sigma_delta_quantize(y, QuantizerConfig(r=r, delta=delta))
    x_hat, smin_q = sobolev_reconstruct(phi_t, quant.q, r)
    assert smin_q == smin
    bound = delta * math.sqrt(m) / (2.0 * smin_q)
    assert np.linalg.norm(x_hat - x) <= bound * (1.0 + 1e-9)


@pytest.mark.parametrize("m", [100, 400, 1000])
@pytest.mark.parametrize("r", [1, 2, 3])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(base=st.integers(0, 2**32 - 1), trial=st.integers(0, 19))
def test_err_l2_is_the_forward_error_within_its_rounding(r, m, base, trial):
    """On a correct support T, err_l2 equals err* = ||x_T - x*|| up to the
    reconstruction's rounding, where x* = A^+ D^{-r} q, A = D^{-r} Phi_T, is
    the dual reconstruction of the stored floats in exact arithmetic
    (oracles.sobolev_exact), which also gives its residual rho exactly.

    Let e = 2^-53 and gamma(k) = k e / (1 - k e).

    e2, the reconstruction's least-squares forward error (Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 20.1): if A and b = D^{-r} q
    are perturbed normwise by at most eta, with kappa eta < 1, the solution
    moves by at most kappa eta / (1 - kappa eta) (2 ||x*|| + (kappa + 1)
    ||rho|| / ||A||).  The reconstruction forms A and b by dense products
    with the exact integer D^{-r} >= 0, which err by at most
    gamma(m) D^{-r} |Phi_T| and gamma(m) D^{-r} |q| entrywise (Higham
    (3.13)), and then solves by an SVD, which is normwise backward stable;
    we take its backward error as beta = sqrt(s) gamma(m s), the columnwise
    Householder constant of Higham Thm 20.3 in the 2-norm.  ||A|| and kappa
    come from an SVD of A formed by r running sums, widened by Weyl's
    theorem by the error of those sums, gamma(r m) D^{-r} |Phi_T|, and by
    the SVD's backward error.  The running sums and norms the test takes to
    bound these err relatively by at most gamma((r + s) m), and are widened
    by it.

    e3 = 2 gamma(s + 3) err_l2, the s subtractions and the 2-norm, plus
    gamma(2) err* for the oracle's final rounding (oracles.err_star).

    In the form c e kappa ||x||, c is about 10^3 (m = 100) to 10^5
    (m = 1000): gamma(m), the worst case of an m-term sum, and the gap
    between D^{-r} |Phi_T| and A set it.
    """
    n, s, delta, alpha = 256, 5, 0.01, 0.7
    seed = trial_seed(base, m, trial)
    rep = full_pipeline(GAUSS, n, s, m, r, delta, alpha, RngStream(seed))
    assume(rep.support_correct)
    sig, phi = draw_instance(GAUSS, n, s, m, r, delta, RngStream(seed))
    phi_t = phi[:, sig.support]
    q = sigma_delta_quantize(phi @ sig.to_dense(), QuantizerConfig(r=r, delta=delta)).q
    x_star, rho_sq = sobolev_exact(phi_t, q, r)
    exact = err_star(sig.values, x_star)
    norm = np.linalg.norm

    sv = np.linalg.svd(difference._apply_power(phi_t, r), compute_uv=False)
    slack = gamma((r + s) * m)  # r running sums, then a 2-norm of at most s m terms
    w_phi = norm(difference._apply_power(np.abs(phi_t), r)) / (1.0 - slack)  # >= ||D^{-r} |Phi_T| ||_F
    w_q = norm(difference._apply_power(np.abs(q), r)) / (1.0 - slack)
    b_lo = norm(difference._apply_power(q, r)) * (1.0 - slack) - gamma(r * m) * w_q  # <= ||D^{-r} q||
    beta = math.sqrt(s) * gamma(m * s)
    weyl = gamma(r * m) * w_phi + beta * sv[0]
    a_lo, smin = sv[0] - weyl, sv[-1] - weyl
    kappa = (sv[0] + weyl) / smin
    rel = max(gamma(m) * w_phi / a_lo, gamma(m) * w_q / b_lo)
    eta = rel + beta * (1.0 + rel)
    assert kappa * eta < 1.0
    x_norm = math.sqrt(float(sum(v * v for v in x_star))) * (1.0 + gamma(2))
    rho = math.sqrt(float(rho_sq)) * (1.0 + gamma(2))
    e2 = kappa * eta / (1.0 - kappa * eta) * (2.0 * x_norm + (1.0 / smin + 1.0 / a_lo) * rho)
    e3 = 2.0 * gamma(s + 3) * rep.err_l2 + gamma(2) * exact
    assert abs(rep.err_l2 - exact) <= e2 + e3


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_sigma_min_sq_bracket_holds_the_exact_eigenvalue(r):
    # A = D^{-r} D^r E = E with orthogonal columns of norms 2 and 3
    e = np.zeros((6, 2))
    e[1, 0], e[4, 1] = 2.0, 3.0
    lo, hi = sigma_min_sq_bracket(np.linalg.matrix_power(difference_matrix(6), r) @ e, r)
    assert lo < 4 <= hi and hi - lo <= hi * 2**-40
    # G = [[1, 1], [1, 2]]: lambda_min = (3 - sqrt 5) / 2 < 1 is the smaller
    # root of p(x) = x^2 - 3x + 1, so p(lo) > 0 >= p(hi) on [0, 1]
    lo, hi = sigma_min_sq_bracket(np.array([[1.0, 1.0], [0.0, 1.0]]), 0)
    assert 0 <= lo < hi <= 1 and lo * lo - 3 * lo + 1 > 0 >= hi * hi - 3 * hi + 1
    with pytest.raises(ValueError, match="dependent columns"):
        sigma_min_sq_bracket(np.ones((5, 2)), r)
    # a random A formed in floating point: sigma_min^2 agrees to rounding
    phi_t = RngStream(r).normals(40 * 3).reshape(40, 3)
    lo, hi = sigma_min_sq_bracket(phi_t, r)
    sv = np.linalg.svd(difference._apply_power(phi_t, r), compute_uv=False)
    assert abs(sv[-1] ** 2 / float(hi) - 1.0) <= 1e-9


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "column-model"])
@pytest.mark.parametrize("r", [1, 2, 3])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(m=st.integers(16, 128), seed=st.integers(0, 2**32 - 1))
def test_criterion_3_holds_in_exact_arithmetic(kind, r, m, seed):
    """On a correct support T, the exact dual reconstruction x* of the
    stored doubles (oracles.sobolev_exact) obeys criterion 3's bound with no
    rounding margin: err*^2 <= delta^2 m / (4 lambda_hi), where err* =
    ||x_T - x*|| and lambda_hi >= sigma_min(D^{-r} Phi_T)^2 is the upper end
    of the exact bracket (oracles.sigma_min_sq_bracket).  Taking the upper
    end makes the check no weaker than the bound: a bracket too wide could
    only fail it.  Every quantity is a Fraction."""
    n, s, delta, alpha = 32, 3, 0.01, 0.7
    ensemble = Ensemble(kind)
    rep = full_pipeline(ensemble, n, s, m, r, delta, alpha, RngStream(seed))
    assume(rep.support_correct)
    sig, phi = draw_instance(ensemble, n, s, m, r, delta, RngStream(seed))
    phi_t = phi[:, sig.support]
    q = sigma_delta_quantize(phi @ sig.to_dense(), QuantizerConfig(r=r, delta=delta)).q
    x_star, _ = sobolev_exact(phi_t, q, r)
    err_sq = sum((Fraction(float(v)) - x) ** 2 for v, x in zip(sig.values, x_star))
    _, lam_hi = sigma_min_sq_bracket(phi_t, r)
    assert err_sq <= Fraction(delta) ** 2 * m / (4 * lam_hi)


def test_projection_dim():
    assert projection_dim(200, 2, 0.7) == 8
    assert projection_dim(100, 5, 0.7) == 13
    assert projection_dim(64, 64, 0.5) == 64
    assert projection_dim(10, 1, 1.0) == 1
    with pytest.raises(ValueError):
        projection_dim(10, 11, 0.5)
    with pytest.raises(ValueError):
        projection_dim(10, 2, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10**6), st.integers(1, 10**6),
       st.floats(0.0, 1.0, exclude_min=True))
@example(49, 7, 1.0)
@example(10**6 - 1, 10**6 - 2, 1.0 - 2**-53)
def test_projection_dim_covers_the_support(a, b, alpha):
    # (s/m)^alpha >= s/m, so ell >= s and the projected support submatrix
    # full_pipeline takes the smallest singular value of has ell >= s rows
    s, m = min(a, b), max(a, b)
    assert s <= projection_dim(m, s, alpha) <= m


class TestFullPipeline:
    def test_tiny_step_recovers_almost_exactly(self, monkeypatch):
        # fixed instance, shrinking step: keep the amplitude floor at 0.05
        # while delta drops to 1e-8, so only the quantization noise vanishes
        rng = RngStream(101)
        signal = sample_sparse_signal(64, 3, 0.05, 0.5, rng.substream("signal"))
        phi = sample_matrix(GAUSS, 60, 64, rng.substream("matrix"))
        monkeypatch.setattr(recovery, "draw_instance", lambda *args: (signal, phi))
        trial = recovery._recover(GAUSS, 64, 3, 60, 2, 1e-8, rng,
                                  QuantizerConfig(r=2, delta=1e-8), None)
        assert trial.correct
        assert trial.err < 1e-5

    def test_deterministic_reports(self):
        a = full_pipeline(GAUSS, 64, 3, 60, 2, 0.02, 0.7, RngStream(55))
        b = full_pipeline(GAUSS, 64, 3, 60, 2, 0.02, 0.7, RngStream(55))
        assert np.array_equal(a.recovered_support, b.recovered_support)
        assert np.array_equal(a.x_hat, b.x_hat)
        assert a.err_l2 == b.err_l2
        assert a.err_bound == b.err_bound
        assert a.sigma_min_proj == b.sigma_min_proj
        assert a.bpdn_iterations == b.bpdn_iterations

    def test_bound_dominates_on_correct_support(self):
        for seed in range(8):
            rep = full_pipeline(GAUSS, 64, 3, 80, 2, 0.02, 0.7, RngStream(300 + seed))
            if rep.support_correct:
                assert rep.err_l2 <= rep.err_bound

    def test_report_fields_consistent(self):
        rep = full_pipeline(GAUSS, 64, 3, 60, 1, 0.02, 0.7, RngStream(66))
        assert rep.recovered_support.size == 3
        off = np.setdiff1d(np.arange(64), rep.recovered_support)
        assert np.all(rep.x_hat[off] == 0.0)
        assert rep.ell == projection_dim(60, 3, 0.7)
        assert rep.err_l2 >= 0.0

    def test_degenerate_draw_is_a_failed_report(self):
        # a rank-deficient dual at m = 6 (a sweep row of rademacher, n = 64,
        # s = 3, r = 1, delta = 0.01, alpha = 0.7, seed 23) is a failed
        # trial, not an exception, and still explains its BPDN stage
        rep = full_pipeline(Ensemble("rademacher"), 64, 3, 6, 1, 0.01, 0.7,
                            RngStream(8909886255910892158))
        assert rep.err_l2 == math.inf and rep.err_bound == math.inf
        assert not rep.support_correct
        assert math.isnan(rep.sigma_min_proj)
        assert np.all(np.isnan(rep.x_hat)) and rep.x_hat.size == 64
        assert rep.recovered_support.size == 3
        assert rep.ell == projection_dim(6, 3, 0.7)
        assert rep.bpdn_converged and rep.bpdn_iterations == 2
        assert rep.support_tie_flag

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["gaussian", "rademacher"]), m=st.sampled_from([6, 24, 200]),
           r=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1), k=st.integers(-40, 40))
    def test_tie_flag_does_not_depend_on_the_scale(self, kind, m, r, seed, k):
        # delta scaled by 2^k scales the signal, q and the BPDN point exactly
        # by 2^k, so a tie rule relative to the magnitudes flags alike
        delta = 2.0**-7
        base = full_pipeline(Ensemble(kind), 64, 3, m, r, delta, 0.7, RngStream(seed))
        scaled = full_pipeline(Ensemble(kind), 64, 3, m, r, delta * 2.0**k, 0.7,
                               RngStream(seed))
        assert np.array_equal(scaled.x_hat, base.x_hat * 2.0**k, equal_nan=True)
        assert scaled.support_tie_flag == base.support_tie_flag

    @pytest.mark.parametrize("delta", [1e-2, 1e-8, 1e-10, 1e-12])
    def test_no_tie_on_well_separated_supports(self, delta):
        # every support of these trials is correct, at every delta; the
        # absolute gap 1e-9 used to flag all ten at delta <= 1e-10
        reps = [full_pipeline(GAUSS, 64, 3, 200, 1, delta, 0.7, RngStream(seed))
                for seed in range(10)]
        assert all(rep.support_correct for rep in reps)
        assert not any(rep.support_tie_flag for rep in reps)

    def test_one_svd_of_the_shaped_support_matrix(self, monkeypatch):
        # per call, after BPDN: one SVD of Dinv_r @ phi_T (reconstruction and
        # bound) and one of the ell-row projection (diagnostic), nothing else
        m, s, r = 60, 3, 2
        # the cached operators' own set-up is not per trial
        difference_power(m, r)
        projected_basis(m, r, projection_dim(m, s, 0.7))
        shapes = []
        svd, solve = np.linalg.svd, recovery.bpdn_solve
        in_bpdn = []

        def counting_svd(a, *args, **kwargs):
            if not in_bpdn:  # BPDN factors its active columns on each path step
                shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def marked_bpdn(*args):
            in_bpdn.append(True)
            try:
                return solve(*args)
            finally:
                in_bpdn.pop()

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(recovery, "bpdn_solve", marked_bpdn)
        rep = full_pipeline(GAUSS, 64, s, m, r, 0.02, 0.7, RngStream(55))
        assert rep.ell != m
        assert sorted(shapes) == sorted([(m, s), (rep.ell, s)])

    def test_cold_call_takes_no_square_svd(self, monkeypatch):
        # the projection basis comes from Lanczos bidiagonalization, which
        # factors only its k x k bidiagonals; no SVD of a dense m x m matrix
        # runs even when nothing is cached.  At (m, ell) = (20, 8) Lanczos
        # runs to k = m, so its last bidiagonal is m x m.
        s, r = 5, 2
        svd = np.linalg.svd
        for m, ell in ((200, 16), (20, 8)):
            assert projection_dim(m, s, 0.7) == ell
            difference._kept.clear()
            shapes = []

            def recording_svd(a, *args, **kwargs):
                bidiagonal = np.array_equal(a, np.triu(np.tril(a, 1)))
                shapes.append((np.shape(a), bidiagonal))
                return svd(a, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", recording_svd)
                full_pipeline(GAUSS, 64, s, m, r, 0.02, 0.7, RngStream(56))
            assert len(shapes) > 2  # the cold basis factored its bidiagonals
            assert all(min(shape) < m or bidiagonal for shape, bidiagonal in shapes)

    def test_m_less_than_s_rejected(self, monkeypatch):
        # the baseline rejects m < s as the pipeline does, before it draws
        # and runs BPDN on an instance it cannot recover
        self.refuse_to_draw(monkeypatch)
        for run in (lambda: full_pipeline(GAUSS, 64, 5, 4, 1, 0.02, 0.7, RngStream(0)),
                    lambda: msq_trial(GAUSS, 32, 5, 3, 1, 0.01, RngStream(1)),
                    lambda: run_msq_baseline(SweepConfig("gaussian", 32, 5, 1, 0.01, 0.7,
                                                         (5, 10), 2, 1), 3)):
            with pytest.raises(ValueError, match=r"^need m >= s$"):
                run()

    @staticmethod
    def refuse_to_draw(monkeypatch):
        def refuse(*args):
            raise AssertionError("drew an instance for rejected parameters")

        monkeypatch.setattr(recovery, "draw_instance", refuse)

    def test_inexact_inverse_power_rejected_before_drawing(self, monkeypatch):
        # C(2007, 8) = 6.4e21 > 2^53: the dense D^{-9} would not be exact
        with monkeypatch.context() as patch:
            self.refuse_to_draw(patch)
            with pytest.raises(ValueError, match=r"C\(2007, 8\) = 6.44e\+21, exceeds 2\^53"):
                full_pipeline(GAUSS, 64, 3, 2000, 9, 0.02, 0.7, RngStream(0))
        # C(207, 8) = 7.3e13 is exact; the check is on the entries only
        assert math.isfinite(full_pipeline(GAUSS, 64, 3, 200, 9, 0.02, 0.7, RngStream(0)).err_l2)

    @pytest.mark.parametrize("alpha", [0.0, 1.5, math.nan])
    def test_bad_alpha_rejected_before_drawing(self, monkeypatch, alpha):
        self.refuse_to_draw(monkeypatch)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            full_pipeline(GAUSS, 64, 3, 40, 2, 0.02, alpha, RngStream(0))

    def test_first_trial_does_not_import_numpy_ma(self):
        # numpy.ma costs about 14 ms to import; a trial has no use for it
        code = ("import sys\n"
                "from sdcs.measurement import Ensemble\n"
                "from sdcs.recovery import full_pipeline\n"
                "from sdcs.rng import RngStream\n"
                "full_pipeline(Ensemble('gaussian'), 64, 3, 40, 2, 0.02, 0.7, RngStream(1))\n"
                "assert 'numpy.ma' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr

    def test_regression_baseline_support_recovery(self):
        # 20-seed baseline at n=256, s=5, r=2, delta=0.01, m=600
        correct = 0
        for seed in range(20):
            rep = full_pipeline(GAUSS, 256, 5, 600, 2, 0.01, 0.7, RngStream(seed))
            correct += rep.support_correct
        assert correct >= 19


def test_pipeline_matches_manual_composition():
    # the pipeline is exactly: sample, measure, quantize, bpdn, support,
    # reconstruct; rebuild it by hand on the same substreams and compare
    n, s, m, r, delta, alpha = 48, 3, 40, 2, 0.05, 0.7
    rng = RngStream(77)
    rep = full_pipeline(GAUSS, n, s, m, r, delta, alpha, RngStream(77))

    floor = (2.0 ** (r - 0.5)) * delta
    sig = sample_sparse_signal(n, s, floor, 10.0 * floor, rng.substream("signal"))
    phi = sample_matrix(GAUSS, m, n, rng.substream("matrix"))
    x = sig.to_dense()
    out = sigma_delta_quantize(phi @ x, QuantizerConfig(r=r, delta=delta))
    res = bpdn_solve(phi, out.q, quantization_noise_bound(m, QuantizerConfig(r=r, delta=delta)))
    t_hat = support_from(res.x, s)
    x_t, smin = sobolev_reconstruct(phi[:, t_hat], out.q, r)
    x_hat = np.zeros(n)
    x_hat[t_hat] = x_t

    assert np.array_equal(rep.recovered_support, t_hat)
    assert np.array_equal(rep.x_hat, x_hat)
    assert rep.err_l2 == pytest.approx(float(np.linalg.norm(x - x_hat)), abs=0.0)
    assert rep.err_bound == delta * math.sqrt(m) / (2.0 * smin)
    dense = np.linalg.svd(inverse_difference_power(m, r) @ phi[:, t_hat], compute_uv=False)[-1]
    assert rep.err_bound == pytest.approx(delta * math.sqrt(m) / (2.0 * dense), rel=1e-12)
