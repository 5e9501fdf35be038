"""Two-stage sparse recovery from quantized measurements.

Coarse stage: basis pursuit denoising locates the support by treating the
quantized vector as noisy measurements.  Fine stage: a noise-shaping dual
of the support submatrix reconstructs the coefficients; it is the left
inverse minimizing the operator norm against the r-th order difference,
which is what makes feedback-quantization noise nearly invisible to it.

Both trials share that recovery (_recover): full_pipeline at order
r >= 1, and msq_trial, the round-each-entry baseline, at order 0 on the
same instance.

The failure rule.  This docstring is its one statement.  A degenerate
draw, whose recovered support submatrix makes the dual rank deficient
(sobolev_reconstruct raises DegenerateDrawError), is a failed trial, not
an exception: the support is not correct, the reconstruction is nan and
the error and bound are infinite.  full_pipeline also reports
sigma_min_proj as nan, with the BPDN diagnostics of the draw.  So the
sweep and the baseline record it as a row and go on, SweepRecord.failed
reads it back from the CSV (err_l2 is infinite), and
``sdcs reconstruct --seed`` replays a failed row like any other.

A trial handed the next trial's stream (next_rng) starts that trial's
matrix draw early (see _recover); results do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .difference import check_exact_power, difference_power
from .linalg import as_matrix, as_vector
from .measurement import (Ensemble, SparseSignal, prefetch_matrix, sample_matrix,
                          sample_sparse_signal)
from .quantizer import QuantizerConfig, quantization_noise_bound, sigma_delta_quantize
from .rip import projected_matrix
from .rng import RngStream


class DegenerateDrawError(RuntimeError):
    """A sampled instance is numerically rank-deficient where full rank is required."""


# A LASSO path has one kink per change of its active set; on the sweeps it
# takes about one step per nonzero of the minimizer.  The cap only ends a
# path that rounding keeps from reaching its stop.
_MAX_STEPS_PER_DIM = 10
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class BpdnResult:
    """Solver output: minimizer plus path diagnostics.

    iterations counts the path steps taken.  converged is False when the
    path ended at lambda = 0 with the residual still above epsilon (the
    constraint set is empty; gap is then inf) or when the step cap stopped
    it; x then holds the last point on the path.  gap is the l1 objective
    minus the dual value at y = r / ||phi^T r||_inf, r = q - phi x (for a
    path run to lambda = 0, at the limit of r / lambda): a certified bound
    on the l1 suboptimality whenever x is feasible.
    """

    x: np.ndarray = field(repr=False)
    converged: bool
    iterations: int
    violation: float
    gap: float


def _ls_floor(m: int, sv: np.ndarray, q_norm: float, x: np.ndarray) -> float:
    """Rounding floor of the residual of a least-squares solve on the k
    columns with singular values sv: m k u (||q|| + ||phi_A|| ||x||)."""
    return m * sv.size * _EPS * (q_norm + float(sv[0]) * math.sqrt(x @ x))


def bpdn_solve(phi, q, epsilon: float) -> BpdnResult:
    """Basis pursuit denoising, min ||x||_1 s.t. ||phi x - q||_2 <= epsilon.

    Follows the piecewise-linear LASSO path x(lam) = argmin 1/2 ||phi x - q||^2
    + lam ||x||_1 down from lam_0 = ||phi^T q||_inf (Osborne, Presnell and
    Turlach, IMA J. Numer. Anal. 2000; Donoho and Tsaig, IEEE Trans. Inf.
    Theory 2008).  On each piece the active coefficients move along
    d = G^{-1} z (G the Gram matrix of the active columns, z their signs),
    from one thin SVD of those columns.  A piece ends at the first of: an
    inactive correlation reaches +-lam (the column joins), an active
    coefficient reaches 0 (it leaves), the residual norm, which falls
    monotonically, reaches epsilon (x is then the exact minimizer), or lam
    reaches 0.  With epsilon = 0 the residual event is a double root at
    lam = 0, so the path simply runs to lam = 0; a coefficient that ends
    there within the rounding of its least-squares solve of 0 leaves at
    the stop.  So the solver has no tolerance or iteration count to set,
    only a step cap that scales with min(m, n); each step costs one thin
    SVD of the active columns and one product with phi^T.

    Degenerate inputs: a column that has just left may not rejoin on its
    old side in the next piece (its correlation still sits at that level);
    a column that would make the active columns rank deficient (a
    duplicate, or any column once they span R^m) never joins.
    """
    phi = as_matrix(phi, "phi")
    q = as_vector(q, "q")
    m, n = phi.shape
    if q.size != m:
        raise ValueError(f"dimension mismatch: phi is {phi.shape}, q has length {q.size}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError("epsilon must be finite and >= 0")
    eps = float(epsilon)

    q_norm = math.sqrt(q @ q)
    if q_norm <= eps:
        # Zero is feasible and has minimal possible l1 norm.
        return BpdnResult(x=np.zeros(n), converged=True, iterations=0, violation=0.0, gap=0.0)
    at = phi.T
    c = at @ q  # correlations phi^T r
    j = int(np.argmax(np.abs(c)))
    lam = abs(float(c[j]))
    if lam == 0.0:
        # q is orthogonal to range(phi) (phi = 0, say): the path is x = 0
        # and the residual never falls below ||q|| > epsilon.
        return BpdnResult(x=np.zeros(n), converged=False, iterations=0,
                          violation=q_norm - eps, gap=math.inf)

    x = np.zeros(n)
    active, signs = [j], [math.copysign(1.0, c[j])]
    svd = np.linalg.svd(phi[:, active], full_matrices=False)
    sides = np.array([[1.0], [-1.0]])  # row 0: c_i reaches +lam, row 1: -lam
    left = None  # (side row, column) of the column the last piece dropped
    done, steps = False, 0
    while not done and steps < _MAX_STEPS_PER_DIM * min(m, n):
        steps += 1
        # On this piece x_A(lam') = x_ls - lam' d and r(lam') = q_perp + lam' v,
        # with x_ls, q_perp the least-squares solution and residual on the
        # active columns; both follow from the thin SVD u s vt of phi_A.
        u, s, vt = svd
        uq = u.T @ q
        x_ls = vt.T @ (uq / s)
        q_perp = q - u @ uq
        w = (vt @ np.array(signs)) / s
        d = vt.T @ (w / s)  # G^{-1} z
        v = u @ w  # phi_A d, orthogonal to q_perp
        a = at @ v  # correlations phi^T r fall along a as lam falls
        # With epsilon = 0 the piece runs to lam = 0.  Once q_perp is at the
        # rounding floor of the least-squares solve, the inactive
        # correlations are lam' a up to rounding, so every join lands at
        # lam' = 0 with the stop; rounding alone would place one just above.
        settled = eps == 0.0 and math.sqrt(q_perp @ q_perp) <= _ls_floor(m, s, q_norm, x_ls)

        # Stop events: lam reaches 0, or ||q_perp||^2 + lam'^2 ||v||^2 = eps^2.
        g_stop = lam
        if eps > 0.0:
            disc = (eps * eps - q_perp @ q_perp) / (v @ v)
            if disc >= 0.0:
                g_stop = max(0.0, lam - math.sqrt(disc))

        # Drop event: an active coefficient crosses zero.
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = -x[active] / d
        cross[~(cross > 0.0)] = math.inf
        k_out = int(np.argmin(cross))
        g_out = float(cross[k_out])
        drop = g_out < g_stop
        if eps == 0.0 and not drop and len(active) > 1:
            # The piece runs to lam = 0, where x_A = x_ls.  A coefficient of
            # x_ls within the rounding of the solve of 0 leaves there: its
            # drop coincides with the stop, and rounding alone would place
            # it just past lam = 0 and leave dust.
            tiny = np.abs(x_ls) <= _ls_floor(m, s, q_norm, x_ls) / float(s[-1])
            if tiny.any():
                k_out, drop = int(np.argmax(tiny)), True

        # Join events: c_i - g a_i = +-(lam - g) for an inactive column i.  A
        # non-positive rate never gets there (this masks the 0/0 of a column
        # parallel to an active one); one already at the level joins at once.
        rate = 1.0 - sides * a
        with np.errstate(divide="ignore", invalid="ignore"):
            join = np.where(rate > 0.0, np.maximum(lam - sides * c, 0.0) / rate, math.inf)
        join[:, active] = math.inf
        if left is not None:
            join[left] = math.inf
        if settled or len(active) == m:  # m active columns span R^m: none can join
            join[:] = math.inf
        joined = None
        while True:
            row, i = divmod(int(np.argmin(join)), n)
            if not join[row, i] < min(g_stop, g_out):
                break
            cand = np.linalg.svd(phi[:, active + [i]], full_matrices=False)
            sv = cand[1]
            if sv.size > len(active) and sv[-1] > sv[0] * max(m, sv.size) * _EPS:
                joined = (i, float(sides[row, 0]), cand)
                break
            join[:, i] = math.inf  # dependent on the active columns

        gamma = float(join[row, i]) if joined is not None else min(g_stop, g_out)
        c -= gamma * a
        lam -= gamma
        x[active] = x_ls - lam * d
        left = None
        if joined is not None:
            i, sign, svd = joined
            active.append(i)
            signs.append(sign)
        elif drop:
            i = active.pop(k_out)
            left = (int(signs.pop(k_out) < 0.0), i)
            x[i] = 0.0
            svd = np.linalg.svd(phi[:, active], full_matrices=False)
        else:
            done = True

    res = q - phi @ x
    violation = max(0.0, math.sqrt(res @ res) - eps)
    y = res
    if done and lam == 0.0:
        # The path's end: x minimizes ||phi x - q||, so it is feasible only
        # if that minimum is within the rounding of a least-squares solve on
        # the active columns.  The dual point is the limit of r / lam, i.e.
        # the last direction v.
        if violation > _ls_floor(m, svd[1], q_norm, x):
            return BpdnResult(x=x, converged=False, iterations=steps,
                              violation=violation, gap=math.inf)
        y = v
    y = y / float(np.max(np.abs(at @ y)))
    gap = float(np.sum(np.abs(x))) - (float(q @ y) - eps * math.sqrt(y @ y))
    return BpdnResult(x=x, converged=done, iterations=steps, violation=violation, gap=gap)


def support_from(x, s: int) -> np.ndarray:
    """Indices (0-based, ascending) of the s largest magnitudes of x.

    Ties are broken toward the smaller index.
    """
    x = as_vector(x, "x")
    if not 1 <= s <= x.size:
        raise ValueError(f"need 1 <= s <= {x.size}, got s={s}")
    order = np.argsort(-np.abs(x), kind="stable")
    return np.array(sorted(order[:s]), dtype=np.intp)


def sobolev_reconstruct(phi_t, q, r: int) -> tuple[np.ndarray, float]:
    """Reconstruct the support's coefficients with the noise-shaping dual.

    phi_t is the m x k submatrix of the support's columns.  With
    A = Dinv_r @ phi_t, the dual pinv(A) @ Dinv_r is the left inverse of
    phi_t that minimizes the operator norm against the r-th difference
    power.  At r = 0, D^0 = I and it is the canonical dual pinv(phi_t),
    i.e. least squares on the support.  Returns the k coefficients and
    sigma_min(A), both from one SVD of A.  The error bound
    delta*sqrt(m) / (2 sigma_min(A)) holds whenever the support is correct
    and the greedy quantizer's states stay within delta/2.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    a = as_matrix(phi_t, "phi_t")
    b = as_vector(q, "q")
    m, k = a.shape
    if b.size != m:
        raise ValueError("q length must equal the number of rows of phi_t")
    if k > m:
        raise ValueError("support larger than the number of measurements")
    if r != 0:
        inv = difference_power(m, r)
        a, b = inv @ a, inv @ b
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        what = "support submatrix" if r == 0 else "difference-weighted support submatrix"
        raise DegenerateDrawError(f"{what} is rank deficient")
    return (vh.T * (1.0 / s)) @ (u.T @ b), float(s[-1])


def projection_dim(m: int, s: int, alpha: float) -> int:
    """Projected dimension ceil(m * (s/m)^alpha), clamped to [1, m]."""
    if not 1 <= s <= m:
        raise ValueError("need 1 <= s <= m")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return min(m, max(1, math.ceil(m * (s / m) ** alpha)))


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one measurement/quantize/recover trial."""

    recovered_support: np.ndarray = field(repr=False)
    x_hat: np.ndarray = field(repr=False)
    err_l2: float
    err_bound: float
    sigma_min_proj: float
    support_correct: bool
    ell: int
    support_tie_flag: bool
    bpdn_converged: bool
    bpdn_iterations: int
    bpdn_violation: float
    bpdn_l1_slack: float


def draw_instance(
    ensemble: Ensemble,
    n: int,
    s: int,
    m: int,
    r: int,
    delta: float,
    rng: RngStream,
) -> tuple[SparseSignal, np.ndarray]:
    """Sample the (signal, measurement matrix) pair for one trial.

    The signal's amplitude floor is 2^(r - 1/2) * delta, the smallest
    magnitude for which support recovery is guaranteed in the
    high-probability regime, and its magnitudes are capped at ten times
    the floor.  Uses fixed substream labels so that different quantization
    branches can replay the identical instance from the same parent stream.
    """
    floor = (2.0 ** (r - 0.5)) * delta
    signal = sample_sparse_signal(n, s, floor, 10.0 * floor, rng.substream("signal"))
    phi = sample_matrix(ensemble, m, n, _matrix_stream(rng))
    return signal, phi


def _matrix_stream(rng: RngStream) -> RngStream:
    """The substream a trial's measurement matrix is drawn from."""
    return rng.substream("matrix")


@dataclass(frozen=True)
class _Trial:
    """What _recover hands its two callers."""

    signal: SparseSignal
    bpdn: BpdnResult
    support: np.ndarray  # recovered, ascending
    phi_t: np.ndarray  # the matrix's columns on support
    correct: bool
    x_hat: np.ndarray
    err: float
    bound: float


def _recover(ensemble: Ensemble, n: int, s: int, m: int, r: int, delta: float,
             rng: RngStream, cfg: QuantizerConfig, next_rng: RngStream | None) -> _Trial:
    """Draw the instance of draw_instance(ensemble, n, s, m, r, delta, rng),
    quantize phi @ x with cfg, locate the support by BPDN with the
    worst-case noise radius 2^(cfg.r - 1) * delta * sqrt(m), and reconstruct
    on it with the order-cfg.r dual; report the l2 error and the bound
    delta*sqrt(m) / (2 sigma_min), or a failed trial (module docstring).

    Once BPDN returns, only the support's columns of phi are kept, and the
    matrix that next_rng's trial draws at the same (ensemble, m, n) is
    prefetched (measurement.prefetch_matrix).  So that draw overlaps this
    trial's reconstruction, and at most one m x n draw is alive at a time.
    """
    signal, phi = draw_instance(ensemble, n, s, m, r, delta, rng)
    x = signal.to_dense()
    quant = sigma_delta_quantize(phi @ x, cfg)
    result = bpdn_solve(phi, quant.q, quantization_noise_bound(m, cfg))
    t_hat = support_from(result.x, s)
    phi_t = phi[:, t_hat]
    del phi  # its only reference: the next draw may take its place
    if next_rng is not None:
        prefetch_matrix(ensemble, m, n, _matrix_stream(next_rng))
    try:
        x_t, smin = sobolev_reconstruct(phi_t, quant.q, cfg.r)
    except DegenerateDrawError:
        return _Trial(signal, result, t_hat, phi_t, False, np.full(n, math.nan),
                      math.inf, math.inf)
    x_hat = np.zeros(n)
    x_hat[t_hat] = x_t
    return _Trial(signal, result, t_hat, phi_t, bool(np.array_equal(t_hat, signal.support)),
                  x_hat, float(np.linalg.norm(x - x_hat)),
                  cfg.delta * math.sqrt(m) / (2.0 * smin))


def full_pipeline(
    ensemble: Ensemble,
    n: int,
    s: int,
    m: int,
    r: int,
    delta: float,
    alpha: float,
    rng: RngStream,
    next_rng: RngStream | None = None,
) -> RecoveryReport:
    """Measure, quantize, recover, and evaluate one random instance (see
    _recover), at an (m, r) that check_exact_power accepts.

    Reports reconstruction error, the deterministic error bound for the
    recovered support, and the smallest singular value of the scaled
    ell-row projection of the support submatrix, with
    ell = ceil(m * (s/m)^alpha), or a failed trial (module docstring).
    next_rng, if given, is the stream of the trial that follows at the same
    (ensemble, m, n); the report does not depend on it.
    """
    if m < s:
        raise ValueError("need m >= s")
    check_exact_power(m, r)
    ell = projection_dim(m, s, alpha)  # >= s, since (s/m)^alpha >= s/m
    trial = _recover(ensemble, n, s, m, r, delta, rng, QuantizerConfig(r=r, delta=delta),
                     next_rng)
    result = trial.bpdn
    mags = np.sort(np.abs(result.x))[::-1]
    tie = bool(n > s and mags[s - 1] - mags[s] < 1e-9)

    smin_proj = math.nan
    if trial.err < math.inf:
        proj_sub = projected_matrix(trial.phi_t, r, ell)
        smin_proj = float(np.linalg.svd(proj_sub, compute_uv=False)[-1])

    l1_slack = float(np.sum(np.abs(result.x)) - np.sum(np.abs(trial.signal.to_dense())))
    return RecoveryReport(
        recovered_support=trial.support,
        x_hat=trial.x_hat,
        err_l2=trial.err,
        err_bound=trial.bound,
        sigma_min_proj=smin_proj,
        support_correct=trial.correct,
        ell=ell,
        support_tie_flag=tie,
        bpdn_converged=result.converged,
        bpdn_iterations=result.iterations,
        bpdn_violation=result.violation,
        bpdn_l1_slack=l1_slack,
    )


@dataclass(frozen=True)
class MsqTrialResult:
    err_l2: float
    support_correct: bool


def msq_trial(ensemble: Ensemble, n: int, s: int, m: int, r: int, delta: float,
              rng: RngStream, next_rng: RngStream | None = None) -> MsqTrialResult:
    """Round-each-entry baseline on the identical instance.

    Draws the same (signal, matrix) pair as full_pipeline for the same
    stream and runs the same recovery (_recover) with the order-0
    quantizer: each entry rounded on its own, the noise radius
    delta*sqrt(m)/2, and the order-0 dual, which is least squares on the
    recovered support.  The r argument only fixes the amplitude floor so
    instances match the feedback-quantizer runs.  next_rng is as in
    full_pipeline.
    """
    if m < s:
        raise ValueError("need m >= s")
    trial = _recover(ensemble, n, s, m, r, delta, rng, QuantizerConfig(r=0, delta=delta),
                     next_rng)
    return MsqTrialResult(err_l2=trial.err, support_correct=trial.correct)
