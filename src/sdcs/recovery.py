"""Two-stage sparse recovery from quantized measurements.

Coarse stage: basis pursuit denoising locates the support by treating the
quantized vector as noisy measurements.  Fine stage: a noise-shaping dual
of the support submatrix reconstructs the coefficients; it is the left
inverse minimizing the operator norm against the r-th order difference,
which is what makes feedback-quantization noise nearly invisible to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .difference import difference_power, projected_basis
from .linalg import as_matrix, as_vector
from .measurement import Ensemble, SparseSignal, sample_matrix, sample_sparse_signal
from .quantizer import QuantizerConfig, quantization_noise_bound, sigma_delta_quantize
from .rng import RngStream


class DegenerateDrawError(RuntimeError):
    """A sampled instance is numerically rank-deficient where full rank is required."""


@dataclass(frozen=True)
class BpdnConfig:
    """Solver parameters for min ||x||_1 s.t. ||phi x - q||_2 <= epsilon."""

    epsilon: float
    max_iters: int = 50_000
    primal_tol: float = 1e-8
    dual_tol: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.primal_tol > 0 and self.dual_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class BpdnResult:
    """Solver output: minimizer estimate plus convergence diagnostics.

    converged is False when the iteration cap was reached before both the
    relative primal change and the constraint violation fell below their
    tolerances; x then holds the best iterate.  gap is a certified bound
    on the l1 suboptimality (valid whenever x is feasible).
    """

    x: np.ndarray = field(repr=False)
    converged: bool
    iterations: int
    violation: float
    gap: float


def bpdn_solve(phi, q, cfg: BpdnConfig) -> BpdnResult:
    """Basis pursuit denoising by a primal-dual splitting iteration.

    Alternates a proximal step on the l1 objective with a projection of
    the dual variable onto the epsilon-ball around q (Chambolle and Pock,
    JMIV 2011), using equal step sizes set from the exact ||phi||, the
    square root of the largest eigenvalue of the smaller Gram matrix.
    Stops when the relative primal change drops below primal_tol and the
    constraint violation below dual_tol, or at the iteration cap (then
    ``converged=False`` and the best iterate is returned).

    A tall phi (m > n + 1) is first replaced by its (n+1) x n equivalent:
    with R the triangular QR factor of [phi | q], the iteration runs on
    phi~ = R[:, :n] and q~ = R[:, n].  The dual variable only ever moves
    in range(phi) + span(q), on which the orthonormal factor is an
    isometry, so ||phi x - q|| = ||phi~ x - q~||, ||phi|| = ||phi~|| and
    every iterate and the stop test agree in exact arithmetic.  The
    returned violation is measured on the caller's phi and q.

    The feasible set must be nonempty (epsilon at least the distance of q
    from the range of phi); otherwise the iteration cannot converge.
    """
    phi = as_matrix(phi, "phi")
    q = as_vector(q, "q")
    m, n = phi.shape
    if q.size != m:
        raise ValueError(f"dimension mismatch: phi is {phi.shape}, q has length {q.size}")
    eps = cfg.epsilon

    if np.linalg.norm(q) <= eps:
        # Zero is feasible and has minimal possible l1 norm.
        return BpdnResult(x=np.zeros(n), converged=True, iterations=0, violation=0.0, gap=0.0)

    a, b = phi, q  # the pair the iteration runs on
    if m > n + 1:
        # Fortran order is LAPACK's layout, so the factorization copies it
        # without a transpose.
        aug = np.empty((m, n + 1), order="F")
        aug[:, :n] = phi
        aug[:, n] = q
        rfac = np.linalg.qr(aug, mode="r")
        a, b = np.ascontiguousarray(rfac[:, :n]), rfac[:, n].copy()
    at = np.ascontiguousarray(a.T)

    gram = a @ a.T if a.shape[0] <= n else a.T @ a
    opnorm = math.sqrt(np.linalg.eigvalsh(gram)[-1])
    if opnorm == 0.0:
        # phi is the zero matrix and q is outside the ball: infeasible.
        return BpdnResult(
            x=np.zeros(n), converged=False, iterations=0,
            violation=float(np.linalg.norm(q) - eps), gap=math.inf,
        )
    tau = sigma = 0.995 / opnorm  # tau*sigma*||phi||^2 < 1

    x = np.zeros(n)
    px = np.zeros(b.size)   # a @ x
    px_prev = px
    xi = np.zeros(b.size)
    converged = False
    iterations = 0

    for it in range(1, cfg.max_iters + 1):
        # v = xi + sigma * (2 px - px_prev)
        v = 2.0 * px
        v -= px_prev
        v *= sigma
        v += xi
        # xi = v - sigma * (projection of v / sigma onto the eps-ball around b)
        p = v / sigma
        d = p - b
        nd = math.sqrt(d @ d)
        if nd > eps:
            d *= eps / nd
            d += b
            p = d
        p *= sigma
        v -= p
        xi = v

        # soft threshold of w at tau: w - clip(w, -tau, tau), with the clip
        # spelled as maximum and minimum (np.clip costs more per call)
        w = at @ xi
        w *= tau
        np.subtract(x, w, out=w)
        c = np.maximum(w, -tau)
        np.minimum(c, tau, out=c)
        x_new = w - c
        px_prev = px
        px = a @ x_new
        x -= x_new
        res = px - b
        rel = math.sqrt(x @ x) / max(1.0, math.sqrt(x_new @ x_new))
        violation = max(0.0, math.sqrt(res @ res) - eps)
        x = x_new
        iterations = it
        if rel < cfg.primal_tol and violation <= cfg.dual_tol:
            converged = True
            break

    res = phi @ x - q
    violation = max(0.0, math.sqrt(res @ res) - eps)
    # Certified l1 suboptimality from the scaled dual point.
    scale = max(1.0, float(np.max(np.abs(at @ xi))))
    xif = xi / scale
    dual_value = -float(b @ xif) - eps * float(np.linalg.norm(xif))
    gap = float(np.sum(np.abs(x))) - dual_value
    return BpdnResult(x=x, converged=converged, iterations=iterations,
                      violation=violation, gap=gap)


def support_from(x, s: int) -> np.ndarray:
    """Indices (0-based, ascending) of the s largest magnitudes of x.

    Ties are broken toward the smaller index.
    """
    x = as_vector(x, "x")
    if not 1 <= s <= x.size:
        raise ValueError(f"need 1 <= s <= {x.size}, got s={s}")
    order = np.argsort(-np.abs(x), kind="stable")
    return np.array(sorted(order[:s]), dtype=np.intp)


def _check_support(support, m: int, n: int) -> np.ndarray:
    t = np.asarray(support, dtype=np.intp)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("support must be a nonempty 1-D index set")
    if np.unique(t).size != t.size:
        raise ValueError("support contains duplicate indices")
    if t.min() < 0 or t.max() >= n:
        raise ValueError("support index out of range")
    if t.size > m:
        raise ValueError("support larger than the number of measurements")
    return np.sort(t)


def sobolev_reconstruct(phi, support, q, r: int) -> tuple[np.ndarray, float]:
    """Reconstruct on the given support using the noise-shaping dual.

    With A = Dinv_r @ phi[:, support], the dual pinv(A) @ Dinv_r is the left
    inverse of phi[:, support] that minimizes the operator norm against the
    r-th difference power.  Returns the full-length reconstruction (zero off
    the support) and sigma_min(A), both from one SVD of A.  The error bound
    delta*sqrt(m) / (2 sigma_min(A)) holds whenever the support is correct
    and the greedy quantizer's states stay within delta/2.
    """
    phi = as_matrix(phi, "phi")
    q = as_vector(q, "q")
    m, n = phi.shape
    if q.size != m:
        raise ValueError("q length must equal the number of rows of phi")
    t = _check_support(support, m, n)
    inv = difference_power(m, r)
    a = inv @ phi[:, t]
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise DegenerateDrawError("difference-weighted support submatrix is rank deficient")
    x_t = (vh.T * (1.0 / s)) @ (u.T @ (inv @ q))
    x_hat = np.zeros(n)
    x_hat[t] = x_t
    return x_hat, float(s[-1])


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
    rip_hypothesis_ok: bool
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
    floor: float,
    magnitude_cap: float,
    rng: RngStream,
) -> tuple[SparseSignal, np.ndarray]:
    """Sample the (signal, measurement matrix) pair for one trial.

    Uses fixed substream labels so that different quantization branches
    can replay the identical instance from the same parent stream.
    """
    signal = sample_sparse_signal(n, s, floor, magnitude_cap, rng.substream("signal"))
    phi = sample_matrix(ensemble, m, n, rng.substream("matrix"))
    return signal, phi


def full_pipeline(
    ensemble: Ensemble,
    n: int,
    s: int,
    m: int,
    r: int,
    delta: float,
    alpha: float,
    rng: RngStream,
    *,
    k_floor: float = 1.0,
    magnitude_cap_ratio: float = 10.0,
    epsilon: float | None = None,
    bpdn: BpdnConfig | None = None,
) -> RecoveryReport:
    """Measure, quantize, recover, and evaluate one random instance.

    The signal's amplitude floor is k_floor * 2^(r - 1/2) * delta, the
    smallest magnitude for which support recovery is guaranteed in the
    high-probability regime (k_floor defaults to 1 and is exposed because
    the sharp constant is not known).  The denoising radius defaults to
    the worst-case quantization noise 2^(r-1) * delta * sqrt(m).

    Reports reconstruction error, the deterministic error bound for the
    recovered support, and the smallest singular value of the scaled
    ell-row projection of the support submatrix, with
    ell = ceil(m * (s/m)^alpha).
    """
    if m < s:
        raise ValueError("need m >= s")
    cfg = QuantizerConfig(r=r, delta=delta)
    floor = k_floor * (2.0 ** (r - 0.5)) * delta
    signal, phi = draw_instance(ensemble, n, s, m, floor, magnitude_cap_ratio * floor, rng)
    x = signal.to_dense()

    y = phi @ x
    quant = sigma_delta_quantize(y, cfg)
    eps = quantization_noise_bound(m, cfg) if epsilon is None else epsilon
    bpdn_cfg = bpdn if bpdn is not None else BpdnConfig(epsilon=eps)
    if bpdn is not None and epsilon is not None and bpdn.epsilon != eps:
        raise ValueError("conflicting epsilon in bpdn config and epsilon argument")
    result = bpdn_solve(phi, quant.q, bpdn_cfg)

    t_hat = support_from(result.x, s)
    mags = np.sort(np.abs(result.x))[::-1]
    tie = bool(x.size > s and mags[s - 1] - mags[s] < 1e-9)

    x_hat, smin = sobolev_reconstruct(phi, t_hat, quant.q, r)
    err = float(np.linalg.norm(x - x_hat))
    bound = delta * math.sqrt(m) / (2.0 * smin)

    ell = projection_dim(m, s, alpha)
    w = projected_basis(m, r, ell)
    proj_sub = (w @ phi[:, t_hat]) / math.sqrt(ell)
    if ell >= t_hat.size:
        smin_proj = float(np.linalg.svd(proj_sub, compute_uv=False)[-1])
    else:
        smin_proj = 0.0  # fewer rows than support size: not injective

    l1_slack = float(np.sum(np.abs(result.x)) - np.sum(np.abs(x)))
    return RecoveryReport(
        recovered_support=t_hat,
        x_hat=x_hat,
        err_l2=err,
        err_bound=bound,
        sigma_min_proj=smin_proj,
        support_correct=bool(np.array_equal(t_hat, signal.support)),
        ell=ell,
        rip_hypothesis_ok=bool(smin_proj >= math.sqrt(1.0 - 1.0 / math.sqrt(2.0))),
        support_tie_flag=tie,
        bpdn_converged=result.converged,
        bpdn_iterations=result.iterations,
        bpdn_violation=result.violation,
        bpdn_l1_slack=l1_slack,
    )
