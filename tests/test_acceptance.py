"""Acceptance suite: one test per stated criterion, each printing a
single PASS/FAIL line (run with -s to see them live).

Criteria 3, 4, 5, and 7 share two session-scoped decay sweeps
(gaussian, n=256, s=5, delta=0.01, m in {100, 200, 400, 800}, 20 trials,
orders 1 and 2) plus the round-each-entry baseline on the identical
m=800 instances.
"""

import math

import numpy as np
import pytest

from oracles import U, difference_matrix, gamma, inverse_difference_power, singular_profile
from sdcs.cli import main as cli_main
from sdcs.difference import projected_basis
from sdcs.experiments import (
    SweepConfig,
    run_decay_sweep,
    run_msq_baseline,
    summarize,
)
from sdcs.measurement import Ensemble, sample_matrix
from sdcs.quantizer import QuantizerConfig, sigma_delta_quantize
from sdcs.recovery import bpdn_solve, draw_instance, projection_dim
from sdcs.rip import projected_matrix, ric_exact, ric_monte_carlo, small_ball_probe
from sdcs.rng import RngStream

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def sweep_config(r: int, ensemble: str = "gaussian") -> SweepConfig:
    return SweepConfig(ensemble=ensemble, n=256, s=5, r=r, delta=0.01,
                       alpha=0.7, m_grid=(100, 200, 400, 800), trials=20, seed=20_240)


@pytest.fixture(scope="session")
def sweep_r1():
    return run_decay_sweep(sweep_config(1))


@pytest.fixture(scope="session")
def sweep_r2():
    return run_decay_sweep(sweep_config(2))


@pytest.fixture(scope="session")
def msq_at_800():
    return run_msq_baseline(sweep_config(2), 800)


def test_criterion_1_algebraic_identities():
    worst_identity = 0.0
    for m in (8, 64, 512):
        d = difference_matrix(m)
        for r in (1, 2, 3):
            prod = np.linalg.matrix_power(d, r) @ inverse_difference_power(m, r)
            worst_identity = max(worst_identity, float(np.max(np.abs(prod - np.eye(m)))))
    identity_ok = worst_identity <= 1e-9

    rng = RngStream(1001)
    worst_resid = 0.0
    worst_state = 0.0
    for trial in range(1000):
        r = 1 + trial % 3
        delta = (0.25, 1.0, 2.0)[trial % 3]
        m = 1 + int(rng.randbelow(48))
        y = 3.0 * rng.normals(m)
        out = sigma_delta_quantize(y, QuantizerConfig(r=r, delta=delta))
        d_pow = np.linalg.matrix_power(difference_matrix(m), r)
        worst_resid = max(worst_resid, float(np.max(np.abs(d_pow @ out.u - (y - out.q)))))
        worst_state = max(worst_state, float(np.max(np.abs(out.u))) - delta / 2.0)
    resid_ok = worst_resid <= 1e-10
    state_ok = worst_state <= 1e-12

    ok = identity_ok and resid_ok and state_ok
    report(1, ok, f"identity dev {worst_identity:.2e} (<=1e-9), "
                  f"residual dev {worst_resid:.2e} (<=1e-10), "
                  f"state excess {worst_state:.2e} (<=1e-12) over 1000 inputs")
    assert ok


def test_criterion_2_singular_value_power_law():
    # sigma_j(D^-r) ~ (m/j)^r with m-independent constants means the
    # envelope ratio R(m) = max/min of sigma_j * (j/m)^r stays bounded as
    # m grows.  R(m) itself still moves between m=64 and m=512: the
    # minimum sits near j ~ m^(2/3) and converges like m^(-2/3), so each
    # doubling of m shrinks the increment of R by about 2^(-2/3).  The
    # check therefore asserts a geometric (bounded) approach, extrapolates
    # the limit R_inf, and requires R(512) within 10% of it.  For r=1 the
    # closed form sigma_j = 1/(2 sin((2j-1)pi/(4m+2))) gives the exact
    # limit (2/pi)/(1/pi) = 2, which checks the extrapolation itself.
    ok = True
    details = []
    for r in (1, 2, 3):
        ratios = []
        for m in (64, 128, 256, 512):
            s = singular_profile(m, r)
            scaled = s * (np.arange(1, m + 1) / m) ** r
            ratios.append(float(scaled.max() / scaled.min()))
        steps = np.diff(ratios)
        q1, q2 = steps[1] / steps[0], steps[2] / steps[1]
        geometric = 0.0 < q1 < 1.0 and 0.0 < q2 < 1.0
        r_inf = ratios[-1] + steps[2] * q2 / (1.0 - q2) if geometric else math.inf
        gap = ratios[-1] / r_inf - 1.0
        ok &= geometric and abs(gap) < 0.10
        if r == 1:
            ok &= abs(r_inf / 2.0 - 1.0) < 0.01
        details.append(f"r={r}: R(64..512) " + " ".join(f"{v:.4f}" for v in ratios)
                       + f", q {q1:.3f} {q2:.3f} (in (0,1)), R_inf {r_inf:.4f}"
                       + (" (exact 2, within 1%)" if r == 1 else "")
                       + f", R(512)/R_inf-1 {gap:+.2%} (within 10%)")
    report(2, ok, "; ".join(details))
    assert ok


def test_criterion_3_error_bound_dominates(sweep_r1, sweep_r2):
    correct = [rec for rec in sweep_r1 + sweep_r2 if rec.support_correct]
    exceptions = [rec for rec in correct if not rec.err_l2 <= rec.bound_eq3]
    ok = len(correct) > 0 and not exceptions
    report(3, ok, f"{len(correct)} support-correct trials, "
                  f"{len(exceptions)} bound violations (0 allowed)")
    assert ok


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "column-model"])
def test_criterion_3b_rip_chain_to_the_rate(kind, sweep_r1):
    """At r = 1, on every support-correct row of each ensemble's acceptance
    sweep:
    err_l2 <= bound_eq3 <= bound_rip <= (pi/2) delta (m/ell)^(-1/2) / sigma_min_proj.

    Let A = D^{-1} Phi_T, W the top-ell right singular rows of D^{-1} and
    P = W Phi_T / sqrt(ell), so sigma_min_proj = sigma_min(P).  Since
    ||A x|| >= sigma_ell ||W Phi_T x||, sigma_min(A) >= sigma_ell sqrt(ell)
    sigma_min(P), which is bound_eq3 <= bound_rip = delta sqrt(m) /
    (2 sigma_ell sqrt(ell) sigma_min(P)).  With sigma_ell = 1 / (2 sin theta),
    theta = (2 ell - 1) pi / (4m + 2) < pi/2, and sin theta <= theta,
    bound_rip / rate = 2 m sin(theta) / (pi ell) <= (2 ell - 1) m /
    (ell (2m + 1)) < 1.

    Margins (u = 2^-53, gamma(k) = k u / (1 - k u); libm's sin and cos
    within 4 ulps).  The last link compares two closed forms, so only the
    roundings of theta, sin and the dozen operations of the two formulas
    enter: gamma(24) relative.  For the middle link, the computed
    singular values are exact for perturbed matrices (Weyl):
    - A: the dense product errs by gamma(m) D^{-1} |Phi_T| entrywise
      (Higham (3.13), D^{-1} >= 0), and the SVD's backward error is
      beta_k ||A||, beta_k = sqrt(s) gamma(k s) for k rows, as in
      test_err_l2_is_the_forward_error_within_its_rounding; ||A|| <=
      ||D^{-1} |Phi_T| ||_F.
    - P: W's closed-form entries (2 / sqrt(2m + 1)) cos(angle) err by at
      most 2/sqrt(2m + 1) ((2 pi gamma(3) + 8u)(1 + gamma(3)) + gamma(3))
      (an angle below 2 pi after three roundings, cos, the scale and the
      product); W Phi_T errs by gamma(m) |W| |Phi_T|, the division by
      sqrt(ell) by gamma(2), and its SVD has backward error beta_ell ||P||.
    The norms the test takes to bound these are widened by their own
    rounding; the relative slack then is (E_A + sigma_ell sqrt(ell) E_P) /
    sigma_min(A), plus gamma(30) for the two bounds' own formulas.  Every
    term is a norm of |Phi_T|, so the margins hold for any ensemble.
    """
    rows = sweep_r1 if kind == "gaussian" else run_decay_sweep(sweep_config(1, kind))
    ensemble = Ensemble(kind)
    norm = np.linalg.norm
    ratios, violations = [], 0
    for rec in rows:
        if not rec.support_correct:
            continue
        m, s, ell, delta = rec.m, rec.s, rec.ell, rec.delta
        sig, phi = draw_instance(ensemble, rec.n, s, m, 1, delta, RngStream(rec.seed))
        phi_t = phi[:, sig.support]
        proj = projected_matrix(phi_t, 1, ell)
        sproj = rec.sigma_min_proj
        sig_ell = 1.0 / (2.0 * math.sin((2 * ell - 1) * math.pi / (4 * m + 2)))
        bound_rip = delta * math.sqrt(m) / (2.0 * sig_ell * math.sqrt(ell) * sproj)
        rate = math.pi / 2.0 * delta * math.sqrt(ell / m) / sproj

        smin_a = delta * math.sqrt(m) / (2.0 * rec.bound_eq3) * (1.0 - gamma(6))
        n_a = norm(np.cumsum(np.abs(phi_t), axis=0)) / (1.0 - gamma((1 + s) * m))
        e_a = (gamma(m) + math.sqrt(s) * gamma(m * s) * (1.0 + gamma(m))) * n_a
        w_err = (2.0 / math.sqrt(2 * m + 1)) * (
            (2.0 * math.pi * gamma(3) + 8.0 * U) * (1.0 + gamma(3)) + gamma(3)) * (1.0 + gamma(4))
        dw = math.sqrt(ell * m) * w_err
        phi_f = norm(phi_t) / (1.0 - gamma(m * s))
        prod = norm(np.abs(projected_basis(m, 1, ell)) @ np.abs(phi_t)) / (1.0 - gamma(m + ell * s))
        n_p = norm(proj) / (1.0 - gamma(ell * s))
        e_p = ((dw * phi_f + gamma(m) * prod) / math.sqrt(ell)
               + (gamma(2) / (1.0 - gamma(2)) + math.sqrt(s) * gamma(ell * s)) * n_p)
        slack = (e_a + sig_ell / (1.0 - gamma(12)) * math.sqrt(ell) * e_p) / smin_a + gamma(30)

        violations += not (rec.err_l2 <= rec.bound_eq3
                           and rec.bound_eq3 <= bound_rip * (1.0 + slack)
                           and bound_rip <= rate * (1.0 + gamma(24)))
        ratios.append((bound_rip / rec.bound_eq3, rate / bound_rip, slack))
    assert ratios, "no support-correct rows"
    rip_over_eq3, rate_over_rip, slacks = zip(*ratios)
    ok = violations == 0
    report(3, ok, f"{kind} r=1 chain err <= bound_eq3 <= bound_rip <= rate: {violations} violations "
                  f"on {len(ratios)} support-correct rows; min bound_rip/bound_eq3 "
                  f"{min(rip_over_eq3):.3f}, min rate/bound_rip {min(rate_over_rip):.4f}, "
                  f"max slack {max(slacks):.1e}")
    assert ok


def test_criterion_4_decay_slopes(sweep_r1, sweep_r2):
    slope1 = summarize(sweep_r1).slope
    slope2 = summarize(sweep_r2).slope
    ok = slope1 is not None and slope2 is not None and slope1 <= -0.3 and slope2 <= -1.3
    report(4, ok, f"median-error slope vs lambda: r=1 {slope1:.3f} (<= -0.3), "
                  f"r=2 {slope2:.3f} (<= -1.3)")
    assert ok


def test_criterion_5_beats_msq(sweep_r2, msq_at_800):
    sd_errs = [rec.err_l2 for rec in sweep_r2 if rec.m == 800]
    msq_errs = [t.err_l2 for t in msq_at_800]
    med_sd = float(np.median(sd_errs))
    med_msq = float(np.median(msq_errs))
    ok = med_sd < med_msq
    report(5, ok, f"m=800 medians: feedback r=2 {med_sd:.3e} < round-each-entry {med_msq:.3e}")
    assert ok


def _certification_instances():
    n, s, m = 24, 2, 200
    ell = projection_dim(m, s, 0.7)
    out = []
    for seed in range(20):
        phi = sample_matrix(Ensemble("gaussian"), m, n,
                            RngStream(seed).substream("ripcert"))
        out.append(projected_matrix(phi, 2, ell))
    return out, ell


def _gaussian_rip_rows(n: int, order: int, target: float, eps: float):
    """Rows ell of an N(0, 1/ell) ell x n matrix that give delta_order <=
    target with probability >= 1 - eps (Foucart-Rauhut 2013, Thm 9.27):
    ell >= 2 eta^-2 (order ln(e n/order) + ln(2/eps)) gives
    delta <= 2 c eta + c^2 eta^2 with c = 1 + (2 ln(e n/order))^(-1/2);
    eta solves (1 + c eta)^2 = 1 + target."""
    log_term = math.log(math.e * n / order)
    c = 1.0 + 1.0 / math.sqrt(2.0 * log_term)
    eta = (math.sqrt(1.0 + target) - 1.0) / c
    ell = math.ceil(2.0 / eta**2 * (order * log_term + math.log(2.0 / eps)))
    return ell, eta


def _rip_certification_instances(eps: float):
    # The projection rows are orthonormal, so for a gaussian phi the scaled
    # projection is an N(0, 1/ell) matrix and the bound above applies.  The
    # pipeline's ell = m (s/m)^0.7 (8 rows at m=200) is far below it for
    # every feasible m; m=800, the largest size of the acceptance sweep,
    # keeps ell < m.
    n, m = 24, 800
    ell, eta = _gaussian_rip_rows(n, 4, INV_SQRT2, eps)
    mats = [projected_matrix(sample_matrix(Ensemble("gaussian"), m, n,
                                           RngStream(seed).substream("ripcert")), 2, ell)
            for seed in range(20)]
    return mats, ell, eta


def test_criterion_6a_exact_rip_certification():
    # With eps = 0.01 per draw, fewer than 18 of 20 certified draws has
    # probability <= 1.0e-3.
    eps = 0.01
    mats, ell, eta = _rip_certification_instances(eps)
    values = [ric_exact(a, 4).value for a in mats]
    certified = sum(v < INV_SQRT2 for v in values)
    ok = certified >= 18
    report(6, ok, f"exact delta_4 of scaled {ell}-row projection (gaussian bound, "
                  f"eta {eta:.4f}, eps {eps}) < 1/sqrt(2) in {certified}/20 seeds "
                  f"(need >= 18); range [{min(values):.2f}, {max(values):.2f}]")
    assert ok


def test_criterion_6b_monte_carlo_below_exact():
    mats, _ = _certification_instances()
    ok = True
    worst_gap = -math.inf
    for i, a in enumerate(mats[:10]):
        exact = ric_exact(a, 4).value
        mc = ric_monte_carlo(a, 4, 400, RngStream(900 + i)).value
        worst_gap = max(worst_gap, mc - exact)
        ok &= mc <= exact + 1e-15
    report(6, ok, f"monte-carlo minus exact worst gap {worst_gap:.2e} (must be <= 0)")
    assert ok


def test_criterion_7_bpdn_soundness(sweep_r1, sweep_r2):
    recs = sweep_r1 + sweep_r2
    slack = max(rec.bpdn_l1_slack for rec in recs)
    viol = max(rec.bpdn_violation for rec in recs)
    res = bpdn_solve([[2.0, 1.0]], [2.0], 0.0)
    hand_err = float(np.max(np.abs(res.x - np.array([1.0, 0.0]))))
    ok = slack <= 1e-6 and viol <= 1e-6 and hand_err <= 1e-6
    report(7, ok, f"over {len(recs)} trials: max l1 slack {slack:.2e}, "
                  f"max violation {viol:.2e} (<=1e-6); hand instance err {hand_err:.2e}")
    assert ok


def test_criterion_8_rotation_invariance_and_small_ball():
    phi = sample_matrix(Ensemble("gaussian"), 250, 400, RngStream(2024))
    proj = projected_matrix(phi, 2, 250) * math.sqrt(250)  # undo the 1/sqrt(ell)
    assert proj.size == 100_000
    mean, var = float(proj.mean()), float(proj.var())
    moments_ok = -0.02 < mean < 0.02 and 0.97 < var < 1.03

    ell = projection_dim(200, 5, 0.7)
    summary = small_ball_probe(Ensemble("gaussian"), 200, 2, ell, 10_000, RngStream(2025))
    ball_dev = abs(summary.mean - ell) / ell
    ball_ok = ball_dev < 0.05

    ok = moments_ok and ball_ok
    report(8, ok, f"projected entries mean {mean:+.4f} var {var:.4f} at 1e5 samples; "
                  f"small-ball mean {summary.mean:.2f} vs ell={ell} ({ball_dev:.2%} off)")
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    y_file = tmp_path / "y.txt"
    y_file.write_text("1 5\n0.37 -1.42 0.88 2.05 -0.11\n")  # one-row fixture
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "ensemble = gaussian\nn = 48\ns = 3\nr = 2\ndelta = 0.02\n"
        "alpha = 0.7\nm_grid = 24,48\ntrials = 2\nseed = 31\n"
    )
    invocations = [
        ["gen", "--kind", "matrix", "--ensemble", "gaussian",
         "--m", "6", "--n", "5", "--seed", "2"],
        ["quantize", "--order", "2", "--delta", "0.25", "--input", str(y_file)],
        ["reconstruct", "--ensemble", "gaussian", "--n", "48", "--s", "3",
         "--m", "40", "--order", "2", "--delta", "0.02", "--alpha", "0.7",
         "--seed", "8"],
        ["ripscan", "--mode", "mc", "--s", "2", "--trials", "60",
         "--project", "1,8", "--ensemble", "gaussian", "--m", "30", "--n", "10",
         "--seed", "4"],
        ["sweep", "--config", str(cfg)],
    ]
    ok = True
    for i, args in enumerate(invocations):
        a = tmp_path / f"out_{i}_a.csv"
        b = tmp_path / f"out_{i}_b.csv"
        flag = "--out"
        assert cli_main(args + [flag, str(a)]) == 0
        assert cli_main(args + [flag, str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    report(9, ok, f"{len(invocations)} CLI invocations repeated with fixed seeds, "
                  f"all byte-identical")
    assert ok
