import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdcs.rip as rip
from oracles import inverse_difference_power, ric_exact_reference, ric_monte_carlo_reference
from sdcs.difference import projected_basis
from sdcs.measurement import Ensemble, sample_matrix
from sdcs.recovery import full_pipeline
from sdcs.rip import (
    SmallBallSummary,
    projected_matrix,
    ric_exact,
    ric_monte_carlo,
    small_ball_probe,
)
from sdcs.rng import RngStream


def test_exact_orthonormal_columns_order_one():
    q, _ = np.linalg.qr(RngStream(1).normals(36).reshape(6, 6))
    est = ric_exact(q[:, :4], 1)
    assert est.mode == "exact"
    assert est.supports_checked == 4
    assert est.value <= 1e-10


def test_exact_identical_columns():
    # Gram [[1,1],[1,1]] has eigenvalues {0, 2}: constant is exactly 1
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    est = ric_exact(a, 2)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.supports_checked == 1


def test_exact_monotone_in_order():
    a = sample_matrix(Ensemble("gaussian"), 12, 8, RngStream(5)) / math.sqrt(12)
    values = [ric_exact(a, s).value for s in (1, 2, 3, 4)]
    assert all(b >= a_ - 1e-12 for a_, b in zip(values, values[1:]))


def test_exact_cap(monkeypatch):
    monkeypatch.setattr(rip, "ENUMERATION_CAP", 1000)
    with pytest.raises(ValueError, match="monte_carlo"):
        ric_exact(np.ones((2, 40)), 10)
    assert ric_exact(np.ones((2, 10)), 3).supports_checked == 120


def test_exact_matches_definition_spot_check():
    # for random sparse unit x, (1-delta) <= ||Ax||^2 <= (1+delta)
    rng = RngStream(8)
    a = sample_matrix(Ensemble("gaussian"), 30, 10, rng) / math.sqrt(30)
    s = 3
    delta = ric_exact(a, s).value
    for _ in range(200):
        idx = rng.choose_indices(10, s)
        x = np.zeros(10)
        x[idx] = rng.normals(s)
        x /= np.linalg.norm(x)
        nsq = np.linalg.norm(a @ x) ** 2
        assert (1.0 - delta) - 1e-9 <= nsq <= (1.0 + delta) + 1e-9


def test_monte_carlo_exhaustion_equals_exact():
    a = sample_matrix(Ensemble("gaussian"), 10, 4, RngStream(2)) / math.sqrt(10)
    exact = ric_exact(a, 2)
    mc = ric_monte_carlo(a, 2, 500, RngStream(3))
    # 500 draws cover all comb(4,2)=6 supports
    assert mc.value == pytest.approx(exact.value, abs=1e-12)
    assert mc.mode == "monte-carlo"
    assert mc.supports_checked == 500


def test_monte_carlo_running_max_monotone():
    a = sample_matrix(Ensemble("gaussian"), 20, 12, RngStream(4)) / math.sqrt(20)
    # same seed: the first 10 sampled supports are a prefix of the first 100
    small = ric_monte_carlo(a, 3, 10, RngStream(9)).value
    large = ric_monte_carlo(a, 3, 100, RngStream(9)).value
    assert large >= small - 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monte_carlo_never_exceeds_exact(seed):
    a = sample_matrix(Ensemble("gaussian"), 25, 10, RngStream(seed)) / math.sqrt(25)
    exact = ric_exact(a, 3).value
    mc = ric_monte_carlo(a, 3, 300, RngStream(seed + 100)).value
    assert mc <= exact + 1e-15


def test_gaussian_rip_regime_monte_carlo():
    # m = 200 rows comfortably support s = 4 at N = 40 after 1/sqrt(m) scaling
    phi = sample_matrix(Ensemble("gaussian"), 200, 40, RngStream(12))
    est = ric_monte_carlo(phi / math.sqrt(200), 4, 2000, RngStream(13))
    assert est.value < 1.0 / math.sqrt(2.0)


@st.composite
def scan_inputs(draw):
    """(a, s) with s = 1 and s = n among the orders, over gaussian,
    identical, orthonormal and orthogonal (diagonal Gram) columns.  A
    diagonal Gram makes the Gershgorin bound exact, so only the pruning
    margin separates solving a support from skipping it."""
    kind = draw(st.sampled_from(["gaussian", "identical", "orthonormal", "diagonal"]))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(n, 10))
    s = draw(st.sampled_from([1, n]) | st.integers(1, n))
    g = RngStream(draw(st.integers(0, 2**32))).normals(m * m).reshape(m, m)
    if kind == "gaussian":
        a = g[:, :n] / math.sqrt(m)
    elif kind == "identical":
        a = np.repeat(g[:, :1], n, axis=1) / np.linalg.norm(g[:, 0])
    elif kind == "orthonormal":
        a = np.linalg.qr(g)[0][:, :n]
    else:
        a = np.zeros((m, n))
        a[np.arange(n), np.arange(n)] = np.abs(g[0, :n]) + 0.5
    return a, s


def columns_with_gram(diag, entries):
    """Columns whose Gram matrix has the given diagonal and the given
    symmetric off-diagonal entries {(i, j): value}, zero elsewhere."""
    g = np.diag(np.asarray(diag, dtype=float))
    for (i, j), value in entries.items():
        g[i, j] = g[j, i] = value
    return np.linalg.cholesky(g).T


# A star (a center column and two spokes) that the exact scan meets after
# a correlated pair whose deviation lies between the star's deviation and a
# bound that omits one term of the star's row sums: the largest index's
# row; a prefix row's largest-index term, on the upper and on the lower
# side; and a prefix pair's term in the later row of the pair.
STARS_AFTER_DECOYS = [
    columns_with_gram([1, 1, 1, 1, 1], {(0, 1): 0.7, (2, 4): 0.6, (3, 4): 0.6}),
    columns_with_gram([1.5, 1.5, 1.5, 1, 1], {(1, 2): 0.73, (0, 3): 0.7, (0, 4): 0.7}),
    columns_with_gram([0.8, 1, 1, 1, 1], {(1, 2): 0.58, (0, 3): 0.35, (0, 4): 0.35}),
    columns_with_gram([1, 1.5, 1.5, 1.5, 1], {(1, 2): 0.73, (0, 3): 0.7, (3, 4): 0.7}),
]


def equicorrelated(n, corr):
    """Columns whose Gram matrix is (1 - corr) I + corr J up to rounding."""
    return np.linalg.cholesky((1.0 - corr) * np.eye(n) + corr * np.ones((n, n))).T


# Instances that run each branch of the Cholesky certification at _CHUNK = 1
# and at 256 (test_certification_branches_run), as (a, s):
# - running maximum below 1, every chunk certified;
# - below 1, a chunk that passes the upper test and fails the lower one:
#   the pair (0, 1) has eigenvalues 0.5 and 1.1 and comes after every
#   support with column 2, whose deviations are 0.2, so a scan without the
#   lower test returns 0.2;
# - at least 1, a certified chunk (and a failed one at _CHUNK = 1);
# - at least 1, identical columns: every support ties the maximum and fails.
CERTIFIED_BELOW_ONE = (sample_matrix(Ensemble("gaussian"), 40, 12, RngStream(0)) / math.sqrt(40), 3)
LOWER_SIDE_SETS_THE_MAXIMUM = (columns_with_gram([0.8, 0.8, 1.0], {(0, 1): 0.3}), 2)
CERTIFIED_ABOVE_ONE = (sample_matrix(Ensemble("gaussian"), 8, 10, RngStream(3)) / math.sqrt(8), 4)
TIES_ABOVE_ONE = (np.ones((3, 8)) / math.sqrt(3), 3)
CERTIFICATION_CASES = [CERTIFIED_BELOW_ONE, LOWER_SIDE_SETS_THE_MAXIMUM,
                       CERTIFIED_ABOVE_ONE, TIES_ABOVE_ONE]
# Every support's deviations tie to within a few ulps, on the lower side at
# corr < 0 and on the upper side at corr > 0: only the margin mu keeps a
# chunk that ties the maximum from being certified, and without it the
# value drops by ulps.
NEAR_TIES = [(equicorrelated(10, -0.1), 3), (equicorrelated(8, -0.1), 5),
             (equicorrelated(12, 0.1), 4)]
# The first group (largest index 4, squared norm 3) sets w = 2 > 1, so the
# exact scan forms only the upper Gershgorin term from then on; each later
# support with column 0 (squared norm 0.2) has a lower term, 0.8 or 0.9,
# above its upper term.
UPPER_TERM_ALONE = (columns_with_gram([0.2, 1, 1, 1, 3], {(1, 2): 0.3, (0, 3): 0.1}), 3)


def gram_rounded_below_zero(pairs):
    """Columns in nearly dependent pairs, (0, 1), (2, 3), ..., whose
    computed Gram matrix fl(A^T A) is indefinite by more than the scans'
    rounding margins but within the floor g of the sdcs.rip docstring.

    Each pair shares two rows of 1/2, so G_ii, and G_ij within a pair,
    start at 1/2 exactly, and pairs are orthogonal.  Pair k then gets
    pairs[k] event rows, one every 1024 rows, with t on its first column
    and t' on its second: t^2 = 0.45 and t'^2 = 1.45 units in the last
    place of 1/2 (2^-53), t t' = 0.81.  Each event is one product added to
    a running sum in [1/2, 1): rounded, the two G_ii gain 0 and 1 unit and
    G_ij gains 1, where the exact sums gain 0.45, 1.45 and 0.81.  So each
    event lowers the computed determinant by 1/2 unit, and the pair's
    computed smallest eigenvalue by eps / 4.  The sums stay coherent only
    if no two events share a block of BLAS's inner dimension: OpenBLAS
    0.3.31's Haswell kernels need a spacing of 384 rows or more.
    """
    t, t2 = math.sqrt(0.45) * 2.0**-26.5, math.sqrt(1.45) * 2.0**-26.5
    head = 2 * len(pairs)
    a = np.zeros((head + max(pairs) * 1024, head))
    for k, events in enumerate(pairs):
        a[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 0.5
        a[head:head + events * 1024:1024, 2 * k] = t
        a[head:head + events * 1024:1024, 2 * k + 1] = t2
    return a


# The lower side of pair (2, 3), at 1 + 140 eps, sets the running maximum
# in the exact scan's first group (largest index 3), and pair (0, 1), at
# 1 + 175 eps, comes last.  Both lie above 1 + the rounding margin of the
# lower-side rule (123 eps at s = 2) and below 1 + g (g = m eps S, about
# 7e5 eps here): a scan that took the computed Gram for positive
# semidefinite, in the rule's threshold or in the Gershgorin lower term,
# prunes (0, 1) and returns 1 + 140 eps.
GRAM_BELOW_ZERO = (gram_rounded_below_zero([700, 560]), 2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(scan_inputs(), st.integers(1, 40), st.integers(0, 2**32),
       st.sampled_from([(16_384, 256), (5, 2), (3, 1), (1, 1)]))
@example(CERTIFIED_BELOW_ONE, 40, 4, (16_384, 1))
@example(CERTIFIED_BELOW_ONE, 40, 4, (16_384, 256))
@example(LOWER_SIDE_SETS_THE_MAXIMUM, 40, 5, (16_384, 1))
@example(LOWER_SIDE_SETS_THE_MAXIMUM, 40, 5, (16_384, 256))
@example(LOWER_SIDE_SETS_THE_MAXIMUM, 40, 5, (1, 1))
@example(CERTIFIED_ABOVE_ONE, 40, 6, (16_384, 1))
@example(CERTIFIED_ABOVE_ONE, 40, 6, (16_384, 256))
@example(TIES_ABOVE_ONE, 40, 7, (16_384, 1))
@example(TIES_ABOVE_ONE, 40, 7, (16_384, 256))
@example(TIES_ABOVE_ONE, 40, 7, (5, 2))
@example(NEAR_TIES[0], 40, 8, (16_384, 1))
@example(NEAR_TIES[0], 40, 8, (16_384, 256))
@example(NEAR_TIES[1], 40, 9, (16_384, 1))
@example(NEAR_TIES[1], 40, 9, (16_384, 256))
@example(NEAR_TIES[2], 40, 10, (16_384, 1))
@example(NEAR_TIES[2], 40, 10, (16_384, 256))
@example(UPPER_TERM_ALONE, 40, 11, (16_384, 1))
@example(UPPER_TERM_ALONE, 40, 11, (16_384, 256))
@example(GRAM_BELOW_ZERO, 40, 12, (16_384, 1))
@example(GRAM_BELOW_ZERO, 40, 12, (1, 1))
@example((np.eye(3), 3), 1, 0, (16_384, 256))
@example((np.diag([1.5, 0.5, 1.5, 0.5]), 2), 30, 1, (5, 2))
@example((np.diag([1.5, 0.5, 1.5, 0.5, 1.25, 0.75]), 3), 30, 2, (1, 1))
@example((STARS_AFTER_DECOYS[0], 3), 1, 3, (1, 1))
@example((STARS_AFTER_DECOYS[1], 3), 1, 3, (1, 1))
@example((STARS_AFTER_DECOYS[2], 3), 1, 3, (1, 1))
@example((STARS_AFTER_DECOYS[3], 3), 1, 3, (1, 1))
def test_pruned_scans_equal_every_support_scan(inputs, trials, seed, sizes):
    # Small sizes send one scan through many eigvalsh calls, and through
    # many prefix chunks (exact) or support blocks (Monte Carlo).
    a, s = inputs
    with mock.patch.multiple(rip, _BLOCK=sizes[0], _CHUNK=sizes[1]):
        exact = ric_exact(a, s)
        mc_stream, ref_stream = RngStream(seed), RngStream(seed)
        mc = ric_monte_carlo(a, s, trials, mc_stream)
    assert exact.value == ric_exact_reference(a, s)
    assert mc.value == ric_monte_carlo_reference(a, s, trials, ref_stream)
    assert mc_stream.counter == ref_stream.counter


@pytest.mark.parametrize("chunk", [1, 256])
def test_certification_branches_run(monkeypatch, chunk):
    # Each branch of the certification runs on CERTIFICATION_CASES:
    # certified and not, with the running maximum below 1 (both sides
    # factored) and at least 1 (the upper side alone).
    ran = set()
    certified = rip._certified

    def counting(subs, worst, floor):
        result = certified(subs, worst, floor)
        ran.add((worst < 1.0, result))
        return result

    monkeypatch.setattr(rip, "_certified", counting)
    monkeypatch.setattr(rip, "_CHUNK", chunk)
    for a, s in CERTIFICATION_CASES:
        ric_exact(a, s)
    assert ran == {(True, True), (True, False), (False, True), (False, False)}


def test_both_scans_drop_the_lower_term_past_the_rule(monkeypatch):
    # _extension_live (UPPER_TERM_ALONE) and the Monte Carlo bound
    # (TIES_ABOVE_ONE, whose first block of 5 supports sets w = 2) each form
    # the full bound while the lower side is live and the upper term alone
    # once the lower-side rule holds.
    lows = []
    bound = rip._bound

    def recording(top, low, s, floor):
        lows.append(low is None)
        return bound(top, low, s, floor)

    monkeypatch.setattr(rip, "_bound", recording)
    monkeypatch.setattr(rip, "_BLOCK", 5)
    ric_exact(*UPPER_TERM_ALONE)
    exact, lows[:] = set(lows), []
    ric_monte_carlo(*TIES_ABOVE_ONE, 40, RngStream(7))
    assert exact == set(lows) == {False, True}


def count_solved(monkeypatch) -> list:
    """The sizes of the eigvalsh calls made from now on, appended as made."""
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(x):
        solved.append(x.shape[0])
        return eigvalsh(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return solved


def test_exact_scan_solves_few_supports_at_large_s(monkeypatch):
    # delta_9 of a gaussian 100 x 18 matrix scaled by 1/10 (value 0.60),
    # over comb(18, 9) = 48,620 supports.  The Gershgorin bound is loose at
    # s = 9: it leaves 48,595 supports for eigvalsh.  The certification
    # leaves 1,280.
    a = sample_matrix(Ensemble("gaussian"), 100, 18, RngStream(1809)) / 10
    solved = count_solved(monkeypatch)
    est = ric_exact(a, 9)
    assert est.supports_checked == 48_620
    assert sum(solved) < 0.1 * 48_620
    assert est.value == ric_exact_reference(a, 9)


def test_exact_scan_solves_few_supports_on_rip_diag_instance(monkeypatch):
    # The first exact instance of the rip-diag benchmark workload (seed
    # 20240): a gaussian 200 x 48 matrix, its scaled 16-row order-2
    # projection and delta_4 over all comb(48, 4) = 194,580 supports.
    # Losing the pruning sends every support to eigvalsh.
    phi = sample_matrix(Ensemble("gaussian"), 200, 48,
                        RngStream(20240).substream(("exact", "matrix", 0)))
    a = projected_matrix(phi, 2, 16)
    solved = count_solved(monkeypatch)
    est = ric_exact(a, 4)
    assert est.supports_checked == 194_580
    assert sum(solved) < 0.1 * 194_580
    assert est.value == ric_exact_reference(a, 4)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("block", [16_384, 7, 1])
def test_colex_chunks_visit_every_support_once(n, block):
    for s in range(1, n + 1):
        seen = []
        with mock.patch.object(rip, "_BLOCK", block):
            for prefixes, extensions in rip._colex_chunks(n, s):
                assert prefixes.shape[0] == s - 1 and prefixes.shape[1] <= block
                assert [last for last, _ in extensions] == sorted(
                    (last for last, _ in extensions), reverse=True)
                for last, count in extensions:
                    seen += [(*col, last) for col in prefixes[:, :count].T.tolist()]
        assert sorted(seen) == list(combinations(range(n), s))


@pytest.mark.parametrize(("n", "s", "fills"), [
    pytest.param(70, 4, False, id="70-4"),
    pytest.param(20, 10, False, id="20-10"),
    pytest.param(20, 10, True, id="20-10-live-supports-fill-the-pool"),
])
def test_exact_scan_memory_is_bounded_by_the_chunk(monkeypatch, n, s, fills):
    # Memory is the Gram matrix, a chunk of _BLOCK prefixes (indices, row
    # sums and 2 G_ii - R_i, s - 1 of each per prefix) and block-sized
    # vectors, the pool of live supports among them, whatever
    # comb(n - 1, s - 1) is: with all prefixes in one chunk the peak is
    # 8.0 MiB at (70, 4) and 26.8 MiB at (20, 10).
    if fills:
        # Gaussian, delta_10 = 0.84: the Gershgorin bound is loose at
        # s = 10, so live supports fill the pool to its cap.  A pool solved
        # only at the end of each chunk peaks at 5.6 MiB here.
        a = sample_matrix(Ensemble("gaussian"), 100, n, RngStream(7)) / 10
    else:
        # The last s columns correlate pairwise by 0.1, so delta_s =
        # (s - 1) 0.1 and the Gershgorin bound is exact on every support:
        # few reach eigvalsh.
        a = columns_with_gram(np.ones(n), {pair: 0.1 for pair in combinations(range(n - s, n), 2)})
    solved = []
    solve = rip._solve

    def recording(gram, bound, *args):
        solved.append(bound.size)
        return solve(gram, bound, *args)

    monkeypatch.setattr(rip, "_solve", recording)
    budget = 8 * (n * n + 3 * (s - 1) * rip._BLOCK) + 2 * 2**20
    tracemalloc.start()
    try:
        est = ric_exact(a, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if fills:
        assert max(solved) > 0.9 * rip._BLOCK
    else:
        assert est.value == pytest.approx((s - 1) * 0.1, rel=1e-12)
    assert math.comb(n - 1, s - 1) > rip._BLOCK
    assert peak <= budget


def test_projected_matrix_shape_and_scaling():
    phi = sample_matrix(Ensemble("gaussian"), 30, 9, RngStream(6))
    for ell in (1, 7, 30):
        proj = projected_matrix(phi, 2, ell)
        assert proj.shape == (ell, 9)
    with pytest.raises(ValueError):
        projected_matrix(phi, 2, 0)
    with pytest.raises(ValueError):
        projected_matrix(phi, 2, 31)


def test_projected_matrix_full_projection_of_orthogonal_columns():
    m, k = 16, 5
    q, _ = np.linalg.qr(RngStream(7).normals(m * m).reshape(m, m))
    phi = q[:, :k]
    proj = projected_matrix(phi, 1, m)
    gram = proj.T @ proj
    assert np.max(np.abs(gram - np.eye(k) / m)) <= 1e-10


def test_small_ball_full_projection_preserves_norms():
    m, r, trials = 20, 2, 64
    rng = RngStream(14)
    summary = small_ball_probe(Ensemble("gaussian"), m, r, m, trials, RngStream(14))
    cols = sample_matrix(Ensemble("gaussian"), m, trials, RngStream(14))
    norms = np.sum(cols**2, axis=0)
    assert summary.mean == pytest.approx(float(np.mean(norms)), rel=1e-12)


def test_small_ball_quantiles_monotone_nonnegative():
    summary = small_ball_probe(Ensemble("rademacher"), 30, 1, 6, 500, RngStream(15))
    assert isinstance(summary, SmallBallSummary)
    assert np.all(summary.quantiles >= 0.0)
    assert np.all(np.diff(summary.quantiles) >= 0.0)
    assert summary.ell == 6
    assert summary.trials == 500


def test_small_ball_gaussian_mean_near_ell():
    summary = small_ball_probe(Ensemble("gaussian"), 40, 2, 11, 4000, RngStream(16))
    assert abs(summary.mean - 11.0) / 11.0 < 0.05


def test_small_ball_column_model_mean_is_the_trace():
    # For z = S^(1/2) g, g Rademacher, E ||W z||^2 = tr(W S W^T).  The
    # quadratic form g^T A g, A = S^(1/2) W^T W S^(1/2), has variance at most
    # 2 ||A||_F^2 <= 2 ||S|| tr(A) = 3.2 tr(A) (||W|| = 1), so with
    # tr(A) = 16.6 here the mean over 4000 draws has a standard deviation
    # of 0.7% of tr(A): 5% is seven of them.
    m, r, ell = 40, 2, 11
    summary = small_ball_probe(Ensemble("column-model"), m, r, ell, 4000, RngStream(17))
    w = projected_basis(m, r, ell)
    sig = np.eye(m) + 0.3 * (np.eye(m, k=1) + np.eye(m, k=-1))
    trace = float(np.sum((w @ sig) * w))
    assert abs(summary.mean - trace) <= 0.05 * trace
    assert np.all(np.diff(summary.quantiles) >= 0.0)


def probe_peak(m: int, trials: int) -> int:
    """tracemalloc peak of a gaussian small_ball_probe at (m, 2, 16), its
    basis built beforehand."""
    projected_basis(m, 2, 16)
    tracemalloc.start()
    try:
        small_ball_probe(Ensemble("gaussian"), m, 2, 16, trials, RngStream(18))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_small_ball_holds_the_projection_not_the_draw():
    # The 2000 x 5000 draw alone is 76 MiB.  The probe keeps the 5000
    # squared norms and one window of 2^15 draws, which takes 768 KiB with
    # its raw-draw positions and Box-Muller block buffers (see _WINDOW).
    assert probe_peak(2000, 5000) <= 2 * 2**20
    # Per trial it keeps one squared norm, and np.quantile copies them: 16
    # bytes.  The growth does not depend on m, so a short m measures it.
    assert probe_peak(64, 50_000) - probe_peak(64, 5000) <= 16 * 45_000


def test_small_ball_validation():
    with pytest.raises(ValueError):
        small_ball_probe(Ensemble("gaussian"), 10, 1, 2, 0, RngStream(0))


def test_diagnostics_depend_only_on_the_span_of_the_basis(monkeypatch):
    # At the benchmark's RIP keys, (800, 2, 23) and (200, 2, 16), swap the
    # library's rows for the dense SVD's top rows.  The two span one
    # subspace to within a sine of about 1e-12 (test_difference), and each
    # diagnostic depends on the rows W only through W^T W, which moves by
    # twice that sine.  Scaled by ||Phi_T||^2 / ell (about 40 here) over
    # values of 0.4 to 16, that is below 1e-9 relative: the tolerance, a
    # thousandth of the benchmark's rel-1e-6 reference check.
    gauss = Ensemble("gaussian")
    oracle = {(m, 2, ell): np.linalg.svd(inverse_difference_power(m, 2))[2][:ell]
              for m, ell in ((800, 23), (200, 16))}

    def diagnostics():
        out = []
        for m, n, ell in ((800, 256, 23), (200, 48, 16)):
            a = projected_matrix(sample_matrix(gauss, m, n, RngStream(20240).substream(m)), 2, ell)
            out.append(ric_monte_carlo(a, 4, 1000, RngStream(4051).substream(m)).value)
        out.append(ric_exact(a, 4).value)
        probe = small_ball_probe(gauss, 200, 2, 16, 10000, RngStream(7))
        out += [probe.mean, *probe.quantiles]
        for seed in (1, 2, 3):
            rep = full_pipeline(gauss, 256, 5, 800, 2, 0.01, 0.7, RngStream(seed))
            assert rep.ell == 23
            out.append(rep.sigma_min_proj)
        return np.array(out)

    ours = diagnostics()
    monkeypatch.setattr(rip, "projected_basis", lambda m, r, ell: oracle[m, r, ell])
    dense = diagnostics()
    assert np.all(np.isfinite(dense))
    assert np.all(np.abs(ours - dense) <= 1e-9 * np.abs(dense))
