import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import difference_matrix, round_each_entry, round_half_away
from sdcs.quantizer import QuantizerConfig, quantization_noise_bound, sigma_delta_quantize
from sdcs.rng import RngStream


def residual(y, out, r):
    d_pow = np.linalg.matrix_power(difference_matrix(len(y)), r)
    return d_pow @ out.u - (np.asarray(y) - out.q)


def msq(y, delta):
    """Order-0 output: each entry rounded on its own."""
    return sigma_delta_quantize(y, QuantizerConfig(r=0, delta=delta)).q


def test_config_validation():
    QuantizerConfig(r=0, delta=0.5)
    QuantizerConfig(r=1, delta=0.5)
    with pytest.raises(ValueError):
        QuantizerConfig(r=-1, delta=0.5)
    with pytest.raises(ValueError):
        QuantizerConfig(r=1.5, delta=0.5)
    with pytest.raises(ValueError):
        QuantizerConfig(r=2, delta=0.0)
    with pytest.raises(ValueError):
        QuantizerConfig(r=2, delta=math.inf)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_zero_input_fixed_point(r):
    out = sigma_delta_quantize(np.zeros(7), QuantizerConfig(r=r, delta=0.25))
    assert np.array_equal(out.q, np.zeros(7))
    assert np.array_equal(out.u, np.zeros(7))


def test_first_order_hand_case():
    out = sigma_delta_quantize([0.4, 0.4, 0.4], QuantizerConfig(r=1, delta=1.0))
    assert np.allclose(out.q, [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(out.u, [0.4, -0.2, 0.2], atol=1e-12)
    d = difference_matrix(3)
    assert np.allclose(d @ out.u, [0.4, -0.6, 0.4], atol=1e-12)


def test_second_order_hand_case():
    out = sigma_delta_quantize([0.3, 0.3, 0.3], QuantizerConfig(r=2, delta=1.0))
    assert np.allclose(out.q, [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(out.u, [0.3, -0.1, -0.2], atol=1e-12)
    d2 = np.linalg.matrix_power(difference_matrix(3), 2)
    assert np.allclose(d2 @ out.u, [0.3, -0.7, 0.3], atol=1e-12)


def test_invariants_on_random_inputs():
    rng = RngStream(55)
    for trial in range(60):
        r = 1 + trial % 3
        delta = (0.3, 1.0, 2.5)[trial % 3]
        m = 1 + int(rng.randbelow(40))
        y = 4.0 * rng.normals(m)
        cfg = QuantizerConfig(r=r, delta=delta)
        out = sigma_delta_quantize(y, cfg)
        # lattice membership
        k = out.q / delta
        assert np.max(np.abs(k - np.round(k))) <= 1e-9 * np.maximum(1.0, np.abs(k)).max()
        # greedy stability, and its l2 consequence
        assert np.max(np.abs(out.u)) <= delta / 2 + 1e-12
        assert np.linalg.norm(out.u) <= math.sqrt(m) * delta / 2 + 1e-9
        # residual identity
        tol = 1e-10 * (1.0 + np.max(np.abs(y)))
        assert np.max(np.abs(residual(y, out, r))) <= tol
        # worst-case noise bound
        assert np.linalg.norm(out.q - y) <= quantization_noise_bound(m, cfg) + 1e-9


def numpy_scalar_quantize(y, r, delta):
    """The quantizer loop on numpy scalars: the reference for the list loop."""
    coeffs = [((-1) ** (j + 1)) * math.comb(r, j) for j in range(1, r + 1)]
    u = np.zeros(y.size)
    q = np.zeros(y.size)
    for i in range(y.size):
        h = 0.0
        for j in range(1, min(r, i) + 1):
            h += coeffs[j - 1] * u[i - j]
        t = (y[i] + h) / delta
        q[i] = delta * round_half_away(t)
        u[i] = y[i] + h - q[i]
    return q, u


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    r=st.integers(0, 6),
    delta=st.floats(1e-3, 10.0),
    steps=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=48),
)
def test_identities_up_to_a_million_steps(r, delta, steps):
    y = delta * np.array(steps)
    out = sigma_delta_quantize(y, QuantizerConfig(r=r, delta=delta))
    want_q, want_u = numpy_scalar_quantize(y, r, delta)
    assert out.q.tobytes() == want_q.tobytes()
    assert out.u.tobytes() == want_u.tobytes()
    if r == 0:
        assert out.q.tobytes() == round_each_entry(y, delta).tobytes()
    # each state is a rounding remainder of a sum of size |y| + 2^r delta
    scale = np.max(np.abs(y)) + 2.0**r * delta
    eps = np.finfo(float).eps
    assert np.max(np.abs(out.u)) <= delta / 2 + 4 * eps * scale
    d_r_u = out.u
    for _ in range(r):
        d_r_u = np.diff(d_r_u, prepend=0.0)
    assert np.max(np.abs(d_r_u - (y - out.q))) <= 2.0**r * 8 * eps * scale


def test_first_order_running_sums_track():
    rng = RngStream(77)
    y = 0.7 * np.ones(25) + 0.05 * rng.normals(25)
    out = sigma_delta_quantize(y, QuantizerConfig(r=1, delta=0.5))
    partial = np.cumsum(y - out.q)
    assert np.allclose(partial, out.u, atol=1e-12)
    assert np.max(np.abs(partial)) <= 0.25 + 1e-12


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        sigma_delta_quantize([0.1, np.nan], QuantizerConfig(r=1, delta=1.0))
    with pytest.raises(ValueError):
        msq([np.inf], 1.0)


def test_msq_hand_cases():
    assert np.array_equal(msq([0.2, -0.2], 1.0), [0.0, 0.0])
    assert np.array_equal(msq([0.26], 0.5), [0.5])
    y = np.array([-2.0, 0.0, 3.5])
    assert np.array_equal(msq(y, 0.5), y)


def test_msq_half_step_ties_away_from_zero():
    assert np.array_equal(msq([0.5, -0.5, 1.5], 1.0), [1.0, -1.0, 2.0])


def test_msq_componentwise_error_bound():
    rng = RngStream(3)
    y = 10.0 * rng.normals(200)
    q = msq(y, 0.3)
    assert np.max(np.abs(q - y)) <= 0.15 + 1e-12


def test_noise_bound_values():
    assert quantization_noise_bound(4, QuantizerConfig(r=0, delta=1.0)) == 1.0
    assert quantization_noise_bound(1, QuantizerConfig(r=1, delta=1.0)) == pytest.approx(1.0)
    assert quantization_noise_bound(4, QuantizerConfig(r=2, delta=0.5)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        quantization_noise_bound(0, QuantizerConfig(r=1, delta=1.0))
