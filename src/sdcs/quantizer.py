"""Greedy feedback (sigma-delta) quantization onto the lattice delta*Z.

The r-th order scheme quantizes a vector sequentially, feeding the last r
state values back into each step so that the quantization error is shaped
into an r-th order difference: with states u and outputs q,
``D^r u = y - q`` exactly, and the greedy output choice keeps every state
within half a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector


@dataclass(frozen=True)
class QuantizerConfig:
    """Feedback order r >= 1 and lattice step delta > 0."""

    r: int
    delta: float

    def __post_init__(self):
        if not isinstance(self.r, (int, np.integer)) or self.r < 1:
            raise ValueError("r must be an integer >= 1")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and positive")


@dataclass(frozen=True)
class QuantizationOutput:
    """Quantized sequence q (multiples of delta) and state sequence u."""

    q: np.ndarray
    u: np.ndarray


def _round_half_away(t: float) -> int:
    # Fixed tie-break so outputs are platform-deterministic.
    k = math.floor(abs(t) + 0.5)
    return k if t >= 0 else -k


def sigma_delta_quantize(y, cfg: QuantizerConfig) -> QuantizationOutput:
    """Run the r-th order greedy feedback quantizer over y.

    Step i forms the feedback term h_i from the previous r states
    (binomial weights, alternating signs), rounds y_i + h_i to the
    nearest lattice point q_i, and stores the remainder as the new state
    u_i = y_i + h_i - q_i.  States before the start are zero.

    Guarantees, up to float roundoff: q_i/delta integer, |u_i| <= delta/2,
    and the residual identity D^r u = y - q.
    """
    y = as_vector(y, "y")
    r, delta = cfg.r, cfg.delta
    # h_i = sum_{j=1..r} (-1)^(j+1) C(r, j) u_{i-j}
    coeffs = [((-1) ** (j + 1)) * math.comb(r, j) for j in range(1, r + 1)]
    # Python floats carry the same IEEE doubles as numpy scalars, at a
    # fraction of the per-element cost.
    u: list[float] = []
    q: list[float] = []
    for i, yi in enumerate(y.tolist()):
        h = 0.0
        for j in range(1, min(r, i) + 1):
            h += coeffs[j - 1] * u[i - j]
        qi = delta * _round_half_away((yi + h) / delta)
        q.append(qi)
        u.append(yi + h - qi)
    return QuantizationOutput(q=np.array(q, dtype=np.float64), u=np.array(u, dtype=np.float64))


def msq_quantize(y, delta: float) -> np.ndarray:
    """Memoryless scalar quantization: round each entry to the nearest
    multiple of delta (ties away from zero)."""
    y = as_vector(y, "y")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be finite and positive")
    t = y / delta
    return delta * np.sign(t) * np.floor(np.abs(t) + 0.5)


def quantization_noise_bound(m: int, cfg: QuantizerConfig) -> float:
    """Worst-case l2 distance between input and greedy output:
    2^(r-1) * delta * sqrt(m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (2.0 ** (cfg.r - 1)) * cfg.delta * math.sqrt(m)
