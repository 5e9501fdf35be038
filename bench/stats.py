"""Order statistics shared by the benchmark's parent and child processes."""

from __future__ import annotations

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linearly interpolated q-quantile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def tail_percentile(values, q: float):
    """(value, None) when enough samples lie beyond the q-quantile, else (None, reason)."""
    n = len(values)
    beyond = int(n * (1.0 - q) + 1e-9)
    if beyond < MIN_BEYOND:
        return None, (f"{n} samples leave {beyond} beyond p{round(q * 100)}; "
                      f"need {MIN_BEYOND}")
    return percentile(values, q), None
