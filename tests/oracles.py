"""Reference operators that only the tests use."""

import numpy as np


def difference_matrix(m: int) -> np.ndarray:
    """m x m first-order difference operator: +1 diagonal, -1 first subdiagonal."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.eye(m) - np.eye(m, k=-1)
