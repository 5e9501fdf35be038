"""Certified exact RIC scans equal the every-support oracle at s = 11.

Run from the repository root as

    PYTHONPATH=src:tests python tests/check_ric_oracle.py

It is not a pytest module: the oracle solves all 705,432 supports at once
(seconds, and about 0.8 GB of Gram submatrices), too much for tier-1.

The matrix is that of ``sdcs ripscan --mode exact --s 11 --ensemble
gaussian --m 100 --n 22 --seed 2211``, at --scale 0.1 and 0.2.  At 0.1 the
running maximum is 0.75 < 1, so both Cholesky tests run; at 0.2 it is 6.0,
past the lower-side rule, so only the upper test runs and both scans form
only the upper Gershgorin term.  This checks on the local LAPACK that the
certification margin, and the bound without its lower term, keep the value
bit for bit.  The Monte Carlo scan of 2000 supports is checked against its
oracle on an equal stream, and the exact scan on the pruned-scan
property's instance whose computed Gram is indefinite (GRAM_BELOW_ZERO)
against its oracle.
"""

from oracles import ric_exact_reference, ric_monte_carlo_reference
from sdcs.measurement import Ensemble, sample_matrix
from sdcs.rip import ric_exact, ric_monte_carlo
from sdcs.rng import RngStream
from test_rip import GRAM_BELOW_ZERO

for scale in (0.1, 0.2):
    a = scale * sample_matrix(Ensemble("gaussian"), 100, 22,
                              RngStream(2211).substream("ripscan-matrix"))
    value, oracle = ric_exact(a, 11).value, ric_exact_reference(a, 11)
    mc = ric_monte_carlo(a, 11, 2000, RngStream(11)).value
    mc_oracle = ric_monte_carlo_reference(a, 11, 2000, RngStream(11))
    print(scale, value, oracle, mc, mc_oracle)
    assert value == oracle and mc == mc_oracle
a, s = GRAM_BELOW_ZERO
value, oracle = ric_exact(a, s).value, ric_exact_reference(a, s)
print("indefinite Gram", value, oracle)
assert value == oracle
