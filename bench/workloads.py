"""Workload definitions: pure data, shared by the parent and the child.

Each workload is a closed loop of one caller: the ops run sequentially in
one fresh process, the next after the previous returns.  The workload seed
comes from the command line; the program only ever sees the configs below
with that seed filled in.

``min_processes`` is how many measured processes a run needs at least: so
that the pooled op latencies hold at least 100 samples (ten beyond p90), and
so that they cover enough instances for the percentiles to settle.
"""

from __future__ import annotations

# Gaussian, n=256, s=5, delta=0.01, alpha=0.7 is the acceptance configuration
# of ROADMAP aim 1; both sweep workloads keep it and change only m and r.
_SWEEP_BASE = dict(ensemble="gaussian", n=256, s=5, delta=0.01, alpha=0.7)

WORKLOADS = {
    # The paper's decay experiment as the acceptance suite runs it: 160
    # feedback-quantized trials plus the round-each-entry baseline at m=800.
    # BPDN does most of the work (about 600 iterations per trial at r=1,
    # 300 at r=2, 680 for the baseline).
    "sweep-accept": dict(
        default_seed=20240,
        held_out_seed=4049,
        min_processes=3,
        config=dict(kind="sweep", **_SWEEP_BASE, m_grid=[100, 200, 400, 800],
                    trials=20, orders=[1, 2], msq_m=800, msq_r=2, summary_checks=True),
        smoke=dict(kind="sweep", ensemble="gaussian", n=32, s=2, delta=0.01, alpha=0.7,
                   m_grid=[16, 32], trials=2, orders=[1, 2], msq_m=32, msq_r=2,
                   summary_checks=False),
    ),
    # Large m: the dense inverse difference power and its SVD dominate (about
    # 5 s per cold (2000, r) build with one BLAS thread on a 2-core x86_64 VM)
    # and the unbounded cache sets peak memory.  r=1 has the smallest spectral gap (slowest for a subspace
    # iteration), r=3 is the worst-conditioned order.  BPDN needs only 50-220
    # iterations per trial.
    "sweep-large-m": dict(
        default_seed=20240,
        held_out_seed=4050,
        min_processes=2,
        config=dict(kind="sweep", **_SWEEP_BASE, m_grid=[1000, 2000], trials=13,
                    orders=[1, 3], msq_m=None, msq_r=None, summary_checks=False),
        smoke=dict(kind="sweep", ensemble="gaussian", n=32, s=2, delta=0.01, alpha=0.7,
                   m_grid=[40, 80], trials=2, orders=[1, 3], msq_m=None, msq_r=None,
                   summary_checks=False),
    ),
    # The RIP and projection diagnostics behind `sdcs ripscan` and acceptance
    # criteria 6 and 8: no BPDN and no quantizer.  The load is rip's batched
    # eigvalsh, the per-element support sampling in rng, and the projection
    # basis, which needs singular vectors of the inverse difference power
    # rather than an applied inverse.  Every op samples its matrix, projects
    # it and scans it, as one ripscan invocation does.
    "rip-diag": dict(
        default_seed=20240,
        held_out_seed=4051,
        min_processes=5,
        config=dict(kind="rip", ensemble="gaussian", r=2, s=4,
                    mc=dict(m=800, n=256, ell=23, ops=15, supports=1000),
                    exact=dict(m=200, n=48, ell=16, ops=3, mc_supports=2000),
                    small_ball=dict(m=200, ell=16, trials=10000)),
        smoke=dict(kind="rip", ensemble="gaussian", r=2, s=2,
                   mc=dict(m=40, n=16, ell=6, ops=2, supports=50),
                   exact=dict(m=40, n=10, ell=6, ops=2, mc_supports=40),
                   small_ball=dict(m=40, ell=6, trials=2000)),
    ),
}
