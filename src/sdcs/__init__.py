"""Feedback-quantized compressed sensing toolkit.

Measurement ensembles, greedy feedback (sigma-delta) quantization,
two-stage sparse recovery with a noise-shaping dual, restricted isometry
diagnostics, and a reproducible sweep harness.
"""

from .difference import (
    difference_power,
    inverse_difference_power,
    projected_basis,
    singular_profile,
)
from .experiments import (
    MsqTrialResult,
    SweepConfig,
    SweepRecord,
    SweepSummary,
    fit_loglog_slope,
    msq_trial,
    read_sweep_csv,
    run_decay_sweep,
    run_msq_baseline,
    summarize,
    summary_to_csv,
    summary_to_text,
    sweep_records_to_csv,
)
from .linalg import (
    least_squares,
    read_matrix_text,
    write_matrix_text,
)
from .measurement import Ensemble, SparseSignal, sample_matrix, sample_sparse_signal
from .quantizer import (
    QuantizationOutput,
    QuantizerConfig,
    msq_quantize,
    quantization_noise_bound,
    sigma_delta_quantize,
)
from .recovery import (
    BpdnResult,
    DegenerateDrawError,
    RecoveryReport,
    bpdn_solve,
    full_pipeline,
    projection_dim,
    sobolev_reconstruct,
    support_from,
)
from .rip import (
    RipEstimate,
    SmallBallSummary,
    projected_matrix,
    ric_exact,
    ric_monte_carlo,
    small_ball_probe,
)
from .rng import RngStream, derive_seed

__version__ = "0.1.0"
