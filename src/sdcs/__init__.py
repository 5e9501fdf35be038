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
    SweepConfig,
    SweepRecord,
    SweepSummary,
    fit_loglog_slope,
    read_sweep_csv,
    run_decay_sweep,
    run_msq_baseline,
    summarize,
    summary_to_csv,
    summary_to_text,
    sweep_records_to_csv,
)
from .linalg import read_matrix_text, write_matrix_text
from .measurement import Ensemble, SparseSignal, sample_matrix, sample_sparse_signal
from .quantizer import (
    QuantizationOutput,
    QuantizerConfig,
    quantization_noise_bound,
    sigma_delta_quantize,
)
from .recovery import (
    BpdnResult,
    DegenerateDrawError,
    MsqTrialResult,
    RecoveryReport,
    bpdn_solve,
    full_pipeline,
    msq_trial,
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
