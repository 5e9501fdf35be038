"""Sweep orchestration, aggregation, and the CSV/report contracts.

A sweep runs recovery.full_pipeline over a grid of measurement counts with
several trials per grid point, each trial on its own derived random
substream, so results are reproducible and independent of execution order.
The MSQ baseline runs recovery.msq_trial on the same seeds at one grid
point.  Both hand each trial the stream of the next one at the same m, so
that trial's matrix draw can start while this one reconstructs (see
recovery); rows do not depend on it.  The trial owns its failure rule: a
degenerate draw comes back from recovery as a failed trial (infinite
error and bound), which becomes a failed row here like any other outcome.
Aggregation reports per-m medians and quartiles over the support-correct
trials, the support recovery rate, the fitted log-log decay slope of
median error against the oversampling ratio lambda = m/s, and the worst
observed ratio of error to the theoretical decay shape
delta * (m/ell)^(1/2 - r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .difference import check_exact_power
from .linalg import format_value
from .measurement import Ensemble
from .recovery import MsqTrialResult, full_pipeline, msq_trial
from .rng import RngStream, cancel_prefetch, derive_seed

SWEEP_CSV_COLUMNS = (
    "ensemble", "n", "s", "m", "r", "delta", "alpha", "ell",
    "trial", "seed", "support_correct", "err_l2", "bound_eq3", "sigma_min_proj",
)


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one decay sweep."""

    ensemble: str
    n: int
    s: int
    r: int
    delta: float
    alpha: float
    m_grid: tuple[int, ...]
    trials: int
    seed: int
    output: str | None = None

    def __post_init__(self):
        Ensemble(self.ensemble)  # validates the kind
        if not 1 <= self.s <= self.n:
            raise ValueError("need 1 <= s <= n")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if len(self.m_grid) < 1:
            raise ValueError("m_grid must be nonempty")
        if any(b <= a for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise ValueError("m_grid must be strictly increasing")
        if self.m_grid[0] < self.s:
            raise ValueError("every m must be >= s")
        check_exact_power(self.m_grid[-1], self.r)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class SweepRecord:
    """One (m, trial) outcome; the first 14 fields are the CSV contract."""

    ensemble: str
    n: int
    s: int
    m: int
    r: int
    delta: float
    alpha: float
    ell: int
    trial: int
    seed: int
    support_correct: bool
    err_l2: float
    bound_eq3: float
    sigma_min_proj: float
    # diagnostics beyond the CSV contract; nan and None where not recorded
    bpdn_l1_slack: float = math.nan
    bpdn_violation: float = math.nan
    bpdn_converged: bool | None = None
    support_tie_flag: bool | None = None

    @property
    def failed(self) -> bool:  # a degenerate draw
        return self.err_l2 == math.inf


def trial_seed(base_seed: int, m: int, trial: int) -> int:
    """Derived seed for one sweep trial; feeds RngStream directly."""
    return derive_seed(base_seed, ("sweep", m, trial))


def run_decay_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Run the pipeline over the m-grid; records come back in (m, trial) order.

    A degenerate draw is a failed row (infinite error and bound), as
    full_pipeline reports it.  Each trial but the last at its m is handed
    the next trial's stream, so the next matrix draw starts while it
    reconstructs; a draw still pending when the sweep ends by an exception
    is dropped.
    """
    ens = Ensemble(cfg.ensemble)
    records: list[SweepRecord] = []
    try:
        for m in cfg.m_grid:
            seeds = [trial_seed(cfg.seed, m, trial) for trial in range(cfg.trials)]
            for trial, seed in enumerate(seeds):
                rep = full_pipeline(ens, cfg.n, cfg.s, m, cfg.r, cfg.delta, cfg.alpha,
                                    RngStream(seed), next_rng=_next_stream(seeds, trial))
                records.append(SweepRecord(
                    ensemble=cfg.ensemble, n=cfg.n, s=cfg.s, m=m, r=cfg.r,
                    delta=cfg.delta, alpha=cfg.alpha, ell=rep.ell, trial=trial, seed=seed,
                    support_correct=rep.support_correct, err_l2=rep.err_l2,
                    bound_eq3=rep.err_bound, sigma_min_proj=rep.sigma_min_proj,
                    bpdn_l1_slack=rep.bpdn_l1_slack, bpdn_violation=rep.bpdn_violation,
                    bpdn_converged=rep.bpdn_converged, support_tie_flag=rep.support_tie_flag,
                ))
    finally:
        cancel_prefetch()
    return records


def _next_stream(seeds: list[int], trial: int) -> RngStream | None:
    """The stream of the trial after this one at the same m, if any."""
    return RngStream(seeds[trial + 1]) if trial + 1 < len(seeds) else None


def sweep_records_to_csv(records: list[SweepRecord]) -> str:
    """Render records under the fixed sweep CSV contract."""
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(format_value(getattr(rec, c)) for c in SWEEP_CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def read_sweep_csv(text: str) -> list[SweepRecord]:
    """Parse a sweep CSV back into records.

    The diagnostics the CSV does not carry read back as nan or None.
    support_correct must be 0 or 1.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(lines[0].split(",")) != SWEEP_CSV_COLUMNS:
        raise ValueError("not a sweep CSV: bad or missing header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(SWEEP_CSV_COLUMNS):
            raise ValueError(f"bad sweep CSV row: {ln!r}")
        d = dict(zip(SWEEP_CSV_COLUMNS, parts))
        if d["support_correct"] not in ("0", "1"):
            raise ValueError(f"bad sweep CSV row: support_correct must be 0 or 1: {ln!r}")
        records.append(SweepRecord(
            ensemble=d["ensemble"], n=int(d["n"]), s=int(d["s"]), m=int(d["m"]),
            r=int(d["r"]), delta=float(d["delta"]), alpha=float(d["alpha"]),
            ell=int(d["ell"]), trial=int(d["trial"]), seed=int(d["seed"]),
            support_correct=d["support_correct"] == "1",
            err_l2=float(d["err_l2"]), bound_eq3=float(d["bound_eq3"]),
            sigma_min_proj=float(d["sigma_min_proj"]),
        ))
    return records


def fit_loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(err) against log(lambda)."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    lam = np.array([p[0] for p in points], dtype=np.float64)
    err = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(lam <= 0) or np.any(err <= 0):
        raise ValueError("lambda and err must be positive")
    ll = np.log(lam)
    if np.all(ll == ll[0]):
        raise ValueError("degenerate fit: all lambda values equal")
    le = np.log(err)
    ll_c = ll - ll.mean()
    return float((ll_c @ (le - le.mean())) / (ll_c @ ll_c))


@dataclass(frozen=True)
class SummaryRow:
    """Aggregates for one grid point, computed over support-correct trials."""

    m: int
    lam: float
    trials: int
    recovered: int
    recovery_rate: float
    err_median: float | None
    err_q1: float | None
    err_q3: float | None
    bound_median: float | None
    bound_ok_rate: float | None
    decay_ratio_max: float | None


@dataclass(frozen=True)
class SweepSummary:
    rows: tuple[SummaryRow, ...]
    slope: float | None
    decay_constant: float | None
    bound_ok_rate: float | None


def summarize(records: list[SweepRecord]) -> SweepSummary:
    """Aggregate sweep records per measurement count.

    Support-incorrect trials count toward the recovery rate but are
    excluded from the error statistics and the slope fit; the error
    bound is only guaranteed on the correct support.
    """
    if not records:
        raise ValueError("no records to summarize")
    scalars = {(r.ensemble, r.n, r.s, r.r, r.delta, r.alpha) for r in records}
    if len(scalars) > 1:
        raise ValueError("records mix different sweep configurations")
    rows = []
    all_ok_flags: list[bool] = []
    decay_all: list[float] = []
    for m in sorted({r.m for r in records}):
        group = [r for r in records if r.m == m]
        good = [r for r in group if r.support_correct and not r.failed]
        lam = m / group[0].s
        if good:
            errs = np.array([r.err_l2 for r in good])
            bounds = np.array([r.bound_eq3 for r in good])
            ok = [bool(r.err_l2 <= r.bound_eq3) for r in good]
            all_ok_flags.extend(ok)
            decay = [
                r.err_l2 / (r.delta * (r.m / r.ell) ** (0.5 - r.r)) for r in good
            ]
            decay_all.extend(decay)
            rows.append(SummaryRow(
                m=m, lam=lam, trials=len(group), recovered=len(good),
                recovery_rate=len(good) / len(group),
                err_median=float(np.median(errs)),
                err_q1=float(np.quantile(errs, 0.25)),
                err_q3=float(np.quantile(errs, 0.75)),
                bound_median=float(np.median(bounds)),
                bound_ok_rate=sum(ok) / len(ok),
                decay_ratio_max=max(decay),
            ))
        else:
            rows.append(SummaryRow(
                m=m, lam=lam, trials=len(group), recovered=0, recovery_rate=0.0,
                err_median=None, err_q1=None, err_q3=None, bound_median=None,
                bound_ok_rate=None, decay_ratio_max=None,
            ))
    fit_points = [(row.lam, row.err_median) for row in rows
                  if row.err_median is not None and row.err_median > 0]
    slope = fit_loglog_slope(fit_points) if len(fit_points) >= 2 else None
    return SweepSummary(
        rows=tuple(rows),
        slope=slope,
        decay_constant=max(decay_all) if decay_all else None,
        bound_ok_rate=(sum(all_ok_flags) / len(all_ok_flags)) if all_ok_flags else None,
    )


SUMMARY_CSV_COLUMNS = (
    "m", "lambda", "trials", "recovered", "recovery_rate", "median_err",
    "q1_err", "q3_err", "median_bound", "bound_ok_rate", "max_err_over_decay",
)


def _opt(value) -> str:
    return "" if value is None else format_value(value)


def summary_to_csv(summary: SweepSummary) -> str:
    lines = [",".join(SUMMARY_CSV_COLUMNS)]
    for row in summary.rows:
        lines.append(",".join([
            str(row.m), format_value(row.lam), str(row.trials), str(row.recovered),
            format_value(row.recovery_rate), _opt(row.err_median), _opt(row.err_q1),
            _opt(row.err_q3), _opt(row.bound_median), _opt(row.bound_ok_rate),
            _opt(row.decay_ratio_max),
        ]))
    return "\n".join(lines) + "\n"


def summary_to_text(summary: SweepSummary) -> str:
    out = ["decay sweep summary", ""]
    out.append(f"{'m':>6} {'lambda':>9} {'recov':>7} {'median_err':>13} "
               f"{'q1':>11} {'q3':>11} {'median_bound':>13}")
    for row in summary.rows:
        med = f"{row.err_median:.6g}" if row.err_median is not None else "-"
        q1 = f"{row.err_q1:.6g}" if row.err_q1 is not None else "-"
        q3 = f"{row.err_q3:.6g}" if row.err_q3 is not None else "-"
        bnd = f"{row.bound_median:.6g}" if row.bound_median is not None else "-"
        out.append(f"{row.m:>6} {row.lam:>9.4g} {row.recovered:>3}/{row.trials:<3} "
                   f"{med:>13} {q1:>11} {q3:>11} {bnd:>13}")
    out.append("")
    slope = f"{summary.slope:.4f}" if summary.slope is not None else "undefined"
    out.append(f"log-log slope of median error vs lambda: {slope}")
    if summary.decay_constant is not None:
        out.append(f"max err / (delta * (m/ell)^(1/2 - r)): {summary.decay_constant:.6g}")
    if summary.bound_ok_rate is not None:
        out.append(f"bound satisfaction rate (support-correct trials): {summary.bound_ok_rate:.4f}")
    return "\n".join(out) + "\n"


def run_msq_baseline(cfg: SweepConfig, m: int) -> list[MsqTrialResult]:
    """MSQ baseline over the same derived seeds as the sweep at grid point m;
    as in the sweep, a degenerate draw is a failed trial (infinite error),
    and each trial but the last starts the next one's matrix draw."""
    ens = Ensemble(cfg.ensemble)
    seeds = [trial_seed(cfg.seed, m, trial) for trial in range(cfg.trials)]
    try:
        return [msq_trial(ens, cfg.n, cfg.s, m, cfg.r, cfg.delta, RngStream(seed),
                          next_rng=_next_stream(seeds, trial))
                for trial, seed in enumerate(seeds)]
    finally:
        cancel_prefetch()


_CONFIG_FIELDS = {f.name for f in fields(SweepConfig)}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat key = value sweep config format."""
    values: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"config line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        values[key] = val.strip()
    return values


def build_sweep_config(values: dict[str, str]) -> SweepConfig:
    """Construct a SweepConfig from string values (config file or CLI)."""
    required = {"ensemble", "n", "s", "r", "delta", "alpha", "m_grid", "trials", "seed"}
    missing = sorted(required - values.keys())
    if missing:
        raise ValueError(f"missing sweep parameters: {', '.join(missing)}")
    return SweepConfig(
        ensemble=values["ensemble"],
        n=int(values["n"]),
        s=int(values["s"]),
        r=int(values["r"]),
        delta=float(values["delta"]),
        alpha=float(values["alpha"]),
        m_grid=tuple(int(p) for p in values["m_grid"].split(",") if p.strip()),
        trials=int(values["trials"]),
        seed=int(values["seed"]),
        output=values.get("output"),
    )
