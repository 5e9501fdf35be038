import dataclasses
import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdcs.difference as difference
import sdcs.experiments as experiments
import sdcs.rng as rng_module
from sdcs.cli import main
from sdcs.experiments import (
    SWEEP_CSV_COLUMNS,
    SweepConfig,
    SweepRecord,
    build_sweep_config,
    fit_loglog_slope,
    parse_config_text,
    read_sweep_csv,
    run_decay_sweep,
    run_msq_baseline,
    summarize,
    summary_to_csv,
    summary_to_text,
    sweep_records_to_csv,
    trial_seed,
)
from sdcs.measurement import Ensemble
from sdcs.recovery import MsqTrialResult, draw_instance, full_pipeline, msq_trial
from sdcs.rng import RngStream

SMALL = SweepConfig(ensemble="gaussian", n=48, s=3, r=1, delta=0.05,
                    alpha=0.7, m_grid=(24, 48), trials=3, seed=11)


@pytest.fixture(scope="module")
def small_records():
    return run_decay_sweep(SMALL)


def test_config_validation():
    with pytest.raises(ValueError, match="increasing"):
        SweepConfig(ensemble="gaussian", n=16, s=2, r=1, delta=0.1, alpha=0.5,
                    m_grid=(20, 20), trials=1, seed=0)
    with pytest.raises(ValueError, match="m must be >= s"):
        SweepConfig(ensemble="gaussian", n=16, s=8, r=1, delta=0.1, alpha=0.5,
                    m_grid=(4, 20), trials=1, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        SweepConfig(ensemble="gaussian", n=16, s=2, r=1, delta=0.1, alpha=1.5,
                    m_grid=(8,), trials=1, seed=0)
    with pytest.raises(ValueError, match="trials"):
        SweepConfig(ensemble="gaussian", n=16, s=2, r=1, delta=0.1, alpha=0.5,
                    m_grid=(8,), trials=0, seed=0)
    with pytest.raises(ValueError, match="ensemble"):
        SweepConfig(ensemble="uniform", n=16, s=2, r=1, delta=0.1, alpha=0.5,
                    m_grid=(8,), trials=1, seed=0)
    # the quantizer's rule for delta, checked before any trial runs
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        SweepConfig(ensemble="gaussian", n=16, s=2, r=1, delta=math.inf, alpha=0.5,
                    m_grid=(8,), trials=1, seed=0)
    # the grid's largest m sets the largest entry of D^{-r}, C(m + r - 2, r - 1)
    with pytest.raises(ValueError, match=r"C\(2007, 8\) = 6.44e\+21, exceeds 2\^53"):
        SweepConfig(ensemble="gaussian", n=16, s=2, r=9, delta=0.1, alpha=0.5,
                    m_grid=(100, 2000), trials=1, seed=0)
    SweepConfig(ensemble="gaussian", n=16, s=2, r=9, delta=0.1, alpha=0.5,
                m_grid=(100, 200), trials=1, seed=0)
    # sizes and the seed are integers, checked before a trial needs them
    base = dict(ensemble="gaussian", n=16, s=2, r=1, delta=0.1, alpha=0.5,
                m_grid=(8, 12), trials=1, seed=0)
    for name, bad in (("n", 16.0), ("s", 2.0), ("trials", 1.0), ("seed", 0.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SweepConfig(**{**base, name: bad})
    with pytest.raises(ValueError, match="every m must be an integer"):
        SweepConfig(**{**base, "m_grid": (8.5, 12)})
    SweepConfig(**{**base, "n": np.int64(16), "m_grid": (np.int64(8), 12)})


def test_record_count_and_order(small_records):
    assert len(small_records) == len(SMALL.m_grid) * SMALL.trials
    expect = [(m, t) for m in SMALL.m_grid for t in range(SMALL.trials)]
    assert [(r.m, r.trial) for r in small_records] == expect
    for rec in small_records:
        assert rec.seed == trial_seed(SMALL.seed, rec.m, rec.trial)
        assert rec.err_l2 >= 0.0


def test_sweep_deterministic(small_records):
    again = run_decay_sweep(SMALL)
    assert sweep_records_to_csv(again) == sweep_records_to_csv(small_records)


ORDER_CONFIGS = {r: dataclasses.replace(SMALL, r=r, m_grid=(24, 40, 64)) for r in (1, 2)}
TRIALS = [(r, m, t) for r, cfg in ORDER_CONFIGS.items()
          for m in cfg.m_grid for t in range(cfg.trials)]


@cache
def sweep_lines():
    """CSV line of each (r, m, trial) as the whole sweep prints it."""
    lines = {}
    for r, cfg in ORDER_CONFIGS.items():
        records = run_decay_sweep(cfg)
        assert not any(rec.failed for rec in records)
        rows = sweep_records_to_csv(records).splitlines()[1:]
        lines.update(((r, rec.m, rec.trial), row) for rec, row in zip(records, rows))
    return lines


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(TRIALS), st.booleans()),
                min_size=1, max_size=8, unique_by=lambda step: step[0]))
def test_any_subset_and_order_of_trials_reproduces_the_sweep_rows(plan):
    # Each step runs one (r, m, trial) alone, after clearing the per-(m, r)
    # caches (cold) or with whatever keys the earlier steps left (warm).
    want = sweep_lines()
    for (r, m, trial), cold in plan:
        if cold:
            difference._kept.clear()
        cfg = ORDER_CONFIGS[r]
        seed = trial_seed(cfg.seed, m, trial)
        rep = full_pipeline(Ensemble(cfg.ensemble), cfg.n, cfg.s, m, r, cfg.delta,
                            cfg.alpha, RngStream(seed))
        rec = SweepRecord(
            ensemble=cfg.ensemble, n=cfg.n, s=cfg.s, m=m, r=r, delta=cfg.delta,
            alpha=cfg.alpha, ell=rep.ell, trial=trial, seed=seed,
            support_correct=rep.support_correct, err_l2=rep.err_l2,
            bound_eq3=rep.err_bound, sigma_min_proj=rep.sigma_min_proj,
        )
        assert sweep_records_to_csv([rec]).splitlines()[1] == want[(r, m, trial)]


def test_csv_header_contract(small_records):
    csv = sweep_records_to_csv(small_records)
    assert csv.splitlines()[0] == (
        "ensemble,n,s,m,r,delta,alpha,ell,trial,seed,"
        "support_correct,err_l2,bound_eq3,sigma_min_proj"
    )
    assert tuple(csv.splitlines()[0].split(",")) == SWEEP_CSV_COLUMNS


def test_csv_roundtrip(small_records):
    # a degenerate draw leaves a failed row: infinite error and bound, no
    # projection diagnostic
    failed = dataclasses.replace(small_records[-1], support_correct=False, err_l2=math.inf,
                                 bound_eq3=math.inf, sigma_min_proj=math.nan)
    records = small_records + [failed]
    csv = sweep_records_to_csv(records)
    back = read_sweep_csv(csv)
    assert sweep_records_to_csv(back) == csv
    assert len(back) == len(records)
    for a, b in zip(back, records):
        for col in SWEEP_CSV_COLUMNS:
            x, y = getattr(a, col), getattr(b, col)
            assert x == y or (math.isnan(x) and math.isnan(y))
        # failed comes back from the row; what the CSV does not carry is unknown
        assert a.failed == b.failed
        assert a.bpdn_converged is None and a.support_tie_flag is None
        assert math.isnan(a.bpdn_l1_slack) and math.isnan(a.bpdn_violation)
    assert back[-1].failed and not any(rec.failed for rec in back[:-1])
    with pytest.raises(ValueError, match="header"):
        read_sweep_csv("nope\n1,2\n")


@pytest.mark.parametrize("cell", ["true", "2", "", "01", " 1"])
def test_csv_support_correct_is_0_or_1(small_records, cell):
    lines = sweep_records_to_csv(small_records).splitlines()
    cells = lines[2].split(",")
    cells[SWEEP_CSV_COLUMNS.index("support_correct")] = cell
    bad = ",".join(cells)
    with pytest.raises(ValueError, match="support_correct must be 0 or 1") as exc:
        read_sweep_csv("\n".join(lines[:2] + [bad] + lines[3:]) + "\n")
    assert bad in str(exc.value)  # names the row


class TestSlopeFit:
    def test_two_point_exact(self):
        assert fit_loglog_slope([(1.0, 1.0), (10.0, 0.1)]) == pytest.approx(-1.0)

    def test_constant_error(self):
        pts = [(1.0, 2.0), (4.0, 2.0), (9.0, 2.0)]
        assert fit_loglog_slope(pts) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = RngStream(21)
        lams = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        noise = 1.0 + 0.01 * (2.0 * rng.uniforms(lams.size) - 1.0)
        errs = 3.0 * lams**-1.5 * noise
        slope = fit_loglog_slope(list(zip(lams, errs)))
        assert -1.55 < slope < -1.45

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(1.0, 1.0)])
        with pytest.raises(ValueError, match="equal"):
            fit_loglog_slope([(2.0, 1.0), (2.0, 0.5)])
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([(1.0, 0.0), (2.0, 1.0)])


class TestSummarize:
    def test_single_record(self, small_records):
        summary = summarize(small_records[:1])
        assert summary.slope is None
        row = summary.rows[0]
        assert row.trials == 1
        if row.recovered:
            assert row.err_median == pytest.approx(small_records[0].err_l2)

    def test_small_sweep_aggregates(self, small_records):
        summary = summarize(small_records)
        assert len(summary.rows) == 2
        for row in summary.rows:
            assert row.lam == pytest.approx(row.m / SMALL.s)
            assert 0.0 <= row.recovery_rate <= 1.0
            if row.recovered:
                assert row.err_q1 <= row.err_median <= row.err_q3
        if summary.bound_ok_rate is not None:
            assert summary.bound_ok_rate == 1.0

    def test_mixed_configs_rejected(self, small_records):
        other = run_decay_sweep(
            SweepConfig(ensemble="gaussian", n=48, s=3, r=2, delta=0.05,
                        alpha=0.7, m_grid=(24,), trials=1, seed=11)
        )
        with pytest.raises(ValueError, match="mix"):
            summarize(small_records + other)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_grid_point_without_a_correct_trial(self):
        # m = 24 has a wrong support and a degenerate draw, no correct trial
        def record(m, trial, correct, err):
            return SweepRecord(ensemble="gaussian", n=48, s=3, m=m, r=1, delta=0.05,
                               alpha=0.7, ell=10, trial=trial, seed=trial,
                               support_correct=correct, err_l2=err, bound_eq3=1.0,
                               sigma_min_proj=1.0)

        summary = summarize([record(24, 0, False, 0.5), record(24, 1, False, math.inf),
                             record(48, 0, True, 0.04), record(96, 0, True, 0.01)])
        csv_row = summary_to_csv(summary).splitlines()[1].split(",")
        assert csv_row == ["24", "8.0", "2", "0", "0.0"] + [""] * 6
        text_row = summary_to_text(summary).splitlines()[3].split()
        assert text_row == ["24", "8", "0/2", "-", "-", "-", "-"]
        assert summary.slope == fit_loglog_slope([(16.0, 0.04), (32.0, 0.01)])

    def test_renderings(self, small_records):
        summary = summarize(small_records)
        text = summary_to_text(summary)
        assert "log-log slope" in text
        csv = summary_to_csv(summary)
        header = csv.splitlines()[0]
        assert header.startswith("m,lambda,trials,recovered,recovery_rate")
        assert len(csv.splitlines()) == 1 + len(summary.rows)


def test_median_error_decreases_with_m():
    cfg = SweepConfig(ensemble="gaussian", n=64, s=3, r=1, delta=0.02,
                      alpha=0.7, m_grid=(24, 48, 96), trials=6, seed=5)
    summary = summarize(run_decay_sweep(cfg))
    meds = [row.err_median for row in summary.rows]
    assert all(m is not None for m in meds)
    assert meds[0] > meds[1] > meds[2]


def test_msq_uses_identical_instance():
    # same stream, same substream labels: signal and matrix must coincide
    n, s, m, r, delta = 48, 3, 40, 2, 0.05
    sig_a, phi_a = draw_instance(Ensemble("gaussian"), n, s, m, r, delta, RngStream(9))
    sig_b, phi_b = draw_instance(Ensemble("gaussian"), n, s, m, r, delta, RngStream(9))
    assert np.array_equal(sig_a.support, sig_b.support)
    assert np.array_equal(sig_a.values, sig_b.values)
    assert np.array_equal(phi_a, phi_b)
    res = msq_trial(Ensemble("gaussian"), n, s, m, r, delta, RngStream(9))
    assert res.err_l2 >= 0.0


def test_msq_baseline_runs_per_trial_seeds():
    out = run_msq_baseline(SMALL, SMALL.m_grid[0])
    assert len(out) == SMALL.trials
    again = run_msq_baseline(SMALL, SMALL.m_grid[0])
    assert [t.err_l2 for t in out] == [t.err_l2 for t in again]


def test_msq_baseline_records_degenerate_draws_as_failed():
    # With m = s = 2, two rademacher columns are often equal or opposite, and
    # the recovered support submatrix is then singular.  As in the sweep, such
    # trial comes back from msq_trial as failed, and the baseline goes on.
    cfg = SweepConfig("rademacher", 8, 2, 1, 0.1, 0.7, (2, 3), 10, 0)
    out = run_msq_baseline(cfg, 2)
    assert len(out) == cfg.trials
    failed = MsqTrialResult(err_l2=math.inf, support_correct=False)
    for trial, res in enumerate(out):
        rng = RngStream(trial_seed(cfg.seed, 2, trial))
        assert msq_trial(Ensemble(cfg.ensemble), cfg.n, cfg.s, 2, cfg.r, cfg.delta, rng) == res
    assert failed in out
    assert all(res == failed or math.isfinite(res.err_l2) for res in out)


# Gaussian draws of 200, 256 and 400 rows by 256 columns: below, at and
# above the size from which the next trial's draw is prefetched.
PREFETCH = dict(ensemble="gaussian", n=256, s=5, delta=0.01, alpha=0.7,
                m_grid=(200, 256, 400), trials=3, seed=20240)


def sweep_outputs(monkeypatch, cpus: int):
    """Sweep CSVs at r = 1 and 3 and the MSQ baseline at m = 400, with the
    helper allowed (cpus = 2) or not, and the prefetched jobs posted."""
    posted = []
    post = rng_module._Helper._post

    def recording_post(helper, job):
        if not job.joined:
            posted.append(job)
        return post(helper, job)

    with monkeypatch.context() as patch:
        patch.setattr(rng_module, "_usable_cpus", lambda: cpus)
        patch.setattr(rng_module._Helper, "_post", recording_post)
        csv = [sweep_records_to_csv(run_decay_sweep(SweepConfig(r=r, **PREFETCH)))
               for r in (1, 3)]
        msq = run_msq_baseline(SweepConfig(r=3, **PREFETCH), 400)
    return csv, msq, posted


def test_prefetch_changes_no_output(monkeypatch, tmp_path):
    on, msq_on, posted = sweep_outputs(monkeypatch, 2)
    off, msq_off, none = sweep_outputs(monkeypatch, 1)
    assert on == off
    assert msq_on == msq_off
    # two trials of three at m = 256 and 400 drew a prefetched matrix, in
    # each sweep and in the baseline, and every prefetch was taken
    assert len(posted) == 2 * 2 * 2 + 2
    assert all(job.joined for job in posted)
    assert none == []
    header, *rows = on[1].splitlines()
    cells = dict(zip(header.split(","), rows[-1].split(",")))
    out = tmp_path / "replay.csv"
    assert main(["reconstruct", "--ensemble", "gaussian", "--n", "256", "--s", "5",
                 "--m", cells["m"], "--order", "3", "--delta", "0.01", "--alpha", "0.7",
                 "--seed", cells["seed"], "--out", str(out)]) == 0
    replay_header, replay_row = out.read_text().splitlines()
    replay = dict(zip(replay_header.split(","), replay_row.split(",")))
    shared = [c for c in header.split(",") if c in replay]
    assert len(shared) == 13
    assert [replay[c] for c in shared] == [cells[c] for c in shared]


@pytest.mark.parametrize("trial_name, run", [
    ("full_pipeline", lambda cfg: run_decay_sweep(cfg)),
    ("msq_trial", lambda cfg: run_msq_baseline(cfg, 400)),
])
def test_an_interrupted_sweep_leaves_no_pending_draw(monkeypatch, trial_name, run):
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 2)
    trial = getattr(experiments, trial_name)

    def first_trial_then_stop(*args, **kwargs):
        trial(*args, **kwargs)
        assert rng_module._helper._job is not None  # the next trial's draw
        raise RuntimeError("stopped")

    monkeypatch.setattr(experiments, trial_name, first_trial_then_stop)
    with pytest.raises(RuntimeError, match="stopped"):
        run(SweepConfig(r=1, **dict(PREFETCH, m_grid=(400,))))
    assert rng_module._helper._job is None


def sweep_peak_mb(monkeypatch, cfg: SweepConfig, cpus: int, warm: bool) -> float:
    """tracemalloc peak of run_decay_sweep(cfg), in MB."""
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: cpus)
    if warm:
        run_decay_sweep(dataclasses.replace(cfg, trials=1))
    else:
        difference._kept.clear()
    tracemalloc.start()
    try:
        run_decay_sweep(cfg)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_prefetch_holds_one_draw_at_a_time(monkeypatch, r, warm):
    # A 3-trial sweep at m = 2000, n = 256, whose draws are 4.1 MB each.
    # Each trial drops its draw before it prefetches the next one, and the
    # helper keeps no job's array, so with the (m, r) state built the two
    # peaks differ by the helper's block buffers at most.  Cold, the first
    # trial builds D^{-r} and the basis while the next draw is pending, and
    # the helper-off run holds no draw at that point: one draw apart, never
    # two.
    cfg = SweepConfig(ensemble="gaussian", n=256, s=5, r=r, delta=0.01, alpha=0.7,
                      m_grid=(2000,), trials=3, seed=20240)
    draw_mb = 2000 * 256 * 8 / 1e6
    off = sweep_peak_mb(monkeypatch, cfg, 1, warm)
    on = sweep_peak_mb(monkeypatch, cfg, 2, warm)
    assert on < off + (draw_mb / 2 if warm else draw_mb)


class TestConfigFile:
    TEXT = """\
# decay sweep parameters
ensemble = gaussian
n = 48
s = 3
r = 1
delta = 0.05
alpha = 0.7
m_grid = 24,48
trials = 3
seed = 11
"""

    def test_parse_and_build(self):
        values = parse_config_text(self.TEXT)
        cfg = build_sweep_config(values)
        assert cfg == SMALL

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    def test_repeated_key(self):
        with pytest.raises(ValueError, match="line 3: key 'n' repeats line 1"):
            parse_config_text("n = 16\ns = 2\nn = 32\n")

    def test_empty_value(self):
        with pytest.raises(ValueError, match="line 2: key 'output' has no value"):
            parse_config_text("n = 16\noutput =\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("just some words\n")

    def test_missing_params(self):
        with pytest.raises(ValueError, match="missing sweep parameters"):
            build_sweep_config({"ensemble": "gaussian"})
