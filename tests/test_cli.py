import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from sdcs.cli import main
from sdcs.experiments import read_sweep_csv
from sdcs.linalg import format_value, read_matrix_text
from sdcs.measurement import Ensemble, sample_matrix
from sdcs.quantizer import QuantizerConfig, sigma_delta_quantize
from sdcs.rip import projected_matrix, ric_exact
from sdcs.rng import RngStream

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(args):
    assert main(args) == 0


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_gen_matrix_matches_library(tmp_path):
    out = tmp_path / "phi.txt"
    run_cli(["gen", "--kind", "matrix", "--ensemble", "rademacher",
             "--m", "6", "--n", "4", "--seed", "3", "--out", str(out)])
    got = read_matrix_text(out.read_text())
    want = sample_matrix(Ensemble("rademacher"), 6, 4, RngStream(3))
    assert np.array_equal(got, want)


def test_gen_signal_respects_floor(tmp_path):
    out = tmp_path / "x.txt"
    run_cli(["gen", "--kind", "signal", "--n", "20", "--s", "4",
             "--floor", "0.5", "--seed", "9", "--out", str(out)])
    x = read_matrix_text(out.read_text()).reshape(-1)
    nz = x[x != 0.0]
    assert nz.size == 4
    assert np.min(np.abs(nz)) >= 0.5


def test_gen_signal_default_cap_is_ten_floors(tmp_path):
    floor = 0.3
    default, explicit = tmp_path / "default.txt", tmp_path / "explicit.txt"
    args = ["gen", "--kind", "signal", "--n", "40", "--s", "6", "--floor", str(floor),
            "--seed", "17"]
    run_cli(args + ["--out", str(default)])
    run_cli(args + ["--cap", repr(10.0 * floor), "--out", str(explicit)])
    assert read_bytes(default) == read_bytes(explicit)
    half = tmp_path / "half.txt"
    run_cli(args + ["--cap", repr(5.0 * floor), "--out", str(half)])
    assert read_bytes(half) != read_bytes(default)


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--kind", "matrix", "--ensemble", "gaussian",
            "--m", "5", "--n", "7", "--seed", "12"]
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert read_bytes(a) == read_bytes(b)


def test_quantize_fixture_and_plain_inputs(tmp_path):
    # the input is the matrix fixture format, one column or one row; a
    # column fixture whose values could pass for a plain list reads as the
    # fixture, and a plain list is rejected
    fixture = tmp_path / "y_fixture.txt"
    fixture.write_text("3 1\n4\n1\n5\n")
    out = tmp_path / "q.csv"
    run_cli(["quantize", "--order", "1", "--delta", "1.0",
             "--input", str(fixture), "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "q,u"
    want = sigma_delta_quantize(np.array([4.0, 1.0, 5.0]), QuantizerConfig(r=1, delta=1.0))
    got_q = [float(ln.split(",")[0]) for ln in lines[1:]]
    got_u = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert np.array_equal(got_q, want.q)
    assert np.array_equal(got_u, want.u)
    row = tmp_path / "y_row.txt"
    row.write_text("1 3\n4 1 5\n")
    out_row = tmp_path / "q_row.csv"
    run_cli(["quantize", "--order", "1", "--delta", "1.0",
             "--input", str(row), "--out", str(out_row)])
    assert read_bytes(out_row) == read_bytes(out)
    plain = tmp_path / "y_plain.txt"
    plain.write_text("0.4 0.4 0.4\n")
    assert usage_error(["quantize", "--order", "1", "--delta", "1.0",
                        "--input", str(plain)]) == (
        "sdcs quantize: error: fixture header must be 'rows cols'")


def test_quantize_rejects_order_above_cap(capsys):
    with pytest.raises(SystemExit):
        main(["quantize", "--order", "4", "--delta", "1.0", "--input", "x"])


def test_reconstruct_csv(tmp_path):
    out = tmp_path / "rep.csv"
    args = ["reconstruct", "--ensemble", "gaussian", "--n", "48", "--s", "3",
            "--m", "40", "--order", "2", "--delta", "0.02", "--alpha", "0.7",
            "--seed", "5", "--out", str(out)]
    run_cli(args)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("ensemble,n,s,m,r,delta,alpha,ell,seed,support_correct,")
    assert lines[0].endswith("recovered_support,x_hat_values")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "gaussian"
    support = [int(i) for i in fields[13].split(";")]
    values = [float(v) for v in fields[14].split(";")]
    assert len(support) == 3 and len(values) == 3
    # repeated invocation is byte-identical
    out2 = tmp_path / "rep2.csv"
    run_cli(args[:-1] + [str(out2)])
    assert read_bytes(out) == read_bytes(out2)


def test_ripscan_exact_matches_library(tmp_path):
    phi = sample_matrix(Ensemble("gaussian"), 30, 8, RngStream(2))
    fixture = tmp_path / "phi.txt"
    from sdcs.linalg import write_matrix_text

    fixture.write_text(write_matrix_text(phi / np.sqrt(30)))
    out = tmp_path / "rip.csv"
    run_cli(["ripscan", "--mode", "exact", "--s", "2",
             "--input", str(fixture), "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "s,mode,value,supports_checked"
    s, mode, value, checked = lines[1].split(",")
    want = ric_exact(phi / np.sqrt(30), 2)
    assert (int(s), mode, int(checked)) == (2, "exact", 28)
    assert float(value) == pytest.approx(want.value, abs=0.0)


def test_ripscan_scale_scans_the_scaled_fixture(tmp_path):
    # --scale multiplies the matrix as read from the fixture, before the scan
    fixture = tmp_path / "phi.txt"
    run_cli(["gen", "--kind", "matrix", "--m", "20", "--n", "9", "--seed", "6",
             "--out", str(fixture)])
    out = tmp_path / "rip.csv"
    run_cli(["ripscan", "--mode", "exact", "--s", "3", "--input", str(fixture),
             "--scale", "0.1118", "--out", str(out)])
    est = ric_exact(read_matrix_text(fixture.read_text()) * 0.1118, 3)
    want = f"s,mode,value,supports_checked\n3,exact,{format_value(est.value)},84\n"
    assert read_bytes(out) == want.encode()


def test_ripscan_projection_and_mc(tmp_path):
    out = tmp_path / "rip.csv"
    args = ["ripscan", "--mode", "mc", "--s", "2", "--trials", "50",
            "--project", "2,6", "--ensemble", "gaussian",
            "--m", "30", "--n", "10", "--seed", "4", "--out", str(out)]
    run_cli(args)
    phi = sample_matrix(Ensemble("gaussian"), 30, 10, RngStream(4).substream("ripscan-matrix"))
    proj = projected_matrix(phi, 2, 6)
    value = float(out.read_text().splitlines()[1].split(",")[2])
    exact = ric_exact(proj, 2).value
    assert value <= exact + 1e-15
    out2 = tmp_path / "rip2.csv"
    run_cli(args[:-1] + [str(out2)])
    assert read_bytes(out) == read_bytes(out2)


def test_sweep_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "ensemble = gaussian\nn = 48\ns = 3\nr = 1\ndelta = 0.05\n"
        "alpha = 0.7\nm_grid = 24,48\ntrials = 2\nseed = 11\n"
    )
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    run_cli(["sweep", "--config", str(cfg), "--out", str(out1)])
    run_cli(["sweep", "--config", str(cfg), "--out", str(out2)])
    assert read_bytes(out1) == read_bytes(out2)
    records = read_sweep_csv(out1.read_text())
    assert len(records) == 4
    # flag override shrinks the grid
    out3 = tmp_path / "sweep3.csv"
    run_cli(["sweep", "--config", str(cfg), "--m-grid", "24", "--out", str(out3)])
    assert len(read_sweep_csv(out3.read_text())) == 2


@pytest.mark.parametrize("ensemble, order, delta, grid, trials, seed, failed", [
    pytest.param("gaussian", 1, "0.02", "60,120", 2, 5, 0, id="gaussian-1"),
    pytest.param("rademacher", 2, "0.02", "60,120", 2, 5, 0, id="rademacher-2"),
    pytest.param("column-model", 3, "0.02", "60,120", 2, 5, 0, id="column-model-3"),
    # trial 12 at m = 6 is a degenerate draw: a failed row (inf error and bound)
    pytest.param("rademacher", 1, "0.01", "6", 20, 23, 1, id="rademacher-1-degenerate"),
])
def test_every_sweep_row_replays_with_reconstruct(tmp_path, ensemble, order, delta, grid,
                                                  trials, seed, failed):
    # A sweep row and `sdcs reconstruct --seed <row seed>` share every column
    # but trial; the row's cells must come back byte for byte, failed or not.
    common = ["--ensemble", ensemble, "--n", "64", "--s", "3", "--order", str(order),
              "--delta", delta, "--alpha", "0.7"]
    sweep = tmp_path / "sweep.csv"
    run_cli(["sweep", *common, "--m-grid", grid, "--trials", str(trials), "--seed", str(seed),
             "--out", str(sweep)])
    header, *rows = sweep.read_text().splitlines()
    assert len(rows) == trials * len(grid.split(","))
    seen_failed = 0
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        seen_failed += cells["err_l2"] == "inf"
        out = tmp_path / f"rep-{cells['seed']}.csv"
        run_cli(["reconstruct", *common, "--m", cells["m"], "--seed", cells["seed"],
                 "--out", str(out)])
        rep_header, rep_row = out.read_text().splitlines()
        replay = dict(zip(rep_header.split(","), rep_row.split(",")))
        shared = [c for c in header.split(",") if c in replay]
        assert len(shared) == 13
        assert [replay[c] for c in shared] == [cells[c] for c in shared]
    assert seen_failed == failed


def usage_error(args):
    """Run the CLI on bad input; return the message it exits with."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    # a string exit code prints to stderr and exits with status 1
    assert isinstance(exc.value.code, str)
    return exc.value.code


def test_gen_matrix_requires_m():
    msg = usage_error(["gen", "--kind", "matrix", "--n", "4", "--seed", "1"])
    assert msg == "sdcs gen: error: --kind matrix needs --m"


def test_gen_signal_requires_s_and_floor():
    want = "sdcs gen: error: --kind signal needs --s and --floor"
    assert usage_error(["gen", "--kind", "signal", "--n", "8", "--floor", "0.5",
                        "--seed", "1"]) == want
    assert usage_error(["gen", "--kind", "signal", "--n", "8", "--s", "2",
                        "--seed", "1"]) == want


def test_ripscan_project_requires_r_and_ell():
    base = ["ripscan", "--mode", "exact", "--s", "1", "--m", "6", "--n", "4"]
    for bad in ("2", "2,", "a,3", "2,3,4"):
        assert usage_error(base + ["--project", bad]) == (
            "sdcs ripscan: error: --project takes R,ELL with integers R and ELL")
    assert usage_error(base + ["--project", "4,2"]) == (
        "sdcs ripscan: error: projection order must be 1, 2, or 3")
    assert usage_error(["ripscan", "--mode", "exact", "--s", "1", "--m", "6"]) == (
        "sdcs ripscan: error: need --input or --ensemble with --m and --n")


def test_sweep_requires_parameters(tmp_path):
    msg = usage_error(["sweep", "--n", "10", "--out", str(tmp_path / "x.csv")])
    assert msg.startswith("sdcs sweep: error: missing sweep parameters")


def test_sweep_config_order_above_cap(tmp_path):
    # --order takes only 1-3; a config file must not get round that cap
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "ensemble = gaussian\nn = 32\ns = 2\nr = 9\ndelta = 0.01\n"
        "alpha = 0.7\nm_grid = 300\ntrials = 1\nseed = 1\n"
    )
    out = tmp_path / "x.csv"
    msg = usage_error(["sweep", "--config", str(cfg), "--out", str(out)])
    assert msg == "sdcs sweep: error: order must be 1, 2, or 3"
    assert not out.exists()


def test_sweep_checks_its_output_before_any_trial(tmp_path, monkeypatch):
    def no_trials(cfg):
        raise AssertionError("the sweep ran before its output was checked")

    monkeypatch.setattr("sdcs.cli.run_decay_sweep", no_trials)
    base = ["sweep", "--ensemble", "gaussian", "--n", "16", "--s", "2", "--order", "1",
            "--delta", "0.05", "--alpha", "0.7", "--m-grid", "8", "--trials", "1",
            "--seed", "1", "--out"]
    missing = str(tmp_path / "missing" / "x.csv")
    msg = usage_error(base + [missing])
    assert msg == f"sdcs sweep: error: [Errno 2] No such file or directory: '{missing}'"
    assert "\n" not in msg

    # The config file's output is checked as well.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"output = {missing}\n")
    assert usage_error(base[:-1] + ["--config", str(cfg)]) == msg

    # A writable output is left as it was until the CSV is written: an
    # existing file keeps its bytes, and a new one is not created.
    def failing(cfg):
        raise ValueError("no trials here")

    monkeypatch.setattr("sdcs.cli.run_decay_sweep", failing)
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"old rows\n")
    assert usage_error(base + [str(kept)]) == "sdcs sweep: error: no trials here"
    assert kept.read_bytes() == b"old rows\n"
    new = tmp_path / "new.csv"
    usage_error(base + [str(new)])
    assert not new.exists()


@pytest.mark.parametrize("args, cmd, why", [
    (["ripscan", "--mode", "exact", "--s", "1", "--m", "6", "--n", "4", "--project", "2,0"],
     "ripscan", "need 1 <= ell <= 6"),
    (["reconstruct", "--ensemble", "gaussian", "--n", "8", "--s", "5", "--m", "3",
      "--order", "1", "--delta", "0.1", "--alpha", "0.7", "--seed", "1"],
     "reconstruct", "need m >= s"),
    (["gen", "--kind", "signal", "--n", "4", "--s", "9", "--floor", "0.5", "--seed", "1"],
     "gen", "need 1 <= s <= n"),
    (["sweep"], "sweep", "missing sweep parameters"),
    (["quantize", "--order", "1", "--delta", "0.5", "--input", "missing.txt"],
     "quantize", "[Errno 2] No such file or directory: 'missing.txt'"),
    (["gen", "--kind", "signal", "--n", "8", "--s", "2", "--floor", "1", "--cap", "inf",
      "--seed", "1"],
     "gen", "need finite 0 < floor <= magnitude_cap"),
])
def test_library_value_errors_exit_with_usage_message(args, cmd, why):
    assert usage_error(args).startswith(f"sdcs {cmd}: error: {why}")


def test_library_value_error_exit_status():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-m", "sdcs", "gen", "--kind", "signal", "--n", "4", "--s", "9",
         "--floor", "0.5", "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "sdcs gen: error: need 1 <= s <= n\n"


def test_summarize_outputs(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "ensemble = gaussian\nn = 48\ns = 3\nr = 1\ndelta = 0.05\n"
        "alpha = 0.7\nm_grid = 24,48\ntrials = 2\nseed = 11\n"
    )
    sweep_csv = tmp_path / "sweep.csv"
    run_cli(["sweep", "--config", str(cfg), "--out", str(sweep_csv)])
    report = tmp_path / "report.txt"
    agg = tmp_path / "agg.csv"
    run_cli(["summarize", "--input", str(sweep_csv),
             "--out-text", str(report), "--out-csv", str(agg)])
    assert "log-log slope" in report.read_text()
    assert agg.read_text().splitlines()[0].startswith("m,lambda,trials")


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-m", "sdcs", "gen", "--kind", "matrix",
         "--m", "2", "--n", "3", "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "2 3"


def readme_commands():
    """The sdcs invocations of README's command-line block, continuation
    lines joined, as argument lists without the program name."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("sdcs ")]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # the block must create every file it reads, in the order it runs
    commands = readme_commands()
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert main(args) == 0, args
    assert "log-log slope" in capsys.readouterr().out
