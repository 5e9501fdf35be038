"""One SHA-256 per family of outputs whose bytes are a contract.

Run from the repository root as

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python tests/check_bytes.py

It is not a pytest module: it prints digests to compare between two
checkouts (equal lines mean equal bytes), and takes a few seconds.
Bytes that go through BLAS are fixed only at a fixed BLAS thread count, so
the first line echoes OPENBLAS_NUM_THREADS.  The families are:

- ``normals`` at sizes 0 to 512,000 (every block and split edge) and seeds
  0, 20240 and 2^64 - 1, with the helper thread allowed (two CPUs) and not
  (one CPU), each with and without a matching prefetch first; the bytes
  and the counter after each draw;
- ``RngStream._windows`` walks, normal and sign, with and without a
  pending prefetch of another stream, and ``column_windows`` walks of the
  three ensembles;
- ``sample_matrix`` of the three ensembles;
- ``projected_basis`` at the benchmark workloads' (m, r, ell) keys;
- the output of every command of README's command-line block, and its
  files;
- the decay-sweep CSVs of the acceptance grid (three ensembles, r = 1 and
  2) and of the large-m grid (m = 1000 and 2000, r = 1 and 3);
- ``run_msq_baseline`` at the acceptance key and at a rademacher grid
  point with a failed row: each trial's support verdict and err_l2 bytes.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from unittest import mock

import numpy as np

import sdcs.rng as rng_module
from sdcs.cli import main
from sdcs.difference import projected_basis
from sdcs.experiments import SweepConfig, run_msq_baseline
from sdcs.measurement import ENSEMBLE_KINDS, Ensemble, column_windows, sample_matrix
from sdcs.recovery import projection_dim
from sdcs.rng import _NORMAL_BLOCK, RngStream, cancel_prefetch
from test_cli import readme_commands

NORMAL_SIZES = (0, 1, _NORMAL_BLOCK - 1, _NORMAL_BLOCK, _NORMAL_BLOCK + 1,
                4 * _NORMAL_BLOCK, 204_800, 512_000)
SEEDS = (0, 20240, 2**64 - 1)
# (m, n, width) of _windows walks: one entry, windows inside one block, a
# first window spanning two blocks, and windows of several blocks.
WINDOW_SHAPES = ((1, 1, 1), (7, 5, 2), (200, 150, 100), (3, 40_000, 10_000))
# (m, n) of column_windows walks and sample_matrix draws.
MATRIX_SHAPES = ((5, 3), (200, 2000), (800, 256), (2000, 256))
# The sweeps' keys, ell = projection_dim(m, 5, 0.7); rip-diag's two,
# (800, 2, 23) and (200, 2, 16), are among them.
BASIS_KEYS = tuple(
    (m, r, projection_dim(m, 5, 0.7))
    for grid, orders in (((100, 200, 400, 800), (1, 2)), ((1000, 2000), (1, 3)))
    for r in orders for m in grid
)
SWEEP = ["--n", "256", "--s", "5", "--delta", "0.01", "--alpha", "0.7", "--seed", "20240"]
# (config, m) of run_msq_baseline: the acceptance baseline, and the
# rademacher grid point of the CLI replay test, where trial 12 is failed.
MSQ_KEYS = (
    (SweepConfig("gaussian", 256, 5, 2, 0.01, 0.7, (800,), 20, 20240), 800),
    (SweepConfig("rademacher", 64, 3, 1, 0.01, 0.7, (6,), 20, 23), 6),
)


def report(name: str, digest) -> None:
    print(name, digest.hexdigest(), flush=True)


def add_array(digest, a: np.ndarray) -> None:
    digest.update(repr((a.dtype.str, a.shape)).encode())
    digest.update(np.ascontiguousarray(a).tobytes())


def normals_family(cpus: int, prefetch: bool):
    digest = hashlib.sha256()
    with mock.patch.object(rng_module, "_usable_cpus", lambda: cpus):
        for seed in SEEDS:
            for n in NORMAL_SIZES:
                s = RngStream(seed)
                if prefetch:
                    s.prefetch_normals(n)
                add_array(digest, s.normals(n))
                digest.update(str(s.counter).encode())
    return digest


def windows_family(normal: bool, pending: bool):
    digest = hashlib.sha256()
    with mock.patch.object(rng_module, "_usable_cpus", lambda: 2):
        for seed in SEEDS:
            for m, n, width in WINDOW_SHAPES:
                if pending:
                    RngStream(seed ^ 1).prefetch_normals(4 * _NORMAL_BLOCK)
                s = RngStream(seed)
                for c0, window in s._windows(m, n, width, normal):
                    digest.update(str(c0).encode())
                    add_array(digest, window)
                digest.update(str(s.counter).encode())
                cancel_prefetch()
    return digest


def matrix_family(kind: str, windows: bool):
    digest = hashlib.sha256()
    for m, n in MATRIX_SHAPES:
        rng = RngStream(20240).substream(("matrix", m, n))
        if windows:
            for c0, window in column_windows(Ensemble(kind), m, n, rng):
                digest.update(str(c0).encode())
                add_array(digest, window)
        else:
            add_array(digest, sample_matrix(Ensemble(kind), m, n, rng))
        digest.update(str(rng.counter).encode())
    return digest


def msq_family(cfg: SweepConfig, m: int):
    digest = hashlib.sha256()
    for res in run_msq_baseline(cfg, m):
        digest.update(b"1" if res.support_correct else b"0")
        digest.update(np.float64(res.err_l2).tobytes())
    return digest


def cli_digest(args, files=()):
    """Digest of one sdcs invocation's stdout and of the files it wrote."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0, args
    digest = hashlib.sha256(out.getvalue().encode())
    for path in files:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest


def written_files(args):
    return [args[i + 1] for i, a in enumerate(args[:-1])
            if a in ("--out", "--out-csv", "--out-text") and args[i + 1] != "-"]


def cli_family():
    """README's commands, then the sweeps, in the working directory."""
    for args in readme_commands():
        report("readme " + " ".join(args[:3]), cli_digest(args, written_files(args)))
    for kind in ENSEMBLE_KINDS:
        for order in ("1", "2"):
            args = ["sweep", "--ensemble", kind, "--order", order, *SWEEP,
                    "--m-grid", "100,200,400,800", "--trials", "20", "--out", "s.csv"]
            report(f"sweep acceptance {kind} r={order}", cli_digest(args, ["s.csv"]))
    for order in ("1", "3"):
        args = ["sweep", "--ensemble", "gaussian", "--order", order, *SWEEP,
                "--m-grid", "1000,2000", "--trials", "13", "--out", "s.csv"]
        report(f"sweep large-m gaussian r={order}", cli_digest(args, ["s.csv"]))


def run():
    print("OPENBLAS_NUM_THREADS=" + os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
    for cpus in (1, 2):
        for prefetch in (False, True):
            report(f"normals cpus={cpus} prefetch={'yes' if prefetch else 'no'}",
                   normals_family(cpus, prefetch))
    for normal in (True, False):
        for pending in (False, True):
            report(f"_windows {'normal' if normal else 'sign'} "
                   f"pending-prefetch={'yes' if pending else 'no'}",
                   windows_family(normal, pending))
    for kind in ENSEMBLE_KINDS:
        report(f"column_windows {kind}", matrix_family(kind, True))
        report(f"sample_matrix {kind}", matrix_family(kind, False))
    for m, r, ell in BASIS_KEYS:
        digest = hashlib.sha256()
        add_array(digest, projected_basis(m, r, ell))
        report(f"projected_basis ({m}, {r}, {ell})", digest)
    for cfg, m in MSQ_KEYS:
        report(f"msq_baseline {cfg.ensemble} m={m} seed={cfg.seed}", msq_family(cfg, m))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # README's commands read and write in the working directory
        try:
            cli_family()
        finally:
            os.chdir(home)


if __name__ == "__main__":
    run()
