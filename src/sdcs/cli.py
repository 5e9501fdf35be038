"""Command-line harness.

Subcommands: gen, quantize, reconstruct, ripscan, sweep, summarize.
Every command is a pure function of its flags (seeds included), and all
file outputs are written with fixed float formatting and newlines, so a
repeated invocation at a fixed BLAS thread count produces byte-identical
output.

Feedback order is capped at 3 here, whether it comes from a flag or a
sweep config file; error bounds degrade quickly with the order and the
interesting regime is small r.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (
    build_sweep_config,
    parse_config_text,
    read_sweep_csv,
    run_decay_sweep,
    summarize,
    summary_to_csv,
    summary_to_text,
    sweep_records_to_csv,
)
from .linalg import format_value, read_matrix_text, write_matrix_text
from .measurement import ENSEMBLE_KINDS, Ensemble, sample_matrix, sample_sparse_signal
from .quantizer import QuantizerConfig, sigma_delta_quantize
from .recovery import full_pipeline
from .rip import ric_exact, ric_monte_carlo, projected_matrix
from .rng import RngStream

_ORDER_CHOICES = (1, 2, 3)


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _cmd_gen(args) -> int:
    rng = RngStream(args.seed)
    if args.kind == "matrix":
        if args.m is None:
            raise ValueError("--kind matrix needs --m")
        phi = sample_matrix(Ensemble(args.ensemble), args.m, args.n, rng)
        _write(write_matrix_text(phi), args.out)
    else:
        if args.s is None or args.floor is None:
            raise ValueError("--kind signal needs --s and --floor")
        cap = args.cap if args.cap is not None else 10.0 * args.floor
        signal = sample_sparse_signal(args.n, args.s, args.floor, cap, rng)
        _write(write_matrix_text(signal.to_dense().reshape(-1, 1)), args.out)
    return 0


def _read_vector(path: str) -> np.ndarray:
    """Read a vector from a matrix fixture file with one row or one column."""
    mat = read_matrix_text(_read(path))
    if 1 not in mat.shape:
        raise ValueError("fixture must have a single row or column to be a vector")
    return mat.reshape(-1)


def _cmd_quantize(args) -> int:
    y = _read_vector(args.input)
    out = sigma_delta_quantize(y, QuantizerConfig(r=args.order, delta=args.delta))
    lines = ["q,u"]
    for qi, ui in zip(out.q, out.u):
        lines.append(f"{format_value(qi)},{format_value(ui)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


_RECONSTRUCT_COLUMNS = (
    "ensemble,n,s,m,r,delta,alpha,ell,seed,support_correct,"
    "err_l2,bound_eq3,sigma_min_proj,recovered_support,x_hat_values"
)


def _cmd_reconstruct(args) -> int:
    rep = full_pipeline(
        Ensemble(args.ensemble), args.n, args.s, args.m, args.order,
        args.delta, args.alpha, RngStream(args.seed),
    )
    support = ";".join(str(int(i)) for i in rep.recovered_support)
    values = ";".join(format_value(v) for v in rep.x_hat[rep.recovered_support])
    row = ",".join([
        args.ensemble, str(args.n), str(args.s), str(args.m), str(args.order),
        format_value(args.delta), format_value(args.alpha), str(rep.ell), str(args.seed),
        format_value(rep.support_correct), format_value(rep.err_l2),
        format_value(rep.err_bound), format_value(rep.sigma_min_proj), support, values,
    ])
    _write(_RECONSTRUCT_COLUMNS + "\n" + row + "\n", args.out)
    return 0


def _cmd_ripscan(args) -> int:
    if args.input is not None:
        a = read_matrix_text(_read(args.input))
    else:
        if args.m is None or args.n is None:
            raise ValueError("need --input or --ensemble with --m and --n")
        a = sample_matrix(Ensemble(args.ensemble), args.m, args.n,
                          RngStream(args.seed).substream("ripscan-matrix"))
    if args.project is not None:
        try:
            r_str, ell_str = args.project.split(",")
            r, ell = int(r_str), int(ell_str)
        except ValueError:
            raise ValueError("--project takes R,ELL with integers R and ELL") from None
        if r not in _ORDER_CHOICES:
            raise ValueError("projection order must be 1, 2, or 3")
        a = projected_matrix(a, r, ell)
    if args.scale != 1.0:
        a = a * args.scale
    if args.mode == "exact":
        est = ric_exact(a, args.s)
    else:
        est = ric_monte_carlo(a, args.s, args.trials,
                              RngStream(args.seed).substream("ripscan-supports"))
    _write(
        "s,mode,value,supports_checked\n"
        f"{est.s},{est.mode},{format_value(est.value)},{est.supports_checked}\n",
        args.out,
    )
    return 0


def _cmd_sweep(args) -> int:
    values = {}
    if args.config is not None:
        values.update(parse_config_text(_read(args.config)))
    overrides = {
        "ensemble": args.ensemble, "n": args.n, "s": args.s, "r": args.order,
        "delta": args.delta, "alpha": args.alpha, "m_grid": args.m_grid,
        "trials": args.trials, "seed": args.seed, "output": args.out,
    }
    values.update({k: str(v) for k, v in overrides.items() if v is not None})
    cfg = build_sweep_config(values)
    if cfg.r not in _ORDER_CHOICES:  # the config file can set r as well as --order
        raise ValueError("order must be 1, 2, or 3")
    records = run_decay_sweep(cfg)
    _write(sweep_records_to_csv(records), cfg.output)
    return 0


def _cmd_summarize(args) -> int:
    records = read_sweep_csv(_read(args.input))
    summary = summarize(records)
    _write(summary_to_text(summary), args.out_text)
    if args.out_csv is not None:
        _write(summary_to_csv(summary), args.out_csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdcs",
        description="Feedback-quantized compressed sensing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a measurement matrix or sparse signal fixture")
    p.add_argument("--kind", choices=("matrix", "signal"), default="matrix")
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS, default="gaussian")
    p.add_argument("--m", type=int, default=None, help="rows (matrix kind)")
    p.add_argument("--n", type=int, required=True, help="columns / signal length")
    p.add_argument("--s", type=int, default=None, help="sparsity (signal kind)")
    p.add_argument("--floor", type=float, default=None, help="amplitude floor (signal kind)")
    p.add_argument("--cap", type=float, default=None, help="amplitude cap (default 10*floor)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("quantize", help="feedback-quantize a vector from a text file")
    p.add_argument("--order", type=int, choices=_ORDER_CHOICES, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("reconstruct", help="run one measurement/quantize/recover trial")
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--order", type=int, choices=_ORDER_CHOICES, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("ripscan", help="estimate a restricted isometry constant")
    p.add_argument("--mode", choices=("exact", "mc"), required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000, help="supports sampled in mc mode")
    p.add_argument("--project", default=None, metavar="R,ELL",
                   help="apply the scaled ell-row projection before scanning")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply the matrix by this factor (normalization is explicit)")
    p.add_argument("--input", default=None, help="matrix fixture file")
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS, default="gaussian")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_ripscan)

    p = sub.add_parser("sweep", help="run a decay sweep over a measurement grid")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--order", type=int, choices=_ORDER_CHOICES, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--m-grid", default=None, help="comma-separated measurement counts")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("summarize", help="aggregate a sweep CSV into a report")
    p.add_argument("--input", required=True)
    p.add_argument("--out-text", default="-")
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=_cmd_summarize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # The library and the _cmd_* checks reject bad input with ValueError;
        # report it as a usage error (status 1) rather than a traceback.
        raise SystemExit(f"sdcs {args.command}: error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
