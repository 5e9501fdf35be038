"""Wrapper tracer for the traced benchmark run, and the per-layer metrics.

The tracer replaces public functions of ``sdcs`` with wrappers that record
one span per call: (name, start, end, parent span, op id, info).  Spans are
kept in memory; :func:`layer_metrics` turns them into the per-layer numbers
once the workload has finished.  A layer's self time is the duration of its
spans minus the part covered by their child spans.

``from .x import f`` copies bindings, so a function is wrapped under every
``sdcs`` module attribute bound to it (``difference_power`` lives in both
``sdcs.difference`` and ``sdcs.recovery``, for example).  A public name that
no longer exists is recorded as missing, and the metrics that need it are
reported absent with that name instead of crashing the run.

This wrapper tracer is a stand-in: once the program has its own opt-in
per-trial trace (ROADMAP item 4), the benchmark should read those stage
timers and this module should go, so that one instrumentation path remains.
"""

from __future__ import annotations

import importlib
import sys
import time

from stats import percentile


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _keep_shape(args, kwargs, result):
    # sample_matrix(ensemble, m, n, rng)
    return (int(_arg(args, kwargs, 1, "m")), int(_arg(args, kwargs, 2, "n")))


def _keep_power_key(args, kwargs, result):
    # difference_power(m, r)
    return (int(_arg(args, kwargs, 0, "m")), int(_arg(args, kwargs, 1, "r")))


def _keep_sigma_delta(args, kwargs, result):
    # sigma_delta_quantize(y, cfg); kept whole for the quantizer identity checks
    return (_arg(args, kwargs, 0, "y"), _arg(args, kwargs, 1, "cfg"), result)


def _keep_bpdn(args, kwargs, result):
    return (int(result.iterations), bool(result.converged))


def _keep_supports(args, kwargs, result):
    return int(result.supports_checked)


# (span name, home module, attribute, info extractor run after the call)
TARGETS = (
    ("rng.choose_indices", "sdcs.rng", "RngStream.choose_indices", None),
    ("rng.normals", "sdcs.rng", "RngStream.normals", None),
    ("measurement.sample_matrix", "sdcs.measurement", "sample_matrix", _keep_shape),
    ("measurement.sample_sparse_signal", "sdcs.measurement", "sample_sparse_signal", None),
    ("quantizer.sigma_delta_quantize", "sdcs.quantizer", "sigma_delta_quantize", _keep_sigma_delta),
    ("quantizer.msq_quantize", "sdcs.quantizer", "msq_quantize", None),
    ("recovery.full_pipeline", "sdcs.recovery", "full_pipeline", None),
    ("recovery.bpdn_solve", "sdcs.recovery", "bpdn_solve", _keep_bpdn),
    ("recovery.sobolev_reconstruct", "sdcs.recovery", "sobolev_reconstruct", None),
    ("recovery.sobolev_dual", "sdcs.recovery", "sobolev_dual", None),
    ("recovery.reconstruction_error_bound", "sdcs.recovery", "reconstruction_error_bound", None),
    ("difference.difference_power", "sdcs.difference", "difference_power", _keep_power_key),
    ("difference.projected_basis", "sdcs.difference", "projected_basis", None),
    ("linalg.least_squares", "sdcs.linalg", "least_squares", None),
    ("rip.ric_exact", "sdcs.rip", "ric_exact", _keep_supports),
    ("rip.ric_monte_carlo", "sdcs.rip", "ric_monte_carlo", _keep_supports),
    ("rip.projected_matrix", "sdcs.rip", "projected_matrix", None),
    ("rip.small_ball_probe", "sdcs.rip", "small_ball_probe", None),
    ("experiments.run_decay_sweep", "sdcs.experiments", "run_decay_sweep", None),
    ("experiments.run_msq_baseline", "sdcs.experiments", "run_msq_baseline", None),
    ("experiments.msq_trial", "sdcs.experiments", "msq_trial", None),
    ("experiments.summarize", "sdcs.experiments", "summarize", None),
)

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, keep):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep is not None:
                span[INFO] = keep(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, module_name, attr, keep in TARGETS:
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                self.missing[name] = f"module {module_name} not found"
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if owner is None or leaf not in vars(owner):
                self.missing[name] = f"{module_name}.{attr} not found"
                continue
            original = vars(owner)[leaf]
            wrapper = self._wrap(name, original, keep)
            if owner_name:  # a method: one binding, on the class
                bindings = [owner]
            else:
                bindings = [m for key, m in list(sys.modules.items())
                            if m is not None and (key == "sdcs" or key.startswith("sdcs."))]
            for mod in bindings:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()


class _Agg:
    __slots__ = ("calls", "incl_ns", "self_ns", "durations", "infos")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.durations: list[int] = []
        self.infos: list = []


def aggregate(spans: list[list]) -> dict[str, _Agg]:
    """Per span name: call count, inclusive and self time, durations, infos."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    out: dict[str, _Agg] = {name: _Agg() for name, *_ in TARGETS}
    for i, span in enumerate(spans):
        agg = out[span[NAME]]
        dur = span[END] - span[START]
        agg.calls += 1
        agg.incl_ns += dur
        agg.self_ns += dur - covered[i]
        agg.durations.append(dur)
        agg.infos.append(span[INFO])
    return out


def _ms(ns: int) -> float:
    return ns / 1e6


def layer_metrics(spans: list[list], missing: dict[str, str]):
    """Per-layer metrics of one traced process.

    Returns (values, absent, pooled): values maps metric name to number,
    absent maps metric name to the reason it has no value, pooled holds the
    per-call samples that percentiles are taken over across processes.
    """
    agg = aggregate(spans)
    values: dict[str, float] = {}
    absent: dict[str, str] = {}

    def put(metric, needs, compute, need_calls=True):
        # A metric over several functions stays while any of them exists.
        gone = [missing[n] for n in needs if n in missing]
        if len(gone) == len(needs):
            absent[metric] = "; ".join(gone)
        elif need_calls and not any(agg[n].calls for n in needs):
            absent[metric] = f"no calls to {', '.join(needs)} on this workload"
        else:
            values[metric] = float(compute())

    def self_ms(*names):
        return lambda: _ms(sum(agg[n].self_ns for n in names))

    def calls(name):
        return lambda: agg[name].calls

    ci, nm = "rng.choose_indices", "rng.normals"
    put("rng.choose_indices_ms", [ci], self_ms(ci))
    put("rng.choose_indices_calls", [ci], calls(ci), need_calls=False)
    put("rng.normals_ms", [nm], self_ms(nm))

    sm, ss = "measurement.sample_matrix", "measurement.sample_sparse_signal"
    put("measurement.sample_matrix_ms", [sm], self_ms(sm))
    put("measurement.sample_matrix_mb_computed", [sm],
        lambda: sum(m * n * 8 for m, n in agg[sm].infos) / 1e6)
    put("measurement.sample_sparse_signal_ms", [ss], self_ms(ss))

    sd, mq = "quantizer.sigma_delta_quantize", "quantizer.msq_quantize"
    put("quantizer.sigma_delta_ms", [sd], self_ms(sd))
    put("quantizer.sigma_delta_ns_per_entry", [sd],
        lambda: agg[sd].incl_ns / max(1, sum(len(info[0]) for info in agg[sd].infos)))
    put("quantizer.msq_ms", [mq], self_ms(mq))

    bp = "recovery.bpdn_solve"
    iters = [it for it, _ in agg[bp].infos]
    put("recovery.bpdn_calls", [bp], calls(bp), need_calls=False)
    put("recovery.bpdn_ms", [bp], self_ms(bp))
    put("recovery.bpdn_iters_mean", [bp], lambda: sum(iters) / len(iters))
    put("recovery.bpdn_iters_p90", [bp], lambda: percentile(iters, 0.9))
    put("recovery.bpdn_iters_max", [bp], lambda: max(iters))
    put("recovery.bpdn_us_per_iter", [bp], lambda: agg[bp].incl_ns / 1e3 / max(1, sum(iters)))
    put("recovery.bpdn_converged_ratio", [bp],
        lambda: sum(conv for _, conv in agg[bp].infos) / agg[bp].calls)
    sob = ("recovery.sobolev_reconstruct", "recovery.sobolev_dual")
    put("recovery.sobolev_ms", list(sob), self_ms(*sob))
    eb = "recovery.reconstruction_error_bound"
    put("recovery.bound_ms", [eb], self_ms(eb))

    dp, pb = "difference.difference_power", "difference.projected_basis"
    seen: set = set()
    cold_ns = warm_ns = cold_calls = 0
    for key, dur in zip(agg[dp].infos, agg[dp].durations):
        if key in seen:
            warm_ns += dur
        else:
            seen.add(key)
            cold_ns += dur
            cold_calls += 1
    put("difference.power_calls", [dp], calls(dp), need_calls=False)
    put("difference.power_cold_calls", [dp], lambda: cold_calls, need_calls=False)
    put("difference.power_cold_ms", [dp], lambda: _ms(cold_ns))
    put("difference.power_warm_ms", [dp], lambda: _ms(warm_ns))
    put("difference.cache_hit_ratio", [dp], lambda: 1.0 - cold_calls / agg[dp].calls)
    put("difference.cache_mb_computed", [dp], lambda: sum(3 * m * m * 8 for m, _ in seen) / 1e6)
    put("difference.projected_basis_ms", [pb], self_ms(pb))

    ls = "linalg.least_squares"
    put("linalg.least_squares_ms", [ls], self_ms(ls))

    rx, rm = "rip.ric_exact", "rip.ric_monte_carlo"
    put("rip.ric_exact_ms", [rx], self_ms(rx))
    put("rip.ric_exact_supports_per_s", [rx], lambda: sum(agg[rx].infos) / (agg[rx].incl_ns / 1e9))
    put("rip.ric_mc_ms", [rm], self_ms(rm))
    put("rip.ric_mc_supports_per_s", [rm], lambda: sum(agg[rm].infos) / (agg[rm].incl_ns / 1e9))
    pm, sb = "rip.projected_matrix", "rip.small_ball_probe"
    put("rip.projected_matrix_ms", [pm], self_ms(pm))
    put("rip.small_ball_ms", [sb], self_ms(sb))

    ds, mb, su = ("experiments.run_decay_sweep", "experiments.run_msq_baseline",
                  "experiments.summarize")
    put("experiments.sweep_self_ms", [ds], self_ms(ds))
    put("experiments.msq_baseline_self_ms", [mb], self_ms(mb))
    put("experiments.summarize_ms", [su], self_ms(su))

    pooled = {"recovery.bpdn_ms": [_ms(d) for d in agg[bp].durations]}
    return values, absent, pooled
