"""Run one benchmark workload against the sdcs sources in this checkout.

    python3 bench/run.py --workload sweep-accept --seed 20240 --seconds 24 --trace 0

Every measurement is a fresh child process (bench/child.py) with the BLAS
thread count pinned in its environment, so each one pays the import and the
cold per-(m, r) operator builds that a user's ``sdcs`` invocation pays.  A
run first starts one unmeasured process (it fills the bytecode cache).  An
untraced run then starts SETUP_PROBES processes that only import and validate,
then measured processes until the next one would end after ``--seconds`` (at
least the workload's ``min_processes``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs ``min_processes`` pairs of an untraced and a traced process on the same
inputs and prints the per-layer metrics.  The last line of stdout is the JSON result; the line
before it is a JSON report with the machine record, failures, metrics that
are absent and why, and the counts behind them.  The exit code is 0 only
when every op passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from stats import median, tail_percentile
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _spawn(spec: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    if t0 >= deadline:
        raise BenchError("out of time before the run finished")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
            timeout=deadline - t0,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a measured process ran past the run's deadline") from exc
    t1 = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"a measured process exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_done"] - t0
    out["elapsed_s"] = t1 - t0
    return out


def process_seed(seed: int, index: int) -> int:
    """Workload seed of the index-th measured process of a run.

    The first process runs the run's own seed (at the default seed that is
    the configuration the reference rows were made from); the others run
    seeds derived from it, so that the pooled op latencies cover more
    instances than one process draws.
    """
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _process_spec(spec: dict, index: int, reference: str | None) -> dict:
    return dict(spec, seed=process_seed(spec["seed"], index),
                reference=reference if index == 0 else None)


def _measure(spec: dict, reference, seconds: float, min_processes: int,
             deadline: float) -> list[dict]:
    runs: list[dict] = []
    start = time.monotonic()
    while len(runs) < min_processes or (
            time.monotonic() - start + median([r["elapsed_s"] for r in runs]) <= seconds):
        runs.append(_spawn(_process_spec(spec, len(runs), reference), deadline))
    return runs


def _end_to_end(setups: list[float], runs: list[dict]):
    values = {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_kib"] / 1024.0 for r in runs]),
    }
    absent = {}
    latencies = [ms for r in runs for ms in r["op_ms"]]
    for name, q in (("op_p50_ms", 0.5), ("op_p90_ms", 0.9)):
        value, reason = tail_percentile(latencies, q)
        if reason:
            absent[name] = reason
        else:
            values[name] = value
    return values, absent, {"ops_timed": len(latencies)}


def _per_layer(untraced: list[dict], traced: list[dict]):
    layers = [r["layers"] for r in traced]
    names = set().union(*(lay["values"] for lay in layers))
    values = {n: median([lay["values"][n] for lay in layers if n in lay["values"]])
              for n in names}
    absent = {}
    for lay in layers:
        absent.update(lay["absent"])
    bpdn_ms = [ms for lay in layers for ms in lay["pooled"]["recovery.bpdn_ms"]]
    for name, q in (("recovery.bpdn_ms_p50", 0.5), ("recovery.bpdn_ms_p90", 0.9)):
        if "recovery.bpdn_ms" in absent:
            absent[name] = absent["recovery.bpdn_ms"]
            continue
        value, reason = tail_percentile(bpdn_ms, q)
        if reason:
            absent[name] = f"BPDN call times: {reason}"
        else:
            values[name] = value
    # Pair i ran the same inputs untraced and traced.
    values["trace.overhead_pct"] = median(
        [(t["wall_s"] / u["wall_s"] - 1.0) * 100.0 for u, t in zip(untraced, traced)])
    return values, absent, {"untraced_wall_s": [r["wall_s"] for r in untraced],
                            "traced_wall_s": [r["wall_s"] for r in traced]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs and one process, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdcs" / "__init__.py").is_file():
        print(f"error: no sdcs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    spec = {"mode": "run", "trace": False, "seed": args.seed, "src": str(ROOT / "src"),
            "config": wl["smoke" if args.smoke else "config"]}
    reference = None
    if not args.smoke and args.seed == wl["default_seed"]:
        reference = str(BENCH / "reference" / f"{args.workload}.json")
    min_processes = 1 if args.smoke else wl["min_processes"]
    deadline = time.monotonic() + DEADLINE_S

    try:
        _spawn(dict(spec, mode="setup"), deadline)  # fills the bytecode cache; not measured
        if args.trace:
            untraced, traced = [], []
            for i in range(min_processes):
                one = _process_spec(spec, i, reference)
                spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}-{i}.jsonl"
                untraced.append(_spawn(one, deadline))
                traced.append(_spawn(dict(one, trace=True, spans_out=str(spans)), deadline))
            runs = untraced + traced
            values, absent, counts = _per_layer(untraced, traced)
            wanted = spec_file["per_layer"]
        else:
            setups = [_spawn(dict(spec, mode="setup"), deadline)["setup_s"]
                      for _ in range(1 if args.smoke else SETUP_PROBES)]
            runs = _measure(spec, reference, args.seconds, min_processes, deadline)
            values, absent, counts = _end_to_end(setups + [r["setup_s"] for r in runs], runs)
            wanted = spec_file["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    recovery = [r["recovery"] for r in runs if r["recovery"]]
    extra = {"fail_rate": failed / attempted}
    if recovery:
        extra["recovery_rate"] = (sum(r["correct"] for r in recovery)
                                  / sum(r["trials"] for r in recovery))
    else:
        absent["recovery_rate"] = "no sweep trials on this workload"

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif args.trace:
            # Every per-layer metric is printed; one without a value reads 0
            # and its reason is in report["absent"].
            absent.setdefault(m["name"], "not measured")
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in sorted({**values, **extra}.items()):
        note = "  (absent: " + absent[name] + ")" if name in absent else ""
        print(f"{name:42s} {value:16.6f} {units.get(name, 'ratio')}{note}")
    for name in sorted(set(absent) - set(values) - set(extra)):
        print(f"{name:42s} {'absent':>16s} {absent[name]}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "processes": len(runs),
        "reference_checked": reference is not None, "process_seeds": [r["seed"] for r in runs],
        "machine": runs[0]["machine"],
        **extra, **counts, "absent": absent,
        "recovery": recovery[0] if recovery else None,
        # From the first process that ran the run's own seed, traced if one was.
        "bpdn_iters_by_op": (traced if args.trace else runs)[0]["bpdn_iters_by_op"],
        "op_s_by_label": runs[0]["op_s_by_label"],
        "wall_s_each": [r["wall_s"] for r in runs],
        "failures": [f for r in runs for f in r["failures"]][:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
