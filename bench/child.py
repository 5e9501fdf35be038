"""One measured process of the benchmark.

run.py starts this script once per measurement with a JSON spec as its only
argument.  It imports ``sdcs.cli`` and validates the workload config (the
set-up a user's ``sdcs`` invocation pays), runs the workload's ops, checks
every op's output and prints one JSON object on stdout.

An op is one sweep trial (a ``full_pipeline`` call made by
``run_decay_sweep``, or an ``msq_trial`` call made by ``run_msq_baseline``),
one RIP scan including its matrix draw and projection, or one small-ball
probe.  Each op is timed by one clock pair at its boundary and nothing else
is wrapped, unless the spec asks for the traced run.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

from stats import median

# Failure tolerances: acceptance criteria 7 (BPDN), 1 (quantizer) and 8
# (small ball), and the relative agreement with the stored reference rows.
BPDN_TOL = 1e-6
STATE_TOL = 1e-12
RESIDUAL_TOL = 1e-10
SMALL_BALL_TOL = 0.05
REFERENCE_RTOL = 1e-6
MC_TOL = 1e-15


class Op:
    __slots__ = ("id", "kind", "label", "start", "end", "result", "error")

    def __init__(self, op_id, kind, label):
        self.id, self.kind, self.label = op_id, kind, label
        self.start = self.end = 0.0
        self.result = self.error = None


class OpLog:
    """Times each op with one clock pair and tells the tracer which op runs."""

    def __init__(self, tracer=None):
        self.ops: list[Op] = []
        self.tracer = tracer

    def call(self, kind, fn, *args, label=None, reraise=False, **kwargs):
        op = Op(len(self.ops), kind, label or kind)
        self.ops.append(op)
        if self.tracer is not None:
            self.tracer.op_id = op.id
        op.start = time.perf_counter()
        try:
            op.result = fn(*args, **kwargs)
        except Exception as exc:  # an op that raises is a failed op
            op.end = time.perf_counter()
            op.error = f"{type(exc).__name__}: {exc}"
            if reraise:
                raise
        else:
            op.end = time.perf_counter()
        finally:
            if self.tracer is not None:
                self.tracer.op_id = None
        return op.result


def _close(a: float, b: float) -> bool:
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= REFERENCE_RTOL * abs(b)
    return a == b


class SweepWorkload:
    """Decay sweeps over the m-grid for each order, optionally the MSQ baseline.

    The sweep runs as one ``run_decay_sweep`` call per grid point and order,
    the orders alternating at each m, with the MSQ baseline after the first
    half of the grid.  The calls make the same ops with the same rows as one
    call per order would (a trial's seed depends on m and the trial only, and
    each (m, r) is cold at its first trial either way), but each kind of op
    now recurs through the process.  A pooled percentile then reflects the
    machine's speed over the whole process rather than over the one stretch
    in which that kind of op ran.
    """

    def __init__(self, cfg: dict, seed: int):
        from sdcs.experiments import SweepConfig

        self.cfg = cfg
        self.sweeps = {
            r: SweepConfig(ensemble=cfg["ensemble"], n=cfg["n"], s=cfg["s"], r=r,
                           delta=cfg["delta"], alpha=cfg["alpha"],
                           m_grid=tuple(cfg["m_grid"]), trials=cfg["trials"], seed=seed)
            for r in cfg["orders"]
        }
        if cfg["msq_m"] is not None and cfg["msq_r"] not in self.sweeps:
            raise ValueError("msq_r must be one of the sweep orders")
        self.records: dict[int, list] = {r: [] for r in self.sweeps}
        self.executed: list = []  # (r, record) in the order the trials ran
        self.msq: list = []

    def _blocks(self):
        grid = self.cfg["m_grid"]
        for i, m in enumerate(grid):
            if i == len(grid) // 2 and self.cfg["msq_m"] is not None:
                yield None, self.cfg["msq_m"]
            for r in self.sweeps:
                yield r, m

    def run(self, log: OpLog) -> None:
        import dataclasses

        import sdcs.experiments as ex

        pipeline, msq_trial = ex.full_pipeline, ex.msq_trial
        ex.msq_trial = lambda *a, **k: log.call("msq", msq_trial, *a, reraise=True, **k)
        try:
            for r, m in self._blocks():
                if r is None:
                    self.msq = ex.run_msq_baseline(self.sweeps[self.cfg["msq_r"]], m)
                    continue
                ex.full_pipeline = lambda *a, label=f"trial r={r}", **k: log.call(
                    "trial", pipeline, *a, label=label, reraise=True, **k)
                recs = ex.run_decay_sweep(dataclasses.replace(self.sweeps[r], m_grid=(m,)))
                self.records[r] += recs
                self.executed += [(r, rec) for rec in recs]
        finally:
            ex.full_pipeline, ex.msq_trial = pipeline, msq_trial
        if self.cfg["summary_checks"]:
            log.call("check", self._slopes_hold)
            log.call("check", self._beats_msq)

    def _slopes_hold(self):
        # Acceptance criterion 4.
        import sdcs.experiments as ex

        slope1 = ex.summarize(self.records[1]).slope
        slope2 = ex.summarize(self.records[2]).slope
        ok = slope1 is not None and slope2 is not None and slope1 <= -0.3 and slope2 <= -1.3
        return ok, f"decay slopes r=1 {slope1}, r=2 {slope2} (need <= -0.3, <= -1.3)"

    def _beats_msq(self):
        # Acceptance criterion 5.
        m, r = self.cfg["msq_m"], self.cfg["msq_r"]
        sd = [rec.err_l2 for rec in self.records[r] if rec.m == m]
        msq = [t.err_l2 for t in self.msq]
        med_sd, med_msq = median(sd), median(msq)
        return med_sd < med_msq, f"median error at m={m}: feedback {med_sd} vs MSQ {med_msq}"

    def rows(self, log: OpLog) -> dict:
        return {
            "sweep": {str(r): [[rec.m, rec.trial, rec.support_correct, rec.err_l2] for rec in recs]
                      for r, recs in self.records.items()},
            "msq": [[t.support_correct, t.err_l2] for t in self.msq],
        }

    def recovery(self) -> dict:
        recs = [rec for recs in self.records.values() for rec in recs]
        by_r = {str(r): [sum(rec.support_correct for rec in recs), len(recs)]
                for r, recs in self.records.items()}
        return {"correct": sum(rec.support_correct for rec in recs), "trials": len(recs),
                "by_order": by_r}

    def _true_signal(self, seed: int, r: int):
        """Redraw a trial's signal from its row seed, as full_pipeline draws it."""
        from sdcs.measurement import sample_sparse_signal
        from sdcs.rng import RngStream

        floor = 2.0 ** (r - 0.5) * self.cfg["delta"]
        return sample_sparse_signal(self.cfg["n"], self.cfg["s"], floor, 10.0 * floor,
                                    RngStream(seed).substream("signal"))

    def check(self, log: OpLog, reference: dict | None, fail) -> None:
        import numpy as np
        from sdcs.experiments import trial_seed
        from sdcs.measurement import Ensemble, sample_matrix
        from sdcs.rng import RngStream

        cfg = self.cfg
        n, delta = cfg["n"], cfg["delta"]
        trial_ops = [op for op in log.ops if op.kind == "trial"]
        rows = self.executed
        if len(trial_ops) != len(rows):
            for op in trial_ops:
                fail(op, f"{len(trial_ops)} pipeline calls for {len(rows)} sweep rows")
            return
        for op, (r, rec) in zip(trial_ops, rows):
            where = f"r={r} m={rec.m} trial {rec.trial}"
            if op.error or rec.failed:
                fail(op, f"{where} failed: {op.error}")
                continue
            if not rec.bpdn_converged:
                fail(op, f"{where}: BPDN did not converge")
            if rec.bpdn_violation > BPDN_TOL or rec.bpdn_l1_slack > BPDN_TOL:
                fail(op, f"{where}: BPDN violation {rec.bpdn_violation} / l1 slack "
                         f"{rec.bpdn_l1_slack} > {BPDN_TOL}")
            if rec.support_correct and not rec.err_l2 <= rec.bound_eq3:
                fail(op, f"{where}: err {rec.err_l2} > bound {rec.bound_eq3}")
            truth = self._true_signal(rec.seed, r).support
            if rec.support_correct != bool(np.array_equal(op.result.recovered_support, truth)):
                fail(op, f"{where}: support verdict disagrees with the redrawn true support")
        msq_ops = [op for op in log.ops if op.kind == "msq"]
        m, r = cfg["msq_m"], cfg["msq_r"]
        for trial, op in enumerate(msq_ops):
            res = op.result
            if op.error or not math.isfinite(res.err_l2):
                fail(op, f"MSQ trial {trial} failed: {op.error}")
                continue
            if res.support_correct:
                # Least squares on the true support moves at most
                # ||q - y|| / sigma_min(phi_T) <= delta sqrt(m) / (2 sigma_min).
                seed = trial_seed(self.sweeps[r].seed, m, trial)
                truth = self._true_signal(seed, r)
                phi = sample_matrix(Ensemble(cfg["ensemble"]), m, n,
                                    RngStream(seed).substream("matrix"))
                smin = np.linalg.svd(phi[:, truth.support], compute_uv=False)[-1]
                bound = delta * math.sqrt(m) / (2.0 * smin)
                if not res.err_l2 <= bound * (1.0 + 1e-9):
                    fail(op, f"MSQ trial {trial}: err {res.err_l2} > least-squares bound {bound}")
        for op in log.ops:
            if op.kind == "check" and not (op.error is None and op.result[0]):
                fail(op, op.error or op.result[1])
        if reference is not None:
            ref = reference["rows"]
            ref_rows = {(int(r), m, trial): (sc, err)
                        for r, group in ref["sweep"].items() for m, trial, sc, err in group}
            if len(ref_rows) != len(rows):
                for op in trial_ops:
                    fail(op, f"{len(rows)} sweep rows, reference has {len(ref_rows)}")
            for op, (r, rec) in zip(trial_ops, rows):
                sc, err = ref_rows.get((r, rec.m, rec.trial), (None, None))
                if sc is None or rec.support_correct != sc or not _close(rec.err_l2, err):
                    fail(op, f"r={r} m={rec.m} trial {rec.trial}: (support_correct, err_l2) = "
                             f"({rec.support_correct}, {rec.err_l2}), reference ({sc}, {err})")
            for trial, (op, (sc, err)) in enumerate(zip(msq_ops, ref["msq"])):
                if op.result is not None and (op.result.support_correct != sc
                                              or not _close(op.result.err_l2, err)):
                    fail(op, f"MSQ trial {trial}: ({op.result.support_correct}, "
                             f"{op.result.err_l2}), reference ({sc}, {err})")


class RipWorkload:
    """Monte Carlo and exact RIC scans of scaled projections, and a small-ball probe."""

    def __init__(self, cfg: dict, seed: int):
        from sdcs.measurement import Ensemble
        from sdcs.rip import ENUMERATION_CAP

        self.cfg, self.seed = cfg, seed
        self.ensemble = Ensemble(cfg["ensemble"])
        for part in ("mc", "exact", "small_ball"):
            if not 1 <= cfg[part]["ell"] <= cfg[part]["m"]:
                raise ValueError(f"{part}: need 1 <= ell <= m")
        if math.comb(cfg["exact"]["n"], cfg["s"]) > ENUMERATION_CAP:
            raise ValueError("exact scan exceeds the enumeration cap")

    def _rng(self, label):
        from sdcs.rng import RngStream

        return RngStream(self.seed).substream(label)

    def _scan(self, part: str, index: int, supports: int | None):
        import sdcs.measurement as me
        import sdcs.rip as rip

        p = self.cfg[part]
        phi = me.sample_matrix(self.ensemble, p["m"], p["n"], self._rng((part, "matrix", index)))
        a = rip.projected_matrix(phi, self.cfg["r"], p["ell"])
        if supports is None:
            return rip.ric_exact(a, self.cfg["s"])
        return rip.ric_monte_carlo(a, self.cfg["s"], supports, self._rng((part, "supports", index)))

    def _small_ball(self):
        import sdcs.rip as rip

        p = self.cfg["small_ball"]
        return rip.small_ball_probe(self.ensemble, p["m"], self.cfg["r"], p["ell"], p["trials"],
                                    self._rng("small-ball"))

    def run(self, log: OpLog) -> None:
        mc, ex = self.cfg["mc"], self.cfg["exact"]
        for i in range(mc["ops"]):
            log.call("ric_mc", self._scan, "mc", i, mc["supports"])
        for j in range(ex["ops"]):
            log.call("ric_exact", self._scan, "exact", j, None)
            # The same matrix again: criterion 6b compares the two scans.
            log.call("ric_mc_paired", self._scan, "exact", j, ex["mc_supports"])
        log.call("small_ball", self._small_ball)

    def rows(self, log: OpLog) -> dict:
        return {"ops": [[op.kind, _op_value(op)] for op in log.ops]}

    def recovery(self):
        return None

    def check(self, log: OpLog, reference: dict | None, fail) -> None:
        cfg = self.cfg
        expected = {"ric_mc": cfg["mc"]["supports"], "ric_mc_paired": cfg["exact"]["mc_supports"],
                    "ric_exact": math.comb(cfg["exact"]["n"], cfg["s"])}
        exact_value = None
        for op in log.ops:
            if op.error:
                fail(op, f"{op.kind} op {op.id} raised {op.error}")
                continue
            res = op.result
            if op.kind == "small_ball":
                ell = cfg["small_ball"]["ell"]
                if not abs(res.mean - ell) <= SMALL_BALL_TOL * ell:
                    fail(op, f"small-ball mean {res.mean} is more than 5% off ell={ell}")
                continue
            if res.supports_checked != expected[op.kind]:
                fail(op, f"{op.kind} op {op.id} checked {res.supports_checked} supports, "
                         f"expected {expected[op.kind]}")
            if not math.isfinite(res.value):
                fail(op, f"{op.kind} op {op.id}: non-finite value {res.value}")
            if op.kind == "ric_exact":
                exact_value = res.value
            elif op.kind == "ric_mc_paired" and exact_value is not None:
                if not res.value <= exact_value + MC_TOL:
                    fail(op, f"Monte Carlo RIC {res.value} exceeds exact {exact_value} "
                             f"on the same matrix")
                exact_value = None
        if reference is not None:
            ref = reference["rows"]["ops"]
            if len(ref) != len(log.ops):
                for op in log.ops:
                    fail(op, f"{len(log.ops)} ops, reference has {len(ref)}")
                return
            for op, (kind, value) in zip(log.ops, ref):
                if op.error is None and (op.kind != kind or not _close(_op_value(op), value)):
                    fail(op, f"{op.kind} op {op.id}: value {_op_value(op)}, reference {value}")


def _op_value(op: Op) -> float:
    return op.result.mean if op.kind == "small_ball" else op.result.value


def make_workload(cfg: dict, seed: int):
    return (SweepWorkload if cfg["kind"] == "sweep" else RipWorkload)(cfg, seed)


def _check_traced(tracer, log: OpLog, fail) -> None:
    """Quantizer identities on every traced call, and BPDN convergence."""
    import numpy as np

    from tracer import INFO, NAME, OP

    for span in tracer.spans:
        if span[NAME] == "quantizer.sigma_delta_quantize":
            y, qcfg, out = span[INFO]
            y = np.asarray(y, dtype=np.float64)
            excess = float(np.max(np.abs(out.u))) - qcfg.delta / 2.0
            resid = out.u.copy()
            for _ in range(qcfg.r):  # D u: u_i - u_{i-1}, zero before the start
                resid[1:] = resid[1:] - resid[:-1]
            dev = float(np.max(np.abs(resid - (y - out.q))))
            if excess > STATE_TOL or dev > RESIDUAL_TOL:
                fail(log.ops[span[OP]], f"quantizer: state excess {excess:.3e} "
                                        f"(<= {STATE_TOL}), residual {dev:.3e} (<= {RESIDUAL_TOL})")
            span[INFO] = None
        elif span[NAME] == "recovery.bpdn_solve" and not span[INFO][1]:
            fail(log.ops[span[OP]], "BPDN did not converge")


def _bpdn_iterations(log: OpLog, tracer) -> dict:
    """Mean BPDN iterations per op label (sweep trials by order, MSQ)."""
    groups: dict[str, list[int]] = {}
    for op in log.ops:
        if op.kind == "trial" and op.result is not None:
            groups.setdefault(op.label, []).append(op.result.bpdn_iterations)
    if tracer is not None:
        from tracer import INFO, NAME, OP

        for span in tracer.spans:
            if span[NAME] == "recovery.bpdn_solve" and span[OP] is not None \
                    and log.ops[span[OP]].kind == "msq":
                groups.setdefault("msq", []).append(span[INFO][0])
    return {k: sum(v) / len(v) for k, v in groups.items()}


def _op_seconds(log: OpLog) -> dict:
    """Total op time per op label, for comparing with figures quoted elsewhere."""
    out: dict[str, float] = {}
    for op in log.ops:
        out[op.label] = out.get(op.label, 0.0) + (op.end - op.start)
    return out


def machine() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(spec: dict) -> dict:
    """Run one workload process; returns the JSON-ready result."""
    workload = make_workload(spec["config"], spec["seed"])
    setup_done = time.monotonic()
    if spec["mode"] == "setup":
        return {"setup_done": setup_done}

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    log = OpLog(tracer)
    aborted = None
    try:
        if tracer is not None:
            with tracer:
                workload.run(log)
        else:
            workload.run(log)
    except Exception as exc:  # reported as one failed op, the run still ends cleanly
        aborted = f"workload aborted: {type(exc).__name__}: {exc}"
    wall_s = log.ops[-1].end - log.ops[0].start if log.ops else 0.0
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures: list[str] = [aborted] if aborted else []
    failed_ops: set[int] = set()

    def fail(op, reason):
        failed_ops.add(op.id)
        failures.append(reason)

    reference = None
    if spec.get("reference"):
        with open(spec["reference"]) as fh:
            reference = json.load(fh)
        if reference["config"] != spec["config"] or reference["seed"] != spec["seed"]:
            raise SystemExit(f"{spec['reference']} was made for another config or seed")
    if not aborted:
        workload.check(log, reference, fail)
    out = {
        "setup_done": setup_done,
        "seed": spec["seed"],
        "wall_s": wall_s,
        "peak_rss_kib": peak_rss_kib,
        "op_ms": [(op.end - op.start) * 1e3 for op in log.ops if op.kind != "check"],
        "recovery": workload.recovery(),
        "bpdn_iters_by_op": _bpdn_iterations(log, tracer),
        "op_s_by_label": _op_seconds(log),
        "machine": machine(),
    }
    if spec.get("rows"):
        out["rows"] = workload.rows(log)
    if tracer is not None:
        from tracer import layer_metrics

        values, absent, pooled = layer_metrics(tracer.spans, tracer.missing)
        out["layers"] = {"values": values, "absent": absent, "pooled": pooled}
        _check_traced(tracer, log, fail)
        if spec.get("spans_out"):
            _write_spans(tracer, spec["spans_out"])
    out["attempted"] = len(log.ops) + (1 if aborted else 0)
    out["failed"] = len(failed_ops) + (1 if aborted else 0)
    out["failures"] = failures[:20]
    return out


def _write_spans(tracer, path: str) -> None:
    from tracer import END, NAME, OP, PARENT, START

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps([span[NAME], span[START], span[END], span[PARENT], span[OP]]))
            fh.write("\n")


def main() -> int:
    spec = json.loads(sys.argv[1])
    import sdcs.cli  # noqa: F401  (the import every sdcs invocation pays)

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(sdcs.cli.__file__).startswith(src + os.sep):
        print(f"sdcs was imported from {sdcs.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
