"""The benchmark's own tests: tiny smoke configs, tracer robustness, refusal.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]


def _bench(*args, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_or_says_why_not(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, final_line = proc.stdout.strip().splitlines()
    final = json.loads(final_line)
    report = json.loads(report_line)["report"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    for metric in wanted:
        name = metric["name"]
        if name in final["metrics"]:
            assert final["metrics"][name]["unit"] == metric["unit"]
            assert isinstance(final["metrics"][name]["value"], float)
        else:
            assert report["absent"].get(name), f"{name} neither emitted nor explained"
    if trace == "1":
        assert {m["name"] for m in wanted} == set(final["metrics"])
    assert report["fail_rate"] == 0.0
    assert report["machine"]["blas_threads"] == "1"


def test_tracer_wraps_every_binding_and_reports_missing_names(monkeypatch):
    import sdcs.difference
    import sdcs.recovery
    from tracer import Tracer, layer_metrics

    original = sdcs.difference.difference_power
    monkeypatch.delattr(sdcs.difference, "projected_basis")
    with Tracer() as tracer:
        assert sdcs.recovery.difference_power is sdcs.difference.difference_power
        assert sdcs.recovery.difference_power is not original
        sdcs.recovery.difference_power(6, 2)
        sdcs.difference.difference_power(6, 2)
    assert sdcs.recovery.difference_power is original
    values, absent, _ = layer_metrics(tracer.spans, tracer.missing)
    assert values["difference.power_calls"] == 2
    assert values["difference.power_cold_calls"] == 1
    assert values["difference.cache_hit_ratio"] == 0.5
    assert "sdcs.difference.projected_basis" in absent["difference.projected_basis_ms"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
