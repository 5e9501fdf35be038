"""Write the default-seed reference rows that the benchmark checks against.

    PYTHONPATH=src python3 bench/make_reference.py

Run it only at the commit whose outputs define the reference (the commit
that added the benchmark).  At the default seed every later run compares
each op's outputs with these rows: support verdict and err_l2 for sweep
trials, the RIC value or small-ball mean for rip-diag ops, all to a relative
1e-6.  Regenerating the files at a later commit would hide the very changes
the check exists to catch.
"""

from __future__ import annotations

import json
from pathlib import Path

from child import run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def _format(header: dict, rows: dict) -> str:
    """JSON with one reference row per line, so that diffs stay readable."""
    lines = [json.dumps(header)[:-1] + ', "rows": {']
    groups = [(f'"{key}": ', value) for key, value in rows.items()]
    for i, (prefix, value) in enumerate(groups):
        tail = "," if i < len(groups) - 1 else ""
        if isinstance(value, dict):  # sweep rows per order
            inner = [f'  "{k}": [\n' + ",\n".join("   " + json.dumps(r) for r in v) + "\n  ]"
                     for k, v in value.items()]
            lines.append(" " + prefix + "{\n" + ",\n".join(inner) + "\n }" + tail)
        else:
            lines.append(" " + prefix + "[\n" + ",\n".join("  " + json.dumps(r) for r in value)
                         + "\n ]" + tail)
    return "\n".join(lines) + "\n}}\n"


def main() -> None:
    for name, wl in WORKLOADS.items():
        spec = {"mode": "run", "trace": False, "seed": wl["default_seed"],
                "config": wl["config"], "reference": None, "rows": True}
        out = run(spec)
        if out["failed"]:
            raise SystemExit(f"{name}: {out['failed']} ops failed: {out['failures']}")
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        header = {"workload": name, "seed": wl["default_seed"], "config": wl["config"]}
        path.write_text(_format(header, out["rows"]))
        print(f"wrote {path.relative_to(BENCH.parent)}")


if __name__ == "__main__":
    main()
