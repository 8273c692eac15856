"""Smoke test of the benchmark: every workload briefly, traced and untraced.

    python3 perfbench/smoke.py

Checks that each run exits 0, passes its output checks, and that its last
line reports exactly the metrics BENCHMARK.json names for that mode, each
with the unit BENCHMARK.json gives it.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append("output checks failed")
            metrics = result.get("metrics", {})
            if set(metrics) != set(expected[trace]):
                problems.append(f"metrics differ: missing "
                                f"{sorted(set(expected[trace]) - set(metrics))}, extra "
                                f"{sorted(set(metrics) - set(expected[trace]))}")
            for name, unit in expected[trace].items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{name}: {got}")
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                return 1
            print(f"ok   {label}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
