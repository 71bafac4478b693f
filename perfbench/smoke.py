"""Seconds-long self-check of the benchmark at tiny cohort sizes.

Usage, from the root of a source checkout: ``python3 perfbench/smoke.py``

Runs every workload of ``BENCHMARK.json`` once untraced and once traced at
the ``smoke`` size and checks that

* the last output line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and every output check passed;
* every end-to-end metric (untraced) and every per-layer metric (traced) is
  emitted, with the unit ``BENCHMARK.json`` declares, and nothing else;
* traced self times do not sum to more than the traced wall time (``run.py``
  also checks this per iteration, and that the counts of its two or more
  traced iterations are equal).

Exits 1 on the first failed check, 0 when all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: output check failed\n{proc.stderr}")
    return result["metrics"]


def check_metrics(workload: str, metrics: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(
            f"{workload}: missing {missing}, undeclared {extra}, wrong unit {wrong}"
        )
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            raise AssertionError(f"{workload}: {name} is not a number: {m['value']!r}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            check_metrics(workload, run(workload, 0), bench["end_to_end"])
            traced = run(workload, 1)
            check_metrics(workload, traced, bench["per_layer"])
            if traced["trace.self_sum_s"]["value"] > traced["trace.wall_s"]["value"] * (1 + 1e-9):
                raise AssertionError(f"{workload}: self times exceed the traced wall time")
            print(f"smoke {workload}: ok")
    except (AssertionError, subprocess.TimeoutExpired) as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        return 1
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
