"""Smoke test of the benchmark: every workload once on a tiny input.

Usage: python3 perfbench/smoke.py

Runs ``run.py --tiny`` for each workload, untraced and traced, and checks
that the result line has the contract's keys, that every answer matched its
oracle and that every metric named in BENCHMARK.json is emitted with its
unit (end-to-end metrics untraced, per-layer metrics traced), and that
the traced fibers run reaches the pair case.  The tiny inputs are a
conic(3) scan, count_tangent_pairs on conic(3) at m = 0 with the pairs
major identity at e = 1, divisor_table(3, 4) with one Weyl functional, and
the canonical (2, 1) certificate.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, expected: dict) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{where}: failed jobs\n{proc.stdout}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"{where}: metrics {got} != {expected}")
    if workload == "fibers" and trace and not result["metrics"]["expsums.pair_data.s"]["value"] > 0:
        raise SystemExit(f"{where}: the pair case (expsums.pair_data) was not reached")
    print(f"ok {where}: {len(got)} metrics, {result['attempted']} jobs")


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        check(workload, 0, end_to_end)
        check(workload, 1, per_layer)


if __name__ == "__main__":
    main()
