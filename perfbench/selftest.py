#!/usr/bin/env python3
"""Show that the benchmark's verifier catches wrong output.

For each planted fault (a report field shifted by 1e-6, one changed digit in
a figure row, an item that raises) it runs perfbench/run.py briefly with
--inject and requires a finished run that prints every metric and reports
failed_frac > 0, then checks that a clean run still reports no failure.
Exits 1 if any case does not behave so. Run from the repository root:

    python3 perfbench/selftest.py
"""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

CASES = (
    ("fuzz2x2", "shift"),
    ("memory8", "shift"),
    ("primitives", "shift"),
    ("figures", "digit"),
    ("fuzz2x2", "raise"),
    ("memory8", "raise"),
    ("figures", "raise"),
    ("primitives", "raise"),
    ("fuzz2x2", None),
)


def main() -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    bad = 0
    for workload, fault in CASES:
        for trace in (0, 1) if fault else (0,):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace)] + (["--inject", fault] if fault else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            frac = result.get("failed", 0) / max(result.get("attempted", 1), 1)
            missing = names[trace] - set(result.get("metrics", {}))
            caught = frac > 0 and not result.get("correct", True)
            ok = proc.returncode == 0 and not missing and (caught if fault else result.get("correct") is True)
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:<10} inject={fault} trace={trace} "
                  f"exit={proc.returncode} failed_frac={frac:.4f} missing_metrics={sorted(missing)}")
    print("selftest passed" if not bad else f"selftest: {bad} case(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
