"""Self-check of the benchmark at tiny size.

    python3 perfbench/selfcheck.py

Runs every workload for two rotations at the default and the held-out seed
(reference.json), untraced and traced, and asserts that every metric named
in BENCHMARK.json appears with its unit, that no instance failed, and that
the verdict digests match the stored references.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, trace: int) -> tuple[int, list[str]]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--min-items", "0", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in (reference["default_seed"], reference["held_out_seed"]):
            for trace in (0, 1):
                code, lines = _run(workload, seed, trace)
                where = f"{workload} seed {seed} trace {trace}"
                before = len(problems)
                if code != 0 or not lines:
                    problems.append(f"{where}: exit code {code}")
                    continue
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                    continue
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace].items()) ^ set(got.items()))
                    problems.append(f"{where}: metric names or units differ: {missing}")
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{where}: failed_ratio {result['failed']}/{result['attempted']}")
                if not any(line.startswith(f"{workload}: digest ") and line.endswith("(matches)") for line in lines):
                    problems.append(f"{where}: verdict digest does not match the reference")
                print(f"{where}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selfcheck: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
