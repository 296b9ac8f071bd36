"""riesz-lab benchmark: closed-loop timing of exact checks through the public API.

    python3 perfbench/run.py --workload oa-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own single-threaded process (numpy and BLAS are
forced to one thread).  Set-up time is the median over several fresh
processes of the time from process start to the first timed call; instance
timings are in reference seconds (refclock.py), which cancel the host's
CPU-speed swings, and set-up time is converted to reference seconds by the
measuring loop's overall wall-to-reference factor.  Every instance's
verdicts are compared with the structural oracle and every counterexample
is replayed from canonical JSON; at the seeds listed in
perfbench/reference.json the verdict stream's digest must also match.  The
last line of output is one JSON object; the exit code is 1 when any output
is wrong and 2 when the benchmark cannot run.  Workloads, metrics and the
predicted effect of each layer are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("oa-grid", "omega-nets", "wide-forms")  # as in workloads.py, which imports the library
SETUP_PROBES = 9  # set-up-only processes, timed before the measuring one starts
DEADLINE_S = 170.0
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def _start(argv: list[str], deadline: float) -> tuple[subprocess.Popen, threading.Timer, float]:
    """Start a worker and time it to its READY line; kill it at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE,
                            text=True, env=_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, timer)
        raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, timer, setup


def _finish(proc: subprocess.Popen, timer: threading.Timer) -> str:
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, min_items: int | None = None) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if min_items is not None:
        argv += ["--min-items", str(min_items)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            proc, timer, setup = _start(argv + ["--setup-only"], deadline)
            _finish(proc, timer)
            if proc.returncode != 0:
                raise BenchError(f"set-up probe exited with {proc.returncode}")
            setups.append(setup)
    proc, timer, _ = _start(argv, deadline)
    out = _finish(proc, timer)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        wall = statistics.median(setups)
        factor = result["samples"].pop("reference_factor")
        result["metrics"]["setup_s"] = {"value": wall * factor, "unit": "s"}
        result["samples"]["setup_s"] = (f"median of {len(setups)} processes, {wall:.4f} wall seconds "
                                        f"times the measuring loop's reference factor {factor:.4f}")
    reference = json.loads((HERE / "reference.json").read_text())["digests"][workload]
    result["digest_expected"] = reference.get(str(seed))
    return result


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": _git_commit()}


def _git_commit() -> str:
    """HEAD of this checkout, read from .git without searching parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(workload: str, result: dict) -> bool:
    """Print one workload's metrics by name and unit; True when every output was right."""
    expected, digest = result["digest_expected"], result["digest"]
    digest_ok = expected is None or expected == digest
    correct = result["failed"] == 0 and digest_ok
    ratio = result["failed"] / result["attempted"]
    print(f"{workload}: failed_ratio {ratio} ratio ({result['failed']}/{result['attempted']} instances)")
    status = "unchecked at this seed" if expected is None else ("matches" if digest_ok else f"MISMATCH, expected {expected}")
    print(f"{workload}: digest {digest} ({status})")
    for name, metric in result["metrics"].items():
        note = result["samples"].get(name, "")
        print(f"{workload}: {name} {metric['value']} {metric['unit']}" + (f" ({note})" if note else ""))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-items", type=int, default=None,
                        help="smallest number of timed instances (default 110; the self-check uses 0)")
    args = parser.parse_args(argv)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.min_items)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    versions = next(iter(results.values()))["versions"]
    print("environment: " + json.dumps({**versions, **environment()}, sort_keys=True))
    correct = all([report(name, result) for name, result in results.items()])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
