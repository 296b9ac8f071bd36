"""One workload in one single-threaded process; started by run.py.

Prints ``READY`` once set-up is over (imports, inputs generated from the
seed, one untimed warm-up instance), then measures a closed loop, one caller
that starts the next instance only after the previous verdicts return, and
prints one JSON line with the measured metrics.  Instance timings are in
reference seconds (refclock.py).

With ``--trace 1`` the loop runs untraced for half the time, then the first
``trace_rotations`` rotations run again with every layer function wrapped
(spans.py), and the per-layer totals are printed instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import refclock

ROOT = Path(__file__).resolve().parent.parent
MIN_ITEMS = 110  # at least ten samples beyond p90
DIGEST_ROTATIONS = 2
CALIBRATE_EVERY_S = 0.1


def _import_library():
    """riesz_lab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "riesz_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no riesz_lab sources under {src}")
    sys.path.insert(0, str(src))
    import riesz_lab

    if Path(riesz_lab.__file__).resolve().parent != (src / "riesz_lab").resolve():
        sys.exit(f"perfbench: riesz_lab imported from {riesz_lab.__file__}, not from {src}")
    return riesz_lab


def _layer_targets():
    from spans import Target

    def computed_bytes(core, args):
        return args.shape[0] * core.size * 8  # S * n^m int64 entries per contraction

    rows = [
        ("checks", "checks", ["oa_mode_agreement", "orthogonal_additivity_check", "orthosymmetry_check",
                              "oa_identity_sides", "os_identity_sides"]),
        ("lattice", "lattice", ["Element.__init__", "Element.join", "Element.meet", "Element.__add__",
                                "Element.pos_part", "Element.neg_part", "decreasing_rearrangements",
                                "krivine_radical", "RadicalElement.exact_root"]),
        ("intpath", "_intpath", ["dense_core", "form_eval_batch", "poly_eval_batch", "measure_poly_eval_batch",
                                 "measure_weights", "polarize_tensor_int"]),
        ("tensors", "tensors", ["SymTensor.evaluate"]),
        ("measures", "measures", ["Measure.integrate"]),
        ("polynomials", "polynomials", ["Polynomial.evaluate", "polarize"]),
        ("convergence", "convergence", ["verify_certificate", "TailFamily.member"]),
        ("order_continuity", "order_continuity", ["dichotomy_agrees", "zero_order_continuity_probe"]),
    ]
    targets = [
        Target(f"{label}.{name}", f"riesz_lab.{module}", name,
               counter=computed_bytes if name == "form_eval_batch" else None)
        for label, module, names in rows
        for name in names
    ]
    # timed only in set-up and in the correctness phase
    for label, names in (("sampling", ["measure", "sym_tensor"]),
                         ("jsonio", ["dumps_canonical", "to_obj"]),
                         ("report", ["reverify_counterexample"])):
        targets += [Target(f"{label}.{name}", f"riesz_lab.{label}", name, items_only=False) for name in names]
    return targets


class Loop:
    """Closed-loop measurement over a pool of items, whole rotations only.

    The reference loop runs between items at least every CALIBRATE_EVERY_S;
    each item's wall latency is rescaled by the runs just before and after it.
    """

    def __init__(self, workload, pool, recorder=None):
        self.workload = workload
        self.pool = pool
        self.recorder = recorder
        self.wall: list[float] = []
        self.bracket: list[int] = []  # index of the last reference run before each item
        self.references: list[tuple[float, float]] = []  # (taken at, duration)
        self.stream: list[list] = []
        self.attempted = 0
        self.failed = 0

    def _reference(self) -> None:
        duration = refclock.reference_loop()
        self.references.append((time.perf_counter(), duration))

    def _timed(self, item):
        if self.recorder is None:
            return self.workload.run(item)
        with self.recorder.span("item", self.attempted):
            return self.workload.run(item)

    def step(self, item) -> None:
        result = None
        t0 = time.perf_counter()
        try:
            result = self._timed(item)
        except Exception:
            traceback.print_exc()
        self.wall.append(time.perf_counter() - t0)
        self.bracket.append(len(self.references) - 1)
        ok, entries = False, [["raised"]]
        if result is not None:
            try:
                ok, entries = self.workload.check(item, result)
            except Exception:
                traceback.print_exc()
        self.attempted += 1
        self.failed += not ok
        self.stream.append(entries)
        if time.perf_counter() - self.references[-1][0] >= CALIBRATE_EVERY_S:
            self._reference()

    def run(self, seconds: float, min_items: int) -> None:
        rotation = self.workload.rotation
        self._reference()
        start = time.perf_counter()
        while self.attempted < min_items or self.attempted % rotation or time.perf_counter() - start < seconds:
            self.step(self.pool[self.attempted % len(self.pool)])
        self._reference()

    def latencies(self) -> list[float]:
        """Per-item latency in reference seconds."""
        refs = [d for _, d in self.references]
        return [w * refclock.scale(refs[b], refs[b + 1]) for w, b in zip(self.wall, self.bracket)]

    def reference_scale(self) -> float:
        """Typical wall-to-reference factor over the whole loop."""
        return refclock.NOMINAL_S / statistics.median(d for _, d in self.references)

    def items_per_s(self, latencies: list[float]) -> tuple[float, int]:
        """Median over rotations of rotation items / their busy time."""
        r = self.workload.rotation
        rates = [r / sum(latencies[i:i + r]) for i in range(0, len(latencies) - r + 1, r)]
        return statistics.median(rates), len(rates)

    def digest(self) -> str:
        head = self.stream[: DIGEST_ROTATIONS * self.workload.rotation]
        return hashlib.sha256(json.dumps(head, separators=(",", ":")).encode()).hexdigest()[:16]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop) -> tuple[dict, dict]:
    latencies = loop.latencies()
    rate, rotations = loop.items_per_s(latencies)
    wall_rate, _ = loop.items_per_s(loop.wall)
    deciles = statistics.quantiles([t * 1000 for t in latencies], n=10)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    metrics = {
        "items_per_s": _metric(rate, "1/s"),
        "item_p50_ms": _metric(deciles[4], "ms"),
        "item_p90_ms": _metric(deciles[8], "ms"),
        "peak_rss_mb": _metric(peak_kib / 1024, "MB"),
    }
    items = f"{len(latencies)} items"
    samples = {"items_per_s": f"median of {rotations} rotations; {wall_rate:.2f} per wall second",
               "item_p50_ms": items, "item_p90_ms": items,
               # wall-to-reference factor of the whole loop; run.py rescales set-up time by it
               "reference_factor": sum(latencies) / sum(loop.wall)}
    return metrics, samples


def per_layer(workload, seed: int, loop: Loop, recorder) -> tuple[dict, dict]:
    count = workload.trace_rotations * workload.rotation
    with recorder.installed("riesz_lab", _layer_targets()):
        items = [workload.make(seed, k) for k in range(count)]  # sampling spans, outside items
        traced = Loop(workload, items, recorder)
        traced.run(0, count)
    factor = traced.reference_scale()
    metrics = {}
    for label, row in recorder.totals().items():
        metrics[f"{label}.calls"] = _metric(row["calls"], "count")
        metrics[f"{label}.self_s"] = _metric(row["self_s"] * factor, "s")
        metrics[f"{label}.total_s"] = _metric(row["total_s"] * factor, "s")
    elements = metrics["lattice.Element.__init__.calls"]["value"]
    metrics["lattice.elements_per_item"] = _metric(elements / count, "1/item")
    metrics["intpath.fallbacks"] = _metric(recorder.raised("IntPathUnavailable", "riesz_lab._intpath"), "count")
    metrics["intpath.form_eval_batch.bytes_computed"] = _metric(
        recorder.counts.get("intpath.form_eval_batch", 0), "B")
    metrics["trace.items_per_s"] = _metric(traced.items_per_s(traced.latencies())[0], "1/s")
    metrics["trace.untraced_items_per_s"] = _metric(loop.items_per_s(loop.latencies())[0], "1/s")
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    return metrics, {"per_layer": f"{count} traced items, {len(recorder.fn)} spans"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-items", type=int, default=MIN_ITEMS)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    rl = _import_library()
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.pool_rotations * workload.rotation
    pool = [workload.make(args.seed, k) for k in range(size)]
    workload.run(workload.make(args.seed, size))  # untimed warm-up instance, outside the pool
    print("READY", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(workload, pool)
    min_items = max(args.min_items, DIGEST_ROTATIONS * workload.rotation)
    if args.trace:
        from spans import SpanRecorder

        loop.run(args.seconds / 2, min_items)
        metrics, samples = per_layer(workload, args.seed, loop, SpanRecorder())
    else:
        loop.run(args.seconds, min_items)
        metrics, samples = end_to_end(loop)
    print(json.dumps({
        "attempted": loop.attempted,
        "failed": loop.failed,
        "digest": loop.digest(),
        "metrics": metrics,
        "samples": samples,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "riesz_lab": rl.__version__},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
