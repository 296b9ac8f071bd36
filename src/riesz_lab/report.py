"""Suite reports: per-property verdicts with re-verifiable counterexamples.

The JSON form is canonical (sorted keys, sorted properties, no timing data)
so identical configurations produce identical bytes; the human form adds
wall time and is lossy.  Counterexample payloads carry the instance and the
offending arguments, and `reverify_counterexample` replays the exact
identity from the serialised payload alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .checks import OA_MODES, OS_MODES, identity_sides
from .errors import MalformedInstanceError
from .jsonio import dumps_canonical, parse_element, parse_instance
from .polynomials import Polynomial
from .tensors import Form


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    samples: int = 0
    detail: str = ""
    counterexample: dict | None = None


@dataclass(frozen=True)
class Report:
    suite: str
    config: dict
    results: tuple[PropertyResult, ...]
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "config": dict(sorted(self.config.items())),
            "passed": self.passed,
            "properties": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "samples": r.samples,
                    "detail": r.detail,
                    "counterexample": r.counterexample,
                }
                for r in sorted(self.results, key=lambda r: r.name)
            ],
        }


def emit_report(report: Report, fmt: str = "human") -> bytes:
    if fmt == "json":
        return dumps_canonical(report.to_obj()).encode("utf-8")
    if fmt != "human":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"suite: {report.suite}"]
    for key, value in sorted(report.config.items()):
        lines.append(f"  {key}: {value}")
    for r in sorted(report.results, key=lambda r: r.name):
        status = "PASS" if r.passed else "FAIL"
        suffix = f" ({r.samples} samples)" if r.samples else ""
        lines.append(f"{status} {r.name}{suffix}")
        if r.detail:
            lines.append(f"     {r.detail}")
        if r.counterexample is not None:
            lines.append("     counterexample: " + json.dumps(r.counterexample, sort_keys=True))
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"result: {verdict} in {report.wall_seconds:.2f}s")
    return ("\n".join(lines) + "\n").encode("utf-8")


def reverify_counterexample(payload: dict) -> bool:
    """Replay a counterexample from its serialised payload.

    True when the identity named by ``mode`` still fails on the re-parsed
    instance and arguments with exactly the recorded sides.  A payload that
    cannot be replayed raises a `RieszLabError`: `MalformedInstanceError`
    for a missing or mistyped field, an unknown mode or an instance of the
    wrong family (orthosymmetry modes take forms, OA modes polynomials).
    """
    if not isinstance(payload, dict):
        raise MalformedInstanceError("$", "expected a JSON object")
    for key in ("mode", "instance", "args", "lhs", "rhs"):
        if key not in payload:
            raise MalformedInstanceError(f"$.{key}", "missing counterexample field")
    instance = parse_instance(payload["instance"], "$.instance")
    if not isinstance(payload["args"], list):
        raise MalformedInstanceError("$.args", "expected a list")
    args = [parse_element(o, f"$.args[{i}]") for i, o in enumerate(payload["args"])]
    mode = payload["mode"]
    if mode not in OS_MODES and mode not in OA_MODES:
        raise MalformedInstanceError("$.mode", f"unknown check mode {mode!r}")
    if not isinstance(instance, Form if mode in OS_MODES else Polynomial):
        raise MalformedInstanceError("$.instance", f"mode {mode!r} does not apply to a {type(instance).__name__}")
    lhs, rhs = identity_sides(instance, mode, args)
    return lhs != rhs and str(lhs) == payload["lhs"] and str(rhs) == payload["rhs"]


def attach_instance(payload: dict, instance_obj: dict) -> dict:
    """Counterexamples travel with their instance so they replay alone."""
    enriched = dict(payload)
    enriched["instance"] = instance_obj
    return enriched
