"""Command-line front end.

Commands: ``check`` runs a named property suite (or probes one polynomial
file for the order-continuity dichotomy), ``demo`` builds the discontinuity
witness report, ``carrier``/``nakano`` expose the band descriptors and the
carrier criterion, and ``localize`` restricts a serialised object along a
generator.  Each command declares exactly the options its handler reads;
every command takes ``--out``, and only ``check`` and ``demo`` take
``--depth``.  ``check`` hands on only the suite options the user set, so
`SuiteConfig` holds their only defaults and checks; ``check --poly`` takes
none of them, only ``--depth``, ``--format`` and ``--out``.  Exit codes: 0
all checks passed, 1 a property failed, 2 usage error (an option the
command does not take, or ``--depth`` below 1, included), an input or
output file that cannot be read or written, or a request too large for
memory.
"""

from __future__ import annotations

import argparse
import os
import sys

from .carriers import carrier, nakano_verify
from .errors import ConfigError, InvariantViolation, MalformedInstanceError, NoWitnessError, RieszLabError
from .jsonio import (
    dumps_canonical,
    element_to_obj,
    parse_instance_file,
    rational_str,
    to_obj,
)
from .lattice import Element
from .measures import Measure
from .order_continuity import (
    Functional,
    ProductFunctionalPolynomial,
    dichotomy_agrees,
    discontinuity_witness,
    oa_order_continuity,
)
from .polynomials import Polynomial
from .report import Report, PropertyResult, emit_report
from .restriction import restrict
from .suites import EXHAUSTIVE, SUITES, SuiteConfig, run_suite
from .tensors import SymTensor

_ENV_SEED = "RIESZ_LAB_SEED"


def _write(payload: bytes, out: str | None) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _emit_json(obj: dict, out: str | None) -> None:
    _write(dumps_canonical(obj).encode("utf-8"), out)


def _load(path: str, want: type | tuple[type, ...], what: str):
    instance = parse_instance_file(path)
    if not isinstance(instance, want):
        raise MalformedInstanceError(path, f"expected {what}, found {type(instance).__name__}")
    return instance


# -- check ----------------------------------------------------------------------


def _cmd_check(args) -> int:
    suite = args.suite_flag or args.suite
    if not suite:
        raise ConfigError("pick a suite: " + ", ".join(SUITES))
    # only the options given reach SuiteConfig, whose defaults are the only ones
    options = {"m": args.m, "n": args.n, "space": args.space, "trials": args.trials, "seed": args.seed}
    given = {name: value for name, value in options.items() if value is not None}
    if args.poly:
        return _check_single_poly(suite, args, given)
    if "seed" not in given and _ENV_SEED in os.environ:
        given["seed"] = os.environ[_ENV_SEED]
    report = run_suite(SuiteConfig(suite=suite, probe_depth=args.depth, **given))
    _write(emit_report(report, args.format), args.out)
    return 0 if report.passed else 1


def _check_single_poly(suite: str, args, given: dict) -> int:
    if suite != "order-continuity":
        raise ConfigError("--poly targets the order-continuity suite")
    if given:
        raise ConfigError(f"--poly probes one file and takes no {', '.join('--' + name for name in given)}")
    poly = _load(args.poly, Polynomial, "a polynomial instance")
    if poly.space.is_finite:
        raise ConfigError("the dichotomy probe runs on the sequence backend")
    structural = oa_order_continuity(poly)
    agrees = dichotomy_agrees(poly, probe_depth=args.depth)
    results = (
        PropertyResult(
            "normality-dichotomy",
            agrees,
            samples=args.depth,
            detail=f"structural verdict: order continuous = {structural}",
        ),
    )
    report = Report(suite, {"poly": args.poly, "probeDepth": args.depth}, results)
    _write(emit_report(report, args.format), args.out)
    return 0 if report.passed else 1


# -- demo -----------------------------------------------------------------------


def _cmd_demo(args) -> int:
    if args.m < 2:
        raise ConfigError("the demo polynomial starts at degree 2")
    poly = ProductFunctionalPolynomial(args.m, Functional.coordinate(1), Functional.limit())
    try:
        witness = discontinuity_witness(poly, probe_depth=args.depth)
    except NoWitnessError as exc:
        print(f"demo failed: {exc}", file=sys.stderr)
        return 1
    net = witness.net.sequence
    payload = {
        "basePoint": element_to_obj(witness.base_point),
        "netSamples": [element_to_obj(net.member(k)) for k in range(1, args.depth + 1)],
        "values": [rational_str(v) for v in witness.values],
        "gap": rational_str(witness.gap),
    }
    _emit_json(payload, args.out)
    return 0


# -- carrier / nakano / localize ---------------------------------------------------


def _cmd_carrier(args) -> int:
    poly = _load(args.poly, Polynomial, "a polynomial instance")
    _emit_json(to_obj(carrier(poly)), args.out)
    return 0


def _cmd_nakano(args) -> int:
    p = _load(args.p, Polynomial, "a polynomial instance")
    q = _load(args.q, Polynomial, "a polynomial instance")
    try:
        report = nakano_verify(p, q)
    except InvariantViolation as exc:
        print(f"carrier criterion violated: {exc}", file=sys.stderr)
        return 1
    payload = {
        "orderContinuousP": report.order_continuous_p,
        "orderContinuousQ": report.order_continuous_q,
        "polysDisjoint": report.polys_disjoint,
        "carriersDisjoint": report.carriers_disjoint,
        "hypothesisMet": report.hypothesis_met,
        "equivalenceHolds": report.equivalence_holds,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_localize(args) -> int:
    obj = _load(args.obj, (Measure, Polynomial, SymTensor), "a measure, tensor or polynomial instance")
    generator = _load(args.gen, Element, "a generator element")
    _emit_json(to_obj(restrict(obj, generator)), args.out)
    return 0


# -- argument plumbing ---------------------------------------------------------------


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riesz-lab",
        description="Exact checks for lattices of orthogonally additive polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a property suite")
    check.add_argument("suite", nargs="?", default=None, help="suite name")
    check.add_argument("--suite", dest="suite_flag", default=None, help="suite name")
    check.add_argument("--poly", default=None, help="probe one polynomial file instead")
    check.add_argument("--m", type=int, default=None, help="polynomial degree")
    check.add_argument("--n", type=int, default=None, help="finite space size")
    check.add_argument("--space", default=None, help="space spec: finite:N or omega1")
    check.add_argument("--trials", default=None, help=f"trial count, or {EXHAUSTIVE!r}")
    check.add_argument("--seed", default=None, help=f"RNG seed (default ${_ENV_SEED} or 0)")
    check.add_argument("--depth", type=int, default=50, help="net probe depth")
    check.add_argument("--format", choices=("human", "json"), default="human")
    _add_out(check)
    check.set_defaults(handler=_cmd_check)

    demo = sub.add_parser("demo", help="build the discontinuity witness report")
    demo.add_argument("name", nargs="?", choices=("counterexample",), default="counterexample")
    demo.add_argument("--m", type=int, default=2, help="polynomial degree")
    demo.add_argument("--depth", type=int, default=50, help="net probe depth")
    _add_out(demo)
    demo.set_defaults(handler=_cmd_demo)

    car = sub.add_parser("carrier", help="carrier descriptor of a polynomial file")
    car.add_argument("--poly", required=True)
    _add_out(car)
    car.set_defaults(handler=_cmd_carrier)

    nak = sub.add_parser("nakano", help="carrier criterion report for two polynomials")
    nak.add_argument("--p", required=True)
    nak.add_argument("--q", required=True)
    _add_out(nak)
    nak.set_defaults(handler=_cmd_nakano)

    loc = sub.add_parser("localize", help="restrict an object along a generator")
    loc.add_argument("--obj", required=True)
    loc.add_argument("--gen", required=True)
    _add_out(loc)
    loc.set_defaults(handler=_cmd_localize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        depth = vars(args).get("depth", 1)
        if depth < 1:
            raise ConfigError(f"--depth must be at least 1, got {depth}")
        return args.handler(args)
    except (RieszLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; narrow the request (a smaller --n, --m, --trials or --depth)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
