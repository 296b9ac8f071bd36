"""Acceptance gate: the nine primary criteria, one printed verdict line each.

Every check is exact (Fraction arithmetic end to end); a criterion with a
runtime budget measures wall time and folds it into its verdict.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from time import monotonic

from riesz_lab import (
    Element,
    Functional,
    Measure,
    Polynomial,
    ProductFunctionalPolynomial,
    Space,
    SymTensor,
    attach_instance,
    carriers_disjoint,
    dichotomy_agrees,
    discontinuity_witness,
    dumps_canonical,
    local_carrier_check,
    local_disjointness,
    local_lattice_consistency,
    nakano_regression_pair,
    nakano_verify,
    norm_check,
    oa_mode_agreement,
    orthosymmetry_check,
    polarize,
    polys_disjoint,
    restrict,
    reverify_counterexample,
    structured_pair_count,
    to_measure,
    to_obj,
    to_polynomial,
    urysohn_witness_net,
    verify_certificate,
    zero_order_continuity_probe,
)
from riesz_lab.checks import OS_DIAGONAL, OS_J_IDENTITY
from riesz_lab.sampling import element, measure, rng_for, sym_tensor

from oracles import atomic_partition, modulus_partition_oracle

OM = Space.omega_plus_one()
GRID = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4, 5)]

# counterexample payloads produced along the way; criterion 9 replays them
COLLECTED: list[dict] = []


def _criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[PRIMARY] criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def _collect(verdict, instance) -> None:
    if verdict.counterexample is not None and len(COLLECTED) < 300:
        COLLECTED.append(attach_instance(verdict.counterexample, to_obj(instance)))


def test_criterion_1_orthosymmetry_equivalence():
    start = monotonic()
    ok = True
    for i in range(1000):
        m, n = GRID[i % len(GRID)]
        rng = rng_for("accept-os", i)
        space = Space.finite(n)
        form = sym_tensor(rng, space, m, diagonal=i % 2 == 0, ensure_off_diagonal=i % 2 == 1)
        decisive = orthosymmetry_check(form, OS_DIAGONAL)
        sampled = orthosymmetry_check(form, OS_J_IDENTITY, samples=500, seed=i)
        if decisive.passed != sampled.passed or not decisive.decisive:
            ok = False
            break
        _collect(decisive, form)
        _collect(sampled, form)
    elapsed = monotonic() - start
    ok = ok and elapsed < 120.0
    _criterion(1, "orthosymmetry-equivalence", ok, f"1000 tensors, {elapsed:.1f}s")


def test_criterion_2_additivity_mode_agreement():
    start = monotonic()
    ok = True
    checked = 0
    for m, n in GRID:
        space = Space.finite(n)
        samples = structured_pair_count(n, m) + 26
        for i in range(1000):
            rng = rng_for("accept-oa", m, n, i)
            if i % 2 == 0:
                poly = to_polynomial(measure(rng, space), m)
            else:
                poly = Polynomial.from_tensor(
                    sym_tensor(rng, space, m, diagonal=i % 4 == 1, ensure_off_diagonal=i % 4 == 3)
                )
            verdicts = oa_mode_agreement(poly, samples=samples, seed=i)
            outcomes = {v.passed for v in verdicts.values()}
            if len(outcomes) != 1 or outcomes != {poly.is_orthogonally_additive()}:
                ok = False
                break
            for verdict in verdicts.values():
                _collect(verdict, poly)
            checked += 1
        if not ok:
            break
    elapsed = monotonic() - start
    _criterion(2, "additivity-mode-agreement", ok, f"{checked} polynomials x 7 modes, {elapsed:.1f}s")


def test_criterion_3_polarisation_round_trip():
    ok = True
    for m in (2, 3):
        for n in (2, 3, 4, 5):
            space = Space.finite(n)
            for i in range(200):
                rng = rng_for("accept-polarize", m, n, i)
                form = sym_tensor(rng, space, m)
                poly = Polynomial.from_tensor(form)
                if polarize(poly) != form:
                    ok = False
                x = element(rng, space)
                if polarize(poly).evaluate_diagonal(x) != poly.evaluate(x):
                    ok = False
    for i in range(100):
        rng = rng_for("accept-prefactor", i)
        s = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))
        t = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))
        total = sum(e1 * e2 * (e1 * s + e2 * t) ** 2 for e1, e2 in product((1, -1), repeat=2))
        if total != 8 * s * t:
            ok = False
    _criterion(3, "polarisation-round-trip", ok, "1600 round trips + 100 prefactor sums")


def test_criterion_4_measure_isometry():
    ok = True
    previous: dict[bool, Measure] = {}
    for i in range(1000):
        rng = rng_for("accept-isometry", i)
        space = Space.finite(2 + i % 4) if i % 2 == 0 else OM
        mu = measure(rng, space)
        degree = 2 + i % 3
        poly = to_polynomial(mu, degree)
        regular, variation = norm_check(poly)
        if regular != variation:
            ok = False
        partner = previous.get(space.is_finite)
        if partner is not None and partner.space == space:
            p, q = to_polynomial(mu, degree), to_polynomial(partner, degree)
            if to_measure(p.join(q)) != mu.join(partner):
                ok = False
            if to_measure(p.meet(q)) != mu.meet(partner):
                ok = False
            if to_measure(p + q) != mu + partner:
                ok = False
            if to_measure(abs(p)) != abs(mu):
                ok = False
            if polys_disjoint(p, q) != mu.is_disjoint(partner):
                ok = False
        previous[space.is_finite] = mu
    _criterion(4, "measure-isometry", ok, "1000 measures, both backends")


def test_criterion_5_modulus_partition_oracle():
    ok = True
    for m in (2, 3):
        for n in (2, 3, 4):
            space = Space.finite(n)
            for i in range(100):
                rng = rng_for("accept-modulus", m, n, i)
                form = sym_tensor(rng, space, m)
                args = []
                for _ in range(m):
                    x = element(rng, space, positive=True)
                    args.append(x if not x.is_zero() else Element.constant(space, 1))
                atomics = [atomic_partition(x) for x in args]
                exact = abs(form).evaluate(args)
                at_atomic = modulus_partition_oracle(form, args, atomics)
                if at_atomic != exact:
                    ok = False
                trivial = modulus_partition_oracle(form, args, [[x] for x in args])
                merged_parts = []
                for x, parts in zip(args, atomics):
                    if len(parts) < 2:
                        merged_parts.append([x])
                    else:
                        head = parts[0]
                        rest = parts[1]
                        for extra in parts[2:]:
                            rest = rest + extra
                        merged_parts.append([head, rest])
                merged = modulus_partition_oracle(form, args, merged_parts)
                if not (trivial <= merged <= at_atomic):
                    ok = False
    _criterion(5, "modulus-partition-oracle", ok, "600 cases, refinement-monotone")


def test_criterion_6_localisation_identities():
    ok = True
    for i in range(500):
        n = 2 + i % 4
        space = Space.finite(n)
        rng = rng_for("accept-localise", i)
        gen = element(rng, space, positive=True)
        if gen.is_zero():
            gen = Element.constant(space, 1)
        m = 2 + i % 2
        if i % 3 == 0:
            first, second = sym_tensor(rng, space, m), sym_tensor(rng, space, m)
            pair = (Polynomial.from_tensor(first), Polynomial.from_tensor(second))
        elif i % 3 == 1:
            first, second = measure(rng, space), measure(rng, space)
            pair = (to_polynomial(first, m), to_polynomial(second, m))
        else:
            pair = (to_polynomial(measure(rng, space), m), to_polynomial(measure(rng, space), m))
            first, second = pair
        if not local_lattice_consistency(first, second, gen).passed:
            ok = False
        p, q = pair
        if not local_disjointness(p, q).equivalence_holds:
            ok = False
        if p.kind == "measure" and not local_carrier_check(p, gen).passed:
            ok = False
        masked = Element(
            space,
            values=[v if g != 0 else Fraction(0) for v, g in zip(element(rng, space).values, gen.values)],
        )
        if restrict(p, gen).evaluate(masked) != p.evaluate(masked):
            ok = False
    _criterion(6, "localisation-identities", ok, "500 object/generator pairs, n <= 5")


def test_criterion_7_order_continuity_dichotomy():
    start = monotonic()
    ok = True
    weight_space = [Fraction(w) for w in (-1, 0, 1)]
    for combo in product(weight_space, repeat=3):
        for limit in weight_space:
            mu = Measure(OM, {t: w for t, w in zip((1, 2, 3), combo) if w}, limit_atom=limit)
            for m in (2, 3, 4):
                if not dichotomy_agrees(to_polynomial(mu, m), probe_depth=12):
                    ok = False
    for i in range(200):
        rng = rng_for("accept-dichotomy", i)
        if not dichotomy_agrees(to_polynomial(measure(rng, OM), 2 + i % 3), probe_depth=12):
            ok = False
    for m in (2, 3, 4):
        poly = ProductFunctionalPolynomial(m, Functional.coordinate(1), Functional.limit())
        probe = zero_order_continuity_probe(poly, [urysohn_witness_net()], probe_depth=25)
        witness = discontinuity_witness(poly, probe_depth=25)
        if not probe.passed or witness.gap != 1 or not verify_certificate(witness.net, 25).passed:
            ok = False
    elapsed = monotonic() - start
    ok = ok and elapsed < 10.0
    _criterion(7, "order-continuity-dichotomy", ok, f"243 + 200 measures, {elapsed:.1f}s")


def test_criterion_8_carrier_criterion():
    ok = True
    pairs = 0
    for n in (2, 3, 4):
        space = Space.finite(n)
        cells = list(product((-1, 0, 1), repeat=n))
        measures = [Measure(space, {t: w for t, w in zip(range(1, n + 1), combo) if w}) for combo in cells]
        for mu, nu in product(measures, repeat=2):
            report = nakano_verify(to_polynomial(mu, 2), to_polynomial(nu, 2))
            if not (report.hypothesis_met and report.equivalence_holds):
                ok = False
            pairs += 1
    for i in range(1000):
        rng = rng_for("accept-nakano", i)
        p = to_polynomial(measure(rng, OM, normal=True), 2 + i % 2)
        q = to_polynomial(measure(rng, OM), 2 + i % 2)
        report = nakano_verify(p, q)
        if not (report.hypothesis_met and report.equivalence_holds):
            ok = False
        pairs += 1
    p, q = nakano_regression_pair()
    regression = nakano_verify(p, q)
    if regression.hypothesis_met or regression.equivalence_holds:
        ok = False
    if polys_disjoint(p, q) or not carriers_disjoint(p, q):
        ok = False
    _criterion(8, "carrier-criterion", ok, f"{pairs} pairs + stored regression")


def _run_cli(*argv: str) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "riesz_lab", *argv], capture_output=True, env=dict(os.environ)
    )
    return proc.returncode, proc.stdout


def test_criterion_9_cli_determinism():
    ok = True
    for argv in (
        ("check", "--suite", "orthosymmetry", "--n", "4", "--m", "2", "--trials", "25",
         "--seed", "42", "--format", "json"),
        ("check", "--suite", "carriers", "--space", "omega1", "--trials", "20",
         "--seed", "9", "--format", "json"),
        ("demo", "counterexample", "--m", "3", "--depth", "8"),
    ):
        code_a, out_a = _run_cli(*argv)
        code_b, out_b = _run_cli(*argv)
        if code_a != 0 or code_b != 0 or out_a != out_b or not out_a:
            ok = False

    payloads = list(COLLECTED)
    if not payloads:
        # standalone run: produce fresh counterexamples to replay
        for m, n in GRID:
            space = Space.finite(n)
            for s, t in combinations(range(1, n + 1), 2):
                idx = tuple(sorted((s,) + (t,) * (m - 1)))
                poly = Polynomial.from_tensor(SymTensor(space, m, {idx: 1}))
                verdicts = oa_mode_agreement(poly, samples=structured_pair_count(n, m) + 26, seed=7)
                for verdict in verdicts.values():
                    if verdict.counterexample is not None:
                        payloads.append(attach_instance(verdict.counterexample, to_obj(poly)))
    replayed = 0
    for payload in payloads:
        round_tripped = json.loads(dumps_canonical(payload))
        if not reverify_counterexample(round_tripped):
            ok = False
        replayed += 1
    ok = ok and replayed > 0
    _criterion(9, "cli-determinism", ok, f"3 commands byte-stable, {replayed} counterexamples replayed")
