"""The benchmark workloads: seeded inputs, the timed calls, and the checks.

Each workload turns a seed into items with ``make(seed, k)``; riesz_lab sees
only those generated inputs.  ``run(item)`` is the timed part: every call
that one instance needs, through the public API.  ``check(item, result)``
runs outside the timed region: it compares every verdict with the structural
oracle and replays every counterexample from its canonical JSON.

Items come in rotations: ``rotation`` consecutive items cover every cell of
the workload's grid once, so any whole number of rotations has the same mix
of sizes and of passing and failing instances whatever the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import riesz_lab as rl
from riesz_lab import sampling
from riesz_lab.checks import OS_DISJOINT, OS_J_IDENTITY

OMEGA = rl.Space.omega_plus_one()
PROBE_DEPTH = 40


@dataclass(frozen=True)
class Item:
    instance: object  # a Polynomial or a SymTensor
    samples: int
    seed: int
    expect_continuous: bool = False  # omega-nets: no mass at the limit point
    witness: object | None = None  # omega-nets: a product-functional polynomial


def _verdict_checks(pairs) -> tuple[bool, list]:
    """Oracle agreement and counterexample replay for (instance, verdict) pairs."""
    ok = True
    stream = []
    for instance, verdict in pairs:
        if verdict.mode in rl.OA_MODES:
            expected = instance.is_orthogonally_additive()
        else:
            expected = instance.is_diagonal()
        ok = ok and verdict.passed == expected
        if verdict.counterexample is not None:
            payload = rl.attach_instance(verdict.counterexample, rl.to_obj(instance))
            ok = ok and rl.reverify_counterexample(json.loads(rl.dumps_canonical(payload)))
        elif not verdict.passed:
            ok = False  # every failure must ship a replayable counterexample
        stream.append([verdict.mode, verdict.passed, verdict.samples_checked])
    return ok, stream


class OaGrid:
    """Criterion-2 shape: the seven OA modes on many small instances."""

    name = "oa-grid"
    cells = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4, 5)]
    rotation = 4 * len(cells)  # every cell with each of the four kinds
    pool_rotations = 100
    trace_rotations = 10

    def make(self, seed: int, k: int) -> Item:
        m, n = self.cells[k % len(self.cells)]
        kind = (k // len(self.cells)) % 4  # measure, diagonal, measure, off-diagonal
        rng = sampling.rng_for(self.name, seed, k)
        space = rl.Space.finite(n)
        if kind % 2 == 0:
            poly = rl.to_polynomial(sampling.measure(rng, space), m)
        else:
            tensor = sampling.sym_tensor(rng, space, m, diagonal=kind == 1, ensure_off_diagonal=kind == 3)
            poly = rl.Polynomial.from_tensor(tensor)
        return Item(poly, rl.structured_pair_count(n, m) + 26, rng.randrange(2**32))

    def run(self, item: Item):
        verdicts = rl.oa_mode_agreement(item.instance, item.samples, item.seed)
        return [(item.instance, v) for v in verdicts.values()]

    def check(self, item: Item, result) -> tuple[bool, list]:
        return _verdict_checks(result)


class OmegaNets:
    """omega1 measure polynomials: object-path OA modes and the
    order-continuity dichotomy probed along the witness net."""

    name = "omega-nets"
    rotation = 6  # degree 2..4, each without and with a limit atom
    pool_rotations = 100
    trace_rotations = 6

    def make(self, seed: int, k: int) -> Item:
        m = 2 + k % 3
        with_limit = (k // 3) % 2 == 1
        rng = sampling.rng_for(self.name, seed, k)
        atoms = sampling.measure(rng, OMEGA, normal=True).atoms
        limit = sampling.rational(rng, nonzero=True) if with_limit else Fraction(0)
        poly = rl.to_polynomial(rl.Measure(OMEGA, atoms, limit_atom=limit), m)
        witness = None
        if k % self.rotation == 0:
            phi = rl.Functional.coordinate(rng.randint(1, 6))
            witness = rl.ProductFunctionalPolynomial(m, phi, rl.Functional.limit())
        return Item(poly, 24, rng.randrange(2**32), expect_continuous=not with_limit, witness=witness)

    def run(self, item: Item):
        verdicts = rl.oa_mode_agreement(item.instance, item.samples, item.seed)
        agrees = rl.dichotomy_agrees(item.instance, probe_depth=PROBE_DEPTH)
        witness = rl.discontinuity_witness(item.witness, PROBE_DEPTH) if item.witness is not None else None
        return [(item.instance, v) for v in verdicts.values()], agrees, witness

    def check(self, item: Item, result) -> tuple[bool, list]:
        pairs, agrees, witness = result
        ok, stream = _verdict_checks(pairs)
        continuous = rl.oa_order_continuity(item.instance)
        ok = ok and agrees and continuous == item.expect_continuous
        stream.append(["order-continuity", continuous, PROBE_DEPTH])
        if item.witness is not None:
            exact = witness.gap == 1 and len(witness.values) == PROBE_DEPTH
            ok = ok and exact
            stream.append(["discontinuity-gap", exact, len(witness.values)])
        return ok, stream


class WideForms:
    """Few large symmetric tensors: orthosymmetry and OA checks whose cost is
    the int64 dense-core kernel rather than per-sample Python."""

    name = "wide-forms"
    # costs rise evenly from (3, 13) to (4, 12), so p50 and p90 each fall
    # inside a cell rather than on the edge between two
    cells = [(3, 13), (3, 16), (4, 10), (4, 11), (4, 12)]
    rotation = 2 * len(cells)  # every cell diagonal and off-diagonal
    pool_rotations = 30
    trace_rotations = 4

    def make(self, seed: int, k: int) -> Item:
        m, n = self.cells[k % len(self.cells)]
        diagonal = (k // len(self.cells)) % 2 == 0
        rng = sampling.rng_for(self.name, seed, k)
        space = rl.Space.finite(n)
        tensor = sampling.sym_tensor(rng, space, m, diagonal=diagonal, ensure_off_diagonal=not diagonal)
        return Item(tensor, rl.structured_pair_count(n, m) + 26, rng.randrange(2**32))

    def run(self, item: Item):
        tensor = item.instance
        poly = rl.Polynomial.from_tensor(tensor)
        pairs = [
            (tensor, rl.orthosymmetry_check(tensor, OS_J_IDENTITY, 200, item.seed)),
            (tensor, rl.orthosymmetry_check(tensor, OS_DISJOINT, item.samples, item.seed)),
        ]
        verdicts = rl.oa_mode_agreement(poly, item.samples, item.seed)
        return pairs + [(poly, v) for v in verdicts.values()]

    def check(self, item: Item, result) -> tuple[bool, list]:
        return _verdict_checks(result)


WORKLOADS = {w.name: w for w in (OaGrid(), OmegaNets(), WideForms())}
