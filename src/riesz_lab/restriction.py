"""Restriction of forms, polynomials, and measures to principal ideals.

Restricting an object along a nonnegative generator masks it to the
generator's support; on the masked support the restriction agrees with its
parent on every element of the ideal.  Lattice structure (modulus, join,
meet) and disjointness localise: they commute with restriction, and two
polynomials are disjoint exactly when all their restrictions are, with the
constant-one generator alone already decisive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DegreeMismatchError, RepresentationError, SpaceMismatchError
from .lattice import LIMIT, Element, PrincipalIdeal, Space
from .measures import Measure
from .polynomials import MEASURE, Polynomial, polys_disjoint
from .tensors import SymTensor

Restrictable = Union[SymTensor, Polynomial, Measure]


@dataclass(frozen=True)
class RestrictedObject:
    parent: Restrictable
    ideal: PrincipalIdeal
    induced: Restrictable


def _as_ideal(a: PrincipalIdeal | Element) -> PrincipalIdeal:
    return a if isinstance(a, PrincipalIdeal) else PrincipalIdeal(a)


def _restrict_measure(mu: Measure, gen: Element) -> Measure:
    keep = frozenset(t for t in mu.atoms if gen.value_at(t) != 0)
    keep_limit = (not mu.space.is_finite) and gen.value_at(LIMIT) != 0
    return mu.restrict(keep, keep_limit)


def restrict(obj: Restrictable, a: PrincipalIdeal | Element) -> RestrictedObject:
    """Mask an object to the support of the ideal generator.

    Tensors require a finite backend; measures restrict on both backends
    (the limit atom survives exactly when the generator is nonzero at the
    limit point).
    """
    ideal = _as_ideal(a)
    gen = ideal.generator
    if not isinstance(obj, (Measure, SymTensor, Polynomial)):
        raise TypeError(f"cannot restrict {type(obj).__name__}")
    if obj.space != gen.space:
        raise SpaceMismatchError("generator lives on a different space")
    if isinstance(obj, Measure):
        induced = _restrict_measure(obj, gen)
    elif isinstance(obj, SymTensor):
        induced = obj.restrict_points(ideal.support_points())
    elif obj.kind == MEASURE:
        induced = Polynomial.from_measure(obj.degree, _restrict_measure(obj.rep, gen))
    else:
        induced = Polynomial.from_tensor(obj.rep.restrict_points(ideal.support_points()))
    return RestrictedObject(obj, ideal, induced)


@dataclass(frozen=True)
class ConsistencyVerdict:
    passed: bool
    failed_identity: str | None = None


def local_lattice_consistency(first: Restrictable, second: Restrictable, a: PrincipalIdeal | Element) -> ConsistencyVerdict:
    """Restriction commutes with modulus, join, and meet.

    Both sides of each identity are computed exactly; the verdict names the
    first identity that fails, if any.
    """
    if isinstance(first, Polynomial) and isinstance(second, Polynomial):
        if first.degree != second.degree:
            raise DegreeMismatchError("lattice identities need equal degrees")
        if first.kind != second.kind:
            raise RepresentationError("lattice identities need a common representation")
        return local_lattice_consistency(first.rep, second.rep, a)
    if type(first) is not type(second):
        raise RepresentationError("lattice identities need objects of the same type")
    if first.space != second.space:
        raise SpaceMismatchError("objects live on different spaces")
    if isinstance(first, SymTensor) and first.degree != second.degree:
        raise DegreeMismatchError("lattice identities need equal degrees")

    def mask(obj):
        return restrict(obj, a).induced

    left_f, left_s = mask(first), mask(second)
    checks = (
        ("modulus", mask(first.modulus() if isinstance(first, SymTensor) else abs(first)),
         left_f.modulus() if isinstance(left_f, SymTensor) else abs(left_f)),
        ("join", mask(first.join(second)), left_f.join(left_s)),
        ("meet", mask(first.meet(second)), left_f.meet(left_s)),
    )
    for name, lhs, rhs in checks:
        if lhs != rhs:
            return ConsistencyVerdict(False, name)
    return ConsistencyVerdict(True)


def default_generators(space: Space) -> list[PrincipalIdeal]:
    """Basis ideals plus the full ideal; on the sequence backend the basis
    part covers a finite window and the constant generator covers the rest."""
    if space.is_finite:
        gens = [Element.basis(space, t) for t in space.points()]
    else:
        gens = [Element.omega([0] * (t - 1) + [1], 0) for t in range(1, 5)]
    gens.append(Element.constant(space, 1))
    return [PrincipalIdeal(g) for g in gens]


@dataclass(frozen=True)
class LocalDisjointnessReport:
    globally_disjoint: bool
    per_generator: tuple[tuple[PrincipalIdeal, bool], ...]
    equivalence_holds: bool


def local_disjointness(p: Polynomial, q: Polynomial, generators: Sequence[PrincipalIdeal | Element] | None = None) -> LocalDisjointnessReport:
    """Disjointness localises: P and Q are disjoint exactly when every
    restriction pair is.  The constant-one generator dominates all supports,
    so it is always included to keep the local family decisive."""
    gens = [_as_ideal(g) for g in generators] if generators is not None else default_generators(p.space)
    one = Element.constant(p.space, 1)
    if not any(g.generator == one for g in gens):
        gens.append(PrincipalIdeal(one))
    global_verdict = polys_disjoint(p, q)
    local = tuple(
        (g, polys_disjoint(restrict(p, g).induced, restrict(q, g).induced)) for g in gens
    )
    equivalence = global_verdict == all(v for _, v in local)
    return LocalDisjointnessReport(global_verdict, local, equivalence)
