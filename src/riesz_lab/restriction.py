"""Restriction of forms, polynomials, and measures to principal ideals.

A generator is a nonnegative, nonzero `Element`; restricting an object
along it masks the object to the generator's support, and on that support
the restriction agrees with its parent on every element of the ideal.  A
polynomial restricts through its representation.  Lattice structure
(modulus, join, meet) and disjointness localise: they commute with
restriction, and two polynomials are disjoint exactly when all their
restrictions along `default_generators` are, the constant-one generator
alone already being decisive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import RepresentationError, SpaceMismatchError
from .lattice import LIMIT, Element, PrincipalIdeal, Space
from .measures import Measure
from .polynomials import Polynomial, polys_disjoint
from .tensors import SymTensor

Restrictable = Union[SymTensor, Polynomial, Measure]


def restrict(obj: Restrictable, gen: Element) -> Restrictable:
    """Mask an object to the support of the generator.

    A zero or negative generator raises `InvalidGeneratorError`.  Tensors
    require a finite backend; measures restrict on both backends (the limit
    atom survives exactly when the generator is nonzero at the limit point).
    """
    if isinstance(obj, Polynomial):
        return Polynomial(obj.degree, restrict(obj.rep, gen))
    ideal = PrincipalIdeal(gen)
    if not isinstance(obj, (Measure, SymTensor)):
        raise TypeError(f"cannot restrict {type(obj).__name__}")
    if obj.space != gen.space:
        raise SpaceMismatchError("generator lives on a different space")
    if isinstance(obj, SymTensor):
        return obj.restrict_points(ideal.support_points())
    keep = frozenset(t for t in obj.atoms if gen.value_at(t) != 0)
    return obj.restrict(keep, not obj.space.is_finite and gen.value_at(LIMIT) != 0)


@dataclass(frozen=True)
class ConsistencyVerdict:
    passed: bool
    failed_identity: str | None = None


def local_lattice_consistency(first: Restrictable, second: Restrictable, gen: Element) -> ConsistencyVerdict:
    """Restriction commutes with modulus, join, and meet.

    Both sides of each identity are computed exactly by the objects' own
    operations, which refuse a degree or representation mismatch; the
    verdict names the first identity that fails, if any.
    """
    if type(first) is not type(second):
        raise RepresentationError("lattice identities need objects of the same type")
    if first.space != second.space:
        raise SpaceMismatchError("objects live on different spaces")

    left_f, left_s = restrict(first, gen), restrict(second, gen)
    checks = (
        ("modulus", restrict(abs(first), gen), abs(left_f)),
        ("join", restrict(first.join(second), gen), left_f.join(left_s)),
        ("meet", restrict(first.meet(second), gen), left_f.meet(left_s)),
    )
    for name, lhs, rhs in checks:
        if lhs != rhs:
            return ConsistencyVerdict(False, name)
    return ConsistencyVerdict(True)


def default_generators(space: Space) -> list[Element]:
    """Basis generators, then the constant one; on the sequence backend the
    basis part covers a finite window and the constant generator covers the
    rest."""
    if space.is_finite:
        gens = [Element.basis(space, t) for t in space.points()]
    else:
        gens = [Element.omega([0] * (t - 1) + [1], 0) for t in range(1, 5)]
    gens.append(Element.constant(space, 1))
    return gens


@dataclass(frozen=True)
class LocalDisjointnessReport:
    globally_disjoint: bool
    per_generator: tuple[tuple[Element, bool], ...]
    equivalence_holds: bool


def local_disjointness(p: Polynomial, q: Polynomial) -> LocalDisjointnessReport:
    """Disjointness localises: P and Q are disjoint exactly when every
    restriction pair along `default_generators` is.  The constant-one
    generator there dominates all supports, which keeps the local family
    decisive."""
    global_verdict = polys_disjoint(p, q)
    local = tuple(
        (g, polys_disjoint(restrict(p, g), restrict(q, g))) for g in default_generators(p.space)
    )
    equivalence = global_verdict == all(v for _, v in local)
    return LocalDisjointnessReport(global_verdict, local, equivalence)
