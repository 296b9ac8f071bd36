"""Null ideals, carriers, and the carrier criterion for disjointness.

The null ideal of an orthogonally additive polynomial collects the elements
its modulus annihilates; the carrier is the band disjoint from it.  With
finitely many atoms both are described extensionally by point sets.  On the
sequence backend a limit atom contributes nothing to the carrier: the
elements vanishing at every isolated atom form an order dense ideal, and by
continuity anything disjoint from all of them is zero.  That asymmetry is
exactly what breaks the carrier criterion when order continuity fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InvariantViolation, RepresentationError
from .lattice import LIMIT, Element, PrincipalIdeal, Space
from .measures import Measure
from .order_continuity import oa_order_continuity
from .polynomials import Polynomial, polys_disjoint, to_measure, to_polynomial
from .restriction import ConsistencyVerdict, restrict


@dataclass(frozen=True)
class BandDescriptor:
    """Extensional description of a band spanned by isolated points.

    ``cofinite`` flips the reading: the band holds everything supported off
    the listed points, including the limit point when ``includes_limit``.
    Carriers are always direct descriptors; null ideals on the sequence
    backend are cofinite ones.
    """

    space: Space
    points: frozenset[int]
    cofinite: bool = False
    includes_limit: bool = False

    def __post_init__(self):
        if self.space.is_finite and (self.cofinite or self.includes_limit):
            raise ValueError("finite spaces use direct descriptors")

    def contains(self, x: Element) -> bool:
        if self.space != x.space:
            return False
        if not self.cofinite:
            if not self.space.is_finite:
                if x.value_at(LIMIT) != 0:
                    return False
                width = len(x.prefix)
                support = {t for t in range(1, width + 1) if x.value_at(t) != 0}
            else:
                support = {t for t in self.space.points() if x.value_at(t) != 0}
            return support <= self.points
        if any(x.value_at(t) != 0 for t in self.points):
            return False
        return self.includes_limit or x.value_at(LIMIT) == 0

    def intersect_points(self, keep: Iterable[int]) -> "BandDescriptor":
        keep = frozenset(keep)
        if self.cofinite:
            return BandDescriptor(self.space, keep - self.points, False, False)
        return BandDescriptor(self.space, self.points & keep, False, False)


def null_ideal(poly: Polynomial) -> BandDescriptor:
    """Band of elements x with |P|(|x|) = 0: everything supported off the
    atoms of the modulus measure (a zero limit atom frees the limit point)."""
    mu = abs(to_measure(poly))
    atoms = frozenset(mu.atoms)
    if poly.space.is_finite:
        return BandDescriptor(poly.space, frozenset(poly.space.points()) - atoms)
    return BandDescriptor(poly.space, atoms, cofinite=True, includes_limit=mu.limit_atom == 0)


def carrier(poly: Polynomial) -> BandDescriptor:
    """Disjoint complement of the null ideal: the isolated atom support."""
    mu = abs(to_measure(poly))
    return BandDescriptor(poly.space, frozenset(mu.atoms))


def carriers_disjoint(p: Polynomial, q: Polynomial) -> bool:
    return not (carrier(p).points & carrier(q).points)


@dataclass(frozen=True)
class NakanoReport:
    order_continuous_p: bool
    order_continuous_q: bool
    polys_disjoint: bool
    carriers_disjoint: bool
    hypothesis_met: bool
    equivalence_holds: bool


def nakano_verify(p: Polynomial, q: Polynomial) -> NakanoReport:
    """Disjointness of polynomials versus disjointness of their carriers.

    With at least one order-continuous member the two verdicts must agree;
    without the hypothesis the report records whether they happen to.
    """
    oc_p = oa_order_continuity(p)
    oc_q = oa_order_continuity(q)
    pd = polys_disjoint(p, q)
    cd = carriers_disjoint(p, q)
    hypothesis = oc_p or oc_q
    equivalence = pd == cd
    if hypothesis and not equivalence:
        raise InvariantViolation("carrier criterion must decide disjointness under order continuity")
    return NakanoReport(oc_p, oc_q, pd, cd, hypothesis, equivalence)


def nakano_regression_pair() -> tuple[Polynomial, Polynomial]:
    """Stored failure case: two pure limit-atom polynomials are far from
    disjoint, yet both carriers are empty."""
    space = Space.omega_plus_one()
    mu = Measure(space, {}, limit_atom=1)
    return to_polynomial(mu, 2), to_polynomial(mu, 2)


def local_carrier_check(poly: Polynomial, gen: Element) -> ConsistencyVerdict:
    """Null ideal and carrier localise along restriction.

    Within the ideal of a nonnegative generator, the restricted
    polynomial's descriptors equal the parent descriptors intersected with
    the generator support; both sides are computed independently.
    """
    if not poly.space.is_finite:
        raise RepresentationError("descriptor intersections are finite-space checks")
    supp = PrincipalIdeal(gen).support_points()
    restricted = restrict(poly, gen)
    pairs = (
        ("null-ideal", null_ideal(restricted).intersect_points(supp), null_ideal(poly).intersect_points(supp)),
        ("carrier", carrier(restricted).intersect_points(supp), carrier(poly).intersect_points(supp)),
    )
    for name, lhs, rhs in pairs:
        if lhs != rhs:
            return ConsistencyVerdict(False, name)
    return ConsistencyVerdict(True)


def null_ideal_matches_modulus(poly: Polynomial, candidates: Iterable[Element]) -> bool:
    """Cross-check the descriptor against the defining evaluation rule."""
    desc = null_ideal(poly)
    modulus = abs(poly)
    for x in candidates:
        by_eval = modulus.evaluate(abs(x)) == 0
        if desc.contains(x) != by_eval:
            return False
    return True
