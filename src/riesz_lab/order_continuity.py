"""Order continuity of polynomials on the sequence backend.

An orthogonally additive polynomial is order continuous exactly when the
modulus of its representing measure puts no mass on the limit point; that
criterion is decided structurally.  A linear functional is its representing
measure too (a coordinate is a unit atom, the limit evaluation the unit
limit atom), so it is order continuous exactly when that measure is normal.
For polynomials built from a product of linear functionals no dichotomy
holds: one net probe (`_probe`) verifies a net's certificate and reads P
and its certified bound along the net up to its settling index; it
certifies order continuity at zero along nets decreasing to zero, and reads
the witness of discontinuity at the constant-one element along 1 - T_n,
where T_n is the indicator of the limit point and the isolated points >= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .convergence import (
    ConvergenceCertificate,
    ElementFamily,
    ExplicitFamily,
    TailFamily,
    family_horizon,
    verify_certificate,
)
from .errors import BoundViolationError, CertificateError, NoWitnessError, SpaceMismatchError
from .lattice import Element, Space, q
from .measures import Measure, is_normal_measure
from .polynomials import Polynomial, to_measure


# -- linear functionals --------------------------------------------------------------

@dataclass(frozen=True)
class Functional:
    """A norm-bounded linear functional on the sequence backend, held as
    its representing measure: x -> integral of x."""

    measure: Measure

    def __post_init__(self):
        if not isinstance(self.measure, Measure):
            raise ValueError(f"a functional is a measure, got {type(self.measure).__name__}")
        if self.measure.space.is_finite:
            raise SpaceMismatchError(f"a functional is a measure on omega1, got one on {self.measure.space!r}")

    @staticmethod
    def coordinate(index: int) -> "Functional":
        return Functional(Measure(Space.omega_plus_one(), {index: 1}))

    @staticmethod
    def limit() -> "Functional":
        return Functional(Measure(Space.omega_plus_one(), limit_atom=1))

    def value(self, x: Element) -> Fraction:
        return self.measure.integrate(x, 1)

    def is_order_continuous(self) -> bool:
        """Normality of the measure: evaluation at an isolated point follows
        any order limit; mass at the limit point does not (the
        tail-indicator net decreases to zero with value one throughout)."""
        return is_normal_measure(self.measure)


@dataclass(frozen=True)
class ProductFunctionalPolynomial:
    """x -> phi(x)^(m-1) * psi(x), homogeneous of degree m."""

    degree: int
    phi: Functional
    psi: Functional

    def __post_init__(self):
        if not isinstance(self.degree, int) or self.degree < 2:
            raise ValueError(f"product polynomials have an integer degree of at least 2, got {self.degree!r}")

    @property
    def space(self) -> Space:
        return Space.omega_plus_one()

    def evaluate(self, x: Element) -> Fraction:
        return self.phi.value(x) ** (self.degree - 1) * self.psi.value(x)


# -- structural order continuity ------------------------------------------------------


def oa_order_continuity(poly: Polynomial) -> bool:
    """Decide order continuity of an orthogonally additive polynomial.

    The verdict is the normality of the representing measure, equivalently
    of its modulus, which settles continuity at every point at once.
    """
    return is_normal_measure(to_measure(poly))


# -- net constructions ----------------------------------------------------------------


def urysohn_witness_net(scale: Fraction | int = 1) -> ConvergenceCertificate:
    """The decreasing net c*indicator({limit} union {isolated >= n}) on omega1.

    Its lattice infimum is zero even though every member has value c at the
    limit point, which is what defeats evaluation there.
    """
    c = q(scale)
    if c <= 0:
        raise ValueError("scale must be positive")
    net = TailFamily.indicator(c)
    return ConvergenceCertificate(net, Element.zero(net.space), net)


def power_net_dominator(cert: ConvergenceCertificate, m: int, bound_b: Fraction | int) -> ConvergenceCertificate:
    """Certificate for x_n^m -> x^m built from one for x_n -> x.

    The pointwise telescoping bound |u^m - v^m| <= m*B^(m-1)*|u - v| for
    |u|,|v| <= B turns the original dominator into one for the powered net;
    when the limit is zero the sharper factor B^(m-1) suffices.
    """
    if m < 1:
        raise ValueError("power must be at least 1")
    if m == 1:
        return cert
    bound = q(bound_b)
    actual = cert.sequence.sup_norm()
    if actual > bound:
        raise BoundViolationError(f"sequence sup-norm {actual} exceeds the stated bound {bound}")
    if abs(cert.limit).sup_norm() > bound:
        raise BoundViolationError("limit element exceeds the stated bound")
    factor = bound ** (m - 1) if cert.limit.is_zero() else m * bound ** (m - 1)
    return ConvergenceCertificate(
        cert.sequence.powered(m),
        cert.limit ** m,
        cert.dominator.scaled(factor),
    )


# -- witnesses and probes --------------------------------------------------------------


@dataclass(frozen=True)
class DiscontinuityWitness:
    base_point: Element
    net: ConvergenceCertificate
    gap: Fraction
    values: tuple[Fraction, ...]
    base_value: Fraction


def discontinuity_witness(poly: ProductFunctionalPolynomial, probe_depth: int = 50) -> DiscontinuityWitness:
    """Order discontinuity of phi^(m-1)*psi at the constant-one element.

    The net x_n = 1 - indicator(>= n) order converges to the base point.  An
    order continuous phi follows it; a psi that is not order continuous
    need not, since the limit atom reads the tail, which is zero along the
    net.  The net is read by `_probe`, like the zero probes, and its
    settled value repeated to ``probe_depth`` values.  The gap is the least
    distance of these from the base value (one for phi a coordinate and psi
    the limit evaluation), and a zero gap is refused.
    """
    if not poly.phi.is_order_continuous() or poly.psi.is_order_continuous():
        raise NoWitnessError(
            "construction needs an order continuous first factor and a second"
            " factor that is not order continuous"
        )
    space = Space.omega_plus_one()
    one = Element.constant(space, 1)
    cert = ConvergenceCertificate(TailFamily(one, Element.constant(space, -1)), one, TailFamily.indicator(1))
    probed = _probe(poly, cert, probe_depth).probed_values
    values = probed + probed[-1:] * (probe_depth - len(probed))
    base_value = poly.evaluate(one)
    gap = min(abs(v - base_value) for v in values)
    if gap <= 0:
        raise NoWitnessError("probed values do not separate from the base value")
    return DiscontinuityWitness(one, cert, gap, values, base_value)


@dataclass(frozen=True)
class NetProbe:
    """P's eventual value along a net, and P and its certified bound at
    n = 1 .. min(settling index, depth), constant in n from there on."""

    eventual_value: Fraction
    probed_values: tuple[Fraction, ...]
    bound_values: tuple[Fraction, ...]


@dataclass(frozen=True)
class ProbeVerdict:
    passed: bool
    probes: tuple[NetProbe, ...]


def _settling_index(poly, family: ElementFamily) -> int:
    """Index from which P(x_n) and its certified bound stop changing.

    An explicit family is constant from its last member on.  On a tail
    family, P reads only the limit point and the isolated points its atoms
    name (those of its measure, or of both functionals' measures), and the
    member sup-norm is constant from `family_horizon` on; past the larger of
    the two nothing P or its bound reads moves with n.
    """
    settle = family_horizon((family,))
    if isinstance(family, TailFamily):
        if isinstance(poly, Polynomial):
            points = poly.rep.atoms
        else:
            points = [*poly.phi.measure.atoms, *poly.psi.measure.atoms]
        settle = max(settle, max(points, default=0) + 1)
    return settle


def _eventual_value(poly, family: ElementFamily, settle: int) -> Fraction:
    """P at member ``settle``, read without building that member.

    An explicit family's member there is its last.  A tail member past
    every atom reads ``base`` at each isolated atom and base + slope at the
    limit point, so P is an integral over the atoms of those values alone,
    however far the atoms lie."""
    if isinstance(family, ExplicitFamily):
        return poly.evaluate(family.member(settle))
    limit = (family.base + family.slope).tail

    def integral(mu: Measure, power: int) -> Fraction:
        isolated = (w * family.base.value_at(t) ** power for t, w in mu.atoms.items())
        return sum(isolated, mu.limit_atom * limit**power)

    if isinstance(poly, Polynomial):
        return integral(poly.rep, poly.degree)
    return integral(poly.phi.measure, 1) ** (poly.degree - 1) * integral(poly.psi.measure, 1)


def _certified_bound(poly) -> Callable[[Element], Fraction]:
    """x -> a bound on |P(x)|: |P|(|x|) for a (regular) polynomial, and the
    functionals' variation norms times ||x||^m for a product polynomial.
    |P|, or the product of the norms, is built once, here."""
    if isinstance(poly, Polynomial):
        modulus = abs(poly)
        return lambda x: modulus.evaluate(abs(x))
    m = poly.degree
    norms = poly.phi.measure.variation_norm() ** (m - 1) * poly.psi.measure.variation_norm()
    return lambda x: norms * x.sup_norm() ** m


def _probe(poly, cert: ConvergenceCertificate, depth: int) -> NetProbe:
    """Verify the certificate, then evaluate P and its certified bound
    (`_certified_bound`) along its net up to ``depth``.

    Values and bounds are computed, and kept, only up to the net's settling
    index (`_settling_index`) or ``depth``, whichever comes first: past the
    index they are constant in n, so a probe of any depth holds at most
    that many, and the eventual value is P at that index, read by
    `_eventual_value` when the index lies past ``depth``.  A value that
    escapes its bound raises `CertificateError`.
    """
    verdict = verify_certificate(cert, depth)
    if not verdict.passed:
        raise CertificateError(f"unverifiable certificate: {verdict.reason}")
    family = cert.sequence
    settle = _settling_index(poly, family)
    members = [family.member(n) for n in range(1, min(settle, depth) + 1)]
    values = [poly.evaluate(x) for x in members]
    bounds = list(map(_certified_bound(poly), members))
    if any(abs(v) > b for v, b in zip(values, bounds)):
        raise CertificateError("probed value escapes its certified bound")
    eventual = values[-1] if settle <= depth else _eventual_value(poly, family, settle)
    return NetProbe(eventual, tuple(values), tuple(bounds))


def zero_order_continuity_probe(
    poly: Polynomial | ProductFunctionalPolynomial,
    nets: Sequence[ConvergenceCertificate],
    probe_depth: int = 50,
) -> ProbeVerdict:
    """Evaluate a polynomial along verified nets decreasing to zero.

    Passes when every net's exact eventual value is zero; each net is read
    by `_probe`, which refuses a value past its certified bound.  A probe
    over no nets would pass with no evidence, so it is refused.
    """
    if not nets:
        raise ValueError("need at least one net")
    probes = []
    for cert in nets:
        if cert.limit.space != poly.space:
            raise SpaceMismatchError("probe net and polynomial on different spaces")
        if not cert.limit.is_zero():
            raise CertificateError("probe nets must converge to zero")
        probes.append(_probe(poly, cert, probe_depth))
    return ProbeVerdict(all(p.eventual_value == 0 for p in probes), tuple(probes))


def dichotomy_agrees(poly: Polynomial, scale: Fraction | int = 1, probe_depth: int = 20) -> bool:
    """Probe verdict on the witness net versus the structural criterion."""
    cert = urysohn_witness_net(scale)
    probe = zero_order_continuity_probe(poly, [cert], probe_depth)
    return probe.passed == oa_order_continuity(poly)
