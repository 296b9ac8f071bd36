"""Certificate checks and net probes stop at the family's horizon.

Each test compares the horizon-bounded code with the per-index loop it
replaces, copied here as the oracle.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesz_lab import (
    ConvergenceCertificate,
    Element,
    ExplicitFamily,
    Functional,
    Measure,
    ProductFunctionalPolynomial,
    Space,
    TailFamily,
    dichotomy_agrees,
    discontinuity_witness,
    to_polynomial,
    urysohn_witness_net,
    verify_certificate,
    zero_order_continuity_probe,
)
from riesz_lab.convergence import CertificateVerdict, family_horizon
from riesz_lab.errors import CertificateError, NoWitnessError
from riesz_lab.order_continuity import _certified_bound

OM = Space.omega_plus_one()
F3 = Space.finite(3)


# -- oracles: the per-index loops -----------------------------------------------------


def per_index_verdict(cert: ConvergenceCertificate, probe_depth: int) -> CertificateVerdict:
    for n in range(1, probe_depth + 1):
        gap = abs(cert.sequence.member(n) - cert.limit)
        if not gap.le(cert.dominator.member(n)):
            return CertificateVerdict(False, "domination", n)
    for n in range(1, probe_depth + 1):
        if not cert.dominator.member(n + 1).le(cert.dominator.member(n)):
            return CertificateVerdict(False, "monotonicity", n)
    if not cert.dominator.infimum_is_zero():
        return CertificateVerdict(False, "infimum", None)
    return CertificateVerdict(True)


def per_index_probe(poly, cert: ConvergenceCertificate, probe_depth: int):
    values = tuple(poly.evaluate(cert.sequence.member(n)) for n in range(1, probe_depth + 1))
    bounds = []
    for n, v in enumerate(values, start=1):
        bound = _certified_bound(poly)(cert.sequence.member(n))
        if abs(v) > bound:
            raise CertificateError("probed value escapes its certified bound")
        bounds.append(bound)
    return values, tuple(bounds)


# -- strategies ---------------------------------------------------------------------------

small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def elements(space: Space):
    if space.is_finite:
        return st.lists(small, min_size=space.n, max_size=space.n).map(Element.finite)
    return st.builds(Element.omega, st.lists(small, max_size=4), small)


@st.composite
def families(draw, space: Space):
    if not space.is_finite and draw(st.booleans()):
        return TailFamily(draw(elements(space)), draw(elements(space)))
    return ExplicitFamily(tuple(draw(st.lists(elements(space), min_size=1, max_size=4))))


def _suffix_sups(gaps: list[Element]) -> tuple[Element, ...]:
    """y_j = sup of gaps[j:], a decreasing list."""
    out = [gaps[-1]]
    for g in reversed(gaps[:-1]):
        out.append(g.join(out[-1]))
    return tuple(reversed(out))


def _tight_dominator(sequence, limit: Element, slack: Element):
    """A dominator that passes domination and monotonicity for this sequence."""
    if isinstance(sequence, TailFamily):
        return TailFamily(abs(sequence.base - limit), abs(sequence.slope) + abs(slack))
    return ExplicitFamily(_suffix_sups([abs(x - limit) for x in sequence.members]))


def _perturbed(draw, dominator, space: Space):
    """Add a random element, or a multiple of one point's indicator, to one
    part, so checks can first fail at later indices."""
    if draw(st.booleans()):
        bump = draw(elements(space))
    else:
        point = draw(st.sampled_from(range(1, (space.n if space.is_finite else 6) + 1)))
        bump = Element.basis(space, point) * -abs(draw(small))
    if isinstance(dominator, TailFamily):
        if draw(st.booleans()):
            return TailFamily(dominator.base + bump, dominator.slope)
        return TailFamily(dominator.base, dominator.slope + bump)
    members = list(dominator.members)
    k = draw(st.integers(0, len(members) - 1))
    members[k] = members[k] + bump
    return ExplicitFamily(tuple(members))


@st.composite
def certificates(draw):
    space = draw(st.sampled_from([OM, OM, OM, F3]))
    sequence = draw(families(space))
    limit = draw(elements(space))
    shape = draw(st.sampled_from(["tight", "perturbed", "perturbed", "perturbed", "random"]))
    if shape == "random":
        dominator = draw(families(space))
    else:
        dominator = _tight_dominator(sequence, limit, draw(elements(space)))
        if shape == "perturbed":
            dominator = _perturbed(draw, dominator, space)
    return ConvergenceCertificate(sequence, limit, dominator)


@st.composite
def zero_nets(draw):
    """Certificates x_n -> 0 that verify: slope * T_n nets with any prefix,
    and explicit lists ending at zero."""
    if draw(st.booleans()):
        slope = draw(elements(OM))
        extra = abs(draw(elements(OM)))
        zero = Element.zero(OM)
        return ConvergenceCertificate(TailFamily(zero, slope), zero, TailFamily(zero, abs(slope) + extra))
    members = tuple(draw(st.lists(elements(OM), min_size=0, max_size=4))) + (Element.zero(OM),)
    dominator = ExplicitFamily(_suffix_sups([abs(x) for x in members]))
    return ConvergenceCertificate(ExplicitFamily(members), Element.zero(OM), dominator)


measures = st.builds(
    lambda atoms, limit: Measure(OM, atoms, limit_atom=limit),
    st.dictionaries(st.integers(1, 9), small, max_size=4),
    small,
)
normal_measures = st.dictionaries(st.integers(1, 9), small, max_size=4).map(lambda atoms: Measure(OM, atoms))
continuous_functionals = st.one_of(
    st.integers(1, 9).map(Functional.coordinate), normal_measures.map(Functional)
)
functionals = st.one_of(continuous_functionals, st.just(Functional.limit()), measures.map(Functional))
polynomials = st.one_of(
    st.builds(to_polynomial, measures, st.integers(1, 3)),
    st.builds(ProductFunctionalPolynomial, st.integers(2, 4), functionals, functionals),
)


def _outcome(call):
    try:
        return call()
    except CertificateError as exc:
        return type(exc)


# -- tests ---------------------------------------------------------------------------------


class TestVerdictAtHorizon:
    @settings(max_examples=200, deadline=None)
    @given(certificates())
    def test_equals_per_index_loop(self, cert):
        """Generated horizons are at most 8, so depths up to 15 also probe
        well past them."""
        for depth in range(1, 16):
            assert verify_certificate(cert, depth) == per_index_verdict(cert, depth), depth

    def test_failure_found_past_the_first_prefix_points(self):
        # y_n = base + slope*T_n drops at point 5 only when n passes 5: the
        # slope is negative there, so monotonicity first fails at n = 5
        base = Element.omega([0, 0, 0, 0, 1], 0)
        dom = TailFamily(base, Element.omega([1, 1, 1, 1, -1], 1))
        zero = Element.zero(OM)
        cert = ConvergenceCertificate(ExplicitFamily((zero,)), zero, dom)
        assert family_horizon((cert.sequence, dom), (zero,)) == 7
        assert verify_certificate(cert, 40) == CertificateVerdict(False, "monotonicity", 5)
        assert verify_certificate(cert, 4) == CertificateVerdict(False, "infimum", None)


class TestFamilyAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([OM, F3]).flatmap(families), st.integers(1, 3), small)
    def test_matches_members(self, family, m, c):
        """Both family kinds: the algebra agrees with the members at every
        index to two past the horizon, which covers every member value."""
        c = abs(c)
        indices = range(1, family_horizon((family,)) + 3)
        scaled, powered = family.scaled(c), family.powered(m)
        for n in indices:
            assert scaled.member(n) == family.member(n) * c, n
            assert powered.member(n) == family.member(n) ** m, n
        assert family.sup_norm() == max(family.member(n).sup_norm() for n in indices)
        with pytest.raises(ValueError):
            family.scaled(Fraction(-1))


class TestProbesAtHorizon:
    @settings(max_examples=250, deadline=None)
    @given(polynomials, zero_nets(), st.integers(1, 15))
    def test_probe_values_and_bounds(self, poly, cert, depth):
        expected = _outcome(lambda: per_index_probe(poly, cert, depth))
        got = _outcome(lambda: zero_order_continuity_probe(poly, [cert], depth).probes[0])
        if isinstance(expected, tuple):
            assert (got.probed_values, got.bound_values) == expected
        else:
            assert got is expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4), continuous_functionals, st.integers(1, 15))
    def test_witness_values(self, m, phi, depth):
        poly = ProductFunctionalPolynomial(m, phi, Functional.limit())
        net = TailFamily(Element.constant(OM, 1), Element.constant(OM, -1))
        expected = tuple(poly.evaluate(net.member(n)) for n in range(1, depth + 1))
        try:
            witness = discontinuity_witness(poly, depth)
        except NoWitnessError:
            assert min(abs(v - poly.evaluate(Element.constant(OM, 1))) for v in expected) == 0
            return
        assert witness.values == expected

    def test_atoms_beyond_the_sampled_prefix(self):
        poly = to_polynomial(Measure(OM, {2: 1, 9: Fraction(-3, 2)}, limit_atom=2), 3)
        probe = zero_order_continuity_probe(poly, [urysohn_witness_net(1)], 20).probes[0]
        assert (probe.probed_values, probe.bound_values) == per_index_probe(poly, urysohn_witness_net(1), 20)
        assert probe.probed_values[8] != probe.probed_values[9] == probe.probed_values[19]


class TestProbeCost:
    def test_dichotomy_member_calls(self, monkeypatch):
        calls = []
        member = TailFamily.member

        def counted(self, n):
            calls.append(n)
            return member(self, n)

        monkeypatch.setattr(TailFamily, "member", counted)
        poly = to_polynomial(Measure(OM, {1: 2, 6: -1}, limit_atom=Fraction(1, 2)), 3)
        assert dichotomy_agrees(poly, probe_depth=40)
        assert len(calls) <= 20
        assert max(calls) <= 7

    def test_witness_member_calls(self, monkeypatch):
        calls = []
        member = TailFamily.member

        def counted(self, n):
            calls.append(n)
            return member(self, n)

        monkeypatch.setattr(TailFamily, "member", counted)
        poly = ProductFunctionalPolynomial(3, Functional.coordinate(5), Functional.limit())
        witness = discontinuity_witness(poly, 40)
        # the values settle past the coordinate's atom, at index 6
        assert len(calls) <= 15
        assert max(calls) <= 6
        assert len(witness.values) == 40
        assert witness.gap == 1
