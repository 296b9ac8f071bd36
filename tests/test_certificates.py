"""Order-convergence certificates and their independent verification."""

from __future__ import annotations

from fractions import Fraction

import pytest

from riesz_lab import (
    ConvergenceCertificate,
    Element,
    ExplicitFamily,
    Space,
    TailFamily,
    family_sup_norm,
    independent_scan,
    infimum_is_zero,
    power_family,
    scale_family,
    verify_certificate,
)
from riesz_lab.errors import UnsupportedFamilyError

OM = Space.omega_plus_one()


def om(prefix, tail):
    return Element.omega(list(prefix), tail)


class TestTailFamilies:
    def test_indicator_members(self):
        fam = TailFamily.indicator(Fraction(1, 2))
        assert fam.member(1) == om([], Fraction(1, 2))
        assert fam.member(3) == om([0, 0], Fraction(1, 2))

    def test_powered_closed_form(self):
        fam = TailFamily(om([], 1), om([], 2))  # x_n = 1 + 2*T_n
        cubed = fam.powered(3)
        for n in (1, 2, 5):
            assert cubed.member(n) == fam.member(n) ** 3

    def test_sup_norm(self):
        assert family_sup_norm(TailFamily.indicator(Fraction(3, 4))) == Fraction(3, 4)
        explicit = ExplicitFamily((om([5], 0), om([], 1)))
        assert family_sup_norm(explicit) == 5


class TestVerification:
    def test_urysohn_style_net_passes(self):
        net = TailFamily.indicator(1)
        cert = ConvergenceCertificate(net, Element.zero(OM), net)
        verdict = verify_certificate(cert, probe_depth=40)
        assert verdict.passed
        assert independent_scan(cert, 40)

    def test_domination_failure_at_first_index(self):
        # constant-one sequence, claimed limit zero, dominator too small
        ones = TailFamily(Element.constant(OM, 1), Element.zero(OM))
        cert = ConvergenceCertificate(ones, Element.zero(OM), TailFamily.indicator(Fraction(1, 2)))
        verdict = verify_certificate(cert)
        assert not verdict.passed
        assert verdict.reason == "domination"
        assert verdict.failed_index == 1
        assert not independent_scan(cert, 10)

    def test_constant_dominator_fails_infimum(self):
        ones = TailFamily(Element.constant(OM, 1), Element.zero(OM))
        cert = ConvergenceCertificate(ones, Element.zero(OM), ones)
        verdict = verify_certificate(cert)
        assert not verdict.passed
        assert verdict.reason == "infimum"

    def test_non_monotone_explicit_dominator(self):
        # 2*1_{>=1} then 3*1_{>=2}: second member exceeds the first at point 2
        seq = ExplicitFamily((Element.zero(OM), Element.zero(OM)))
        dom = ExplicitFamily(
            (Element.tail_indicator(OM, 1, 2), Element.tail_indicator(OM, 2, 3))
        )
        verdict = verify_certificate(ConvergenceCertificate(seq, Element.zero(OM), dom))
        assert not verdict.passed
        assert verdict.reason == "monotonicity"

    def test_explicit_families_scanned_independently(self):
        members = tuple(om([Fraction(1, k)], 0) for k in range(1, 6)) + (Element.zero(OM),)
        fam = ExplicitFamily(members)
        cert = ConvergenceCertificate(fam, Element.zero(OM), fam)
        assert verify_certificate(cert, probe_depth=12).passed
        assert independent_scan(cert, 12)

    def test_finite_space_certificates_scanned(self):
        space = Space.finite(2)
        x, zero = Element.finite([1, 2]), Element.zero(space)
        fam = ExplicitFamily((x, zero))
        cert = ConvergenceCertificate(fam, zero, fam)
        assert verify_certificate(cert, probe_depth=6).passed
        assert independent_scan(cert, 6)
        small = ExplicitFamily((Element.finite([1, 1]), zero))
        short = ConvergenceCertificate(fam, zero, small)
        assert verify_certificate(short, probe_depth=6).reason == "domination"
        assert not independent_scan(short, 6)

    def test_explicit_nonzero_floor_fails(self):
        fam = ExplicitFamily((om([2], 1), om([1], 1)))
        assert not infimum_is_zero(fam)

    def test_unsupported_family_kind(self):
        class Weird:
            pass

        with pytest.raises(UnsupportedFamilyError):
            infimum_is_zero(Weird())


class TestFamilyAlgebra:
    def test_scale_family(self):
        fam = TailFamily.indicator(1)
        scaled = scale_family(fam, Fraction(2, 3))
        assert scaled.member(2) == om([0], Fraction(2, 3))
        with pytest.raises(ValueError):
            scale_family(fam, Fraction(-1))

    def test_power_family_explicit(self):
        fam = ExplicitFamily((om([2], 1),))
        assert power_family(fam, 2).member(1) == om([4], 1)
