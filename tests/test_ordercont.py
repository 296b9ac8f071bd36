"""Order continuity: structural dichotomy, nets, witnesses, probes."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from riesz_lab import (
    ConvergenceCertificate,
    Element,
    ExplicitFamily,
    Functional,
    Measure,
    Polynomial,
    ProductFunctionalPolynomial,
    Space,
    SymTensor,
    TailFamily,
    dichotomy_agrees,
    discontinuity_witness,
    oa_order_continuity,
    power_net_dominator,
    to_polynomial,
    urysohn_witness_net,
    verify_certificate,
    zero_order_continuity_probe,
)
from riesz_lab.errors import BoundViolationError, CertificateError, NoWitnessError, SpaceMismatchError
from riesz_lab.jsonio import dumps_canonical, to_obj
from riesz_lab.order_continuity import _eventual_value, _settling_index
from riesz_lab.sampling import element, measure, rational, rng_for

OM = Space.omega_plus_one()


def om(prefix, tail):
    return Element.omega(prefix, tail)


class TestFunctionals:
    def test_coordinate(self):
        f = Functional.coordinate(2)
        assert f.value(om([4, 7, 1], 0)) == 7
        assert f.is_order_continuous()
        with pytest.raises(ValueError):
            Functional.coordinate(0)

    def test_limit_evaluation(self):
        f = Functional.limit()
        assert f.value(om([1, 2], 5)) == 5
        assert not f.is_order_continuous()

    def test_measure_functional(self):
        normal = Functional(Measure(OM, {1: -3, 4: 2}))
        assert normal.value(om([2], 1)) == -6 + 2
        assert normal.is_order_continuous()
        singular = Functional(Measure(OM, {1: 1}, limit_atom=Fraction(-1, 2)))
        assert not singular.is_order_continuous()
        with pytest.raises(ValueError):
            Functional("measure")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Functional("nope")

    def test_measure_must_live_on_omega1(self):
        with pytest.raises(SpaceMismatchError, match="on finite\\(3\\)"):
            Functional(Measure(Space.finite(3), {1: 1}))

    def test_one_spelling_per_functional(self):
        assert Functional(Measure(OM, {}, limit_atom=1)) == Functional.limit()
        assert Functional(Measure(OM, {3: 1})) == Functional.coordinate(3)
        assert hash(Functional(Measure(OM, {3: 1}))) == hash(Functional.coordinate(3))
        assert Functional(Measure(OM, {3: 2})) != Functional.coordinate(3)
        assert Functional(Measure(OM, {3: 1}, limit_atom=1)) != Functional.limit()


class TestProductPolynomial:
    def test_evaluate(self):
        poly = ProductFunctionalPolynomial(3, Functional.coordinate(1), Functional.limit())
        assert poly.evaluate(om([2], 5)) == 20
        assert poly.space == OM

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            ProductFunctionalPolynomial(1, Functional.coordinate(1), Functional.limit())

    @pytest.mark.parametrize("degree", [2.5, 3.0, Fraction(5, 2)])
    def test_degree_is_an_integer(self, degree):
        with pytest.raises(ValueError, match="integer degree"):
            ProductFunctionalPolynomial(degree, Functional.coordinate(1), Functional.limit())


class TestStructuralDichotomy:
    def test_measure_verdicts(self):
        assert oa_order_continuity(to_polynomial(Measure(OM, {1: 1, 5: -2}), 2))
        assert not oa_order_continuity(to_polynomial(Measure(OM, {}, limit_atom=1), 2))
        # negative limit mass is still mass: the criterion reads the modulus
        assert not oa_order_continuity(to_polynomial(Measure(OM, {2: 3}, limit_atom=Fraction(-1, 2)), 2))

    def test_finite_space_is_always_continuous(self):
        poly = Polynomial.from_tensor(SymTensor.diagonal(Space.finite(3), 2, {1: -4}))
        assert oa_order_continuity(poly)


class TestUrysohnNet:
    def test_members_and_verification(self):
        cert = urysohn_witness_net()
        assert cert.sequence.member(1) == om([], 1)
        assert cert.sequence.member(3) == om([0, 0], 1)
        assert cert.limit == Element.zero(OM)
        assert verify_certificate(cert, 40).passed

    def test_scaled(self):
        cert = urysohn_witness_net(Fraction(1, 3))
        assert cert.sequence.member(2) == om([0], Fraction(1, 3))
        assert verify_certificate(cert, 10).passed

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            urysohn_witness_net(0)
        with pytest.raises(ValueError):
            urysohn_witness_net(-2)


class TestPowerNetDominator:
    def test_degree_one_is_identity(self):
        cert = urysohn_witness_net()
        assert power_net_dominator(cert, 1, 1) is cert

    def test_power_floor(self):
        with pytest.raises(ValueError):
            power_net_dominator(urysohn_witness_net(), 0, 1)

    def test_zero_limit_power_verifies(self):
        powered = power_net_dominator(urysohn_witness_net(), 3, 1)
        assert powered.limit.is_zero()
        assert powered.sequence.member(2) == om([0], 1)
        assert verify_certificate(powered, 30).passed

    def test_nonzero_limit_uses_larger_factor(self):
        one = Element.constant(OM, 1)
        base = ConvergenceCertificate(TailFamily(one, Element.constant(OM, -1)), one, TailFamily.indicator(1))
        assert verify_certificate(base, 20).passed
        powered = power_net_dominator(base, 2, 1)
        assert powered.limit == one
        assert verify_certificate(powered, 20).passed

    def test_sequence_bound_enforced(self):
        with pytest.raises(BoundViolationError):
            power_net_dominator(urysohn_witness_net(), 2, Fraction(1, 2))

    def test_limit_bound_enforced(self):
        zero = Element.zero(OM)
        cert = ConvergenceCertificate(
            ExplicitFamily((zero,)), Element.constant(OM, 2), ExplicitFamily((zero,))
        )
        with pytest.raises(BoundViolationError):
            power_net_dominator(cert, 2, 1)


class TestDiscontinuityWitness:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_unit_gap_at_constant_one(self, m):
        poly = ProductFunctionalPolynomial(m, Functional.coordinate(1), Functional.limit())
        witness = discontinuity_witness(poly, probe_depth=30)
        assert witness.gap == 1
        assert witness.base_value == 1
        assert witness.base_point == Element.constant(OM, 1)
        assert set(witness.values) == {0}
        assert verify_certificate(witness.net, 30).passed

    def test_measure_first_factor(self):
        poly = ProductFunctionalPolynomial(
            2, Functional(Measure(OM, {1: 2})), Functional.limit()
        )
        witness = discontinuity_witness(poly, probe_depth=10)
        assert witness.gap == 2

    @pytest.mark.parametrize("m", [2, 3])
    def test_limit_evaluation_spelled_as_a_measure(self, m):
        # twice the limit evaluation is no more order continuous than it: gap 2
        for limit_atom in (1, 2):
            psi = Functional(Measure(OM, {}, limit_atom=limit_atom))
            witness = discontinuity_witness(ProductFunctionalPolynomial(m, Functional.coordinate(1), psi), probe_depth=10)
            assert witness.gap == limit_atom

    def test_second_factor_with_isolated_mass(self):
        psi = Functional(Measure(OM, {3: 1}, limit_atom=1))
        witness = discontinuity_witness(ProductFunctionalPolynomial(2, Functional.coordinate(1), psi), probe_depth=6)
        assert witness.gap == 1
        assert witness.values == (0, 0, 0, 1, 1, 1)

    def test_no_witness_when_psi_not_limit(self):
        poly = ProductFunctionalPolynomial(2, Functional.coordinate(1), Functional.coordinate(2))
        with pytest.raises(NoWitnessError):
            discontinuity_witness(poly)

    def test_no_witness_when_phi_discontinuous(self):
        poly = ProductFunctionalPolynomial(2, Functional.limit(), Functional.limit())
        with pytest.raises(NoWitnessError):
            discontinuity_witness(poly)

    def test_no_witness_when_base_value_vanishes(self):
        poly = ProductFunctionalPolynomial(
            2, Functional(Measure(OM, {1: 1, 2: -1})), Functional.limit()
        )
        with pytest.raises(NoWitnessError):
            discontinuity_witness(poly)


def _members_read(poly, cert, first, last):
    """P at the net's members first .. last, built one by one."""
    return {poly.evaluate(cert.sequence.member(n)) for n in range(first, last + 1)}


class TestZeroProbe:
    def test_normal_measure_passes_with_bounds(self):
        poly = to_polynomial(Measure(OM, {1: 1}), 2)
        verdict = zero_order_continuity_probe(poly, [urysohn_witness_net()], probe_depth=12)
        assert verdict.passed
        (probe,) = verdict.probes
        assert probe.eventual_value == 0
        # the probe keeps its prefix up to the settling index, n = 2; member
        # by member P stays at its last value to the depth
        assert _settling_index(poly, urysohn_witness_net().sequence) == 2
        assert probe.probed_values == probe.bound_values == (1, 0)
        assert _members_read(poly, urysohn_witness_net(), 2, 12) == {0}

    def test_probe_holds_only_its_settled_prefix(self):
        # a depth of 10**6 keeps the two values up to the settling index
        poly = to_polynomial(Measure(OM, {1: 1}, limit_atom=2), 2)
        (probe,) = zero_order_continuity_probe(poly, [urysohn_witness_net()], probe_depth=10**6).probes
        assert probe.probed_values == (3, 2) and probe.bound_values == (3, 2)
        assert probe.eventual_value == 2

    def test_limit_mass_fails(self):
        poly = to_polynomial(Measure(OM, {3: 1}, limit_atom=2), 2)
        verdict = zero_order_continuity_probe(poly, [urysohn_witness_net()], probe_depth=8)
        assert not verdict.passed
        (probe,) = verdict.probes
        assert probe.eventual_value == 2

    def test_product_polynomial_probe(self):
        poly = ProductFunctionalPolynomial(2, Functional.coordinate(1), Functional.limit())
        verdict = zero_order_continuity_probe(poly, [urysohn_witness_net()], probe_depth=10)
        assert verdict.passed
        (probe,) = verdict.probes
        # phi(x_n)^(m-1) psi(x_n) within ||phi|| ||psi|| ||x_n||^m, settled at n = 2
        assert probe.probed_values == (1, 0) and probe.bound_values == (1, 1)
        assert _members_read(poly, urysohn_witness_net(), 2, 10) == {0}

    def test_tensor_polynomial_bounded_by_its_modulus(self):
        f3 = Space.finite(3)
        poly = Polynomial.from_tensor(SymTensor(f3, 2, {(1, 1): 1, (1, 2): 1}))
        zero = Element.zero(f3)
        nets = [
            ConvergenceCertificate(ExplicitFamily((x, zero)), zero, ExplicitFamily((abs(x), zero)))
            for x in (Element.finite([1, 1, 0]), Element.finite([1, -1, 0]))
        ]
        verdict = zero_order_continuity_probe(poly, nets, probe_depth=4)
        assert verdict.passed
        plain, signed = verdict.probes
        # each net settles at its last member, n = 2, and reads 0 from there on
        assert plain.probed_values == (3, 0)
        assert signed.probed_values == (-1, 0)
        # |P|(|x|) = x1^2 + 2 x1 x2 at (1, 1, 0) for both nets
        assert plain.bound_values == signed.bound_values == (3, 0)
        for cert in nets:
            assert _members_read(poly, cert, 2, 4) == {0}

    def test_no_nets_rejected(self):
        poly = to_polynomial(Measure(OM, {1: 1}), 2)
        with pytest.raises(ValueError, match="need at least one net"):
            zero_order_continuity_probe(poly, [], 5)

    @pytest.mark.parametrize("psi", [Functional.coordinate(2), Functional.limit()])
    def test_net_on_another_space_rejected(self, psi):
        f3 = Space.finite(3)
        x = Element.finite([1, 1, 1])
        net = ConvergenceCertificate(
            ExplicitFamily((x, Element.zero(f3))), Element.zero(f3), ExplicitFamily((x, Element.zero(f3)))
        )
        poly = ProductFunctionalPolynomial(2, Functional.coordinate(1), psi)
        with pytest.raises(SpaceMismatchError):
            zero_order_continuity_probe(poly, [net])

    def test_nonzero_limit_rejected(self):
        poly = to_polynomial(Measure(OM, {1: 1}), 2)
        one = Element.constant(OM, 1)
        cert = ConvergenceCertificate(TailFamily(one, Element.constant(OM, -1)), one, TailFamily.indicator(1))
        with pytest.raises(CertificateError):
            zero_order_continuity_probe(poly, [cert])

    def test_unverifiable_net_rejected(self):
        poly = to_polynomial(Measure(OM, {1: 1}), 2)
        bad = ConvergenceCertificate(
            TailFamily(Element.constant(OM, 1), Element.constant(OM, -1)),
            Element.zero(OM),
            TailFamily.indicator(1),
        )
        with pytest.raises(CertificateError):
            zero_order_continuity_probe(poly, [bad])


class TestDichotomy:
    def test_agreement_random(self):
        for i in range(80):
            rng = rng_for("dichotomy", i)
            poly = to_polynomial(measure(rng, OM), 2 + i % 3)
            assert dichotomy_agrees(poly, scale=1 + i % 2, probe_depth=15)

    def test_both_branches_hit(self):
        normal = to_polynomial(Measure(OM, {1: 1}), 2)
        singular = to_polynomial(Measure(OM, {1: 1}, limit_atom=1), 2)
        assert oa_order_continuity(normal) and not oa_order_continuity(singular)
        assert dichotomy_agrees(normal) and dichotomy_agrees(singular)

    def test_finite_space_rejected(self):
        with pytest.raises(SpaceMismatchError):
            dichotomy_agrees(to_polynomial(Measure(Space.finite(2), {1: 1}), 2))


class TestFarAtoms:
    """A tail net settles only past its polynomial's last atom; past the
    probe depth P there is read from the atoms, not from a member as wide
    as the last atom."""

    @staticmethod
    def _far_measure(rng, far):
        atoms = {far: rational(rng, nonzero=True), rng.randint(1, 8): rational(rng, nonzero=True)}
        return Measure(OM, atoms, limit_atom=rational(rng) if rng.random() < 0.5 else 0)

    def test_eventual_value_is_p_at_the_settled_member(self):
        for i in range(24):
            rng = rng_for("far-atoms", i)
            family = TailFamily(element(rng, OM), element(rng, OM))
            m = 2 + i % 3
            phi, psi = Functional(self._far_measure(rng, 999)), Functional(self._far_measure(rng, 1000))
            for poly in (to_polynomial(psi.measure, m), ProductFunctionalPolynomial(m, phi, psi)):
                settle = _settling_index(poly, family)
                assert settle == 1001
                assert _eventual_value(poly, family, settle) == poly.evaluate(family.member(settle)), i

    def test_probe_past_its_depth_reads_the_settled_value(self):
        poly = to_polynomial(Measure(OM, {1000: 3, 2: 1}, limit_atom=Fraction(1, 2)), 2)
        (probe,) = zero_order_continuity_probe(poly, [urysohn_witness_net(2)], probe_depth=5).probes
        assert probe.eventual_value == poly.evaluate(TailFamily.indicator(2).member(1001)) == 2
        assert probe.probed_values == (18, 18, 14, 14, 14)

    @pytest.mark.parametrize("limit", [0, 1])
    def test_an_atom_at_ten_to_the_eleven(self, limit):
        poly = to_polynomial(Measure(OM, {10**11: 1}, limit_atom=limit), 3)
        assert dichotomy_agrees(poly, probe_depth=5)

    def test_cli_probe_of_a_far_atom(self, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(dumps_canonical(to_obj(to_polynomial(Measure(OM, {10**11: 1}), 2))))
        proc = subprocess.run(
            [sys.executable, "-m", "riesz_lab", "check", "order-continuity", "--poly", str(path)],
            capture_output=True, text=True, env=dict(os.environ), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "PASS normality-dichotomy" in proc.stdout

    def test_cli_probe_a_billion_deep_in_two_gigabytes(self):
        # a probe keeps its settled prefix, so a depth of 10**9 ends in a
        # verdict; the child's address-space limit keeps a regression from
        # exhausting the host
        limit = 2 * 10**9
        proc = subprocess.run(
            [sys.executable, "-m", "riesz_lab", "check", "order-continuity", "--trials", "1", "--depth", str(10**9)],
            capture_output=True, text=True, env=dict(os.environ), timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        assert "result: PASS" in proc.stdout
