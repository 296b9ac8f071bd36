"""Null ideals, carriers, and the carrier criterion for disjointness."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from riesz_lab import (
    BandDescriptor,
    Element,
    Measure,
    Polynomial,
    Space,
    SymTensor,
    carrier,
    carriers_disjoint,
    local_carrier_check,
    nakano_regression_pair,
    nakano_verify,
    null_ideal,
    null_ideal_matches_modulus,
    polys_disjoint,
    to_polynomial,
)
from riesz_lab.errors import RepresentationError
from riesz_lab.sampling import element, measure, rng_for

F3, F4 = Space.finite(3), Space.finite(4)
OM = Space.omega_plus_one()


def fin(*vals):
    return Element.finite(list(vals))


def om(prefix, tail):
    return Element.omega(prefix, tail)


class TestDescriptors:
    def test_finite_partition(self):
        poly = to_polynomial(Measure(F4, {2: 1, 3: -1}), 2)
        assert carrier(poly) == BandDescriptor(F4, frozenset({2, 3}))
        assert null_ideal(poly) == BandDescriptor(F4, frozenset({1, 4}))
        assert null_ideal(poly).contains(fin(3, 0, 0, -2))
        assert not null_ideal(poly).contains(fin(0, 1, 0, 0))
        assert carrier(poly).contains(fin(0, 1, 1, 0))

    def test_omega_normal_measure(self):
        poly = to_polynomial(Measure(OM, {1: 2}), 2)
        null = null_ideal(poly)
        assert null == BandDescriptor(OM, frozenset({1}), cofinite=True, includes_limit=True)
        assert null.contains(om([0, 5], 3))
        assert not null.contains(om([1], 0))
        band = carrier(poly)
        assert band == BandDescriptor(OM, frozenset({1}))
        assert band.contains(om([4], 0))
        assert not band.contains(om([4], 1))
        assert not band.contains(om([0, 1], 0))

    def test_omega_limit_mass_shrinks_null_ideal(self):
        poly = to_polynomial(Measure(OM, {2: 1}, limit_atom=5), 3)
        null = null_ideal(poly)
        assert null == BandDescriptor(OM, frozenset({2}), cofinite=True, includes_limit=False)
        assert null.contains(om([0, 0, 3], 0))
        assert not null.contains(om([], 1))
        # the limit atom never enlarges the carrier
        assert carrier(poly) == BandDescriptor(OM, frozenset({2}))

    def test_finite_rejects_cofinite_flags(self):
        with pytest.raises(ValueError):
            BandDescriptor(F3, frozenset(), cofinite=True)
        with pytest.raises(ValueError):
            BandDescriptor(F3, frozenset(), includes_limit=True)

    def test_contains_needs_matching_space(self):
        assert not BandDescriptor(F3, frozenset({1})).contains(om([1], 0))

    def test_intersect_points(self):
        cof = BandDescriptor(OM, frozenset({1, 2}), cofinite=True, includes_limit=True)
        assert cof.intersect_points({1, 3, 4}) == BandDescriptor(OM, frozenset({3, 4}))
        direct = BandDescriptor(F4, frozenset({1, 2}))
        assert direct.intersect_points({2, 3}) == BandDescriptor(F4, frozenset({2}))

    def test_diagonal_tensor_descriptors(self):
        poly = Polynomial.from_tensor(SymTensor.diagonal(F3, 2, {2: -7}))
        assert carrier(poly).points == frozenset({2})
        assert null_ideal(poly).points == frozenset({1, 3})

    def test_off_diagonal_tensor_rejected(self):
        poly = Polynomial.from_tensor(SymTensor(F3, 2, {(1, 2): 1}))
        with pytest.raises(RepresentationError):
            null_ideal(poly)

    def test_degree_invariance(self):
        mu = Measure(OM, {1: 1, 4: -2}, limit_atom=3)
        descriptors = {(null_ideal(to_polynomial(mu, m)), carrier(to_polynomial(mu, m))) for m in (2, 3, 4)}
        assert len(descriptors) == 1


class TestNakano:
    def test_disjoint_with_hypothesis(self):
        p = to_polynomial(Measure(OM, {1: 1}), 2)
        q = to_polynomial(Measure(OM, {2: -3}), 2)
        report = nakano_verify(p, q)
        assert report.order_continuous_p and report.order_continuous_q
        assert report.polys_disjoint and report.carriers_disjoint
        assert report.hypothesis_met and report.equivalence_holds

    def test_overlapping_with_hypothesis(self):
        p = to_polynomial(Measure(OM, {1: 1}), 2)
        q = to_polynomial(Measure(OM, {1: -2}), 2)
        report = nakano_verify(p, q)
        assert not report.polys_disjoint and not report.carriers_disjoint
        assert report.equivalence_holds

    def test_one_sided_hypothesis_suffices(self):
        p = to_polynomial(Measure(OM, {1: 1}), 2)
        q = to_polynomial(Measure(OM, {2: 1}, limit_atom=1), 2)
        report = nakano_verify(p, q)
        assert report.order_continuous_p and not report.order_continuous_q
        assert report.hypothesis_met
        assert report.polys_disjoint and report.carriers_disjoint and report.equivalence_holds

    def test_regression_pair_breaks_equivalence(self):
        p, q = nakano_regression_pair()
        assert not polys_disjoint(p, q)
        assert carriers_disjoint(p, q)
        report = nakano_verify(p, q)
        assert not report.hypothesis_met
        assert not report.equivalence_holds
        assert not report.polys_disjoint and report.carriers_disjoint

    def test_exhaustive_small_finite(self):
        space = Space.finite(2)
        weights = [
            {t: w for t, w in zip((1, 2), combo) if w}
            for combo in product((-1, 0, 1), repeat=2)
        ]
        for wp, wq in product(weights, repeat=2):
            report = nakano_verify(to_polynomial(Measure(space, wp), 2), to_polynomial(Measure(space, wq), 2))
            assert report.hypothesis_met and report.equivalence_holds

    def test_random_one_normal_omega_pairs(self):
        for i in range(200):
            rng = rng_for("nakano-pairs", i)
            p = to_polynomial(measure(rng, OM, normal=True), 2)
            q = to_polynomial(measure(rng, OM), 2)
            report = nakano_verify(p, q)
            assert report.hypothesis_met and report.equivalence_holds


class TestLocalisation:
    def test_frozen_example(self):
        poly = to_polynomial(Measure(F3, {1: 1, 3: 2}), 2)
        verdict = local_carrier_check(poly, fin(1, 0, 0))
        assert verdict.passed

    def test_random(self):
        for i in range(100):
            rng = rng_for("carrier-local", i)
            poly = to_polynomial(measure(rng, F4), 2 + i % 2)
            gen = element(rng, F4, positive=True)
            if gen.is_zero():
                gen = Element.constant(F4, 1)
            verdict = local_carrier_check(poly, gen)
            assert verdict.passed, verdict.failed_identity

    def test_omega_rejected(self):
        poly = to_polynomial(Measure(OM, {1: 1}), 2)
        with pytest.raises(RepresentationError):
            local_carrier_check(poly, om([1], 0))


class TestNullIdealEvaluation:
    def test_matches_modulus_random(self):
        for i in range(100):
            rng = rng_for("null-eval", i)
            space = F4 if i % 2 else OM
            poly = to_polynomial(measure(rng, space), 2 + i % 3)
            candidates = [element(rng, space) for _ in range(6)]
            if space.is_finite:
                candidates.append(Element.basis(space, 1 + i % 4))
            else:
                candidates += [om([0] * (i % 3), Fraction(1, 2)), om([3], 0)]
            assert null_ideal_matches_modulus(poly, candidates)

    def test_limit_membership_tracks_evaluation(self):
        singular = to_polynomial(Measure(OM, {1: 1}, limit_atom=2), 2)
        normal = to_polynomial(Measure(OM, {1: 1}), 2)
        tail_only = om([0], 1)
        assert not null_ideal(singular).contains(tail_only)
        assert null_ideal(normal).contains(tail_only)
        assert null_ideal_matches_modulus(singular, [tail_only, om([2], 0), om([0, 1], 0)])
        assert null_ideal_matches_modulus(normal, [tail_only, om([2], 0), om([0, 1], 0)])
