"""Restriction to principal ideals and localisation of lattice structure."""

from __future__ import annotations

from fractions import Fraction

import pytest

from riesz_lab import (
    Element,
    Measure,
    Polynomial,
    Space,
    SymTensor,
    default_generators,
    local_disjointness,
    local_lattice_consistency,
    restrict,
    to_polynomial,
)
from riesz_lab.errors import DegreeMismatchError, InvalidGeneratorError, RepresentationError, SpaceMismatchError
from riesz_lab.sampling import element, measure, rng_for, sym_tensor

F3, F4 = Space.finite(3), Space.finite(4)
OM = Space.omega_plus_one()


def fin(*vals):
    return Element.finite(list(vals))


def om(prefix, tail):
    return Element.omega(prefix, tail)


def masked(x: Element, gen: Element) -> Element:
    if x.space.is_finite:
        return Element(x.space, values=[v if g != 0 else Fraction(0) for v, g in zip(x.values, gen.values)])
    width = max(len(x.prefix), len(gen.prefix))
    vals = [x.value_at(i) if gen.value_at(i) != 0 else Fraction(0) for i in range(1, width + 1)]
    tail = x.tail if gen.tail != 0 else Fraction(0)
    return Element.omega(vals, tail)


class TestRestrictMeasure:
    def test_finite_masks_atoms(self):
        mu = Measure(F3, {1: 1, 2: 2, 3: -1})
        assert restrict(mu, fin(1, 0, 2)) == Measure(F3, {1: 1, 3: -1})

    def test_tail_generator_keeps_limit_atom(self):
        mu = Measure(OM, {1: 5, 3: 2}, limit_atom=7)
        assert restrict(mu, om([0], 1)) == Measure(OM, {3: 2}, limit_atom=7)

    def test_window_generator_drops_limit_atom(self):
        mu = Measure(OM, {2: 4, 5: 1}, limit_atom=7)
        assert restrict(mu, om([1, 1, 1], 0)) == Measure(OM, {2: 4})

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            restrict(Measure(F3, {1: 1}), om([1], 0))


class TestRestrictFormsAndPolys:
    def test_tensor_masks_entries(self):
        a = SymTensor(F3, 2, {(1, 2): 1, (2, 2): 2, (3, 3): 1})
        assert restrict(a, fin(1, 1, 0)) == SymTensor(F3, 2, {(1, 2): 1, (2, 2): 2})

    def test_tensor_needs_finite_space(self):
        a = SymTensor(F3, 2, {(1, 1): 1})
        poly = to_polynomial(Measure(OM, {1: 1}), 2)
        with pytest.raises(SpaceMismatchError):
            restrict(a, om([1], 0))
        assert restrict(poly, om([1], 0)) == to_polynomial(Measure(OM, {1: 1}), 2)

    def test_polynomial_routes_by_representation(self):
        gen = fin(0, 1, 1)
        p = to_polynomial(Measure(F3, {1: 1, 2: 2}), 2)
        assert restrict(p, gen) == to_polynomial(Measure(F3, {2: 2}), 2)
        q = Polynomial.from_tensor(SymTensor(F3, 2, {(1, 3): 1, (2, 3): 5}))
        assert restrict(q, gen) == Polynomial.from_tensor(SymTensor(F3, 2, {(2, 3): 5}))

    def test_zero_or_negative_generator_refused(self):
        mu = Measure(F3, {1: 1, 3: 4})
        for gen in (fin(0, 0, 0), fin(2, -1, 1)):
            with pytest.raises(InvalidGeneratorError):
                restrict(mu, gen)
            with pytest.raises(InvalidGeneratorError):
                restrict(to_polynomial(mu, 2), gen)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            restrict(fin(1, 2, 3), fin(1, 1, 1))


class TestEvaluationAgreement:
    def test_agreement_on_ideal_members(self):
        for i in range(100):
            rng = rng_for("restrict-eval", i)
            if i % 2:
                poly = to_polynomial(measure(rng, F4), 2 + i % 3)
            else:
                poly = Polynomial.from_tensor(sym_tensor(rng, F4, 2 + i % 3))
            gen = element(rng, F4, positive=True)
            if gen.is_zero():
                continue
            x = masked(element(rng, F4), gen)
            assert restrict(poly, gen).evaluate(x) == poly.evaluate(x)

    def test_agreement_on_omega_ideal_members(self):
        for i in range(60):
            rng = rng_for("restrict-eval-om", i)
            poly = to_polynomial(measure(rng, OM), 2)
            gen = element(rng, OM, positive=True)
            if gen.is_zero():
                continue
            x = masked(element(rng, OM), gen)
            assert restrict(poly, gen).evaluate(x) == poly.evaluate(x)


class TestFunctoriality:
    def test_nested_equals_direct(self):
        for i in range(80):
            rng = rng_for("functorial", i)
            space = F4 if i % 2 else OM
            big = element(rng, space, positive=True)
            if big.is_zero():
                continue
            small = masked(element(rng, space, positive=True), big)
            if small.is_zero():
                continue
            obj = measure(rng, space)
            once = restrict(obj, small)
            twice = restrict(restrict(obj, big), small)
            assert once == twice


class TestConsistency:
    def test_lattice_identities_random(self):
        for i in range(80):
            rng = rng_for("local-lattice", i)
            space = F3 if i % 2 else OM
            gen = element(rng, space, positive=True)
            if gen.is_zero():
                gen = Element.constant(space, 1)
            if i % 4 == 0 and space.is_finite:
                m = 2 + i % 2
                verdict = local_lattice_consistency(sym_tensor(rng, space, m), sym_tensor(rng, space, m), gen)
            elif i % 4 == 1:
                verdict = local_lattice_consistency(
                    to_polynomial(measure(rng, space), 2), to_polynomial(measure(rng, space), 2), gen
                )
            else:
                verdict = local_lattice_consistency(measure(rng, space), measure(rng, space), gen)
            assert verdict.passed, verdict.failed_identity

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            local_lattice_consistency(
                to_polynomial(Measure(F3, {1: 1}), 2), to_polynomial(Measure(F3, {1: 1}), 3), fin(1, 1, 1)
            )
        with pytest.raises(DegreeMismatchError):
            local_lattice_consistency(
                SymTensor(F3, 2, {(1, 1): 1}), SymTensor(F3, 3, {(1, 1, 1): 1}), fin(1, 1, 1)
            )

    def test_representation_mismatch(self):
        p = to_polynomial(Measure(F3, {1: 1}), 2)
        q = Polynomial.from_tensor(SymTensor.diagonal(F3, 2, {1: 1}))
        with pytest.raises(RepresentationError):
            local_lattice_consistency(p, q, fin(1, 1, 1))
        with pytest.raises(RepresentationError):
            local_lattice_consistency(Measure(F3, {1: 1}), SymTensor(F3, 2, {(1, 1): 1}), fin(1, 1, 1))

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            local_lattice_consistency(Measure(F3, {1: 1}), Measure(F4, {1: 1}), fin(1, 1, 1))


class TestDefaultGenerators:
    def test_finite_shape(self):
        gens = default_generators(F3)
        assert len(gens) == 4
        assert gens[:3] == [Element.basis(F3, t) for t in (1, 2, 3)]
        assert gens[-1] == Element.constant(F3, 1)

    def test_omega_shape(self):
        gens = default_generators(OM)
        assert len(gens) == 5
        assert gens[0] == om([1], 0)
        assert gens[3] == om([0, 0, 0, 1], 0)
        assert gens[-1] == Element.constant(OM, 1)


class TestLocalDisjointness:
    def test_disjoint_pair(self):
        p = to_polynomial(Measure(F3, {1: 2}), 2)
        q = to_polynomial(Measure(F3, {3: -5}), 2)
        report = local_disjointness(p, q)
        assert report.globally_disjoint
        assert all(v for _, v in report.per_generator)
        assert report.equivalence_holds

    def test_overlapping_pair(self):
        p = to_polynomial(Measure(F3, {1: 1}), 2)
        q = to_polynomial(Measure(F3, {1: 2, 2: 1}), 2)
        report = local_disjointness(p, q)
        assert not report.globally_disjoint
        verdicts = dict(report.per_generator)
        assert verdicts[Element.basis(F3, 1)] is False
        assert verdicts[Element.basis(F3, 3)] is True
        assert verdicts[Element.constant(F3, 1)] is False
        assert report.equivalence_holds

    def test_constant_generator_always_present(self):
        p = to_polynomial(Measure(F3, {1: 1}), 2)
        q = to_polynomial(Measure(F3, {2: 1}), 2)
        report = local_disjointness(p, q)
        assert [g for g, _ in report.per_generator] == default_generators(F3)
        assert report.per_generator[-1] == (Element.constant(F3, 1), True)
        assert report.equivalence_holds

    def test_equivalence_random(self):
        for i in range(100):
            rng = rng_for("local-disjoint", i)
            space = F4 if i % 2 else OM
            if i % 4 == 3 and space.is_finite:
                p = Polynomial.from_tensor(sym_tensor(rng, space, 2))
                q = Polynomial.from_tensor(sym_tensor(rng, space, 2))
            else:
                p = to_polynomial(measure(rng, space), 2)
                q = to_polynomial(measure(rng, space), 2)
            assert local_disjointness(p, q).equivalence_holds
