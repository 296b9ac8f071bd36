"""Forms and polynomials: evaluation, polarisation, modulus, isometry."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

import pytest

from riesz_lab import (
    Element,
    GeneralMatrixForm,
    Measure,
    Polynomial,
    RadicalElement,
    Space,
    SymTensor,
    atomic_partition,
    modulus_partition_oracle,
    norm_check,
    polarize,
    poly_add,
    poly_join,
    poly_meet,
    poly_modulus,
    polys_disjoint,
    to_measure,
    to_polynomial,
)
from riesz_lab.errors import DegreeMismatchError, RepresentationError, SpaceMismatchError
from riesz_lab.tensors import arrangements, nondecreasing_indices
from riesz_lab.sampling import element, measure, rng_for, sym_tensor

F1, F2, F3 = Space.finite(1), Space.finite(2), Space.finite(3)
OM = Space.omega_plus_one()


def fin(*vals):
    return Element.finite(list(vals))


class TestFormEvaluation:
    def test_identity_diagonal_hand_expansion(self):
        a = SymTensor.diagonal(F2, 2, {1: 1, 2: 1})
        assert a.evaluate([fin(1, 2), fin(3, 4)]) == 11

    def test_multilinearity_zero_slot(self):
        a = sym_tensor(rng_for("zero-slot"), F3, 3)
        assert a.evaluate([fin(1, 2, 3), Element.zero(F3), fin(5, 5, 5)]) == 0

    def test_permutation_invariance(self):
        for i in range(50):
            rng = rng_for("perm", i)
            a = sym_tensor(rng, F3, 3)
            args = [element(rng, F3) for _ in range(3)]
            base = a.evaluate(args)
            assert a.evaluate([args[1], args[2], args[0]]) == base
            assert a.evaluate([args[2], args[1], args[0]]) == base

    def test_diagonal_matches_multilinear_reference(self):
        for m in range(1, 6):
            for n in range(1, 7):
                space = Space.finite(n)
                for i in range(4):
                    rng = rng_for("diag-eval", m, n, i)
                    a = sym_tensor(rng, space, m, diagonal=i == 0, ensure_off_diagonal=i > 0)
                    x = element(rng, space)
                    assert a.evaluate_diagonal(x) == a.evaluate([x] * m), (m, n, i)

    def test_arrangement_counts(self):
        table = {(3,): 1, (1, 2): 2, (2, 2): 1, (1, 1, 2): 3, (1, 2, 3): 6, (4, 4, 4, 4): 1, (1, 1, 2, 2, 3): 30}
        assert {idx: arrangements(idx) for idx in table} == table

    def test_arrangement_table(self):
        a = SymTensor(F3, 3, {(1, 1, 2): 3, (3, 3, 3): Fraction(1, 2)})
        assert a.arrangement_table() == [
            ((0, 0, 1), 3, 3), ((0, 1, 0), 3, 0), ((1, 0, 0), 3, 0), ((2, 2, 2), Fraction(1, 2), 1)
        ]
        assert a.arrangement_table(diagonal=True) == [((0, 0, 1), 3, 3), ((2, 2, 2), Fraction(1, 2), 1)]

    def test_arrangements_follow_the_permutation_set(self):
        for m in range(1, 7):
            for n in range(1, 5):
                for idx in nondecreasing_indices(n, m):
                    rows = SymTensor(Space.finite(n), m, {idx: 1}).arrangement_table()
                    points = tuple(t - 1 for t in idx)
                    assert [p for p, _, _ in rows] == [points] + sorted(set(permutations(points)) - {points})
                    assert [w for _, _, w in rows] == [arrangements(idx)] + [0] * (len(rows) - 1)

    def test_diagonal_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            SymTensor.diagonal(F2, 2, {1: 1}).evaluate_diagonal(fin(1, 2, 3))

    def test_distinct_permutation_weighting(self):
        # single mixed entry (1,2): A(x,y) = x1 y2 + x2 y1
        a = SymTensor(F2, 2, {(1, 2): 1})
        assert a.evaluate([fin(1, 0), fin(0, 1)]) == 1
        assert a.evaluate([fin(1, 2), fin(3, 4)]) == 1 * 4 + 2 * 3


class TestPolynomialEvaluation:
    def test_measure_hand_evaluation(self):
        p = to_polynomial(Measure(F2, {1: 1, 2: 2}), 2)
        assert p.evaluate(fin(3, 1)) == 11

    def test_zero_element(self):
        p = to_polynomial(Measure(F2, {1: 5}), 3)
        assert p.evaluate(Element.zero(F2)) == 0

    def test_radical_defining_rule(self):
        p = to_polynomial(Measure(F1, {1: 1}), 2)
        v = RadicalElement(2, Element.finite([25]))
        assert p.evaluate(v) == 25
        assert p.evaluate(Element.finite([5])) == 25

    def test_radical_degree_mismatch(self):
        p = to_polynomial(Measure(F1, {1: 1}), 3)
        with pytest.raises(DegreeMismatchError):
            p.evaluate(RadicalElement(2, Element.finite([2])))

    def test_radical_rejected_by_tensor_representation(self):
        p = Polynomial.from_tensor(SymTensor(F2, 2, {(1, 2): 1}))
        with pytest.raises(RepresentationError):
            p.evaluate(RadicalElement(2, fin(2, 3)))

    def test_rooting_radical_fine_for_tensor(self):
        p = Polynomial.from_tensor(SymTensor(F2, 2, {(1, 2): 1}))
        assert p.evaluate(RadicalElement(2, fin(4, 9))) == p.evaluate(fin(2, 3))


class TestPolarisation:
    def test_delta_one_square(self):
        p = to_polynomial(Measure(F2, {1: 1}), 2)
        a = polarize(p)
        assert a.entries == {(1, 1): Fraction(1)}
        assert a.evaluate([fin(1, 0), fin(0, 1)]) == 0

    def test_prefactor_eight_st(self):
        # sum over sign pairs of s1*s2*(s1*s + s2*t)^2 collapses to 8st
        for i in range(100):
            rng = rng_for("8st", i)
            s = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
            t = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
            total = sum(
                s1 * s2 * (s1 * s + s2 * t) ** 2 for s1, s2 in product((1, -1), repeat=2)
            )
            assert total == 8 * s * t

    @pytest.mark.parametrize("m", [2, 3])
    def test_round_trip_random(self, m):
        for i in range(40):
            rng = rng_for("polarize", m, i)
            a = sym_tensor(rng, F3, m)
            assert polarize(Polynomial.from_tensor(a)) == a

    def test_object_route_matches_int_route(self):
        from riesz_lab.polynomials import _polarize_by_signs

        for i in range(15):
            rng = rng_for("polarize-routes", i)
            a = sym_tensor(rng, F3, 2)
            p = Polynomial.from_tensor(a)
            assert _polarize_by_signs(p) == a.entries

    def test_omega_rejected(self):
        p = to_polynomial(Measure(OM, {1: 1}), 2)
        with pytest.raises(SpaceMismatchError):
            polarize(p)


class TestModulus:
    def test_matrix_coefficientwise(self):
        form = GeneralMatrixForm(F2, [[1, -2], [-2, 3]])
        assert form.modulus() == GeneralMatrixForm(F2, [[1, 2], [2, 3]])

    def test_fixed_point_when_nonnegative(self):
        a = SymTensor(F2, 2, {(1, 1): 2, (1, 2): Fraction(1, 3)})
        assert a.modulus() == a

    def test_atomic_partition_attains_modulus(self):
        a = SymTensor(F2, 2, {(1, 1): 1, (2, 2): 1, (1, 2): -1})
        x = fin(1, 1)
        parts = atomic_partition(x)
        value = modulus_partition_oracle(a, [x, x], [parts, parts])
        assert value == 4
        assert a.modulus().evaluate([x, x]) == 4

    def test_trivial_partition_is_plain_abs(self):
        a = SymTensor(F2, 2, {(1, 2): -3})
        x, y = fin(1, 2), fin(2, 1)
        assert modulus_partition_oracle(a, [x, y], [[x], [y]]) == abs(a.evaluate([x, y]))

    def test_refinement_monotone_random(self):
        for i in range(60):
            rng = rng_for("refine", i)
            a = sym_tensor(rng, F3, 2)
            x = element(rng, F3, positive=True)
            y = element(rng, F3, positive=True)
            atomic_x = atomic_partition(x) or [x]
            atomic_y = atomic_partition(y) or [y]
            coarse = modulus_partition_oracle(a, [x, y], [[x], [y]])
            fine = modulus_partition_oracle(a, [x, y], [atomic_x, atomic_y])
            assert coarse <= fine
            assert fine == a.modulus().evaluate([x, y])

    def test_partition_must_sum(self):
        a = SymTensor(F2, 2, {(1, 1): 1})
        with pytest.raises(ValueError):
            modulus_partition_oracle(a, [fin(1, 1), fin(1, 1)], [[fin(1, 0)], [fin(1, 1)]])


class TestMeasureIso:
    def test_to_poly_frozen(self):
        p = to_polynomial(Measure(F1, {1: Fraction(1, 2)}), 3)
        assert p.evaluate(Element.finite([2])) == 4

    def test_round_trip_random(self):
        for i in range(100):
            rng = rng_for("iso-roundtrip", i)
            space = F3 if i % 2 else OM
            mu = measure(rng, space)
            assert to_measure(to_polynomial(mu, 2)) == mu

    def test_diagonal_tensor_converts(self):
        a = SymTensor.diagonal(F2, 2, {1: Fraction(1, 2), 2: -3})
        assert to_measure(Polynomial.from_tensor(a)) == Measure(F2, {1: Fraction(1, 2), 2: -3})

    def test_off_diagonal_rejected(self):
        p = Polynomial.from_tensor(SymTensor(F2, 2, {(1, 2): 1}))
        with pytest.raises(RepresentationError):
            to_measure(p)


class TestNorms:
    def test_frozen_example(self):
        p = to_polynomial(Measure(F2, {1: 1, 2: -2}), 2)
        assert norm_check(p) == (3, 3)

    def test_zero_measure(self):
        assert norm_check(to_polynomial(Measure(F2, {}), 2)) == (0, 0)

    def test_scaling_homogeneity(self):
        for i in range(100):
            rng = rng_for("norm-scale", i)
            mu = measure(rng, OM)
            c = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
            base = norm_check(to_polynomial(mu, 2))
            scaled = norm_check(to_polynomial(mu.scale(c), 2))
            assert scaled == (abs(c) * base[0], abs(c) * base[1])


class TestPolyLattice:
    def test_modulus_atomwise(self):
        p = to_polynomial(Measure(F2, {1: -1}), 2)
        assert to_measure(poly_modulus(p)) == Measure(F2, {1: 1})

    def test_meet_of_disjoint_supports_is_zero(self):
        p = to_polynomial(Measure(F3, {1: 2}), 2)
        q = to_polynomial(Measure(F3, {3: 5}), 2)
        assert to_measure(poly_meet(p, q)).is_zero()
        assert polys_disjoint(p, q)

    def test_join_plus_meet_is_sum(self):
        for i in range(200):
            rng = rng_for("valn", i)
            space = F3 if i % 2 else OM
            p = to_polynomial(measure(rng, space), 2)
            q = to_polynomial(measure(rng, space), 2)
            lhs = to_measure(poly_add(poly_join(p, q), poly_meet(p, q)))
            assert lhs == to_measure(poly_add(p, q))

    def test_modulus_keeps_orthogonal_additivity(self):
        p = to_polynomial(Measure(OM, {2: -3}, limit_atom=Fraction(-1, 2)), 3)
        assert poly_modulus(p).is_orthogonally_additive()

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            poly_join(to_polynomial(Measure(F2, {1: 1}), 2), to_polynomial(Measure(F2, {1: 1}), 3))
