"""Forms and polynomials: evaluation, polarisation, modulus, isometry."""

from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesz_lab import (
    Element,
    GeneralMatrixForm,
    Measure,
    Polynomial,
    RadicalElement,
    Space,
    SymTensor,
    norm_check,
    oa_mode_agreement,
    orthosymmetry_check,
    polarize,
    poly_add,
    poly_join,
    poly_meet,
    poly_modulus,
    polys_disjoint,
    structured_pair_count,
    to_measure,
    to_polynomial,
)
from riesz_lab._intpath import dense_core
from riesz_lab.checks import OS_DISJOINT, OS_J_IDENTITY
from riesz_lab.errors import DegreeMismatchError, MalformedInstanceError, RepresentationError, SpaceMismatchError
from riesz_lab.jsonio import matrix_to_obj, parse_matrix, parse_polynomial, polynomial_to_obj, to_obj
from riesz_lab.lattice import LIMIT
from riesz_lab.polynomials import MEASURE, TENSOR
from riesz_lab.tensors import _scaled_rows, arrangements, nondecreasing_indices
from riesz_lab.sampling import element, measure, rng_for, sym_tensor

from oracles import atomic_partition, json_form_value, modulus_partition_oracle

F1, F2, F3 = Space.finite(1), Space.finite(2), Space.finite(3)
OM = Space.omega_plus_one()


def _polarize_by_signs(poly: Polynomial) -> dict[tuple[int, ...], Fraction]:
    """The sign-sum polarisation on Fraction elements, one vector at a time:
    the object-path reference for `polarize`."""
    m = poly.degree
    space = poly.space
    factor = Fraction(1, (2**m) * math.factorial(m))
    entries: dict[tuple[int, ...], Fraction] = {}
    for alpha in nondecreasing_indices(space.n, m):
        basis = [Element.basis(space, t) for t in alpha]
        total = Fraction(0)
        for signs in product((1, -1), repeat=m):
            vector = Element.zero(space)
            sign = 1
            for s, e in zip(signs, basis):
                vector = vector + e * s
                sign *= s
            total += sign * poly.evaluate(vector)
        value = total * factor
        if value != 0:
            entries[alpha] = value
    return entries


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
        assert list(a._arrangement_rows(a.entries.values())) == [
            ((0, 0, 1), 3, 3), ((0, 1, 0), 3, 0), ((1, 0, 0), 3, 0), ((2, 2, 2), Fraction(1, 2), 1)
        ]
        # scaled over the common denominator 2; the weighted rows are the diagonal ones
        rows, weighted, scale, _ = _scaled_rows(a)
        assert scale == 2
        assert rows == [((0, 0, 1), 6, 3), ((0, 1, 0), 6, 0), ((1, 0, 0), 6, 0), ((2, 2, 2), 1, 1)]
        assert weighted == [((0, 0, 1), 6, 3), ((2, 2, 2), 1, 1)]

    def test_arrangements_follow_the_permutation_set(self):
        for m in range(1, 7):
            for n in range(1, 5):
                for idx in nondecreasing_indices(n, m):
                    rows = list(SymTensor(Space.finite(n), m, {idx: 1})._arrangement_rows([1]))
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


# rationals whose denominators reach past 2**64, so no scaled value fits a machine word
_RATIONALS = st.builds(
    Fraction,
    st.integers(-(10**25), 10**25),
    st.one_of(st.integers(1, 12), st.integers(2**64, 2**70)),
)


@st.composite
def _tensor_cases(draw):
    """A tensor of degree 1..5 (possibly empty) and m argument elements."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    space = Space.finite(n)
    index = st.lists(st.integers(1, n), min_size=m, max_size=m).map(lambda idx: tuple(sorted(idx)))
    tensor = SymTensor(space, m, draw(st.dictionaries(index, _RATIONALS, max_size=6)))
    row = st.lists(_RATIONALS, min_size=n, max_size=n)
    return tensor, [Element(space, draw(row)) for _ in range(m)]


@st.composite
def _measure_cases(draw):
    """A measure (possibly zero) and an element on finite(n) or omega1; the
    omega1 atoms reach past the element's row and may carry a limit atom."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        space, points, limit = Space.finite(n), st.integers(1, n), st.just(0)
        row = st.lists(_RATIONALS, min_size=n, max_size=n)
    else:
        space, points, limit = OM, st.integers(1, 12), _RATIONALS
        row = st.lists(_RATIONALS, min_size=1, max_size=5)
    mu = Measure(space, draw(st.dictionaries(points, _RATIONALS, max_size=6)), draw(limit))
    return mu, Element(space, draw(row))


def _fraction_contract(tensor, rows, diagonal):
    """The arrangement-row sum one Fraction product at a time; ``diagonal``
    weights each row, so only the weighted rows count."""
    total = Fraction(0)
    for points, coeff, weight in tensor._arrangement_rows(tensor.entries.values()):
        term = coeff * weight if diagonal else coeff
        for row, point in zip(rows, points):
            term *= row[point]
        total += term
    return total


def _fraction_integral(mu, x, power):
    total = sum((w * x.value_at(t) ** power for t, w in mu.atoms.items()), Fraction(0))
    if mu.limit_atom != 0:
        total += mu.limit_atom * x.value_at(LIMIT) ** power
    return total


class TestIntegerReference:
    """The integer-scaled reference evaluators against Fraction-by-Fraction sums."""

    @settings(max_examples=150, deadline=None)
    @given(_tensor_cases())
    def test_contract_matches_fraction_sum(self, case):
        tensor, args = case
        value = tensor.evaluate(args)
        assert type(value) is Fraction
        assert value == _fraction_contract(tensor, [x.values for x in args], diagonal=False)
        x = args[0]
        diagonal = tensor.evaluate_diagonal(x)
        assert type(diagonal) is Fraction
        assert diagonal == _fraction_contract(tensor, [x.values] * tensor.degree, diagonal=True)
        assert diagonal == tensor.evaluate([x] * tensor.degree)

    @settings(max_examples=150, deadline=None)
    @given(_measure_cases(), st.integers(0, 5))
    def test_integrate_matches_fraction_sum(self, case, power):
        mu, x = case
        value = mu.integrate(x, power)
        assert type(value) is Fraction
        assert value == _fraction_integral(mu, x, power)

    def test_empty_tensor_and_zero_measure_give_zero(self):
        for m in (1, 3):
            tensor = SymTensor(F3, m, {})
            assert tensor.evaluate([fin(1, 2, 3)] * m) == Fraction(0)
            assert tensor.evaluate_diagonal(fin(1, 2, 3)) == Fraction(0)
        for mu, x in ((Measure(F3), fin(1, 2, 3)), (Measure(OM), Element.omega([1, 2], 3))):
            for power in range(4):
                value = mu.integrate(x, power)
                assert type(value) is Fraction and value == 0

    def test_omega_atoms_past_the_row_and_the_limit(self):
        mu = Measure(OM, {1: 2, 5: Fraction(1, 3)}, limit_atom=Fraction(-1, 2))
        x = Element.omega([Fraction(1, 2)], 3)  # x(1) = 1/2, every later point and the limit read 3
        assert mu.integrate(x, 2) == 2 * Fraction(1, 4) + Fraction(1, 3) * 9 - Fraction(9, 2)
        assert mu.integrate(x, 0) == mu.integrate(Element.constant(OM, 1), 1)

    def test_an_atom_at_the_row_end_reads_the_last_entry(self):
        # an atom at point len(nums) reads entry len(nums) - 1: the last
        # point value of a finite row, the tail of an omega1 row
        assert Measure(F3, {3: 2}).integrate(fin(1, 2, 5), 1) == 10
        x = Element.omega([1, 2], 5)  # nums (1, 2, 5): point 2 reads 2, point 3 the tail
        assert Measure(OM, {2: 1, 3: 3}).integrate(x, 2) == 4 + 3 * 25

    @pytest.mark.parametrize("power", [-1, 1.0, Fraction(2), "2"])
    def test_integrate_rejects_a_power_that_is_not_a_nonnegative_int(self, power):
        with pytest.raises(ValueError):
            Measure(F2, {1: 1}).integrate(fin(1, 2), power)

    def test_only_measure_weights_are_cached_and_lazily(self):
        # a tensor keeps nothing between calls; a measure keeps its integer
        # weights, built by the first integral and not at construction
        assert SymTensor.__slots__ == ("space", "degree", "entries")
        assert Measure.__slots__ == ("space", "atoms", "limit_atom", "_scaled")
        mu = Measure(OM, {2: Fraction(1, 3), 9: -2}, limit_atom=Fraction(1, 2))
        assert mu._scaled is None
        assert mu.integrate(Element.omega([1, 2], 3), 2) == Fraction(4, 3) - 18 + Fraction(9, 2)
        assert mu._scaled == ([2, 9, LIMIT], [2, -12, 3], 6)
        assert mu.integrate(Element.omega([], 1), 1) == Fraction(1, 3) - 2 + Fraction(1, 2)


class TestScaledRows:
    """The one slot of scaled arrangement rows that the exact evaluators and
    the int table share: keyed by the form object, empty until first use."""

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_a_checked_tensor_is_enumerated_once(self, diagonal, monkeypatch):
        # the checks one tensor goes through: orthosymmetry in two sampled
        # modes, then the seven OA modes of its polynomial
        n, m = 5, 3
        tensor = sym_tensor(rng_for("one-table", diagonal), Space.finite(n), m,
                            diagonal=diagonal, ensure_off_diagonal=not diagonal)
        enumerations = []
        rows = SymTensor._arrangement_rows

        def counted(self, coeffs):
            enumerations.append(self)
            return rows(self, coeffs)

        monkeypatch.setattr(SymTensor, "_arrangement_rows", counted)
        samples = structured_pair_count(n, m) + 26
        verdicts = [
            orthosymmetry_check(tensor, OS_J_IDENTITY, 200, 7),
            orthosymmetry_check(tensor, OS_DISJOINT, samples, 7),
            *oa_mode_agreement(Polynomial.from_tensor(tensor), samples, 7).values(),
        ]
        assert all(v.passed for v in verdicts) == diagonal
        assert enumerations == [tensor]

    def test_interleaved_and_equal_forms_read_their_own_rows(self):
        a = SymTensor(F3, 3, {(1, 1, 2): 3, (3, 3, 3): Fraction(1, 2), (1, 2, 3): Fraction(-2, 5)})
        b = SymTensor(F3, 3, {(1, 1, 1): Fraction(7, 3), (2, 3, 3): -1})
        b_twin = SymTensor(F3, 3, {(1, 1, 1): Fraction(7, 3), (2, 3, 3): -1})
        c = SymTensor(F3, 3, {(2, 2, 3): Fraction(1, 7)})
        c_twin = SymTensor(F3, 3, {(2, 2, 3): Fraction(1, 7)})
        assert b == b_twin and b is not b_twin and c == c_twin and c is not c_twin
        args = [fin(1, Fraction(-1, 2), 3), fin(2, 0, Fraction(1, 3)), fin(-1, 4, 1)]
        x = args[0]
        for tensor in (a, b, a, b_twin, c, c_twin, a):
            assert tensor.evaluate(args) == _fraction_contract(tensor, [y.values for y in args], False)
            assert tensor.evaluate_diagonal(x) == _fraction_contract(tensor, [x.values] * 3, True)

    def test_the_int_table_is_built_once_per_form_and_read_only(self):
        a = SymTensor(F3, 2, {(1, 2): Fraction(1, 2), (3, 3): 2})
        b = SymTensor(F3, 2, {(1, 1): 1})
        table, scale = dense_core(a)
        assert a.evaluate_diagonal(fin(1, 2, 3)) == 20
        assert dense_core(a)[0] is table and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        dense_core(b)
        again, again_scale = dense_core(a)
        assert again is not table and again.tolist() == table.tolist() and again_scale == scale

    def test_importing_fills_nothing(self):
        code = "import riesz_lab, riesz_lab.tensors as t; print(t._last_rows)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout == "None\n"

    def test_entries_are_read_only(self):
        tensor = SymTensor(F2, 2, {(1, 1): 1})
        matrix = GeneralMatrixForm(F2, [[1, 2], [0, 1]])
        assert tensor.evaluate_diagonal(fin(1, 1)) == 1
        for form, key in ((tensor, (1, 2)), (matrix, (2, 1))):
            with pytest.raises(TypeError):
                form.entries[key] = 1
        assert tensor.evaluate_diagonal(fin(1, 1)) == 1
        assert dict(matrix.entries) == {(1, 1): 1, (1, 2): 2, (2, 2): 1}


def _oracle_value(form, args):
    return json_form_value(to_obj(form), [to_obj(x) for x in args])


def _seeded_value(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def _seeded_row(rng, n):
    return [_seeded_value(rng) for _ in range(n)]


class TestJsonOracle:
    """Every evaluator against the JSON-only oracle, which expands a
    tensor's entries to all their ordered arrangements itself and sums over
    every ordered index tuple; denominators up to 12."""

    def test_tensor_evaluators(self):
        for m in range(1, 6):
            for n in range(1, 7):
                space = Space.finite(n)
                for i in range(3):
                    rng = rng_for("json-oracle", m, n, i)
                    candidates = list(nondecreasing_indices(n, m))
                    picked = rng.sample(candidates, min(len(candidates), rng.randint(1, 2 * n)))
                    tensor = SymTensor(space, m, {idx: _seeded_value(rng) for idx in picked})
                    args = [Element(space, _seeded_row(rng, n)) for _ in range(m)]
                    assert tensor.evaluate(args) == _oracle_value(tensor, args), (m, n, i)
                    assert tensor.evaluate_diagonal(args[0]) == _oracle_value(tensor, [args[0]] * m), (m, n, i)

    def test_matrix_evaluator(self):
        for n in range(1, 7):
            space = Space.finite(n)
            for i in range(6):
                rng = rng_for("json-oracle-matrix", n, i)
                matrix = GeneralMatrixForm(space, [_seeded_row(rng, n) for _ in range(n)])
                args = [Element(space, _seeded_row(rng, n)) for _ in range(2)]
                assert matrix.evaluate(args) == _oracle_value(matrix, args), (n, i)

    def test_hand_values(self):
        assert json_form_value(to_obj(SymTensor(F2, 2, {(1, 2): 1})), [to_obj(fin(1, 2)), to_obj(fin(3, 4))]) == 10
        matrix = GeneralMatrixForm(F2, [[0, 1], [0, 0]])
        assert json_form_value(to_obj(matrix), [to_obj(fin(1, 2)), to_obj(fin(3, 4))]) == 4


class TestMatrixStorage:
    """A matrix form keeps its nonzero entries only; ``rows`` rebuilds the
    dense matrix from them."""

    def test_rows_return_the_input_matrix(self):
        rows = [[1, Fraction(-2, 3), 0], [0, 0, 0], [Fraction(5, 12), 0, 7]]
        matrix = GeneralMatrixForm(F3, rows)
        assert matrix.rows == tuple(tuple(Fraction(v) for v in row) for row in rows)
        assert all(type(v) is Fraction for row in matrix.rows for v in row)
        assert GeneralMatrixForm.__slots__ == ("space", "entries")

    def test_explicit_zeros_compare_and_hash_alike(self):
        dense = GeneralMatrixForm(F2, [[1, Fraction(0)], ["0", Fraction(3, 2)]])
        other = abs(GeneralMatrixForm(F2, [[-1, 0], [0, Fraction(-3, 2)]]))
        assert dense == other and hash(dense) == hash(other)
        assert dense != GeneralMatrixForm(F2, [[1, 0], [1, Fraction(3, 2)]])
        assert dense != SymTensor(F2, 2, {(1, 1): 1, (2, 2): Fraction(3, 2)})

    def test_json_round_trip(self):
        for i in range(10):
            rng = rng_for("matrix-json", i)
            n = rng.randint(1, 5)
            rows = [[rng.choice([0, _seeded_value(rng)]) for _ in range(n)] for _ in range(n)]
            matrix = GeneralMatrixForm(Space.finite(n), rows)
            assert parse_matrix(matrix_to_obj(matrix)) == matrix


class TestPolynomialConstruction:
    """`Polynomial(degree, rep)`: the kind is read off the representation."""

    def test_kind_follows_the_representation(self):
        mu, tensor = Measure(OM, {2: 1}, limit_atom=-1), SymTensor(F2, 3, {(1, 1, 2): 1})
        assert Polynomial(2, mu).kind == MEASURE and Polynomial(2, mu).rep is mu
        assert Polynomial(3, tensor).kind == TENSOR and Polynomial(3, tensor).rep is tensor
        assert Polynomial.from_tensor(tensor) == Polynomial(3, tensor)
        assert to_polynomial(mu, 2) == Polynomial(2, mu) != Polynomial(3, mu)

    @pytest.mark.parametrize("rep", [None, fin(1, 2), GeneralMatrixForm(F2, [[1, 0], [0, 1]]), MEASURE])
    def test_a_non_representation_is_refused(self, rep):
        with pytest.raises(RepresentationError):
            Polynomial(2, rep)

    def test_a_tensor_of_another_degree_is_refused(self):
        with pytest.raises(DegreeMismatchError, match="tensor degree differs from polynomial degree"):
            Polynomial(2, SymTensor(F2, 3, {(1, 1, 2): 1}))
        with pytest.raises(DegreeMismatchError, match="positive integer"):
            Polynomial(0, Measure(F2, {1: 1}))

    def test_json_degree_mismatch_names_its_path(self):
        obj = polynomial_to_obj(Polynomial(3, SymTensor(F2, 3, {(1, 1, 2): 1})))
        assert parse_polynomial(obj, "$.poly") == Polynomial(3, SymTensor(F2, 3, {(1, 1, 2): 1}))
        obj["degree"] = 2
        with pytest.raises(MalformedInstanceError, match=r"^\$\.poly: tensor degree differs") as err:
            parse_polynomial(obj, "$.poly")
        assert err.value.path == "$.poly"
        measure = {**polynomial_to_obj(to_polynomial(Measure(F2, {1: 1}), 2)), "degree": 0}
        with pytest.raises(MalformedInstanceError, match=r"^\$\.poly: polynomial degree must be a positive"):
            parse_polynomial(measure, "$.poly")


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
        assert abs(form) == GeneralMatrixForm(F2, [[1, 2], [2, 3]])

    def test_fixed_point_when_nonnegative(self):
        a = SymTensor(F2, 2, {(1, 1): 2, (1, 2): Fraction(1, 3)})
        assert abs(a) == a

    def test_atomic_partition_attains_modulus(self):
        a = SymTensor(F2, 2, {(1, 1): 1, (2, 2): 1, (1, 2): -1})
        x = fin(1, 1)
        parts = atomic_partition(x)
        value = modulus_partition_oracle(a, [x, x], [parts, parts])
        assert value == 4
        assert abs(a).evaluate([x, x]) == 4

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
            assert fine == abs(a).evaluate([x, y])

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

    def test_repr_lists_atoms_then_limit(self):
        assert repr(Measure(OM, {}, limit_atom=1)) == "Measure(omega1, {limit: 1})"
        assert repr(Measure(OM, {2: Fraction(1, 2), 1: -3}, limit_atom=1)) == "Measure(omega1, {1: -3, 2: 1/2, limit: 1})"
        assert repr(Measure(F2, {2: 4})) == "Measure(finite(2), {2: 4})"
        assert repr(Measure(OM, {})) == "Measure(omega1, {})"


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
            scaled_mu = Measure(mu.space, {t: w * c for t, w in mu.atoms.items()}, mu.limit_atom * c)
            scaled = norm_check(to_polynomial(scaled_mu, 2))
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
