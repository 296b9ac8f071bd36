"""Lattice kernel: operations, rearrangements, radicals, ideals."""

from __future__ import annotations

import hashlib
import math
import operator
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesz_lab import (
    LIMIT,
    Element,
    PrincipalIdeal,
    RadicalElement,
    Space,
    decreasing_rearrangements,
    krivine_radical,
)
from riesz_lab.errors import (
    DegreeMismatchError,
    InvalidGeneratorError,
    PositivityError,
    SpaceMismatchError,
)
from riesz_lab.jsonio import dumps_canonical, element_to_obj, parse_element
from riesz_lab.lattice import _element
from riesz_lab.sampling import element, rational, rng_for
from riesz_lab.suites import _sorted_columns_oracle

from oracles import exact_fraction_root, json_pointwise, membership_witness

F2 = Space.finite(2)
OM = Space.omega_plus_one()


def fin(*vals):
    return Element.finite(list(vals))


def om(prefix, tail):
    return Element.omega(list(prefix), tail)


class TestBinaryOps:
    def test_join_pointwise_max(self):
        assert fin(1, 3).join(fin(2, 2)) == fin(2, 3)

    def test_meet_idempotent(self):
        x = fin(Fraction(1, 2), -3)
        assert x.meet(x) == x

    def test_omega_join_prefix_alignment(self):
        # hand pointwise evaluation: max per isolated point, max of tails
        left = om([5], 0)
        right = om([], 1)
        assert left.join(right) == om([5], 1)

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatchError):
            fin(1, 2).join(Element.finite([1, 2, 3]))


class TestUnaryOps:
    def test_abs(self):
        assert abs(fin(-2, 3)) == fin(2, 3)

    def test_parts(self):
        assert fin(-2, 3).pos_part() == fin(0, 3)
        assert fin(-2, 3).neg_part() == fin(2, 0)

    @pytest.mark.parametrize("space", [Space.finite(4), OM])
    def test_part_decomposition_random(self, space):
        for i in range(100):
            x = element(rng_for("parts", i), space)
            assert x.pos_part() - x.neg_part() == x
            assert x.pos_part() + x.neg_part() == abs(x)


# sha256 of the public omega1 forms below: repr, JSON and point values of
# seeded elements of prefix widths 0..5 and of every pointwise operation on
# pairs of different widths.  Taken while omega1 elements were stored as a
# separate prefix tuple and tail.
_OMEGA_FORMS = "068040575f34e7ccc62a5281471ded4e2ca3a6a4fc5a0a337337bad326aef40f"
_FORMS_WIDTH = 5


def _omega_forms_digest() -> str:
    elements = [
        om([rational(rng) for _ in range(width)], rational(rng))
        for width in range(_FORMS_WIDTH + 1)
        for rng in (rng_for("omega-forms", width, i) for i in range(3))
    ]
    lines = []

    def record(x):
        values = [x.value_at(t) for t in range(1, _FORMS_WIDTH + 3)] + [x.value_at(LIMIT)]
        lines.append(f"{x!r} {dumps_canonical(element_to_obj(x))} {values}")

    for x in elements:
        for result in (-x, abs(x), x.pos_part(), x.neg_part(), x * Fraction(-2, 3), x**3, x):
            record(result)
        lines.append(f"{x.is_nonnegative()} {x.is_zero()} {x.sup_norm()}")
        lines.append(repr(RadicalElement(2, x * x).exact_root()))
        for y in elements:
            if len(x.prefix) == len(y.prefix):
                continue
            for result in (x + y, x - y, x * y, x.join(y), x.meet(y)):
                record(result)
            lines.append(f"{x.le(y)} {x == y}")
            if not y.is_zero():
                lines.append(str(membership_witness(PrincipalIdeal(abs(y)), x)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# square and non-square denominators, so rows meet over their lcm and
# radicals root some of the time
_small = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 9]))


@st.composite
def _element_pairs(draw):
    """Two elements of one space; omega1 prefixes of independent widths,
    some ending in copies of the tail."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return tuple(Element.finite(draw(st.lists(_small, min_size=n, max_size=n))) for _ in range(2))
    pairs = []
    for _ in range(2):
        tail = draw(_small)
        pairs.append(om(draw(st.lists(_small, max_size=5)) + [tail] * draw(st.integers(0, 2)), tail))
    return tuple(pairs)


def _assert_canonical(x):
    """The stored row: Python ints over a positive den with no common
    factor, no repeated tail on omega1, and ``values`` its Fraction view."""
    assert all(type(v) is int for v in x.nums) and type(x.den) is int and x.den >= 1
    assert math.gcd(x.den, *x.nums) == 1
    if not x.space.is_finite:
        assert len(x.nums) == 1 or x.nums[-2] != x.nums[-1]
    assert x.values == tuple(Fraction(v, x.den) for v in x.nums)


class TestNormalisation:
    def test_trailing_tail_values_stripped(self):
        assert om([1, 2, 3, 3, 3], 3) == om([1, 2], 3)
        assert om([1, 2, 2], 2) == om([1], 2)
        assert hash(om([0, 0], 0)) == hash(om([], 0))

    def test_constructor_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            Element(OM, [])
        with pytest.raises(ValueError):
            Element(F2, [1, 2, 3])

    def test_public_omega_forms_pinned(self):
        assert _omega_forms_digest() == _OMEGA_FORMS

    @settings(max_examples=300, deadline=None)
    @given(_element_pairs())
    def test_kernels_match_value_at_oracle(self, pair):
        x, y = pair
        if x.space.is_finite:
            points = list(x.space.points())
        else:
            points = list(range(1, max(len(x.prefix), len(y.prefix)) + 3)) + [LIMIT]

        def at(e):
            _assert_canonical(e)
            return [e.value_at(t) for t in points]

        xs, ys = at(x), at(y)
        for result, op in (
            (-x, operator.neg),
            (abs(x), abs),
            (x.pos_part(), lambda a: max(a, 0)),
            (x.neg_part(), lambda a: max(-a, 0)),
            (x * Fraction(-2, 3), lambda a: a * Fraction(-2, 3)),
            (Fraction(5, 4) * x, lambda a: a * Fraction(5, 4)),
            (x**0, lambda a: a**0),
            (x**3, lambda a: a**3),
        ):
            assert at(result) == [op(a) for a in xs]
        for result, op in (
            (x + y, operator.add),
            (x - y, operator.sub),
            (x * y, operator.mul),
            (x.join(y), max),
            (x.meet(y), min),
        ):
            assert at(result) == [op(a, b) for a, b in zip(xs, ys)]
        assert x.le(y) == all(a <= b for a, b in zip(xs, ys))
        assert x.is_nonnegative() == all(a >= 0 for a in xs)
        assert x.is_zero() == all(a == 0 for a in xs)
        assert x.sup_norm() == max(abs(a) for a in xs)
        assert (x == y) == (xs == ys)
        rebuilt = Element(x.space, x.values if x.space.is_finite else [*x.values, x.values[-1]])
        assert rebuilt == x and hash(rebuilt) == hash(x)
        roots = [exact_fraction_root(abs(a), 2) for a in xs]
        root = RadicalElement(2, abs(x)).exact_root()
        assert (root is None) == (None in roots)
        assert root is None or at(root) == roots
        assert at(RadicalElement(2, x * x).exact_root()) == [abs(a) for a in xs]
        if not y.is_zero():
            caps = [abs(b) for b in ys]
            if any(c == 0 and a != 0 for a, c in zip(xs, caps)):
                expected = None
            else:
                expected = max((abs(a) / c for a, c in zip(xs, caps) if c != 0), default=Fraction(0))
            assert membership_witness(PrincipalIdeal(abs(y)), x) == expected

    def test_value_beyond_prefix_is_tail(self):
        x = om([7], Fraction(1, 3))
        assert x.value_at(1) == 7
        assert x.value_at(100) == Fraction(1, 3)


class TestIntegerRows:
    """Elements built from integer rows in any scaling."""

    @settings(max_examples=200, deadline=None)
    @given(_element_pairs(), st.integers(1, 30))
    def test_unreduced_int_rows_equal_their_fraction_form(self, pair, k):
        x, _ = pair
        row = [v * k for v in x.nums]
        if not x.space.is_finite:
            row.append(row[-1])  # a repeated tail, stripped again
        scaled = Element(x.space, row, x.den * k)
        assert scaled == x and hash(scaled) == hash(x)
        assert (scaled.nums, scaled.den) == (x.nums, x.den)

    def test_int_row_example(self):
        built, fractions = Element(F2, [2, 4], 8), fin(Fraction(1, 4), Fraction(1, 2))
        assert built == fractions and hash(built) == hash(fractions)
        assert (built.nums, built.den) == ((1, 2), 4)
        assert Element(OM, [6, 3, 3, 3], 12) == om([Fraction(1, 2)], Fraction(1, 4))
        assert Element(OM, [0, 0], 7).nums == (0,) and Element(OM, [0, 0], 7).den == 1

    def test_int_rows_reject_bad_input(self):
        with pytest.raises(ValueError):
            Element(F2, [1, 2], 0)
        with pytest.raises(ValueError):
            Element(F2, [1, 2], -3)
        with pytest.raises(TypeError):
            Element(F2, [Fraction(1, 2), 1], 2)  # numerators are ints
        with pytest.raises(ValueError):
            Element(F2, [1, 2, 3], 1)
        with pytest.raises(ValueError):
            Element(OM, [], 1)

    def test_numpy_numerators_become_python_ints(self):
        big = Element(F2, np.array([2**62, 3], dtype=np.int64), np.int64(1))
        assert all(type(v) is int for v in big.nums) and type(big.den) is int
        assert (big * big).values == (Fraction(2**124), Fraction(9))


_SPACES = st.one_of(st.integers(1, 5).map(Space.finite), st.just(OM))
_ENTRIES = st.one_of(st.integers(-4, 4), st.integers(-(10**40), 10**40))
_DENS = st.one_of(st.sampled_from([1, 2, 3, 4, 9, 12]), st.integers(1, 10**40))


@st.composite
def _int_row(draw, space):
    """(nums, den) for ``Element(space, nums, den)``: small, negative, zero
    and 40-digit entries, sometimes an all-zero row, on omega1 sometimes
    ending in copies of the tail, and sometimes every entry and den scaled
    by one common factor."""
    size = space.n if space.is_finite else draw(st.integers(1, 6))
    if draw(st.integers(0, 4)) == 0:
        nums = [0] * size
    else:
        nums = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    if not space.is_finite:
        nums += [nums[-1]] * draw(st.integers(0, 3))
    k = draw(st.sampled_from([1, 2, 6, 10**20]))
    return [v * k for v in nums], draw(_DENS) * k


class TestInternalBuilder:
    """`lattice._element`, the constructor for rows the package computed
    itself, skips the outside-input checks but writes the same canonical
    form as `Element(space, nums, den)`."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_builder_matches_the_public_constructor(self, data):
        space = data.draw(_SPACES)
        nums, den = data.draw(_int_row(space))
        built, public = _element(space, list(nums), den), Element(space, nums, den)
        _assert_canonical(built)
        assert (built.nums, built.den) == (public.nums, public.den)
        assert built == public and hash(built) == hash(public)

    def test_built_elements_are_canonical_and_immutable(self):
        x = _element(OM, [6, 3, 3, 3], 12)
        assert (x.nums, x.den) == ((2, 1), 4) and x == om([Fraction(1, 2)], Fraction(1, 4))
        assert _element(F2, [0, 0], 7).den == 1
        for built in (x, x + x, abs(x), x * x, x**2):
            for name in ("space", "nums", "den", "values"):
                with pytest.raises(AttributeError):
                    setattr(built, name, 1)
        assert (x.nums, x.den) == ((2, 1), 4)


class TestPointwiseOracle:
    """Every pointwise operation against `oracles.json_pointwise`, which
    reads the operands' JSON point by point; the result must write the
    oracle's JSON and equal, with its hash, the element parsed from it."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_operations_match_the_pointwise_json_oracle(self, data):
        space = data.draw(_SPACES)
        x, y = (Element(space, *data.draw(_int_row(space))) for _ in range(2))
        m = data.draw(st.integers(0, 4))
        a, b = element_to_obj(x), element_to_obj(y)
        for result, operation, second in (
            (x.join(y), "join", b),
            (x.meet(y), "meet", b),
            (x + y, "add", b),
            (x - y, "sub", b),
            (x * y, "mul", b),
            (abs(x), "abs", None),
            (x.pos_part(), "pos_part", None),
            (x.neg_part(), "neg_part", None),
            (x**m, "pow", m),
        ):
            expected = json_pointwise(operation, a, second)
            assert element_to_obj(result) == expected, operation
            rebuilt = parse_element(expected)
            assert result == rebuilt and hash(result) == hash(rebuilt), operation


class TestAxiomsRandom:
    @pytest.mark.parametrize("space", [Space.finite(3), OM])
    def test_lattice_axioms(self, space):
        for i in range(250):
            rng = rng_for("axioms", repr(space), i)
            x, y, z = (element(rng, space) for _ in range(3))
            assert x.join(y) == y.join(x)
            assert x.meet(y) == y.meet(x)
            assert x.join(y).join(z) == x.join(y.join(z))
            assert x.meet(y).meet(z) == x.meet(y.meet(z))
            assert x.join(x.meet(y)) == x
            assert x.meet(x.join(y)) == x
            assert x.meet(y.join(z)) == x.meet(y).join(x.meet(z))
            assert x.join(y.meet(z)) == x.join(y).meet(x.join(z))


def disjoint(x: Element, y: Element) -> bool:
    """|x| and |y| have zero meet."""
    return abs(x).meet(abs(y)).is_zero()


class TestDisjointness:
    def test_basis_pairs(self):
        assert disjoint(fin(1, 0), fin(0, 5))
        assert not disjoint(fin(1, 1), fin(0, 5))

    def test_tail_indicator_vs_prefix_support(self):
        tail_part = Element.tail_indicator(OM, 4)
        head_part = om([1, 2, 3], 0)
        assert disjoint(tail_part, head_part)


def _subset_rearrangement(xs, k):
    """The definition of J_k: the join, over the k-element subsets of the
    tuple, of their meets."""
    return reduce(Element.join, (reduce(Element.meet, subset) for subset in combinations(xs, k)))


@st.composite
def _tuples(draw):
    """t = 1..5 elements of one space; omega1 rows of independent widths."""
    t = draw(st.integers(1, 5))
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return [Element.finite(draw(st.lists(_small, min_size=n, max_size=n))) for _ in range(t)]
    return [om(draw(st.lists(_small, max_size=5)), draw(_small)) for _ in range(t)]


class TestRearrangements:
    @settings(max_examples=300, deadline=None)
    @given(_tuples())
    def test_recurrence_matches_the_subset_formula_and_the_sort(self, xs):
        js = decreasing_rearrangements(xs)
        assert js == [_subset_rearrangement(xs, k) for k in range(1, len(xs) + 1)]
        assert js == _sorted_columns_oracle(xs)

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_joins_and_meets_number_t_times_t_minus_one(self, t, monkeypatch):
        # the subset formula takes 28 at t = 4 and grows exponentially
        calls = []
        for name in ("join", "meet"):
            op = getattr(Element, name)
            monkeypatch.setattr(Element, name, lambda self, other, op=op: calls.append(op) or op(self, other))
        xs = [om([(3 * i + 2 * p) % 7 for p in range(i + 1)], -i) for i in range(t)]
        js = decreasing_rearrangements(xs)
        assert len(calls) == t * (t - 1)
        assert js == _sorted_columns_oracle(xs)

    def test_empty_tuple_and_mixed_spaces_refused(self):
        with pytest.raises(DegreeMismatchError):
            decreasing_rearrangements([])
        for xs in ([fin(1, 2), om([1], 2)], [fin(1, 2), fin(0, 1), fin(1, 2, 3)]):
            with pytest.raises(SpaceMismatchError):
                decreasing_rearrangements(xs)

    def test_scalar_sort(self):
        xs = [Element.finite([5]), Element.finite([2]), Element.finite([7])]
        js = decreasing_rearrangements(xs)
        assert [j.values[0] for j in js] == [7, 5, 2]

    def test_frozen_triple_on_two_points(self):
        # per-point sort oracle: column 1 holds (1,0,1), column 2 holds (0,1,1)
        xs = [fin(1, 0), fin(0, 1), fin(1, 1)]
        js = decreasing_rearrangements(xs)
        assert js == [fin(1, 1), fin(1, 1), fin(0, 0)]

    @pytest.mark.parametrize("space", [Space.finite(3), OM])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_product_preserved(self, space, m):
        # the product of the tuple equals the product of its rearrangements
        for i in range(125):
            rng = rng_for("decrear", repr(space), m, i)
            xs = [element(rng, space) for _ in range(m)]
            prod = xs[0]
            for x in xs[1:]:
                prod = prod * x
            jprod = None
            for j in decreasing_rearrangements(xs):
                jprod = j if jprod is None else jprod * j
            assert jprod == prod

    def test_pointwise_kth_largest_oracle(self):
        for i in range(150):
            rng = rng_for("kth", i)
            xs = [element(rng, Space.finite(4)) for _ in range(3)]
            js = decreasing_rearrangements(xs)
            for t in range(4):
                column = sorted((x.values[t] for x in xs), reverse=True)
                assert [j.values[t] for j in js] == column


class TestRadicals:
    def test_power_sum_three_four_five(self):
        r = krivine_radical("power-sum", 2, [Element.finite([3]), Element.finite([4])])
        assert r.base == Element.finite([25])
        assert r.exact_root() == Element.finite([5])

    def test_product_geometric_mean(self):
        r = krivine_radical("product", 2, [Element.finite([2]), Element.finite([8])])
        assert r.base == Element.finite([16])
        assert r.exact_root() == Element.finite([4])

    def test_negative_argument_rejected(self):
        with pytest.raises(PositivityError):
            krivine_radical("power-sum", 2, [fin(-1, 0), fin(0, 1)])

    def test_product_arity(self):
        with pytest.raises(DegreeMismatchError):
            krivine_radical("product", 3, [fin(1, 1), fin(2, 2)])

    def test_irrational_root_is_none(self):
        assert RadicalElement(2, Element.finite([2])).exact_root() is None

    def test_degree_one_is_base(self):
        x = fin(3, Fraction(1, 2))
        assert RadicalElement(1, x).exact_root() == x

    def test_exact_fraction_root_table(self):
        assert exact_fraction_root(Fraction(27, 8), 3) == Fraction(3, 2)
        assert exact_fraction_root(Fraction(2), 2) is None

    def test_exact_root_of_rational_powers_over_a_common_denominator(self):
        # (1/4, 1/9) is stored as (9, 4) over 36; each value n/36 roots as
        # r/36 with r^2 = n * 36, so (18, 12) over 36
        base = fin(Fraction(1, 4), Fraction(1, 9))
        assert (base.nums, base.den) == ((9, 4), 36)
        assert RadicalElement(2, base).exact_root() == fin(Fraction(1, 2), Fraction(1, 3))
        cubes = om([Fraction(1, 8), Fraction(27, 64)], Fraction(8, 27))
        assert RadicalElement(3, cubes).exact_root() == om([Fraction(1, 2), Fraction(3, 4)], Fraction(2, 3))

    def test_exact_root_with_a_non_power_value_is_none(self):
        assert RadicalElement(2, fin(Fraction(1, 4), Fraction(1, 2))).exact_root() is None
        assert RadicalElement(2, fin(Fraction(1, 4), Fraction(4, 3))).exact_root() is None
        assert RadicalElement(3, om([Fraction(1, 8)], 4)).exact_root() is None

    def test_exact_root_beyond_float_range(self):
        assert exact_fraction_root(Fraction((3**200) ** 2), 2) == 3**200
        assert exact_fraction_root(Fraction(10**400), 2) == 10**200
        assert RadicalElement(2, fin(10**400, (3**200) ** 2)).exact_root() == fin(10**200, 3**200)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_large_perfect_powers_and_near_misses(self, m):
        rng = random.Random(f"int-root:{m}")
        for digits in (1, 5, 17, 40, 120, 400):
            root = rng.randrange(10 ** (digits - 1), 10**digits) + 1
            value = root**m
            assert exact_fraction_root(Fraction(value), m) == root
            assert exact_fraction_root(Fraction(value + 1), m) is None
            assert exact_fraction_root(Fraction(value - 1), m) is None
            assert exact_fraction_root(Fraction(value, (root + 1) ** m), m) == Fraction(root, root + 1)


class TestPrincipalIdeals:
    def test_witness_coordinatewise_ratio(self):
        ideal = PrincipalIdeal(fin(1, 2))
        assert membership_witness(ideal, fin(2, 2)) == 2

    def test_support_escape(self):
        ideal = PrincipalIdeal(fin(1, 0))
        assert membership_witness(ideal, fin(0, 1)) is None

    def test_zero_element_witness(self):
        assert membership_witness(PrincipalIdeal(fin(1, 1)), fin(0, 0)) == 0

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidGeneratorError):
            PrincipalIdeal(fin(0, 0))
        with pytest.raises(InvalidGeneratorError):
            PrincipalIdeal(fin(-1, 1))

    def test_positive_tail_generator_spans_everything(self):
        ideal = PrincipalIdeal(om([0, 0], 1))
        # a(t) = 0 at points 1, 2 but x vanishes there too
        assert membership_witness(ideal, om([0, 0, 7], 2)) is not None
        assert membership_witness(ideal, om([1], 0)) is None
        for i in range(50):
            x = element(rng_for("span", i), OM)
            masked = om([Fraction(0), Fraction(0)] + [x.value_at(t) for t in range(3, 7)], x.tail)
            assert membership_witness(ideal, masked) is not None


class TestScalarAlgebra:
    def test_pow_and_scale(self):
        x = fin(Fraction(1, 2), -2)
        assert x**2 == fin(Fraction(1, 4), 4)
        assert x * Fraction(-3) == fin(Fraction(-3, 2), 6)

    def test_random_triangle_inequality(self):
        for i in range(100):
            rng = rng_for("triangle", i)
            x, y = element(rng, OM), element(rng, OM)
            assert abs(x + y).le(abs(x) + abs(y))
