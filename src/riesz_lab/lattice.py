"""Exact vector-lattice kernel on two concrete backends.

Elements live either on a finite point set {1, .., n} or on the one-point
compactification of the positive integers, realised as eventually constant
rational sequences: a finite prefix of values followed by a tail value,
which is also the value at the limit point.  Continuity is built into the
representation, and every operation is exact.

Both backends store an element as one row of integers, ``nums``, over one
positive denominator, ``den``: value i is nums[i] / den, the layout the
integer sample blocks of `checks` use (integers in units of 1/12).  On
``finite(n)`` the row is the n point values; on omega1 it is the prefix
followed by the tail.  A point past the end of the row reads the row's last
entry, so two rows combine pointwise once the shorter is padded with its
last entry and both are brought to the lcm of their denominators, and every
pointwise kernel is written once, in Python ints, for both backends.
``Element.values`` is the same row as a tuple of `fractions.Fraction`s,
built on each read: the integer row is the one stored copy.

Outside input is checked in one place, the public constructor
``Element(space, values, den=None)``: each numerator and ``den`` through
`operator.index`, ``den >= 1`` and the row length.  Every Element the
package builds from integers it has just computed (the pointwise kernels,
products and powers, exact roots, the constructors that hold ints, and the
sample rows of `checks`) goes through `_element`, which skips those checks.
Both end in `_canonicalise`, where the canonical form is written once.

Decreasing rearrangements, defined as joins of subset meets, are built by
an insertion recurrence of t(t-1) joins and meets for a t-tuple; its proof
is in `decreasing_rearrangements`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import (
    DegreeMismatchError,
    InvalidGeneratorError,
    PositivityError,
    RepresentationError,
    SpaceMismatchError,
)

Rational = Fraction | int | str


def q(value: Rational) -> Fraction:
    """Coerce to an exact rational."""
    return value if isinstance(value, Fraction) else Fraction(value)


def _integer_row(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """(numerators, den): the rationals as integers over den, the lcm of
    their denominators, so value i is numerators[i] / den; den is 1 for an
    empty row."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


class _LimitPoint:
    """Sentinel for the limit point of the sequence backend."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "LIMIT"


LIMIT = _LimitPoint()

FINITE = "finite"
OMEGA = "omega1"


@dataclass(frozen=True)
class Space:
    """A point set: ``finite`` with n points labelled 1..n, or ``omega1``."""

    kind: str
    n: int = 0

    def __post_init__(self) -> None:
        if self.kind == FINITE:
            if not isinstance(self.n, int) or self.n < 1:
                raise ValueError("finite space needs n >= 1")
        elif self.kind == OMEGA:
            if self.n:
                raise ValueError("omega1 space takes no point count")
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")

    @staticmethod
    def finite(n: int) -> "Space":
        return Space(FINITE, n)

    @staticmethod
    def omega_plus_one() -> "Space":
        return Space(OMEGA)

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    def points(self) -> range:
        """Isolated points of a finite space."""
        if not self.is_finite:
            raise ValueError("points() is only available on finite spaces")
        return range(1, self.n + 1)

    def __repr__(self) -> str:
        return f"finite({self.n})" if self.is_finite else "omega1"


def _check_same_space(a: "Element", b: "Element") -> None:
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError(f"{a.space!r} vs {b.space!r}")


def _aligned(a: "Element", b: "Element") -> tuple[list[int], list[int], int]:
    """(xs, ys, den): the rows of two elements on one space as integers over
    the lcm of their denominators, the shorter row padded with its last
    entry."""
    _check_same_space(a, b)
    x, y, den = a.nums, b.nums, a.den
    if b.den != den:
        den = math.lcm(den, b.den)
        x = [v * (den // a.den) for v in x]
        y = [v * (den // b.den) for v in y]
    if len(x) < len(y):
        x = [*x, *[x[-1]] * (len(y) - len(x))]
    elif len(y) < len(x):
        y = [*y, *[y[-1]] * (len(x) - len(y))]
    return x, y, den


class Element:
    """A point of the lattice, stored as integers ``nums`` over one positive
    denominator ``den``: value i of the row is nums[i] / den.

    On ``finite(n)`` the row holds the n point values.  On omega1 it holds
    the values at points 1..k followed by the tail, the value at every later
    isolated point and at the limit point.  A point past the end of the row
    reads the row's last entry.  The row is canonical: on omega1 trailing
    entries equal to the last one are stripped, and then nums and den are
    divided by their gcd, so equality and hashing are structural.

    ``Element(space, values)`` takes rationals; ``Element(space, nums, den)``
    takes integer numerators over a positive integer ``den``, in any
    scaling.  Either checks its input as outside input and hands the row
    to `_canonicalise`, which writes the canonical form; the package's own
    integer rows reach it through `_element` without the checks.
    ``values`` is the row as Fractions, built on each read.
    """

    __slots__ = ("space", "nums", "den")

    def __init__(self, space: Space, values: Sequence[Rational], den: int | None = None) -> None:
        if den is None:
            nums, den = _integer_row(map(q, values))
        else:
            nums, den = list(map(operator.index, values)), operator.index(den)
            if den < 1:
                raise ValueError(f"denominator must be a positive integer, got {den}")
        if space.is_finite:
            if len(nums) != space.n:
                raise ValueError(f"expected {space.n} values, got {len(nums)}")
        elif not nums:
            raise ValueError("omega1 element needs at least its tail value")
        _canonicalise(self, space, nums, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Element is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def finite(values: Sequence[Rational]) -> "Element":
        return Element(Space.finite(len(values)), values)

    @staticmethod
    def omega(prefix: Sequence[Rational], tail: Rational) -> "Element":
        return Element(Space.omega_plus_one(), [*prefix, tail])

    @staticmethod
    def zero(space: Space) -> "Element":
        return Element.constant(space, 0)

    @staticmethod
    def constant(space: Space, value: Rational) -> "Element":
        num, den = q(value).as_integer_ratio()
        return _element(space, [num] * (space.n if space.is_finite else 1), den)

    @staticmethod
    def basis(space: Space, point: int) -> "Element":
        """Indicator of a single isolated point."""
        if space.is_finite:
            if not 1 <= point <= space.n:
                raise ValueError(f"point {point} outside 1..{space.n}")
            return _element(space, [1 if t == point else 0 for t in space.points()], 1)
        if point < 1:
            raise ValueError("isolated points are labelled 1, 2, ...")
        return _element(space, [0] * (point - 1) + [1, 0], 1)

    @staticmethod
    def tail_indicator(space: Space, start: int, scale: Rational = 1) -> "Element":
        """scale * indicator({limit} | {isolated >= start}); omega1 only."""
        if space.is_finite:
            raise SpaceMismatchError("tail indicators live on omega1")
        if start < 1:
            raise ValueError("start index must be >= 1")
        num, den = q(scale).as_integer_ratio()
        return _element(space, [0] * (start - 1) + [num], den)

    # -- accessors ---------------------------------------------------------

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The row as Fractions, nums[i] / den, built on each read."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def prefix(self) -> tuple[Fraction, ...] | None:
        """omega1: the row before the tail; None on finite spaces."""
        return None if self.space.is_finite else self.values[:-1]

    @property
    def tail(self) -> Fraction | None:
        """omega1: the value at the limit point; None on finite spaces."""
        return None if self.space.is_finite else Fraction(self.nums[-1], self.den)

    def value_at(self, point: int | _LimitPoint) -> Fraction:
        """The value at ``point``: its own row entry, or on omega1 the last
        entry for the limit point and every isolated point past the row."""
        size = len(self.nums)
        if isinstance(point, int) and 0 < point <= size:
            return Fraction(self.nums[point - 1], self.den)
        if not self.space.is_finite and (point is LIMIT or isinstance(point, int) and point > 0):
            return Fraction(self.nums[-1], self.den)
        raise ValueError(f"no point {point!r} in {self.space!r}")

    # -- pointwise kernels, in ints ------------------------------------------

    def _map(self, op: Callable[[int], int]) -> "Element":
        return _element(self.space, list(map(op, self.nums)), self.den)

    def _zip(self, other: "Element", op: Callable[[int, int], int]) -> "Element":
        """op on aligned rows; op must commute with a common positive
        scaling, as +, -, max and min do."""
        x, y, den = _aligned(self, other)
        return _element(self.space, list(map(op, x, y)), den)

    # -- linear and multiplicative structure ---------------------------------

    def __add__(self, other: "Element") -> "Element":
        return self._zip(other, operator.add)

    def __sub__(self, other: "Element") -> "Element":
        return self._zip(other, operator.sub)

    def __neg__(self) -> "Element":
        return self._map(operator.neg)

    def __mul__(self, other: "Element | Rational") -> "Element":
        if isinstance(other, Element):
            x, y, den = _aligned(self, other)
            return _element(self.space, list(map(operator.mul, x, y)), den * den)
        num, den = q(other).as_integer_ratio()
        return _element(self.space, [v * num for v in self.nums], self.den * den)

    def __rmul__(self, other: Rational) -> "Element":
        return self.__mul__(other)

    def __pow__(self, m: int) -> "Element":
        if not isinstance(m, int) or m < 0:
            raise ValueError("pointwise powers take a nonnegative integer")
        return _element(self.space, [v**m for v in self.nums], self.den**m)

    # -- lattice structure ----------------------------------------------------

    def join(self, other: "Element") -> "Element":
        return self._zip(other, max)

    def meet(self, other: "Element") -> "Element":
        return self._zip(other, min)

    def __abs__(self) -> "Element":
        return self._map(abs)

    def pos_part(self) -> "Element":
        return self._map(lambda a: a if a > 0 else 0)

    def neg_part(self) -> "Element":
        return self._map(lambda a: -a if a < 0 else 0)

    def le(self, other: "Element") -> bool:
        """Pointwise order: self <= other everywhere."""
        x, y, _ = _aligned(self, other)
        return all(map(operator.le, x, y))

    def is_nonnegative(self) -> bool:
        return min(self.nums) >= 0

    def is_zero(self) -> bool:
        return not any(self.nums)

    def sup_norm(self) -> Fraction:
        return Fraction(max(map(abs, self.nums)), self.den)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.space == other.space and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.space, self.nums, self.den))

    def __repr__(self) -> str:
        if self.space.is_finite:
            return f"Element([{', '.join(str(v) for v in self.values)}])"
        pre = ", ".join(str(v) for v in self.prefix)
        return f"Element(prefix=[{pre}], tail={self.tail})"


_set_space, _set_nums, _set_den = (slot.__set__ for slot in (Element.space, Element.nums, Element.den))


def _canonicalise(x: Element, space: Space, nums: list[int], den: int) -> None:
    """Set the slots of ``x`` to the canonical form of the row ``nums`` over
    ``den``: on omega1 the trailing entries equal to the last are stripped,
    then nums and den are divided by their gcd.  The row is a nonempty list
    of Python ints, of the space's length on a finite space, which this
    takes over; den is a positive int.  The one place the canonical form is
    written."""
    if space.kind != FINITE:
        end, last = len(nums), nums[-1]
        while end > 1 and nums[end - 2] == last:
            end -= 1
        del nums[end:]
    g = math.gcd(den, *nums)
    if g > 1:
        nums, den = [v // g for v in nums], den // g
    _set_space(x, space)
    _set_nums(x, tuple(nums))
    _set_den(x, den)


def _element(space: Space, nums: list[int], den: int) -> Element:
    """The Element of integers the package has just computed: a fresh list
    of Python ints over a positive int den, of the space's length on a
    finite space and nonempty on omega1.  It skips the checks
    `Element.__init__` makes on outside input and takes the list over."""
    x = object.__new__(Element)
    _canonicalise(x, space, nums, den)
    return x


class Coefficients:
    """Finitely many rational coefficients, combined coefficientwise: a
    measure's atoms, a form's entries, a polynomial's representation's.  A
    kind gives `_items()`, its nonzero coefficients by atom or index, and
    `_with(items)`, the object of its kind, space and degree with those.
    Immutability, equality and hashing over (type, kind, degree, space,
    coefficients), the modulus, join, meet and sum are written here once;
    `_combine` refuses another type or kind (`RepresentationError`), degree
    (`DegreeMismatchError`) or space (`SpaceMismatchError`), in that order."""

    __slots__ = ()

    # a polynomial's kind, a form's or polynomial's degree; None where a kind has none
    kind: str | None = None
    degree: int | None = None

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _signature(self) -> tuple:
        return type(self), self.kind, self.degree, self.space

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coefficients):
            return NotImplemented
        return self._signature() == other._signature() and self._items() == other._items()

    def __hash__(self) -> int:
        return hash((*self._signature(), tuple(self._items().items())))

    def __abs__(self) -> "Coefficients":
        return self._with({k: abs(v) for k, v in self._items().items()})

    def is_zero(self) -> bool:
        return not self._items()

    def _combine(self, other: "Coefficients", op: Callable[[Fraction, Fraction], Fraction]) -> "Coefficients":
        if type(other) is not type(self) or other.kind != self.kind:
            raise RepresentationError(f"lattice operations need a common representation: {self!r}, {other!r}")
        if other.degree != self.degree:
            raise DegreeMismatchError(f"degrees differ: {self.degree} vs {other.degree}")
        if other.space != self.space:
            raise SpaceMismatchError(f"{self.space!r} vs {other.space!r}")
        a, b = self._items(), other._items()
        return self._with({k: op(a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys()})

    def join(self, other: "Coefficients") -> "Coefficients":
        return self._combine(other, max)

    def meet(self, other: "Coefficients") -> "Coefficients":
        return self._combine(other, min)

    def __add__(self, other: "Coefficients") -> "Coefficients":
        return self._combine(other, operator.add)


def decreasing_rearrangements(xs: Sequence[Element]) -> list[Element]:
    """All rearrangements (J_1, .., J_t) of the tuple, largest first.

    J_k is by definition the join, over the k-element subsets of the tuple,
    of their meets.  The list is built by inserting the elements one at a
    time: (x_1) rearranges to (x_1), and when J_1, .., J_s rearrange the
    first s elements, inserting the next element x gives

        J_1 v x,  J_k v (J_{k-1} ^ x) for 1 < k <= s,  J_s ^ x.

    Proof, by distributivity alone: a k-subset of the first s + 1 elements
    either omits x, and the join of the meets of those is J_k, or holds x,
    and the join of the meets of those is the join of x ^ meet(S) over the
    (k-1)-subsets S of the first s, which is x ^ J_{k-1}.  For k = 1 the
    second kind is {x} alone, with meet x; for k = s + 1 the first kind is
    empty.  So the recurrence equals the subset formula in any vector
    lattice, and like it uses only joins and meets: 2s of them to insert
    the (s+1)-th element, t(t-1) for the tuple (12 at t = 4), where the
    subset formula takes a meet per subset member past the first and a
    join per subset past the first (28 at t = 4).  Mismatched spaces are
    refused by the first join with each element."""
    if not xs:
        raise DegreeMismatchError("rearrangement of an empty tuple")
    js = [xs[0]]
    for x in xs[1:]:
        js = [js[0].join(x), *(lo.join(hi.meet(x)) for hi, lo in zip(js, js[1:])), js[-1].meet(x)]
    return js


# -- radicals -------------------------------------------------------------------


def _int_root(value: int, degree: int) -> int | None:
    """Exact nonnegative integer degree-th root, or None."""
    if value < 0:
        return None
    if degree == 1 or value in (0, 1):
        return value
    if degree == 2:
        root = math.isqrt(value)
    else:
        # integer Newton iteration for the floor root, started above it
        root = 1 << -(-value.bit_length() // degree)
        while True:
            nxt = ((degree - 1) * root + value // root ** (degree - 1)) // degree
            if nxt >= root:
                break
            root = nxt
    return root if root**degree == value else None


@dataclass(frozen=True)
class RadicalElement:
    """base**(1/degree) for a nonnegative base, held symbolically.

    The element is rarely rational; it is consumed by evaluation rules that
    clear the radical (a degree-m polynomial evaluates it through its base),
    or simplified by `exact_root` when the base is a pointwise perfect power.
    """

    degree: int
    base: Element

    def __post_init__(self) -> None:
        if not isinstance(self.degree, int) or self.degree < 1:
            raise DegreeMismatchError("radical degree must be a positive integer")
        if not self.base.is_nonnegative():
            raise PositivityError("radical base must be nonnegative")

    @property
    def space(self) -> Space:
        return self.base.space

    def exact_root(self) -> Element | None:
        """The radical as a plain element when it is exactly rational.

        The roots are taken in ints on the base's row: with m the degree, a
        value n/den is a rational m-th power exactly when n * den^(m-1) is
        an integer m-th power r^m, and then its root is r/den.  So
        (1/4, 1/9), stored as (9, 4) over 36, roots to (18, 12) over 36,
        which is (1/2, 1/3)."""
        if self.degree == 1:
            return self.base
        m, den = self.degree, self.base.den
        lift = den ** (m - 1)
        roots = []
        for v in self.base.nums:
            r = _int_root(v * lift, m)
            if r is None:
                return None
            roots.append(r)
        return _element(self.base.space, roots, den)


def krivine_radical(kind: str, degree: int, args: Sequence[Element]) -> RadicalElement:
    """Krivine functional-calculus combinations of nonnegative elements:
    ``power-sum`` builds (sum x_i^m)^(1/m), ``product`` builds
    (x_1 * .. * x_m)^(1/m) and requires exactly m arguments.
    """
    if not args:
        raise DegreeMismatchError("krivine radical needs at least one argument")
    for x in args:
        if not x.is_nonnegative():
            raise PositivityError("krivine radical arguments must be nonnegative")
        _check_same_space(args[0], x)
    if kind == "power-sum":
        acc = args[0] ** degree
        for x in args[1:]:
            acc = acc + x**degree
        return RadicalElement(degree, acc)
    if kind == "product":
        if len(args) != degree:
            raise DegreeMismatchError(
                f"product radical of degree {degree} needs exactly {degree} arguments"
            )
        acc = args[0]
        for x in args[1:]:
            acc = acc * x
        return RadicalElement(degree, acc)
    raise ValueError(f"unknown radical kind {kind!r}")


# -- principal ideals -------------------------------------------------------------


@dataclass(frozen=True)
class PrincipalIdeal:
    """The ideal generated by a nonnegative, nonzero element: all x with
    |x| <= lambda * generator for some rational lambda >= 0."""

    generator: Element

    def __post_init__(self) -> None:
        if not self.generator.is_nonnegative() or self.generator.is_zero():
            raise InvalidGeneratorError("generator must be nonnegative and nonzero")

    @property
    def space(self) -> Space:
        return self.generator.space

    def support_points(self) -> frozenset[int]:
        """Isolated support of the generator (finite spaces only)."""
        if not self.space.is_finite:
            raise SpaceMismatchError("extensional support only on finite spaces")
        return frozenset(t for t in self.space.points() if self.generator.nums[t - 1] != 0)
