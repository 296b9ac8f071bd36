"""Multilinear forms on finite spaces, stored sparsely.

Every form here is a `Form`: its nonzero entries keyed by 1-based index
tuples, and one exact evaluator over its arrangement rows.
`_arrangement_rows` lists each stored entry's points 0-based with a
coefficient and a weight, and the weighted rows alone give the diagonal:
the one layout evaluators read.

A symmetric m-linear form (`SymTensor`) is determined by its values on
nondecreasing multi-indices: the stored coefficient at alpha is the value
of the full symmetric array at any arrangement of alpha.  Its rows are each
stored entry's distinct arrangements, the first weighted m! / prod k_t!
(k_t counts t in alpha) and the rest weighted 0.  An order-2 form with no
symmetry assumption (`GeneralMatrixForm`) has no arrangements to fold: its
rows are its entries, one each with weight 1.

`_scaled_rows` enumerates a form's rows once, with the coefficients scaled
to integers over their common denominator, and keeps them in one module
slot keyed by the form object, so a run of calls on one form (the checks
evaluate it again and again) walks its arrangements once; the slot also
holds the int array `_intpath.dense_core` builds from those rows, so the
array too is built once per run.  The reference here sums those rows in
exact integers, reading each argument's integer row as it is stored, and
builds one Fraction per value; the batch kernels in `_intpath` build their
integer arrays from the same rows.  Entries are read-only views, so a form
cannot change under its cached rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import getitem
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DegreeMismatchError, SpaceMismatchError
from .lattice import Element, Rational, Space, _integer_row, q


def nondecreasing_indices(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All nondecreasing multi-indices of length m over points 1..n."""
    return combinations_with_replacement(range(1, n + 1), m)


def arrangements(idx: tuple[int, ...]) -> int:
    """Number of distinct permutations of idx, m! / prod k_t!, where k_t
    counts the occurrences of t in idx."""
    weight = math.factorial(len(idx))
    for k in map(idx.count, set(idx)):
        weight //= math.factorial(k)
    return weight


def _later_arrangements(points: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The distinct arrangements after a sorted tuple, in lexicographic
    order: each is the next lexicographic permutation of the one before
    (Knuth, TAOCP 4A, Algorithm 7.2.1.2L), so no arrangement repeats."""
    a = list(points)
    while True:
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]
        yield tuple(a)


class Form:
    """A multilinear form on a finite space: ``space``, ``degree`` and its
    nonzero ``entries``, an immutable mapping from 1-based index tuples to
    Fractions.  A subclass lists the entries' rows (points, coeff, weight)
    in `_arrangement_rows(coeffs)`, entry by entry, points 0-based, the
    i-th entry's coefficient read from the i-th item of ``coeffs``;
    evaluation reads those rows, and equality the entries."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def evaluate(self, args: Sequence[Element]) -> Fraction:
        """A(x_1, .., x_m): coeff * prod_i x_i(point_i) summed over every
        arrangement row."""
        if len(args) != self.degree:
            raise DegreeMismatchError(f"expected {self.degree} arguments, got {len(args)}")
        for x in args:
            if x.space != self.space:
                raise SpaceMismatchError("argument on the wrong space")
        return self._contract(args, diagonal=False)

    def _contract(self, args: Sequence[Element], diagonal: bool) -> Fraction:
        """The sum over the scaled arrangement rows (`_scaled_rows`) in exact
        integers: each argument is read as stored, integers ``nums`` over
        ``den``, and one Fraction is built from the total.  ``diagonal``
        takes one argument, reads it in every slot and sums the weighted
        rows alone."""
        rows, weighted, scale, _ = _scaled_rows(self)
        if diagonal:
            (x,) = args
            total = sum(math.prod(map(x.nums.__getitem__, p), start=c * w) for p, c, w in weighted)
            return Fraction(total, scale * x.den**self.degree)
        xs = [x.nums for x in args]
        total = sum(math.prod(map(getitem, xs, p), start=c) for p, c, _ in rows)
        return Fraction(total, scale * math.prod(x.den for x in args))

    def off_diagonal_entries(self) -> dict[tuple[int, ...], Fraction]:
        """The entries whose index names at least two distinct points."""
        return {idx: v for idx, v in self.entries.items() if len(set(idx)) > 1}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.space == other.space
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((type(self), self.space, self.degree, tuple(self.entries.items())))


class SymTensor(Form):
    """A symmetric m-linear form on a finite space."""

    __slots__ = ("space", "degree", "entries")

    def __init__(
        self,
        space: Space,
        degree: int,
        entries: Mapping[tuple[int, ...], Rational],
    ) -> None:
        if not space.is_finite:
            raise SpaceMismatchError("tensors live on finite spaces")
        if not isinstance(degree, int) or degree < 1:
            raise DegreeMismatchError("tensor degree must be a positive integer")
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, value in entries.items():
            key = tuple(sorted(idx))
            if len(key) != degree:
                raise DegreeMismatchError(f"index {idx} has length {len(idx)}, expected {degree}")
            if any(not 1 <= t <= space.n for t in key):
                raise ValueError(f"index {idx} outside 1..{space.n}")
            if key in clean:
                raise ValueError(f"duplicate index {key}")
            val = q(value)
            if val != 0:
                clean[key] = val
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "entries", MappingProxyType(dict(sorted(clean.items()))))

    @staticmethod
    def diagonal(space: Space, degree: int, weights: Mapping[int, Rational]) -> "SymTensor":
        return SymTensor(space, degree, {(t,) * degree: w for t, w in weights.items()})

    # -- evaluation ---------------------------------------------------------

    def _arrangement_rows(
        self, coeffs: Iterable[Fraction | int]
    ) -> Iterator[tuple[tuple[int, ...], Fraction | int, int]]:
        """The sorted index with weight m!/prod k_t!, then its other
        distinct arrangements with weight 0."""
        for idx, coeff in zip(self.entries, coeffs):
            points = tuple(t - 1 for t in idx)
            yield points, coeff, arrangements(idx)
            for p in _later_arrangements(points):
                yield p, coeff, 0

    def evaluate(self, args: Sequence[Element]) -> Fraction:
        """`Form.evaluate`, defined in this class so that the benchmark's
        span ``SymTensor.evaluate`` wraps the tensors' calls alone."""
        return Form.evaluate(self, args)

    def evaluate_diagonal(self, x: Element) -> Fraction:
        """A(x, .., x).  Every arrangement of an entry contributes the same
        product, so this is coeff * weight * prod_i x(point_i) summed over
        the weighted rows alone."""
        if x.space != self.space:
            raise SpaceMismatchError("argument on the wrong space")
        return self._contract([x], diagonal=True)

    # -- structure ------------------------------------------------------------

    def is_diagonal(self) -> bool:
        return all(len(set(idx)) == 1 for idx in self.entries)

    def diagonal_weights(self) -> dict[int, Fraction]:
        if not self.is_diagonal():
            raise ValueError("tensor has off-diagonal entries")
        return {idx[0]: v for idx, v in self.entries.items()}

    def is_positive(self) -> bool:
        return all(v >= 0 for v in self.entries.values())

    # -- lattice operations (entrywise on the symmetric array) ------------------

    def __abs__(self) -> "SymTensor":
        return SymTensor(self.space, self.degree, {i: abs(v) for i, v in self.entries.items()})

    def _merge(self, other: "SymTensor", op) -> "SymTensor":
        if self.space != other.space or self.degree != other.degree:
            raise SpaceMismatchError("tensors not compatible")
        keys = set(self.entries) | set(other.entries)
        zero = Fraction(0)
        out = {k: op(self.entries.get(k, zero), other.entries.get(k, zero)) for k in keys}
        return SymTensor(self.space, self.degree, out)

    def join(self, other: "SymTensor") -> "SymTensor":
        return self._merge(other, max)

    def meet(self, other: "SymTensor") -> "SymTensor":
        return self._merge(other, min)

    def restrict_points(self, points: frozenset[int]) -> "SymTensor":
        """Drop entries touching any point outside the given set."""
        kept = {i: v for i, v in self.entries.items() if set(i) <= points}
        return SymTensor(self.space, self.degree, kept)

    def __repr__(self) -> str:
        return f"SymTensor(m={self.degree}, {self.space!r}, {len(self.entries)} entries)"


class GeneralMatrixForm(Form):
    """A bilinear form on a finite space with no symmetry assumption.

    ``entries`` maps each nonzero (i, j), 1-based, to its coefficient in
    row-major order; ``rows`` rebuilds the dense matrix from them.
    """

    __slots__ = ("space", "entries")

    degree = 2

    def __init__(self, space: Space, rows: Sequence[Sequence[Rational]]) -> None:
        if not space.is_finite:
            raise SpaceMismatchError("matrix forms live on finite spaces")
        if len(rows) != space.n or any(len(row) != space.n for row in rows):
            raise ValueError(f"need an {space.n} x {space.n} matrix")
        values = ((i, j, q(v)) for i, row in enumerate(rows, 1) for j, v in enumerate(row, 1))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", MappingProxyType({(i, j): v for i, j, v in values if v != 0}))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        points, zero = self.space.points(), Fraction(0)
        return tuple(tuple(self.entries.get((i, j), zero) for j in points) for i in points)

    def _arrangement_rows(
        self, coeffs: Iterable[Fraction | int]
    ) -> Iterator[tuple[tuple[int, ...], Fraction | int, int]]:
        """One row (points, coeff, 1) per entry: every row carries weight."""
        for (i, j), coeff in zip(self.entries, coeffs):
            yield (i - 1, j - 1), coeff, 1

    def __abs__(self) -> "GeneralMatrixForm":
        return GeneralMatrixForm(self.space, [[abs(v) for v in row] for row in self.rows])

    def __repr__(self) -> str:
        return f"GeneralMatrixForm({self.space!r})"


# (form, [rows, weighted rows, scale, table]) of the last form `_scaled_rows`
# read, or None before the first.  The form is held, not its id, so the id
# cannot be reused by another form while its rows are cached.  The slot is
# read once and replaced whole, and the table is stored into the list read,
# so two threads racing on it only enumerate, or build the table, twice.
_last_rows: tuple[Form, list] | None = None


def _scaled_rows(form: Form) -> list:
    """[rows, weighted rows, scale, table]: the form's arrangement rows
    (points, coeff, weight) with every coefficient scaled to an integer by
    the common denominator ``scale`` of the entries, and the rows of nonzero
    weight among them.  ``table`` is None until `_intpath.dense_core`
    stores the rows' int array there.  The list of the last form asked for
    is kept, keyed by the object itself, so consecutive calls on one form
    enumerate its arrangements, and build its table, once; another form
    replaces it."""
    global _last_rows
    slot = _last_rows
    if slot is None or slot[0] is not form:
        coeffs, scale = _integer_row(form.entries.values())
        rows = list(form._arrangement_rows(coeffs))
        slot = _last_rows = (form, [rows, [row for row in rows if row[2]], scale, None])
    return slot[1]
