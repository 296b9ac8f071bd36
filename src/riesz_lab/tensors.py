"""Multilinear forms on finite spaces, stored sparsely.

Every form here is a `Form`: its nonzero entries keyed by 1-based index
tuples, checked and stored by one constructor, and one exact evaluator.  A
kind says how it keys an index (`_key`), the weight the diagonal gives the
entry (`_weight`) and the further arrangements at which the full array
repeats it (`_later`); evaluators read the rows (points 0-based,
coefficient, weight) these give.

A symmetric m-linear form (`SymTensor`) is determined by its values on
nondecreasing multi-indices: the stored coefficient at alpha is the value
of the full symmetric array at any arrangement of alpha.  It keys an index
sorted, weighs it m! / prod k_t! (k_t counts t in alpha), and repeats the
entry at its other distinct arrangements, weighted 0.  An order-2 form with
no symmetry assumption (`GeneralMatrixForm`) keys ordered pairs as given,
weighs each 1 and repeats nothing.

`_scaled_rows` scales a form's coefficients to integers and lists one
weighted row per entry, which the diagonal reads alone (`evaluate_diagonal`,
`_intpath.diagonal_core`); the full arrangement rows wait for the first
multilinear read (`Form.evaluate`, `_intpath.dense_core`).  Both stay, with
their int arrays, in one slot keyed by the form, so a run of calls on one
form arranges it once.  Entries are read-only views, so a form cannot change
under its cached rows.  They are its coefficients (`lattice.Coefficients`):
modulus, join, meet and sum are entrywise, on the symmetric array of a
tensor and on the matrix of a matrix form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import getitem
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import DegreeMismatchError, SpaceMismatchError
from .lattice import Coefficients, Element, Rational, Space, _integer_row, q


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


class Form(Coefficients):
    """A multilinear form on a finite space: ``space``, ``degree`` and its
    nonzero ``entries``, an immutable mapping from 1-based index tuples to
    Fractions, sorted by index.  A kind gives `_key(idx)`, the index an
    entry is stored at; `_weight(idx)`, the entry's weight on the diagonal;
    and `_later(points)`, the further 0-based arrangements at which the full
    array repeats the entry.  Evaluation reads the rows these give
    (`_scaled_rows`); equality, hashing and the entrywise lattice
    operations read the entries (`_items`)."""

    __slots__ = ("space", "degree", "entries")

    def __init__(self, space: Space, degree: int, entries: Mapping[tuple[int, ...], Rational]) -> None:
        if not space.is_finite:
            raise SpaceMismatchError("tensors live on finite spaces")
        if not isinstance(degree, int) or degree < 1:
            raise DegreeMismatchError("tensor degree must be a positive integer")
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, value in entries.items():
            key = self._key(idx)
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

    def _items(self) -> Mapping[tuple[int, ...], Fraction]:
        return self.entries

    def _with(self, items: Mapping[tuple[int, ...], Rational]) -> "Form":
        return type(self)(self.space, self.degree, items)

    def evaluate(self, args: Sequence[Element]) -> Fraction:
        """A(x_1, .., x_m): coeff * prod_i x_i(point_i) summed over every
        arrangement row (`_scaled_rows`) in exact integers, each argument
        read as stored, integers ``nums`` over ``den``, into one Fraction."""
        if len(args) != self.degree:
            raise DegreeMismatchError(f"expected {self.degree} arguments, got {len(args)}")
        for x in args:
            if x.space != self.space:
                raise SpaceMismatchError("argument on the wrong space")
        rows, _, scale = _scaled_rows(self, arranged=True)[:3]
        xs = [x.nums for x in args]
        total = sum(math.prod(map(getitem, xs, p), start=c) for p, c, _ in rows)
        return Fraction(total, scale * math.prod(x.den for x in args))

    def off_diagonal_entries(self) -> dict[tuple[int, ...], Fraction]:
        """The entries whose index names at least two distinct points."""
        return {idx: v for idx, v in self.entries.items() if len(set(idx)) > 1}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.degree}, {self.space!r}, {len(self.entries)} entries)"


class SymTensor(Form):
    """A symmetric m-linear form on a finite space."""

    __slots__ = ()

    _key = staticmethod(lambda idx: tuple(sorted(idx)))
    _weight = staticmethod(arrangements)
    _later = staticmethod(_later_arrangements)

    @staticmethod
    def diagonal(space: Space, degree: int, weights: Mapping[int, Rational]) -> "SymTensor":
        return SymTensor(space, degree, {(t,) * degree: w for t, w in weights.items()})

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, args: Sequence[Element]) -> Fraction:
        """`Form.evaluate`, defined in this class so that the benchmark's
        span ``SymTensor.evaluate`` wraps the tensors' calls alone."""
        return Form.evaluate(self, args)

    def evaluate_diagonal(self, x: Element) -> Fraction:
        """A(x, .., x).  Every arrangement of an entry contributes the same
        product, so this is coeff * weight * prod_i x(point_i) summed over
        the weighted rows alone, one per entry, read as `evaluate` reads."""
        if x.space != self.space:
            raise SpaceMismatchError("argument on the wrong space")
        _, weighted, scale = _scaled_rows(self)[:3]
        total = sum(math.prod(map(x.nums.__getitem__, p), start=c * w) for p, c, w in weighted)
        return Fraction(total, scale * x.den**self.degree)

    # -- structure ------------------------------------------------------------

    def is_diagonal(self) -> bool:
        return all(len(set(idx)) == 1 for idx in self.entries)

    def diagonal_weights(self) -> dict[int, Fraction]:
        if not self.is_diagonal():
            raise ValueError("tensor has off-diagonal entries")
        return {idx[0]: v for idx, v in self.entries.items()}

    def is_positive(self) -> bool:
        return all(v >= 0 for v in self.entries.values())

    def restrict_points(self, points: frozenset[int]) -> "SymTensor":
        """Drop entries touching any point outside the given set."""
        kept = {i: v for i, v in self.entries.items() if set(i) <= points}
        return SymTensor(self.space, self.degree, kept)


class GeneralMatrixForm(Form):
    """A bilinear form on a finite space with no symmetry assumption:
    ``entries`` maps each nonzero ordered pair (i, j), 1-based, to its
    coefficient."""

    __slots__ = ()

    _key = staticmethod(tuple)
    _weight = staticmethod(lambda idx: 1)
    _later = staticmethod(lambda points: ())

    def __init__(self, space: Space, degree: int, entries: Mapping[tuple[int, ...], Rational]) -> None:
        if degree != 2:
            raise DegreeMismatchError(f"matrix forms have degree 2, got {degree}")
        super().__init__(space, degree, entries)


# (form, [rows, weighted rows, scale, table, weighted table]) of the last
# form `_scaled_rows` read, or None.  The form is held, not its id, so no
# other form can reuse the id while its rows are cached; the slot is read
# once and replaced whole, so racing threads only enumerate twice.
_last_rows: tuple[Form, list] | None = None
_ROW_CAP = 2**21  # the most arrangement rows listed, about a gigabyte of tuples


def _scaled_rows(form: Form, arranged: bool = False) -> list:
    """[rows, weighted rows, scale, table, weighted table]: the form's rows
    (points 0-based, coeff, weight), each coefficient scaled to an integer
    by the entries' common denominator ``scale``.  ``weighted`` holds one
    row per entry, weighted by `_weight`; ``rows`` follows each with its
    `_later` arrangements, weighted 0, and is listed on the first call with
    ``arranged``, or refused with `MemoryError` past `_ROW_CAP` rows.  The
    tables wait for `_intpath.dense_core` and `_intpath.diagonal_core`.  The
    last form's list is kept, so a run of calls on one form lists, arranges
    and builds each table once."""
    global _last_rows
    slot = _last_rows
    if slot is None or slot[0] is not form:
        coeffs, scale = _integer_row(form.entries.values())
        weighted = [(tuple(t - 1 for t in idx), c, form._weight(idx)) for idx, c in zip(form.entries, coeffs)]
        slot = _last_rows = (form, [None, weighted, scale, None, None])
    rows = slot[1]
    if arranged and rows[0] is None:
        count = sum(w for _, _, w in rows[1])  # an entry's weight counts its arrangements
        if count > _ROW_CAP:
            raise MemoryError(f"{count} arrangement rows, more than {_ROW_CAP}")
        full = []
        for points, c, w in rows[1]:
            full.append((points, c, w))
            full.extend((p, c, 0) for p in form._later(points))
        rows[0] = full
    return rows
