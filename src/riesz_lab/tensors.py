"""Multilinear forms on finite spaces, stored sparsely.

Every form here is a `Form`: its nonzero entries keyed by 1-based index
tuples, checked and stored by one constructor, and one exact evaluator.  A
kind says how it keys an index (`_key`) and the weight the entry has: the
number of distinct arrangements of its index at which the full array holds
it (`_weight`).  Every evaluator reads one row per entry (points 0-based,
coefficient, weight).

A symmetric m-linear form (`SymTensor`) is determined by its values on
nondecreasing multi-indices: the stored coefficient at alpha is the value
of the full symmetric array at any arrangement of alpha.  It keys an index
sorted and weighs it m! / prod k_t! (k_t counts t in alpha).  An order-2
form with no symmetry assumption (`GeneralMatrixForm`) keys ordered pairs
as given and weighs each 1.

A row of weight 1 is one ordered product c * prod_i x_i(p_i).  A row of
greater weight sums that product over the distinct arrangements of its
points, which a dynamic programme over the arguments reads without listing
them (`_arranged`): its state counts how often each distinct point has been
used, so an entry with multiplicities k_t has prod (k_t + 1) states, not
m! / prod k_t! arrangements; an entry past `_DP_STEPS` is refused with
`MemoryError`.  The diagonal A(x, .., x) is c * w * prod x(p_i) for every
row (`evaluate_diagonal`).  Each value is computed in integers by one
core that returns (numerator, denominator), not reduced (`evaluate_ratio`,
`evaluate_diagonal_ratio`); `evaluate` and `evaluate_diagonal` return its
Fraction.

`_scaled_rows` scales a form's coefficients to integers and lists its rows
once; they stay, with the int table `_intpath.diagonal_core` builds from
them, in one slot keyed by the form, so a run of calls on one form lists
its rows once.  Entries are read-only views, so a form cannot change under
its cached rows.  They are its coefficients (`lattice.Coefficients`):
modulus, join, meet and sum are entrywise, on the symmetric array of a
tensor and on the matrix of a matrix form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
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


# DP steps (state, point used next) one entry's plan may hold, as many
# entries as one fused kernel call may gather (`_intpath._CALL_WORK`);
# a plan of that size is about 5 MB of tuples
_DP_STEPS = 2**16


def _steps(counts: tuple[int, ...]) -> int:
    """The steps of a multiplicity DP at most: prod (k_t + 1) states, each
    reached from at most one state per distinct point."""
    return math.prod(k + 1 for k in counts) * len(counts)


def dp_steps(points: tuple[int, ...]) -> int:
    """`_steps` of the entry at ``points``."""
    return _steps(_distinct(points)[1])


@lru_cache(maxsize=2**5)
def _multiplicity_plan(counts: tuple[int, ...]) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """The multiplicity DP for an entry whose distinct points occur
    ``counts`` times: a state after i arguments counts the uses of each
    point, none past its count, and layer i lists, for each state after
    i + 1 arguments, its sources (state after i, point used next).  Layer 0
    holds the states (1 at j) in the order of j; the last holds one state,
    every point used up.  Refused, unbuilt, past `_DP_STEPS`; the cache
    keeps 32 plans, at most about 160 MB."""
    if _steps(counts) > _DP_STEPS:
        raise MemoryError(f"a multiplicity DP over counts {counts}, past {_DP_STEPS} steps")
    states, plan = [(0,) * len(counts)], []
    for _ in range(sum(counts)):
        sources: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for s, state in enumerate(states):
            for j, used in enumerate(state):
                if used < counts[j]:
                    sources.setdefault(state[:j] + (used + 1,) + state[j + 1 :], []).append((s, j))
        states = list(sources)
        plan.append(tuple(map(tuple, sources.values())))
    return tuple(plan)


@lru_cache(maxsize=2**12)
def _distinct(points: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(distinct points in order, the count of each)."""
    distinct = tuple(sorted(set(points)))
    return distinct, tuple(map(points.count, distinct))


def _arranged(points: tuple[int, ...], xs: Sequence[Sequence[int]]) -> int:
    """sum over the distinct arrangements s of ``points`` of prod_i
    xs[i][s_i], by `_multiplicity_plan`: argument i moves every state one
    point on, each state summing the ways to reach it."""
    distinct, counts = _distinct(points)
    plan = _multiplicity_plan(counts)
    x = xs[0]
    acc = [x[t] for t in distinct]  # layer 0
    for i in range(1, len(xs)):
        x = xs[i]
        values = [x[t] for t in distinct]
        acc = [sum([acc[s] * values[j] for s, j in sources]) for sources in plan[i]]
    return acc[0]


class Form(Coefficients):
    """A multilinear form on a finite space: ``space``, ``degree`` and its
    nonzero ``entries``, an immutable mapping from 1-based index tuples to
    Fractions, sorted by index.  A kind gives `_key(idx)`, the index an
    entry is stored at, and `_weight(idx)`, the number of distinct
    arrangements at which the full array holds the entry.  Evaluation reads
    the rows these give (`_scaled_rows`); equality, hashing and the
    entrywise lattice operations read the entries (`_items`)."""

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
        """A(x_1, .., x_m), the Fraction of `evaluate_ratio`."""
        return Fraction(*self.evaluate_ratio(args))

    def evaluate_ratio(self, args: Sequence[Element]) -> tuple[int, int]:
        """A(x_1, .., x_m) as integers (numerator, denominator), not
        reduced, one row per entry (`_scaled_rows`): coeff * prod_i
        x_i(point_i) for a row of weight 1, coeff times that product summed
        over the distinct arrangements (`_arranged`) otherwise; each
        argument is read as stored, integers ``nums`` over ``den``, so the
        denominator is the entries' scale times the product of the dens."""
        if len(args) != self.degree:
            raise DegreeMismatchError(f"expected {self.degree} arguments, got {len(args)}")
        for x in args:
            if x.space != self.space:
                raise SpaceMismatchError("argument on the wrong space")
        rows, scale = _scaled_rows(self)[:2]
        xs = [x.nums for x in args]
        total = sum(math.prod(map(getitem, xs, p), start=c) if w == 1 else c * _arranged(p, xs) for p, c, w in rows)
        return total, scale * math.prod(x.den for x in args)

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

    @staticmethod
    def diagonal(space: Space, degree: int, weights: Mapping[int, Rational]) -> "SymTensor":
        return SymTensor(space, degree, {(t,) * degree: w for t, w in weights.items()})

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, args: Sequence[Element]) -> Fraction:
        """`Form.evaluate`, defined in this class so that the benchmark's
        span ``SymTensor.evaluate`` wraps the tensors' calls alone."""
        return Form.evaluate(self, args)

    def evaluate_diagonal(self, x: Element) -> Fraction:
        """A(x, .., x), the Fraction of `evaluate_diagonal_ratio`."""
        return Fraction(*self.evaluate_diagonal_ratio(x))

    def evaluate_diagonal_ratio(self, x: Element) -> tuple[int, int]:
        """A(x, .., x) as integers (numerator, denominator), not reduced.
        Every arrangement of an entry contributes the same product, so this
        is coeff * weight * prod_i x(point_i) summed over the rows, read as
        `evaluate_ratio` reads."""
        if x.space != self.space:
            raise SpaceMismatchError("argument on the wrong space")
        rows, scale = _scaled_rows(self)[:2]
        total = sum(math.prod(map(x.nums.__getitem__, p), start=c * w) for p, c, w in rows)
        return total, scale * x.den**self.degree

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

    def __init__(self, space: Space, degree: int, entries: Mapping[tuple[int, ...], Rational]) -> None:
        if degree != 2:
            raise DegreeMismatchError(f"matrix forms have degree 2, got {degree}")
        super().__init__(space, degree, entries)


# (form, [rows, scale, table]) of the last form `_scaled_rows` read, or
# None.  The form is held, not its id, so no other form can reuse the id
# while its rows are cached; the slot is read once and replaced whole, so
# racing threads only list the rows twice.
_last_rows: tuple[Form, list] | None = None


def _scaled_rows(form: Form) -> list:
    """[rows, scale, table]: one row per entry (points 0-based, coeff,
    weight `_weight`), each coefficient scaled to an integer by the
    entries' common denominator ``scale``; the int table waits for
    `_intpath.diagonal_core`.  The last form's list is kept, so a run of
    calls on one form lists its rows and builds its table once."""
    global _last_rows
    slot = _last_rows
    if slot is None or slot[0] is not form:
        coeffs, scale = _integer_row(form.entries.values())
        rows = [(tuple(t - 1 for t in idx), c, form._weight(idx)) for idx, c in zip(form.entries, coeffs)]
        slot = _last_rows = (form, [rows, scale, None])
    return slot[1]
