"""Seeded object-level generators for lattice instances.

Every generator takes a `random.Random`; derive independent streams with
`rng_for(seed, *branch)` so that a (seed, trial) pair fully determines the
instance no matter how many other trials run.  Values are small rationals,
numerators in [-9, 9] over denominators {1, 2, 3, 4}, keeping all downstream
arithmetic exact and fast.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .lattice import Element, Space
from .measures import Measure
from .polynomials import Polynomial
from .tensors import GeneralMatrixForm, SymTensor, nondecreasing_indices

DENOMINATORS = (1, 2, 3, 4)


def rng_for(seed: int | str, *branch: int | str) -> random.Random:
    """Independent deterministic stream for one trial; string seeding is
    stable across processes."""
    return random.Random(":".join(str(part) for part in (seed, *branch)))


def rational(rng: random.Random, nonzero: bool = False, positive: bool = False) -> Fraction:
    lo = 1 if positive else -9
    while True:
        value = Fraction(rng.randint(lo, 9), rng.choice(DENOMINATORS))
        if value != 0 or not (nonzero or positive):
            return value


def element(rng: random.Random, space: Space, positive: bool = False) -> Element:
    if space.is_finite:
        vals = [rational(rng) for _ in range(space.n)]
        if positive:
            vals = [abs(v) for v in vals]
        return Element(space, values=vals)
    prefix = [rational(rng) for _ in range(rng.randint(0, 5))]
    tail = rational(rng)
    if positive:
        prefix, tail = [abs(v) for v in prefix], abs(tail)
    return Element.omega(prefix, tail)


def nonzero_positive_element(rng: random.Random, space: Space) -> Element:
    while True:
        x = element(rng, space, positive=True)
        if not x.is_zero():
            return x


MAX_ATOMS = 4


def measure(rng: random.Random, space: Space, normal: bool = False) -> Measure:
    """Random discrete measure with at most `MAX_ATOMS` atoms; on omega1 a
    nonzero limit atom half the time unless ``normal``."""
    if space.is_finite:
        count = rng.randint(0, min(MAX_ATOMS, space.n))
        points = rng.sample(list(space.points()), count)
        return Measure(space, {t: rational(rng, nonzero=True) for t in points})
    count = rng.randint(0, MAX_ATOMS)
    points = rng.sample(range(1, 7), count)
    atoms = {t: rational(rng, nonzero=True) for t in points}
    limit = Fraction(0)
    if not normal and rng.random() < Fraction(1, 2):
        limit = rational(rng, nonzero=True)
    return Measure(space, atoms, limit_atom=limit)


class _IndexPool(Sequence):
    """The nondecreasing multi-indices of length m over points 1..n, in the
    order `nondecreasing_indices` yields them, indexed by rank without
    being listed; ``mixed`` leaves out the n diagonal indices (t, .., t).

    `random.sample` and `random.choice` read a large pool through `len` and
    `__getitem__` only, and copy a small one through `__iter__`, so they
    draw exactly what they would draw from the equivalent list.
    """

    def __init__(self, n: int, m: int, mixed: bool = False) -> None:
        self.n, self.m, self.mixed = n, m, mixed
        total = math.comb(n + m - 1, m)
        # rank of (t, .., t): the indices whose first point is below t
        self._diagonal_ranks = [total - math.comb(n - t + m, m) for t in range(1, n + 1)] if mixed else []
        self._len = total - len(self._diagonal_ranks)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, rank: int) -> tuple[int, ...]:
        rank = operator.index(rank)
        if rank < 0:
            rank += self._len
        if not 0 <= rank < self._len:
            raise IndexError("index pool rank out of range")
        for skipped in self._diagonal_ranks:
            if skipped > rank:
                break
            rank += 1
        # lexicographic unranking: C(n - t + k - 1, k - 1) indices of length
        # k start with point t and continue with points >= t
        idx = []
        t = 1
        for k in range(self.m, 0, -1):
            while rank >= (count := math.comb(self.n - t + k - 1, k - 1)):
                rank -= count
                t += 1
            idx.append(t)
        return tuple(idx)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for idx in nondecreasing_indices(self.n, self.m):
            if not (self.mixed and idx[0] == idx[-1]):
                yield idx


def sym_tensor(
    rng: random.Random,
    space: Space,
    degree: int,
    diagonal: bool = False,
    ensure_off_diagonal: bool = False,
) -> SymTensor:
    """Sparse random symmetric tensor drawn from at most 2n candidate indices.

    ``diagonal`` keeps every entry on the diagonal; ``ensure_off_diagonal``
    plants at least one genuinely mixed entry.
    """
    n = space.n
    entries: dict[tuple[int, ...], Fraction] = {}
    diag_candidates = [(t,) * degree for t in space.points()]
    all_candidates = _IndexPool(n, degree)
    mixed = _IndexPool(n, degree, mixed=True)
    pool = diag_candidates if diagonal else all_candidates
    for idx in rng.sample(pool, min(2 * n, len(pool))):
        if rng.random() < 0.7:
            entries[idx] = rational(rng, nonzero=True)
    if ensure_off_diagonal and mixed and not any(len(set(i)) > 1 for i in entries):
        entries[rng.choice(mixed)] = rational(rng, nonzero=True)
    if not entries:
        entries[rng.choice(pool)] = rational(rng, nonzero=True)
    return SymTensor(space, degree, entries)


def matrix_form(rng: random.Random, space: Space) -> GeneralMatrixForm:
    n = space.n
    return GeneralMatrixForm(space, [[rational(rng) for _ in range(n)] for _ in range(n)])


def measure_polynomial(rng: random.Random, space: Space, degree: int, normal: bool = False) -> Polynomial:
    return Polynomial.from_measure(degree, measure(rng, space, normal=normal))


def tensor_polynomial(
    rng: random.Random, space: Space, degree: int, diagonal: bool = False, ensure_off_diagonal: bool = False
) -> Polynomial:
    return Polynomial.from_tensor(sym_tensor(rng, space, degree, diagonal, ensure_off_diagonal))
