"""Seeded object-level generators for lattice instances.

Every generator takes a `random.Random`; derive independent streams with
`rng_for(seed, *branch)` so that a (seed, trial) pair fully determines the
instance no matter how many other trials run.  Values are small rationals,
numerators in [-9, 9] over denominators {1, 2, 3, 4}, keeping all downstream
arithmetic exact and fast.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .jsonio import matrix_from_rows
from .lattice import Element, Space
from .measures import Measure
from .polynomials import Polynomial, to_polynomial
from .tensors import GeneralMatrixForm, SymTensor

NUMERATOR_BOUND = 9  # sample values n / d: |n| <= NUMERATOR_BOUND, d in DENOMINATORS
DENOMINATORS = (1, 2, 3, 4)


def rng_for(seed: int | str, *branch: int | str) -> random.Random:
    """Independent deterministic stream for one trial; string seeding is
    stable across processes."""
    return random.Random(":".join(str(part) for part in (seed, *branch)))


def rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-NUMERATOR_BOUND, NUMERATOR_BOUND), rng.choice(DENOMINATORS))
        if value != 0 or not nonzero:
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


def _unrank(n: int, m: int, rank: int, mixed: bool = False) -> tuple[int, ...]:
    """The nondecreasing multi-index of length m over points 1..n at
    ``rank`` in the order `tensors.nondecreasing_indices` yields them;
    ``mixed`` ranks only the indices other than the n diagonal (t, .., t)."""
    if mixed:
        total = math.comb(n + m - 1, m)
        for t in range(1, n + 1):
            # the rank of (t, .., t) among all indices: those whose first point is below t
            if total - math.comb(n - t + m, m) > rank:
                break
            rank += 1
    # lexicographic unranking: C(n - t + k - 1, k - 1) indices of length k
    # start with point t and continue with points >= t
    idx = []
    t = 1
    for k in range(m, 0, -1):
        while rank >= (count := math.comb(n - t + k - 1, k - 1)):
            rank -= count
            t += 1
        idx.append(t)
    return tuple(idx)


def sym_tensor(
    rng: random.Random,
    space: Space,
    degree: int,
    diagonal: bool = False,
    ensure_off_diagonal: bool = False,
) -> SymTensor:
    """Sparse random symmetric tensor drawn from at most 2n candidate indices.

    ``diagonal`` keeps every entry on the diagonal; ``ensure_off_diagonal``
    plants at least one genuinely mixed entry.  Candidates are drawn as
    ranks (of the n diagonal indices alone for ``diagonal``) and unranked
    by `_unrank`; `random.sample` and `random.choice` read a `range` as
    they read the list it ranks, so the draws are those from the list.
    """
    n = space.n
    entries: dict[tuple[int, ...], Fraction] = {}
    total = math.comb(n + degree - 1, degree)
    size = n if diagonal else total

    def candidate(rank: int) -> tuple[int, ...]:
        return (rank + 1,) * degree if diagonal else _unrank(n, degree, rank)

    for rank in rng.sample(range(size), min(2 * n, size)):
        if rng.random() < 0.7:
            entries[candidate(rank)] = rational(rng, nonzero=True)
    if ensure_off_diagonal and total > n and not any(len(set(i)) > 1 for i in entries):
        entries[_unrank(n, degree, rng.choice(range(total - n)), mixed=True)] = rational(rng, nonzero=True)
    if not entries:
        entries[candidate(rng.choice(range(size)))] = rational(rng, nonzero=True)
    return SymTensor(space, degree, entries)


def matrix_form(rng: random.Random, space: Space) -> GeneralMatrixForm:
    n = space.n
    return matrix_from_rows(space, [[rational(rng) for _ in range(n)] for _ in range(n)])


def measure_polynomial(rng: random.Random, space: Space, degree: int, normal: bool = False) -> Polynomial:
    return to_polynomial(measure(rng, space, normal=normal), degree)


def tensor_polynomial(
    rng: random.Random, space: Space, degree: int, diagonal: bool = False, ensure_off_diagonal: bool = False
) -> Polynomial:
    return Polynomial.from_tensor(sym_tensor(rng, space, degree, diagonal, ensure_off_diagonal))
