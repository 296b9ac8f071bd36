"""The rank draws of `sampling.sym_tensor`, unranked by `_unrank`, draw
what the listed candidates drew."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from riesz_lab import Space, SymTensor
from riesz_lab.sampling import _unrank, rational, rng_for, sym_tensor
from riesz_lab.tensors import nondecreasing_indices


def listed_sym_tensor(
    rng: random.Random, space: Space, degree: int, diagonal: bool = False, ensure_off_diagonal: bool = False
) -> SymTensor:
    """The sampler as it was, listing every candidate index."""
    n = space.n
    cap = 2 * n
    entries: dict[tuple[int, ...], Fraction] = {}
    diag_candidates = [(t,) * degree for t in space.points()]
    all_candidates = list(nondecreasing_indices(n, degree))
    mixed = [idx for idx in all_candidates if len(set(idx)) > 1]
    pool = diag_candidates if diagonal else all_candidates
    for idx in rng.sample(pool, min(cap, len(pool))):
        if rng.random() < 0.7:
            entries[idx] = rational(rng, nonzero=True)
    if ensure_off_diagonal and mixed and not any(len(set(i)) > 1 for i in entries):
        entries[rng.choice(mixed)] = rational(rng, nonzero=True)
    if not entries:
        entries[rng.choice(pool)] = rational(rng, nonzero=True)
    return SymTensor(space, degree, entries)


FLAGS = [(False, False), (False, True), (True, False), (True, True)]


class TestIndexPool:
    """The candidate indices, ranked: `_unrank` lists them in order."""

    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_the_listed_indices(self, mixed):
        for n in range(1, 8):
            for m in range(1, 6):
                listed = [idx for idx in nondecreasing_indices(n, m) if not mixed or len(set(idx)) > 1]
                assert [_unrank(n, m, r, mixed) for r in range(len(listed))] == listed

    def test_wide_pool_without_listing(self):
        size = 8_145_060 - 40
        assert _unrank(40, 6, 0, mixed=True) == (1, 1, 1, 1, 1, 2)
        assert _unrank(40, 6, size - 1, mixed=True) == (39, 40, 40, 40, 40, 40)
        assert _unrank(40, 6, size + 40 - 1) == (40,) * 6


class TestSameDraws:
    @pytest.mark.parametrize("diagonal,ensure_off_diagonal", FLAGS)
    def test_seeded_grid(self, diagonal, ensure_off_diagonal):
        for n in range(1, 11):
            for m in range(1, 5):
                for seed in range(3):
                    space = Space.finite(n)
                    fresh, listed = rng_for("pool", n, m, seed), rng_for("pool", n, m, seed)
                    got = sym_tensor(fresh, space, m, diagonal, ensure_off_diagonal)
                    assert got == listed_sym_tensor(listed, space, m, diagonal, ensure_off_diagonal)
                    assert fresh.getstate() == listed.getstate()

    def test_wide_tensors(self):
        """n = 40, m = 6 at every flag: the digest was taken from the listed
        sampler, which holds all 8.1M candidates (about 0.9 GB) per call."""
        digest = hashlib.sha256()
        for diagonal, off in FLAGS:
            tensor = sym_tensor(rng_for("index-pool", 40, 6, diagonal, off), Space.finite(40), 6, diagonal, off)
            digest.update(repr(sorted(tensor.entries.items())).encode())
        assert digest.hexdigest() == "756ab03f7b7de383dff924fa802f6f99377d9ca2e7c73582ff10379a99ceb8e9"
