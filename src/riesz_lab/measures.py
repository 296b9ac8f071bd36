"""Discrete measures: finitely many rational atoms at isolated points, plus
an optional atom at the limit point on the sequence backend."""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .errors import SpaceMismatchError
from .lattice import LIMIT, Coefficients, Element, Rational, Space, _integer_row, q


class Measure(Coefficients):
    """A discrete signed measure: ``atoms``, a read-only mapping from
    isolated points to nonzero weights, sorted by point, and ``limit_atom``.
    Its coefficients (`_items`) are the atoms, followed by `LIMIT` when the
    limit atom is nonzero, and its lattice operations are atomwise."""

    __slots__ = ("space", "atoms", "limit_atom", "_scaled")

    def __init__(
        self,
        space: Space,
        atoms: Mapping[int, Rational] | None = None,
        limit_atom: Rational = 0,
    ) -> None:
        clean: dict[int, Fraction] = {}
        for point, weight in (atoms or {}).items():
            if not isinstance(point, int) or point < 1:
                raise ValueError(f"atom point {point!r} is not an isolated point label")
            if space.is_finite and point > space.n:
                raise ValueError(f"atom point {point} outside 1..{space.n}")
            w = q(weight)
            if w != 0:
                clean[point] = w
        la = q(limit_atom)
        if space.is_finite and la != 0:
            raise SpaceMismatchError("finite spaces have no limit point")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "atoms", MappingProxyType(dict(sorted(clean.items()))))
        object.__setattr__(self, "limit_atom", la)
        object.__setattr__(self, "_scaled", None)

    def _items(self) -> Mapping:
        return self.atoms if self.limit_atom == 0 else {**self.atoms, LIMIT: self.limit_atom}

    def _with(self, items: Mapping) -> "Measure":
        atoms = {t: w for t, w in items.items() if t is not LIMIT}
        return Measure(self.space, atoms, items.get(LIMIT, 0))

    # -- integration -----------------------------------------------------

    def integrate(self, x: Element, power: int = 1) -> Fraction:
        """integral of x^power: sum of w_t * x(t)^power plus the limit term,
        the Fraction of `integrate_ratio`."""
        return Fraction(*self.integrate_ratio(x, power))

    def integrate_ratio(self, x: Element, power: int = 1) -> tuple[int, int]:
        """The integral of x^power as integers (numerator, denominator),
        not reduced.

        x is read as it is stored, integers ``x.nums`` over ``x.den``.  An
        atom at point t reads entry min(t, len(x.nums)) - 1 of the row, and
        the limit atom its last entry, as `Element.value_at` reads them, so
        an atom past the row, and the limit atom, read the tail, found by
        index arithmetic alone.  The weights, limit atom included, are
        scaled to integers over their common denominator once per measure,
        on first use.  The sum runs in exact integers, over the weights'
        scale times x.den**power.  ``power`` is a nonnegative int."""
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"power must be a nonnegative integer, got {power!r}")
        if x.space is not self.space and x.space != self.space:
            raise SpaceMismatchError("element on the wrong space")
        points, weights, scale = self._integer_weights()
        nums = x.nums
        last = len(nums) - 1
        total = 0
        for w, t in zip(weights, points):
            total += w * nums[last if t is LIMIT or t > last else t - 1] ** power
        return total, scale * x.den**power

    def _integer_weights(self) -> tuple[list, list[int], int]:
        """(points, weights, scale): the coefficients' points (`_items`,
        LIMIT last) and their weights as integers over ``scale``; built on
        the first call and kept.  The atoms are read-only, so the weights
        cannot go stale."""
        if self._scaled is None:
            items = self._items()
            weights, scale = _integer_row(items.values())
            object.__setattr__(self, "_scaled", (list(items), weights, scale))
        return self._scaled

    # -- norms --------------------------------------------------------------

    def variation_norm(self) -> Fraction:
        return sum(map(abs, self._items().values()), Fraction(0))

    def is_disjoint(self, other: "Measure") -> bool:
        """No point, isolated or limit, carries mass in both."""
        return self._items().keys().isdisjoint(other._items())

    def restrict(self, keep_points: frozenset[int], keep_limit: bool) -> "Measure":
        atoms = {t: w for t, w in self.atoms.items() if t in keep_points}
        return Measure(self.space, atoms, self.limit_atom if keep_limit else 0)

    def __repr__(self) -> str:
        parts = [f"{'limit' if t is LIMIT else t}: {w}" for t, w in self._items().items()]
        return f"Measure({self.space!r}, {{{', '.join(parts)}}})"


def is_normal_measure(mu: Measure) -> bool:
    """Whether the measure vanishes on every closed nowhere dense set.

    On the sequence backend the only obstruction is mass at the limit point:
    {limit} is closed with empty interior, so normality is limit_atom == 0.
    On a finite space every set is open and every measure normal, which the
    same test says, because `Measure` refuses a limit atom there.
    """
    return mu.limit_atom == 0
