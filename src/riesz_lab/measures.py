"""Discrete measures: finitely many rational atoms at isolated points, plus
an optional atom at the limit point on the sequence backend."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import SpaceMismatchError
from .lattice import LIMIT, Element, Rational, Space, _integer_row, q


class Measure:
    """A discrete signed measure.  Atoms with zero weight are dropped."""

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
        object.__setattr__(self, "atoms", dict(sorted(clean.items())))
        object.__setattr__(self, "limit_atom", la)
        object.__setattr__(self, "_scaled", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Measure is immutable")

    # -- integration -----------------------------------------------------

    def integrate(self, x: Element, power: int = 1) -> Fraction:
        """integral of x^power: sum of w_t * x(t)^power plus the limit term.

        x is read as it is stored, integers ``x.nums`` over ``x.den``.  An
        atom at point t reads entry min(t, len(x.nums)) - 1 of the row, and
        the limit atom its last entry, as `Element.value_at` reads them, so
        an atom past the row, and the limit atom, read the tail, found by
        index arithmetic alone.  The weights, limit atom included, are
        scaled to integers over their common denominator once per measure,
        on first use.  The sum runs in exact integers and one Fraction is
        built from it.  ``power`` is a nonnegative int."""
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
        return Fraction(total, scale * x.den**power)

    def _integer_weights(self) -> tuple[list, list[int], int]:
        """(points, weights, scale): the atom points, LIMIT last when the
        limit atom is nonzero, and their weights as integers over ``scale``;
        built on the first call and kept."""
        if self._scaled is None:
            atoms = list(self.atoms.items())
            if self.limit_atom != 0:
                atoms.append((LIMIT, self.limit_atom))
            weights, scale = _integer_row(w for _, w in atoms)
            object.__setattr__(self, "_scaled", ([t for t, _ in atoms], weights, scale))
        return self._scaled

    # -- norms --------------------------------------------------------------

    def variation_norm(self) -> Fraction:
        return sum((abs(w) for w in self.atoms.values()), abs(self.limit_atom))

    def is_zero(self) -> bool:
        return not self.atoms and self.limit_atom == 0

    # -- atomwise lattice and linear structure ----------------------------------

    def _merge(self, other: "Measure", op) -> "Measure":
        if self.space != other.space:
            raise SpaceMismatchError("measures on different spaces")
        zero = Fraction(0)
        points = set(self.atoms) | set(other.atoms)
        atoms = {t: op(self.atoms.get(t, zero), other.atoms.get(t, zero)) for t in points}
        return Measure(self.space, atoms, op(self.limit_atom, other.limit_atom))

    def join(self, other: "Measure") -> "Measure":
        return self._merge(other, max)

    def meet(self, other: "Measure") -> "Measure":
        return self._merge(other, min)

    def __add__(self, other: "Measure") -> "Measure":
        return self._merge(other, lambda a, b: a + b)

    def __abs__(self) -> "Measure":
        return Measure(self.space, {t: abs(w) for t, w in self.atoms.items()}, abs(self.limit_atom))

    def is_disjoint(self, other: "Measure") -> bool:
        """No point, isolated or limit, carries mass in both."""
        if set(self.atoms) & set(other.atoms):
            return False
        return self.limit_atom == 0 or other.limit_atom == 0

    def restrict(self, keep_points: frozenset[int], keep_limit: bool) -> "Measure":
        atoms = {t: w for t, w in self.atoms.items() if t in keep_points}
        return Measure(self.space, atoms, self.limit_atom if keep_limit else 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return (
            self.space == other.space
            and self.atoms == other.atoms
            and self.limit_atom == other.limit_atom
        )

    def __hash__(self) -> int:
        return hash((self.space, tuple(self.atoms.items()), self.limit_atom))

    def __repr__(self) -> str:
        parts = [f"{t}: {w}" for t, w in self.atoms.items()]
        if self.limit_atom != 0:
            parts.append(f"limit: {self.limit_atom}")
        return f"Measure({self.space!r}, {{{', '.join(parts)}}})"


def is_normal_measure(mu: Measure) -> bool:
    """Whether the measure vanishes on every closed nowhere dense set.

    On the sequence backend the only obstruction is mass at the limit point:
    {limit} is closed with empty interior, so normality is limit_atom == 0.
    On a finite space every set is open and every measure normal, which the
    same test says, because `Measure` refuses a limit atom there.
    """
    return mu.limit_atom == 0
