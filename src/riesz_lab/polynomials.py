"""Homogeneous polynomials of degree m, in two representations.

A measure-represented polynomial is orthogonally additive by construction:
P(x) is the integral of x^m against a discrete measure.  A tensor-represented
polynomial is the diagonal restriction of a symmetric m-linear form and is
orthogonally additive exactly when the form carries no off-diagonal mass.

The correspondence measure <-> OA polynomial is a lattice isometry: lattice
operations act atomwise and the regular norm equals the variation norm.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from ._intpath import polarize_tensor_int
from .errors import DegreeMismatchError, RepresentationError, SpaceMismatchError
from .lattice import Element, RadicalElement, Space
from .measures import Measure
from .tensors import SymTensor, nondecreasing_indices

MEASURE = "measure"
TENSOR = "tensor"


class Polynomial:
    """A degree-m homogeneous polynomial with an exact representation."""

    __slots__ = ("degree", "kind", "rep")

    def __init__(self, degree: int, kind: str, rep: Measure | SymTensor) -> None:
        if not isinstance(degree, int) or degree < 1:
            raise DegreeMismatchError("polynomial degree must be a positive integer")
        if kind == MEASURE:
            if not isinstance(rep, Measure):
                raise RepresentationError("measure kind needs a Measure")
        elif kind == TENSOR:
            if not isinstance(rep, SymTensor):
                raise RepresentationError("tensor kind needs a SymTensor")
            if rep.degree != degree:
                raise DegreeMismatchError("tensor degree differs from polynomial degree")
        else:
            raise RepresentationError(f"unknown representation {kind!r}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def from_measure(degree: int, mu: Measure) -> "Polynomial":
        return Polynomial(degree, MEASURE, mu)

    @staticmethod
    def from_tensor(tensor: SymTensor) -> "Polynomial":
        return Polynomial(tensor.degree, TENSOR, tensor)

    @property
    def space(self) -> Space:
        return self.rep.space

    def evaluate(self, x: Element | RadicalElement) -> Fraction:
        """P(x).  Radical arguments are admitted for measure-represented P of
        matching degree: P(v^(1/m)) = integral of v, exactly."""
        if isinstance(x, RadicalElement):
            root = x.exact_root()
            if root is not None:
                return self.evaluate(root)
            if self.kind != MEASURE:
                raise RepresentationError(
                    "irrational radicals evaluate only against measure-represented polynomials"
                )
            if x.degree != self.degree:
                raise DegreeMismatchError(
                    f"radical degree {x.degree} differs from polynomial degree {self.degree}"
                )
            return self.rep.integrate(x.base, 1)
        if self.kind == MEASURE:
            return self.rep.integrate(x, self.degree)
        return self.rep.evaluate_diagonal(x)

    def is_orthogonally_additive(self) -> bool:
        """Structural criterion: measures always; tensors iff diagonal."""
        return self.kind == MEASURE or self.rep.is_diagonal()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.degree == other.degree and self.kind == other.kind and self.rep == other.rep

    def __hash__(self) -> int:
        return hash((self.degree, self.kind, self.rep))

    def __repr__(self) -> str:
        return f"Polynomial(m={self.degree}, {self.kind}, {self.rep!r})"


# -- measure <-> polynomial correspondence ------------------------------------


def to_polynomial(mu: Measure, degree: int) -> Polynomial:
    return Polynomial.from_measure(degree, mu)


def to_measure(poly: Polynomial) -> Measure:
    """Recover the representing measure of an orthogonally additive
    polynomial.  Diagonal tensors convert; off-diagonal mass is an error."""
    if poly.kind == MEASURE:
        return poly.rep
    offenders = poly.rep.off_diagonal_entries()
    if offenders:
        idx = next(iter(offenders))
        raise RepresentationError(
            f"tensor has off-diagonal mass at {idx}; no representing measure exists"
        )
    return Measure(poly.space, poly.rep.diagonal_weights())


# -- polarisation -----------------------------------------------------------------


def polarize(poly: Polynomial) -> SymTensor:
    """The unique symmetric form with diagonal P, on a finite space.

    For measure-represented P the form is the diagonal tensor of the atom
    weights.  For tensor-represented P the coefficients are recovered from
    diagonal evaluations alone, through the sign-sum
    (1/(2^m m!)) * sum over signs in {+-1}^m of sign_1...sign_m *
    P(sum_i sign_i e_{t_i}) at every nondecreasing multi-index (t_1,..,t_m).
    """
    if not poly.space.is_finite:
        raise SpaceMismatchError("polarisation is computed on finite spaces")
    m = poly.degree
    if poly.kind == MEASURE:
        return SymTensor.diagonal(poly.space, m, poly.rep.atoms)
    return SymTensor(poly.space, m, polarize_tensor_int(poly.rep))


def _polarize_by_signs(poly: Polynomial) -> dict[tuple[int, ...], Fraction]:
    m = poly.degree
    space = poly.space
    factor = Fraction(1, (2**m) * math.factorial(m))
    entries: dict[tuple[int, ...], Fraction] = {}
    for alpha in nondecreasing_indices(space.n, m):
        basis = [Element.basis(space, t) for t in alpha]
        total = Fraction(0)
        for signs in product((1, -1), repeat=m):
            vector = Element.zero(space)
            sign = 1
            for s, e in zip(signs, basis):
                vector = vector + e * s
                sign *= s
            total += sign * poly.evaluate(vector)
        value = total * factor
        if value != 0:
            entries[alpha] = value
    return entries


# -- lattice structure and norms -----------------------------------------------


def _require_measure(poly: Polynomial, what: str) -> Measure:
    if poly.kind != MEASURE:
        raise RepresentationError(f"{what} needs measure-represented polynomials")
    return poly.rep


def poly_modulus(poly: Polynomial) -> Polynomial:
    mu = _require_measure(poly, "polynomial modulus")
    return Polynomial.from_measure(poly.degree, abs(mu))


def poly_join(p: Polynomial, r: Polynomial) -> Polynomial:
    _check_pair(p, r)
    return Polynomial.from_measure(p.degree, p.rep.join(r.rep))


def poly_meet(p: Polynomial, r: Polynomial) -> Polynomial:
    _check_pair(p, r)
    return Polynomial.from_measure(p.degree, p.rep.meet(r.rep))


def poly_add(p: Polynomial, r: Polynomial) -> Polynomial:
    _check_pair(p, r)
    return Polynomial.from_measure(p.degree, p.rep + r.rep)


def _check_pair(p: Polynomial, r: Polynomial) -> None:
    _require_measure(p, "polynomial lattice operations")
    _require_measure(r, "polynomial lattice operations")
    if p.degree != r.degree:
        raise DegreeMismatchError("polynomial degrees differ")
    if p.space != r.space:
        raise SpaceMismatchError("polynomials on different spaces")


def norm_check(poly: Polynomial) -> tuple[Fraction, Fraction]:
    """(regular norm, variation norm), computed by different routes: the
    regular norm is |P| evaluated at the constant-one element, the variation
    norm is read off the measure.  The two agree; callers assert it."""
    mu = _require_measure(poly, "norm comparison")
    regular = poly_modulus(poly).evaluate(Element.constant(poly.space, 1))
    return regular, mu.variation_norm()


def polys_disjoint(p: Polynomial, r: Polynomial) -> bool:
    """Disjointness in the regular-polynomial lattice: |P| and |Q| have zero
    meet.  Measure pairs reduce atomwise; tensor pairs entrywise."""
    if p.degree != r.degree:
        raise DegreeMismatchError("polynomial degrees differ")
    if p.space != r.space:
        raise SpaceMismatchError("polynomials on different spaces")
    if p.kind == MEASURE and r.kind == MEASURE:
        return p.rep.is_disjoint(r.rep)
    if p.kind == TENSOR and r.kind == TENSOR:
        return all(k not in r.rep.entries for k in p.rep.entries)
    raise RepresentationError("disjointness needs a matching representation pair")
