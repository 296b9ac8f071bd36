"""Homogeneous polynomials of degree m, in two representations.

A measure-represented polynomial is orthogonally additive by construction:
P(x) is the integral of x^m against a discrete measure.  A tensor-represented
polynomial is the diagonal restriction of a symmetric m-linear form and is
orthogonally additive exactly when the form carries no off-diagonal mass.

A polynomial's coefficients are its representation's (`lattice.Coefficients`),
so its `abs`, `join`, `meet` and `+` are taken on them at its degree:
atomwise for measures, which makes measure <-> OA polynomial a lattice
isometry (the regular norm equals the variation norm), and entrywise on the
symmetric array for tensors.  Two polynomials combine only at one kind,
degree and space.  P and Q are disjoint when |P| meet |Q| is zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ._intpath import polarize_tensor_int
from .errors import DegreeMismatchError, RepresentationError, SpaceMismatchError
from .lattice import Coefficients, Element, RadicalElement, Space
from .measures import Measure
from .tensors import SymTensor

MEASURE = "measure"
TENSOR = "tensor"


class Polynomial(Coefficients):
    """A degree-m homogeneous polynomial represented exactly by a `Measure`
    or a `SymTensor`; ``kind``, `MEASURE` or `TENSOR`, names which."""

    __slots__ = ("degree", "kind", "rep")

    def __init__(self, degree: int, rep: Measure | SymTensor) -> None:
        if not isinstance(degree, int) or degree < 1:
            raise DegreeMismatchError("polynomial degree must be a positive integer")
        if isinstance(rep, Measure):
            kind = MEASURE
        elif isinstance(rep, SymTensor):
            if rep.degree != degree:
                raise DegreeMismatchError("tensor degree differs from polynomial degree")
            kind = TENSOR
        else:
            raise RepresentationError(f"a polynomial is a Measure or a SymTensor, got {type(rep).__name__}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rep", rep)

    @staticmethod
    def from_tensor(tensor: SymTensor) -> "Polynomial":
        return Polynomial(tensor.degree, tensor)

    @property
    def space(self) -> Space:
        return self.rep.space

    def _items(self) -> Mapping:
        return self.rep._items()

    def _with(self, items: Mapping) -> "Polynomial":
        return Polynomial(self.degree, self.rep._with(items))

    def evaluate(self, x: Element | RadicalElement) -> Fraction:
        """P(x): at an Element the representation's integral of x^m or
        diagonal value, each the Fraction of its integer core; a radical as
        `evaluate_ratio` reads it."""
        if isinstance(x, RadicalElement):
            return Fraction(*self.evaluate_ratio(x))
        if self.kind == MEASURE:
            return self.rep.integrate(x, self.degree)
        return self.rep.evaluate_diagonal(x)

    def evaluate_ratio(self, x: Element | RadicalElement) -> tuple[int, int]:
        """P(x) as integers (numerator, denominator), not reduced: the
        representation's integral or diagonal value.  A radical that roots
        exactly is evaluated at its root.  An irrational radical of matching
        degree is admitted for orthogonally additive P (a measure, or a
        diagonal tensor): P(v^(1/m)) is the integral of v against the
        representing measure, exactly.  Other tensors raise
        `RepresentationError`."""
        if isinstance(x, RadicalElement):
            root = x.exact_root()
            if root is not None:
                return self.evaluate_ratio(root)
            mu = to_measure(self)
            if x.degree != self.degree:
                raise DegreeMismatchError(
                    f"radical degree {x.degree} differs from polynomial degree {self.degree}"
                )
            return mu.integrate_ratio(x.base, 1)
        if self.kind == MEASURE:
            return self.rep.integrate_ratio(x, self.degree)
        return self.rep.evaluate_diagonal_ratio(x)

    def is_orthogonally_additive(self) -> bool:
        """Structural criterion: measures always; tensors iff diagonal."""
        return self.kind == MEASURE or self.rep.is_diagonal()

    def __repr__(self) -> str:
        return f"Polynomial(m={self.degree}, {self.kind}, {self.rep!r})"


# -- measure <-> polynomial correspondence ------------------------------------


def to_polynomial(mu: Measure, degree: int) -> Polynomial:
    return Polynomial(degree, mu)


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


# -- norms and disjointness -----------------------------------------------------


def norm_check(poly: Polynomial) -> tuple[Fraction, Fraction]:
    """(regular norm, variation norm), computed by different routes: the
    regular norm is |P| evaluated at the constant-one element, the variation
    norm is read off the measure.  The two agree; callers assert it."""
    if poly.kind != MEASURE:
        raise RepresentationError("norm comparison needs a measure-represented polynomial")
    regular = abs(poly).evaluate(Element.constant(poly.space, 1))
    return regular, poly.rep.variation_norm()


def polys_disjoint(p: Polynomial, r: Polynomial) -> bool:
    """Disjointness in the regular-polynomial lattice: |P| meet |Q| is zero."""
    return abs(p).meet(abs(r)).is_zero()
