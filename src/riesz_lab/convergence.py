"""Order convergence via dominating decreasing nets.

A certificate asserts x_n -> x because |x_n - x| <= y_n for a decreasing
family (y_n) with lattice infimum 0.  Families are sequence-indexed and come
in two kinds: explicit finite lists (eventually constant at the last member)
and tail-bump families base + slope * 1_{ {limit} | {isolated >= n} } on the
sequence backend.  Each kind carries its own algebra: ``sup_norm``,
``scaled``, ``powered`` and the exact ``infimum_is_zero``.  A certificate
accepts only these two kinds, on one common space, and says so on
construction.  Domination and monotonicity are probed up to a depth, but
only as far as the families' stabilisation horizon (`family_horizon`):
past it every pointwise check repeats the one at the horizon, so a probe
that reaches the horizon decides both conditions for every n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SpaceMismatchError, UnsupportedFamilyError
from .lattice import Element, Space, q


@dataclass(frozen=True)
class ExplicitFamily:
    """A finite list, constant at the last member from there on."""

    members: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("explicit family needs at least one member")
        for x in self.members[1:]:
            if x.space != self.members[0].space:
                raise SpaceMismatchError("family members on different spaces")

    def member(self, n: int) -> Element:
        if n < 1:
            raise ValueError("family index starts at 1")
        return self.members[min(n, len(self.members)) - 1]

    @property
    def space(self) -> Space:
        return self.members[0].space

    def sup_norm(self) -> Fraction:
        """Exact sup over all indices of the member sup-norms."""
        return max(x.sup_norm() for x in self.members)

    def scaled(self, c: Fraction) -> "ExplicitFamily":
        _check_scale(c)
        return ExplicitFamily(tuple(x * c for x in self.members))

    def powered(self, m: int) -> "ExplicitFamily":
        return ExplicitFamily(tuple(x**m for x in self.members))

    def infimum_is_zero(self) -> bool:
        """The pointwise minimum over the list is 0."""
        acc = self.members[0]
        for x in self.members[1:]:
            acc = acc.meet(x)
        return acc.is_zero()


@dataclass(frozen=True)
class TailFamily:
    """x_n = base + slope * T_n on omega1, where T_n is the indicator of
    the limit point together with all isolated points >= n.

    Closed under pointwise powers: (base + slope*T)^m has base base^m and
    slope (base+slope)^m - base^m, since T is an indicator.
    """

    base: Element
    slope: Element

    def __post_init__(self) -> None:
        if self.base.space.is_finite or self.slope.space.is_finite:
            raise SpaceMismatchError("tail families live on omega1")
        if self.base.space != self.slope.space:
            raise SpaceMismatchError("base and slope on different spaces")

    @staticmethod
    def indicator(scale: Fraction | int = 1) -> "TailFamily":
        space = Space.omega_plus_one()
        return TailFamily(Element.zero(space), Element.constant(space, q(scale)))

    def member(self, n: int) -> Element:
        if n < 1:
            raise ValueError("family index starts at 1")
        bump = Element.tail_indicator(self.space, n)
        return self.base + self.slope * bump

    @property
    def space(self) -> Space:
        return self.base.space

    def sup_norm(self) -> Fraction:
        """Members take the values of base, and of base + slope, only."""
        return max(self.base.sup_norm(), (self.base + self.slope).sup_norm())

    def scaled(self, c: Fraction) -> "TailFamily":
        _check_scale(c)
        return TailFamily(self.base * c, self.slope * c)

    def powered(self, m: int) -> "TailFamily":
        return TailFamily(self.base**m, (self.base + self.slope) ** m - self.base**m)

    def infimum_is_zero(self) -> bool:
        """The values at every isolated point must reach 0, i.e. base = 0
        (the limit-point value is irrelevant, because any continuous lower
        bound vanishing at all isolated points also vanishes at the limit);
        the slope must be nonnegative or the family is not decreasing at all."""
        return self.base.is_zero() and self.slope.is_nonnegative()


ElementFamily = ExplicitFamily | TailFamily


def _check_scale(c: Fraction) -> None:
    if c < 0:
        raise ValueError("family scaling must be nonnegative")


def family_horizon(families: Sequence[ElementFamily], fixed: Sequence[Element] = ()) -> int:
    """Index H from which pointwise checks on these families repeat.

    For every n >= H, each comparison between members x_n (and x_{n+1}) of
    the families and the ``fixed`` elements gives the same answer as at
    n = H.  An explicit family is constant from its last member on.  A tail
    member base + slope*T_n agrees with member W + 2 at every point <= W and
    at the limit, where W is the widest prefix of all parts involved; past W
    it takes base.tail on W+1..n-1 and base.tail + slope.tail from n on, and
    for n >= W + 2 both runs are nonempty.
    """
    elements = list(fixed)
    horizon = 1
    tails = False
    for family in families:
        if isinstance(family, ExplicitFamily):
            elements.extend(family.members)
            horizon = max(horizon, len(family.members))
        elif isinstance(family, TailFamily):
            elements += (family.base, family.slope)
            tails = True
        else:
            raise UnsupportedFamilyError(type(family).__name__)
    if tails:
        horizon = max(horizon, max(len(e.prefix) for e in elements) + 2)
    return horizon


@dataclass(frozen=True)
class CertificateVerdict:
    passed: bool
    reason: str | None = None  # "domination" | "monotonicity" | "infimum"
    failed_index: int | None = None


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Claim: sequence -> limit, dominated by the decreasing family
    ``dominator`` whose infimum is 0."""

    sequence: ElementFamily
    limit: Element
    dominator: ElementFamily

    def __post_init__(self) -> None:
        for family in (self.sequence, self.dominator):
            if not isinstance(family, (ExplicitFamily, TailFamily)):
                raise UnsupportedFamilyError(type(family).__name__)
        if self.sequence.space != self.limit.space or self.dominator.space != self.limit.space:
            raise SpaceMismatchError("certificate parts on different spaces")


def verify_certificate(cert: ConvergenceCertificate, probe_depth: int = 50) -> CertificateVerdict:
    """Probe |x_n - limit| <= y_n and y_{n+1} <= y_n for n <= probe_depth,
    then certify inf y_n = 0 exactly with the dominator's `infimum_is_zero`.

    Both probes stop at min(probe_depth, H) with H = `family_horizon` of the
    certificate: every check past H repeats the check at H, so the verdict
    (passed, reason, failed_index) is that of the probe to the full depth,
    and when probe_depth >= H it holds for every n.
    """
    if probe_depth < 1:
        raise ValueError("probe depth must be >= 1")
    depth = min(probe_depth, family_horizon((cert.sequence, cert.dominator), (cert.limit,)))
    for n in range(1, depth + 1):
        gap = abs(cert.sequence.member(n) - cert.limit)
        if not gap.le(cert.dominator.member(n)):
            return CertificateVerdict(False, "domination", n)
    for n in range(1, depth + 1):
        if not cert.dominator.member(n + 1).le(cert.dominator.member(n)):
            return CertificateVerdict(False, "monotonicity", n)
    if not cert.dominator.infimum_is_zero():
        return CertificateVerdict(False, "infimum", None)
    return CertificateVerdict(True)
