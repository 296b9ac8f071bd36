"""Independent oracles the tests compare the package with.

Each recomputes a quantity by a route the package does not take, and none
is read by the package itself: a per-point recheck of a convergence
certificate, the atomic partitions and the brute-force partition sum that
the coefficientwise modulus of a form is compared with, an exact root of a
rational that `RadicalElement.exact_root` is compared with, the least
scale that puts an element in a principal ideal, and a form's value read
from its JSON alone, summed over every ordered index tuple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import prod
from typing import Sequence

from riesz_lab import (
    ConvergenceCertificate,
    DegreeMismatchError,
    Element,
    PositivityError,
    PrincipalIdeal,
    SpaceMismatchError,
)
from riesz_lab.lattice import _aligned, _int_root
from riesz_lab.tensors import Form


def independent_scan(cert: ConvergenceCertificate, depth: int) -> bool:
    """Re-check domination/monotonicity point by point from raw values,
    bypassing the Element lattice kernel.  Test oracle."""

    def raw(e: Element, i: int) -> Fraction:
        if e.space.is_finite:
            return e.values[i - 1]
        return e.prefix[i - 1] if i <= len(e.prefix) else e.tail

    finite = cert.limit.space.is_finite
    for n in range(1, depth + 1):
        xn, yn, ynext = cert.sequence.member(n), cert.dominator.member(n), cert.dominator.member(n + 1)
        # every point of a finite space; on omega1 the widest prefix and one past it
        last = cert.limit.space.n if finite else max(len(e.prefix) for e in (xn, yn, ynext, cert.limit)) + 1
        for i in range(1, last + 1):
            if abs(raw(xn, i) - raw(cert.limit, i)) > raw(yn, i):
                return False
            if raw(ynext, i) > raw(yn, i):
                return False
        if not finite:
            if abs(xn.tail - cert.limit.tail) > yn.tail or ynext.tail > yn.tail:
                return False
    return True


def atomic_partition(x: Element) -> list[Element]:
    """x(t) * e_t over the support of a nonnegative finite-space element."""
    if not x.space.is_finite:
        raise SpaceMismatchError("atomic partitions need a finite space")
    if not x.is_nonnegative():
        raise PositivityError("partitions are taken of nonnegative elements")
    return [Element.basis(x.space, t) * v for t, v in zip(x.space.points(), x.values) if v != 0]


def modulus_partition_oracle(
    form: Form,
    args: Sequence[Element],
    partitions: Sequence[Sequence[Element]],
) -> Fraction:
    """sum over all choices (u^1_{i_1}, .., u^m_{i_m}) of |A(...)|, where the
    k-th partition is a finite decomposition of args[k] into nonnegative
    parts.  This is the partition functional whose supremum over all
    partitions is the modulus evaluated at the (nonnegative) arguments.
    """
    m = form.degree
    if len(args) != m or len(partitions) != m:
        raise DegreeMismatchError("need one argument and one partition per slot")
    for x, parts in zip(args, partitions):
        if not x.is_nonnegative():
            raise PositivityError("arguments must be nonnegative")
        if not parts:
            raise ValueError("empty partition")
        total = Element.zero(x.space)
        for part in parts:
            if not part.is_nonnegative():
                raise PositivityError("partition parts must be nonnegative")
            total = total + part
        if total != x:
            raise ValueError("partition does not sum to its argument")
    result = Fraction(0)
    for combo in product(*partitions):
        result += abs(form.evaluate(list(combo)))
    return result


def exact_fraction_root(value: Fraction, degree: int) -> Fraction | None:
    """Exact rational degree-th root of a nonnegative rational, or None."""
    num = _int_root(value.numerator, degree)
    den = _int_root(value.denominator, degree)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def membership_witness(ideal: PrincipalIdeal, x: Element) -> Fraction | None:
    """The least lambda with |x| <= lambda * generator, or None when x is
    not in the ideal."""
    xs, caps, _ = _aligned(x, ideal.generator)
    bound = Fraction(0)
    for v, cap in zip(xs, caps):
        mag = abs(v)
        if cap == 0:
            if mag != 0:
                return None
            continue
        ratio = Fraction(mag, cap)
        if ratio > bound:
            bound = ratio
    return bound


def json_form_value(form: dict, args: Sequence[dict]) -> Fraction:
    """A(x_1, .., x_m) read from `jsonio.to_obj` output alone: the form's
    full array holds a tensor entry's value at every ordered arrangement of
    its ``idx`` and a matrix's ``rows`` as they stand, and the value is the
    sum over all ordered index tuples (i_1, .., i_m) of the array entry
    times x_1(i_1) * .. * x_m(i_m), read from the arguments' ``values``."""
    n = form["space"]["n"]
    if "rows" in form:
        m = 2
        array = {(i, j): Fraction(v) for i, row in enumerate(form["rows"], 1) for j, v in enumerate(row, 1)}
    else:
        m = form["m"]
        array = {idx: Fraction(e["val"]) for e in form["entries"] for idx in permutations(e["idx"])}
    if len(args) != m:
        raise DegreeMismatchError(f"expected {m} arguments, got {len(args)}")
    values = [[Fraction(v) for v in x["values"]] for x in args]
    total = Fraction(0)
    for idx in product(range(1, n + 1), repeat=m):
        if array.get(idx):
            total += array[idx] * prod(row[i - 1] for row, i in zip(values, idx))
    return total
