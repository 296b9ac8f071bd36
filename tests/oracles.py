"""Independent oracles the tests compare the package with.

Each recomputes a quantity by a route the package does not take, and none
is read by the package itself: a per-point recheck of a convergence
certificate, the atomic partitions and the brute-force partition sum that
the coefficientwise modulus of a form is compared with, the
Riesz-Kantorovich partition sums that the join, meet and modulus of
measure polynomials are compared with, an exact root of a rational that
`RadicalElement.exact_root` is compared with, the least scale that puts an
element in a principal ideal, a form's value read from its JSON alone,
summed over every ordered index tuple, and the coefficientwise modulus,
join, meet and sum of measures, forms and polynomials read from their JSON
alone, and an element's JSON written through Fractions.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import permutations, product
from math import prod
from typing import Sequence

from riesz_lab import (
    ConvergenceCertificate,
    DegreeMismatchError,
    Element,
    Polynomial,
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


def polynomial_lattice_partition(p: Polynomial, q: Polynomial, x: Element) -> tuple[Fraction, Fraction, Fraction]:
    """((P join Q)(x), (P meet Q)(x), |P|(x)) for measure polynomials P, Q of
    one degree at a nonnegative x, by the Riesz-Kantorovich partition
    formula: the sum over the pieces u of a partition of x of max(P(u), Q(u)),
    of min(P(u), Q(u)) and of |P(u)|.

    The pieces are x(t) * e_t for each isolated point t up to K, where K
    covers every atom of P and Q and x's row, and on omega1 the tail piece
    indicator({limit} | {isolated >= K + 1}) * x.  Each piece meets at most
    one point where P or Q has mass, so no finer partition changes a sum and
    these attain the supremum.  Beyond the atom points that fix K, only
    `Polynomial.evaluate` and `Element` operations are read, never a
    lattice operation of `Measure`."""
    if not x.is_nonnegative():
        raise PositivityError("the partition formula is read at nonnegative elements")
    space = x.space
    if space.is_finite:
        pieces = [Element.basis(space, t) * x.value_at(t) for t in space.points()]
    else:
        last = max([*p.rep.atoms, *q.rep.atoms, len(x.prefix) + 1])
        pieces = [Element.basis(space, t) * x.value_at(t) for t in range(1, last + 1)]
        pieces.append(Element.tail_indicator(space, last + 1) * x)
    values = [(p.evaluate(u), q.evaluate(u)) for u in pieces]
    join = sum((max(a, b) for a, b in values), Fraction(0))
    meet = sum((min(a, b) for a, b in values), Fraction(0))
    modulus = sum((abs(a) for a, _ in values), Fraction(0))
    return join, meet, modulus


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


def json_coefficients(obj: dict) -> tuple[tuple, dict]:
    """(shape, coefficients) of a measure, form or polynomial read from its
    `jsonio.to_obj` output alone.  The coefficients are the nonzero ones: a
    measure's atoms by point and its ``limit_atom`` under "limit", a
    tensor's entries by sorted ``idx``, a matrix's ``rows`` by 1-based (i,
    j).  The shape names the kind, space and degree; a polynomial's wraps
    its representation's with its own kind and degree."""
    if "degree" in obj:
        shape, coefficients = json_coefficients(obj[obj["kind"]])
        return (obj["kind"], obj["degree"], shape), coefficients
    space = tuple(sorted(obj["space"].items()))
    if "atoms" in obj:
        shape = ("measure", space)
        coefficients = {a["point"]: Fraction(a["weight"]) for a in obj["atoms"]}
        coefficients["limit"] = Fraction(obj["limit_atom"])
    elif "entries" in obj:
        shape = ("tensor", obj["m"], space)
        coefficients = {tuple(sorted(e["idx"])): Fraction(e["val"]) for e in obj["entries"]}
    else:
        shape = ("matrix", space)
        coefficients = {(i, j): Fraction(v) for i, row in enumerate(obj["rows"], 1) for j, v in enumerate(row, 1)}
    return shape, {k: v for k, v in coefficients.items() if v}


def json_lattice(operation: str, first: dict, second: dict | None = None) -> tuple[tuple, dict]:
    """The shape and coefficients of |first| (``abs``) or of first join,
    meet or + second, read from `jsonio.to_obj` output alone: the
    coefficient at each key of either, absent keys reading 0, zeros dropped.
    Objects of different shapes are refused with `ValueError`."""
    shape, a = json_coefficients(first)
    if operation == "abs":
        return shape, {k: abs(v) for k, v in a.items()}
    other, b = json_coefficients(second)
    if other != shape:
        raise ValueError(f"no coefficientwise {operation} of {shape} and {other}")
    op = {"join": max, "meet": min, "add": operator.add}[operation]
    merged = {k: op(a.get(k, Fraction(0)), b.get(k, Fraction(0))) for k in a.keys() | b.keys()}
    return shape, {k: v for k, v in merged.items() if v}


def fraction_element_obj(x: Element) -> dict:
    """`jsonio.element_to_obj` as written through Fractions: each value of
    the row built as a `Fraction` (``values``, ``prefix``, ``tail``) and
    written by ``str``."""
    space = {"kind": "finite", "n": x.space.n} if x.space.is_finite else {"kind": "omega1"}
    if x.space.is_finite:
        return {"space": space, "values": [str(v) for v in x.values]}
    return {"space": space, "prefix": [str(v) for v in x.prefix], "tail": str(x.tail)}
