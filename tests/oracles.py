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
alone, an element's JSON written through Fractions, the pointwise
lattice, linear and multiplicative operations on elements computed point by
point from their JSON alone, and from the same JSON a measure's integral
and both sides of every orthogonal-additivity identity of a measure
polynomial.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, permutations, product
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


def json_point_values(obj: dict, width: int) -> dict:
    """An element's value at each point, read from `jsonio.element_to_obj`
    output alone: point -> Fraction for the n points of a finite space; on
    omega1 for the isolated points 1..width, the prefix padded by its tail,
    and for "limit", the tail."""
    if obj["space"]["kind"] == "finite":
        return {t: Fraction(v) for t, v in enumerate(obj["values"], 1)}
    prefix, tail = [Fraction(v) for v in obj["prefix"]], Fraction(obj["tail"])
    values = {t: prefix[t - 1] if t <= len(prefix) else tail for t in range(1, width + 1)}
    values["limit"] = tail
    return values


_POINTWISE = {
    "join": max,
    "meet": min,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "abs": abs,
    "pos_part": lambda a: a if a > 0 else Fraction(0),
    "neg_part": lambda a: -a if a < 0 else Fraction(0),
    "pow": operator.pow,
}


def json_pointwise(operation: str, first: dict, second: dict | int | None = None) -> dict:
    """The `jsonio.element_to_obj` output of an operation on elements given
    by their `element_to_obj` output, computed point by point: ``join``,
    ``meet``, ``add``, ``sub`` and ``mul`` of two elements; ``abs``,
    ``pos_part`` and ``neg_part`` of one; ``pow`` of one to a nonnegative
    int ``second``.  On omega1 it reads one isolated point past the longer
    prefix, where both elements already take their tails, and writes the
    result's prefix without the trailing values equal to its tail."""
    space = first["space"]
    others = [second] if isinstance(second, dict) else []
    width = 1 + max(len(obj.get("prefix", ())) for obj in (first, *others))
    rows = [json_point_values(obj, width) for obj in (first, *others)]
    op = _POINTWISE[operation]
    if operation == "pow":
        values = {t: op(a, second) for t, a in rows[0].items()}
    else:
        values = {t: op(*(row[t] for row in rows)) for t in rows[0]}
    return _element_obj(space, values, width)


def _element_obj(space: dict, values: dict, width: int) -> dict:
    """The `jsonio.element_to_obj` output of the element with the given
    point values (`json_point_values` at ``width``): on omega1 the prefix is
    written without the trailing values equal to the tail."""
    if space["kind"] == "finite":
        return {"space": space, "values": [str(values[t]) for t in range(1, space["n"] + 1)]}
    prefix, tail = [values[t] for t in range(1, width + 1)], values["limit"]
    while prefix and prefix[-1] == tail:
        prefix.pop()
    return {"space": space, "prefix": [str(v) for v in prefix], "tail": str(tail)}


def json_integral(measure: dict, x: dict, power: int = 1) -> Fraction:
    """The integral of x^power against a measure, both read from
    `jsonio.to_obj` output alone: the sum over the atoms of weight *
    x(point)^power, plus the limit atom times the power of x's tail, read
    point by point (`json_point_values`), so on omega1 an atom past the
    prefix reads the tail."""
    atoms = [(a["point"], Fraction(a["weight"])) for a in measure["atoms"]]
    values = json_point_values(x, max([len(x.get("prefix", ())), *(t for t, _ in atoms)]))
    total = sum((w * values[t] ** power for t, w in atoms), Fraction(0))
    limit = Fraction(measure.get("limit_atom", "0"))
    return total + limit * values["limit"] ** power if limit else total


def json_rearrangements(args: Sequence[dict]) -> list[dict]:
    """The decreasing rearrangements (J_1, .., J_t) of elements given by
    their `element_to_obj` output, by the subset formula: J_k is the join,
    over the k-element subsets, of their meets, each taken point by point
    (`json_pointwise`)."""
    meet, join = partial(json_pointwise, "meet"), partial(json_pointwise, "join")
    return [reduce(join, (reduce(meet, subset) for subset in combinations(args, k))) for k in range(1, len(args) + 1)]


def json_root(base: dict, degree: int) -> dict | None:
    """The element whose degree-th power is the nonnegative ``base``, from
    its `element_to_obj` output, rooted point by point by
    `exact_fraction_root`, or None when a point does not root."""
    width = len(base.get("prefix", ()))
    roots = {t: exact_fraction_root(v, degree) for t, v in json_point_values(base, width).items()}
    if None in roots.values():
        return None
    return _element_obj(base["space"], roots, width)


def json_oa_sides(poly: dict, mode: str, args: Sequence[dict]) -> tuple[Fraction, Fraction]:
    """Both sides of the orthogonal-additivity identity ``mode`` for a
    measure polynomial P(x) = integral of x^m, at arguments, all read from
    `jsonio.to_obj` output alone: every element operation is taken point by
    point (`json_pointwise`), rearrangements by the subset formula
    (`json_rearrangements`) and a Krivine radical by rooting its base point
    by point (`json_root`); a radical that does not root is read as the
    integral of its base, P(v^(1/m)) = integral of v."""
    m, mu = poly["degree"], poly["measure"]

    def value(x: dict) -> Fraction:
        return json_integral(mu, x, m)

    def radical(base: dict) -> Fraction:
        root = json_root(base, m)
        return json_integral(mu, base, 1) if root is None else value(root)

    if mode in ("disjoint-additivity", "positive-cone-only"):
        x, y = args
        return value(json_pointwise("add", x, y)), value(x) + value(y)
    if mode == "pos-neg-split":
        (x,) = args
        return value(x), value(json_pointwise("pos_part", x)) + (-1) ** m * value(json_pointwise("neg_part", x))
    if mode == "valuation":
        x, y = args
        return value(json_pointwise("join", x, y)) + value(json_pointwise("meet", x, y)), value(x) + value(y)
    if mode == "k-valuation":
        return sum(map(value, json_rearrangements(args)), Fraction(0)), sum(map(value, args), Fraction(0))
    if mode == "krivine-power-sum":
        x, y = args
        return radical(json_pointwise("add", json_pointwise("pow", x, m), json_pointwise("pow", y, m))), value(x) + value(y)
    if mode == "krivine-product":
        base = reduce(partial(json_pointwise, "mul"), args)
        return radical(base), json_integral(mu, base, 1)
    raise ValueError(f"unknown orthogonal-additivity mode {mode!r}")
