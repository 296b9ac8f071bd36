"""JSON encoding and strict parsing for lattice instances.

Rationals travel as strings ("3", "-1/2") so no binary or decimal rounding
can creep in.  Parsing validates every invariant on load and reports the
offending field path; emission sorts keys and atom lists so equal objects
produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import IO, Any

from .carriers import BandDescriptor
from .errors import MalformedInstanceError, SpaceMismatchError
from .lattice import Element, Space
from .measures import Measure
from .order_continuity import Functional, ProductFunctionalPolynomial
from .polynomials import MEASURE, Polynomial, TENSOR
from .tensors import GeneralMatrixForm, SymTensor, matrix_from_rows

PRODUCT = "product"


def rational_str(value: Fraction) -> str:
    return _ratio_str(value.numerator, value.denominator)


def _ratio_str(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms, "n" or "n/d" as ``str`` writes a
    Fraction, by one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def parse_rational(raw: Any, path: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise MalformedInstanceError(path, f"expected a rational string, got {type(raw).__name__}")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise MalformedInstanceError(path, "zero denominator") from None
    except ValueError:
        raise MalformedInstanceError(path, f"malformed rational string {raw!r}") from None


def _require(obj: Any, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise MalformedInstanceError(path, "expected an object")
    if key not in obj:
        raise MalformedInstanceError(f"{path}.{key}", "missing field")
    return obj[key]


def _int_field(raw: Any, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise MalformedInstanceError(path, "expected an integer")
    return raw


def _list_field(raw: Any, path: str, expected: str = "a list") -> list:
    if not isinstance(raw, list):
        raise MalformedInstanceError(path, f"expected {expected}")
    return raw


# -- spaces ------------------------------------------------------------------------


def space_to_obj(space: Space) -> dict:
    if space.is_finite:
        return {"kind": "finite", "n": space.n}
    return {"kind": "omega1"}


def parse_space(obj: Any, path: str = "space") -> Space:
    kind = _require(obj, "kind", path)
    if kind == "finite":
        n = _int_field(_require(obj, "n", path), f"{path}.n")
        if n < 1:
            raise MalformedInstanceError(f"{path}.n", "need at least one point")
        return Space.finite(n)
    if kind == "omega1":
        return Space.omega_plus_one()
    raise MalformedInstanceError(f"{path}.kind", f"unknown space kind {kind!r}")


# -- elements ----------------------------------------------------------------------


def element_to_obj(x: Element) -> dict:
    """The element's row as rational strings, written from its integers
    (``nums`` over ``den``) without building a Fraction per value."""
    values = [_ratio_str(v, x.den) for v in x.nums]
    if x.space.is_finite:
        return {"space": space_to_obj(x.space), "values": values}
    return {"space": space_to_obj(x.space), "prefix": values[:-1], "tail": values[-1]}


def parse_element(obj: Any, path: str = "$") -> Element:
    space = parse_space(_require(obj, "space", path), f"{path}.space")
    if space.is_finite:
        raw = _list_field(_require(obj, "values", path), f"{path}.values")
        values = [parse_rational(v, f"{path}.values[{i}]") for i, v in enumerate(raw)]
        if len(values) != space.n:
            raise MalformedInstanceError(f"{path}.values", f"expected {space.n} values, got {len(values)}")
        return Element(space, values=values)
    raw = _list_field(_require(obj, "prefix", path), f"{path}.prefix")
    prefix = [parse_rational(v, f"{path}.prefix[{i}]") for i, v in enumerate(raw)]
    tail = parse_rational(_require(obj, "tail", path), f"{path}.tail")
    return Element.omega(prefix, tail)


# -- tensors and matrices -----------------------------------------------------------


def tensor_to_obj(t: SymTensor) -> dict:
    return {
        "m": t.degree,
        "space": space_to_obj(t.space),
        "entries": [
            {"idx": list(idx), "val": rational_str(v)} for idx, v in sorted(t.entries.items())
        ],
    }


def parse_tensor(obj: Any, path: str = "$") -> SymTensor:
    degree = _int_field(_require(obj, "m", path), f"{path}.m")
    space = parse_space(_require(obj, "space", path), f"{path}.space")
    raw = _list_field(_require(obj, "entries", path), f"{path}.entries")
    entries: dict[tuple[int, ...], Fraction] = {}
    for i, item in enumerate(raw):
        here = f"{path}.entries[{i}]"
        idx_raw = _list_field(_require(item, "idx", here), f"{here}.idx", "a list of points")
        idx = tuple(sorted(_int_field(t, f"{here}.idx[{j}]") for j, t in enumerate(idx_raw)))
        value = parse_rational(_require(item, "val", here), f"{here}.val")
        if idx in entries:
            raise MalformedInstanceError(f"{here}.idx", f"duplicate index {list(idx)}")
        entries[idx] = value
    try:
        return SymTensor(space, degree, entries)
    except Exception as exc:
        raise MalformedInstanceError(path, str(exc)) from None


def matrix_to_obj(form: GeneralMatrixForm) -> dict:
    """The dense ``rows`` spelling, zeros written out, rebuilt from the entries."""
    points, zero = form.space.points(), Fraction(0)
    return {
        "space": space_to_obj(form.space),
        "rows": [[rational_str(form.entries.get((i, j), zero)) for j in points] for i in points],
    }


def parse_matrix(obj: Any, path: str = "$") -> GeneralMatrixForm:
    space = parse_space(_require(obj, "space", path), f"{path}.space")
    raw = _require(obj, "rows", path)
    if not isinstance(raw, list) or len(raw) != space.n:
        raise MalformedInstanceError(f"{path}.rows", f"expected {space.n} rows")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != space.n:
            raise MalformedInstanceError(f"{path}.rows[{i}]", f"expected {space.n} entries")
        rows.append([parse_rational(v, f"{path}.rows[{i}][{j}]") for j, v in enumerate(row)])
    return matrix_from_rows(space, rows)


# -- measures ----------------------------------------------------------------------


def measure_to_obj(mu: Measure) -> dict:
    return {
        "space": space_to_obj(mu.space),
        "atoms": [
            {"point": t, "weight": rational_str(w)} for t, w in sorted(mu.atoms.items())
        ],
        "limit_atom": rational_str(mu.limit_atom),
    }


def parse_measure(obj: Any, path: str = "$") -> Measure:
    space = parse_space(_require(obj, "space", path), f"{path}.space")
    raw = _list_field(_require(obj, "atoms", path), f"{path}.atoms")
    atoms: dict[int, Fraction] = {}
    for i, item in enumerate(raw):
        here = f"{path}.atoms[{i}]"
        point = _int_field(_require(item, "point", here), f"{here}.point")
        weight = parse_rational(_require(item, "weight", here), f"{here}.weight")
        if point in atoms:
            raise MalformedInstanceError(f"{here}.point", f"duplicate atom point {point}")
        atoms[point] = weight
    limit_raw = obj.get("limit_atom", "0")
    limit = parse_rational(limit_raw, f"{path}.limit_atom")
    try:
        return Measure(space, atoms, limit_atom=limit)
    except Exception as exc:
        raise MalformedInstanceError(path, str(exc)) from None


# -- functionals and polynomials -----------------------------------------------------


def functional_to_obj(f: Functional) -> dict:
    """The short spelling for a coordinate or the limit evaluation, the
    measure otherwise."""
    index = min(f.measure.atoms, default=1)
    if f == Functional.coordinate(index):
        return {"kind": "coordinate", "index": index}
    if f == Functional.limit():
        return {"kind": "limit"}
    return {"kind": "measure", "measure": measure_to_obj(f.measure)}


def parse_functional(obj: Any, path: str = "$") -> Functional:
    kind = _require(obj, "kind", path)
    if kind == "coordinate":
        index = _int_field(_require(obj, "index", path), f"{path}.index")
        if index < 1:
            raise MalformedInstanceError(f"{path}.index", "coordinate index starts at 1")
        return Functional.coordinate(index)
    if kind == "limit":
        return Functional.limit()
    if kind == "measure":
        mu = parse_measure(_require(obj, "measure", path), f"{path}.measure")
        try:
            return Functional(mu)
        except SpaceMismatchError as exc:
            raise MalformedInstanceError(f"{path}.measure.space", str(exc)) from None
    raise MalformedInstanceError(f"{path}.kind", f"unknown functional kind {kind!r}")


def polynomial_to_obj(poly: Polynomial | ProductFunctionalPolynomial) -> dict:
    if isinstance(poly, ProductFunctionalPolynomial):
        return {
            "degree": poly.degree,
            "kind": PRODUCT,
            "phi": functional_to_obj(poly.phi),
            "psi": functional_to_obj(poly.psi),
        }
    if poly.kind == MEASURE:
        return {"degree": poly.degree, "kind": MEASURE, "measure": measure_to_obj(poly.rep)}
    return {"degree": poly.degree, "kind": TENSOR, "tensor": tensor_to_obj(poly.rep)}


def parse_polynomial(obj: Any, path: str = "$") -> Polynomial | ProductFunctionalPolynomial:
    degree = _int_field(_require(obj, "degree", path), f"{path}.degree")
    kind = _require(obj, "kind", path)
    declared_oa = obj.get("oa", False)
    if not isinstance(declared_oa, bool):
        raise MalformedInstanceError(f"{path}.oa", "expected a JSON boolean")
    if kind == MEASURE:
        rep = parse_measure(_require(obj, "measure", path), f"{path}.measure")
    elif kind == TENSOR:
        rep = parse_tensor(_require(obj, "tensor", path), f"{path}.tensor")
        if declared_oa and not rep.is_diagonal():
            idx = next(iter(rep.off_diagonal_entries()))
            raise MalformedInstanceError(
                f"{path}.tensor.entries",
                f"off-diagonal entry {list(idx)} in an instance declared orthogonally additive",
            )
    elif kind == PRODUCT:
        phi = parse_functional(_require(obj, "phi", path), f"{path}.phi")
        psi = parse_functional(_require(obj, "psi", path), f"{path}.psi")
        try:
            return ProductFunctionalPolynomial(degree, phi, psi)
        except Exception as exc:
            raise MalformedInstanceError(path, str(exc)) from None
    else:
        raise MalformedInstanceError(f"{path}.kind", f"unknown polynomial kind {kind!r}")
    try:
        return Polynomial(degree, rep)
    except Exception as exc:
        raise MalformedInstanceError(path, str(exc)) from None


# -- descriptors ---------------------------------------------------------------------


def descriptor_to_obj(desc: BandDescriptor) -> dict:
    obj = {"space": space_to_obj(desc.space)}
    if desc.cofinite:
        obj["cofinite"] = True
        obj["excludedPoints"] = sorted(desc.points)
        obj["includesLimit"] = desc.includes_limit
    else:
        obj["isolatedSupport"] = sorted(desc.points)
    return obj


# -- generic instances ---------------------------------------------------------------


def to_obj(instance: Any) -> dict:
    if isinstance(instance, Element):
        return element_to_obj(instance)
    if isinstance(instance, SymTensor):
        return tensor_to_obj(instance)
    if isinstance(instance, GeneralMatrixForm):
        return matrix_to_obj(instance)
    if isinstance(instance, Measure):
        return measure_to_obj(instance)
    if isinstance(instance, (Polynomial, ProductFunctionalPolynomial)):
        return polynomial_to_obj(instance)
    if isinstance(instance, BandDescriptor):
        return descriptor_to_obj(instance)
    raise TypeError(f"cannot serialise {type(instance).__name__}")


def parse_instance(obj: Any, path: str = "$"):
    """Sniff the instance type from its fields and parse strictly."""
    if not isinstance(obj, dict):
        raise MalformedInstanceError(path, "expected a JSON object")
    if "values" in obj or "prefix" in obj:
        return parse_element(obj, path)
    if "entries" in obj and "m" in obj:
        return parse_tensor(obj, path)
    if "rows" in obj:
        return parse_matrix(obj, path)
    if "degree" in obj:
        return parse_polynomial(obj, path)
    if "atoms" in obj:
        return parse_measure(obj, path)
    raise MalformedInstanceError(path, "unrecognised instance shape")


def parse_instance_file(source: str | IO[str]):
    """Parse a file path or text stream.  Text that does not decode (not
    UTF-8, nested past the recursion limit, an integer too long to convert)
    is a `MalformedInstanceError` like any other bad instance."""
    reading = hasattr(source, "read")
    label = getattr(source, "name", "<stream>") if reading else source
    try:
        if reading:
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInstanceError(label, f"invalid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise MalformedInstanceError(label, f"undecodable JSON: {exc}") from None
    return parse_instance(obj, path=label)


def dumps_canonical(obj: Any) -> str:
    """Stable-key, newline-terminated JSON; equal objects give equal bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
