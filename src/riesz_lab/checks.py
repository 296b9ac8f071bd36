"""Decisive and sampled checks.

Orthosymmetry of multilinear forms and orthogonal additivity of polynomials
each admit one structural criterion (no off-diagonal mass) and a family of
sampled identities.  The sampled checks draw seeded instances, prepend a
deterministic sweep of scaled basis pairs that provably catches any order-2
mixed entry, and compare both sides exactly.

On finite spaces the samples are integer multiples of 1/12 (numerators in
[-9, 9], denominators in {1, 2, 3, 4}); every identity checked here is
invariant under a common positive scaling, so the comparisons run on the
scaled integers through the int64 fast path when its overflow bound allows,
and on Fractions otherwise.  Both paths consume the same seeded arrays, and
`os_identity_sides` / `oa_identity_sides` recompute any reported
counterexample from its serialised arguments alone.

Fraction `Element`s are built from those arrays only where the object path
reads them: the first failing sample, which `_failure` re-verifies; the
first three samples of a passing Krivine check, which are spot-checked
through genuine radical elements; and every sample when the object sweep
runs (``force_object``, or the int64 bound refusing the instance).  Sampled
omega1 checks have no int64 path and draw Elements directly.
"""

from __future__ import annotations

import random as _pyrandom
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._intpath import (
    IntPathUnavailable,
    dense_core,
    form_eval_batch,
    measure_poly_eval_batch,
    measure_weights,
    poly_eval_batch,
)
from .errors import DegreeMismatchError, InvariantViolation
from .lattice import (
    LIMIT,
    Element,
    Space,
    decreasing_rearrangements,
    krivine_radical,
)
from .measures import Measure
from .polynomials import MEASURE, TENSOR, Polynomial, polarize, to_measure
from .tensors import Form, GeneralMatrixForm, SymTensor

SCALE = 12  # lcm of the permitted sample denominators {1,2,3,4}

OS_DIAGONAL = "diagonal"
OS_J_IDENTITY = "j-identity"
OS_BILINEAR = "bilinear-kusraev"
OS_DISJOINT = "disjoint-pairs"
OS_MODES = (OS_DIAGONAL, OS_J_IDENTITY, OS_BILINEAR, OS_DISJOINT)

OA_DISJOINT_ADD = "disjoint-additivity"
OA_POS_NEG = "pos-neg-split"
OA_VALUATION = "valuation"
OA_K_VALUATION = "k-valuation"
OA_KRIVINE_SUM = "krivine-power-sum"
OA_KRIVINE_PRODUCT = "krivine-product"
OA_POSITIVE_CONE = "positive-cone-only"
OA_MODES = (
    OA_DISJOINT_ADD,
    OA_POS_NEG,
    OA_VALUATION,
    OA_K_VALUATION,
    OA_KRIVINE_SUM,
    OA_KRIVINE_PRODUCT,
    OA_POSITIVE_CONE,
)


@dataclass(frozen=True)
class CheckVerdict:
    mode: str
    passed: bool
    samples_checked: int
    decisive: bool = False
    counterexample: dict | None = None


# -- the identities themselves -------------------------------------------------------


def os_identity_sides(form: Form, mode: str, args: Sequence[Element]) -> tuple[Fraction, Fraction]:
    """Both sides of one orthosymmetry identity at explicit arguments."""
    lhs = form.evaluate(list(args))
    if mode in (OS_DIAGONAL, OS_DISJOINT):
        return lhs, Fraction(0)
    if mode == OS_J_IDENTITY:
        return lhs, form.evaluate(decreasing_rearrangements(list(args)))
    if mode == OS_BILINEAR:
        x, y = args
        return lhs, form.evaluate([x.join(y), x.meet(y)])
    raise ValueError(f"unknown orthosymmetry mode {mode!r}")


def _effective_measure_poly(poly: Polynomial) -> Polynomial | None:
    """Measure view of an orthogonally additive polynomial, if one exists."""
    if poly.kind == MEASURE:
        return poly
    if poly.rep.is_diagonal():
        return Polynomial.from_measure(poly.degree, to_measure(poly))
    return None


def _integral_form_value(mu: Measure, args: Sequence[Element]) -> Fraction:
    """Integral of x_1 * .. * x_m: the multilinear form attached to a
    measure polynomial, evaluable on both backends."""
    total = Fraction(0)
    for point, weight in mu.atoms.items():
        term = weight
        for x in args:
            term *= x.value_at(point)
        total += term
    if mu.limit_atom != 0:
        term = mu.limit_atom
        for x in args:
            term *= x.value_at(LIMIT)
        total += term
    return total


def oa_identity_sides(poly: Polynomial, mode: str, args: Sequence[Element]) -> tuple[Fraction, Fraction]:
    """Both sides of one orthogonal-additivity identity at explicit
    arguments, Krivine modes through genuine radical elements."""
    m = poly.degree
    if mode in (OA_DISJOINT_ADD, OA_POSITIVE_CONE):
        x, y = args
        return poly.evaluate(x + y), poly.evaluate(x) + poly.evaluate(y)
    if mode == OA_POS_NEG:
        (x,) = args
        sign = -1 if m % 2 else 1
        return poly.evaluate(x), poly.evaluate(x.pos_part()) + sign * poly.evaluate(x.neg_part())
    if mode == OA_VALUATION:
        x, y = args
        lhs = poly.evaluate(x.join(y)) + poly.evaluate(x.meet(y))
        return lhs, poly.evaluate(x) + poly.evaluate(y)
    if mode == OA_K_VALUATION:
        lhs = sum((poly.evaluate(j) for j in decreasing_rearrangements(list(args))), Fraction(0))
        return lhs, sum((poly.evaluate(x) for x in args), Fraction(0))
    target = _effective_measure_poly(poly) or poly
    if mode == OA_KRIVINE_SUM:
        x, y = args
        lhs = target.evaluate(krivine_radical("power-sum", m, [x, y]))
        return lhs, target.evaluate(x) + target.evaluate(y)
    if mode == OA_KRIVINE_PRODUCT:
        lhs = target.evaluate(krivine_radical("product", m, list(args)))
        if not poly.space.is_finite:
            return lhs, _integral_form_value(target.rep, args)
        mirror = poly.rep if poly.kind == TENSOR else polarize(poly)
        return lhs, mirror.evaluate(list(args))
    raise ValueError(f"unknown orthogonal-additivity mode {mode!r}")


# -- seeded sample construction ---------------------------------------------------

_DEN_STEP = np.array([12, 6, 4, 3], dtype=np.int64)  # SCALE // {1,2,3,4}


def _seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _values(rng: np.random.Generator, shape) -> np.ndarray:
    num = rng.integers(-9, 10, size=shape).astype(np.int64)
    den = rng.integers(0, 4, size=shape)
    return num * _DEN_STEP[den]


def _masks(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    if n == 1:
        bits = rng.integers(0, 2, size=count)
    else:
        bits = rng.integers(1, 2**n - 1, size=count)
    return ((bits[:, None] >> np.arange(n)) & 1).astype(bool)


def _ratio_grid(m: int) -> list[tuple[int, int]]:
    # realises at least m-1 distinct nonzero ratios b/a
    return [(1, 1)] + [(1, b) for b in range(2, m + 1)] + [(a, 1) for a in range(2, m + 1)]


def structured_pair_count(n: int, m: int) -> int:
    """Length of the deterministic disjoint-pair sweep; sampled disjointness
    checks need at least this many samples to stay provably decisive for
    order-2 mixed entries."""
    return (n * (n - 1) // 2) * len(_ratio_grid(m))


def _disjoint_pairs(rng, samples: int, n: int, m: int, positive: bool) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) arrays of shape (samples, n) with pointwise-disjoint supports;
    the scaled-basis-pair sweep comes first, seeded masks after."""
    xs = np.zeros((samples, n), dtype=np.int64)
    ys = np.zeros((samples, n), dtype=np.int64)
    row = 0
    for s in range(n):
        for t in range(s + 1, n):
            for a, b in _ratio_grid(m):
                if row >= samples:
                    break
                xs[row, s] = a * SCALE
                ys[row, t] = b * SCALE
                row += 1
    rest = samples - row
    if rest > 0:
        mask = _masks(rng, rest, n)
        left = _values(rng, (rest, n))
        right = _values(rng, (rest, n))
        if positive:
            left, right = np.abs(left), np.abs(right)
        xs[row:] = np.where(mask, left, 0)
        ys[row:] = np.where(mask, 0, right)
    return xs, ys


def _element(space: Space, row: Sequence[int], denom: int = SCALE) -> Element:
    return Element(space, values=[Fraction(int(v), denom) for v in row])


def _first_diff(lhs: np.ndarray, rhs: np.ndarray) -> int | None:
    bad = np.nonzero(lhs != rhs)[0]
    return int(bad[0]) if bad.size else None


def _payload(mode: str, index: int, args: Sequence[Element], lhs: Fraction, rhs: Fraction) -> dict:
    from .jsonio import element_to_obj

    return {
        "mode": mode,
        "sampleIndex": index,
        "args": [element_to_obj(x) for x in args],
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def _failure(
    kind: str, mode: str, thing, args: Sequence[Element], index: int, checked: int, decisive: bool = False
) -> CheckVerdict:
    sides = os_identity_sides(thing, mode, args) if kind == "os" else oa_identity_sides(thing, mode, args)
    lhs, rhs = sides
    if lhs == rhs:
        raise InvariantViolation("reported mismatch did not re-verify on the object path")
    return CheckVerdict(mode, False, checked, decisive, _payload(mode, index, list(args), lhs, rhs))


# -- orthosymmetry -----------------------------------------------------------------


def orthosymmetry_check(
    form: Form,
    mode: str,
    samples: int = 200,
    seed=0,
    force_object: bool = False,
) -> CheckVerdict:
    """Check that a regular m-linear form vanishes on disjoint arguments.

    ``diagonal`` is decisive on these spaces; the other modes sample the
    rearrangement identity A(x_1,..,x_m) = A(J_1,..,J_m), the order-2
    join/meet identity, or literal disjoint argument pairs.
    """
    if mode not in OS_MODES:
        raise ValueError(f"unknown orthosymmetry mode {mode!r}")
    if mode == OS_BILINEAR and form.degree != 2:
        raise DegreeMismatchError("the join/meet identity is an order-2 check")
    if mode == OS_DIAGONAL:
        return _os_diagonal(form)
    if isinstance(form, GeneralMatrixForm):
        return _os_matrix_sampled(form, mode, samples, seed)
    return _os_tensor_sampled(form, mode, samples, seed, force_object)


def _os_diagonal(form: Form) -> CheckVerdict:
    if isinstance(form, GeneralMatrixForm):
        n = form.space.n
        for i in range(n):
            for j in range(n):
                if i != j and form.rows[i][j] != 0:
                    args = [Element.basis(form.space, i + 1), Element.basis(form.space, j + 1)]
                    return _failure("os", OS_DIAGONAL, form, args, 0, 0, decisive=True)
        return CheckVerdict(OS_DIAGONAL, True, 0, True)
    off = form.off_diagonal_entries()
    if not off:
        return CheckVerdict(OS_DIAGONAL, True, 0, True)
    idx = next(iter(off))
    args = [Element.basis(form.space, t) for t in idx]
    return _failure("os", OS_DIAGONAL, form, args, 0, 0, decisive=True)


def _os_tensor_sampled(form: SymTensor, mode: str, samples: int, seed, force_object: bool) -> CheckVerdict:
    rng = np.random.default_rng(_seedseq(seed))
    n, m = form.space.n, form.degree
    if mode == OS_J_IDENTITY:
        args = _values(rng, (samples, m, n))
        transformed = -np.sort(-args, axis=1)
    elif mode == OS_BILINEAR:
        args = _values(rng, (samples, 2, n))
        transformed = np.stack(
            [np.maximum(args[:, 0, :], args[:, 1, :]), np.minimum(args[:, 0, :], args[:, 1, :])],
            axis=1,
        )
    else:  # disjoint pair in the first two slots, free samples elsewhere
        xs, ys = _disjoint_pairs(rng, samples, n, m, positive=False)
        extra = _values(rng, (samples, m - 2, n)) if m > 2 else np.zeros((samples, 0, n), np.int64)
        args = np.concatenate([xs[:, None, :], ys[:, None, :], extra], axis=1)
        transformed = None

    if not force_object:
        try:
            core, _ = dense_core(form)
            lhs = form_eval_batch(core, args)
            rhs = form_eval_batch(core, transformed) if transformed is not None else np.zeros_like(lhs)
            bad = _first_diff(lhs, rhs)
            if bad is None:
                return CheckVerdict(mode, True, samples)
            elements = [_element(form.space, row) for row in args[bad]]
            return _failure("os", mode, form, elements, bad, bad + 1)
        except IntPathUnavailable:
            pass
    for i in range(samples):
        elements = [_element(form.space, row) for row in args[i]]
        lhs, rhs = os_identity_sides(form, mode, elements)
        if lhs != rhs:
            return _failure("os", mode, form, elements, i, i + 1)
    return CheckVerdict(mode, True, samples)


def _os_matrix_sampled(form: GeneralMatrixForm, mode: str, samples: int, seed) -> CheckVerdict:
    rng = np.random.default_rng(_seedseq(seed))
    n = form.space.n
    if mode == OS_DISJOINT:
        # basis pairs are decisive for a matrix; keep the sampled tail anyway
        trials = [
            [Element.basis(form.space, i), Element.basis(form.space, j)]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        ]
        xs, ys = _disjoint_pairs(rng, samples, n, 2, positive=False)
        trials += [[_element(form.space, xs[i]), _element(form.space, ys[i])] for i in range(samples)]
    else:
        rows = _values(rng, (samples, 2, n))
        trials = [[_element(form.space, rows[i, 0]), _element(form.space, rows[i, 1])] for i in range(samples)]
    for i, pair in enumerate(trials):
        lhs, rhs = os_identity_sides(form, mode, pair)
        if lhs != rhs:
            return _failure("os", mode, form, pair, i, i + 1)
    return CheckVerdict(mode, True, len(trials))


# -- orthogonal additivity ----------------------------------------------------------


def orthogonal_additivity_check(
    poly: Polynomial,
    mode: str,
    samples: int = 96,
    seed=0,
    force_object: bool = False,
) -> CheckVerdict:
    """Sample one of the seven equivalent characterisations of orthogonal
    additivity against the given polynomial."""
    if mode not in OA_MODES:
        raise ValueError(f"unknown orthogonal-additivity mode {mode!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    runner = _OA_RUNNERS[mode]
    return runner(poly, samples, _seedseq(seed), force_object)


def _evaluator(poly: Polynomial):
    """Batch P on int arrays; ``terms`` is how many batches the caller sums."""
    if poly.kind == TENSOR:
        core, _ = dense_core(poly.rep)
        return lambda xs, terms: poly_eval_batch(core, xs, terms)
    weights, _ = measure_weights(poly.rep)
    degree = poly.degree
    return lambda xs, terms: measure_poly_eval_batch(weights, degree, xs, terms)


def _object_sweep(poly: Polynomial, mode: str, tuples: Sequence[Sequence[Element]]) -> CheckVerdict:
    for i, args in enumerate(tuples):
        lhs, rhs = oa_identity_sides(poly, mode, args)
        if lhs != rhs:
            return _failure("oa", mode, poly, args, i, i + 1)
    return CheckVerdict(mode, True, len(tuples))


def _omega_prng(seed_seq: np.random.SeedSequence) -> _pyrandom.Random:
    return _pyrandom.Random(int(seed_seq.generate_state(1)[0]))


def _omega_element(prng: _pyrandom.Random, positive: bool, window: int = 6) -> Element:
    vals = [Fraction(prng.randint(-9, 9), prng.choice((1, 2, 3, 4))) for _ in range(window)]
    tail = Fraction(prng.randint(-9, 9), prng.choice((1, 2, 3, 4)))
    e = Element.omega(vals, tail)
    return abs(e) if positive else e


def _omega_disjoint_pair(prng: _pyrandom.Random, positive: bool, window: int = 6) -> list[Element]:
    mask = [prng.random() < 0.5 for _ in range(window)]
    x = _omega_element(prng, positive, window)
    y = _omega_element(prng, positive, window)
    xv = [x.value_at(t) if mask[t - 1] else Fraction(0) for t in range(1, window + 1)]
    yv = [Fraction(0) if mask[t - 1] else y.value_at(t) for t in range(1, window + 1)]
    return [Element.omega(xv, 0), Element.omega(yv, y.tail)]


def _pair_elements(space, xs, ys, index, denom=SCALE) -> list[Element]:
    return [_element(space, xs[index], denom), _element(space, ys[index], denom)]


# disjoint additivity (and its positive-cone restriction) --------------------------


def _run_disjoint_additivity(poly, samples, seed_seq, force_object, positive, mode):
    if not poly.space.is_finite:
        prng = _omega_prng(seed_seq)
        return _object_sweep(poly, mode, [_omega_disjoint_pair(prng, positive) for _ in range(samples)])
    rng = np.random.default_rng(seed_seq)
    xs, ys = _disjoint_pairs(rng, samples, poly.space.n, poly.degree, positive)
    if not force_object:
        try:
            ev = _evaluator(poly)
            bad = _first_diff(ev(xs + ys, 1), ev(xs, 2) + ev(ys, 2))
            if bad is None:
                return CheckVerdict(mode, True, samples)
            return _failure("oa", mode, poly, _pair_elements(poly.space, xs, ys, bad), bad, bad + 1)
        except IntPathUnavailable:
            pass
    return _object_sweep(poly, mode, [_pair_elements(poly.space, xs, ys, i) for i in range(samples)])


def _oa_disjoint_additivity(poly, samples, seed_seq, force_object):
    return _run_disjoint_additivity(poly, samples, seed_seq, force_object, False, OA_DISJOINT_ADD)


def _oa_positive_cone(poly, samples, seed_seq, force_object):
    return _run_disjoint_additivity(poly, samples, seed_seq, force_object, True, OA_POSITIVE_CONE)


# split through positive and negative parts ----------------------------------------


def _oa_pos_neg(poly, samples, seed_seq, force_object):
    if not poly.space.is_finite:
        prng = _omega_prng(seed_seq)
        return _object_sweep(poly, OA_POS_NEG, [[_omega_element(prng, False)] for _ in range(samples)])
    rng = np.random.default_rng(seed_seq)
    vals = _values(rng, (samples, poly.space.n))
    if not force_object:
        try:
            ev = _evaluator(poly)
            sign = -1 if poly.degree % 2 else 1
            bad = _first_diff(ev(vals, 1), ev(np.maximum(vals, 0), 2) + sign * ev(np.maximum(-vals, 0), 2))
            if bad is None:
                return CheckVerdict(OA_POS_NEG, True, samples)
            return _failure("oa", OA_POS_NEG, poly, [_element(poly.space, vals[bad])], bad, bad + 1)
        except IntPathUnavailable:
            pass
    return _object_sweep(poly, OA_POS_NEG, [[_element(poly.space, row)] for row in vals])


# join/meet valuation ----------------------------------------------------------------


def _oa_valuation(poly, samples, seed_seq, force_object):
    if not poly.space.is_finite:
        prng = _omega_prng(seed_seq)
        tuples = [[_omega_element(prng, True), _omega_element(prng, True)] for _ in range(samples)]
        return _object_sweep(poly, OA_VALUATION, tuples)
    rng = np.random.default_rng(seed_seq)
    xs = np.abs(_values(rng, (samples, poly.space.n)))
    ys = np.abs(_values(rng, (samples, poly.space.n)))
    if not force_object:
        try:
            ev = _evaluator(poly)
            lhs = ev(np.maximum(xs, ys), 2) + ev(np.minimum(xs, ys), 2)
            bad = _first_diff(lhs, ev(xs, 2) + ev(ys, 2))
            if bad is None:
                return CheckVerdict(OA_VALUATION, True, samples)
            return _failure("oa", OA_VALUATION, poly, _pair_elements(poly.space, xs, ys, bad), bad, bad + 1)
        except IntPathUnavailable:
            pass
    return _object_sweep(poly, OA_VALUATION, [_pair_elements(poly.space, xs, ys, i) for i in range(samples)])


# k-tuple rearrangement valuation ----------------------------------------------------


def _oa_k_valuation(poly, samples, seed_seq, force_object):
    if not poly.space.is_finite:
        prng = _omega_prng(seed_seq)
        tuples = [
            [_omega_element(prng, True) for _ in range(2 + i % 3)] for i in range(samples)
        ]
        return _object_sweep(poly, OA_K_VALUATION, tuples)
    rng = np.random.default_rng(seed_seq)
    n = poly.space.n
    groups = {k: np.abs(_values(rng, (samples // 3 + (k == 2) * (samples % 3), k, n))) for k in (2, 3, 4)}
    if not force_object:
        try:
            ev = _evaluator(poly)
            checked = 0
            for k, tup in sorted(groups.items()):
                if tup.shape[0] == 0:
                    continue
                sorted_args = -np.sort(-tup, axis=1)
                lhs = sum(ev(sorted_args[:, i, :], k) for i in range(k))
                rhs = sum(ev(tup[:, i, :], k) for i in range(k))
                bad = _first_diff(lhs, rhs)
                if bad is not None:
                    args = [_element(poly.space, tup[bad, i]) for i in range(k)]
                    return _failure("oa", OA_K_VALUATION, poly, args, checked + bad, checked + bad + 1)
                checked += tup.shape[0]
            return CheckVerdict(OA_K_VALUATION, True, checked)
        except IntPathUnavailable:
            pass
    tuples = [
        [_element(poly.space, tup[i, j]) for j in range(k)]
        for k, tup in sorted(groups.items())
        for i in range(tup.shape[0])
    ]
    return _object_sweep(poly, OA_K_VALUATION, tuples)


# Krivine power-sum --------------------------------------------------------------------


def _spot_check_radicals(poly, mode, row, samples, count=3) -> None:
    """The vector path skips radical objects; recompute the first few
    samples, built as Elements by ``row(i)``, through them so the fast route
    cannot drift from the definition."""
    for i in range(min(count, samples)):
        lhs, rhs = oa_identity_sides(poly, mode, row(i))
        if lhs != rhs:
            raise InvariantViolation("vector path disagrees with radical evaluation")


def _oa_krivine_sum(poly, samples, seed_seq, force_object):
    m = poly.degree
    measure_view = _effective_measure_poly(poly)
    if not poly.space.is_finite:
        prng = _omega_prng(seed_seq)
        tuples = [[_omega_element(prng, True), _omega_element(prng, True)] for _ in range(samples)]
        return _object_sweep(poly, OA_KRIVINE_SUM, tuples)
    rng = np.random.default_rng(seed_seq)
    n = poly.space.n
    if measure_view is not None:
        xs = np.abs(_values(rng, (samples, n)))
        ys = np.abs(_values(rng, (samples, n)))
    else:
        # irrational radicals cannot meet an off-diagonal tensor; sample pairs
        # whose power-sum radical roots exactly (disjoint supports)
        xs, ys = _disjoint_pairs(rng, samples, n, m, positive=True)

    def row(i):
        return _pair_elements(poly.space, xs, ys, i)

    if not force_object:
        try:
            if measure_view is not None:
                ev = _evaluator(measure_view)
                # evaluated first: these guards also bound xs**m + ys**m
                rhs = ev(xs, 2) + ev(ys, 2)
                weights, _ = measure_weights(measure_view.rep)
                lhs = measure_poly_eval_batch(weights, 1, xs**m + ys**m)
            else:
                ev = _evaluator(poly)
                rhs = ev(xs, 2) + ev(ys, 2)
                lhs = ev(xs + ys, 1)  # the radical of a disjoint pair roots to x + y
            bad = _first_diff(lhs, rhs)
            if bad is not None:
                return _failure("oa", OA_KRIVINE_SUM, poly, row(bad), bad, bad + 1)
            _spot_check_radicals(poly, OA_KRIVINE_SUM, row, samples)
            return CheckVerdict(OA_KRIVINE_SUM, True, samples)
        except IntPathUnavailable:
            pass
    return _object_sweep(poly, OA_KRIVINE_SUM, [row(i) for i in range(samples)])


# Krivine product -----------------------------------------------------------------------


def _oa_krivine_product(poly, samples, seed_seq, force_object):
    m = poly.degree
    measure_view = _effective_measure_poly(poly)
    if not poly.space.is_finite:
        prng = _omega_prng(seed_seq)
        tuples = [[_omega_element(prng, True) for _ in range(m)] for _ in range(samples)]
        return _object_sweep(poly, OA_KRIVINE_PRODUCT, tuples)
    rng = np.random.default_rng(seed_seq)
    n = poly.space.n
    if measure_view is not None:
        tup = np.abs(_values(rng, (samples, m, n)))
        denom = SCALE
        u = None
    else:
        # factor a perfect m-th power pointwise: u = prod g_i, x_i = u g_i / g_{i+1}
        g = rng.integers(1, 4, size=(samples, m, n)).astype(np.int64)
        u = g.prod(axis=1)
        tup = np.stack([(u // g[:, (i + 1) % m, :]) * g[:, i, :] for i in range(m)], axis=1)
        denom = 1

    def row(i):
        return [_element(poly.space, tup[i, j], denom) for j in range(m)]

    if not force_object:
        try:
            mirror = poly.rep if poly.kind == TENSOR else polarize(poly)
            core_a, scale_a = dense_core(mirror)
            rhs_vec = form_eval_batch(core_a, tup)
            if measure_view is not None:
                weights, scale_p = measure_weights(measure_view.rep)
                lhs_vec = measure_poly_eval_batch(weights, 1, tup.prod(axis=1))
            else:
                core_p, scale_p = dense_core(poly.rep)
                lhs_vec = poly_eval_batch(core_p, u)
            bad = None
            for i in range(samples):  # cross-denominator exact comparison
                if int(lhs_vec[i]) * scale_a != int(rhs_vec[i]) * scale_p:
                    bad = i
                    break
            if bad is not None:
                return _failure("oa", OA_KRIVINE_PRODUCT, poly, row(bad), bad, bad + 1)
            _spot_check_radicals(poly, OA_KRIVINE_PRODUCT, row, samples)
            return CheckVerdict(OA_KRIVINE_PRODUCT, True, samples)
        except IntPathUnavailable:
            pass
    return _object_sweep(poly, OA_KRIVINE_PRODUCT, [row(i) for i in range(samples)])


_OA_RUNNERS = {
    OA_DISJOINT_ADD: _oa_disjoint_additivity,
    OA_POS_NEG: _oa_pos_neg,
    OA_VALUATION: _oa_valuation,
    OA_K_VALUATION: _oa_k_valuation,
    OA_KRIVINE_SUM: _oa_krivine_sum,
    OA_KRIVINE_PRODUCT: _oa_krivine_product,
    OA_POSITIVE_CONE: _oa_positive_cone,
}


def oa_mode_agreement(poly: Polynomial, samples: int = 96, seed=0) -> dict[str, CheckVerdict]:
    """All seven sampled characterisations, seeded independently per mode."""
    root = _seedseq(seed)
    children = root.spawn(len(OA_MODES))
    return {
        mode: orthogonal_additivity_check(poly, mode, samples, child)
        for mode, child in zip(OA_MODES, children)
    }
