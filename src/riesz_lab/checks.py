"""Decisive and sampled checks.

Orthosymmetry of multilinear forms and orthogonal additivity of polynomials
each admit one structural criterion (no off-diagonal mass) and a family of
sampled identities.  The sampled checks draw seeded instances, prepend a
deterministic sweep of scaled basis pairs that provably catches any order-2
mixed entry, and compare both sides exactly.

On finite spaces the samples are integer multiples of 1/12 (numerators in
[-9, 9], denominators in {1, 2, 3, 4}); every identity checked here is
invariant under a common positive scaling, so the comparisons run on the
scaled integers through the exact batch kernels of `_intpath`, on int64 when
their overflow bound allows and on Python ints otherwise.  The kernels and
the object path consume the same seeded arrays, and `os_identity_sides` /
`oa_identity_sides` recompute any reported counterexample from its
serialised arguments alone.

Every sampled check draws its arguments as int arrays and runs through one
driver, `_sampled_check`.  `Element`s are built from those arrays only
where the object path reads them: the first failing sample, which `_failure`
re-verifies; the first three samples of a passing Krivine check, which are
spot-checked through genuine radical elements; and every sample when the
object sweep runs, which it does only for omega1 and under
``force_object``.  The Krivine modes draw alike for every polynomial:
positive disjoint pairs, whose power-sum radical roots to x + y, and
perfect-power tuples x_i = u g_i / g_{i+1}, whose product radical roots to
u.  So every radical roots exactly, and the int path compares P at the
root with the right side on the polynomial's one table.  An `Element`
stores its row as integers over one denominator, so a sample row enters
it as drawn, with its block's denominator, and no Fraction is built per
value.  Symmetric tensors and matrix forms share one table layout
(`_intpath.dense_core`), so both run on the batch kernels.  omega1 samples
come from the same arrays: each row, the values at points 1..6 and then
the tail, is an `Element` row as it stands.

One failing sample decides an identity, so the driver hands the kernels
each block in chunks and stops at the first chunk with a mismatch.  The
first chunk is sized by kernel work against the fixed budget
`_intpath._CHUNK_WORK` (samples x table rows x argument slots) and each
later chunk is 4x the one before; a block inside the budget runs in one
kernel call.  Every check builds its table once and reads it in every chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from ._intpath import (
    _CHUNK_WORK,
    dense_core,
    form_eval_batch,
    measure_poly_eval_batch,
    measure_weights,
    poly_eval_batch,
)
from .errors import DegreeMismatchError, InvariantViolation
from .lattice import (
    Element,
    Space,
    _int_root,
    decreasing_rearrangements,
    krivine_radical,
)
from .polynomials import TENSOR, Polynomial, polarize
from .tensors import Form, GeneralMatrixForm

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
# argument count of each fixed-arity OA identity; k-valuation takes any k,
# and the Krivine product radical checks its own
_ARITY = {OA_DISJOINT_ADD: 2, OA_POSITIVE_CONE: 2, OA_POS_NEG: 1, OA_VALUATION: 2, OA_KRIVINE_SUM: 2}


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
        if form.degree != 2:
            raise DegreeMismatchError("the join/meet identity is an order-2 check")
        x, y = args
        return lhs, form.evaluate([x.join(y), x.meet(y)])
    raise ValueError(f"unknown orthosymmetry mode {mode!r}")


def oa_identity_sides(poly: Polynomial, mode: str, args: Sequence[Element]) -> tuple[Fraction, Fraction]:
    """Both sides of one orthogonal-additivity identity at explicit
    arguments, Krivine modes through genuine radical elements."""
    m = poly.degree
    arity = _ARITY.get(mode)
    if arity is not None and len(args) != arity:
        raise DegreeMismatchError(f"{mode} expects {arity} arguments, got {len(args)}")
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
    if mode == OA_KRIVINE_SUM:
        x, y = args
        lhs = poly.evaluate(krivine_radical("power-sum", m, [x, y]))
        return lhs, poly.evaluate(x) + poly.evaluate(y)
    if mode == OA_KRIVINE_PRODUCT:
        radical = krivine_radical("product", m, list(args))
        lhs = poly.evaluate(radical)
        return lhs, poly.rep.evaluate(list(args)) if poly.kind == TENSOR else poly.rep.integrate(radical.base)
    raise ValueError(f"unknown orthogonal-additivity mode {mode!r}")


def identity_sides(thing, mode: str, args: Sequence[Element]) -> tuple[Fraction, Fraction]:
    """Both sides of the identity ``mode`` names: `os_identity_sides` for an
    orthosymmetry mode, `oa_identity_sides` otherwise (the names are
    disjoint)."""
    if mode in OS_MODES:
        return os_identity_sides(thing, mode, args)
    return oa_identity_sides(thing, mode, args)


# -- seeded sample construction ---------------------------------------------------

_DEN_STEP = np.array([12, 6, 4, 3], dtype=np.int64)  # SCALE // {1,2,3,4}
_OMEGA_PREFIX = 6


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


def _disjoint_pairs(rng, samples: int, n: int, m: int, positive: bool) -> np.ndarray:
    """Pairs (x, y) with pointwise-disjoint supports as one (samples, 2, n)
    block; the scaled-basis-pair sweep comes first, seeded masks after."""
    pairs = np.zeros((samples, 2, n), dtype=np.int64)
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]  # views: writes land in pairs
    # row r of the sweep: point pair r // len(grid) in row-major (s, t)
    # order, scaled by ratio r % len(grid)
    firsts, seconds = np.triu_indices(n, 1)
    grid = SCALE * np.array(_ratio_grid(m), dtype=np.int64)
    row = min(samples, len(firsts) * len(grid))
    sweep = np.arange(row)
    pair, ratio = np.divmod(sweep, len(grid))
    xs[sweep, firsts[pair]] = grid[ratio, 0]
    ys[sweep, seconds[pair]] = grid[ratio, 1]
    rest = samples - row
    if rest > 0:
        mask = _masks(rng, rest, n)
        left = _values(rng, (rest, n))
        right = _values(rng, (rest, n))
        if positive:
            left, right = np.abs(left), np.abs(right)
        xs[row:] = np.where(mask, left, 0)
        ys[row:] = np.where(mask, 0, right)
    return pairs


def _columns(space: Space) -> int:
    """Width of a sample row: the points of a finite space; on omega1 the
    values at points 1.._OMEGA_PREFIX followed by the tail value."""
    return space.n if space.is_finite else _OMEGA_PREFIX + 1


def _element(space: Space, row: np.ndarray, denom: int = SCALE) -> Element:
    """The sample row as an Element: its integers over ``denom``, as stored."""
    return Element(space, row.tolist(), denom)


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
    mode: str, thing, args: Sequence[Element], index: int, checked: int, decisive: bool = False
) -> CheckVerdict:
    lhs, rhs = identity_sides(thing, mode, args)
    if lhs == rhs:
        raise InvariantViolation("reported mismatch did not re-verify on the object path")
    return CheckVerdict(mode, False, checked, decisive, _payload(mode, index, list(args), lhs, rhs))


# -- the sampled-check driver ------------------------------------------------------


def _sampled_check(mode: str, thing, blocks, denom: int, int_sides, rows: int) -> CheckVerdict:
    """Check one identity on seeded int samples.

    Each block is an int array (samples, slots, columns) in units of
    1/``denom``; sample i is row i counted across the blocks, and its slots
    are the identity's arguments.  ``int_sides(chunk)`` returns both sides of
    the identity for consecutive samples of one block as comparable exact
    integer arrays, and ``rows`` is the size of the table it reads (tensor
    table rows or measure weights).  One failing sample decides an identity,
    so each block runs in chunks and the check returns at the first chunk
    with a mismatch: the first chunk holds ``_CHUNK_WORK // (rows * slots)``
    samples, at least one, and each later chunk 4x the one before.  A block
    inside that budget runs in one call.  The values are exact in either
    dtype, so the first failing sample, and with it the verdict, does not
    depend on the chunks.  ``int_sides=None`` runs the object sweep, every
    sample built as Elements and compared through `identity_sides`; only
    omega1 instances and ``force_object`` take it.
    """
    space = thing.space

    def args(block, i):
        return [_element(space, row, denom) for row in block[i]]

    if int_sides is not None:
        checked = 0
        for block in blocks:
            start, step = 0, max(_CHUNK_WORK // max(rows * block.shape[1], 1), 1)
            while start < len(block):
                bad = _first_diff(*int_sides(block[start : start + step]))
                if bad is not None:
                    index = start + bad
                    return _failure(mode, thing, args(block, index), checked + index, checked + index + 1)
                start, step = start + step, 4 * step
            checked += len(block)
        if mode in (OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT):
            # the int identities skip radical objects; recompute the first
            # samples through them so the fast route cannot drift from the
            # definition
            for i in range(min(3, len(blocks[0]))):
                lhs, rhs = identity_sides(thing, mode, args(blocks[0], i))
                if lhs != rhs:
                    raise InvariantViolation("vector path disagrees with radical evaluation")
        return CheckVerdict(mode, True, checked)
    samples = (args(block, i) for block in blocks for i in range(len(block)))
    for index, sample in enumerate(samples):
        lhs, rhs = identity_sides(thing, mode, sample)
        if lhs != rhs:
            return _failure(mode, thing, sample, index, index + 1)
    return CheckVerdict(mode, True, sum(len(block) for block in blocks))


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
    if mode == OS_DISJOINT and form.degree < 2:
        raise DegreeMismatchError("disjoint argument pairs need degree >= 2")
    if mode == OS_DIAGONAL:
        return _os_diagonal(form)
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(_seedseq(seed))
    blocks = [_os_draw(mode, rng, samples, form.space.n, form.degree)]
    if isinstance(form, GeneralMatrixForm) and mode == OS_DISJOINT:
        # basis pairs are decisive for a matrix; keep the sampled tail anyway
        blocks.insert(0, _basis_pairs(form.space.n))
    if force_object:
        return _sampled_check(mode, form, blocks, SCALE, None, 0)
    core, _ = dense_core(form)
    return _sampled_check(mode, form, blocks, SCALE, partial(_os_int_sides, core, mode), len(core))


def _os_diagonal(form: Form) -> CheckVerdict:
    off = form.off_diagonal_entries()
    if not off:
        return CheckVerdict(OS_DIAGONAL, True, 0, True)
    args = [Element.basis(form.space, t) for t in next(iter(off))]
    return _failure(OS_DIAGONAL, form, args, 0, 0, decisive=True)


def _os_draw(mode: str, rng: np.random.Generator, samples: int, n: int, m: int) -> np.ndarray:
    if mode == OS_J_IDENTITY:
        return _values(rng, (samples, m, n))
    if mode == OS_BILINEAR:
        return _values(rng, (samples, 2, n))
    # disjoint pair in the first two slots, free samples elsewhere
    pairs = _disjoint_pairs(rng, samples, n, m, positive=False)
    return np.concatenate([pairs, _values(rng, (samples, max(m - 2, 0), n))], axis=1)


def _basis_pairs(n: int) -> np.ndarray:
    """Every ordered pair (e_i, e_j), i != j, scaled by SCALE."""
    eye = SCALE * np.eye(n, dtype=np.int64)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    return np.stack([eye[i], eye[j]], axis=1)


def _os_int_sides(core: np.ndarray, mode: str, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lhs = form_eval_batch(core, block)
    if mode == OS_DISJOINT:
        return lhs, np.zeros_like(lhs)
    if mode == OS_J_IDENTITY:
        return lhs, form_eval_batch(core, -np.sort(-block, axis=1))
    x, y = block[:, 0, :], block[:, 1, :]
    return lhs, form_eval_batch(core, np.stack([np.maximum(x, y), np.minimum(x, y)], axis=1))


# -- orthogonal additivity ----------------------------------------------------------


class _PolyKernels:
    """The integer data of one polynomial, each piece built on first use.

    One object serves every mode of one check call and is dropped when the
    call returns, so `oa_mode_agreement` builds the integer arrangement
    table (`dense_core`) once.
    """

    def __init__(self, poly: Polynomial) -> None:
        self.poly = poly

    @cached_property
    def core(self) -> tuple[np.ndarray, int]:
        """(table, scale) of the symmetric form whose diagonal is P."""
        return dense_core(self.poly.rep if self.poly.kind == TENSOR else polarize(self.poly))

    @cached_property
    def weights(self) -> tuple[np.ndarray, int]:
        """(weights, scale) of a measure polynomial's measure."""
        return measure_weights(self.poly.rep)

    @property
    def rows(self) -> int:
        """Rows of the table `evaluate` reads: the core's for a tensor, the
        weights' for a measure."""
        return len(self.core[0]) if self.poly.kind == TENSOR else len(self.weights[0])

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """sum_j P(x_j) on a batch of stacks (S, k, n), or P on rows (S, n)."""
        if self.poly.kind == TENSOR:
            return poly_eval_batch(self.core[0], xs)
        return measure_poly_eval_batch(self.weights[0], self.poly.degree, xs)


def orthogonal_additivity_check(
    poly: Polynomial,
    mode: str,
    samples: int = 96,
    seed=0,
    force_object: bool = False,
) -> CheckVerdict:
    """Sample one of the seven equivalent characterisations of orthogonal
    additivity against the given polynomial."""
    return _oa_check(poly, mode, samples, seed, force_object, _PolyKernels(poly))


def oa_mode_agreement(poly: Polynomial, samples: int = 96, seed=0) -> dict[str, CheckVerdict]:
    """All seven sampled characterisations, seeded independently per mode."""
    children = _seedseq(seed).spawn(len(OA_MODES))
    kernels = _PolyKernels(poly)
    return {mode: _oa_check(poly, mode, samples, child, False, kernels) for mode, child in zip(OA_MODES, children)}


def _oa_check(
    poly: Polynomial, mode: str, samples: int, seed, force_object: bool, kernels: _PolyKernels
) -> CheckVerdict:
    if mode not in OA_MODES:
        raise ValueError(f"unknown orthogonal-additivity mode {mode!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(_seedseq(seed))
    blocks, denom = _oa_draw(mode, rng, samples, kernels)
    if force_object or not poly.space.is_finite:
        return _sampled_check(mode, poly, blocks, denom, None, 0)
    return _sampled_check(mode, poly, blocks, denom, partial(_oa_int_sides, mode, kernels), kernels.rows)


def _oa_draw(mode: str, rng: np.random.Generator, samples: int, kernels: _PolyKernels):
    """The seeded sample blocks of one mode and their denominator."""
    n, m = _columns(kernels.poly.space), kernels.poly.degree
    if mode in (OA_DISJOINT_ADD, OA_POSITIVE_CONE, OA_KRIVINE_SUM):
        # a positive disjoint pair's power-sum radical roots to x + y
        return [_disjoint_pairs(rng, samples, n, m, positive=mode != OA_DISJOINT_ADD)], SCALE
    if mode == OA_POS_NEG:
        return [_values(rng, (samples, 1, n))], SCALE
    if mode == OA_K_VALUATION:
        # tuples of k = 2, 3, 4 positive elements, drawn in that order
        sizes = {k: samples // 3 + (k == 2) * (samples % 3) for k in (2, 3, 4)}
        return [np.abs(_values(rng, (size, k, n))) for k, size in sizes.items()], SCALE
    if mode == OA_KRIVINE_PRODUCT:
        # factor a perfect m-th power pointwise: u = prod g_i, x_i = u g_i / g_{i+1},
        # so the product radical roots to u
        g = rng.integers(1, 4, size=(samples, m, n)).astype(np.int64)
        u = g.prod(axis=1)
        return [np.stack([(u // g[:, (i + 1) % m, :]) * g[:, i, :] for i in range(m)], axis=1)], 1
    # valuation: positive pairs
    xs = np.abs(_values(rng, (samples, n)))
    ys = np.abs(_values(rng, (samples, n)))
    return [np.stack([xs, ys], axis=1)], SCALE


def _oa_int_sides(mode: str, kernels: _PolyKernels, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of one mode's identity on an int block, in one common scale;
    each side sums P over a stack of rows in one kernel call."""
    P = kernels.evaluate
    if mode == OA_K_VALUATION:
        return P(-np.sort(-block, axis=1)), P(block)
    if mode == OA_KRIVINE_PRODUCT:
        return _krivine_product_sides(kernels, block)
    if mode == OA_POS_NEG:
        # (-1)^m P(x^-) = P(-x^-) = P(x meet 0)
        x = block[:, 0, :]
        return P(x), P(np.stack([np.maximum(x, 0), np.minimum(x, 0)], axis=1))
    xs, ys = block[:, 0, :], block[:, 1, :]
    if mode == OA_VALUATION:
        return P(np.stack([np.maximum(xs, ys), np.minimum(xs, ys)], axis=1)), P(block)
    # disjoint additivity, the positive cone, and the power-sum radical of a
    # positive disjoint pair, which roots to x + y
    return P(xs + ys), P(block)


def _krivine_product_sides(kernels: _PolyKernels, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P((x_1 .. x_m)^(1/m)) against A(x_1, .., x_m), A the polarisation."""
    core, _ = kernels.core
    rhs = form_eval_batch(core, block)
    # the dtype of rhs bounds every product of a row's m values; the rows
    # factor a perfect m-th power u**m, u a product of m values in {1, 2, 3}:
    # few distinct products, each rooted exactly once
    product = block.astype(rhs.dtype, copy=False).prod(axis=1)
    values, inverse = np.unique(product, return_inverse=True)
    roots = [_int_root(int(value), kernels.poly.degree) for value in values]
    if None in roots:
        raise InvariantViolation("row product is not an exact m-th power")
    u = np.array(roots, dtype=product.dtype)[inverse].reshape(product.shape)
    return poly_eval_batch(core, u), rhs
