"""Decisive and sampled checks.

Orthosymmetry of multilinear forms and orthogonal additivity of polynomials
each admit one structural criterion (no off-diagonal mass) and a family of
sampled identities.  The sampled checks draw seeded instances, prepend a
deterministic sweep of scaled basis pairs that provably catches any order-2
mixed entry, and compare both sides exactly.

On finite spaces the samples are multiples of 1/12 (the `sampling` grammar:
numerators in [-9, 9] over {1, 2, 3, 4}); every identity checked here is
invariant under a common positive scaling, so the comparisons run on the
scaled integers through the exact batch kernels of `_intpath`, on int64 when
their overflow bound allows and on Python ints otherwise.  The kernels and
the object path consume the same seeded arrays, and `os_identity_sides` /
`oa_identity_sides` recompute any reported counterexample from its
serialised arguments alone.

Every sampled check draws its arguments as int arrays and runs through one
driver, `_sampled_check`.  `Element`s are built from those arrays only
where the object path reads them: the first failing sample, which
`_failure` re-verifies; the first three samples of a passing Krivine
check, which are spot-checked through genuine radical elements; and every
sample when the object sweep runs, which it does only for omega1, under
``force_object`` and for multilinear values left to the DP.  The object
path evaluates in integers: P and A give (numerator, denominator) pairs,
not reduced (`Polynomial.evaluate_ratio`, `Form.evaluate_ratio`), each
side of an identity is summed over a common denominator (`_oa_ratios`,
`_os_ratios`), and the sweep and the spot checks compare the two sides by
cross-multiplication (`_agrees`).  A Fraction is built only for a
counterexample: `identity_sides` reduces both sides for `_failure`'s
payload and for replay.  The Krivine modes draw
alike for every polynomial: positive disjoint pairs, whose power-sum
radical roots to x + y, and perfect-power tuples x_i = u g_i / g_{i+1},
whose product radical roots to u.  So every radical roots exactly, and the int path compares P at the
root, read from the polynomial's weighted rows, with the right side.  An `Element`
stores its row as integers over one denominator, so a sample row enters it
as drawn, with its block's denominator, and no Fraction is built per
value; the object sweep converts each block to Python int rows with one
``tolist`` and builds every sample's Elements from those rows over the
identity's own denominator (1 for the Krivine product, `SCALE` otherwise),
through `lattice._element`, which skips the checks the public constructor
makes on outside input.
Symmetric tensors and matrix forms are both `tensors.Form`s, with one row
per entry that the exact evaluator and the int table
(`_intpath.diagonal_core`) read alike, for P and for a multilinear value.
A measure's table, one diagonal row per atom, has the same layout, so P
runs on one kernel for either kind.  A multilinear value reads a tensor's
rows of weight > 1 by polarisation, 2^(m-1) signed rows per sample; an
identity for which that is slower than the exact reference's DP
(`_polarises`) runs the object sweep, as omega1 and ``force_object`` do.
omega1 samples come from the same arrays: each row, the values at points
1..6 and then the tail, is an `Element` row as it stands.

One failing sample decides an identity, so the driver hands the kernels
each block in chunks and stops at the first chunk with a mismatch.  The
first chunk is sized by kernel work against the fixed budget
`_intpath._CHUNK_WORK` = 2**13 entries (samples x the table's weight sum x
argument slots), about what one kernel call's fixed cost would gather, so
an identity that fails in its first samples pays for little more than one
call; each later chunk is 4x the one before, and a block inside the budget
runs in one chunk.  The driver takes a list of identities and works in
rounds: each identity still open hands in its next chunk, and an OA
identity's sides are stacks (S, k, n) of rows whose P-values are summed per
sample.  The round's stacks are grouped by depth k and each depth is
evaluated in one kernel call, or in as few as keep every call within its
own budget, `_intpath._CALL_WORK` = 2**16 entries gathered (stack rows x
products P sums per row x m); a stack already past that budget runs alone.
So `oa_mode_agreement` evaluates its seven modes in about five kernel calls
on a small polynomial, and every mode still reads the samples, the first
failure and the verdict its own check gives.
Every check builds its int table once and reads it in every chunk.  A
form's table is built from its scaled rows, which `tensors` keeps for the
last form read, so the checks that follow on the same form, and its exact
re-verifications, list its rows no more; a measure's from its weights.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from ._intpath import (
    _BYTE_CAP,
    _CALL_WORK,
    _CHUNK_WORK,
    INT64_LIMIT,
    diagonal_core,
    form_eval_batch,
    polarised_work,
    poly_eval_batch,
)
from .errors import DegreeMismatchError, InvariantViolation
from .jsonio import element_to_obj
from .lattice import (
    Element,
    Space,
    _element as _build_element,
    _int_root,
    decreasing_rearrangements,
    krivine_radical,
)
from .polynomials import TENSOR, Polynomial
from .sampling import DENOMINATORS, NUMERATOR_BOUND
from .tensors import Form, GeneralMatrixForm, dp_steps

SCALE = math.lcm(*DENOMINATORS)  # 12, every sample value is a multiple of 1/SCALE

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

# one side of an identity as integers (numerator, denominator), not reduced
_Ratio = tuple[int, int]


def _sum(ratios) -> _Ratio:
    """The sum of integer ratios over a common denominator: a term over the
    denominator so far adds its numerator, any other cross-multiplies."""
    num, den = 0, 1
    for n, d in ratios:
        if d == den:
            num += n
        else:
            num, den = num * d + n * den, den * d
    return num, den


def _os_ratios(form: Form, mode: str, args: Sequence[Element]) -> tuple[_Ratio, _Ratio]:
    """Both sides of one orthosymmetry identity at explicit arguments, as
    integer ratios."""
    lhs = form.evaluate_ratio(list(args))
    if mode in (OS_DIAGONAL, OS_DISJOINT):
        return lhs, (0, 1)
    if mode == OS_J_IDENTITY:
        return lhs, form.evaluate_ratio(decreasing_rearrangements(list(args)))
    if mode == OS_BILINEAR:
        if form.degree != 2:
            raise DegreeMismatchError("the join/meet identity is an order-2 check")
        x, y = args
        return lhs, form.evaluate_ratio([x.join(y), x.meet(y)])
    raise ValueError(f"unknown orthosymmetry mode {mode!r}")


def _oa_ratios(poly: Polynomial, mode: str, args: Sequence[Element]) -> tuple[_Ratio, _Ratio]:
    """Both sides of one orthogonal-additivity identity at explicit
    arguments, as integer ratios, each side's P-values summed over a common
    denominator; Krivine modes through genuine radical elements."""
    m, P = poly.degree, poly.evaluate_ratio
    arity = _ARITY.get(mode)
    if arity is not None and len(args) != arity:
        raise DegreeMismatchError(f"{mode} expects {arity} arguments, got {len(args)}")
    if mode in (OA_DISJOINT_ADD, OA_POSITIVE_CONE):
        x, y = args
        return P(x + y), _sum([P(x), P(y)])
    if mode == OA_POS_NEG:
        (x,) = args
        neg, den = P(x.neg_part())
        return P(x), _sum([P(x.pos_part()), (-neg if m % 2 else neg, den)])
    if mode == OA_VALUATION:
        x, y = args
        return _sum([P(x.join(y)), P(x.meet(y))]), _sum([P(x), P(y)])
    if mode == OA_K_VALUATION:
        return _sum(map(P, decreasing_rearrangements(list(args)))), _sum(map(P, args))
    if mode == OA_KRIVINE_SUM:
        x, y = args
        return P(krivine_radical("power-sum", m, [x, y])), _sum([P(x), P(y)])
    if mode == OA_KRIVINE_PRODUCT:
        radical = krivine_radical("product", m, list(args))
        rhs = poly.rep.evaluate_ratio(list(args)) if poly.kind == TENSOR else poly.rep.integrate_ratio(radical.base)
        return P(radical), rhs
    raise ValueError(f"unknown orthogonal-additivity mode {mode!r}")


def _agrees(thing, mode: str, args: Sequence[Element]) -> bool:
    """Whether both sides of the identity ``mode`` names are equal at
    ``args``: `_os_ratios` for an orthosymmetry mode, `_oa_ratios` otherwise
    (the names are disjoint), compared by cross-multiplication, the
    denominators being positive; no Fraction is built."""
    (ln, ld), (rn, rd) = (_os_ratios if mode in OS_MODES else _oa_ratios)(thing, mode, args)
    return ln * rd == rn * ld


def os_identity_sides(form: Form, mode: str, args: Sequence[Element]) -> tuple[Fraction, Fraction]:
    """Both sides of one orthosymmetry identity at explicit arguments."""
    lhs, rhs = _os_ratios(form, mode, args)
    return Fraction(*lhs), Fraction(*rhs)


def oa_identity_sides(poly: Polynomial, mode: str, args: Sequence[Element]) -> tuple[Fraction, Fraction]:
    """Both sides of one orthogonal-additivity identity at explicit
    arguments, Krivine modes through genuine radical elements."""
    lhs, rhs = _oa_ratios(poly, mode, args)
    return Fraction(*lhs), Fraction(*rhs)


def identity_sides(thing, mode: str, args: Sequence[Element]) -> tuple[Fraction, Fraction]:
    """Both sides of the identity ``mode`` names: `os_identity_sides` for an
    orthosymmetry mode, `oa_identity_sides` otherwise (the names are
    disjoint)."""
    return (os_identity_sides if mode in OS_MODES else oa_identity_sides)(thing, mode, args)


# -- seeded sample construction ---------------------------------------------------

_DEN_STEP = np.array([SCALE // d for d in DENOMINATORS], dtype=np.int64)
_OMEGA_PREFIX = 6


def _seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _values(rng: np.random.Generator, shape) -> np.ndarray:
    num = rng.integers(-NUMERATOR_BOUND, NUMERATOR_BOUND + 1, size=shape)
    den = rng.integers(0, len(DENOMINATORS), size=shape)
    return num * _DEN_STEP[den]


def _masks(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, n) support masks, none empty or full once n > 1: one int64
    draw per row up to 63 points, past them a bit per point, bad rows redrawn."""
    if n == 1:
        bits = rng.integers(0, 2, size=count)
    elif n < 64:
        bits = rng.integers(1, 2**n - 1, size=count)
    else:
        masks = rng.integers(0, 2, size=(count, n)).astype(bool)
        while (redraw := masks.all(axis=1) | ~masks.any(axis=1)).any():
            masks[redraw] = rng.integers(0, 2, size=(int(redraw.sum()), n)).astype(bool)
        return masks
    return ((bits[:, None] >> np.arange(n)) & 1).astype(bool)


def _ratio_grid(m: int) -> list[tuple[int, int]]:
    # realises at least m-1 distinct nonzero ratios b/a
    return [(1, 1)] + [(1, b) for b in range(2, m + 1)] + [(a, 1) for a in range(2, m + 1)]


def structured_pair_count(n: int, m: int) -> int:
    """Length of the deterministic disjoint-pair sweep; sampled disjointness
    checks need at least this many samples to stay provably decisive for
    order-2 mixed entries."""
    return (n * (n - 1) // 2) * len(_ratio_grid(m))


@lru_cache
def _sweep(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The scaled-basis-pair sweep on n points as read-only arrays (x column,
    x value, y column, y value), one entry per row: row r is point pair
    r // len(grid) in row-major (s, t) order, scaled by ratio r % len(grid)."""
    firsts, seconds = np.triu_indices(n, 1)
    grid = SCALE * np.array(_ratio_grid(m), dtype=np.int64)
    pair, ratio = np.divmod(np.arange(len(firsts) * len(grid)), len(grid))
    sweep = (firsts[pair], grid[ratio, 0], seconds[pair], grid[ratio, 1])
    for array in sweep:
        array.flags.writeable = False
    return sweep


def _disjoint_pairs(rng, samples: int, n: int, m: int, positive: bool) -> np.ndarray:
    """Pairs (x, y) with pointwise-disjoint supports as one (samples, 2, n)
    block; the scaled-basis-pair sweep comes first, seeded masks after."""
    pairs = np.zeros((samples, 2, n), dtype=np.int64)
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]  # views: writes land in pairs
    x_column, x_value, y_column, y_value = (array[:samples] for array in _sweep(n, m))
    row = len(x_column)
    xs[np.arange(row), x_column] = x_value
    ys[np.arange(row), y_column] = y_value
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
    """The sample row as an Element: its integers over ``denom``, as stored,
    built without the outside-input checks."""
    return _build_element(space, row.tolist(), denom)


def _first_diff(lhs: np.ndarray, rhs: np.ndarray) -> int | None:
    bad = np.nonzero(lhs != rhs)[0]
    return int(bad[0]) if bad.size else None


def _payload(mode: str, index: int, args: Sequence[Element], lhs: Fraction, rhs: Fraction) -> dict:
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


@dataclass(frozen=True)
class _Identity:
    """One sampled identity as the driver reads it.

    Each block is an int array (samples, slots, columns) in units of
    1/``denom``; sample i is row i counted across the blocks, and its slots
    are the identity's arguments.  ``sides(chunk)`` gives both sides of the
    identity for consecutive samples of one block, each either exact values
    (S,) or a stack (S, k, n) whose P-values the driver sums per sample;
    ``rows`` is the weight sum of the table the sides read and sizes the
    chunks.  ``sides=None`` runs the object sweep.
    """

    mode: str
    thing: Form | Polynomial
    blocks: list[np.ndarray]
    denom: int
    sides: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    rows: int = 0

    def args(self, sample: np.ndarray) -> list[Element]:
        return [_element(self.thing.space, row, self.denom) for row in sample]


def _chunks(identity: _Identity):
    """(index of its first sample, chunk) over the blocks in order: the first
    chunk of a block holds ``_CHUNK_WORK // (rows * slots)`` samples (2**13
    entries gathered), at least one, and each later chunk 4x the one
    before."""
    offset = 0
    for block in identity.blocks:
        start, step = 0, max(_CHUNK_WORK // max(identity.rows * block.shape[1], 1), 1)
        while start < len(block):
            yield offset + start, block[start : start + step]
            start, step = start + step, 4 * step
        offset += len(block)


def _sampled_check(identities: Sequence[_Identity], kernels: _PolyKernels | None = None) -> list[CheckVerdict]:
    """Check identities on seeded int samples, one verdict each.

    The driver works in rounds: every identity still open hands in the
    sides of its next chunk (`_chunks`), the round's stacks are evaluated by
    depth k, one ``kernels.evaluate`` call per depth unless `_kernel_calls`
    splits it to keep each call within ``_CALL_WORK`` entries gathered,
    and each identity reads its own slice.  At its first mismatch
    `_failure` re-verifies the sample on the object path; when its blocks
    run out it passes, the Krivine modes after three radical spot checks.
    The values are exact in either dtype, so the verdict depends neither on
    the chunks nor on what shares a call.  Identities without ``sides``
    (omega1 instances, ``force_object``, multilinear values `_polarises`
    leaves to the DP) run the object sweep, each sample
    built as Elements and compared through `_agrees`.
    """
    verdicts = {i: _object_sweep(identity) for i, identity in enumerate(identities) if identity.sides is None}
    schedules = {i: _chunks(identity) for i, identity in enumerate(identities) if identity.sides is not None}
    while schedules:
        chunks, sides = {}, []
        for i, schedule in list(schedules.items()):
            chunk = next(schedule, None)
            if chunk is None:
                verdicts[i] = _passed(identities[i])
                del schedules[i]
            else:
                chunks[i] = chunk
                sides += identities[i].sides(chunk[1])
        values = _evaluated(kernels, sides)
        for (i, (offset, chunk)), lhs, rhs in zip(chunks.items(), values[0::2], values[1::2]):
            bad = _first_diff(lhs, rhs)
            if bad is not None:
                identity, index = identities[i], offset + bad
                verdicts[i] = _failure(identity.mode, identity.thing, identity.args(chunk[bad]), index, index + 1)
                del schedules[i]
    return [verdicts[i] for i in range(len(identities))]


def _evaluated(kernels: _PolyKernels | None, sides: list[np.ndarray]) -> list[np.ndarray]:
    """Every side as values (S,): a stack (S, k, n) becomes sum_j P(x_j) per
    sample, stacks of one depth concatenated into the calls that
    `_kernel_calls` packs within ``_CALL_WORK`` entries gathered each, a
    budget larger than a first chunk's so that a round's chunks still fuse."""
    out = list(sides)
    stacks = sorted((side.shape[1], i) for i, side in enumerate(sides) if side.ndim == 3)
    if not stacks:
        return out
    per_row = kernels.terms * kernels.poly.degree  # entries gathered per stack row
    for call in _kernel_calls([(i, k, len(sides[i]) * k * per_row) for k, i in stacks]):
        values = kernels.evaluate(np.concatenate([sides[i] for i in call]))
        start = 0
        for i in call:
            out[i] = values[start : start + len(sides[i])]
            start += len(sides[i])
    return out


def _kernel_calls(stacks: list[tuple[int, int, int]]):
    """Runs of consecutive (index, depth, work) stacks of one depth whose
    summed work (entries gathered) stays within ``_CALL_WORK``; a stack
    past that budget alone is a run of its own."""
    call, depth, total = [], None, 0
    for i, k, work in stacks:
        if call and (k != depth or total + work > _CALL_WORK):
            yield call
            call, total = [], 0
        call.append(i)
        depth, total = k, total + work
    if call:
        yield call


def _passed(identity: _Identity) -> CheckVerdict:
    """The passing verdict of an identity whose samples ran out.  The int
    identities of the Krivine modes skip radical objects, so the first
    three samples are recomputed through them, and the fast route cannot
    drift from the definition: both sides as integer ratios, compared by
    cross-multiplication (`_agrees`), no Fraction built."""
    if identity.mode in (OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT):
        for sample in identity.blocks[0][:3]:
            if not _agrees(identity.thing, identity.mode, identity.args(sample)):
                raise InvariantViolation("vector path disagrees with radical evaluation")
    return CheckVerdict(identity.mode, True, sum(len(block) for block in identity.blocks))


def _object_sweep(identity: _Identity) -> CheckVerdict:
    """Every sample through `_agrees` as Elements: both sides as integer
    ratios compared by cross-multiplication, so a passing sample builds no
    Fraction, and only a failing one goes on to `_failure`.  Each block is
    converted to Python int rows by one ``tolist``, and each sample's
    Elements are built from those rows over the identity's denominator."""
    space, denom = identity.thing.space, identity.denom
    blocks = (block.tolist() for block in identity.blocks)
    samples = ([_build_element(space, row, denom) for row in sample] for block in blocks for sample in block)
    for index, args in enumerate(samples):
        if not _agrees(identity.thing, identity.mode, args):
            return _failure(identity.mode, identity.thing, args, index, index + 1)
    return CheckVerdict(identity.mode, True, sum(len(block) for block in identity.blocks))


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
    core = None if force_object else diagonal_core(form)[0]
    if core is None or not _polarises(core, form.space.n):
        identity = _Identity(mode, form, blocks, SCALE)
    else:
        identity = _Identity(mode, form, blocks, SCALE, partial(_os_int_sides, core, mode), _weight_sum(core))
    (verdict,) = _sampled_check([identity])
    return verdict


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


def _weight_sum(core: np.ndarray) -> int:
    """The weights of a table's rows summed: the arrangements its entries
    stand for, which size a check's chunks."""
    return int(core[:, -1].sum())


# A sampled check reads a table's multilinear values on the polarised
# kernel within 16 signed rows per sample (m <= 5, which covers every tensor
# the benchmark's workloads read).  Past them it reads a
# table while the entries the kernel gathers per sample stay within 6 times
# the steps the object sweep takes per sample: the exact reference's DP
# steps (`tensors.dp_steps`) for the rows of weight > 1, and 16 steps for
# each of the m * n argument values it builds, rearranges and reads.  Fitted
# on the 144 tensors of `check orthosymmetry` at n 4 to 40, m 6 to 12 (2-CPU
# VM): 1.93 s on the paths this picks, 1.65 s on the faster path of each
# tensor, 3.0 s all on the object sweep, 3.5 s all on the kernel.
_SIGNED_ROWS = 16
_DP_RATIO = 6
_VALUE_STEPS = 16


def _polarises(core: np.ndarray, n: int) -> bool:
    """Whether a sampled check reads the multilinear values of this table,
    on n points, on the kernel (`polarised_work`) rather than on the object
    sweep; a table without rows of weight > 1 always."""
    m = core.shape[1] - 2
    work = polarised_work(core, n)
    if work == 0 or 2 ** (m - 1) <= _SIGNED_ROWS:
        return work <= _BYTE_CAP
    steps = sum(dp_steps(tuple(row[:m])) for row in core.tolist() if row[m + 1] > 1)
    return work <= min(_BYTE_CAP, _DP_RATIO * (steps + _VALUE_STEPS * m * n))


class _PolyKernels:
    """The integer table of one polynomial, measure or tensor, built on
    first use (`diagonal_core`): P reads its rows (`poly_eval_batch`), and
    so does A(x_1, .., x_m) for the Krivine product (`form_eval_batch`).

    One object serves every mode of one check call and is dropped when the
    call returns, so `oa_mode_agreement` builds the integer table once.
    """

    def __init__(self, poly: Polynomial) -> None:
        self.poly = poly

    @cached_property
    def _core(self) -> tuple[np.ndarray, int]:
        return diagonal_core(self.poly.rep, self.poly.degree)

    @cached_property
    def rows(self) -> int:
        """The table's weight sum, which sizes the chunks."""
        return _weight_sum(self._core[0])

    @property
    def terms(self) -> int:
        """Terms P sums per row, each a product of m values: the table's rows."""
        return len(self._core[0])

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """sum_j P(x_j) on a batch of stacks (S, k, n), or P on rows (S, n)."""
        return poly_eval_batch(self._core[0], xs)


def orthogonal_additivity_check(
    poly: Polynomial,
    mode: str,
    samples: int = 96,
    seed=0,
    force_object: bool = False,
) -> CheckVerdict:
    """Sample one of the seven equivalent characterisations of orthogonal
    additivity against the given polynomial."""
    kernels = _PolyKernels(poly)
    (verdict,) = _sampled_check([_oa_identity(mode, samples, seed, force_object, kernels)], kernels)
    return verdict


def oa_mode_agreement(poly: Polynomial, samples: int = 96, seed=0) -> dict[str, CheckVerdict]:
    """All seven sampled characterisations, seeded independently per mode
    and checked together."""
    children = _seedseq(seed).spawn(len(OA_MODES))
    kernels = _PolyKernels(poly)
    identities = [_oa_identity(mode, samples, child, False, kernels) for mode, child in zip(OA_MODES, children)]
    return dict(zip(OA_MODES, _sampled_check(identities, kernels)))


def _oa_identity(mode: str, samples: int, seed, force_object: bool, kernels: _PolyKernels) -> _Identity:
    if mode not in OA_MODES:
        raise ValueError(f"unknown orthogonal-additivity mode {mode!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    poly = kernels.poly
    rng = np.random.default_rng(_seedseq(seed))
    blocks, denom = _oa_draw(mode, rng, samples, kernels)
    if force_object or not poly.space.is_finite or (mode == OA_KRIVINE_PRODUCT and not _polarises(kernels._core[0], poly.space.n)):
        return _Identity(mode, poly, blocks, denom)
    return _Identity(mode, poly, blocks, denom, partial(_oa_int_sides, mode, kernels), kernels.rows)


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
        # so the product radical roots to u; x_i is built by products alone, g_i
        # times the products of the g_j before and after j = i + 1; with g_i in
        # {1, 2, 3} every x_i is at most 3 ** (m + 1), so g holds Python ints once
        # that passes the int64 bound
        g = rng.integers(1, 4, size=(samples, m, n)).astype(np.int64 if 3 ** (m + 1) < INT64_LIMIT else object)
        cols = [g[:, i, :] for i in range(m)]
        before = list(accumulate(cols[:-1], operator.mul, initial=1))  # before[k] = prod_{j < k} g_j
        after = list(accumulate(cols[:0:-1], operator.mul, initial=1))[::-1]  # after[k] = prod_{j > k} g_j
        return [np.stack([cols[i] * before[(i + 1) % m] * after[(i + 1) % m] for i in range(m)], axis=1)], 1
    # valuation: positive pairs
    xs = np.abs(_values(rng, (samples, n)))
    ys = np.abs(_values(rng, (samples, n)))
    return [np.stack([xs, ys], axis=1)], SCALE


def _oa_int_sides(mode: str, kernels: _PolyKernels, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of one mode's identity on an int block, in one common
    scale, as stacks (S, k, n) for the driver to sum P over; the Krivine
    product's form side comes as values."""
    if mode == OA_K_VALUATION:
        return -np.sort(-block, axis=1), block
    if mode == OA_KRIVINE_PRODUCT:
        return _krivine_product_sides(kernels, block)
    if mode == OA_POS_NEG:
        # (-1)^m P(x^-) = P(-x^-) = P(x meet 0)
        x = block[:, 0, :]
        return block, np.stack([np.maximum(x, 0), np.minimum(x, 0)], axis=1)
    xs, ys = block[:, 0, :], block[:, 1, :]
    if mode == OA_VALUATION:
        return np.stack([np.maximum(xs, ys), np.minimum(xs, ys)], axis=1), block
    # disjoint additivity, the positive cone, and the power-sum radical of a
    # positive disjoint pair, which roots to x + y
    return (xs + ys)[:, None, :], block


def _krivine_product_sides(kernels: _PolyKernels, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stack of roots (x_1 .. x_m)^(1/m), whose P-values are the left
    side, and the values A(x_1, .., x_m), A the polarisation."""
    rhs = form_eval_batch(kernels._core[0], block)
    # the dtype of rhs bounds every product of a row's m values; the rows
    # factor a perfect m-th power u**m, u a product of m values in {1, 2, 3}:
    # few distinct products, each rooted exactly once
    product = block.astype(rhs.dtype, copy=False).prod(axis=1)
    values, inverse = np.unique(product, return_inverse=True)
    roots = [_int_root(int(value), kernels.poly.degree) for value in values]
    if None in roots:
        raise InvariantViolation("row product is not an exact m-th power")
    u = np.array(roots, dtype=product.dtype)[inverse].reshape(product.shape)
    return u[:, None, :], rhs
