"""Exact batch evaluation on integer arrays.

Identities checked by the sampled suites are homogeneous, so every instance
is scaled to integers by its common denominator and batch-evaluated with
NumPy over one table layout, a row of m points, a scaled coefficient and a
weight per term.  A form's rows are those its exact reference reads
(`tensors._scaled_rows`): every arrangement for the multilinear kernel
(`dense_core`), one weighted row per entry for P (`diagonal_core`).  A
measure's table, one diagonal row per atom, is that of its polarisation, so
P runs on one kernel (`poly_eval_batch`) for both kinds, and only the table
builders tell them apart.  A kernel gathers each row's points from the
arguments and multiplies, O(S * rows * m) for S samples; the P kernel sums
over a stack of k rows per sample, so each side of an identity between sums
of P-values is one call.  The kernel, not its caller, bounds that sum in
exact Python integers: int64 below `INT64_LIMIT`, otherwise `dtype=object`
arrays of Python ints, the same gather at any size, over chunks of samples
that fit a byte budget.  The reference the checks compare against stays
`Form.evaluate` (with `SymTensor.evaluate_diagonal`) and
`Measure.integrate`, exact and independent of NumPy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import product

import numpy as np

from .measures import Measure
from .tensors import Form, SymTensor, _scaled_rows, nondecreasing_indices

INT64_LIMIT = 2**62
_BYTE_CAP = 2**27  # largest array one gather may allocate (128 MiB)
# gathered entries (samples x table rows x argument slots) in the first
# chunk of a sampled check's block; later chunks grow 4x
_CHUNK_WORK = 2**16


def dense_core(rep: Form | Measure, degree: int | None = None) -> tuple[np.ndarray, int]:
    """(table, scale): every arrangement row of a finite form, as its exact
    evaluator sums them, in one integer array (rows, m + 2) (`_table`);
    `form_eval_batch` reads it; a measure's rows have no other arrangement
    (`diagonal_core`).  The name is older than the table; callers and
    benchmark traces know it."""
    if isinstance(rep, Measure):
        return diagonal_core(rep, degree)
    return _table(_scaled_rows(rep, arranged=True), 0, rep.degree)


def diagonal_core(rep: Form | Measure, degree: int | None = None) -> tuple[np.ndarray, int]:
    """(table, scale) of the weighted rows alone, one per entry, laid out as
    `dense_core`: the rows P(x) = A(x, .., x) reads (`poly_eval_batch`).  A
    measure, which has no degree, takes P's ``degree`` and gives one row
    [t - 1]*m + [w_t, 1] per atom t, in the dtype of `measure_weights`."""
    if isinstance(rep, Measure):
        weights, scale = measure_weights(rep)
        rows = [(*[column] * degree, w, 1) for column, w in enumerate(weights.tolist()) if w]
        return np.array(rows, dtype=weights.dtype).reshape(len(rows), degree + 2), scale
    return _table(_scaled_rows(rep), 1, rep.degree)


def _table(slot: list, which: int, degree: int) -> tuple[np.ndarray, int]:
    """(table, scale) of the rows ``slot[which]`` of a `_scaled_rows` slot
    (m points, scaled coefficient, weight), built once into ``slot[3 +
    which]``, read-only; int64 only while the sum over rows of |coeff| *
    max(weight, 1) stays below `INT64_LIMIT`, so no int64 sum over its
    coefficients, or coefficients times weights, can wrap."""
    table = slot[3 + which]
    if table is None:
        rows = slot[which]
        mass = sum([abs(c) * (w or 1) for _, c, w in rows])  # weights are >= 0
        dtype = np.int64 if mass < INT64_LIMIT else object
        table = np.array([(*p, c, w) for p, c, w in rows], dtype=dtype).reshape(len(rows), degree + 2)
        table.flags.writeable = False
        slot[3 + which] = table
    return table, slot[2]


def measure_weights(mu: Measure) -> tuple[np.ndarray, int]:
    """Atom weights of a measure on a finite space as an integer vector
    times their common denominator, read from the measure's own integer
    weights; int64, as for `dense_core`, when the sum of their magnitudes
    stays below `INT64_LIMIT`."""
    points, scaled, scale = mu._integer_weights()
    vec = np.zeros(mu.space.n, dtype=np.int64 if sum(map(abs, scaled)) < INT64_LIMIT else object)
    for point, w in zip(points, scaled):
        vec[point - 1] = w
    return vec, scale


def _guard(mass: int, max_abs: int, degree: int, k: int) -> tuple[type, int]:
    """(dtype, bytes per entry) of a batch that sums, per sample, k values
    each at most max_abs**degree times coefficients of total magnitude
    ``mass``.  The sum, not each value, has to stay inside the int64 bound;
    past it, an entry is a pointer plus a Python int of the bound's size."""
    bound = k * max(mass, 1) * max(max_abs, 1) ** degree
    if bound < INT64_LIMIT:
        return np.int64, 8
    return object, 8 + sys.getsizeof(bound)


def _gather_product(
    points: np.ndarray, coeffs: np.ndarray, slots: list[np.ndarray], max_abs: int, k: int = 1
) -> np.ndarray:
    """sum over rows r of coeffs[r] * prod_i slots[i][:, points[r, i]] for
    (S, n) int slots whose entries are at most max_abs in magnitude, in a
    dtype that also holds the sum of k such values."""
    # the table's dtype bounds this sum, so it cannot wrap
    dtype, itemsize = _guard(int(np.abs(coeffs).sum()), max_abs, len(slots), k)
    size, step = slots[0].shape[0], max(_BYTE_CAP // (itemsize * max(len(coeffs), 1)), 1)
    if step < size:  # each gathered (samples, rows) factor must fit the byte budget
        parts = ([x[start : start + step] for x in slots] for start in range(0, size, step))
        return np.concatenate([_gather_product(points, coeffs, part, max_abs, k) for part in parts])
    points, coeffs = points.astype(np.intp, copy=False), coeffs.astype(dtype, copy=False)
    out = slots[0][:, points[:, 0]].astype(dtype, copy=False)
    for x, column in zip(slots[1:], points.T[1:]):
        out *= x[:, column].astype(dtype, copy=False)
    return out @ coeffs


def form_eval_batch(core: np.ndarray, args: np.ndarray) -> np.ndarray:
    """A(x_1,..,x_m) for a batch: core from `dense_core`, args (S, m, n) -> (S,)."""
    m = args.shape[1]
    slots = list(args.transpose(1, 0, 2))
    return _gather_product(core[:, :m], core[:, m], slots, int(np.abs(args).max(initial=0)))


def poly_eval_batch(core: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_j P(x_j), P(x) = A(x,..,x), for a batch over a table of weighted
    rows (`diagonal_core`; a row of weight 0 adds nothing): xs (S, k, n) ->
    (S,), with (S, n) read as k = 1.  The dtype bounds the whole sum."""
    size, k, n = xs.shape if xs.ndim == 3 else (len(xs), 1, xs.shape[1])
    flat = xs.reshape(size * k, n)
    m = core.shape[1] - 2
    return _gather_product(
        core[:, :m], core[:, m] * core[:, m + 1], [flat] * m, int(np.abs(flat).max(initial=0)), k
    ).reshape(size, k).sum(axis=1)


def measure_poly_eval_batch(weights: np.ndarray, degree: int, xs: np.ndarray) -> np.ndarray:
    """sum_j P(x_j), P(x) = sum_t w_t x(t)^m, for a batch: xs (S, k, n) ->
    (S,), with (S, n) read as k = 1; the dtype bounds the whole sum.
    Unused: P of a measure runs on `poly_eval_batch(diagonal_core(...))`.
    It stays only while perfbench/worker.py traces it by name."""
    stack = xs if xs.ndim == 3 else xs[:, None, :]
    # the stack is powered and summed before the dot; the weights' dtype bounds their sum
    dtype, _ = _guard(int(np.abs(weights).sum()), int(np.abs(stack).max(initial=0)), degree, stack.shape[1])
    return (stack.astype(dtype) ** degree).sum(axis=1) @ weights.astype(dtype, copy=False)


def polarize_tensor_int(tensor: SymTensor) -> dict[tuple[int, ...], Fraction]:
    """Sign-sum polarisation computed from diagonal evaluations only."""
    n, m = tensor.space.n, tensor.degree
    signs = np.array(list(product((1, -1), repeat=m)), dtype=np.int64)
    signs = signs[np.argsort(-signs.prod(axis=1), kind="stable")]  # even half first
    half = len(signs) // 2
    core, scale = diagonal_core(tensor)
    alphas = list(nondecreasing_indices(n, m))
    points = np.array(alphas, dtype=np.intp).reshape(-1, m) - 1
    totals = []
    step = max(_BYTE_CAP // (8 * len(signs) * n), 1)  # alphas per block of sign vectors
    for start in range(0, len(points), step):
        block = points[start : start + step]
        # vectors[a, s] = sum_i signs[s, i] * e_{block[a, i]}; no (a, s) repeats within one slot
        vectors = np.zeros((len(block), len(signs), n), dtype=np.int64)
        for i in range(m):
            vectors[np.arange(len(block))[:, None], np.arange(len(signs)), block[:, i, None]] += signs[:, i]
        # each half's sum stays below INT64_LIMIT in int64, so the difference cannot wrap
        totals.extend(poly_eval_batch(core, vectors[:, :half]) - poly_eval_batch(core, vectors[:, half:]))
    denominator = scale * (2**m) * math.factorial(m)
    return {alpha: Fraction(int(total), denominator) for alpha, total in zip(alphas, totals) if total}
