"""Exact batch evaluation on integer arrays.

Identities checked by the sampled suites are homogeneous, so every instance
is scaled to integers by its common denominator and batch-evaluated with
NumPy.  A form is evaluated from its arrangement rows
(`Form._arrangement_rows`: a symmetric tensor's arrangements, or one row
per nonzero entry of a matrix form) as the exact reference reads them,
scaled to integers (`tensors._scaled_rows`, enumerated once per run of
calls on one form), by gathering each row's points from the arguments and
multiplying: O(S * rows * m) for a batch of S samples.  The polynomial
kernels sum P over a stack of k rows per sample, so each side of an
identity between sums of P-values is one call, and the kernel, not its
caller, bounds that whole sum in exact Python integers: int64 when the
bound stays below `INT64_LIMIT`, otherwise `dtype=object` arrays of Python
ints, the same gather and product at any size.  Gathers run over chunks of
samples that fit a byte budget.  The reference the checks compare against
stays `Form.evaluate` (with `SymTensor.evaluate_diagonal`) and
`Measure.integrate`, exact and independent of NumPy: each reads the
arguments' integer rows as `Element` stores them, sums in Python integers
(the form evaluators over the same scaled rows as the kernels) and returns
one Fraction per value.
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


def dense_core(tensor: Form) -> tuple[np.ndarray, int]:
    """(table, scale): the arrangement table of any finite form times the
    common denominator of its entries as one integer array (rows, m + 2),
    each row its m points, scaled coefficient and weight, built from the
    form's `_scaled_rows`, the rows its exact evaluator sums.  A symmetric
    tensor lists every distinct arrangement of each stored entry; a matrix
    form lists one row per nonzero entry, weight 1.  The table is int64 only
    while the sum over rows of |coeff| * max(weight, 1) stays below
    `INT64_LIMIT`, so no int64 sum over its coefficients, or coefficients
    times weights, can wrap.  The array is read-only and kept in the rows'
    slot, so every check on one form, and each mode of a check, reads the
    one array.  The name is older than the table; callers and benchmark
    traces know it."""
    slot = _scaled_rows(tensor)
    rows, _, scale, table = slot
    if table is None:
        mass = sum([abs(c) * (w or 1) for _, c, w in rows])  # weights are >= 0
        dtype = np.int64 if mass < INT64_LIMIT else object
        table = np.array([(*p, c, w) for p, c, w in rows], dtype=dtype).reshape(len(rows), tensor.degree + 2)
        table.flags.writeable = False
        slot[3] = table
    return table, scale


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
    """sum_j P(x_j), P(x) = A(x,..,x), for a batch over the weighted rows of
    the table: xs (S, k, n) -> (S,), with (S, n) read as k = 1.  The dtype
    bounds the whole sum."""
    size, k, n = xs.shape if xs.ndim == 3 else (len(xs), 1, xs.shape[1])
    flat = xs.reshape(size * k, n)
    m = core.shape[1] - 2
    weighted = core[core[:, m + 1] > 0]
    values = _gather_product(
        weighted[:, :m], weighted[:, m] * weighted[:, m + 1], [flat] * m, int(np.abs(flat).max(initial=0)), k
    )
    return values.reshape(size, k).sum(axis=1)


def measure_poly_eval_batch(weights: np.ndarray, degree: int, xs: np.ndarray) -> np.ndarray:
    """sum_j P(x_j), P(x) = sum_t w_t x(t)^m, for a batch: xs (S, k, n) ->
    (S,), with (S, n) read as k = 1; the dtype bounds the whole sum."""
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
    core, scale = dense_core(tensor)
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
