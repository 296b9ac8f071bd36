"""Exact batch evaluation on integer arrays.

Identities checked by the sampled suites are homogeneous, so every instance
is scaled to integers by its common denominator and batch-evaluated with
NumPy.  A form is evaluated from its arrangement table, scaled once
(`SymTensor.arrangement_table`, or one row per nonzero entry of a matrix
form), by gathering each row's points from the arguments and multiplying:
O(S * rows * m) for a batch of S samples.  Each batch picks its dtype from a
worst-case bound computed in exact Python integers: int64 when the bound
stays below `INT64_LIMIT`, and otherwise `dtype=object` arrays of Python
ints, the same gather and product at any size.  Gathers run over chunks of
samples that fit a byte budget.  The reference the checks compare against
stays `SymTensor.evaluate`, `GeneralMatrixForm.evaluate` and
`Measure.integrate`, exact and independent of NumPy: the tensor and measure
evaluators sum in Python integers, one row at a time, and return one
Fraction per value; the matrix evaluator sums the dense matrix in Fractions.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import product

import numpy as np

from .lattice import _integer_row
from .measures import Measure
from .tensors import Form, SymTensor, nondecreasing_indices

INT64_LIMIT = 2**62
_BYTE_CAP = 2**27  # largest array one gather may allocate (128 MiB)
# gathered entries (samples x table rows x argument slots) in the first
# chunk of a sampled check's block; later chunks grow 4x
_CHUNK_WORK = 2**16


def dense_core(tensor: Form) -> tuple[np.ndarray, int]:
    """(table, scale): the arrangement table of any finite form times the
    common denominator of its entries as one integer array (rows, m + 2),
    each row its m points, scaled coefficient and weight.  A symmetric
    tensor lists every distinct arrangement of each stored entry; a matrix
    form lists one row per nonzero entry, weight 1.  The table is int64 only
    while the sum over rows of |coeff| * max(weight, 1) stays below
    `INT64_LIMIT`, so no int64 sum over its coefficients, or coefficients
    times weights, can wrap.  The name is older than the table; callers and
    benchmark traces know it."""
    coeffs, scale = _integer_row(tensor.entries.values())
    rows = [(*p, c, w) for p, c, w in tensor._arrangement_rows(coeffs, diagonal=False)]
    mass = sum([abs(row[-2]) * (row[-1] or 1) for row in rows])  # weights are >= 0
    dtype = np.int64 if mass < INT64_LIMIT else object
    return np.array(rows, dtype=dtype).reshape(len(rows), tensor.degree + 2), scale


def measure_weights(mu: Measure) -> tuple[np.ndarray, int]:
    """Atom weights of a measure on a finite space as an integer vector
    times their common denominator; int64, as for `dense_core`, when the
    sum of their magnitudes stays below `INT64_LIMIT`."""
    scaled, scale = _integer_row(mu.atoms.values())
    vec = np.zeros(mu.space.n, dtype=np.int64 if sum(map(abs, scaled)) < INT64_LIMIT else object)
    for point, w in zip(mu.atoms, scaled):
        vec[point - 1] = w
    return vec, scale


def _guard(mass: int, max_abs: int, degree: int, terms: int) -> tuple[type, int]:
    """(dtype, bytes per entry) of a batch whose terms are at most
    max_abs**degree times coefficients of total magnitude ``mass``.  The
    caller adds up to ``terms`` batch results of this size, so their total,
    not each one, has to stay inside the int64 bound; past it, an entry is a
    pointer plus a Python int of the bound's size."""
    bound = terms * max(mass, 1) * max(max_abs, 1) ** degree
    if bound < INT64_LIMIT:
        return np.int64, 8
    return object, 8 + sys.getsizeof(bound)


def _gather_product(
    points: np.ndarray, coeffs: np.ndarray, slots: list[np.ndarray], max_abs: int, terms: int
) -> np.ndarray:
    """sum over rows r of coeffs[r] * prod_i slots[i][:, points[r, i]] for
    (S, n) int slots whose entries are at most max_abs in magnitude."""
    # the table's dtype bounds this sum, so it cannot wrap
    dtype, itemsize = _guard(int(np.abs(coeffs).sum()), max_abs, len(slots), terms)
    size, step = slots[0].shape[0], max(_BYTE_CAP // (itemsize * max(len(coeffs), 1)), 1)
    if step < size:  # each gathered (samples, rows) factor must fit the byte budget
        parts = ([x[start : start + step] for x in slots] for start in range(0, size, step))
        return np.concatenate([_gather_product(points, coeffs, part, max_abs, terms) for part in parts])
    points, coeffs = points.astype(np.intp, copy=False), coeffs.astype(dtype, copy=False)
    out = slots[0][:, points[:, 0]].astype(dtype, copy=False)
    for x, column in zip(slots[1:], points.T[1:]):
        out *= x[:, column].astype(dtype, copy=False)
    return out @ coeffs


def form_eval_batch(core: np.ndarray, args: np.ndarray) -> np.ndarray:
    """A(x_1,..,x_m) for a batch: core from `dense_core`, args (S, m, n) -> (S,)."""
    m = args.shape[1]
    slots = list(args.transpose(1, 0, 2))
    return _gather_product(core[:, :m], core[:, m], slots, int(np.abs(args).max(initial=0)), 1)


def poly_eval_batch(core: np.ndarray, xs: np.ndarray, terms: int = 1) -> np.ndarray:
    """P(x) = A(x,..,x) for a batch over the weighted rows of the table:
    xs (S, n) -> (S,).

    ``terms`` is how many such batches the caller adds up; the dtype choice
    bounds their total."""
    m = core.shape[1] - 2
    weighted = core[core[:, m + 1] > 0]
    return _gather_product(
        weighted[:, :m], weighted[:, m] * weighted[:, m + 1], [xs] * m, int(np.abs(xs).max(initial=0)), terms
    )


def measure_poly_eval_batch(weights: np.ndarray, degree: int, xs: np.ndarray, terms: int = 1) -> np.ndarray:
    """P(x) = sum w_t x(t)^m for a batch: xs (S, n) -> (S,); ``terms`` as
    for `poly_eval_batch`."""
    # xs is powered before the dot; the weights' dtype bounds their sum
    dtype, _ = _guard(int(np.abs(weights).sum()), int(np.abs(xs).max(initial=0)), degree, terms)
    powered = xs.astype(dtype) ** degree
    return powered @ weights.astype(dtype, copy=False)


def polarize_tensor_int(tensor: SymTensor) -> dict[tuple[int, ...], Fraction]:
    """Sign-sum polarisation computed from diagonal evaluations only."""
    n, m = tensor.space.n, tensor.degree
    signs = np.array(list(product((1, -1), repeat=m)), dtype=np.int64)
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
        values = poly_eval_batch(core, vectors.reshape(-1, n), len(signs))  # summed per alpha below
        totals.extend(values.reshape(len(block), len(signs)) @ signs.prod(axis=1))
    denominator = scale * (2**m) * math.factorial(m)
    return {alpha: Fraction(int(total), denominator) for alpha, total in zip(alphas, totals) if total}
