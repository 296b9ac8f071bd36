"""Exact batch evaluation on integer arrays.

Identities checked by the sampled suites are homogeneous, so every instance
is scaled to integers by its common denominator and batch-evaluated with
NumPy over one table layout, a row of m points, a scaled coefficient and a
weight per term: one row per entry of a form (`tensors._scaled_rows`), one
diagonal row per atom of a measure, the table of its polarisation
(`diagonal_core`), so only the table builders tell the kinds apart.  A
kernel gathers each row's points from the arguments and multiplies, O(S *
rows * m) for S samples.  P(x) = A(x, .., x) reads every row as c * w *
prod x(p_i) (`poly_eval_batch`), summing over a stack of k rows per sample,
so each side of an identity between sums of P-values is one call.
A(x_1, .., x_m) (`form_eval_batch`) reads a row of weight 1 as one ordered
product and the rows of greater weight, a symmetric tensor's entries, by
polarisation: the sum over the 2^(m-1) sign vectors with eps_1 = +1 of
eps_1..eps_m P(sum_i eps_i x_i) is m! 2^(m-1) A(x_1, .., x_m), divided out
exactly (`_polarised`, which `polarize_tensor_int` shares), the signs of
the first arguments from one cached table and the rest in blocks;
`form_eval_batch` refuses a table whose one sample would gather more than
the byte budget (`polarised_work`).  A sampled check plans its work from
three readers of a table's columns, kept here so that no other module
reads them: `_weight_sum` sizes its chunks, and `polarised_work` against
`dp_work`, the exact reference's DP steps, decides where its multilinear
values are read (`checks._polarises`).  The kernel,
not its caller, bounds each sum in exact Python integers: int64 below
`INT64_LIMIT`, otherwise `dtype=object` arrays of Python ints, the same
gather at any size, over chunks of samples that fit a byte budget.  The
reference the checks compare against stays the integer cores of
`Form.evaluate` (with `SymTensor.evaluate_diagonal`) and
`Measure.integrate`, exact and independent of NumPy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .measures import Measure
from .tensors import Form, SymTensor, _scaled_rows, dp_steps, nondecreasing_indices

INT64_LIMIT = 2**62
_BYTE_CAP = 2**27  # largest array one gather may allocate (128 MiB)
# gathered entries (samples x table rows x argument slots) in the first
# chunk of a sampled check's block, later chunks growing 4x: about as many
# as one kernel call's fixed cost would gather (20-30 us per call against
# about 2 ns per entry on a 2-CPU Xeon VM), so a check that fails in its
# first samples pays for little more than one call
_CHUNK_WORK = 2**13
# gathered entries one kernel call may fuse from a round's chunks of one
# stack depth; a single chunk past it runs alone
_CALL_WORK = 2**16
# the polarised kernel's cached sign table holds 2**_SIGN_BITS vectors
_SIGN_BITS = 10


def dense_core(rep: Form | Measure, degree: int | None = None) -> tuple[np.ndarray, int]:
    """`diagonal_core` under its older name, kept only while the benchmark traces it."""
    return diagonal_core(rep, degree)


def diagonal_core(rep: Form | Measure, degree: int | None = None) -> tuple[np.ndarray, int]:
    """(table, scale): the rows of a form, one per entry, in one read-only
    integer array (rows, m + 2), m points, scaled coefficient and weight,
    built once into its `_scaled_rows` slot; int64 only while the sum over
    rows of |coeff| * weight stays below `INT64_LIMIT`, so no int64 sum over
    its coefficients, or coefficients times weights, can wrap.  A measure,
    which has no degree, takes P's ``degree`` and gives one row [t - 1]*m +
    [w_t, 1] per atom t, in the dtype of `measure_weights`."""
    if isinstance(rep, Measure):
        weights, scale = measure_weights(rep)
        rows = [(*[column] * degree, w, 1) for column, w in enumerate(weights.tolist()) if w]
        return np.array(rows, dtype=weights.dtype).reshape(len(rows), degree + 2), scale
    slot = _scaled_rows(rep)
    if slot[2] is None:
        rows = slot[0]
        dtype = np.int64 if sum([abs(c) * w for _, c, w in rows]) < INT64_LIMIT else object
        table = np.array([(*p, c, w) for p, c, w in rows], dtype=dtype).reshape(len(rows), rep.degree + 2)
        table.flags.writeable = False
        slot[2] = table
    return slot[2], slot[1]


def measure_weights(mu: Measure) -> tuple[np.ndarray, int]:
    """Atom weights of a measure on a finite space as an integer vector
    times their common denominator, read from the measure's own integer
    weights; int64, as for `diagonal_core`, when the sum of their magnitudes
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


def polarised_work(core: np.ndarray, n: int) -> int:
    """Entries the polarised read gathers per sample of arguments on n
    points: 2^(m-1) signed rows of n values, each read by m products per
    row of weight > 1; 0 for a table without such rows."""
    m = core.shape[1] - 2
    heavy = int((core[:, m + 1] > 1).sum())
    return heavy and 2 ** (m - 1) * m * (heavy + n)


def dp_work(core: np.ndarray) -> int:
    """Steps the exact reference's multiplicity DP (`tensors.dp_steps`)
    takes per sample of arguments over the table's rows of weight > 1, the
    multilinear values `polarised_work` reads on the kernel."""
    m = core.shape[1] - 2
    return sum(dp_steps(tuple(row[:m])) for row in core.tolist() if row[m + 1] > 1)


def _weight_sum(core: np.ndarray) -> int:
    """The weights of a table's rows summed: the arrangements its entries
    stand for, which size a sampled check's chunks."""
    return int(core[:, -1].sum())


@lru_cache
def _signs(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(signs, parity): the 2^bits sign vectors (1, eps_2, .., eps_{bits+1})
    as rows (2^bits, bits + 1), eps_{j+2} = -1 where bit j of the row is
    set, and their products."""
    signs = np.ones((2**bits, bits + 1), dtype=np.int64)
    signs[:, 1:] -= 2 * ((np.arange(2**bits)[:, None] >> np.arange(bits)) & 1)
    parity = signs.prod(axis=1)
    signs.flags.writeable = parity.flags.writeable = False
    return signs, parity


def _polarised(core: np.ndarray, args: np.ndarray) -> np.ndarray:
    """A(x_1, .., x_m) per sample for the table's rows, args (S, m, n) ->
    (S,), by polarisation: sum over the 2^(m-1) sign vectors with eps_1 =
    +1 of eps_1..eps_m P(sum_i eps_i x_i), P read from the rows as
    `poly_eval_batch` reads them, divided exactly by m! 2^(m-1).  The signs
    of x_1 .. x_{b+1}, b at most `_SIGN_BITS`, come from one cached table
    (`_signs`); each setting of the signs of the rest adds one block.  The
    signed stack of each chunk of samples, and the products gathered from
    it, fit `_BYTE_CAP` together."""
    size, m, n = args.shape
    bits = min(m - 1, _SIGN_BITS)
    signs, parity = _signs(bits)
    coeffs = core[:, m] * core[:, m + 1]
    # a signed row sum_i eps_i x_i is at most m max|x| in magnitude
    max_abs = m * int(np.abs(args).max(initial=0))
    _, itemsize = _guard(int(np.abs(coeffs).sum()), max_abs, m, 2 ** (m - 1))
    step = max(_BYTE_CAP // (itemsize * len(signs) * (n + len(core))), 1)
    args = args.astype(np.int64 if max_abs < INT64_LIMIT else object, copy=False)
    totals = []
    for start in range(0, max(size, 1), step):
        chunk = args[start : start + step]
        stack, total = signs @ chunk[:, : bits + 1], 0
        for block in range(2 ** (m - 1 - bits)):
            signed, sign = stack, 1
            if bits < m - 1:  # eps_{b+2} .. eps_m: bit j of block sets eps_{b+2+j} = -1
                eps = 1 - 2 * ((block >> np.arange(m - 1 - bits)) & 1)
                signed, sign = stack + (eps @ chunk[:, bits + 1 :])[:, None, :], int(eps.prod())
            values = _gather_product(core[:, :m], coeffs, [signed.reshape(-1, n)] * m, max_abs, 2 ** (m - 1))
            total = total + sign * (values.reshape(-1, len(signs)) @ parity)
        totals.append(total)
    return np.concatenate(totals) // (math.factorial(m) * 2 ** (m - 1))


def form_eval_batch(core: np.ndarray, args: np.ndarray) -> np.ndarray:
    """A(x_1,..,x_m) for a batch: core from `diagonal_core`, args (S, m, n)
    -> (S,).  A row of weight 1 is one ordered product; the rows of greater
    weight are read by `_polarised`, refused past `_BYTE_CAP` entries
    gathered per sample (`polarised_work`) before any sign exists."""
    m, n = args.shape[1:]
    single = core[:, m + 1] == 1
    if single.all():
        slots = list(args.transpose(1, 0, 2))
        return _gather_product(core[:, :m], core[:, m], slots, int(np.abs(args).max(initial=0)))
    if polarised_work(core, n) > _BYTE_CAP:
        raise MemoryError(f"{2 ** (m - 1)} signed rows per sample, past the byte budget")
    values = _polarised(core[~single], args)
    return values + form_eval_batch(core[single], args) if single.any() else values


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
    """Sign-sum polarisation computed from diagonal evaluations only: the
    coefficient at each nondecreasing alpha is A(e_alpha_1, .., e_alpha_m),
    read by `_polarised` from the diagonal table."""
    n, m = tensor.space.n, tensor.degree
    core, scale = diagonal_core(tensor)
    alphas = list(nondecreasing_indices(n, m))
    points = np.array(alphas, dtype=np.intp).reshape(-1, m) - 1
    totals = []
    step = max(_BYTE_CAP // (8 * m * n), 1)  # alphas per block of basis arguments
    for start in range(0, len(points), step):
        block = points[start : start + step]
        basis = np.zeros((len(block), m, n), dtype=np.int64)
        basis[np.arange(len(block))[:, None], np.arange(m), block] = 1
        totals.extend(_polarised(core, basis))
    return {alpha: Fraction(int(total), scale) for alpha, total in zip(alphas, totals) if total}
