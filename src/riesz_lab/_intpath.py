"""Bounded exact evaluation on int64 arrays.

Identities checked by the sampled suites are homogeneous, so instances whose
rationals share a small common denominator can be scaled to integers and
batch-evaluated with NumPy.  A tensor is evaluated from its arrangement
table (`SymTensor.arrangement_table`), scaled to int64 once, by gathering
each row's points from the arguments and multiplying: O(S * rows * m) for a
batch of S samples.  Every batch is guarded by a worst-case overflow bound
computed in exact Python integers, and every gather by a byte budget checked
before it is allocated; anything outside either bound raises
`IntPathUnavailable` and the caller falls back to the Fraction path, which is
the reference implementation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Collection

import numpy as np

from .measures import Measure
from .tensors import SymTensor, nondecreasing_indices

INT64_LIMIT = 2**62
_DENOM_CAP = 10**6
_ENTRY_CAP = 10**7
_BYTE_CAP = 2**27  # largest int64 array one kernel call may allocate (128 MiB)


class IntPathUnavailable(Exception):
    """Instance not representable within the int64 budget."""


def _check_bytes(entries: int) -> None:
    if 8 * entries > _BYTE_CAP:
        raise IntPathUnavailable("int64 array too large")


def _common_scale(values: Collection[Fraction], what: str) -> int:
    """The least common denominator of the values, each of which times it
    must stay within the entry cap."""
    scale = 1
    for value in values:
        scale = scale * value.denominator // math.gcd(scale, value.denominator)
        if scale > _DENOM_CAP:
            raise IntPathUnavailable(f"{what} denominators too large")
    if any(abs(value.numerator) * (scale // value.denominator) > _ENTRY_CAP for value in values):
        raise IntPathUnavailable(f"{what} magnitude too large")
    return scale


def dense_core(tensor: SymTensor) -> tuple[np.ndarray, int]:
    """(table, scale): the arrangement table times the common denominator
    of the entries as one int64 array (rows, m + 2), each row its m points,
    scaled coefficient and weight.  The name is older than the table (it
    built a dense n**m array); callers and benchmark traces know it by it."""
    scale = _common_scale(tensor.entries.values(), "entry")
    rows = [(*p, c.numerator * (scale // c.denominator), w) for p, c, w in tensor.arrangement_table()]
    return np.array(rows, dtype=np.int64).reshape(len(rows), tensor.degree + 2), scale


def measure_weights(mu: Measure) -> tuple[np.ndarray, int]:
    """Atom weights as an integer vector times their common denominator."""
    if not mu.space.is_finite:
        raise IntPathUnavailable("vector weights need a finite space")
    scale = _common_scale(mu.atoms.values(), "weight")
    vec = np.zeros(mu.space.n, dtype=np.int64)
    for point, w in mu.atoms.items():
        vec[point - 1] = int(w * scale)
    return vec, scale


def _guard(core_mass: int, max_abs: int, degree: int, terms: int) -> None:
    # the caller adds up to `terms` batch results of this size, so their
    # total, not each one, has to stay inside the bound
    if terms * core_mass * (max(max_abs, 1) ** degree) >= INT64_LIMIT:
        raise IntPathUnavailable("worst-case bound exceeds int64")


def _gather_product(
    points: np.ndarray, coeffs: np.ndarray, slots: list[np.ndarray], max_abs: int, terms: int
) -> np.ndarray:
    """sum over rows r of coeffs[r] * prod_i slots[i][:, points[r, i]] for
    (S, n) int slots whose entries are at most max_abs in magnitude."""
    _guard(int(np.abs(coeffs).sum()), max_abs, len(slots), terms)
    _check_bytes(slots[0].shape[0] * len(coeffs))  # each gathered (S, rows) factor
    out = slots[0][:, points[:, 0]].astype(np.int64, copy=False)
    for x, column in zip(slots[1:], points.T[1:]):
        out *= x[:, column]
    return out @ coeffs


def form_eval_batch(core: np.ndarray, args: np.ndarray) -> np.ndarray:
    """A(x_1,..,x_m) for a batch: core from `dense_core`, args (S, m, n) -> (S,)."""
    m = args.shape[1]
    slots = list(args.transpose(1, 0, 2))
    return _gather_product(core[:, :m], core[:, m], slots, int(np.abs(args).max(initial=0)), 1)


def poly_eval_batch(core: np.ndarray, xs: np.ndarray, terms: int = 1) -> np.ndarray:
    """P(x) = A(x,..,x) for a batch over the weighted rows of the table:
    xs (S, n) -> (S,).

    ``terms`` is how many such batches the caller adds up; the overflow
    guard bounds their total."""
    m = core.shape[1] - 2
    weighted = core[core[:, m + 1] > 0]
    return _gather_product(
        weighted[:, :m], weighted[:, m] * weighted[:, m + 1], [xs] * m, int(np.abs(xs).max(initial=0)), terms
    )


def measure_poly_eval_batch(weights: np.ndarray, degree: int, xs: np.ndarray, terms: int = 1) -> np.ndarray:
    """P(x) = sum w_t x(t)^m for a batch: xs (S, n) -> (S,); ``terms`` as
    for `poly_eval_batch`."""
    mass = max(int(np.abs(weights).sum()), 1)  # xs is powered before the dot
    _guard(mass, int(np.abs(xs).max(initial=0)), degree, terms)
    powered = xs.astype(np.int64) ** degree
    return powered @ weights


def polarize_tensor_int(tensor: SymTensor) -> dict[tuple[int, ...], Fraction]:
    """Sign-sum polarisation computed from diagonal evaluations only."""
    n, m = tensor.space.n, tensor.degree
    signs = np.array(list(product((1, -1), repeat=m)), dtype=np.int64)
    _check_bytes(math.comb(n + m - 1, m) * len(signs) * n)  # the vectors below
    core, scale = dense_core(tensor)
    alphas = list(nondecreasing_indices(n, m))
    points = np.array(alphas, dtype=np.int64).reshape(-1, m) - 1
    # vectors[a, s] = sum_i signs[s, i] * e_{alphas[a][i]}; no (a, s) repeats within one slot
    vectors = np.zeros((len(alphas), len(signs), n), dtype=np.int64)
    for i in range(m):
        vectors[np.arange(len(alphas))[:, None], np.arange(len(signs)), points[:, i, None]] += signs[:, i]
    values = poly_eval_batch(core, vectors.reshape(-1, n), len(signs))  # summed per alpha below
    totals = values.reshape(len(alphas), len(signs)) @ signs.prod(axis=1)
    denominator = scale * (2**m) * math.factorial(m)
    return {alpha: Fraction(int(total), denominator) for alpha, total in zip(alphas, totals) if total}
