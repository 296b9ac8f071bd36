"""Bounded exact evaluation on int64 arrays.

Identities checked by the sampled suites are homogeneous, so instances whose
rationals share a small common denominator can be scaled to integers and
batch-evaluated with NumPy.  Every batch is guarded by a worst-case overflow
bound computed in exact Python integers, and every dense array by a byte
budget checked before it is allocated; anything outside either bound raises
`IntPathUnavailable` and the caller falls back to the Fraction path, which is
the reference implementation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

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


def dense_core(tensor: SymTensor) -> tuple[np.ndarray, int]:
    """The full symmetric array times the common denominator of the entries.

    Returns (core, scale) with core[perm(alpha)] == scale * entry(alpha).
    """
    n, m = tensor.space.n, tensor.degree
    _check_bytes(n**m)
    scale = 1
    for value in tensor.entries.values():
        scale = scale * value.denominator // math.gcd(scale, value.denominator)
        if scale > _DENOM_CAP:
            raise IntPathUnavailable("entry denominators too large")
    core = np.zeros((n,) * m, dtype=np.int64)
    for idx, value in tensor.entries.items():
        scaled = value * scale
        if abs(scaled.numerator) > _ENTRY_CAP:
            raise IntPathUnavailable("entry magnitude too large")
        v = int(scaled)
        for perm in set(permutations(idx)):
            core[tuple(p - 1 for p in perm)] = v
    return core, scale


def measure_weights(mu: Measure) -> tuple[np.ndarray, int]:
    """Atom weights as an integer vector times their common denominator."""
    if not mu.space.is_finite:
        raise IntPathUnavailable("vector weights need a finite space")
    scale = 1
    for w in mu.atoms.values():
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
        if scale > _DENOM_CAP:
            raise IntPathUnavailable("weight denominators too large")
    vec = np.zeros(mu.space.n, dtype=np.int64)
    for point, w in mu.atoms.items():
        scaled = w * scale
        if abs(scaled.numerator) > _ENTRY_CAP:
            raise IntPathUnavailable("weight magnitude too large")
        vec[point - 1] = int(scaled)
    return vec, scale


def _guard(core_mass: int, max_abs: int, degree: int, terms: int) -> None:
    # the caller adds up to `terms` batch results of this size, so their
    # total, not each one, has to stay inside the bound
    if terms * core_mass * (max(max_abs, 1) ** degree) >= INT64_LIMIT:
        raise IntPathUnavailable("worst-case bound exceeds int64")


def form_eval_batch(core: np.ndarray, args: np.ndarray) -> np.ndarray:
    """A(x_1,..,x_m) for a batch: core (n,)*m, args (S, m, n) -> (S,)."""
    S, m, n = args.shape
    _check_bytes(S * n ** (m - 1))  # the first contraction's output
    _guard(int(np.abs(core).sum()), int(np.abs(args).max(initial=0)), m, 1)
    out = np.broadcast_to(core, (S,) + core.shape)
    for slot in range(m):
        out = np.einsum("s...j,sj->s...", out, args[:, slot, :])
    return out


def poly_eval_batch(core: np.ndarray, xs: np.ndarray, terms: int = 1) -> np.ndarray:
    """P(x) = A(x,..,x) for a batch: xs (S, n) -> (S,).

    ``terms`` is how many such batches the caller adds up; the overflow
    guard bounds their total."""
    m = core.ndim
    if terms > 1:  # form_eval_batch guards one batch on its own
        _guard(int(np.abs(core).sum()), int(np.abs(xs).max(initial=0)), m, terms)
    args = np.broadcast_to(xs[:, None, :], (xs.shape[0], m, xs.shape[1]))
    return form_eval_batch(core, args)


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
    core, scale = dense_core(tensor)
    alphas = list(nondecreasing_indices(n, m))
    signs = list(product((1, -1), repeat=m))
    vectors = np.zeros((len(alphas) * len(signs), n), dtype=np.int64)
    parities = np.empty(len(alphas) * len(signs), dtype=np.int64)
    row = 0
    for alpha in alphas:
        for sign_tuple in signs:
            parity = 1
            for s, t in zip(sign_tuple, alpha):
                vectors[row, t - 1] += s
                parity *= s
            parities[row] = parity
            row += 1
    values = poly_eval_batch(core, vectors, len(signs))  # summed per alpha below
    denominator = scale * (2**m) * math.factorial(m)
    entries: dict[tuple[int, ...], Fraction] = {}
    per_alpha = values.reshape(len(alphas), len(signs))
    sign_row = parities[: len(signs)]
    for alpha, block in zip(alphas, per_alpha):
        total = int((block * sign_row).sum())
        if total:
            entries[alpha] = Fraction(total, denominator)
    return entries
