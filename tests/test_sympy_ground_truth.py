"""Multilinear values against sympy: m! A(x_1, .., x_m) is the coefficient
of z_1..z_m in P(sum_i z_i x_i).  sympy is a declared test dependency, so
its absence fails this module alone."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import sympy

from riesz_lab import Element, Space
from riesz_lab._intpath import diagonal_core, form_eval_batch
from riesz_lab.sampling import rng_for, sym_tensor


def _sympy_multilinear_coefficient(tensor, args):
    """The coefficient of z_1..z_m in P(sum_i z_i x_i), P(y) the sum over
    entries of coeff * (m! / prod k_t!) * prod_t y(t)^k_t, in sympy
    polynomial arithmetic; a product keeps only its squarefree monomials,
    the only ones that reach z_1..z_m."""
    m = tensor.degree
    z = sympy.symbols(f"z1:{m + 1}")
    ys = [sympy.Poly(sum(zi * sympy.Rational(x.values[t]) for zi, x in zip(z, args)), *z) for t in range(tensor.space.n)]
    total = sympy.Integer(0)
    for idx, coeff in tensor.entries.items():
        weight = sympy.factorial(m) / sympy.prod(sympy.factorial(idx.count(t)) for t in set(idx))
        term = sympy.Poly(sympy.Rational(coeff.numerator, coeff.denominator) * weight, *z)
        for t in idx:
            term = sympy.Poly.from_dict({e: c for e, c in (term * ys[t - 1]).terms() if max(e) <= 1}, *z)
        total += term.coeff_monomial(sympy.prod(z))
    return total


class TestSympyGroundTruth:
    """The exact reference and the int kernel at degrees the JSON oracle
    cannot reach."""

    def test_multilinear_values_are_polarisation_coefficients(self):
        for n in (2, 3):
            for m in range(2, 9):
                for i in range(2):
                    rng = rng_for("sympy-polarisation", n, m, i)
                    space = Space.finite(n)
                    tensor = sym_tensor(rng, space, m, ensure_off_diagonal=True)
                    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
                    args = [Element.finite(row) for row in rows]
                    expected = _sympy_multilinear_coefficient(tensor, args)
                    assert math.factorial(m) * tensor.evaluate(args) == expected, (n, m, i)
                    core, scale = diagonal_core(tensor)
                    (value,) = form_eval_batch(core, np.array([rows], dtype=np.int64))
                    assert math.factorial(m) * Fraction(int(value), scale) == expected, (n, m, i)
