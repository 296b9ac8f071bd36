"""Sampled identity checks for orthosymmetry and orthogonal additivity."""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import math
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import riesz_lab.checks as checks

from riesz_lab import (
    Element,
    Measure,
    Polynomial,
    RadicalElement,
    Space,
    SymTensor,
    attach_instance,
    krivine_radical,
    oa_identity_sides,
    oa_mode_agreement,
    orthogonal_additivity_check,
    orthosymmetry_check,
    os_identity_sides,
    reverify_counterexample,
    structured_pair_count,
    to_obj,
    to_polynomial,
)
import riesz_lab._intpath as intpath
import riesz_lab.tensors as tensors
from riesz_lab._intpath import (
    INT64_LIMIT,
    dense_core,
    diagonal_core,
    form_eval_batch,
    measure_poly_eval_batch,
    poly_eval_batch,
    polarize_tensor_int,
)
from riesz_lab.checks import (
    OA_DISJOINT_ADD,
    OA_K_VALUATION,
    OA_KRIVINE_PRODUCT,
    OA_KRIVINE_SUM,
    OA_MODES,
    OA_POS_NEG,
    OA_POSITIVE_CONE,
    OA_VALUATION,
    OS_BILINEAR,
    OS_DIAGONAL,
    OS_DISJOINT,
    OS_J_IDENTITY,
    OS_MODES,
)
from riesz_lab.errors import DegreeMismatchError, InvariantViolation, RepresentationError
from riesz_lab.jsonio import matrix_from_rows
from riesz_lab.polynomials import TENSOR, polarize
from riesz_lab.sampling import matrix_form, measure, rational, rng_for, sym_tensor
from riesz_lab.tensors import nondecreasing_indices

from oracles import json_oa_sides

F2, F3, F4 = Space.finite(2), Space.finite(3), Space.finite(4)
OM = Space.omega_plus_one()


def fin(*vals):
    return Element.finite(list(vals))


class TestOrthosymmetry:
    def test_diagonal_mode_is_decisive(self):
        good = SymTensor.diagonal(F3, 3, {1: 2, 3: -1})
        verdict = orthosymmetry_check(good, OS_DIAGONAL)
        assert verdict.passed and verdict.decisive

        bad = SymTensor(F3, 3, {(1, 2, 2): 1})
        verdict = orthosymmetry_check(bad, OS_DIAGONAL)
        assert not verdict.passed and verdict.decisive
        assert verdict.counterexample is not None
        payload = attach_instance(verdict.counterexample, to_obj(bad))
        assert reverify_counterexample(payload)

    @pytest.mark.parametrize("mode", [OS_J_IDENTITY, OS_DISJOINT])
    def test_sampled_modes_pass_on_diagonal(self, mode):
        form = SymTensor.diagonal(F3, 2, {1: 1, 2: Fraction(-1, 3)})
        verdict = orthosymmetry_check(form, mode, samples=120, seed=5)
        assert verdict.passed
        assert verdict.samples_checked == 120

    def test_disjoint_mode_catches_mixed_entry(self):
        form = SymTensor(F4, 2, {(2, 4): 1, (1, 1): 3})
        needed = structured_pair_count(4, 2)
        verdict = orthosymmetry_check(form, OS_DISJOINT, samples=needed, seed=0)
        assert not verdict.passed
        payload = attach_instance(verdict.counterexample, to_obj(form))
        assert reverify_counterexample(payload)

    def test_j_identity_catches_mixed_entry(self):
        form = SymTensor(F2, 2, {(1, 2): 1})
        verdict = orthosymmetry_check(form, OS_J_IDENTITY, samples=200, seed=3)
        assert not verdict.passed

    def test_bilinear_mode(self):
        form = SymTensor(F2, 2, {(1, 2): 1})
        lhs, rhs = os_identity_sides(form, OS_BILINEAR, [fin(1, 0), fin(0, 1)])
        assert (lhs, rhs) == (1, 0)
        verdict = orthosymmetry_check(form, OS_BILINEAR, samples=200, seed=1)
        assert not verdict.passed
        assert orthosymmetry_check(
            SymTensor.diagonal(F2, 2, {1: 1}), OS_BILINEAR, samples=100, seed=1
        ).passed

    def test_bilinear_requires_degree_two(self):
        form = SymTensor(F2, 3, {(1, 1, 1): 1})
        with pytest.raises(DegreeMismatchError):
            orthosymmetry_check(form, OS_BILINEAR)

    @pytest.mark.parametrize("force_object", [False, True])
    def test_disjoint_pairs_require_degree_two(self, force_object):
        with pytest.raises(DegreeMismatchError):
            orthosymmetry_check(SymTensor(F2, 1, {(1,): 3}), OS_DISJOINT, samples=8, force_object=force_object)

    def test_matrix_disjoint_pairs_are_decisive(self):
        form = matrix_from_rows(F3, [[1, 0, 0], [0, 2, 1], [0, 0, 3]])
        verdict = orthosymmetry_check(form, OS_DISJOINT, samples=4, seed=9)
        assert not verdict.passed
        payload = attach_instance(verdict.counterexample, to_obj(form))
        assert reverify_counterexample(payload)

        diag = matrix_from_rows(F3, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert orthosymmetry_check(diag, OS_DISJOINT, samples=50, seed=9).passed

    def test_force_object_parity(self):
        tensors = [sym_tensor(rng_for("os-parity", i), F3, m, ensure_off_diagonal=bool(i)) for i, m in ((0, 2), (1, 3))]
        cases = [(form, 64) for form in tensors]
        for n in range(1, 7):
            cases += [(form, samples) for form in _parity_matrices(n) for samples in (1, 5, 40)]
        for form, samples in cases:
            for mode in OS_MODES:
                if mode == OS_BILINEAR and form.degree != 2:
                    continue
                fast = orthosymmetry_check(form, mode, samples=samples, seed=11)
                slow = orthosymmetry_check(form, mode, samples=samples, seed=11, force_object=True)
                assert fast == slow, (dict(form.entries), mode, samples)

    def test_passing_check_runs_no_object_identity(self, monkeypatch):
        sides = _counting(monkeypatch, "_agrees")
        forms = [matrix_from_rows(F3, [[2, 0, 0], [0, -1, 0], [0, 0, Fraction(1, 3)]]),
                 SymTensor.diagonal(F3, 2, {1: 2, 3: -1}), SymTensor.diagonal(F4, 3, {2: 5})]
        for form in forms:
            for mode in OS_MODES:
                if mode != OS_BILINEAR or form.degree == 2:
                    assert orthosymmetry_check(form, mode, samples=40, seed=2).passed, (form, mode)
        assert sides == []

    def test_matrix_diagonal_names_first_off_diagonal_entry(self):
        # row-major: the (2, 3) entry comes before the (3, 1) entry
        form = matrix_from_rows(F3, [[1, 0, 0], [0, 1, 6], [4, 0, 1]])
        verdict = orthosymmetry_check(form, OS_DIAGONAL)
        assert not verdict.passed and verdict.decisive and verdict.samples_checked == 0
        assert verdict.counterexample == {
            "mode": OS_DIAGONAL, "sampleIndex": 0, "args": [to_obj(fin(0, 1, 0)), to_obj(fin(0, 0, 1))],
            "lhs": "6", "rhs": "0",
        }

    def test_lower_triangle_fails_inside_the_basis_pairs(self):
        # the structured disjoint-pair sweep reads x = e_s, y = e_t with
        # s < t, the upper triangle; only the basis pairs see M[3][1]
        form = matrix_from_rows(F3, [[0, 0, 0], [0, 0, 0], [5, 0, 0]])
        verdict = orthosymmetry_check(form, OS_DISJOINT, samples=structured_pair_count(3, 2), seed=3)
        assert not verdict.passed
        # the six ordered pairs (i, j), i != j, come first in row-major
        # order, and (3, 1) is the fifth
        assert verdict.counterexample["sampleIndex"] == 4
        assert verdict.counterexample["args"] == [to_obj(fin(0, 0, 1)), to_obj(fin(1, 0, 0))]
        assert verdict.samples_checked == 5

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            orthosymmetry_check(SymTensor.diagonal(F2, 2, {1: 1}), "nope")

    @pytest.mark.parametrize("force_object", [False, True])
    @pytest.mark.parametrize("samples", [0, -3])
    def test_sample_floor(self, samples, force_object):
        tensor = SymTensor(F2, 2, {(1, 2): 1})  # off-diagonal: zero samples must not pass it
        matrix = matrix_from_rows(F2, [[1, 1], [0, 1]])
        for form in (tensor, matrix):
            for mode in (OS_J_IDENTITY, OS_BILINEAR, OS_DISJOINT):
                with pytest.raises(ValueError, match="need at least one sample"):
                    orthosymmetry_check(form, mode, samples=samples, force_object=force_object)
            assert not orthosymmetry_check(form, OS_DIAGONAL, samples=samples).passed  # decisive, draws none


class TestOrthogonalAdditivity:
    def test_measure_poly_passes_all_modes(self):
        poly = to_polynomial(Measure(F3, {1: 1, 2: -2, 3: Fraction(1, 2)}), 3)
        verdicts = oa_mode_agreement(poly, samples=structured_pair_count(3, 3) + 20, seed=2)
        assert set(verdicts) == set(OA_MODES)
        assert all(v.passed for v in verdicts.values())

    def test_diagonal_tensor_passes_all_modes(self):
        poly = Polynomial.from_tensor(SymTensor.diagonal(F3, 2, {2: 5, 3: -1}))
        verdicts = oa_mode_agreement(poly, samples=structured_pair_count(3, 2) + 20, seed=7)
        assert all(v.passed for v in verdicts.values())

    def test_off_diagonal_tensor_fails_all_modes(self):
        for i in range(6):
            rng = rng_for("oa-offdiag", i)
            m = 2 + i % 2
            form = sym_tensor(rng, F3, m, ensure_off_diagonal=True)
            poly = Polynomial.from_tensor(form)
            verdicts = oa_mode_agreement(poly, samples=structured_pair_count(3, m) + 40, seed=i)
            for mode, verdict in verdicts.items():
                assert not verdict.passed, mode
                payload = attach_instance(verdict.counterexample, to_obj(poly))
                assert reverify_counterexample(payload), mode

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_structured_sweep_is_decisive_for_planted_pairs(self, m):
        budget = structured_pair_count(4, m)
        for s, t in combinations(range(1, 5), 2):
            idx = tuple(sorted((s,) + (t,) * (m - 1)))
            poly = Polynomial.from_tensor(SymTensor(F4, m, {idx: 1}))
            verdict = orthogonal_additivity_check(poly, OA_DISJOINT_ADD, samples=budget, seed=0)
            assert not verdict.passed, (s, t)

    def test_cancelling_mixed_entries_still_caught(self):
        # the two order-3 mixed entries cancel at the ratio 1:1 but not on
        # the full ratio sweep
        form = SymTensor(F2, 3, {(1, 1, 2): 1, (1, 2, 2): -1})
        x, y = fin(1, 0), fin(0, 1)
        lhs, rhs = oa_identity_sides(Polynomial.from_tensor(form), OA_DISJOINT_ADD, [x, y])
        assert lhs == rhs  # the 1:1 ratio alone would miss it
        verdict = orthogonal_additivity_check(
            Polynomial.from_tensor(form), OA_DISJOINT_ADD, samples=structured_pair_count(2, 3), seed=0
        )
        assert not verdict.passed

    def test_positive_cone_agrees_with_disjoint_additivity(self):
        for i in range(30):
            rng = rng_for("cone", i)
            if i % 3 == 0:
                poly = to_polynomial(measure(rng, F3), 2)
            else:
                poly = Polynomial.from_tensor(sym_tensor(rng, F3, 2, diagonal=i % 3 == 1))
            samples = structured_pair_count(3, 2) + 10
            cone = orthogonal_additivity_check(poly, OA_POSITIVE_CONE, samples=samples, seed=i)
            full = orthogonal_additivity_check(poly, OA_DISJOINT_ADD, samples=samples, seed=i)
            assert cone.passed == full.passed

    def test_force_object_parity(self):
        polys = [
            to_polynomial(Measure(F3, {1: 2, 3: Fraction(-1, 4)}), 2),
            Polynomial.from_tensor(SymTensor(F3, 2, {(1, 3): 2, (2, 2): 1})),
            Polynomial.from_tensor(SymTensor(F3, 3, {(1, 2, 3): 1})),
            to_polynomial(Measure(OM, {1: 2, 4: Fraction(-1, 4)}, limit_atom=1), 3),
        ]
        for poly in polys:
            for mode in OA_MODES:
                samples = structured_pair_count(3, poly.degree) + 8
                fast = orthogonal_additivity_check(poly, mode, samples=samples, seed=13)
                slow = orthogonal_additivity_check(
                    poly, mode, samples=samples, seed=13, force_object=True
                )
                assert fast.passed == slow.passed, mode
                assert fast.counterexample == slow.counterexample, mode

    def test_omega_measure_polys_pass(self):
        for i in range(10):
            rng = rng_for("oa-omega", i)
            poly = to_polynomial(measure(rng, OM), 2 + i % 3)
            verdicts = oa_mode_agreement(poly, samples=24, seed=i)
            assert all(v.passed for v in verdicts.values())

    @pytest.mark.parametrize("mode, kind", [(OA_KRIVINE_SUM, "power-sum"), (OA_KRIVINE_PRODUCT, "product")])
    def test_every_krivine_sample_roots_exactly(self, mode, kind):
        # one draw for every polynomial: each sample's radical is a plain
        # element, so both sides of a Krivine identity are rational
        polys = [
            to_polynomial(Measure(F3, {1: 2, 3: Fraction(-1, 4)}), 3),
            Polynomial.from_tensor(SymTensor.diagonal(F3, 2, {2: 5, 3: -1})),
            Polynomial.from_tensor(SymTensor(F3, 3, {(1, 2, 3): 1})),
            to_polynomial(_far_omega_measures()[0], 3),
        ]
        for poly in polys:
            samples = structured_pair_count(checks._columns(poly.space), poly.degree) + 40
            blocks, denom = checks._oa_draw(mode, np.random.default_rng(3), samples, checks._PolyKernels(poly))
            for block in blocks:
                for row in block:
                    args = [checks._element(poly.space, x, denom) for x in row]
                    assert krivine_radical(kind, poly.degree, args).exact_root() is not None, (poly, row)

    @pytest.mark.parametrize("space", [F3, OM], ids=["finite", "omega1"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 38, 39, 41])
    def test_krivine_product_draw_matches_the_division_formula(self, space, m):
        # the tuples are built by products alone; they equal u g_i // g_{i+1}
        # on the same draw of g, also once g holds Python ints (m >= 39)
        kernels = checks._PolyKernels(to_polynomial(Measure(space, {1: 1}), m))
        dtype = np.int64 if 3 ** (m + 1) < intpath.INT64_LIMIT else object
        assert (dtype is object) == (m >= 39)
        for seed in range(4):
            (block,), denom = checks._oa_draw(OA_KRIVINE_PRODUCT, np.random.default_rng(seed), 30, kernels)
            g = np.random.default_rng(seed).integers(1, 4, size=(30, m, checks._columns(space))).astype(dtype)
            u = g.prod(axis=1)
            expected = np.stack([(u // g[:, (i + 1) % m, :]) * g[:, i, :] for i in range(m)], axis=1)
            assert denom == 1 and block.dtype == expected.dtype and block.shape == expected.shape
            assert np.array_equal(block, expected), (m, seed)

    def test_object_sweep_reads_each_block_over_its_own_denominator(self, monkeypatch):
        # the Krivine product draws over denominator 1, every other mode over
        # SCALE; the sweep's Elements are the ones a failure would report
        # (each sample is compared through `_agrees`, the integer sides)
        poly = to_polynomial(Measure(OM, {1: 2, 3: Fraction(-1, 4)}, limit_atom=1), 3)
        seen = _counting(monkeypatch, "_agrees")
        for mode in OA_MODES:
            identity = checks._oa_identity(mode, 12, 5, True, checks._PolyKernels(poly))
            seen.clear()
            assert checks._object_sweep(identity).passed, mode
            expected = [[Element(OM, row.tolist(), identity.denom) for row in sample]
                        for block in identity.blocks for sample in block]
            assert [args for _, _, args in seen] == expected, mode
            assert all(thing is poly and seen_mode == mode for thing, seen_mode, _ in seen)
            assert (identity.denom == 1) == (mode == OA_KRIVINE_PRODUCT)

    def test_sample_floor(self):
        poly = to_polynomial(Measure(F2, {1: 1}), 2)
        with pytest.raises(ValueError):
            orthogonal_additivity_check(poly, OA_DISJOINT_ADD, samples=0)

    def test_unknown_mode(self):
        poly = to_polynomial(Measure(F2, {1: 1}), 2)
        with pytest.raises(ValueError):
            orthogonal_additivity_check(poly, "nope")


def _far_omega_measures():
    """omega1 measures with atoms past point 6, the last column of an omega1
    sample row, and a nonzero limit atom: one by hand, six seeded."""
    out = [Measure(OM, {2: Fraction(1, 3), 7: -2, 11: Fraction(5, 4)}, limit_atom=Fraction(-1, 2))]
    for i in range(6):
        rng = rng_for("oa-omega-far", i)
        points = rng.sample(range(1, 13), rng.randint(1, 4))
        atoms = {t: rational(rng, nonzero=True) for t in points}
        atoms[rng.randint(7, 12)] = rational(rng, nonzero=True)
        out.append(Measure(OM, atoms, limit_atom=rational(rng, nonzero=True)))
    return out


class TestOmegaMeasures:
    """Measures whose atoms lie past the stored prefix read the tail."""

    def test_integrate_reads_the_tail_past_the_prefix(self):
        mu = _far_omega_measures()[0]
        x = Element.omega([1, Fraction(2, 3), 0, 0, 0, 5], Fraction(-3, 4))  # a 7-column sample row
        tail = Fraction(-3, 4)
        for power in range(4):
            expected = Fraction(1, 3) * Fraction(2, 3) ** power + (-2 + Fraction(5, 4) - Fraction(1, 2)) * tail**power
            assert mu.integrate(x, power) == expected
        for mu in _far_omega_measures():
            for width in (0, 3, 6, 9):
                x = Element.omega([Fraction(t, 3) for t in range(1, width + 1)], Fraction(-7, 2))
                terms = [w * x.value_at(t) ** 3 for t, w in mu.atoms.items()] + [mu.limit_atom * x.tail**3]
                assert mu.integrate(x, 3) == sum(terms, Fraction(0))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_modes_agree_with_the_structural_criterion(self, m):
        for i, mu in enumerate(_far_omega_measures()):
            poly = to_polynomial(mu, m)
            verdicts = oa_mode_agreement(poly, samples=24, seed=i)
            assert list(verdicts) == list(OA_MODES)
            assert all(v.passed == poly.is_orthogonally_additive() for v in verdicts.values())

    @pytest.mark.parametrize("m", [2, 3])
    def test_force_object_parity(self, m):
        for i, mu in enumerate(_far_omega_measures()):
            poly = to_polynomial(mu, m)
            for mode in OA_MODES:
                fast = orthogonal_additivity_check(poly, mode, samples=24, seed=(i, m))
                slow = orthogonal_additivity_check(poly, mode, samples=24, seed=(i, m), force_object=True)
                assert fast == slow, mode


def _parity_matrices(n):
    """Random, symmetric, diagonal-only, upper-only and lower-only matrices
    on n points, all cut from one seeded random matrix."""
    rng = rng_for("os-parity-matrix", n)
    a = [[rational(rng) for _ in range(n)] for _ in range(n)]
    space = Space.finite(n)
    shapes = [
        lambda i, j: a[i][j],
        lambda i, j: a[min(i, j)][max(i, j)],
        lambda i, j: a[i][j] * (i == j),
        lambda i, j: a[i][j] * (i <= j),
        lambda i, j: a[i][j] * (i >= j),
    ]
    return [matrix_from_rows(space, [[shape(i, j) for j in range(n)] for i in range(n)]) for shape in shapes]


def _counting(monkeypatch, name):
    """Replace checks.<name> by a wrapper that counts its calls."""
    original = getattr(checks, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, name, counted)
    return calls


KRIVINE_PASSING = [
    to_polynomial(Measure(F4, {1: 2, 3: Fraction(-1, 3), 4: 5}), 3),
    Polynomial.from_tensor(SymTensor.diagonal(F4, 4, {2: 3, 4: Fraction(1, 2)})),
]


class TestLazyElements:
    @pytest.mark.parametrize("mode", [OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT])
    @pytest.mark.parametrize("poly", KRIVINE_PASSING, ids=["measure", "diagonal-tensor"])
    def test_passing_int_path_builds_only_spot_check_rows(self, monkeypatch, mode, poly):
        built = _counting(monkeypatch, "_element")
        verdict = orthogonal_additivity_check(poly, mode, samples=200, seed=4)
        assert verdict.passed and verdict.samples_checked == 200
        assert 0 < len(built) <= 3 * poly.degree

    @pytest.mark.parametrize("mode", [OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT])
    def test_failing_int_path_builds_only_the_failing_row(self, monkeypatch, mode):
        poly = Polynomial.from_tensor(SymTensor(F3, 3, {(1, 2, 3): 1, (2, 2, 2): 1}))
        built = _counting(monkeypatch, "_element")
        verdict = orthogonal_additivity_check(poly, mode, samples=200, seed=4)
        assert not verdict.passed
        assert len(built) == len(verdict.counterexample["args"])

    @pytest.mark.parametrize("samples", [1, 2, 3, 200])
    @pytest.mark.parametrize("mode", [OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT])
    def test_spot_checks_still_run(self, monkeypatch, mode, samples):
        sides = _counting(monkeypatch, "_agrees")
        verdict = orthogonal_additivity_check(KRIVINE_PASSING[0], mode, samples=samples, seed=4)
        assert verdict.passed
        assert len(sides) == min(3, samples)
        assert all(thing is KRIVINE_PASSING[0] and seen_mode == mode for thing, seen_mode, _ in sides)

    def test_failure_that_does_not_reverify_is_an_invariant_violation(self):
        poly = to_polynomial(Measure(F2, {1: 1}), 2)
        with pytest.raises(InvariantViolation):
            checks._failure(OA_DISJOINT_ADD, poly, [fin(1, 0), fin(0, 1)], 0, 1)


class TestIntGuard:
    # every full-array entry 10**7 on 7 points, degree 4, sample values up
    # to 108: one row is 2401 * 10**7 * 108**4 ~ 3.3e18 < 2**62, but a stack
    # of four summed leaves int64
    HEAVY = SymTensor(Space.finite(7), 4, {idx: 10**7 for idx in nondecreasing_indices(7, 4)})

    def test_guard_counts_summed_terms(self):
        # a measure with the same mass on the diagonal gives the same values,
        # from its weights and from its diagonal table
        weights = np.full(7, 343 * 10**7, dtype=np.int64)
        mu = Measure(Space.finite(7), {t: 343 * 10**7 for t in range(1, 8)})
        row = np.full((2, 7), 108, dtype=np.int64)
        value = 2401 * 10**7 * 108**4
        core, _ = dense_core(self.HEAVY)
        measure_core, _ = diagonal_core(mu, 4)
        assert measure_core.dtype == np.int64
        kernels = (partial(poly_eval_batch, core), partial(measure_poly_eval_batch, weights, 4),
                   partial(poly_eval_batch, measure_core))
        for kernel in kernels:
            one = kernel(row)
            assert one.dtype == np.int64 and list(one) == [value] * 2
            four = kernel(np.stack([row] * 4, axis=1))
            assert four.dtype == object
            assert list(four) == [4 * value] * 2 and type(four[0]) is int

    def test_heavy_k_valuation_matches_object_path(self):
        poly = Polynomial.from_tensor(self.HEAVY)
        fast = orthogonal_additivity_check(poly, OA_K_VALUATION, samples=30, seed=5)
        slow = orthogonal_additivity_check(poly, OA_K_VALUATION, samples=30, seed=5, force_object=True)
        assert not fast.passed
        assert (fast.samples_checked, fast.counterexample) == (slow.samples_checked, slow.counterexample)

    # a dense n**m array of this tensor would be 40**6 int64 entries,
    # 30.5 GiB; its table has one row
    WIDE = SymTensor(Space.finite(40), 6, {(1,) * 6: 1})

    def test_gather_runs_in_chunks_within_the_byte_budget(self, monkeypatch):
        # every set of five distinct points out of eight: 56 rows of weight
        # 5!, each read through 16 signed rows per sample
        tensor = SymTensor(Space.finite(8), 5, {idx: 1 for idx in combinations(range(1, 9), 5)})
        core, _ = dense_core(tensor)
        assert core.shape == (56, 7) and checks._weight_sum(core) == 6720
        args = np.ones((900, 5, 8), dtype=np.int64)  # 900 * 16 * 56 * 8 bytes gathered, 6.5 MB at once
        cap = 2**22
        monkeypatch.setattr(intpath, "_BYTE_CAP", cap)
        tracemalloc.start()
        try:
            values = form_eval_batch(core, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * cap  # one chunk's signed stack, product and the factor gathered into it
        assert list(values) == [6720] * 900

    @pytest.mark.parametrize("entry", [2**61 - 1, 2**57, -(2**60) + 3])
    @pytest.mark.parametrize("idx", [(1, 1, 2, 3), (1, 2, 3, 4)], ids=["weight-12", "weight-24"])
    def test_large_mixed_entries_do_not_wrap(self, idx, entry):
        tensor = SymTensor(F4, 4, {idx: entry, (2, 2, 2, 2): 1})
        core, scale = dense_core(tensor)
        assert scale == 1
        mass = sum(abs(int(c)) * max(int(w), 1) for c, w in core[:, 4:])
        assert (core.dtype == np.int64) == (mass < INT64_LIMIT)
        xs = np.array([[1, 1, 1, 1], [3, -2, 1, 5], [0, 0, 0, 0]], dtype=np.int64)
        for x, value in zip(xs, poly_eval_batch(core, xs)):
            assert value == tensor.evaluate_diagonal(Element.finite(x.tolist()))
        args = np.stack([xs, xs[::-1], -xs, xs], axis=1)
        for row, value in zip(args, form_eval_batch(core, args)):
            assert value == tensor.evaluate([Element.finite(x.tolist()) for x in row])
        assert polarize_tensor_int(tensor) == tensor.entries

    @pytest.mark.parametrize("mode", [OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT])
    @pytest.mark.parametrize(
        "poly",
        [
            to_polynomial(Measure(F3, {1: 5, 2: Fraction(-7, 3), 3: Fraction(1, 2)}), 10),
            Polynomial.from_tensor(SymTensor(F3, 10, {(1,) * 9 + (2,): 1, (3,) * 10: 2})),
        ],
        ids=["measure", "off-diagonal"],
    )
    def test_degree_ten_krivine_matches_object_path(self, mode, poly):
        # sample values reach 108, so 108**10 leaves int64 on the first batch
        fast = orthogonal_additivity_check(poly, mode, samples=40, seed=3)
        assert fast == orthogonal_additivity_check(poly, mode, samples=40, seed=3, force_object=True)

    @pytest.mark.parametrize("m", [38, 39, 70])
    def test_krivine_product_draw_keeps_its_values(self, m):
        # every x_i is at most 3 ** (m + 1); past the int64 bound the same draw comes as Python ints
        kernels = checks._PolyKernels(to_polynomial(Measure(F3, {1: 1}), m))
        (block,), _ = checks._oa_draw(OA_KRIVINE_PRODUCT, np.random.default_rng(m), 4, kernels)
        g = np.random.default_rng(m).integers(1, 4, size=(4, m, 3)).tolist()
        u = [[math.prod(gs[i][t] for i in range(m)) for t in range(3)] for gs in g]
        expected = [[[us[t] // gs[(i + 1) % m][t] * gs[i][t] for t in range(3)] for i in range(m)] for gs, us in zip(g, u)]
        assert block.tolist() == expected
        assert block.dtype == (np.int64 if m <= 38 else object)

    @pytest.mark.parametrize("space", [F3, OM], ids=["finite", "omega1"])
    def test_degree_seventy_krivine_product_passes_on_a_measure(self, space):
        poly = to_polynomial(Measure(space, {1: 1, 2: -2}), 70)
        fast = orthogonal_additivity_check(poly, OA_KRIVINE_PRODUCT)
        assert fast.passed and fast == orthogonal_additivity_check(poly, OA_KRIVINE_PRODUCT, force_object=True)

    @pytest.mark.parametrize(
        "block",
        [np.array([[[1, 1], [2, 1]]]), np.array([[[1, 1], [2**41, 1]]], dtype=object)],
        ids=["int64", "object"],
    )
    def test_krivine_product_root_miss_is_an_invariant_violation(self, block):
        # the first point's row product, 2 or 2**41, is not a square
        kernels = checks._PolyKernels(Polynomial.from_tensor(SymTensor(F2, 2, {(1, 2): 1})))
        assert form_eval_batch(kernels._core[0], block).dtype == block.dtype
        with pytest.raises(InvariantViolation, match="not an exact m-th power"):
            checks._krivine_product_sides(kernels, block)

    @pytest.mark.parametrize("mode", [OS_J_IDENTITY, OS_DISJOINT])
    def test_wide_tensor_takes_the_int_path(self, monkeypatch, mode):
        original, returned = checks.form_eval_batch, []

        def recorded(core, args):
            returned.append(original(core, args))
            return returned[-1]

        monkeypatch.setattr(checks, "form_eval_batch", recorded)
        assert dense_core(self.WIDE)[0].shape == (1, 8)
        fast = orthosymmetry_check(self.WIDE, mode, samples=5, seed=2)
        assert returned  # at least one batch ran on the int kernel
        slow = orthosymmetry_check(self.WIDE, mode, samples=5, seed=2, force_object=True)
        assert fast == slow and fast.passed


@st.composite
def _tensor_batches(draw):
    """A tensor with repeated indices and mixed denominators, plus int
    argument rows (S, m, n), diagonal rows (S, n), stacks of diagonal rows
    (S, k, n) and measure weights (n,)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    index = st.lists(st.integers(1, n), min_size=m, max_size=m).map(lambda idx: tuple(sorted(idx)))
    value = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    tensor = SymTensor(Space.finite(n), m, draw(st.dictionaries(index, value, max_size=6)))
    samples = draw(st.integers(0, 4))
    values = st.integers(-20, 20)
    args = draw(arrays(np.int64, (samples, m, n), elements=values))
    xs = draw(arrays(np.int64, (samples, n), elements=values))
    stack = draw(arrays(np.int64, (samples, draw(st.integers(1, 4)), n), elements=values))
    return tensor, args, xs, stack, draw(arrays(np.int64, (n,), elements=values))


@st.composite
def _measure_stacks(draw):
    """A measure on finite(n) with weights over mixed denominators, some
    past int64, a degree m, and stacks (S, k, n) of int rows, k in 1..4."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    value = st.builds(Fraction, st.integers(-(2**64), 2**64) | st.integers(-20, 20), st.integers(1, 12))
    mu = Measure(Space.finite(n), draw(st.dictionaries(st.integers(1, n), value, max_size=n)))
    shape = (draw(st.integers(0, 4)), draw(st.integers(1, 4)), n)
    return mu, m, draw(arrays(np.int64, shape, elements=st.integers(-120, 120)))


_PRIMES = [1, 2, 3, 7919, 104729, 1000003, 998244353, 999999937]  # denominators up to 10**9


@st.composite
def _large_instances(draw):
    """A measure polynomial of degree <= 10 or a tensor of degree <= 6 with
    scaled entries up to 10**30 over prime denominators up to 10**9."""
    n = draw(st.integers(1, 3))
    value = st.builds(Fraction, st.integers(-(10**30), 10**30), st.sampled_from(_PRIMES))
    if draw(st.booleans()):
        atoms = draw(st.dictionaries(st.integers(1, n), value, max_size=n))
        return to_polynomial(Measure(Space.finite(n), atoms), draw(st.integers(1, 10)))
    m = draw(st.integers(1, 6))
    index = st.lists(st.integers(1, n), min_size=m, max_size=m).map(lambda idx: tuple(sorted(idx)))
    return Polynomial.from_tensor(SymTensor(Space.finite(n), m, draw(st.dictionaries(index, value, max_size=3))))


class TestExactAtEverySize:
    @settings(max_examples=60, deadline=None)
    @given(_large_instances(), st.integers(0, 2**32 - 1))
    def test_every_mode_matches_object_path(self, poly, seed):
        samples = structured_pair_count(poly.space.n, poly.degree) + 4
        for mode in OA_MODES:
            fast = orthogonal_additivity_check(poly, mode, samples, seed)
            assert fast == orthogonal_additivity_check(poly, mode, samples, seed, force_object=True), mode
        if poly.kind == TENSOR and poly.degree >= 2:
            for mode in OS_MODES:
                if mode != OS_BILINEAR or poly.degree == 2:
                    fast = orthosymmetry_check(poly.rep, mode, samples, seed)
                    assert fast == orthosymmetry_check(poly.rep, mode, samples, seed, force_object=True), mode


class TestIntKernel:
    """The int64 kernels against the Fraction reference on the same rows."""

    @settings(max_examples=80, deadline=None)
    @given(_tensor_batches())
    def test_int_kernel_matches_fraction_reference(self, case):
        tensor, args, xs, stack, weights = case
        core, scale = dense_core(tensor)
        for row, value in zip(args, form_eval_batch(core, args)):
            assert Fraction(int(value), scale) == tensor.evaluate([Element.finite(list(x)) for x in row])
        for x, value in zip(xs, poly_eval_batch(core, xs)):
            assert Fraction(int(value), scale) == tensor.evaluate_diagonal(Element.finite(list(x)))
        # a stack evaluates to the sum of its rows' single-row calls
        for kernel in (partial(poly_eval_batch, core), partial(measure_poly_eval_batch, weights, tensor.degree)):
            rows = [kernel(stack[:, j]) for j in range(stack.shape[1])]
            assert list(kernel(stack)) == [sum(map(int, values)) for values in zip(*rows)]
        assert polarize_tensor_int(tensor) == tensor.entries

    @settings(max_examples=80, deadline=None)
    @given(_measure_stacks())
    def test_measure_table_matches_integrate(self, case):
        # P of a measure through its diagonal table is sum_t w_t x(t)^m
        mu, m, stack = case
        core, scale = diagonal_core(mu, m)
        for sample, value in zip(stack, poly_eval_batch(core, stack)):
            expected = sum((mu.integrate(Element.finite(x.tolist()), m) for x in sample), Fraction(0))
            assert Fraction(int(value), scale) == expected


class TestBenchmarkTargets:
    def test_layer_targets_resolve(self, monkeypatch):
        """Every function the benchmark traces by name exists where it looks,
        and a byte counter takes the same arguments as its function."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        worker = importlib.import_module("worker")
        for target in worker._layer_targets():
            holder = importlib.import_module(target.module)
            owner, _, name = target.qualname.rpartition(".")
            if owner:
                holder = getattr(holder, owner)
                assert name in vars(holder), target.label
            function = getattr(holder, name)
            assert callable(function), target.label
            if target.counter is not None:
                wanted = list(inspect.signature(function).parameters)
                assert list(inspect.signature(target.counter).parameters) == wanted, target.label


class TestSharedKernels:
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_p_values_list_no_arrangement(self, monkeypatch, diagonal):
        # every mode but the Krivine product, and the polarisation, read P
        # alone: neither the multilinear kernel nor the multiplicity DP runs
        def refuse(*args):
            raise AssertionError("a multilinear value was read")

        tensor = sym_tensor(rng_for("weighted-only", diagonal), F4, 5, diagonal=diagonal,
                            ensure_off_diagonal=not diagonal)
        monkeypatch.setattr(checks, "form_eval_batch", refuse)
        monkeypatch.setattr(tensors, "_arranged", refuse)
        poly = Polynomial.from_tensor(tensor)
        for mode in OA_MODES:
            if mode != OA_KRIVINE_PRODUCT:
                assert orthogonal_additivity_check(poly, mode, samples=40, seed=2).passed == diagonal, mode
        assert polarize_tensor_int(tensor) == tensor.entries

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_agreement_builds_the_dense_core_once(self, monkeypatch, diagonal):
        tensor = sym_tensor(rng_for("kernels", diagonal), F4, 3, diagonal=diagonal, ensure_off_diagonal=not diagonal)
        built = _counting(monkeypatch, "diagonal_core")
        oa_mode_agreement(Polynomial.from_tensor(tensor), samples=structured_pair_count(4, 3) + 10, seed=3)
        assert len(built) <= 1

    @pytest.mark.parametrize("space", [F4, Space.omega_plus_one()])
    def test_agreement_sums_the_table_weights_once(self, monkeypatch, space):
        # every mode's chunks are sized by one weight sum of the one table;
        # omega1 runs the object sweep and sums nothing
        sums = _counting(monkeypatch, "_weight_sum")
        poly = to_polynomial(Measure(space, {1: 2, 3: Fraction(-1, 3)}), 3)
        assert all(v.passed for v in oa_mode_agreement(poly, 40, 4).values())
        assert len(sums) == (1 if space.is_finite else 0)

    def test_agreement_builds_a_measure_table_once(self, monkeypatch):
        # P and the Krivine product's form side read one table
        original, calls = intpath.measure_weights, []
        monkeypatch.setattr(intpath, "measure_weights", lambda mu: calls.append(mu) or original(mu))
        poly = to_polynomial(Measure(Space.finite(5), {1: 2, 3: Fraction(-1, 3), 5: 4}), 3)
        verdicts = oa_mode_agreement(poly, structured_pair_count(5, 3) + 26, 4)
        assert all(v.passed for v in verdicts.values()) and len(calls) == 1

    @pytest.mark.parametrize(
        "mu",
        [
            Measure(F4, {1: 1, 2: -2, 4: Fraction(1, 2)}),
            Measure(F3, {2: Fraction(-5, 6), 3: Fraction(7, 4)}),
            Measure(F2, {}),
            Measure(F3, {1: 2**62, 3: Fraction(-1, 3)}),
        ],
        ids=["integers", "fractions", "zero", "past-int64"],
    )
    @pytest.mark.parametrize("m", [1, 3])
    def test_measure_table_matches_the_polarised_table(self, mu, m):
        # a measure's tables, read from its weights, directly and through
        # the polynomial's kernels, are the table of its polarisation
        old_table, old_scale = dense_core(polarize(to_polynomial(mu, m)))
        kernels = checks._PolyKernels(to_polynomial(mu, m))
        for table, scale in (kernels._core, diagonal_core(mu, m), dense_core(mu, m)):
            assert table.dtype == old_table.dtype and table.shape == old_table.shape
            assert np.array_equal(table, old_table) and scale == old_scale
            assert (table.dtype == object) == (mu.atoms.get(1) == 2**62)


def _whole_block_check(mode, thing, blocks, denom, int_sides, evaluate=lambda side: side):
    """The driver before chunking, kept as the reference for the chunks:
    each block through ``int_sides`` in one call, each side turned into
    values by ``evaluate``, then its first mismatch."""
    checked = 0
    for block in blocks:
        bad = checks._first_diff(*map(evaluate, int_sides(block)))
        if bad is not None:
            args = [checks._element(thing.space, row, denom) for row in block[bad]]
            return checks._failure(mode, thing, args, checked + bad, checked + bad + 1)
        checked += len(block)
    return checks.CheckVerdict(mode, True, checked)


def _recording(int_sides):
    """``int_sides`` plus the list of chunk lengths it was called on."""
    lengths = []

    def recorded(chunk):
        lengths.append(len(chunk))
        return int_sides(chunk)

    return recorded, lengths


class TestChunkedDriver:
    # x1 y2 + x2 y1 has a table of one row of weight two; two argument slots
    # and a budget of 12 make chunks of 3, 12, 48 samples, so a block of 70
    # ends its chunks at 3, 15, 63 and 70
    FORM = SymTensor(F3, 2, {(1, 2): 1})
    WORK = 12

    @staticmethod
    def _plant(block, failing):
        """Disjoint basis pairs c*e1, c*e2 at each failing index, distinct per index."""
        for i in failing:
            block[i, 0, 0] = block[i, 1, 1] = checks.SCALE * (i + 1)
        return block

    @pytest.mark.parametrize(
        "failing, lengths",
        [
            ([0], [3]),
            ([2, 5], [3]),
            ([3, 4], [3, 12]),
            ([14, 69], [3, 12]),
            ([15], [3, 12, 48]),
            ([63], [3, 12, 48, 7]),
            ([69], [3, 12, 48, 7]),
            ([], [3, 12, 48, 7]),
        ],
        ids=["first", "end-of-first-chunk", "on-boundary", "end-of-second-chunk", "on-second-boundary",
             "start-of-last-chunk", "last", "passing"],
    )
    def test_one_block_matches_whole_block(self, monkeypatch, failing, lengths):
        monkeypatch.setattr(checks, "_CHUNK_WORK", self.WORK)
        core, _ = dense_core(self.FORM)
        assert checks._weight_sum(core) == 2
        int_sides = partial(checks._os_int_sides, core, OS_DISJOINT)
        blocks = [self._plant(np.zeros((70, 2, 3), dtype=np.int64), failing)]
        recorded, seen = _recording(int_sides)
        identity = checks._Identity(OS_DISJOINT, self.FORM, blocks, checks.SCALE, recorded, checks._weight_sum(core))
        (chunked,) = checks._sampled_check([identity])
        assert chunked == _whole_block_check(OS_DISJOINT, self.FORM, blocks, checks.SCALE, int_sides)
        assert chunked.passed == (not failing)
        assert chunked.samples_checked == (failing[0] + 1 if failing else 70)
        assert seen == lengths  # stopped at the chunk holding the first failure

    @pytest.mark.parametrize(
        "failing, checked, lengths",
        [([0], 11, [3, 7, 2]), ([2], 13, [3, 7, 2, 8]), ([9], 20, [3, 7, 2, 8]), ([], 25, [3, 7, 2, 8, 1, 4])],
        ids=["first", "on-boundary", "end-of-second-chunk", "passing"],
    )
    def test_second_k_valuation_block(self, monkeypatch, failing, checked, lengths):
        # a failing 3-tuple in the second of the k = 2, 3, 4 blocks: its
        # offset counts the whole first block, and the chunks restart at the
        # budget for each block's slots (3, 2 and 1 samples)
        monkeypatch.setattr(checks, "_CHUNK_WORK", self.WORK)
        poly = Polynomial.from_tensor(self.FORM)
        kernels = checks._PolyKernels(poly)
        assert kernels.rows == 2
        blocks = [np.zeros((10, 2, 3), dtype=np.int64), np.zeros((10, 3, 3), dtype=np.int64),
                  np.zeros((5, 4, 3), dtype=np.int64)]
        self._plant(blocks[1], failing)
        int_sides = partial(checks._oa_int_sides, OA_K_VALUATION, kernels)
        recorded, seen = _recording(int_sides)
        identity = checks._Identity(OA_K_VALUATION, poly, blocks, checks.SCALE, recorded, kernels.rows)
        (chunked,) = checks._sampled_check([identity], kernels)
        assert chunked == _whole_block_check(OA_K_VALUATION, poly, blocks, checks.SCALE, int_sides, kernels.evaluate)
        assert chunked.samples_checked == checked
        assert chunked.passed == (not failing)
        if failing:
            assert chunked.counterexample["sampleIndex"] == checked - 1
        assert seen == lengths

    @pytest.mark.parametrize("work", [1, 40])
    def test_every_mode_matches_object_path_in_small_chunks(self, monkeypatch, work):
        monkeypatch.setattr(checks, "_CHUNK_WORK", work)
        monkeypatch.setattr(checks, "_CALL_WORK", work)
        rng = rng_for("chunks", work)
        polys = [
            to_polynomial(measure(rng, F3), 3),
            Polynomial.from_tensor(sym_tensor(rng, F3, 3, diagonal=True)),
            Polynomial.from_tensor(sym_tensor(rng, F3, 3, ensure_off_diagonal=True)),
            Polynomial.from_tensor(sym_tensor(rng, F3, 2, ensure_off_diagonal=True)),
        ]
        for poly in polys:
            samples = structured_pair_count(3, poly.degree) + 40
            for mode in OA_MODES:
                fast = orthogonal_additivity_check(poly, mode, samples, 5)
                assert fast == orthogonal_additivity_check(poly, mode, samples, 5, force_object=True), mode
            if poly.kind == TENSOR:
                for mode in OS_MODES:
                    if mode != OS_BILINEAR or poly.degree == 2:
                        fast = orthosymmetry_check(poly.rep, mode, samples, 5)
                        assert fast == orthosymmetry_check(poly.rep, mode, samples, 5, force_object=True), mode

    def test_passing_small_table_block_runs_in_one_call(self, monkeypatch):
        calls = _counting(monkeypatch, "_os_int_sides")
        tensor = SymTensor.diagonal(F4, 3, {1: 2, 3: -1, 4: Fraction(1, 3)})
        for mode in (OS_J_IDENTITY, OS_DISJOINT):
            calls.clear()
            assert orthosymmetry_check(tensor, mode, samples=626, seed=1).passed
            assert len(calls) == 1, mode
        calls = _counting(monkeypatch, "_oa_int_sides")
        poly = to_polynomial(Measure(F4, {1: 1, 2: -2, 4: Fraction(1, 2)}), 3)
        for mode in OA_MODES:
            calls.clear()
            assert orthogonal_additivity_check(poly, mode, samples=96, seed=1).passed
            assert len(calls) == (3 if mode == OA_K_VALUATION else 1), mode

    def test_first_chunk_budget_schedule(self):
        # a table of weight sum 2**12 on two argument slots fills the
        # 2**13-entry first chunk with one sample, so a 24-sample block runs
        # in chunks of 1, 4, 16 and 3 samples
        block = np.zeros((24, 2, 3), dtype=np.int64)
        identity = checks._Identity(OS_DISJOINT, self.FORM, [block], checks.SCALE, lambda chunk: (), 2**12)
        assert [len(chunk) for _, chunk in checks._chunks(identity)] == [1, 4, 16, 3]


def _benchmark_items(monkeypatch, name, seeds):
    """The items of one rotation of a perfbench workload at each seed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    return [workload.make(seed, k) for seed in seeds for k in range(workload.rotation)]


def _counting_gathers(monkeypatch):
    """The list of entries (samples x rows x slots) each later
    `_intpath._gather_product` call gathers."""
    gathered, original = [], intpath._gather_product

    def gather(points, coeffs, slots, max_abs, k=1):
        gathered.append(slots[0].shape[0] * len(coeffs) * len(slots))
        return original(points, coeffs, slots, max_abs, k)

    monkeypatch.setattr(intpath, "_gather_product", gather)
    return gathered


def _single_checks(poly, samples, seed):
    """Each OA mode checked on its own, on the child seed `oa_mode_agreement` gives it."""
    children = np.random.SeedSequence(seed).spawn(len(OA_MODES))
    return {mode: orthogonal_additivity_check(poly, mode, samples, child) for mode, child in zip(OA_MODES, children)}


class TestMultiIdentityDriver:
    """`oa_mode_agreement` checks the seven modes in shared rounds; each mode's
    verdict is the one its own check returns."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_agreement_matches_single_checks_on_oa_grid(self, monkeypatch, seed):
        items = _benchmark_items(monkeypatch, "oa-grid", [seed])
        assert len(items) == 48  # 12 cells x measure, diagonal, measure, off-diagonal
        for item in items:
            poly = Polynomial.from_tensor(item.instance) if isinstance(item.instance, SymTensor) else item.instance
            assert oa_mode_agreement(poly, item.samples, item.seed) == _single_checks(poly, item.samples, item.seed)

    def test_agreement_matches_single_checks_on_wide_forms(self, monkeypatch):
        for item in _benchmark_items(monkeypatch, "wide-forms", [1]):
            poly = Polynomial.from_tensor(item.instance)
            assert oa_mode_agreement(poly, item.samples, item.seed) == _single_checks(poly, item.samples, item.seed)

    def test_first_failure_in_the_second_chunk(self, monkeypatch):
        # x2 y3 + x3 y2 has a table of two rows; two argument slots and a
        # budget of 12 make chunks of 3, 12, ... samples, and the pair
        # sweep reaches points (2, 3) at sample 6, inside the second chunk
        monkeypatch.setattr(checks, "_CHUNK_WORK", 12)
        monkeypatch.setattr(checks, "_CALL_WORK", 12)
        poly = Polynomial.from_tensor(SymTensor(F3, 2, {(2, 3): 1}))
        samples = structured_pair_count(3, 2) + 10
        together = oa_mode_agreement(poly, samples, 7)
        assert together == _single_checks(poly, samples, 7)
        for mode in (OA_DISJOINT_ADD, OA_POSITIVE_CONE, OA_KRIVINE_SUM):
            assert together[mode].samples_checked == 7 and together[mode].counterexample["sampleIndex"] == 6

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_fused_calls_keep_the_work_budget(self, monkeypatch, diagonal):
        # the largest wide-forms cell, (m, n) = (4, 12)
        m, n = 4, 12
        tensor = sym_tensor(rng_for("budget", diagonal), Space.finite(n), m, diagonal=diagonal,
                            ensure_off_diagonal=not diagonal)
        core, _ = dense_core(tensor)
        terms = len(core)  # the rows P sums
        gathered, chunks = _counting_gathers(monkeypatch), []
        original_sides = checks._oa_int_sides

        def sides(mode, kernels, block):
            out = original_sides(mode, kernels, block)
            # what each side of this chunk gathers alone, the form side at
            # most 2**(m-1) signed rows per sample
            chunks.extend(
                len(side) * side.shape[1] * terms * m if side.ndim == 3 else len(block) * 2 ** (m - 1) * terms * m
                for side in out
            )
            return out

        monkeypatch.setattr(checks, "_oa_int_sides", sides)
        oa_mode_agreement(Polynomial.from_tensor(tensor), structured_pair_count(n, m) + 26, 1)
        assert chunks and gathered
        assert max(gathered) <= max(intpath._CALL_WORK, max(chunks))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_failing_check_gathers_one_first_chunk(self, monkeypatch, seed):
        # an off-diagonal tensor on the largest wide-forms cell fails these
        # identities at sample 0; the check reads one first chunk, sized to
        # 2**13 entries, on each side of the identity and stops
        m, n = 4, 12
        tensor = sym_tensor(rng_for("first-chunk", seed), Space.finite(n), m, ensure_off_diagonal=True)
        poly = Polynomial.from_tensor(tensor)
        gathered = _counting_gathers(monkeypatch)
        runs = [partial(orthosymmetry_check, tensor, OS_J_IDENTITY, 200, seed)]
        runs += [partial(orthogonal_additivity_check, poly, mode, structured_pair_count(n, m) + 26, seed)
                 for mode in (OA_POS_NEG, OA_VALUATION, OA_K_VALUATION, OA_KRIVINE_PRODUCT)]
        for run in runs:
            gathered.clear()
            verdict = run()
            assert not verdict.passed and verdict.samples_checked == 1, verdict.mode
            assert sum(gathered) <= 2 * 2**13, verdict.mode

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_measure_polynomial_kernel_calls(self, monkeypatch, seed):
        # one call per stack depth 1..4 and one for the Krivine product's form side
        calls = [_counting(monkeypatch, name) for name in ("poly_eval_batch", "form_eval_batch")]
        poly = to_polynomial(measure(rng_for("kernel-calls", seed), Space.finite(5)), 4)
        verdicts = oa_mode_agreement(poly, structured_pair_count(5, 4) + 26, seed)
        assert all(v.passed and v.samples_checked == 96 for v in verdicts.values())
        assert sum(map(len, calls)) <= 6


class TestSampledStreams:
    # sha256 of the verdict stream below; every finite-space verdict and
    # counterexample must stay byte-identical when the samplers or the
    # driver change
    DIGEST = "0932496621f22a9545ffd83c17b0ad7d266885b8e300d1a972ea314768bd7d7e"

    def test_stream_digest(self):
        lines = []
        for i, (n, m) in enumerate([(2, 2), (3, 3), (4, 2), (3, 4)]):
            space = Space.finite(n)
            rng = rng_for("streams", i)
            tensors = [sym_tensor(rng, space, m, diagonal=True), sym_tensor(rng, space, m, ensure_off_diagonal=True)]
            polys = [to_polynomial(measure(rng, space), m)] + [Polynomial.from_tensor(t) for t in tensors]
            forms = tensors + [matrix_form(rng, space)]
            for samples in (4, structured_pair_count(n, m) + 5):
                for force_object in (False, True):
                    verdicts = [
                        orthogonal_additivity_check(poly, mode, samples, i, force_object)
                        for poly in polys
                        for mode in OA_MODES
                    ] + [
                        orthosymmetry_check(form, mode, samples, i, force_object)
                        for form in forms
                        for mode in OS_MODES
                        if mode != OS_BILINEAR or form.degree == 2
                    ]
                    lines += [
                        json.dumps([v.mode, v.passed, v.samples_checked, v.decisive, v.counterexample], sort_keys=True)
                        for v in verdicts
                    ]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST


def _loop_disjoint_pairs(rng, samples, n, m, positive):
    """The row-by-row sweep `checks._disjoint_pairs` replaced, kept as its oracle."""
    pairs = np.zeros((samples, 2, n), dtype=np.int64)
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]
    row = 0
    for s in range(n):
        for t in range(s + 1, n):
            for a, b in checks._ratio_grid(m):
                if row >= samples:
                    break
                xs[row, s] = a * checks.SCALE
                ys[row, t] = b * checks.SCALE
                row += 1
    rest = samples - row
    if rest > 0:
        mask = checks._masks(rng, rest, n)
        left, right = checks._values(rng, (rest, n)), checks._values(rng, (rest, n))
        if positive:
            left, right = np.abs(left), np.abs(right)
        xs[row:] = np.where(mask, left, 0)
        ys[row:] = np.where(mask, 0, right)
    return pairs


class TestDisjointPairs:
    @pytest.mark.parametrize("positive", [False, True])
    def test_vectorised_sweep_matches_the_loop(self, positive):
        for n in range(1, 10):
            for m in range(1, 6):
                for samples in (1, 5, 37, 200):
                    seed = [n, m, samples]
                    fast = checks._disjoint_pairs(np.random.default_rng(seed), samples, n, m, positive)
                    slow = _loop_disjoint_pairs(np.random.default_rng(seed), samples, n, m, positive)
                    assert fast.dtype == slow.dtype and np.array_equal(fast, slow), seed

    @pytest.mark.parametrize("n", [63, 64, 70])
    def test_masks_split_the_points_at_every_size(self, n):
        masks = checks._masks(np.random.default_rng(n), 50, n)
        assert masks.shape == (50, n) and masks.any(axis=1).all() and not masks.all(axis=1).any()
        poly = to_polynomial(Measure(Space.finite(n), {1: 1, n: -2}), 2)
        assert orthogonal_additivity_check(poly, OA_DISJOINT_ADD, structured_pair_count(n, 2) + 20, seed=n).passed

    def test_empty_and_full_masks_are_redrawn_past_63_points(self):
        class Scripted:
            """Hands out the given draws in turn."""

            def __init__(self, *draws):
                self.draws = list(draws)

            def integers(self, low, high, size):
                assert (low, high) == (0, 2) and self.draws[0].shape == size
                return self.draws.pop(0)

        n = 64
        first = np.array([[1] * n, [0] * n, [1, 0] * (n // 2)])
        second = np.array([[0] * n, [0, 1] * (n // 2)])  # the full row redrawn empty, the empty one split
        third = np.array([[1, 1] + [0] * (n - 2)])
        masks = checks._masks(Scripted(first, second, third), 3, n)
        assert masks.tolist() == np.array([third[0], second[1], first[2]], dtype=bool).tolist()

    def test_sweep_is_cached_read_only(self):
        sweep = checks._sweep(5, 3)
        assert checks._sweep(5, 3) is sweep
        assert not any(array.flags.writeable for array in sweep)
        pairs = checks._disjoint_pairs(np.random.default_rng(0), 8, 5, 3, positive=False)
        pairs[:] = -1  # the block is the caller's own
        again = checks._disjoint_pairs(np.random.default_rng(0), 8, 5, 3, positive=False)
        assert again[0, 0, 0] == checks.SCALE and len(sweep[0]) == structured_pair_count(5, 3)


class TestIdentitySides:
    def test_krivine_product_frozen_value(self):
        poly = to_polynomial(Measure(F2, {1: 1, 2: 1}), 2)
        lhs, rhs = oa_identity_sides(poly, OA_KRIVINE_PRODUCT, [fin(1, 4), fin(4, 1)])
        assert (lhs, rhs) == (8, 8)

    def test_krivine_sum_roots_disjoint_pair(self):
        poly = to_polynomial(Measure(F2, {1: 1, 2: 3}), 2)
        x, y = fin(2, 0), fin(0, 5)
        lhs, rhs = oa_identity_sides(poly, OA_KRIVINE_SUM, [x, y])
        assert lhs == rhs == poly.evaluate(x + y)

    def test_diagonal_tensor_evaluates_irrational_radical(self):
        # sqrt(2) * e_1 does not root exactly; P reads its base through the
        # representing measure, which only orthogonally additive P has
        radical = RadicalElement(2, fin(2, 0, 0))
        assert radical.exact_root() is None
        assert Polynomial.from_tensor(SymTensor.diagonal(F3, 2, {1: 1})).evaluate(radical) == 2
        mixed = Polynomial.from_tensor(SymTensor(F3, 2, {(1, 1): 1, (1, 2): 1}))
        with pytest.raises(RepresentationError):
            mixed.evaluate(radical)

    def test_krivine_sum_of_diagonal_tensor_at_irrational_radical(self):
        poly = Polynomial.from_tensor(SymTensor.diagonal(F3, 2, {1: 1}))
        e1 = fin(1, 0, 0)
        assert oa_identity_sides(poly, OA_KRIVINE_SUM, [e1, e1]) == (2, 2)

    def test_valuation_sides(self):
        poly = to_polynomial(Measure(F2, {1: 1, 2: 1}), 2)
        lhs, rhs = oa_identity_sides(poly, "valuation", [fin(3, 1), fin(1, 3)])
        assert lhs == rhs == 20

    def test_pos_neg_sign_alternates(self):
        x = fin(2, -3)
        even = to_polynomial(Measure(F2, {1: 1, 2: 1}), 2)
        odd = to_polynomial(Measure(F2, {1: 1, 2: 1}), 3)
        lhs, rhs = oa_identity_sides(even, "pos-neg-split", [x])
        assert lhs == rhs == 13
        lhs, rhs = oa_identity_sides(odd, "pos-neg-split", [x])
        assert lhs == rhs == 8 - 27

    def test_unknown_mode(self):
        poly = to_polynomial(Measure(F2, {1: 1}), 2)
        with pytest.raises(ValueError):
            oa_identity_sides(poly, "nope", [fin(1, 1)])


_ORACLE_SPACES = st.sampled_from([Space.finite(1), F2, F3, F4, OM])


@st.composite
def _oracle_measure(draw, space):
    """A measure with up to four atoms; on omega1 at points 1..8, some past
    the longest drawn row, and a limit atom, sometimes zero."""
    points = st.integers(1, space.n if space.is_finite else 8)
    weight = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    atoms = draw(st.dictionaries(points, weight, max_size=4))
    return Measure(space, atoms, 0 if space.is_finite else draw(weight))


@st.composite
def _oracle_row(draw, space, nonnegative):
    """An Element row: entries up to 9 in absolute value, sometimes 30
    digits, over a denominator in {1, 2, 3, 4, 6, 12}; on omega1 up to five
    prefix values."""
    entries = st.integers(0 if nonnegative else -9, 9) | st.integers(0 if nonnegative else -(10**30), 10**30)
    size = space.n if space.is_finite else draw(st.integers(1, 6))
    return Element(space, draw(st.lists(entries, min_size=size, max_size=size)), draw(st.sampled_from([1, 2, 3, 4, 6, 12])))


class TestJsonOaOracle:
    """`oa_identity_sides` and the integer comparison `_agrees` on measure
    polynomials against `oracles.json_oa_sides`, which reads the polynomial
    and the arguments from their JSON alone."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sides_match_the_json_oracle(self, data):
        space, m, mode = data.draw(_ORACLE_SPACES), data.draw(st.integers(1, 4)), data.draw(st.sampled_from(OA_MODES))
        poly = to_polynomial(data.draw(_oracle_measure(space)), m)
        count = {OA_K_VALUATION: data.draw(st.integers(2, 4)), OA_KRIVINE_PRODUCT: m}.get(mode, checks._ARITY.get(mode))
        krivine = mode in (OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT)
        args = [data.draw(_oracle_row(space, krivine)) for _ in range(count)]
        if krivine and data.draw(st.booleans()):
            # radicals that root: a positive disjoint pair's power sum, a power's product
            x = args[0]
            args = [x, Element(space, [0 if v else 5 for v in x.nums], 1)] if mode == OA_KRIVINE_SUM else [x] * m
        lhs, rhs = oa_identity_sides(poly, mode, args)
        expected = json_oa_sides(to_obj(poly), mode, [to_obj(x) for x in args])
        assert (lhs, rhs) == expected, (mode, lhs, rhs, expected)
        assert (str(lhs), str(rhs)) == tuple(map(str, expected))
        assert checks._agrees(poly, mode, args) == (expected[0] == expected[1])
