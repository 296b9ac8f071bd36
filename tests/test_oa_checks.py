"""Sampled identity checks for orthosymmetry and orthogonal additivity."""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
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
    GeneralMatrixForm,
    Measure,
    Polynomial,
    Space,
    SymTensor,
    attach_instance,
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
from riesz_lab._intpath import INT64_LIMIT, dense_core, form_eval_batch, poly_eval_batch, polarize_tensor_int
from riesz_lab.checks import (
    OA_DISJOINT_ADD,
    OA_K_VALUATION,
    OA_KRIVINE_PRODUCT,
    OA_KRIVINE_SUM,
    OA_MODES,
    OA_POSITIVE_CONE,
    OS_BILINEAR,
    OS_DIAGONAL,
    OS_DISJOINT,
    OS_J_IDENTITY,
    OS_MODES,
)
from riesz_lab.errors import DegreeMismatchError, InvariantViolation
from riesz_lab.polynomials import TENSOR
from riesz_lab.sampling import matrix_form, measure, rational, rng_for, sym_tensor
from riesz_lab.tensors import nondecreasing_indices

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
        form = GeneralMatrixForm(F3, [[1, 0, 0], [0, 2, 1], [0, 0, 3]])
        verdict = orthosymmetry_check(form, OS_DISJOINT, samples=4, seed=9)
        assert not verdict.passed
        payload = attach_instance(verdict.counterexample, to_obj(form))
        assert reverify_counterexample(payload)

        diag = GeneralMatrixForm(F3, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
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
                assert fast == slow, (form.rows if isinstance(form, GeneralMatrixForm) else form, mode, samples)

    def test_passing_check_runs_no_object_identity(self, monkeypatch):
        sides = _counting(monkeypatch, "os_identity_sides")
        forms = [GeneralMatrixForm(F3, [[2, 0, 0], [0, -1, 0], [0, 0, Fraction(1, 3)]]),
                 SymTensor.diagonal(F3, 2, {1: 2, 3: -1}), SymTensor.diagonal(F4, 3, {2: 5})]
        for form in forms:
            for mode in OS_MODES:
                if mode != OS_BILINEAR or form.degree == 2:
                    assert orthosymmetry_check(form, mode, samples=40, seed=2).passed, (form, mode)
        assert sides == []

    def test_matrix_diagonal_names_first_off_diagonal_entry(self):
        # row-major: the (2, 3) entry comes before the (3, 1) entry
        form = GeneralMatrixForm(F3, [[1, 0, 0], [0, 1, 6], [4, 0, 1]])
        verdict = orthosymmetry_check(form, OS_DIAGONAL)
        assert not verdict.passed and verdict.decisive and verdict.samples_checked == 0
        assert verdict.counterexample == {
            "mode": OS_DIAGONAL, "sampleIndex": 0, "args": [to_obj(fin(0, 1, 0)), to_obj(fin(0, 0, 1))],
            "lhs": "6", "rhs": "0",
        }

    def test_lower_triangle_fails_inside_the_basis_pairs(self):
        # the structured disjoint-pair sweep reads x = e_s, y = e_t with
        # s < t, the upper triangle; only the basis pairs see M[3][1]
        form = GeneralMatrixForm(F3, [[0, 0, 0], [0, 0, 0], [5, 0, 0]])
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
        matrix = GeneralMatrixForm(F2, [[1, 1], [0, 1]])
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

    def test_sample_floor(self):
        poly = to_polynomial(Measure(F2, {1: 1}), 2)
        with pytest.raises(ValueError):
            orthogonal_additivity_check(poly, OA_DISJOINT_ADD, samples=0)

    def test_unknown_mode(self):
        poly = to_polynomial(Measure(F2, {1: 1}), 2)
        with pytest.raises(ValueError):
            orthogonal_additivity_check(poly, "nope")


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
    return [GeneralMatrixForm(space, [[shape(i, j) for j in range(n)] for i in range(n)]) for shape in shapes]


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
        sides = _counting(monkeypatch, "oa_identity_sides")
        verdict = orthogonal_additivity_check(KRIVINE_PASSING[0], mode, samples=samples, seed=4)
        assert verdict.passed
        assert len(sides) == min(3, samples)

    def test_failure_that_does_not_reverify_is_an_invariant_violation(self):
        poly = to_polynomial(Measure(F2, {1: 1}), 2)
        with pytest.raises(InvariantViolation):
            checks._failure(OA_DISJOINT_ADD, poly, [fin(1, 0), fin(0, 1)], 0, 1)


class TestIntGuard:
    # every full-array entry 10**7 on 7 points, degree 4, sample values up
    # to 108: one batch is 2401 * 10**7 * 108**4 ~ 3.3e18 < 2**62, but four
    # of them summed leave int64
    HEAVY = SymTensor(Space.finite(7), 4, {idx: 10**7 for idx in nondecreasing_indices(7, 4)})

    def test_guard_counts_summed_terms(self):
        core, _ = dense_core(self.HEAVY)
        xs = np.full((2, 7), 108, dtype=np.int64)
        one = poly_eval_batch(core, xs)
        assert one.dtype == np.int64 and int(one[0]) == 2401 * 10**7 * 108**4
        four = poly_eval_batch(core, xs, terms=4)
        assert four.dtype == object
        assert list(four) == [2401 * 10**7 * 108**4] * 2 and type(four[0]) is int

    def test_heavy_k_valuation_matches_object_path(self):
        poly = Polynomial.from_tensor(self.HEAVY)
        fast = orthogonal_additivity_check(poly, OA_K_VALUATION, samples=30, seed=5)
        slow = orthogonal_additivity_check(poly, OA_K_VALUATION, samples=30, seed=5, force_object=True)
        assert not fast.passed
        assert (fast.samples_checked, fast.counterexample) == (slow.samples_checked, slow.counterexample)

    # a dense n**m array of this tensor would be 40**6 int64 entries,
    # 30.5 GiB; its arrangement table has one row
    WIDE = SymTensor(Space.finite(40), 6, {(1,) * 6: 1})

    def test_gather_runs_in_chunks_within_the_byte_budget(self, monkeypatch):
        # every set of six distinct points out of eight: 28 * 6! table rows
        tensor = SymTensor(Space.finite(8), 6, {idx: 1 for idx in combinations(range(1, 9), 6)})
        core, _ = dense_core(tensor)
        assert core.shape == (20160, 8)
        args = np.ones((900, 6, 8), dtype=np.int64)  # 900 * 20160 gathered entries, 145 MB at once
        cap = 2**22
        monkeypatch.setattr(intpath, "_BYTE_CAP", cap)
        tracemalloc.start()
        try:
            values = form_eval_batch(core, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * cap  # one chunk's product and the factor gathered into it
        assert list(values) == [20160] * 900

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
    argument rows (S, m, n) and diagonal rows (S, n)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    index = st.lists(st.integers(1, n), min_size=m, max_size=m).map(lambda idx: tuple(sorted(idx)))
    value = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    tensor = SymTensor(Space.finite(n), m, draw(st.dictionaries(index, value, max_size=6)))
    samples = draw(st.integers(0, 4))
    values = st.integers(-20, 20)
    args = draw(arrays(np.int64, (samples, m, n), elements=values))
    return tensor, args, draw(arrays(np.int64, (samples, n), elements=values))


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
        tensor, args, xs = case
        core, scale = dense_core(tensor)
        for row, value in zip(args, form_eval_batch(core, args)):
            assert Fraction(int(value), scale) == tensor.evaluate([Element.finite(list(x)) for x in row])
        for x, value in zip(xs, poly_eval_batch(core, xs)):
            assert Fraction(int(value), scale) == tensor.evaluate_diagonal(Element.finite(list(x)))
        assert polarize_tensor_int(tensor) == tensor.entries


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
    def test_agreement_builds_the_dense_core_once(self, monkeypatch, diagonal):
        tensor = sym_tensor(rng_for("kernels", diagonal), F4, 3, diagonal=diagonal, ensure_off_diagonal=not diagonal)
        built = _counting(monkeypatch, "dense_core")
        oa_mode_agreement(Polynomial.from_tensor(tensor), samples=structured_pair_count(4, 3) + 10, seed=3)
        assert len(built) <= 1


def _whole_block_check(mode, thing, blocks, denom, int_sides):
    """The driver before chunking, kept as the reference for the chunks:
    each block through ``int_sides`` in one call, then its first mismatch."""
    checked = 0
    for block in blocks:
        bad = checks._first_diff(*int_sides(block))
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
    # x1 y2 + x2 y1 has a table of two rows; two argument slots and a budget
    # of 12 make chunks of 3, 12, 48 samples, so a block of 70 ends its
    # chunks at 3, 15, 63 and 70
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
        assert len(core) == 2
        int_sides = partial(checks._os_int_sides, core, OS_DISJOINT)
        blocks = [self._plant(np.zeros((70, 2, 3), dtype=np.int64), failing)]
        recorded, seen = _recording(int_sides)
        chunked = checks._sampled_check(OS_DISJOINT, self.FORM, blocks, checks.SCALE, recorded, len(core))
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
        chunked = checks._sampled_check(OA_K_VALUATION, poly, blocks, checks.SCALE, recorded, kernels.rows)
        assert chunked == _whole_block_check(OA_K_VALUATION, poly, blocks, checks.SCALE, int_sides)
        assert chunked.samples_checked == checked
        assert chunked.passed == (not failing)
        if failing:
            assert chunked.counterexample["sampleIndex"] == checked - 1
        assert seen == lengths

    @pytest.mark.parametrize("work", [1, 40])
    def test_every_mode_matches_object_path_in_small_chunks(self, monkeypatch, work):
        monkeypatch.setattr(checks, "_CHUNK_WORK", work)
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
