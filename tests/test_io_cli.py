"""JSON round trips, strict parsing diagnostics, and the CLI surface."""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_lab import (
    Element,
    Functional,
    Measure,
    Polynomial,
    ProductFunctionalPolynomial,
    Space,
    SymTensor,
    attach_instance,
    dumps_canonical,
    orthogonal_additivity_check,
    parse_element,
    parse_instance,
    parse_instance_file,
    reverify_counterexample,
    structured_pair_count,
    to_obj,
    to_polynomial,
)
from riesz_lab.checks import (
    OA_DISJOINT_ADD,
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
    orthosymmetry_check,
)
from riesz_lab import cli
from riesz_lab.cli import main
from riesz_lab.errors import DegreeMismatchError, MalformedInstanceError, RieszLabError
from riesz_lab.jsonio import element_to_obj, matrix_from_rows, parse_rational, rational_str
from riesz_lab.report import PropertyResult, Report
from riesz_lab.sampling import element, matrix_form, measure, rng_for, sym_tensor
from riesz_lab.suites import SUITES

from oracles import fraction_element_obj

F3 = Space.finite(3)
OM = Space.omega_plus_one()


def _cli(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "riesz_lab", *argv],
        capture_output=True,
        env={**os.environ, **(env or {})},
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestRationals:
    def test_accepted_forms(self):
        assert parse_rational("3", "$") == 3
        assert parse_rational("-1/2", "$") == Fraction(-1, 2)
        assert parse_rational(4, "$") == 4

    def test_zero_denominator(self):
        with pytest.raises(MalformedInstanceError) as err:
            parse_rational("1/0", "$.atoms[0].weight")
        assert "zero denominator" in str(err.value)
        assert "$.atoms[0].weight" in str(err.value)

    def test_rejected_forms(self):
        for bad in (True, 1.5, None, "three"):
            with pytest.raises(MalformedInstanceError):
                parse_rational(bad, "$")


class TestRoundTrips:
    def test_instances_survive_serialisation(self):
        for i in range(60):
            rng = rng_for("roundtrip", i)
            space = F3 if i % 2 else OM
            candidates = [element(rng, space), measure(rng, space), to_polynomial(measure(rng, space), 2 + i % 3)]
            if space.is_finite:
                candidates += [
                    sym_tensor(rng, space, 2 + i % 3),
                    matrix_form(rng, space),
                    Polynomial.from_tensor(sym_tensor(rng, space, 2)),
                ]
            for original in candidates:
                parsed = parse_instance(json.loads(dumps_canonical(to_obj(original))))
                assert parsed == original

    def test_product_polynomial_round_trip(self):
        for phi in (Functional(Measure(OM, {2: Fraction(1, 3)}, limit_atom=-1)), Functional.coordinate(4)):
            poly = ProductFunctionalPolynomial(3, phi, Functional.limit())
            assert parse_instance(to_obj(poly)) == poly
        obj = to_obj(ProductFunctionalPolynomial(2, Functional.coordinate(1), Functional.limit()))
        obj["phi"]["index"] = 0
        with pytest.raises(MalformedInstanceError, match=r"\$\.phi\.index: coordinate index starts at 1"):
            parse_instance(obj)

    def test_unit_measures_take_the_short_spelling(self):
        phi, psi = Functional(Measure(OM, {4: 1})), Functional(Measure(OM, {}, limit_atom=1))
        assert to_obj(ProductFunctionalPolynomial(2, phi, psi)) == {
            "degree": 2,
            "kind": "product",
            "phi": {"kind": "coordinate", "index": 4},
            "psi": {"kind": "limit"},
        }
        obj = to_obj(ProductFunctionalPolynomial(2, Functional(Measure(OM, {4: 1}, limit_atom=1)), psi))
        assert obj["phi"]["kind"] == "measure"

    def test_descriptor_shape(self):
        from riesz_lab import carrier, null_ideal

        poly = to_polynomial(Measure(OM, {3: 1}, limit_atom=1), 2)
        assert to_obj(carrier(poly)) == {"space": {"kind": "omega1"}, "isolatedSupport": [3]}
        assert to_obj(null_ideal(poly)) == {
            "space": {"kind": "omega1"},
            "cofinite": True,
            "excludedPoints": [3],
            "includesLimit": False,
        }


# a row value: an integer, a fraction whose denominator may run to 40
# digits, or zero
_ROW_VALUES = st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**40), st.just(0))


@st.composite
def _json_elements(draw):
    """An element on either backend, from rationals or from integers over a
    denominator of up to 40 digits."""
    size = draw(st.integers(1, 8))
    if draw(st.booleans()):
        values = draw(st.lists(_ROW_VALUES, min_size=size, max_size=size))
    else:
        den = draw(st.integers(1, 10**40))
        nums = draw(st.lists(st.integers(-(10**45), 10**45), min_size=size, max_size=size))
        values = [Fraction(v, den) for v in nums]
    if draw(st.booleans()):
        return Element.finite(values)
    return Element.omega(values[:-1], values[-1])


class TestElementJson:
    """`element_to_obj` writes each value from the integer row; the
    Fraction-based formatting it replaced is the oracle."""

    @pytest.mark.parametrize(
        "x",
        [
            Element.finite([Fraction(-3, 4), 0, Fraction(5, 10**30), -7]),
            Element.finite([0, 0]),
            Element.omega([Fraction(-1, 6), 0, 2], Fraction(-10**20, 3)),
            Element.omega([], 0),
            Element(F3, [-(10**40), 0, 6], 4 * 10**38),
        ],
        ids=["finite", "zeros", "omega1", "omega1-tail-only", "large-denominator"],
    )
    def test_rows_read_as_fractions(self, x):
        assert element_to_obj(x) == fraction_element_obj(x)

    @settings(max_examples=300, deadline=None)
    @given(_json_elements())
    def test_every_row_reads_as_fractions(self, x):
        assert element_to_obj(x) == fraction_element_obj(x)

    @settings(max_examples=300, deadline=None)
    @given(st.fractions())
    def test_every_rational_reads_as_its_fraction(self, value):
        # a lone rational goes through the same integer formatter
        assert rational_str(value) == str(value)


class TestParseErrors:
    def test_wrong_value_count(self):
        obj = {"space": {"kind": "finite", "n": 3}, "values": ["1", "2"]}
        with pytest.raises(MalformedInstanceError) as err:
            parse_element(obj)
        assert "expected 3 values" in str(err.value)

    def test_duplicate_atom_point(self):
        obj = {
            "space": {"kind": "omega1"},
            "atoms": [{"point": 2, "weight": "1"}, {"point": 2, "weight": "3"}],
        }
        with pytest.raises(MalformedInstanceError) as err:
            parse_instance(obj)
        assert "duplicate atom point 2" in str(err.value)
        assert "atoms[1].point" in str(err.value)

    def test_duplicate_tensor_index_after_sorting(self):
        obj = {
            "m": 2,
            "space": {"kind": "finite", "n": 2},
            "entries": [{"idx": [1, 2], "val": "1"}, {"idx": [2, 1], "val": "2"}],
        }
        with pytest.raises(MalformedInstanceError) as err:
            parse_instance(obj)
        assert "duplicate index [1, 2]" in str(err.value)

    def test_declared_oa_with_off_diagonal_mass(self):
        obj = {
            "degree": 2,
            "kind": "tensor",
            "oa": True,
            "tensor": {
                "m": 2,
                "space": {"kind": "finite", "n": 2},
                "entries": [{"idx": [1, 2], "val": "1"}],
            },
        }
        with pytest.raises(MalformedInstanceError) as err:
            parse_instance(obj)
        assert "off-diagonal entry [1, 2]" in str(err.value)
        obj.pop("oa")
        assert isinstance(parse_instance(obj), Polynomial)

    @pytest.mark.parametrize("flag", ["false", [1], 1, None])
    def test_oa_flag_must_be_a_json_boolean(self, flag):
        obj = {
            "degree": 2,
            "kind": "tensor",
            "oa": flag,
            "tensor": {
                "m": 2,
                "space": {"kind": "finite", "n": 2},
                "entries": [{"idx": [1, 2], "val": "1"}],
            },
        }
        with pytest.raises(MalformedInstanceError, match=r"^\$\.oa: expected a JSON boolean"):
            parse_instance(obj)
        obj["oa"] = False
        assert isinstance(parse_instance(obj), Polynomial)

    def test_tensor_degree_must_match_declared_degree(self, tmp_path, capsys):
        obj = {
            "degree": 2,
            "kind": "tensor",
            "tensor": {"m": 3, "space": {"kind": "finite", "n": 2}, "entries": [{"idx": [1, 1, 2], "val": "1"}]},
        }
        with pytest.raises(MalformedInstanceError, match=r"^\$: tensor degree differs from polynomial degree"):
            parse_instance(obj)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(obj))
        assert main(["carrier", "--poly", str(path)]) == 2
        assert "tensor degree differs from polynomial degree" in capsys.readouterr().err

    def test_unknown_kinds(self):
        with pytest.raises(MalformedInstanceError):
            parse_instance({"space": {"kind": "interval"}, "values": []})
        with pytest.raises(MalformedInstanceError):
            parse_instance({"degree": 2, "kind": "fourier"})
        with pytest.raises(MalformedInstanceError):
            parse_instance({"degree": 2, "kind": "product", "phi": {"kind": "nope"}, "psi": {"kind": "limit"}})

    def test_functional_measure_must_live_on_omega1(self):
        finite = {"atoms": [{"point": 1, "weight": "1"}], "space": {"kind": "finite", "n": 3}}
        obj = {"degree": 2, "kind": "product", "phi": {"kind": "measure", "measure": finite}, "psi": {"kind": "limit"}}
        with pytest.raises(MalformedInstanceError) as err:
            parse_instance(obj)
        assert str(err.value).startswith("$.phi.measure.space: ")

    def test_matrix_shape(self):
        obj = {"space": {"kind": "finite", "n": 2}, "rows": [["1", "2"]]}
        with pytest.raises(MalformedInstanceError) as err:
            parse_instance(obj)
        assert "expected 2 rows" in str(err.value)

    def test_unrecognised_shape(self):
        with pytest.raises(MalformedInstanceError):
            parse_instance({"foo": 1})
        with pytest.raises(MalformedInstanceError):
            parse_instance([1, 2])

    def test_booleans_are_not_integers(self):
        obj = {"space": {"kind": "finite", "n": True}, "values": ["1"]}
        with pytest.raises(MalformedInstanceError):
            parse_instance(obj)

    def test_stream_and_invalid_json(self, tmp_path):
        stream = io.StringIO(dumps_canonical(to_obj(Element.finite([1, 2]))))
        assert parse_instance_file(stream) == Element.finite([1, 2])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(MalformedInstanceError) as err:
            parse_instance_file(str(bad))
        assert "invalid JSON" in str(err.value)


_SCHEMA_KEYS = [
    "space", "kind", "n", "values", "prefix", "tail", "m", "entries", "idx", "val", "rows", "atoms",
    "point", "weight", "limit_atom", "degree", "measure", "tensor", "oa", "phi", "psi", "index",
]
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.integers(-(10**20), 10**20)
    | st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10**20), 10**20), st.integers(-3, 10**6))
    | st.sampled_from(["finite", "omega1", "measure", "tensor", "product", "coordinate", "limit", "1/2", "x"])
)
_JSON = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.sampled_from(_SCHEMA_KEYS), children, max_size=4),
    max_leaves=12,
)


# a non-unit weight, so the seed serialises in the "measure" spelling
_PRODUCT_POLY = ProductFunctionalPolynomial(2, Functional(Measure(OM, {2: 2})), Functional.limit())
_SEEDS = [
    Element.finite([1, -2, Fraction(1, 3)]),
    Element.omega([1, 2], 3),
    SymTensor(F3, 3, {(1, 1, 2): 3, (3, 3, 3): Fraction(1, 2)}),
    Measure(OM, {1: 1, 8: -2}, limit_atom=1),
    to_polynomial(Measure(F3, {1: 1}), 2),
    Polynomial.from_tensor(SymTensor(F3, 2, {(1, 2): 1})),
    _PRODUCT_POLY,
]


def _mutated(draw, node):
    """node with one subtree replaced by generated JSON, a field dropped or
    a schema field added."""
    action = draw(st.sampled_from(["descend", "replace", "drop", "add"]))
    if isinstance(node, dict) and node and action != "replace":
        if action == "add":
            return {**node, draw(st.sampled_from(_SCHEMA_KEYS)): draw(_JSON)}
        key = draw(st.sampled_from(sorted(node)))
        if action == "drop":
            return {k: v for k, v in node.items() if k != key}
        return {**node, key: _mutated(draw, node[key])}
    if isinstance(node, list) and node and action == "descend":
        i = draw(st.integers(0, len(node) - 1))
        return [*node[:i], _mutated(draw, node[i]), *node[i + 1 :]]
    return draw(_JSON)


@st.composite
def _instance_objects(draw):
    """A JSON object of schema fields: generated outright, or a serialised
    instance with a few mutations."""
    if draw(st.booleans()):
        return draw(st.dictionaries(st.sampled_from(_SCHEMA_KEYS), _JSON))
    obj = to_obj(draw(st.sampled_from(_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        obj = _mutated(draw, obj)
    return obj


class TestParseFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_instance_objects())
    def test_instance_or_library_error(self, obj):
        try:
            parse_instance(obj)
        except RieszLabError:
            pass


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        a = {"b": 1, "a": [1, 2], "c": {"y": "2", "x": "1"}}
        b = {"c": {"x": "1", "y": "2"}, "a": [1, 2], "b": 1}
        assert dumps_canonical(a) == dumps_canonical(b)
        assert dumps_canonical(a).endswith("\n")

    def test_atom_lists_are_sorted(self):
        mu = Measure(F3, {3: 1, 1: 2})
        points = [a["point"] for a in to_obj(mu)["atoms"]]
        assert points == [1, 3]


class TestReverify:
    def _failing_payload(self):
        poly = Polynomial.from_tensor(SymTensor(F3, 2, {(1, 2): 1}))
        verdict = orthogonal_additivity_check(
            poly, OA_DISJOINT_ADD, samples=structured_pair_count(3, 2), seed=0
        )
        assert not verdict.passed
        return attach_instance(verdict.counterexample, to_obj(poly))

    def test_replay_after_json_round_trip(self):
        payload = json.loads(dumps_canonical(self._failing_payload()))
        assert reverify_counterexample(payload)

    def test_tampered_sides_fail(self):
        payload = self._failing_payload()
        tampered = dict(payload, lhs="0")
        assert not reverify_counterexample(tampered)

    def test_missing_field(self):
        payload = self._failing_payload()
        payload.pop("instance")
        with pytest.raises(MalformedInstanceError):
            reverify_counterexample(payload)

    @pytest.mark.parametrize("payload", [[1, 2], "mode instance args lhs rhs", None, 5], ids=repr)
    def test_non_object_payload(self, payload):
        with pytest.raises(MalformedInstanceError, match=r"^\$: expected a JSON object"):
            reverify_counterexample(payload)

    @pytest.mark.parametrize("args", [5, "x", {"0": 1}, None])
    def test_args_must_be_a_list(self, args):
        with pytest.raises(MalformedInstanceError, match=r"^\$\.args: expected a list"):
            reverify_counterexample(dict(self._failing_payload(), args=args))

    @pytest.mark.parametrize(
        "mode, instance",
        [
            (OS_J_IDENTITY, to_polynomial(Measure(F3, {1: 1}), 2)),
            (OS_DIAGONAL, Polynomial.from_tensor(SymTensor(F3, 2, {(1, 2): 1}))),
            (OA_DISJOINT_ADD, SymTensor(F3, 2, {(1, 2): 1})),
            (OA_VALUATION, matrix_from_rows(F3, [[1, 1, 0], [0, 0, 0], [0, 0, 0]])),
            (OA_KRIVINE_PRODUCT, _PRODUCT_POLY),
            (OA_POS_NEG, Measure(F3, {1: 1})),
        ],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_instance_of_the_wrong_family(self, mode, instance):
        payload = dict(self._failing_payload(), mode=mode, instance=to_obj(instance))
        with pytest.raises(MalformedInstanceError, match=r"^\$\.instance: mode"):
            reverify_counterexample(payload)

    @pytest.mark.parametrize(
        "mode, count",
        [(OA_DISJOINT_ADD, 1), (OA_DISJOINT_ADD, 3), (OA_POSITIVE_CONE, 1), (OA_POS_NEG, 2), (OA_POS_NEG, 0),
         (OA_VALUATION, 1), (OA_KRIVINE_SUM, 1), (OA_KRIVINE_SUM, 3), (OA_KRIVINE_PRODUCT, 0)],
    )
    def test_wrong_argument_count(self, mode, count):
        payload = self._failing_payload()
        args = (payload["args"] * 2)[:count]
        with pytest.raises(DegreeMismatchError):
            reverify_counterexample(dict(payload, mode=mode, args=args))

    def test_join_meet_identity_on_a_trilinear_form(self):
        tensor = SymTensor(F3, 3, {(1, 2, 3): 1})
        args = [to_obj(Element.finite(v)) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
        payload = {"mode": OS_BILINEAR, "instance": to_obj(tensor), "args": args, "lhs": "1", "rhs": "0"}
        with pytest.raises(DegreeMismatchError):
            reverify_counterexample(payload)


@functools.cache
def _replayable_payloads() -> tuple[dict, ...]:
    """One failing counterexample per identity family: OA on a tensor
    polynomial and on a measure polynomial, OS on a tensor and on a matrix
    form, and the Krivine product radical.  Built on first use, not at
    import, so a check that raises fails the tests that read these alone."""
    tensor = SymTensor(F3, 2, {(1, 2): 1, (3, 3): 2})
    matrix = matrix_from_rows(F3, [[1, 0, 2], [0, 1, 0], [0, 0, 3]])
    poly = Polynomial.from_tensor(tensor)
    verdicts = [
        (poly, orthogonal_additivity_check(poly, OA_DISJOINT_ADD, structured_pair_count(3, 2), 0)),
        (poly, orthogonal_additivity_check(poly, OA_KRIVINE_PRODUCT, 40, 0)),
        (poly, orthogonal_additivity_check(poly, OA_POS_NEG, 40, 0)),
        (tensor, orthosymmetry_check(tensor, OS_J_IDENTITY, 40, 0)),
        (matrix, orthosymmetry_check(matrix, OS_DISJOINT, 40, 0)),
        (matrix, orthosymmetry_check(matrix, OS_BILINEAR, 40, 0)),
    ]
    payloads = [attach_instance(v.counterexample, to_obj(thing)) for thing, v in verdicts]
    # a well-formed omega1 payload that does not fail: replays to False
    mu = to_polynomial(Measure(OM, {1: 1, 8: -2}, limit_atom=1), 2)
    x, y = Element.omega([1, 0], 0), Element.omega([0, 2], 0)
    payloads.append({"mode": OA_VALUATION, "instance": to_obj(mu), "args": [to_obj(x), to_obj(y)], "lhs": "1", "rhs": "0"})
    return tuple(payloads)


@functools.cache
def _payload_instances() -> tuple[dict, ...]:
    return (*[p["instance"] for p in _replayable_payloads()], to_obj(_PRODUCT_POLY), to_obj(Measure(F3, {1: 1})))


@st.composite
def _payload_objects(draw):
    """A replayable counterexample after one to three mutations: a field
    swapped for another payload's mode, instance or argument list, or the
    JSON-level mutations of `_mutated`."""
    payload = dict(draw(st.sampled_from(_replayable_payloads())))
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["mode", "instance", "args", "json"]))
        if not isinstance(payload, dict):  # replaced outright by `_mutated`
            break
        if action == "mode":
            payload["mode"] = draw(st.sampled_from([*OS_MODES, *OA_MODES]))
        elif action == "instance":
            payload["instance"] = draw(st.sampled_from(_payload_instances()))
        elif action == "args":
            pool = [arg for p in _replayable_payloads() for arg in p["args"]]
            payload["args"] = draw(st.lists(st.sampled_from(pool), max_size=4))
        else:
            payload = _mutated(draw, payload)
    return payload


class TestReverifyFuzz:
    def test_seed_payloads_replay(self):
        assert [reverify_counterexample(p) for p in _replayable_payloads()] == [True] * 6 + [False]

    @settings(max_examples=300, deadline=None)
    @given(_payload_objects())
    def test_bool_or_library_error(self, payload):
        try:
            assert isinstance(reverify_counterexample(payload), bool)
        except RieszLabError:
            pass


class TestCliSubprocess:
    def test_byte_identical_reports(self):
        argv = ("check", "--suite", "orthosymmetry", "--n", "3", "--m", "2",
                "--trials", "15", "--seed", "7", "--format", "json")
        code_a, out_a, _ = _cli(*argv)
        code_b, out_b, _ = _cli(*argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        report = json.loads(out_a)
        assert report["suite"] == "orthosymmetry"
        assert all(p["passed"] for p in report["properties"])

    def test_degree_sixty_tensors_in_two_gigabytes(self):
        # the Krivine product of a degree-60 tensor on three points reads
        # A(x_1, .., x_60); polarisation would need 2**59 signed rows per
        # sample, so the check takes the multiplicity DP before any sign
        # table is built; the child's address-space limit keeps a regression
        # from exhausting the host
        limit = 2 * 10**9
        proc = subprocess.run(
            [sys.executable, "-m", "riesz_lab", "check", "oa-characterisations", "--n", "3", "--m", "60",
             "--trials", "3"],
            capture_output=True, text=True, env=dict(os.environ), timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        assert "result: PASS" in proc.stdout

    def test_wide_orthosymmetry_report_pinned(self):
        # n = 40, m = 6: sparse tensors whose tables reach tens of thousands
        # of rows; a failing sampled mode stops at its first failing chunk
        code, out, _ = _cli("check", "orthosymmetry", "--n", "40", "--m", "6", "--trials", "3", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == "01d68d64dc2a9d4c289b4b718285e3eaace97969b90574a2b5df19ed55fcd65a"

    def test_positional_suite_and_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = _cli(
            "check", "lattice-axioms", "--trials", "5", "--seed", "1",
            "--format", "json", "--out", str(out),
        )
        assert code == 0 and stdout == b""
        assert json.loads(out.read_bytes())["suite"] == "lattice-axioms"

    def test_env_seed_matches_explicit_flag(self):
        argv = ("check", "--suite", "rearrangement", "--trials", "10", "--format", "json")
        _, out_env, _ = _cli(*argv, env={"RIESZ_LAB_SEED": "123"})
        _, out_flag, _ = _cli(*argv, "--seed", "123")
        assert out_env == out_flag
        assert json.loads(out_env)["config"]["seed"] == "123"

    def test_demo_counterexample(self):
        code, out, _ = _cli("demo", "counterexample", "--m", "3", "--depth", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] == "1"
        assert len(payload["netSamples"]) == 6
        assert set(payload["values"]) == {"0"}
        assert payload["basePoint"] == {"space": {"kind": "omega1"}, "prefix": [], "tail": "1"}

    def test_carrier_and_nakano(self, tmp_path):
        p_path = tmp_path / "p.json"
        q_path = tmp_path / "q.json"
        p_path.write_text(dumps_canonical(to_obj(to_polynomial(Measure(OM, {}, limit_atom=1), 2))))
        q_path.write_text(dumps_canonical(to_obj(to_polynomial(Measure(OM, {}, limit_atom=1), 2))))
        code, out, _ = _cli("carrier", "--poly", str(p_path))
        assert code == 0
        assert json.loads(out)["isolatedSupport"] == []
        code, out, _ = _cli("nakano", "--p", str(p_path), "--q", str(q_path))
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "orderContinuousP": False,
            "orderContinuousQ": False,
            "polysDisjoint": False,
            "carriersDisjoint": True,
            "hypothesisMet": False,
            "equivalenceHolds": False,
        }

    def test_localize(self, tmp_path):
        obj_path = tmp_path / "mu.json"
        gen_path = tmp_path / "gen.json"
        obj_path.write_text(dumps_canonical(to_obj(Measure(F3, {1: 1, 2: 2}))))
        gen_path.write_text(dumps_canonical(to_obj(Element.finite([0, 1, 1]))))
        code, out, _ = _cli("localize", "--obj", str(obj_path), "--gen", str(gen_path))
        assert code == 0
        assert parse_instance(json.loads(out)) == Measure(F3, {2: 2})

    def test_single_poly_dichotomy(self, tmp_path):
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(dumps_canonical(to_obj(to_polynomial(Measure(OM, {1: 1}, limit_atom=1), 2))))
        code, out, _ = _cli(
            "check", "order-continuity", "--poly", str(poly_path), "--depth", "10", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["properties"][0]["name"] == "normality-dichotomy"
        assert "order continuous = False" in report["properties"][0]["detail"]

    def test_usage_errors_exit_two(self, tmp_path):
        code, _, err = _cli("check", "--suite", "no-such-suite")
        assert code == 2 and b"error:" in err
        code, _, err = _cli("check", "lattice-axioms", "--poly", "whatever.json")
        assert code == 2 and b"--poly targets the order-continuity" in err
        code, _, err = _cli("check", "lattice-axioms", "--format", "yaml")
        assert code == 2 and b"invalid choice: 'yaml'" in err
        code, _, err = _cli("carrier", "--poly", str(tmp_path / "missing.json"))
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms": [{"point": 1, "weight": "1/0"}], "space": {"kind": "omega1"}}')
        code, _, err = _cli("carrier", "--poly", str(bad))
        assert code == 2 and b"zero denominator" in err

    def test_bad_depth_and_out_end_without_traceback(self, tmp_path):
        for argv in (["demo", "--depth", "0"], ["demo", "--depth", "3", "--out", str(tmp_path)]):
            code, _, err = _cli(*argv)
            assert code == 2 and err.startswith(b"error: ") and b"Traceback" not in err


# instance files that fail before any field is read: bytes that are not
# UTF-8, arrays nested past the recursion limit, an integer past the
# 4300-digit conversion limit
_UNDECODABLE = {
    "not-utf8": b"\xff\xfe{}",
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
    "long-integer": b'{"n": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(_UNDECODABLE))
def test_undecodable_instance_file_exits_two(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(_UNDECODABLE[name])
    with pytest.raises(MalformedInstanceError, match=r": undecodable JSON: "):
        parse_instance_file(str(path))
    assert main(["carrier", "--poly", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: undecodable JSON: ")


def test_undecodable_instance_file_ends_without_traceback(tmp_path):
    path = tmp_path / "too-deep.json"
    path.write_bytes(_UNDECODABLE["too-deep"])
    code, _, err = _cli("carrier", "--poly", str(path))
    assert code == 2 and err.startswith(f"error: {path}: ".encode()) and b"Traceback" not in err


def _args_read(functions: dict[str, ast.FunctionDef], name: str) -> set[str]:
    """The ``args.<attr>`` names a cli function reads, with those of every
    cli function it passes ``args`` on to."""
    read = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in functions
            and any(isinstance(arg, ast.Name) and arg.id == "args" for arg in node.args)
        ):
            read |= _args_read(functions, node.func.id)
    return read


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands


def _options_and_reads(parser: argparse.ArgumentParser) -> dict[str, tuple[set[str], set[str]]]:
    """Per subcommand: the dests its parser declares and the attributes its
    handler reads.  A positional argparse confines to a single choice holds
    nothing for the handler to read, so it counts as read."""
    functions = {node.name: node for node in ast.walk(ast.parse(inspect.getsource(cli)))
                 if isinstance(node, ast.FunctionDef)}
    out = {}
    for name, sub in _subcommands(parser).items():
        declared = {a.dest for a in sub._actions if a.dest != "help"}
        fixed = {a.dest for a in sub._actions if not a.option_strings and a.choices and len(a.choices) == 1}
        out[name] = (declared, _args_read(functions, sub.get_default("handler").__name__) | fixed)
    return out


class TestCliOptions:
    def test_each_command_declares_what_its_handler_reads(self):
        table = _options_and_reads(cli.build_parser())
        assert {name: declared for name, (declared, _) in table.items()} == {
            "check": {"suite", "suite_flag", "poly", "m", "n", "space", "trials", "seed", "depth", "format", "out"},
            "demo": {"name", "m", "depth", "out"},
            "carrier": {"poly", "out"},
            "nakano": {"p", "q", "out"},
            "localize": {"obj", "gen", "out"},
        }
        assert {name: read for name, (_, read) in table.items()} == {
            name: declared for name, (declared, _) in table.items()
        }

    def test_guard_sees_an_option_the_handler_ignores(self):
        parser = cli.build_parser()
        _subcommands(parser)["carrier"].add_argument("--seed", default=None)
        declared, read = _options_and_reads(parser)["carrier"]
        assert declared - read == {"seed"} and read <= declared


class TestCliInProcess:
    def test_failing_suite_exits_one(self, monkeypatch, capsys):
        def fake(config):
            return Report(config.suite, {"seed": "0"}, (PropertyResult("broken", False, samples=1),))

        monkeypatch.setattr("riesz_lab.cli.run_suite", fake)
        assert main(["check", "--suite", "lattice-axioms", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False

    def test_demo_without_witness_exits_one(self, monkeypatch, capsys):
        from riesz_lab.errors import NoWitnessError

        def fake(poly, probe_depth=50):
            raise NoWitnessError("nothing to show")

        monkeypatch.setattr("riesz_lab.cli.discontinuity_witness", fake)
        assert main(["demo", "counterexample"]) == 1
        assert "nothing to show" in capsys.readouterr().err

    def test_nakano_invariant_violation_exits_one(self, monkeypatch, capsys, tmp_path):
        from riesz_lab.errors import InvariantViolation

        def fake(p, q):
            raise InvariantViolation("disagreement")

        path = tmp_path / "p.json"
        path.write_text(dumps_canonical(to_obj(to_polynomial(Measure(F3, {1: 1}), 2))))
        monkeypatch.setattr("riesz_lab.cli.nakano_verify", fake)
        assert main(["nakano", "--p", str(path), "--q", str(path)]) == 1
        assert "carrier criterion violated: disagreement" in capsys.readouterr().err

    def test_running_out_of_memory_exits_two(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr("riesz_lab.cli._cmd_check", exhausted)
        assert main(["check", "isometry"]) == 2
        assert capsys.readouterr().err.startswith("error: out of memory; narrow the request")

    def test_a_wide_high_degree_tensor_exits_two(self, capsys):
        # entries on about ten points each, some twice: 3**10 and more DP
        # states per entry, and 2**19 signed rows per sample for the kernel
        assert main(["check", "orthosymmetry", "--n", "20", "--m", "20", "--trials", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: out of memory; narrow the request")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "localisation", "--m", "18", "--trials", "3"],
            ["check", "oa-characterisations", "--n", "64", "--m", "2", "--trials", "2"],
            ["check", "oa-characterisations", "--space", "omega1", "--m", "60", "--trials", "3"],
            # a degree-60 entry on three points stands for 60! / (20!)**3
            # arrangements; its multilinear values run on the multiplicity DP
            ["check", "oa-characterisations", "--n", "3", "--m", "60", "--trials", "3"],
            ["check", "orthosymmetry", "--n", "3", "--m", "30", "--trials", "2"],
        ],
        ids=["localisation-m18", "oa-n64", "oa-omega1-m60", "oa-n3-m60", "os-n3-m30"],
    )
    def test_large_requests_end_in_a_verdict(self, capsys, argv):
        assert main(argv) == 0

    def test_suite_listing_in_error(self, capsys):
        assert main(["check"]) == 2
        err = capsys.readouterr().err
        assert "pick a suite" in err and "nakano" in err

    @staticmethod
    def _inputs(tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text(dumps_canonical(to_obj(to_polynomial(Measure(OM, {1: 1}, limit_atom=1), 2))))
        gen = tmp_path / "gen.json"
        gen.write_text(dumps_canonical(to_obj(Element.finite([0, 1, 1]))))
        return str(poly), str(gen)

    @pytest.mark.parametrize(
        "command",
        [
            ["check", "lattice-axioms"],
            ["check", "order-continuity", "--poly", "{poly}"],
            ["demo", "counterexample"],
            ["carrier", "--poly", "{poly}"],
            ["nakano", "--p", "{poly}", "--q", "{poly}"],
            ["localize", "--obj", "{poly}", "--gen", "{gen}"],
        ],
    )
    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_depth_below_one_exits_two(self, capsys, tmp_path, command, depth):
        poly, gen = self._inputs(tmp_path)
        argv = [*(arg.format(poly=poly, gen=gen) for arg in command), "--depth", depth]
        if command[0] in ("check", "demo"):
            assert main(argv) == 2
            assert f"error: --depth must be at least 1, got {depth}" in capsys.readouterr().err
        else:  # carrier, nakano and localize take no --depth at all
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: --depth {depth}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["carrier", "--poly", "{poly}", "--depth", "3"],
            ["nakano", "--p", "{poly}", "--q", "{poly}", "--depth", "3"],
            ["localize", "--obj", "{poly}", "--gen", "{gen}", "--depth", "3"],
            ["carrier", "--poly", "{poly}", "--seed", "1"],
            ["demo", "counterexample", "--format", "human"],
        ],
    )
    def test_option_the_command_does_not_take_exits_two(self, capsys, tmp_path, command):
        poly, gen = self._inputs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(poly=poly, gen=gen) for arg in command])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(command[-2:])}" in capsys.readouterr().err

    def test_poly_probe_refuses_the_suite_options(self, capsys, tmp_path):
        poly, _ = self._inputs(tmp_path)
        argv = ["check", "order-continuity", "--poly", poly, "--depth", "5", "--format", "json"]
        suite_options = ["--m", "7", "--n", "9", "--space", "finite:4", "--trials", "5", "--seed", "3"]
        assert main([*argv, *suite_options]) == 2
        assert "takes no --m, --n, --space, --trials, --seed" in capsys.readouterr().err
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        assert json.loads((tmp_path / "report.json").read_bytes())["config"] == {"poly": poly, "probeDepth": 5}

    def test_one_finite_size_floor(self, capsys):
        # the floor applies to the space a run resolves, whichever way it is spelled
        assert main(["check", "lattice-axioms", "--space", "finite:1"]) == 2
        assert "finite spaces here need n >= 2" in capsys.readouterr().err
        assert main(["check", "lattice-axioms", "--n", "1"]) == 2
        assert "finite spaces here need n >= 2" in capsys.readouterr().err
        assert main(["check", "order-continuity", "--n", "1", "--trials", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["n"] == 1

    def test_localize_rejects_an_element_to_restrict(self, capsys, tmp_path):
        _, gen = self._inputs(tmp_path)
        assert main(["localize", "--obj", gen, "--gen", gen]) == 2
        assert "expected a measure, tensor or polynomial instance, found Element" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["demo", "counterexample", "--depth", "3"], ["carrier", "--poly", "{poly}"]])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, command):
        poly, _ = self._inputs(tmp_path)
        assert main([*(arg.format(poly=poly) for arg in command), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


_INSTANCE_FILES = {
    "poly": dumps_canonical(to_obj(to_polynomial(Measure(OM, {1: 1, 8: -2}, limit_atom=1), 2))),
    "finite-poly": dumps_canonical(to_obj(to_polynomial(Measure(F3, {1: 1}), 2))),
    "element": dumps_canonical(to_obj(Element.finite([0, 1, 1]))),
    "garbage": "{not json",
    "empty": "",
    "wrong-shape": '{"degree": 2, "kind": "nope"}',
}
_FILE_NAMES = [*_INSTANCE_FILES, "missing", "directory"]
_OPTIONS = {
    "--depth": ["1", "2", "7", "60", "0", "-3", "deep"],
    "--trials": ["1", "2", "0", "-1", "exhaustive", "many"],
    "--seed": ["0", "7", "x"],
    "--m": ["1", "2", "3", "5", "0", "-1", "two"],
    "--n": ["1", "3", "4", "0", "-2", "n"],
    "--space": ["", "omega1", "finite:3", "finite:0", "finite:x", "elsewhere"],
    "--format": ["json", "human", "xml"],
}


@st.composite
def _argv(draw):
    """A subcommand with file arguments named by key, plus some options."""
    command = draw(st.sampled_from(["check", "demo", "carrier", "nakano", "localize"]))
    files = st.sampled_from(_FILE_NAMES)
    if command == "check":
        argv = ["check", *draw(st.lists(st.sampled_from([*SUITES, "no-such-suite"]), max_size=1))]
        if draw(st.booleans()):
            argv += ["--poly", draw(files)]
    elif command == "demo":
        argv = ["demo", *draw(st.lists(st.sampled_from(["counterexample", "other"]), max_size=1))]
    elif command == "carrier":
        argv = ["carrier", "--poly", draw(files)]
    elif command == "nakano":
        argv = ["nakano", "--p", draw(files), "--q", draw(files)]
    else:
        argv = ["localize", "--obj", draw(files), "--gen", draw(files)]
    for flag in draw(st.lists(st.sampled_from(sorted(_OPTIONS)), max_size=4, unique=True)):
        argv += [flag, draw(st.sampled_from(_OPTIONS[flag]))]
    return argv


class TestCliFuzz:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_argv())
    def test_every_input_ends_with_an_exit_code(self, tmp_path, argv):
        paths = {"missing": tmp_path / "missing.json", "directory": tmp_path}
        for name, text in _INSTANCE_FILES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        argv = [str(paths[arg]) if arg in paths else arg for arg in argv]
        out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
