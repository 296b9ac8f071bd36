"""Suite runner: configuration validation and green runs for every suite."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import inspect
import itertools

import pytest

from riesz_lab import SUITES, Report, SuiteConfig, reverify_counterexample, run_suite, suites
from riesz_lab.checks import OS_DISJOINT
from riesz_lab.cli import main
from riesz_lab.errors import ConfigError
from riesz_lab.report import emit_report
from riesz_lab.restriction import ConsistencyVerdict
from riesz_lab.suites import EXHAUSTIVE

# sha256 over the canonical JSON reports of all ten suites at 25 trials,
# seeds 0 then 7, followed by exhaustive nakano on finite:2.  Any change to a
# stream key, a draw, its order or a detail string changes it.
_PINNED_REPORTS = "71b72f95495b106b6aaf62a6f5d1214d2b8f0dbc168afda1277f577e6ad40730"


class TestConfigValidation:
    def test_unknown_suite_lists_choices(self):
        with pytest.raises(ConfigError) as err:
            SuiteConfig(suite="no-such")
        assert "lattice-axioms" in str(err.value) and "counterexample" in str(err.value)

    def test_trials_validation(self):
        with pytest.raises(ConfigError):
            SuiteConfig(suite="lattice-axioms", trials=0)
        with pytest.raises(ConfigError):
            SuiteConfig(suite="lattice-axioms", trials="soon")
        with pytest.raises(ConfigError):
            SuiteConfig(suite="lattice-axioms", trials=EXHAUSTIVE)
        assert SuiteConfig(suite="nakano", trials=EXHAUSTIVE).trials == EXHAUSTIVE
        # the command line's spelling: a decimal string becomes the count
        config = SuiteConfig(suite="lattice-axioms", trials="25")
        assert config.trials == 25 and config.echo()["trials"] == 25

    def test_degree_and_size_floors(self):
        with pytest.raises(ConfigError):
            SuiteConfig(suite="orthosymmetry", m=1)
        with pytest.raises(ConfigError):
            SuiteConfig(suite="lattice-axioms", m=0)
        with pytest.raises(ConfigError):
            SuiteConfig(suite="lattice-axioms", n=1)
        with pytest.raises(ConfigError):
            SuiteConfig(suite="lattice-axioms", space="finite:1")
        with pytest.raises(ConfigError):
            SuiteConfig(suite="lattice-axioms", probe_depth=0)
        assert SuiteConfig(suite="lattice-axioms", m=1, n=2).m == 1
        # the floor applies to the resolved space, so an n the run never reads goes unchecked
        assert not SuiteConfig(suite="order-continuity", n=1).resolved_space().is_finite
        assert SuiteConfig(suite="lattice-axioms", n=1, space="finite:2").resolved_space().n == 2

    # the spaces each suite declares; every other suite runs on both
    _FINITE_ONLY = {"orthosymmetry", "localisation"}
    _OMEGA1_ONLY = {"order-continuity", "counterexample"}

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("space", ["finite:3", "omega1"])
    def test_undeclared_space_refused_at_construction(self, suite, space):
        undeclared = self._OMEGA1_ONLY if space == "finite:3" else self._FINITE_ONLY
        if suite in undeclared:
            with pytest.raises(ConfigError, match=f"the {suite} suite runs on "):
                SuiteConfig(suite=suite, space=space)
        else:
            assert SuiteConfig(suite=suite, space=space).resolved_space().is_finite == (space == "finite:3")

    def test_space_resolution(self):
        assert SuiteConfig(suite="lattice-axioms", n=4).resolved_space().n == 4
        assert not SuiteConfig(suite="order-continuity").resolved_space().is_finite
        assert not SuiteConfig(suite="counterexample").resolved_space().is_finite
        assert SuiteConfig(suite="isometry", space="finite:2").resolved_space().n == 2
        assert not SuiteConfig(suite="isometry", space="omega1").resolved_space().is_finite
        for bad in ("finite:x", "finite:0", "plane"):
            with pytest.raises(ConfigError):
                SuiteConfig(suite="isometry", space=bad).resolved_space()

    def test_echo_shape(self):
        echo = SuiteConfig(suite="carriers", seed=11, probe_depth=7).echo()
        assert echo["seed"] == "11"
        assert echo["probeDepth"] == 7
        assert echo["suite"] == "carriers"


class TestSuiteRuns:
    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_passes(self, suite):
        report = run_suite(SuiteConfig(suite=suite, trials=6, seed=3, probe_depth=12))
        assert isinstance(report, Report)
        assert report.passed, [r for r in report.results if not r.passed]
        assert len(report.results) >= 1
        assert report.wall_seconds > 0

    @pytest.mark.parametrize(
        "suite", ["lattice-axioms", "rearrangement", "oa-characterisations", "isometry", "carriers", "nakano"]
    )
    def test_suite_passes_on_sequence_backend(self, suite):
        report = run_suite(SuiteConfig(suite=suite, space="omega1", trials=6, seed=4, probe_depth=10))
        assert report.passed

    def test_exhaustive_nakano(self):
        report = run_suite(SuiteConfig(suite="nakano", space="finite:2", trials=EXHAUSTIVE, seed=0))
        assert report.passed
        by_name = {r.name: r for r in report.results}
        assert by_name["carrier-criterion-exhaustive"].samples == 81

    def test_exhaustive_caps_refused(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="nakano", space="finite:5", trials=EXHAUSTIVE))
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="nakano", space="omega1", trials=EXHAUSTIVE))
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="nakano", m=4, trials=EXHAUSTIVE))

    def test_backend_guards(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="orthosymmetry", space="omega1", trials=3))
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="localisation", space="omega1", trials=3))
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suite="order-continuity", space="finite:3", trials=3))

    def test_no_runner_raises_config_error(self):
        # a run's policy lives in the suite table and SuiteConfig, never in a runner
        runners = {entry.runner.__name__ for entry in suites._SUITES.values()}
        functions = {
            node.name: node for node in ast.walk(ast.parse(inspect.getsource(suites))) if isinstance(node, ast.FunctionDef)
        }
        assert runners <= set(functions)
        raising = {
            name
            for name in runners
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Raise) and "ConfigError" in ast.unparse(node.exc)
        }
        assert raising == set()

    def test_counterexample_needs_the_sequence_backend(self, capsys):
        with pytest.raises(ConfigError, match="sequence backend"):
            run_suite(SuiteConfig(suite="counterexample", space="finite:3", trials=3))
        assert main(["check", "counterexample", "--space", "finite:3"]) == 2
        assert "sequence backend" in capsys.readouterr().err

    def test_reports_match_pinned_digest(self):
        configs = [SuiteConfig(suite=suite, trials=25, seed=seed) for seed in (0, 7) for suite in SUITES]
        configs.append(SuiteConfig(suite="nakano", space="finite:2", trials=EXHAUSTIVE))
        digest = hashlib.sha256()
        for config in configs:
            digest.update(emit_report(run_suite(config), "json"))
        assert digest.hexdigest() == _PINNED_REPORTS

    def test_reports_are_deterministic(self):
        config = SuiteConfig(suite="oa-characterisations", trials=5, seed=21)
        assert run_suite(config).to_obj() == run_suite(config).to_obj()
        other = SuiteConfig(suite="oa-characterisations", trials=5, seed=22)
        assert run_suite(config).to_obj() != run_suite(other).to_obj()


class TestFailurePath:
    """A patched check makes trial K of one property fail."""

    K = 2

    def _fail_on_call(self, monkeypatch, name, call, wrong):
        real = getattr(suites, name)
        calls = itertools.count()

        def patched(*args, **kwargs):
            result = real(*args, **kwargs)
            return wrong(result) if next(calls) == call else result

        monkeypatch.setattr(suites, name, patched)

    def _assert_first_fails_rest_reported(self, report, names, detail_start):
        assert sorted(r.name for r in report.results) == sorted(names)
        failed, *rest = (r for r in report.results if r.name == names[0])
        assert not failed.passed and not rest
        assert failed.samples == self.K + 1
        assert failed.detail.startswith(detail_start)
        assert all(r.passed and r.samples == 6 for r in report.results if r.name != names[0])

    def test_isometry_failure_keeps_later_properties(self, monkeypatch):
        self._fail_on_call(monkeypatch, "norm_check", self.K, lambda sides: (sides[0] + 1, sides[1]))
        report = run_suite(SuiteConfig(suite="isometry", trials=6, seed=0))
        names = [
            "regular-norm-equals-variation-norm",
            "lattice-operations-atomwise",
            "disjointness-correspondence",
            "integral-oracle",
        ]
        self._assert_first_fails_rest_reported(report, names, f"trial {self.K}: ")

    def test_localisation_failure_keeps_later_properties(self, monkeypatch):
        # two consistency checks per trial: the tensor pair, then the measure pair
        broken = ConsistencyVerdict(False, "modulus")
        self._fail_on_call(monkeypatch, "local_lattice_consistency", 2 * self.K, lambda verdict: broken)
        report = run_suite(SuiteConfig(suite="localisation", trials=6, seed=0))
        names = [
            "lattice-identities-localise",
            "functoriality",
            "evaluation-agreement-on-the-ideal",
            "positivity-preserved-and-reflected",
            "disjointness-localises",
        ]
        self._assert_first_fails_rest_reported(report, names, f"trial {self.K}: identity modulus on generator ")

    def test_exhaustive_failure_names_its_case(self, monkeypatch):
        broken = lambda report: dataclasses.replace(report, equivalence_holds=False)  # noqa: E731
        self._fail_on_call(monkeypatch, "nakano_verify", self.K, broken)
        report = run_suite(SuiteConfig(suite="nakano", space="finite:2", trials=EXHAUSTIVE))
        self._assert_first_fails_rest_reported(report, ["carrier-criterion-exhaustive"], f"trial {self.K}: ")

    def test_matrix_failure_detail_and_counterexample(self, monkeypatch):
        real = suites.orthosymmetry_check

        def flipped(form, mode, samples=200, seed=0):
            verdict = real(form, mode, samples=samples, seed=seed)
            if mode == OS_DISJOINT and samples == 40 and seed == self.K:
                return dataclasses.replace(verdict, passed=not verdict.passed)
            return verdict

        monkeypatch.setattr(suites, "orthosymmetry_check", flipped)
        report = run_suite(SuiteConfig(suite="orthosymmetry", trials=6, seed=0))
        by_name = {r.name: r for r in report.results}
        assert by_name["diagonal-agrees-with-sampled-modes"].passed
        failed = by_name["matrix-disjoint-pairs-decide-off-diagonal"]
        assert not failed.passed and failed.samples == self.K + 1
        assert failed.detail == f"trial {self.K}"
        assert "rows" in failed.counterexample["instance"]
        assert reverify_counterexample(failed.counterexample)
