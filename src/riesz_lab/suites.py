"""Named property suites over seeded random instances.

One table, `_SUITES`, declares each suite once: its runner, the spaces it
runs on, whether it draws polynomials (and so needs degree m >= 2), and its
exhaustive class, if it has one.  `SuiteConfig` reads the table to default
and refuse a run at construction, so the runners hold no policy.  Each
suite returns one result per property, whose counterexamples carry
everything needed to replay the failure.  Every property with a trial
stream runs through one driver, `_property`: trial i draws from its own
stream, keyed by (seed, suite, property, i), or takes the i-th case of an
explicit enumeration; the first failing trial decides the result
(``samples = i + 1``, detail ``trial i: ...``), and a failing property
never hides the properties after it, so every property of the suite is
reported.  The nakano suite's exhaustive class enumerates measure pairs at
desk scale (finite spaces, n <= 4, weights in {-1, 0, 1}, m <= 3); beyond
those caps it refuses rather than silently sampling.  The nakano
regression pair and the counterexample suite are single-shot checks with
no trial stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as cartesian
from typing import Callable, Iterable

from .carriers import (
    carrier,
    local_carrier_check,
    nakano_regression_pair,
    nakano_verify,
    null_ideal,
    null_ideal_matches_modulus,
)
from .checks import (
    OS_BILINEAR,
    OS_DIAGONAL,
    OS_DISJOINT,
    OS_J_IDENTITY,
    oa_mode_agreement,
    orthosymmetry_check,
    structured_pair_count,
)
from .convergence import verify_certificate
from .errors import ConfigError, InvariantViolation, NoWitnessError
from .jsonio import to_obj
from .lattice import (
    Element,
    RadicalElement,
    Space,
    decreasing_rearrangements,
)
from .measures import Measure
from .order_continuity import (
    Functional,
    ProductFunctionalPolynomial,
    dichotomy_agrees,
    discontinuity_witness,
    power_net_dominator,
    urysohn_witness_net,
    zero_order_continuity_probe,
)
from .polynomials import (
    norm_check,
    polys_disjoint,
    to_measure,
    to_polynomial,
)
from .report import PropertyResult, Report, attach_instance
from .restriction import (
    default_generators,
    local_disjointness,
    local_lattice_consistency,
    restrict,
)
from .sampling import (
    element,
    matrix_form,
    measure,
    measure_polynomial,
    nonzero_positive_element,
    rational,
    rng_for,
    sym_tensor,
    tensor_polynomial,
)

EXHAUSTIVE = "exhaustive"
_EXHAUSTIVE_MAX_N = 4
_EXHAUSTIVE_MAX_M = 3
_EXHAUSTIVE_WEIGHTS = (-1, 0, 1)

_FINITE, _OMEGA1 = "finite", "omega1"
_BOTH = (_FINITE, _OMEGA1)


@dataclass(frozen=True)
class _Suite:
    """One row of the suite table; ``exhaustive(space, m)``, when present,
    returns the suite's enumerated cases and refuses a request past its caps."""

    runner: Callable
    spaces: tuple[str, ...]
    polynomial: bool
    exhaustive: Callable[[Space, int], Iterable] | None = None


@dataclass(frozen=True)
class SuiteConfig:
    """One run of a suite, checked against its row of `_SUITES` and with its
    space resolved once, here."""

    suite: str
    m: int = 2
    n: int = 3
    space: str = ""
    trials: int | str = 100
    seed: int | str = 0
    probe_depth: int = 50
    _space: Space = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entry = _SUITES.get(self.suite)
        if entry is None:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if isinstance(self.trials, str) and self.trials != EXHAUSTIVE:
            try:
                object.__setattr__(self, "trials", int(self.trials))
            except ValueError:
                raise ConfigError(f"trials must be a positive integer or {EXHAUSTIVE!r}, got {self.trials!r}") from None
        if self.trials != EXHAUSTIVE and self.trials < 1:
            raise ConfigError("need at least one trial")
        if entry.polynomial and self.m < 2:
            raise ConfigError("polynomial suites need degree m >= 2")
        if self.m < 1:
            raise ConfigError("degree must be positive")
        if self.probe_depth < 1:
            raise ConfigError("probe depth must be >= 1")
        object.__setattr__(self, "_space", self._resolve(entry.spaces))
        if self.trials == EXHAUSTIVE:
            if entry.exhaustive is None:
                with_class = ", ".join(name for name, suite in _SUITES.items() if suite.exhaustive)
                raise ConfigError(f"the {self.suite} suite has no exhaustive class; suites with one: {with_class}")
            entry.exhaustive(self._space, self.m)  # refuses past the class's caps; enumerates nothing yet

    def _resolve(self, spaces: tuple[str, ...]) -> Space:
        """The space spec, by default ``finite:n`` or, for a suite that runs
        only on omega1, ``omega1``; the n >= 2 floor applies here alone."""
        spec = self.space or (f"{_FINITE}:{self.n}" if _FINITE in spaces else _OMEGA1)
        kind, colon, size = spec.partition(":")
        if (kind, colon) not in ((_OMEGA1, ""), (_FINITE, ":")):
            raise ConfigError(f"bad space spec {spec!r}; use finite:N or omega1")
        if kind not in spaces:
            home = "finite spaces" if kind == _OMEGA1 else "the sequence backend (omega1)"
            raise ConfigError(f"the {self.suite} suite runs on {home}, not {spec}")
        if kind == _OMEGA1:
            return Space.omega_plus_one()
        try:
            n = int(size)
        except ValueError:
            raise ConfigError(f"bad space spec {spec!r}") from None
        if n < 2:
            raise ConfigError("finite spaces here need n >= 2")
        return Space.finite(n)

    def resolved_space(self) -> Space:
        return self._space

    def echo(self) -> dict:
        return {
            "suite": self.suite,
            "m": self.m,
            "n": self.n,
            "space": repr(self._space),
            "trials": self.trials,
            "seed": str(self.seed),
            "probeDepth": self.probe_depth,
        }


def run_suite(config: SuiteConfig) -> Report:
    start = time.perf_counter()
    results = tuple(_SUITES[config.suite].runner(config))
    return Report(config.suite, config.echo(), results, time.perf_counter() - start)


def _oa_samples(space: Space, m: int) -> int:
    if space.is_finite:
        return structured_pair_count(space.n, m) + 26
    return 24


def _property(config: SuiteConfig, name: str, body, cases: Iterable | None = None) -> PropertyResult:
    """Run ``body(case, i)`` on trial i until one fails.

    A trial's case is its own stream, ``rng_for(seed, suite, name, i)``, or
    the i-th of an explicit enumeration ``cases``.  ``body`` returns
    ``None`` when trial ``i`` holds and ``(detail, counterexample)`` when it
    does not; the first failing trial decides the result, with ``samples =
    i + 1`` and the detail prefixed by ``trial i``.
    """
    if cases is None:
        cases = (rng_for(config.seed, config.suite, name, i) for i in range(config.trials))
    i = -1
    for i, case in enumerate(cases):
        failure = body(case, i)
        if failure is not None:
            detail, counterexample = failure
            prefix = f"trial {i}"
            return PropertyResult(name, False, i + 1, f"{prefix}: {detail}" if detail else prefix, counterexample)
    return PropertyResult(name, True, i + 1)


# -- lattice axioms -------------------------------------------------------------------


def _lattice_axioms(config: SuiteConfig):
    space = config.resolved_space()

    def axiom(name, relation):
        def body(rng, i):
            x, y, z = (element(rng, space) for _ in range(3))
            lam = rational(rng)
            if not relation(x, y, z, lam):
                return f"x={x!r} y={y!r} z={z!r} lambda={lam}", None

        return _property(config, name, body)

    yield axiom("commutativity", lambda x, y, z, lam: x.join(y) == y.join(x) and x.meet(y) == y.meet(x))
    yield axiom(
        "associativity",
        lambda x, y, z, lam: x.join(y).join(z) == x.join(y.join(z)) and x.meet(y).meet(z) == x.meet(y.meet(z)),
    )
    yield axiom("absorption", lambda x, y, z, lam: x.join(x.meet(y)) == x and x.meet(x.join(y)) == x)
    yield axiom(
        "distributivity",
        lambda x, y, z, lam: x.meet(y.join(z)) == x.meet(y).join(x.meet(z)),
    )
    yield axiom(
        "part-decomposition",
        lambda x, y, z, lam: x.pos_part() - x.neg_part() == x
        and x.pos_part() + x.neg_part() == abs(x)
        and x.pos_part().meet(x.neg_part()).is_zero(),
    )
    yield axiom(
        "translation-invariance",
        lambda x, y, z, lam: x.join(y) + z == (x + z).join(y + z),
    )
    yield axiom("triangle", lambda x, y, z, lam: abs(x + y).le(abs(x) + abs(y)))
    yield axiom("scaling-modulus", lambda x, y, z, lam: abs(x * lam) == abs(x) * abs(lam))

    m = max(config.m, 2)

    def radical_root(rng, i):
        x = element(rng, space, positive=True)
        root = RadicalElement(m, x**m).exact_root()
        if root != x:
            return f"({x!r}^{m})^(1/{m}) -> {root!r}", None

    yield _property(config, "radical-exact-root", radical_root)


# -- decreasing rearrangements ---------------------------------------------------------


def _sorted_columns_oracle(xs):
    """Per-point descending sort, computed from raw values."""
    space = xs[0].space
    k = len(xs)
    if space.is_finite:
        columns = [sorted(column, reverse=True) for column in zip(*(x.values for x in xs))]
        return [Element(space, values=[column[i] for column in columns]) for i in range(k)]
    width = max(len(x.prefix) for x in xs)
    columns = [sorted((x.value_at(t) for x in xs), reverse=True) for t in range(1, width + 1)]
    tails = sorted((x.tail for x in xs), reverse=True)
    return [Element.omega([col[i] for col in columns], tails[i]) for i in range(k)]


def _rearrangement(config: SuiteConfig):
    space = config.resolved_space()

    def rearranged(name, relation):
        def body(rng, i):
            xs = [element(rng, space, positive=True) for _ in range(rng.randint(2, 4))]
            js = decreasing_rearrangements(xs)
            if not relation(xs, js):
                return f"tuple {[repr(x) for x in xs]}", None

        return _property(config, name, body)

    yield rearranged("sum-preservation", lambda xs, js: sum(js[1:], js[0]) == sum(xs[1:], xs[0]))
    yield rearranged("monotone-chain", lambda xs, js: all(js[i + 1].le(js[i]) for i in range(len(js) - 1)))
    yield rearranged("sort-oracle-agreement", lambda xs, js: js == _sorted_columns_oracle(xs))
    yield rearranged("idempotence", lambda xs, js: decreasing_rearrangements(js) == js)


# -- orthosymmetry ----------------------------------------------------------------------


def _orthosymmetry(config: SuiteConfig):
    space = config.resolved_space()
    samples = max(60, structured_pair_count(space.n, config.m) + 10)
    modes = [OS_J_IDENTITY, OS_DISJOINT] + ([OS_BILINEAR] if config.m == 2 else [])

    def diagonal_agrees(rng, i):
        tensor = sym_tensor(rng, space, config.m, diagonal=rng.random() < 0.5, ensure_off_diagonal=rng.random() < 0.5)
        expected = orthosymmetry_check(tensor, OS_DIAGONAL).passed
        for mode in modes:
            verdict = orthosymmetry_check(tensor, mode, samples=samples, seed=rng.randint(0, 2**31))
            if verdict.passed != expected:
                payload = verdict.counterexample and attach_instance(verdict.counterexample, to_obj(tensor))
                return f"{mode} vs diagonal on {tensor!r}", payload

    yield _property(config, "diagonal-agrees-with-sampled-modes", diagonal_agrees)

    def matrix_disjoint_pairs(rng, i):
        form = matrix_form(rng, space)
        verdict = orthosymmetry_check(form, OS_DISJOINT, samples=40, seed=i)
        if verdict.passed != (not form.off_diagonal_entries()):
            return "", verdict.counterexample and attach_instance(verdict.counterexample, to_obj(form))

    if config.m == 2:
        yield _property(config, "matrix-disjoint-pairs-decide-off-diagonal", matrix_disjoint_pairs)


# -- orthogonal additivity ---------------------------------------------------------------


def _oa_characterisations(config: SuiteConfig):
    space = config.resolved_space()
    samples = _oa_samples(space, config.m)

    def seven_modes(rng, i):
        if space.is_finite and i % 2 == 0:
            poly = tensor_polynomial(rng, space, config.m, diagonal=rng.random() < 0.5, ensure_off_diagonal=rng.random() < 0.5)
        else:
            poly = measure_polynomial(rng, space, config.m)
        verdicts = oa_mode_agreement(poly, samples=samples, seed=rng.randint(0, 2**31))
        expected = poly.is_orthogonally_additive()
        for mode, verdict in verdicts.items():
            if verdict.passed != expected:
                payload = verdict.counterexample and attach_instance(verdict.counterexample, to_obj(poly))
                return f"mode {mode} disagrees with structure on {poly!r}", payload

    yield _property(config, "seven-modes-agree-with-structure", seven_modes)


# -- measure <-> polynomial isometry ------------------------------------------------------


def _isometry(config: SuiteConfig):
    space = config.resolved_space()

    def pair(rng):
        mu, nu = measure(rng, space), measure(rng, space)
        return mu, nu, to_polynomial(mu, config.m), to_polynomial(nu, config.m)

    def norms(rng, i):
        mu, _, p, _ = pair(rng)
        regular, variation = norm_check(p)
        if regular != variation:
            return f"{regular} vs {variation} for {mu!r}", None

    def atomwise(rng, i):
        mu, nu, p, r = pair(rng)
        ok = (
            to_measure(abs(p)) == abs(mu)
            and to_measure(p.join(r)) == mu.join(nu)
            and to_measure(p.meet(r)) == mu.meet(nu)
            and to_measure(p + r) == mu + nu
        )
        if not ok:
            return f"{mu!r}, {nu!r}", None

    def disjointness(rng, i):
        mu, nu, p, r = pair(rng)
        if i % 3 == 0:  # force genuinely disjoint pairs into the mix
            keep = frozenset(t for t in mu.atoms if rng.random() < 0.5)
            mu = mu.restrict(keep, keep_limit=False)
            nu = nu.restrict(frozenset(nu.atoms) - keep, keep_limit=not space.is_finite)
            p = to_polynomial(mu, config.m)
            r = to_polynomial(nu, config.m)
        if polys_disjoint(p, r) != mu.is_disjoint(nu):
            return f"{mu!r}, {nu!r}", None

    def integral(rng, i):
        mu, _, p, _ = pair(rng)
        x = element(rng, space)
        expected = sum((w * x.value_at(t) ** config.m for t, w in mu.atoms.items()), Fraction(0))
        if not space.is_finite:
            expected += mu.limit_atom * x.tail**config.m
        if p.evaluate(x) != expected:
            return f"{mu!r} at {x!r}", None

    yield _property(config, "regular-norm-equals-variation-norm", norms)
    yield _property(config, "lattice-operations-atomwise", atomwise)
    yield _property(config, "disjointness-correspondence", disjointness)
    yield _property(config, "integral-oracle", integral)


# -- localisation --------------------------------------------------------------------------


def _masked_positive(rng, space: Space) -> Element:
    base = nonzero_positive_element(rng, space)
    if not space.is_finite:
        return base
    vals = [v if rng.random() < 0.7 else Fraction(0) for v in base.values]
    if all(v == 0 for v in vals):
        return base
    return Element(space, values=vals)


def _localisation(config: SuiteConfig):
    space = config.resolved_space()

    def lattice_identities(rng, i):
        a = _masked_positive(rng, space)
        first = sym_tensor(rng, space, config.m)
        second = sym_tensor(rng, space, config.m)
        verdict = local_lattice_consistency(first, second, a)
        if not verdict.passed:
            return f"identity {verdict.failed_identity} on generator {a!r}", None
        mp = measure_polynomial(rng, space, config.m)
        mq = measure_polynomial(rng, space, config.m)
        verdict = local_lattice_consistency(mp, mq, a)
        if not verdict.passed:
            return f"measure identity {verdict.failed_identity}", None

    def functoriality(rng, i):
        b = nonzero_positive_element(rng, space)
        masked = [v if rng.random() < 0.6 else Fraction(0) for v in b.values]
        a = Element(space, values=masked) if any(masked) else b
        obj = sym_tensor(rng, space, config.m)
        twice = restrict(restrict(obj, b), a)
        once = restrict(obj, a)
        if twice != once:
            return f"generators {a!r} <= {b!r}", None

    def evaluation_agreement(rng, i):
        a = _masked_positive(rng, space)
        poly = tensor_polynomial(rng, space, config.m) if i % 2 else measure_polynomial(rng, space, config.m)
        restricted = restrict(poly, a)
        x = element(rng, space)
        member = Element(space, values=[v if a.value_at(t) != 0 else Fraction(0) for t, v in zip(space.points(), x.values)])
        if restricted.evaluate(member) != poly.evaluate(member):
            return f"generator {a!r}, member {member!r}", None

    def positivity(rng, i):
        tensor = sym_tensor(rng, space, config.m)
        gens = default_generators(space)
        restrictions = [restrict(tensor, g) for g in gens]
        preserved = (not tensor.is_positive()) or all(r.is_positive() for r in restrictions)
        reflected = tensor.is_positive() or not all(r.is_positive() for r in restrictions)
        if not (preserved and reflected):
            return f"{tensor!r}", None

    def disjointness(rng, i):
        mu = measure(rng, space)
        keep = frozenset(t for t in mu.atoms if rng.random() < 0.5)
        p = to_polynomial(mu.restrict(keep, False), config.m)
        q_disjoint = to_polynomial(mu.restrict(frozenset(mu.atoms) - keep, False), config.m)
        q_overlap = to_polynomial(measure(rng, space), config.m)
        for q in (q_disjoint, q_overlap):
            report = local_disjointness(p, q)
            if not report.equivalence_holds:
                return f"{p!r} vs {q!r}", None

    yield _property(config, "lattice-identities-localise", lattice_identities)
    yield _property(config, "functoriality", functoriality)
    yield _property(config, "evaluation-agreement-on-the-ideal", evaluation_agreement)
    yield _property(config, "positivity-preserved-and-reflected", positivity)
    yield _property(config, "disjointness-localises", disjointness)


# -- order continuity -------------------------------------------------------------------


def _order_continuity(config: SuiteConfig):
    space = config.resolved_space()

    def dichotomy(rng, i):
        poly = measure_polynomial(rng, space, config.m)
        if not dichotomy_agrees(poly, scale=abs(rational(rng, nonzero=True)), probe_depth=config.probe_depth):
            return f"{poly!r}", None

    def power_dominator(rng, i):
        c = abs(rational(rng, nonzero=True))
        cert = urysohn_witness_net(c)
        powered = power_net_dominator(cert, config.m, bound_b=c + rng.randint(0, 3))
        verdict = verify_certificate(powered, config.probe_depth)
        if not verdict.passed:
            return f"scale {c}, reason {verdict.reason}", None

    def homogeneity(rng, i):
        lam = rational(rng)
        x = element(rng, space)
        mp = measure_polynomial(rng, space, config.m)
        prod = ProductFunctionalPolynomial(config.m, Functional.coordinate(rng.randint(1, 4)), Functional.limit())
        ok = (
            mp.evaluate(x * lam) == lam**config.m * mp.evaluate(x)
            and prod.evaluate(x * lam) == lam**config.m * prod.evaluate(x)
        )
        if not ok:
            return f"lambda {lam}, {x!r}", None

    yield _property(config, "normality-dichotomy", dichotomy)
    yield _property(config, "power-dominator-verifies", power_dominator)
    yield _property(config, "homogeneity", homogeneity)


# -- carriers -----------------------------------------------------------------------------


def _carriers(config: SuiteConfig):
    space = config.resolved_space()

    def partition(rng, i):
        poly = measure_polynomial(rng, space, config.m)
        car = carrier(poly)
        null = null_ideal(poly)
        atoms = frozenset(abs(poly.rep).atoms)
        if space.is_finite:
            ok = not (car.points & null.points) and car.points | null.points == frozenset(space.points())
        else:
            ok = car.points == atoms and null.points == atoms and null.cofinite
        if not ok:
            return f"{poly!r}", None

    def null_ideal_evaluation(rng, i):
        poly = measure_polynomial(rng, space, config.m)
        candidates = [element(rng, space) for _ in range(6)]
        if space.is_finite:
            mask = null_ideal(poly).points
            candidates += [
                Element(space, values=[v if t in mask else Fraction(0) for t, v in zip(space.points(), x.values)])
                for x in candidates[:3]
            ]
        if not null_ideal_matches_modulus(poly, candidates):
            return f"{poly!r}", None

    def degree_invariance(rng, i):
        mu = measure(rng, space)
        descriptors = {
            (null_ideal(to_polynomial(mu, m)), carrier(to_polynomial(mu, m)))
            for m in (2, 3, 4)
        }
        if len(descriptors) != 1:
            return f"{mu!r}", None

    def carrier_localises(rng, i):
        poly = measure_polynomial(rng, space, config.m)
        generators = default_generators(space) + [_masked_positive(rng, space)]
        for g in generators:
            verdict = local_carrier_check(poly, g)
            if not verdict.passed:
                return f"{verdict.failed_identity} at {g!r}", None

    yield _property(config, "carrier-and-null-ideal-partition", partition)
    yield _property(config, "null-ideal-matches-evaluation", null_ideal_evaluation)
    yield _property(config, "degree-invariance-of-descriptors", degree_invariance)
    if space.is_finite:
        yield _property(config, "carrier-localises", carrier_localises)


# -- nakano -------------------------------------------------------------------------------


def _exhaustive_measure_pairs(space: Space, m: int):
    """The nakano suite's exhaustive class: every ordered pair of measures on
    ``space`` with weights in {-1, 0, 1}.  The caps are checked on the call;
    the pairs are produced as they are consumed."""
    if not space.is_finite:
        raise ConfigError("exhaustive enumeration runs on finite spaces")
    if space.n > _EXHAUSTIVE_MAX_N or m > _EXHAUSTIVE_MAX_M:
        raise ConfigError(f"exhaustive caps: n <= {_EXHAUSTIVE_MAX_N}, m <= {_EXHAUSTIVE_MAX_M}; narrow the request")
    measures = [
        Measure(space, {t: w for t, w in zip(space.points(), weights) if w})
        for weights in cartesian(_EXHAUSTIVE_WEIGHTS, repeat=space.n)
    ]
    return cartesian(measures, repeat=2)


def _nakano(config: SuiteConfig):
    space = config.resolved_space()

    def criterion(p, q, label):
        try:
            report = nakano_verify(p, q)
        except InvariantViolation as exc:
            return f"{label}: {exc}", None
        if not (report.hypothesis_met and report.equivalence_holds):
            return label, None

    if config.trials == EXHAUSTIVE:

        def enumerated(pair, i):
            mu, nu = pair
            p, q = (to_polynomial(measure, config.m) for measure in pair)
            return criterion(p, q, f"{mu!r} vs {nu!r}")

        yield _property(config, "carrier-criterion-exhaustive", enumerated, _exhaustive_measure_pairs(space, config.m))
        return

    def with_hypothesis(rng, i):
        p = measure_polynomial(rng, space, config.m, normal=True)
        q = measure_polynomial(rng, space, config.m)
        return criterion(p, q, f"{p!r} vs {q!r}")

    yield _property(config, "carrier-criterion-with-hypothesis", with_hypothesis)

    # the stored pair lives on the sequence backend regardless of config
    name = "regression-pair-fails-without-hypothesis"
    p, q = nakano_regression_pair()
    report = nakano_verify(p, q)
    expected = (
        not report.hypothesis_met
        and not report.equivalence_holds
        and not report.polys_disjoint
        and report.carriers_disjoint
    )
    yield PropertyResult(name, expected, 1, "" if expected else f"report {report!r}")


# -- the counterexample polynomial ---------------------------------------------------------


def _counterexample(config: SuiteConfig):
    depth = config.probe_depth

    name = "witness-gap-is-one"
    poly = ProductFunctionalPolynomial(config.m, Functional.coordinate(1), Functional.limit())
    witness = discontinuity_witness(poly, probe_depth=depth)
    ok = witness.gap == 1 and witness.base_value == 1 and verify_certificate(witness.net, depth).passed
    yield PropertyResult(name, ok, depth, "" if ok else f"gap {witness.gap}, base {witness.base_value}")

    name = "order-continuous-at-zero"
    probe = zero_order_continuity_probe(poly, [urysohn_witness_net(1)], probe_depth=depth)
    detail = "" if probe.passed else f"eventual values {[str(p.eventual_value) for p in probe.probes]}"
    yield PropertyResult(name, probe.passed, depth, detail)

    name = "no-witness-for-order-continuous-factors"
    try:
        discontinuity_witness(ProductFunctionalPolynomial(config.m, Functional.coordinate(1), Functional.coordinate(2)))
        yield PropertyResult(name, False, 1, "witness constructed despite order continuous factors")
    except NoWitnessError:
        yield PropertyResult(name, True, 1)


_SUITES = {
    "lattice-axioms": _Suite(_lattice_axioms, _BOTH, polynomial=False),
    "rearrangement": _Suite(_rearrangement, _BOTH, polynomial=False),
    "orthosymmetry": _Suite(_orthosymmetry, (_FINITE,), polynomial=True),
    "oa-characterisations": _Suite(_oa_characterisations, _BOTH, polynomial=True),
    "isometry": _Suite(_isometry, _BOTH, polynomial=True),
    "localisation": _Suite(_localisation, (_FINITE,), polynomial=True),
    "order-continuity": _Suite(_order_continuity, (_OMEGA1,), polynomial=True),
    "carriers": _Suite(_carriers, _BOTH, polynomial=True),
    "nakano": _Suite(_nakano, _BOTH, polynomial=True, exhaustive=_exhaustive_measure_pairs),
    "counterexample": _Suite(_counterexample, (_OMEGA1,), polynomial=True),
}

SUITES = tuple(_SUITES)
