"""Named property suites over seeded random instances.

Each suite exercises one slice of the library and returns one result per
property, whose counterexamples carry everything needed to replay the
failure.  Sampled properties run through one driver, `_property`: trial i of
a property draws from its own stream, keyed by (seed, suite, property, i);
the first failing trial decides the result (``samples = i + 1``, detail
``trial i: ...``), and a failing property never hides the properties after
it, so every property of the suite is reported.  The nakano suite
additionally supports exhaustive enumeration at desk scale (n <= 4, weights
in {-1, 0, 1}, m <= 3); beyond those caps it refuses rather than silently
sampling.  The nakano regression pair and the counterexample suite are
single-shot checks with no trial stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian

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
from .errors import ConfigError, InvariantViolation, NoWitnessError
from .jsonio import to_obj
from .lattice import (
    Element,
    PrincipalIdeal,
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
    Polynomial,
    norm_check,
    poly_add,
    poly_join,
    poly_meet,
    poly_modulus,
    polys_disjoint,
    to_measure,
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

SUITES = (
    "lattice-axioms",
    "rearrangement",
    "orthosymmetry",
    "oa-characterisations",
    "isometry",
    "localisation",
    "order-continuity",
    "carriers",
    "nakano",
    "counterexample",
)

_POLYNOMIAL_SUITES = {
    "orthosymmetry",
    "oa-characterisations",
    "isometry",
    "localisation",
    "order-continuity",
    "carriers",
    "nakano",
    "counterexample",
}

_OMEGA_SUITES = {"order-continuity", "counterexample"}

EXHAUSTIVE = "exhaustive"
_EXHAUSTIVE_MAX_N = 4
_EXHAUSTIVE_MAX_M = 3
_EXHAUSTIVE_WEIGHTS = (-1, 0, 1)


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    m: int = 2
    n: int = 3
    space: str = ""
    trials: int | str = 100
    seed: int | str = 0
    probe_depth: int = 50

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if isinstance(self.trials, str):
            if self.trials != EXHAUSTIVE:
                raise ConfigError(f"trials must be a positive integer or {EXHAUSTIVE!r}")
            if self.suite != "nakano":
                raise ConfigError("exhaustive enumeration is implemented for the nakano suite")
        elif self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.suite in _POLYNOMIAL_SUITES and self.m < 2:
            raise ConfigError("polynomial suites need degree m >= 2")
        if self.m < 1:
            raise ConfigError("degree must be positive")
        if self.n < 2:
            raise ConfigError("finite spaces here need n >= 2")
        if self.probe_depth < 1:
            raise ConfigError("probe depth must be >= 1")

    def resolved_space(self) -> Space:
        if self.space:
            if self.space == "omega1":
                return Space.omega_plus_one()
            if self.space.startswith("finite:"):
                try:
                    n = int(self.space.split(":", 1)[1])
                except ValueError:
                    raise ConfigError(f"bad space spec {self.space!r}") from None
                if n < 1:
                    raise ConfigError("finite space needs n >= 1")
                return Space.finite(n)
            raise ConfigError(f"bad space spec {self.space!r}; use finite:N or omega1")
        if self.suite in _OMEGA_SUITES:
            return Space.omega_plus_one()
        return Space.finite(self.n)

    def echo(self) -> dict:
        return {
            "suite": self.suite,
            "m": self.m,
            "n": self.n,
            "space": repr(self.resolved_space()),
            "trials": self.trials,
            "seed": str(self.seed),
            "probeDepth": self.probe_depth,
        }


def run_suite(config: SuiteConfig) -> Report:
    runner = _RUNNERS[config.suite]
    start = time.perf_counter()
    results = tuple(runner(config))
    return Report(config.suite, config.echo(), results, time.perf_counter() - start)


def _oa_samples(space: Space, m: int) -> int:
    if space.is_finite:
        return structured_pair_count(space.n, m) + 26
    return 24


def _property(config: SuiteConfig, name: str, body) -> PropertyResult:
    """Run ``body(rng, i)`` on the property's trial streams until one fails.

    ``body`` returns ``None`` when trial ``i`` holds and ``(detail,
    counterexample)`` when it does not; the first failing trial decides the
    result, with ``samples = i + 1`` and the detail prefixed by ``trial i``.
    """
    trials = int(config.trials)
    for i in range(trials):
        failure = body(rng_for(config.seed, config.suite, name, i), i)
        if failure is not None:
            detail, counterexample = failure
            prefix = f"trial {i}"
            return PropertyResult(name, False, i + 1, f"{prefix}: {detail}" if detail else prefix, counterexample)
    return PropertyResult(name, True, trials)


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
        columns = [sorted((x.values[t] for x in xs), reverse=True) for t in range(space.n)]
        return [Element(space, values=[columns[t][i] for t in range(space.n)]) for i in range(k)]
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
    if not space.is_finite:
        raise ConfigError("multilinear forms live on finite spaces")
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
        return mu, nu, Polynomial.from_measure(config.m, mu), Polynomial.from_measure(config.m, nu)

    def norms(rng, i):
        mu, _, p, _ = pair(rng)
        regular, variation = norm_check(p)
        if regular != variation:
            return f"{regular} vs {variation} for {mu!r}", None

    def atomwise(rng, i):
        mu, nu, p, r = pair(rng)
        ok = (
            to_measure(poly_modulus(p)) == abs(mu)
            and to_measure(poly_join(p, r)) == mu.join(nu)
            and to_measure(poly_meet(p, r)) == mu.meet(nu)
            and to_measure(poly_add(p, r)) == mu + nu
        )
        if not ok:
            return f"{mu!r}, {nu!r}", None

    def disjointness(rng, i):
        mu, nu, p, r = pair(rng)
        if i % 3 == 0:  # force genuinely disjoint pairs into the mix
            keep = frozenset(t for t in mu.atoms if rng.random() < 0.5)
            mu = mu.restrict(keep, keep_limit=False)
            nu = nu.restrict(frozenset(nu.atoms) - keep, keep_limit=not space.is_finite)
            p = Polynomial.from_measure(config.m, mu)
            r = Polynomial.from_measure(config.m, nu)
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
    if not space.is_finite:
        raise ConfigError("restriction identities run on finite spaces")

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
        twice = restrict(restrict(obj, b).induced, a).induced
        once = restrict(obj, a).induced
        if twice != once:
            return f"generators {a!r} <= {b!r}", None

    def evaluation_agreement(rng, i):
        a = _masked_positive(rng, space)
        poly = tensor_polynomial(rng, space, config.m) if i % 2 else measure_polynomial(rng, space, config.m)
        restricted = restrict(poly, a).induced
        x = element(rng, space)
        member = Element(space, values=[v if a.value_at(t) != 0 else Fraction(0) for t, v in zip(space.points(), x.values)])
        if restricted.evaluate(member) != poly.evaluate(member):
            return f"generator {a!r}, member {member!r}", None

    def positivity(rng, i):
        tensor = sym_tensor(rng, space, config.m)
        gens = default_generators(space)
        restrictions = [restrict(tensor, g).induced for g in gens]
        preserved = (not tensor.is_positive()) or all(r.is_positive() for r in restrictions)
        reflected = tensor.is_positive() or not all(r.is_positive() for r in restrictions)
        if not (preserved and reflected):
            return f"{tensor!r}", None

    def disjointness(rng, i):
        mu = measure(rng, space)
        keep = frozenset(t for t in mu.atoms if rng.random() < 0.5)
        p = Polynomial.from_measure(config.m, mu.restrict(keep, False))
        q_disjoint = Polynomial.from_measure(config.m, mu.restrict(frozenset(mu.atoms) - keep, False))
        q_overlap = Polynomial.from_measure(config.m, measure(rng, space))
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
    if space.is_finite:
        raise ConfigError("order-continuity phenomena need the sequence backend")

    def dichotomy(rng, i):
        poly = measure_polynomial(rng, space, config.m)
        if not dichotomy_agrees(poly, scale=abs(rational(rng, nonzero=True)), probe_depth=config.probe_depth):
            return f"{poly!r}", None

    def power_dominator(rng, i):
        c = abs(rational(rng, nonzero=True))
        cert = urysohn_witness_net(c)
        powered = power_net_dominator(cert, config.m, bound_b=c + rng.randint(0, 3))
        verdict = powered.verify(config.probe_depth)
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
            (null_ideal(Polynomial.from_measure(m, mu)), carrier(Polynomial.from_measure(m, mu)))
            for m in (2, 3, 4)
        }
        if len(descriptors) != 1:
            return f"{mu!r}", None

    def carrier_localises(rng, i):
        poly = measure_polynomial(rng, space, config.m)
        generators = default_generators(space) + [PrincipalIdeal(_masked_positive(rng, space))]
        for g in generators:
            verdict = local_carrier_check(poly, g)
            if not verdict.passed:
                return f"{verdict.failed_identity} at {g.generator!r}", None

    yield _property(config, "carrier-and-null-ideal-partition", partition)
    yield _property(config, "null-ideal-matches-evaluation", null_ideal_evaluation)
    yield _property(config, "degree-invariance-of-descriptors", degree_invariance)
    if space.is_finite:
        yield _property(config, "carrier-localises", carrier_localises)


# -- nakano -------------------------------------------------------------------------------


def _exhaustive_measures(space: Space):
    for weights in cartesian(_EXHAUSTIVE_WEIGHTS, repeat=space.n):
        yield Measure(space, {t: w for t, w in zip(space.points(), weights) if w})


def _nakano(config: SuiteConfig):
    space = config.resolved_space()
    if config.trials == EXHAUSTIVE:
        if not space.is_finite:
            raise ConfigError("exhaustive enumeration runs on finite spaces")
        if space.n > _EXHAUSTIVE_MAX_N or config.m > _EXHAUSTIVE_MAX_M:
            raise ConfigError(
                f"exhaustive caps: n <= {_EXHAUSTIVE_MAX_N}, m <= {_EXHAUSTIVE_MAX_M}; narrow the request"
            )
        name = "carrier-criterion-exhaustive"
        count = 0
        all_measures = list(_exhaustive_measures(space))
        for mu in all_measures:
            p = Polynomial.from_measure(config.m, mu)
            for nu in all_measures:
                count += 1
                try:
                    report = nakano_verify(p, Polynomial.from_measure(config.m, nu))
                except InvariantViolation as exc:
                    yield PropertyResult(name, False, count, f"{mu!r} vs {nu!r}: {exc}")
                    return
                if not report.equivalence_holds:
                    yield PropertyResult(name, False, count, f"{mu!r} vs {nu!r}")
                    return
        yield PropertyResult(name, True, count)
        return

    def with_hypothesis(rng, i):
        p = measure_polynomial(rng, space, config.m, normal=True)
        q = measure_polynomial(rng, space, config.m)
        try:
            report = nakano_verify(p, q)
        except InvariantViolation as exc:
            return f"{p!r} vs {q!r}: {exc}", None
        if not (report.hypothesis_met and report.equivalence_holds):
            return f"{p!r} vs {q!r}", None

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
    ok = witness.gap == 1 and witness.base_value == 1 and witness.net.verify(depth).passed
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


_RUNNERS = {
    "lattice-axioms": _lattice_axioms,
    "rearrangement": _rearrangement,
    "orthosymmetry": _orthosymmetry,
    "oa-characterisations": _oa_characterisations,
    "isometry": _isometry,
    "localisation": _localisation,
    "order-continuity": _order_continuity,
    "carriers": _carriers,
    "nakano": _nakano,
    "counterexample": _counterexample,
}
