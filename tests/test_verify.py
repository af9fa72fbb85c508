"""Verification tooling: volume checks, oracles, simulation, suites."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import theorem_reference
from shockcopula import verify
from shockcopula.copulas import GeneratorVector
from shockcopula.distfn import Convex, DiracStep, Discrete, Exponential
from shockcopula.genfn import DegenerateModelError, Generator, validate
from shockcopula.imprecise import PBox, ShockModel, build_bounds, rmm_envelope_full_scan_values
from shockcopula.verify import (
    CheckReport,
    DiscreteModelOracle,
    OracleError,
    UnsupportedSamplingError,
    check_copula,
    check_quasicopula,
    copula_grid,
    monte_carlo_joint,
    philox_stream,
    random_discrete,
    random_generator_vector,
    random_member,
    random_pbox_shock_model,
    random_shock_model,
    run_suite,
    suite_axioms,
    suite_montecarlo,
    suite_oracles,
    suite_theorems,
)

MINIMUM = lambda u: min(u)


def shift_copula(s):
    """Singular copula of (X, X + s mod 1) for X uniform on [0, 1]."""

    def C(u):
        x, y = u
        return min(x, max(0.0, y - s)) + max(0.0, min(x, y + 1.0 - s) - (1.0 - s))

    return C


def test_check_report_caps_stored_failures():
    report = CheckReport("probe", 1)
    for k in range(40):
        report.record("m", [k], 0.0, 1.0)
    assert len(report.failures) == 25
    assert report.diagnostics["failures_total"] == 40
    assert not report.passed
    assert report.to_dict()["check"] == "probe"


# -- grid checkers -----------------------------------------------------------------


def test_check_copula_accepts_each_family():
    rng = philox_stream(9001, 0)
    for family in ("marshall", "maxmin", "rmm"):
        for n in (2, 3):
            gv = random_generator_vector(rng, family, n)
            report = check_copula(gv, n, grid_size=13)
            assert report.passed, (family, n, report.to_dict())


def test_check_copula_flags_margin_violations():
    report = check_copula(lambda u: u[0] * u[1] ** 2, 2, grid_size=11)
    assert not report.passed
    assert any("margin" in str(f["point"]) for f in report.failures)


def test_proper_quasicopula_separates_the_two_checkers():
    # the pointwise max of two shuffle copulas keeps margins, monotonicity
    # and the Lipschitz bound but loses a box of mass
    sup = lambda u: max(shift_copula(0.125)(u), shift_copula(0.5)(u))
    volume_check = check_copula(sup, 2, grid_size=17)
    shape_check = check_quasicopula(sup, 2, grid_size=17)
    assert not volume_check.passed
    assert volume_check.diagnostics["min_cell_volume"] < -0.05
    assert shape_check.passed


def test_quasicopula_checker_flags_lipschitz_and_monotone_breaks():
    bump = lambda u: u[0] * u[1] + 0.2 * math.sin(math.pi * u[0]) * math.sin(math.pi * u[1])
    report = check_quasicopula(bump, 2, grid_size=21)
    assert not report.passed
    labels = " ".join(str(f["point"]) for f in report.failures)
    assert "Lipschitz" in labels


def test_copula_grid_matches_scalar_evaluation():
    rng = philox_stream(512, 3)
    axes2 = [np.linspace(0.0, 1.0, 7)] * 2
    axes3 = [np.linspace(0.0, 1.0, 5)] * 3
    for family in ("marshall", "maxmin", "rmm"):
        for axes in (axes2, axes3):
            gv = random_generator_vector(rng, family, len(axes))
            V = copula_grid(gv, axes)
            for idx in itertools.product(*(range(a.size) for a in axes)):
                point = [float(axes[k][i]) for k, i in enumerate(idx)]
                assert abs(V[idx] - gv(point)) < 1e-14, (family, point)


def broadcast_rmm_grid(gv, axes):
    """The rmm branch of copula_grid as written before it called rmm_values."""
    n, p = gv.n, gv.split
    shape = [a.size for a in axes]

    def bc(values, k):
        dims = [1] * n
        dims[k] = values.size
        return values.reshape(dims)

    U = [bc(axes[k], k) for k in range(n)]
    F = [bc(np.array([float(gen(t)) for t in axes[k]]), k) for k, gen in enumerate(gv.generators)]
    shifted = [U[k] + F[k] for k in range(n)]
    best = None
    for i in range(p):
        for j in range(p, n):
            rest = None
            for l in range(n):
                if l != i and l != j:
                    rest = shifted[l] if rest is None else rest * shifted[l]
            t = U[i] * U[j] - F[i] * F[j]
            if rest is not None:
                t = t * rest
            best = t if best is None else np.minimum(best, t)
    return np.maximum(np.broadcast_to(best, shape), 0.0)


def test_copula_grid_rmm_is_bit_identical_to_the_broadcast_formula():
    rng = philox_stream(9090, 4)
    for n in (2, 3, 4, 5):
        axes = [np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 4)]) for _ in range(n)]
        gvs = [random_generator_vector(rng, "rmm", n) for _ in range(3)]
        gvs.append(build_bounds(random_pbox_shock_model(rng, "rmm", n)).upper_gen)
        for gv in gvs:
            got, want = copula_grid(gv, axes), broadcast_rmm_grid(gv, axes)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def test_quasicopula_checker_accepts_evaluated_values():
    grid = np.linspace(0.0, 1.0, 9)
    V = np.minimum.outer(grid, grid)
    from_values = check_quasicopula(V, 2, grid_size=9)
    from_callable = check_quasicopula(MINIMUM, 2, grid_size=9)
    assert from_values.passed and from_values.failures == from_callable.failures
    broken = V.copy()
    broken[3, 4] += 0.5
    assert not check_quasicopula(broken, 2, grid_size=9).passed
    with pytest.raises(ValueError):
        check_quasicopula(V, 2, grid_size=11)


# -- the discrete oracle -----------------------------------------------------------


def test_oracle_routes_agree():
    rng = philox_stream(77, 1)
    lattice = (0.0, 0.5, 1.5, 2.5, 4.0, 10.0)
    for family in ("marshall", "maxmin", "rmm"):
        for trial in range(4):
            model = random_shock_model(rng, family, 2 + trial % 3)
            oracle = DiscreteModelOracle(model)
            reflected = family == "rmm"
            for _ in range(20):
                x = [float(rng.choice(lattice)) for _ in range(model.n)]
                a = oracle.exact_joint(x, reflected_tail=reflected)
                b = oracle.exact_joint_bruteforce(x, reflected_tail=reflected)
                assert abs(a - b) < 1e-14, (family, x)


def test_oracle_total_mass_reaches_one():
    model = random_shock_model(philox_stream(5, 5), "maxmin", 3)
    oracle = DiscreteModelOracle(model)
    everything = [99.0] * 3
    assert abs(oracle.exact_joint(everything) - 1.0) < 1e-12
    assert abs(oracle.exact_joint_bruteforce(everything) - 1.0) < 1e-12


def test_oracle_rejects_unsupported_models():
    d = Discrete(((1.0, 0.5), (2.0, 0.5)))
    wide = Discrete(tuple((float(k), 0.1) for k in range(10)))
    with pytest.raises(OracleError):
        DiscreteModelOracle(
            ShockModel("marshall", (PBox(d, Discrete(((1.0, 1.0),))), PBox.precise(d)), d)
        )
    with pytest.raises(OracleError):
        DiscreteModelOracle(
            ShockModel("marshall", (PBox.precise(Exponential(1.0)), PBox.precise(d)), d)
        )
    with pytest.raises(OracleError):
        DiscreteModelOracle(ShockModel("marshall", (PBox.precise(wide), PBox.precise(d)), d))
    with pytest.raises(OracleError):
        DiscreteModelOracle(ShockModel("marshall", (PBox.precise(d),) * 7, d))


def test_oracle_coordinate_count_is_validated():
    model = random_shock_model(philox_stream(6, 6), "rmm", 2)
    oracle = DiscreteModelOracle(model)
    with pytest.raises(ValueError):
        oracle.exact_joint([1.0])


# -- Monte Carlo -------------------------------------------------------------------


def test_monte_carlo_matches_the_oracle_and_reruns_bit_identically():
    model = random_shock_model(philox_stream(13, 2), "maxmin", 2)
    oracle = DiscreteModelOracle(model)
    x = [2.5, 1.5]
    est, stderr = monte_carlo_joint(model, x, 40000, seed=99)
    want = oracle.exact_joint(x)
    assert abs(est - want) <= 5.0 * max(stderr, 1e-9)
    assert monte_carlo_joint(model, x, 40000, seed=99) == (est, stderr)
    assert monte_carlo_joint(model, x, 40000, seed=100) != (est, stderr)


def test_monte_carlo_rejects_unsupported_components():
    blend = Convex(0.5, Exponential(1.0), Exponential(2.0))
    model = ShockModel(
        "marshall",
        (PBox.precise(blend), PBox.precise(Exponential(1.0))),
        DiracStep(1.0),
    )
    with pytest.raises(UnsupportedSamplingError):
        monte_carlo_joint(model, [1.0, 1.0], 100, seed=1)
    good = ShockModel(
        "marshall",
        (PBox.precise(Exponential(1.0)), PBox.precise(Exponential(1.0))),
        DiracStep(1.0),
    )
    with pytest.raises(ValueError):
        monte_carlo_joint(good, [1.0], 100, seed=1)
    with pytest.raises(ValueError):
        monte_carlo_joint(good, [1.0, 1.0], 0, seed=1)


def test_philox_streams_are_stable_and_keyed_by_dimension():
    a = philox_stream(42, 0).random(5)
    b = philox_stream(42, 0).random(5)
    c = philox_stream(42, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- random factories --------------------------------------------------------------


def test_random_factories_produce_valid_objects():
    rng = philox_stream(21, 4)
    for _ in range(10):
        d = random_discrete(rng)
        assert len(d.points) <= 5
        assert abs(sum(m for _, m in d.points) - 1.0) < 1e-12
    for family in ("marshall", "maxmin", "rmm"):
        model = random_shock_model(rng, family, 3)
        assert model.is_precise and model.family == family
        boxed = random_pbox_shock_model(rng, family, 3)
        assert boxed.n == 3
        gv = random_generator_vector(rng, family, 3)
        assert isinstance(gv, GeneratorVector)
        for gen in gv.generators:
            assert validate(gen, samples=33).passed


def test_random_member_stays_inside_its_box():
    rng = philox_stream(31, 7)
    for _ in range(8):
        model = random_pbox_shock_model(rng, "rmm", 2)
        box = model.endogenous[0]
        member = random_member(rng, box)
        for x in (0.0, 0.5, 1.5, 2.5, 4.0, 8.0, 10.0):
            lo, hi = box.lower.value(x), box.upper.value(x)
            assert lo - 1e-12 <= member.value(x) <= hi + 1e-12, x


def _lattice_points_one_by_one(rng, count, n):
    """The lattice draw as one ``rng.choice`` per point."""
    lattice = np.array(verify.COORDINATE_LATTICE)
    return [[float(v) for v in rng.choice(lattice, size=n)] for _ in range(count)]


def _unit_points_one_by_one(rng, count, n):
    """The unit-cube draw as one ``rng.random`` per point."""
    return [[float(v) for v in rng.random(n)] for _ in range(count)]


@pytest.mark.parametrize("draw, reference", [
    (verify._lattice_points, _lattice_points_one_by_one),
    (verify._unit_points, _unit_points_one_by_one),
])
def test_point_draws_equal_the_per_point_draws(draw, reference):
    for seed in range(20):
        for n in range(2, 8):
            for count in (1, 7, 150):
                ours, theirs = philox_stream(seed, n), philox_stream(seed, n)
                got = draw(ours, count, n)
                assert got == reference(theirs, count, n)
                assert all(type(v) is float for point in got for v in point)
                # the generator is left where the per-point draws leave it
                # (the Philox state holds arrays, which compare by their repr)
                assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)
                assert ours.random() == theirs.random()


# -- suites ------------------------------------------------------------------------


def test_suites_pass_at_reduced_sizes():
    reports = [
        suite_axioms(3, vectors_per_family=4, grid_size=9),
        suite_oracles(3, models_per_family=5, points_per_model=6),
        suite_theorems(3, instances_per_family=2, points_per_instance=40),
        suite_montecarlo(3, n_samples=20000, points=3),
    ]
    for report in reports:
        assert report["passed"], report["suite"]
        assert report["seed"] == 3
        for check in report["checks"]:
            assert check["instances"] > 0
            assert check["passed"], (report["suite"], check["check"], check["failures"][:2])


def test_theorem_checks_count_only_the_instances_they_ran_on():
    # n cycles through 2, 3, 4, 2: the bivariate sandwiches run on two of the four
    report = suite_theorems(5, instances_per_family=4, points_per_instance=20)
    counts = {c["check"]: c["instances"] for c in report["checks"]
              if c["check"] != "rmm-envelope-quasicopula"}
    bivariate = {"maxmin-bivariate-mixed-sandwich", "rmm-bivariate-copula-sandwich"}
    assert bivariate < set(counts)
    assert counts == {name: 2 if name in bivariate else 4 for name in counts}


def test_run_suite_dispatch_and_merge(monkeypatch):
    def stub(name, ok=True):
        return lambda seed, **sizes: {"suite": name, "seed": seed, "passed": ok, "checks": []}

    monkeypatch.setattr(verify, "suite_axioms", stub("axioms"))
    monkeypatch.setattr(verify, "suite_oracles", stub("oracles"))
    monkeypatch.setattr(verify, "suite_theorems", stub("theorems"))
    monkeypatch.setattr(verify, "suite_montecarlo", stub("montecarlo"))
    merged = run_suite("all", 7)
    assert merged["passed"] and len(merged["suites"]) == 4
    monkeypatch.setattr(verify, "suite_theorems", stub("theorems", ok=False))
    assert not run_suite("all", 7)["passed"]
    assert run_suite("axioms", 7)["suite"] == "axioms"
    with pytest.raises(ValueError):
        run_suite("everything", 7)


# -- stacked theorem checks against the per-point reference ------------------------


def _same_report(seed, **sizes):
    got = suite_theorems(seed, **sizes)
    want = theorem_reference.suite_theorems(seed, **sizes)
    assert got == want
    assert json.dumps(got) == json.dumps(want)
    return got


@pytest.mark.parametrize("seed, instances, points", [(1, 3, 40), (7, 4, 25), (20250819, 3, 150)])
def test_stacked_theorem_checks_equal_the_per_point_reference(seed, instances, points):
    # three instances per family cover n = 2, 3 and 4
    report = _same_report(seed, instances_per_family=instances, points_per_instance=points)
    assert report["passed"]


class _Planted(Generator):
    """A bound generator with a fault on (0, upto): ``base + shift``, or the
    constant ``fill``; the same float whether called or asked for a stack."""

    def __init__(self, base, upto, shift=0.0, fill=None):
        self.base, self.kind, self.upto, self.shift, self.fill = base, base.kind, upto, shift, fill

    def __call__(self, u):
        inside = 0.0 < u < self.upto
        if self.fill is not None and inside:
            return self.fill
        return self.base(u) + (self.shift if inside else 0.0)

    def values(self, u):
        u = np.asarray(u, dtype=float)
        inside = (u > 0.0) & (u < self.upto)
        if self.fill is not None:
            return np.where(inside, self.fill, self.base.values(u))
        return self.base.values(u) + np.where(inside, self.shift, 0.0)


def _plant(monkeypatch, lower, upper, swap_lifetimes=False):
    """Make ``verify.build_bounds`` wrap the bound generators of every p-box
    model (not the precise members) with ``lower(gen)`` and ``upper(gen)``,
    and swap its lower and upper lifetimes if asked."""

    def planted(model):
        bf = build_bounds(model)
        if model.is_precise:
            return bf
        vectors = [GeneratorVector(bf.family, tuple(wrap(g) for g in gv.generators), gv.p)
                   for gv, wrap in ((bf.lower_gen, lower), (bf.upper_gen, upper))]
        bf = dataclasses.replace(bf, lower_gen=vectors[0], upper_gen=vectors[1])
        if swap_lifetimes:
            bf = dataclasses.replace(bf, lower_G=bf.upper_G, upper_G=bf.lower_G)
        return bf

    monkeypatch.setattr(verify, "build_bounds", planted)


def test_planted_generator_faults_are_recorded_as_the_reference_records_them(monkeypatch):
    # off by 1e-9 on part of each bound's range: defining relations, stars,
    # daggers and orders fail on many entries of both bounds
    # (the rmm upper bounds are left exact, so the lower ones rise above them)
    _plant(monkeypatch, lambda g: _Planted(g, 0.6, shift=1e-9),
           lambda g: g if g.kind.startswith("rmm") else _Planted(g, 0.9, shift=2e-9))
    for seed in (1, 2):
        report = _same_report(seed, instances_per_family=3, points_per_instance=100)
        totals = {c["check"]: c["diagnostics"].get("failures_total", 0) for c in report["checks"]}
        over_cap = [name for name, total in totals.items() if total > verify._FAILURE_CAP]
        for name in ("marshall-defining-relation", "marshall-star-identity",
                     "maxmin-dagger-identity", "rmm-generator-order", "rmm-star-products"):
            assert totals[name] > 0, name
        assert over_cap
        for check in report["checks"]:
            if check["check"] in over_cap:
                assert len(check["failures"]) == verify._FAILURE_CAP
    # bound lifetimes in the wrong order, with exact generators
    _plant(monkeypatch, lambda g: g, lambda g: g, swap_lifetimes=True)
    report = _same_report(3, instances_per_family=3, points_per_instance=60)
    checks = {c["check"]: c for c in report["checks"]}
    assert checks["rmm-marginal-order"]["failures"]


@pytest.mark.parametrize("kinds, fill, message", [
    (("phi", "psi"), 0.0, r"phi\(.*\) = 0; dagger undefined"),
    (("chi",), 1.0, r"chi\(.*\) = 1 below 1; dagger undefined"),
])
def test_an_undefined_dagger_raises_as_the_reference_raises(monkeypatch, kinds, fill, message):
    # phi is 0, or chi is 1, on (0, 0.6) for every bound of those kinds, so
    # the maxmin dagger u/phi(u) or (u - chi(u)) / (1 - chi(u)) divides by 0
    def planted(gen):
        return _Planted(gen, 0.6, fill=fill) if gen.kind in kinds else gen

    _plant(monkeypatch, planted, planted)
    for seed in (1, 3):
        with pytest.raises(DegenerateModelError, match=message) as got:
            suite_theorems(seed, instances_per_family=3, points_per_instance=40)
        with pytest.raises(DegenerateModelError) as want:
            theorem_reference.suite_theorems(seed, instances_per_family=3, points_per_instance=40)
        assert str(got.value) == str(want.value)


def test_sup_gaps_either_side_of_the_tolerance_are_reported_as_the_reference_reports_them(
        monkeypatch):
    def widened(bf, us):
        inf, sup = rmm_envelope_full_scan_values(bf, us)
        # the first point's gap is within the tolerance, every later one is not
        return inf, sup + np.where(np.arange(sup.size) == 0, 4e-13, 1e-9)

    monkeypatch.setattr(verify, "rmm_envelope_full_scan_values", widened)
    monkeypatch.setattr(theorem_reference, "rmm_envelope_full_scan_values", widened)
    report = _same_report(5, instances_per_family=3, points_per_instance=30)
    checks = {c["check"]: c for c in report["checks"]}
    diagnostics = checks["rmm-envelope-sup-bounded"]["diagnostics"]
    # the gap is recorded before the first failure, as the per-point loop meets them
    assert list(diagnostics) == ["max_sup_gap", "failures_total"]
    assert diagnostics["failures_total"] == 3 * 29
