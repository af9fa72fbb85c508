"""Verification tooling: volume checks, oracles, simulation, suites."""

import itertools
import math

import numpy as np
import pytest

from shockcopula import verify
from shockcopula.copulas import GeneratorVector
from shockcopula.distfn import Convex, DiracStep, Discrete, Exponential
from shockcopula.genfn import validate
from shockcopula.imprecise import PBox, ShockModel, build_bounds
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
    rectangle_volume,
    run_suite,
    suite_axioms,
    suite_montecarlo,
    suite_oracles,
    suite_theorems,
)

PRODUCT = lambda u: math.prod(u)
MINIMUM = lambda u: min(u)


def shift_copula(s):
    """Singular copula of (X, X + s mod 1) for X uniform on [0, 1]."""

    def C(u):
        x, y = u
        return min(x, max(0.0, y - s)) + max(0.0, min(x, y + 1.0 - s) - (1.0 - s))

    return C


# -- rectangle volumes -------------------------------------------------------------


def test_rectangle_volume_closed_forms():
    assert abs(rectangle_volume(PRODUCT, [(0.2, 0.5), (0.1, 0.7)]) - 0.3 * 0.6) < 1e-15
    assert rectangle_volume(MINIMUM, [(0.6, 0.9), (0.1, 0.4)]) == 0.0
    vol3 = rectangle_volume(PRODUCT, [(0.0, 0.5), (0.0, 0.5), (0.0, 0.5)])
    assert abs(vol3 - 0.125) < 1e-15
    with pytest.raises(ValueError):
        rectangle_volume(PRODUCT, [(0.5, 0.2), (0.1, 0.7)])


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
