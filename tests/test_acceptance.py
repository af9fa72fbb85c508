"""Acceptance gate: seven end-to-end criteria with pinned tolerances.

Each test prints one verdict line before asserting, so a red criterion
still leaves a readable record in the output.  Criterion 6 demands that
*both* halves of ``rmm_envelope`` (the reduced inf scan and the star-form
sup) match the full vertex scan, and reports the worst witness point.
"""

import math
import time

import numpy as np

from shockcopula.copulas import rmm2
from shockcopula.distfn import DiracStep, Exponential
from shockcopula.genfn import extend_chi, extend_phi, to_rmm
from shockcopula.imprecise import (
    PBox,
    ShockModel,
    build_bounds,
    rmm_envelope,
    rmm_envelope_full_scan,
)
from shockcopula.verify import (
    copula_grid,
    philox_stream,
    random_pbox_shock_model,
    suite_axioms,
    suite_montecarlo,
    suite_oracles,
    suite_theorems,
)

SEED = 20250819


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_reference_generators_and_three_case_copula():
    t0 = time.perf_counter()
    phi = extend_phi(Exponential(1.0), DiracStep(1.0))
    chi = extend_chi(Exponential(1.0), DiracStep(1.0))
    f, g = to_rmm(phi), to_rmm(chi)
    a, b = 1.0 - math.exp(-1.0), math.exp(-1.0)

    us = np.linspace(0.0, 1.0, 1000)
    f_err = max(abs(f(float(u)) - (0.0 if u == 0.0 else max(a - float(u), 0.0))) for u in us)
    g_err = max(abs(g(float(w)) - (0.0 if w == 0.0 else max(b - float(w), 0.0))) for w in us)

    grid = np.linspace(0.0, 1.0, 101)
    c_err = 0.0
    for u in grid:
        for w in grid:
            u_, w_ = float(u), float(w)
            if u_ > a or w_ > b:
                want = u_ * w_
            else:
                want = max(0.0, b * u_ + a * w_ - a * b)
            c_err = max(c_err, abs(rmm2(f, g, u_, w_) - want))

    elapsed = time.perf_counter() - t0
    ok = f_err <= 1e-12 and g_err <= 1e-12 and c_err <= 1e-12 and elapsed < 1.0
    assert _verdict(
        1, ok,
        f"generator errors ({f_err:.2e}, {g_err:.2e}), three-case error {c_err:.2e}, "
        f"{elapsed:.2f}s of 1s",
    )


def test_criterion_2_rate_box_surfaces_are_strictly_ordered():
    t0 = time.perf_counter()
    box = PBox(Exponential(1.0), Exponential(2.0))
    model = ShockModel("rmm", (box, box), DiracStep(1.0), 1)
    bf = build_bounds(model)
    axis = np.linspace(0.0, 1.0, 101)
    from_lower_gens = copula_grid(bf.lower_gen, [axis, axis])
    from_upper_gens = copula_grid(bf.upper_gen, [axis, axis])
    diff = from_lower_gens - from_upper_gens
    min_diff = float(diff.min())
    interior_gap = float(diff[1:-1, 1:-1].max())
    elapsed = time.perf_counter() - t0
    ok = min_diff >= -1e-12 and interior_gap > 1e-12 and elapsed < 1.0
    assert _verdict(
        2, ok,
        f"min ordering slack {min_diff:.2e}, best interior gap {interior_gap:.4f}, "
        f"{elapsed:.2f}s of 1s",
    )


def test_criterion_3_discrete_oracles_match_formulas_and_compositions():
    t0 = time.perf_counter()
    report = suite_oracles(SEED, models_per_family=100, points_per_model=50)
    elapsed = time.perf_counter() - t0
    counts = {c["check"]: c["instances"] for c in report["checks"]}
    ok = report["passed"] and len(counts) == 6 and all(v >= 100 for v in counts.values())
    ok = ok and elapsed < 60.0
    assert _verdict(
        3, ok,
        f"{sum(counts.values())} model checks across {len(counts)} routes, "
        f"passed={report['passed']}, {elapsed:.1f}s of 60s",
    )


def test_criterion_4_random_generator_vectors_satisfy_copula_axioms():
    t0 = time.perf_counter()
    report = suite_axioms(SEED, vectors_per_family=50, grid_size=21)
    elapsed = time.perf_counter() - t0
    counts = {c["check"]: c["instances"] for c in report["checks"]}
    ok = report["passed"] and len(counts) == 3 and all(v >= 50 for v in counts.values())
    ok = ok and elapsed < 60.0
    assert _verdict(
        4, ok,
        f"{sum(counts.values())} vectors on 21^n grids, passed={report['passed']}, "
        f"{elapsed:.1f}s of 60s",
    )


EXPECTED_THEOREM_CHECKS = {
    "marshall-copula-sandwich",
    "marshall-composed-sandwich",
    "marshall-H-composition",
    "marshall-defining-relation",
    "marshall-star-identity",
    "maxmin-composed-sandwich",
    "maxmin-H-composition",
    "maxmin-defining-relation",
    "maxmin-dagger-identity",
    "maxmin-bivariate-mixed-sandwich",
    "rmm-generator-order",
    "rmm-marginal-order",
    "rmm-defining-relation",
    "rmm-star-products",
    "rmm-composed-sandwich",
    "rmm-H-composition",
    "rmm-envelope-inf-reduction",
    "rmm-envelope-sup-bounded",
    "rmm-bivariate-copula-sandwich",
}
# the instances' n cycles through 2, 3, 4, and these run at n = 2 only: 7 of 20
BIVARIATE_THEOREM_CHECKS = {"maxmin-bivariate-mixed-sandwich", "rmm-bivariate-copula-sandwich"}


def test_criterion_5_theorem_suites_hold_on_pbox_instances():
    t0 = time.perf_counter()
    report = suite_theorems(SEED, instances_per_family=20, points_per_instance=1000)
    elapsed = time.perf_counter() - t0
    counts = {c["check"]: c["instances"] for c in report["checks"]}
    missing = EXPECTED_THEOREM_CHECKS - set(counts)
    need = {name: 7 if name in BIVARIATE_THEOREM_CHECKS else 20 for name in EXPECTED_THEOREM_CHECKS}
    thin = [name for name in EXPECTED_THEOREM_CHECKS - missing if counts[name] < need[name]]
    ok = report["passed"] and not missing and not thin and elapsed < 120.0
    assert _verdict(
        5, ok,
        f"{len(counts)} checks, missing={sorted(missing)}, thin={thin}, "
        f"passed={report['passed']}, {elapsed:.1f}s of 120s",
    )


def test_criterion_6_reduced_envelope_scans_equal_the_full_scan():
    t0 = time.perf_counter()
    rng = philox_stream(SEED, 601)
    max_inf_gap = 0.0
    max_sup_gap = 0.0
    witness = None
    for n in (3, 4, 5):
        for _ in range(10):
            model = random_pbox_shock_model(rng, "rmm", n)
            bf = build_bounds(model)
            for _ in range(100):
                u = [float(v) for v in rng.random(n)]
                inf_red, sup_red = rmm_envelope(bf, u)
                inf_full, sup_full = rmm_envelope_full_scan(bf, u)
                max_inf_gap = max(max_inf_gap, abs(inf_red - inf_full))
                gap = abs(sup_red - sup_full)
                if gap > max_sup_gap:
                    max_sup_gap = gap
                    witness = (n, [round(v, 4) for v in u], sup_red, sup_full)
    elapsed = time.perf_counter() - t0
    ok = max_inf_gap <= 1e-12 and max_sup_gap <= 1e-12 and elapsed < 30.0
    assert _verdict(
        6, ok,
        f"inf gap {max_inf_gap:.2e}, sup gap {max_sup_gap:.2e} "
        f"(witness {witness}), {elapsed:.1f}s of 30s",
    ), (
        "the reduced sup scan misses vertex tuples that the full scan reaches; "
        f"worst witness n={witness[0]} at u={witness[1]}: "
        f"reduced {witness[2]!r} < full {witness[3]!r}"
    )


def test_criterion_7_simulation_matches_the_exact_surface():
    t0 = time.perf_counter()
    report = suite_montecarlo(SEED, n_samples=10**6, points=20)
    elapsed = time.perf_counter() - t0
    counts = {c["check"]: c["instances"] for c in report["checks"]}
    ok = (
        report["passed"]
        and counts.get("montecarlo-vs-exact") == 20
        and counts.get("montecarlo-reproducible") == 3
        and elapsed < 30.0
    )
    assert _verdict(
        7, ok,
        f"20 points at 4 standard errors, bit-identical reruns, "
        f"passed={report['passed']}, {elapsed:.1f}s of 30s",
    )
