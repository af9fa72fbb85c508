"""P-boxes, bound generator vectors, bound surfaces, rmm envelopes."""

import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envelope_reference
import kernel_reference
from shockcopula import copulas, imprecise, verify
from shockcopula.copulas import (
    GeneratorVector,
    joint_marshall_values,
    joint_maxmin_values,
    joint_rmm_values,
)
from shockcopula.distfn import (
    DiracStep,
    Discrete,
    DistributionFn,
    Exponential,
    PiecewiseLinearWithJumps,
    Uniform,
)
from shockcopula.genfn import extend_chi, extend_phi, to_rmm
from shockcopula.imprecise import (
    BoundFamily,
    H_bounds_values,
    PBox,
    ShockModel,
    build_bounds,
    maxmin_mixed_vectors,
    rmm_envelope,
    rmm_envelope_full_scan,
    rmm_envelope_full_scan_values,
    rmm_envelope_grid,
    rmm_envelope_values,
)
from shockcopula.verify import copula_grid, philox_stream, random_pbox_shock_model

A1, A2 = 1.0 - math.exp(-1.0), 1.0 - math.exp(-2.0)
B1, B2 = math.exp(-1.0), math.exp(-2.0)

UGRID = [k / 8 for k in range(9)]
XGRID = (0.25, 0.5, 1.0, 1.5, 3.0)

# cdf of DLOW sits below the cdf of DHIGH everywhere
DLOW = Discrete(((1.0, 0.5), (3.0, 0.5)))
DHIGH = Discrete(((1.0, 0.75), (3.0, 0.25)))
DSHOCK = Discrete(((0.5, 0.25), (2.0, 0.75)))


def rate_box_model(family="rmm", n=2, p=1):
    boxes = tuple(PBox(Exponential(1.0), Exponential(2.0)) for _ in range(n))
    return ShockModel(family, boxes, DiracStep(1.0), None if family == "marshall" else p)


def H_bounds_at(bf, points):
    """:func:`H_bounds_values` over a stack of points, as (lower, upper) pairs of floats."""
    lows, highs = H_bounds_values(bf, np.array(points, dtype=float).T)
    return list(zip(lows.tolist(), highs.tolist()))


# -- p-boxes ---------------------------------------------------------------------


def test_pbox_rejects_misordered_bounds():
    with pytest.raises(ValueError):
        PBox(Exponential(2.0), Exponential(1.0))
    with pytest.raises(ValueError):
        PBox(DHIGH, DLOW)


@pytest.mark.parametrize(
    "lower, upper",
    [
        # lower crosses above upper on (0.5105, 0.52), which only the
        # breakpoint 0.515 of the pwl bound shows: lower 0.519, upper 0.515
        (
            PiecewiseLinearWithJumps([(0, 0, 0, 0), (0.5105, 0.5105, 0.5105, 0.5105),
                                      (0.515, 0.519, 0.519, 0.519), (0.52, 0.52, 0.52, 0.52),
                                      (1, 1, 1, 1)]),
            Uniform(0.0, 1.0),
        ),
        # ordered in value at every breakpoint, but just left of x = 1 the
        # upper bound (left limit 0.49) is below the lower one (0.5)
        (
            PiecewiseLinearWithJumps([(0, 0, 0, 0), (1, 0.5, 0.5, 0.5), (2, 1, 1, 1)]),
            PiecewiseLinearWithJumps([(0, 0, 0, 0.3), (1, 0.49, 0.6, 0.6), (2, 1, 1, 1)]),
        ),
        # the concave exponential cdf rises above the line x/2 near 0, by
        # 1.24e-5 at x = ln(1.005)/0.5025 = 0.0099, and meets it again at
        # x = 0.0199, below every quantile probe and midpoint (0.05, 0.1, ...)
        (Exponential(0.5025), Uniform(0.0, 2.0)),
        (Exponential(0.5025), PiecewiseLinearWithJumps([(0, 0, 0, 0), (2, 1, 1, 1)])),
    ],
)
def test_pbox_rejects_bounds_that_cross_between_sampled_points(lower, upper):
    with pytest.raises(ValueError):
        PBox(lower, upper)


def test_pbox_accepts_an_exponential_below_its_tangent_line():
    # slope 0.5 at 0 equals the line's, so the concave cdf stays below it
    box = PBox(Exponential(0.5), Uniform(0.0, 2.0))
    assert box.lower.value(0.01) <= box.upper.value(0.01)
    PBox(Exponential(0.5), PiecewiseLinearWithJumps([(0, 0, 0, 0), (2, 1, 1, 1)]))


def test_pbox_members_interpolate_between_the_bounds():
    box = PBox(Exponential(1.0), Exponential(2.0))
    assert box.member(1.0) is box.lower
    assert box.member(0.0) is box.upper
    for t in (0.25, 0.5, 0.75):
        member = box.member(t)
        for x in XGRID:
            lo, hi = box.lower.value(x), box.upper.value(x)
            assert lo - 1e-15 <= member.value(x) <= hi + 1e-15
    with pytest.raises(ValueError):
        box.member(-0.1)


def test_degenerate_pbox_skips_the_order_check(monkeypatch):
    def probe(*dists):
        raise AssertionError("order check reached")

    monkeypatch.setattr(imprecise, "_probe_points", probe)
    dist = Exponential(1.0)
    assert PBox.precise(dist).lower is dist
    # distinct objects, equal or not, are still checked
    for upper in (Exponential(1.0), Exponential(2.0)):
        with pytest.raises(AssertionError, match="order check reached"):
            PBox(dist, upper)


def test_degenerate_pbox_member_is_the_single_bound():
    box = PBox.precise(Uniform(0.0, 2.0))
    assert box.is_degenerate
    assert box.member(0.37) is box.lower


def test_pbox_spec_round_trip():
    box = PBox(DLOW, DHIGH)
    assert PBox.from_spec(box.to_spec()) == box
    bare = PBox.from_spec({"kind": "exponential", "rate": 2.0})
    assert bare.is_degenerate and bare.lower == Exponential(2.0)
    lower_only = PBox.from_spec({"lower": {"kind": "dirac", "location": 1.0}})
    assert lower_only.is_degenerate


# -- shock models ------------------------------------------------------------------


def test_shock_model_validation():
    boxes = (PBox.precise(DLOW), PBox.precise(DHIGH))
    with pytest.raises(ValueError):
        ShockModel("clayton", boxes, DSHOCK, 1)
    with pytest.raises(ValueError):
        ShockModel("marshall", boxes[:1], DSHOCK)
    with pytest.raises(ValueError):
        ShockModel("marshall", boxes, DSHOCK, 1)
    with pytest.raises(ValueError):
        ShockModel("maxmin", boxes, DSHOCK)
    with pytest.raises(ValueError):
        ShockModel("rmm", boxes, DSHOCK, 2)
    model = ShockModel("maxmin", boxes, DSHOCK, 1)
    assert model.n == 2 and model.split == 1 and model.is_precise
    assert model.precise_marginals() == (DLOW, DHIGH)


def test_member_model_freezes_each_box():
    model = rate_box_model("maxmin")
    member = model.member_model((0.0, 1.0))
    assert member.is_precise
    assert member.precise_marginals() == (Exponential(2.0), Exponential(1.0))
    with pytest.raises(ValueError):
        model.member_model((0.5,))
    with pytest.raises(ValueError):
        model.precise_marginals()


def test_shock_model_spec_round_trip():
    model = ShockModel(
        "rmm",
        (PBox(Exponential(1.0), Exponential(2.0)), PBox.precise(DLOW)),
        DSHOCK,
        1,
    )
    spec = model.to_spec()
    assert spec["p"] == 1 and spec["n"] == 2
    assert ShockModel.from_spec(spec) == model
    marshall = ShockModel("marshall", (PBox.precise(DLOW), PBox.precise(DHIGH)), DSHOCK)
    assert ShockModel.from_spec(marshall.to_spec()) == marshall


# -- bound generators for the exponential rate-box model ---------------------------


def test_rate_box_bound_generators_have_the_expected_closed_forms():
    bf = build_bounds(rate_box_model())
    f_lo, g_lo = bf.lower_gen.generators
    f_hi, g_hi = bf.upper_gen.generators
    assert f_lo(0.0) == g_lo(0.0) == f_hi(0.0) == g_hi(0.0) == 0.0
    for u in UGRID:
        if u == 0.0:
            continue
        assert abs(f_lo(u) - max(A1 - u, 0.0)) < 1e-12
        assert abs(f_hi(u) - max(A2 - u, 0.0)) < 1e-12
        # the min-type generators swap: the lower one uses the upper rate
        assert abs(g_lo(u) - max(B2 - u, 0.0)) < 1e-12
        assert abs(g_hi(u) - max(B1 - u, 0.0)) < 1e-12
        assert f_lo(u) <= f_hi(u) + 1e-15
        assert g_lo(u) <= g_hi(u) + 1e-15


def test_rate_box_copula_order_reverses_the_generator_order():
    bf = build_bounds(rate_box_model())
    strict = 0
    for u in UGRID:
        for v in UGRID:
            c_hi_gens, c_lo_gens = (
                GeneratorVector("rmm", bf.upper_gen.generators, 1)((u, v)),
                GeneratorVector("rmm", bf.lower_gen.generators, 1)((u, v)),
            )
            assert c_lo_gens >= c_hi_gens - 1e-15, (u, v)
            # the bivariate bound pair is (upper_gen, lower_gen), in that order
            assert tuple(gv((u, v)) for gv in (bf.upper_gen, bf.lower_gen)) == (c_hi_gens, c_lo_gens)
            if c_lo_gens > c_hi_gens + 1e-6:
                strict += 1
    assert strict > 0


def test_bound_marginals_are_ordered():
    for family, p in (("marshall", None), ("maxmin", 1), ("rmm", 1)):
        boxes = (PBox(DLOW, DHIGH), PBox(DLOW, DHIGH))
        model = ShockModel(family, boxes, DSHOCK, p)
        bf = build_bounds(model)
        for k in range(2):
            for x in XGRID:
                assert bf.lower_G[k].value(x) <= bf.upper_G[k].value(x) + 1e-15


def _extended_twice(model):
    """The bound family of ``model`` with every bound generator extended on its own."""
    z, p = model.exogenous, model.split

    def extend(k, component):
        gen = extend_phi(component, z) if k < p else extend_chi(component, z)
        return to_rmm(gen) if model.family == "rmm" else gen

    reverse = [model.family == "rmm" and k >= p for k in range(model.n)]
    lo = [extend(k, b.upper if r else b.lower) for k, (b, r) in enumerate(zip(model.endogenous, reverse))]
    hi = [extend(k, b.lower if r else b.upper) for k, (b, r) in enumerate(zip(model.endogenous, reverse))]

    def lifetime(gen):
        return (gen.base if model.family == "rmm" else gen).lifetime

    lower_G = [lifetime(h if r else l) for l, h, r in zip(lo, hi, reverse)]
    upper_G = [lifetime(l if r else h) for l, h, r in zip(lo, hi, reverse)]
    gv_p = None if model.family == "marshall" else p
    return BoundFamily(model.family, model.p, GeneratorVector(model.family, tuple(lo), gv_p),
                       GeneratorVector(model.family, tuple(hi), gv_p), tuple(lower_G), tuple(upper_G))


@pytest.mark.parametrize("family", ["marshall", "maxmin", "rmm"])
def test_a_precise_box_is_extended_once_for_both_bounds(family):
    rng = philox_stream(41, 3)
    precise = verify.random_shock_model(rng, family, 3)
    bf = build_bounds(precise)
    separate = _extended_twice(precise)
    assert bf == separate
    for k in range(3):
        assert bf.lower_gen.generators[k] is bf.upper_gen.generators[k]
        assert bf.lower_G[k] is bf.upper_G[k]
    us = [np.array(rng.random(200)) for _ in range(3)]
    us[0][:3] = (0.0, 1.0, 0.5)
    for shared, own in ((bf.lower_gen, separate.lower_gen), (bf.upper_gen, separate.upper_gen)):
        assert shared.values(us).tobytes() == own.values(us).tobytes()
    xs = [np.array(verify.COORDINATE_LATTICE)] * 3
    for shared, own in zip(H_bounds_values(bf, xs), H_bounds_values(separate, xs)):
        assert shared.tobytes() == own.tobytes()

    boxed = random_pbox_shock_model(rng, family, 3)
    bf = build_bounds(boxed)
    assert bf == _extended_twice(boxed)
    for k in range(3):
        assert bf.lower_gen.generators[k] is not bf.upper_gen.generators[k]
        assert bf.lower_G[k] is not bf.upper_G[k]


def test_degenerate_boxes_collapse_every_bound():
    model = ShockModel("rmm", (PBox.precise(DLOW), PBox.precise(DHIGH)), DSHOCK, 1)
    bf = build_bounds(model)
    for u in UGRID:
        for v in UGRID:
            lo, hi = rmm_envelope(bf, (u, v))
            assert lo == hi
    points = list(itertools.product(XGRID, repeat=2))
    exact = joint_rmm_values((DLOW, DHIGH), DSHOCK, np.array(points).T, 1).tolist()
    for x, (lo, hi), want in zip(points, H_bounds_at(bf, points), exact):
        assert lo == hi
        assert abs(lo - want) < 1e-12, x


# -- bound surfaces ----------------------------------------------------------------


def test_H_bounds_take_exactly_one_coordinate_array_per_component():
    x = np.array([0.5, 1.5])
    for family in ("marshall", "maxmin", "rmm"):
        bf = build_bounds(rate_box_model(family, n=3))
        for count in (2, 4):
            with pytest.raises(ValueError, match=f"expected 3 coordinate arrays, got {count}"):
                H_bounds_values(bf, [x] * count)


def test_rmm_H_bounds_match_the_rate_box_closed_form():
    points = ((1.5, 0.5), (2.0, 0.25), (1.25, 0.75), (0.5, 0.25))
    bounds = H_bounds_at(build_bounds(rate_box_model()), points)
    for (x, y), (lo, hi) in zip(points[:3], bounds):
        want_lo = (1.0 - math.exp(-x)) * math.exp(-2.0 * y)
        want_hi = (1.0 - math.exp(-2.0 * x)) * math.exp(-y)
        assert abs(lo - want_lo) < 1e-12
        assert abs(hi - want_hi) < 1e-12
    # below the shock time the max lifetime cannot have happened
    assert bounds[3] == (0.0, 0.0)


def test_rmm_H_bounds_sandwich_member_models():
    model = rate_box_model()
    points = list(itertools.product(XGRID, repeat=2))
    bounds = H_bounds_at(build_bounds(model), points)
    for thetas in ((0.0, 0.0), (1.0, 1.0), (0.3, 0.8)):
        member = model.member_model(thetas)
        comps = member.precise_marginals()
        exacts = joint_rmm_values(comps, member.exogenous, np.array(points).T, 1).tolist()
        for x, (lo, hi), exact in zip(points, bounds, exacts):
            assert lo - 1e-12 <= exact <= hi + 1e-12, (thetas, x)


def test_marshall_H_bounds_sandwich_member_models():
    boxes = (PBox(DLOW, DHIGH), PBox(Exponential(1.0), Exponential(2.0)))
    model = ShockModel("marshall", boxes, DSHOCK)
    points = list(itertools.product(XGRID, repeat=2))
    bounds = H_bounds_at(build_bounds(model), points)
    for thetas in ((0.0, 1.0), (0.5, 0.5), (1.0, 0.0)):
        comps = model.member_model(thetas).precise_marginals()
        exacts = joint_marshall_values(comps, DSHOCK, np.array(points).T).tolist()
        for x, (lo, hi), exact in zip(points, bounds, exacts):
            assert lo - 1e-12 <= exact <= hi + 1e-12, (thetas, x)


def test_maxmin_H_bounds_sandwich_member_models():
    boxes = (PBox(DLOW, DHIGH), PBox(DLOW, DHIGH), PBox(DLOW, DHIGH))
    model = ShockModel("maxmin", boxes, DSHOCK, 2)
    points = list(itertools.product(XGRID, repeat=3))
    bounds = H_bounds_at(build_bounds(model), points)
    for thetas in ((0.0, 0.5, 1.0), (1.0, 1.0, 1.0), (0.25, 0.75, 0.5)):
        comps = model.member_model(thetas).precise_marginals()
        exacts = joint_maxmin_values(comps, DSHOCK, np.array(points).T, 2).tolist()
        for x, (lo, hi), exact in zip(points, bounds, exacts):
            assert lo - 1e-12 <= exact <= hi + 1e-12, (thetas, x)


def test_maxmin_mixed_bounds_sandwich_member_copulas():
    boxes = (PBox(DLOW, DHIGH), PBox(DLOW, DHIGH))
    model = ShockModel("maxmin", boxes, DSHOCK, 1)
    bf = build_bounds(model)
    members = [build_bounds(model.member_model((t, s))).lower_gen
               for t in (0.0, 0.5, 1.0) for s in (0.0, 0.5, 1.0)]
    for u in UGRID:
        for v in UGRID:
            lo, hi = (gv((u, v)) for gv in maxmin_mixed_vectors(bf))
            assert lo <= hi + 1e-15
            for gv in members:
                c = gv((u, v))
                assert lo - 1e-12 <= c <= hi + 1e-12, (u, v)


def test_marshall_bound_copulas_are_the_bound_vectors_and_sandwich_member_copulas():
    boxes = (PBox(DLOW, DHIGH), PBox(Exponential(1.0), Exponential(2.0)), PBox(DLOW, DHIGH))
    model = ShockModel("marshall", boxes, DSHOCK)
    bf = build_bounds(model)
    members = [build_bounds(model.member_model(thetas)).lower_gen
               for thetas in itertools.product((0.0, 0.5, 1.0), repeat=3)]
    for u in itertools.product(UGRID[::2], repeat=3):
        lo, hi = bf.lower_gen(u), bf.upper_gen(u)
        for gv in members:
            assert lo - 1e-12 <= gv(u) <= hi + 1e-12, u


def test_bound_surfaces_require_the_right_family():
    model = rate_box_model()
    bf = build_bounds(model)
    with pytest.raises(ValueError):
        maxmin_mixed_vectors(bf)
    marshall_bf = build_bounds(ShockModel("marshall", model.endogenous, model.exogenous))
    with pytest.raises(ValueError):
        rmm_envelope(marshall_bf, (0.5, 0.5))


# -- rmm envelopes -----------------------------------------------------------------


def test_bivariate_envelope_is_exactly_the_bound_pair():
    bf = build_bounds(rate_box_model())
    for u in UGRID:
        for v in UGRID:
            assert rmm_envelope(bf, (u, v)) == (bf.upper_gen((u, v)), bf.lower_gen((u, v)))


def test_reduced_inf_scan_matches_the_full_scan():
    rng = philox_stream(424242, 0)
    for trial in range(6):
        n = 3 + trial % 2
        model = random_pbox_shock_model(rng, "rmm", n)
        bf = build_bounds(model)
        for _ in range(25):
            u = rng.uniform(0.0, 1.0, size=n).tolist()
            inf_red, sup_red = rmm_envelope(bf, u)
            inf_full, sup_full = rmm_envelope_full_scan(bf, u)
            assert abs(inf_red - inf_full) < 1e-15, (trial, u)
            # the star-form sup is the maximum over all vertices
            assert abs(sup_red - sup_full) <= 1e-12, (trial, u)


def test_envelope_contains_member_copulas():
    model = rate_box_model()
    bf = build_bounds(model)
    members = [build_bounds(model.member_model((t, s))).lower_gen
               for t in (0.0, 0.5, 1.0) for s in (0.0, 0.5, 1.0)]
    for u in UGRID:
        for v in UGRID:
            lo, hi = rmm_envelope_full_scan(bf, (u, v))
            for gv in members:
                # vertex scans bound the vertex models by construction; the
                # convex members landing inside as well is an observation
                c = gv((u, v))
                assert lo - 1e-9 <= c <= hi + 1e-9, (u, v)


def continuous_box(rng):
    """Exponential or uniform bounds with the lower cdf below the upper one."""
    if rng.random() < 0.5:
        rate = float(rng.uniform(0.3, 2.0))
        return PBox(Exponential(rate), Exponential(rate * float(rng.uniform(1.2, 3.0))))
    b = float(rng.uniform(1.0, 4.0))
    return PBox(Uniform(0.0, b), Uniform(0.0, b * float(rng.uniform(0.4, 0.9))))


# a point where the scan over the pairs' dual tuples missed the mixed
# maximising tuple on a random discrete box: 0.0705 against 0.1224
WITNESS_U = [0.6108589327280572, 0.317376879807988, 0.31720255869857394]


def face_points(n):
    """Points with coordinates at 0 or 1, mixed with interior values."""
    inner = [0.3 + 0.4 * k / max(1, n - 1) for k in range(n)]
    points = [[0.0] * n, [1.0] * n]
    for k in range(n):
        for edge in (0.0, 1.0):
            u = list(inner)
            u[k] = edge
            points.append(u)
    points.append([1.0 if k % 2 else v for k, v in enumerate(inner)])
    return points


def test_envelope_sup_is_the_exact_vertex_maximum_on_continuous_boxes():
    rng = philox_stream(31337, 3)
    for n in (3, 4, 5, 6):
        for p in range(1, n):
            model = ShockModel("rmm", tuple(continuous_box(rng) for _ in range(n)),
                               Exponential(float(rng.uniform(0.5, 2.0))), p)
            bf = build_bounds(model)
            points = face_points(n) + rng.uniform(0.0, 1.0, size=(40, n)).tolist()
            if n == 3:
                points.append(WITNESS_U)
            for u in points:
                inf, sup = rmm_envelope(bf, u)
                inf_full, sup_full = rmm_envelope_full_scan(bf, u)
                assert abs(sup - sup_full) <= 1e-12, (n, p, u, sup, sup_full)
                assert abs(inf - inf_full) <= 1e-12, (n, p, u, inf, inf_full)
                if 0.0 in u:
                    assert sup == inf == 0.0, (n, p, u)


def test_a_point_query_searches_each_rmm_bound_generator_once(monkeypatch):
    rng = philox_stream(4242, 3)
    n = 6
    model = ShockModel("rmm", tuple(continuous_box(rng) for _ in range(n)), Exponential(1.0), 3)
    bf = build_bounds(model)
    u = [0.9, 0.8, 0.85, 0.7, 0.95, 0.75]
    searched = []
    search = DistributionFn.smallest_preimage
    monkeypatch.setattr(DistributionFn, "smallest_preimage",
                        lambda self, t: searched.append(t) or search(self, t))
    answers = (bf.lower_gen(u), bf.upper_gen(u), *rmm_envelope(bf, u))
    # the envelope finds each generator's last argument at the same float
    assert len(searched) == 2 * n
    monkeypatch.undo()
    fresh = build_bounds(model)
    assert rmm_envelope(fresh, u) == answers[2:]
    assert (fresh.lower_gen(u), fresh.upper_gen(u)) == answers[:2]


def test_envelope_sup_reaches_the_recorded_mixed_vertex_witness():
    # the first model and 52nd point of the acceptance gate's criterion-6 draws
    rng = philox_stream(20250819, 601)
    bf = build_bounds(random_pbox_shock_model(rng, "rmm", 3))
    for _ in range(52):
        u = [float(v) for v in rng.random(3)]
    assert u == WITNESS_U
    _, sup = rmm_envelope(bf, u)
    assert abs(sup - rmm_envelope_full_scan(bf, u)[1]) <= 1e-12
    assert abs(sup - 0.12237853671487567) <= 1e-12


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_grid_matches_scalar(bf, axes):
    inf, sup = rmm_envelope_grid(bf, axes)
    assert inf.shape == sup.shape == tuple(a.size for a in axes)
    want = np.empty((2,) + inf.shape)
    for idx in np.ndindex(*inf.shape):
        want[(slice(None),) + idx] = rmm_envelope(bf, [float(axes[k][i]) for k, i in enumerate(idx)])
    assert np.array_equal(bits(inf), bits(want[0])) and np.array_equal(bits(sup), bits(want[1]))


@pytest.mark.parametrize("kind", ["continuous", "discrete"])
def test_envelope_grid_equals_the_scalar_envelope_bit_for_bit(monkeypatch, kind):
    rng = philox_stream(8080, 1 if kind == "continuous" else 2)
    sizes = {2: 9, 3: 7, 4: 5}
    for n in (2, 3, 4):
        for p in range(1, n):
            if kind == "continuous":
                model = ShockModel("rmm", tuple(continuous_box(rng) for _ in range(n)),
                                   Exponential(float(rng.uniform(0.5, 2.0))), p)
            else:
                drawn = random_pbox_shock_model(rng, "rmm", n)
                model = ShockModel("rmm", drawn.endogenous, drawn.exogenous, p)
            bf = build_bounds(model)
            # the faces u = 0 and u = 1 on every axis, plus interior draws
            axes = [np.concatenate([[0.0, 1.0], np.sort(rng.uniform(0.0, 1.0, sizes[n] - 2))])
                    for _ in range(n)]
            assert_grid_matches_scalar(bf, axes)
            # two-index slabs, so the odd first axis ends in a short one
            monkeypatch.setattr(copulas, "_SLAB_POINTS", 2 * sizes[n] ** (n - 1))
            assert_grid_matches_scalar(bf, axes)
            monkeypatch.undo()


def drawn_model(rng, kind, n, p, family="rmm"):
    if kind == "continuous":
        # one box for every coordinate half of the time, so ratios tie
        shared = rng.random() < 0.5
        boxes = [continuous_box(rng)] * n if shared else [continuous_box(rng) for _ in range(n)]
        return ShockModel(family, tuple(boxes), Exponential(float(rng.uniform(0.5, 2.0))), p)
    drawn = random_pbox_shock_model(rng, family, n)
    return ShockModel(family, drawn.endogenous, drawn.exogenous, p)


def unit_stacks(n):
    coordinate = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    return st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=1, max_size=6)


@pytest.mark.parametrize("n", range(2, 13))
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["continuous", "discrete"]))
@settings(max_examples=12, deadline=None)
def test_envelope_equals_the_scalar_reference_bit_for_bit(n, data, seed, kind):
    rng = philox_stream(seed, 5)
    # from n = 7 on, the first, middle and last split; the 2^n full scan and
    # the grid only up to n = 8 and n = 6
    for p in range(1, n) if n <= 6 else (1, n // 2, n - 1):
        bf = build_bounds(drawn_model(rng, kind, n, p))
        points = data.draw(unit_stacks(n))
        want = np.array([envelope_reference.envelope(bf, u) for u in points])
        inf, sup = rmm_envelope_values(bf, np.array(points).T)
        assert np.array_equal(bits(inf), bits(want[:, 0])) and np.array_equal(bits(sup), bits(want[:, 1]))
        with mock.patch.object(copulas, "_SLAB_POINTS", 2):
            assert np.array_equal(bits(rmm_envelope_values(bf, np.array(points).T)), bits(want.T))
        for u, w in zip(points, want):
            assert np.array_equal(bits(rmm_envelope(bf, u)), bits(w)), (p, u)
        if n > 8:
            continue
        full = np.array([envelope_reference.full_scan(bf, u) for u in points])
        assert np.array_equal(bits(rmm_envelope_full_scan_values(bf, np.array(points).T)), bits(full.T))
        with mock.patch.object(copulas, "_SLAB_POINTS", 2):
            assert np.array_equal(bits(rmm_envelope_full_scan_values(bf, np.array(points).T)),
                                  bits(full.T))
        for u, f in zip(points, full):
            assert np.array_equal(bits(rmm_envelope_full_scan(bf, u)), bits(f)), (p, u)
        if n > 6:
            continue
        # a grid through the points' coordinates
        axes = [np.array(sorted({u[k] for u in points})[:3 if n <= 4 else 2]) for k in range(n)]
        inf, sup = rmm_envelope_grid(bf, axes)
        for idx in np.ndindex(*inf.shape):
            w = envelope_reference.envelope(bf, [float(axes[k][i]) for k, i in enumerate(idx)])
            assert np.array_equal(bits([inf[idx], sup[idx]]), bits(w)), (p, idx)


# vertex coordinates and generator values, weighted towards 0, 1 and ties
_vertex_levels = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def _pair_term(u, f, own, i, j):
    """Pair (i, j)'s rmm term in the kernels' order: the first factor from
    ``own``, times the factors u_l + f_l over ascending l, an exact 1.0 at
    l = i and l = j."""
    rest = 1.0
    for l in range(len(u)):
        rest *= 1.0 if l in (i, j) else u[l] + f[l]
    return (u[i] * u[j] - own[i] * own[j]) * rest


@given(data=st.data(), n=st.integers(2, 8))
@settings(max_examples=150, deadline=None)
def test_no_vertex_puts_a_pair_term_below_its_own_vertex_term(data, n):
    # the envelope inf reads each pair's term only at its own vertex (upper
    # at i and j, lower elsewhere); that is the minimum over all vertices
    # because, where the own term is positive, every other vertex gives the
    # pair a float term at least as large
    u = data.draw(st.lists(_vertex_levels, min_size=n, max_size=n))
    lo, hi = [], []
    for _ in range(n):
        a = data.draw(_vertex_levels)
        b = data.draw(st.one_of(st.just(a), _vertex_levels))
        lo.append(min(a, b))
        hi.append(max(a, b))
    upper = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    tuples = [lo, hi, [h if up else l for l, h, up in zip(lo, hi, upper)]]
    for p in range(1, n):
        own_terms = []
        for i in range(p):
            for j in range(p, n):
                own = _pair_term(u, lo, hi, i, j)
                own_terms.append(own)
                if own > 0.0:
                    for f in tuples:
                        assert own <= _pair_term(u, f, f, i, j), (p, i, j, f)
        got = copulas._rmm_stack(np.array(u)[:, None], np.array(lo)[:, None], p, np.array(hi)[:, None])
        least = min(own_terms)
        assert np.array_equal(bits(got), bits([least if least > 0.0 else 0.0])), p


@pytest.mark.parametrize("n", [7, 12])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["continuous", "discrete"]))
@settings(max_examples=6, deadline=None)
def test_rmm_pair_loop_and_pair_stack_equal_the_scalar_reference_bit_for_bit(n, data, seed, kind):
    # rmm_values stacks the pair terms where every coordinate array has one
    # shape (a stack, one point) and loops over the pairs on a grid; each
    # form must return the reference's floats
    rng = philox_stream(seed, 7)
    for p in range(1, n):
        bf = build_bounds(drawn_model(rng, kind, n, p))
        points = data.draw(unit_stacks(n)) + rng.uniform(0.0, 1.0, (20, n)).tolist()
        want = np.array([envelope_reference.rmm_from_values(u, envelope_reference.vertex_values(bf, u)[0], p)
                         for u in points])
        envelopes = np.array([envelope_reference.envelope(bf, u) for u in points[:2]])
        # a grid through the coordinates of the first drawn and the first
        # uniform point on four axes of both blocks, the other axes at the
        # first point's coordinate
        wide = {0, p - 1, p, n - 1}
        axes = [np.array(sorted({u[k] for u in (points[0], points[-20])[:2 if k in wide else 1]}))
                for k in range(n)]
        grid_points = [[float(axes[k][i]) for k, i in enumerate(idx)]
                       for idx in np.ndindex(*(a.size for a in axes))]
        grid_want = [envelope_reference.rmm_from_values(u, envelope_reference.vertex_values(bf, u)[0], p)
                     for u in grid_points]
        spy = mock.patch.object(copulas, "_rmm_pair_loop", wraps=copulas._rmm_pair_loop)
        with spy as loop:
            assert np.array_equal(bits(bf.lower_gen.values(np.array(points).T)), bits(want)), p
            with mock.patch.object(copulas, "_SLAB_POINTS", 2):
                assert np.array_equal(bits(bf.lower_gen.values(np.array(points).T)), bits(want)), p
            assert np.array_equal(bits([bf.lower_gen(u) for u in points[:2]]), bits(want[:2])), p
            for u, w in zip(points, envelopes):
                assert np.array_equal(bits(rmm_envelope(bf, u)), bits(w)), (p, u)
            assert not loop.called
            got = copula_grid(bf.lower_gen, axes)
            assert loop.called
        assert np.array_equal(bits(got.ravel()), bits(grid_want)), p


def reference_values(gv, points):
    if gv.family == "marshall":
        return np.array([kernel_reference.marshall_n(gv.generators, u) for u in points])
    return np.array([kernel_reference.maxmin_n(gv.generators, u, gv.p) for u in points])


@pytest.mark.parametrize("family", ["marshall", "maxmin"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["continuous", "discrete"]))
@settings(max_examples=10, deadline=None)
def test_kernels_equal_the_scalar_and_grid_references_bit_for_bit(family, n, data, seed, kind):
    rng = philox_stream(seed, 6)
    for p in [None] if family == "marshall" else range(1, n):
        bf = build_bounds(drawn_model(rng, kind, n, p, family))
        for gv in (bf.lower_gen, bf.upper_gen):
            points = data.draw(unit_stacks(n))[:1 if n == 12 else None]
            # the old scalar form divided by 1 - chi and raised where chi
            # rounds to 1 below u = 1; the kernels guard that denominator
            # as the old grid did
            undefined = [u for u in points
                         if any(u[k] < 1.0 and gv.generators[k](u[k]) == 1.0 for k in range(gv.split, n))]
            assert all(0.0 <= gv(u) <= 1.0 for u in undefined)
            points = [u for u in points if u not in undefined]
            if not points:
                continue
            want = reference_values(gv, points)
            assert bits(gv.values(np.array(points).T)).tobytes() == bits(want).tobytes()
            with mock.patch.object(copulas, "_SLAB_POINTS", 2):
                assert bits(gv.values(np.array(points).T)).tobytes() == bits(want).tobytes()
            assert bits([gv(u) for u in points]).tobytes() == bits(want).tobytes(), (p, points)
            if n == 12:
                continue
            # a grid through the points' coordinates
            axes = [np.array(sorted({u[k] for u in points})[:3 if n <= 4 else 2]) for k in range(n)]
            got = copula_grid(gv, axes)
            with mock.patch.object(copulas, "_SLAB_POINTS", 2):
                assert bits(copula_grid(gv, axes)).tobytes() == bits(got).tobytes()
            idx = list(np.ndindex(*got.shape))
            scalar = reference_values(gv, [[float(axes[k][i]) for k, i in enumerate(j)] for j in idx])
            assert bits(got).tobytes() == bits(scalar).tobytes(), p
            # the old grid started the max over S\K at the first dagger, not at
            # 0, so where a chi value rounds above its argument it differs from
            # the scalar form, which the kernels follow
            old = np.broadcast_to(kernel_reference.copula_grid(gv, axes), got.shape)
            kept = np.ones(got.shape, dtype=bool)
            for k in range(gv.split, n):
                below = [gv.generators[k](t) <= t for t in axes[k].tolist()]
                kept &= np.array(below).reshape((1,) * k + (-1,) + (1,) * (n - 1 - k))
            assert bits(got[kept]).tobytes() == bits(old[kept]).tobytes(), p


BAD_POINTS = [(-0.2, 0.5, 0.5), (1.5, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.inf)]
ARRAY_ENTRIES = {
    "copula_grid": lambda bf, u: copula_grid(bf.lower_gen, [[x] for x in u]),
    "GeneratorVector.values": lambda bf, u: bf.upper_gen.values([[x] for x in u]),
    "rmm_envelope": rmm_envelope,
    "rmm_envelope_values": lambda bf, u: rmm_envelope_values(bf, np.array([u]).T),
    "rmm_envelope_grid": lambda bf, u: rmm_envelope_grid(bf, [[x] for x in u]),
}


@pytest.mark.parametrize("entry", list(ARRAY_ENTRIES))
def test_array_entries_reject_coordinates_outside_the_unit_interval(entry):
    call = ARRAY_ENTRIES[entry]
    families = ("rmm",) if entry.startswith("rmm") else ("marshall", "maxmin", "rmm")
    for family in families:
        bf = build_bounds(rate_box_model(family, n=3))
        for u in BAD_POINTS:
            with pytest.raises(ValueError) as one_point:
                bf.lower_gen(list(u))
            with pytest.raises(ValueError, match=re.escape(str(one_point.value))):
                call(bf, u)
        call(bf, (0.0, 0.5, 1.0))


def test_envelope_grid_checks_its_inputs():
    axis = np.linspace(0.0, 1.0, 3)
    bf = build_bounds(rate_box_model())
    with pytest.raises(ValueError):
        rmm_envelope_grid(bf, [axis])
    marshall = rate_box_model("marshall")
    with pytest.raises(ValueError):
        rmm_envelope_grid(build_bounds(marshall), [axis, axis])


def test_from_spec_rejects_a_non_integer_split():
    spec = rate_box_model(n=3).to_spec()
    for p in (1.5, 2.0, "1", True):
        with pytest.raises(ValueError, match="p must be an integer"):
            ShockModel.from_spec(dict(spec, p=p))
    assert ShockModel.from_spec(dict(spec, p=2)).p == 2

