"""Copula evaluation: closed forms, n-variate formulas, joint laws."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference
from shockcopula import copulas
from shockcopula.copulas import (
    MAX_DIMENSION,
    GeneratorVector,
    _grid_arrays,
    joint_marshall_values,
    joint_maxmin_values,
    joint_rmm_Hsigma_values,
    joint_rmm_values,
    marshall2,
    maxmin2,
    rmm2,
    rmm_values,
)
from shockcopula.distfn import (
    Clamp,
    Convex,
    DiracStep,
    Discrete,
    Exponential,
    Product,
    Uniform,
    lifetime_max,
)
from shockcopula.genfn import (
    Generator,
    IdentityGenerator,
    TruncatedLinear,
    UnitGenerator,
    ZeroGenerator,
    extend_chi,
    extend_phi,
    to_rmm,
)
from shockcopula.imprecise import PBox, ShockModel
from shockcopula.verify import DiscreteModelOracle, philox_stream, random_generator_vector

A = 1.0 - math.exp(-1.0)

GRID = [k / 20 for k in range(21)]
INTERIOR = [k / 10 for k in range(1, 10)]


def exp_dirac_gens():
    phi = extend_phi(Exponential(1.0), DiracStep(1.0))
    chi = extend_chi(Exponential(1.0), DiracStep(1.0))
    return phi, chi


# -- bivariate closed forms -----------------------------------------------------


def test_marshall2_closed_form():
    phi, _ = exp_dirac_gens()
    psi = IdentityGenerator("psi")
    for u in GRID:
        for v in GRID:
            want = 0.0 if u == 0.0 or v == 0.0 else min(v * phi(u), u * psi(v))
            assert marshall2(phi, psi, u, v) == want


def test_rmm2_matches_worked_exponential_value():
    phi, chi = exp_dirac_gens()
    f, g = to_rmm(phi), to_rmm(chi)
    # unit-rate components with a unit-time shock; value checked against the
    # three-case closed form evaluated by hand
    assert abs(rmm2(f, g, 0.3, 0.2) - 0.0042437861823146) < 1e-13
    # and the three-case form itself, on a coarse grid
    a, b = A, math.exp(-1.0)
    for u in GRID:
        for w in GRID:
            if b * u + a * w <= b * a:
                want = 0.0
            elif u <= a and w <= b:
                want = u * w - (a - u) * (b - w)
            else:
                want = u * w
            assert abs(rmm2(f, g, u, w) - want) < 1e-12, (u, w)


def test_bivariate_forms_agree_with_n_variate():
    phi, chi = exp_dirac_gens()
    f = to_rmm(phi)
    g = to_rmm(chi)
    for u in GRID:
        for v in GRID:
            assert marshall2(phi, phi, u, v) == GeneratorVector("marshall", (phi, phi))((u, v))
            # the subset expansion associates products differently from the
            # min form, so these two can drift by an ulp
            assert abs(maxmin2(phi, chi, u, v) - GeneratorVector("maxmin", (phi, chi), 1)((u, v))) < 1e-15
            assert rmm2(f, g, u, v) == GeneratorVector("rmm", (f, g), 1)((u, v))


def test_arguments_outside_unit_interval_are_rejected():
    phi, chi = exp_dirac_gens()
    with pytest.raises(ValueError):
        marshall2(phi, phi, -0.1, 0.5)
    with pytest.raises(ValueError):
        maxmin2(phi, chi, 0.5, 1.5)
    with pytest.raises(ValueError):
        GeneratorVector("rmm", (ZeroGenerator(), ZeroGenerator("rmm_g")), 1)((0.5, math.nan))


# -- degenerate generators pin the classical copulas ----------------------------


def test_identity_generators_give_the_product_copula():
    gens = (IdentityGenerator("phi"), IdentityGenerator("psi"), IdentityGenerator("phi"))
    for u in INTERIOR:
        for v in INTERIOR:
            assert abs(GeneratorVector("marshall", gens[:2])((u, v)) - u * v) < 1e-15
            assert abs(GeneratorVector("marshall", gens)((u, v, 0.7)) - u * v * 0.7) < 1e-15


def test_unit_generators_give_the_minimum_copula():
    gens = (UnitGenerator("phi"), UnitGenerator("psi"))
    for u in GRID:
        for v in GRID:
            want = 0.0 if u == 0.0 or v == 0.0 else min(u, v)
            assert GeneratorVector("marshall", gens)((u, v)) == want


def test_zero_generators_give_the_product_copula():
    gens = (ZeroGenerator("rmm_f"), ZeroGenerator("rmm_g"), ZeroGenerator("rmm_g"))
    for u in INTERIOR:
        for v in INTERIOR:
            assert GeneratorVector("rmm", gens[:2], 1)((u, v)) == u * v
            assert abs(GeneratorVector("rmm", gens, 1)((u, v, 0.3)) - u * v * 0.3) < 1e-15


class _Hat(Generator):
    """f(u) = 1 - u on (0, 1], the largest admissible rmm generator."""

    def __init__(self, kind):
        self.kind = kind

    def __call__(self, u):
        return 1.0 - u if u > 0.0 else 0.0


def test_extreme_rmm_generators_reach_the_countermonotone_bound():
    f, g = _Hat("rmm_f"), _Hat("rmm_g")
    for u in GRID:
        for v in GRID:
            want = max(0.0, u + v - 1.0)
            assert abs(rmm2(f, g, u, v) - want) < 1e-15, (u, v)


def test_identity_chi_gives_the_product_in_the_maxmin_family():
    gens = (IdentityGenerator("phi"), IdentityGenerator("chi"))
    for u in INTERIOR:
        for v in INTERIOR:
            # min{u(1-v), 0} = 0, so only the product term survives
            assert GeneratorVector("maxmin", gens, 1)((u, v)) == u * v


# -- copula axioms spot-checked on the closed forms ------------------------------


def test_margins_are_uniform_in_every_family():
    phi, chi = exp_dirac_gens()
    f, g = to_rmm(phi), to_rmm(chi)
    marshall = GeneratorVector("marshall", (phi, phi, phi))
    maxmin = GeneratorVector("maxmin", (phi, chi, chi), p=1)
    rmm = GeneratorVector("rmm", (f, g, g), p=1)
    for t in GRID:
        for k in range(3):
            point = [1.0, 1.0, 1.0]
            point[k] = t
            for vec in (marshall, maxmin, rmm):
                assert abs(vec(point) - t) < 1e-12, (vec.family, k, t)


def test_any_zero_coordinate_grounds_every_family():
    phi, chi = exp_dirac_gens()
    f, g = to_rmm(phi), to_rmm(chi)
    vectors = [
        GeneratorVector("marshall", (phi, phi, phi)),
        GeneratorVector("maxmin", (phi, phi, chi), p=2),
        GeneratorVector("rmm", (f, g, g), p=1),
    ]
    for vec in vectors:
        for k in range(3):
            point = [0.6, 0.7, 0.8]
            point[k] = 0.0
            assert vec(point) == 0.0, (vec.family, k)


def test_rmm_stays_between_countermonotone_and_product():
    f = TruncatedLinear(0.4, scale=0.8)
    g = TruncatedLinear(0.7, scale=0.3, kind="rmm_g")
    for u in GRID:
        for v in GRID:
            c = rmm2(f, g, u, v)
            assert max(0.0, u + v - 1.0) - 1e-15 <= c <= u * v + 1e-15


# -- n-variate formulas ----------------------------------------------------------


def _marshall_with_divisions(gens, u):
    if any(ui == 0.0 for ui in u):
        return 0.0
    phis = [gen(ui) for gen, ui in zip(gens, u)]
    if any(pv == 0.0 for pv in phis):
        return 0.0
    return math.prod(phis) * min(ui / pv for ui, pv in zip(u, phis))


def test_marshall_n_matches_the_ratio_form():
    phi, _ = exp_dirac_gens()
    gens = (phi, IdentityGenerator("psi"), UnitGenerator("phi"))
    for point in itertools.product(INTERIOR, repeat=3):
        direct = GeneratorVector("marshall", gens)(point)
        ratio = _marshall_with_divisions(gens, point)
        assert abs(direct - ratio) < 1e-12, point


def test_maxmin_n_reduces_to_the_lower_margin_when_a_min_coordinate_saturates():
    phi, chi = exp_dirac_gens()
    gens = (phi, chi, chi)
    for u in INTERIOR:
        for v in INTERIOR:
            full = GeneratorVector("maxmin", gens, 1)((u, v, 1.0))
            margin = GeneratorVector("maxmin", gens[:2], 1)((u, v))
            assert abs(full - margin) < 1e-14, (u, v)


def test_maxmin_n_partition_sizes_agree_with_merged_blocks():
    # with identity chi generators the min block contributes nothing, so any
    # p gives the same product-with-phi structure at saturated min coordinates
    phi, _ = exp_dirac_gens()
    chi = IdentityGenerator("chi")
    for u in INTERIOR:
        v = 0.55
        one_min = GeneratorVector("maxmin", (phi, phi, chi), 2)((u, v, 1.0))
        two_min = GeneratorVector("maxmin", (phi, chi, chi), 1)((u, 1.0, 1.0))
        assert abs(one_min - GeneratorVector("marshall", (phi, phi))((u, v))) < 1e-14
        assert abs(two_min - u) < 1e-14


def test_rmm_n_consumes_precomputed_generator_values():
    phi, chi = exp_dirac_gens()
    f, g = to_rmm(phi), to_rmm(chi)
    gens = (f, f, g)
    gv = GeneratorVector("rmm", gens, 2)
    for point in itertools.product(INTERIOR, repeat=3):
        fvals = [gen(ui) for gen, ui in zip(gens, point)]
        assert gv(point) == rmm_values(point, fvals, 2)
        assert type(gv(point)) is float


def test_rmm_from_values_validates_shapes():
    with pytest.raises(ValueError):
        rmm_values((0.5, 0.5), (0.0,), 1)
    with pytest.raises(ValueError):
        rmm_values((0.5, 0.5), (0.0, 0.0), 2)


@pytest.mark.parametrize("kernel", [
    lambda us, fs: copulas.marshall_values(us, fs),
    lambda us, fs: copulas.maxmin_values(us, fs, 1),
    lambda us, fs: rmm_values(us, fs, 1),
], ids=["marshall", "maxmin", "rmm"])
def test_kernels_reject_a_generator_list_of_another_length(kernel):
    for fs in ([0.6, 0.7, 0.9], [0.6], np.full((3, 4), 0.6)):
        with pytest.raises(ValueError, match="expected 2 generator arrays"):
            kernel([np.full(4, 0.5)] * 2, fs)


# -- generator vectors -----------------------------------------------------------


def test_generator_vector_validation():
    phi, chi = exp_dirac_gens()
    f, g = to_rmm(phi), to_rmm(chi)
    with pytest.raises(ValueError):
        GeneratorVector("gumbel", (phi, phi))
    with pytest.raises(ValueError):
        GeneratorVector("marshall", (phi,))
    with pytest.raises(ValueError):
        GeneratorVector("marshall", (phi, chi))  # chi is not a max kind
    with pytest.raises(ValueError):
        GeneratorVector("marshall", (phi, phi), p=1)
    with pytest.raises(ValueError):
        GeneratorVector("maxmin", (phi, chi))  # missing p
    with pytest.raises(ValueError):
        GeneratorVector("maxmin", (chi, phi), p=1)  # blocks swapped
    with pytest.raises(ValueError):
        GeneratorVector("rmm", (f, g), p=2)  # p = n leaves no min block
    with pytest.raises(ValueError):
        GeneratorVector("rmm", (g, f), p=1)
    with pytest.raises(ValueError):
        GeneratorVector("marshall", (phi,) * (MAX_DIMENSION + 1))
    assert GeneratorVector("marshall", (phi, phi), p=2).split == 2


def test_generator_vector_dispatch():
    # a call is the float that ``values`` gives on a stack of one
    phi, chi = exp_dirac_gens()
    f, g = to_rmm(phi), to_rmm(chi)
    rng = philox_stream(31, 0)
    for n in (2, 3, 12):
        vectors = [GeneratorVector("marshall", (phi,) * n),
                   GeneratorVector("maxmin", (phi,) + (chi,) * (n - 1), p=1),
                   GeneratorVector("rmm", (f,) * (n - 1) + (g,), p=n - 1)]
        vectors += [random_generator_vector(rng, family, n) for family in ("marshall", "maxmin", "rmm")]
        # coordinates at 0, at 1 and inside, alone and mixed
        points = [rng.uniform(0.0, 1.0, n), np.zeros(n), np.ones(n)]
        points += [rng.choice([0.0, 1.0, float(rng.uniform())], n) for _ in range(3)]
        for gv in vectors:
            for point in points:
                got = gv(point.tolist())
                assert type(got) is float
                (want,) = gv.values(np.array(point, dtype=float)[:, None]).tolist()
                assert got.hex() == want.hex(), (gv.family, n, point)
    assert GeneratorVector("marshall", (phi, phi, phi)).split == 3
    assert GeneratorVector("maxmin", (phi, chi, chi), p=1).split == 1


# -- joint laws against a by-hand enumeration ------------------------------------

X1 = Discrete(((1.0, 0.25), (3.0, 0.75)))
X2 = Discrete(((2.0, 0.5), (4.0, 0.5)))
X3 = Discrete(((1.0, 0.5), (5.0, 0.5)))
SHOCK = Discrete(((2.0, 0.5), (4.0, 0.5)))
LATTICE = (0.5, 1.0, 2.0, 3.0, 4.5, 6.0)


def _enumerate_joint(components, shock, event):
    total = 0.0
    for combo in itertools.product(*(d.points for d in components), shock.points):
        xs = [c[0] for c in combo]
        mass = math.prod(c[1] for c in combo)
        if event(xs[:-1], xs[-1]):
            total += mass
    return total


def _stack(points):
    """Points as one stack: n coordinate arrays of one entry per point."""
    return np.array(points, dtype=float).T


def test_joint_marshall_matches_enumeration():
    comps = (X1, X2, X3)
    assert joint_marshall_values(comps, SHOCK, _stack([(3.0, 2.5, 4.0)])).tolist() == [0.125]
    points = list(itertools.product(LATTICE, repeat=3))
    for x, got in zip(points, joint_marshall_values(comps, SHOCK, _stack(points)).tolist()):
        want = _enumerate_joint(
            comps, SHOCK, lambda xs, z: all(max(xi, z) <= t for xi, t in zip(xs, x))
        )
        assert abs(got - want) < 1e-12, x


def test_joint_maxmin_matches_enumeration():
    comps = (X1, X2, X3)
    assert joint_maxmin_values(comps, SHOCK, _stack([(3.0, 2.5, 4.0)]), 1).tolist() == [0.5]
    assert joint_maxmin_values(comps, SHOCK, _stack([(4.5, 2.0, 3.0)]), 2).tolist() == [0.25]
    points = list(itertools.product(LATTICE, repeat=3))
    for p in (1, 2):
        for x, got in zip(points, joint_maxmin_values(comps, SHOCK, _stack(points), p).tolist()):
            want = _enumerate_joint(
                comps,
                SHOCK,
                lambda xs, z: all(max(xs[i], z) <= x[i] for i in range(p))
                and all(min(xs[j], z) <= x[j] for j in range(p, 3)),
            )
            assert abs(got - want) < 1e-12, (p, x)


class _CountingShock:
    """Delegates ``value`` to a distribution and records every argument."""

    def __init__(self, dist):
        self.dist = dist
        self.args = []

    def value(self, x):
        self.args.append(x)
        return self.dist.value(x)


@given(st.integers(2, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_joint_maxmin_asks_the_shock_once_per_distinct_argument(n, data):
    p = data.draw(st.integers(1, n - 1))
    comps = data.draw(st.lists(st.sampled_from((X1, X2, X3, SHOCK)), min_size=n, max_size=n))
    shock = data.draw(st.sampled_from((SHOCK, X3, Exponential(0.7), DiracStep(2.0))))
    coordinate = st.one_of(st.sampled_from(LATTICE + (0.0,)), st.floats(-1.0, 8.0))
    points = data.draw(st.lists(st.lists(coordinate, min_size=n, max_size=n),
                                min_size=1, max_size=6))
    asked = set()
    for x in points:
        counted = _CountingShock(shock)
        (got,) = joint_maxmin_values(comps, counted, np.array(x, dtype=float)[:, None], p).tolist()
        assert got.hex() == kernel_reference.joint_maxmin_H(comps, shock, x, p).hex()
        assert len(set(counted.args)) == len(counted.args)
        # min_T x and the min-type x_j, negative ones included
        assert len(counted.args) <= n - p + 1
        asked.update(counted.args)
    # a stack asks once per distinct argument of all its points, and for no other
    counted = _CountingShock(shock)
    stacked = joint_maxmin_values(comps, counted, np.array(points).T, p)
    assert [v.hex() for v in stacked.tolist()] == [
        kernel_reference.joint_maxmin_H(comps, shock, x, p).hex() for x in points]
    assert len(set(counted.args)) == len(counted.args)
    assert set(counted.args) == asked


def _oracle(family, comps, shock, p):
    return DiscreteModelOracle(ShockModel(family, tuple(PBox.precise(c) for c in comps), shock, p))


def test_joint_maxmin_at_negative_min_type_coordinates_equals_the_oracle():
    # with Z = 0, min(Y2, Z) <= -1 exactly when Y2 = -2, so the shock term
    # over an empty K, F_Z(x1) - F_Z(x2), is 1 - 0 at x2 = -1, not 1 - F_Z(0)
    comps = (Discrete([(1.0, 0.5), (2.0, 0.5)]), Discrete([(-2.0, 0.5), (3.0, 0.5)]))
    shock = Discrete([(0.0, 1.0)])
    oracle = _oracle("maxmin", comps, shock, 1)
    points = [(2.0, -1.0), (1.5, -1.0), (2.0, -2.0), (0.5, -3.0), (3.0, -0.5), (1.0, 0.0),
              (2.0, 3.0), (-1.0, -1.0)]
    got = joint_maxmin_values(comps, shock, _stack(points), 1).tolist()
    assert got[:2] == [0.5, 0.25]
    for x, value in zip(points, got):
        want = oracle.exact_joint(x)
        assert oracle.exact_joint_bruteforce(x) == want, x
        assert value == want, x
        assert kernel_reference.joint_maxmin_H(comps, shock, x, 1) == want, x
    stacked = joint_maxmin_values(comps, shock, np.array(points).T, 1)
    assert stacked.tolist() == [oracle.exact_joint(x) for x in points]


_SIGNED = (-2.0, -1.0, -0.5, 0.0, 1.0, 2.5)


@st.composite
def _signed_discretes(draw):
    xs = draw(st.lists(st.sampled_from(_SIGNED), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(xs), max_size=len(xs)))
    return Discrete([(x, w / sum(weights)) for x, w in zip(xs, weights)])


@st.composite
def _signed_maxmin_cases(draw):
    n = draw(st.integers(2, 4))
    p = draw(st.integers(1, n - 1))
    comps = draw(st.lists(_signed_discretes(), min_size=n, max_size=n))
    coordinate = st.sampled_from(_SIGNED + (-3.0, -0.75, 0.5, 3.0))
    points = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=1, max_size=5))
    return comps, draw(_signed_discretes()), p, points


@given(_signed_maxmin_cases())
@settings(max_examples=100, deadline=None)
@example(([Discrete([(1.0, 1.0)]), Discrete([(-2.0, 0.5), (2.5, 0.5)])],
          Discrete([(-0.5, 0.5), (0.0, 0.5)]), 1, [[1.0, -1.0]]))
def test_joint_maxmin_equals_the_oracle_on_signed_supports(case):
    comps, shock, p, points = case
    oracle = _oracle("maxmin", comps, shock, p)
    got = joint_maxmin_values(comps, shock, np.array(points).T, p)
    for x, value in zip(points, got.tolist()):
        assert abs(value - oracle.exact_joint(x)) < 1e-12, x
        assert abs(value - oracle.exact_joint_bruteforce(x)) < 1e-12, x


def test_joint_rmm_product_matches_enumeration():
    comps = (X1, X2, X3)
    assert joint_rmm_values(comps, SHOCK, _stack([(3.0, 1.5, 0.5)]), 1).tolist() == [0.5]
    points = list(itertools.product(LATTICE, repeat=3))
    for p in (1, 2):
        for x, got in zip(points, joint_rmm_values(comps, SHOCK, _stack(points), p).tolist()):
            want = _enumerate_joint(
                comps,
                SHOCK,
                lambda xs, z: all(max(xs[i], z) <= x[i] for i in range(p))
                and all(min(xs[j], z) > x[j] for j in range(p, 3)),
            )
            assert abs(got - want) < 1e-12, (p, x)


def test_joint_rmm_Hsigma_composes_back_to_the_product():
    comps = (X1, X2, X3)
    points = list(itertools.product(LATTICE, repeat=3))
    for p in (1, 2):
        gens = GeneratorVector(
            "rmm",
            tuple(to_rmm(extend_phi(comps[i], SHOCK)) for i in range(p))
            + tuple(to_rmm(extend_chi(comps[j], SHOCK)) for j in range(p, 3)),
            p=p,
        )
        composed = joint_rmm_Hsigma_values(gens, comps, SHOCK, _stack(points)).tolist()
        direct = joint_rmm_values(comps, SHOCK, _stack(points), p).tolist()
        for x, c, d in zip(points, composed, direct):
            assert abs(c - d) < 1e-12, (p, x)


def test_reflection_identity_links_the_two_mixed_laws():
    # P(U <= x, W <= y) = F_U(x) - P(U <= x, W > y), both for the unit-rate
    # exponential model and for an all-discrete one
    models = [
        ((Exponential(1.0), Exponential(1.0)), DiracStep(1.0)),
        ((X1, X2), SHOCK),
    ]
    points = list(itertools.product(LATTICE, repeat=2))
    for comps, shock in models:
        fu = lifetime_max(comps[0], shock)
        lhs = joint_maxmin_values(comps, shock, _stack(points), 1).tolist()
        tail = joint_rmm_values(comps, shock, _stack(points), 1).tolist()
        for (x, y), l, t in zip(points, lhs, tail):
            rhs = fu.value(x) - t
            assert abs(l - rhs) < 1e-12, (x, y)


def test_joint_laws_validate_coordinate_counts():
    comps = (X1, X2)
    with pytest.raises(ValueError):
        joint_marshall_values(comps, SHOCK, _stack([(1.0,)]))
    with pytest.raises(ValueError):
        joint_maxmin_values(comps, SHOCK, _stack([(1.0, 2.0)]), 2)
    with pytest.raises(ValueError):
        joint_rmm_values(comps, SHOCK, _stack([(1.0, 2.0, 3.0)]), 1)
    with pytest.raises(ValueError, match="partition"):
        joint_rmm_values(comps, SHOCK, ([1.0], [2.0]), 0)
    with pytest.raises(ValueError, match="exceeds the cap"):
        joint_maxmin_values((X1,) * (MAX_DIMENSION + 1), SHOCK,
                            _stack([(1.0,) * (MAX_DIMENSION + 1)]), 1)
    with pytest.raises(ValueError):
        joint_marshall_values(comps, SHOCK, np.ones((3, 4)))
    gens = GeneratorVector("rmm", (TruncatedLinear(0.5), TruncatedLinear(0.5, kind="rmm_g")), p=1)
    with pytest.raises(ValueError):
        joint_rmm_Hsigma_values(gens, comps, SHOCK, _stack([(1.0, 2.0, 3.0)]))
    with pytest.raises(ValueError, match="rmm generator vector"):
        joint_rmm_Hsigma_values(GeneratorVector("marshall", (UnitGenerator("phi"),) * 2), comps,
                                SHOCK, _stack([(1.0, 2.0)]))


# coordinates on the lattice and on support points (of the discrete laws,
# the Dirac and the Uniforms' ends), negative ones, and anything in between;
# ties come from the sampled values
_JOINT_COORDINATE = st.one_of(st.sampled_from(LATTICE + (0.0, -0.5, -2.0, 4.0, 5.0)),
                              st.floats(-2.0, 8.0))
# laws whose values are mostly not dyadic, so that products and sums taken in
# another order round differently
_JOINT_DISTRIBUTIONS = (
    X1, X2, X3, SHOCK, Discrete(((0.5, 0.3), (2.0, 0.45), (4.5, 0.25))),
    Discrete(((1.0, 0.1), (3.0, 0.7), (5.0, 0.2))), Exponential(0.7), Exponential(1.3),
    Uniform(0.5, 4.0), Uniform(-1.0, 6.0), DiracStep(2.0),
)


def _joint_forms(n, p, data):
    """(array form, scalar reference) of each joint law, for drawn laws."""
    comps = data.draw(st.lists(st.sampled_from(_JOINT_DISTRIBUTIONS), min_size=n, max_size=n))
    shock = data.draw(st.sampled_from(_JOINT_DISTRIBUTIONS))
    gens = GeneratorVector("rmm", tuple(
        TruncatedLinear(data.draw(st.floats(0.05, 0.95)), scale=data.draw(st.floats(0.1, 1.0)),
                        kind="rmm_f" if k < p else "rmm_g") for k in range(n)), p)
    return [
        (lambda xs: joint_marshall_values(comps, shock, xs),
         lambda x: kernel_reference.joint_marshall_H(comps, shock, x)),
        (lambda xs: joint_maxmin_values(comps, shock, xs, p),
         lambda x: kernel_reference.joint_maxmin_H(comps, shock, x, p)),
        (lambda xs: joint_rmm_values(comps, shock, xs, p),
         lambda x: kernel_reference.joint_rmm_product(comps, shock, x, p)),
        (lambda xs: joint_rmm_Hsigma_values(gens, comps, shock, xs),
         lambda x: kernel_reference.joint_rmm_Hsigma(gens, comps, shock, x)),
    ]


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_joint_law_values_equal_the_scalar_reference_bit_for_bit(n, data):
    p = data.draw(st.integers(1, n - 1))
    points = data.draw(st.lists(st.lists(_JOINT_COORDINATE, min_size=n, max_size=n),
                                min_size=1, max_size=8))
    # random interior coordinates give products of three or more factors that
    # round differently in another order; the max block above the min block
    # keeps the rmm law off 0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points += rng.uniform(0.0, 6.0, (16, n)).tolist()
    points += [sorted(x, reverse=True) for x in points]
    axes = [data.draw(st.lists(_JOINT_COORDINATE, min_size=1, max_size=3 if n <= 3 else 2))
            for _ in range(n)]
    for values, reference in _joint_forms(n, p, data):
        want = [reference(x).hex() for x in points]
        stacked = values(np.array(points).T)
        assert stacked.shape == (len(points),)
        assert [v.hex() for v in stacked.tolist()] == want
        # each point alone, as a stack of one
        got = [values(np.array(x, dtype=float)[:, None]).item() for x in points]
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == want
        grid = values(_grid_arrays(axes))
        assert grid.shape == tuple(len(a) for a in axes)
        assert [v.hex() for v in grid.ravel().tolist()] == [
            reference(list(x)).hex() for x in itertools.product(*axes)]


@pytest.mark.parametrize("n, p", [(2, 1), (4, 1), (4, 3), (6, 2)])
def test_joint_maxmin_slabs_give_the_one_slab_floats_bit_for_bit(monkeypatch, n, p):
    rng = np.random.default_rng(1000 * n + p)
    # step composites (read from their parts' arrays) next to the drawn laws
    laws = _JOINT_DISTRIBUTIONS + (Convex(0.3, X1, X2), Clamp(X3, X1, X2),
                                   Product(X1, DiracStep(2.0)))
    comps = [laws[k] for k in rng.integers(0, len(laws), n)]
    shock = laws[rng.integers(0, len(laws))]
    points = np.concatenate([rng.choice(np.array(LATTICE + (-0.5, 4.0)), (n, 9)),
                             rng.uniform(-1.0, 6.0, (n, 4))], axis=1)
    axes = _grid_arrays([rng.uniform(-1.0, 6.0, 2 + k % 3) for k in range(n)])
    whole = [joint_maxmin_values(comps, shock, xs, p) for xs in (points, axes)]
    slabs = []
    kernel = copulas._joint_maxmin_slab
    monkeypatch.setattr(copulas, "_joint_maxmin_slab",
                        lambda *args: slabs.append(1) or kernel(*args))
    for cap in (1, 2, 3):
        monkeypatch.setattr(copulas, "_SLAB_POINTS", cap)
        for xs, want in zip((points, axes), whole):
            slabs.clear()
            got = joint_maxmin_values(comps, shock, xs, p)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (cap, n, p)
            # at most 8 * cap entries of 2^(n - p) per slab, one point at least
            budget = max(1, min(cap, 8 * cap >> (n - p)))
            assert len(slabs) >= math.ceil(want.size / budget) > 1


# -- property tests ---------------------------------------------------------------


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
)
@settings(max_examples=60)
def test_rmm_n_respects_copula_bounds(c1, c2, u):
    gens = (
        TruncatedLinear(c1),
        TruncatedLinear(c2, kind="rmm_g"),
        TruncatedLinear(0.5, scale=0.5, kind="rmm_g"),
    )
    value = GeneratorVector("rmm", gens, 1)(u)
    assert max(0.0, sum(u) - 2.0) - 1e-12 <= value <= min(u) + 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4))
@settings(max_examples=60)
def test_maxmin_n_respects_copula_bounds(u):
    phi, chi = exp_dirac_gens()
    gens = (phi, phi, chi, chi)
    value = GeneratorVector("maxmin", gens, 2)(u)
    assert max(0.0, sum(u) - 3.0) - 1e-12 <= value <= min(u) + 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
@settings(max_examples=60)
def test_marshall_n_is_exchangeable_with_equal_generators(u):
    phi, _ = exp_dirac_gens()
    gv = GeneratorVector("marshall", (phi, phi, phi))
    base = gv(u)
    for perm in itertools.permutations(u):
        assert gv(perm) == pytest.approx(base, abs=1e-14)
