"""Distribution representations: values, one-sided limits, preimages."""

import math

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockcopula.distfn import (
    _SEARCH_STEPS,
    _LimitTable,
    Clamp,
    Convex,
    DiracStep,
    Discrete,
    DistributionFn,
    Exponential,
    PiecewiseLinearWithJumps,
    Product,
    SurvivalComplementProduct,
    Switch,
    Uniform,
    from_spec,
    lifetime_max,
    lifetime_min,
    to_spec,
)
from shockcopula.genfn import STAR_PROBE
from preimage_scan import scan_largest_preimage, scan_smallest_preimage

LATTICE = [k * 0.5 for k in range(-2, 25)]


def discrete(*pairs):
    return Discrete(tuple(pairs))


# -- parametric shapes -------------------------------------------------------


def test_exponential_matches_closed_form():
    f = Exponential(2.0)
    assert f.value(0.0) == 0.0
    assert f.value(-1.0) == 0.0
    for x in (0.1, 0.5, 1.0, 3.0):
        want = 1.0 - math.exp(-2.0 * x)
        assert abs(f.value(x) - want) < 1e-15, f"F({x}) = {f.value(x)}, want {want}"
        assert f.left_limit(x) == f.value(x) == f.right_limit(x)
    assert f.value(float("inf")) == 1.0
    assert f.jump_points() == ()


def test_exponential_preimage_is_exact_inverse():
    f = Exponential(0.7)
    for u in (1e-9, 0.25, 0.5, 0.99):
        x = f.smallest_preimage(u)
        assert x == f.largest_preimage(u)
        assert abs(f.value(x) - u) < 1e-15


def test_dirac_one_sided_limits():
    f = DiracStep(1.0)
    assert f.value(1.0) == 1.0
    assert f.left_limit(1.0) == 0.0
    assert f.right_limit(1.0) == 1.0
    assert f.value(0.999999) == 0.0
    assert f.jump_points() == (1.0,)
    assert f.smallest_preimage(0.5) == 1.0
    assert f.largest_preimage(0.5) == 1.0


def test_uniform_values_and_preimages():
    f = Uniform(1.0, 3.0)
    assert f.value(0.0) == 0.0
    assert f.value(2.0) == 0.5
    assert f.value(4.0) == 1.0
    assert f.smallest_preimage(0.25) == 1.5
    assert f.largest_preimage(0.25) == 1.5


def test_discrete_merges_duplicates_and_sorts():
    f = discrete((2.0, 0.25), (1.0, 0.5), (2.0, 0.25))
    assert f.points == ((1.0, 0.5), (2.0, 0.5))
    assert f.value(1.0) == 0.5
    assert f.left_limit(2.0) == 0.5
    assert f.value(2.0) == 1.0


def test_discrete_rejects_bad_masses():
    with pytest.raises(ValueError):
        discrete((1.0, 0.0), (2.0, 1.0))
    with pytest.raises(ValueError):
        discrete((1.0, -0.5), (2.0, 1.5))
    with pytest.raises(ValueError):
        discrete((1.0, float("nan")))
    with pytest.raises(ValueError):
        discrete((1.0, 0.5), (2.0, 0.6))
    with pytest.raises(ValueError):
        Discrete(())


def test_discrete_preimages_at_exact_levels():
    f = discrete((1.0, 0.3), (2.0, 0.4), (3.0, 0.3))
    # strictly inside a mass interval
    assert f.smallest_preimage(0.5) == 2.0
    assert f.largest_preimage(0.5) == 2.0
    # exactly at an accumulated level: F is flat at 0.3 on [1, 2), so the
    # smallest solution is the left end of the flat and the largest the right
    assert f.smallest_preimage(0.3) == 1.0
    assert f.largest_preimage(0.3) == 2.0
    assert f.smallest_preimage(0.7) == 2.0
    assert f.largest_preimage(0.7) == 3.0


def test_preimage_rejects_boundary_levels():
    f = discrete((1.0, 1.0))
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            f.smallest_preimage(u)
        with pytest.raises(ValueError):
            f.largest_preimage(u)


def test_piecewise_linear_with_jump():
    # ramp to 0.4 on [0,1], jump to 0.7 at x=1 with value pinned left, ramp on
    f = PiecewiseLinearWithJumps(
        breakpoints=(
            (0.0, 0.0, 0.0, 0.0),
            (1.0, 0.4, 0.4, 0.7),
            (2.0, 1.0, 1.0, 1.0),
        )
    )
    assert f.value(0.5) == 0.2
    assert f.left_limit(1.0) == 0.4
    assert f.value(1.0) == 0.4
    assert f.right_limit(1.0) == 0.7
    assert abs(f.value(1.5) - 0.85) < 1e-15
    assert f.jump_points() == (1.0,)
    # off the breakpoints every read is 0 below the first (-inf and nan
    # included) and 1 above the last (+inf included)
    for x, want in ((-math.inf, 0.0), (math.nan, 0.0), (-0.5, 0.0), (math.nextafter(0.0, -1.0), 0.0),
                    (2.5, 1.0), (math.nextafter(2.0, 3.0), 1.0), (math.inf, 1.0)):
        assert [read(x) for read in (f.left_limit, f.value, f.right_limit)] == [want] * 3, x
    # level inside the jump maps to the jump coordinate
    assert f.smallest_preimage(0.55) == 1.0
    # level on a ramp interpolates exactly
    assert abs(f.smallest_preimage(0.2) - 0.5) < 1e-12


# -- composites --------------------------------------------------------------


def _enumerate_joint(fa: Discrete, fb: Discrete, combine) -> Discrete:
    masses: dict[float, float] = {}
    for xa, ma in fa.points:
        for xb, mb in fb.points:
            key = combine(xa, xb)
            masses[key] = masses.get(key, 0.0) + ma * mb
    return Discrete(tuple(masses.items()))


def test_product_is_distribution_of_max():
    fa = discrete((1.0, 0.25), (2.5, 0.75))
    fb = discrete((0.5, 0.5), (2.0, 0.3), (4.0, 0.2))
    direct = lifetime_max(fa, fb)
    oracle = _enumerate_joint(fa, fb, max)
    for x in LATTICE:
        assert abs(direct.value(x) - oracle.value(x)) < 1e-15, f"max cdf at {x}"
        assert abs(direct.left_limit(x) - oracle.left_limit(x)) < 1e-15


def test_survival_complement_product_is_distribution_of_min():
    fa = discrete((1.0, 0.25), (2.5, 0.75))
    fb = discrete((0.5, 0.5), (2.0, 0.3), (4.0, 0.2))
    direct = lifetime_min(fa, fb)
    oracle = _enumerate_joint(fa, fb, min)
    for x in LATTICE:
        assert abs(direct.value(x) - oracle.value(x)) < 1e-15, f"min cdf at {x}"
        assert abs(direct.left_limit(x) - oracle.left_limit(x)) < 1e-15


def test_min_lifetime_cdf_is_exactly_one_past_the_shock():
    # regression: a + b - a*b rounds below 1.0 for a = 0.9449769962505403,
    # b = 1.0 unless the combine special-cases the endpoint
    comp = discrete((0.5, 0.9449769962505403), (9.0, 1.0 - 0.9449769962505403))
    shock = DiracStep(1.0)
    g = lifetime_min(comp, shock)
    assert g.value(1.0) == 1.0
    assert g.value(3.5) == 1.0


def test_convex_combination_values():
    f = Convex(0.25, DiracStep(1.0), DiracStep(2.0))
    assert f.value(0.5) == 0.0
    assert f.value(1.0) == 0.25
    assert f.value(1.5) == 0.25
    assert f.value(2.0) == 1.0
    assert f.left_limit(2.0) == 0.25
    assert set(f.jump_points()) >= {1.0, 2.0}


def test_clamp_is_pointwise_median():
    lower = discrete((1.0, 0.4), (3.0, 0.6))
    upper = discrete((0.5, 0.5), (2.0, 0.5))
    base = Uniform(0.0, 4.0)
    f = Clamp(base, lower, upper)
    for x in LATTICE:
        want = min(max(base.value(x), lower.value(x)), upper.value(x))
        assert f.value(x) == want, f"clamped value at {x}"


def test_switch_splices_and_validates():
    before = Uniform(0.0, 2.0)
    after = discrete((0.5, 0.5), (3.0, 0.5))
    f = Switch(1.0, before, after)
    assert f.value(0.5) == 0.25          # the ramp
    assert f.value(1.5) == 0.5           # the step part
    assert f.left_limit(1.0) == before.left_limit(1.0)
    assert f.right_limit(1.0) == after.right_limit(1.0)
    # a splice that drops (0.5 just before, 0.2 just after) is rejected
    with pytest.raises(ValueError):
        Switch(1.0, after, discrete((0.1, 0.2), (5.0, 0.8)))


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize(
    "dist",
    [
        Exponential(1.5),
        DiracStep(2.0),
        Uniform(0.5, 2.5),
        Discrete(((1.0, 0.25), (4.0, 0.75))),
        PiecewiseLinearWithJumps(
            breakpoints=((0.0, 0.0, 0.0, 0.1), (1.0, 0.6, 0.6, 0.6), (2.0, 1.0, 1.0, 1.0))
        ),
    ],
)
def test_spec_round_trip(dist):
    back = from_spec(to_spec(dist))
    assert back == dist
    for x in LATTICE:
        assert back.value(x) == dist.value(x)


def test_from_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        from_spec({"kind": "cauchy", "scale": 1.0})


# -- property tests ----------------------------------------------------------

mass_lists = st.lists(
    st.tuples(
        st.integers(min_value=-5, max_value=20).map(lambda k: k * 0.5),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=6,
)


def _normalized(pairs) -> Discrete:
    total = sum(w for _, w in pairs)
    return Discrete(tuple((x, w / total) for x, w in pairs))


@given(mass_lists)
def test_discrete_limits_are_ordered(pairs):
    f = _normalized(pairs)
    for x in [p - 0.25 for p, _ in f.points] + [p for p, _ in f.points]:
        assert f.left_limit(x) <= f.value(x) <= f.right_limit(x)


@given(mass_lists, st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=200)
def test_discrete_smallest_preimage_is_minimal(pairs, u):
    f = _normalized(pairs)
    x0 = f.smallest_preimage(u)
    assert f.left_limit(x0) <= u <= f.right_limit(x0), (
        f"x0={x0} does not bracket u={u}: "
        f"[{f.left_limit(x0)}, {f.right_limit(x0)}]"
    )
    # nothing smaller qualifies: strictly left of x0 the function stays below u
    probe = x0 - 1e-9
    assert f.value(probe) < u or f.right_limit(probe) < u


@given(mass_lists, mass_lists)
@settings(max_examples=100)
def test_composite_lifetimes_match_enumeration(pa, pb):
    fa, fb = _normalized(pa), _normalized(pb)
    for composite, combine in ((lifetime_max(fa, fb), max), (lifetime_min(fa, fb), min)):
        oracle = _enumerate_joint(fa, fb, combine)
        for x, _ in oracle.points:
            assert abs(composite.value(x) - oracle.value(x)) < 1e-12
            assert abs(composite.left_limit(x) - oracle.left_limit(x)) < 1e-12


# -- table search against the linear scan ------------------------------------

_levels = st.one_of(st.sampled_from([k / 8 for k in range(9)]), st.floats(0.0, 1.0))


@st.composite
def _pwl(draw):
    xs = sorted(draw(st.sets(st.sampled_from(LATTICE), min_size=1, max_size=4)))
    inner = sorted(draw(st.lists(_levels, min_size=3 * len(xs) - 2, max_size=3 * len(xs) - 2)))
    vals = [0.0, *inner, 1.0]
    return PiecewiseLinearWithJumps(
        [(x, *vals[3 * i:3 * i + 3]) for i, x in enumerate(xs)]
    )


_leaves = st.one_of(
    mass_lists.map(_normalized),
    st.sampled_from(LATTICE).map(DiracStep),
    _pwl(),
    st.sampled_from([0.5, 1.0, 2.0]).map(Exponential),
)


def _extend(children):
    # Switch(point, a * b, b) never drops at the splice, since a * b <= b
    return st.one_of(
        st.builds(Product, children, children),
        st.builds(SurvivalComplementProduct, children, children),
        st.builds(Convex, _levels, children, children),
        st.builds(Clamp, children, children, children),
        st.builds(lambda x, a, b: Switch(x, Product(a, b), b),
                  st.sampled_from(LATTICE), children, children),
    )


composites = st.recursive(_leaves, _extend, max_leaves=5).filter(
    lambda f: not isinstance(f, (Discrete, DiracStep, Exponential))
)


def _assert_jump_rule(f):
    """A composite's jump points are its parts' union (a Switch's the splice
    rule), sorted, and its limit table is built on them."""
    if isinstance(f, Switch):
        want = {x for x in f.before.jump_points() if x < f.point}
        want |= {x for x in f.after.jump_points() if x >= f.point} | {f.point}
    elif isinstance(f, (Product, SurvivalComplementProduct, Convex, Clamp)):
        parts = (f.base, f.lower, f.upper) if isinstance(f, Clamp) else (f.first, f.second)
        want = set().union(*(part.jump_points() for part in parts))
    else:
        return
    assert f.jump_points() == tuple(sorted(want))
    assert f._limits.xs == f.jump_points()


@given(composites, st.lists(st.floats(1e-9, 1.0 - 1e-9), max_size=4))
# the splice point 1.0 is listed as a jump point although F is continuous there
@example(Switch(1.0, Exponential(1.0), Exponential(1.0)), [0.25, 0.9])
@settings(max_examples=150, deadline=None)
def test_table_preimages_equal_the_linear_scan_bit_for_bit(f, extra):
    _assert_jump_rule(f)
    # a level equal to a limit at a jump is a tie, where >= and <= decide the answer
    levels = {lim(x) for x in f.jump_points() for lim in (f.left_limit, f.right_limit)}
    levels.update(extra)
    for u in sorted(v for v in levels if 0.0 < v < 1.0):
        # a pwl function runs its own smallest-side search, not the table's
        if not isinstance(f, PiecewiseLinearWithJumps):
            assert f.smallest_preimage(u).hex() == scan_smallest_preimage(f, u).hex(), u
        assert f.largest_preimage(u).hex() == scan_largest_preimage(f, u).hex(), u


# -- continuous stretches against the plain bisection ------------------------

# the box kinds and shocks of the n = 12 benchmark models, and Dirac shocks
_boxes = st.one_of(
    st.floats(0.3, 3.0).map(Exponential),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 3.0)).map(lambda p: Uniform(p[0], p[0] + p[1])),
    _pwl(),
)
_shocks = st.one_of(st.floats(0.3, 3.0).map(Exponential), st.sampled_from(LATTICE).map(DiracStep))
_lifetimes = st.builds(lambda join, box, shock: join(box, shock),
                       st.sampled_from([lifetime_max, lifetime_min]), _boxes, _shocks)

# the generators' star probe, a level below the margin, one near 1 and the last float below 1
_EDGE_LEVELS = (STAR_PROBE, 1e-300, 1.0 - 2.0**-30, math.nextafter(1.0, 0.0))


@given(st.one_of(composites, _lifetimes), st.lists(st.floats(1e-9, 1.0 - 1e-9), max_size=3))
@settings(max_examples=150, deadline=None)
def test_continuous_preimages_equal_the_bisection_bit_for_bit(f, extra):
    levels = {lim(x) for x in f.jump_points() for lim in (f.left_limit, f.right_limit)}
    levels.update(_EDGE_LEVELS, extra)
    for u in sorted(v for v in levels if 0.0 < v < 1.0):
        if not isinstance(f, PiecewiseLinearWithJumps):
            assert f.smallest_preimage(u).hex() == scan_smallest_preimage(f, u).hex(), u
        assert f.largest_preimage(u).hex() == scan_largest_preimage(f, u).hex(), u


class _CountingFn(DistributionFn):
    """Delegates to fn and counts its value calls; searches run on the wrapper."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self._limits = fn._limits

    def value(self, x):
        self.calls += 1
        return self.fn.value(x)

    def left_limit(self, x):
        return self.fn.left_limit(x)

    def right_limit(self, x):
        return self.fn.right_limit(x)

    def jump_points(self):
        return self.fn.jump_points()


def _calls(fn, search, u):
    fn.calls = 0
    search(u)
    return fn.calls


@pytest.mark.parametrize("f", [Product(Exponential(0.5), Exponential(1.4)),
                               SurvivalComplementProduct(Uniform(0.0, 2.0), Exponential(1.0))])
def test_continuous_preimages_take_at_most_half_the_bisection_evaluations(f):
    # 47 levels on a grid and three below the margin, where no lower band edge
    # can be certified
    levels = [k / 48 for k in range(1, 48)] + [1e-20, 1e-18, 1e-16]
    fn = _CountingFn(f)
    ours = theirs = 0
    for u in levels:
        for search, reference in ((fn.smallest_preimage, scan_smallest_preimage),
                                  (fn.largest_preimage, scan_largest_preimage)):
            n = _calls(fn, search, u)
            n_ref = _calls(fn, lambda v: reference(fn, v), u)
            assert n <= n_ref + _SEARCH_STEPS, (u, n, n_ref)
            ours += n
            theirs += n_ref
    assert 2 * ours <= theirs, (ours, theirs)


# -- array values ------------------------------------------------------------

_COORDS = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])


@st.composite
def _discretes(draw):
    xs = draw(st.lists(_COORDS, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 7), min_size=len(xs), max_size=len(xs)))
    # masses like 1/3 whose running sum rounds away from the exact fractions
    return Discrete([(x, w / sum(weights)) for x, w in zip(xs, weights)])


_LEAVES = st.one_of(
    _discretes(),
    _COORDS.map(DiracStep),
    st.sampled_from([Exponential(0.7), Uniform(0.0, 2.0)]),
)


def _switch(point, before, other):
    # after = 1 - (1 - before)(1 - other) lies above before, so the splice cannot drop
    return Switch(point, before, SurvivalComplementProduct(before, other))


def _composites(children):
    return st.one_of(
        st.builds(Product, children, children),
        st.builds(SurvivalComplementProduct, children, children),
        st.builds(Convex, st.sampled_from([0.0, 0.3, 1.0 / 3.0, 1.0]), children, children),
        st.builds(Clamp, children, children, children),
        st.builds(_switch, _COORDS, children, children),
    )


_NESTED = st.recursive(_LEAVES, _composites, max_leaves=6)


def _edge_arguments(fn):
    """Every jump point and one float either side of it, points outside the
    support, signed zeros and infinities."""
    inf = float("inf")
    xs = {-inf, inf, -0.0, 0.0, -5.0, 10.0}
    for x in fn.jump_points():
        xs.update((x, math.nextafter(x, -inf), math.nextafter(x, inf)))
    return sorted(xs) + [-0.0]


@given(_NESTED)
@settings(max_examples=150, deadline=None)
# a mixture that rounds otherwise as w*(a - b) + b, and a band with its
# lower side above its upper one, where min(max(b, lo), hi) is hi
@example(Convex(0.3, discrete((0.0, 1 / 7), (1.0, 6 / 7)), discrete((0.5, 2 / 7), (2.0, 5 / 7))))
@example(Clamp(DiracStep(5.0), DiracStep(0.0), discrete((1.0, 0.5), (2.0, 0.5))))
def test_values_equal_the_scalar_value_bit_for_bit(fn):
    # the overriding kinds, nested at random among themselves and with the
    # continuous kinds, which keep one value call per entry
    _assert_jump_rule(fn)
    xs = _edge_arguments(fn)
    want = [fn.value(x).hex() for x in xs]
    got = fn.values(np.array(xs))
    assert got.shape == (len(xs),)
    assert [v.hex() for v in got.tolist()] == want
    # any shape, entry by entry
    grid = np.array(xs[: len(xs) // 2 * 2]).reshape(2, -1)
    assert [v.hex() for v in fn.values(grid).ravel().tolist()] == want[: grid.size]


def test_switch_values_evaluate_each_part_on_its_own_entries(monkeypatch):
    before, after = Exponential(1.0), SurvivalComplementProduct(Exponential(2.0), Uniform(0.0, 3.0))
    f = Switch(1.0, before, after)
    xs = [0.25, 1.0, math.nan, math.nextafter(1.0, 0.0), 2.0, -1.0, 1.0, math.inf]
    calls = []
    real = Exponential.value

    def counted(self, x):
        calls.append((id(self), x))
        return real(self, x)

    monkeypatch.setattr(Exponential, "value", counted)
    got = f.values(np.array(xs))
    owned = {id(before): [x for x in xs if x < 1.0],
             id(after.first): [x for x in xs if not x < 1.0]}
    # one call per owned entry, nan and the splice point going to ``after``
    for part, entries in owned.items():
        mine = [x for who, x in calls if who == part]
        assert len(mine) == len(entries)
        assert [repr(x) for x in mine] == [repr(x) for x in entries]
    assert len(calls) == len(xs)
    monkeypatch.undo()
    assert [v.hex() for v in got.tolist()] == [f.value(x).hex() for x in xs]
    assert f.values(np.array([])).shape == (0,)
    assert f.values(np.array([[0.5, 1.0], [math.nan, 3.0]])).shape == (2, 2)


@pytest.mark.parametrize("make", [
    lambda z: Convex(0.3, z, Exponential(1.0)),
    lambda z: Clamp(Exponential(1.0), Product(Exponential(1.0), z), z),
    lambda z: Switch(1.5, Product(Exponential(1.0), z), z),
    lambda z: PiecewiseLinearWithJumps([(0.0, 0.0, 0.25, 0.5), (1.0, 0.75, 0.75, 1.0)]),
], ids=["Convex", "Clamp", "Switch", "pwl"])
def test_the_limit_table_is_built_by_the_first_search(make):
    f = make(discrete((1.0, 0.5), (2.0, 0.5)))
    parts = [part for part in vars(f).values() if isinstance(part, DistributionFn)]
    assert len(parts) == {Convex: 2, Clamp: 3, Switch: 2}.get(type(f), 0)
    xs = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    for x in xs:
        f.value(x)
        f.left_limit(x)
    f.values(np.array(xs))
    f.jump_points()
    # evaluation builds no table, in the function or in its parts
    assert "_limits" not in vars(f)
    assert all("_limits" not in vars(part) for part in parts)
    # a pwl function's smallest preimage is a scan of its own, not a table search
    searches = [f.largest_preimage] if isinstance(f, PiecewiseLinearWithJumps) else \
        [f.smallest_preimage, f.largest_preimage]
    for search in searches:
        search(0.6)
        table = vars(f)["_limits"]
        search(0.3)
        assert vars(f)["_limits"] is table
    assert all("_limits" not in vars(part) for part in parts)
    want = _LimitTable.of(f)
    for name in _LimitTable._fields:
        assert getattr(table, name) == getattr(want, name), name


def test_step_tables_are_read_from_the_limits():
    z = discrete((1.0, 0.5), (2.0, 0.5))
    assert Product(discrete((0.5, 1.0)), z)._limits.steps
    assert Convex(0.3, z, DiracStep(1.5))._limits.steps
    # a continuous stretch anywhere, or no jump at all, is not a step function
    assert not Product(Uniform(0.0, 2.0), z)._limits.steps
    assert not SurvivalComplementProduct(Exponential(1.0), z)._limits.steps
    assert not Product(Exponential(1.0), Exponential(2.0))._limits.steps
    # a continuous part that the other factor hides leaves steps
    assert Product(Uniform(0.0, 1.0), DiracStep(2.0))._limits.steps
