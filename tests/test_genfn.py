"""Generator transforms: canonical extensions, stars, daggers, validation."""

import math
import sys
import threading

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generator_reference
from shockcopula.distfn import (
    DiracStep,
    Discrete,
    Exponential,
    PiecewiseLinearWithJumps,
    Uniform,
    lifetime_max,
    lifetime_min,
)
from shockcopula.genfn import (
    DegenerateModelError,
    Generator,
    GeneratorDomainError,
    IdentityGenerator,
    PiecewiseLinearGenerator,
    TruncatedLinear,
    UnitGenerator,
    ZeroGenerator,
    extend_chi,
    extend_phi,
    extend_psi,
    generator_from_spec,
    to_rmm,
    validate,
)

A = 1.0 - math.exp(-1.0)
B = math.exp(-1.0)


def exp_dirac_phi():
    return extend_phi(Exponential(1.0), DiracStep(1.0))


def exp_dirac_chi():
    return extend_chi(Exponential(1.0), DiracStep(1.0))


# -- reference-model closed forms ---------------------------------------------


def test_extended_phi_closed_form():
    phi = exp_dirac_phi()
    assert phi(0.0) == 0.0
    assert phi(1.0) == 1.0
    for u in [1e-6, 0.1, 0.3, A, 0.8, 0.999, 1.0]:
        want = max(u, A)
        assert abs(phi(u) - want) < 1e-12, f"phi({u}) = {phi(u)}, want {want}"


def test_extended_chi_closed_form():
    chi = exp_dirac_chi()
    assert chi(0.0) == 0.0
    assert chi(1.0) == 1.0
    for v in [1e-6, 0.1, A, 0.7, 0.999]:
        want = min(v, A)
        assert abs(chi(v) - want) < 1e-12, f"chi({v}) = {chi(v)}, want {want}"


def test_rmm_transforms_reproduce_truncated_linear_forms():
    f = to_rmm(exp_dirac_phi())
    g = to_rmm(exp_dirac_chi())
    assert f(0.0) == 0.0 and g(0.0) == 0.0
    assert f(1.0) == 0.0 and g(1.0) == 0.0
    for t in [1e-6, 0.05, 0.2, B, A, 0.9, 1.0]:
        assert abs(f(t) - max(A - t, 0.0)) < 1e-12, f"f({t}) = {f(t)}"
        assert abs(g(t) - max(B - t, 0.0)) < 1e-12, f"g({t}) = {g(t)}"
    assert f.star(1.0) == 0.0
    assert g.star(1.0) == 0.0


def test_to_rmm_kind_follows_the_base():
    for base, kind in ((IdentityGenerator("phi"), "rmm_f"), (UnitGenerator("psi"), "rmm_f"),
                       (exp_dirac_phi(), "rmm_f"), (IdentityGenerator("chi"), "rmm_g"),
                       (exp_dirac_chi(), "rmm_g")):
        gen = to_rmm(base)
        assert gen.kind == kind and gen.base is base
        u = 0.3
        assert gen(u) == (base(u) - u if kind == "rmm_f" else 1.0 - u - base(1.0 - u))
    for base in (ZeroGenerator(), TruncatedLinear(0.4, kind="rmm_g")):
        with pytest.raises(ValueError) as err:
            to_rmm(base)
        assert str(err.value) == f"to_rmm expects a phi/psi/chi generator, got kind {base.kind!r}"


def test_defining_relation_on_the_reference_model():
    phi, chi = exp_dirac_phi(), exp_dirac_chi()
    fx, fy, fz = Exponential(1.0), Exponential(1.0), DiracStep(1.0)
    gmax = lifetime_max(fx, fz)
    gmin = lifetime_min(fy, fz)
    for x in [1.0, 1.5, 2.0, 5.0]:          # gmax(x) > 0 needs x >= 1 here
        assert abs(phi(gmax.value(x)) - fx.value(x)) < 1e-12
    for y in [0.0, 0.25, 0.5, 0.999]:       # gmin(y) < 1 needs y < 1 here
        assert abs(chi(gmin.value(y)) - fy.value(y)) < 1e-12


# -- extensions on discrete models --------------------------------------------


def test_phi_extension_handles_jump_plateaus():
    comp = Discrete(((1.0, 0.5), (3.0, 0.5)))
    shock = Discrete(((2.0, 0.4), (4.0, 0.6)))
    phi = extend_phi(comp, shock)
    g = lifetime_max(comp, shock)
    # defining relation at every support corner with G > 0
    for x in [2.0, 2.5, 3.0, 3.5, 4.0, 7.0]:
        gx = g.value(x)
        if gx > 0.0:
            assert abs(phi(gx) - comp.value(x)) < 1e-12, f"phi(G({x}))"
    # G jumps 0 -> 0.2 at x=2, but that jump is all the shock's doing
    # (the component is flat there), so the extension holds the component
    # value across it instead of interpolating
    assert phi(0.1) == 0.5


def test_phi_extension_interpolates_where_jumps_coincide():
    comp = Discrete(((2.0, 0.5), (4.0, 0.5)))
    shock = Discrete(((2.0, 0.4), (4.0, 0.6)))
    phi = extend_phi(comp, shock)
    # at x=2 both factors jump: G goes 0 -> 0.2 while the component's share
    # spans 0 -> 0.5, so the middle branch divides out the shock level 0.4
    assert abs(phi(0.1) - 0.1 / 0.4) < 1e-12
    # at x=4 the component spans 0.5 -> 1.0 at shock level 1.0; below that
    # span the left value holds, inside it phi is u itself
    assert phi(0.3) == 0.5
    assert phi(0.7) == 0.7


def test_chi_extension_handles_jump_plateaus():
    comp = Discrete(((1.0, 0.5), (3.0, 0.5)))
    shock = Discrete(((2.0, 0.4), (4.0, 0.6)))
    chi = extend_chi(comp, shock)
    g = lifetime_min(comp, shock)
    for y in [0.5, 1.0, 1.5, 2.0, 3.0, 3.5]:
        gy = g.value(y)
        if gy < 1.0:
            assert abs(chi(gy) - comp.value(y)) < 1e-12, f"chi(G({y}))"


def test_extension_point_consistency_gap_is_zero():
    comp = Discrete(((1.0, 0.25), (2.0, 0.5), (3.0, 0.25)))
    shock = Discrete(((1.5, 0.5), (2.5, 0.5)))
    for gen in (extend_phi(comp, shock), extend_chi(comp, shock)):
        grid = [k / 64 for k in range(1, 64)]
        assert gen.consistency_gap(grid) <= 1e-12


def test_extension_branch_boundaries_are_continuous():
    comp = Discrete(((1.0, 0.5), (3.0, 0.5)))
    shock = Discrete(((2.0, 0.4), (4.0, 0.6)))
    phi = extend_phi(comp, shock)
    for edge in phi.breakpoints():
        if 0.0 < edge < 1.0:
            below = math.nextafter(edge, 0.0)
            above = math.nextafter(edge, 1.0)
            jump = abs(phi(above) - phi(below))
            assert jump < 1e-9 or phi(edge) in (phi(below), phi(above)), (
                f"phi discontinuous at breakpoint {edge}: {phi(below)}..{phi(above)}"
            )


# -- stars, substars, daggers --------------------------------------------------


def test_star_of_reference_phi_hits_its_plateau():
    phi = exp_dirac_phi()
    assert abs(phi.star(A) - 1.0) < 1e-12          # phi(u) = u from A on
    assert abs(phi.star(0.5 * A) - 2.0) < 1e-12    # phi(u) = A below A
    assert phi.star(1.0) == 1.0


def test_star_at_zero_conventions():
    assert IdentityGenerator().star(0.0) == 1.0
    assert UnitGenerator().star(0.0) == math.inf
    assert ZeroGenerator().star(0.0) == 0.0
    assert TruncatedLinear(0.5).star(0.0) == math.inf


def test_star_rejects_out_of_domain():
    with pytest.raises(GeneratorDomainError):
        IdentityGenerator().star(1.5)
    with pytest.raises(GeneratorDomainError):
        IdentityGenerator().star(-0.1)


def test_substar_conventions():
    chi = IdentityGenerator(kind="chi")
    # chi(v) = v: the defining ratio degenerates to +inf on (0, 1), 1 at 1
    assert chi.substar(0.5) == math.inf
    assert chi.substar(1.0) == 1.0
    ref = exp_dirac_chi()
    for v in [A + 0.05, A + 0.2, 0.99]:
        want = (1.0 - A) / (v - A)
        assert abs(ref.substar(v) - want) < 1e-12
    assert ref.substar(0.5 * A) == math.inf      # chi(v) = v below the plateau


def test_substar_is_decreasing_for_reference_chi():
    ref = exp_dirac_chi()
    vals = [ref.substar(v) for v in [0.7, 0.8, 0.9, 0.99, 1.0]]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), vals


def test_dagger_conventions():
    phi = exp_dirac_phi()
    assert abs(phi.dagger(0.5 * A) - 0.5 * A / A) < 1e-12     # u / phi(u)
    assert phi.dagger(1.0) == 1.0
    chi = exp_dirac_chi()
    assert chi.dagger(1.0) == 1.0                              # convention at 1
    v = A + 0.1
    assert abs(chi.dagger(v) - (v - A) / (1.0 - A)) < 1e-12
    with pytest.raises(GeneratorDomainError):
        phi.dagger(0.0)
    with pytest.raises(GeneratorDomainError):
        chi.dagger(1.0 + 1e-9)


def test_dagger_degenerate_cases_raise():
    class StuckAtOne(Generator):
        kind = "chi"

        def __call__(self, u):
            return 1.0 if u > 0.5 else u

    with pytest.raises(DegenerateModelError):
        StuckAtOne().dagger(0.75)


# -- closed-form generators ----------------------------------------------------


def test_truncated_linear_validates_parameters():
    with pytest.raises(ValueError):
        TruncatedLinear(0.0)
    with pytest.raises(ValueError):
        TruncatedLinear(1.0)
    with pytest.raises(ValueError):
        TruncatedLinear(0.5, scale=0.0)
    with pytest.raises(ValueError):
        TruncatedLinear(0.5, scale=1.5)
    with pytest.raises(ValueError):
        TruncatedLinear(0.5, kind="phi")


def test_piecewise_linear_generator_interpolates_exactly():
    table = PiecewiseLinearGenerator("phi", (0.0, 0.25, 1.0), (0.0, 0.5, 1.0))
    assert table(0.25) == 0.5
    assert table(0.125) == 0.25
    assert table(0.0) == 0.0 and table(1.0) == 1.0
    with pytest.raises(ValueError):
        PiecewiseLinearGenerator("phi", (0.0, 0.5), (0.0,))
    with pytest.raises(ValueError):
        PiecewiseLinearGenerator("phi", (0.1, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        PiecewiseLinearGenerator("phi", (0.0, 0.5, 0.5, 1.0), (0.0, 0.2, 0.4, 1.0))


# -- validation ----------------------------------------------------------------


def test_validate_accepts_reference_generators():
    for gen in (
        exp_dirac_phi(),
        exp_dirac_chi(),
        to_rmm(exp_dirac_phi()),
        to_rmm(exp_dirac_chi()),
        IdentityGenerator(),
        IdentityGenerator(kind="chi"),
        UnitGenerator(),
        ZeroGenerator(),
        TruncatedLinear(0.4, scale=0.8),
    ):
        report = validate(gen)
        assert report.passed, f"{gen!r}: {report.issues[:3]}"
        assert report.diagnostics["max_adjacent_gap"] >= 0.0


def test_validate_reports_extension_diagnostic():
    report = validate(exp_dirac_phi())
    assert "x0_choice_gap" in report.diagnostics
    assert report.diagnostics["x0_choice_gap"] <= 1e-12


def test_validate_flags_increasing_star_ratio():
    class Square(Generator):
        kind = "phi"

        def __call__(self, u):
            u = float(u)
            return min(max(u, 0.0), 1.0) ** 2

    report = validate(Square())
    conditions = {i.condition for i in report.issues}
    assert "star-decreasing" in conditions, report.to_dict()


def test_validate_flags_bad_rmm_endpoint():
    class LeftoverAtOne(Generator):
        kind = "rmm_f"

        def __call__(self, u):
            return 0.2 if u > 0.0 else 0.0

    report = validate(LeftoverAtOne())
    conditions = {i.condition for i in report.issues}
    assert "endpoint-1" in conditions
    assert "star-at-1" in conditions


def test_validate_flags_nonmonotone_table():
    falling = PiecewiseLinearGenerator("chi", (0.0, 0.25, 0.5, 1.0), (0.0, 0.7, 0.5, 1.0))
    report = validate(falling)
    assert "monotone" in {i.condition for i in report.issues}, report.to_dict()
    # monotone but sagging below the chord, so the ratio phi(u)/u rises
    sagging = PiecewiseLinearGenerator("phi", (0.0, 0.5, 1.0), (0.0, 0.1, 1.0))
    report = validate(sagging)
    assert "star-decreasing" in {i.condition for i in report.issues}, report.to_dict()


@pytest.mark.parametrize("gen, want", [
    (PiecewiseLinearGenerator("psi", (0.0, 0.25, 0.5, 1.0), (0.1, 0.7, 0.5, 1.2)),
     [("codomain", 1.0), ("endpoint-0", 0.0), ("endpoint-1", 1.0), ("monotone", 0.5),
      ("star-decreasing", 0.75), ("star-decreasing", 1.0)]),
    (PiecewiseLinearGenerator("chi", (0.0, 0.25, 0.5, 1.0), (0.2, 0.7, 0.5, 0.9)),
     [("endpoint-0", 0.0), ("endpoint-1", 1.0), ("monotone", 0.5), ("substar-codomain", 0.0),
      ("substar-codomain", 0.25), ("substar-decreasing", 0.25), ("substar-decreasing", 0.5)]),
    (PiecewiseLinearGenerator("rmm_g", (0.0, 0.25, 0.5, 1.0), (0.1, 0.6, 0.1, 0.3)),
     [("endpoint-0", 0.0), ("endpoint-1", 1.0), ("star-at-1", 1.0), ("shifted-monotone", 0.5),
      ("star-decreasing", 0.75), ("star-decreasing", 1.0)]),
], ids=["max", "chi", "rmm"])
def test_validate_lists_every_issue_in_order(gen, want):
    report = validate(gen, samples=5)
    assert [(i.condition, i.argument) for i in report.issues] == want


# -- json constructors -----------------------------------------------------------


def test_generator_from_spec_variants():
    f = generator_from_spec({"kind": "rmm_f", "form": "truncatedLinear", "c": 0.3, "scale": 0.5})
    assert isinstance(f, TruncatedLinear) and f(0.1) == 0.5 * (0.3 - 0.1)

    phi = generator_from_spec({
        "kind": "phi",
        "from_shocks": {"x": {"kind": "exponential", "rate": 1.0},
                        "z": {"kind": "dirac", "location": 1.0}},
    })
    assert abs(phi(0.5) - max(0.5, A)) < 1e-12

    table = generator_from_spec({"kind": "chi", "table": {"us": [0.0, 1.0], "vs": [0.0, 1.0]}})
    assert table(0.5) == 0.5

    ident = generator_from_spec({"kind": "psi", "form": "identity"})
    assert ident(0.3) == 0.3

    with pytest.raises(ValueError):
        generator_from_spec({"kind": "phi", "form": "cubic"})
    with pytest.raises(ValueError):
        generator_from_spec({"kind": "phi"})


# -- property tests ---------------------------------------------------------------


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_truncated_linear_always_validates(c, scale):
    report = validate(TruncatedLinear(c, scale=scale), samples=65)
    assert report.passed, report.to_dict()


discrete_dists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20).map(lambda k: k * 0.5),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=5,
).map(lambda pairs: Discrete(tuple((x, w / sum(q for _, q in pairs)) for x, w in pairs)))


@given(discrete_dists, discrete_dists)
@settings(max_examples=60, deadline=None)
def test_extensions_of_random_discrete_models_validate(comp, shock):
    for gen in (extend_phi(comp, shock), extend_psi(comp, shock), extend_chi(comp, shock)):
        report = validate(gen, samples=129)
        assert report.passed, f"{gen.kind}: {report.issues[:3]}"


@given(discrete_dists, discrete_dists)
@settings(max_examples=60, deadline=None)
def test_defining_relations_on_random_discrete_models(comp, shock):
    phi = extend_phi(comp, shock)
    chi = extend_chi(comp, shock)
    gmax = lifetime_max(comp, shock)
    gmin = lifetime_min(comp, shock)
    for x in [k * 0.5 for k in range(22)]:
        up = gmax.value(x)
        if up > 0.0:
            assert abs(phi(up) - comp.value(x)) < 1e-12, f"phi(G({x}))"
        lo = gmin.value(x)
        if lo < 1.0:
            assert abs(chi(lo) - comp.value(x)) < 1e-12, f"chi(G({x}))"


# -- per-jump rows against the reference extension -------------------------------

_LATTICE = [k * 0.5 for k in range(-2, 13)]
_levels = st.one_of(st.sampled_from([k / 8 for k in range(9)]), st.floats(0.0, 1.0))


@st.composite
def _pwl_with_jumps(draw):
    xs = sorted(draw(st.sets(st.sampled_from(_LATTICE), min_size=1, max_size=4)))
    inner = sorted(draw(st.lists(_levels, min_size=3 * len(xs) - 2, max_size=3 * len(xs) - 2)))
    vals = [0.0, *inner, 1.0]
    return PiecewiseLinearWithJumps([(x, *vals[3 * i:3 * i + 3]) for i, x in enumerate(xs)])


_components = st.one_of(discrete_dists, _pwl_with_jumps(),
                        st.sampled_from([0.5, 1.0, 2.0]).map(Exponential))
# a pwl shock's point value may lie strictly between its limits
_jump_shocks = st.one_of(st.sampled_from(_LATTICE).map(DiracStep), discrete_dists,
                         _pwl_with_jumps(), st.sampled_from([0.5, 1.0]).map(Exponential))


def _outcome(call, *args):
    """The float's hex, or the DegenerateModelError text."""
    try:
        return call(*args).hex()
    except DegenerateModelError as exc:
        return f"DegenerateModelError: {exc}"


@given(_components, _jump_shocks, st.lists(st.floats(0.0, 1.0), max_size=4))
@settings(max_examples=150, deadline=None)
def test_jump_rows_give_the_reference_extension_bit_for_bit(component, shock, extra):
    for make in (extend_phi, extend_chi):
        gen = make(component, shock)
        lifetime = gen.lifetime
        jumps = lifetime.jump_points()
        assert set(gen.rows) == set(jumps)
        # the lifetime's limits and both branch edges at every jump, their
        # neighbouring floats, the two endpoints and random levels
        levels = {0.0, 1.0, *extra}
        for x in jumps:
            lo, hi = component.left_limit(x), component.right_limit(x)
            z = shock.value(x)
            edges = ((generator_reference.survival_join(lo, z), generator_reference.survival_join(hi, z))
                     if gen.kind == "chi" else (lo * z, hi * z))
            for level in (lifetime.left_limit(x), lifetime.right_limit(x), *edges):
                levels.update((level, math.nextafter(level, -1.0), math.nextafter(level, 2.0)))
        levels = sorted(v for v in levels if 0.0 <= v <= 1.0)
        for u in levels:
            assert gen(u).hex() == generator_reference.value(gen, u).hex(), (gen.kind, u)
            assert (gen.value_with_largest_x0(u).hex()
                    == generator_reference.value(gen, u, largest=True).hex()), (gen.kind, u)
        # at every jump (a row) and off the jumps (computed), every branch,
        # including the degenerate one at the endpoint levels
        points = list(jumps) + [x + 0.25 for x in jumps] + [-1.0, 0.1]
        for x in points:
            for u in levels:
                assert (_outcome(gen._value_at, u, x)
                        == _outcome(generator_reference.value_at, gen, u, x)), (gen.kind, u, x)
        assert gen.breakpoints() == generator_reference.breakpoints(gen)


# -- the last-call memo against fresh generators ---------------------------------

_OPERATIONS = ("call", "value_with_largest_x0", "star", "substar", "dagger", "rmm")


def _hex_or_error(call, *args):
    """The float's hex, or the error's type and text."""
    try:
        return call(*args).hex()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _answer(gen, operation, u):
    call = gen if operation == "call" else to_rmm(gen) if operation == "rmm" else getattr(gen, operation)
    return _hex_or_error(call, u)


@given(_components, _jump_shocks, st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3), st.data())
@settings(max_examples=80, deadline=None)
def test_remembered_calls_answer_as_fresh_generators_bit_for_bit(component, shock, extra, data):
    for make in (extend_phi, extend_psi, extend_chi):
        gen = make(component, shock)
        a, b = extra[:2]
        levels = [*extra, 0.0, -0.0, 1.0]
        levels += [gen.lifetime.right_limit(x) for x in gen.lifetime.jump_points()[:2]]
        # a repeat, alternation, the transforms after a call at their point,
        # the ends, then drawn sequences
        steps = [("call", a), ("call", a), ("call", b), ("call", a), ("call", b), ("call", b),
                 ("star", b), ("call", a), ("substar", a), ("call", a), ("dagger", a),
                 ("rmm", a), ("rmm", 1.0 - a), ("value_with_largest_x0", a), ("call", a),
                 ("call", 0.0), ("call", a), ("call", -0.0), ("call", 1.0), ("call", a)]
        steps += data.draw(st.lists(st.tuples(st.sampled_from(_OPERATIONS), st.sampled_from(levels)),
                                    max_size=12))
        for operation, u in steps:
            want = _answer(make(component, shock), operation, u)
            assert _answer(gen, operation, u) == want, (gen.kind, operation, u)
            if operation == "call":
                assert want == _hex_or_error(generator_reference.value, gen, u), (gen.kind, u)
        for _ in range(2):
            with pytest.raises(ValueError):
                gen(math.nan)
        assert gen(a).hex() == make(component, shock)(a).hex()


def test_threads_sharing_a_generator_read_whole_memos():
    # continuous lifetime, so every argument that misses the memo searches
    gen = extend_chi(Exponential(1.0), Exponential(2.0))
    args = [0.2, 0.5, 0.8]
    want = {u: extend_chi(Exponential(1.0), Exponential(2.0))(u).hex() for u in args}
    wrong = []

    def work(offset):
        for r in range(1000):
            u = args[(r + offset) % len(args)]
            if gen(u).hex() != want[u]:
                wrong.append(u)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


# -- stacks read from the jump table -------------------------------------------


def _stack_levels(gen, extra):
    """0 and 1, the lifetime's limits and both branch edges at every jump, one
    float either side of each, random levels, and their reflections 1 - u,
    where the rmm_g wrapper asks its base."""
    levels = {0.0, 1.0, *extra}
    for x in gen.lifetime.jump_points():
        for level in (gen.lifetime.left_limit(x), gen.lifetime.right_limit(x), *gen.rows[x][3:]):
            levels.update((level, math.nextafter(level, -1.0), math.nextafter(level, 2.0)))
    levels = sorted(levels)
    return levels + [1.0 - u for u in levels] + [-0.0, -1.0, 2.0]


@given(_components, _jump_shocks, st.lists(st.floats(0.0, 1.0), max_size=4))
@settings(max_examples=80, deadline=None)
def test_stacked_values_equal_scalar_calls_bit_for_bit(component, shock, extra):
    steps = all(isinstance(d, (Discrete, DiracStep)) for d in (component, shock))
    for make in (extend_phi, extend_psi, extend_chi):
        gen = make(component, shock)
        # only a lifetime whose limit table shows no continuous stretch is read from the table
        assert (gen._steps is not None) == gen.lifetime._limits.steps
        assert gen._steps is not None or not steps
        args = _stack_levels(gen, extra)
        for g in (gen, to_rmm(gen)):
            want = [_outcome(make(component, shock) if g is gen else to_rmm(make(component, shock)), u)
                    for u in args]
            got = g.values(np.array(args))
            assert [v.hex() for v in got.tolist()] == want, g.kind
            assert [v.hex() for v in g.values(np.array(args[:4]).reshape(2, 2)).ravel().tolist()] \
                == want[:4]
            with pytest.raises(ValueError, match="got nan"):
                g.values(np.array([0.5, math.nan]))


@pytest.mark.parametrize("base", [
    IdentityGenerator(),
    UnitGenerator(kind="psi"),
    IdentityGenerator(kind="chi"),
    PiecewiseLinearGenerator("phi", (0.0, 0.3, 1.0), (0.0, 0.5, 1.0)),
    PiecewiseLinearGenerator("chi", (0.0, 0.6, 1.0), (0.0, 0.2, 1.0)),
], ids=lambda g: f"{type(g).__name__}-{g.kind}")
def test_rmm_wrappers_stack_closed_form_bases_as_scalar_calls(base):
    # these bases answer nan, and the wrappers' scalar form hands it on
    gen = to_rmm(base)
    args = [0.0, -0.0, 5e-324, 0.25, 0.3, 0.4, 0.6, 1.0 - 2.0 ** -53, 1.0,
            -1.0, 2.0, math.inf, -math.inf, math.nan]
    got = gen.values(np.array(args))
    assert [v.hex() for v in got.tolist()] == [gen(u).hex() for u in args]


@pytest.mark.parametrize("make, z, shock_at", [(extend_phi, 0.0, 1.0), (extend_chi, 1.0, 2.0)])
def test_a_stack_entry_on_a_degenerate_middle_branch_raises_as_a_call(make, z, shock_at):
    # No well-formed model reaches this branch: a shock value of 0 (phi) or 1
    # (chi) puts both ends of the middle branch at 0 or 1.  The first jump's
    # row is set by hand so that it does, in the dict and in the table alike.
    from shockcopula.genfn import _step_table

    gen = make(Discrete([(1.0, 0.25), (2.0, 0.75)]), DiracStep(shock_at))
    x0 = gen.lifetime.jump_points()[0]
    u = gen.lifetime.right_limit(x0)
    assert 0.0 < u < 1.0 and gen.lifetime.smallest_preimage(u) == x0
    lo, hi = gen.rows[x0][:2]
    shift, scale = (z, 1.0 - z) if gen.kind == "chi" else (0.0, z)
    gen.rows[x0] = (lo, hi, shift, scale, 0.5 * u, 0.5 * (1.0 + u))
    object.__setattr__(gen, "_steps", _step_table(gen.lifetime, gen.rows))
    with pytest.raises(DegenerateModelError) as scalar:
        gen(u)
    with pytest.raises(DegenerateModelError) as stacked:
        gen.values(np.array([0.0, 0.9, u, 1.0]))
    assert str(stacked.value) == str(scalar.value)
    # with a nan entry too, the first of the two in C order raises its call's error
    with pytest.raises(ValueError, match="got nan") as nan_call:
        gen(math.nan)
    for stack, first in (([[0.0, math.nan], [u, 1.0]], nan_call), ([[0.9, u], [math.nan, 1.0]], scalar)):
        with pytest.raises(ValueError) as stacked:
            gen.values(np.array(stack))
        assert type(stacked.value) is type(first.value)
        assert str(stacked.value) == str(first.value)


@pytest.mark.parametrize("make", [extend_phi, extend_psi, extend_chi])
@pytest.mark.parametrize("component, shock", [
    (Discrete([(1.0, 0.25), (2.0, 0.5), (3.0, 0.25)]), Discrete([(1.5, 0.5), (2.0, 0.25), (4.0, 0.25)])),
    (Exponential(1.0), DiracStep(1.0)),
])
def test_every_jump_row_holds_both_limits_the_middle_branch_and_its_edges(make, component, shock):
    gen = make(component, shock)
    assert gen.rows
    for x, row in gen.rows.items():
        lo, hi, z = component.left_limit(x), component.right_limit(x), shock.value(x)
        if gen.kind == "chi":
            want = (lo, hi, z, 1.0 - z,
                    generator_reference.survival_join(lo, z), generator_reference.survival_join(hi, z))
        else:
            want = (lo, hi, 0.0, z, lo * z, hi * z)
        assert row == want, x
    steps = isinstance(component, Discrete)
    assert (gen._steps is not None) == steps
    if steps:
        # the rows as columns, a zero scale as nan, then a column of nans
        cols = [row[:3] + (math.nan if row[3] == 0.0 else row[3],) + row[4:]
                for row in (gen.rows[x] for x in sorted(gen.rows))]
        want = np.array(cols + [(math.nan,) * 6]).T
        assert any(math.isnan(col[3]) for col in cols)
        assert [[v.hex() for v in col] for col in gen._steps[1].tolist()] \
            == [[v.hex() for v in col] for col in want.tolist()]


def test_a_step_stack_makes_no_search_while_a_continuous_one_searches_per_entry(monkeypatch):
    from shockcopula.distfn import DistributionFn

    searched = []
    search = DistributionFn.smallest_preimage
    monkeypatch.setattr(DistributionFn, "smallest_preimage",
                        lambda self, t: searched.append(t) or search(self, t))
    us = np.array([0.0, 0.2, 0.7, 0.2, 0.2, 0.9, 1.0])
    step = (Discrete([(0.5, 0.5), (1.5, 0.5)]), Discrete([(1.0, 0.4), (2.0, 0.6)]))
    smooth = (Exponential(1.0), Exponential(2.0))
    for make in (extend_phi, extend_chi):
        for gen in (make(*step), to_rmm(make(*step))):
            gen.values(us)
            assert searched == [], gen.kind
        for gen in (make(*smooth), to_rmm(make(*smooth))):
            gen.values(us)
            # one search per interior entry, as the base sees it, except where
            # the memo holds the entry before
            asked = [t for t in ((1.0 - us) if gen.kind == "rmm_g" else us).tolist() if 0.0 < t < 1.0]
            assert searched == [t for i, t in enumerate(asked) if i == 0 or t != asked[i - 1]], gen.kind
            assert len(searched) == 4
            searched.clear()
