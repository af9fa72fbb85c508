"""Reference theorem checks: the per-point loops of the theorem suite.

These are the instance checks ``verify.suite_theorems`` ran before it
checked each instance's whole point stack at once: every defining
relation, dagger, star and order is evaluated with scalar ``value``,
generator, ``star`` and ``dagger`` calls, one point, coordinate, bound and
combination at a time, and every comparison of a stacked law or copula is
made point by point.  :func:`suite_theorems` runs the suite with these
checks in place of the package's; the tests require the two reports to be
equal, failures, their order and the raised errors included.

Each instance's label, bound family, members and marginals, and the
instance counts, come from ``verify.suite_theorems`` itself, which builds
bound families through ``verify.build_bounds``; the member copulas here are
built through it too, so that a test which replaces it plants the same fault
in both paths.
"""

from unittest import mock

import numpy as np

from shockcopula import verify
from shockcopula.copulas import joint_marshall_values, joint_maxmin_values, joint_rmm_values
from shockcopula.imprecise import (
    H_bounds_values,
    maxmin_mixed_vectors,
    rmm_envelope_full_scan_values,
    rmm_envelope_values,
)
from shockcopula.verify import (
    _columns,
    _lattice_points,
    _unit_points,
)


def joint_law_checks(rng, reports, label, bf, count, law, marginals,
                     bounding, sandwich_tol, composition_tol):
    lattice = _lattice_points(rng, count, bf.n)
    xs = _columns(lattice, bf.n)
    lows, highs = (h.tolist() for h in H_bounds_values(bf, xs))
    mids = [law(margins, xs).tolist() for margins in marginals]
    want_lows, want_highs = (law(components, xs).tolist() for components in bounding)
    for q, (x, lo, hi) in enumerate(zip(lattice, lows, highs)):
        for values in mids:
            if not (lo <= values[q] + sandwich_tol and values[q] <= hi + sandwich_tol):
                reports["composed-sandwich"].record(label, x, (lo, hi), values[q])
        want_lo, want_hi = want_lows[q], want_highs[q]
        if abs(lo - want_lo) > composition_tol or abs(hi - want_hi) > composition_tol:
            reports["H-composition"].record(label, x, (want_lo, want_hi), (lo, hi))
    return lattice


def copula_sandwich(report, label, unit, lower, upper, members, tol):
    us = _columns(unit, lower.n)
    lows, highs = lower.values(us).tolist(), upper.values(us).tolist()
    mids = [verify.build_bounds(m).lower_gen.values(us).tolist() for m in members]
    for q, u in enumerate(unit):
        for values in mids:
            if not (lows[q] <= values[q] + tol and values[q] <= highs[q] + tol):
                report.record(label, u, (lows[q], highs[q]), values[q])


def theorem_checks_marshall(rng, model, label, bf, members, marginals, points, reports):
    n = model.n
    z = model.exogenous

    copula_sandwich(reports["copula-sandwich"], label, _unit_points(rng, points, n),
                    bf.lower_gen, bf.upper_gen, members, 1e-12)

    lattice = joint_law_checks(
        rng, reports, label, bf, points, lambda comps, xs: joint_marshall_values(comps, z, xs),
        marginals, ([b.lower for b in model.endogenous], [b.upper for b in model.endogenous]),
        1e-12, 1e-12)
    for x in lattice:
        for k in range(n):
            for gen, G, Fk in (
                (bf.lower_gen.generators[k], bf.lower_G[k], model.endogenous[k].lower),
                (bf.upper_gen.generators[k], bf.upper_G[k], model.endogenous[k].upper),
            ):
                g = G.value(x[k])
                if g > 0.0 and abs(gen(g) - Fk.value(x[k])) > 1e-12:
                    reports["defining-relation"].record(label, [k, x[k]], Fk.value(x[k]), gen(g))

        for k in range(n):
            fz = z.value(x[k])
            for gen, G in ((bf.lower_gen.generators[k], bf.lower_G[k]),
                           (bf.upper_gen.generators[k], bf.upper_G[k])):
                g = G.value(x[k])
                if g > 0.0 and abs(gen.star(g) - 1.0 / fz) > 1e-10:
                    reports["star-identity"].record(label, [k, x[k]], 1.0 / fz, gen.star(g))


def theorem_checks_maxmin(rng, model, label, bf, members, marginals, points, reports):
    n, p = model.n, model.split
    z = model.exogenous

    lattice = joint_law_checks(
        rng, reports, label, bf, points, lambda comps, xs: joint_maxmin_values(comps, z, xs, p),
        marginals, ([b.lower for b in model.endogenous], [b.upper for b in model.endogenous]),
        1e-10, 1e-10)
    for x in lattice:
        for k in range(n):
            for gen, G, Fk in (
                (bf.lower_gen.generators[k], bf.lower_G[k], model.endogenous[k].lower),
                (bf.upper_gen.generators[k], bf.upper_G[k], model.endogenous[k].upper),
            ):
                g = G.value(x[k])
                if k < p:
                    if g > 0.0 and abs(gen(g) - Fk.value(x[k])) > 1e-12:
                        reports["defining-relation"].record(label, [k, x[k]], Fk.value(x[k]), gen(g))
                    if g > 0.0:
                        dag = gen.dagger(g)
                        if abs(dag - z.value(x[k])) > 1e-10:
                            reports["dagger-identity"].record(label, [k, x[k]], z.value(x[k]), dag)
                else:
                    if g < 1.0 and abs(gen(g) - Fk.value(x[k])) > 1e-12:
                        reports["defining-relation"].record(label, [k, x[k]], Fk.value(x[k]), gen(g))
                    if g < 1.0:
                        dag = gen.dagger(g)
                        if abs(dag - z.value(x[k])) > 1e-10:
                            reports["dagger-identity"].record(label, [k, x[k]], z.value(x[k]), dag)

    if n == 2:
        copula_sandwich(reports["bivariate-mixed-sandwich"], label, _unit_points(rng, points, 2),
                        *maxmin_mixed_vectors(bf), members, 1e-10)


def theorem_checks_rmm(rng, model, label, bf, members, marginals, points, reports):
    n, p = model.n, model.split
    z = model.exogenous
    lows = [b.lower for b in model.endogenous]
    ups = [b.upper for b in model.endogenous]

    for t in np.linspace(0.0, 1.0, max(3, points // 25)):
        for k in range(n):
            flo = bf.lower_gen.generators[k](float(t))
            fhi = bf.upper_gen.generators[k](float(t))
            if flo > fhi + 1e-12:
                reports["generator-order"].record(label, [k, float(t)], "lower <= upper", (flo, fhi))

    lattice = joint_law_checks(
        rng, reports, label, bf, points, lambda comps, xs: joint_rmm_values(comps, z, xs, p),
        marginals, (lows[:p] + ups[p:], ups[:p] + lows[p:]), 1e-10, 1e-12)
    for x in lattice:
        for k in range(n):
            if bf.lower_G[k].value(x[k]) > bf.upper_G[k].value(x[k]) + 1e-12:
                reports["marginal-order"].record(
                    label, [k, x[k]], "lower_G <= upper_G",
                    (bf.lower_G[k].value(x[k]), bf.upper_G[k].value(x[k])),
                )

        for i in range(p):
            for gen, G, Fi in ((bf.lower_gen.generators[i], bf.lower_G[i], lows[i]),
                               (bf.upper_gen.generators[i], bf.upper_G[i], ups[i])):
                g = G.value(x[i])
                if g > 0.0 and abs(gen(g) - (Fi.value(x[i]) - g)) > 1e-12:
                    reports["defining-relation"].record(label, [i, x[i]], Fi.value(x[i]) - g, gen(g))
        for j in range(p, n):
            for gen, G, Fj in ((bf.lower_gen.generators[j], bf.upper_G[j], ups[j]),
                               (bf.upper_gen.generators[j], bf.lower_G[j], lows[j])):
                ghat = 1.0 - G.value(x[j])
                want = (1.0 - Fj.value(x[j])) - ghat
                if ghat > 0.0 and abs(gen(ghat) - want) > 1e-12:
                    reports["defining-relation"].record(label, [j, x[j]], want, gen(ghat))

        fzx = [z.value(xi) for xi in x]
        for i in range(p):
            for j in range(p, n):
                if x[i] != x[j] or not 0.0 < fzx[i] < 1.0:
                    continue
                combos = (
                    (bf.lower_gen.generators[i], bf.lower_G[i].value(x[i]),
                     bf.upper_gen.generators[j], 1.0 - bf.lower_G[j].value(x[j])),
                    (bf.lower_gen.generators[i], bf.lower_G[i].value(x[i]),
                     bf.lower_gen.generators[j], 1.0 - bf.upper_G[j].value(x[j])),
                    (bf.upper_gen.generators[i], bf.upper_G[i].value(x[i]),
                     bf.lower_gen.generators[j], 1.0 - bf.upper_G[j].value(x[j])),
                    (bf.upper_gen.generators[i], bf.upper_G[i].value(x[i]),
                     bf.upper_gen.generators[j], 1.0 - bf.lower_G[j].value(x[j])),
                )
                for gi, argi, gj, argj in combos:
                    if argi <= 0.0 or argj <= 0.0:
                        continue
                    prod = gi.star(argi) * gj.star(argj)
                    if abs(prod - 1.0) > 1e-10:
                        reports["star-products"].record(label, [i, j, x[i]], 1.0, prod)

    unit = _unit_points(rng, points, n)
    columns = _columns(unit, n)
    inf_env, sup_env = rmm_envelope_values(bf, columns)
    inf_scan, sup_scan = rmm_envelope_full_scan_values(bf, columns)
    for u, inf_red, sup_red, inf_full, sup_full in zip(
            unit, inf_env.tolist(), sup_env.tolist(), inf_scan.tolist(), sup_scan.tolist()):
        if abs(inf_red - inf_full) > 1e-12:
            reports["envelope-inf-reduction"].record(label, u, inf_full, inf_red)
        gap = abs(sup_red - sup_full)
        if gap > 1e-12:
            reports["envelope-sup-bounded"].record(label, u, sup_full, sup_red)
        if gap > reports["envelope-sup-bounded"].diagnostics.get("max_sup_gap", 0.0):
            reports["envelope-sup-bounded"].diagnostics["max_sup_gap"] = gap
    if n == 2:
        copula_sandwich(reports["bivariate-copula-sandwich"], label, unit,
                        bf.upper_gen, bf.lower_gen, members, 1e-10)


def suite_theorems(seed, **sizes):
    """``verify.suite_theorems`` with the per-point instance checks above."""
    with mock.patch.multiple(verify,
                             _theorem_checks_marshall=theorem_checks_marshall,
                             _theorem_checks_maxmin=theorem_checks_maxmin,
                             _theorem_checks_rmm=theorem_checks_rmm):
        return verify.suite_theorems(seed, **sizes)
