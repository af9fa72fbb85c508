"""Reference marshall and maxmin evaluators and joint laws: the scalar loops and the grid copies.

These are the one-point copula formulas and the dense grid evaluator the
package ran before one array kernel per family served points, point
stacks and grids, and the one-point joint laws it ran before their array
forms (the maxmin one as it evaluated the shock twice per subset).  The
tests require the package to return the same floats.
"""

import math

import numpy as np

from envelope_reference import rmm_from_values
from shockcopula.distfn import lifetime_max, lifetime_min


def marshall_n(gens, u):
    """prod_j phi_j(u_j) * min_i u_i/phi_i(u_i), computed division-free."""
    n = len(gens)
    phis = [float(gen(ui)) for gen, ui in zip(gens, u)]
    if any(p == 0.0 for p in phis):
        return 0.0
    best = math.inf
    for i in range(n):
        term = u[i]
        for j in range(n):
            if j != i:
                term *= phis[j]
        best = min(best, term)
    return best


def maxmin_n(gens, u, p):
    """Maxmin copula with max-type coordinates 0..p-1 and min-type p..n-1,
    expanded over subsets of the min-type block one mask at a time."""
    n = len(gens)
    phi_vals = [float(gens[i](u[i])) for i in range(p)]
    if any(pv == 0.0 for pv in phi_vals):
        return 0.0
    dag_max = [u[i] / phi_vals[i] for i in range(p)]
    chi_vals = [float(gens[j](u[j])) for j in range(p, n)]
    dag_min = []
    for j in range(p, n):
        if u[j] >= 1.0:
            dag_min.append(1.0)
        else:
            cv = chi_vals[j - p]
            dag_min.append((u[j] - cv) / (1.0 - cv))

    m = n - p
    floor = min(dag_max)
    total = 0.0
    for mask in range(1 << m):
        lo = floor
        hi = 0.0
        weight = 1.0
        for b in range(m):
            if mask >> b & 1:
                if dag_min[b] < lo:
                    lo = dag_min[b]
            else:
                weight *= chi_vals[b]
                if dag_min[b] > hi:
                    hi = dag_min[b]
        if lo > hi:
            total += weight * (lo - hi)
    return math.prod(phi_vals) * total


def copula_grid(gv, axes):
    """The marshall and maxmin branches of the dense grid evaluator."""
    n = gv.n
    axes = [np.asarray(a, dtype=float) for a in axes]

    def bc(values, k):
        shape = [1] * n
        shape[k] = values.size
        return values.reshape(shape)

    U = [bc(axes[k], k) for k in range(n)]
    F = [bc(np.array([float(gen(t)) for t in axes[k]]), k) for k, gen in enumerate(gv.generators)]

    if gv.family == "marshall":
        terms = []
        for i in range(n):
            t = U[i]
            for j in range(n):
                if j != i:
                    t = t * F[j]
            terms.append(t)
        out = terms[0]
        for t in terms[1:]:
            out = np.minimum(out, t)
        return out

    p = gv.split
    m = n - p
    dag_max = []
    for i in range(p):
        safe = np.where(F[i] > 0.0, F[i], 1.0)
        dag_max.append(np.where(F[i] > 0.0, U[i] / safe, 0.0))
    dag_min = []
    for b in range(m):
        cj = F[p + b]
        denom = 1.0 - cj
        safe = np.where(denom > 0.0, denom, 1.0)
        dag_min.append(np.where(U[p + b] >= 1.0, 1.0, (U[p + b] - cj) / safe))
    floor = dag_max[0]
    for d in dag_max[1:]:
        floor = np.minimum(floor, d)
    total = np.zeros([a.size for a in axes])
    for mask in range(1 << m):
        lo = floor
        hi = None
        weight = None
        for b in range(m):
            if mask >> b & 1:
                lo = np.minimum(lo, dag_min[b])
            else:
                weight = F[p + b] if weight is None else weight * F[p + b]
                hi = dag_min[b] if hi is None else np.maximum(hi, dag_min[b])
        bracket = np.maximum(lo if hi is None else lo - hi, 0.0)
        total = total + (bracket if weight is None else weight * bracket)
    prefactor = F[0]
    for i in range(1, p):
        prefactor = prefactor * F[i]
    return prefactor * total


def joint_maxmin_H(components, shock, x, p):
    """The maxmin joint law, asking the shock for both of its terms at every
    subset of the min-type block."""
    n = len(components)
    ft = math.prod(components[i].value(x[i]) for i in range(p))
    min_t = min(x[:p])
    m = n - p
    fs = [components[p + b].value(x[p + b]) for b in range(m)]
    total = 0.0
    for mask in range(1 << m):
        lo_arg = min_t
        hi_fz = -math.inf
        weight = ft
        empty_rest = True
        for b in range(m):
            xj = x[p + b]
            if mask >> b & 1:
                if xj < lo_arg:
                    lo_arg = xj
            else:
                empty_rest = False
                weight *= fs[b]
                if xj > hi_fz:
                    hi_fz = xj
        fz_lo = 0.0 if empty_rest else shock.value(hi_fz)
        fz_hi = shock.value(lo_arg)
        if fz_hi > fz_lo:
            total += weight * (fz_hi - fz_lo)
    return total


def joint_marshall_H(components, shock, x):
    """P(all max lifetimes <= x_i) = prod_i F_i(x_i) * F_Z(min_i x_i)."""
    return math.prod(f.value(xi) for f, xi in zip(components, x)) * shock.value(min(x))


def joint_rmm_product(components, shock, x, p):
    """prod_T F_i(x_i) * prod_S (1 - F_j(x_j)) * max{0, F_Z(min_T x) - F_Z(max_S x)}."""
    n = len(components)
    ft = math.prod(components[i].value(x[i]) for i in range(p))
    fs_hat = math.prod(1.0 - components[j].value(x[j]) for j in range(p, n))
    delta = shock.value(min(x[:p])) - shock.value(max(x[p:]))
    return ft * fs_hat * max(0.0, delta)


def joint_rmm_Hsigma(gens, components, shock, x):
    """The rmm copula of ``gens`` at C(G_T(x), 1 - G_S(x)), lifetimes built per call,
    by the scalar pair loop at the generator values of the composed arguments."""
    n, p = gens.n, gens.split
    args = []
    for i in range(p):
        args.append(lifetime_max(components[i], shock).value(x[i]))
    for j in range(p, n):
        args.append(1.0 - lifetime_min(components[j], shock).value(x[j]))
    return rmm_from_values(args, [float(gen(a)) for gen, a in zip(gens.generators, args)], p)
