"""Reference rmm envelope: the scalar point-by-point search.

These are the scalar copula formula and envelope scans the package ran
before one array function served points, point stacks and grids.  The tests
require the array code to return the same floats.
"""

import math


def rmm_from_values(u, fvals, p):
    """max{0, min over pairs (i < p <= j) of
    (u_i*u_j - f_i*f_j) * prod_{l != i,j} (u_l + f_l)}."""
    n = len(u)
    if len(fvals) != n:
        raise ValueError(f"expected {n} generator values, got {len(fvals)}")
    if not 1 <= p < n:
        raise ValueError(f"partition must satisfy 1 <= p < n, got p={p!r} for n={n}")
    shifted = [u[l] + fvals[l] for l in range(n)]
    best = math.inf
    for i in range(p):
        for j in range(p, n):
            rest = 1.0
            for l in range(n):
                if l != i and l != j:
                    rest *= shifted[l]
            best = min(best, (u[i] * u[j] - fvals[i] * fvals[j]) * rest)
    return max(0.0, best)


def vertex_values(bf, u):
    flo = [float(g(x)) for g, x in zip(bf.lower_gen.generators, u)]
    fhi = [float(g(x)) for g, x in zip(bf.upper_gen.generators, u)]
    return flo, fhi


def rmm_sup_tuple(u, flo, fhi, p):
    """Generator values of a vertex tuple attaining the rmm maximum.

    Every ``lo_k/u_k`` and ``hi_k/u_k`` is tried as the cap of its block;
    the first (T-cap, S-cap) pair maximising ``A_T*A_S*(1 - c_T*c_S)``
    wins, T-caps outermost.  On a face ``u_l = 0`` the all-upper tuple is
    used.
    """
    n = len(u)
    if 0.0 in u:
        return fhi
    rlo = [f / x for f, x in zip(flo, u)]
    rhi = [f / x for f, x in zip(fhi, u)]
    blocks = []
    for block in (range(p), range(p, n)):
        floor = max(rlo[block.start:block.stop])
        cands = []
        for k in block:
            for cap in (rlo[k], rhi[k]):
                if cap >= floor:
                    a = 1.0
                    for m in block:
                        if m != k:
                            a *= 1.0 + (rhi[m] if rhi[m] <= cap else rlo[m])
                    cands.append((cap, a))
        blocks.append(cands)
    best = -math.inf
    win = None
    for cap_t, a_t in blocks[0]:
        for cap_s, a_s in blocks[1]:
            obj = a_t * a_s * (1.0 - cap_t * cap_s)
            if obj > best:
                best, win = obj, (cap_t, cap_s)
    if win is None:
        return fhi
    return [fhi[k] if rhi[k] <= win[k >= p] else flo[k] for k in range(n)]


def envelope(bf, u):
    """(inf, sup): the reduced inf scan and the star-form sup tuple."""
    flo, fhi = vertex_values(bf, u)
    n, p = bf.n, bf.split
    inf_val = math.inf
    for i in range(p):
        for j in range(p, n):
            vals = list(flo)
            vals[i] = fhi[i]
            vals[j] = fhi[j]
            inf_val = min(inf_val, rmm_from_values(u, vals, p))
    return inf_val, rmm_from_values(u, rmm_sup_tuple(u, flo, fhi, p), p)


def full_scan(bf, u):
    """(min, max) over all 2^n vertex tuples, one tuple at a time."""
    flo, fhi = vertex_values(bf, u)
    n, p = bf.n, bf.split
    inf_val = math.inf
    sup_val = -math.inf
    for mask in range(1 << n):
        c = rmm_from_values(u, [fhi[k] if mask >> k & 1 else flo[k] for k in range(n)], p)
        inf_val = min(inf_val, c)
        sup_val = max(sup_val, c)
    return inf_val, sup_val
