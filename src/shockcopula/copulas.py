"""Copula families induced by common-shock models, and their joint laws.

Three families are implemented, each in a bivariate closed form and an
n-variate form (the two are independent evaluation routes; tests hold them
against each other):

* Marshall: all components die at the latest of their own shock and a
  common shock.  ``C(u) = prod_i phi_i(u_i) * min_i u_i/phi_i(u_i)``,
  zero as soon as some ``phi_i(u_i) = 0``.
* Maxmin: the first ``p`` coordinates are max-type lifetimes, the rest are
  min-type.  The copula expands over subsets of the min-type block.
* Reflected maxmin (rmm): the min-type coordinates enter through survival
  functions, which turns the subset sum into a single min over
  (max-type, min-type) index pairs.

Joint distribution functions of the underlying shock models are provided
alongside (``joint_*``); they are written directly in terms of the
component and shock distribution functions and serve as the ground truth
the copula compositions must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distfn import DistributionFn, lifetime_max, lifetime_min
from .genfn import CHI, PHI, PSI, RMM_F, RMM_G, Generator

__all__ = [
    "MAX_DIMENSION",
    "GeneratorVector",
    "marshall2",
    "maxmin2",
    "rmm2",
    "marshall_n",
    "maxmin_n",
    "rmm_n",
    "rmm_values",
    "joint_marshall_H",
    "joint_maxmin_H",
    "joint_rmm_product",
    "joint_rmm_Hsigma",
]

# The maxmin expansion sums over all subsets of the min-type block, so the
# dimension is capped to keep 2^|S| enumerable.
MAX_DIMENSION = 12

_FAMILIES = ("marshall", "maxmin", "rmm")


def _check_unit(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _check_args(u: Sequence[float], n: int) -> list[float]:
    if len(u) != n:
        raise ValueError(f"expected {n} arguments, got {len(u)}")
    return [_check_unit(ui, f"u{k + 1}") for k, ui in enumerate(u)]


# ---------------------------------------------------------------------------
# bivariate closed forms
# ---------------------------------------------------------------------------


def marshall2(phi: Generator, psi: Generator, u: float, v: float) -> float:
    """min{ v*phi(u), u*psi(v) }, the Marshall copula of two max lifetimes."""
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    if u == 0.0 or v == 0.0:
        return 0.0
    return min(v * phi(u), u * psi(v))


def maxmin2(phi: Generator, chi: Generator, u: float, v: float) -> float:
    """u*v + min{ u*(1-v), (phi(u)-u)*(v-chi(v)) }."""
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    return u * v + min(u * (1.0 - v), (phi(u) - u) * (v - chi(v)))


def rmm2(f: Generator, g: Generator, u: float, v: float) -> float:
    """max{ 0, u*v - f(u)*g(v) }."""
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    return max(0.0, u * v - f(u) * g(v))


# ---------------------------------------------------------------------------
# n-variate forms
# ---------------------------------------------------------------------------


def marshall_n(gens: Sequence[Generator], u: Sequence[float]) -> float:
    """prod_j phi_j(u_j) * min_i u_i/phi_i(u_i), computed division-free."""
    n = len(gens)
    args = _check_args(u, n)
    phis = [float(gen(ui)) for gen, ui in zip(gens, args)]
    if any(p == 0.0 for p in phis):
        return 0.0
    best = math.inf
    for i in range(n):
        term = args[i]
        for j in range(n):
            if j != i:
                term *= phis[j]
        best = min(best, term)
    return best


def maxmin_n(gens: Sequence[Generator], u: Sequence[float], p: int) -> float:
    """Maxmin copula with max-type coordinates 0..p-1 and min-type p..n-1.

    Expands over subsets K of the min-type block:

        prod_{i<p} phi_i(u_i) * sum_K prod_{j in S\\K} chi_j(u_j)
            * max{0, min_{T u K} dag - max_{S\\K} dag}

    where dag is u_i/phi_i(u_i) on the max block and
    (u_j - chi_j(u_j)) / (1 - chi_j(u_j)) on the min block (taken as 1 at
    u_j = 1), and the max over an empty S\\K is 0.
    """
    n = len(gens)
    args = _check_args(u, n)
    if not 1 <= p < n:
        raise ValueError(f"partition must satisfy 1 <= p < n, got p={p!r} for n={n}")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the cap {MAX_DIMENSION}")

    phi_vals = [float(gens[i](args[i])) for i in range(p)]
    if any(pv == 0.0 for pv in phi_vals):
        return 0.0
    dag_max = [args[i] / phi_vals[i] for i in range(p)]
    chi_vals = [float(gens[j](args[j])) for j in range(p, n)]
    dag_min = []
    for j in range(p, n):
        if args[j] >= 1.0:
            dag_min.append(1.0)
        else:
            cv = chi_vals[j - p]
            dag_min.append((args[j] - cv) / (1.0 - cv))

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


def rmm_values(us: Sequence[np.ndarray], fs: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Reflected-maxmin copula over per-coordinate arrays that broadcast together.

    ``us`` and ``fs`` hold the arguments and the precomputed generator
    values ``f_l(u_l)``, one array (or float) per coordinate:

        max{0, min over pairs (i < p <= j) of
            (u_i*u_j - f_i*f_j) * prod_{l != i,j} (u_l + f_l) }

    The products run over ascending ``l`` with elementwise operations only,
    so every entry is the same float whatever the shape of the call.
    """
    n = len(us)
    if len(fs) != n:
        raise ValueError(f"expected {n} generator arrays, got {len(fs)}")
    if not 1 <= p < n:
        raise ValueError(f"partition must satisfy 1 <= p < n, got p={p!r} for n={n}")
    shifted = [us[l] + fs[l] for l in range(n)]
    best = None
    for i in range(p):
        for j in range(p, n):
            t = us[i] * us[j] - fs[i] * fs[j]
            rest = None
            for l in range(n):
                if l != i and l != j:
                    rest = shifted[l] if rest is None else rest * shifted[l]
            if rest is not None:
                t = t * rest
            best = t if best is None else np.minimum(best, t)
    return np.maximum(best, 0.0)


def rmm_n(gens: Sequence[Generator], u: Sequence[float], p: int) -> float:
    """Reflected-maxmin copula; coordinates 0..p-1 max-type, p..n-1 min-type."""
    args = _check_args(u, len(gens))
    fvals = [float(gen(ui)) for gen, ui in zip(gens, args)]
    return float(rmm_values(args, fvals, p))


# ---------------------------------------------------------------------------
# generator vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorVector:
    """A family tag, an ordered tuple of generators, and a block split.

    ``p`` is the size of the max-type block for maxmin/rmm (ignored for
    marshall, where every coordinate is max-type).  Calling the vector
    evaluates the family's copula.
    """

    family: str
    generators: tuple[Generator, ...]
    p: int | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        n = len(self.generators)
        if n < 2:
            raise ValueError("need at least two generators")
        if n > MAX_DIMENSION:
            raise ValueError(f"dimension {n} exceeds the cap {MAX_DIMENSION}")
        kinds = [g.kind for g in self.generators]
        if self.family == "marshall":
            if self.p is not None and self.p != n:
                raise ValueError("marshall has no min-type block; p must be None or n")
            bad = [k for k in kinds if k not in (PHI, PSI)]
            if bad:
                raise ValueError(f"marshall expects phi/psi generators, got {bad}")
            return
        if not isinstance(self.p, int) or not 1 <= self.p < n:
            raise ValueError(f"{self.family} needs an int p with 1 <= p < n, got {self.p!r}")
        if self.family == "maxmin":
            want_max, want_min = (PHI, PSI), (CHI,)
        else:
            want_max, want_min = (RMM_F,), (RMM_G,)
        for k, kind in enumerate(kinds):
            want = want_max if k < self.p else want_min
            if kind not in want:
                raise ValueError(
                    f"coordinate {k + 1} of a {self.family} vector must have kind in "
                    f"{want}, got {kind!r}"
                )

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def split(self) -> int:
        """Size of the max-type block (n for marshall)."""
        return self.n if self.family == "marshall" else self.p  # type: ignore[return-value]

    def __call__(self, u: Sequence[float]) -> float:
        if self.family == "marshall":
            return marshall_n(self.generators, u)
        if self.family == "maxmin":
            return maxmin_n(self.generators, u, self.p)  # type: ignore[arg-type]
        return rmm_n(self.generators, u, self.p)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# joint laws of the underlying shock models
# ---------------------------------------------------------------------------


def joint_marshall_H(
    components: Sequence[DistributionFn], shock: DistributionFn, x: Sequence[float]
) -> float:
    """P(all max lifetimes <= x_i) = prod_i F_i(x_i) * F_Z(min_i x_i)."""
    if len(x) != len(components):
        raise ValueError(f"expected {len(components)} coordinates, got {len(x)}")
    return math.prod(f.value(xi) for f, xi in zip(components, x)) * shock.value(min(x))


def joint_maxmin_H(
    components: Sequence[DistributionFn],
    shock: DistributionFn,
    x: Sequence[float],
    p: int,
) -> float:
    """Joint law with max lifetimes at 0..p-1 and min lifetimes at p..n-1.

    sum over K subsets of the min block of
        prod_{i in T u (S\\K)} F_i(x_i)
        * max{0, F_Z(min over T u K of x) - F_Z(max over S\\K of x)}
    with the F_Z term over an empty S\\K read as 0.
    """
    n = len(components)
    if len(x) != n:
        raise ValueError(f"expected {n} coordinates, got {len(x)}")
    if not 1 <= p < n:
        raise ValueError(f"partition must satisfy 1 <= p < n, got p={p!r} for n={n}")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the cap {MAX_DIMENSION}")
    ft = math.prod(components[i].value(x[i]) for i in range(p))
    min_t = min(x[:p])
    m = n - p
    fs = [components[p + b].value(x[p + b]) for b in range(m)]
    total = 0.0
    for mask in range(1 << m):
        lo_arg = min_t
        hi_fz = 0.0
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


def joint_rmm_product(
    components: Sequence[DistributionFn],
    shock: DistributionFn,
    x: Sequence[float],
    p: int,
) -> float:
    """P(max lifetimes <= x_i for i < p, min lifetimes > x_j for j >= p).

    Equals prod_T F_i(x_i) * prod_S (1 - F_j(x_j))
           * max{0, F_Z(min_T x) - F_Z(max_S x)}.
    """
    n = len(components)
    if len(x) != n:
        raise ValueError(f"expected {n} coordinates, got {len(x)}")
    if not 1 <= p < n:
        raise ValueError(f"partition must satisfy 1 <= p < n, got p={p!r} for n={n}")
    ft = math.prod(components[i].value(x[i]) for i in range(p))
    fs_hat = math.prod(1.0 - components[j].value(x[j]) for j in range(p, n))
    delta = shock.value(min(x[:p])) - shock.value(max(x[p:]))
    return ft * fs_hat * max(0.0, delta)


def joint_rmm_Hsigma(
    gens: GeneratorVector,
    components: Sequence[DistributionFn],
    shock: DistributionFn,
    x: Sequence[float],
) -> float:
    """Compose the rmm copula with its marginals: C(G_T(x), 1 - G_S(x)).

    ``gens`` must be an rmm vector; coordinates below the split compose with
    max-lifetime distribution functions, the rest with survival functions of
    min lifetimes.  With canonically extended generators this reproduces
    :func:`joint_rmm_product`.
    """
    if gens.family != "rmm":
        raise ValueError(f"expected an rmm generator vector, got {gens.family!r}")
    n = gens.n
    if len(components) != n or len(x) != n:
        raise ValueError(f"expected {n} components and coordinates")
    p = gens.split
    args = []
    for i in range(p):
        args.append(lifetime_max(components[i], shock).value(x[i]))
    for j in range(p, n):
        args.append(1.0 - lifetime_min(components[j], shock).value(x[j]))
    return rmm_n(gens.generators, args, p)
