"""Imprecise shock models: p-boxes, bound generators, bound surfaces.

A p-box is a pair of pointwise-ordered distribution functions.  A shock
model carries one p-box per endogenous component plus a precise exogenous
shock distribution (precise components are degenerate p-boxes, so one code
path covers both).  From a model, :func:`build_bounds` derives

* lower/upper lifetime distribution functions per coordinate (always from
  the lower/upper component bound respectively), and
* lower/upper generator vectors.  For max-type coordinates the lower
  generator comes from the lower component bound.  For min-type rmm
  coordinates the order reverses: the lower g-generator is built from the
  upper component bound, ``g_lo(x) = 1 - x - chi_hi(1 - x)``, and vice
  versa.

Bound joint surfaces compose bound copulas with bound marginals; the rmm
envelope is the min and max over all vertex tuples of lower/upper
generator choices, found from a reduced inf scan and a star-form sup
search, point by point or over a whole grid from per-axis generator
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .copulas import (
    MAX_DIMENSION,
    GeneratorVector,
    marshall_n,
    maxmin_n,
    rmm_from_values,
    rmm_n,
    rmm_values,
)
from .distfn import (
    Convex,
    DistributionFn,
    PiecewiseLinearWithJumps,
    Uniform,
    from_spec as dist_from_spec,
    lifetime_max,
    lifetime_min,
    to_spec as dist_to_spec,
)
from .genfn import Generator, extend_chi, extend_phi, to_rmm

__all__ = [
    "PBox",
    "ShockModel",
    "BoundFamily",
    "build_bounds",
    "marshall_bound_copulas",
    "maxmin_bound_copulas",
    "maxmin_bivariate_mixed_bounds",
    "rmm_bivariate_copula_bounds",
    "marshall_H_bounds",
    "maxmin_H_bounds",
    "rmm_H_bounds",
    "rmm_envelope",
    "rmm_envelope_full_scan",
    "rmm_envelope_grid",
    "maxmin_vertex_scan",
    "factorized_pbox",
    "pbox_members",
]

_FAMILIES = ("marshall", "maxmin", "rmm")

# grid points per slab of rmm_envelope_grid; keeps its temporaries small
_SLAB_POINTS = 8192


def _probe_points(*dists: DistributionFn) -> list[float]:
    """Arguments covering the breakpoints and quantile range of the inputs.

    Every jump point, piecewise-linear breakpoint and uniform endpoint is
    included, with the midpoints between consecutive points.  Step,
    uniform and piecewise-linear functions are affine between these points,
    so comparing values and one-sided limits there decides their order
    exactly; for other kinds the points are a sample.
    """
    pts: set[float] = set()
    for d in dists:
        pts.update(d.jump_points())
        if isinstance(d, PiecewiseLinearWithJumps):
            pts.update(bp[0] for bp in d.breakpoints)
        elif isinstance(d, Uniform):
            pts.update((d.a, d.b))
        pts.update(d.smallest_preimage(k / 20) for k in range(1, 20))
    pts.add(0.0)
    out = sorted(pts)
    enriched = list(out)
    for a, b in zip(out, out[1:]):
        enriched.append(0.5 * (a + b))
    if out:
        enriched.append(out[-1] + 1.0)
        enriched.append(out[0] - 1.0)
    return enriched


@dataclass(frozen=True)
class PBox:
    """A pair of distribution functions with lower <= upper pointwise."""

    lower: DistributionFn
    upper: DistributionFn

    def __post_init__(self) -> None:
        for x in _probe_points(self.lower, self.upper):
            for side in ("value", "left_limit", "right_limit"):
                lo = getattr(self.lower, side)(x)
                hi = getattr(self.upper, side)(x)
                if lo > hi + 1e-12:
                    raise ValueError(
                        f"p-box order violated at x={x!r} ({side}): lower={lo!r} > upper={hi!r}"
                    )

    @classmethod
    def precise(cls, dist: DistributionFn) -> "PBox":
        return cls(dist, dist)

    @property
    def is_degenerate(self) -> bool:
        return self.lower is self.upper or self.lower == self.upper

    def member(self, theta: float) -> DistributionFn:
        """theta*lower + (1-theta)*upper; theta=1 is the lower bound."""
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
        if self.is_degenerate:
            return self.lower
        if theta == 1.0:
            return self.lower
        if theta == 0.0:
            return self.upper
        return Convex(theta, self.lower, self.upper)

    @classmethod
    def from_spec(cls, spec: dict) -> "PBox":
        if "lower" in spec or "upper" in spec:
            lo = dist_from_spec(spec["lower"])
            up_spec = spec.get("upper")
            return cls(lo, dist_from_spec(up_spec) if up_spec is not None else lo)
        # a bare distribution spec denotes a degenerate box
        return cls.precise(dist_from_spec(spec))

    def to_spec(self) -> dict:
        return {"lower": dist_to_spec(self.lower), "upper": dist_to_spec(self.upper)}


def pbox_members(box: PBox, thetas: Sequence[float]) -> list[DistributionFn]:
    return [box.member(t) for t in thetas]


def factorized_pbox(px: PBox, py: PBox, x: float, y: float) -> tuple[float, float]:
    """Bivariate factorizing bounds (lower_X(x)*lower_Y(y), upper_X(x)*upper_Y(y))."""
    return (
        px.lower.value(x) * py.lower.value(y),
        px.upper.value(x) * py.upper.value(y),
    )


@dataclass(frozen=True)
class ShockModel:
    """Family tag, per-component p-boxes, precise exogenous shock, block split.

    ``p`` is the number of max-type coordinates for maxmin/rmm; marshall
    treats every coordinate as max-type (``p`` may be omitted or equal n).
    """

    family: str
    endogenous: tuple[PBox, ...]
    exogenous: DistributionFn
    p: int | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        n = len(self.endogenous)
        if n < 2:
            raise ValueError("need at least two endogenous components")
        if n > MAX_DIMENSION:
            raise ValueError(f"dimension {n} exceeds the cap {MAX_DIMENSION}")
        if self.family == "marshall":
            if self.p is not None and self.p != n:
                raise ValueError("marshall has no min-type block; p must be None or n")
        elif not isinstance(self.p, int) or not 1 <= self.p < n:
            raise ValueError(f"{self.family} needs an int p with 1 <= p < n, got {self.p!r}")

    @property
    def n(self) -> int:
        return len(self.endogenous)

    @property
    def split(self) -> int:
        return self.n if self.family == "marshall" else self.p  # type: ignore[return-value]

    @property
    def is_precise(self) -> bool:
        return all(box.is_degenerate for box in self.endogenous)

    def precise_marginals(self) -> tuple[DistributionFn, ...]:
        if not self.is_precise:
            raise ValueError("model has non-degenerate p-boxes; no precise marginals")
        return tuple(box.lower for box in self.endogenous)

    def member_model(self, thetas: Sequence[float]) -> "ShockModel":
        """Precise model with component k set to the theta_k box member."""
        if len(thetas) != self.n:
            raise ValueError(f"expected {self.n} thetas, got {len(thetas)}")
        boxes = tuple(
            PBox.precise(box.member(t)) for box, t in zip(self.endogenous, thetas)
        )
        return ShockModel(self.family, boxes, self.exogenous, self.p)

    @classmethod
    def from_spec(cls, spec: dict) -> "ShockModel":
        family = spec.get("family")
        boxes = tuple(PBox.from_spec(s) for s in spec["endogenous"])
        p = spec.get("p")
        # bool is an int subclass; floats and strings are not truncated
        if p is not None and (isinstance(p, bool) or not isinstance(p, int)):
            raise ValueError(f"p must be an integer, got {p!r}")
        return cls(family, boxes, dist_from_spec(spec["exogenous"]), p)

    def to_spec(self) -> dict:
        out = {
            "family": self.family,
            "n": self.n,
            "endogenous": [box.to_spec() for box in self.endogenous],
            "exogenous": dist_to_spec(self.exogenous),
        }
        if self.p is not None:
            out["p"] = self.p
        return out


# ---------------------------------------------------------------------------
# bound construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundFamily:
    """Bound generator vectors and bound lifetime distributions of a model.

    ``lower_G``/``upper_G`` hold per-coordinate lifetime distribution
    functions built from the lower/upper component bounds (max-type
    lifetimes for coordinates below the split, min-type above).  For rmm
    the min-type entries of ``lower_gen`` come from the *upper* component
    bounds (and vice versa); the generator vectors are still pointwise
    ordered lower <= upper.
    """

    family: str
    p: int | None
    lower_gen: GeneratorVector
    upper_gen: GeneratorVector
    lower_G: tuple[DistributionFn, ...]
    upper_G: tuple[DistributionFn, ...]

    @property
    def n(self) -> int:
        return len(self.lower_G)

    @property
    def split(self) -> int:
        return self.n if self.family == "marshall" else self.p  # type: ignore[return-value]


def build_bounds(model: ShockModel) -> BoundFamily:
    z = model.exogenous
    n, p = model.n, model.split
    lows = [box.lower for box in model.endogenous]
    ups = [box.upper for box in model.endogenous]

    lower_G: list[DistributionFn] = []
    upper_G: list[DistributionFn] = []
    for k in range(n):
        make = lifetime_max if k < p else lifetime_min
        lower_G.append(make(lows[k], z))
        upper_G.append(make(ups[k], z))

    lo_gens: list[Generator] = []
    hi_gens: list[Generator] = []
    if model.family == "marshall":
        for k in range(n):
            lo_gens.append(extend_phi(lows[k], z))
            hi_gens.append(extend_phi(ups[k], z))
    elif model.family == "maxmin":
        for k in range(n):
            make = extend_phi if k < p else extend_chi
            lo_gens.append(make(lows[k], z))
            hi_gens.append(make(ups[k], z))
    else:
        for k in range(p):
            lo_gens.append(to_rmm(extend_phi(lows[k], z)))
            hi_gens.append(to_rmm(extend_phi(ups[k], z)))
        for k in range(p, n):
            # order reversal: the lower g comes from the upper component bound
            lo_gens.append(to_rmm(extend_chi(ups[k], z)))
            hi_gens.append(to_rmm(extend_chi(lows[k], z)))

    gv_p = None if model.family == "marshall" else p
    return BoundFamily(
        model.family,
        model.p,
        GeneratorVector(model.family, tuple(lo_gens), gv_p),
        GeneratorVector(model.family, tuple(hi_gens), gv_p),
        tuple(lower_G),
        tuple(upper_G),
    )


def _require_family(bf: BoundFamily, family: str, op: str) -> None:
    if bf.family != family:
        raise ValueError(f"{op} needs a {family} bound family, got {bf.family!r}")


# ---------------------------------------------------------------------------
# copula-level bounds
# ---------------------------------------------------------------------------


def marshall_bound_copulas(bf: BoundFamily, u: Sequence[float]) -> tuple[float, float]:
    """(lower, upper) Marshall copula values at the same argument point."""
    _require_family(bf, "marshall", "marshall_bound_copulas")
    return bf.lower_gen(u), bf.upper_gen(u)


def maxmin_bound_copulas(bf: BoundFamily, u: Sequence[float]) -> tuple[float, float]:
    """Maxmin copulas of the lower and upper generator vectors at the same u.

    These bound the composed joint surfaces; at a fixed copula argument
    their order is not guaranteed (the bivariate copula-level sandwich
    uses mixed bounds, see :func:`maxmin_bivariate_mixed_bounds`).
    """
    _require_family(bf, "maxmin", "maxmin_bound_copulas")
    return bf.lower_gen(u), bf.upper_gen(u)


def maxmin_bivariate_mixed_bounds(bf: BoundFamily, u: Sequence[float]) -> tuple[float, float]:
    """Bivariate copula-level sandwich: (phi_lo, chi_hi) below, (phi_hi, chi_lo) above."""
    _require_family(bf, "maxmin", "maxmin_bivariate_mixed_bounds")
    if bf.n != 2:
        raise ValueError("the mixed-bound sandwich is a bivariate statement")
    lo_gens = (bf.lower_gen.generators[0], bf.upper_gen.generators[1])
    hi_gens = (bf.upper_gen.generators[0], bf.lower_gen.generators[1])
    return maxmin_n(lo_gens, u, 1), maxmin_n(hi_gens, u, 1)


def rmm_bivariate_copula_bounds(bf: BoundFamily, u: Sequence[float]) -> tuple[float, float]:
    """Bivariate rmm copula-level sandwich (C_hi_gens <= C <= C_lo_gens).

    The copula with the *lower* generator pair dominates pointwise, so the
    returned tuple is (rmm_n(upper_gen), rmm_n(lower_gen)).
    """
    _require_family(bf, "rmm", "rmm_bivariate_copula_bounds")
    if bf.n != 2:
        raise ValueError("the reversed copula-level sandwich is a bivariate statement")
    return rmm_n(bf.upper_gen.generators, u, 1), rmm_n(bf.lower_gen.generators, u, 1)


# ---------------------------------------------------------------------------
# joint-surface bounds (copula composed with bound marginals)
# ---------------------------------------------------------------------------


def marshall_H_bounds(
    model: ShockModel, x: Sequence[float], bounds: BoundFamily | None = None
) -> tuple[float, float]:
    bf = bounds if bounds is not None else build_bounds(model)
    _require_family(bf, "marshall", "marshall_H_bounds")
    lo_args = [g.value(xi) for g, xi in zip(bf.lower_G, x)]
    hi_args = [g.value(xi) for g, xi in zip(bf.upper_G, x)]
    return (
        marshall_n(bf.lower_gen.generators, lo_args),
        marshall_n(bf.upper_gen.generators, hi_args),
    )


def maxmin_H_bounds(
    model: ShockModel, x: Sequence[float], bounds: BoundFamily | None = None
) -> tuple[float, float]:
    bf = bounds if bounds is not None else build_bounds(model)
    _require_family(bf, "maxmin", "maxmin_H_bounds")
    p = bf.split
    lo_args = [g.value(xi) for g, xi in zip(bf.lower_G, x)]
    hi_args = [g.value(xi) for g, xi in zip(bf.upper_G, x)]
    return (
        maxmin_n(bf.lower_gen.generators, lo_args, p),
        maxmin_n(bf.upper_gen.generators, hi_args, p),
    )


def rmm_H_bounds(
    model: ShockModel, x: Sequence[float], bounds: BoundFamily | None = None
) -> tuple[float, float]:
    """Bounds on the reflected joint P(U_T <= x_T, U_S > x_S).

    The lower surface composes the lower generator vector with lower
    max-type marginals and survival functions of *upper* min-type
    marginals; the upper surface swaps the roles.
    """
    bf = bounds if bounds is not None else build_bounds(model)
    _require_family(bf, "rmm", "rmm_H_bounds")
    p = bf.split
    lo_args = [bf.lower_G[i].value(x[i]) for i in range(p)]
    lo_args += [1.0 - bf.upper_G[j].value(x[j]) for j in range(p, bf.n)]
    hi_args = [bf.upper_G[i].value(x[i]) for i in range(p)]
    hi_args += [1.0 - bf.lower_G[j].value(x[j]) for j in range(p, bf.n)]
    return (
        rmm_n(bf.lower_gen.generators, lo_args, p),
        rmm_n(bf.upper_gen.generators, hi_args, p),
    )


# ---------------------------------------------------------------------------
# rmm envelopes over vertex generator tuples
# ---------------------------------------------------------------------------


def _rmm_vertex_values(
    bf: BoundFamily, u: Sequence[float]
) -> tuple[list[float], list[float], int]:
    _require_family(bf, "rmm", "rmm envelope")
    if len(u) != bf.n:
        raise ValueError(f"expected {bf.n} coordinates, got {len(u)}")
    flo = [float(g(ui)) for g, ui in zip(bf.lower_gen.generators, u)]
    fhi = [float(g(ui)) for g, ui in zip(bf.upper_gen.generators, u)]
    return flo, fhi, bf.split


def _rmm_sup_tuple(
    u: Sequence[float], flo: list[float], fhi: list[float], p: int
) -> list[float]:
    """Generator values of a vertex tuple attaining the rmm maximum over all 2^n.

    With ``r_l = f_l/u_l`` the rmm copula is ``prod_l u_l * A_T * A_S *
    max(0, 1 - R_T*R_S)``, where ``R_T``/``R_S`` are the largest ratios of
    the max-type/min-type block and ``A_T`` is the product of ``1 + r_i``
    over the max-type block with one coordinate attaining ``R_T`` left out
    (``A_S`` likewise).  Every ``lo_k/u_k`` and ``hi_k/u_k`` is a candidate
    cap of its block.  A cap is feasible when no ``lo`` ratio of its block
    exceeds it, and the tuple that maximises the block's ``A`` under it
    takes ``hi`` wherever the ``hi`` ratio is at most the cap and ``lo``
    elsewhere.  The first (T-cap, S-cap) pair that maximises
    ``A_T*A_S*(1 - c_T*c_S)`` wins, candidates taken in ascending
    coordinate order with ``lo`` before ``hi`` and T-caps outermost.  On a
    face ``u_l = 0`` every vertex gives 0 and the all-upper tuple is used.
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


def rmm_envelope(bf: BoundFamily, u: Sequence[float]) -> tuple[float, float]:
    """(inf, sup) of the rmm copula over all 2^n vertex generator tuples.

    inf scans the reduced set of tuples that are upper in exactly one
    (max-type, min-type) pair and lower elsewhere, which reaches the
    minimum.  sup evaluates the maximising vertex tuple, found in O(n^2)
    from the star form by :func:`_rmm_sup_tuple`.  Both match
    :func:`rmm_envelope_full_scan`, which scans every tuple.  Members of the
    box with interior generators are not vertex tuples, and for n >= 3
    their copula can exceed the vertex maximum, so sup is not a guaranteed
    upper bound over the whole box.
    """
    flo, fhi, p = _rmm_vertex_values(bf, u)
    n = bf.n
    inf_val = math.inf
    for i in range(p):
        for j in range(p, n):
            vals = list(flo)
            vals[i] = fhi[i]
            vals[j] = fhi[j]
            inf_val = min(inf_val, rmm_from_values(u, vals, p))
    return inf_val, rmm_from_values(u, _rmm_sup_tuple(u, flo, fhi, p), p)


def _sup_candidates(
    rlo: list[np.ndarray], rhi: list[np.ndarray], block: range
) -> tuple[np.ndarray, np.ndarray]:
    """Caps and ``A`` factors of one block's candidates, stacked in scan order.

    The arrays broadcast over the block's axes; an infeasible candidate has
    ``A`` = nan, so its objective never wins.
    """
    shape = np.broadcast_shapes(*(rlo[k].shape for k in block))
    floor = rlo[block[0]]
    for k in block[1:]:
        floor = np.maximum(floor, rlo[k])
    caps, factors = [], []
    for k in block:
        for cap in (rlo[k], rhi[k]):
            a = 1.0
            for m in block:
                if m != k:
                    a = a * (1.0 + np.where(rhi[m] <= cap, rhi[m], rlo[m]))
            caps.append(np.broadcast_to(cap, shape))
            factors.append(np.broadcast_to(np.where(cap >= floor, a, np.nan), shape))
    return np.stack(caps), np.stack(factors)


def rmm_envelope_grid(
    bf: BoundFamily, axes: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rmm_envelope` at every point of an axis grid, as (inf, sup) arrays.

    Each coordinate's lower and upper generator, and their ratios to the
    coordinate, are evaluated once per axis value.  A reduced-scan inf
    tuple picks the same table for a coordinate at every grid point, so
    each is one :func:`rmm_values` call.  The sup scans the candidate caps
    of :func:`_rmm_sup_tuple` in the same order with the same operations,
    records the winning pair per point, gathers the tuple once and makes
    one :func:`rmm_values` call.  The grid is processed in slabs along the
    first axis to keep temporaries small.  Every entry is bit-identical to
    the scalar function at that point.
    """
    _require_family(bf, "rmm", "rmm envelope")
    n, p = bf.n, bf.split
    if len(axes) != n:
        raise ValueError(f"expected {n} axes, got {len(axes)}")
    axes = [np.asarray(a, dtype=float) for a in axes]
    shape = [a.size for a in axes]

    def column(values: np.ndarray, k: int) -> np.ndarray:
        dims = [1] * n
        dims[k] = values.size
        return values.reshape(dims)

    def table(gen: Generator, k: int) -> np.ndarray:
        return column(np.array([float(gen(float(t))) for t in axes[k]]), k)

    us = [column(a, k) for k, a in enumerate(axes)]
    lo = [table(g, k) for k, g in enumerate(bf.lower_gen.generators)]
    hi = [table(g, k) for k, g in enumerate(bf.upper_gen.generators)]
    face = np.zeros(shape, dtype=bool)
    for x in us:
        face |= x == 0.0
    # ratios are nan or inf on the faces, whose points take the all-upper tuple
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rlo = [f / x for f, x in zip(lo, us)]
        rhi = [f / x for f, x in zip(hi, us)]
        # the max-type block holds axis 0 and is sliced with the slabs
        caps_t, factors_t = _sup_candidates(rlo, rhi, range(p))
        caps_s, factors_s = _sup_candidates(rlo, rhi, range(p, n))

    inf_out = np.empty(shape)
    sup_out = np.empty(shape)
    step = max(1, _SLAB_POINTS // max(1, math.prod(shape[1:])))
    for s in range(0, shape[0], step):
        e = min(s + step, shape[0])
        us_s, lo_s, hi_s, rhi_s = ([t[0][s:e]] + t[1:] for t in (us, lo, hi, rhi))
        inf_val = None
        for i in range(p):
            for j in range(p, n):
                pair = (i, j)
                c = rmm_values(us_s, [hi_s[k] if k in pair else lo_s[k] for k in range(n)], p)
                inf_val = c if inf_val is None else np.minimum(inf_val, c)
        inf_out[s:e] = inf_val

        # T-caps outermost and a strict ">", as in the scalar scan; a nan
        # objective (an infeasible candidate) never wins
        best = np.full(inf_val.shape, -np.inf)
        win_t = np.zeros(inf_val.shape)
        win_s = np.zeros(inf_val.shape)
        with np.errstate(invalid="ignore", over="ignore"):
            for cap_t, a_t in zip(caps_t[:, s:e], factors_t[:, s:e]):
                for cap_s, a_s in zip(caps_s, factors_s):
                    obj = a_t * a_s * (1.0 - cap_t * cap_s)
                    better = obj > best
                    best = np.where(better, obj, best)
                    win_t = np.where(better, cap_t, win_t)
                    win_s = np.where(better, cap_s, win_s)
        upper = face[s:e] | (best == -np.inf)
        fs = [np.where(upper | (rhi_s[k] <= (win_t if k < p else win_s)), hi_s[k], lo_s[k])
              for k in range(n)]
        sup_out[s:e] = rmm_values(us_s, fs, p)
    return inf_out, sup_out


def rmm_envelope_full_scan(bf: BoundFamily, u: Sequence[float]) -> tuple[float, float]:
    """(min, max) of the rmm copula over all 2^n vertex generator tuples."""
    flo, fhi, p = _rmm_vertex_values(bf, u)
    n = bf.n
    inf_val = math.inf
    sup_val = -math.inf
    for mask in range(1 << n):
        vals = [fhi[k] if mask >> k & 1 else flo[k] for k in range(n)]
        c = rmm_from_values(u, vals, p)
        inf_val = min(inf_val, c)
        sup_val = max(sup_val, c)
    return inf_val, sup_val


def maxmin_vertex_scan(
    model: ShockModel,
    points: Sequence[Sequence[float]],
    thetas: Sequence[float] = (0.25, 0.5, 0.75),
    bounds: BoundFamily | None = None,
) -> dict:
    """Diagnostic: are maxmin copula values of interior models inside the
    vertex-tuple min/max at each point?

    No theorem backs an affirmative answer, so the result is a report (per
    point: vertex min/max, worst interior excursion), never an assertion.
    """
    bf = bounds if bounds is not None else build_bounds(model)
    _require_family(bf, "maxmin", "maxmin_vertex_scan")
    n, p = bf.n, bf.split
    lo = bf.lower_gen.generators
    hi = bf.upper_gen.generators
    interior = [
        build_bounds(model.member_model([t] * n)).lower_gen for t in thetas
    ]
    worst = 0.0
    outside = 0
    rows = []
    for u in points:
        vmin, vmax = math.inf, -math.inf
        for mask in range(1 << n):
            gens = tuple(hi[k] if mask >> k & 1 else lo[k] for k in range(n))
            c = maxmin_n(gens, u, p)
            vmin, vmax = min(vmin, c), max(vmax, c)
        for gv in interior:
            c = gv(u)
            exc = max(vmin - c, c - vmax, 0.0)
            if exc > 1e-12:
                outside += 1
                worst = max(worst, exc)
                rows.append({"point": list(u), "value": c, "vertex_min": vmin, "vertex_max": vmax})
    return {
        "points": len(points),
        "interior_members": len(thetas),
        "outside": outside,
        "worst_excursion": worst,
        "witnesses": rows[:5],
    }
