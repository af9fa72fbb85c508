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

Bound joint surfaces compose bound copulas with bound marginals
(:func:`H_bounds_values`, over per-coordinate arrays of times); the rmm
envelope is the min and max over all vertex tuples of lower/upper
generator choices, found from a reduced inf scan and a star-form sup
search.  One function, :func:`rmm_envelope_values`, computes it over
per-coordinate arrays from generator tables; single points
(:func:`rmm_envelope`), point stacks and grids (:func:`rmm_envelope_grid`)
all go through it, points and stacks in a stacked form, grids axis by axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .copulas import (
    GeneratorVector,
    _by_slabs,
    _check_family,
    _grid_arrays,
    _rmm_pair_loop,
    _rmm_stack,
    _split,
    _tables,
    rmm_values,
)
from .distfn import (
    Convex,
    DistributionFn,
    Exponential,
    PiecewiseLinearWithJumps,
    Uniform,
    from_spec as dist_from_spec,
    to_spec as dist_to_spec,
)
from .genfn import Generator, extend_chi, extend_phi, to_rmm

__all__ = [
    "PBox",
    "ShockModel",
    "BoundFamily",
    "build_bounds",
    "maxmin_mixed_vectors",
    "H_bounds_values",
    "rmm_envelope",
    "rmm_envelope_full_scan",
    "rmm_envelope_full_scan_values",
    "rmm_envelope_grid",
    "rmm_envelope_inf_values",
    "rmm_envelope_values",
]


def _probe_points(*dists: DistributionFn) -> list[float]:
    """Arguments covering the breakpoints and quantile range of the inputs.

    Every jump point, piecewise-linear breakpoint and uniform endpoint is
    included, with the midpoints between consecutive points.  Step,
    uniform and piecewise-linear functions are affine between these points,
    so comparing values and one-sided limits there decides their order
    exactly.  An exponential cdf is concave, so against an affine piece of
    slope s > 0 its excess over the piece peaks inside it, at
    ``ln(rate/s)/rate``; that point is included when it lies inside the
    piece, and the concave excess elsewhere peaks at the piece's ends.  For
    other kinds the points are a sample.
    """
    pts: set[float] = set()
    pieces: list[tuple[float, float, float]] = []  # (start, end, slope) of affine pieces
    for d in dists:
        pts.update(d.jump_points())
        if isinstance(d, PiecewiseLinearWithJumps):
            pts.update(bp[0] for bp in d.breakpoints)
            pieces.extend((x1, x2, (l2 - r1) / (x2 - x1))
                          for (x1, _, _, r1), (x2, l2, _, _) in zip(d.breakpoints, d.breakpoints[1:]))
        elif isinstance(d, Uniform):
            pts.update((d.a, d.b))
            pieces.append((d.a, d.b, 1.0 / (d.b - d.a)))
        pts.update(d.smallest_preimage(k / 20) for k in range(1, 20))
    for d in dists:
        if isinstance(d, Exponential):
            for start, end, slope in pieces:
                if slope > 0.0:
                    x = math.log(d.rate / slope) / d.rate
                    if start < x < end:
                        pts.add(x)
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
        # a degenerate box (one object on both sides) cannot cross
        if self.lower is self.upper:
            return
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
        if self.is_degenerate or theta == 1.0:
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
        _check_family(self.family, len(self.endogenous), self.p, "endogenous components")

    @property
    def n(self) -> int:
        return len(self.endogenous)

    split = property(_split)

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
        if not isinstance(spec, dict):
            raise ValueError(f"model spec must be a dict, got {type(spec).__name__}")
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

    split = property(_split)


def build_bounds(model: ShockModel) -> BoundFamily:
    """The bound generators of a model, and its bound lifetimes read from them.

    Each extended generator builds its lifetime once; ``lower_G[k]`` is the
    lifetime of the generator extended from the lower bound of component k,
    which for an rmm min-type coordinate is the base of ``upper_gen``'s
    generator k (the order reversal).  A precise box is extended once: both
    bound vectors hold the same generator object at its coordinate.
    """
    z = model.exogenous
    p = model.split

    def extend(k: int, component: DistributionFn) -> Generator:
        gen = extend_phi(component, z) if k < p else extend_chi(component, z)
        return to_rmm(gen) if model.family == "rmm" else gen

    lo_gens: list[Generator] = []
    hi_gens: list[Generator] = []
    for k, box in enumerate(model.endogenous):
        lower, upper = box.lower, box.upper
        if model.family == "rmm" and k >= p:
            # order reversal: the lower g comes from the upper component bound
            lower, upper = upper, lower
        lo_gens.append(extend(k, lower))
        hi_gens.append(lo_gens[-1] if box.is_degenerate else extend(k, upper))

    if model.family == "rmm":
        lower_G = [g.base.lifetime for g in lo_gens[:p] + hi_gens[p:]]
        upper_G = [g.base.lifetime for g in hi_gens[:p] + lo_gens[p:]]
    else:
        lower_G = [g.lifetime for g in lo_gens]
        upper_G = [g.lifetime for g in hi_gens]
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


def maxmin_mixed_vectors(bf: BoundFamily) -> tuple[GeneratorVector, GeneratorVector]:
    """(phi_lo, chi_hi) and (phi_hi, chi_lo): their copulas are the bivariate maxmin
    bounds, below and above.  (The rmm pair is ``(bf.upper_gen, bf.lower_gen)``.)"""
    _require_family(bf, "maxmin", "maxmin_mixed_vectors")
    if bf.n != 2:
        raise ValueError("the mixed-bound sandwich is a bivariate statement")
    lo, hi = bf.lower_gen.generators, bf.upper_gen.generators
    return GeneratorVector("maxmin", (lo[0], hi[1]), 1), GeneratorVector("maxmin", (hi[0], lo[1]), 1)


# ---------------------------------------------------------------------------
# joint-surface bounds (copula composed with bound marginals)
# ---------------------------------------------------------------------------


def H_bounds_values(bf: BoundFamily, xs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) joint-surface bounds at per-coordinate arrays of times.

    The lower generator vector is composed with the lower marginals, the
    upper with the upper ones, by :meth:`GeneratorVector.values`.  For rmm
    the joint is the reflected P(U_T <= x_T, U_S > x_S), so a min-type
    coordinate enters through the survival function of the opposite bound.
    """
    if len(xs) != bf.n:
        raise ValueError(f"expected {bf.n} coordinate arrays, got {len(xs)}")
    xs = [np.asarray(x, dtype=float) for x in xs]
    lo, hi = ([G.values(x) for G, x in zip(Gs, xs)] for Gs in (bf.lower_G, bf.upper_G))
    if bf.family == "rmm":
        p = bf.split
        lo[p:], hi[p:] = [1.0 - h for h in hi[p:]], [1.0 - l for l in lo[p:]]
    return bf.lower_gen.values(lo), bf.upper_gen.values(hi)


# ---------------------------------------------------------------------------
# rmm envelopes over vertex generator tuples
# ---------------------------------------------------------------------------


def _cap_candidates(
    rlo: list[np.ndarray], rhi: list[np.ndarray], block: range
) -> tuple[np.ndarray, np.ndarray]:
    """Caps and ``A`` factors of one block's sup candidates on a leading axis.

    Candidates ``2q`` and ``2q + 1`` cap the block at the ``lo`` and ``hi``
    ratio of its coordinate ``block[q]``.  Under a cap every other
    coordinate of the block takes ``hi`` where its ``hi`` ratio is at most
    the cap and ``lo`` elsewhere, and ``A`` multiplies their ``1 + r`` in
    ascending coordinate order (the cap's own coordinate contributes an
    exact 1.0).  A cap below some ``lo`` ratio of the block is infeasible
    and gets ``A`` = nan.  This is the grid form: each ratio keeps the shape
    of its coordinate's axis until the block is combined.
    """
    caps = np.stack(np.broadcast_arrays(*(r[k] for k in block for r in (rlo, rhi))))
    own = np.repeat(np.arange(len(block)), 2).reshape((-1,) + (1,) * (caps.ndim - 1))
    floor = rlo[block[0]]
    for k in block[1:]:
        floor = np.maximum(floor, rlo[k])
    a = None
    for q, m in enumerate(block):
        f = np.where(own == q, 1.0, 1.0 + np.where(rhi[m] <= caps, rhi[m], rlo[m]))
        a = f if a is None else a * f
    return caps, np.where(caps >= floor, a, np.nan)


def _stacked_cap_candidates(ratios: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_cap_candidates` of both blocks of a point stack, from its lo and
    hi ratios ``(2, n, E)``: the T block's 2p candidates, then the S block's.

    Each candidate's factors form a row of one ``(2n, n, E)`` array, an exact
    1.0 at its own coordinate and at the other block's, multiplied along the
    middle axis in index order: the block's product over ascending coordinates.
    """
    rlo, rhi = ratios
    caps = ratios.swapaxes(0, 1).reshape(2 * len(rlo), -1)
    fixed, block = _cap_layout(len(rlo), p)
    factors = np.where(fixed, 1.0, 1.0 + np.where(rhi <= caps[:, None], rhi, rlo))
    floor = np.maximum.reduceat(rlo, (0, p), axis=0)[block]
    return caps, np.where(caps >= floor, np.multiply.reduce(factors, axis=1), np.nan)


@functools.lru_cache(maxsize=None)
def _cap_layout(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2n, n, 1) mask of the coordinates that give each cap candidate a
    factor 1.0 (its own, and the other block's), and the candidates' blocks."""
    block = np.repeat(np.arange(n) >= p, 2)
    fixed = np.repeat(np.eye(n, dtype=bool), 2, axis=0) | (block[:, None] != (np.arange(n) >= p))
    fixed, block = fixed[:, :, None], block.astype(int)
    for table in (fixed, block):
        table.flags.writeable = False
    return fixed, block


def _sup_objective(caps_t: np.ndarray, a_t: np.ndarray, caps_s: np.ndarray, a_s: np.ndarray,
                   shape: tuple[int, ...]) -> np.ndarray:
    """A_T*A_S*(1 - c_T*c_S) of every (T-cap, S-cap) pair, T-caps outermost,
    on a leading axis, with -inf where it is nan.

    The first pair that maximises it wins, and a point without a finite
    objective takes the all-upper tuple.  On a face u_l = 0, where every
    vertex gives 0, the ratio 0/0 of coordinate l is nan and so is every
    objective.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        # (1 - c_T*c_S) * (A_T*A_S), in place; the product commutes exactly
        obj = caps_t[:, None] * caps_s[None, :]
        np.subtract(1.0, obj, out=obj)
        obj *= a_t[:, None] * a_s[None, :]
    obj = obj.reshape((-1,) + shape)
    obj[np.isnan(obj)] = -np.inf
    return obj


def _envelope_slab(
    us: list[np.ndarray], lo: list[np.ndarray], hi: list[np.ndarray], p: int
) -> tuple[np.ndarray, np.ndarray]:
    """(inf, sup) on a grid slab, each coordinate's arrays at its own axis shape."""
    n = len(us)
    shape = np.broadcast_shapes(*(u.shape for u in us))

    # inf: each pair's term at its own vertex, upper at i and j, lower elsewhere
    inf = _rmm_pair_loop(us, lo, p, hi)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rlo = [f / u for f, u in zip(lo, us)]
        rhi = [f / u for f, u in zip(hi, us)]
        caps_t, a_t = _cap_candidates(rlo, rhi, range(p))
        caps_s, a_s = _cap_candidates(rlo, rhi, range(p, n))
    obj = _sup_objective(caps_t, a_t, caps_s, a_s, shape)
    win_t, win_s = np.divmod(obj.argmax(axis=0)[None], len(caps_s))
    cap_t = np.take_along_axis(np.broadcast_to(caps_t, (len(caps_t),) + shape), win_t, 0)[0]
    cap_s = np.take_along_axis(np.broadcast_to(caps_s, (len(caps_s),) + shape), win_s, 0)[0]
    upper = obj.max(axis=0) == -np.inf
    fs = [np.where(upper | (rhi[k] <= (cap_t if k < p else cap_s)), hi[k], lo[k])
          for k in range(n)]
    return inf, rmm_values(us, fs, p)


def _envelope_stack(
    u: np.ndarray, lo: np.ndarray, hi: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """(inf, sup) on a slab of a point stack, the ``(n, E)`` rows of its table.

    One stacked pair evaluation (:func:`copulas._rmm_stack`) gives both: on
    the tuples (lo | sup tuple) with first-factor values (hi | sup tuple),
    its first column is the inf and its second the copula at the sup tuple.
    """
    n = len(u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = np.divide((lo, hi), u)
        caps, a = _stacked_cap_candidates(ratios, p)
    obj = _sup_objective(caps[:2 * p], a[:2 * p], caps[2 * p:], a[2 * p:], u.shape[1:])
    best = obj.argmax(axis=0)
    columns = np.arange(len(best))
    win_t, win_s = np.divmod(best, 2 * (n - p))
    rhi = ratios[1]
    upper = np.empty(u.shape, dtype=bool)
    upper[:p] = rhi[:p] <= caps[win_t, columns]
    upper[p:] = rhi[p:] <= caps[2 * p + win_s, columns]
    upper |= obj[best, columns] == -np.inf
    sup_tuple = np.where(upper, hi, lo)
    return _rmm_stack(u, np.stack((lo, sup_tuple), axis=1), p, np.stack((hi, sup_tuple), axis=1))


def rmm_envelope_values(
    bf: BoundFamily, us: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(inf, sup) of the rmm copula over all 2^n vertex generator tuples.

    ``us`` holds one array per coordinate; the arrays broadcast together,
    as in :func:`rmm_values`, and the results have the broadcast shape (at
    least one-dimensional).  Axes of a grid arrive as column-shaped arrays,
    a stack of m points as m-long arrays.  Each lower and upper generator is
    evaluated once per entry of its coordinate's array; an entry outside
    [0, 1] or nan raises ValueError.

    inf is ``max(0, min over pairs (i < p <= j) of (u_i*u_j - hi_i*hi_j) *
    prod_{l != i,j} (u_l + lo_l))``: each pair's term at its own vertex,
    upper at i and j and lower elsewhere.  It is the float of the minimum
    over all vertices.  Where that min is <= 0 both clamp to +0.0.
    Otherwise every own-vertex term is positive, and at any other vertex the
    pair's first factor is no smaller (lower values at i or j) and each rest
    factor is no smaller (upper values elsewhere); all rmm generator values
    are >= 0 and rounding is monotone, so no pair's float term at any vertex
    lies below its term at its own vertex.  sup comes from the star form: with
    ``r_l = f_l/u_l`` the copula is ``prod_l u_l * A_T * A_S * max(0, 1 -
    R_T*R_S)``, where ``R_T``/``R_S`` are the largest ratios of the
    max-type/min-type block and ``A_T`` is the product of ``1 + r_i`` over
    the max-type block with one coordinate attaining ``R_T`` left out
    (``A_S`` likewise).  Every ``lo`` and ``hi`` ratio is tried as the cap
    of its block (:func:`_cap_candidates`), and the winning tuple is
    evaluated with :func:`rmm_values`.  On a face ``u_l = 0`` every vertex
    gives 0 and the all-upper tuple is used.  Both halves equal
    :func:`rmm_envelope_full_scan_values`.  Members of the box with interior
    generators are not vertex tuples, and for n >= 3 their copula can
    exceed the vertex maximum, so sup is not a guaranteed upper bound over
    the whole box.

    The form follows the input's structure, as in :func:`rmm_values`.  On
    one point or a point stack (every array of one shape) the generator
    values form one table, the caps of each block one factor array, and the
    inf and the sup tuple one stacked pair evaluation
    (:func:`_envelope_stack`).  On a grid every coordinate keeps its axis
    shape and the pairs are evaluated one by one (:func:`_envelope_slab`).
    Both give the same floats.  The points are processed in slabs, as by
    :meth:`GeneratorVector.values`, sized so the stacked temporaries stay
    small.
    """
    _require_family(bf, "rmm", "rmm envelope")
    shape, groups = _tables(us, bf.lower_gen, bf.upper_gen)
    n, p = bf.n, bf.split
    inf_out, sup_out = np.empty(shape), np.empty(shape)
    if isinstance(groups[0], np.ndarray):
        # the stacked pair evaluation holds 2 * pairs * n factors per point
        _by_slabs(lambda *part: _envelope_stack(*part, p), groups, (inf_out, sup_out),
                  2 * p * (n - p) * n)
    else:
        _by_slabs(lambda *part: _envelope_slab(*part, p), groups, (inf_out, sup_out))
    return inf_out, sup_out


def rmm_envelope_inf_values(bf: BoundFamily, us: Sequence[np.ndarray]) -> np.ndarray:
    """The inf half of :func:`rmm_envelope_values` alone, the same floats.

    Each pair's term is evaluated at its own vertex, upper at i and j and
    lower elsewhere, and no sup candidate is formed: the generator tables
    and the pair terms are all the work.
    """
    _require_family(bf, "rmm", "rmm envelope")
    shape, groups = _tables(us, bf.lower_gen, bf.upper_gen)
    n, p = bf.n, bf.split
    inf_out = np.empty(shape)
    if isinstance(groups[0], np.ndarray):
        # the stacked pair evaluation holds pairs * n factors per point
        _by_slabs(lambda u, lo, hi: (_rmm_stack(u, lo, p, hi),), groups, (inf_out,),
                  p * (n - p) * n)
    else:
        _by_slabs(lambda us, lo, hi: (_rmm_pair_loop(us, lo, p, hi),), groups, (inf_out,))
    return inf_out


def rmm_envelope(bf: BoundFamily, u: Sequence[float]) -> tuple[float, float]:
    """:func:`rmm_envelope_values` at one point, as two floats."""
    inf, sup = rmm_envelope_values(bf, np.array(u, dtype=float)[:, None])
    return float(inf[0]), float(sup[0])


def rmm_envelope_grid(
    bf: BoundFamily, axes: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rmm_envelope_values` at every point of an axis grid.

    Returns (inf, sup) arrays of shape ``(len(axes[0]), ..., len(axes[-1]))``.
    """
    return rmm_envelope_values(bf, _grid_arrays(axes))


def rmm_envelope_full_scan_values(
    bf: BoundFamily, us: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of the rmm copula over all 2^n vertex generator tuples.

    ``us`` holds one array per coordinate, as in :func:`rmm_envelope_values`.
    Every tuple is evaluated: the 2^n tuples lie on a leading axis indexed
    by the bit mask of the upper coordinates, and each slab of points is one
    :func:`rmm_values` call.  This is the reference the envelope is checked
    against.
    """
    _require_family(bf, "rmm", "rmm envelope")
    shape, groups = _tables(us, bf.lower_gen, bf.upper_gen)
    n, p = bf.n, bf.split

    def scan(us, lo, hi):
        masks = np.arange(1 << n).reshape((-1,) + (1,) * np.ndim(us[0]))
        fs = [np.where(masks >> k & 1, h, l) for k, (l, h) in enumerate(zip(lo, hi))]
        values = rmm_values(us, fs, p)
        return values.min(axis=0), values.max(axis=0)

    min_out, max_out = np.empty(shape), np.empty(shape)
    _by_slabs(scan, groups, (min_out, max_out), 1 << n)
    return min_out, max_out


def rmm_envelope_full_scan(bf: BoundFamily, u: Sequence[float]) -> tuple[float, float]:
    """:func:`rmm_envelope_full_scan_values` at one point, as two floats."""
    low, high = rmm_envelope_full_scan_values(bf, np.array(u, dtype=float)[:, None])
    return float(low[0]), float(high[0])

