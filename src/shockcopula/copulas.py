"""Copula families induced by common-shock models, and their joint laws.

Three families are implemented, each in a bivariate closed form and one
n-variate array kernel (``marshall_values``, ``maxmin_values``,
``rmm_values``); the two are independent evaluation routes that tests hold
against each other.  The kernels take arguments and precomputed generator
values, one array per coordinate; one-point calls
(``GeneratorVector.__call__``), point stacks and grids
(``GeneratorVector.values``) all reach them through one table, family to
kernel.  Where every coordinate array has the same shape (one point, or a
stack of points), the arguments and generator values sit in one table, one
row per coordinate, and ``rmm_values`` evaluates all its pair terms at once
on that table; the axes of a grid keep one array per coordinate at its own
shape, and ``rmm_values`` takes their pairs one at a time.

* Marshall: all components die at the latest of their own shock and a
  common shock.  ``C(u) = prod_i phi_i(u_i) * min_i u_i/phi_i(u_i)``,
  zero as soon as some ``phi_i(u_i) = 0``.
* Maxmin: the first ``p`` coordinates are max-type lifetimes, the rest are
  min-type.  The copula expands over subsets of the min-type block.
* Reflected maxmin (rmm): the min-type coordinates enter through survival
  functions, which turns the subset sum into a single min over
  (max-type, min-type) index pairs.

Joint distribution functions of the underlying shock models are provided
alongside; they are written directly in terms of the component and shock
distribution functions and serve as the ground truth the copula
compositions must reproduce.  Each has one array form (``joint_*_values``)
over per-coordinate arrays of time points; one point is a stack of one.
"""

from __future__ import annotations

import functools
import itertools
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
    "marshall_values",
    "maxmin_values",
    "rmm_values",
    "joint_marshall_values",
    "joint_maxmin_values",
    "joint_rmm_values",
    "joint_rmm_Hsigma_values",
]

# The maxmin expansion sums over all subsets of the min-type block, so the
# dimension is capped to keep 2^|S| enumerable.
MAX_DIMENSION = 12


def _check_unit(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


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


def marshall_values(us: Sequence[np.ndarray], fs: Sequence[np.ndarray]) -> np.ndarray:
    """Marshall copula ``min_i u_i * prod_{j != i} phi_j`` over per-coordinate arrays.

    ``us`` and ``fs`` hold the arguments and the precomputed generator
    values, one array (or float) per coordinate, as in :func:`rmm_values`.
    This is ``prod_j phi_j * min_i u_i/phi_i`` without a division.  The
    products run over ascending ``j`` with elementwise operations only, so
    every entry is the same float whatever the shape of the call.
    """
    n = _check_split(us, fs)
    best = None
    for i in range(n):
        term = us[i]
        for j in range(n):
            if j != i:
                term = term * fs[j]
        best = term if best is None else np.minimum(best, term)
    return best


def maxmin_values(us: Sequence[np.ndarray], fs: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Maxmin copula over per-coordinate arrays, as in :func:`rmm_values`.

    ``fs`` holds phi values on the max-type coordinates 0..p-1 and chi
    values on the rest.  The copula expands over subsets K of the min-type
    block S:

        prod_{i<p} phi_i * sum_K prod_{j in S\\K} chi_j
            * max{0, min_{T u K} dag - max_{S\\K} dag}

    where dag is u_i/phi_i on the max block (0 where phi_i = 0, which the
    prefactor zeroes) and (u_j - chi_j) / (1 - chi_j) on the min block (1
    at u_j = 1), and the max over an empty S\\K is 0.  The subsets come
    from :func:`_subsets`, so each chi product runs over ascending
    coordinates; the terms are summed in mask order.  Every entry is the
    same float whatever the shape of the call.
    """
    n = _check_split(us, fs, p)
    floor = prefactor = None
    for i in range(p):
        positive = fs[i] > 0.0
        dag = np.where(positive, us[i] / np.where(positive, fs[i], 1.0), 0.0)
        floor = dag if floor is None else np.minimum(floor, dag)
        prefactor = fs[i] if prefactor is None else prefactor * fs[i]
    dags = [np.where(us[j] >= 1.0, 1.0, (us[j] - fs[j]) / np.where(fs[j] < 1.0, 1.0 - fs[j], 1.0))
            for j in range(p, n)]
    lo, hi, weight = _subsets(floor, 1.0, dags, fs[p:], 0.0)
    return prefactor * np.add.accumulate(weight * np.maximum(lo - hi, 0.0), axis=0)[-1]


def _check_split(us: Sequence, fs: Sequence, p: int | None = None) -> int:
    """n = len(us), once ``fs`` is checked to hold one entry per coordinate
    (a kernel's generator arrays, a joint law's coordinates) and, unless
    ``p`` is None (Marshall, one block), ``p`` to split them as 1 <= p < n."""
    n = len(us)
    if len(fs) != n:
        raise ValueError(f"expected {n} generator arrays, got {len(fs)}")
    if p is not None and not 1 <= p < n:
        raise ValueError(f"partition must satisfy 1 <= p < n, got p={p!r} for n={n}")
    return n


def _subsets(floor: np.ndarray, weight: float | np.ndarray, keys: Sequence[np.ndarray],
             factors, start: float) -> np.ndarray:
    """The subsets K of a block of m coordinates as a ``(3, 2^m, ...)`` array.

    Rows ``lo``, ``hi`` and ``weight`` of subset K are the min of ``floor``
    and the keys in K, the max of ``start`` and the keys outside K, and
    ``weight`` times the factors outside K.  The subsets lie on the second
    axis indexed by the bit mask of K, built by doubling, so each weight
    multiplies its factors in ascending coordinates.  ``factors`` may be an
    iterator.
    """
    shape = np.broadcast_shapes(np.shape(floor), *(np.shape(key) for key in keys))
    block = np.empty((3, 1 << len(keys)) + shape)
    lo, hi, weights = block
    lo[0], hi[0], weights[0] = floor, start, weight
    for b, (key, factor) in enumerate(zip(keys, factors)):
        # the subsets with coordinate b in K go after those without it
        k = 1 << b
        np.minimum(lo[:k], key, out=lo[k:2 * k])
        block[1:, k:2 * k] = block[1:, :k]
        np.maximum(hi[:k], key, out=hi[:k])
        weights[:k] *= factor
    return block


def rmm_values(us: Sequence[np.ndarray], fs: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Reflected-maxmin copula over per-coordinate arrays that broadcast together.

    ``us`` and ``fs`` hold the arguments and the precomputed generator
    values ``f_l(u_l)``, one array (or float) per coordinate:

        max{0, min over pairs (i < p <= j) of
            (u_i*u_j - f_i*f_j) * prod_{l != i,j} (u_l + f_l) }

    The form follows the input's structure.  Where all 2n arrays share one
    shape (one point, or a stack of points; an ``(n, ...)`` array is such a
    sequence), every pair term is evaluated at once on a stacked layout
    (:func:`_rmm_stack`).  Otherwise (the axes of a grid) the pairs are taken
    one at a time, each at its own broadcast shape.  Both run the products
    over ascending ``l`` with elementwise operations only, so every entry is
    the same float whatever the shape of the call.
    """
    n = _check_split(us, fs, p)
    if not (isinstance(us, np.ndarray) and isinstance(fs, np.ndarray) and us.shape == fs.shape):
        if len({np.shape(a) for a in (*us, *fs)}) > 1:
            return _rmm_pair_loop(us, fs, p)
        stacked = np.array([*us, *fs], dtype=float)
        us, fs = stacked[:n], stacked[n:]
    entries = math.prod(us.shape[1:])
    return _rmm_stack(us.reshape(n, entries), fs.reshape(n, entries), p).reshape(us.shape[1:])


def _rmm_pair_loop(us: Sequence[np.ndarray], fs: Sequence[np.ndarray], p: int,
                   own: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """:func:`rmm_values` one pair at a time, each pair term at its own broadcast shape.

    ``own``, where given, holds the generator values of each pair's first
    factor ``u_i*u_j - f_i*f_j`` in place of ``fs``.
    """
    n = len(us)
    own = fs if own is None else own
    shifted = [us[l] + fs[l] for l in range(n)]
    best = None
    for i in range(p):
        for j in range(p, n):
            t = us[i] * us[j] - own[i] * own[j]
            rest = None
            for l in range(n):
                if l != i and l != j:
                    rest = shifted[l] if rest is None else rest * shifted[l]
            if rest is not None:
                t = t * rest
            best = t if best is None else np.minimum(best, t)
    return np.maximum(best, 0.0)


def _rmm_stack(u: np.ndarray, f: np.ndarray, p: int, own: np.ndarray | None = None) -> np.ndarray:
    """:func:`rmm_values` of a stack: ``u`` is ``(n, E)``, ``f`` is ``(n, ..., E)``.

    Middle axes of ``f`` hold generator tuples evaluated at the same
    points; the result is ``(..., E)``.  ``own``, of the shape of ``f``
    where given, holds the generator values of each pair's first factor, as
    in :func:`_rmm_pair_loop`.  The factors ``u_l + f_l`` of all p(n - p)
    pair terms lie on one ``(n, pairs, ..., E)`` array, pairs i-major, with
    an exact 1.0 at each pair's own two coordinates, and are multiplied
    along the leading axis.  A multiply reduction runs in index order (numpy
    pairs only its add reductions), so each term is the float the pair loop
    computes, its product over ascending ``l``.
    """
    n = len(u)
    pairs, rows = _pair_layout(n, p)
    u = u.reshape(u.shape[:1] + (1,) * (f.ndim - 2) + u.shape[1:])
    # row n of the factor table is the 1.0 that stands in for l = i and l = j
    shifted = np.empty((n + 1,) + f.shape[1:])
    shifted[n] = 1.0
    np.add(u, f, out=shifted[:n])
    rest = np.multiply.reduce(shifted[rows], axis=0)
    (u_i, u_j), (f_i, f_j) = u[pairs], (f if own is None else own)[pairs]
    return np.maximum(np.minimum.reduce((u_i * u_j - f_i * f_j) * rest, axis=0), 0.0)


@functools.lru_cache(maxsize=None)
def _pair_layout(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates i and j of the pairs (i < p <= j) in i-major order,
    as a (2, pairs) array, and the (n, pairs) rows of each pair's factors:
    l, or n where l is i or j."""
    pairs = np.array([(i, j) for i in range(p) for j in range(p, n)]).T
    own = (np.arange(n)[:, None, None] == pairs).any(axis=1)
    rows = np.where(own, n, np.arange(n)[:, None])
    # the cache hands the same arrays to every call
    for table in (pairs, rows):
        table.flags.writeable = False
    return pairs, rows


# ---------------------------------------------------------------------------
# point stacks and grids
# ---------------------------------------------------------------------------

# points per slab of a stacked evaluation; keeps its temporaries small
_SLAB_POINTS = 8192


def _tables(us: Sequence[np.ndarray], *vectors: "GeneratorVector") -> tuple[tuple[int, ...], list]:
    """The broadcast shape of the coordinate arrays, and their groups: the
    coordinates, then each vector's generators at every entry.

    Coordinate arrays that all share one shape are a point stack (one point
    is a stack of one; an ``(n, ...)`` array is one too).  Its groups are the
    row blocks of one ``((1 + len(vectors)) * n, E)`` array, one column per
    entry, made by a single ``np.array``.  Other arrays (the axes of a grid)
    are brought to one ndim and each group is a list of per-coordinate arrays.
    An entry outside [0, 1], or nan, raises the ValueError of a one-point call.
    A coordinate of more than one entry is evaluated by one
    :meth:`Generator.values` call per generator, which reads a step-function
    lifetime's jump rows and calls any other generator once per entry; one
    point is evaluated call by call, as a one-point call would be.
    """
    n = vectors[0].n
    if len(us) != n:
        raise ValueError(f"expected {n} coordinate arrays, got {len(us)}")
    if isinstance(us, np.ndarray):
        shape = us.shape[1:] or (1,)
        us = np.asarray(us, dtype=float).reshape(n, math.prod(shape))
    else:
        us = [np.atleast_1d(np.asarray(u, dtype=float)) for u in us]
        ndim = max(u.ndim for u in us)
        us = [u.reshape((1,) * (ndim - u.ndim) + u.shape) for u in us]
        shape = np.broadcast_shapes(*(u.shape for u in us))
        if all(u.shape == shape for u in us):
            us = np.array([u.ravel() for u in us])
    _require_unit(us)
    rows = us.tolist() if isinstance(us, np.ndarray) else [u.ravel().tolist() for u in us]
    values = [gen.values(u) if len(row) > 1 else [gen(t) for t in row]
              for gv in vectors for gen, u, row in zip(gv.generators, us, rows)]
    if isinstance(us, np.ndarray):
        table = np.array(rows + values)
        return shape, [table[k:k + n] for k in range(0, len(table), n)]
    values = [np.asarray(v, dtype=float).reshape(u.shape) for v, u in zip(values, us * len(vectors))]
    return shape, [us] + [values[k:k + n] for k in range(0, len(values), n)]


def _require_unit(us: Sequence[np.ndarray]) -> None:
    """Raise the ValueError of a one-point call at the first entry, in
    coordinate order, that lies outside [0, 1] or is nan.  A point stack,
    an ``(n, E)`` array, is checked whole first."""
    if isinstance(us, np.ndarray) and ((us >= 0.0) & (us <= 1.0)).all():
        return
    for k, u in enumerate(us):
        inside = (u >= 0.0) & (u <= 1.0)
        if not inside.all():
            _check_unit(u.flat[inside.argmin()], f"u{k + 1}")


def _grid_arrays(axes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Axis k shaped to run along dimension k of the grid of all the axes."""
    return [np.asarray(a, dtype=float).reshape((1,) * k + (-1,) + (1,) * (len(axes) - 1 - k))
            for k, a in enumerate(axes)]


def _by_slabs(kernel, groups: Sequence, outs: Sequence[np.ndarray], width: int = 1) -> None:
    """Fill ``outs`` with ``kernel(*groups)`` for the groups of :func:`_tables`.

    A slab holds at most ``_SLAB_POINTS`` points and, where the kernel
    stacks ``width`` entries per point, at most ``8 * _SLAB_POINTS`` entries
    (one point at least).  On a point stack it is a run of columns; on a
    grid it is a run along one axis, later axes whole and earlier ones fixed.
    """
    shape = outs[0].shape
    budget = max(1, min(_SLAB_POINTS, 8 * _SLAB_POINTS // width))
    if isinstance(groups[0], np.ndarray):
        flat = [out.reshape(-1) for out in outs]
        for s in range(0, len(flat[0]), budget):
            for out, values in zip(flat, kernel(*(g[:, s:s + budget] for g in groups))):
                out[s:s + budget] = values
        return
    if math.prod(shape) <= budget:
        for out, values in zip(outs, kernel(*groups)):
            out[...] = values
        return
    axis = next(k for k in range(len(shape)) if math.prod(shape[k + 1:]) <= budget)
    step = budget // math.prod(shape[axis + 1:])
    for head in itertools.product(*map(range, shape[:axis])):
        for s in range(0, shape[axis], step):
            cut = tuple(slice(h, h + 1) for h in head) + (slice(s, s + step),)
            part = [[a[tuple(c if a.shape[d] != 1 else slice(None) for d, c in enumerate(cut))]
                     for a in group] for group in groups]
            for out, values in zip(outs, kernel(*part)):
                out[cut] = values


# ---------------------------------------------------------------------------
# generator vectors
# ---------------------------------------------------------------------------


def _check_family(family: str, n: int, p: int | None, what: str) -> None:
    """Reject an unknown family, fewer than two or more than
    :data:`MAX_DIMENSION` coordinates (``what`` names them), and a block
    split ``p`` the family cannot take: None or n for marshall, an int with
    1 <= p < n otherwise."""
    if family not in _KERNELS:
        raise ValueError(f"unknown family {family!r}")
    if n < 2:
        raise ValueError(f"need at least two {what}")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the cap {MAX_DIMENSION}")
    if family == "marshall":
        if p is not None and p != n:
            raise ValueError("marshall has no min-type block; p must be None or n")
    elif not isinstance(p, int) or not 1 <= p < n:
        raise ValueError(f"{family} needs an int p with 1 <= p < n, got {p!r}")


# the generator kinds each family takes in its max-type and min-type blocks
_BLOCK_KINDS = {"marshall": ((PHI, PSI), ()), "maxmin": ((PHI, PSI), (CHI,)),
                "rmm": ((RMM_F,), (RMM_G,))}

# each family's kernel, called as kernel(arguments, generator values, p)
_KERNELS = {"marshall": lambda us, fs, p: marshall_values(us, fs), "maxmin": maxmin_values,
            "rmm": rmm_values}


def _split(self) -> int:
    """Size of the max-type block (n for marshall); the ``split`` property
    of generator vectors, shock models and bound families."""
    return self.n if self.family == "marshall" else self.p


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
        _check_family(self.family, len(self.generators), self.p, "generators")
        want_max, want_min = _BLOCK_KINDS[self.family]
        for k, gen in enumerate(self.generators):
            want = want_max if k < self.split else want_min
            if gen.kind not in want:
                raise ValueError(
                    f"coordinate {k + 1} of a {self.family} vector must have kind in "
                    f"{want}, got {gen.kind!r}"
                )

    @property
    def n(self) -> int:
        return len(self.generators)

    split = property(_split)

    def values(self, us: Sequence[np.ndarray]) -> np.ndarray:
        """The copula at every entry of per-coordinate arrays that broadcast together.

        A stack of m points is n arrays of length m; a grid is n axes, each
        shaped to run along its own dimension.  The result has the
        broadcast shape, at least one-dimensional, and every entry is the
        float a one-point call returns.  Each generator is evaluated once
        per entry of its coordinate's array, an entry outside [0, 1] or nan
        raises ValueError, and the family kernel runs slab by slab.
        """
        shape, groups = _tables(us, self)
        out = np.empty(shape)
        n, p = self.n, self.split
        kernel = _KERNELS[self.family]
        # entries per point: maxmin's subsets, the stacked rmm pair factors
        width = {"maxmin": 1 << (n - p),
                 "rmm": p * (n - p) * n if isinstance(groups[0], np.ndarray) else 1}
        _by_slabs(lambda u, f: (kernel(u, f, p),), groups, (out,), width.get(self.family, 1))
        return out

    def __call__(self, u: Sequence[float]) -> float:
        """The copula at one point: the float :meth:`values` returns on a stack of one.

        Each generator is called at its checked coordinate, and the family's
        kernel runs on those Python floats; rmm takes the point and its
        generator values from one array, the stacked layout on which it
        evaluates all pair terms at once.
        """
        gens = self.generators
        if len(u) != len(gens):
            raise ValueError(f"expected {len(gens)} arguments, got {len(u)}")
        args = [_check_unit(ui, f"u{k + 1}") for k, ui in enumerate(u)]
        fvals = [float(gen(ui)) for gen, ui in zip(gens, args)]
        if self.family == "rmm":
            table = np.array(args + fvals)
            args, fvals = table[:len(gens)], table[len(gens):]
        return float(_KERNELS[self.family](args, fvals, self.p))


# ---------------------------------------------------------------------------
# joint laws of the underlying shock models
# ---------------------------------------------------------------------------


def _coordinate_arrays(
    components: Sequence[DistributionFn], xs: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """The coordinates of a joint-law call as float arrays, one per component."""
    if len(xs) != len(components):
        raise ValueError(f"expected {len(components)} coordinates, got {len(xs)}")
    return [np.asarray(x, dtype=float) for x in xs]


def _product_of_values(fns: Sequence[DistributionFn], xs: Sequence[np.ndarray]) -> np.ndarray:
    """``prod_k fns[k].value(xs[k])`` entrywise, multiplied in ascending k."""
    return functools.reduce(np.multiply, (f.values(x) for f, x in zip(fns, xs)))


def _shock_at(shock: DistributionFn, *args: np.ndarray) -> list[np.ndarray]:
    """``shock.value`` at every entry of the arrays, asked once per distinct argument."""
    distinct, inverse = np.unique(np.concatenate([a.ravel() for a in args]), return_inverse=True)
    fz = np.array([shock.value(t) for t in distinct.tolist()], dtype=float)[inverse]
    ends = np.cumsum([a.size for a in args])[:-1]
    return [part.reshape(a.shape) for part, a in zip(np.split(fz, ends), args)]


def joint_marshall_values(
    components: Sequence[DistributionFn], shock: DistributionFn, xs: Sequence[np.ndarray]
) -> np.ndarray:
    """P(all max lifetimes <= x_i) = prod_i F_i(x_i) * F_Z(min_i x_i), array-at-a-time.

    ``xs`` holds the coordinates, one array (or float) per component, that
    broadcast together: a stack of m points is n arrays of length m (an
    ``(n, m)`` array is one), a grid is n axes each shaped to run along its
    own dimension.  The result has the broadcast shape.  Each component is
    evaluated at every entry of its own array by one
    :meth:`~shockcopula.distfn.DistributionFn.values` call, and the shock
    once per distinct argument of the whole call.  The product runs over
    ascending i with elementwise operations only, so every entry is the same
    float whatever the shape of the call.
    """
    xs = _coordinate_arrays(components, xs)
    (fz,) = _shock_at(shock, functools.reduce(np.minimum, xs))
    return _product_of_values(components, xs) * fz


def joint_maxmin_values(
    components: Sequence[DistributionFn],
    shock: DistributionFn,
    xs: Sequence[np.ndarray],
    p: int,
) -> np.ndarray:
    """Joint law with max lifetimes at 0..p-1 and min lifetimes at p..n-1.

    Over coordinate arrays as in :func:`joint_marshall_values`, the sum over
    subsets K of the min block S of

        prod_{i in T u (S\\K)} F_i(x_i)
        * max{0, F_Z(min over T u K of x) - F_Z(max over S\\K of x)}

    with the F_Z term over an empty S\\K read as 0.  The 2^(n-p) subsets lie
    on a leading axis indexed by the bit mask of K, built by doubling as in
    :func:`maxmin_values`, so each weight is prod_T F_i times the F_j of
    S\\K in ascending j; a term is kept only where its F_Z difference is
    positive, and the terms are summed from 0.0 in mask order.  Both F_Z
    arguments are min_T x or some x_j of the min block, so the shock, asked
    once per distinct argument of a slab, sees at most n - p + 1 of them per
    point.
    The temporaries hold 2^(n-p) entries per point, so the points go slab by
    slab, as in :meth:`GeneratorVector.values`: a run of columns of a point
    stack, or a run along one axis of a grid.
    """
    xs = _coordinate_arrays(components, xs)
    n = _check_split(components, xs, p)
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the cap {MAX_DIMENSION}")
    shape = np.broadcast_shapes(*(x.shape for x in xs))
    if all(x.shape == shape for x in xs):
        group = np.array([x.ravel() for x in xs])
    else:
        group = [x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in xs]
    out = np.empty(shape)
    _by_slabs(lambda part: (_joint_maxmin_slab(components, shock, part, p),), (group,), (out,),
              1 << (n - p))
    return out


def _joint_maxmin_slab(components: Sequence[DistributionFn], shock: DistributionFn,
                       xs: Sequence[np.ndarray], p: int) -> np.ndarray:
    """:func:`joint_maxmin_values` on one slab of its coordinate arrays."""
    # hi starts at -inf: the max over S\K is over times, which may be negative
    lo, hi, weight = _subsets(functools.reduce(np.minimum, xs[:p]),
                              _product_of_values(components[:p], xs[:p]), xs[p:],
                              (c.values(x) for c, x in zip(components[p:], xs[p:])), -math.inf)
    shape = lo.shape[1:]
    # the last mask, K = S, leaves S\K empty: its F_Z term is 0, not asked
    fz_hi, fz_lo = _shock_at(shock, lo, hi[:-1])
    fz_lo = np.concatenate([fz_lo, np.zeros((1,) + shape)])
    # row 0 is the 0.0 the sum starts from
    terms = np.zeros((1 + len(lo),) + shape)
    np.multiply(weight, fz_hi - fz_lo, out=terms[1:], where=fz_hi > fz_lo)
    return np.add.accumulate(terms, axis=0)[-1]


def joint_rmm_values(
    components: Sequence[DistributionFn],
    shock: DistributionFn,
    xs: Sequence[np.ndarray],
    p: int,
) -> np.ndarray:
    """P(max lifetimes <= x_i for i < p, min lifetimes > x_j for j >= p).

    Over coordinate arrays as in :func:`joint_marshall_values`, this is

        prod_T F_i(x_i) * prod_S (1 - F_j(x_j))
        * max{0, F_Z(min_T x) - F_Z(max_S x)}

    with both products over ascending coordinates.
    """
    xs = _coordinate_arrays(components, xs)
    n = _check_split(components, xs, p)
    ft = _product_of_values(components[:p], xs[:p])
    fs_hat = functools.reduce(np.multiply,
                              (1.0 - components[j].values(xs[j]) for j in range(p, n)))
    fz_t, fz_s = _shock_at(shock, functools.reduce(np.minimum, xs[:p]),
                           functools.reduce(np.maximum, xs[p:]))
    return ft * fs_hat * np.maximum(0.0, fz_t - fz_s)


def joint_rmm_Hsigma_values(
    gens: GeneratorVector,
    components: Sequence[DistributionFn],
    shock: DistributionFn,
    xs: Sequence[np.ndarray],
) -> np.ndarray:
    """Compose the rmm copula with its marginals: C(G_T(x), 1 - G_S(x)).

    ``gens`` must be an rmm vector; coordinates below the split compose with
    max-lifetime distribution functions, the rest with survival functions of
    min lifetimes.  Over coordinate arrays as in
    :func:`joint_marshall_values`, each lifetime is built once per call and
    the composed arguments go to :meth:`GeneratorVector.values`, so every
    entry is the float of a one-point call.  With canonically extended
    generators this reproduces :func:`joint_rmm_values`.
    """
    if gens.family != "rmm":
        raise ValueError(f"expected an rmm generator vector, got {gens.family!r}")
    n, p = gens.n, gens.split
    if len(components) != n:
        raise ValueError(f"expected {n} components, got {len(components)}")
    xs = _coordinate_arrays(components, xs)
    args = [lifetime_max(components[i], shock).values(xs[i]) for i in range(p)]
    args += [1.0 - lifetime_min(components[j], shock).values(xs[j]) for j in range(p, n)]
    return gens.values(args)

