"""Monotone distribution functions with exact one-sided limits.

Shock-model lifetimes live in a finitely-additive world: a distribution
function here is any monotone map F with F(-inf) = 0 and F(+inf) = 1.  No
right-continuity is assumed, so a representation must answer three separate
questions at every point: the value F(x), the left limit F(x-), and the
right limit F(x+).  Every representation in this module answers all three
exactly (no epsilon probing), which is what the generator-extension
machinery in :mod:`shockcopula.genfn` relies on.

Parametric constructors (Exponential, DiracStep, Uniform, Discrete) default
to right-continuous point values, the usual cdf convention.  The
PiecewiseLinearWithJumps representation carries explicit (left, point,
right) triples per breakpoint and can therefore represent any of the
finitely many monotone completions of a piecewise-linear shape.

Composites:

* ``Product(a, b)``           -- F(x) = a(x) * b(x), the cdf of max(A, B)
  for independent A, B (see :func:`lifetime_max`).
* ``SurvivalComplementProduct(a, b)`` -- F(x) = 1 - (1-a(x))(1-b(x)), the
  cdf of min(A, B) for independent A, B (see :func:`lifetime_min`).
* ``Convex(w, a, b)``         -- pointwise mixture w*a + (1-w)*b.
* ``Clamp(base, lo, hi)``     -- pointwise median, clips base into [lo, hi].

One-sided limits of all composites factor through the components because
the lattice/arithmetic operations used are continuous and monotone, so the
composites are exact as well.

Level crossings (``smallest_preimage`` / ``largest_preimage``) of the
composites and of PiecewiseLinearWithJumps use a table of one-sided limits
at the jump points, built once at construction: one bisection of the table
finds the jump where the crossing happens or the continuous stretch it lies
in, and a bisection of the function to the float fixpoint then locates a
crossing inside that stretch.  The parametric kinds and Discrete invert in
closed form or by table lookup of their own.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

__all__ = [
    "DistributionFn",
    "Exponential",
    "DiracStep",
    "Uniform",
    "Discrete",
    "PiecewiseLinearWithJumps",
    "Product",
    "SurvivalComplementProduct",
    "Convex",
    "Clamp",
    "Switch",
    "lifetime_max",
    "lifetime_min",
    "from_spec",
    "to_spec",
]

NEG_INF = float("-inf")
POS_INF = float("inf")


class DistributionFn(ABC):
    """A monotone function R -> [0, 1] with F(-inf) = 0, F(+inf) = 1.

    A subclass that keeps the preimage searches defined here sets
    ``_limits = _LimitTable.of(self)`` at the end of its construction.
    """

    @abstractmethod
    def value(self, x: float) -> float:
        """Point value F(x).  Accepts +-inf."""

    @abstractmethod
    def left_limit(self, x: float) -> float:
        """F(x-) = sup_{y < x} F(y) for finite x."""

    @abstractmethod
    def right_limit(self, x: float) -> float:
        """F(x+) = inf_{y > x} F(y) for finite x."""

    @abstractmethod
    def jump_points(self) -> tuple[float, ...]:
        """Sorted coordinates where F(x-) < F(x+) may hold.

        A superset of the true jump set is fine (an extra point only adds
        a row to the preimage table); missing a jump is not.
        """

    def survival(self, x: float) -> float:
        return 1.0 - self.value(x)

    # -- level-crossing search -------------------------------------------

    def smallest_preimage(self, u: float) -> float:
        """Smallest x0 with F(x0-) <= u <= F(x0+), i.e. inf{x : F(x) >= u}.

        Defined for u strictly between 0 and 1.  The first jump whose left
        or right limit reaches u is found by one bisection of the jump-limit
        table the object builds at construction (``_limits``); a crossing
        inside a continuous segment is then located by bisection run to the
        float fixpoint.
        """
        _require_interior(u)
        t = self._limits
        j = bisect_left(t.rising, u)
        if j == len(t.xs):
            return _upcrossing(self, t.xs[-1] if t.xs else None, None, u)
        if t.lefts[j] >= u:
            return _upcrossing(self, t.xs[j - 1] if j else None, t.xs[j], u)
        return t.xs[j]

    def largest_preimage(self, u: float) -> float:
        """Largest x0 with F(x0-) <= u <= F(x0+), i.e. sup{x : F(x) <= u}.

        The mirror image of :meth:`smallest_preimage`: the last jump whose
        left or right limit is at most u comes from one bisection of the
        jump-limit table, then continuous bisection if needed.
        """
        _require_interior(u)
        t = self._limits
        j = bisect_right(t.falling, u) - 1
        if j < 0:
            return _downcrossing(self, None, t.xs[0] if t.xs else None, u)
        if t.rights[j] <= u:
            return _downcrossing(self, t.xs[j], t.xs[j + 1] if j + 1 < len(t.xs) else None, u)
        return t.xs[j]


class _LimitTable(NamedTuple):
    """One-sided limits of a distribution at its jump points, for preimage search.

    ``rising[j]`` is the running maximum over k <= j of max(lefts[k],
    rights[k]) and ``falling[j]`` the running minimum over k >= j of
    min(lefts[k], rights[k]).  The first j with rising[j] >= u is the first
    jump where either limit reaches u, and the last j with falling[j] <= u
    the last jump where either limit is at most u, even where rounding makes
    the limits themselves non-monotone.  The limit columns are arrays of
    doubles, which hold no float objects and pass through no tuple free list,
    so tables add little to peak memory.
    """

    xs: tuple[float, ...]
    lefts: array
    rights: array
    rising: array
    falling: array

    @classmethod
    def of(cls, fn: DistributionFn) -> "_LimitTable":
        xs = fn.jump_points()
        lefts = array("d", [fn.left_limit(x) for x in xs])
        rights = array("d", [fn.right_limit(x) for x in xs])
        rising = array("d", accumulate(map(max, lefts, rights), max))
        falling = array("d", accumulate(map(min, lefts[::-1], rights[::-1]), min))[::-1]
        return cls(xs, lefts, rights, rising, falling)


def _require_interior(u: float) -> None:
    if not 0.0 < u < 1.0:
        raise ValueError(f"preimage is defined for u in (0, 1), got {u!r}")


def _upcrossing(fn: DistributionFn, lo: float | None, hi: float | None, u: float) -> float:
    """inf{x : F(x) >= u} inside (lo, hi], F continuous on the open part."""
    if hi is None:
        base = lo if lo is not None else 0.0
        step = 1.0
        hi = base + step
        while fn.value(hi) < u:
            step *= 2.0
            hi = base + step
    if lo is None:
        step = 1.0
        lo = hi - step
        while fn.value(lo) >= u:
            step *= 2.0
            lo = hi - step
    # Invariant: F(lo) < u <= F(hi).  Bisect to adjacent floats.
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if fn.value(mid) >= u:
            hi = mid
        else:
            lo = mid


def _downcrossing(fn: DistributionFn, lo: float | None, hi: float | None, u: float) -> float:
    """sup{x : F(x) <= u} inside [lo, hi)."""
    if lo is None:
        base = hi if hi is not None else 0.0
        step = 1.0
        lo = base - step
        while fn.value(lo) > u:
            step *= 2.0
            lo = base - step
    if hi is None:
        step = 1.0
        hi = lo + step
        while fn.value(hi) <= u:
            step *= 2.0
            hi = lo + step
    # Invariant: F(lo) <= u < F(hi).
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if fn.value(mid) <= u:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# parametric representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential(DistributionFn):
    """F(x) = 1 - exp(-rate * x) for x >= 0."""

    rate: float

    def __post_init__(self) -> None:
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive and finite, got {self.rate!r}")

    def value(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def left_limit(self, x: float) -> float:
        return self.value(x)

    def right_limit(self, x: float) -> float:
        return self.value(x)

    def jump_points(self) -> tuple[float, ...]:
        return ()

    def smallest_preimage(self, u: float) -> float:
        _require_interior(u)
        return -math.log1p(-u) / self.rate

    def largest_preimage(self, u: float) -> float:
        return self.smallest_preimage(u)


@dataclass(frozen=True)
class DiracStep(DistributionFn):
    """Unit mass at ``location``: F = 0 below, 1 at and above."""

    location: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.location):
            raise ValueError("location must be finite")

    def value(self, x: float) -> float:
        return 1.0 if x >= self.location else 0.0

    def left_limit(self, x: float) -> float:
        return 1.0 if x > self.location else 0.0

    def right_limit(self, x: float) -> float:
        return 1.0 if x >= self.location else 0.0

    def jump_points(self) -> tuple[float, ...]:
        return (self.location,)

    def smallest_preimage(self, u: float) -> float:
        _require_interior(u)
        return self.location

    def largest_preimage(self, u: float) -> float:
        _require_interior(u)
        return self.location


@dataclass(frozen=True)
class Uniform(DistributionFn):
    """Continuous uniform on [a, b]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need finite a < b, got a={self.a!r}, b={self.b!r}")

    def value(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def left_limit(self, x: float) -> float:
        return self.value(x)

    def right_limit(self, x: float) -> float:
        return self.value(x)

    def jump_points(self) -> tuple[float, ...]:
        return ()

    def smallest_preimage(self, u: float) -> float:
        _require_interior(u)
        return self.a + u * (self.b - self.a)

    def largest_preimage(self, u: float) -> float:
        return self.smallest_preimage(u)


@dataclass(frozen=True)
class Discrete(DistributionFn):
    """Finite support: ``points`` is a sequence of (x, mass) pairs.

    Masses must be positive and sum to 1 within 1e-12.  Duplicate support
    coordinates are merged.  Point values are right-continuous.
    """

    points: tuple[tuple[float, float], ...]
    _xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _cum: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, points) -> None:
        merged: dict[float, float] = {}
        for x, m in points:
            x = float(x)
            m = float(m)
            if not math.isfinite(x):
                raise ValueError("support points must be finite")
            if not (m > 0.0 and math.isfinite(m)):
                raise ValueError(f"masses must be positive and finite, got {m!r} at x={x!r}")
            merged[x] = merged.get(x, 0.0) + m
        if not merged:
            raise ValueError("need at least one support point")
        xs = tuple(sorted(merged))
        cum = []
        acc = 0.0
        for x in xs:
            acc += merged[x]
            cum.append(acc)
        if abs(acc - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1 within 1e-12, got {acc!r}")
        cum[-1] = 1.0
        object.__setattr__(self, "points", tuple((x, merged[x]) for x in xs))
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_cum", tuple(cum))

    def value(self, x: float) -> float:
        i = bisect_right(self._xs, x)
        return self._cum[i - 1] if i else 0.0

    def left_limit(self, x: float) -> float:
        i = bisect_left(self._xs, x)
        return self._cum[i - 1] if i else 0.0

    def right_limit(self, x: float) -> float:
        return self.value(x)

    def jump_points(self) -> tuple[float, ...]:
        return self._xs

    def smallest_preimage(self, u: float) -> float:
        _require_interior(u)
        return self._xs[bisect_left(self._cum, u)]

    def largest_preimage(self, u: float) -> float:
        _require_interior(u)
        j = bisect_left(self._cum, u)
        if self._cum[j] == u:
            # F sits exactly at level u on [xs[j], xs[j+1]]; the right end
            # still satisfies F(x-) <= u.  j+1 exists because cum[-1] = 1 > u.
            return self._xs[j + 1]
        return self._xs[j]


@dataclass(frozen=True)
class PiecewiseLinearWithJumps(DistributionFn):
    """Piecewise-linear distribution with explicit one-sided values.

    ``breakpoints`` is a sequence of (x, left, point, right) with strictly
    increasing x, 0 <= left <= point <= right <= 1 at each breakpoint, and
    right_i <= left_{i+1} between consecutive breakpoints (F rises linearly
    from right_i to left_{i+1} in between).  The first left value must be 0
    and the last right value 1 so that F(-inf) = 0 and F(+inf) = 1.
    """

    breakpoints: tuple[tuple[float, float, float, float], ...]
    _xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _limits: _LimitTable = field(init=False, repr=False, compare=False)

    def __init__(self, breakpoints) -> None:
        bps = tuple((float(x), float(l), float(p), float(r)) for x, l, p, r in breakpoints)
        if not bps:
            raise ValueError("need at least one breakpoint")
        for x, l, p, r in bps:
            if not math.isfinite(x):
                raise ValueError("breakpoint coordinates must be finite")
            if not 0.0 <= l <= p <= r <= 1.0:
                raise ValueError(f"need 0 <= left <= point <= right <= 1 at x={x!r}")
        xs = tuple(b[0] for b in bps)
        if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("breakpoint coordinates must be strictly increasing")
        for (x1, _, _, r1), (x2, l2, _, _) in zip(bps, bps[1:]):
            if r1 > l2:
                raise ValueError(f"not monotone between x={x1!r} and x={x2!r}")
        if bps[0][1] != 0.0:
            raise ValueError("first left value must be 0 (F(-inf) = 0)")
        if bps[-1][3] != 1.0:
            raise ValueError("last right value must be 1 (F(+inf) = 1)")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_limits", _LimitTable.of(self))

    def _segment_value(self, i: int, x: float) -> float:
        # between breakpoints i and i+1 (both exist)
        x1, _, _, r1 = self.breakpoints[i]
        x2, l2, _, _ = self.breakpoints[i + 1]
        if r1 == l2:
            return r1
        return r1 + (x - x1) * (l2 - r1) / (x2 - x1)

    def value(self, x: float) -> float:
        if x == NEG_INF:
            return 0.0
        if x == POS_INF:
            return 1.0
        i = bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self.breakpoints[i][2]
        if i == 0:
            return 0.0
        if i == len(self._xs):
            return 1.0
        return self._segment_value(i - 1, x)

    def left_limit(self, x: float) -> float:
        i = bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self.breakpoints[i][1]
        if i == 0:
            return 0.0
        if i == len(self._xs):
            return 1.0
        return self._segment_value(i - 1, x)

    def right_limit(self, x: float) -> float:
        i = bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self.breakpoints[i][3]
        if i == 0:
            return 0.0
        if i == len(self._xs):
            return 1.0
        return self._segment_value(i - 1, x)

    def jump_points(self) -> tuple[float, ...]:
        return tuple(x for x, l, _, r in self.breakpoints if l < r)

    def smallest_preimage(self, u: float) -> float:
        _require_interior(u)
        for i, (x, l, _, r) in enumerate(self.breakpoints):
            if l >= u:
                # crossing sits on the segment before this breakpoint;
                # i > 0 because the first left value is 0 < u
                x1, _, _, r1 = self.breakpoints[i - 1]
                return x1 + (u - r1) * (x - x1) / (l - r1)
            if r >= u:
                return x
        raise AssertionError("unreachable: last right value is 1")


@dataclass(frozen=True)
class Product(DistributionFn):
    """F(x) = first(x) * second(x); the cdf of max of independent lifetimes."""

    first: DistributionFn
    second: DistributionFn
    _jumps: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _limits: _LimitTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_jumps", _merge_jumps(self.first.jump_points(), self.second.jump_points())
        )
        object.__setattr__(self, "_limits", _LimitTable.of(self))

    def value(self, x: float) -> float:
        return self.first.value(x) * self.second.value(x)

    def left_limit(self, x: float) -> float:
        return self.first.left_limit(x) * self.second.left_limit(x)

    def right_limit(self, x: float) -> float:
        return self.first.right_limit(x) * self.second.right_limit(x)

    def jump_points(self) -> tuple[float, ...]:
        return self._jumps


@dataclass(frozen=True)
class SurvivalComplementProduct(DistributionFn):
    """F(x) = 1 - (1-first(x))(1-second(x)); the cdf of min of independent lifetimes."""

    first: DistributionFn
    second: DistributionFn
    _jumps: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _limits: _LimitTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_jumps", _merge_jumps(self.first.jump_points(), self.second.jump_points())
        )
        object.__setattr__(self, "_limits", _LimitTable.of(self))

    @staticmethod
    def _combine(a: float, b: float) -> float:
        # exact at the endpoint: a + b - a*b rounds below 1 for b == 1, a near 1
        if a == 1.0 or b == 1.0:
            return 1.0
        return a + b - a * b

    def value(self, x: float) -> float:
        return self._combine(self.first.value(x), self.second.value(x))

    def left_limit(self, x: float) -> float:
        return self._combine(self.first.left_limit(x), self.second.left_limit(x))

    def right_limit(self, x: float) -> float:
        return self._combine(self.first.right_limit(x), self.second.right_limit(x))

    def jump_points(self) -> tuple[float, ...]:
        return self._jumps


@dataclass(frozen=True)
class Convex(DistributionFn):
    """Pointwise mixture weight*first + (1-weight)*second."""

    weight: float
    first: DistributionFn
    second: DistributionFn
    _jumps: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _limits: _LimitTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight!r}")
        object.__setattr__(
            self, "_jumps", _merge_jumps(self.first.jump_points(), self.second.jump_points())
        )
        object.__setattr__(self, "_limits", _LimitTable.of(self))

    def _mix(self, a: float, b: float) -> float:
        return self.weight * a + (1.0 - self.weight) * b

    def value(self, x: float) -> float:
        return self._mix(self.first.value(x), self.second.value(x))

    def left_limit(self, x: float) -> float:
        return self._mix(self.first.left_limit(x), self.second.left_limit(x))

    def right_limit(self, x: float) -> float:
        return self._mix(self.first.right_limit(x), self.second.right_limit(x))

    def jump_points(self) -> tuple[float, ...]:
        return self._jumps


@dataclass(frozen=True)
class Clamp(DistributionFn):
    """Pointwise median: clips ``base`` into the band [lower, upper].

    For monotone base/lower/upper with lower <= upper this is again a
    distribution function inside the band, which is exactly what interior
    p-box sampling needs.
    """

    base: DistributionFn
    lower: DistributionFn
    upper: DistributionFn
    _jumps: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _limits: _LimitTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        jumps = _merge_jumps(self.base.jump_points(), self.lower.jump_points())
        object.__setattr__(self, "_jumps", _merge_jumps(jumps, self.upper.jump_points()))
        object.__setattr__(self, "_limits", _LimitTable.of(self))

    @staticmethod
    def _clip(b: float, lo: float, hi: float) -> float:
        return min(max(b, lo), hi)

    def value(self, x: float) -> float:
        return self._clip(self.base.value(x), self.lower.value(x), self.upper.value(x))

    def left_limit(self, x: float) -> float:
        return self._clip(self.base.left_limit(x), self.lower.left_limit(x), self.upper.left_limit(x))

    def right_limit(self, x: float) -> float:
        return self._clip(self.base.right_limit(x), self.lower.right_limit(x), self.upper.right_limit(x))

    def jump_points(self) -> tuple[float, ...]:
        return self._jumps


@dataclass(frozen=True)
class Switch(DistributionFn):
    """Two-piece splice: ``before`` on (-inf, point), ``after`` on [point, inf).

    Valid as a distribution function when both pieces are monotone and the
    splice does not drop, i.e. before(point-) <= after(point); this is
    checked at construction.  Used to build monotone in-box perturbations
    that leave the convex-combination family.
    """

    point: float
    before: DistributionFn
    after: DistributionFn
    _jumps: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _limits: _LimitTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo = self.before.left_limit(self.point)
        hi = self.after.value(self.point)
        if lo > hi + 1e-12:
            raise ValueError(
                f"splice drops at {self.point!r}: before(point-)={lo!r} > after(point)={hi!r}"
            )
        jumps = {p for p in self.before.jump_points() if p < self.point}
        jumps.update(p for p in self.after.jump_points() if p >= self.point)
        jumps.add(self.point)
        object.__setattr__(self, "_jumps", tuple(sorted(jumps)))
        object.__setattr__(self, "_limits", _LimitTable.of(self))

    def value(self, x: float) -> float:
        return self.before.value(x) if x < self.point else self.after.value(x)

    def left_limit(self, x: float) -> float:
        return self.before.left_limit(x) if x <= self.point else self.after.left_limit(x)

    def right_limit(self, x: float) -> float:
        return self.before.right_limit(x) if x < self.point else self.after.right_limit(x)

    def jump_points(self) -> tuple[float, ...]:
        return self._jumps


def _merge_jumps(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(sorted(set(a) | set(b)))


def lifetime_max(component: DistributionFn, shock: DistributionFn) -> Product:
    """Distribution of max(X, Z) for independent X ~ component, Z ~ shock."""
    return Product(component, shock)


def lifetime_min(component: DistributionFn, shock: DistributionFn) -> SurvivalComplementProduct:
    """Distribution of min(Y, Z) for independent Y ~ component, Z ~ shock."""
    return SurvivalComplementProduct(component, shock)


# ---------------------------------------------------------------------------
# JSON-facing constructors
# ---------------------------------------------------------------------------

def from_spec(spec: dict) -> DistributionFn:
    """Build a distribution from its JSON dict form.

    Supported kinds: exponential{rate}, dirac{location}, uniform{a,b},
    discrete{points: [[x, mass], ...]}, pwl{breakpoints: [[x, left, point,
    right], ...]}.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a dict, got {type(spec).__name__}")
    try:
        kind = spec["kind"]
    except KeyError:
        raise ValueError("distribution spec is missing 'kind'") from None
    if kind == "exponential":
        return Exponential(rate=float(spec["rate"]))
    if kind == "dirac":
        return DiracStep(location=float(spec["location"]))
    if kind == "uniform":
        return Uniform(a=float(spec["a"]), b=float(spec["b"]))
    if kind == "discrete":
        return Discrete(spec["points"])
    if kind == "pwl":
        return PiecewiseLinearWithJumps(spec["breakpoints"])
    raise ValueError(f"unknown distribution kind {kind!r}")


def to_spec(fn: DistributionFn) -> dict:
    """Inverse of :func:`from_spec` for the five external kinds."""
    if isinstance(fn, Exponential):
        return {"kind": "exponential", "rate": fn.rate}
    if isinstance(fn, DiracStep):
        return {"kind": "dirac", "location": fn.location}
    if isinstance(fn, Uniform):
        return {"kind": "uniform", "a": fn.a, "b": fn.b}
    if isinstance(fn, Discrete):
        return {"kind": "discrete", "points": [[x, m] for x, m in fn.points]}
    if isinstance(fn, PiecewiseLinearWithJumps):
        return {"kind": "pwl", "breakpoints": [list(bp) for bp in fn.breakpoints]}
    raise ValueError(f"{type(fn).__name__} has no external spec form")
