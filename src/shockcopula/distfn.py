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
at the jump points, built on the first search: one bisection of the table
finds the jump where the crossing happens or the continuous stretch it lies
in.  Inside a stretch the answer is the float that bisection of the function
to the float fixpoint returns.  Secant steps and two probes certify a narrow
band around the crossing, and the bisection's midpoints are replayed so that
only those inside the band are evaluated.  This is exact as long as every
float value of the function lies within ``_MARGIN / 2`` (2^-49) of one
monotone function.  The parametric kinds and Discrete invert in closed form
or by table lookup of their own.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

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

POS_INF = float("inf")


class DistributionFn(ABC):
    """A monotone function R -> [0, 1] with F(-inf) = 0, F(+inf) = 1.

    The preimage searches read ``_limits``, the jump-limit table, which is
    built on its first read, so a function that is only evaluated has none.
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

    def values(self, x) -> np.ndarray:
        """F at every entry of a float array, in its shape: one ``value`` call per entry.

        Discrete (a table lookup) and DiracStep (a comparison) override
        this, and so do the composites, with numpy arithmetic on their parts'
        arrays.  Every override makes the float operations of ``value`` in
        the same order, so each entry is the float ``value`` returns.
        """
        x = np.asarray(x, dtype=float)
        return np.array([self.value(t) for t in x.ravel().tolist()], dtype=float).reshape(x.shape)

    # -- level-crossing search -------------------------------------------

    @cached_property
    def _limits(self) -> "_LimitTable":
        return _LimitTable.of(self)

    def smallest_preimage(self, u: float) -> float:
        """Smallest x0 with F(x0-) <= u <= F(x0+), i.e. inf{x : F(x) >= u}.

        Defined for u strictly between 0 and 1.  The first jump whose left
        or right limit reaches u is found by one bisection of the jump-limit
        table ``_limits``.  A crossing inside a continuous stretch is the
        float that bisection of F run to the float fixpoint returns;
        :func:`_upcrossing` finds that float with fewer evaluations of F,
        assuming F's rounding stays within ``_MARGIN / 2`` of a monotone
        function.
        """
        _require_interior(u)
        t = self._limits
        j = bisect_left(t.rising, u)
        if j == len(t.xs) or t.lefts[j] >= u:
            return _upcrossing(self, t, j, u)
        return t.xs[j]

    def largest_preimage(self, u: float) -> float:
        """Largest x0 with F(x0-) <= u <= F(x0+), i.e. sup{x : F(x) <= u}.

        The mirror image of :meth:`smallest_preimage`: the last jump whose
        left or right limit is at most u comes from one bisection of the
        jump-limit table; a crossing inside a continuous stretch comes from
        :func:`_downcrossing` under the same margin assumption.
        """
        _require_interior(u)
        t = self._limits
        j = bisect_right(t.falling, u) - 1
        if j < 0 or t.rights[j] <= u:
            return _downcrossing(self, t, j + 1, u)
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

    ``steps`` says that the table shows no continuous stretch: F(x-) is 0 at
    the first jump, F(x+) is 1 at the last, and F(x+) at each jump equals
    F(x-) at the next.  A monotone F with such a table is a step function,
    constant between its jumps, so no preimage falls inside a stretch; the
    extended generators read point stacks from their jump rows there.
    """

    xs: tuple[float, ...]
    lefts: array
    rights: array
    rising: array
    falling: array
    steps: bool

    @classmethod
    def of(cls, fn: DistributionFn) -> "_LimitTable":
        xs = fn.jump_points()
        lefts = array("d", [fn.left_limit(x) for x in xs])
        rights = array("d", [fn.right_limit(x) for x in xs])
        rising = array("d", accumulate(map(max, lefts, rights), max))
        falling = array("d", accumulate(map(min, lefts[::-1], rights[::-1]), min))[::-1]
        steps = bool(xs) and lefts[0] == 0.0 and rights[-1] == 1.0 and rights[:-1] == lefts[1:]
        return cls(xs, lefts, rights, rising, falling, steps)

    def stretch(self, k: int) -> tuple[float | None, float | None, float | None, float | None]:
        """(lo, F(lo+), hi, F(hi-)) of the continuous stretch between jumps k-1 and k.

        An end past the first or the last jump is open and reads None.
        """
        lo, f_lo = (self.xs[k - 1], self.rights[k - 1]) if k else (None, None)
        hi, f_hi = (self.xs[k], self.lefts[k]) if k < len(self.xs) else (None, None)
        return lo, f_lo, hi, f_hi


def _require_interior(u: float) -> None:
    if not 0.0 < u < 1.0:
        raise ValueError(f"preimage is defined for u in (0, 1), got {u!r}")


# Margin of the band certificates in `_bisection_end`.  The search assumes that
# every float value F(x) lies within M/2 = 2^-49 of one monotone function, the
# exact F.  A value is a few roundings of numbers in [0, 1], each within
# 2^-54; against exact arithmetic the benchmark's lifetimes and random
# composites err by at most about 2.4 * 2^-53.  Then F(a) <= t - M at one
# point a puts F(x) < t at every x <= a, and F(b) >= t + M at one point b puts
# F(x) >= t at every x >= b, even where the rounded F is not monotone: t - M
# is exact for t >= M, and rounding t + M costs less than the float step
# below t.  A smaller M certifies narrower bands, saving evaluations; a larger
# one tolerates more rounding.
_MARGIN = 2.0 ** -48
# Evaluations of F that `_bisection_end` spends before its replay, on secant
# steps and band probes together.
_SEARCH_STEPS = 12


def _upcrossing(fn: DistributionFn, table: _LimitTable, k: int, u: float) -> float:
    """inf{x : F(x) >= u} on stretch k of the table, F continuous inside it."""
    lo, f_lo, hi, f_hi = table.stretch(k)
    seen: list[tuple[float, float]] = []
    if hi is None:
        hi, f_hi = _walk(fn, 0.0 if lo is None else lo, 1.0, u, seen)
    if lo is None:
        lo, f_lo = _walk(fn, hi, -1.0, u, seen)
    return _bisection_end(fn, lo, f_lo, hi, f_hi, u, seen)[1]


def _downcrossing(fn: DistributionFn, table: _LimitTable, k: int, u: float) -> float:
    """sup{x : F(x) <= u} on stretch k of the table, F continuous inside it."""
    # for floats, F(x) > u exactly when F(x) >= the next float above u
    above = math.nextafter(u, POS_INF)
    lo, f_lo, hi, f_hi = table.stretch(k)
    seen: list[tuple[float, float]] = []
    if lo is None:
        lo, f_lo = _walk(fn, 0.0 if hi is None else hi, -1.0, above, seen)
    if hi is None:
        hi, f_hi = _walk(fn, lo, 1.0, above, seen)
    return _bisection_end(fn, lo, f_lo, hi, f_hi, above, seen)[0]


def _walk(fn: DistributionFn, base: float, sign: float, t: float,
          seen: list[tuple[float, float]]) -> tuple[float, float]:
    """(x, F(x)) at the first x = base + sign * 2^k, k = 0, 1, ..., past level t.

    Going up (sign 1) that is the first x with F(x) >= t, going down the
    first x with F(x) < t.  Every (x, F(x)) evaluated is appended to seen.
    """
    step = 1.0
    while True:
        x = base + sign * step
        f = fn.value(x)
        seen.append((x, f))
        if (f >= t) == (sign > 0.0):
            return x, f
        step *= 2.0


def _bisection_end(fn: DistributionFn, lo: float, f_lo: float, hi: float, f_hi: float,
                   t: float, seen: list[tuple[float, float]]) -> tuple[float, float]:
    """The adjacent floats (lo, hi) where bisection for level t ends.

    The bisection keeps F(lo) < t <= F(hi) and halves [lo, hi] until no float
    lies strictly inside.  f_lo and f_hi are F at the ends, or its limits
    there from inside; seen holds other points where F is known.
    Safeguarded secant steps first find an x with |F(x) - t| < _MARGIN, and
    probes on either side of it certify a band [a, b] (see `_MARGIN`).  Then
    the bisection's own midpoints are replayed from the given bracket: a
    midpoint <= a moves lo and one >= b moves hi without evaluating F,
    because F there is certainly below or above t.  Only midpoints inside
    the band are evaluated, so the result is the float the plain bisection
    returns.  Where no band is found, every midpoint is evaluated, which is
    the plain bisection after at most _SEARCH_STEPS extra evaluations.
    """
    value = fn.value
    below, beyond = t - _MARGIN, t + _MARGIN
    a, b = lo, hi  # F < t at every midpoint <= a, F >= t at every midpoint >= b
    # the secant starts from the known points nearest the crossing on either side
    x0, f0, x1, f1 = lo, f_lo, hi, f_hi
    for x, f in seen:
        if x0 < x < x1:
            if f < t:
                x0, f0 = x, f
            else:
                x1, f1 = x, f
    xl, xh = x0, x1  # F < t at xl, F >= t at xh
    spent = 0
    while spent < _SEARCH_STEPS:
        # the secant through the last two points; a flat pair bisects instead
        x = x1 - (f1 - t) * (x1 - x0) / (f1 - f0) if f1 != f0 else xl
        if not xl < x < xh:
            x = 0.5 * (xl + xh)
            if not xl < x < xh:
                break
        f = value(x)
        spent += 1
        if f < t:
            xl = x
            if f <= below:
                a = x
        else:
            xh = x
            if f >= beyond:
                b = x
        x0, f0, x1, f1 = x1, f1, x, f
        if below < f < beyond:
            # probe just past where F should clear the margin on either side
            slope = (f1 - f0) / (x1 - x0)
            if not 0.0 < slope < POS_INF:
                break
            y = x - 1.25 * (f - below) / slope
            if a < y and spent < _SEARCH_STEPS:
                spent += 1
                if value(y) <= below:
                    a = y
            y = x + 1.25 * (beyond - f) / slope
            if y < b and spent < _SEARCH_STEPS:
                spent += 1
                if value(y) >= beyond:
                    b = y
            break
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if mid <= a:
            lo = mid
        elif mid >= b or value(mid) >= t:
            hi = mid
        else:
            lo = mid


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

    left_limit = right_limit = value

    def jump_points(self) -> tuple[float, ...]:
        return ()

    def smallest_preimage(self, u: float) -> float:
        _require_interior(u)
        return -math.log1p(-u) / self.rate

    largest_preimage = smallest_preimage


@dataclass(frozen=True)
class DiracStep(DistributionFn):
    """Unit mass at ``location``: F = 0 below, 1 at and above."""

    location: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.location):
            raise ValueError("location must be finite")

    def value(self, x: float) -> float:
        return 1.0 if x >= self.location else 0.0

    right_limit = value

    def left_limit(self, x: float) -> float:
        return 1.0 if x > self.location else 0.0

    def jump_points(self) -> tuple[float, ...]:
        return (self.location,)

    def values(self, x) -> np.ndarray:
        return np.where(np.asarray(x, dtype=float) >= self.location, 1.0, 0.0)

    def smallest_preimage(self, u: float) -> float:
        _require_interior(u)
        return self.location

    largest_preimage = smallest_preimage


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

    left_limit = right_limit = value

    def jump_points(self) -> tuple[float, ...]:
        return ()

    def smallest_preimage(self, u: float) -> float:
        _require_interior(u)
        return self.a + u * (self.b - self.a)

    largest_preimage = smallest_preimage


@dataclass(frozen=True)
class Discrete(DistributionFn):
    """Finite support: ``points`` is a sequence of (x, mass) pairs.

    Masses must be positive and sum to 1 within 1e-12.  Duplicate support
    coordinates are merged.  Point values are right-continuous.  ``_table``
    holds the support and the cumulative masses after a leading 0.0 as
    arrays, so :meth:`values` is one ``searchsorted`` and one gather.
    """

    points: tuple[tuple[float, float], ...]
    _xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _cum: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _table: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_table", (np.array(xs), np.array([0.0] + cum)))

    def value(self, x: float) -> float:
        i = bisect_right(self._xs, x)
        return self._cum[i - 1] if i else 0.0

    right_limit = value

    def values(self, x) -> np.ndarray:
        xs, cum = self._table
        return cum.take(xs.searchsorted(x, side="right"))

    def left_limit(self, x: float) -> float:
        i = bisect_left(self._xs, x)
        return self._cum[i - 1] if i else 0.0

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

    def _segment_value(self, i: int, x: float) -> float:
        # between breakpoints i and i+1 (both exist)
        x1, _, _, r1 = self.breakpoints[i]
        x2, l2, _, _ = self.breakpoints[i + 1]
        if r1 == l2:
            return r1
        return r1 + (x - x1) * (l2 - r1) / (x2 - x1)

    def _read(self, x: float, column: int) -> float:
        """Column 1 (left), 2 (point) or 3 (right) of the breakpoint at x, or
        F off the breakpoints: 0 below the first (-inf and nan included), 1
        above the last (+inf included), the segment's line between."""
        i = bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self.breakpoints[i][column]
        if i == 0:
            return 0.0
        if i == len(self._xs):
            return 1.0
        return self._segment_value(i - 1, x)

    def value(self, x: float) -> float:
        # _read(x, 2), inlined: value sits on the preimage searches' hot path
        i = bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self.breakpoints[i][2]
        if i == 0:
            return 0.0
        if i == len(self._xs):
            return 1.0
        return self._segment_value(i - 1, x)

    def left_limit(self, x: float) -> float:
        return self._read(x, 1)

    def right_limit(self, x: float) -> float:
        return self._read(x, 3)

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
class _Composite(DistributionFn):
    """A pointwise combination of the distributions in the fields ``_parts`` names.

    Construction sorts the parts' jump set once; the limit table is built
    from it on the first search.  The jump set is the union of the parts'
    jump points; a composite with another rule overrides :meth:`_jump_set`.
    """

    _jumps: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _parts = ("first", "second")

    def __post_init__(self) -> None:
        object.__setattr__(self, "_jumps", tuple(sorted(self._jump_set())))

    def _jump_set(self) -> set[float]:
        return {x for name in self._parts for x in getattr(self, name).jump_points()}

    def jump_points(self) -> tuple[float, ...]:
        return self._jumps


@dataclass(frozen=True)
class Product(_Composite):
    """F(x) = first(x) * second(x); the cdf of max of independent lifetimes."""

    first: DistributionFn
    second: DistributionFn

    def value(self, x: float) -> float:
        return self.first.value(x) * self.second.value(x)

    def values(self, x) -> np.ndarray:
        return self.first.values(x) * self.second.values(x)

    def left_limit(self, x: float) -> float:
        return self.first.left_limit(x) * self.second.left_limit(x)

    def right_limit(self, x: float) -> float:
        return self.first.right_limit(x) * self.second.right_limit(x)


@dataclass(frozen=True)
class SurvivalComplementProduct(_Composite):
    """F(x) = 1 - (1-first(x))(1-second(x)); the cdf of min of independent lifetimes."""

    first: DistributionFn
    second: DistributionFn

    def value(self, x: float) -> float:
        return _survival_join(self.first.value(x), self.second.value(x))

    def values(self, x) -> np.ndarray:
        a, b = self.first.values(x), self.second.values(x)
        return np.where((a == 1.0) | (b == 1.0), 1.0, a + b - a * b)

    def left_limit(self, x: float) -> float:
        return _survival_join(self.first.left_limit(x), self.second.left_limit(x))

    def right_limit(self, x: float) -> float:
        return _survival_join(self.first.right_limit(x), self.second.right_limit(x))


@dataclass(frozen=True)
class Convex(_Composite):
    """Pointwise mixture weight*first + (1-weight)*second."""

    weight: float
    first: DistributionFn
    second: DistributionFn

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight!r}")
        super().__post_init__()

    def _mix(self, a: float, b: float) -> float:
        return self.weight * a + (1.0 - self.weight) * b

    def value(self, x: float) -> float:
        return self._mix(self.first.value(x), self.second.value(x))

    def values(self, x) -> np.ndarray:
        return self.weight * self.first.values(x) + (1.0 - self.weight) * self.second.values(x)

    def left_limit(self, x: float) -> float:
        return self._mix(self.first.left_limit(x), self.second.left_limit(x))

    def right_limit(self, x: float) -> float:
        return self._mix(self.first.right_limit(x), self.second.right_limit(x))


@dataclass(frozen=True)
class Clamp(_Composite):
    """Pointwise median: clips ``base`` into the band [lower, upper].

    For monotone base/lower/upper with lower <= upper this is again a
    distribution function inside the band, which is exactly what interior
    p-box sampling needs.
    """

    base: DistributionFn
    lower: DistributionFn
    upper: DistributionFn
    _parts = ("base", "lower", "upper")

    @staticmethod
    def _clip(b: float, lo: float, hi: float) -> float:
        return min(max(b, lo), hi)

    def value(self, x: float) -> float:
        return self._clip(self.base.value(x), self.lower.value(x), self.upper.value(x))

    def values(self, x) -> np.ndarray:
        b, lo, hi = self.base.values(x), self.lower.values(x), self.upper.values(x)
        # the choices of min(max(b, lo), hi), nan included
        b = np.where(lo > b, lo, b)
        return np.where(hi < b, hi, b)

    def left_limit(self, x: float) -> float:
        return self._clip(self.base.left_limit(x), self.lower.left_limit(x), self.upper.left_limit(x))

    def right_limit(self, x: float) -> float:
        return self._clip(self.base.right_limit(x), self.lower.right_limit(x), self.upper.right_limit(x))


@dataclass(frozen=True)
class Switch(_Composite):
    """Two-piece splice: ``before`` on (-inf, point), ``after`` on [point, inf).

    Valid as a distribution function when both pieces are monotone and the
    splice does not drop, i.e. before(point-) <= after(point); this is
    checked at construction.  Used to build monotone in-box perturbations
    that leave the convex-combination family.
    """

    point: float
    before: DistributionFn
    after: DistributionFn

    def __post_init__(self) -> None:
        lo = self.before.left_limit(self.point)
        hi = self.after.value(self.point)
        if lo > hi + 1e-12:
            raise ValueError(
                f"splice drops at {self.point!r}: before(point-)={lo!r} > after(point)={hi!r}"
            )
        super().__post_init__()

    def _jump_set(self) -> set[float]:
        """``before``'s jumps below the point, ``after``'s from it on, and the point."""
        jumps = {p for p in self.before.jump_points() if p < self.point}
        jumps.update(p for p in self.after.jump_points() if p >= self.point)
        jumps.add(self.point)
        return jumps

    def value(self, x: float) -> float:
        return self.before.value(x) if x < self.point else self.after.value(x)

    def values(self, x) -> np.ndarray:
        """Each part evaluated only on its own entries (nan goes to ``after``, as in ``value``)."""
        x = np.asarray(x, dtype=float)
        before = x < self.point
        out = np.empty(x.shape)
        out[before] = self.before.values(x[before])
        out[~before] = self.after.values(x[~before])
        return out

    def left_limit(self, x: float) -> float:
        return self.before.left_limit(x) if x <= self.point else self.after.left_limit(x)

    def right_limit(self, x: float) -> float:
        return self.before.right_limit(x) if x < self.point else self.after.right_limit(x)


def _survival_join(a: float, b: float) -> float:
    """a + b - a*b, kept exact when either argument is 1.

    Without the endpoint case a + b - a*b rounds below 1 for b == 1 and a
    near 1.
    """
    if a == 1.0 or b == 1.0:
        return 1.0
    return a + b - a * b


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
