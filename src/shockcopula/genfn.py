"""Copula generating functions for shock models.

Five kinds of generator are distinguished by a string tag:

* ``"phi"`` / ``"psi"`` -- max-type generators: increasing on [0,1] with
  value 0 at 0 and 1 at 1, and u -> phi(u)/u non-increasing on (0,1].
* ``"chi"``             -- min-type generator: increasing with the same
  endpoint values, and the substar transform non-increasing (see
  :meth:`Generator.substar`).
* ``"rmm_f"`` / ``"rmm_g"`` -- reflected-maxmin generators: f(0) = f(1) = 0,
  f(u) + u increasing, and u -> f(u)/u non-increasing on (0,1] with
  f(1)/1 = 0.

The central constructors are :func:`extend_phi`, :func:`extend_psi` and
:func:`extend_chi`, which build the canonical generator of a shock-model
lifetime G from the component distribution F and the shock distribution F_Z:
G = F * F_Z (max-type, phi and psi) or G = F + F_Z - F F_Z (min-type, chi).
All three are one class, :class:`ExtendedGenerator`.  For u in (0, 1) it
evaluates

    x0        = smallest point with G(x0-) <= u <= G(x0+)
    edge_lo   = G's formula at F(x0-) and F_Z(x0)
    edge_hi   = G's formula at F(x0+) and F_Z(x0)

    gen(u) = (u - shift) / scale   if edge_lo <= u <= edge_hi
             F(x0-)                if u < edge_lo
             F(x0+)                if u > edge_hi

with shift = 0 and scale = F_Z(x0) for phi and psi, and shift = F_Z(x0) and
scale = 1 - F_Z(x0) for chi.  The middle branch is checked first, so ties at
its edges take it.  Each jump of G keeps these six numbers as one
row ``(F(x0-), F(x0+), shift, scale, edge_lo, edge_hi)``.

Any admissible x0 produces the same generator; the smallest is used, and
:meth:`consistency_gap` measures the (theoretically zero) difference against
the largest admissible point as a numerical diagnostic.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .distfn import (
    DistributionFn,
    Product,
    SurvivalComplementProduct,
    _survival_join,
    from_spec as dist_from_spec,
    lifetime_max,
    lifetime_min,
)

__all__ = [
    "PHI",
    "PSI",
    "CHI",
    "RMM_F",
    "RMM_G",
    "DegenerateModelError",
    "GeneratorDomainError",
    "Generator",
    "ExtendedGenerator",
    "RMMGenerator",
    "TruncatedLinear",
    "IdentityGenerator",
    "UnitGenerator",
    "ZeroGenerator",
    "PiecewiseLinearGenerator",
    "extend_phi",
    "extend_psi",
    "extend_chi",
    "to_rmm",
    "validate",
    "ValidationIssue",
    "ValidationReport",
    "generator_from_spec",
]

PHI = "phi"
PSI = "psi"
CHI = "chi"
RMM_F = "rmm_f"
RMM_G = "rmm_g"

_MAX_KINDS = (PHI, PSI)
_RMM_KINDS = (RMM_F, RMM_G)
_ALL_KINDS = (PHI, PSI, CHI, RMM_F, RMM_G)

# Cutoff for declaring the ratio limit at 0 infinite: star transforms of
# valid generators are non-increasing, so a probe at STAR_PROBE bounds the
# limit from below; anything above STAR_INF_CUTOFF is reported as inf.
STAR_PROBE = 2.0**-40
STAR_INF_CUTOFF = 1e9

# Relative tolerance for the chi(v) = v test inside substar.  Values this
# close to v are preimage rounding, not a genuine gap; a true finite
# substar value would have to exceed 1/SUBSTAR_SNAP to be misread, at
# which point inf is the better answer anyway.
SUBSTAR_SNAP = 1e-12


class DegenerateModelError(ValueError):
    """A generator branch needs a division the model cannot support."""


class GeneratorDomainError(ValueError):
    """A transform was queried outside its domain."""


class Generator(ABC):
    """A generating function on [0, 1], tagged with its kind."""

    kind: str

    @abstractmethod
    def __call__(self, u: float) -> float:
        ...

    def values(self, u) -> np.ndarray:
        """The generator at every entry of a float array, in its shape.

        This form calls the generator once per entry.  Extended generators
        override it with a read of their jump rows where the lifetime is a
        step function, and :class:`RMMGenerator` with arithmetic on its
        base's array; every entry gets the float, or raises the error, of a
        call at that entry.
        """
        u = np.asarray(u, dtype=float)
        return np.array([self(t) for t in u.ravel().tolist()], dtype=float).reshape(u.shape)

    def breakpoints(self) -> tuple[float, ...]:
        """u-coordinates where the generator changes branch (may be empty)."""
        return ()

    def star(self, u: float) -> float:
        """The ratio transform gen(u)/u on (0, 1].

        At u = 0 the right limit is returned when it is finite, and
        ``math.inf`` otherwise.  The generic implementation detects
        infinity by probing at ``STAR_PROBE`` (valid star transforms are
        non-increasing, so the probe is a lower bound for the limit);
        closed-form subclasses override with the exact value.
        """
        if not 0.0 <= u <= 1.0:
            raise GeneratorDomainError(f"star is defined on [0, 1], got {u!r}")
        if u == 0.0:
            return self._star_at_zero()
        return self(u) / u

    def _star_at_zero(self) -> float:
        probe = self(STAR_PROBE) / STAR_PROBE
        return math.inf if probe > STAR_INF_CUTOFF else probe

    def substar(self, v: float) -> float:
        """Min-type ratio transform (1 - chi(v)) / (v - chi(v)).

        Returns 1 at v = 1, ``math.inf`` where chi(v) = v < 1.  The
        equality test uses a relative tolerance: where chi follows a
        continuous stretch of the lifetime curve it equals v only up to
        preimage rounding, and dividing by that noise would produce huge
        values of arbitrary sign instead of the intended infinity.
        """
        if self.kind != CHI:
            raise GeneratorDomainError(f"substar is defined for chi generators, not {self.kind!r}")
        if not 0.0 <= v <= 1.0:
            raise GeneratorDomainError(f"substar is defined on [0, 1], got {v!r}")
        if v == 1.0:
            return 1.0
        cv = self(v)
        if abs(v - cv) <= SUBSTAR_SNAP * v:
            return math.inf
        return (1.0 - cv) / (v - cv)

    def dagger(self, u: float) -> float:
        """Shock-recovery transform: u/phi(u) for max kinds on (0, 1],
        (u - chi(u)) / (1 - chi(u)) for chi on [0, 1], fixed to 1 at u = 1."""
        if self.kind in _MAX_KINDS:
            if not 0.0 < u <= 1.0:
                raise GeneratorDomainError("dagger of a max-type generator needs u in (0, 1]")
            pu = self(u)
            if pu == 0.0:
                raise DegenerateModelError(f"phi({u!r}) = 0; dagger undefined")
            return u / pu
        if self.kind == CHI:
            if not 0.0 <= u <= 1.0:
                raise GeneratorDomainError("dagger of a chi generator needs u in [0, 1]")
            if u == 1.0:
                return 1.0
            cu = self(u)
            if cu >= 1.0:
                raise DegenerateModelError(f"chi({u!r}) = 1 below 1; dagger undefined")
            return (u - cu) / (1.0 - cu)
        raise GeneratorDomainError(f"dagger is not defined for kind {self.kind!r}")


# ---------------------------------------------------------------------------
# canonical extensions from shock models
# ---------------------------------------------------------------------------


def _step_table(lifetime: DistributionFn,
                rows: dict[float, tuple[float, ...]]) -> tuple[np.ndarray, np.ndarray] | None:
    """The jump rows of an extended generator as arrays, where its lifetime
    is a step function (``_LimitTable.steps``); None elsewhere.

    On a step function the smallest preimage of every u in (0, 1) is the
    jump ``bisect_left(rising, u)`` of the limit table.  The table holds the
    rows of the jumps as columns, plus a copy of the last one for arguments
    past the last rising limit.
    """
    t = lifetime._limits
    if not t.steps:
        return None
    cols = [rows[x] for x in t.xs]
    return np.array(t.rising), np.array(cols + cols[-1:]).T


# the lifetime of each extended kind, and the shock value and preimage name
# that make its middle branch divide by zero
_LIFETIMES = {PHI: lifetime_max, PSI: lifetime_max, CHI: lifetime_min}
_DEGENERATE = {PHI: "0 at x0", PSI: "0 at x0", CHI: "1 at y0"}

# the last-call slot of an extended generator before its first search; nan
# equals no argument
_NO_CALL = (math.nan, math.nan)


@dataclass(frozen=True)
class ExtendedGenerator(Generator):
    """phi or psi extended from the max-type lifetime G = F_X * F_Z, or chi
    from the min-type lifetime G = F_Y + F_Z - F_Y F_Z.

    ``rows`` maps each jump point of G to its row ``(lo, hi, shift, scale,
    edge_lo, edge_hi)`` (see the module docstring), built once; a preimage
    at a jump reads it instead of asking the distributions again.  Where G
    is a step function the rows are also held as arrays, from which
    :meth:`values` reads a stack.
    """

    component: DistributionFn
    shock: DistributionFn
    kind: str
    lifetime: Product | SurvivalComplementProduct = field(init=False, repr=False, compare=False)
    rows: dict[float, tuple[float, ...]] = field(init=False, repr=False, compare=False)
    _last: tuple[float, float] = field(default=_NO_CALL, init=False, repr=False, compare=False)
    _steps: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _LIFETIMES:
            raise ValueError(f"kind must be phi, psi or chi, got {self.kind!r}")
        object.__setattr__(self, "lifetime", _LIFETIMES[self.kind](self.component, self.shock))
        object.__setattr__(self, "rows", {x: self._row(x) for x in self.lifetime.jump_points()})
        object.__setattr__(self, "_steps", _step_table(self.lifetime, self.rows))

    def _row(self, x0: float) -> tuple[float, ...]:
        lo = self.component.left_limit(x0)
        hi = self.component.right_limit(x0)
        z = self.shock.value(x0)
        if self.kind == CHI:
            return lo, hi, z, 1.0 - z, _survival_join(lo, z), _survival_join(hi, z)
        return lo, hi, 0.0, z, lo * z, hi * z

    def _value_at(self, u: float, x0: float) -> float:
        row = self.rows.get(x0)
        lo, hi, shift, scale, edge_lo, edge_hi = self._row(x0) if row is None else row
        if edge_lo <= u <= edge_hi:
            if scale == 0.0:
                raise DegenerateModelError(
                    f"shock distribution is {_DEGENERATE[self.kind]}={x0!r} "
                    "on the interpolating branch"
                )
            # u - 0.0 is u, so phi and psi divide u itself
            return (u - shift) / scale
        return lo if u < edge_lo else hi

    def __call__(self, u: float) -> float:
        """0 and 1 at the ends, else the value at the smallest preimage.

        The generator keeps its last searched argument and value in one
        tuple, replaced whole, so calling it again at the same float skips
        the search.  An error is raised again at every call; nan never
        matches.
        """
        u = float(u)
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        last_u, last_value = self._last
        if u == last_u:
            return last_value
        value = self._value_at(u, self.lifetime.smallest_preimage(u))
        # one store into the frozen instance's dict, as functools.cached_property
        # writes; object.__setattr__ costs about three times as much per call
        self.__dict__["_last"] = (u, value)
        return value

    def values(self, u) -> np.ndarray:
        """The generator at every entry of a float array, in its shape.

        On a step-function lifetime every entry reads its jump row, found by
        one ``searchsorted`` on the rising limits, and takes the branch
        ``_value_at`` takes, with the same comparisons and the same single
        division.  An entry that is nan, or would divide by a zero scale on
        the middle branch, is handed to the scalar call, which raises.  Any
        other lifetime calls the generator once per entry.
        """
        if self._steps is None:
            return Generator.values(self, u)
        u = np.asarray(u, dtype=float)
        rising, table = self._steps
        lo, hi, shift, scale, edge_lo, edge_hi = table[:, np.searchsorted(rising, u)]
        inside = (u > 0.0) & (u < 1.0)
        middle = inside & (edge_lo <= u) & (u <= edge_hi)
        out = np.where(inside, np.where(u < edge_lo, lo, hi), np.where(u <= 0.0, 0.0, 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(u - shift, scale, out=out, where=middle)
        for i in np.flatnonzero(np.isnan(u) | (middle & (scale == 0.0))).tolist():
            out.flat[i] = self(u.flat[i])
        return out

    def value_with_largest_x0(self, u: float) -> float:
        """gen(u) at the largest preimage instead of the smallest; it always searches."""
        u = float(u)
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        return self._value_at(u, self.lifetime.largest_preimage(u))

    def consistency_gap(self, us) -> float:
        """max |gen(u) - gen.value_with_largest_x0(u)| over the arguments in
        (0, 1), the x0-choice gap (theoretically zero)."""
        gap = 0.0
        for u in us:
            if 0.0 < u < 1.0:
                gap = max(gap, abs(self(u) - self.value_with_largest_x0(u)))
        return gap

    def breakpoints(self) -> tuple[float, ...]:
        """0, 1, and at each jump of the lifetime its limits and the middle
        branch's ends."""
        pts = {0.0, 1.0}
        lifetime = self.lifetime
        for xj in lifetime.jump_points():
            pts.add(lifetime.left_limit(xj))
            pts.add(lifetime.right_limit(xj))
            pts.update(self.rows[xj][4:])
        return tuple(sorted(p for p in pts if 0.0 <= p <= 1.0))


def extend_phi(component: DistributionFn, shock: DistributionFn) -> ExtendedGenerator:
    """Canonical phi with phi(G(x)) = F_X(x) wherever G(x) = F_X(x)F_Z(x) > 0."""
    return ExtendedGenerator(component, shock, PHI)


def extend_psi(component: DistributionFn, shock: DistributionFn) -> ExtendedGenerator:
    """Same extension as :func:`extend_phi`, tagged for the second coordinate."""
    return ExtendedGenerator(component, shock, PSI)


def extend_chi(component: DistributionFn, shock: DistributionFn) -> ExtendedGenerator:
    """Canonical chi with chi(G(y)) = F_Y(y) wherever G(y) < 1."""
    return ExtendedGenerator(component, shock, CHI)


# ---------------------------------------------------------------------------
# reflected-maxmin transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RMMGenerator(Generator):
    """The reflected-maxmin generator of a max-type or min-type base:
    rmm_f, f(u) = phi(u) - u, from phi or psi, and rmm_g,
    g(w) = 1 - w - chi(1 - w), from chi; both are 0 at and beyond the ends."""

    base: Generator
    kind: str = field(init=False)

    def __post_init__(self) -> None:
        if self.base.kind not in (PHI, PSI, CHI):
            raise ValueError(f"to_rmm expects a phi/psi/chi generator, got kind {self.base.kind!r}")
        object.__setattr__(self, "kind", RMM_G if self.base.kind == CHI else RMM_F)

    def __call__(self, u: float) -> float:
        u = float(u)
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 0.0
        if self.kind == RMM_F:
            return self.base(u) - u
        return 1.0 - u - self.base(1.0 - u)

    def values(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.kind == RMM_F:
            inner = self.base.values(u) - u
        else:
            inner = 1.0 - u - self.base.values(1.0 - u)
        return np.where((u <= 0.0) | (u >= 1.0), 0.0, inner)

    def breakpoints(self) -> tuple[float, ...]:
        if self.kind == RMM_F:
            return self.base.breakpoints()
        return tuple(sorted(1.0 - b for b in self.base.breakpoints()))


def to_rmm(gen: Generator) -> Generator:
    """Reflected-maxmin generator from a max-type or min-type generator."""
    return RMMGenerator(gen)


# ---------------------------------------------------------------------------
# closed-form generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedLinear(Generator):
    """f(u) = scale * max(c - u, 0) on (0, 1], with f(0) = 0.

    Valid as an rmm generator for c in (0, 1) and scale in (0, 1].
    """

    c: float
    scale: float = 1.0
    kind: str = RMM_F

    def __post_init__(self) -> None:
        if self.kind not in _RMM_KINDS:
            raise ValueError(f"TruncatedLinear is an rmm generator, got kind {self.kind!r}")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must lie in (0, 1), got {self.c!r}")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {self.scale!r}")

    def __call__(self, u: float) -> float:
        u = float(u)
        if u <= 0.0:
            return 0.0
        return self.scale * max(self.c - u, 0.0)

    def _star_at_zero(self) -> float:
        return math.inf

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0, self.c, 1.0)


@dataclass(frozen=True)
class IdentityGenerator(Generator):
    """gen(u) = u; the independence generator for phi/psi/chi kinds."""

    kind: str = PHI

    def __post_init__(self) -> None:
        if self.kind not in (PHI, PSI, CHI):
            raise ValueError(f"identity generator kinds are phi/psi/chi, got {self.kind!r}")

    def __call__(self, u: float) -> float:
        u = float(u)
        return min(max(u, 0.0), 1.0)

    def _star_at_zero(self) -> float:
        return 1.0

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0, 1.0)


@dataclass(frozen=True)
class UnitGenerator(Generator):
    """gen(u) = 1 for u > 0, 0 at 0; the comonotone limit for max kinds."""

    kind: str = PHI

    def __post_init__(self) -> None:
        if self.kind not in _MAX_KINDS:
            raise ValueError(f"unit generator kinds are phi/psi, got {self.kind!r}")

    def __call__(self, u: float) -> float:
        return 1.0 if u > 0.0 else 0.0

    def _star_at_zero(self) -> float:
        return math.inf

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0, 1.0)


@dataclass(frozen=True)
class ZeroGenerator(Generator):
    """f = 0; the independence generator for rmm kinds."""

    kind: str = RMM_F

    def __post_init__(self) -> None:
        if self.kind not in _RMM_KINDS:
            raise ValueError(f"zero generator kinds are rmm_f/rmm_g, got {self.kind!r}")

    def __call__(self, u: float) -> float:
        return 0.0

    def _star_at_zero(self) -> float:
        return 0.0

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0, 1.0)


@dataclass(frozen=True)
class PiecewiseLinearGenerator(Generator):
    """Tabulated generator: linear interpolation through (us, vs) nodes.

    Intended for user-supplied tables.  Node values are reproduced exactly;
    between nodes the table interpolates, so a jump of the underlying
    function is represented by a steep segment between neighbouring nodes.
    """

    kind: str
    us: tuple[float, ...]
    vs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        us, vs = self.us, self.vs
        if len(us) != len(vs) or len(us) < 2:
            raise ValueError("need matching us/vs with at least two nodes")
        if us[0] != 0.0 or us[-1] != 1.0:
            raise ValueError("table must span [0, 1]")
        if any(a >= b for a, b in zip(us, us[1:])):
            raise ValueError("us must be strictly increasing")

    def __call__(self, u: float) -> float:
        u = float(u)
        if u <= 0.0:
            return self.vs[0]
        if u >= 1.0:
            return self.vs[-1]
        i = bisect_left(self.us, u)
        if self.us[i] == u:
            return self.vs[i]
        u1, u2 = self.us[i - 1], self.us[i]
        v1, v2 = self.vs[i - 1], self.vs[i]
        return v1 + (u - u1) * (v2 - v1) / (u2 - u1)

    def breakpoints(self) -> tuple[float, ...]:
        return self.us


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_VALIDATE_TOL = 1e-12


@dataclass(frozen=True)
class ValidationIssue:
    condition: str
    argument: float
    detail: str


@dataclass
class ValidationReport:
    kind: str
    samples: int
    issues: list[ValidationIssue]
    diagnostics: dict[str, float]

    @property
    def passed(self) -> bool:
        return not self.issues

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "samples": self.samples,
            "passed": self.passed,
            "issues": [
                {"condition": i.condition, "argument": i.argument, "detail": i.detail}
                for i in self.issues
            ],
            "diagnostics": dict(self.diagnostics),
        }


def _nonincreasing_violation(prev: float, cur: float) -> bool:
    if math.isinf(prev):
        return False
    if math.isinf(cur):
        return True
    return cur > prev + _VALIDATE_TOL * max(1.0, abs(prev))


def validate(gen: Generator, samples: int = 513) -> ValidationReport:
    """Check the defining conditions of ``gen`` on a grid and report violations.

    The grid is ``samples`` uniform points on [0, 1] enriched with the
    generator's breakpoints.  Monotonicity and ratio-monotonicity use a
    1e-12 slack; endpoint values are exact.  The report also carries
    diagnostics (largest adjacent gap as a discontinuity indicator, and the
    extension-point consistency gap for extended generators); diagnostics
    never fail the report.
    """
    if samples < 3:
        raise ValueError("need at least three samples")
    grid = sorted({i / (samples - 1) for i in range(samples)} | set(gen.breakpoints()))
    vals = [gen(u) for u in grid]
    issues: list[ValidationIssue] = []

    def issue(condition: str, argument: float, detail: str) -> None:
        issues.append(ValidationIssue(condition, argument, detail))

    for u, v in zip(grid, vals):
        if not -_VALIDATE_TOL <= v <= 1.0 + _VALIDATE_TOL:
            issue("codomain", u, f"value {v!r} outside [0, 1]")
    if gen.kind not in _ALL_KINDS:
        raise ValueError(f"unknown generator kind {gen.kind!r}")

    rmm = gen.kind in _RMM_KINDS
    if vals[0] != 0.0:
        issue("endpoint-0", 0.0, f"gen(0) = {vals[0]!r}")
    if abs(vals[-1]) > _VALIDATE_TOL if rmm else vals[-1] != 1.0:
        issue("endpoint-1", 1.0, f"gen(1) = {vals[-1]!r}")
    if rmm and abs(gen.star(1.0)) > _VALIDATE_TOL:
        issue("star-at-1", 1.0, f"star(1) = {gen.star(1.0)!r}")
    for (u1, v1), (u2, v2) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        if rmm:
            if u2 + v2 < u1 + v1 - _VALIDATE_TOL:
                issue("shifted-monotone", u2, f"u + gen(u) falls from {u1 + v1!r} to {u2 + v2!r}")
        elif v2 < v1 - _VALIDATE_TOL:
            issue("monotone", u2, f"gen({u1!r}) = {v1!r} > gen({u2!r}) = {v2!r}")

    # the ratio transform must not rise: star on (0, 1], chi's substar on [0, 1]
    name, transform = ("substar", gen.substar) if gen.kind == CHI else ("star", gen.star)
    prev = None
    for u in grid:
        if u <= 0.0 and gen.kind != CHI:
            continue
        s = transform(u)
        if gen.kind == CHI and s < 1.0 - _VALIDATE_TOL:
            issue("substar-codomain", u, f"substar {s!r} below 1")
        if prev is not None and _nonincreasing_violation(prev, s):
            issue(f"{name}-decreasing", u, f"{name} rises to {s!r}")
        prev = s

    diagnostics: dict[str, float] = {}
    diagnostics["max_adjacent_gap"] = max(
        (abs(v2 - v1) for v1, v2 in zip(vals, vals[1:])), default=0.0
    )
    if isinstance(gen, ExtendedGenerator):
        probe = [u for u in grid if 0.0 < u < 1.0][:: max(1, len(grid) // 128)]
        diagnostics["x0_choice_gap"] = gen.consistency_gap(probe)
    return ValidationReport(gen.kind, len(grid), issues, diagnostics)


# ---------------------------------------------------------------------------
# JSON-facing constructors
# ---------------------------------------------------------------------------

def generator_from_spec(spec: dict) -> Generator:
    """Build a generator from its JSON dict form.

    Forms: ``from_shocks`` (component+shock distributions, canonical
    extension), ``truncatedLinear`` (rmm kinds), ``identity``, ``unit``,
    ``zero``, or an explicit ``table``.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"generator spec must be a dict, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in _ALL_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if "from_shocks" in spec:
        shocks = spec["from_shocks"]
        try:
            z = dist_from_spec(shocks["z"])
        except KeyError:
            raise ValueError("from_shocks needs a 'z' entry") from None
        comp_spec = shocks.get("x", shocks.get("y"))
        if comp_spec is None:
            raise ValueError("from_shocks needs an 'x' or 'y' entry")
        comp = dist_from_spec(comp_spec)
        if kind in _LIFETIMES:
            return ExtendedGenerator(comp, z, kind)
        if kind == RMM_F:
            return to_rmm(extend_phi(comp, z))
        return to_rmm(extend_chi(comp, z))
    if "table" in spec:
        table = spec["table"]
        return PiecewiseLinearGenerator(
            kind, tuple(float(u) for u in table["us"]), tuple(float(v) for v in table["vs"])
        )
    form = spec.get("form")
    if form == "truncatedLinear":
        return TruncatedLinear(c=float(spec["c"]), scale=float(spec.get("scale", 1.0)), kind=kind)
    if form == "identity":
        return IdentityGenerator(kind=kind)
    if form == "unit":
        return UnitGenerator(kind=kind)
    if form == "zero":
        return ZeroGenerator(kind=kind)
    raise ValueError(f"generator spec needs 'from_shocks', 'table', or a known 'form': {spec!r}")
