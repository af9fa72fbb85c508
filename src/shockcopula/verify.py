"""Independent verification tooling: oracles, axiom checks, simulation.

The oracles here reuse none of the copula formulas they are meant to
check (the dense evaluator :func:`copula_grid` is no oracle: it is
:meth:`GeneratorVector.values` on a grid).  The
discrete oracle computes joint probabilities by conditioning on the
common shock (and, as a second independent route, by brute-force
enumeration of the full support lattice).  Monte Carlo estimates come from
inverse-transform sampling with one counter-based RNG stream per
dimension, so results are reproducible bit for bit from the seed alone.

The ``suite_*`` functions bundle the library's invariants into named
checks with witness-carrying failure records; :func:`run_suite` dispatches
by name and returns a JSON-ready report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .copulas import (
    GeneratorVector,
    _grid_arrays,
    joint_marshall_values,
    joint_maxmin_values,
    joint_rmm_Hsigma_values,
    joint_rmm_values,
)
from .distfn import (
    Clamp,
    DiracStep,
    Discrete,
    DistributionFn,
    Exponential,
    Switch,
    Uniform,
)
from .genfn import TruncatedLinear
from .imprecise import (
    BoundFamily,
    PBox,
    ShockModel,
    H_bounds_values,
    build_bounds,
    maxmin_mixed_vectors,
    rmm_envelope_full_scan_values,
    rmm_envelope_grid,
    rmm_envelope_values,
)

__all__ = [
    "OracleError",
    "UnsupportedSamplingError",
    "CheckReport",
    "copula_grid",
    "check_copula",
    "check_quasicopula",
    "DiscreteModelOracle",
    "monte_carlo_joint",
    "philox_stream",
    "random_discrete",
    "random_shock_model",
    "random_pbox_shock_model",
    "random_generator_vector",
    "random_member",
    "suite_axioms",
    "suite_oracles",
    "suite_theorems",
    "suite_montecarlo",
    "run_suite",
    "SUITE_NAMES",
]

# Evaluation coordinates for random discrete models live on this lattice so
# that test points hit support points exactly (ties exercise the jump
# branches of the extension formulas, not just the smooth parts).
COORDINATE_LATTICE = tuple(k * 0.5 for k in range(21))

_MAX_ORACLE_SUPPORT = 8
_MAX_ORACLE_DIM = 6
_FAILURE_CAP = 25


class OracleError(ValueError):
    """The model is outside what the exact discrete oracle supports."""


class UnsupportedSamplingError(ValueError):
    """A distribution kind without vectorized inverse-transform sampling."""


# ---------------------------------------------------------------------------
# check reports and axiom checks
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    check: str
    instances: int
    failures: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, model, point, expected, actual) -> None:
        self.diagnostics["failures_total"] = self.diagnostics.get("failures_total", 0) + 1
        if len(self.failures) < _FAILURE_CAP:
            self.failures.append(
                {"model": model, "point": point, "expected": expected, "actual": actual}
            )

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "instances": self.instances,
            "passed": self.passed,
            "failures": self.failures,
            "diagnostics": self.diagnostics,
        }


def copula_grid(gv: GeneratorVector, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Dense evaluation of a generator vector's copula on an axis grid.

    :meth:`GeneratorVector.values` with axis k running along dimension k;
    the result has shape ``(len(axes[0]), ..., len(axes[-1]))``.  Used where
    point-by-point evaluation would dominate a suite's runtime.
    """
    return gv.values(_grid_arrays(axes))


def _grid_values(C, n: int, grid: np.ndarray) -> np.ndarray:
    """C on the n-fold grid; C is a callable, a GeneratorVector or the values."""
    if isinstance(C, np.ndarray):
        if C.shape != (grid.size,) * n:
            raise ValueError(f"expected values of shape {(grid.size,) * n}, got {C.shape}")
        return C
    if isinstance(C, GeneratorVector):
        return copula_grid(C, [grid] * n)
    V = np.empty([grid.size] * n)
    for idx in np.ndindex(*V.shape):
        V[idx] = C([float(grid[k]) for k in idx])
    return V


def _axiom_failures(V: np.ndarray, grid: np.ndarray, tol: float, label, report: CheckReport) -> None:
    n = V.ndim
    for k in range(n):
        face = np.take(V, 0, axis=k)
        worst = float(np.max(np.abs(face))) if face.size else 0.0
        if worst > tol:
            report.record(label, f"u{k + 1}=0 face", 0.0, worst)
        indexer: list = [-1] * n
        indexer[k] = slice(None)
        margin = V[tuple(indexer)]
        err = float(np.max(np.abs(margin - grid)))
        if err > tol:
            at = int(np.argmax(np.abs(margin - grid)))
            report.record(label, f"margin axis {k + 1} at u={float(grid[at])!r}",
                          float(grid[at]), float(margin[at]))


def check_copula(C, n: int, grid_size: int = 21, tol: float = 1e-12, label=None) -> CheckReport:
    """Grounded margins, uniform margins, and nonnegative cell volumes on a grid."""
    grid = np.linspace(0.0, 1.0, grid_size)
    V = _grid_values(C, n, grid)
    report = CheckReport("copula-axioms", 1)
    _axiom_failures(V, grid, tol, label, report)
    D = V
    for k in range(n):
        D = np.diff(D, axis=k)
    min_vol = float(D.min())
    if min_vol < -tol:
        at = np.unravel_index(int(np.argmin(D)), D.shape)
        box = [[float(grid[i]), float(grid[i + 1])] for i in at]
        report.record(label, box, ">= -tol", min_vol)
    report.diagnostics["min_cell_volume"] = min_vol
    return report


def check_quasicopula(C, n: int, grid_size: int = 21, tol: float = 1e-12, label=None) -> CheckReport:
    """Margins, groundedness, monotonicity, and 1-Lipschitz continuity.

    Deliberately does not test n-increasingness; envelope surfaces may
    legitimately fail it while passing here.  ``C`` may also be the values
    already evaluated on the uniform grid of ``grid_size`` points per axis.
    """
    grid = np.linspace(0.0, 1.0, grid_size)
    h = 1.0 / (grid_size - 1)
    V = _grid_values(C, n, grid)
    report = CheckReport("quasicopula-axioms", 1)
    _axiom_failures(V, grid, tol, label, report)
    for k in range(n):
        D = np.diff(V, axis=k)
        lo = float(D.min())
        hi = float(D.max())
        if lo < -tol:
            report.record(label, f"monotonicity along axis {k + 1}", ">= 0", lo)
        if hi > h + tol:
            report.record(label, f"Lipschitz along axis {k + 1}", f"<= {h}", hi)
    return report


# ---------------------------------------------------------------------------
# exact oracle for all-Discrete models
# ---------------------------------------------------------------------------


class DiscreteModelOracle:
    """Exact joint probabilities for a precise all-Discrete shock model.

    Two independent routes: :meth:`exact_joint` conditions on the common
    shock value; :meth:`exact_joint_bruteforce` enumerates the full support
    lattice (cached at construction, where total probability is asserted).
    """

    def __init__(self, model: ShockModel) -> None:
        if not model.is_precise:
            raise OracleError("oracle needs a precise model (degenerate p-boxes)")
        margins = model.precise_marginals()
        dists = list(margins) + [model.exogenous]
        for d in dists:
            if not isinstance(d, Discrete):
                raise OracleError(f"oracle needs Discrete distributions, got {type(d).__name__}")
            if len(d.points) > _MAX_ORACLE_SUPPORT:
                raise OracleError(
                    f"support size {len(d.points)} exceeds the oracle cap {_MAX_ORACLE_SUPPORT}"
                )
        if model.n > _MAX_ORACLE_DIM:
            raise OracleError(f"dimension {model.n} exceeds the oracle cap {_MAX_ORACLE_DIM}")

        self.model = model
        self.margins: tuple[Discrete, ...] = margins  # type: ignore[assignment]
        self.shock: Discrete = model.exogenous  # type: ignore[assignment]
        self.n = model.n
        self.p = model.split

        pmf: dict[tuple[float, ...], float] = {}
        supports = [d.points for d in self.margins]
        for combo in itertools.product(*supports):
            weight = math.prod(m for _, m in combo)
            for z, mz in self.shock.points:
                u = tuple(
                    max(x, z) if k < self.p else min(x, z)
                    for k, (x, _) in enumerate(combo)
                )
                pmf[u] = pmf.get(u, 0.0) + weight * mz
        total = math.fsum(pmf.values())
        if abs(total - 1.0) > 1e-12:
            raise OracleError(f"enumerated probability {total!r} differs from 1")
        self._pmf = pmf

    def exact_joint(self, x: Sequence[float], reflected_tail: bool = False) -> float:
        """P(U_i <= x_i for max-type i; U_j <= x_j, or > x_j when reflected)."""
        if len(x) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(x)}")
        total = 0.0
        for z, mz in self.shock.points:
            term = mz
            for i in range(self.p):
                if z > x[i]:
                    term = 0.0
                    break
                term *= self.margins[i].value(x[i])
            if term == 0.0:
                continue
            for j in range(self.p, self.n):
                if reflected_tail:
                    term = term * (1.0 - self.margins[j].value(x[j])) if z > x[j] else 0.0
                elif z > x[j]:
                    term *= self.margins[j].value(x[j])
                if term == 0.0:
                    break
            total += term
        return total

    def exact_joint_bruteforce(self, x: Sequence[float], reflected_tail: bool = False) -> float:
        if len(x) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(x)}")
        total = 0.0
        for u, prob in self._pmf.items():
            ok = all(u[i] <= x[i] for i in range(self.p))
            if ok:
                if reflected_tail:
                    ok = all(u[j] > x[j] for j in range(self.p, self.n))
                else:
                    ok = all(u[j] <= x[j] for j in range(self.p, self.n))
            if ok:
                total += prob
        return total


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def philox_stream(seed: int, dim: int) -> np.random.Generator:
    """Counter-based RNG stream keyed by (seed, dim); streams never overlap."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, dim], dtype=np.uint64)))


def _quantile_array(dist: DistributionFn, u: np.ndarray) -> np.ndarray:
    if isinstance(dist, Exponential):
        return -np.log1p(-u) / dist.rate
    if isinstance(dist, DiracStep):
        return np.full_like(u, dist.location)
    if isinstance(dist, Uniform):
        return dist.a + u * (dist.b - dist.a)
    if isinstance(dist, Discrete):
        xs = np.array([x for x, _ in dist.points])
        cum = np.array(dist._cum)
        return xs[np.searchsorted(cum, u, side="left")]
    raise UnsupportedSamplingError(
        f"no vectorized inverse transform for {type(dist).__name__}"
    )


def monte_carlo_joint(
    model: ShockModel,
    x: Sequence[float],
    n_samples: int,
    seed: int,
    reflected_tail: bool = False,
) -> tuple[float, float]:
    """(estimate, stderr) for the model's joint event at x.

    Dimension k draws from the stream keyed (seed, k); the exogenous shock
    uses (seed, n).  Identical inputs give bit-identical estimates.
    """
    margins = model.precise_marginals()
    n, p = model.n, model.split
    if len(x) != n:
        raise ValueError(f"expected {n} coordinates, got {len(x)}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    z = _quantile_array(model.exogenous, philox_stream(seed, n).random(n_samples))
    keep = np.ones(n_samples, dtype=bool)
    for k in range(n):
        xs = _quantile_array(margins[k], philox_stream(seed, k).random(n_samples))
        if k < p:
            keep &= np.maximum(xs, z) <= x[k]
        elif reflected_tail:
            keep &= np.minimum(xs, z) > x[k]
        else:
            keep &= np.minimum(xs, z) <= x[k]
    estimate = float(int(keep.sum()) / n_samples)
    stderr = math.sqrt(estimate * (1.0 - estimate) / n_samples)
    return estimate, stderr


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def random_discrete(rng: np.random.Generator, max_support: int = 5) -> Discrete:
    k = int(rng.integers(1, max_support + 1))
    xs = rng.choice(np.array(COORDINATE_LATTICE), size=k, replace=False)
    weights = rng.integers(1, 10, size=k).astype(float)
    masses = weights / weights.sum()
    return Discrete(tuple(zip((float(v) for v in xs), (float(m) for m in masses))))


def _random_partition(rng: np.random.Generator, family: str, n: int) -> int | None:
    if family == "marshall":
        return None
    return int(rng.integers(1, n))


def random_shock_model(
    rng: np.random.Generator, family: str, n: int, max_support: int = 5
) -> ShockModel:
    """Precise all-Discrete model (degenerate p-boxes)."""
    boxes = tuple(PBox.precise(random_discrete(rng, max_support)) for _ in range(n))
    return ShockModel(family, boxes, random_discrete(rng, max_support), _random_partition(rng, family, n))


def _random_discrete_pbox(rng: np.random.Generator, max_support: int = 5) -> PBox:
    k = int(rng.integers(2, max_support + 1))
    xs = np.sort(rng.choice(np.array(COORDINATE_LATTICE), size=k, replace=False))
    cdfs = []
    for _ in range(2):
        w = rng.integers(1, 10, size=k).astype(float)
        c = np.cumsum(w / w.sum())
        c[-1] = 1.0
        cdfs.append(c)
    lower_c = np.minimum(cdfs[0], cdfs[1])
    upper_c = np.maximum(cdfs[0], cdfs[1])

    def to_discrete(c: np.ndarray) -> Discrete:
        masses = np.diff(np.concatenate([[0.0], c]))
        pts = [(float(x), float(m)) for x, m in zip(xs, masses) if m > 1e-15]
        return Discrete(tuple(pts))

    return PBox(to_discrete(lower_c), to_discrete(upper_c))


def random_pbox_shock_model(
    rng: np.random.Generator, family: str, n: int, max_support: int = 5
) -> ShockModel:
    boxes = tuple(_random_discrete_pbox(rng, max_support) for _ in range(n))
    return ShockModel(family, boxes, random_discrete(rng, max_support), _random_partition(rng, family, n))


def random_generator_vector(rng: np.random.Generator, family: str, n: int) -> GeneratorVector:
    """Valid-by-construction generator vector for axiom scans.

    rmm coordinates are truncated-linear generators with random threshold
    and scale; marshall/maxmin generators are canonical extensions of a
    random discrete shock model, so the defining conditions hold without a
    rejection loop.
    """
    if family == "rmm":
        p = int(rng.integers(1, n))
        gens = tuple(
            TruncatedLinear(
                c=float(rng.uniform(0.05, 0.95)),
                scale=float(rng.uniform(0.1, 1.0)),
                kind="rmm_f" if k < p else "rmm_g",
            )
            for k in range(n)
        )
        return GeneratorVector("rmm", gens, p)
    model = random_shock_model(rng, family, n)
    return build_bounds(model).lower_gen


def random_member(rng: np.random.Generator, box: PBox) -> DistributionFn:
    """A monotone distribution inside the box, outside the convex family.

    Splices two convex combinations at a random point (heavier weight on
    the lower bound first, so the splice cannot drop) and clips to the box.
    """
    if box.is_degenerate:
        return box.lower
    t1, t2 = sorted((float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))), reverse=True)
    split_at = box.lower.smallest_preimage(float(rng.uniform(0.2, 0.8)))
    spliced = Switch(split_at, box.member(t1), box.member(t2))
    return Clamp(spliced, box.lower, box.upper)


def _lattice_points(rng: np.random.Generator, count: int, n: int) -> list[list[float]]:
    """``count`` points of the coordinate lattice, drawn by one RNG call."""
    lattice = np.array(COORDINATE_LATTICE)
    return lattice[rng.integers(0, lattice.size, size=(count, n))].tolist()


def _unit_points(rng: np.random.Generator, count: int, n: int) -> list[list[float]]:
    """``count`` points of the unit cube, drawn by one RNG call."""
    return rng.random((count, n)).tolist()


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITE_NAMES = ("axioms", "oracles", "theorems", "montecarlo", "all")
_FAMILY_CYCLE_N = (2, 3, 4)


def _suite_result(name: str, seed: int, checks: list[CheckReport]) -> dict:
    return {
        "suite": name,
        "seed": seed,
        "passed": all(c.passed for c in checks),
        "checks": [c.to_dict() for c in checks],
    }


def suite_axioms(seed: int, vectors_per_family: int = 50, grid_size: int = 21) -> dict:
    """Copula axioms on dense grids for random valid generator vectors."""
    rng = philox_stream(seed, 101)
    checks = []
    for family in ("marshall", "maxmin", "rmm"):
        report = CheckReport(f"{family}-copula-axioms", 0)
        for k in range(vectors_per_family):
            n = 2 if k % 2 == 0 else 3
            gv = random_generator_vector(rng, family, n)
            sub = check_copula(gv, n, grid_size, tol=1e-12, label=f"{family}[{k}] n={n}")
            report.instances += 1
            report.failures.extend(sub.failures)
            for key, val in sub.diagnostics.items():
                if key == "min_cell_volume":
                    report.diagnostics[key] = min(report.diagnostics.get(key, 0.0), val)
        checks.append(report)
    return _suite_result("axioms", seed, checks)


def _model_label(model: ShockModel, idx: int) -> str:
    return f"{model.family} n={model.n} p={model.split} #{idx}"


def suite_oracles(seed: int, models_per_family: int = 100, points_per_model: int = 50) -> dict:
    """Exact discrete enumeration vs the closed formulas and compositions."""
    rng = philox_stream(seed, 211)
    checks = []
    for family in ("marshall", "maxmin", "rmm"):
        direct = CheckReport(f"{family}-oracle-vs-direct", 0)
        composed = CheckReport(f"{family}-oracle-vs-composition", 0)
        reflected = family == "rmm"
        for idx in range(models_per_family):
            n = _FAMILY_CYCLE_N[idx % len(_FAMILY_CYCLE_N)]
            model = random_shock_model(rng, family, n)
            label = _model_label(model, idx)
            oracle = DiscreteModelOracle(model)
            margins = model.precise_marginals()
            z = model.exogenous
            p = model.split
            bf = build_bounds(model)
            gens = bf.lower_gen
            direct.instances += 1
            composed.instances += 1
            points = _lattice_points(rng, points_per_model, n)
            xs = _columns(points, n)
            if reflected:
                composed_values = joint_rmm_Hsigma_values(gens, margins, z, xs)
                direct_values = joint_rmm_values(margins, z, xs, p)
            else:
                # the model is precise: lower_G are the lifetimes of its marginals
                composed_values = gens.values([G.values(x) for G, x in zip(bf.lower_G, xs)])
                direct_values = (joint_marshall_values(margins, z, xs) if family == "marshall"
                                 else joint_maxmin_values(margins, z, xs, p))
            for x, got_direct, got_composed in zip(points, direct_values.tolist(),
                                                   composed_values.tolist()):
                want = oracle.exact_joint(x, reflected_tail=reflected)
                if abs(want - got_direct) > 1e-12:
                    direct.record(label, x, want, got_direct)
                if abs(want - got_composed) > 1e-12:
                    composed.record(label, x, want, got_composed)
        checks.extend([direct, composed])
    return _suite_result("oracles", seed, checks)


def _columns(points: list[list[float]], n: int) -> np.ndarray:
    """A stack of n-coordinate points as n per-coordinate arrays."""
    return np.array(points, dtype=float).reshape(-1, n).T


def _record_flagged(report: CheckReport, label, flagged: np.ndarray, entry) -> None:
    """Record every flagged entry of a stack of checks, in the stack's C order.

    The stack's axes are the loops of a point-by-point check, outermost
    first (point, then coordinate or pair, then bound or combination), so
    its C order is the order in which such a loop meets the entries;
    ``entry(*index)`` gives the point, expected and actual value to record.
    """
    for index in np.argwhere(flagged).tolist():
        report.record(label, *entry(*index))


def _bounds_at(lower, upper, args: np.ndarray) -> np.ndarray:
    """``lower[k]`` at ``args[:, k, 0]`` and ``upper[k]`` at ``args[:, k, 1]``.

    ``args`` (broadcast to it) and the result are ``(point, coordinate,
    bound)`` arrays; each function is asked once, by ``values``, for its
    column of the stack.
    """
    args = np.broadcast_to(args, (len(args), len(lower), 2)).transpose(1, 0, 2)
    return np.array([[lo.values(a[:, 0]), hi.values(a[:, 1])]
                     for lo, hi, a in zip(lower, upper, args)]).transpose(2, 0, 1)


def _joint_law_checks(rng, reports, label, bf: BoundFamily, count: int, law, marginals,
                      bounding, sandwich_tol: float, composition_tol: float) -> list[list[float]]:
    """Draw ``count`` lattice points and check the H bounds there; returns the points.

    The bounds come from one stacked :func:`H_bounds_values` call and
    ``law(components, xs)``, a joint law over the points' columns, gives the
    joint law of each member's ``marginals`` and of both ``bounding``
    component lists in one stacked call each.  A member outside the bounds
    is a ``composed-sandwich`` failure; bounds that differ from the bounding
    laws are an ``H-composition`` failure.
    """
    lattice = _lattice_points(rng, count, bf.n)
    xs = _columns(lattice, bf.n)
    lows, highs = H_bounds_values(bf, xs)
    mids = np.array([law(margins, xs) for margins in marginals]).T
    want_lows, want_highs = (law(components, xs) for components in bounding)
    _sandwich(reports["composed-sandwich"], label, lattice, lows, highs, mids, sandwich_tol)
    moved = (np.abs(lows - want_lows) > composition_tol) | (np.abs(highs - want_highs) > composition_tol)
    _record_flagged(reports["H-composition"], label, moved, lambda q: (
        lattice[q], (float(want_lows[q]), float(want_highs[q])), (float(lows[q]), float(highs[q]))))
    return lattice


def _sandwich(report, label, points, lows, highs, mids, tol) -> None:
    """Record each ``(point, member)`` value outside [lows, highs] by more than tol (nan included)."""
    outside = ~((lows[:, None] <= mids + tol) & (mids <= highs[:, None] + tol))
    _record_flagged(report, label, outside, lambda q, m: (
        points[q], (float(lows[q]), float(highs[q])), float(mids[q, m])))


def _copula_sandwich(report, label, unit, lower, upper, members, tol) -> None:
    """Record each point where a member's copula leaves [lower, upper] by more than tol."""
    us = _columns(unit, lower.n)
    mids = np.array([build_bounds(m).lower_gen.values(us) for m in members]).T
    _sandwich(report, label, unit, lower.values(us), upper.values(us), mids, tol)


def _member_models(rng: np.random.Generator, model: ShockModel) -> list[ShockModel]:
    members = [model.member_model([t] * model.n) for t in (0.25, 0.5, 0.75)]
    boxes = tuple(PBox.precise(random_member(rng, box)) for box in model.endogenous)
    members.append(ShockModel(model.family, boxes, model.exogenous, model.p))
    return members


def _bound_columns(bf: BoundFamily, model: ShockModel, xs: np.ndarray):
    """The bound lifetimes G, the component bounds F and the bound generators
    at G, on each coordinate's column of a stack, as :func:`_bounds_at` arrays."""
    x, boxes = xs.T[..., None], model.endogenous
    g = _bounds_at(bf.lower_G, bf.upper_G, x)
    F = _bounds_at([b.lower for b in boxes], [b.upper for b in boxes], x)
    return g, F, _bounds_at(bf.lower_gen.generators, bf.upper_gen.generators, g)


def _instance(rng, model: ShockModel, idx: int) -> tuple:
    """An instance's label, bound family, member models and their marginals,
    built once for its family's theorem checks.  They go straight into the
    checks' call, so nothing holds them once the checks return."""
    label, bf = _model_label(model, idx), build_bounds(model)
    members = _member_models(rng, model)
    return label, bf, members, [member.precise_marginals() for member in members]


def _theorem_checks_marshall(rng, model, label, bf, members, marginals, points, reports) -> None:
    n = model.n
    z = model.exogenous

    _copula_sandwich(reports["copula-sandwich"], label, _unit_points(rng, points, n),
                     bf.lower_gen, bf.upper_gen, members, 1e-12)

    lattice = _joint_law_checks(
        rng, reports, label, bf, points, lambda comps, xs: joint_marshall_values(comps, z, xs),
        marginals, ([b.lower for b in model.endogenous], [b.upper for b in model.endogenous]),
        1e-12, 1e-12)
    xs = _columns(lattice, n)
    g, F, f = _bound_columns(bf, model, xs)
    _record_flagged(reports["defining-relation"], label, (g > 0.0) & (np.abs(f - F) > 1e-12),
                    lambda q, k, b: ([k, lattice[q][k]], float(F[q, k, b]), float(f[q, k, b])))

    # stars at every coordinate and level collapse to 1/F_Z at that point,
    # so any two of them agree wherever both arguments are positive; g > 0
    # makes F_Z > 0, and star(g) is gen(g)/g there
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = 1.0 / z.values(xs).T
        star = f / g
    off = (g > 0.0) & (np.abs(star - inverse[:, :, None]) > 1e-10)
    _record_flagged(reports["star-identity"], label, off,
                    lambda q, k, b: ([k, lattice[q][k]], float(inverse[q, k]), float(star[q, k, b])))


def _theorem_checks_maxmin(rng, model, label, bf, members, marginals, points, reports) -> None:
    n, p = model.n, model.split
    z = model.exogenous

    lattice = _joint_law_checks(
        rng, reports, label, bf, points, lambda comps, xs: joint_maxmin_values(comps, z, xs, p),
        marginals, ([b.lower for b in model.endogenous], [b.upper for b in model.endogenous]),
        1e-10, 1e-10)
    xs = _columns(lattice, n)
    g, F, f = _bound_columns(bf, model, xs)
    # max-type coordinates are checked where G > 0 with the dagger u/phi(u),
    # min-type ones where G < 1 with (u - chi(u)) / (1 - chi(u))
    max_type = (np.arange(n) < p)[:, None]
    checked = np.where(max_type, g > 0.0, g < 1.0)
    _record_flagged(reports["defining-relation"], label, checked & (np.abs(f - F) > 1e-12),
                    lambda q, k, b: ([k, lattice[q][k]], float(F[q, k, b]), float(f[q, k, b])))

    undefined = checked & np.where(max_type, f == 0.0, f >= 1.0)
    if undefined.any():
        # the scalar dagger raises the per-point error at the first such entry
        q, k, b = np.argwhere(undefined)[0].tolist()
        (bf.lower_gen, bf.upper_gen)[b].generators[k].dagger(float(g[q, k, b]))
    with np.errstate(divide="ignore", invalid="ignore"):
        dagger = np.where(max_type, g / f, (g - f) / (1.0 - f))
    fz = z.values(xs).T
    off = checked & (np.abs(dagger - fz[:, :, None]) > 1e-10)
    _record_flagged(reports["dagger-identity"], label, off,
                    lambda q, k, b: ([k, lattice[q][k]], float(fz[q, k]), float(dagger[q, k, b])))

    if n == 2:
        _copula_sandwich(reports["bivariate-mixed-sandwich"], label, _unit_points(rng, points, 2),
                         *maxmin_mixed_vectors(bf), members, 1e-10)


def _rmm_lattice_checks(reports, label, model, bf, lattice) -> None:
    """Marginal order, defining relations and star products of an rmm instance on its lattice stack."""
    n, p = model.n, model.split
    xs = _columns(lattice, n)
    G = _bounds_at(bf.lower_G, bf.upper_G, xs.T[..., None])
    _record_flagged(reports["marginal-order"], label, G[..., 0] > G[..., 1] + 1e-12, lambda q, k: (
        [k, lattice[q][k]], "lower_G <= upper_G", (float(G[q, k, 0]), float(G[q, k, 1]))))

    # defining relations: gen(G) = F - G at a max-type coordinate, and
    # gen(1 - G) = (1 - F) - (1 - G) at a min-type one, with the bounds reversed
    max_type = (np.arange(n) < p)[:, None]
    G = np.where(max_type, G, G[..., ::-1])
    F = _bounds_at([b.lower for b in model.endogenous], [b.upper for b in model.endogenous],
                   xs.T[..., None])
    F = np.where(max_type, F, F[..., ::-1])
    arg = np.where(max_type, G, 1.0 - G)
    want = np.where(max_type, F - arg, (1.0 - F) - arg)
    f = _bounds_at(bf.lower_gen.generators, bf.upper_gen.generators, arg)
    _record_flagged(reports["defining-relation"], label, (arg > 0.0) & (np.abs(f - want) > 1e-12),
                    lambda q, k, b: ([k, lattice[q][k]], float(want[q, k, b]), float(f[q, k, b])))

    # star products across all (max, min) pairs at a common x, in four
    # combinations of the bounds (lower-upper, lower-lower, upper-lower,
    # upper-upper); each star's generator and argument are a defining relation's
    combos = [(i, j, a, c) for i in range(p) for j in range(p, n)
              for a, c in ((0, 1), (0, 0), (1, 0), (1, 1))]
    i, j, a, c = np.array(combos).T
    with np.errstate(divide="ignore", invalid="ignore"):
        star = f / arg
    prod = star[:, i, a] * star[:, j, c]
    fz = model.exogenous.values(xs[i]).T
    checked = (xs[i] == xs[j]).T & (0.0 < fz) & (fz < 1.0) & (arg[:, i, a] > 0.0) & (arg[:, j, c] > 0.0)
    _record_flagged(reports["star-products"], label, checked & (np.abs(prod - 1.0) > 1e-10),
                    lambda q, m: ([*combos[m][:2], lattice[q][combos[m][0]]], 1.0, float(prod[q, m])))


def _theorem_checks_rmm(rng, model, label, bf, members, marginals, points, reports) -> None:
    n, p = model.n, model.split
    z = model.exogenous
    lows = [b.lower for b in model.endogenous]
    ups = [b.upper for b in model.endogenous]

    ts = np.linspace(0.0, 1.0, max(3, points // 25))
    on_grid = _bounds_at(bf.lower_gen.generators, bf.upper_gen.generators, ts[:, None, None])
    _record_flagged(reports["generator-order"], label, on_grid[..., 0] > on_grid[..., 1] + 1e-12,
                    lambda t, k: ([k, float(ts[t])], "lower <= upper",
                                  (float(on_grid[t, k, 0]), float(on_grid[t, k, 1]))))

    # the lattice checks run in their own frame, so their stacks are freed
    # before the envelope scan
    _rmm_lattice_checks(reports, label, model, bf, _joint_law_checks(
        rng, reports, label, bf, points, lambda comps, xs: joint_rmm_values(comps, z, xs, p),
        marginals, (lows[:p] + ups[p:], ups[:p] + lows[p:]), 1e-10, 1e-12))

    unit = _unit_points(rng, points, n)
    columns = _columns(unit, n)
    inf_env, sup_env = rmm_envelope_values(bf, columns)
    inf_scan, sup_scan = rmm_envelope_full_scan_values(bf, columns)
    _record_flagged(reports["envelope-inf-reduction"], label, np.abs(inf_env - inf_scan) > 1e-12,
                    lambda q: (unit[q], float(inf_scan[q]), float(inf_env[q])))
    sup = reports["envelope-sup-bounded"]
    gap = np.abs(sup_env - sup_scan)
    first = gap[gap > 0.0][:1]
    if first.size and first[0] <= 1e-12:
        # a per-point loop sets the diagnostic at the first gap, before any record
        sup.diagnostics.setdefault("max_sup_gap", 0.0)
    _record_flagged(sup, label, gap > 1e-12,
                    lambda q: (unit[q], float(sup_scan[q]), float(sup_env[q])))
    widest = float(np.fmax.reduce(gap, initial=0.0))  # nan is no gap
    if widest > sup.diagnostics.get("max_sup_gap", 0.0):
        sup.diagnostics["max_sup_gap"] = widest
    if n == 2:
        # the copula with the *lower* generators dominates pointwise
        _copula_sandwich(reports["bivariate-copula-sandwich"], label, unit,
                         bf.upper_gen, bf.lower_gen, members, 1e-10)


# each family's theorem checks, in the order a report lists them
_THEOREM_CHECKS = (
    ("marshall", ("copula-sandwich", "composed-sandwich", "H-composition", "defining-relation",
                  "star-identity")),
    ("maxmin", ("composed-sandwich", "H-composition", "defining-relation", "dagger-identity",
                "bivariate-mixed-sandwich")),
    ("rmm", ("generator-order", "marginal-order", "defining-relation", "star-products",
             "composed-sandwich", "H-composition", "envelope-inf-reduction",
             "envelope-sup-bounded", "bivariate-copula-sandwich")),
)
# the checks that run only on bivariate instances, and count only those
_BIVARIATE_CHECKS = ("bivariate-mixed-sandwich", "bivariate-copula-sandwich")


def suite_theorems(seed: int, instances_per_family: int = 20, points_per_instance: int = 1000) -> dict:
    """Order and identity statements for bound families of random p-box models.

    Each instance is evaluated once over its stack of points and checked as
    a whole stack: every comparison is one numpy test, and Python runs only
    on the flagged entries, recorded in the order a loop over points, then
    coordinates (or pairs), then bounds (or combinations) meets them.  The
    stacked calls per instance are: the bound and member copulas
    (:meth:`GeneratorVector.values`); the H bounds (:func:`H_bounds_values`);
    six joint laws on the lattice points, one per member model and one per
    bounding component list (:func:`joint_marshall_values`,
    :func:`joint_maxmin_values` or :func:`joint_rmm_values`); per coordinate
    and bound, the bound lifetime G, the component bound F and the bound
    generator at G (at 1 - G for an rmm min-type coordinate) on that
    coordinate's column of the lattice stack, and the shock F_Z once per
    coordinate (:meth:`DistributionFn.values`, :meth:`Generator.values`),
    which serve the defining relations, daggers, stars and the rmm marginal
    order; for rmm, each bound generator on the generator-order grid; and
    the envelope and the full vertex scan, each of which evaluates the
    bound generators on the stack (:func:`rmm_envelope_values`,
    :func:`rmm_envelope_full_scan_values`).  Stars and daggers are the
    scalar transforms' single divisions (``gen(u)/u``, ``u/phi(u)``,
    ``(u - chi)/(1 - chi)``); where a dagger is undefined the scalar
    :meth:`Generator.dagger` is called at the first such entry and raises.
    A check counts the instances it ran on: the bivariate sandwiches only
    those with n = 2.  The points themselves are drawn by one RNG call per
    stack.  Both envelope halves must equal the full vertex scan within
    1e-12: the reduced inf scan, and the star-form sup
    (``rmm-envelope-sup-bounded``, whose ``max_sup_gap`` diagnostic records
    the largest absolute gap).
    """
    rng = philox_stream(seed, 307)
    reports = {family: {name: CheckReport(f"{family}-{name}", 0) for name in names}
               for family, names in _THEOREM_CHECKS}
    run = {"marshall": _theorem_checks_marshall, "maxmin": _theorem_checks_maxmin,
           "rmm": _theorem_checks_rmm}
    for idx in range(instances_per_family):
        n = _FAMILY_CYCLE_N[idx % len(_FAMILY_CYCLE_N)]
        for family, family_reports in reports.items():
            model = random_pbox_shock_model(rng, family, n)
            run[family](rng, model, *_instance(rng, model, idx), points_per_instance, family_reports)
            for name, report in family_reports.items():
                if n == 2 or name not in _BIVARIATE_CHECKS:
                    report.instances += 1
    checks = [report for family_reports in reports.values() for report in family_reports.values()]

    # envelope surfaces are quasi-copulas; scan one modest instance per call
    env_model = random_pbox_shock_model(rng, "rmm", 3)
    env_grid = np.linspace(0.0, 1.0, 11)
    envelopes = rmm_envelope_grid(build_bounds(env_model), [env_grid] * 3)
    quasi = CheckReport("rmm-envelope-quasicopula", 2)
    for values, tag in zip(envelopes, ("inf", "sup")):
        sub = check_quasicopula(values, 3, grid_size=env_grid.size, tol=1e-12,
                                label=f"envelope-{tag}")
        quasi.failures.extend(sub.failures)
    checks.append(quasi)

    return _suite_result("theorems", seed, checks)


def _worked_example_model() -> ShockModel:
    return ShockModel(
        "rmm",
        (PBox.precise(Exponential(1.0)), PBox.precise(Exponential(1.0))),
        DiracStep(1.0),
        1,
    )


def suite_montecarlo(seed: int, n_samples: int = 10**6, points: int = 20) -> dict:
    """Simulation of the exponential/Dirac reference model vs exact values."""
    model = _worked_example_model()
    margins = model.precise_marginals()
    z = model.exogenous
    gens = build_bounds(model).lower_gen
    xs = np.linspace(0.1, 2.9, points)
    ys = np.linspace(2.9, 0.05, points)
    agree = CheckReport("montecarlo-vs-exact", 0)
    wants = joint_rmm_Hsigma_values(gens, margins, z, [xs, ys]).tolist()
    for x, y, want in zip(xs, ys, wants):
        est, stderr = monte_carlo_joint(model, [float(x), float(y)], n_samples, seed,
                                        reflected_tail=True)
        agree.instances += 1
        if abs(est - want) > 4.0 * max(stderr, 1e-9):
            agree.record("exp/dirac reference", [float(x), float(y)], want, est)
    rerun = CheckReport("montecarlo-reproducible", 0)
    for x, y in zip(xs[:3], ys[:3]):
        a = monte_carlo_joint(model, [float(x), float(y)], n_samples, seed, reflected_tail=True)
        b = monte_carlo_joint(model, [float(x), float(y)], n_samples, seed, reflected_tail=True)
        rerun.instances += 1
        if a != b:
            rerun.record("exp/dirac reference", [float(x), float(y)], a, b)
    return _suite_result("montecarlo", seed, [agree, rerun])


def run_suite(name: str, seed: int, **sizes) -> dict:
    """Run one named suite ('all' runs every suite and merges the reports)."""
    if name == "axioms":
        return suite_axioms(seed, **sizes)
    if name == "oracles":
        return suite_oracles(seed, **sizes)
    if name == "theorems":
        return suite_theorems(seed, **sizes)
    if name == "montecarlo":
        return suite_montecarlo(seed, **sizes)
    if name == "all":
        parts = [run_suite(part, seed) for part in ("axioms", "oracles", "theorems", "montecarlo")]
        return {
            "suite": "all",
            "seed": seed,
            "passed": all(p["passed"] for p in parts),
            "suites": parts,
        }
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
