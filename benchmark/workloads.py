"""The four workloads: inputs made from the seed, timed operations, gates.

Each workload turns ``--seed`` into model specs and points, hands only those
to the package, and runs one kind of operation the way a user calls it.  Its
gate runs after the timed phase and checks what the operations produced.
Hard checks decide whether the run is correct; the known-defect checks (a
member model's copula value outside the served ``envelope_sup`` /
``envelope_inf`` pair) only add to the failure share, so the defect stays
visible without hiding the rest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

import shockcopula as sc
from shockcopula import cli
from shockcopula.verify import random_member

TOL = 1e-12

# The reference model of the ROADMAP baseline table: rmm with p = 1.
BASELINE_MODEL = {
    "family": "rmm",
    "p": 1,
    "endogenous": [
        {"lower": {"kind": "exponential", "rate": 1.0}, "upper": {"kind": "exponential", "rate": 2.0}},
        {"lower": {"kind": "exponential", "rate": 1.0}, "upper": {"kind": "exponential", "rate": 2.0}},
        {"lower": {"kind": "uniform", "a": 0.0, "b": 3.0}, "upper": {"kind": "uniform", "a": 0.0, "b": 2.0}},
    ],
    "exogenous": {"kind": "dirac", "location": 1.0},
}


class Checks:
    """Tally of correctness checks and of the operations they condemn."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.defect_attempted = 0
        self.defect_failed = 0
        self.failed_ops: set[int] = set()
        self.notes: list[str] = []

    def hard(self, ok: bool, what: str, ops=()) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_ops.update(ops)
            if len(self.notes) < 20:
                self.notes.append(what)

    def known_defect(self, attempted: int, failed: int) -> None:
        self.defect_attempted += attempted
        self.defect_failed += failed

    @property
    def fail_share(self) -> float:
        total = self.attempted + self.defect_attempted
        return (self.failed + self.defect_failed) / total if total else 1.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _call_cli(args: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(args, standalone_mode=False)


def _read_surface(path: Path, n: int) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, rows.reshape(-1, n + 1)


def _inside_frechet(U: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Per value: finite and within the Fréchet bounds of its row of U."""
    n = U.shape[1]
    lower = np.maximum(U.sum(axis=1) - (n - 1), 0.0).reshape(-1, *[1] * (C.ndim - 1))
    upper = U.min(axis=1).reshape(lower.shape)
    return np.isfinite(C) & (C >= lower - TOL) & (C <= upper + TOL)


def _surface_shape_checks(checks: Checks, tag: str, U: np.ndarray, C: np.ndarray,
                          axis: np.ndarray, copula: bool, ops) -> None:
    """Order, grounding, margins, Fréchet bounds and cell checks of one surface."""
    n = U.shape[1]
    g = axis.size
    expected_u = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    checks.hard(U.shape == expected_u.shape and bool(np.array_equal(U, expected_u)),
                f"{tag}: grid coordinates are not the row-major unit grid", ops)
    grounded = (U == 0.0).any(axis=1)
    checks.hard(bool(np.all(np.abs(C[grounded]) <= TOL)), f"{tag}: not grounded", ops)
    ones = U == 1.0
    margin = ones.sum(axis=1) == n - 1
    free = np.where(margin[:, None], np.where(ones, 2.0, U), 2.0).min(axis=1)
    checks.hard(bool(np.all(np.abs(C[margin] - free[margin]) <= TOL)), f"{tag}: margins not uniform", ops)
    checks.hard(bool(_inside_frechet(U, C).all()), f"{tag}: outside the Fréchet bounds", ops)
    V = C.reshape([g] * n)
    if copula:
        # every grid cell has non-negative n-volume
        vol = V
        for k in range(n):
            vol = np.diff(vol, axis=k)
        checks.hard(bool(vol.min() >= -TOL), f"{tag}: a grid cell has negative volume {vol.min():.3g}", ops)
    else:
        # envelopes are quasi-copulas: non-decreasing and 1-Lipschitz per axis
        step = np.diff(axis).max()
        worst_drop = min(np.diff(V, axis=k).min() for k in range(n))
        worst_rise = max(np.diff(V, axis=k).max() for k in range(n))
        checks.hard(worst_drop >= -TOL and worst_rise <= step + TOL,
                    f"{tag}: not a quasi-copula on the grid", ops)


class Workload:
    name = ""
    min_ops = 1
    entry_module = "shockcopula"

    def __init__(self, seed: int, workdir: Path, size: dict | None = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.size = dict(self.default_size, **(size or {}))

    def setup_specs(self) -> list[dict]:
        """Model specs whose BoundFamily the set-up builds."""
        raise NotImplementedError

    def prepare(self) -> None:
        """In-process set-up before the timed phase: the set-up's bound families."""
        self.setup_bfs = [sc.build_bounds(sc.ShockModel.from_spec(s)) for s in self.setup_specs()]

    def op(self, k: int):
        """Run operation k; returns (units, per-unit latencies or None)."""
        raise NotImplementedError

    def after_op(self, k: int) -> None:
        """Untimed bookkeeping on operation k's output."""

    def output_stats(self, k: int) -> tuple[int, int]:
        """(rows, bytes) of the file operation k wrote; (0, 0) when it writes none."""
        return 0, 0

    def gate(self, ops: int) -> Checks:
        raise NotImplementedError


class SurfaceWorkload(Workload):
    entry_module = "shockcopula.cli"

    def __init__(self, seed, workdir, size=None):
        super().__init__(seed, workdir, size)
        self.config = workdir / "model.json"
        self.config.write_text(json.dumps(BASELINE_MODEL))
        self.bounds = self.size["bounds"]
        self.hashes: dict[str, list[str]] = {b: [] for b in self.bounds}

    def setup_specs(self):
        return [BASELINE_MODEL]

    def prepare(self):
        super().prepare()
        self.bf = self.setup_bfs[0]
        self.axis = np.linspace(0.0, 1.0, self.size["grid"])

    def out_path(self, bound: str) -> Path:
        return self.workdir / f"surface-{bound}.csv"

    def bound_of(self, k: int) -> str:
        return self.bounds[k % len(self.bounds)]

    def op(self, k):
        bound = self.bound_of(k)
        _call_cli(["surface", "--config", str(self.config), "--grid", str(self.size["grid"]),
                   "--bound", bound, "--out", str(self.out_path(bound))])
        return self.size["grid"] ** self.bf.n, None

    def after_op(self, k):
        bound = self.bound_of(k)
        self.hashes[bound].append(hashlib.sha256(self.out_path(bound).read_bytes()).hexdigest())

    def output_stats(self, k):
        path = self.out_path(self.bound_of(k))
        with open(path, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        return rows, path.stat().st_size

    def _ops_of(self, bound: str, ops: int) -> list[int]:
        return [k for k in range(ops) if self.bound_of(k) == bound]

    def gate(self, ops):
        checks = Checks()
        rng = _rng(self.seed, 1)
        n = self.bf.n
        surfaces = {}
        for bound in self.bounds:
            mine = self._ops_of(bound, ops)
            hashes = self.hashes[bound]
            checks.hard(len(set(hashes)) == 1, f"{bound}: repeated calls wrote different files", mine)
            header, rows = _read_surface(self.out_path(bound), n)
            U, C = rows[:, :n], rows[:, n]
            checks.hard(header == [f"u{k + 1}" for k in range(n)] + ["value"], f"{bound}: bad header", mine)
            copula = bound == "lower"
            _surface_shape_checks(checks, bound, U, C, self.axis, copula, mine)
            if copula:
                grid = sc.verify.copula_grid(self.bf.lower_gen, [self.axis] * n).ravel()
                checks.hard(C.shape == grid.shape and bool(np.array_equal(C, grid)),
                            f"{bound}: the file does not read back to the evaluated grid", mine)
            for r in rng.choice(len(C), size=self.size["sample_rows"], replace=False):
                u = [float(x) for x in U[r]]
                if copula:
                    want = self.bf.lower_gen(u)
                    ok = abs(C[r] - want) <= TOL
                else:
                    # bit exact: the CLI evaluates the envelope with this same call
                    want = sc.rmm_envelope(self.bf, u)[bound == "envelope_sup"]
                    ok = C[r] == want
                checks.hard(bool(ok), f"{bound}: row {u} reads {float(C[r])!r}, scalar gives {want!r}", mine)
            surfaces[bound] = (U, C)
        if {"envelope_inf", "envelope_sup"} <= surfaces.keys():
            U, lo = surfaces["envelope_inf"]
            _, hi = surfaces["envelope_sup"]
            checks.hard(bool(np.all(lo <= hi + TOL)), "envelope_inf exceeds envelope_sup", range(ops))
            self._member_checks(checks, rng, U, lo, hi)
        return checks

    def _member_checks(self, checks: Checks, rng, U, lo, hi) -> None:
        """Known defect: member copula values outside [envelope_inf, envelope_sup].

        Each member model's copula is evaluated on the whole interior grid, so
        the share depends only on which members the seed draws.
        """
        model = sc.ShockModel.from_spec(BASELINE_MODEL)
        members = []
        for _ in range(self.size["members"] // 2):
            members.append(model.member_model([float(t) for t in rng.random(model.n)]))
        for _ in range(self.size["members"] - len(members)):
            boxes = tuple(sc.PBox.precise(random_member(rng, box)) for box in model.endogenous)
            members.append(sc.ShockModel(model.family, boxes, model.exogenous, model.p))
        interior = ((U > 0.0) & (U < 1.0)).all(axis=1)
        outside = 0
        for member in members:
            c = sc.verify.copula_grid(sc.build_bounds(member).lower_gen, [self.axis] * model.n).ravel()
            outside += int(np.count_nonzero(((c < lo - TOL) | (c > hi + TOL)) & interior))
        checks.known_defect(len(members) * int(interior.sum()), outside)


class SurfaceLower(SurfaceWorkload):
    """CLI surface at grid 101, lower bound: bound by CSV output."""

    name = "surface-lower"
    default_size = {"grid": 101, "bounds": ("lower",), "sample_rows": 64}


class SurfaceEnvelope(SurfaceWorkload):
    """CLI surface at grid 41, envelope_sup and envelope_inf in turn."""

    name = "surface-envelope"
    min_ops = 2
    default_size = {"grid": 41, "bounds": ("envelope_sup", "envelope_inf"), "sample_rows": 64,
                    "members": 128}


# -- verify-theorems ---------------------------------------------------------

_LATTICE = np.arange(21) * 0.5


def _discrete_box_spec(rng) -> dict:
    k = int(rng.integers(2, 6))
    xs = np.sort(rng.choice(_LATTICE, size=k, replace=False))
    cdfs = []
    for _ in range(2):
        c = np.cumsum(rng.integers(1, 10, size=k).astype(float))
        cdfs.append(c / c[-1])
    lower, upper = np.minimum(*cdfs), np.maximum(*cdfs)

    def spec(c):
        masses = np.diff(np.concatenate([[0.0], c]))
        pts = [[float(x), float(m)] for x, m in zip(xs, masses) if m > 0.0]
        total = sum(m for _, m in pts)
        pts[-1][1] += 1.0 - total
        return {"kind": "discrete", "points": pts}

    return {"lower": spec(lower), "upper": spec(upper)}


class VerifyTheorems(Workload):
    """run_suite("theorems") on random discrete p-box models, one sub-seed per pass."""

    name = "verify-theorems"
    default_size = {"instances_per_family": 12, "points_per_instance": 150}

    def setup_specs(self):
        rng = _rng(self.seed, 2)
        specs = []
        for family in ("marshall", "maxmin", "rmm"):
            spec = {"family": family, "endogenous": [_discrete_box_spec(rng) for _ in range(4)],
                    "exogenous": {"kind": "discrete", "points": [[float(rng.choice(_LATTICE[1:])), 1.0]]}}
            if family != "marshall":
                spec["p"] = 2
            specs.append(spec)
        return specs

    def suite_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def prepare(self):
        super().prepare()
        self.reports: dict[int, dict] = {}

    def op(self, k):
        report = sc.run_suite("theorems", self.suite_seed(k), **self.size)
        self.reports[k] = report
        return 3 * self.size["instances_per_family"] * self.size["points_per_instance"], None

    def gate(self, ops):
        checks = Checks()
        for k in range(ops):
            report = self.reports[k]
            checks.hard(report["suite"] == "theorems" and report["passed"],
                        f"suite seed {self.suite_seed(k)} did not pass", [k])
            for c in report["checks"]:
                failures = c["diagnostics"].get("failures_total", 0)
                checks.hard(c["passed"] and not failures,
                            f"suite seed {self.suite_seed(k)}: {c['check']} failed {failures}", [k])
        return checks


# -- points-n12 --------------------------------------------------------------


def _box_spec(rng, kind: str) -> dict:
    if kind == "exponential":
        rate = float(rng.uniform(0.5, 1.5))
        return {"lower": {"kind": "exponential", "rate": rate},
                "upper": {"kind": "exponential", "rate": rate * float(rng.uniform(1.2, 2.0))}}
    if kind == "uniform":
        a = float(rng.uniform(0.0, 0.5))
        b = a + float(rng.uniform(1.0, 3.0))
        s = float(rng.uniform(0.5, 0.9))
        return {"lower": {"kind": "uniform", "a": a, "b": b},
                "upper": {"kind": "uniform", "a": a * s, "b": a * s + (b - a) * s}}
    # piecewise linear with two interior jumps; lower = upper**gamma stays below
    xs = [0.0] + [float(x) for x in np.cumsum(rng.uniform(0.3, 1.0, 4))]
    v = [float(x) for x in np.sort(rng.uniform(0.0, 1.0, 6))]
    upper = [[xs[0], 0.0, 0.0, 0.0], [xs[1], v[0], v[1], v[1]], [xs[2], v[2], v[2], v[2]],
             [xs[3], v[3], v[4], v[4]], [xs[4], v[5], 1.0, 1.0]]
    gamma = float(rng.uniform(1.3, 2.5))
    lower = [[x, l ** gamma, p ** gamma, r ** gamma] for x, l, p, r in upper]
    return {"lower": {"kind": "pwl", "breakpoints": lower}, "upper": {"kind": "pwl", "breakpoints": upper}}


class PointsN12(Workload):
    """Python API point queries on three n = 12 models plus the rmm envelope."""

    name = "points-n12"
    default_size = {"n": 12, "p": 6, "batch": 128, "full_scan_points": 4}
    _KINDS = ("exponential", "uniform", "pwl")

    def setup_specs(self):
        rng = _rng(self.seed, 3)
        n = self.size["n"]
        specs = []
        for family in ("rmm", "maxmin", "marshall"):
            spec = {"family": family,
                    "endogenous": [_box_spec(rng, self._KINDS[k % 3]) for k in range(n)],
                    "exogenous": {"kind": "exponential", "rate": float(rng.uniform(0.5, 1.5))}}
            if family != "marshall":
                spec["p"] = self.size["p"]
            specs.append(spec)
        return specs

    def prepare(self):
        super().prepare()
        self.bfs = self.setup_bfs
        self.batches: dict[int, tuple[list, list]] = {}

    def _points(self, k: int) -> list[list[float]]:
        # most of the mass near 1, so the n = 12 copula values are not all 0
        rng = np.random.default_rng([self.seed, 4, k])
        u = 1.0 - 0.45 * rng.random((self.size["batch"], self.size["n"])) ** 1.5
        return [[float(x) for x in row] for row in u]

    def query(self, u):
        out = []
        for bf in self.bfs:
            out.append(bf.lower_gen(u))
            out.append(bf.upper_gen(u))
        out.extend(sc.rmm_envelope(self.bfs[0], u))
        return out

    def op(self, k):
        batch = self._points(k)
        clock = time.perf_counter
        latencies = []
        answers = []
        for u in batch:
            t0 = clock()
            answers.append(self.query(u))
            latencies.append(clock() - t0)
        self.batches[k] = (batch, answers)
        return len(batch), latencies

    def gate(self, ops):
        checks = Checks()
        n, batch = self.size["n"], self.size["batch"]
        U = np.array([u for k in range(ops) for u in self.batches[k][0]]).reshape(-1, n)
        A = np.array([a for k in range(ops) for a in self.batches[k][1]]).reshape(len(U), -1)
        inside = _inside_frechet(U, A)
        for q in range(len(U)):
            for j in range(A.shape[1]):
                checks.hard(bool(inside[q, j]),
                            f"query {q} value {j} = {float(A[q, j])!r} outside the Fréchet bounds", [q // batch])
            checks.hard(A[q, -2] <= A[q, -1] + TOL, f"query {q}: envelope inf > sup", [q // batch])
        rng = _rng(self.seed, 5)
        picks = rng.choice(len(U), size=min(self.size["full_scan_points"], len(U)), replace=False)
        for q in picks:
            inf_full, _ = sc.rmm_envelope_full_scan(self.bfs[0], [float(x) for x in U[q]])
            checks.hard(abs(A[q, -2] - inf_full) <= TOL,
                        f"query {q}: envelope inf {float(A[q, -2])!r} != full scan {inf_full!r}", [q // batch])
        return checks


WORKLOADS = {w.name: w for w in (SurfaceLower, SurfaceEnvelope, VerifyTheorems, PointsN12)}
