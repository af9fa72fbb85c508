"""Command line front end: surface grids, the worked example, verification.

``shockcopula surface``   evaluate a bound surface on a unit grid, CSV out
``shockcopula example``   rebuild the exponential reference model, check its
                          closed forms, and write fixture files
``shockcopula verify``    run the named verification suite, JSON report
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from .copulas import GeneratorVector, _grid_arrays, joint_maxmin_values, joint_rmm_values, rmm2
from .distfn import DiracStep, Exponential, lifetime_max, lifetime_min
from .genfn import extend_chi, extend_phi, to_rmm
from .imprecise import PBox, ShockModel, build_bounds, rmm_envelope_grid
from .verify import SUITE_NAMES, copula_grid, run_suite

BOUND_CHOICES = ("lower", "upper", "precise", "envelope_inf", "envelope_sup")
DEFAULT_SEED = 20250819
_MAX_GRID_ROWS = 2_000_000
# rows per write in write_surface_csv, rounded to whole runs of the last axis;
# larger blocks raise peak memory
_WRITE_BLOCK_ROWS = 2048
# bytes per read when copying a child's rows into the stream; larger reads
# raise peak memory
_PIPE_READ_BYTES = 1 << 16


def _fmt(value: float) -> str:
    return repr(float(value))


def _surface_blocks(labels: list[list[str]], flat: np.ndarray, step: int, start: int, stop: int):
    """CSV text of rows [start, stop), one string per ``step`` rows; ``start``
    and ``stop`` are block boundaries, or ``stop`` is the last row."""
    run = len(labels[-1])
    # labels are float reprs, which never contain '%', so each template's only
    # conversions are its run's %r fields; prefixes are made lazily, one a run
    prefixes = map("".join, itertools.islice(itertools.product(*labels[:-1]), start // run, None))
    for s in range(start, stop, step):
        block = flat[s:s + step].tolist()
        # the range first: zip stops on it without drawing one prefix too many
        yield "".join([
            (prefix + ("%r\n" + prefix).join(labels[-1]) + "%r\n") % tuple(block[r:r + run])
            for r, prefix in zip(range(0, len(block), run), prefixes)])


def _fork_part(rows_text, start: int, stop: int):
    """(pid, pipe) of a child that writes ``rows_text(start, stop)`` into the pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            # the whole part before the first write: a full pipe would stall
            # the child until the parent has streamed its own part
            texts = list(rows_text(start, stop))
            with open(w, "w", encoding="ascii", newline="") as pipe:
                pipe.writelines(texts)
            status = 0
        except BaseException:
            import traceback   # only on failure: not loaded on start-up
            os.write(2, traceback.format_exc().encode())
            raise
        finally:
            # no flush of inherited buffers, no atexit handlers
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb", buffering=0)


def write_surface_csv(stream, axes: list[np.ndarray], values: np.ndarray) -> int:
    """Rows in row-major order; floats as shortest round-trip decimals.

    Each axis value is formatted once.  Each run of the last axis is one
    ``%r`` template, its n - 1 leading labels fixed, filled by one ``%``
    call; the runs are formatted in blocks of about ``_WRITE_BLOCK_ROWS`` rows.

    The blocks are split into contiguous parts, one per CPU this process may
    run on and never more parts than blocks, of about equal cost, a row
    whose value is zero counting half.  A forked child formats each
    part after the first, all of it, and writes it into a pipe; meanwhile
    this process streams the first part block by block, then copies each
    child's pipe into ``stream`` in order, ``_PIPE_READ_BYTES`` at a time.
    So this process never holds more than a block or a read, while each
    child holds its own part.  Where ``os.fork`` or ``os.sched_getaffinity``
    is missing (Windows, macOS), or with one CPU or one block, there is one
    part and no child.  No child outlives the call: a child that exits
    nonzero raises ``RuntimeError``, and on any error the children left
    are killed and reaped.
    """
    rows = math.prod(len(axis) for axis in axes)
    if values.size != rows:
        raise ValueError(f"values has {values.size} entries but the axes span "
                         f"{rows} grid points")
    stream.write(",".join([f"u{k + 1}" for k in range(len(axes))] + ["value"]) + "\n")
    if rows == 0:
        return 0
    # with no axes the one row holds the value alone
    labels = [[_fmt(x) + "," for x in axis] for axis in axes] or [[""]]
    run = len(labels[-1])
    step = max(1, _WRITE_BLOCK_ROWS // run) * run
    flat = values.ravel()
    rows_text = functools.partial(_surface_blocks, labels, flat, step)
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    parts = len(os.sched_getaffinity(0)) if forks else 1
    # a block costs its rows plus its nonzero values: a zero formats in about
    # half the time of another value, and copula surfaces are zero on a corner
    cost = np.cumsum([min(step, rows - s) + np.count_nonzero(flat[s:s + step])
                      for s in range(0, rows, step)])
    # part k ends after the last block whose running cost is at most k / parts
    # of the total, which is before the last block; empty parts are dropped
    cuts = np.searchsorted(cost, cost[-1] * np.arange(1, parts) / parts, side="right") * step
    edges = sorted({0, rows, *cuts.tolist()})
    children = []
    try:
        for start, stop in zip(edges[1:-1], edges[2:]):
            children.append(_fork_part(rows_text, start, stop))
        for text in rows_text(0, edges[1]):
            stream.write(text)
        while children:
            pid, pipe = children[0]
            for chunk in iter(lambda: pipe.read(_PIPE_READ_BYTES), b""):
                stream.write(chunk.decode("ascii"))
            status = os.waitpid(pid, 0)[1]
            del children[0]
            pipe.close()
            if status:
                raise RuntimeError(f"the child formatting surface rows exited with "
                                   f"status {os.waitstatus_to_exitcode(status)}")
    finally:
        if children:
            import signal   # only on failure: not loaded on start-up
            for pid, pipe in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pipe.close()
    return rows


def _write_columns(stream, header: str, rows) -> None:
    """Header, then one ``%r`` row per entry of ``rows``."""
    template = ",".join(["%r"] * (header.count(",") + 1)) + "\n"
    stream.write(header + "\n")
    stream.write("".join([template % tuple(map(float, row)) for row in rows]))


def _out_in_a_directory(ctx, param, out: str | None) -> str | None:
    """Reject an ``--out`` file whose directory does not exist, before any work."""
    if out is not None and not Path(out).parent.is_dir():
        raise click.BadParameter(f"directory {str(Path(out).parent)!r} does not exist")
    return out


@click.group()
@click.version_option(package_name="shockcopula")
def main() -> None:
    """Shock-model copulas with precise or interval-valued inputs."""


@main.command()
@click.option("--config", required=True, type=click.Path(exists=True, dir_okay=False),
              help="JSON shock-model description.")
@click.option("--family", type=click.Choice(["marshall", "maxmin", "rmm"]),
              help="Expected family; rejected if the config disagrees.")
@click.option("--grid", default=101, show_default=True, type=click.IntRange(min=2),
              help="Points per axis on the uniform unit grid.")
@click.option("--bound", default="lower", show_default=True,
              type=click.Choice(BOUND_CHOICES),
              help="lower/upper select the copula of the lower/upper bound "
                   "generators: bounds for marshall; not bounds for maxmin, "
                   "whose member copulas can leave them; for rmm bounds in "
                   "reverse order at n = 2 and not bounds for n >= 3. "
                   "envelope_inf/envelope_sup are the rmm min/max "
                   "over all lower/upper generator vertex tuples (envelope_sup "
                   "is not a guaranteed upper bound over interior members of "
                   "the box for n >= 3).")
@click.option("--out", type=click.Path(dir_okay=False, writable=True),
              callback=_out_in_a_directory, help="CSV destination (stdout when omitted).")
def surface(config: str, family: str | None, grid: int, bound: str, out: str | None) -> None:
    """Evaluate one bound surface of the model's copula on a unit grid."""
    try:
        with open(config) as fh:
            model = ShockModel.from_spec(json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"bad model config: {exc}")
    if family is not None and family != model.family:
        raise click.UsageError(f"config declares family {model.family!r}, not {family!r}")
    if bound == "precise" and not model.is_precise:
        raise click.UsageError("the model has imprecise marginals; "
                               "choose lower/upper or an envelope bound")
    if bound.startswith("envelope") and model.family != "rmm":
        raise click.UsageError(f"envelope bounds exist only for the rmm family, "
                               f"not {model.family!r}")
    if grid ** model.n > _MAX_GRID_ROWS:
        raise click.UsageError(f"grid^{model.n} = {grid ** model.n} rows; "
                               f"reduce --grid below {int(_MAX_GRID_ROWS ** (1 / model.n)) + 1}")

    bf = build_bounds(model)
    axis = np.linspace(0.0, 1.0, grid)
    axes = [axis] * model.n
    if bound in ("lower", "precise"):
        values = copula_grid(bf.lower_gen, axes)
    elif bound == "upper":
        values = copula_grid(bf.upper_gen, axes)
    else:
        values = rmm_envelope_grid(bf, axes)[bound == "envelope_sup"]

    if out is None:
        stdout = click.get_text_stream("stdout")
        write_surface_csv(stdout, axes, values)
        stdout.flush()
    else:
        with open(out, "w", newline="") as fh:
            rows = write_surface_csv(fh, axes, values)
        click.echo(f"wrote {out} ({rows} rows, bound={bound}, family={model.family})")


def _rmm_generator_form(threshold: float, u: np.ndarray) -> np.ndarray:
    # closed form on (0, 1]; the value at 0 is pinned to 0 separately
    return np.where(u == 0.0, 0.0, np.maximum(threshold - u, 0.0))


def _points(*axes: np.ndarray) -> np.ndarray:
    """Every point of the axis grid, one row each, in row-major order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _example_identities(errors: list[dict]) -> dict:
    """Check the exponential reference model, each generator and law evaluated
    once per point by ``values``; returns a writer per fixture file."""
    a = 1.0 - math.exp(-1.0)   # P(shock beats an exponential by time 1)
    b = math.exp(-1.0)

    fx = Exponential(1.0)
    fy = Exponential(1.0)
    fz = DiracStep(1.0)
    fu = lifetime_max(fx, fz)
    fw = lifetime_min(fy, fz)
    phi = extend_phi(fx, fz)
    chi = extend_chi(fy, fz)
    f, g = to_rmm(phi), to_rmm(chi)

    def check(name: str, tol: float, points: np.ndarray, errs) -> None:
        # the first point of largest error fails above tol; a nan is the largest
        errs = np.ravel(errs)
        worst = int(np.argmax(errs))
        if not errs[worst] <= tol:
            errors.append({"identity": name, "max_error": float(errs[worst]),
                           "tolerance": tol, "witness": points[worst].tolist()})

    us = np.linspace(0.0, 1.0, 1000)
    phi_u, chi_u, f_u, g_u = (gen.values(us) for gen in (phi, chi, f, g))
    check("phi-closed-form", 1e-12, us[:, None],
          np.abs(phi_u - np.where(us == 0.0, 0.0, np.maximum(us, a))))
    check("chi-closed-form", 1e-12, us[:, None],
          np.abs(chi_u - np.where(us == 1.0, 1.0, np.minimum(us, a))))
    check("f-closed-form", 1e-12, us[:, None], np.abs(f_u - _rmm_generator_form(a, us)))
    check("g-closed-form", 1e-12, us[:, None], np.abs(g_u - _rmm_generator_form(b, us)))
    check("f-star-vanishes-at-1", 1e-12, np.array([[1.0]]), abs(f.star(1.0)))

    xs = np.linspace(0.0, 3.0, 301)
    fx_x, fy_x, fz_x, fu_x, fw_x = (d.values(xs) for d in (fx, fy, fz, fu, fw))
    check("max-lifetime-closed-form", 1e-12, xs[:, None],
          np.abs(fu_x - np.where(xs >= 1.0, fx_x, 0.0)))
    check("min-lifetime-closed-form", 1e-12, xs[:, None],
          np.abs(fw_x - np.where(xs >= 1.0, 1.0, fy_x)))

    def three_case(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.where((u >= a) | (w >= b), u * w, np.maximum(0.0, b * u + a * w - a * b))

    # the fixture surfaces come from the grid kernel; the scalar rmm2 is
    # checked against the closed form on the coarse envelope grid
    grid = np.linspace(0.0, 1.0, 101)
    env_axis = np.linspace(0.0, 1.0, 21)
    grid_points, env_points = _points(grid, grid), _points(env_axis, env_axis)
    precise_vals = copula_grid(GeneratorVector("rmm", (f, g), 1), [grid, grid])
    scalar_vals = np.array([rmm2(f, g, u, w) for u, w in env_points.tolist()])
    check("copula-three-case-form", 1e-12, np.concatenate([grid_points, env_points]),
          np.concatenate([np.abs(precise_vals - three_case(grid[:, None], grid)).ravel(),
                          np.abs(scalar_vals - three_case(*env_points.T))]))

    # joint tail product: positive only above the diagonal, and the reflection
    # identity ties the three H routes together
    time_axis = np.linspace(0.0, 3.0, 41)
    tx, ty = _grid_arrays([time_axis, time_axis])
    hs = joint_rmm_values([fx, fy], fz, [tx, ty], 1)
    h = joint_maxmin_values([fx, fy], fz, [tx, ty], 1)
    want = fx.values(tx) * (1.0 - fy.values(ty)) * np.maximum(0.0, fz.values(tx) - fz.values(ty))
    time_points = _points(time_axis, time_axis)
    check("tail-product-closed-form", 1e-12, time_points, np.abs(hs - want))
    check("reflection-identity", 1e-12, time_points, np.abs(fu.values(tx) - hs - h))

    # interval-rate model for the bound fixtures
    box = PBox(Exponential(1.0), Exponential(2.0))
    bf = build_bounds(ShockModel("rmm", (box, box), fz, 1))
    (f_lo, g_lo), (f_hi, g_hi) = bf.lower_gen.generators, bf.upper_gen.generators
    a2, b2 = 1.0 - math.exp(-2.0), math.exp(-2.0)
    bound_u = [gen.values(us) for gen in (f_lo, f_hi, g_lo, g_hi)]
    check("bound-generators-closed-form", 1e-12, us[:, None],
          np.max([np.abs(v - _rmm_generator_form(t, us))
                  for v, t in zip(bound_u, (a, a2, b2, b))], axis=0))

    # the copula with the *lower* generators dominates pointwise
    lower_vals = copula_grid(bf.upper_gen, [grid, grid])
    upper_vals = copula_grid(bf.lower_gen, [grid, grid])
    check("bound-surfaces-ordered", 1e-12, grid_points, np.maximum(0.0, lower_vals - upper_vals))
    spread = float(np.max(upper_vals - lower_vals))
    if spread <= 1e-3:
        errors.append({"identity": "bound-surfaces-strictly-apart", "max_error": spread,
                       "tolerance": "> 1e-3 somewhere", "witness": None})

    env_lo, env_hi = rmm_envelope_grid(bf, [env_axis, env_axis])
    bound_lo = copula_grid(bf.upper_gen, [env_axis, env_axis])
    bound_hi = copula_grid(bf.lower_gen, [env_axis, env_axis])
    check("bivariate-envelope-is-bound-pair", 1e-12, env_points,
          np.maximum(np.abs(env_lo - bound_lo), np.abs(env_hi - bound_hi)))

    def columns(header: str, *arrays: np.ndarray):
        return lambda fh: _write_columns(fh, header, np.column_stack(arrays))

    def surface(values: np.ndarray):
        return lambda fh: write_surface_csv(fh, [grid, grid], values)

    return {
        "distributions.csv": columns("x,F_X,F_Y,F_Z,F_U,F_W", xs, fx_x, fy_x, fz_x, fu_x, fw_x),
        "generators.csv": columns("u,phi,chi,f,g", us, phi_u, chi_u, f_u, g_u),
        "copula_precise.csv": surface(precise_vals),
        "bound_generators.csv": columns("u,f_lower,f_upper,g_lower,g_upper", us, *bound_u),
        "figure1_lower.csv": surface(lower_vals),
        "figure1_upper.csv": surface(upper_vals),
    }


@main.command()
@click.option("--out", default="example_fixtures", show_default=True,
              type=click.Path(file_okay=False), help="Fixture directory.")
def example(out: str) -> None:
    """Rebuild the exponential reference model and write its fixtures.

    Exits nonzero with a JSON diff if any closed-form identity is violated.
    """
    errors: list[dict] = []
    fixtures = _example_identities(errors)
    if errors:
        click.echo(json.dumps({"status": "mismatch", "errors": errors}, indent=2))
        sys.exit(1)
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    for name, write in fixtures.items():
        with open(directory / name, "w", newline="") as fh:
            write(fh)
    click.echo(f"all identities hold; wrote {len(fixtures)} fixtures to {directory}")


@main.command()
@click.option("--suite", default="all", show_default=True, type=click.Choice(SUITE_NAMES))
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=click.IntRange(0, 2**64 - 1))
@click.option("--out", type=click.Path(dir_okay=False, writable=True),
              callback=_out_in_a_directory,
              help="JSON report destination (stdout summary either way).")
def verify(suite: str, seed: int, out: str | None) -> None:
    """Run a verification suite; exit nonzero if any check fails."""
    report = run_suite(suite, seed)

    def summarize(block: dict) -> None:
        for check in block.get("checks", []):
            status = "PASS" if check["passed"] else "FAIL"
            extra = ""
            total = check["diagnostics"].get("failures_total")
            if total:
                extra = f", failures={total}"
            click.echo(f"  {status} {check['check']} (instances={check['instances']}{extra})")

    if suite == "all":
        for part in report["suites"]:
            click.echo(f"suite {part['suite']}: {'PASS' if part['passed'] else 'FAIL'}")
            summarize(part)
    else:
        click.echo(f"suite {report['suite']}: {'PASS' if report['passed'] else 'FAIL'}")
        summarize(report)

    if out is not None:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
        click.echo(f"report written to {out}")
    if not report["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
