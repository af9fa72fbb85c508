"""Command line interface: surfaces, fixtures, verification wiring."""

import errno
import io
import json
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcopula import cli, imprecise
from shockcopula.cli import main, write_surface_csv
from shockcopula.genfn import Generator, to_rmm
from shockcopula.imprecise import ShockModel, build_bounds, rmm_envelope, rmm_envelope_inf_values
from shockcopula.verify import copula_grid
from surface_csv import read_surface_csv, reference_surface_csv

RMM_PRECISE = {
    "family": "rmm",
    "p": 1,
    "endogenous": [
        {"kind": "exponential", "rate": 1.0},
        {"kind": "exponential", "rate": 1.0},
    ],
    "exogenous": {"kind": "dirac", "location": 1.0},
}

RMM_BOXED = {
    "family": "rmm",
    "p": 1,
    "endogenous": [
        {"lower": {"kind": "exponential", "rate": 1.0},
         "upper": {"kind": "exponential", "rate": 2.0}},
        {"lower": {"kind": "exponential", "rate": 1.0},
         "upper": {"kind": "exponential", "rate": 2.0}},
    ],
    "exogenous": {"kind": "dirac", "location": 1.0},
}

RMM_BOXED_3 = {
    "family": "rmm",
    "p": 1,
    "endogenous": [
        {"lower": {"kind": "exponential", "rate": 1.0},
         "upper": {"kind": "exponential", "rate": 2.0}},
        {"lower": {"kind": "exponential", "rate": 1.0},
         "upper": {"kind": "exponential", "rate": 2.0}},
        {"lower": {"kind": "uniform", "a": 0.0, "b": 3.0},
         "upper": {"kind": "uniform", "a": 0.0, "b": 2.0}},
    ],
    "exogenous": {"kind": "dirac", "location": 1.0},
}

MARSHALL = {
    "family": "marshall",
    "endogenous": [
        {"kind": "discrete", "points": [[1.0, 0.5], [3.0, 0.5]]},
        {"kind": "discrete", "points": [[1.0, 0.5], [3.0, 0.5]]},
    ],
    "exogenous": {"kind": "discrete", "points": [[2.0, 1.0]]},
}


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -- surface -----------------------------------------------------------------------


def test_surface_prints_csv_rows_in_row_major_order(runner, tmp_path):
    config = write_config(tmp_path, RMM_PRECISE)
    result = runner.invoke(main, ["surface", "--config", config, "--grid", "3",
                                  "--bound", "precise"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == "u1,u2,value"
    assert len(lines) == 1 + 9
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    # row-major: the last coordinate varies fastest
    assert [r[:2] for r in rows[:4]] == [[0.0, 0.0], [0.0, 0.5], [0.0, 1.0], [0.5, 0.0]]
    assert rows[-1] == [1.0, 1.0, 1.0]
    by_point = {(r[0], r[1]): r[2] for r in rows}
    assert by_point[(1.0, 0.5)] == 0.5
    assert by_point[(0.5, 0.0)] == 0.0


def test_surface_file_round_trips_bit_exactly(runner, tmp_path):
    config = write_config(tmp_path, RMM_BOXED)
    out = tmp_path / "surface.csv"
    result = runner.invoke(main, ["surface", "--config", config, "--grid", "7",
                                  "--bound", "lower", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "wrote" in result.output
    header, rows = read_surface_csv(out)
    assert header == ["u1", "u2", "value"]
    assert len(rows) == 49
    bf = build_bounds(ShockModel.from_spec(RMM_BOXED))
    axis = np.linspace(0.0, 1.0, 7)
    values = copula_grid(bf.lower_gen, [axis, axis])
    for row in rows:
        i, j = int(round(row[0] * 6)), int(round(row[1] * 6))
        assert row[0] == float(axis[i]) and row[1] == float(axis[j])
        assert row[2] == float(values[i, j])


def test_surface_bound_choices_order_the_rmm_family_in_reverse(runner, tmp_path):
    config = write_config(tmp_path, RMM_BOXED)
    surfaces = {}
    for bound in ("lower", "upper", "envelope_inf", "envelope_sup"):
        out = tmp_path / f"{bound}.csv"
        result = runner.invoke(main, ["surface", "--config", config, "--grid", "11",
                                      "--bound", bound, "--out", str(out)])
        assert result.exit_code == 0, (bound, result.output)
        _, rows = read_surface_csv(out)
        surfaces[bound] = [r[2] for r in rows]
    strict = 0
    for lo, hi, einf, esup in zip(surfaces["lower"], surfaces["upper"],
                                  surfaces["envelope_inf"], surfaces["envelope_sup"]):
        # the lower generator pair produces the pointwise larger copula
        assert lo >= hi - 1e-15
        strict += lo > hi + 1e-6
        # for two coordinates the envelope collapses onto the bound pair
        assert abs(einf - hi) < 1e-12
        assert abs(esup - lo) < 1e-12
    assert strict > 0


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bound", ["envelope_inf", "envelope_sup"])
def test_surface_envelope_matches_the_per_point_loop_byte_for_byte(runner, tmp_path, bound, p):
    spec = dict(RMM_BOXED_3, p=p)
    config = write_config(tmp_path, spec)
    out = tmp_path / "surface.csv"
    result = runner.invoke(main, ["surface", "--config", config, "--grid", "7",
                                  "--bound", bound, "--out", str(out)])
    assert result.exit_code == 0, result.output
    bf = build_bounds(ShockModel.from_spec(spec))
    axis = np.linspace(0.0, 1.0, 7)
    values = np.empty([7] * 3)
    for idx in np.ndindex(*values.shape):
        values[idx] = rmm_envelope(bf, [float(axis[k]) for k in idx])[bound == "envelope_sup"]
    want = io.StringIO()
    reference_surface_csv(want, [axis] * 3, values)
    assert out.read_bytes() == want.getvalue().encode()


def test_surface_envelope_inf_runs_no_sup_code(runner, tmp_path, monkeypatch):
    def no_sup(*args):
        raise AssertionError("envelope_inf formed sup candidates")

    monkeypatch.setattr(imprecise, "_sup_objective", no_sup)
    out = tmp_path / "surface.csv"
    result = runner.invoke(main, ["surface", "--config", write_config(tmp_path, RMM_BOXED_3),
                                  "--grid", "7", "--bound", "envelope_inf", "--out", str(out)])
    assert result.exit_code == 0, result.output
    bf = build_bounds(ShockModel.from_spec(RMM_BOXED_3))
    axis = np.linspace(0.0, 1.0, 7)
    want = io.StringIO()
    reference_surface_csv(want, [axis] * 3, rmm_envelope_inf_values(bf, np.ix_(axis, axis, axis)))
    assert out.read_bytes() == want.getvalue().encode()


WRITER_VALUES = (1e-05, 0.1 + 0.2, 5e-324, -0.0, 0.0, 1.0, 1.0 / 3.0, 2.5e-16,
                 0.9999999999999999, 123456.789, 1e22, 7.0)


# CPU counts the writer is run at: one part, and two or three forked parts
# wherever the surface has that many blocks
PART_COUNTS = (1, 2, 3)


def cpus(count: int):
    """A stand-in for ``os.sched_getaffinity`` that reports ``count`` CPUs."""
    return lambda pid: set(range(count))


@pytest.mark.parametrize("block", [1, 3, 7, 2048])
def test_block_writer_matches_the_csv_writer_reference(monkeypatch, block):
    monkeypatch.setattr(cli, "_WRITE_BLOCK_ROWS", block)
    rng = np.random.default_rng(11)
    cases = []
    # (7, 3) and (2, 5, 3) split into parts of unequal block counts, with a
    # short last block at block 7; the 1-D axes are one run longer than a block
    for shape in ((4, 3), (2, 5, 3), (len(WRITER_VALUES), 2), (7, 3), (len(WRITER_VALUES),)):
        axes = [np.array(WRITER_VALUES[:size]) for size in shape]
        values = rng.choice(np.array(WRITER_VALUES), size=shape)
        cases.append((axes, values))
    axis = np.linspace(0.0, 1.0, 13)
    cases.append(([axis] * 3, rng.random((13, 13, 13))))
    cases.append(([np.linspace(0.0, 1.0, 2101)], rng.random(2101)))
    for count in PART_COUNTS:
        monkeypatch.setattr(os, "sched_getaffinity", cpus(count))
        for axes, values in cases:
            got, want = io.StringIO(), io.StringIO()
            rows = write_surface_csv(got, axes, values)
            assert rows == reference_surface_csv(want, axes, values) == values.size
            assert got.getvalue() == want.getvalue()


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e22, float("nan"), float("inf"), float("-inf"))
surface_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True))


@st.composite
def surface_grids(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=0, max_size=4))
    axes = [np.array(draw(st.lists(surface_floats, min_size=size, max_size=size)))
            for size in shape]
    cells = draw(st.lists(surface_floats, min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    return axes, np.array(cells).reshape(shape)


@given(surface_grids(), st.sampled_from([1, 3, 7, 2048]))
@settings(max_examples=150, deadline=None)
def test_template_writer_matches_the_reference_on_edge_floats(grid, block):
    axes, values = grid
    want = io.StringIO()
    size = reference_surface_csv(want, axes, values)
    for count in PART_COUNTS:
        got = io.StringIO()
        with mock.patch.object(cli, "_WRITE_BLOCK_ROWS", block), \
                mock.patch.object(os, "sched_getaffinity", cpus(count)):
            rows = write_surface_csv(got, axes, values)
        assert rows == size == values.size
        assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("size", [11, 13])
def test_writer_rejects_values_that_do_not_fill_the_grid(size):
    axes = [np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4)]
    with pytest.raises(ValueError, match=f"{size} entries.*12 grid points"):
        write_surface_csv(io.StringIO(), axes, np.zeros(size))


def no_child_is_left() -> bool:
    """True when this process has no child, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


CUBE = [np.linspace(0.0, 1.0, 13)] * 3   # 169 runs of 13 rows


@pytest.fixture()
def forked(monkeypatch):
    """The pids of the children that ``os.fork`` starts in this process."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        pids.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize("count", PART_COUNTS)
def test_writer_forks_one_child_per_cpu_after_the_first(monkeypatch, forked, count):
    monkeypatch.setattr(cli, "_WRITE_BLOCK_ROWS", 7)     # one run a block: 169 blocks
    monkeypatch.setattr(os, "sched_getaffinity", cpus(count))
    values = np.random.default_rng(3).random((13, 13, 13))
    got, want = io.StringIO(), io.StringIO()
    write_surface_csv(got, CUBE, values)
    reference_surface_csv(want, CUBE, values)
    assert got.getvalue() == want.getvalue()
    assert len(forked) == count - 1
    assert no_child_is_left()
    # one block: no child at any CPU count
    write_surface_csv(io.StringIO(), [np.linspace(0.0, 1.0, 5)], np.zeros(5))
    assert len(forked) == count - 1


def test_writer_drops_parts_that_come_out_empty(monkeypatch, forked):
    # three one-run blocks costing 8, 4 and 4 (zeros count half): the cost
    # thirds end after 0 and 1 blocks, so two parts and one child
    monkeypatch.setattr(cli, "_WRITE_BLOCK_ROWS", 4)
    monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
    axes = [np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4)]
    values = np.array([[0.5] * 4, [0.0] * 4, [-0.0] * 4])
    got, want = io.StringIO(), io.StringIO()
    assert write_surface_csv(got, axes, values) == reference_surface_csv(want, axes, values)
    assert got.getvalue() == want.getvalue()
    assert len(forked) == 1
    assert no_child_is_left()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_writer_without_fork_or_affinity_writes_one_part(monkeypatch, missing):
    monkeypatch.setattr(cli, "_WRITE_BLOCK_ROWS", 7)
    monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
    monkeypatch.delattr(os, missing)
    values = np.random.default_rng(6).random((13, 13, 13))
    got, want = io.StringIO(), io.StringIO()
    assert write_surface_csv(got, CUBE, values) == reference_surface_csv(want, CUBE, values)
    assert got.getvalue() == want.getvalue()
    assert no_child_is_left()


def test_a_failing_child_makes_the_surface_command_fail(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_BLOCK_ROWS", 7)
    monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
    parent = os.getpid()
    blocks = cli._surface_blocks

    def failing_in_children(*args):
        if os.getpid() != parent:
            raise MemoryError("no room for the part")
        return blocks(*args)

    monkeypatch.setattr(cli, "_surface_blocks", failing_in_children)
    values = np.random.default_rng(4).random((13, 13, 13))
    with pytest.raises(RuntimeError, match="exited with status 1"):
        write_surface_csv(io.StringIO(), CUBE, values)
    assert no_child_is_left()
    # through the command: an error exit, not a short file reported as written
    out = tmp_path / "surface.csv"
    result = runner.invoke(main, ["surface", "--config", write_config(tmp_path, RMM_BOXED_3),
                                  "--grid", "13", "--out", str(out)])
    assert result.exit_code != 0
    assert isinstance(result.exception, RuntimeError)
    assert "wrote" not in result.output
    assert no_child_is_left()


class FailingStream(io.StringIO):
    """A text stream whose writes from number ``fail_at`` on raise; the header
    is write 0."""

    def __init__(self, fail_at: int):
        super().__init__()
        self.writes = 0
        self.fail_at = fail_at

    def write(self, text):
        self.writes += 1
        if self.writes > self.fail_at:
            raise OSError("disk full")
        return super().write(text)


# 169 blocks in two parts: writes 1-84 are this process's blocks, write 85
# is the first read of the child's pipe
@pytest.mark.parametrize("fail_at", [1, 84, 85])
def test_a_failing_stream_reraises_and_leaves_no_child(monkeypatch, fail_at):
    monkeypatch.setattr(cli, "_WRITE_BLOCK_ROWS", 7)
    monkeypatch.setattr(os, "sched_getaffinity", cpus(2))
    stream = FailingStream(fail_at)
    with pytest.raises(OSError, match="disk full"):
        write_surface_csv(stream, CUBE, np.random.default_rng(5).random((13, 13, 13)))
    assert stream.writes == fail_at + 1
    assert no_child_is_left()


def test_writer_memory_stays_flat_with_two_parts(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", cpus(2))
    axis = np.linspace(0.0, 1.0, 101)
    values = np.multiply.outer(np.multiply.outer(axis, axis), axis)
    with open(tmp_path / "surface.csv", "w", newline="") as fh:
        tracemalloc.start()
        try:
            write_surface_csv(fh, [axis] * 3, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the file alone is about 33 MB; holding a child's part would take ~16 MB
    assert peak < 2_000_000
    assert (tmp_path / "surface.csv").stat().st_size > 30_000_000


@pytest.mark.parametrize("bound", ["lower", "envelope_sup"])
def test_surface_stdout_equals_the_out_file(runner, tmp_path, monkeypatch, bound):
    monkeypatch.setattr(cli, "_WRITE_BLOCK_ROWS", 20)   # several blocks per surface
    config = write_config(tmp_path, RMM_BOXED_3)
    out = tmp_path / "surface.csv"
    args = ["surface", "--config", config, "--grid", "9", "--bound", bound]
    streamed = runner.invoke(main, args)
    written = runner.invoke(main, args + ["--out", str(out)])
    assert streamed.exit_code == written.exit_code == 0, (streamed.output, written.output)
    assert streamed.stdout_bytes == out.read_bytes()


def test_surface_rejects_bad_requests(runner, tmp_path):
    boxed = write_config(tmp_path, RMM_BOXED)
    marshall = write_config(tmp_path, MARSHALL, "marshall.json")
    broken = write_config(tmp_path, {"family": "rmm"}, "broken.json")
    fractional = write_config(tmp_path, dict(RMM_BOXED, p=1.5), "fractional.json")

    result = runner.invoke(main, ["surface", "--config", str(tmp_path / "none.json")])
    assert result.exit_code == 2

    result = runner.invoke(main, ["surface", "--config", broken])
    assert result.exit_code == 2 and "bad model config" in result.output

    result = runner.invoke(main, ["surface", "--config", fractional])
    assert result.exit_code == 2 and "p must be an integer" in result.output

    result = runner.invoke(main, ["surface", "--config", boxed, "--family", "marshall"])
    assert result.exit_code == 2 and "declares family" in result.output

    result = runner.invoke(main, ["surface", "--config", boxed, "--bound", "precise"])
    assert result.exit_code == 2 and "imprecise" in result.output

    result = runner.invoke(main, ["surface", "--config", marshall, "--bound", "envelope_inf"])
    assert result.exit_code == 2 and "rmm" in result.output

    result = runner.invoke(main, ["surface", "--config", boxed, "--grid", "2000"])
    assert result.exit_code == 2 and "rows" in result.output

    result = runner.invoke(main, ["surface", "--config", boxed, "--grid", "1"])
    assert result.exit_code == 2

    result = runner.invoke(main, ["surface", "--config", boxed, "--bound", "median"])
    assert result.exit_code == 2


def test_surface_rejects_a_config_that_is_not_a_json_object(runner, tmp_path):
    for name, text, reason in (("bad.json", "{bad", "Expecting property name"),
                               ("list.json", "[1, 2]", "model spec must be a dict, got list")):
        path = tmp_path / name
        path.write_text(text)
        result = runner.invoke(main, ["surface", "--config", str(path), "--grid", "3"])
        assert result.exit_code == 2, (name, result.output)
        assert "bad model config" in result.output and reason in result.output


# -- example -----------------------------------------------------------------------

FIXTURES = (
    "distributions.csv",
    "generators.csv",
    "copula_precise.csv",
    "bound_generators.csv",
    "figure1_lower.csv",
    "figure1_upper.csv",
)


def test_example_checks_identities_and_writes_fixtures(runner, tmp_path):
    out = tmp_path / "fixtures"
    result = runner.invoke(main, ["example", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "all identities hold" in result.output
    for name in FIXTURES:
        path = out / name
        assert path.exists(), name
        lines = path.read_text().strip().splitlines()
        assert len(lines) > 1, name

    header, rows = read_surface_csv(out / "generators.csv")
    assert header == ["u", "phi", "chi", "f", "g"]
    assert rows[0] == [0.0, 0.0, 0.0, 0.0, 0.0]
    last = rows[-1]
    assert last[0] == 1.0 and abs(last[1] - 1.0) < 1e-15 and abs(last[2] - 1.0) < 1e-15

    _, copula_rows = read_surface_csv(out / "copula_precise.csv")
    assert len(copula_rows) == 101 * 101

    _, lower = read_surface_csv(out / "figure1_lower.csv")
    _, upper = read_surface_csv(out / "figure1_upper.csv")
    assert all(lo[2] <= hi[2] + 1e-15 for lo, hi in zip(lower, upper))
    assert any(hi[2] - lo[2] > 1e-3 for lo, hi in zip(lower, upper))


class _Faulty(Generator):
    """A generator with a fault: ``base + shift`` on (0, upto), and ``at_zero``
    at 0 when given; the same float whether called or asked for an array."""

    def __init__(self, base, upto, shift, at_zero=None):
        self.base, self.kind, self.upto = base, base.kind, upto
        self.shift, self.at_zero = shift, at_zero

    def __call__(self, u):
        if u == 0.0 and self.at_zero is not None:
            return self.at_zero
        return self.base(u) + (self.shift if 0.0 < u < self.upto else 0.0)

    def values(self, u):
        u = np.asarray(u, dtype=float)
        out = self.base.values(u) + np.where((u > 0.0) & (u < self.upto), self.shift, 0.0)
        return out if self.at_zero is None else np.where(u == 0.0, self.at_zero, out)


def _fault_example(monkeypatch, upto, f_shift, g_shift, f_at_zero=None):
    """Make the example's f and g (not the bound generators) :class:`_Faulty`."""
    def faulty(gen):
        if gen.kind == "phi":
            return _Faulty(to_rmm(gen), upto, f_shift, f_at_zero)
        return _Faulty(to_rmm(gen), upto, g_shift)

    monkeypatch.setattr(cli, "to_rmm", faulty)


def test_example_reports_each_failed_identity_at_its_first_worst_point(runner, tmp_path,
                                                                        monkeypatch):
    _fault_example(monkeypatch, 0.7, 1e-6, 3e-7)
    out = tmp_path / "fixtures"
    result = runner.invoke(main, ["example", "--out", str(out)])
    assert result.exit_code == 1
    assert json.loads(result.output) == {"status": "mismatch", "errors": [
        {"identity": "f-closed-form", "max_error": 1.0000000001110223e-06,
         "tolerance": 1e-12, "witness": [0.6516516516516516]},
        {"identity": "g-closed-form", "max_error": 3.0000000006413785e-07,
         "tolerance": 1e-12, "witness": [0.002002002002002002]},
        {"identity": "copula-three-case-form", "max_error": 3.615159088286163e-07,
         "tolerance": 1e-12, "witness": [0.62, 0.01]},
    ]}
    assert not out.exists()


def test_a_nan_error_fails_its_example_check_and_hides_no_later_one(runner, tmp_path,
                                                                     monkeypatch):
    # f is nan at u = 0, every check's first point, and 1e-6 too high on (0, 0.5)
    _fault_example(monkeypatch, 0.5, 1e-6, 0.0, f_at_zero=math.nan)
    out = tmp_path / "fixtures"
    result = runner.invoke(main, ["example", "--out", str(out)])
    assert result.exit_code == 1, result.output
    errors = json.loads(result.output)["errors"]
    assert [(e["identity"], e["witness"]) for e in errors] == [
        ("f-closed-form", [0.0]), ("copula-three-case-form", [0.0, 0.0])]
    assert all(math.isnan(e["max_error"]) for e in errors)
    assert not out.exists()


# -- verify ------------------------------------------------------------------------


def canned_report(passed, suite="axioms"):
    check = {"check": "stub-check", "instances": 4, "passed": passed,
             "failures": [] if passed else [{"model": "m", "point": [0.5],
                                             "expected": 0.0, "actual": 1.0}],
             "diagnostics": {} if passed else {"failures_total": 1}}
    return {"suite": suite, "seed": 1, "passed": passed, "checks": [check]}


def test_verify_reports_pass_and_writes_json(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda name, seed: canned_report(True, name))
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--suite", "axioms", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "suite axioms: PASS" in result.output
    assert "PASS stub-check (instances=4)" in result.output
    assert json.loads(out.read_text())["passed"] is True


def test_verify_exits_nonzero_on_failure(runner, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda name, seed: canned_report(False, name))
    result = runner.invoke(main, ["verify", "--suite", "oracles"])
    assert result.exit_code == 1
    assert "suite oracles: FAIL" in result.output
    assert "failures=1" in result.output


def test_verify_summarizes_merged_suites(runner, monkeypatch):
    merged = {"suite": "all", "seed": 1, "passed": False,
              "suites": [canned_report(True, "axioms"), canned_report(False, "theorems")]}
    monkeypatch.setattr(cli, "run_suite", lambda name, seed: merged)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1
    assert "suite axioms: PASS" in result.output
    assert "suite theorems: FAIL" in result.output


def test_verify_runs_a_real_suite_end_to_end(runner, tmp_path):
    out = tmp_path / "axioms.json"
    result = runner.invoke(main, ["verify", "--suite", "axioms", "--seed", "5",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["suite"] == "axioms" and report["passed"]
    assert result.output.count("PASS") >= 3

    result = runner.invoke(main, ["verify", "--suite", "nonsense"])
    assert result.exit_code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_rejects_a_seed_outside_the_stream_key_range(runner, seed):
    # the real suite: a seed that reached the stream key would raise there
    result = runner.invoke(main, ["verify", "--suite", "theorems", "--seed", seed])
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output


def test_verify_passes_both_ends_of_the_seed_range_to_the_suite(runner, monkeypatch):
    seeds = []
    monkeypatch.setattr(cli, "run_suite",
                        lambda name, seed: seeds.append(seed) or canned_report(True, name))
    for seed in (0, 2**64 - 1):
        result = runner.invoke(main, ["verify", "--suite", "axioms", "--seed", str(seed)])
        assert result.exit_code == 0, result.output
    assert seeds == [0, 2**64 - 1]


@pytest.fixture()
def no_example_work(monkeypatch):
    def no_work(errors):
        raise AssertionError("the identities ran")

    monkeypatch.setattr(cli, "_example_identities", no_work)


@pytest.mark.parametrize("below", ["afile", "afile/sub", "afile/sub/fixtures", "link", "link/sub"])
def test_example_out_below_a_file_or_a_dangling_link_is_rejected_before_any_work(
        runner, tmp_path, no_example_work, below):
    (tmp_path / "afile").write_text("kept")
    (tmp_path / "link").symlink_to(tmp_path / "gone")    # a dangling link
    result = runner.invoke(main, ["example", "--out", str(tmp_path / below)])
    assert result.exit_code == 2, result.output
    assert "--out" in result.output and str(tmp_path / below.split("/")[0]) in result.output
    assert (tmp_path / "afile").read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "link"]


def test_example_out_that_cannot_be_looked_up_is_rejected_before_any_work(
        runner, tmp_path, monkeypatch, no_example_work):
    # a directory without search permission, as a user other than root sees it
    locked = tmp_path / "locked"
    locked.mkdir()
    stat = os.stat

    def denied(path, *args, **kwargs):
        if Path(path).parent == locked:
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", denied)
    result = runner.invoke(main, ["example", "--out", str(locked / "sub")])
    monkeypatch.setattr(os, "stat", stat)
    assert result.exit_code == 2, result.output
    assert "--out" in result.output and "Permission denied" in result.output
    assert list(locked.iterdir()) == []


@pytest.mark.parametrize("command", ["surface", "verify"])
def test_an_out_file_in_a_missing_directory_is_rejected_before_any_work(runner, tmp_path,
                                                                         command):
    out = tmp_path / "nodir" / "out"
    if command == "surface":
        args = ["surface", "--config", write_config(tmp_path, RMM_BOXED_3), "--grid", "3"]
    else:
        args = ["verify", "--suite", "axioms", "--seed", "1"]
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--out" in result.output and "PASS" not in result.output
    assert not out.parent.exists()
