"""Run one shockcopula benchmark workload and print its metrics.

    python3 benchmark/run.py --workload surface-lower --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs each operation once untraced and once traced and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of
the run, with the versions, seed and workload size, goes to
``.bench_run/`` under the checkout.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
# Later operations of a traced run are traced only while fewer spans than this
# are held, which bounds the run's memory (about 21 bytes per span).
TRACE_SPAN_CAP = 2_000_000

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_share": "1",
}

PER_LAYER = {
    "cli.write_s": "s/op",
    "cli.rows": "count/op",
    "cli.bytes": "B/op",
    "genfn.calls": "count/op",
    "genfn.self_s": "s/op",
    "genfn.distinct_ratio": "1",
    "distfn.preimage_calls": "count/op",
    "distfn.value_calls": "count/op",
    "distfn.values_per_preimage": "count",
    "distfn.self_s": "s/op",
    "copulas.kernel_calls": "count/op",
    "copulas.kernel_self_s": "s/op",
    "imprecise.envelope_calls": "count/op",
    "imprecise.envelope_self_s": "s/op",
    "imprecise.from_spec_s": "s",
    "imprecise.build_bounds_s": "s",
    "verify.copula_grid_s": "s/op",
    "verify.suite_self_s": "s/op",
    "trace.overhead_s": "s/op",
}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _setup_times(workload) -> list[float]:
    """Set-up time of fresh interpreters, each importing and building once."""
    specs = json.dumps(workload.setup_specs())
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(probe), workload.entry_module, specs],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _timed_op(workload, k: int):
    t0 = time.perf_counter()
    try:
        units, latencies = workload.op(k)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, 0, None, False
    return time.perf_counter() - t0, units, latencies, True


def _measure(workload, seconds: float, tracer=None) -> list[dict]:
    """Operations until the next one would end past ``seconds`` (at least min_ops)."""
    ops: list[dict] = []
    cycles: list[float] = []
    start = time.perf_counter()
    k = 0
    while True:
        began = time.perf_counter()
        wall, units, latencies, ok = _timed_op(workload, k)
        workload.after_op(k)
        op = {"wall": wall, "units": units, "latencies": latencies, "ok": ok}
        if tracer is not None and (k == 0 or tracer.span_count() < TRACE_SPAN_CAP):
            with tracer.segment("op"):
                op["traced_wall"], *_ = _timed_op(workload, k)
            workload.after_op(k)
            op["stats"] = workload.output_stats(k)
        ops.append(op)
        k += 1
        cycles.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if k >= workload.min_ops and elapsed + statistics.median(cycles) > seconds:
            return ops


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _end_to_end(ops, setup, checks, peak_rss_kb) -> tuple[dict, dict, str]:
    good = [op for op in ops if op["ok"]]
    walls = [op["wall"] for op in good]
    units = sum(op["units"] for op in good)
    if all(op["latencies"] is not None for op in good):
        samples = [lat for op in good for lat in op["latencies"]]
        sample_kind = "point queries"
    else:
        samples = [op["wall"] / op["units"] for op in good]
        sample_kind = "whole calls, time per unit"
    metrics = {
        "setup_s": statistics.median(setup),
        # a mean, not a median: this kind of shared host switches between two
        # speeds for seconds at a time, and a median of operations shorter
        # than that jumps between the two
        "wall_s": statistics.fmean(walls),
        "points_per_s": units / sum(walls),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "pass_share": 1.0 - checks.fail_share,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"mean of {len(walls)} operations",
        "points_per_s": f"{units} units in {sum(walls):.3f} s",
        "peak_rss_mb": "ru_maxrss after the timed phase",
        "pass_share": (f"fail_share {checks.fail_share:.6g}: {checks.failed} of {checks.attempted} "
                       f"checks failed, {checks.defect_failed} of {checks.defect_attempted} "
                       f"known-defect checks failed"),
    }
    # reported but not gated: percentiles of short samples follow the host's speed
    latency = (f"point latency p50 {_quantile(samples, 0.50) * 1e6:.6g} us, "
               f"p99 {_quantile(samples, 0.99) * 1e6:.6g} us over {len(samples)} samples ({sample_kind})")
    return metrics, notes, latency


def _per_layer(ops, tracer) -> tuple[dict, dict]:
    traced = [op for op in ops if "traced_wall" in op]
    metrics = tracer.layer_metrics("op")
    metrics["cli.rows"] = statistics.mean(op["stats"][0] for op in traced)
    metrics["cli.bytes"] = statistics.mean(op["stats"][1] for op in traced)
    metrics["trace.overhead_s"] = statistics.median(op["traced_wall"] - op["wall"] for op in traced)
    notes = {name: f"per traced operation, {len(traced)} of {len(ops)} traced, {tracer.span_count()} spans"
             for name in metrics}
    return {name: metrics[name] for name in PER_LAYER}, notes


def run(workload_cls, seed: int, seconds: float, trace: bool, size: dict | None = None,
        workdir: Path | None = None) -> dict:
    workdir = workdir or ROOT / ".bench_run"
    workdir.mkdir(exist_ok=True)
    workload = workload_cls(seed, workdir, size)
    setup = _setup_times(workload) if not trace else []
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.segment("setup"):
            workload.prepare()
    else:
        workload.prepare()
    ops = _measure(workload, seconds, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checks = workload.gate(len(ops))
    failed_ops = {k for k, op in enumerate(ops) if not op["ok"]} | checks.failed_ops
    latency = ""
    if trace:
        metrics, notes = _per_layer(ops, tracer)
        tracer.dump(workdir / f"spans-{workload.name}.npz")
    else:
        metrics, notes, latency = _end_to_end(ops, setup, checks, peak_rss_kb)
    return {
        "meta": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "size": workload.size,
            "units_per_op": [op["units"] for op in ops],
            "op_walls_s": [op["wall"] for op in ops],
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "defect_attempted": checks.defect_attempted, "defect_failed": checks.defect_failed,
                   "fail_share": checks.fail_share, "notes": checks.notes},
        "notes": notes,
        "latency": latency,
        "result": {
            "correct": not failed_ops,
            "attempted": len(ops),
            "failed": len(failed_ops),
            "metrics": {name: {"value": value, "unit": {**END_TO_END, **PER_LAYER}[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shockcopula" / "__init__.py").is_file():
        print(f"benchmark: no package sources at {ROOT / 'src' / 'shockcopula'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    meta = record["meta"]
    out = ROOT / ".bench_run" / f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} size={json.dumps(meta['size'])} "
          f"git={meta['git_sha'][:12]} python={meta['python']} numpy={meta['numpy']} nproc={meta['nproc']}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:28s} {metric['value']:<14.6g} {metric['unit']:9s} {record['notes'][name]}")
    if record["latency"]:
        print(record["latency"])
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
