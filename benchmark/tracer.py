"""Spans around the public calls of each shockcopula module.

A span is (name, start, end, parent).  One is recorded whenever a call
crosses from one layer into another, for example from ``genfn`` into
``distfn``.  A call that a layer makes into its own public functions (a
bisection evaluating the distribution it searches, a generator delegating to
its base) gets no span of its own; it is counted, keyed by the name of the
innermost enclosing span, so its time stays in that span's self time.

The wrappers are installed from this file by replacing the module and class
attributes of the package, and removed again after each traced segment, so
untraced operations in the same process run the unmodified code.  Spans are
kept in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("distfn", "genfn", "copulas", "imprecise", "verify", "cli")

# Public methods per layer; module-level functions whose names do not start
# with an underscore are public as well.
_METHODS = {
    "distfn": ("value", "left_limit", "right_limit", "survival", "jump_points",
               "smallest_preimage", "largest_preimage"),
    "genfn": ("__call__", "star", "substar", "dagger", "breakpoints",
              "value_with_largest_x0", "consistency_gap"),
    "copulas": ("__call__",),
    "imprecise": ("from_spec", "to_spec", "member", "member_model", "precise_marginals"),
    "verify": ("exact_joint", "exact_joint_bruteforce"),
    "cli": (),
}

KERNELS = ("copulas.marshall2", "copulas.maxmin2", "copulas.rmm2", "copulas.marshall_n",
           "copulas.maxmin_n", "copulas.rmm_n", "copulas.rmm_from_values")
ENVELOPES = ("imprecise.rmm_envelope", "imprecise.rmm_envelope_full_scan")
PREIMAGES = ("smallest_preimage", "largest_preimage")
VALUES = ("value", "left_limit", "right_limit")


def _targets():
    """(owner, attribute, original, span name, layer index, is classmethod)."""
    out = []
    for lid, layer in enumerate(LAYERS):
        mod = importlib.import_module(f"shockcopula.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for meth in _METHODS[layer]:
                    raw = obj.__dict__.get(meth)
                    is_cm = isinstance(raw, classmethod)
                    fn = raw.__func__ if is_cm else raw
                    if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                        out.append((obj, meth, raw, f"{layer}.{attr}.{meth}", lid, is_cm))
            elif callable(getattr(obj, "callback", None)):  # click commands
                out.append((obj, "callback", obj.callback, f"{layer}.{attr}", lid, False))
            elif callable(obj) and hasattr(obj, "__code__"):
                out.append((mod, attr, obj, f"{layer}.{attr}", lid, False))
    return out


class Segment:
    """One stretch of traced execution: its span index range and its counts."""

    def __init__(self, kind: str, first: int, width: int) -> None:
        self.kind = kind
        self.first = first
        self.last = first
        self.counts = [0] * (width * width)


class Tracer:
    def __init__(self) -> None:
        self.targets = _targets()
        self.names = [t[3] for t in self.targets] + ["<root>"]
        self.root = len(self.names) - 1
        self.layer_of = np.array([t[4] for t in self.targets] + [-1])
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.genfn_keys = array("q")
        self.segments: list[Segment] = []

    def _wrap(self, fn, nid: int, lid: int, seg: Segment, stack: list, keyed: bool):
        width = len(self.names)
        counts = seg.counts
        names, parents = self.span_name, self.span_parent
        starts, ends, keys = self.span_start, self.span_end, self.genfn_keys
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top_layer, top_name, top_span = stack[-1]
            if top_layer == lid:
                counts[top_name * width + nid] += 1
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(top_span)
            if keyed:
                keys.append(hash((id(args[0]), args[1])))
            starts.append(0.0)
            ends.append(0.0)
            stack.append((lid, nid, i))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        return traced

    @contextmanager
    def segment(self, kind: str):
        """Install the wrappers for the duration of the block."""
        seg = Segment(kind, len(self.span_start), len(self.names))
        stack = [(-1, self.root, -1)]
        originals = {}
        for nid, (owner, attr, raw, name, lid, is_cm) in enumerate(self.targets):
            fn = raw.__func__ if is_cm else raw
            keyed = name.startswith("genfn.") and attr == "__call__"
            wrapped = self._wrap(fn, nid, lid, seg, stack, keyed)
            setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
            if isinstance(owner, types.ModuleType):
                originals[id(fn)] = wrapped
        # names imported into other modules (``from .verify import copula_grid``)
        rebound = []
        for layer in LAYERS + ("__init__",):
            mod = importlib.import_module("shockcopula" if layer == "__init__" else f"shockcopula.{layer}")
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and getattr(mod, attr) is not originals[id(obj)]:
                    setattr(mod, attr, originals[id(obj)])
                    rebound.append((mod, attr, obj))
        try:
            yield seg
        finally:
            for owner, attr, raw, *_ in self.targets:
                setattr(owner, attr, raw)
            for mod, attr, obj in rebound:
                setattr(mod, attr, obj)
            seg.last = len(self.span_start)
            self.segments.append(seg)

    # -- derived numbers ---------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.uint16)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return name, dur, dur - child

    def layer_metrics(self, op_kind: str = "op") -> dict:
        """Per-layer numbers per traced operation of kind ``op_kind``."""
        name, dur, self_t = self._arrays()
        ops = [s for s in self.segments if s.kind == op_kind]
        in_ops = np.zeros(dur.size, dtype=bool)
        width = len(self.names)
        internal = np.zeros((width, width), dtype=np.int64)
        for s in ops:
            in_ops[s.first:s.last] = True
            internal += np.array(s.counts, dtype=np.int64).reshape(width, width)
        k = max(len(ops), 1)
        ids = {n: i for i, n in enumerate(self.names)}
        spans_per_name = np.bincount(name[in_ops], minlength=width)
        calls_per_name = spans_per_name + internal.sum(axis=0)
        layer = self.layer_of[name]

        def pick(names):
            return [ids[n] for n in names if n in ids]

        def calls(nids):
            return int(calls_per_name[nids].sum()) if nids else 0

        def total(mask, values):
            return float(values[mask & in_ops].sum())

        def layer_self(layer_name):
            return total(layer == LAYERS.index(layer_name), self_t)

        preimage_ids = pick(n for n in self.names if n.startswith("distfn.") and n.split(".")[-1] in PREIMAGES)
        value_ids = pick(n for n in self.names if n.startswith("distfn.") and n.split(".")[-1] in VALUES)
        genfn_call_ids = pick(n for n in self.names if n.startswith("genfn.") and n.endswith(".__call__"))
        genfn_spans = int(spans_per_name[genfn_call_ids].sum())
        # value evaluations made inside preimage searches, per preimage search
        values_in_preimage = int(internal[np.ix_(preimage_ids, value_ids)].sum()) if preimage_ids else 0
        preimages = calls(preimage_ids)
        envelope_mask = np.isin(name, pick(ENVELOPES))
        # one key was appended per genfn boundary call, in span order
        keys = np.frombuffer(self.genfn_keys, dtype=np.int64)
        op_keys = keys[in_ops[np.isin(name, genfn_call_ids)]]

        def mean_duration(n):
            mask = name == ids[n]
            return float(dur[mask].mean()) if mask.any() else 0.0

        return {
            "genfn.calls": genfn_spans / k,
            "genfn.self_s": layer_self("genfn") / k,
            "genfn.distinct_ratio": (np.unique(op_keys).size / op_keys.size) if op_keys.size else 0.0,
            "distfn.preimage_calls": preimages / k,
            "distfn.value_calls": calls(value_ids) / k,
            "distfn.values_per_preimage": values_in_preimage / preimages if preimages else 0.0,
            "distfn.self_s": layer_self("distfn") / k,
            "copulas.kernel_calls": calls(pick(KERNELS)) / k,
            "copulas.kernel_self_s": layer_self("copulas") / k,
            "imprecise.envelope_calls": calls(pick(ENVELOPES)) / k,
            "imprecise.envelope_self_s": total(envelope_mask, self_t) / k,
            "imprecise.from_spec_s": mean_duration("imprecise.ShockModel.from_spec"),
            "imprecise.build_bounds_s": mean_duration("imprecise.build_bounds"),
            "verify.copula_grid_s": total(name == ids["verify.copula_grid"], dur) / k,
            "verify.suite_self_s": layer_self("verify") / k,
            "cli.write_s": total(name == ids["cli.write_surface_csv"], dur) / k,
        }

    def span_count(self) -> int:
        return len(self.span_start)

    def dump(self, path) -> None:
        """Write every span and segment once, at the end of the run."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            segment_kind=np.array([s.kind for s in self.segments]),
            segment_range=np.array([(s.first, s.last) for s in self.segments], dtype=np.int64).reshape(-1, 2),
        )
