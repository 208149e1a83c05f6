"""Span recorder that wraps the library's public functions from outside.

Installing a ``Tracer`` replaces each traced function at every module
attribute of the ``scbundles`` package that refers to it, which is where
callers look it up (``scbundles.cli.homology_groups``,
``scbundles.homology.smith_normal_form``, ``scbundles.spindle.contract``),
and each traced method on its class.  ``remove`` puts every original
back.  Spans and counters stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

# (layer module, attribute path) of every traced function, in report order.
TARGETS = (
    ("cli", "main"),
    ("_json", "read_json"),
    ("_json", "write_json"),
    ("simplicial", "SemiSimplicialSet.validate"),
    ("simplicial", "SemiSimplicialSet.from_json_dict"),
    ("homology", "homology_groups"),
    ("homology", "boundary_matrix"),
    ("homology", "smith_normal_form"),
    ("homology", "fundamental_class"),
    ("bundle", "bundle_from_json_dict"),
    ("bundle", "bundle_to_json_dict"),
    ("bundle", "total_to_json_dict"),
    ("bundle", "minimal_from_cocycle"),
    ("bundle", "MinimalBundle.as_local_system"),
    ("bundle", "assemble"),
    ("bundle", "NecklaceLocalSystem.validate"),
    ("bundle", "check_projection_naturality"),
    ("spindle", "subdivide"),
    ("spindle", "contract"),
    ("spindle", "minimize"),
    ("surface", "cocycle_for_chern"),
    ("cyclic", "kan_survey"),
    ("cyclic", "kan_lifts"),
    ("cyclic", "enumerate_sc"),
    ("cyclic", "sc_normalized_homology"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)

# Derived metrics: name -> unit.  Per-op sums unless the name says ratio.
COUNTERS = {
    "homology.smith_normal_form.d1.ms": "ms",
    "homology.smith_normal_form.d2.ms": "ms",
    "homology.smith_normal_form.d3.ms": "ms",
    "homology.smith_normal_form.rank": "count",
    "homology.smith_normal_form.unit_diagonal": "count",
    "homology.smith_normal_form.torsion": "count",
    "homology.boundary_matrix.cells": "count",
    "homology.boundary_matrix.nnz": "count",
    "homology.boundary_matrix.computed_bytes": "B",
    "bundle.assemble.total_simplices": "count",
    "spindle.beads_dropped": "count",
    "spindle.contract_per_bead": "ratio",
    "cyclic.kan_survey.compatible_ratio": "ratio",
    "cyclic.kan_lifts.hit_ratio": "ratio",
    "_json.bytes_read": "B",
    "_json.bytes_written": "B",
}
HOOK_SPAN = "trace.counters"

# CPython 3.11, 64-bit: an empty list is 56 bytes plus 8 per slot; the
# entries of a boundary matrix are -1, 0 and 1, which are shared objects.
LIST_HEADER_BYTES = 56
POINTER_BYTES = 8


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _boundary_matrix(tracer, args, kwargs, result, dur_ns):
    q = _arg(args, kwargs, 1, "q")
    rows, cols = result.rows, result.cols
    tracer.matrix_dims[(id(result), rows, cols)] = q
    tracer.count("homology.boundary_matrix.cells", rows * cols)
    tracer.count(
        "homology.boundary_matrix.nnz", sum(len(r) - r.count(0) for r in result.data)
    )
    tracer.count(
        "homology.boundary_matrix.computed_bytes",
        LIST_HEADER_BYTES + rows * (LIST_HEADER_BYTES + POINTER_BYTES * (cols + 1)),
    )


def _smith_normal_form(tracer, args, kwargs, result, dur_ns):
    m = _arg(args, kwargs, 0, "m")
    q = tracer.matrix_dims.pop((id(m), m.rows, m.cols), None)
    if q is not None:
        tracer.count(f"homology.smith_normal_form.d{q}.ms", dur_ns / 1e6)
    diag = result.diagonal
    tracer.count("homology.smith_normal_form.rank", len(diag))
    tracer.count("homology.smith_normal_form.unit_diagonal", sum(1 for d in diag if d == 1))
    tracer.count("homology.smith_normal_form.torsion", sum(1 for d in diag if d > 1))


def _assemble(tracer, args, kwargs, result, dur_ns):
    tracer.count("bundle.assemble.total_simplices", sum(result.total.counts))


def _minimize(tracer, args, kwargs, result, dur_ns):
    system = _arg(args, kwargs, 0, "system")
    circles = (system.stalk(0, v).size for v in system.base.simplices(0))
    tracer.count("spindle.beads_dropped", sum(size - 1 for size in circles))


def _kan_survey(tracer, args, kwargs, result, dur_ns):
    tracer.count("cyclic.kan_survey.families", result["families"])
    tracer.count("cyclic.kan_survey.compatible", result["compatible"])


def _kan_lifts(tracer, args, kwargs, result, dur_ns):
    tracer.count("cyclic.kan_lifts.lifts", len(result))


def _enumerate_sc(tracer, args, kwargs, result, dur_ns):
    parent = tracer.stack[-1] if tracer.stack else None
    if parent is not None and tracer.spans[parent][0] == "cyclic.kan_lifts":
        tracer.count("cyclic.kan_lifts.candidates", len(result))


def _read_json(tracer, args, kwargs, result, dur_ns):
    tracer.count("_json.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _write_json(tracer, args, kwargs, result, dur_ns):
    tracer.count("_json.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


HOOKS = {
    "homology.boundary_matrix": _boundary_matrix,
    "homology.smith_normal_form": _smith_normal_form,
    "bundle.assemble": _assemble,
    "spindle.minimize": _minimize,
    "cyclic.kan_survey": _kan_survey,
    "cyclic.kan_lifts": _kan_lifts,
    "cyclic.enumerate_sc": _enumerate_sc,
    "_json.read_json": _read_json,
    "_json.write_json": _write_json,
}


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, op id]; counters
    as running totals over the traced ops."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.matrix_dims: dict[tuple, int] = {}
        self.op = None
        self.ops = 0
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self.ops += 1
        self.matrix_dims.clear()

    def count(self, name: str, value) -> None:
        self.counters[name] += value

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every target of the imported ``scbundles`` package."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "scbundles" or name.startswith("scbundles."))
        ]
        for (mod_name, attr), span in zip(TARGETS, SPAN_NAMES):
            owner = sys.modules.get(f"scbundles.{mod_name}")
            *cls_path, fn_name = attr.split(".")
            try:
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[fn_name] if cls_path else getattr(owner, fn_name)
            except (AttributeError, KeyError, TypeError):
                self.absent.append(span)
                continue
            if cls_path:
                self._replace_method(owner, fn_name, raw, span)
            else:
                wrapper = self._wrap(span, raw)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapper)
                            self._restore.append((m, key, raw))

    def _replace_method(self, cls, name, raw, span) -> None:
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(span, raw.__func__))
        else:
            wrapper = self._wrap(span, raw)
        setattr(cls, name, wrapper)
        self._restore.append((cls, name, raw))

    def remove(self) -> None:
        """Put back every original the install replaced."""
        while self._restore:
            owner, key, raw = self._restore.pop()
            setattr(owner, key, raw)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, span[2] - span[1])
                # The hook's cost is the tracer's, not the caller's.
                spans.append([HOOK_SPAN, span[2], perf_counter_ns(), span[3], self.op])
            return result

        return traced

    # -- results -------------------------------------------------------

    def per_op(self) -> dict[str, float]:
        """Per-op inclusive ms, self ms and calls of every span name, and
        the derived counters, averaged over the traced ops."""
        n = max(self.ops, 1)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        incl: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child_ns[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.ms"] = incl[name] / 1e6 / n
            out[f"{name}.self_ms"] = own[name] / 1e6 / n
            out[f"{name}.calls"] = calls[name] / n
        c = self.counters
        for name in COUNTERS:
            out[name] = c[name] / n
        out["spindle.contract_per_bead"] = _ratio(
            calls["spindle.contract"], c["spindle.beads_dropped"]
        )
        out["cyclic.kan_survey.compatible_ratio"] = _ratio(
            c["cyclic.kan_survey.compatible"], c["cyclic.kan_survey.families"]
        )
        out["cyclic.kan_lifts.hit_ratio"] = _ratio(
            c["cyclic.kan_lifts.lifts"], c["cyclic.kan_lifts.candidates"]
        )
        return out

    def write(self, path) -> None:
        """All spans and raw counters as one JSON document."""
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "ops": self.ops,
            "absent": self.absent,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric a traced run reports, in order."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.ms": "ms", f"{name}.self_ms": "ms", f"{name}.calls": "count"})
    units.update(COUNTERS)
    units["trace.overhead_pct"] = "%"
    return units


def _ratio(num, den) -> float:
    return num / den if den else 0.0
