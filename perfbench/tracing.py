"""Spans around calls into cubaflow's public functions, from outside the package.

``Tracer.install`` replaces each listed function by a wrapper that records a
span: name, start, end, parent span and operation id.  ``from .x import f``
binds a copy of ``f`` in every importing module, so the wrapper replaces the
name wherever it is bound to the original; methods are replaced on their
class.  Spans stay in memory until the pass ends.  Wrappers return the
wrapped function's result untouched; the work counts they add (points,
bytes, restarts, flow acceptance) are computed after the span has closed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

import numpy as np

# module -> public functions wrapped under "<module>.<function>"
FUNCTIONS = {
    "engine": ("solve", "flow_run", "residual_vector", "verify_rule",
               "mz_ratio_diffusion", "mz_ratio_algebraic", "rule_to_json"),
    "spectra": ("enumerate_basis",),
    "algebraic": ("build_restricted_space",),
    "geometry": ("move_points", "reference_integrate"),
    "partition": ("weighted_partition", "build_cell_tree", "spanning_tree",
                  "verify_partition", "partition_to_json"),
    "weights": ("random_band_weights",),
}
# (module, class) -> methods; spans are "<module>.<method>" for the two basis
# classes and "partition.CellTree.<method>" for the cell tree
METHODS = {
    ("spectra", "SpectralSpace"): ("evaluate", "gradients"),
    ("algebraic", "RestrictedPolySpace"): ("evaluate", "gradients"),
    ("partition", "CellTree"): ("measures", "locate", "sweep_parameter"),
}
SPAN_RENAMES = {
    "engine.mz_ratio_diffusion": "engine.mz_ratio",
    "engine.mz_ratio_algebraic": "engine.mz_ratio",
}
LAYERS = ("engine", "spectra", "algebraic", "geometry", "partition", "weights")
# every module that binds a copy of a wrapped function
BINDING_MODULES = ("cubaflow", "cubaflow.engine", "cubaflow.partition",
                   "cubaflow.cli", "cubaflow.geometry", "cubaflow.spectra",
                   "cubaflow.algebraic", "cubaflow.weights")

_GRADIENT_SPANS = ("spectra.gradients", "algebraic.gradients")

# per-layer metrics besides the per-case times: (name, unit)
LAYER_METRICS = (
    ("engine.solve.s", "s"),
    ("engine.solve.self_s", "s"),
    ("engine.flow_run.s", "s"),
    ("engine.flow_run.calls", "count"),
    ("engine.flow_accept_ratio", "ratio"),
    ("engine.newton_iters", "count"),
    ("engine.residual_vector.calls", "count"),
    ("engine.lm_trials_per_iter", "ratio"),
    ("engine.restarts_used", "count"),
    ("engine.mz_ratio.s", "s"),
    ("engine.mz_ratio.calls", "count"),
    ("engine.verify_rule.s", "s"),
    ("engine.rule_to_json.s", "s"),
    ("engine.rule_to_json.bytes", "bytes"),
    ("spectra.gradients.s", "s"),
    ("spectra.gradients.calls", "count"),
    ("spectra.gradients.points", "count"),
    ("spectra.evaluate.s", "s"),
    ("spectra.evaluate.calls", "count"),
    ("spectra.evaluate.points", "count"),
    ("spectra.enumerate_basis.s", "s"),
    ("algebraic.evaluate.s", "s"),
    ("algebraic.evaluate.calls", "count"),
    ("algebraic.gradients.s", "s"),
    ("algebraic.gradients.calls", "count"),
    ("algebraic.build_restricted_space.s", "s"),
    ("geometry.move_points.s", "s"),
    ("geometry.move_points.calls", "count"),
    ("geometry.reference_integrate.s", "s"),
    ("geometry.reference_integrate.calls", "count"),
    ("geometry.reference_integrate.points", "count"),
    ("partition.weighted_partition.s", "s"),
    ("partition.build_cell_tree.s", "s"),
    ("partition.spanning_tree.s", "s"),
    ("partition.CellTree.measures.s", "s"),
    ("partition.CellTree.measures.calls", "count"),
    ("partition.verify_partition.s", "s"),
    ("partition.CellTree.locate.s", "s"),
    ("partition.CellTree.locate.calls", "count"),
    ("partition.CellTree.sweep_parameter.s", "s"),
    ("partition.CellTree.sweep_parameter.calls", "count"),
    ("partition.partition_to_json.s", "s"),
    ("partition.partition_to_json.bytes", "bytes"),
    ("weights.random_band_weights.s", "s"),
) + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS)


def per_layer_metrics(case_names) -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    return (list(LAYER_METRICS) + [(f"case.{c}.s", "s") for c in case_names]
            + [("trace_overhead_s", "s")])


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start, end, parent index or -1, operation id, outermost]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open_by_name: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._paused = False

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        outermost = self._open_by_name[nid] == 0
        self._open_by_name[nid] += 1
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, parent, self.op, outermost])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open_by_name[span[0]] -= 1
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method of the imported package."""
        mods = {name: importlib.import_module(name) for name in BINDING_MODULES}
        engine, geometry = mods["cubaflow.engine"], mods["cubaflow.geometry"]
        residual = engine.residual_vector
        reference_grid = geometry.reference_grid

        def count(key, n):
            self.counts[key] += int(n)

        def flow_accept(args, kwargs, out):
            coeffs, w = args[1], kwargs.get("weights")
            if isinstance(coeffs, np.ndarray) and w is not None:
                self._paused = True
                try:
                    end = np.linalg.norm(residual(args[0], out.endpoints, w))
                finally:
                    self._paused = False
                count("engine.flow_accepts", end < np.linalg.norm(coeffs))

        after = {
            "engine.flow_run": flow_accept,
            "engine.solve": lambda a, k, out: count(
                "engine.restarts_used", out.stats["restarts_used"]),
            "engine.rule_to_json": lambda a, k, out: count(
                "engine.rule_to_json.bytes", len(out.encode())),
            "partition.partition_to_json": lambda a, k, out: count(
                "partition.partition_to_json.bytes", len(out.encode())),
            "geometry.reference_integrate": lambda a, k, out: count(
                "geometry.reference_integrate.points",
                len(reference_grid(a[0], a[2]).charts)),
            "spectra.evaluate": lambda a, k, out: count(
                "spectra.evaluate.points", len(out)),
            "spectra.gradients": lambda a, k, out: count(
                "spectra.gradients.points", len(out)),
        }

        for module, fnames in FUNCTIONS.items():
            home = mods[f"cubaflow.{module}"]
            for fname in fnames:
                orig = getattr(home, fname)
                span = f"{module}.{fname}"
                span = SPAN_RENAMES.get(span, span)
                wrapped = self.wrap(span, orig, after.get(span))
                for mod in mods.values():
                    if getattr(mod, fname, None) is orig:
                        setattr(mod, fname, wrapped)
        for (module, cls_name), methods in METHODS.items():
            cls = getattr(mods[f"cubaflow.{module}"], cls_name)
            prefix = module if module != "partition" else f"{module}.{cls_name}"
            for meth in methods:
                span = f"{prefix}.{meth}"
                setattr(cls, meth, self.wrap(span, getattr(cls, meth), after.get(span)))

    # -- aggregation -----------------------------------------------------

    def metrics(self, case_names) -> dict[str, float]:
        """Per-layer metrics of the recorded pass; absent layers read 0."""
        names, spans = self.names, self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        incl, self_t, calls = Counter(), Counter(), Counter()
        parent_solve = Counter()
        for i, s in enumerate(spans):
            name = names[s[0]]
            dur = s[2] - s[1]
            calls[name] += 1
            if s[5]:
                incl[name] += dur
            self_t[name] += dur - child_time[i]
            if s[3] >= 0 and names[spans[s[3]][0]] == "engine.solve":
                parent_solve[name] += 1

        out = {name: 0.0 for name, _ in LAYER_METRICS}
        for key in out:
            base, _, field = key.rpartition(".")
            if field == "s":
                out[key] = incl[base]
            elif field == "calls":
                out[key] = calls[base]
        out.update({k: self.counts[k] for k in (
            "engine.restarts_used", "engine.rule_to_json.bytes",
            "partition.partition_to_json.bytes",
            "geometry.reference_integrate.points", "spectra.evaluate.points",
            "spectra.gradients.points")})
        out["engine.solve.self_s"] = self_t["engine.solve"]
        flows = calls["engine.flow_run"]
        out["engine.flow_accept_ratio"] = (
            self.counts["engine.flow_accepts"] / flows if flows else 0.0)
        iters = sum(parent_solve[n] for n in _GRADIENT_SPANS)
        out["engine.newton_iters"] = iters
        out["engine.lm_trials_per_iter"] = (
            parent_solve["engine.residual_vector"] / iters if iters else 0.0)
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                t for n, t in self_t.items() if n.startswith(layer + "."))
        for case in case_names:
            out[f"case.{case}.s"] = incl[f"case.{case}"]
        return out

    def dump(self, path) -> None:
        """Write the spans, start times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4]]
                for s in self.spans]
        doc = {"fields": ["name", "start_s", "end_s", "parent", "op"],
               "names": self.names, "spans": rows}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
