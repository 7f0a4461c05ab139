"""Spans around spherekern's public functions, installed from outside.

``Tracer.installed()`` replaces each traced function with a wrapper on
every ``spherekern`` module that binds it (``gram`` is bound in
``kernels``, ``regression``, ``experiments`` and the package), and puts the
originals back on exit, so no file of the library changes.  Each call
records a span (layer, start, end, parent span, operation id, pass) plus
the work counts of that layer.  Spans stay in memory until ``write``.

A layer's self time is its span time minus the time of its child spans.
"""

import importlib
import inspect
import json
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import update_wrapper
from statistics import median
from time import perf_counter

import numpy as np


def _gram_counts(a, _):
    n = np.atleast_2d(a["points"]).shape[0]
    m = n if a["points2"] is None else np.atleast_2d(a["points2"]).shape[0]
    return {"entries": n * m, "bytes_computed": 8 * n * m}


def _project_counts(a, _):
    basis = a["self"]
    M = basis.max_degree if a["max_degree"] is None else a["max_degree"]
    return {"node_degrees": basis.nodes.size * (M + 1)}


Layer = namedtuple("Layer", "name targets counter moves")

# name, (home module, attribute) pairs, counter(bound arguments, result),
# and the end-to-end metric the layer should move on which workload.
LAYERS = (
    Layer("kernels.kappa", (("spherekern.kernels", "DotProductKernel.__call__"),),
          lambda a, _: {"entries": int(np.size(a["u"]))},
          "wall_s on error-rate (largest share) and greedy; per-call overhead on spectral"),
    Layer("kernels.gram", (("spherekern.kernels", "gram"),), _gram_counts,
          "wall_s and peak_rss_mb on error-rate, infogain in greedy"),
    Layer("kernels.mc", (("spherekern.kernels", "mc_estimate"),),
          lambda a, _: {"samples": a["cfg"].sample_count},
          "wall_s on spectral"),
    Layer("regression.chol", (("spherekern.regression", "cholesky"),),
          lambda a, _: {"flops_computed": a["a"].shape[0] ** 3 / 3.0},
          "wall_s on error-rate and greedy"),
    Layer("regression.solve", (("spherekern.regression", "cho_solve"),
                               ("spherekern.regression", "solve_triangular")), None,
          "wall_s on error-rate and greedy"),
    Layer("regression.greedy", (("spherekern.regression", "greedy_max_variance"),),
          lambda a, _: {"steps": a["n"]},
          "wall_s and peak_rss_mb on greedy"),
    Layer("regression.sample", (("spherekern.regression", "sample_sphere"),),
          lambda a, _: {"points": a["n"]},
          "wall_s on error-rate and greedy"),
    Layer("spectral.basis", (("spherekern.spectral", "GegenbauerBasis.__init__"),), None,
          "wall_s on spectral"),
    Layer("spectral.project", (("spherekern.spectral", "GegenbauerBasis.project"),),
          _project_counts, "wall_s on spectral"),
    Layer("spectral.mercer", (("spherekern.spectral", "mercer_spectrum"),), None,
          "wall_s on spectral"),
    Layer("experiments.synthetic", (("spherekern.experiments", "make_synthetic"),), None,
          "wall_s on error-rate"),
    Layer("experiments.error_rate", (("spherekern.experiments", "error_rate_experiment"),),
          None, "wall_s and peak_rss_mb on error-rate"),
    Layer("experiments.mig_growth", (("spherekern.experiments", "mig_growth_experiment"),),
          None, "wall_s and peak_rss_mb on greedy"),
    Layer("serialize.json", (("spherekern.serialize", "json_document"),),
          lambda _, r: {"bytes": len(r.encode("utf-8"))}, "wall_s on spectral"),
    Layer("serialize.csv", (("spherekern.serialize", "csv_document"),), None,
          "wall_s on spectral"),
    Layer("cli", (("spherekern.cli", "main"),), None, "wall_s on spectral"),
)

# Layers each workload must record spans for; zero spans in one of them
# means a refactor moved the work away from what the trace wraps.
EXPECTED = {
    "error-rate": ("kernels.kappa", "kernels.gram", "regression.chol",
                   "regression.solve", "regression.sample", "experiments.synthetic",
                   "experiments.error_rate", "serialize.json", "serialize.csv", "cli"),
    "greedy": ("kernels.kappa", "kernels.gram", "regression.chol", "regression.solve",
               "regression.greedy", "regression.sample", "experiments.mig_growth",
               "serialize.json", "serialize.csv", "cli"),
    "spectral": ("kernels.kappa", "kernels.mc", "spectral.basis", "spectral.project",
                 "spectral.mercer", "serialize.json", "serialize.csv", "cli"),
}

# Per-layer metrics: name -> (layer, field, unit, better).  "calls" counts
# spans, "self_s" is the median over traced passes of the summed self time,
# any other field is a work count the layer's counter returns per pass.
METRICS = {
    "kernels.kappa.calls": ("kernels.kappa", "calls", "count", "lower"),
    "kernels.kappa.entries": ("kernels.kappa", "entries", "count", "lower"),
    "kernels.kappa.self_s": ("kernels.kappa", "self_s", "s", "lower"),
    "kernels.kappa.ns_per_entry": ("kernels.kappa", "ns_per_entry", "ns", "lower"),
    "kernels.gram.calls": ("kernels.gram", "calls", "count", "lower"),
    "kernels.gram.entries": ("kernels.gram", "entries", "count", "lower"),
    "kernels.gram.self_s": ("kernels.gram", "self_s", "s", "lower"),
    "kernels.gram.bytes_computed": ("kernels.gram", "bytes_computed", "bytes", "lower"),
    "kernels.mc.samples": ("kernels.mc", "samples", "count", "higher"),
    "kernels.mc.self_s": ("kernels.mc", "self_s", "s", "lower"),
    "regression.chol.calls": ("regression.chol", "calls", "count", "lower"),
    "regression.chol.failed": ("regression.chol", "failed", "count", "lower"),
    "regression.chol.flops_computed": ("regression.chol", "flops_computed", "flop", "lower"),
    "regression.chol.self_s": ("regression.chol", "self_s", "s", "lower"),
    "regression.solve.calls": ("regression.solve", "calls", "count", "lower"),
    "regression.solve.self_s": ("regression.solve", "self_s", "s", "lower"),
    "regression.greedy.steps": ("regression.greedy", "steps", "count", "higher"),
    "regression.greedy.self_s": ("regression.greedy", "self_s", "s", "lower"),
    "regression.sample.points": ("regression.sample", "points", "count", "lower"),
    "regression.sample.self_s": ("regression.sample", "self_s", "s", "lower"),
    "spectral.basis.calls": ("spectral.basis", "calls", "count", "lower"),
    "spectral.basis.self_s": ("spectral.basis", "self_s", "s", "lower"),
    "spectral.project.calls": ("spectral.project", "calls", "count", "lower"),
    "spectral.project.node_degrees": ("spectral.project", "node_degrees", "count", "lower"),
    "spectral.project.self_s": ("spectral.project", "self_s", "s", "lower"),
    "spectral.mercer.self_s": ("spectral.mercer", "self_s", "s", "lower"),
    "experiments.synthetic.self_s": ("experiments.synthetic", "self_s", "s", "lower"),
    "experiments.error_rate.self_s": ("experiments.error_rate", "self_s", "s", "lower"),
    "experiments.mig_growth.self_s": ("experiments.mig_growth", "self_s", "s", "lower"),
    "serialize.json.calls": ("serialize.json", "calls", "count", "lower"),
    "serialize.json.bytes": ("serialize.json", "bytes", "bytes", "lower"),
    "serialize.json.self_s": ("serialize.json", "self_s", "s", "lower"),
    "serialize.csv.calls": ("serialize.csv", "calls", "count", "lower"),
    "serialize.csv.self_s": ("serialize.csv", "self_s", "s", "lower"),
    "cli.ops": ("cli", "calls", "count", "higher"),
    "cli.self_s": ("cli", "self_s", "s", "lower"),
}


class CoverageError(RuntimeError):
    """A layer the workload is expected to exercise recorded no span."""


class Tracer:
    """Records spans while installed; the caller sets ``op_id`` and ``pass_index``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None
        self.pass_index = None

    def _wrap(self, layer, fn):
        spans, stack, counter = self.spans, self._stack, layer.counter
        signature = inspect.signature(fn) if counter is not None else None

        def wrapper(*args, **kwargs):
            span = {"layer": layer.name, "parent": stack[-1] if stack else None,
                    "op": self.op_id, "pass": self.pass_index}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return update_wrapper(wrapper, fn)

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        homes = {home: importlib.import_module(home)
                 for layer in LAYERS for home, _ in layer.targets}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spherekern" or name.startswith("spherekern.")]
        patches = []
        try:
            for layer in LAYERS:
                for home, attr in layer.targets:
                    owner = homes[home]
                    if "." in attr:
                        cls_name, method = attr.split(".")
                        cls = getattr(owner, cls_name)
                        original = cls.__dict__[method]
                        patches.append((cls, method, original))
                        setattr(cls, method, self._wrap(layer, original))
                        continue
                    original = getattr(owner, attr)
                    wrapper = self._wrap(layer, original)
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is original:
                                patches.append((module, name, original))
                                setattr(module, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def layer_totals(self, pass_index):
        """Per-layer calls, failures, self time and work counts for one pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s["pass"] == pass_index]
        child_time = {}
        for _, s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        totals = {layer.name: {"calls": 0, "failed": 0, "self_s": 0.0} for layer in LAYERS}
        for i, s in spans:
            t = totals[s["layer"]]
            t["calls"] += 1
            t["failed"] += "error" in s
            t["self_s"] += s["end"] - s["start"] - child_time.get(i, 0.0)
            for field, value in s.get("counts", {}).items():
                t[field] = t.get(field, 0) + value
        return totals

    def check_coverage(self, workload, passes):
        """Raise CoverageError if an expected layer recorded no span in a traced pass."""
        for p in passes:
            totals = self.layer_totals(p)
            missing = [name for name in EXPECTED[workload] if totals[name]["calls"] == 0]
            if missing:
                raise CoverageError(
                    f"{workload}: no spans for layer(s) {', '.join(missing)} in pass {p}")

    def metrics(self, passes):
        """Per-layer metrics over the traced passes: counts from the first, median self time."""
        per_pass = [self.layer_totals(p) for p in passes]
        out = {}
        for name, (layer, field, unit, _) in METRICS.items():
            if field == "self_s":
                value = median(t[layer]["self_s"] for t in per_pass)
            elif field == "ns_per_entry":
                entries = per_pass[0][layer].get("entries", 0)
                self_s = median(t[layer]["self_s"] for t in per_pass)
                value = 1e9 * self_s / entries if entries else 0.0
            else:
                value = per_pass[0][layer].get(field, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
