"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each typodist module and the
public methods of ``FeatureTensor``, at every binding site: a function
that another module imported with ``from .x import y`` is replaced there
too, so ``cli``, ``distance`` and ``evalkit`` call the wrapped version.
Each call becomes a span (name, start, end, parent) kept in compact
in-memory arrays and written as JSON when the run ends.

O(1) registry lookups and per-record parsing helpers stay unwrapped: a
span would cost more than the call, and their time stays in the caller's
self time.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import weakref
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "ingest", "kb", "storage", "aggregate", "impute", "distance",
          "confidence", "evalkit")

UNWRAPPED = {
    "kb": {"language_index", "feature_index", "source_index", "has_language", "language",
           "feature", "get_cell", "cell_count", "iter_cells", "iter_indexed_cells"},
    "storage": {"format_value", "parse_value"},
    "ingest": {"canonicalize_feature_name", "nominal_feature_names", "binarize_nominal",
               "binarize_ordinal", "resolve_language", "is_retired"},
}


def _spec_method(args, kwargs):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return getattr(spec, "method", "unknown")


#: span name suffixes that split one function's spans by an argument
SPLIT_BY = {
    "impute.run_imputer": _spec_method,
    "evalkit.quality_test": _spec_method,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []
        self._aggregates = weakref.WeakValueDictionary()
        self.t0 = perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn, observe=None):
        tracer = self
        nid = self._id(name)
        split = SPLIT_BY.get(name)

        def traced(*args, **kwargs):
            idx = len(tracer.span_start)
            sid = tracer._id(f"{name}.{split(args, kwargs)}") if split else nid
            tracer.span_name.append(sid)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- installing -------------------------------------------------------------

    def install(self, package, layers) -> None:
        """Wrap every layer's public functions at all of their binding sites.

        layers maps each layer name to its module; the package namespace
        re-exports functions, so it is a binding site too.
        """
        modules = [package] + [layers[layer] for layer in LAYERS]
        for layer in LAYERS:
            module = layers[layer]
            skip = UNWRAPPED.get(layer, set())
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in skip or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj, OBSERVERS.get(f"{layer}.{attr}"))
                for site in modules:
                    for site_attr, val in list(vars(site).items()):
                        if val is obj:
                            self._patch(site, site_attr, wrapped)
        tensor_cls = layers["kb"].FeatureTensor
        for attr, obj in list(vars(tensor_cls).items()):
            if attr.startswith("_") or attr in UNWRAPPED["kb"] or not inspect.isfunction(obj):
                continue
            self._patch(tensor_cls, attr,
                        self.wrap(f"kb.{attr}", obj, OBSERVERS.get(f"kb.{attr}")))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr), value))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run a block on the unwrapped functions, e.g. a tracemalloc probe."""
        patched = list(self._patched)
        self.uninstall()
        try:
            yield
        finally:
            for owner, attr, original, wrapped in patched:
                self._patch(owner, attr, wrapped)

    # --- reducing ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name busy time, layer self time, and counts; per-layer self time.

        A span's own time is its duration minus its direct children. Its
        layer self time adds back the layer self time of children in the
        same layer, so it is the time spent in that layer's code during
        the call. Spans nested in a span of the same name are not counted
        again.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(dur)
        layer_of = [self.names[self.span_name[i]].split(".", 1)[0] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                own[p] -= dur[i]
        layer_self = list(own)
        # children end before parents start closing, and are recorded after
        # them, so a reverse pass folds each subtree before its parent
        for i in range(n - 1, -1, -1):
            p = self.span_parent[i]
            if p >= 0 and layer_of[p] == layer_of[i]:
                layer_self[p] += layer_self[i]
        per_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "s": 0.0})
        per_layer: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            per_layer[layer_of[i]] += own[i]
            rec = per_name[name]
            rec["calls"] += 1
            if not self._has_ancestor_named(i):
                rec["busy_s"] += dur[i]
                rec["s"] += layer_self[i]
        return {"per_name": dict(per_name), "per_layer_self_s": dict(per_layer),
                "counts": dict(self.counts), "spans": n, "layer_self": layer_self}

    def _has_ancestor_named(self, i: int) -> bool:
        nid = self.span_name[i]
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.span_parent[p]
        return False

    def write(self, path, extra: dict) -> None:
        """Spans as parallel columns, times in microseconds from tracer start."""
        t0 = self.t0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_us": [round((t - t0) * 1e6, 1) for t in self.span_start],
                "end_us": [round((t - t0) * 1e6, 1) for t in self.span_end],
                **extra,
            }, fh)


# --- counters taken at layer boundaries ---------------------------------------------

def _obs_aggregate(tracer, idx, args, kwargs, result):
    # the cache hands back the same object on a hit
    hit = tracer._aggregates.get(id(result)) is result
    tracer._aggregates[id(result)] = result
    tracer.count("aggregate.hits" if hit else "aggregate.misses")
    tracer.samples["aggregate.hit" if hit else "aggregate.miss"].append(idx)


def _obs_language_distance(tracer, idx, args, kwargs, result):
    if result.reason is not None:
        tracer.count("distance.not_computable." + result.reason.replace(" ", "_"))


def _obs_distance_matrix(tracer, idx, args, kwargs, result):
    n = len(args[0] if args else kwargs["languages"])
    tracer.count("distance.matrix_pairs", n * (n - 1) // 2)


def _obs_read_source_csv(tracer, idx, args, kwargs, result):
    tracer.count("ingest.rows", len(result))


def _obs_build_batch(tracer, idx, args, kwargs, result):
    tracer.count("ingest.cells", len(result[0].cells))


def _obs_extend_with(tracer, idx, args, kwargs, result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    tracer.count("kb.extend_with.cells", len(batch.cells))


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _obs_load_tensor(tracer, idx, args, kwargs, result):
    tracer.count("storage.bytes_read", _dir_bytes(args[0] if args else kwargs["directory"]))


def _obs_save_tensor(tracer, idx, args, kwargs, result):
    tracer.count("storage.bytes_written", _dir_bytes(args[1] if len(args) > 1 else kwargs["directory"]))


def _obs_softimpute(tracer, idx, args, kwargs, result):
    tracer.count("impute.softimpute.calls")
    tracer.count("impute.softimpute.iterations", len(result.objective_history))
    tracer.count("impute.softimpute.converged", bool(result.converged))


def _obs_fill_dialects(tracer, idx, args, kwargs, result):
    # imported here: run.py imports this module before timing the import of
    # typodist, which brings numpy in
    import numpy as np

    before = int(np.isnan(args[0].values).sum())
    tracer.count("impute.fill_dialects.cells", before - int(np.isnan(result.values).sum()))


def _obs_quality_test(tracer, idx, args, kwargs, result):
    method = _spec_method(args, kwargs)
    tracer.samples[f"evalkit.quality.f1.{method}"].append(result.metrics.get("f1", 0.0))


def _obs_main(tracer, idx, args, kwargs, result):
    if result != 0:
        tracer.count("cli.nonzero_exits")


OBSERVERS = {
    "aggregate.aggregate": _obs_aggregate,
    "distance.language_distance": _obs_language_distance,
    "distance.distance_matrix": _obs_distance_matrix,
    "ingest.read_source_csv": _obs_read_source_csv,
    "ingest.build_batch": _obs_build_batch,
    "kb.extend_with": _obs_extend_with,
    "storage.load_tensor": _obs_load_tensor,
    "storage.save_tensor": _obs_save_tensor,
    "impute.impute_softimpute": _obs_softimpute,
    "impute.fill_dialects": _obs_fill_dialects,
    "evalkit.quality_test": _obs_quality_test,
    "cli.main": _obs_main,
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer table: name -> (value, unit)."""
    s = tracer.summary()
    per_name, counts = s["per_name"], s["counts"]

    def self_s(name):
        return per_name.get(name, {}).get("s", 0.0)

    def calls(name):
        return per_name.get(name, {}).get("calls", 0)

    def span_self(indices):
        return sum(s["layer_self"][i] for i in indices)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (s["per_layer_self_s"].get(layer, 0.0), "s")
    out["cli.ingest.s"] = (self_s("cli.cmd_ingest"), "s")
    out["cli.eval_coverage.s"] = (self_s("cli.cmd_eval_coverage"), "s")
    out["cli.nonzero_exits"] = (counts.get("cli.nonzero_exits", 0), "count")
    for fn in ("read_source_csv", "build_batch", "merge_batches", "apply_inference"):
        out[f"ingest.{fn}.s"] = (self_s(f"ingest.{fn}"), "s")
    for key in ("rows", "cells", "conflicts"):
        out[f"ingest.{key}"] = (counts.get(f"ingest.{key}", 0), "count")
    out["kb.extend_with.s"] = (self_s("kb.extend_with"), "s")
    out["kb.extend_with.calls"] = (calls("kb.extend_with"), "count")
    out["kb.extend_with.cells"] = (counts.get("kb.extend_with.cells", 0), "count")
    out["kb.source_stats.calls"] = (calls("kb.source_stats"), "count")
    out["kb.source_stats.s"] = (self_s("kb.source_stats"), "s")
    out["kb.bytes_per_cell"] = (counts.get("kb.bytes_per_cell", 0.0), "B")
    out["storage.load_tensor.s"] = (self_s("storage.load_tensor"), "s")
    out["storage.save_tensor.s"] = (self_s("storage.save_tensor"), "s")
    out["storage.bytes_read"] = (counts.get("storage.bytes_read", 0), "B")
    out["storage.bytes_written"] = (counts.get("storage.bytes_written", 0), "B")
    hits, misses = counts.get("aggregate.hits", 0), counts.get("aggregate.misses", 0)
    out["aggregate.calls"] = (hits + misses, "count")
    out["aggregate.hits"] = (hits, "count")
    out["aggregate.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["aggregate.miss_s"] = (span_self(tracer.samples.get("aggregate.miss", [])), "s")
    out["aggregate.hit_s"] = (span_self(tracer.samples.get("aggregate.hit", [])), "s")
    out["distance.distance_matrix.s"] = (self_s("distance.distance_matrix"), "s")
    out["distance.matrix_pairs"] = (counts.get("distance.matrix_pairs", 0), "count")
    out["distance.language_distance.calls"] = (calls("distance.language_distance"), "count")
    out["distance.language_distance.s"] = (self_s("distance.language_distance"), "s")
    out["distance.distance_from_tensor.s"] = (self_s("distance.distance_from_tensor"), "s")
    for reason in ("no_shared_data", "zero_vector"):
        out[f"distance.not_computable.{reason}"] = (
            counts.get(f"distance.not_computable.{reason}", 0), "count")
    for fn in ("confidence_report", "completeness", "consistency"):
        out[f"confidence.{fn}.s"] = (self_s(f"confidence.{fn}"), "s")
    reports = calls("confidence.confidence_report")
    out["confidence.source_stats_per_report"] = (
        calls("kb.source_stats") / reports if reports else 0.0, "ratio")
    for method in ("mean", "knn", "softimpute"):
        out[f"impute.run_imputer.s.{method}"] = (self_s(f"impute.run_imputer.{method}"), "s")
    out["impute.select_softimpute_lambda.s"] = (self_s("impute.select_softimpute_lambda"), "s")
    si_calls = counts.get("impute.softimpute.calls", 0)
    out["impute.softimpute.iterations"] = (counts.get("impute.softimpute.iterations", 0), "count")
    out["impute.softimpute.converged_ratio"] = (
        counts.get("impute.softimpute.converged", 0) / si_calls if si_calls else 0.0, "ratio")
    out["impute.fill_dialects.s"] = (self_s("impute.fill_dialects"), "s")
    out["impute.fill_dialects.cells"] = (counts.get("impute.fill_dialects.cells", 0), "count")
    for method in ("mean", "knn", "softimpute"):
        out[f"evalkit.quality_test.s.{method}"] = (self_s(f"evalkit.quality_test.{method}"), "s")
    for method in ("mean", "knn", "softimpute"):
        f1 = tracer.samples.get(f"evalkit.quality.f1.{method}", [])
        out[f"evalkit.quality.f1.{method}"] = (sum(f1) / len(f1) if f1 else 0.0, "ratio")
    out["evalkit.kendall_tau.s"] = (self_s("evalkit.kendall_tau"), "s")
    out["evalkit.kendall_tau.peak_mb"] = (counts.get("evalkit.kendall_tau.peak_mb", 0.0), "MB")
    out["evalkit.perm_both_test.s"] = (self_s("evalkit.perm_both_test"), "s")
    out["evalkit.coverage_report.s"] = (self_s("evalkit.coverage_report"), "s")
    out["trace.spans"] = (s["spans"], "count")
    return out
