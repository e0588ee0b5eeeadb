"""typodist benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {ingest,query,evaluate} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: the program under test is imported
from ``src/typodist`` there. Inputs are generated from the seed in a
separate process before timing, under ``perfbench/.runs/``. Human-readable
lines (host record, every named metric with unit and sample count, the
first failed checks) come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the workload runs untraced, then traced, and the
metrics are the per-layer ones, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"


def host_record(seed: int) -> dict:
    import numpy as np

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": rev,
        "seed": seed,
    }


def blas_threads():
    """Thread count of the BLAS numpy loaded, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="typodist benchmark")
    parser.add_argument("--workload", required=True, choices=("ingest", "query", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "typodist" / "__init__.py").is_file():
        print(f"error: no typodist package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    data = RUNS / f"{args.workload}-{args.seed}"
    shutil.rmtree(data, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", str(data)], check=True, timeout=170)

    sys.path.insert(0, str(src))
    t = perf_counter()
    import typodist
    import_s = perf_counter() - t
    # typodist.aggregate is the function re-exported over its module
    td = types.SimpleNamespace(**{layer: importlib.import_module(f"typodist.{layer}")
                                  for layer in tracing.LAYERS})
    import workloads

    host = host_record(args.seed)
    print("host " + json.dumps(host, sort_keys=True))

    def one_pass(tracer=None, tag="run"):
        run = workloads.Run(args.seconds, tracer)
        work = data / tag
        work.mkdir()
        try:
            workloads.WORKLOADS[args.workload](run, td, data, work, import_s, args.seed)
        except Exception as exc:  # the program broke the workload: report, do not crash
            traceback.print_exc()
            run.crash(exc)
        shutil.rmtree(work, ignore_errors=True)
        return run

    try:
        run = one_pass()
        passes = [run]
        wanted = [m["name"] for m in bench["end_to_end"]]
        values = {name: (v, unit) for name, (v, unit, _n) in run.metrics.items()}
        if args.trace:
            gc.collect()
            tr = tracing.Tracer()
            tr.install(typodist, vars(td))
            try:
                passes.append(one_pass(tr, "traced"))
            finally:
                tr.uninstall()
            overhead = passes[1].wall - run.wall
            values = tracing.layer_metrics(tr)
            values["trace.overhead_s"] = (overhead, "s")
            values["trace.overhead_ratio"] = (overhead / run.wall if run.wall else 0.0, "ratio")
            tr.write(RUNS / f"trace-{args.workload}.json",
                     {"workload": args.workload, "host": host,
                      "per_layer": {k: v for k, (v, _u) in values.items()}})
            wanted = [m["name"] for m in bench["per_layer"]]
            for name, (v, unit) in sorted(values.items()):
                print(f"layer {name} {fmt(v)} {unit}")
    finally:
        shutil.rmtree(data, ignore_errors=True)

    for name, (v, unit, n) in sorted(run.metrics.items()):
        print(f"metric {args.workload} {name} {fmt(v)} {unit}" + (f" n={n}" if n else ""))
    for message in (m for p in passes for m in p.messages):
        print(f"check failed: {message}")
    missing = [name for name in wanted if name not in values]
    for name in missing:
        print(f"error: metric {name} was not measured")
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in wanted if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
