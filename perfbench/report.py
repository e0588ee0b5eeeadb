"""Run every workload in a fresh process and print every metric by name.

    python3 perfbench/report.py                       # all workloads, seed 1
    python3 perfbench/report.py --seeds 1-10          # spread over ten seeds
    python3 perfbench/report.py --workloads query --trace 1

For each workload and metric it prints the median over the seeds with its
unit and sample count; with more than one seed also the quartiles and the
spread (distance between the quartiles as a share of the median), the
figure the end-to-end bounds in BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="typodist benchmark report")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values = defaultdict(list)
        units, counts = {}, {}
        failed = attempted = 0
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for line in lines[:-1]:
                kind, *rest = line.split()
                if kind == "metric":        # metric <workload> <name> <value> <unit> [n=N]
                    _w, name, value, unit, *n = rest
                    counts[name] = n[0] if n else ""
                elif kind == "layer":       # layer <name> <value> <unit>
                    name, value, unit = rest
                else:
                    if kind == "check":
                        print(f"{workload} seed {seed}: {line}")
                    continue
                values[name].append(float(value))
                units[name] = unit
            for name, m in result["metrics"].items():
                key = f"json:{name}"
                values[key].append(m["value"])
                units[key] = m["unit"]
        print(f"== {workload}: failed {failed} of {attempted} operations")
        for name in sorted(values):
            xs = values[name]
            med = statistics.median(xs)
            line = f"{workload:9s} {name:42s} {med:14.6g} {units[name]:8s} {counts.get(name, '')}"
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                bound = bounds.get(name.removeprefix("json:"))
                line += f"  q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
                if bound is not None and name.startswith("json:"):
                    line += f" (bound {bound})"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
