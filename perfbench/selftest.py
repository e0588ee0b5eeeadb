"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The generator is deterministic: the same seed gives byte-identical
   files for every workload, and another seed gives different files.
2. The checks catch corrupted results: a flipped observed cell in an
   imputed matrix and a fabricated distance for a pair with no shared
   data are each counted as a failed operation in ``failed_ratio``, while
   the honest results pass.

Exits 0 when every case holds.
"""

from __future__ import annotations

import filecmp
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".runs" / "selftest"

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gen import GENERATORS  # noqa: E402

failures = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)


def generate(workload: str, seed: int, tag: str) -> Path:
    out = WORK / f"{workload}-{seed}-{tag}"
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out)], check=True, timeout=170)
    return out


def test_generator() -> None:
    for workload in sorted(GENERATORS):
        first = generate(workload, 1, "a")
        again = generate(workload, 1, "b")
        other = generate(workload, 2, "a")
        expect(same_tree(first, again), f"{workload}: seed 1 twice gives byte-identical files")
        expect(not same_tree(first, other), f"{workload}: seeds 1 and 2 give different files")
        for path in (first, again, other):
            shutil.rmtree(path)


def test_corrupted_imputation() -> None:
    from typodist.aggregate import AggregatedMatrix, AggregationMode
    from typodist.impute import impute_mean
    from typodist.kb import Category, FeatureDescriptor

    rng = np.random.default_rng(0)
    values = np.where(rng.random((6, 4)) < 0.6, (rng.random((6, 4)) < 0.5).astype(float), np.nan)
    values[0, 0] = 1.0
    matrix = AggregatedMatrix(
        mode=AggregationMode.UNION, languages=[f"lang{i:04d}" for i in range(6)],
        features=[FeatureDescriptor(f"S_F{j}", Category.SYNTACTIC) for j in range(4)],
        values=values, provenance=("src1",))

    honest = workloads.Run(0)
    oid, result, _ = honest.op(impute_mean, matrix)
    workloads.check_imputed(honest, oid, matrix.values, result)
    expect(honest.failed == 0, "honest imputation passes the bit-exact and 0/1 checks")

    run = workloads.Run(0)
    oid, result, _ = run.op(impute_mean, matrix)
    result.values[0, 0] = 0.0            # flip one observed cell
    workloads.check_imputed(run, oid, matrix.values, result)
    expect(run.failed == 1 and run.failed_ratio == 1.0,
           "a flipped observed cell is counted in failed_ratio")


def test_fabricated_distance() -> None:
    from typodist.aggregate import AggregatedMatrix, AggregationMode
    from typodist.distance import DistanceRequest, DistanceResult, Metric, distance_matrix
    from typodist.kb import Category, FeatureDescriptor

    x = np.array([[1.0, np.nan, 1.0], [np.nan, 1.0, np.nan], [1.0, 0.0, np.nan]])
    langs = ["lang0001", "lang0002", "lang0003"]
    matrix = AggregatedMatrix(
        mode=AggregationMode.UNION, languages=langs,
        features=[FeatureDescriptor(f"S_F{j}", Category.SYNTACTIC) for j in range(3)],
        values=x, provenance=("src1",))
    template = DistanceRequest("", "", metric=Metric.ANGULAR)
    want = workloads.expected_distance(x[0], x[1], "angular", False)
    expect(want[0] == "no shared data", "the oracle sees no shared data for the first pair")

    honest = workloads.Run(0)
    oid, grid, _ = honest.op(distance_matrix, langs, template, matrix)
    workloads.check_distance(honest, oid, grid[0][1], want)
    workloads.check_matrix(honest, oid, grid, langs, x, "angular")
    expect(honest.failed == 0, "honest distances pass the oracle checks")

    fabricated = DistanceResult.of(("lang0001", "lang0002"), Metric.ANGULAR,
                                   AggregationMode.UNION, 0.5, 1)
    run = workloads.Run(0)
    oid, result, _ = run.op(lambda: fabricated)
    workloads.check_distance(run, oid, result, want)
    expect(run.failed == 1 and run.failed_ratio == 1.0,
           "a fabricated distance for a pair with no shared data is counted in failed_ratio")

    run = workloads.Run(0)
    oid, grid, _ = run.op(distance_matrix, langs, template, matrix)
    grid[0][1] = grid[1][0] = fabricated
    workloads.check_matrix(run, oid, grid, langs, x, "angular")
    expect(run.failed == 1, "a fabricated cell in a distance matrix fails the matrix check")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        test_corrupted_imputation()
        test_fabricated_distance()
        test_generator()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
