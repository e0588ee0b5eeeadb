"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next call starts only
after the previous one returned. Every timed call is an operation; an
operation fails when it raises, when a CLI call exits non-zero, or when a
check on its output fails. A not-computable distance is a valid answer.

The workloads call typodist through module attributes at call time, so
the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import statistics
import tracemalloc
import warnings
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import gen

SETUP_LOADS = {"ingest": 3, "query": 3, "evaluate": 5}
PAIR_QUERIES = 4000
CONFIDENCE_REPORTS = 1000
MATRIX_LANGUAGES = 500
IMPUTED_QUERIES = 200           # per chunk; one chunk after each quality test
PERM_ITERATIONS = 1000
KNN_MASK_SEEDS = 3
ORACLE_TOL = 1e-9
SAME_CODE_TOL = 1e-12
CATEGORIES = gen.CATEGORIES


class Run:
    """Operation accounting, latency samples and named metrics of one pass."""

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.bad: set[int] = set()
        self.messages: list[str] = []
        self.wall = 0.0
        self.start = None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.metrics: dict[str, tuple[float, str, int | None]] = {}
        self.loads: list[float] = []

    def op(self, fn, *args, **kwargs):
        """Time one call; returns (op id, result or None, seconds)."""
        oid = self.attempted
        self.attempted += 1
        if self.start is None:
            self.start = perf_counter()
        t = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raise is a failed operation, not a crash
            dt = perf_counter() - t
            self.wall += dt
            self.check(oid, False, f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return oid, None, dt
        dt = perf_counter() - t
        self.wall += dt
        return oid, result, dt

    def crash(self, exc: Exception) -> None:
        """A raise outside any timed call: one more attempted operation, failed."""
        self.attempted += 1
        self.check(self.attempted - 1, False, f"workload stopped: {type(exc).__name__}: {exc}")

    def check(self, oid: int, ok, message: str) -> bool:
        if not ok:
            self.bad.add(oid)
            if len(self.messages) < 20:
                self.messages.append(message)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.bad)

    @property
    def failed_ratio(self) -> float:
        return self.failed / max(1, self.attempted)

    def top_up(self, request) -> None:
        """Repeat the workload's request until --seconds of measuring passed.

        Adds latency samples only; wall_s keeps the fixed script's time.
        request() returns False once its inputs run out.
        """
        wall = self.wall
        while perf_counter() - self.start < self.seconds and request():
            pass
        self.wall = wall

    def setup(self, td, kb_dir: Path, repeats: int):
        """Set-up: load_tensor of the prepared KB several times, untimed for wall_s."""
        tensor = None
        for _ in range(repeats):
            tensor = None
            t = perf_counter()
            tensor = td.storage.load_tensor(kb_dir)
            self.loads.append(perf_counter() - t)
        if self.tracer is not None:
            with self.tracer.paused():
                tracemalloc.start()
                probe = td.storage.load_tensor(kb_dir)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.tracer.count("kb.bytes_per_cell", peak / max(1, probe.cell_count()))
        return tensor

    def median_rate(self, name: str, unit: str, key: str):
        """Median over the work chunks listed in samples[key] as (amount, seconds)."""
        chunks = self.samples[key]
        self.metric(name, statistics.median(a / t for a, t in chunks), unit,
                    int(sum(a for a, _t in chunks)))

    def metric(self, name, value, unit, n=None):
        self.metrics[name] = (float(value), unit, n)

    def latency(self, prefix: str, key: str):
        xs = sorted(self.samples[key])
        n = len(xs)
        self.metric(f"{prefix}_p50_ms", statistics.median(xs) * 1e3, "ms", n)
        # the p99 sample has at least ten samples beyond it once n >= 1000
        self.metric(f"{prefix}_p99_ms", xs[math.ceil(0.99 * n) - 1] * 1e3, "ms", n)


def finish(run: Run, import_s: float, request: str, throughput: str) -> None:
    """The end-to-end metrics every workload reports.

    throughput_per_s is the gated name of the workload's own bulk rate.
    """
    run.metric("setup_s", import_s + statistics.median(run.loads), "s", len(run.loads))
    run.metric("wall_s", run.wall, "s")
    run.metric("failed_ratio", run.failed_ratio, "ratio", run.attempted)
    run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    run.latency(request, request)
    if throughput in run.metrics:       # absent when the operations behind it failed
        value, _unit, n = run.metrics[throughput]
        run.metric("throughput_per_s", value, "1/s", n)


# --- oracle ---------------------------------------------------------------------------

class Oracle:
    """The planted source grids, aggregated and measured with plain numpy."""

    def __init__(self, path: Path):
        with np.load(path) as data:
            self.values = data["values"]                 # sources x languages x features
            self.categories = data["categories"].astype(str)
            self.languages = data["languages"].astype(str).tolist()
        self.row = {g: i for i, g in enumerate(self.languages)}
        self._matrices = {}
        known = ~np.isnan(self.values)
        self.n_known = known.sum(axis=0)
        self.n_ones = (np.nan_to_num(self.values) == 1.0).sum(axis=0)

    def cols(self, scope) -> np.ndarray:
        if scope is None:
            return np.arange(len(self.categories))
        return np.flatnonzero(self.categories == scope)

    def matrix(self, mode: str, source) -> np.ndarray:
        key = (mode, source)
        if key not in self._matrices:
            sub = self.values if source is None else self.values[[int(source[-1]) - 1]]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                agg = np.nanmax(sub, axis=0) if mode == "union" else np.nanmean(sub, axis=0)
            self._matrices[key] = agg
        return self._matrices[key]

    def confidence(self, a: int, b: int, cols: np.ndarray) -> tuple[float, float]:
        def missing(l):
            return float(np.mean(self.n_known[l, cols] == 0))

        def agreement(l):
            n = self.n_known[l, cols]
            ones = self.n_ones[l, cols]
            has = n > 0
            return float(np.mean(np.maximum(ones[has], n[has] - ones[has]) / n[has]))

        return (1.0 - (missing(a) + missing(b)) / 2.0, (agreement(a) + agreement(b)) / 2.0)


def expected_distance(xa, xb, metric: str, same: bool):
    """(reason, shared count, distance) for two rows with NaN for missing."""
    shared = ~np.isnan(xa) & ~np.isnan(xb)
    n = int(shared.sum())
    if n == 0:
        return "no shared data", 0, None
    u, v = xa[shared], xb[shared]
    nu, nv = float(np.sqrt(u @ u)), float(np.sqrt(v @ v))
    if nu == 0.0 or nv == 0.0:
        return "zero vector", 0, None
    if same:
        return None, n, 0.0
    sim = min(1.0, max(-1.0, float(u @ v) / (nu * nv)))
    d = 1.0 - sim if metric == "cosine" else (2.0 / math.pi) * math.acos(sim)
    return None, n, min(1.0, max(0.0, d))


def check_distance(run: Run, oid: int, result, want) -> bool:
    reason, shared, dist = want
    label = f"distance {result.pair}"
    if reason is not None:
        return run.check(oid, result.distance is None and result.reason == reason,
                         f"{label}: expected not computable ({reason}), got {result}")
    return run.check(
        oid,
        result.reason is None and result.shared_features == shared
        and result.distance is not None and 0.0 <= result.distance <= 1.0
        and abs(result.distance - dist) <= ORACLE_TOL,
        f"{label}: expected {dist} over {shared} shared features, got {result}",
    )


def check_matrix(run: Run, oid: int, grid, languages, x: np.ndarray, metric: str) -> None:
    """Symmetry, range, shared counts, reasons and values of a whole matrix."""
    n = len(languages)
    known = (~np.isnan(x)).astype(float)
    x0 = np.nan_to_num(x)
    shared = known @ known.T
    dot = x0 @ x0.T
    na2 = (x0 * x0) @ known.T
    nb2 = na2.T
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = np.clip(dot / (np.sqrt(na2) * np.sqrt(nb2)), -1.0, 1.0)
    dist = 1.0 - sim if metric == "cosine" else (2.0 / math.pi) * np.arccos(sim)
    dist = np.clip(dist, 0.0, 1.0)
    np.fill_diagonal(dist, 0.0)
    got_d = np.full((n, n), np.nan)
    got_shared = np.zeros((n, n))
    reasons = {}
    ok_sym = True
    for i in range(n):
        row = grid[i]
        for j in range(n):
            cell = row[j]
            if cell.distance is not None:
                got_d[i, j] = cell.distance
                got_shared[i, j] = cell.shared_features
            else:
                reasons[(i, j)] = cell.reason
            if j < i:
                other = grid[j][i]
                ok_sym &= (cell.distance == other.distance and cell.reason == other.reason
                           and cell.shared_features == other.shared_features)
    run.check(oid, ok_sym, "distance matrix is not symmetric")
    no_shared = shared == 0
    zero = ~no_shared & ((na2 == 0) | (nb2 == 0))
    want_reason = np.where(no_shared, 1, np.where(zero, 2, 0))
    got_reason = np.zeros((n, n), dtype=int)
    for (i, j), r in reasons.items():
        got_reason[i, j] = 1 if r == "no shared data" else 2
    run.check(oid, np.array_equal(want_reason, got_reason),
              f"not-computable reasons differ in {(want_reason != got_reason).sum()} cells")
    ok = want_reason == 0
    run.check(oid, np.array_equal(got_shared[ok], shared[ok]),
              "shared_features differ from the numpy shared counts")
    run.check(oid, bool(np.all((got_d[ok] >= 0) & (got_d[ok] <= 1))), "distance outside [0, 1]")
    run.check(oid, bool(np.all(np.abs(got_d[ok] - dist[ok]) <= ORACLE_TOL)),
              "distance differs from the numpy Gram-product values")


def sample_matches_language_distance(run, oid, td, rng, grid, languages, template, matrix):
    """A seeded sample of matrix cells equals language_distance within 1e-12."""
    n = len(languages)
    for _ in range(200):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        want = td.distance.language_distance(
            replace(template, lang_a=languages[i], lang_b=languages[j]), matrix)
        got = grid[i][j]
        same = (want.reason == got.reason and want.shared_features == got.shared_features
                and (want.distance is None) == (got.distance is None)
                and (want.distance is None or abs(want.distance - got.distance) <= SAME_CODE_TOL))
        if not run.check(oid, same, f"matrix cell {i},{j} {got} != language_distance {want}"):
            return


# --- CLI ----------------------------------------------------------------------------------

def cli_call(run: Run, td, argv):
    """Run the CLI in-process; returns (op id, parsed JSON payload or None, seconds)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return td.cli.main([str(a) for a in argv])

    oid, code, dt = run.op(call)
    payload = None
    if run.check(oid, code == 0, f"typodist {argv[0]} exited {code}: {err.getvalue().strip()}"):
        payload = json.loads(out.getvalue())
    return oid, payload, dt


# --- ingest ------------------------------------------------------------------------------

def ingest(run: Run, td, data: Path, work: Path, import_s: float, seed: int) -> None:
    """Write path: two CLI ingests, eval coverage, then in-process updates."""
    exp = json.loads((data / "expected.json").read_text())
    common = ["--schema", data / "schema.json", "--resolution-table", data / "resolution.csv"]
    srcs = [a for s in ("src1", "src2", "src3") for a in ("--source", f"{s}={data / (s + '.csv')}")]
    kb1, kb2 = work / "kb1", work / "kb2"
    oid1, p1, dt1 = cli_call(run, td, ["ingest", *common, *srcs, "--out", kb1])
    check_ingest_step(run, oid1, p1, exp, "step1")
    oid2, p2, dt2 = cli_call(run, td, [
        "ingest", *common, "--rules", data / "rules.csv",
        "--source", f"src1={data / 'src1_update.csv'}", "--source", f"src4={data / 'src4.csv'}",
        "--data", kb1, "--out", kb2])
    check_ingest_step(run, oid2, p2, exp, "step2")
    if p2 is not None:
        run.metric("ingest_cells_per_s", p2["cells"] / (dt1 + dt2), "cells/s", p2["cells"])
        if run.tracer is not None:
            run.tracer.count("ingest.conflicts", len(p2["conflicts"]))
    oid3, p3, _ = cli_call(run, td, ["eval", "coverage", "--data", kb2])
    if p3 is not None:
        run.check(oid3, p3["language_count"] == exp["languages"], "coverage language count")
        run.check(oid3, p3["typological_total"]["total"] == exp["languages_with_cells"],
                  "coverage typological total")

    tensor = run.setup(td, kb2, SETUP_LOADS["ingest"])
    bad = [c for c in exp["readback"] if tensor.get_cell(c[0], c[1], c[2]) != c[3]]
    run.check(oid2, not bad, f"{len(bad)} sampled cells read back wrong, e.g. {bad[:1]}")

    # in-process updates: 100-cell batches from a brand-new source, with a
    # read-after-write query over all sources after every 50th batch
    upd = json.loads((data / "updates.json").read_text())
    src = upd["source"]
    names = gen.binarized_columns(gen.raw_features())[0]
    col = {name: j for j, name in enumerate(names)}
    row = {gen.glottocode(i): i for i in range(exp["languages"])}
    batches = [td.kb.TensorBatch(sources=[src] if k == 0 else [],
                                 cells=[(l, f, src, v) for l, f, v in cells])
               for k, cells in enumerate(upd["batches"])]
    index = [(np.array([row[l] for l, _f, _v in cells]), np.array([col[f] for _l, f, _v in cells]),
              np.array([v for _l, _f, v in cells])) for cells in upd["batches"]]
    queries = {b: (la, lb) for b, la, lb in upd["queries"]}
    with np.load(data / "oracle.npz") as planted:
        x = planted["union_step2"]      # the union the KB must answer from
    for k in range(upd["timed_batches"]):
        apply_update(run, tensor, batches[k], index[k], x)
        if k in queries:
            la, lb = queries[k]
            oid, res, dt = run.op(td.distance.distance_from_tensor, tensor,
                                  td.distance.DistanceRequest(la, lb))
            run.samples["read_after_write"].append(dt)
            if res is not None:
                check_distance(run, oid, res,
                               expected_distance(x[row[la]], x[row[lb]], "angular", False))

    extra = iter(range(upd["timed_batches"], len(batches)))

    def another_update() -> bool:
        k = next(extra, None)
        if k is not None:
            apply_update(run, tensor, batches[k], index[k], x)
        return k is not None

    run.top_up(another_update)
    raw = run.samples["read_after_write"]
    run.metric("read_after_write_p50_ms", statistics.median(raw) * 1e3, "ms", len(raw))
    finish(run, import_s, "update", "ingest_cells_per_s")


def apply_update(run: Run, tensor, batch, index, x: np.ndarray) -> None:
    version, cells = tensor.version, tensor.cell_count()
    oid, _, dt = run.op(tensor.extend_with, batch)
    run.samples["update"].append(dt)
    run.check(oid, tensor.version == version + 1 and tensor.cell_count() == cells + len(batch.cells),
              "an update batch did not add its cells in one version")
    li, ci, vals = index
    x[li, ci] = np.fmax(x[li, ci], vals)


def check_ingest_step(run: Run, oid: int, payload, exp: dict, step: str) -> None:
    if payload is None:
        return
    run.check(oid, payload["cells"] == exp[f"{step}_cells"],
              f"{step} stored {payload['cells']} cells, planted {exp[f'{step}_cells']}")
    conflicts = exp.get(f"{step}_conflicts", 0)
    run.check(oid, len(payload["conflicts"]) == conflicts,
              f"{step} reported {len(payload['conflicts'])} conflicts, planted {conflicts}")
    retired = sum(len(r["resolved_retired"]) for r in payload["per_source"])
    run.check(oid, retired == exp[f"{step}_retired"],
              f"{step} resolved {retired} retired ids, planted {exp[f'{step}_retired']}")


# --- query -------------------------------------------------------------------------------

def query(run: Run, td, data: Path, work: Path, import_s: float, seed: int) -> None:
    """Read path: pair queries, confidence reports and two distance matrices.

    The first queries fill the 10 aggregate keys (2 modes x 5 source
    scopes) from cold; all later ones hit the cache.
    """
    rng = np.random.default_rng([seed, 20])
    tensor = run.setup(td, data / "kb", SETUP_LOADS["query"])
    oracle = Oracle(data / "oracle.npz")
    langs = oracle.languages
    D = td.distance
    category = {c.value: c for c in td.kb.Category}

    # answers are checked after each loop, so the checks' own memory
    # traffic does not sit between two timed calls
    answers = []

    def pair_query() -> bool:
        a, b = (int(v) for v in rng.choice(len(langs), size=2, replace=False))
        metric = "angular" if rng.random() < 0.5 else "cosine"
        mode = "union" if rng.random() < 0.7 else "average"
        scope = None if rng.random() < 0.5 else CATEGORIES[int(rng.integers(4))]
        source = None if rng.random() < 0.5 else gen.SOURCES[int(rng.integers(4))]
        req = D.DistanceRequest(
            langs[a], langs[b], metric=D.Metric(metric),
            aggregation=td.aggregate.AggregationMode(mode),
            features=category[scope] if scope else None, sources=source)
        oid, res, dt = run.op(D.distance_from_tensor, tensor, req)
        run.samples["pair"].append(dt)
        answers.append((oid, res, a, b, metric, mode, scope, source))
        return True

    def check_pairs():
        for oid, res, a, b, metric, mode, scope, source in answers:
            if res is not None:
                x = oracle.matrix(mode, source)
                cols = oracle.cols(scope)
                check_distance(run, oid, res, expected_distance(x[a, cols], x[b, cols], metric, False))
        answers.clear()

    for _ in range(PAIR_QUERIES):
        pair_query()
    check_pairs()

    # confidence pairs need a sourced value in scope for both languages
    for _ in range(CONFIDENCE_REPORTS):
        scope = None if rng.random() < 0.5 else CATEGORIES[int(rng.integers(4))]
        cols = oracle.cols(scope)
        while True:
            a, b = (int(v) for v in rng.choice(len(langs), size=2, replace=False))
            if oracle.n_known[a, cols].any() and oracle.n_known[b, cols].any():
                break
        oid, rep, dt = run.op(td.confidence.confidence_report, langs[a], langs[b], tensor,
                              scope=category[scope] if scope else None)
        run.samples["confidence"].append(dt)
        answers.append((oid, rep, a, b, cols))
    for oid, rep, a, b, cols in answers:
        if rep is not None:
            comp, cons = oracle.confidence(a, b, cols)
            run.check(oid, abs(rep.completeness - comp) <= SAME_CODE_TOL
                      and abs(rep.consistency - cons) <= SAME_CODE_TOL
                      and rep.feature_count_k == len(cols),
                      f"confidence {rep} != oracle ({comp}, {cons}, {len(cols)})")
    answers.clear()

    chosen = sorted(int(v) for v in rng.choice(len(langs), size=MATRIX_LANGUAGES, replace=False))
    names = [langs[i] for i in chosen]
    matrix_s = 0.0
    for mode, metric, scope in (("union", "angular", None),
                                ("average", "cosine", CATEGORIES[int(rng.integers(4))])):
        agg_mode = td.aggregate.AggregationMode(mode)
        matrix = td.aggregate.aggregate(tensor, agg_mode)
        template = D.DistanceRequest("", "", metric=D.Metric(metric), aggregation=agg_mode,
                                     features=category[scope] if scope else None)
        oid, grid, dt = run.op(D.distance_matrix, names, template, matrix)
        matrix_s += dt
        if grid is not None:
            x = oracle.matrix(mode, None)[chosen][:, oracle.cols(scope)]
            check_matrix(run, oid, grid, names, x, metric)
            sample_matches_language_distance(run, oid, td, rng, grid, names, template, matrix)
            grid = None
    pairs = 2 * len(names) * (len(names) - 1) // 2
    run.metric("matrix_pairs_per_s", pairs / matrix_s, "pairs/s", pairs)

    run.top_up(pair_query)
    check_pairs()
    run.latency("confidence", "confidence")
    finish(run, import_s, "pair", "matrix_pairs_per_s")


# --- evaluate --------------------------------------------------------------------------

@contextlib.contextmanager
def capture_imputations(evalkit, sink: list):
    """Keep each (input, result) that quality_test passes through run_imputer."""
    inner = evalkit.run_imputer

    def capturing(matrix, spec, *args, **kwargs):
        result = inner(matrix, spec, *args, **kwargs)
        sink.append((matrix, result))
        return result

    evalkit.run_imputer = capturing
    try:
        yield
    finally:
        evalkit.run_imputer = inner


def check_imputed(run: Run, oid: int, source_values: np.ndarray, result) -> None:
    observed = ~np.isnan(source_values)
    run.check(oid, np.array_equal(result.values[observed], source_values[observed]),
              f"{result.method.method}: observed cells did not come back bit-exact")
    fills = result.values[result.imputed_mask]
    run.check(oid, bool(np.all((fills == 0.0) | (fills == 1.0))),
              f"{result.method.method}: union fills are not 0 or 1")


def evaluate(run: Run, td, data: Path, work: Path, import_s: float, seed: int) -> None:
    """Compute path: quality tests, imputed pair queries and a case study.

    One chunk of imputed pair queries follows each quality test, so their
    latencies are sampled across the whole run.
    """
    rng = np.random.default_rng([seed, 30])
    tensor = run.setup(td, data / "kb", SETUP_LOADS["evaluate"])
    exp = json.loads((data / "expected.json").read_text())
    oracle = Oracle(data / "oracle.npz")
    langs = oracle.languages
    union = td.aggregate.AggregationMode.UNION
    category = {c.value: c for c in td.kb.Category}
    Spec = td.impute.ImputerSpec
    D = td.distance
    mean_spec = Spec("mean")

    oid, matrix, _ = run.op(td.aggregate.aggregate, tensor, union)
    if matrix is None:
        return
    truth = oracle.matrix("union", None)
    run.check(oid, np.array_equal(np.isnan(truth), np.isnan(matrix.values))
              and np.array_equal(truth[~np.isnan(truth)], matrix.values[~np.isnan(truth)]),
              "union aggregate differs from the planted grid")
    # the imputed queries are checked against one imputation of the same matrix
    oid, reference, _ = run.op(td.impute.run_imputer, matrix, mean_spec, registry=tensor,
                               dialect_fill=True)
    if reference is None:
        return
    check_imputed(run, oid, matrix.values, reference)

    def imputed_queries():
        t_chunk = run.wall
        answers = []
        for _ in range(IMPUTED_QUERIES):
            a, b = (int(v) for v in rng.choice(len(langs), size=2, replace=False))
            scope = None if rng.random() < 0.5 else CATEGORIES[int(rng.integers(4))]
            req = D.DistanceRequest(
                langs[a], langs[b], metric=D.Metric("angular" if rng.random() < 0.5 else "cosine"),
                aggregation=union, features=category[scope] if scope else None,
                use_imputed=True, imputer=mean_spec)
            oid, res, dt = run.op(D.distance_from_tensor, tensor, req, dialect_fill=True)
            run.samples["imputed"].append(dt)
            answers.append((oid, res, req, scope))
        run.samples["imputed_chunks"].append((IMPUTED_QUERIES, run.wall - t_chunk))
        for oid, res, req, scope in answers:
            if res is not None:
                want = D.language_distance(req, reference)
                run.check(oid, res.reason == want.reason and (
                    res.distance is None or (res.shared_features == len(oracle.cols(scope))
                                             and abs(res.distance - want.distance) <= SAME_CODE_TOL)),
                    f"imputed query {res} != reference {want}")
        return True

    # quality tests as `typodist eval quality` runs them, dialect fill on
    f1 = {}
    quality_s = defaultdict(float)
    for method, s in [("mean", seed)] + [("knn", seed + k) for k in range(KNN_MASK_SEEDS)] \
            + [("softimpute", seed)]:
        captured = []
        with capture_imputations(td.evalkit, captured):
            oid, report, dt = run.op(td.evalkit.quality_test, matrix, Spec(method, seed=s),
                                     seed=s, registry=tensor, dialect_fill=True)
        quality_s[method] += dt
        if report is not None:
            f1.setdefault(method, []).append(report.metrics["f1"])
            for test_matrix, result in captured:
                check_imputed(run, oid, test_matrix.values, result)
            run.check(oid, report.masked_count == int(0.2 * (~np.isnan(matrix.values)).sum()),
                      f"{method}: masked {report.masked_count} cells")
            if method != "mean" and "mean" in f1:
                run.check(oid, report.metrics["f1"] > f1["mean"][0],
                          f"{method} F1 {report.metrics['f1']} does not beat mean F1 {f1['mean'][0]}")
        imputed_queries()

    # case study: tau of 2016 matrix pairs against the planted reference,
    # then Perm-Both on 190 of them, observed-data against imputed-data distances
    case = exp["case_languages"]
    ref = {}
    with open(data / "reference.csv", encoding="utf-8", newline="") as fh:
        for la, lb, value in list(csv.reader(fh))[1:]:
            ref[(la, lb)] = float(value)
    template = D.DistanceRequest("", "", aggregation=union)
    oid_m, grid, _ = run.op(D.distance_matrix, case, template, matrix)
    if grid is None:
        return
    dist, refs = [], []
    for i in range(len(case)):
        for j in range(i + 1, len(case)):
            if grid[i][j].distance is not None:
                dist.append(grid[i][j].distance)
                refs.append(ref[(case[i], case[j])])
    oid_t, tau, _ = run.op(td.evalkit.kendall_tau, dist, refs)
    perm = exp["perm_languages"]
    oid_b, grid_b, _ = run.op(D.distance_matrix, perm, template, reference)
    cs = None
    if grid_b is not None:
        pos = {g: k for k, g in enumerate(case)}
        pairs = [(i, j) for i in range(len(perm)) for j in range(i + 1, len(perm))]
        a_scores = [grid[pos[perm[i]]][pos[perm[j]]].distance for i, j in pairs]
        b_scores = [grid_b[i][j].distance for i, j in pairs]
        r_scores = [ref[(perm[i], perm[j])] for i, j in pairs]
        if run.check(oid_b, None not in a_scores and None not in b_scores,
                     "a case-study pair is not computable"):
            oid_c, cs, dt = run.op(td.evalkit.case_study, a_scores, b_scores, r_scores,
                                   iterations=PERM_ITERATIONS, seed=seed)

    for f1_method, values in f1.items():
        run.metric(f"f1_{f1_method}", statistics.mean(values), "ratio", len(values))
    run.metric("quality_knn_s", quality_s["knn"], "s", KNN_MASK_SEEDS)
    run.metric("quality_softimpute_s", quality_s["softimpute"], "s", 1)
    check_matrix(run, oid_m, grid, case, truth[[oracle.row[g] for g in case]], "angular")
    if tau is not None:
        run.check(oid_t, -1.0 <= tau.tau <= 1.0 and tau.n_pairs == len(dist) == 2016,
                  f"tau {tau} out of range or over the wrong pair count")
    if run.tracer is not None:
        with run.tracer.paused():
            tracemalloc.start()
            td.evalkit.kendall_tau(dist, refs)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        run.tracer.count("evalkit.kendall_tau.peak_mb", peak / 2**20)
    if cs is not None:
        run.check(oid_c, -1 <= cs.tau_a <= 1 and -1 <= cs.tau_b <= 1 and cs.n_pairs == 190
                  and 0 < cs.perm.p_value <= 1 and cs.perm.iterations == PERM_ITERATIONS,
                  f"case study out of range: {cs.to_json()}")
        run.metric("perm_iters_per_s", PERM_ITERATIONS / dt, "iter/s", PERM_ITERATIONS)

    run.top_up(imputed_queries)
    run.median_rate("imputed_pairs_per_s", "pairs/s", "imputed_chunks")
    finish(run, import_s, "imputed", "imputed_pairs_per_s")


WORKLOADS = {"ingest": ingest, "query": query, "evaluate": evaluate}
