"""Command-line frontend binding the modules into batch workflows.

Exit codes: 0 success (a not-computable distance is a successful answer),
1 query error (unknown identifiers, undefined statistics), 2 input-format
error. All randomness flows from the seed (--seed, else the config file's
"seed", else 0); identical flags, data, and seed produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from . import storage
from .aggregate import AggregationMode, aggregate
from .confidence import QualityCache, confidence_report
from .distance import (
    DistanceRequest,
    Metric,
    distance_matrix,
    language_distance,
    matrix_for,
)
from .errors import FormatError, QueryError, TypodistError
from .evalkit import (
    case_study,
    coverage_report,
    knn_select_k,
    load_case_study,
    quality_test,
)
from .impute import IMPUTER_METHODS, ImputerSpec, run_imputer
from .ingest import (
    CanonicalNamer,
    IdResolutionTable,
    apply_inference,
    build_batch,
    load_ingest_schema,
    load_resolution_table,
    load_rules,
    merge_batches,
    read_source_csv,
    split_conflicts,
)
from .kb import Category, FeatureTensor, ResourceTier

EXIT_OK = 0
EXIT_QUERY = 1
EXIT_FORMAT = 2

DATA_DIR_ENV = "TYPODIST_DATA_DIR"

AGGREGATION_MODES = tuple(m.value for m in AggregationMode)


@dataclass
class CliConfig:
    data_dir: Optional[str] = None
    aggregation: str = "union"
    metric: str = "angular"
    imputer: str = "softimpute"
    seed: int = 0
    resolution_table: Optional[str] = None
    rules_file: Optional[str] = None


def load_config(path) -> CliConfig:
    data, where = storage._read_json(path), str(path)
    seed = storage._json_field(data, "seed", int, where, 0)
    if not 0 <= seed < 2**64:
        raise FormatError(f"{where}: 'seed' must be an unsigned 64-bit integer, got {seed!r}")
    config = CliConfig(
        data_dir=storage._json_field(data, "data_dir", (str, None), where, None),
        aggregation=storage._json_field(data, "aggregation", AggregationMode, where, "union").value,
        metric=storage._json_field(data, "metric", Metric, where, "angular").value,
        imputer=storage._json_field(data, "imputer", IMPUTER_METHODS, where, "softimpute"),
        seed=seed,
        resolution_table=storage._json_field(data, "resolution_table", (str, None), where, None),
        rules_file=storage._json_field(data, "rules_file", (str, None), where, None),
    )
    for key in ("data_dir", "resolution_table", "rules_file"):
        value = getattr(config, key)
        if value is not None and not Path(value).exists():
            raise FormatError(f"config {key} does not exist: {value}")
    return config


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in _as_table(payload):
            print(line)


def _as_table(payload, prefix="") -> list[str]:
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_as_table(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {value}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.extend(_as_table(item, prefix + "  "))
            else:
                lines.append(f"{prefix}- {item}")
    return lines


def _data_dir(args, config: CliConfig) -> Path:
    candidate = args.data or os.environ.get(DATA_DIR_ENV) or config.data_dir
    if not candidate:
        raise QueryError("no data directory: pass --data or set TYPODIST_DATA_DIR")
    return Path(candidate)


def _load_tensor(args, config: CliConfig) -> FeatureTensor:
    return storage.load_tensor(_data_dir(args, config))


def _parse_category(name: str) -> Category:
    try:
        return Category(name.lower())
    except ValueError:
        raise QueryError(f"unknown feature category: {name!r}") from None


def _feature_selector(args):
    """The feature scope the flags name; a flag given empty still names one."""
    if getattr(args, "category", None) is not None:
        return _parse_category(args.category)
    if getattr(args, "features", None) is not None:
        return [f.strip() for f in args.features.split(",") if f.strip()]
    return None


def _source_selector(args):
    """The source scope the flags name; a flag given empty still names one."""
    if getattr(args, "source", None) is not None:
        return args.source
    if getattr(args, "sources", None) is not None:
        return [s.strip() for s in args.sources.split(",") if s.strip()]
    return None


def _seed(args, config: CliConfig) -> int:
    """--seed, else the config file's seed (0 without one)."""
    return config.seed if args.seed is None else args.seed


def _imputer_spec(args, config: CliConfig, method: str) -> ImputerSpec:
    """method with the knobs the imputer flags and the seed give it."""
    return ImputerSpec(method, k=args.k, lam=args.lam, rank_cap=args.rank_cap,
                       seed=_seed(args, config), external_path=args.external_file)


# --- subcommands ---------------------------------------------------------------

def cmd_ingest(args, config: CliConfig) -> int:
    schema = load_ingest_schema(args.schema)
    table_path = args.resolution_table or config.resolution_table
    # without a table, glottocodes pass through and ISO codes cannot resolve
    table = load_resolution_table(table_path) if table_path else IdResolutionTable()
    rules_path = args.rules or config.rules_file
    rules = load_rules(rules_path) if rules_path else []

    namer = CanonicalNamer()
    batches, reports = [], []
    for entry in args.source:
        name, _, path = entry.partition("=")
        if not path:
            raise QueryError(f"--source must look like NAME=PATH, got {entry!r}")
        batch, report = build_batch(read_source_csv(path, name), schema, table, namer=namer)
        batches.append(batch)
        reports.append(report)

    tensor = storage.load_tensor(args.data) if args.data else FeatureTensor()
    merged = merge_batches(batches, tensor)
    if rules:
        merged = apply_inference(rules, merged, tensor if args.data else None)
    merged, conflicts = split_conflicts(merged, tensor)
    tensor.extend_with(merged)
    storage.save_tensor(tensor, args.out)

    payload = {
        "data_dir": str(args.out),
        "languages": len(tensor.languages),
        "features": len(tensor.features),
        "sources": tensor.sources,
        "cells": tensor.cell_count(),
        "conflicts": conflicts,
        "per_source": [r.to_json() for r in reports],
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_aggregate(args, config: CliConfig) -> int:
    tensor = _load_tensor(args, config)
    mode = AggregationMode(args.mode or config.aggregation)
    matrix = aggregate(tensor, mode, _source_selector(args))
    storage.export_matrix_csv(matrix.languages, matrix.features, matrix.values, args.out)
    _emit(
        {
            "out": str(args.out),
            "mode": mode.value,
            "languages": len(matrix.languages),
            "features": len(matrix.features),
            "sources": list(matrix.provenance),
        },
        args.format,
    )
    return EXIT_OK


def cmd_impute(args, config: CliConfig) -> int:
    tensor = _load_tensor(args, config)
    mode = AggregationMode(args.mode or config.aggregation)
    matrix = aggregate(tensor, mode, _source_selector(args))
    spec = _imputer_spec(args, config, args.method or config.imputer)
    result = run_imputer(matrix, spec, registry=tensor, dialect_fill=args.dialect_fill)
    storage.export_matrix_csv(result.languages, result.features, result.values, args.out)
    mask_path = str(args.out) + ".mask.csv"
    mask = result.imputed_mask.astype(float)
    storage.export_matrix_csv(result.languages, result.features, mask, mask_path)
    _emit(
        {
            "out": str(args.out),
            "mask_out": mask_path,
            "mode": mode.value,
            "method": spec.key,
            "imputed_cells": int(result.imputed_mask.sum()),
            "converged": result.converged,
            "all_missing_columns": result.all_missing_columns,
        },
        args.format,
    )
    return EXIT_OK


def cmd_distance(args, config: CliConfig) -> int:
    if args.dialect_fill and not args.impute:  # the fill runs only on an imputed matrix
        raise ValueError("--dialect-fill is set but --impute is not")
    tensor = _load_tensor(args, config)
    mode = AggregationMode(args.aggregation or config.aggregation)
    metric = Metric(args.metric or config.metric)
    imputer = _imputer_spec(args, config, args.impute) if args.impute else None
    template = DistanceRequest(
        lang_a="",
        lang_b="",
        metric=metric,
        aggregation=mode,
        features=_feature_selector(args),
        sources=_source_selector(args),
        use_imputed=imputer is not None,
        imputer=imputer,
    )
    matrix = matrix_for(tensor, template, dialect_fill=args.dialect_fill)

    langs = args.languages
    if len(langs) == 2:
        result = language_distance(replace(template, lang_a=langs[0], lang_b=langs[1]), matrix)
        _emit(result.to_json(), args.format)
    else:
        grid = distance_matrix(langs, template, matrix)
        _emit(
            {
                "languages": langs,
                "metric": metric.value,
                "aggregation": mode.value,
                "results": grid.to_json(),
            },
            args.format,
        )
    return EXIT_OK


def cmd_confidence(args, config: CliConfig) -> int:
    tensor = _load_tensor(args, config)
    mode = AggregationMode(args.aggregation or config.aggregation)
    # a report reads only the method's cache key, so no other imputer flag applies
    method = ImputerSpec(args.method, external_path=args.external_file) if args.method else None
    cache = QualityCache.load(args.quality_cache) if args.quality_cache else None
    report = confidence_report(
        args.lang_a,
        args.lang_b,
        tensor,
        scope=_feature_selector(args),
        method=method,
        mode=mode,
        cache=cache,
    )
    _emit(report.to_json(), args.format)
    return EXIT_OK


def cmd_eval_quality(args, config: CliConfig) -> int:
    tensor = _load_tensor(args, config)
    mode = AggregationMode(args.mode or config.aggregation)
    matrix = aggregate(tensor, mode, _source_selector(args))
    spec = _imputer_spec(args, config, args.imputer)
    report = quality_test(
        matrix,
        spec,
        seed=spec.seed,
        registry=tensor,
        dialect_fill=not args.no_dialect_fill,
    )
    payload = report.to_json()
    if args.select_k:
        payload["selected_k"] = knn_select_k(
            matrix,
            seed=spec.seed,
            registry=tensor,
            dialect_fill=not args.no_dialect_fill,
        )
    if args.out:
        storage.write_json(payload, args.out)
    if args.quality_cache:
        path = Path(args.quality_cache)
        cache = QualityCache.load(path) if path.exists() else QualityCache()
        cache.store(spec.key, mode, report.metrics)
        cache.save(path)
    _emit(payload, args.format)
    return EXIT_OK


def cmd_eval_casestudy(args, config: CliConfig) -> int:
    labels, a, b, ref = load_case_study(args.input)
    result = case_study(
        a, b, ref, iterations=args.iterations, seed=_seed(args, config), pair_labels=labels
    )
    payload = result.to_json()
    if args.out:
        storage.write_json(payload, args.out)
    _emit(payload, args.format)
    return EXIT_OK


def cmd_eval_coverage(args, config: CliConfig) -> int:
    tensor = _load_tensor(args, config)
    tiers = {}
    if args.tiers:
        for row_num, row in storage._read_csv_rows(args.tiers, ("glottocode", "tier")):
            where = f"{args.tiers}: row {row_num}"
            tiers[row[0].strip()] = storage._checked(row[1].strip(), ResourceTier, where, "tier")
    report = coverage_report(tensor, tiers=tiers)
    _emit(report.to_json(), args.format)
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typodist",
        description="Typological knowledge base: ingest, aggregate, impute, "
        "measure language distances, and evaluate.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build or extend a tensor from source CSVs")
    p_ingest.add_argument("--schema", required=True)
    p_ingest.add_argument("--resolution-table")
    p_ingest.add_argument("--rules")
    p_ingest.add_argument(
        "--source", action="append", required=True, metavar="NAME=PATH",
        help="source name and CSV path; repeatable",
    )
    p_ingest.add_argument("--data", help="existing tensor directory to extend")
    p_ingest.add_argument("--out", required=True, help="tensor directory to write")
    p_ingest.set_defaults(func=cmd_ingest)

    p_agg = sub.add_parser("aggregate", help="export an aggregated matrix")
    _add_data_arg(p_agg)
    p_agg.add_argument("--mode", choices=AGGREGATION_MODES)
    _add_source_args(p_agg)
    p_agg.add_argument("--out", required=True)
    p_agg.set_defaults(func=cmd_aggregate)

    p_imp = sub.add_parser("impute", help="impute an aggregated matrix")
    _add_data_arg(p_imp)
    p_imp.add_argument("--mode", choices=AGGREGATION_MODES)
    _add_source_args(p_imp)
    _add_imputer_args(p_imp, with_method=True)
    p_imp.add_argument("--dialect-fill", action="store_true")
    p_imp.add_argument("--seed", type=int)
    p_imp.add_argument("--out", required=True)
    p_imp.set_defaults(func=cmd_impute)

    p_dist = sub.add_parser("distance", help="distance between languages")
    _add_data_arg(p_dist)
    p_dist.add_argument("languages", nargs="+", metavar="GLOTTOCODE")
    p_dist.add_argument("--metric", choices=("angular", "cosine"))
    p_dist.add_argument("--aggregation", choices=AGGREGATION_MODES)
    p_dist.add_argument("--category")
    p_dist.add_argument("--features", help="comma-separated feature names")
    _add_source_args(p_dist)
    p_dist.add_argument("--impute", metavar="METHOD", choices=IMPUTER_METHODS)
    _add_imputer_args(p_dist, with_method=False)
    p_dist.add_argument("--dialect-fill", action="store_true")
    p_dist.add_argument("--seed", type=int)
    p_dist.set_defaults(func=cmd_distance)

    p_conf = sub.add_parser("confidence", help="confidence components for a pair")
    _add_data_arg(p_conf)
    p_conf.add_argument("lang_a")
    p_conf.add_argument("lang_b")
    p_conf.add_argument("--category")
    p_conf.add_argument("--features")
    p_conf.add_argument("--aggregation", choices=AGGREGATION_MODES)
    p_conf.add_argument("--method", choices=IMPUTER_METHODS)
    p_conf.add_argument("--external-file", help="dense matrix CSV for the external imputer")
    p_conf.add_argument("--quality-cache", help="JSON cache from 'eval quality'")
    p_conf.set_defaults(func=cmd_confidence)

    p_eval = sub.add_parser("eval", help="evaluation workflows")
    eval_sub = p_eval.add_subparsers(dest="eval_command", required=True)

    p_q = eval_sub.add_parser("quality", help="held-out imputation quality test")
    _add_data_arg(p_q)
    p_q.add_argument("--imputer", required=True, choices=IMPUTER_METHODS)
    p_q.add_argument("--mode", choices=AGGREGATION_MODES)
    _add_source_args(p_q)
    _add_imputer_args(p_q, with_method=False)
    p_q.add_argument("--seed", type=int)
    p_q.add_argument("--no-dialect-fill", action="store_true")
    p_q.add_argument("--select-k", action="store_true",
                     help="also run the cross-validated k search")
    p_q.add_argument("--out", help="write the report JSON here as well")
    p_q.add_argument("--quality-cache", help="update this cache file with the metrics")
    p_q.set_defaults(func=cmd_eval_quality)

    p_cs = eval_sub.add_parser("casestudy", help="rank correlations plus Perm-Both test")
    p_cs.add_argument("--input", required=True, help="CSV: pair,dist_a,dist_b,g_d")
    p_cs.add_argument("--iterations", type=int, default=10000)
    p_cs.add_argument("--seed", type=int)
    p_cs.add_argument("--out")
    p_cs.set_defaults(func=cmd_eval_casestudy)

    p_cov = eval_sub.add_parser("coverage", help="per-category / per-tier coverage")
    _add_data_arg(p_cov)
    p_cov.add_argument("--tiers", help="CSV: glottocode,tier")
    p_cov.set_defaults(func=cmd_eval_coverage)

    return parser


def _add_data_arg(p):
    p.add_argument("--data", help=f"tensor directory (default: ${DATA_DIR_ENV} or config)")


def _add_source_args(p):
    p.add_argument("--source", help="restrict to one source")
    p.add_argument("--sources", help="restrict to a comma-separated source subset")


def _add_imputer_args(p, with_method: bool):
    if with_method:
        p.add_argument("--method", default=None, choices=IMPUTER_METHODS)
    p.add_argument("--k", type=int, default=9)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--rank-cap", type=int, default=None, dest="rank_cap")
    p.add_argument("--external-file", default=None,
                   help="dense matrix CSV for the external imputer")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else CliConfig()
        return args.func(args, config)
    except (FormatError, OSError) as exc:  # an OSError is a write that failed part-way
        _print_error(exc)
        return EXIT_FORMAT
    except (TypodistError, ValueError) as exc:
        _print_error(exc)
        return EXIT_QUERY


def _print_error(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
