"""Confidence components for a language pair.

Three separately reported scores: completeness (how much of the scope is
observed at all), consistency (how much the sources agree with the
per-cell mode), and imputation quality (a constant taken from a cached
held-out quality run for the imputer in use). No combined scalar is
produced; the components stand on their own.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .aggregate import AggregationMode
from .errors import EmptyScope, MissingQualityRun, NoSourcedFeatures
from .impute import ImputerSpec
from .kb import Category, FeatureTensor
from .storage import _read_json


def _resolve_scope(tensor: FeatureTensor, scope) -> list[str]:
    if scope is None:
        names = [f.name for f in tensor.features]
    elif isinstance(scope, Category):
        names = [f.name for f in tensor.features_in_category(scope)]
    else:
        names = list(dict.fromkeys(scope))
        for name in names:
            tensor.feature_index(name)  # raises UnknownFeature
    if not names:
        raise EmptyScope("feature scope is empty")
    return names


def completeness(lang_a: str, lang_b: str, tensor: FeatureTensor, scope=None) -> float:
    """1 minus the mean fraction of scope features missing for the pair.

    A feature counts as missing for a language only when no source at all
    provides a value.
    """
    names = _resolve_scope(tensor, scope)

    def missing_fraction(lang: str) -> float:
        missing = sum(1 for name in names if tensor.source_stats(lang, name)[0] == 0)
        return missing / len(names)

    return 1.0 - (missing_fraction(lang_a) + missing_fraction(lang_b)) / 2.0


def _mode_agreement(values: Sequence[float]) -> float:
    """Fraction of sources agreeing with the mode; ties break to the lowest value."""
    counts = Counter(values)
    top = max(counts.values())
    mode = min(v for v, c in counts.items() if c == top)
    return counts[mode] / len(values)


def consistency(lang_a: str, lang_b: str, tensor: FeatureTensor, scope=None) -> float:
    """Mean cross-source mode agreement, averaged over the two languages.

    Per language, only features with at least one sourced value enter the
    average; a language with none in scope has no defined consistency.
    """
    names = _resolve_scope(tensor, scope)

    def agreement(lang: str) -> float:
        ratios = []
        for name in names:
            n, values = tensor.source_stats(lang, name)
            if n >= 1:
                ratios.append(_mode_agreement(values))
        if not ratios:
            raise NoSourcedFeatures(
                f"language {lang!r} has no sourced value for any scope feature"
            )
        return sum(ratios) / len(ratios)

    return (agreement(lang_a) + agreement(lang_b)) / 2.0


class QualityCache:
    """Cached quality-test metrics keyed by (imputer key, aggregation mode)."""

    def __init__(self):
        self._metrics: dict[tuple[str, str], Mapping] = {}

    def store(self, method_key: str, mode: AggregationMode, metrics: Mapping) -> None:
        self._metrics[(method_key, mode.value)] = dict(metrics)

    def get(self, method_key: str, mode: AggregationMode) -> Mapping:
        try:
            return self._metrics[(method_key, mode.value)]
        except KeyError:
            raise MissingQualityRun(
                f"no cached quality run for method {method_key!r} in {mode.value} mode"
            ) from None

    def to_json(self) -> dict:
        return {f"{k[0]}|{k[1]}": dict(v) for k, v in self._metrics.items()}

    @classmethod
    def from_json(cls, data: Mapping) -> "QualityCache":
        cache = cls()
        for key, metrics in data.items():
            method_key, _, mode = key.rpartition("|")
            cache._metrics[(method_key, mode)] = dict(metrics)
        return cache

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "QualityCache":
        return cls.from_json(_read_json(path))


def imputation_quality(
    method: Optional[ImputerSpec],
    mode: AggregationMode,
    cache: Optional[QualityCache] = None,
) -> float:
    """Quality constant for the imputer in use: F1 (union) or 1 - RMSE (average).

    No imputation at all scores a full 1.0, since every value is observed.
    """
    if method is None:
        return 1.0
    if cache is None:
        raise MissingQualityRun("no quality cache supplied")
    metrics = cache.get(method.key, mode)
    if mode is AggregationMode.UNION:
        return float(metrics["f1"])
    return 1.0 - float(metrics["rmse"])


@dataclass(frozen=True)
class ConfidenceReport:
    pair: tuple[str, str]
    completeness: float
    consistency: float
    imputation_quality: float
    feature_count_k: int

    def to_json(self) -> dict:
        return {
            "pair": list(self.pair),
            "completeness": self.completeness,
            "consistency": self.consistency,
            "imputation_quality": self.imputation_quality,
            "feature_count_k": self.feature_count_k,
        }


def confidence_report(
    lang_a: str,
    lang_b: str,
    tensor: FeatureTensor,
    scope=None,
    method: Optional[ImputerSpec] = None,
    mode: AggregationMode = AggregationMode.UNION,
    cache: Optional[QualityCache] = None,
) -> ConfidenceReport:
    """Bundle the three components for a pair; nothing is averaged together."""
    names = _resolve_scope(tensor, scope)
    return ConfidenceReport(
        pair=(lang_a, lang_b),
        completeness=completeness(lang_a, lang_b, tensor, names),
        consistency=consistency(lang_a, lang_b, tensor, names),
        imputation_quality=imputation_quality(method, mode, cache),
        feature_count_k=len(names),
    )
