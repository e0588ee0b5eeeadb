"""Confidence components for a language pair.

Three separately reported scores: completeness (how much of the scope is
observed at all), consistency (how much the sources agree with the
per-cell mode), and imputation quality (a constant taken from a cached
held-out quality run for the imputer in use). No combined scalar is
produced; the components stand on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .aggregate import AggregationMode, _get_or_build
from .errors import EmptyScope, MissingQualityRun, NoSourcedFeatures
from .impute import ImputerSpec
from .kb import FeatureSelector, FeatureTensor, feature_columns
from .storage import _checked, _json_field, _read_json, write_json

#: The metric each aggregation mode's imputation quality is read from.
_QUALITY_METRIC = {AggregationMode.UNION: "f1", AggregationMode.AVERAGE: "rmse"}


def _source_agreement(tensor: FeatureTensor) -> tuple[np.ndarray, np.ndarray]:
    """Per (language, feature): how many sources know the cell, and their
    mode agreement, the largest number of equal values over that count.

    Built from language x feature arrays one source at a time.
    """
    snap = tensor.snapshot()
    shape = (len(snap.languages), len(snap.features))
    sourced = np.zeros(shape, dtype=np.int64)
    top = np.zeros(shape, dtype=np.int64)
    value_of = np.empty(shape)
    for col in snap.columns:
        # how many sources hold col's value at each of col's cells
        value_of.fill(np.nan)
        value_of[col.language, col.feature] = col.value
        sourced[col.language, col.feature] += 1
        agreeing = np.zeros(shape, dtype=np.int64)
        for other in snap.columns:
            at = (other.language, other.feature)
            agreeing[at] += value_of[at] == other.value
        np.maximum(top, agreeing, out=top)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sourced, top / sourced


def _scope_stats(tensor: FeatureTensor, scope: FeatureSelector):
    """The tensor state's source statistics, and the scope's feature
    indices in scope order; an empty scope raises EmptyScope."""
    cols = feature_columns(tensor.features, scope)
    if not len(cols):
        raise EmptyScope("feature scope is empty")
    sourced, agreement = _get_or_build(tensor.derived, "source agreement",
                                       lambda: _source_agreement(tensor))
    return sourced, agreement, cols


def completeness(lang_a: str, lang_b: str, tensor: FeatureTensor, scope=None) -> float:
    """1 minus the mean fraction of scope features missing for the pair.

    A feature counts as missing for a language only when no source at all
    provides a value.
    """
    return _completeness(lang_a, lang_b, tensor, *_scope_stats(tensor, scope))


def _completeness(lang_a, lang_b, tensor, sourced, _agreement, cols) -> float:
    def missing_fraction(lang: str) -> float:
        missing = int(np.count_nonzero(sourced[tensor.language_index(lang), cols] == 0))
        return missing / len(cols)

    return 1.0 - (missing_fraction(lang_a) + missing_fraction(lang_b)) / 2.0


def consistency(lang_a: str, lang_b: str, tensor: FeatureTensor, scope=None) -> float:
    """Mean cross-source mode agreement, averaged over the two languages.

    A feature's mode agreement is the fraction of its sources that agree
    with the most common value. Per language, only features with at least
    one sourced value enter the average; a language with none in scope has
    no defined consistency.
    """
    return _consistency(lang_a, lang_b, tensor, *_scope_stats(tensor, scope))


def _consistency(lang_a, lang_b, tensor, sourced, agreement, cols) -> float:
    def agreement_of(lang: str) -> float:
        li = tensor.language_index(lang)
        # summed in scope order, as a per-feature loop would
        ratios = agreement[li, cols][sourced[li, cols] > 0].tolist()
        if not ratios:
            raise NoSourcedFeatures(
                f"language {lang!r} has no sourced value for any scope feature"
            )
        return sum(ratios) / len(ratios)

    return (agreement_of(lang_a) + agreement_of(lang_b)) / 2.0


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

    def save(self, path) -> None:
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path) -> "QualityCache":
        """Read a saved cache; each key names a method and a mode, and each
        entry holds that mode's quality metric as a finite number."""
        data = _read_json(path)
        cache = cls()
        for key in data:
            where = f"{path}: {key!r}"
            method_key, _, mode = key.rpartition("|")
            mode = _checked(mode, AggregationMode, where, "mode")
            metrics = _json_field(data, key, dict, str(path))
            _json_field(metrics, _QUALITY_METRIC[mode], float, where)
            cache.store(method_key, mode, metrics)
        return cache


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
    value = float(cache.get(method.key, mode)[_QUALITY_METRIC[mode]])
    return value if mode is AggregationMode.UNION else 1.0 - value


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
    """Bundle the three components for a pair; nothing is averaged together.

    The scope is resolved once, for both components."""
    stats = _scope_stats(tensor, scope)
    return ConfidenceReport(
        pair=(lang_a, lang_b),
        completeness=_completeness(lang_a, lang_b, tensor, *stats),
        consistency=_consistency(lang_a, lang_b, tensor, *stats),
        imputation_quality=imputation_quality(method, mode, cache),
        feature_count_k=len(stats[2]),
    )
