"""Confidence components for a language pair.

Three separately reported scores: completeness (how much of the scope is
observed at all), consistency (how much the sources agree with the
per-cell mode), and imputation quality (a constant taken from a cached
held-out quality run for the imputer in use). No combined scalar is
produced; the components stand on their own.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Optional

import numpy as np

from .aggregate import AggregationMode, _get_or_build
from .errors import EmptyScope, FormatError, MissingQualityRun, NoSourcedFeatures
from .impute import ImputerSpec
from .kb import _NO_CELLS, Category, FeatureSelector, FeatureTensor, TensorSnapshot, feature_columns
from .storage import _checked, _json_field, _read_json, write_json

#: The metric each aggregation mode's imputation quality is read from.
_QUALITY_METRIC = {AggregationMode.UNION: "f1", AggregationMode.AVERAGE: "rmse"}


def _source_agreement(snap: TensorSnapshot) -> tuple[np.ndarray, np.ndarray]:
    """Per (language, feature): how many sources know the cell, and their
    mode agreement, the largest number of equal values over that count or 0.

    Built once per tensor state by one merge of the S stored columns, in
    O(S * cells): sorted by cell, a cell's values (at most one per source)
    sit side by side, each counts the equal ones up to S - 1 places before
    it, and the last of the mode's values counts them all. Arrays are
    dropped once spent, so at most three with an entry per stored cell are
    held at once.
    """
    columns, n = snap.columns + (_NO_CELLS,), len(snap.features)  # so no sources concatenates
    value = np.concatenate([col.value for col in columns])[
        np.argsort(np.concatenate([col.key for col in columns]), kind="stable")]
    cell = np.concatenate([col.language * n + col.feature for col in columns])
    cell.sort(kind="stable")  # argsort's order, in place; stable merges the sorted runs
    count = np.ones(len(cell), np.min_scalar_type(len(snap.layers)))  # at most S
    for d in range(1, len(snap.layers)):
        count[d:] += (cell[d:] == cell[:-d]) & (value[d:] == value[:-d])
    del value
    start = np.flatnonzero(np.diff(cell, prepend=-1))  # where each cell's values begin
    top = np.zeros(len(snap.languages) * n, count.dtype)
    top[cell[start]] = np.maximum.reduceat(count, start)
    sourced = np.bincount(cell, minlength=len(top)).reshape(len(snap.languages), n)
    del cell, count, start
    return sourced, top.reshape(sourced.shape) / np.maximum(sourced, 1)


def _scope_vectors(sourced: np.ndarray, agreement: np.ndarray, cols: np.ndarray):
    """Per row: m, the fraction of scope features no source knows, and g, the mean
    mode agreement over the sourced ones (NaN for none), summed left to right; and k."""
    sums, n = np.zeros(len(agreement)), np.zeros(len(sourced), np.intp)
    for c in cols.tolist():  # an unsourced feature adds 0.0
        sums += agreement[:, c]
        n += sourced[:, c] != 0
    return (len(cols) - n) / len(cols), np.where(n > 0, sums, np.nan) / np.maximum(n, 1), len(cols)


def _pair_stats(lang_a: str, lang_b: str, tensor: FeatureTensor, scope: FeatureSelector):
    """The pair's completeness, its two g values and the scope size k.

    A kept scope's vectors are looked up before its columns are built; an
    empty scope is never kept, so it raises on every call."""
    snap = tensor.snapshot()
    kept = scope is None or isinstance(scope, Category)
    vectors = snap.derived.get(("confidence vectors", scope)) if kept else None
    if vectors is None:
        cols = feature_columns(snap.features, scope)
        if not len(cols):
            raise EmptyScope("feature scope is empty")
    rows = [snap.language_index(lang_a), snap.language_index(lang_b)]
    if vectors is None:
        sourced, agreement = _get_or_build(snap.derived, "source agreement",
                                           lambda: _source_agreement(snap))
        if kept:
            vectors = _get_or_build(snap.derived, ("confidence vectors", scope),
                                    lambda: _scope_vectors(sourced, agreement, cols))
        else:  # a listed scope reads the pair's two rows only
            vectors, rows = _scope_vectors(sourced[rows], agreement[rows], cols), [0, 1]
    m, g, k = vectors
    m, g = m[rows].tolist(), g[rows].tolist()
    return 1.0 - (m[0] + m[1]) / 2.0, g, k


def completeness(lang_a: str, lang_b: str, tensor: FeatureTensor, scope=None) -> float:
    """1 minus the mean fraction of scope features missing for the pair.

    A feature counts as missing for a language only when no source at all
    provides a value.
    """
    return _pair_stats(lang_a, lang_b, tensor, scope)[0]


def consistency(lang_a: str, lang_b: str, tensor: FeatureTensor, scope=None) -> float:
    """Mean cross-source mode agreement, averaged over the two languages.

    A feature's mode agreement is the fraction of its sources that agree
    with the most common value. Per language, only features with at least
    one sourced value enter the average; a language with none in scope has
    no defined consistency.
    """
    return confidence_report(lang_a, lang_b, tensor, scope).consistency


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
            if not method_key:  # no "|", or nothing before it
                raise FormatError(f"{where} is not a 'method|mode' key")
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
        return {**asdict(self), "pair": list(self.pair)}


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
    complete, g, k = _pair_stats(lang_a, lang_b, tensor, scope)
    for lang, value in zip((lang_a, lang_b), g):
        if value != value:  # NaN: no sourced feature in scope
            raise NoSourcedFeatures(
                f"language {lang!r} has no sourced value for any scope feature"
            )
    return ConfidenceReport(
        pair=(lang_a, lang_b),
        completeness=complete,
        consistency=(g[0] + g[1]) / 2.0,
        imputation_quality=imputation_quality(method, mode, cache),
        feature_count_k=k,
    )
