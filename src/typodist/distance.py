"""Language-pair distances with per-query metric, features, and sources.

Distances are only defined over shared data: the features known for both
languages under the requested aggregation. An empty shared set or a
zero-norm masked vector yields an explicit not-computable result rather
than a fabricated value.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .aggregate import (
    AggregatedMatrix,
    AggregationMode,
    SourceSelector,
    _get_or_build,
    _masked_gram,
    _provenance,
    aggregate,
)
from .impute import ImputedMatrix, ImputerSpec, run_imputer
from .kb import Category, FeatureSelector, FeatureTensor, feature_columns

NO_SHARED_DATA = "no shared data"
ZERO_VECTOR = "zero vector"

# distance_matrix cell verdicts; _REASONS maps the not-computable ones
_COMPUTED, _NO_SHARED, _ZERO, _REMEASURE = range(4)
_REASONS = (None, NO_SHARED_DATA, ZERO_VECTOR)
#: distance_matrix measures angular cells with 1 - cos below this per pair
_ILL_CONDITIONED_ACOS = 1e-5


class Metric(Enum):
    ANGULAR = "angular"
    COSINE = "cosine"


@dataclass(frozen=True)
class DistanceRequest:
    lang_a: str
    lang_b: str
    metric: Metric = Metric.ANGULAR
    aggregation: AggregationMode = AggregationMode.UNION
    features: FeatureSelector = None
    sources: SourceSelector = None
    use_imputed: bool = False
    imputer: Optional[ImputerSpec] = None

    def __post_init__(self):
        if self.imputer is not None and not self.use_imputed:
            raise ValueError("an imputer is named but use_imputed is not set")


@dataclass(frozen=True, slots=True)
class DistanceResult:
    """One pair's distance, or why it is not computable. Slotted: no
    ``__dict__`` and no ``__weakref__``, so a held result stays small."""

    pair: tuple[str, str]
    metric: Metric
    aggregation: AggregationMode
    distance: Optional[float] = None
    shared_features: int = 0
    reason: Optional[str] = None

    @property
    def computable(self) -> bool:
        return self.distance is not None

    @classmethod
    def of(cls, pair, metric, aggregation, distance, shared_features) -> "DistanceResult":
        return cls(tuple(pair), metric, aggregation, distance, shared_features)

    @classmethod
    def not_computable(cls, pair, metric, aggregation, reason) -> "DistanceResult":
        return cls(tuple(pair), metric, aggregation, None, 0, reason)

    def to_json(self) -> dict:
        return _cell_json(self.pair, self.metric.value, self.aggregation.value,
                          self.distance, self.shared_features, self.reason)


# each slot's own setter, in field order: the frozen __init__ sets each field
# through object.__setattr__, and those six calls cost more than a cached
# query's dot product
_SETTERS = tuple(DistanceResult.__dict__[f.name].__set__ for f in fields(DistanceResult))


def _result(pair, metric, aggregation, distance, shared_features, reason) -> DistanceResult:
    """DistanceResult(pair, ...), built through the slots' setters."""
    result = object.__new__(DistanceResult)
    set_pair, set_metric, set_aggregation, set_distance, set_shared, set_reason = _SETTERS
    set_pair(result, pair)
    set_metric(result, metric)
    set_aggregation(result, aggregation)
    set_distance(result, distance)
    set_shared(result, shared_features)
    set_reason(result, reason)
    return result


def _cell_json(pair, metric: str, aggregation: str, distance, shared_features, reason) -> dict:
    """A DistanceResult's JSON from its fields; None distance is not computable."""
    if distance is None:
        return {
            "pair": list(pair),
            "status": "not_computable",
            "reason": reason,
        }
    return {
        "pair": list(pair),
        "metric": metric,
        "aggregation": aggregation,
        "distance": distance,
        "shared_features": shared_features,
    }


def select_feature_indices(features, selector: FeatureSelector) -> np.ndarray:
    """Column indices for a selector, in matrix order regardless of list order.

    The scope rules are kb.feature_columns'; an empty explicit list raises.
    """
    cols = feature_columns(features, selector)
    if not len(cols) and not (selector is None or isinstance(selector, Category)):
        raise ValueError("explicit feature list must be non-empty")
    return np.sort(cols)


# _RowView row states
_UNREAD, _FULL, _GAPS = range(3)


class _RowView:
    """The columns a feature selector picks from a matrix and, per row,
    whether the row has a selected cell and all of them are known, with
    the norm of those cells; a row's state and norm are filled on its
    first read.

    ``cols`` is a slice when the columns form one run and each row is
    contiguous, so a row is read without a copy and with the same strides
    as a compacted copy, which keeps its dot products bit-identical.
    """

    def __init__(self, matrix: AggregatedMatrix, selector: FeatureSelector):
        self.values = np.asarray(matrix.values, dtype=float)
        cols = select_feature_indices(matrix.features, selector)
        self.width = len(cols)
        if (self.width and self.values.strides[1] == self.values.itemsize
                and cols[-1] - cols[0] + 1 == self.width):
            cols = slice(int(cols[0]), int(cols[-1]) + 1)
        self.cols = cols
        n = len(matrix.languages)
        self.state = array("b", bytes(n))  # all _UNREAD
        self.norm = array("d", bytes(8 * n))

    def row(self, i: int) -> tuple[np.ndarray, bool]:
        """Row i's selected cells, and whether the row is _FULL."""
        row = self.values[i, self.cols]
        state = self.state[i]
        if state == _UNREAD:
            if self.width and not np.isnan(row).any():
                # norm before state: a concurrent reader that sees _FULL
                # also sees the norm
                self.norm[i] = math.sqrt(row.dot(row))  # np.linalg.norm's sum
                state = _FULL
            else:
                state = _GAPS
            self.state[i] = state
        return row, state == _FULL


def _view(matrix: AggregatedMatrix, selector: FeatureSelector) -> _RowView:
    """The matrix's view for selector. It is kept on the matrix when the
    values are read-only and the selector is None or a Category; otherwise
    it is built for this call, so a mutated matrix is never read through a
    stale view and explicit lists do not accumulate."""
    if matrix.values.flags.writeable or not (selector is None or isinstance(selector, Category)):
        return _RowView(matrix, selector)
    view = matrix._views.get(selector)
    if view is None or view.values is not matrix.values:
        view = matrix._views[selector] = _RowView(matrix, selector)
    return view


def _check_mode(req: DistanceRequest, matrix: AggregatedMatrix) -> None:
    if matrix.mode is not req.aggregation:
        raise ValueError(
            f"matrix aggregation {matrix.mode.value} does not match "
            f"request {req.aggregation.value}"
        )


def language_distance(req: DistanceRequest, matrix: AggregatedMatrix) -> DistanceResult:
    """Distance between req's pair over the matrix, or why it is undefined.

    Two fully known rows (every row of an ImputedMatrix) cost one dot
    product with their norms kept from earlier queries; other pairs are
    measured over the cells both rows know.
    """
    metric, mode = req.metric, req.aggregation
    if matrix.mode is not mode:  # identity first: the call is made only to raise
        _check_mode(req, matrix)
    pair = (req.lang_a, req.lang_b)
    view = _view(matrix, req.features)
    ia = matrix.language_index(req.lang_a)
    ib = matrix.language_index(req.lang_b)

    u, full_a = view.row(ia)
    v, full_b = view.row(ib)
    if full_a and full_b:
        n_shared = view.width
        nu, nv = view.norm[ia], view.norm[ib]
    else:
        shared = (u == u) & (v == v)  # known in both
        n_shared = int(np.count_nonzero(shared))  # an np.int64 would not go to JSON
        if n_shared == 0:
            return _result(pair, metric, mode, None, 0, NO_SHARED_DATA)
        u = u[shared]
        v = v[shared]
        nu, nv = math.sqrt(u.dot(u)), math.sqrt(v.dot(v))
    if nu == 0.0 or nv == 0.0:
        return _result(pair, metric, mode, None, 0, ZERO_VECTOR)
    if ia == ib:
        # same row: zero distance by identity
        return _result(pair, metric, mode, 0.0, n_shared, None)
    sim = min(1.0, max(-1.0, float(u.dot(v)) / (nu * nv)))
    if metric is Metric.COSINE:
        d = 1.0 - sim
    else:
        d = (2.0 / math.pi) * math.acos(sim)
    return _result(pair, metric, mode, min(1.0, max(0.0, d)), n_shared, None)


def _gram_cells(
    x: np.ndarray, rows: np.ndarray, metric: Metric
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(verdict, shared count, distance) of every pair of rows of x, as
    symmetric n x n arrays: the verdict int8, the others float64.

    x holds NaN for missing values; rows[i] is the matrix row of x[i].
    Each step writes into an array an earlier step is done with, as a
    further n x n array costs page faults on every call. The Gram products
    of x with itself, and a matrix times its transpose cell by cell, are
    exactly symmetric, so only the angular distances, taken for i <= j,
    are mirrored.
    """
    shared, squares, dots = _masked_gram(x)
    # nu[i, j] is the norm of x[i] over the features it shares with x[j]
    nu = np.sqrt(squares, out=squares)
    zero = nu == 0.0
    zero |= zero.T
    d = nu * nu.T  # the norm products, then the distances over them
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = np.divide(dots, d, out=dots)
    np.clip(sim, -1.0, 1.0, out=sim)
    same = rows[:, None] == rows[None, :]
    verdict = np.zeros(sim.shape, np.int8)  # _COMPUTED; each later verdict outranks the ones before
    if metric is Metric.COSINE:
        np.subtract(1.0, sim, out=d)
    else:
        # math.acos per cell, as in language_distance: numpy's arccos may
        # differ from it in the last ulp
        for i, row in enumerate(sim):
            d[i, i:] = np.fromiter(map(math.acos, row[i:].tolist()), float, len(row) - i)
            d[i:, i] = d[i, i:]
        d *= 2.0 / math.pi
        # arccos near 1 turns last-ulp differences of the Gram sums into ~1e-8
        ill = np.subtract(1.0, sim, out=sim) < _ILL_CONDITIONED_ACOS
        ill[same] = False
        verdict[ill] = _REMEASURE
    np.clip(d, 0.0, 1.0, out=d)
    d[same] = 0.0
    verdict[zero] = _ZERO
    verdict[shared == 0] = _NO_SHARED
    return verdict, shared, d


@dataclass(frozen=True, eq=False)
class DistanceGrid:
    """All-pairs distances as symmetric n x n arrays over a language list.

    ``distances`` is float64, NaN where not computable; ``reasons`` is
    int8: 0 computed, 1 no shared data, 2 zero vector; ``shared`` is the
    int32 shared-feature count, 0 where not computable. distance_matrix
    makes the arrays read-only. ``grid[i][j]`` is the DistanceResult of
    the pair (languages[i], languages[j]); row i is built as a list on
    first access and kept, so assigning into it sticks. ``to_json()``
    reads the arrays and builds no cell objects.
    """

    languages: tuple[str, ...]
    metric: Metric
    aggregation: AggregationMode
    distances: np.ndarray
    reasons: np.ndarray
    shared: np.ndarray
    _rows: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.languages)

    def __iter__(self) -> Iterator[list[DistanceResult]]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> list[DistanceResult]:
        i = range(len(self))[operator.index(i)]
        return _get_or_build(self._rows, i, lambda: self._build_row(i))

    def _cells(self, i: int):
        """(b, reason code, distance, shared count) of row i, as Python scalars."""
        return zip(self.languages, self.reasons[i].tolist(),
                   self.distances[i].tolist(), self.shared[i].tolist())

    def _build_row(self, i: int) -> list[DistanceResult]:
        a, metric, mode = self.languages[i], self.metric, self.aggregation
        return [
            _result((a, b), metric, mode, None, 0, _REASONS[r]) if r
            else _result((a, b), metric, mode, d, count, None)
            for b, r, d, count in self._cells(i)
        ]

    def to_json(self) -> list[list[dict]]:
        """Each cell's DistanceResult.to_json(), row by row, from the arrays."""
        metric, mode = self.metric.value, self.aggregation.value
        return [
            [_cell_json((a, b), metric, mode, None if r else d, count, _REASONS[r])
             for b, r, d, count in self._cells(i)]
            for i, a in enumerate(self.languages)
        ]


def distance_matrix(
    languages: Sequence[str],
    template: DistanceRequest,
    matrix: AggregatedMatrix,
) -> DistanceGrid:
    """Symmetric all-pairs distances; per-pair failures land in cells.

    Shared counts, norms and dot products of all pairs come from masked
    Gram products over the selected columns, and each cell (i, j) with
    i > j mirrors (j, i). Each cell equals language_distance for its
    pair: reasons and shared counts exactly, distances within 1e-12, and
    bit for bit where every sum is an exact integer (binary data).
    """
    langs = list(languages)
    if len(langs) < 2:
        raise ValueError("distance matrix needs at least 2 languages")
    _check_mode(template, matrix)
    view = _view(matrix, template.features)
    rows = np.array([matrix.language_index(lang) for lang in langs])
    x = view.values[rows][:, view.cols]
    # the three arrays are built in place; the loop below rewrites every _REMEASURE
    reasons, shared, distances = _gram_cells(x, rows, template.metric)
    failed = reasons != _COMPUTED
    distances[failed] = np.nan
    shared[failed] = 0
    counts = shared.astype(np.int32)
    for i, j in zip(*np.nonzero(np.triu(reasons == _REMEASURE))):
        res = language_distance(replace(template, lang_a=langs[i], lang_b=langs[j]), matrix)
        cell = (np.nan if res.distance is None else res.distance,
                _REASONS.index(res.reason), res.shared_features)
        distances[i, j], reasons[i, j], counts[i, j] = cell
        distances[j, i], reasons[j, i], counts[j, i] = cell
    for values in (distances, reasons, counts):
        values.flags.writeable = False
    return DistanceGrid(tuple(langs), template.metric, template.aggregation,
                        distances, reasons, counts)


def genetic_distance(
    lang_a: str,
    lang_b: str,
    matrix: AggregatedMatrix,
    metric: Metric = Metric.ANGULAR,
) -> DistanceResult:
    """Distance over family-membership (genetic) features only."""
    req = DistanceRequest(
        lang_a=lang_a,
        lang_b=lang_b,
        metric=metric,
        aggregation=matrix.mode,
        features=Category.GENETIC,
    )
    return language_distance(req, matrix)


#: the imputer of a request that asks for imputation and names none
_DEFAULT_IMPUTER = ImputerSpec("softimpute")


def matrix_for(
    tensor: FeatureTensor,
    req: DistanceRequest,
    dialect_fill: bool = False,
) -> AggregatedMatrix:
    """The matrix req is measured on: aggregated over req's sources, then
    imputed (SoftImpute unless req names an imputer) if req asks for it.

    Aggregated and imputed matrices are built once per tensor state and
    request (mode, sources, imputer spec, dialect_fill), then shared
    read-only; copy before mutating. A request reads the published state
    once, and an imputed one that is cached costs one dict lookup. An
    external imputation is read from its file on every call, since the
    file can change while the tensor does not. The pair and features of
    req are not used.
    """
    if not req.use_imputed:
        return aggregate(tensor, req.aggregation, req.sources)
    spec = req.imputer or _DEFAULT_IMPUTER
    if spec.method == "external":
        return _impute(tensor, req, spec, dialect_fill)
    snap = tensor.snapshot()  # read first, so the matrix is from its state or a newer one
    # never equal to aggregate's (mode, sources) key for the same scope
    key = (req.aggregation, _provenance(snap, req.sources), spec, dialect_fill)
    hit = snap.derived.get(key)
    if hit is not None:
        return hit

    def impute() -> ImputedMatrix:
        result = _impute(tensor, req, spec, dialect_fill)
        result.values.flags.writeable = False
        result.imputed_mask.flags.writeable = False
        return result

    return _get_or_build(snap.derived, key, impute)


def _impute(tensor: FeatureTensor, req: DistanceRequest, spec: ImputerSpec,
            dialect_fill: bool) -> ImputedMatrix:
    """req's aggregate of the tensor, imputed by spec."""
    matrix = aggregate(tensor, req.aggregation, req.sources)
    return run_imputer(matrix, spec, registry=tensor, dialect_fill=dialect_fill)


def distance_from_tensor(
    tensor: FeatureTensor,
    req: DistanceRequest,
    dialect_fill: bool = False,
) -> DistanceResult:
    """Measure req on matrix_for's matrix, which reflects the current tensor state."""
    return language_distance(req, matrix_for(tensor, req, dialect_fill))
