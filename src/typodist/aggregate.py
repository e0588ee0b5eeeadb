"""Collapse the source dimension into a 2-D language x feature matrix.

Union aggregation takes the max over known source values, average
aggregation the unweighted mean; a cell is missing only when every
contributing source is missing.

Derived matrices live in the `derived` dict of the tensor state they were
built from, one per key; a write that changes the tensor publishes a new,
empty dict, which frees the stale ones. `aggregate` keys on (mode, source
subset), and a one-source average wraps the values of that source's union
entry; `distance.matrix_for` and `confidence` use the same dict.
`aggregate` reads the published state once and keys, builds and caches
from that one snapshot, so a concurrent write is seen whole or not at all.

A cold union of a state updates the last union built from the same or an
earlier state on its `kb.WriteLog`, if that one is over the same sources:
it is that union copied, with the cells written since folded in by fmax
(incremental view maintenance). This is exact because a log spans no
registry growth and no write that changed a stored cell, so a union cell
can only rise, and the max of a set of floats (none NaN or -0.0) does not
depend on the order it is taken in. Average mode, and a union with no
such earlier union, build cold: recomputing each touched cell over every
source measured no cheaper than a cold build. The log holds the last
union matrix built (one matrix, 3.8 MB at 2000 x 240) until the next
union replaces it or a write starts a new log.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Hashable, Sequence, TypeVar, Union

import numpy as np

from .errors import EmptySourceSubset, UnknownFeature, UnknownLanguage
from .kb import FeatureDescriptor, FeatureTensor, TensorSnapshot


class AggregationMode(Enum):
    UNION = "union"
    AVERAGE = "average"
    __hash__ = object.__hash__  # as kb.Category's: dict lookups run no Python code


#: A source scope: one name, a subset of names, or None for all sources.
SourceSelector = Union[str, Sequence[str], None]


@dataclass
class AggregatedMatrix:
    """Dense language x feature matrix; NaN marks missing cells."""

    mode: AggregationMode
    languages: list[str]
    features: list[FeatureDescriptor]
    values: np.ndarray
    provenance: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.languages), len(self.features)):
            raise ValueError(
                f"value shape {self.values.shape} does not match "
                f"{len(self.languages)} languages x {len(self.features)} features"
            )
        self._lang_index = {g: i for i, g in enumerate(self.languages)}
        self._feat_index = {f.name: i for i, f in enumerate(self.features)}
        # distance._RowView per feature selector, kept while values are read-only
        self._views = {}

    def language_index(self, glottocode: str) -> int:
        try:
            return self._lang_index[glottocode]
        except KeyError:
            raise UnknownLanguage(glottocode) from None

    def feature_index(self, name: str) -> int:
        try:
            return self._feat_index[name]
        except KeyError:
            raise UnknownFeature(name) from None

    @property
    def known_mask(self) -> np.ndarray:
        return ~np.isnan(self.values)

    def copy(self) -> "AggregatedMatrix":
        return replace(
            self,
            languages=list(self.languages),
            features=list(self.features),
            values=self.values.copy(),
        )


def _masked_gram(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K Kᵀ, (X0²) Kᵀ, X0 X0ᵀ) of rows x with NaN for missing, with K the
    known mask and X0 the values with missing set to 0: each pair's
    shared-feature count, each row's squared norm over the features it
    shares with each other row, and the dot products."""
    known = ~np.isnan(x)
    k = known.astype(float)
    x0 = np.where(known, x, 0.0)
    return k @ k.T, (x0 * x0) @ k.T, x0 @ x0.T


def _binary(x: np.ndarray, axis=None):
    """Whether every known value of x (NaN is missing) is 0 or 1, over axis:
    the one rule by which kNN and distance grids take _masked_gram's sums as exact."""
    return ((x == 0.0) | (x == 1.0) | np.isnan(x)).all(axis=axis)


T = TypeVar("T")


def _get_or_build(cache: dict, key: Hashable, build: Callable[[], T]) -> T:
    """cache[key], set to build()'s result on the first request; concurrent
    first builders all get the one result setdefault keeps. Callers read a
    tensor's `derived` before build reads the tensor, so a result from a
    newer state can only land in a dict the tensor no longer publishes."""
    hit = cache.get(key)
    return hit if hit is not None else cache.setdefault(key, build())


def _provenance(snap: TensorSnapshot, sources: SourceSelector) -> tuple[str, ...]:
    """The sources a selector names, deduplicated in first-named order; snap's for None."""
    if sources is None:
        return snap.sources
    if isinstance(sources, str):
        return (sources,)
    provenance = tuple(dict.fromkeys(sources))
    if not provenance:
        raise EmptySourceSubset("source subset must be non-empty")
    return provenance


def aggregate(
    tensor: FeatureTensor,
    mode: AggregationMode,
    sources: SourceSelector = None,
) -> AggregatedMatrix:
    """Aggregate a tensor over all sources, one source, or a non-empty subset.

    The returned matrix is shared via a cache and marked read-only; copy
    before mutating.
    """
    snap = tensor.snapshot()  # keyed, built and cached from this one state
    provenance = _provenance(snap, sources)
    return _get_or_build(snap.derived, (mode, provenance),
                         lambda: _built(snap, mode, provenance))


def _built(snap: TensorSnapshot, mode: AggregationMode,
           provenance: tuple[str, ...]) -> AggregatedMatrix:
    """_aggregate's matrix, a union updated from the log's last union where
    it can be; a union becomes the log's last one."""
    if mode is not AggregationMode.UNION:
        return _aggregate(snap, mode, provenance)
    selected = frozenset(map(snap.source_index, provenance))
    values = _updated_union(snap, selected)
    matrix = (_aggregate(snap, mode, provenance) if values is None
              else _matrix(snap, mode, values, provenance))
    kept = snap.log.union
    # a builder of an older state keeps the newer union; racing builders
    # may keep either, and each is exact for the state it names
    if kept is None or kept[0] <= snap.logged:
        snap.log.union = (snap.logged, selected, matrix.values)
    return matrix


def _updated_union(snap: TensorSnapshot, selected: frozenset):
    """The union of the selected sources: a copy of the log's last union of
    them, built from this state or an earlier one, with the cells written
    since folded in; None if the log holds none."""
    kept = snap.log.union
    if kept is None or kept[0] > snap.logged or kept[1] != selected:
        return None
    values = kept[2].copy()
    flat = values.ravel()  # a view: cells are written through flat indices
    for si in selected:
        added = snap.log.added(kept[0], snap.logged, si)
        at = added.flat_index(values.shape[1])
        flat[at] = np.fmax(flat[at], added.value)
    return values


def _aggregate(snap: TensorSnapshot, mode: AggregationMode,
               provenance: tuple[str, ...]) -> AggregatedMatrix:
    """A cold aggregate of a snapshot."""
    # source order fixes the order in which average mode sums a cell's values
    columns = [snap.layers[si].merged for si in sorted({snap.source_index(s) for s in provenance})]
    shape = (len(snap.languages), len(snap.features))
    if mode is AggregationMode.AVERAGE and len(columns) == 1:
        # one source's mean is its union: stored values are never -0.0, so
        # (0.0 + v) / 1 and fmax(NaN, v) are both v. The two share one array
        union = (AggregationMode.UNION, provenance)
        values = _get_or_build(snap.derived, union, lambda: _aggregate(snap, *union)).values
    elif mode is AggregationMode.UNION:
        values = np.full(shape, np.nan)
        flat = values.ravel()  # a view: cells are written through flat indices
        for col in columns:
            at = col.flat_index(shape[1])
            flat[at] = np.fmax(flat[at], col.value)
    else:
        values = np.zeros(shape)
        flat = values.ravel()
        count = np.zeros(flat.size, np.min_scalar_type(len(columns)))  # at most len(columns)
        # within one source each cell occurs once, so plain fancy-index
        # updates do not lose writes
        for col in columns:
            at = col.flat_index(shape[1])
            flat[at] += col.value
            count[at] += 1
        with np.errstate(invalid="ignore"):  # a divide with where= is several times slower
            np.divide(flat, count, out=flat)
        flat[count == 0] = np.nan  # 0 / 0 gave a NaN with its sign bit set
    return _matrix(snap, mode, values, provenance)


def _matrix(snap: TensorSnapshot, mode: AggregationMode, values: np.ndarray,
            provenance: tuple[str, ...]) -> AggregatedMatrix:
    """values, made read-only, as snap's matrix."""
    values.flags.writeable = False
    return AggregatedMatrix(
        mode=mode,
        languages=[rec.glottocode for rec in snap.languages],
        features=list(snap.features),
        values=values,
        provenance=provenance,
    )
