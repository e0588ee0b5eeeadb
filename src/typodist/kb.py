"""Sparse three-dimensional store over (language, feature, source).

Cells hold real values in [0, 1]; a cell that was never written is
missing. Registries are append-only: once a language, feature, or source
has an index, that index never changes, and a known cell is written
once: writing its own value back is a no-op, any other value raises.

A column of cells is two numpy arrays, kept sorted by key: an int64 key
that holds the language index in its high 32 bits and the feature index in
its low 32 bits, so keys sort as (language, feature) does, and a float64
value, 16 bytes per cell. Each source keeps its cells as two such columns,
the smallest log-structured merge-tree: a sorted base and a sorted delta,
no cell in both. A write merges only into the delta, so a small batch
costs O(batch + delta), not O(source); the delta folds into the base once
it holds more than an eighth as many cells (_FOLD). Readers see one merged
column per source (`TensorSnapshot.columns`), built on first read and kept
on the source's unchanged (base, delta) pair, so an untouched source keeps
its arrays; point lookups search the base and the delta instead.

A tensor publishes one read-only `TensorSnapshot`: registries, name ->
index maps, per-source layers, `derived` and `version`. A write searches
each base and each non-empty delta it touches once, checks the whole
batch against the state from that search, builds the next state
(registries copied only if it adds entries, new layers only for the
sources it adds cells to, an empty `derived`) and publishes it in one
swap; a no-op write publishes nothing. `adopt_columns`, a load's one
cell write, takes whole columns (from the cell cache, or `SourceColumn.of`
over CSV rows) as bases, checks only the column invariants above and
stores the arrays themselves. Writes are serialised under the tensor's
lock, so concurrent writers never share an index. A reader takes one
snapshot: it sees each write whole or not at all.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConflictingWrite,
    FormatError,
    UnknownFeature,
    UnknownLanguage,
    UnknownSource,
)


class Category(Enum):
    """Feature categories; the four typological ones plus geography and genealogy."""

    SYNTACTIC = "syntactic"
    PHONOLOGICAL = "phonological"
    INVENTORY = "inventory"
    MORPHOLOGICAL = "morphological"
    GEOGRAPHIC = "geographic"
    GENETIC = "genetic"
    __hash__ = object.__hash__  # members are singletons; Enum's hashes the name in Python

    @property
    def prefix(self) -> str:
        return _CATEGORY_PREFIX[self]


_CATEGORY_PREFIX = {
    Category.SYNTACTIC: "S_",
    Category.PHONOLOGICAL: "P_",
    Category.INVENTORY: "INV_",
    Category.MORPHOLOGICAL: "M_",
    Category.GEOGRAPHIC: "GEO_",
    Category.GENETIC: "GEN_",
}

#: Categories that count as typological for coverage and distance eligibility.
TYPOLOGICAL_CATEGORIES = frozenset(
    {Category.SYNTACTIC, Category.PHONOLOGICAL, Category.INVENTORY, Category.MORPHOLOGICAL}
)


class ResourceTier(Enum):
    HRL = "HRL"
    MRL = "MRL"
    LRL = "LRL"
    UNKNOWN = "Unknown"


class OriginKind(Enum):
    NATIVE = "native"
    BINARIZED_NOMINAL = "binarized_nominal"
    BINARIZED_ORDINAL = "binarized_ordinal"


@dataclass(frozen=True)
class FeatureOrigin:
    """Where a feature came from: native, or derived by binarizing a non-binary one."""

    kind: OriginKind = OriginKind.NATIVE
    parent_feature: Optional[str] = None
    level: Optional[str] = None

    @classmethod
    def native(cls) -> "FeatureOrigin":
        return cls(OriginKind.NATIVE)

    @classmethod
    def nominal(cls, parent_feature: str, level: str) -> "FeatureOrigin":
        return cls(OriginKind.BINARIZED_NOMINAL, parent_feature, level)

    @classmethod
    def ordinal(cls, parent_feature: str) -> "FeatureOrigin":
        return cls(OriginKind.BINARIZED_ORDINAL, parent_feature)


@dataclass(frozen=True)
class LanguageRecord:
    """A language keyed by glottocode; ISO 639-3 is an alias attribute only."""

    glottocode: str
    iso639_3: Optional[str] = None
    name: str = ""
    parent: Optional[str] = None
    tier: ResourceTier = ResourceTier.UNKNOWN

    def __post_init__(self):
        if not self.glottocode:
            raise FormatError("glottocode must be non-empty")
        if self.glottocode != self.glottocode.strip():  # a load strips every field
            raise FormatError(f"glottocode {self.glottocode!r} has leading or trailing whitespace")
        if self.parent == self.glottocode:
            raise FormatError(f"language {self.glottocode!r} cannot be its own parent")


_NAME_RE = re.compile(r"[A-Z0-9_]+")


@dataclass(frozen=True)
class FeatureDescriptor:
    """A feature with a canonical prefixed name and a category matching that prefix."""

    name: str
    category: Category
    origin: FeatureOrigin = field(default_factory=FeatureOrigin.native)

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):  # "$" would let a final newline through
            raise FormatError(
                f"feature name {self.name!r} may contain only uppercase letters, "
                "digits, and underscores"
            )
        prefix = self.category.prefix
        if not self.name.startswith(prefix):
            raise FormatError(
                f"feature name {self.name!r} does not carry the {prefix!r} prefix "
                f"required for category {self.category.value}"
            )


#: A feature scope: a whole category, one feature name, an explicit name
#: list, or None for all.
FeatureSelector = Union[Category, Sequence[str], None]


def feature_columns(features: Sequence[FeatureDescriptor],
                    selector: FeatureSelector) -> np.ndarray:
    """The indices into features that a feature scope names: all of them
    for None, a Category's in registry order, or each listed name once, in
    the order first named. A bare string names one feature; the first
    unknown name raises UnknownFeature. Callers decide what an empty
    scope means.
    """
    if selector is None:
        return np.arange(len(features))
    if isinstance(selector, Category):
        return np.array([j for j, f in enumerate(features) if f.category is selector], dtype=int)
    if isinstance(selector, str):
        selector = (selector,)
    index = {f.name: j for j, f in enumerate(features)}
    try:
        return np.array([index[name] for name in dict.fromkeys(selector)], dtype=int)
    except KeyError as exc:
        raise UnknownFeature(exc.args[0]) from None


#: A cell value: a float in [0, 1], or None for a missing cell.
CellValue = Optional[float]


@dataclass
class TensorBatch:
    """One write batch: new registry entries plus known cells to store.

    Cells reference glottocodes / feature names / source names, which must
    either be pre-registered in the target tensor or carried in this batch.
    They are (glottocode, feature name, source name, value) tuples, or
    CellArrays.
    """

    languages: list[LanguageRecord] = field(default_factory=list)
    features: list[FeatureDescriptor] = field(default_factory=list)
    sources: list[str] = field(default_factory=list)
    cells: list[tuple[str, str, str, float]] | CellArrays = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)


class CellArrays:
    """Cells as arrays, in write order: each cell's language, feature and
    source as a code into a table of names, and its value (float64).

    It reads as a sequence of (glottocode, feature name, source name,
    value) tuples. A table may hold a name no cell uses, or a name twice.
    """

    def __init__(self, names, codes, value):
        self.names = names  # (glottocodes, feature names, source names), lists
        self.codes = codes  # three integer arrays, one code per cell
        self.value = value

    @classmethod
    def of(cls, cells) -> "CellArrays":
        """cells, CellArrays or tuples, as arrays; a tuple that is not three
        names and a number raises TypeError or ValueError."""
        if isinstance(cells, CellArrays):
            return cells
        rows = [(lang, feat, src, float(v)) for lang, feat, src, v in cells]
        columns = list(zip(*rows)) or [()] * 4
        names, codes = [], []
        for column in columns[:3]:
            index = {name: i for i, name in enumerate(dict.fromkeys(column))}
            names.append(list(index))
            codes.append(np.fromiter(map(index.__getitem__, column), np.intp, len(column)))
        return cls(names, codes, np.array(columns[3], dtype=float))

    @classmethod
    def concat(cls, parts) -> "CellArrays":
        """The cells of parts, one after another, over their joined name tables."""
        names, codes = ([], [], []), ([], [], [])
        for part in parts:
            for table, code, part_names, part_code in zip(names, codes, part.names, part.codes):
                code.append(part_code + len(table))
                table.extend(part_names)
        return cls(list(names), [np.concatenate([np.empty(0, np.intp), *code]) for code in codes],
                   np.concatenate([np.empty(0), *(part.value for part in parts)]))

    def take(self, rows) -> "CellArrays":
        """The cells at rows, an index array or a boolean mask."""
        return CellArrays(self.names, [code[rows] for code in self.codes], self.value[rows])

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i: int) -> tuple[str, str, str, float]:
        return (*(names[code[i]] for names, code in zip(self.names, self.codes)),
                float(self.value[i]))

    def __iter__(self) -> Iterator[tuple[str, str, str, float]]:
        columns = (np.array(names, dtype=object)[code].tolist()
                   for names, code in zip(self.names, self.codes))
        return zip(*columns, self.value.tolist())


class SourceColumn(NamedTuple):
    """One source's known cells, sorted by key, each (language, feature) pair once."""

    key: np.ndarray  # int64 keys, as _keys builds them
    value: np.ndarray  # float64 values in [0, 1]

    @classmethod
    def of(cls, language, feature, value: np.ndarray) -> "SourceColumn":
        """The column of cells given in write order, by language index, feature index
        and value (a fresh array it may keep); a repeated cell keeps its last value."""
        return cls(*_last_sorted(_keys(language, feature), value))

    @property
    def language(self) -> np.ndarray:
        """Each cell's language index."""
        return self.key >> 32

    @property
    def feature(self) -> np.ndarray:
        """Each cell's feature index."""
        return self.key & 0xFFFFFFFF

    def flat_index(self, n_features: int) -> np.ndarray:
        """Each cell's index into a raveled C-order language x feature
        matrix with n_features columns."""
        at = self.key >> 32
        at *= n_features
        at += self.key & 0xFFFFFFFF
        return at


_NO_CELLS = SourceColumn(np.empty(0, np.int64), np.empty(0))

#: a delta folds into its base once it holds more than 1/_FOLD as many cells
_FOLD = 8


class SourceLayers:
    """One source's cells: a sorted base and a small sorted delta, no cell in both."""

    __slots__ = ("base", "delta", "_merged")

    def __init__(self, base: SourceColumn, delta: SourceColumn = _NO_CELLS):
        self.base, self.delta, self._merged = base, delta, None

    def __len__(self) -> int:
        return len(self.base.key) + len(self.delta.key)

    @property
    def merged(self) -> SourceColumn:
        """base and delta as one column, built on first read and kept; the base
        itself while the delta is empty."""
        merged = self._merged
        if merged is None:  # concurrent first readers build equal columns
            merged = self._merged = _folded(self.base, self.delta)
        return merged


_NO_LAYERS = SourceLayers(_NO_CELLS)


class TensorSnapshot(NamedTuple):
    """The tensor's published state, as one completed write left it; read-only."""

    languages: tuple[LanguageRecord, ...]
    features: tuple[FeatureDescriptor, ...]
    sources: tuple[str, ...]
    lang_index: Mapping[str, int]  # glottocode -> index into languages
    feat_index: Mapping[str, int]  # feature name -> index into features
    src_index: Mapping[str, int]  # source name -> index into sources
    layers: tuple[SourceLayers, ...]  # one per source, in source order
    derived: dict  # matrices built from this state, by key
    version: int  # bumped once per write that publishes a new state

    @property
    def columns(self) -> tuple[SourceColumn, ...]:
        """Each source's merged column, in source order."""
        return tuple(layers.merged for layers in self.layers)

    def language_index(self, glottocode: str) -> int:
        return _index_of(self.lang_index, glottocode, UnknownLanguage)

    def feature_index(self, name: str) -> int:
        return _index_of(self.feat_index, name, UnknownFeature)

    def source_index(self, name: str) -> int:
        return _index_of(self.src_index, name, UnknownSource)


def _index_of(index: Mapping, name: str, unknown: type) -> int:
    try:
        return index[name]
    except KeyError:
        raise unknown(name) from None


def _keys(language, feature) -> np.ndarray:
    """The key of each (language index, feature index) cell: one int64 that
    sorts as (language, feature) does."""
    return (np.asarray(language, np.int64) << 32) | feature


def _lookup(columns, source, keys, found=None, stored=None) -> np.ndarray:
    """Each (source index, key) cell's stored value; NaN where it is missing or
    its source is -1, or stored's value if given (it is filled in place). One
    search of each touched non-empty column; found, a list if given, gets per
    touched source its index, its cells' rows and where each sits or would go
    (None for an empty column)."""
    if stored is None:
        stored = np.full(len(keys), np.nan)
    for si in np.flatnonzero(np.bincount(source + 1)[1:]).tolist():  # cheaper than np.unique
        rows, column, pos = np.flatnonzero(source == si), columns[si], None
        if len(column.key):
            pos = np.searchsorted(column.key, keys[rows])
            hit = pos < len(column.key)
            hit[hit] = column.key[pos[hit]] == keys[rows[hit]]
            stored[rows[hit]] = column.value[pos[hit]]
        if found is not None:
            found.append((si, rows, pos))
    return stored


def _stored(layers, source, keys, found=None) -> np.ndarray:
    """_lookup over the sources' layers: one search of each touched base, then
    of each touched non-empty delta, which found, if given, gets."""
    bases = _lookup([layer.base for layer in layers], source, keys)
    return _lookup([layer.delta for layer in layers], source, keys, found, bases)


def _last_sorted(keys, *arrays) -> tuple:
    """keys sorted, a repeated key once at its last row, and arrays in that
    order; keys and arrays themselves if keys already increase strictly."""
    if not np.any(keys[1:] <= keys[:-1]):
        return keys, *arrays
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    last = np.append(keys[1:] != keys[:-1], True)
    order, keys = order[last], keys[last]  # frees the sorted copies before arrays are taken
    return keys, *(array[order] for array in arrays)


def _inserted(column: SourceColumn, keys, value, pos) -> SourceColumn:
    """A new column: column with cells of strictly increasing keys, none of
    them in column, inserted at their pos in it."""
    return SourceColumn(np.insert(column.key, pos, keys), np.insert(column.value, pos, value))


def _folded(base: SourceColumn, delta: SourceColumn) -> SourceColumn:
    """base and delta, which share no key, as one column; either itself if the
    other is empty."""
    if not len(delta.key):
        return base
    if not len(base.key):
        return delta
    return _inserted(base, *delta, np.searchsorted(base.key, delta.key))


def _registered(kind: str, entries, registered: tuple, index: Mapping) -> tuple[tuple, Mapping]:
    """The registry and its name -> index map with entries registered, checked in
    order as one at a time would be; copies if any is new, never changed in place."""
    new = {}
    for entry in entries:
        name = _key(entry)
        if not name:
            raise FormatError(f"{kind} name must be non-empty")
        i = index.get(name)
        known = registered[i] if i is not None else new.get(name)
        if known is None:
            # only languages have parents; they must pre-exist, so parent
            # chains cannot form cycles
            parent = getattr(entry, "parent", None)
            if parent is not None and parent not in index and parent not in new:
                raise UnknownLanguage(parent, parent_of=name)
            new[name] = entry
        elif known != entry:
            raise FormatError(f"{kind} {name!r} already registered with different metadata")
    if not new:
        return registered, index
    names = {name: len(index) + k for k, name in enumerate(new)}
    return registered + tuple(new.values()), MappingProxyType(index | names)


_UNKNOWN = (UnknownLanguage, UnknownFeature, UnknownSource)


def _indices(cells: CellArrays, indices) -> list[np.ndarray]:
    """Each cell's language, feature and source index; -1 for a name that
    indices, the three name -> index maps, do not hold."""
    return [np.array([index.get(name, -1) for name in names], np.int64)[code]
            for names, code, index in zip(cells.names, cells.codes, indices)]


def _indexed(cells, indices) -> tuple:
    """_indices of cells, CellArrays or tuples, their values, and a function
    that gives cell i as a tuple. Tuples map straight to indices, one pass per
    name column; one that is not three names and a number raises TypeError or
    ValueError."""
    if isinstance(cells, CellArrays):
        return (*_indices(cells, indices), cells.value, cells.__getitem__)
    rows = [(lang, feat, src, float(v)) for lang, feat, src, v in cells]
    columns = list(zip(*rows)) or [()] * 4
    return (*(np.fromiter(map(index.get, column, repeat(-1)), np.int64, len(rows))
              for column, index in zip(columns, indices)),
            np.array(columns[3], dtype=float), rows.__getitem__)


def _checked(cells, indices, layers) -> list[tuple]:
    """Per source to which a batch adds cells: its index, and the keys and
    clamped values in write order of the cells it does not hold, with their
    pos from _lookup of its delta (None for an empty delta). A stored cell
    can only have its own value back.

    Raises for the first bad cell in batch order, as checking one cell at
    a time would: an unregistered name, a non-finite value, or a conflict.
    """
    lang, feat, src, raw, cell = _indexed(cells, indices)
    finite = np.isfinite(raw)
    values = np.clip(raw, 0.0, 1.0) + 0.0  # + 0.0 stores -0.0 as 0.0
    keys = _keys(lang, feat)
    ok = (lang >= 0) & (feat >= 0) & (src >= 0) & finite
    found = []
    old = _stored(layers, np.where(ok, src, -1), keys, found)
    bad = ~ok | (~np.isnan(old) & (old != values))
    if bad.any():
        i = int(np.argmax(bad))
        glottocode, name, source, _value = cell(i)
        for index, unknown, key in zip((lang, feat, src), _UNKNOWN, (glottocode, name, source)):
            if index[i] < 0:
                raise unknown(key)
        if not finite[i]:
            raise FormatError(f"cell values must be finite, got {float(raw[i])!r}")
        raise ConflictingWrite(glottocode, name, source, float(old[i]), float(values[i]))
    changed = []
    while found:  # each source's rows are freed once its cells are taken
        si, rows, pos = found.pop()
        new = np.isnan(old[rows])
        if new.any():
            rows = rows[new]
            changed.append((si, keys[rows], values[rows], None if pos is None else pos[new]))
    return changed


class FeatureTensor:
    """The sparse (language, feature, source) -> value store."""

    def __init__(self):
        # replaced whole by each write that changes anything
        no_names = MappingProxyType({})
        self._state = TensorSnapshot((), (), (), no_names, no_names, no_names, (), {}, 0)
        self._write_lock = threading.Lock()

    # registries -----------------------------------------------------------

    @property
    def languages(self) -> list[LanguageRecord]:
        return list(self._state.languages)

    @property
    def features(self) -> list[FeatureDescriptor]:
        return list(self._state.features)

    @property
    def sources(self) -> list[str]:
        return list(self._state.sources)

    @property
    def language_map(self) -> dict[str, LanguageRecord]:
        return {rec.glottocode: rec for rec in self._state.languages}

    def language(self, glottocode: str) -> LanguageRecord:
        state = self._state
        return state.languages[state.language_index(glottocode)]

    def feature(self, name: str) -> FeatureDescriptor:
        state = self._state
        return state.features[state.feature_index(name)]

    def language_index(self, glottocode: str) -> int:
        return self._state.language_index(glottocode)

    def feature_index(self, name: str) -> int:
        return self._state.feature_index(name)

    def source_index(self, name: str) -> int:
        return self._state.source_index(name)

    def has_language(self, glottocode: str) -> bool:
        return glottocode in self._state.lang_index

    def features_in_category(self, category: Category) -> list[FeatureDescriptor]:
        return [f for f in self._state.features if f.category is category]

    # each add_* copies a registry and its map, O(size); register many through extend_with

    def add_language(self, record: LanguageRecord) -> int:
        return self._write(languages=[record]).language_index(record.glottocode)

    def add_feature(self, descriptor: FeatureDescriptor) -> int:
        return self._write(features=[descriptor]).feature_index(descriptor.name)

    def add_source(self, name: str) -> int:
        return self._write(sources=[name]).source_index(name)

    # cells ----------------------------------------------------------------

    @property
    def version(self) -> int:
        """Bumped once per write that publishes a new state, and once per
        non-empty column that adopt_columns stores."""
        return self._state.version

    @property
    def derived(self) -> dict:
        """Matrices built from the published state, by key; a property, so tracers skip it."""
        return self._state.derived

    def snapshot(self) -> TensorSnapshot:
        """The published state: registries and cells as of the last completed write."""
        return self._state

    def get_cell(self, lang: str, feat: str, src: str) -> CellValue:
        """Stored value for the triple, or None if the cell is missing."""
        state = self._state
        li, fi, si = state.language_index(lang), state.feature_index(feat), state.source_index(src)
        found = _stored(state.layers, np.full(1, si), np.full(1, _keys(li, fi)))[0]
        return None if np.isnan(found) else float(found)

    def stored_array(self, cells: CellArrays) -> np.ndarray:
        """The stored value of each cell; NaN where it is missing or one of
        its names is not registered."""
        state = self._state
        lang, feat, src = _indices(cells, (state.lang_index, state.feat_index, state.src_index))
        known = (lang >= 0) & (feat >= 0)  # an unregistered source is -1 already
        return _stored(state.layers, np.where(known, src, -1), _keys(lang, feat))

    def extend_with(self, batch: TensorBatch) -> "FeatureTensor":
        """Apply a write batch; registries grow, a known cell is written once.

        Writing the value a cell already holds is a no-op; writing a
        different value raises ConflictingWrite. A cell written twice in
        one batch keeps its last value. The whole batch is checked
        before anything is written, so a rejected batch changes nothing. A
        batch that changes anything bumps the version once.
        """
        self._write(batch.languages, batch.features, batch.sources, batch.cells)
        return self

    def _write(self, languages=(), features=(), sources=(), cells=()) -> TensorSnapshot:
        """Check a whole write against the published state, then publish the
        next state; the published state after the write."""
        with self._write_lock:
            state = self._state
            (languages, lang_index), (features, feat_index), (sources, src_index) = [
                _registered(kind, entries, registry, index)
                for kind, entries, registry, index in (
                    ("language", languages, state.languages, state.lang_index),
                    ("feature", features, state.features, state.feat_index),
                    ("source", sources, state.sources, state.src_index),
                )
            ]
            layers = state.layers + (_NO_LAYERS,) * (len(sources) - len(state.layers))
            changed = _checked(cells, (lang_index, feat_index, src_index), layers) if cells else []
            # _registered returns the registry itself when it adds nothing
            grown = any(new is not old for new, old in zip((languages, features, sources), state))
            if changed or grown:
                layers = list(layers)  # merged once the check's arrays are freed
                for si, keys, values, pos in changed:
                    old = layers[si]
                    delta = (SourceColumn(*_last_sorted(keys, values)) if pos is None
                             else _inserted(old.delta, *_last_sorted(keys, values, pos)))
                    layers[si] = (SourceLayers(_folded(old.base, delta))
                                  if len(delta.key) * _FOLD > len(old.base.key)
                                  else SourceLayers(old.base, delta))
                self._state = TensorSnapshot(languages, features, sources, lang_index, feat_index,
                                             src_index, tuple(layers), {}, state.version + 1)
            return self._state

    def adopt_columns(self, columns: Mapping[str, SourceColumn]) -> "FeatureTensor":
        """Store whole columns, by source name, as the cells of registered
        sources that hold none; the arrays are stored, not copied. This is
        a load's one cell write, from the cell cache or from the CSVs.

        Each column must be what writing its cells would store: int64 keys
        that increase strictly and name registered languages and features,
        and float64 values in [0, 1], none NaN or -0.0. Anything else, or a
        source that holds cells, raises and changes nothing. The version goes
        up once per non-empty column, as writing each column's cells in a
        batch of its own would.
        """
        with self._write_lock:
            state = self._state
            stored, bumps = list(state.layers), 0
            for name, column in columns.items():
                si = state.source_index(name)
                if len(stored[si]):
                    raise FormatError(f"source {name!r} already holds cells")
                _check_column(column, len(state.languages), len(state.features), name)
                stored[si] = SourceLayers(SourceColumn(*column))
                bumps += bool(len(stored[si]))
            if bumps:
                self._state = state._replace(layers=tuple(stored), derived={},
                                             version=state.version + bumps)
        return self

    def source_stats(self, lang: str, feat: str) -> tuple[int, list[float]]:
        """(number of sources with a known value, those values in source order)."""
        state = self._state
        key = _keys(state.language_index(lang), state.feature_index(feat))
        n = len(state.layers)
        found = _stored(state.layers, np.arange(n), np.full(n, key))
        values = found[~np.isnan(found)].tolist()
        return len(values), values

    def iter_cells(self) -> Iterator[tuple[str, str, str, float]]:
        """All known cells as (glottocode, feature name, source name, value).

        Source by source, each sorted by (language, feature) index.
        """
        snap = self.snapshot()
        for src, col in zip(snap.sources, snap.columns):
            for li, fi, v in zip(col.language.tolist(), col.feature.tolist(), col.value.tolist()):
                yield snap.languages[li].glottocode, snap.features[fi].name, src, v

    def cell_count(self) -> int:
        return sum(map(len, self._state.layers))

    def ancestor_chain(self, glottocode: str) -> list[str]:
        """Parent, grandparent, ... for a language; empty if it has no parent."""
        self.language_index(glottocode)  # raises for an unknown language
        return ancestors(self.language_map, glottocode)


def ancestors(records: Mapping[str, LanguageRecord], glottocode: str) -> list[str]:
    """Parent, grandparent, ... of a language in a glottocode -> record mapping.

    The walk ends after an ancestor the mapping lacks, and before one it
    has already visited.
    """
    chain, seen = [], {glottocode}
    rec = records.get(glottocode)
    while rec is not None and rec.parent is not None and rec.parent not in seen:
        seen.add(rec.parent)
        chain.append(rec.parent)
        rec = records.get(rec.parent)
    return chain


#: cells per block when a column check needs a temporary array per cell
_CHECK_BLOCK = 1 << 16


def _check_column(column: SourceColumn, n_languages: int, n_features: int, name: str) -> None:
    """Raise FormatError unless column holds only cells a write would store
    in a tensor with these registry sizes."""
    key, value = column
    if not (key.dtype == np.int64 and value.dtype == np.float64
            and key.ndim == 1 and key.shape == value.shape):
        raise FormatError(f"source {name!r}: a column is int64 keys and float64 values, one each")
    if not len(key):
        return
    # sorted keys put the smallest and largest language first and last
    if key[0] < 0 or key[-1] >> 32 >= n_languages or np.any(key[1:] <= key[:-1]):
        raise FormatError(f"source {name!r}: keys must increase strictly over registered languages")
    if any((key[i:i + _CHECK_BLOCK] & 0xFFFFFFFF).max() >= n_features
           for i in range(0, len(key), _CHECK_BLOCK)):
        raise FormatError(f"source {name!r}: a key names an unregistered feature")
    if np.signbit(value).any() or not value.max() <= 1.0:  # NaN fails the second
        raise FormatError(f"source {name!r}: values must lie in [0, 1], none NaN or -0.0")


def _key(entry) -> str:
    """The registry key of a language record, feature descriptor or source name."""
    if isinstance(entry, LanguageRecord):
        return entry.glottocode
    if isinstance(entry, FeatureDescriptor):
        return entry.name
    return entry
