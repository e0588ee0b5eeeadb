"""Sparse three-dimensional store over (language, feature, source).

Cells hold real values in [0, 1]; a cell that was never written is
missing. Registries are append-only: once a language, feature, or source
has an index, that index never changes, and known cells are never
silently overwritten. All query methods are read-only, so concurrent
reads from many threads are safe. Writes are serialised: `extend_with` and
`add_*` hold the tensor's lock, so concurrent writers never share an
index. Do not read while writing: a query that overlaps a write may see
it half done.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

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
        if self.parent == self.glottocode:
            raise FormatError(f"language {self.glottocode!r} cannot be its own parent")


_NAME_RE = re.compile(r"^[A-Z0-9_]+$")


@dataclass(frozen=True)
class FeatureDescriptor:
    """A feature with a canonical prefixed name and a category matching that prefix."""

    name: str
    category: Category
    origin: FeatureOrigin = field(default_factory=FeatureOrigin.native)

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
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


#: A cell value: a float in [0, 1], or None for a missing cell.
CellValue = Optional[float]


@dataclass
class TensorBatch:
    """One write batch: new registry entries plus known cells to store.

    Cells reference glottocodes / feature names / source names, which must
    either be pre-registered in the target tensor or carried in this batch.
    """

    languages: list[LanguageRecord] = field(default_factory=list)
    features: list[FeatureDescriptor] = field(default_factory=list)
    sources: list[str] = field(default_factory=list)
    cells: list[tuple[str, str, str, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)


def _check_value(v: float) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise FormatError(f"cell values must be finite, got {v!r}")
    return min(1.0, max(0.0, v))


class FeatureTensor:
    """The sparse (language, feature, source) -> value store."""

    def __init__(self):
        self._languages: list[LanguageRecord] = []
        self._features: list[FeatureDescriptor] = []
        self._sources: list[str] = []
        self._lang_index: dict[str, int] = {}
        self._feat_index: dict[str, int] = {}
        self._src_index: dict[str, int] = {}
        self._cells: dict[tuple[int, int, int], float] = {}
        # held by every write; reentrant, as extend_with calls add_*
        self._write_lock = threading.RLock()
        # bumped once per write that changes anything (a new registry entry
        # or cell value); the matrix caches key on it
        self.version = 0

    # registries -----------------------------------------------------------

    @property
    def languages(self) -> list[LanguageRecord]:
        return list(self._languages)

    @property
    def features(self) -> list[FeatureDescriptor]:
        return list(self._features)

    @property
    def sources(self) -> list[str]:
        return list(self._sources)

    @property
    def language_map(self) -> dict[str, LanguageRecord]:
        return {rec.glottocode: rec for rec in self._languages}

    def language(self, glottocode: str) -> LanguageRecord:
        return self._languages[self.language_index(glottocode)]

    def feature(self, name: str) -> FeatureDescriptor:
        return self._features[self.feature_index(name)]

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

    def source_index(self, name: str) -> int:
        try:
            return self._src_index[name]
        except KeyError:
            raise UnknownSource(name) from None

    def has_language(self, glottocode: str) -> bool:
        return glottocode in self._lang_index

    def features_in_category(self, category: Category) -> list[FeatureDescriptor]:
        return [f for f in self._features if f.category is category]

    def add_language(self, record: LanguageRecord) -> int:
        with self._write_lock:
            existing = self._lang_index.get(record.glottocode)
            if existing is not None:
                if self._languages[existing] != record:
                    raise FormatError(
                        f"language {record.glottocode!r} already registered with "
                        "different metadata"
                    )
                return existing
            if record.parent is not None and record.parent not in self._lang_index:
                raise UnknownLanguage(record.parent)
            # parents must pre-exist, so parent chains cannot form cycles
            self._lang_index[record.glottocode] = len(self._languages)
            self._languages.append(record)
            self.version += 1
            return self._lang_index[record.glottocode]

    def add_feature(self, descriptor: FeatureDescriptor) -> int:
        with self._write_lock:
            existing = self._feat_index.get(descriptor.name)
            if existing is not None:
                if self._features[existing] != descriptor:
                    raise FormatError(
                        f"feature {descriptor.name!r} already registered with "
                        "different metadata"
                    )
                return existing
            self._feat_index[descriptor.name] = len(self._features)
            self._features.append(descriptor)
            self.version += 1
            return self._feat_index[descriptor.name]

    def add_source(self, name: str) -> int:
        if not name:
            raise FormatError("source name must be non-empty")
        with self._write_lock:
            existing = self._src_index.get(name)
            if existing is not None:
                return existing
            self._src_index[name] = len(self._sources)
            self._sources.append(name)
            self.version += 1
            return self._src_index[name]

    # cells ----------------------------------------------------------------

    def get_cell(self, lang: str, feat: str, src: str) -> CellValue:
        """Stored value for the triple, or None if the cell is missing."""
        key = (self.language_index(lang), self.feature_index(feat), self.source_index(src))
        return self._cells.get(key)

    def extend_with(self, batch: TensorBatch, overwrite: bool = False) -> "FeatureTensor":
        """Apply a write batch; registries grow, known cells never regress.

        Writing the value a cell already holds is a no-op; writing a
        different value raises ConflictingWrite unless overwrite is set
        (the replace-missing-only update path keeps it off). A batch that
        changes anything bumps the version once.
        """
        with self._write_lock:
            version = self.version
            for rec in batch.languages:
                self.add_language(rec)
            for desc in batch.features:
                self.add_feature(desc)
            for src in batch.sources:
                self.add_source(src)
            # resolve and validate every cell before writing any, so a
            # conflicting batch never half-applies
            resolved = []
            for lang, feat, src, value in batch.cells:
                key = (self.language_index(lang), self.feature_index(feat), self.source_index(src))
                value = _check_value(value)
                old = self._cells.get(key)
                if old is not None and old != value and not overwrite:
                    raise ConflictingWrite(lang, feat, src, old, value)
                resolved.append((key, value))
            changed = False
            for key, value in resolved:
                if self._cells.get(key) != value:
                    self._cells[key] = value
                    changed = True
            if changed or self.version != version:
                self.version = version + 1
            return self

    def source_stats(self, lang: str, feat: str) -> tuple[int, list[float]]:
        """(number of sources with a known value, those values in source order)."""
        li = self.language_index(lang)
        fi = self.feature_index(feat)
        values = []
        for si in range(len(self._sources)):
            v = self._cells.get((li, fi, si))
            if v is not None:
                values.append(v)
        return len(values), values

    def iter_cells(self) -> Iterator[tuple[str, str, str, float]]:
        """All known cells as (glottocode, feature name, source name, value)."""
        for (li, fi, si), v in self._cells.items():
            yield (
                self._languages[li].glottocode,
                self._features[fi].name,
                self._sources[si],
                v,
            )

    def iter_indexed_cells(self) -> Iterator[tuple[tuple[int, int, int], float]]:
        """All known cells as ((language_idx, feature_idx, source_idx), value)."""
        return iter(self._cells.items())

    def cell_count(self) -> int:
        return len(self._cells)

    def ancestor_chain(self, glottocode: str) -> list[str]:
        """Parent, grandparent, ... for a language; empty if it has no parent."""
        chain = []
        rec = self.language(glottocode)
        seen = {glottocode}
        while rec.parent is not None:
            if rec.parent in seen:  # defensive; construction forbids cycles
                raise FormatError(f"parent cycle involving {rec.parent!r}")
            seen.add(rec.parent)
            chain.append(rec.parent)
            rec = self.language(rec.parent)
        return chain
