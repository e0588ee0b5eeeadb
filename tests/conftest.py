import math
from pathlib import Path

import numpy as np
import pytest

from typodist.aggregate import AggregatedMatrix, AggregationMode
from typodist.errors import (
    ConflictingWrite,
    FormatError,
    UnknownFeature,
    UnknownLanguage,
    UnknownSource,
)
from typodist.kb import (
    Category,
    FeatureDescriptor,
    FeatureTensor,
    LanguageRecord,
    ResourceTier,
    TensorBatch,
)

DATA_DIR = Path(__file__).parent / "data"

CATEGORY_BY_PREFIX = {
    "S_": Category.SYNTACTIC,
    "P_": Category.PHONOLOGICAL,
    "INV_": Category.INVENTORY,
    "M_": Category.MORPHOLOGICAL,
    "GEO_": Category.GEOGRAPHIC,
    "GEN_": Category.GENETIC,
}


def category_of(name: str) -> Category:
    for prefix, cat in sorted(CATEGORY_BY_PREFIX.items(), key=lambda kv: -len(kv[0])):
        if name.startswith(prefix):
            return cat
    raise ValueError(f"no category prefix on {name!r}")


def make_tensor(languages, features, cells, sources=None) -> FeatureTensor:
    """languages: records or glottocodes; features: descriptors or names;
    cells: (glottocode, feature, source, value)."""
    tensor = FeatureTensor()
    for lang in languages:
        if isinstance(lang, str):
            lang = LanguageRecord(glottocode=lang)
        tensor.add_language(lang)
    for feat in features:
        if isinstance(feat, str):
            feat = FeatureDescriptor(feat, category_of(feat))
        tensor.add_feature(feat)
    for src in sources or []:
        tensor.add_source(src)
    tensor.extend_with(TensorBatch(cells=list(cells),
                                   sources=sorted({c[2] for c in cells})))
    return tensor


def make_matrix(mode, languages, feature_names, values) -> AggregatedMatrix:
    feats = [FeatureDescriptor(n, category_of(n)) for n in feature_names]
    return AggregatedMatrix(
        mode=mode,
        languages=list(languages),
        features=feats,
        values=np.asarray(values, dtype=float),
        provenance=("test",),
    )


def random_matrix(rng, n_lang, n_feat, mode, missing_frac=0.4, binary=None):
    if binary is None:
        binary = mode is AggregationMode.UNION
    if binary:
        values = rng.integers(0, 2, (n_lang, n_feat)).astype(float)
    else:
        values = rng.random((n_lang, n_feat))
    holes = rng.random((n_lang, n_feat)) < missing_frac
    values[holes] = np.nan
    langs = [f"l{i:03d}1234" for i in range(n_lang)]
    names = [f"S_F{j:03d}" for j in range(n_feat)]
    return make_matrix(mode, langs, names, values)


@pytest.fixture
def tiny_tensor() -> FeatureTensor:
    """3 languages (one a dialect), 2 sources, features in 3 categories."""
    tensor = FeatureTensor()
    tensor.add_language(LanguageRecord("pare1234", name="Parent", tier=ResourceTier.HRL))
    tensor.add_language(
        LanguageRecord("dial1234", name="Dialect", parent="pare1234", tier=ResourceTier.LRL)
    )
    tensor.add_language(LanguageRecord("othe1234", iso639_3="oth", name="Other"))
    for name in ("S_F1", "S_F2", "P_F1", "GEN_FAM1"):
        tensor.add_feature(FeatureDescriptor(name, category_of(name)))
    tensor.add_source("SRC_A")
    tensor.add_source("SRC_B")
    tensor.extend_with(
        TensorBatch(
            cells=[
                ("pare1234", "S_F1", "SRC_A", 1.0),
                ("pare1234", "S_F1", "SRC_B", 1.0),
                ("pare1234", "S_F2", "SRC_A", 0.0),
                ("pare1234", "P_F1", "SRC_A", 1.0),
                ("pare1234", "GEN_FAM1", "SRC_A", 1.0),
                ("dial1234", "S_F1", "SRC_B", 1.0),
                ("dial1234", "GEN_FAM1", "SRC_A", 1.0),
                ("othe1234", "S_F1", "SRC_A", 0.0),
                ("othe1234", "S_F2", "SRC_A", 1.0),
                ("othe1234", "S_F2", "SRC_B", 0.0),
            ]
        )
    )
    return tensor


@pytest.fixture
def table5():
    """(labels, dist_a, dist_b, reference) for the 20 case-study pairs."""
    from typodist.evalkit import load_case_study

    return load_case_study(DATA_DIR / "table5.csv")


class DictTensor:
    """The dict-of-cells store that FeatureTensor's columns replaced, kept
    as the oracle for the columnar one.

    Its cell code is the old per-cell loop. Two things follow the columnar
    store's contract instead: a rejected batch is rolled back whole, new
    registry entries included, and `aggregate` sums each cell's values in
    source order (the old loop summed in insertion order, which is source
    order for every tensor loaded from disk).
    """

    def __init__(self):
        self.languages, self.features, self.sources = [], [], []
        self._lang_index, self._feat_index, self._src_index = {}, {}, {}
        self._cells = {}
        self.version = 0

    def add_language(self, record):
        existing = self._lang_index.get(record.glottocode)
        if existing is not None:
            if self.languages[existing] != record:
                raise FormatError(
                    f"language {record.glottocode!r} already registered with different metadata"
                )
            return existing
        if record.parent is not None and record.parent not in self._lang_index:
            raise UnknownLanguage(record.parent)
        self._lang_index[record.glottocode] = len(self.languages)
        self.languages.append(record)
        self.version += 1
        return self._lang_index[record.glottocode]

    def add_feature(self, descriptor):
        existing = self._feat_index.get(descriptor.name)
        if existing is not None:
            if self.features[existing] != descriptor:
                raise FormatError(
                    f"feature {descriptor.name!r} already registered with different metadata"
                )
            return existing
        self._feat_index[descriptor.name] = len(self.features)
        self.features.append(descriptor)
        self.version += 1
        return self._feat_index[descriptor.name]

    def add_source(self, name):
        if not name:
            raise FormatError("source name must be non-empty")
        existing = self._src_index.get(name)
        if existing is not None:
            return existing
        self._src_index[name] = len(self.sources)
        self.sources.append(name)
        self.version += 1
        return self._src_index[name]

    @staticmethod
    def _index(index, name, error):
        if name not in index:
            raise error(name)
        return index[name]

    def _key(self, lang, feat, src):
        return (self._index(self._lang_index, lang, UnknownLanguage),
                self._index(self._feat_index, feat, UnknownFeature),
                self._index(self._src_index, src, UnknownSource))

    def get_cell(self, lang, feat, src):
        return self._cells.get(self._key(lang, feat, src))

    def extend_with(self, batch, overwrite=False):
        saved = ([list(r) for r in (self.languages, self.features, self.sources)],
                 [dict(i) for i in (self._lang_index, self._feat_index, self._src_index)],
                 self.version)
        try:
            self._extend_with(batch, overwrite)
        except Exception:
            (self.languages, self.features, self.sources), \
                (self._lang_index, self._feat_index, self._src_index), self.version = saved
            raise
        return self

    def _extend_with(self, batch, overwrite):
        version = self.version
        for rec in batch.languages:
            self.add_language(rec)
        for desc in batch.features:
            self.add_feature(desc)
        for src in batch.sources:
            self.add_source(src)
        resolved = []
        for lang, feat, src, value in batch.cells:
            key = self._key(lang, feat, src)
            value = float(value)
            if not math.isfinite(value):
                raise FormatError(f"cell values must be finite, got {value!r}")
            value = min(1.0, max(0.0, value))
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

    def source_stats(self, lang, feat):
        li = self._index(self._lang_index, lang, UnknownLanguage)
        fi = self._index(self._feat_index, feat, UnknownFeature)
        values = [self._cells[(li, fi, si)] for si in range(len(self.sources))
                  if (li, fi, si) in self._cells]
        return len(values), values

    def iter_cells(self):
        for (li, fi, si), v in self._cells.items():
            yield self.languages[li].glottocode, self.features[fi].name, self.sources[si], v

    def cell_count(self):
        return len(self._cells)

    def aggregate(self, mode, provenance):
        src_indices = {self._src_index[s] for s in provenance}
        shape = (len(self.languages), len(self.features))
        total, count, peak = np.zeros(shape), np.zeros(shape), np.full(shape, -np.inf)
        for (li, fi, si), v in sorted(self._cells.items(), key=lambda kv: kv[0][2]):
            if si not in src_indices:
                continue
            total[li, fi] += v
            count[li, fi] += 1
            if v > peak[li, fi]:
                peak[li, fi] = v
        values = np.full(shape, np.nan)
        known = count > 0
        if mode is AggregationMode.UNION:
            values[known] = peak[known]
        else:
            values[known] = total[known] / count[known]
        return values
