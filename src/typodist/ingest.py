"""Turn external database exports into tensor batches.

Covers the four preprocessing steps shared by all source databases:
binarizing nominal/ordinal variables, inferring values across redundant
features, canonical feature renaming, and resolving language identifiers
to glottocodes.
"""

from __future__ import annotations

import graphlib
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .aggregate import AggregationMode, aggregate
from .errors import (
    CyclicRules,
    FormatError,
    LevelOutOfRange,
    NameCollision,
    TypodistError,
    UnknownCategory,
    UnknownFeature,
    UnresolvableId,
)
from .kb import (
    Category,
    CellArrays,
    FeatureDescriptor,
    FeatureOrigin,
    FeatureTensor,
    LanguageRecord,
    TensorBatch,
)
from .storage import _checked, _json_field, _read_cell_columns, _read_csv_rows, _read_json

MISSING_MARKERS = {"", "--", "?", "NA", "N/A"}

MAX_NAME_LEN = 64

_GLOTTOCODE_RE = re.compile(r"^[a-z0-9]{4}[0-9]{4}$")


# --- canonical feature names -----------------------------------------------

def canonicalize_feature_name(raw: str, category: Category) -> str:
    """Prefix, uppercase, underscore, strip punctuation, cap at 64 chars."""
    if not raw or not raw.strip():
        raise FormatError("feature label must be non-empty")
    body = re.sub(r"\s+", "_", raw.strip().upper())
    body = re.sub(r"[^A-Z0-9_]", "", body)
    body = re.sub(r"_+", "_", body).strip("_")
    if not body:
        raise FormatError(f"feature label {raw!r} has no usable characters")
    return (category.prefix + body)[:MAX_NAME_LEN]


class CanonicalNamer:
    """Per-run canonical naming with collision detection.

    Two distinct raw labels mapping to one canonical name within one
    ingest run is an error rather than a silent merge.
    """

    def __init__(self):
        self._owner: dict[str, str] = {}

    def claim(self, canonical: str, raw: str) -> str:
        prior = self._owner.get(canonical)
        if prior is not None and prior != raw:
            raise NameCollision(canonical, prior, raw)
        self._owner[canonical] = raw
        return canonical

    def canonicalize(self, raw: str, category: Category) -> str:
        return self.claim(canonicalize_feature_name(raw, category), raw)


# --- binarization -----------------------------------------------------------

def _category_token(value: str) -> str:
    token = re.sub(r"\s+", "_", str(value).strip().upper())
    token = re.sub(r"[^A-Z0-9_]", "", token)
    if not token:
        raise FormatError(f"nominal category {value!r} has no usable characters")
    return token


def nominal_feature_names(feature_label: str, categories: Sequence[str], category: Category) -> list[str]:
    """One canonical name per nominal level, suffix kept intact under truncation."""
    names = []
    for cat_value in categories:
        suffix = _category_token(cat_value)
        budget = max(MAX_NAME_LEN - len(suffix) - 1, len(category.prefix) + 1)
        base = canonicalize_feature_name(feature_label, category)[:budget]
        names.append((base + "_" + suffix)[:MAX_NAME_LEN])
    return names


def binarize_nominal(
    feature_label: str,
    categories: Sequence[str],
    observed: str,
    category: Category,
) -> list[tuple[str, float]]:
    """One-hot encode a nominal observation; exactly one emitted value is 1."""
    cats = list(dict.fromkeys(categories))
    if len(cats) < 2:
        raise FormatError(
            f"nominal feature {feature_label!r} needs at least 2 categories, got {len(cats)}"
        )
    if observed not in cats:
        raise UnknownCategory(
            f"value {observed!r} not among declared categories for {feature_label!r}: {cats}"
        )
    names = nominal_feature_names(feature_label, cats, category)
    return [(name, 1.0 if cat == observed else 0.0) for name, cat in zip(names, cats)]


def binarize_ordinal(
    feature_label: str,
    max_level: int,
    observed: int,
    category: Category,
) -> tuple[str, float]:
    """Collapse an ordinal level to a presence flag (any level above 0)."""
    if not 0 <= observed <= max_level:
        raise LevelOutOfRange(
            f"level {observed} for {feature_label!r} outside [0, {max_level}]"
        )
    name = canonicalize_feature_name(feature_label, category)
    return name, 1.0 if observed > 0 else 0.0


# --- redundant-feature inference --------------------------------------------

class RuleDirection(Enum):
    IMPLIES = "implies"
    EQUIVALENT = "equivalent"


@dataclass(frozen=True)
class InferenceRule:
    """Fill to_feature from from_feature via the value mapping.

    For EQUIVALENT rules, from_feature is the redundant duplicate: after
    its values are propagated it is dropped from the batch entirely.
    """

    from_feature: str
    to_feature: str
    direction: RuleDirection
    mapping: tuple[tuple[float, float], ...]  # (from value, inferred to value) pairs

    def __post_init__(self):
        if self.from_feature == self.to_feature:
            raise FormatError(f"inference rule on {self.from_feature!r} maps to itself")
        for value in (v for pair in self.mapping for v in pair):
            if not (isinstance(value, (int, float, np.integer, np.floating)) and 0 <= value <= 1):
                raise FormatError(f"inference rule {self.from_feature!r} -> {self.to_feature!r}: "
                                  f"mapping value {value!r} is not a finite number in [0, 1]")
        if self.direction is RuleDirection.EQUIVALENT:
            targets = [t for _, t in self.mapping]
            if len(set(targets)) != len(targets):
                raise FormatError(
                    f"equivalent rule {self.from_feature!r} ~ {self.to_feature!r} "
                    "must map values one-to-one"
                )

    def mapped(self, value: float) -> Optional[float]:
        for src, dst in self.mapping:
            if src == value:
                return dst
        return None


def load_rules(path) -> list[InferenceRule]:
    """Rules CSV: from_feature,to_feature,direction,from_value,to_value.

    Several rows with the same feature pair and direction accumulate into
    one rule's value mapping.
    """
    grouped: dict[tuple[str, str, RuleDirection], list[tuple[float, float]]] = {}
    header = ("from_feature", "to_feature", "direction", "from_value", "to_value")
    for row_num, row in _read_csv_rows(path, header):
        frm, to, direction, fv, tv = (c.strip() for c in row)
        direction = _checked(direction.lower(), RuleDirection, f"{path}: row {row_num}", "direction")
        try:
            rule = InferenceRule(frm, to, direction, ((float(fv), float(tv)),))
        except ValueError:
            raise FormatError(f"{path}: row {row_num}: bad value mapping") from None
        except FormatError as exc:  # the row's own rule checks
            raise FormatError(f"{path}: row {row_num}: {exc}") from None
        grouped.setdefault((frm, to, direction), []).extend(rule.mapping)
    return [InferenceRule(frm, to, direction, tuple(pairs))
            for (frm, to, direction), pairs in grouped.items()]


def check_rules_acyclic(rules: Iterable[InferenceRule]) -> None:
    """Reject cycles among IMPLIES edges (from_feature -> to_feature), and among EQUIVALENT ones."""
    graphs: dict[RuleDirection, dict[str, set[str]]] = {d: {} for d in RuleDirection}
    for rule in rules:
        graphs[rule.direction].setdefault(rule.to_feature, set()).add(rule.from_feature)
    for direction, kind in ((RuleDirection.IMPLIES, "implication"), (RuleDirection.EQUIVALENT, "equivalence")):
        try:
            tuple(graphlib.TopologicalSorter(graphs[direction]).static_order())
        except graphlib.CycleError as exc:
            raise CyclicRules(f"inference rules contain an {kind} cycle: {exc.args[1]}") from None


def apply_inference(
    rules: Sequence[InferenceRule],
    batch: TensorBatch,
    tensor: Optional[FeatureTensor] = None,
) -> TensorBatch:
    """Propagate values along rules, then drop equivalent-rule duplicates.

    An inferred cell takes the first matching mapping pair's value and the source of its
    from-feature's first batch cell (or of the cell it was inferred from). A target known in
    the batch or in the tensor, under any source, is never filled. Rules run in sweeps over
    all languages until one infers nothing: chains resolve in any order, a rerun adds nothing.
    A cycle of IMPLIES rules, or of EQUIVALENT rules, raises CyclicRules.
    """
    check_rules_acyclic(rules)
    ruled = list(dict.fromkeys(name for rule in rules for name in (rule.from_feature, rule.to_feature)))
    known_features = {f.name for f in batch.features}
    if tensor is not None:
        known_features.update(f.name for f in tensor.features)
    for name in ruled:
        if name not in known_features:
            raise UnknownFeature(name)

    cells = CellArrays.of(batch.cells)
    column = {name: j for j, name in enumerate(ruled)}
    feat_col = np.array([column.get(name, -1) for name in cells.names[1]], np.intp)[cells.codes[1]]
    at = np.flatnonzero(feat_col >= 0)  # the cells of the rules' features
    lang_id: dict[str, int] = {}  # a row per distinct glottocode: the table may repeat a name
    lang_row = np.array([lang_id.setdefault(g, len(lang_id)) for g in cells.names[0]], np.intp)
    # each language's ruled features: source code (-1: unknown) and value, from the first batch cell
    key, first_cell = np.unique(lang_row[cells.codes[0][at]] * len(ruled) + feat_col[at], return_index=True)
    source = np.full((len(lang_id), len(ruled)), -1, np.intp)
    value = np.zeros(source.shape)
    source.flat[key], value.flat[key] = cells.codes[2][at[first_cell]], cells.value[at[first_cell]]
    given = source >= 0
    blocked = given.copy()  # the targets never filled
    if tensor is not None:
        matrix = aggregate(tensor, AggregationMode.UNION)
        tensor_row = {g: i for i, g in enumerate(matrix.languages)}
        tensor_col = {f.name: j for j, f in enumerate(matrix.features)}
        blocked |= np.pad(matrix.known_mask, (0, 1))[np.ix_(  # index -1: known nowhere
            [tensor_row.get(g, -1) for g in lang_id], [tensor_col.get(name, -1) for name in ruled])]

    steps = [(column[r.from_feature], column[r.to_feature], np.array(r.mapping)) for r in rules if r.mapping]
    changed = True
    while changed:
        changed = False
        for f, t, pairs in steps:
            match = value[:, f, None] == pairs[:, 0]
            fill = np.flatnonzero((source[:, f] >= 0) & ~blocked[:, t] & match.any(axis=1))
            value[fill, t] = pairs[match[fill].argmax(axis=1), 1]  # the first matching pair
            source[fill, t], blocked[fill, t] = source[fill, f], True
            changed |= fill.size > 0

    dropped = [r.from_feature for r in rules if r.direction is RuleDirection.EQUIVALENT]
    rows, cols = np.nonzero((source >= 0) & ~given & ~np.isin(ruled, dropped))
    inferred = CellArrays((list(lang_id), ruled, cells.names[2]),
                          (rows, cols, source[rows, cols]), value[rows, cols])
    kept = cells.take(~np.isin(cells.names[1], dropped)[cells.codes[1]]) if dropped else cells
    features = [f for f in batch.features if f.name not in dropped]
    return replace(batch, features=features, cells=CellArrays.concat([kept, inferred]))


# --- language identifier resolution ------------------------------------------

@dataclass
class IdResolutionTable:
    """ISO 639-3 to glottocode mapping, with a side table for retired codes."""

    iso_to_glotto: dict[str, str] = field(default_factory=dict)
    retired_iso: dict[str, str] = field(default_factory=dict)


def load_resolution_table(path) -> IdResolutionTable:
    """Resolution CSV: external_id,glottocode,retired_flag."""
    table = IdResolutionTable()
    for row_num, row in _read_csv_rows(path, ("external_id", "glottocode", "retired_flag")):
        ext, glotto, flag = (c.strip() for c in row)
        if not _GLOTTOCODE_RE.match(glotto):
            raise FormatError(f"{path}: row {row_num}: {glotto!r} is not a glottocode")
        retired = flag.lower() in {"1", "true", "yes", "retired"}
        if retired:
            table.retired_iso[ext] = glotto
        else:
            table.iso_to_glotto[ext] = glotto
    return table


def resolve_language(external_id: str, table: IdResolutionTable) -> str:
    """Glottocodes pass through; ISO codes (current or retired) map via the table."""
    ext = external_id.strip()
    if _GLOTTOCODE_RE.match(ext):
        return ext
    if ext in table.iso_to_glotto:
        return table.iso_to_glotto[ext]
    if ext in table.retired_iso:
        return table.retired_iso[ext]
    raise UnresolvableId(external_id)


def is_retired(external_id: str, table: IdResolutionTable) -> bool:
    return external_id.strip() in table.retired_iso


# --- schema-driven source reading --------------------------------------------

class VariableKind(Enum):
    BINARY = "binary"
    NOMINAL = "nominal"
    ORDINAL = "ordinal"


@dataclass(frozen=True)
class FeatureSpec:
    label: str
    kind: VariableKind
    category: Category
    categories: tuple[str, ...] = ()
    max_level: int = 0


@dataclass
class IngestSchema:
    features: dict[str, FeatureSpec]

    def lookup(self, label: str) -> FeatureSpec:
        try:
            return self.features[label]
        except KeyError:
            raise FormatError(f"feature label {label!r} is not in the ingest schema") from None


def load_ingest_schema(path) -> IngestSchema:
    raw_features = _json_field(_read_json(path), "features", dict, str(path))
    if not raw_features:
        raise FormatError(f"{path}: schema must define a non-empty 'features' object")
    features: dict[str, FeatureSpec] = {}
    for label in raw_features:
        spec = _json_field(raw_features, label, dict, f"{path}: features")
        where = f"{path}: feature {label!r}"
        kind = _json_field(spec, "kind", VariableKind, where)
        category = _json_field(spec, "category", Category, where)
        # each category once, in first-seen order, as binarize_nominal names them
        categories = tuple(dict.fromkeys(_json_field(spec, "categories", [str], where, [])))
        max_level = _json_field(spec, "max_level", int, where, 0)
        if kind is VariableKind.NOMINAL and len(categories) < 2:
            raise FormatError(f"{path}: nominal feature {label!r} needs >= 2 categories")
        if kind is VariableKind.ORDINAL and max_level < 1:
            raise FormatError(f"{path}: ordinal feature {label!r} needs max_level >= 1")
        features[label] = FeatureSpec(label, kind, category, categories, max_level)
    return IngestSchema(features)


@dataclass
class IngestReport:
    source: str
    rows_read: int = 0
    cells_written: int = 0
    rows_skipped_missing: int = 0
    resolved_retired: list[tuple[str, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "rows_read": self.rows_read,
            "cells_written": self.cells_written,
            "rows_skipped_missing": self.rows_skipped_missing,
            "resolved_retired": [list(pair) for pair in self.resolved_retired],
        }


@dataclass
class SourceRows:
    """A raw export read as columns: each data row's CSV row number, and
    per column (language id, feature label, value) a table of its distinct
    stripped strings with each row's code into that table."""

    source_name: str
    path: str
    rows: np.ndarray
    tables: list[list[str]]
    codes: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.rows)


def read_source_csv(path, source_name: str) -> SourceRows:
    """Raw export CSV with header language,feature,value."""
    return SourceRows(source_name, str(path), *_read_cell_columns(path))


def _first_records(records: Iterable[LanguageRecord], registered=frozenset()) -> list[LanguageRecord]:
    """The first record of each glottocode that is not registered yet: a
    language reached under two ids, in one source, across the sources of a
    run, or across runs, keeps the record it was first given."""
    first: dict[str, LanguageRecord] = {}
    for rec in records:
        if rec.glottocode not in registered:
            first.setdefault(rec.glottocode, rec)
    return list(first.values())


def _binarized(label: str, value: str, spec: FeatureSpec, namer: CanonicalNamer):
    """The features and cell values one raw (label, value) pair gives."""
    if spec.kind is VariableKind.BINARY:
        if value not in {"0", "1", "0.0", "1.0"}:
            raise FormatError(f"binary feature {label!r} has non-binary value {value!r}")
        return [(FeatureDescriptor(namer.canonicalize(label, spec.category), spec.category),
                 float(value))]
    if spec.kind is VariableKind.NOMINAL:
        pairs = binarize_nominal(label, spec.categories, value, spec.category)
        base = canonicalize_feature_name(label, spec.category)
        return [(FeatureDescriptor(namer.claim(name, f"{label}={cat}"), spec.category,
                                   FeatureOrigin.nominal(base, str(cat))), v)
                for (name, v), cat in zip(pairs, dict.fromkeys(spec.categories))]
    try:
        level = int(value)
    except ValueError:
        raise FormatError(f"ordinal feature {label!r} has non-integer level {value!r}") from None
    name, v = binarize_ordinal(label, spec.max_level, level, spec.category)
    return [(FeatureDescriptor(namer.claim(name, label), spec.category,
                               FeatureOrigin.ordinal(label)), v)]


def _factorized(codes: np.ndarray):
    """The distinct codes in order of first appearance, the position of
    each one's first appearance, and each element's index among them."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order].tolist(), first[order].tolist(), np.argsort(order)[inverse.ravel()]


def build_batch(
    records: SourceRows,
    schema: IngestSchema,
    table: IdResolutionTable,
    namer: Optional[CanonicalNamer] = None,
) -> tuple[TensorBatch, IngestReport]:
    """Binarize, rename, and resolve one source's rows into a batch.

    Each distinct language id is resolved once, and each distinct (label,
    value) pair binarized once, in order of first appearance. A row-level
    error names the file and the first bad row in file order.
    """
    namer = namer if namer is not None else CanonicalNamer()
    ids, labels, values = records.tables
    id_code, label_code, value_code = records.codes
    kept = np.flatnonzero(~np.isin(values, list(MISSING_MARKERS))[value_code])
    report = IngestReport(records.source_name, len(records),
                          rows_skipped_missing=len(records) - len(kept))
    id_codes, id_first, id_rank = _factorized(id_code[kept])
    pair_codes, pair_first, pair_rank = _factorized(label_code[kept].astype(np.int64) * len(values) + value_code[kept])
    stop, error = len(kept), None  # the first kept row with a bad id or pair, and its error
    glottocodes = []
    for code, position in zip(id_codes, id_first):
        try:
            glottocodes.append(resolve_language(ids[code], table))
        except UnresolvableId as exc:
            stop, error = position, exc
            break
    per_pair = []  # each pair's cells, as (feature descriptor, value)
    for code, position in zip(pair_codes, pair_first):
        if position >= stop:
            break
        label = labels[code // len(values)]
        try:
            per_pair.append(_binarized(label, values[code % len(values)], schema.lookup(label), namer))
        except TypodistError as exc:
            stop, error = position, exc
            break
    if error is not None:
        error.args = (f"{records.path}: row {records.rows[kept[stop]]}: {error}",)
        raise error

    batch = TensorBatch(sources=[records.source_name] if len(kept) else [])
    for code, glotto in zip(id_codes, glottocodes):
        ext = ids[code]
        batch.languages.append(LanguageRecord(glotto, iso639_3=ext if ext != glotto else None))
        if is_retired(ext, table):
            report.resolved_retired.append((ext, glotto))
    batch.languages = _first_records(batch.languages)
    flat = [cell for cells in per_pair for cell in cells]
    # pairs that give one feature name give equal descriptors; else the namer raised
    batch.features = list({desc.name: desc for desc, _v in flat}.values())
    # each kept row gives its pair's cells, rows in file order
    n_cells = np.array([len(cells) for cells in per_pair], dtype=np.intp)
    cell_row = np.repeat(np.arange(len(kept)), n_cells[pair_rank])
    pair_cell = (np.cumsum(n_cells) - n_cells)[pair_rank][cell_row]  # the row's pair's first cell
    cell_at = pair_cell + np.arange(len(cell_row)) - np.searchsorted(cell_row, cell_row)  # in flat
    batch.cells = CellArrays(
        (glottocodes, [desc.name for desc, _v in flat], batch.sources),
        (id_rank[cell_row], cell_at, np.zeros(len(cell_at), np.intp)),
        np.array([v for _desc, v in flat], dtype=float)[cell_at])
    report.cells_written = len(batch.cells)
    return batch, report


def merge_batches(batches: Sequence[TensorBatch], tensor: FeatureTensor) -> TensorBatch:
    """Concatenate per-source batches into one write to tensor.

    A language keeps its first record: the one tensor holds, else the
    first in batch order. Repeated features and sources are left for
    extend_with, which registers each once.
    """
    registered = {rec.glottocode for rec in tensor.languages}
    return TensorBatch(
        languages=_first_records((rec for b in batches for rec in b.languages), registered),
        features=[desc for b in batches for desc in b.features],
        sources=[src for b in batches for src in b.sources],
        cells=CellArrays.concat([CellArrays.of(b.cells) for b in batches]),
    )


def split_conflicts(batch: TensorBatch, tensor: FeatureTensor) -> tuple[TensorBatch, list[dict]]:
    """batch without the cells whose known value in tensor differs, and
    those cells in batch order: existing known values win."""
    cells = CellArrays.of(batch.cells)
    existing = tensor.stored_array(cells)
    conflict = ~np.isnan(existing) & (existing != cells.value)
    conflicts = [
        {"cell": list(cells[i][:3]), "existing": float(existing[i]), "incoming": float(cells.value[i])}
        for i in np.flatnonzero(conflict).tolist()
    ]
    return replace(batch, cells=cells.take(~conflict)), conflicts
