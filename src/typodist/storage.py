"""On-disk formats: tensor directory, matrix CSV, imputation exchange files.

A tensor directory holds ``registries.json`` plus one ``<source>.csv``
per source with header ``language,feature,value``. Matrix exports are
CSV with language rows and feature columns; ``--`` marks a missing cell.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
from array import array
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from .errors import FormatError, UnknownFeature, UnknownLanguage
from .kb import (
    Category,
    FeatureDescriptor,
    FeatureOrigin,
    FeatureTensor,
    LanguageRecord,
    OriginKind,
    ResourceTier,
)

MISSING_TOKEN = "--"
REGISTRY_FILE = "registries.json"
CELL_HEADER = ("language", "feature", "value")

_SAFE_SOURCE_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def format_value(v: float) -> str:
    """Render a cell value so that parsing it back is bit-exact."""
    v = float(v)
    if v == int(v):
        return str(int(v))
    return repr(v)


def parse_value(text: str, path, row_num: int) -> Optional[float]:
    text = text.strip()
    if text == MISSING_TOKEN:
        return None
    try:
        v = float(text)
    except ValueError:
        raise FormatError(f"{path}: row {row_num}: bad value {text!r}") from None
    if not 0.0 <= v <= 1.0:
        raise FormatError(f"{path}: row {row_num}: value {v} outside [0, 1]")
    return v


def _language_to_json(rec: LanguageRecord) -> dict:
    return {
        "glottocode": rec.glottocode,
        "iso639_3": rec.iso639_3,
        "name": rec.name,
        "parent": rec.parent,
        "tier": rec.tier.value,
    }


def _feature_to_json(desc: FeatureDescriptor) -> dict:
    return {
        "name": desc.name,
        "category": desc.category.value,
        "origin": {
            "kind": desc.origin.kind.value,
            "parent_feature": desc.origin.parent_feature,
            "level": desc.origin.level,
        },
    }


def _bad_registry_entry(kind: str, exc: Exception) -> FormatError:
    if isinstance(exc, KeyError):
        return FormatError(f"{REGISTRY_FILE}: {kind} entry has no {exc} key")
    return FormatError(f"{REGISTRY_FILE}: {kind} entry: {exc}")


def _registry_object(kind: str, obj) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{REGISTRY_FILE}: {kind} is not a JSON object ({type(obj).__name__})")
    return obj


def _registry_list(registries: dict, key: str) -> list:
    entries = registries.get(key, [])
    if not isinstance(entries, list):
        raise FormatError(f"{REGISTRY_FILE}: {key} is not a JSON list ({type(entries).__name__})")
    return entries


def _language_from_json(obj: dict) -> LanguageRecord:
    _registry_object("language entry", obj)
    try:
        return LanguageRecord(
            glottocode=obj["glottocode"],
            iso639_3=obj.get("iso639_3"),
            name=obj.get("name", ""),
            parent=obj.get("parent"),
            tier=ResourceTier(obj.get("tier", "Unknown")),
        )
    except (KeyError, ValueError) as exc:
        raise _bad_registry_entry("language", exc) from None


def _feature_from_json(obj: dict) -> FeatureDescriptor:
    _registry_object("feature entry", obj)
    origin = obj.get("origin")
    origin = _registry_object("feature entry origin", {} if origin is None else origin)
    try:
        return FeatureDescriptor(
            name=obj["name"],
            category=Category(obj["category"]),
            origin=FeatureOrigin(
                kind=OriginKind(origin.get("kind", "native")),
                parent_feature=origin.get("parent_feature"),
                level=origin.get("level"),
            ),
        )
    except (KeyError, ValueError) as exc:
        raise _bad_registry_entry("feature", exc) from None


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """Open a temp file next to path and rename it over path on success,
    so that path always holds either its old or its new content in full."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_tensor(tensor: FeatureTensor, directory) -> None:
    """Write the tensor directory, replacing one whole file at a time.

    Registries go first: they only ever grow, so a save interrupted
    between files leaves new registries over old CSV files, which still
    load with every old cell.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    snap = tensor.snapshot()
    for src in snap.sources:
        if not _SAFE_SOURCE_RE.match(src):
            raise FormatError(f"source name {src!r} is not filesystem-safe")

    registries = {
        "languages": [_language_to_json(r) for r in snap.languages],
        "features": [_feature_to_json(f) for f in snap.features],
        "sources": snap.sources,
    }
    with _replacing(directory / REGISTRY_FILE) as fh:
        json.dump(registries, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # rows sort by glottocode, then feature name
    glottocodes = np.array([r.glottocode for r in snap.languages], dtype=object)
    names = np.array([f.name for f in snap.features], dtype=object)
    lang_rank, feat_rank = _ranks(glottocodes), _ranks(names)
    for src, col in zip(snap.sources, snap.columns):
        order = np.lexsort((feat_rank[col.feature], lang_rank[col.language]))
        rows = zip(
            glottocodes[col.language[order]].tolist(),
            names[col.feature[order]].tolist(),
            map(format_value, col.value[order].tolist()),
        )
        with _replacing(directory / f"{src}.csv") as fh:
            writer = csv.writer(fh)
            writer.writerow(CELL_HEADER)
            writer.writerows(rows)


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Each key's position in the sorted keys."""
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


def load_tensor(directory) -> FeatureTensor:
    directory = Path(directory)
    reg_path = directory / REGISTRY_FILE
    if not reg_path.exists():
        raise FormatError(f"no {REGISTRY_FILE} in {directory}")
    registries = _read_json(reg_path)

    tensor = FeatureTensor()
    # saved order preserves registration order, so parents precede dialects
    for obj in _registry_list(registries, "languages"):
        tensor.add_language(_language_from_json(obj))
    for obj in _registry_list(registries, "features"):
        tensor.add_feature(_feature_from_json(obj))
    sources = _registry_list(registries, "sources")
    for src in sources:
        if not isinstance(src, str):
            raise FormatError(
                f"{REGISTRY_FILE}: source name is not a JSON string ({type(src).__name__})"
            )
        tensor.add_source(src)

    lang_index = {rec.glottocode: i for i, rec in enumerate(tensor.languages)}
    feat_index = {f.name: i for i, f in enumerate(tensor.features)}
    # every file is parsed before a cell's unknown language or feature is
    # reported, so a malformed row anywhere is what gets reported
    unknown = None
    for src in sources:
        path = directory / f"{src}.csv"
        if not path.exists():
            continue  # a source with no stored cells
        lang, feat, values = array("i"), array("i"), array("d")
        for row_num, row in _read_csv_rows(path, CELL_HEADER):
            value = parse_value(row[2], path, row_num)
            if value is None:
                continue  # explicit-missing row
            li = lang_index.get(row[0].strip())
            fi = feat_index.get(row[1].strip())
            if li is None or fi is None:
                if unknown is None:
                    unknown = (
                        UnknownLanguage(row[0].strip()) if li is None
                        else UnknownFeature(row[1].strip())
                    )
                continue
            lang.append(li)
            feat.append(fi)
            values.append(value)
        tensor._put_column(
            tensor.source_index(src),
            np.frombuffer(lang, dtype=np.int32),
            np.frombuffer(feat, dtype=np.int32),
            np.frombuffer(values),
        )
    if unknown is not None:
        raise unknown
    return tensor


def _unreadable(path, exc: Exception) -> FormatError:
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return FormatError(f"{path}: cannot read: {reason}")


def _read_json(path) -> dict:
    """Parse a UTF-8 file holding one JSON object; anything else raises FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _unreadable(path, exc) from None
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data


def _read_csv_rows(path, expected_header: Sequence[str]):
    """Yield (1-based row number, row) for each non-blank data row.

    The header must match expected_header (case-insensitively) and every
    row must have as many columns; unreadable files, bad headers and
    ragged rows raise FormatError.
    """
    expected = list(expected_header)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"{path}: empty file") from None
            if [h.strip().lower() for h in header] != expected:
                raise FormatError(
                    f"{path}: row 1: expected header {','.join(expected)!r}, "
                    f"got {','.join(header)!r}"
                )
            for row_num, row in enumerate(reader, start=2):
                if not "".join(row).strip():  # blank row
                    continue
                if len(row) != len(expected):
                    raise FormatError(
                        f"{path}: row {row_num}: expected {len(expected)} columns, got {len(row)}"
                    )
                yield row_num, row
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None


def export_matrix_csv(languages: Sequence[str], features, values: np.ndarray, path) -> None:
    """Write a language x feature matrix; NaN cells become the missing token."""
    names = [f.name if isinstance(f, FeatureDescriptor) else str(f) for f in features]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["language"] + names)
        for i, lang in enumerate(languages):
            row = [lang]
            for j in range(len(names)):
                v = values[i, j]
                row.append(MISSING_TOKEN if np.isnan(v) else format_value(v))
            writer.writerow(row)


def load_matrix_values(path, languages: Sequence[str], feature_names: Sequence[str]) -> np.ndarray:
    """Read a matrix CSV back, validating it covers exactly the given grid.

    Used for the external-imputer exchange file, which must be fully
    dense, and for reloading exported matrices (missing tokens allowed).
    """
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if not header or header[0].strip().lower() != "language":
            raise FormatError(f"{path}: row 1: first column must be 'language'")
        cols = [h.strip() for h in header[1:]]
        if cols != list(feature_names):
            raise FormatError(f"{path}: feature columns do not match the expected registry")
        values = np.full((len(languages), len(cols)), np.nan)
        lang_index = {g: i for i, g in enumerate(languages)}
        seen = set()
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            lang = row[0].strip()
            if lang not in lang_index:
                raise FormatError(f"{path}: row {row_num}: unexpected language {lang!r}")
            if lang in seen:
                raise FormatError(f"{path}: row {row_num}: duplicate language {lang!r}")
            seen.add(lang)
            if len(row) != len(cols) + 1:
                raise FormatError(
                    f"{path}: row {row_num}: expected {len(cols) + 1} columns, got {len(row)}"
                )
            for j, cell in enumerate(row[1:]):
                v = parse_value(cell, path, row_num)
                if v is not None:
                    values[lang_index[lang], j] = v
        if seen != set(languages):
            missing = sorted(set(languages) - seen)
            raise FormatError(f"{path}: missing rows for languages {missing}")
    return values


def export_mask_csv(languages: Sequence[str], features, mask: np.ndarray, path) -> None:
    """Sibling 0/1 mask export for an imputed matrix (1 = value was filled)."""
    names = [f.name if isinstance(f, FeatureDescriptor) else str(f) for f in features]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["language"] + names)
        for i, lang in enumerate(languages):
            writer.writerow([lang] + ["1" if mask[i, j] else "0" for j in range(len(names))])
