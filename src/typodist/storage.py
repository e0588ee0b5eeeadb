"""On-disk formats: tensor directory, matrix CSV, imputation exchange files.

A tensor directory holds ``registries.json`` plus one ``<source>.csv``
per source with header ``language,feature,value``. Matrix exports are
CSV with language rows and feature columns; ``--`` marks a missing cell.

``save_tensor`` writes one more file, last: ``cells.bin``, a cache of the
cells that a load reads without parsing the CSVs. It holds a marker, the
BLAKE2b-256 digest of ``registries.json`` and of each source CSV, in registry
order, with each source's cell count, then each source's column as ``kb``
stores it: sorted int64 keys and float64 values, little-endian. The JSON and
CSV files stay canonical: ``load_tensor`` uses the cache only when every
digest matches the files' current bytes, and then reads each column once;
a cache that does not match, or whose columns ``kb`` refuses, is ignored
without an error or a warning, and each source's CSV rows become its column
through ``SourceColumn.of`` (a cell on several rows keeps the last). Either
way the load writes every cell in one ``FeatureTensor.adopt_columns`` call,
which checks the columns and stores the arrays. The cache is safe to
delete; only this module knows its format, and only ``kb`` the key layout.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import sys
from array import array
from collections import defaultdict
from enum import EnumMeta
from itertools import count, islice
from pathlib import Path
from typing import IO, Iterator, Optional, Sequence

import numpy as np

try:  # CPython's own BLAKE2: hashlib would load OpenSSL, about 3.7 MB more RSS per process
    from _blake2 import blake2b
except ImportError:  # a build without it
    from hashlib import blake2b

from .errors import FormatError, UnknownLanguage
from .kb import (
    Category,
    FeatureDescriptor,
    FeatureOrigin,
    FeatureTensor,
    LanguageRecord,
    OriginKind,
    ResourceTier,
    SourceColumn,
    TensorBatch,
    TensorSnapshot,
)

MISSING_TOKEN = "--"
REGISTRY_FILE = "registries.json"
CACHE_FILE = "cells.bin"
CELL_HEADER = ("language", "feature", "value")
#: the cell cache's first bytes; a new layout takes a new marker
_CACHE_MARKER = b"typodist cells/1"
_DIGEST_BYTES = 32
_HASH_BLOCK_BYTES = 1 << 18
#: cell files are read in blocks of this many bytes and the rest of the
#: line they end in, and written this many rows at a time, so only one
#: block's field strings are alive at once
_READ_BLOCK_BYTES = 1 << 14
_WRITE_BLOCK_ROWS = 1 << 12

_SAFE_SOURCE_RE = re.compile(r"[A-Za-z0-9._-]+")


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
    return v + 0.0  # -0 reads as 0.0, the bits extend_with stores


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


_TIERS, _CATEGORIES, _ORIGIN_KINDS = ({m.value: m for m in kind}
                                      for kind in (ResourceTier, Category, OriginKind))
_STR_OR_NULL = (str, type(None))


def _language_from_json(obj: dict, where: str) -> LanguageRecord:
    glottocode, iso639_3, name, parent, tier = (
        obj.get("glottocode"), obj.get("iso639_3"), obj.get("name", ""), obj.get("parent"),
        obj.get("tier", "Unknown"))
    if (type(glottocode) is str and type(name) is str and type(tier) is str and tier in _TIERS
            and type(iso639_3) in _STR_OR_NULL and type(parent) in _STR_OR_NULL):
        return LanguageRecord(glottocode, iso639_3, name, parent, _TIERS[tier])
    return LanguageRecord(  # _json_field raises the error that names the bad field
        glottocode=_json_field(obj, "glottocode", str, where),
        iso639_3=_json_field(obj, "iso639_3", (str, None), where, None),
        name=_json_field(obj, "name", str, where, ""),
        parent=_json_field(obj, "parent", (str, None), where, None),
        tier=_json_field(obj, "tier", ResourceTier, where, "Unknown"),
    )


def _feature_from_json(obj: dict, where: str) -> FeatureDescriptor:
    name, category, origin = obj.get("name"), obj.get("category"), obj.get("origin")
    origin = {} if origin is None else origin
    if type(origin) is dict and type(name) is str and type(category) is str:
        kind = origin.get("kind", "native")
        parent_feature, level = origin.get("parent_feature"), origin.get("level")
        if (category in _CATEGORIES and type(kind) is str and kind in _ORIGIN_KINDS
                and type(parent_feature) in _STR_OR_NULL and type(level) in _STR_OR_NULL):
            return FeatureDescriptor(name, _CATEGORIES[category],
                                     FeatureOrigin(_ORIGIN_KINDS[kind], parent_feature, level))
    origin = _json_field(obj, "origin", (dict, None), where, None) or {}
    in_origin = f"{where} origin"
    return FeatureDescriptor(  # _json_field raises the error that names the bad field
        name=_json_field(obj, "name", str, where),
        category=_json_field(obj, "category", Category, where),
        origin=FeatureOrigin(
            kind=_json_field(origin, "kind", OriginKind, in_origin, "native"),
            parent_feature=_json_field(origin, "parent_feature", (str, None), in_origin, None),
            level=_json_field(origin, "level", (str, None), in_origin, None),
        ),
    )


@contextlib.contextmanager
def _replacing(path: Path, binary: bool = False) -> Iterator[IO]:
    """Open a temp file next to path, as UTF-8 text or binary, and rename it
    over path on success, so that path always holds either its old or its
    new content in full.
    Each writer creates its own temp file, so of two writers to one path
    the last rename wins whole. Failing to create, sync or rename the temp
    file raises FormatError; an OSError raised by a write in the block
    reaches the caller unchanged."""
    if path.exists() and not path.is_file():  # never rename over a device or a directory
        raise FormatError(f"{path}: cannot write: not a regular file")
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    created = in_block = False
    try:
        with (open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="")) as fh:
            created = in_block = True
            yield fh
            in_block = False
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        if in_block:
            raise
        raise _cannot("write", path, exc) from None
    finally:
        if created:
            with contextlib.suppress(OSError):  # renamed, or its directory is gone
                tmp.unlink()


def write_json(data, path) -> None:
    """Write data as indented JSON with sorted keys, replacing path whole."""
    with _replacing(Path(path)) as fh:
        fh.write(_json_text(data))  # one write, not one per token


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save_tensor(tensor: FeatureTensor, directory) -> None:
    """Write the tensor directory, replacing one whole file at a time.

    Registries go first: they only ever grow, so a save interrupted
    between files leaves new registries over old CSV files, which still
    load with every old cell. The cell cache goes last, with the digests
    of the bytes this save wrote, so a cache left by an earlier or an
    interrupted save does not match them and is not used.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    snap = tensor.snapshot()
    for src in snap.sources:
        _check_source_name(src, directory)

    registries = _json_text({
        "languages": [_language_to_json(r) for r in snap.languages],
        "features": [_feature_to_json(f) for f in snap.features],
        "sources": snap.sources,
    }).encode()
    with _replacing(directory / REGISTRY_FILE, binary=True) as fh:
        fh.write(registries)
    cache_head = [_CACHE_MARKER, _digest(registries).digest()]

    # rows sort by glottocode, then feature name; each distinct string is
    # rendered once, as the csv module quotes it
    glottocodes, names = [r.glottocode for r in snap.languages], [f.name for f in snap.features]
    lang_rank, feat_rank = _ranks(glottocodes), _ranks(names)
    lang_field, feat_field = _csv_fields(glottocodes), _csv_fields(names)
    for src, col in zip(snap.sources, snap.columns):
        order = np.argsort(lang_rank[col.language] * len(names) + feat_rank[col.feature])
        values, which = np.unique(col.value[order], return_inverse=True)
        value_field = _csv_fields(_rendered(values).tolist()) + "\r\n"  # it ends the row
        lines = map(",".join, zip(lang_field[col.language[order]].tolist(),
                                  feat_field[col.feature[order]].tolist(),
                                  value_field[which].tolist()))
        digest = _digest()
        with _replacing(directory / f"{src}.csv", binary=True) as fh:
            block = (",".join(CELL_HEADER) + "\r\n").encode()  # as csv.writer writes it
            while block:
                digest.update(block)
                fh.write(block)
                block = "".join(islice(lines, _WRITE_BLOCK_ROWS)).encode()
        cache_head += [digest.digest(), len(col.key).to_bytes(8, "little")]

    with _replacing(directory / CACHE_FILE, binary=True) as fh:
        fh.write(b"".join(cache_head))
        for col in snap.columns:  # straight from the arrays, never one copy of the whole
            fh.write(np.ascontiguousarray(col.key, "<i8"))
            fh.write(np.ascontiguousarray(col.value, "<f8"))


def _csv_fields(texts: Sequence[str]) -> np.ndarray:
    """Each text as csv.writer writes it as a field of a row, in an object array."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for text in texts:
        writer.writerow((text, ""))  # not alone in its row, where an empty field is quoted
        fields.append(buf.getvalue()[:-3])  # less the second field's comma and the CRLF
        buf.seek(0)
        buf.truncate()
    return np.array(fields, dtype=object)


def _rendered(values: np.ndarray) -> np.ndarray:
    """Each value's text, in an object array of values' shape: the missing
    token for NaN, format_value for any other value, each distinct value
    rendered once."""
    distinct, which = np.unique(values, return_inverse=True)
    texts = [MISSING_TOKEN if v != v else format_value(v) for v in distinct.tolist()]
    return np.array(texts, dtype=object)[which.reshape(np.shape(values))]


def _check_source_name(src: str, where) -> None:
    """Reject a source name whose CSV would not be a plain file in the directory."""
    if not _SAFE_SOURCE_RE.fullmatch(src):
        raise FormatError(f"{where}: source name {src!r} is not filesystem-safe")


def _ranks(keys: Sequence[str]) -> np.ndarray:
    """Each key's position in the sorted keys."""
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


def load_tensor(directory) -> FeatureTensor:
    directory = Path(directory)
    where = str(directory / REGISTRY_FILE)
    raw = _read_bytes(where)
    registries = _parsed_json(raw, where)
    languages = [
        _language_from_json(obj, f"{where}: language entry")
        for obj in _json_field(registries, "languages", [dict], where, [])
    ]
    features = [
        _feature_from_json(obj, f"{where}: feature entry")
        for obj in _json_field(registries, "features", [dict], where, [])
    ]
    sources = _json_field(registries, "sources", [str], where, [])
    for i, src in enumerate(sources):
        _check_source_name(src, where)
        if src in sources[:i]:
            raise FormatError(f"{where}: source {src!r} is listed twice")

    tensor = FeatureTensor()
    # saved order preserves registration order, so parents precede dialects
    try:
        tensor.extend_with(TensorBatch(languages, features, sources))
    except UnknownLanguage as exc:
        raise FormatError(
            f"{where}: language entry {exc.parent_of!r}: parent {exc.glottocode!r} "
            "is not an earlier language entry"
        ) from exc
    except FormatError as exc:  # an empty name, or a name repeated with other metadata
        raise FormatError(f"{where}: {exc}") from exc

    cached = _cached_columns(directory, sources, _digest(raw).digest())
    if cached is not None:
        with contextlib.suppress(FormatError):  # a column kb refuses: the CSVs decide
            return tensor.adopt_columns(cached)
    snap, paths = tensor.snapshot(), [(src, directory / f"{src}.csv") for src in sources]
    return tensor.adopt_columns({src: _csv_column(path, snap) for src, path in paths
                                 if path.exists()})  # else a source with no stored cells


def _csv_column(path: Path, snap: TensorSnapshot) -> SourceColumn:
    """The column of a stored source's CSV file, for the registries in snap."""
    rows, (langs, feats, texts), (lc, fc, vc) = _read_cell_columns(path)
    lang_of = np.array([snap.lang_index.get(name, -1) for name in langs], np.int32)
    feat_of = np.array([snap.feat_index.get(name, -1) for name in feats], np.int32)
    value, bad_value = np.full(len(texts), np.nan), np.zeros(len(texts), dtype=bool)
    for k, text in enumerate(texts):  # each distinct value string once
        try:
            v = parse_value(text, path, 0)
        except FormatError:
            bad_value[k] = True
            continue
        value[k] = np.nan if v is None else v  # NaN marks the missing token
    lang, feat = lang_of[lc], feat_of[fc]
    bad = bad_value[vc] | (lang < 0) | (feat < 0)
    if bad.any():  # the first bad row in file order, checked as one row would be
        i = int(np.argmax(bad))
        row = int(rows[i])
        parse_value(texts[vc[i]], path, row)  # raises for a bad value
        kind, name = ("language", langs[lc[i]]) if lang[i] < 0 else ("feature", feats[fc[i]])
        raise FormatError(f"{path}: row {row}: unregistered {kind} {name!r}")
    kept = ~np.isnan(value[vc])  # explicit-missing rows are skipped
    return SourceColumn.of(lang[kept], feat[kept], value[vc[kept]])


def _cached_columns(directory: Path, sources: Sequence[str], digest: bytes) -> Optional[dict]:
    """The columns of the directory's cell cache, by source, read in one
    pass; None unless the cache is whole, was written with digest (that of
    the registry file's bytes that sources were parsed from) and the current
    bytes of every source CSV. Only kb checks the columns themselves."""
    prefix, entry = _CACHE_MARKER + digest, _DIGEST_BYTES + 8  # a CSV digest, a count
    try:
        with open(directory / CACHE_FILE, "rb") as fh:
            head = fh.read(len(prefix) + entry * len(sources))
            if len(head) != len(prefix) + entry * len(sources) or not head.startswith(prefix):
                return None
            entries = [head[i:i + entry] for i in range(len(prefix), len(head), entry)]
            counts = [int.from_bytes(e[_DIGEST_BYTES:], "little") for e in entries]
            if (os.fstat(fh.fileno()).st_size != len(head) + 16 * sum(counts)  # cut short, or more
                    or any(_file_digest(directory / f"{src}.csv") != e[:_DIGEST_BYTES]
                           for src, e in zip(sources, entries))):
                return None
            return {src: SourceColumn(_read_array(fh, n, "<i8"), _read_array(fh, n, "<f8"))
                    for src, n in zip(sources, counts)}
    except (OSError, EOFError):  # unreadable, or cut short while read
        return None


def _read_array(fh, n: int, dtype: str) -> np.ndarray:
    """The next n items of dtype in the open file fh, in native byte order;
    EOFError if the file ends first."""
    array = np.empty(n, dtype)
    if fh.readinto(array) != array.nbytes:
        raise EOFError(fh.name)
    return array.astype(array.dtype.newbyteorder("="), copy=False)


def _digest(data: bytes = b""):
    """A BLAKE2b hash object with a 256-bit digest, fed data."""
    return blake2b(data, digest_size=_DIGEST_BYTES)


def _file_digest(path: Path) -> Optional[bytes]:
    """The digest of a regular file's bytes, read in blocks; None
    for anything else, such as a pipe, which can be read only once."""
    if not path.is_file():
        return None
    digest = _digest()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK_BYTES):
            digest.update(block)
    return digest.digest()


def _cannot(verb: str, path, exc: Exception) -> FormatError:
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return FormatError(f"{path}: cannot {verb}: {reason}")


def _read_json(path) -> dict:
    """Parse a UTF-8 file holding one JSON object; anything else raises FormatError."""
    return _parsed_json(_read_bytes(path), path)


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _cannot("read", path, exc) from None


def _parsed_json(raw: bytes, path) -> dict:
    """The JSON object in raw, a file's bytes, decoded as reading the file
    as UTF-8 text would; anything else raises FormatError naming path."""
    try:
        data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or too long an integer
        raise _cannot("read", path, exc) from None
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data


_REQUIRED = object()

_JSON_TYPE_NAMES = {None: "null", type(None): "null", bool: "a boolean", int: "an integer",
                    float: "a finite number", str: "a string", list: "a list", dict: "an object"}


def _json_field(obj: dict, key: str, kind, where: str, default=_REQUIRED):
    """obj[key], or default for an absent key, checked against kind;
    anything else raises FormatError naming where and key.

    kind is an alternative or a tuple of them: a JSON type (str, int, float
    for a finite number, list, dict, None for null) or a literal value. A
    list [kind] asks for a list of such items; an Enum class for a value of
    one of its members, which is returned.
    """
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise FormatError(f"{where} has no {key!r} key")
    return _checked(value, kind, where, key)


def _checked(value, kind, where: str, name: str):
    """value checked as _json_field checks a field; name names it in the error."""
    if type(value) is kind and kind is not float:  # the common case, one plain type
        return value
    if isinstance(kind, list):
        items = _checked(value, list, where, name)
        return [_checked(item, kind[0], where, f"{name}[{i}]") for i, item in enumerate(items)]
    if isinstance(kind, EnumMeta):
        try:
            return kind(value)  # member values are strings, so only a string passes
        except ValueError:
            alternatives = tuple(m.value for m in kind)
    else:
        alternatives = kind if isinstance(kind, tuple) else (kind,)
        if any(_matches(value, a) for a in alternatives):
            return value
    wanted = " or ".join(_JSON_TYPE_NAMES.get(a, repr(a)) for a in alternatives)
    shown = repr(value) if isinstance(value, (str, int, float)) else _JSON_TYPE_NAMES[type(value)]
    raise FormatError(f"{where}: {name!r} must be {wanted}, got {shown}")


def _matches(value, alternative) -> bool:
    if alternative is None:
        return value is None
    if alternative is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max  # false for NaN
    if isinstance(alternative, type):
        return type(value) is alternative
    return type(value) is type(alternative) and value == alternative


def _read_csv_rows(path, expected_header: Sequence[str]):
    """Yield (1-based row number, row) for each non-blank data row.

    The header must be expected_header, where a lower-case name matches in
    any case, and every row must have as many columns; unreadable or
    malformed files, bad headers and ragged rows raise FormatError.
    """
    expected = list(expected_header)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])  # an empty file has no columns
            if not _is_header(header, expected):
                raise FormatError(
                    f"{path}: row 1: header columns do not match: expected "
                    f"{','.join(expected)!r}, got {','.join(h.strip() for h in header)!r}"
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
        raise _cannot("read", path, exc) from None
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None


def _is_header(fields: Sequence[str], expected: Sequence[str]) -> bool:
    """Whether a header row's fields, stripped, are expected's names, where
    a lower-case name matches in any case."""
    return len(fields) == len(expected) and all(
        h == e or h.lower() == e for h, e in zip(map(str.strip, fields), expected))


def _read_cell_columns(path):
    """The rows of a language,feature,value CSV file (a stored source or a
    raw export), read by _read_csv_rows, as columns: each row's number,
    and per column a table of its distinct stripped strings, in order of
    first appearance, with each row's code into that table.

    A plain file takes a bulk path that gives the same columns without
    Python per row; any other file, and every error, takes the csv path."""
    return _bulk_cell_columns(path) or _csv_cell_columns(path)


def _csv_cell_columns(path):
    """_read_cell_columns through the csv module, one row at a time."""
    tables = langs, feats, texts = {}, {}, {}
    codes = lang, feat, value = array("i"), array("i"), array("i")
    rows = array("i")
    for row_num, (language, feature, text) in _read_csv_rows(path, CELL_HEADER):
        rows.append(row_num)
        lang.append(langs.setdefault(language.strip(), len(langs)))
        feat.append(feats.setdefault(feature.strip(), len(feats)))
        value.append(texts.setdefault(text.strip(), len(texts)))
    return (np.frombuffer(rows, np.int32), [list(table) for table in tables],
            [np.frombuffer(code, np.int32) for code in codes])


def _bulk_cell_columns(path):
    """_read_cell_columns for a plain file, None for any other.

    A plain file is a regular file in UTF-8 with no quote and no NUL,
    ends every line with the same one of LF or CRLF, has the cell header
    (by _read_csv_rows's rule), and holds at least one data row, each with
    exactly three fields of at most csv.field_size_limit() characters that
    do not all strip to empty. Without quotes the csv module splits such a
    line at its commas and nowhere else, so each line is row 2, 3, ... in
    order. The header line is checked first and sets the line end; the
    rows are then read in blocks of whole lines.
    """
    if not os.path.isfile(path):  # a pipe can be read once, so the csv path reads it
        return None
    limit, rows = csv.field_size_limit(), 0
    bound = 4 * (3 * limit + 4)  # bytes in the longest line of three fields within the limit
    raw = [defaultdict(count().__next__) for _ in CELL_HEADER]  # unstripped field -> code
    codes = [array("i") for _ in CELL_HEADER]
    try:
        with open(path, "rb") as fh:
            line = fh.readline(bound).decode("utf-8")
            sep = "\r\n" if line.endswith("\r\n") else "\n"
            if (not line.endswith("\n") or len(line) > limit or line.count("\r") != len(sep) - 1
                    or not _is_header(line[:-len(sep)].split(","), CELL_HEADER)):
                return None  # the csv path decides; the header rule admits no quote or NUL
            # a block ends at a line end or where the file ends; a line over
            # bound bytes comes back cut and fails the field checks below
            while block := fh.read(_READ_BLOCK_BYTES) + fh.readline(bound):
                text = block.decode("utf-8")
                crs = text.count("\r")
                if ('"' in text or "\0" in text or crs != text.count("\r\n")
                        or crs != (0 if sep == "\n" else text.count("\n"))):
                    return None  # a quote, a NUL, a lone CR or mixed line ends
                if not text.endswith(sep):
                    text += sep  # the file ends without a line end, or a long line was cut
                # each line end becomes a field of its own, so n lines of three
                # fields split into 4n fields with a line end at every fourth
                n = text.count("\n")
                fields = text.replace(sep, f",{sep},").split(",")
                del fields[-1]  # what follows the last line end
                if len(fields) != 4 * n or fields[3::4].count(sep) != n or (
                        len(text) > limit and max(map(len, fields)) > limit):
                    return None  # a line without exactly two commas, or a long field
                for k, table in enumerate(raw):
                    codes[k].frombytes(np.fromiter(map(table.__getitem__, fields[k::4]), np.int32,
                                                   n).tobytes())
                rows += n
    except (OSError, UnicodeDecodeError):
        return None
    tables = []
    for k, table in enumerate(raw):  # strip each distinct field once
        stripped = defaultdict(count().__next__)
        code = np.fromiter(map(stripped.__getitem__, map(str.strip, table)), np.int32, len(table))
        tables.append(list(stripped))
        codes[k] = code[np.frombuffer(codes[k], np.int32)]
    blank = [table.index("") if "" in table else -1 for table in tables]
    if not rows or min(blank) >= 0 and np.logical_and.reduce(
            [code == b for code, b in zip(codes, blank)]).any():
        return None  # header only, or a row whose fields all strip to empty
    return np.arange(2, rows + 2, dtype=np.int32), tables, codes


def export_matrix_csv(languages: Sequence[str], features, values: np.ndarray, path) -> None:
    """Write a language x feature matrix; NaN cells become the missing token."""
    names = [f.name if isinstance(f, FeatureDescriptor) else str(f) for f in features]
    texts = _rendered(values).tolist()
    with _replacing(Path(path)) as fh:
        writer = csv.writer(fh)
        writer.writerow(["language"] + names)
        writer.writerows([lang, *row] for lang, row in zip(languages, texts))


class _ParsedCells(dict):
    """Each good matrix cell string's value, NaN for the missing token. A
    string not yet seen is parsed as a cell of row row_num; a bad one raises
    there and is never stored."""

    def __init__(self, path):
        super().__init__()
        self.path, self.row_num = path, 0

    def __missing__(self, cell: str) -> float:
        v = parse_value(cell, self.path, self.row_num)
        self[cell] = value = np.nan if v is None else v
        return value


def load_matrix_values(path, languages: Sequence[str], feature_names: Sequence[str]) -> np.ndarray:
    """Read a matrix CSV back, validating it covers exactly the given grid.

    Used for the external-imputer exchange file, which must be fully
    dense, and for reloading exported matrices (missing tokens allowed).
    """
    values = np.full((len(languages), len(feature_names)), np.nan)
    lang_index = {g: i for i, g in enumerate(languages)}
    seen, parsed = set(), _ParsedCells(path)
    for row_num, row in _read_csv_rows(path, ["language", *feature_names]):
        lang = row[0].strip()
        if lang not in lang_index:
            raise FormatError(f"{path}: row {row_num}: unexpected language {lang!r}")
        if lang in seen:
            raise FormatError(f"{path}: row {row_num}: duplicate language {lang!r}")
        seen.add(lang)
        parsed.row_num = row_num
        values[lang_index[lang]] = np.fromiter(map(parsed.__getitem__, islice(row, 1, None)),
                                               np.float64, len(row) - 1)
    if seen != set(languages):
        missing = sorted(set(languages) - seen)
        raise FormatError(f"{path}: missing rows for languages {missing}")
    return values
