import csv
import errno
import json
import os
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from typodist import storage
from typodist.aggregate import AggregationMode, aggregate
from typodist.cli import main
from typodist.errors import ConflictingWrite, FormatError
from typodist.kb import (
    CellArrays,
    Category,
    FeatureDescriptor,
    FeatureOrigin,
    FeatureTensor,
    LanguageRecord,
    OriginKind,
    ResourceTier,
    TensorBatch,
)

from conftest import DATA_DIR, make_matrix, make_tensor


def test_tensor_round_trip(tmp_path, tiny_tensor):
    storage.save_tensor(tiny_tensor, tmp_path)
    loaded = storage.load_tensor(tmp_path)
    assert loaded.languages == tiny_tensor.languages
    assert loaded.features == tiny_tensor.features
    assert loaded.sources == tiny_tensor.sources
    assert sorted(loaded.iter_cells()) == sorted(tiny_tensor.iter_cells())


def test_round_trip_random_values(tmp_path):
    rng = np.random.default_rng(3)
    cells = [
        (f"l{i:03d}1234", f"S_F{j}", src, float(v))
        for i in range(4)
        for j in range(3)
        for src, v in [("SRC_A", rng.random()), ("SRC_B", rng.integers(0, 2))]
        if rng.random() < 0.7
    ]
    tensor = make_tensor(
        [f"l{i:03d}1234" for i in range(4)], [f"S_F{j}" for j in range(3)], cells
    )
    storage.save_tensor(tensor, tmp_path)
    loaded = storage.load_tensor(tmp_path)
    assert sorted(loaded.iter_cells()) == sorted(tensor.iter_cells())


class _DiskFullAfter:
    """A text file that takes `budget` characters, then fails like a full disk."""

    def __init__(self, fh, budget):
        self._fh, self._budget = fh, budget

    def write(self, text):
        if len(text) > self._budget:
            self._fh.write(text[: self._budget])
            self._fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._budget -= len(text)
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("failing", ["registries.json", "SRC_A.csv", "SRC_B.csv", "cells.bin"])
def test_interrupted_save_keeps_the_old_cells(tmp_path, monkeypatch, failing):
    tensor = make_tensor(["abcd1234"], ["S_F1", "S_F2"], [
        ("abcd1234", "S_F1", "SRC_A", 1.0),
        ("abcd1234", "S_F2", "SRC_B", 0.0),
    ])
    storage.save_tensor(tensor, tmp_path)
    old_cells = sorted(tensor.iter_cells())
    old_bytes = (tmp_path / failing).read_bytes()
    tensor.extend_with(TensorBatch(languages=[LanguageRecord("newl1234")], cells=[
        ("abcd1234", "S_F2", "SRC_A", 1.0),
        ("newl1234", "S_F1", "SRC_A", 1.0),
        ("newl1234", "S_F2", "SRC_B", 1.0),
    ]))

    temp_name = re.compile(rf"\.{re.escape(failing)}\.[0-9a-f]+\.tmp")  # each writer's own

    def open_failing_part_way(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _DiskFullAfter(fh, 30) if temp_name.fullmatch(Path(path).name) else fh

    monkeypatch.setattr(storage, "open", open_failing_part_way, raising=False)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        storage.save_tensor(tensor, tmp_path)
    monkeypatch.undo()

    assert (tmp_path / failing).read_bytes() == old_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "SRC_A.csv", "SRC_B.csv", "cells.bin", "registries.json"]
    loaded = storage.load_tensor(tmp_path)
    cells = sorted(loaded.iter_cells())
    assert set(old_cells) <= set(cells)
    if failing == "cells.bin":  # every CSV is new, the cache is the old save's
        assert cells == sorted(tensor.iter_cells())
    elif failing != "SRC_B.csv":  # files after the failing one keep their old content
        assert cells == old_cells
    # the old cache no longer matches the files, so the load read the CSVs
    (tmp_path / "cells.bin").unlink()
    _assert_same_tensor(loaded, storage.load_tensor(tmp_path))


def _assert_same_tensor(got, want):
    """got equals want: registries, version, and each column's key and
    value arrays bit for bit."""
    assert (got.languages, got.features, got.sources) == (want.languages, want.features,
                                                          want.sources)
    assert got.version == want.version
    for a, b in zip(got.snapshot().columns, want.snapshot().columns, strict=True):
        assert a.key.dtype == b.key.dtype and a.key.tobytes() == b.key.tobytes()
        assert a.value.dtype == b.value.dtype and a.value.tobytes() == b.value.tobytes()


def test_two_writers_to_one_target_leave_one_writers_whole_content(tmp_path):
    target = tmp_path / "target"
    target.write_text("old\n")
    a, b = storage._replacing(target), storage._replacing(target)
    a.__enter__().write("A-full-content\n")
    fb = b.__enter__()
    fb.write("B-part")
    a.__exit__(None, None, None)
    assert target.read_text() == "A-full-content\n"
    fb.write("-rest\n")
    b.__exit__(None, None, None)  # the last rename wins
    assert target.read_text() == "B-part-rest\n"
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


def test_concurrent_writers_to_one_target_each_publish_whole_content(tmp_path):
    target, errors = tmp_path / "target", []
    contents = [f"writer {k}: " + str(k) * 5000 + "\n" for k in range(6)]

    def write(content):
        try:
            for _ in range(20):
                with storage._replacing(target) as fh:
                    for start in range(0, len(content), 700):  # many small writes
                        fh.write(content[start:start + 700])
                assert target.read_text() in contents
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(c,)) for c in contents]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert target.read_text() in contents
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


def test_dialect_parent_survives_round_trip(tmp_path):
    tensor = make_tensor(
        [LanguageRecord("pare1234"), LanguageRecord("dial1234", parent="pare1234")],
        ["S_F1"],
        [("pare1234", "S_F1", "SRC_A", 1.0)],
    )
    storage.save_tensor(tensor, tmp_path)
    loaded = storage.load_tensor(tmp_path)
    assert loaded.language("dial1234").parent == "pare1234"


def test_missing_registry_errors(tmp_path):
    with pytest.raises(FormatError):
        storage.load_tensor(tmp_path / "nope")


def test_bad_rows_report_row_number(tmp_path, tiny_tensor):
    storage.save_tensor(tiny_tensor, tmp_path)
    victim = tmp_path / "SRC_A.csv"
    victim.write_text("language,feature,value\npare1234,S_F1,1\npare1234,S_F2\n")
    with pytest.raises(FormatError, match="row 3"):
        storage.load_tensor(tmp_path)
    victim.write_text("language,feature,value\npare1234,S_F1,maybe\n")
    with pytest.raises(FormatError, match="row 2"):
        storage.load_tensor(tmp_path)
    victim.write_text("language,feature,value\npare1234,S_F1,1.5\n")
    with pytest.raises(FormatError, match="outside"):
        storage.load_tensor(tmp_path)
    victim.write_text("lang,feat,val\n")
    with pytest.raises(FormatError, match="header"):
        storage.load_tensor(tmp_path)


def test_explicit_missing_rows_are_skipped(tmp_path, tiny_tensor):
    storage.save_tensor(tiny_tensor, tmp_path)
    with open(tmp_path / "SRC_B.csv", "a", encoding="utf-8") as fh:
        fh.write("othe1234,P_F1,--\n")
    loaded = storage.load_tensor(tmp_path)
    assert loaded.get_cell("othe1234", "P_F1", "SRC_B") is None


def test_a_stored_negative_zero_loads_as_the_bits_extend_with_writes(tmp_path, tiny_tensor):
    written = make_tensor(["abcd1234"], ["S_F1"], [("abcd1234", "S_F1", "SRC_A", -0.0)])
    want = written.get_cell("abcd1234", "S_F1", "SRC_A")
    storage.save_tensor(tiny_tensor, tmp_path)
    (tmp_path / "SRC_A.csv").write_text("language,feature,value\npare1234,S_F1,-0\n")
    got = storage.load_tensor(tmp_path).get_cell("pare1234", "S_F1", "SRC_A")
    assert np.float64(got).tobytes() == np.float64(want).tobytes() == np.float64(0.0).tobytes()


def test_a_missing_row_naming_an_unregistered_language_is_rejected(tmp_path, capsys):
    storage.save_tensor(make_tensor(["abcd1234"], ["P_F1"], [("abcd1234", "P_F1", "WALS", 1.0)]),
                        tmp_path)
    with open(tmp_path / "WALS.csv", "a", encoding="utf-8", newline="") as fh:
        fh.write("zzzz9999,P_NOPE,--\n")
    with pytest.raises(FormatError, match=r"WALS\.csv: row 3: unregistered language 'zzzz9999'$"):
        storage.load_tensor(tmp_path)
    assert main(["eval", "coverage", "--data", str(tmp_path)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "FormatError" and "WALS.csv: row 3: " in error["message"]


def test_unsafe_source_name_rejected(tmp_path):
    tensor = make_tensor(["abcd1234"], ["S_F1"], [("abcd1234", "S_F1", "../evil", 1.0)])
    with pytest.raises(FormatError):
        storage.save_tensor(tensor, tmp_path)


def test_source_name_with_a_trailing_newline_rejected(tmp_path):
    tensor = make_tensor(["abcd1234"], ["S_F1"], [("abcd1234", "S_F1", "evil\n", 1.0)])
    with pytest.raises(FormatError, match="not filesystem-safe"):
        storage.save_tensor(tensor, tmp_path)


def test_load_rejects_a_source_name_outside_the_directory_before_reading_any_csv(
        tmp_path, tiny_tensor, monkeypatch):
    kb = tmp_path / "kb"
    storage.save_tensor(tiny_tensor, kb)
    path = kb / storage.REGISTRY_FILE
    registries = json.loads(path.read_text())
    registries["sources"].append("../outside")
    path.write_text(json.dumps(registries))
    (tmp_path / "outside.csv").write_text("language,feature,value\npare1234,S_F1,1\n")
    read = []
    real = storage._read_cell_columns

    def recording(csv_path):
        read.append(Path(csv_path))
        return real(csv_path)

    monkeypatch.setattr(storage, "_read_cell_columns", recording)
    with pytest.raises(FormatError, match=r"registries\.json: source name '\.\./outside'"):
        storage.load_tensor(kb)
    assert read == []
    # a name that passes the check is read as before
    registries["sources"][-1] = "inside"
    path.write_text(json.dumps(registries))
    (kb / "inside.csv").write_text("language,feature,value\npare1234,S_F1,1\n")
    assert storage.load_tensor(kb).get_cell("pare1234", "S_F1", "inside") == 1.0
    assert kb / "inside.csv" in read and tmp_path / "outside.csv" not in read


def test_load_rejects_a_parent_that_is_not_an_earlier_language(tmp_path):
    tensor = make_tensor(
        [LanguageRecord("pare1234"), LanguageRecord("dial1234", parent="pare1234")],
        ["S_F1"],
        [("pare1234", "S_F1", "SRC_A", 1.0)],
    )
    storage.save_tensor(tensor, tmp_path)
    path = tmp_path / storage.REGISTRY_FILE
    registries = json.loads(path.read_text())
    # the parent exists, but after its dialect
    registries["languages"].reverse()
    path.write_text(json.dumps(registries))
    with pytest.raises(FormatError, match="language entry 'dial1234': parent 'pare1234'"):
        storage.load_tensor(tmp_path)


def test_matrix_export_round_trip(tmp_path):
    values = np.array([[1.0, np.nan, 0.25], [0.0, 1.0, np.nan]])
    matrix = make_matrix(
        AggregationMode.AVERAGE, ["aaaa1234", "bbbb1234"], ["S_F1", "S_F2", "S_F3"], values
    )
    path = tmp_path / "matrix.csv"
    storage.export_matrix_csv(matrix.languages, matrix.features, matrix.values, path)
    loaded = storage.load_matrix_values(path, matrix.languages, [f.name for f in matrix.features])
    assert np.array_equal(np.isnan(loaded), np.isnan(values))
    assert np.array_equal(loaded[~np.isnan(values)], values[~np.isnan(values)])


def _export_matrix_as_before(languages, features, values, path):
    """The per-cell writer export_matrix_csv replaced."""
    names = [f.name if isinstance(f, FeatureDescriptor) else str(f) for f in features]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["language"] + names)
        for i, lang in enumerate(languages):
            row = [lang]
            for j in range(len(names)):
                v = values[i, j]
                row.append(storage.MISSING_TOKEN if np.isnan(v) else storage.format_value(v))
            writer.writerow(row)


def test_matrix_export_matches_the_per_cell_writer(tmp_path):
    rng = np.random.default_rng(41)
    special = [np.nan, -0.0, 0.0, 0.5, 1.0, 5e-324, 1e-300, 2.0**-40, 1 / 3]
    for trial in range(40):
        n, k = (int(rng.integers(0 if trial == 0 else 1, 12)) for _ in range(2))
        values = np.where(rng.random((n, k)) < 0.5, rng.choice(special, size=(n, k)),
                          rng.random((n, k)))
        if trial % 3 == 0:
            values = np.round(values * 4) / 4  # few distinct values, some integral
        languages = [f"l{i:03d}1234" for i in range(n)]
        features = [f"S_F{j}" for j in range(k)]
        if trial % 2:
            features = [FeatureDescriptor(name, Category.SYNTACTIC) for name in features]
        got, want = tmp_path / f"got{trial}.csv", tmp_path / f"want{trial}.csv"
        storage.export_matrix_csv(languages, features, values, got)
        _export_matrix_as_before(languages, features, values, want)
        assert got.read_bytes() == want.read_bytes()


def test_matrix_load_validates_grid(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("language,S_F1\naaaa1234,1\n")
    with pytest.raises(FormatError, match="columns do not match"):
        storage.load_matrix_values(path, ["aaaa1234"], ["S_F1", "S_F2"])
    with pytest.raises(FormatError, match="missing rows"):
        storage.load_matrix_values(path, ["aaaa1234", "bbbb1234"], ["S_F1"])
    path.write_text("language,S_F1\naaaa1234,1\naaaa1234,0\n")
    with pytest.raises(FormatError, match="duplicate"):
        storage.load_matrix_values(path, ["aaaa1234"], ["S_F1"])


@pytest.mark.parametrize("rows, error", [
    ("aaaa1234,1,maybe\nbbbb1234,0,1", r"row 2: bad value 'maybe'"),
    ("aaaa1234,1,0\nbbbb1234,1.5,0", r"row 3: value 1\.5 outside \[0, 1\]"),
    ("aaaa1234,1,0\nzzzz9999,0,0", r"row 3: unexpected language 'zzzz9999'"),
    ("aaaa1234,1,0\naaaa1234,0,0", r"row 3: duplicate language 'aaaa1234'"),
    ("aaaa1234,1,--", r"missing rows for languages \['bbbb1234'\]"),
    # the first bad row in file order, whatever is wrong with it
    ("aaaa1234,1, x \nzzzz9999,0,0", r"row 2: bad value 'x'"),
    ("zzzz9999,0,0\naaaa1234,1,x", r"row 2: unexpected language 'zzzz9999'"),
    ("aaaa1234,1,0\nzzzz9999,x,0", r"row 3: unexpected language 'zzzz9999'"),
    ("aaaa1234,x,-1\nbbbb1234,0,0", r"row 2: bad value 'x'"),
    ("aaaa1234,0,2\nbbbb1234,0", r"row 2: value 2\.0 outside"),
    ("aaaa1234,0,1\nbbbb1234,0", r"row 3: expected 3 columns, got 2"),
])
def test_matrix_load_reports_the_first_bad_row(tmp_path, rows, error):
    path = tmp_path / "m.csv"
    path.write_text(f"language,S_F1,S_F2\n{rows}\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {error}"):
        storage.load_matrix_values(path, ["aaaa1234", "bbbb1234"], ["S_F1", "S_F2"])


def _load_matrix_values_per_cell(path, languages, feature_names):
    """The per-cell reader that load_matrix_values replaced; the oracle."""
    values = np.full((len(languages), len(feature_names)), np.nan)
    lang_index = {g: i for i, g in enumerate(languages)}
    seen = set()
    for row_num, row in storage._read_csv_rows(path, ["language", *feature_names]):
        lang = row[0].strip()
        if lang not in lang_index:
            raise FormatError(f"{path}: row {row_num}: unexpected language {lang!r}")
        if lang in seen:
            raise FormatError(f"{path}: row {row_num}: duplicate language {lang!r}")
        seen.add(lang)
        for j, cell in enumerate(row[1:]):
            v = storage.parse_value(cell, path, row_num)
            if v is not None:
                values[lang_index[lang], j] = v
    if seen != set(languages):
        missing = sorted(set(languages) - seen)
        raise FormatError(f"{path}: missing rows for languages {missing}")
    return values


_GOOD_CELLS = ["0", "1", "0.5", "0.25", "--", " 0.5 ", "-0", "1e-3", "0.125", " -- ", "1.0"]
_BAD_CELLS = ["abc", "1.5", "-0.1", "nan", "inf", "", "0,5", '"0.5"', "0.5x"]


def _mutated_matrix_text(rng, languages, names):
    """A matrix file over languages x names in which rows and cells may be broken."""
    def pick(options):
        return options[int(rng.integers(len(options)))]

    header = ["language", *names] if rng.random() > 0.03 else ["language", *names[::-1], "S_X"]
    lines, written = [",".join(header)], []
    for lang in [languages[i] for i in rng.permutation(len(languages))]:
        r = rng.random()
        if r < 0.04:
            continue  # a missing row
        if r < 0.07:
            lang = "zzzz9999"
        elif r < 0.10 and written:
            lang = pick(written)  # a duplicate
        elif r < 0.13:
            lang = f" {lang} "  # padded, still that language
        written.append(lang.strip())
        cells = [pick(_BAD_CELLS if rng.random() < 0.02 else _GOOD_CELLS) for _ in names]
        lines.append(",".join([lang, *cells, *(["0"] if rng.random() < 0.02 else [])]))
        if rng.random() < 0.03:
            lines.append("")  # a blank line is skipped
    end = "\r\n" if rng.random() < 0.2 else "\n"
    return end.join(lines) + (end if rng.random() < 0.7 else "")


def _outcome_of(read, path, languages, names):
    try:
        return read(path, languages, names).tobytes()
    except FormatError as exc:
        return type(exc).__name__, str(exc)


_MATRIX_ERRORS = ("bad value", "outside", "unexpected language", "duplicate language",
                  "missing rows", "columns, got", "header columns")


def test_matrix_load_equals_the_per_cell_reader_on_mutated_files(tmp_path):
    """Values (bytes, NaN included) or error type and message, on seeded files."""
    rng = np.random.default_rng(61)
    path, seen = tmp_path / "m.csv", set()
    for trial in range(400):
        n, k = int(rng.integers(1, 8)), int(rng.integers(0 if trial < 5 else 1, 6))
        languages = [f"l{i:03d}1234" for i in range(n)]
        names = [f"S_F{j}" for j in range(k)]
        path.write_bytes(_mutated_matrix_text(rng, languages, names).encode())
        want = _outcome_of(_load_matrix_values_per_cell, path, languages, names)
        got = _outcome_of(storage.load_matrix_values, path, languages, names)
        assert got == want, path.read_text()
        seen.update(kind for kind in _MATRIX_ERRORS if isinstance(want, tuple) and kind in want[1])
        seen.add("ok" if isinstance(want, bytes) else "error")
    assert seen == {"ok", "error", *_MATRIX_ERRORS}


def test_format_value_round_trips():
    rng = np.random.default_rng(5)
    for v in [0.0, 1.0, 0.5, 2 / 3, *rng.random(50)]:
        assert float(storage.format_value(v)) == v


def test_shared_readers_turn_bad_files_into_format_errors(tmp_path):
    from typodist.ingest import load_ingest_schema, load_resolution_table, load_rules

    with pytest.raises(FormatError, match="cannot read"):
        load_rules(tmp_path / "nope.csv")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("external_id,glottocode,retired_flag\nfr\xe9,stan1290,0\n".encode("latin-1"))
    with pytest.raises(FormatError, match="cannot read"):
        load_resolution_table(latin1)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("external_id,glottocode,retired_flag\neng,stan1293\n")
    with pytest.raises(FormatError, match="row 2: expected 3 columns, got 2"):
        load_resolution_table(ragged)
    broken = tmp_path / "schema.json"
    broken.write_text('{"features": ')
    with pytest.raises(FormatError, match="cannot read"):
        load_ingest_schema(broken)


def test_bad_registry_entries_name_the_registry_file(tmp_path, tiny_tensor):
    storage.save_tensor(tiny_tensor, tmp_path)
    path = tmp_path / storage.REGISTRY_FILE
    good = path.read_text()
    path.write_text(good.replace('"tier": "Unknown"', '"tier": "Bogus"', 1))
    with pytest.raises(FormatError, match="registries.json: language entry"):
        storage.load_tensor(tmp_path)
    path.write_text(good.replace('"category": "syntactic"', '"kategory": "syntactic"', 1))
    with pytest.raises(FormatError, match="registries.json: feature entry has no 'category'"):
        storage.load_tensor(tmp_path)


def _language_field_by_field(obj, where):
    """The registry language reader that checks every field with _json_field; the oracle."""
    return LanguageRecord(
        glottocode=storage._json_field(obj, "glottocode", str, where),
        iso639_3=storage._json_field(obj, "iso639_3", (str, None), where, None),
        name=storage._json_field(obj, "name", str, where, ""),
        parent=storage._json_field(obj, "parent", (str, None), where, None),
        tier=storage._json_field(obj, "tier", ResourceTier, where, "Unknown"),
    )


def _feature_field_by_field(obj, where):
    """The registry feature reader that checks every field with _json_field; the oracle."""
    origin = storage._json_field(obj, "origin", (dict, None), where, None) or {}
    in_origin = f"{where} origin"
    return FeatureDescriptor(
        name=storage._json_field(obj, "name", str, where),
        category=storage._json_field(obj, "category", Category, where),
        origin=FeatureOrigin(
            kind=storage._json_field(origin, "kind", OriginKind, in_origin, "native"),
            parent_feature=storage._json_field(origin, "parent_feature", (str, None), in_origin,
                                               None),
            level=storage._json_field(origin, "level", (str, None), in_origin, None),
        ),
    )


def _entry_outcome(read, obj):
    try:
        return read(obj, "registries.json: entry")
    except FormatError as exc:
        return f"FormatError: {exc}"


#: a JSON value of each kind, and values a field might wrongly hold
_JSON_VALUES = [None, True, False, 0, 1, 1.5, "", " ", "x", [], ["a"], {}, {"kind": "native"}]


def test_registry_entries_read_as_the_field_by_field_reader_does():
    language = {"glottocode": "abcd1234", "iso639_3": "abc", "name": "A", "parent": "pare1234",
                "tier": "HRL"}
    feature = {"name": "S_F_A", "category": "syntactic",
               "origin": {"kind": "binarized_nominal", "parent_feature": "S_F", "level": "A"}}
    cases = []
    for good, read, oracle, values in (
            (language, storage._language_from_json, _language_field_by_field,
             _JSON_VALUES + ["Unknown", "MRL", "hrl", "abcd1234"]),
            (feature, storage._feature_from_json, _feature_field_by_field,
             _JSON_VALUES + ["native", "binarized_ordinal", "phonological", "S_X", "P_X"])):
        for key in good:
            cases.append((read, oracle, {k: v for k, v in good.items() if k != key}))
            cases += [(read, oracle, dict(good, **{key: v})) for v in values]
        if "origin" in good:
            for key in good["origin"]:
                cases.append((read, oracle, dict(good, origin={
                    k: v for k, v in good["origin"].items() if k != key})))
                cases += [(read, oracle, dict(good, origin=dict(good["origin"], **{key: v})))
                          for v in values]
        cases.append((read, oracle, dict(good, extra=1)))
    outcomes = [_entry_outcome(read, obj) for read, _oracle, obj in cases]
    assert outcomes == [_entry_outcome(oracle, obj) for _read, oracle, obj in cases]
    errors = sum(isinstance(o, str) for o in outcomes)
    assert 20 < errors < len(outcomes) - 10  # both outcomes are exercised


def test_a_registry_name_listed_twice_names_the_registry_file(tmp_path, tiny_tensor):
    storage.save_tensor(tiny_tensor, tmp_path)
    path = tmp_path / storage.REGISTRY_FILE
    good = json.loads(path.read_text())
    source = good["sources"][0]
    path.write_text(json.dumps(dict(good, sources=good["sources"] + [source])))
    with pytest.raises(FormatError, match=f"registries.json: source '{source}' is listed twice"):
        storage.load_tensor(tmp_path)
    language = dict(good["languages"][0], name="Other")
    path.write_text(json.dumps(dict(good, languages=good["languages"] + [language])))
    with pytest.raises(FormatError, match="registries.json: language .* different metadata"):
        storage.load_tensor(tmp_path)


def _write_cells_as_before(tensor, directory):
    """The per-cell writer save_tensor replaced: rows from iter_cells, sorted."""
    rows_by_source = {s: [] for s in tensor.sources}
    for lang, feat, src, value in tensor.iter_cells():
        rows_by_source[src].append((lang, feat, storage.format_value(value)))
    for src, rows in rows_by_source.items():
        rows.sort()
        with open(Path(directory) / f"{src}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["language", "feature", "value"])
            writer.writerows(rows)


def _random_tensor(rng):
    """Cells written in shuffled order, every third one by a second write."""
    langs = [f"l{i:03d}1234" for i in rng.permutation(int(rng.integers(1, 15)))]
    feats = [f"{p}F{j}" for j in range(int(rng.integers(1, 9))) for p in ("S_", "P_")]
    srcs = ["SRC_B", "SRC_A", "SRC.c", "src-d"][: int(rng.integers(1, 5))]
    cells = [(l, f, s, float(rng.choice([0.0, 1.0, 0.5, rng.random()])))
             for l in langs for f in feats for s in srcs if rng.random() < 0.4]
    cells = [cells[i] for i in rng.permutation(len(cells))] or [(langs[0], feats[0], srcs[0], 1.0)]
    tensor = make_tensor(langs, feats, [c for i, c in enumerate(cells) if i % 3],
                         sources=sorted({c[2] for c in cells}))
    tensor.extend_with(TensorBatch(cells=cells[::3]))
    return tensor


#: glottocodes the csv module quotes (a comma, a quote, a line end) or
#: writes bare (non-ASCII, value-like text)
_AWKWARD_NAMES = ["a,b", 'q"uo"te', "line\nend", "cr\rlf", "\u00f1a\u00f1u", "--", "-0", "0.1+0.2"]


def _awkward_tensor():
    """Every awkward name as a language, with values -0 and 0.1 + 0.2 as
    well as 0 and 1."""
    langs = _AWKWARD_NAMES
    feats = [f"S_F{j}" for j in range(3)]
    values = [-0.0, 0.1 + 0.2, 1.0, 0.0]
    cells = [(lang, feat, src, values[(i + j + k) % 4]) for i, lang in enumerate(langs)
             for j, feat in enumerate(feats) for k, src in enumerate(["SRC_A", "SRC_B"])
             if (i + j) % 3]
    return make_tensor(langs, feats, cells)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_save_load_save_is_byte_identical_and_keeps_the_old_rows(tmp_path, tiny_tensor):
    rng = np.random.default_rng(17)
    tensors = [tiny_tensor, _awkward_tensor()] + [_random_tensor(rng) for _ in range(25)]
    for k, tensor in enumerate(tensors):
        first, second, before = tmp_path / f"a{k}", tmp_path / f"b{k}", tmp_path / f"c{k}"
        storage.save_tensor(tensor, first)
        loaded = storage.load_tensor(first)
        storage.save_tensor(loaded, second)
        assert _files(second) == _files(first)
        before.mkdir()
        _write_cells_as_before(tensor, before)
        saved = _files(first)
        assert {name: saved[name] for name in _files(before)} == _files(before)
        for mode in AggregationMode:
            assert np.array_equal(aggregate(loaded, mode).values, aggregate(tensor, mode).values,
                                  equal_nan=True)


def test_names_that_a_load_would_change_are_rejected_and_the_rest_round_trip(tmp_path):
    # a load strips every field, so a padded glottocode would not read back;
    # "$" matched before a final newline, so "S_F\n" passed the name check
    for glottocode in [" a,b", "a,b ", "\u00a0a", "a\n", "\ta"]:
        with pytest.raises(FormatError, match="leading or trailing whitespace"):
            LanguageRecord(glottocode)
    for name in ["S_F\n", "S_F\r\n", "S_F ", " S_F"]:
        with pytest.raises(FormatError, match="may contain only"):
            FeatureDescriptor(name, Category.SYNTACTIC)
    tensor = _awkward_tensor()
    storage.save_tensor(tensor, tmp_path)
    through_cache = storage.load_tensor(tmp_path)
    (tmp_path / storage.CACHE_FILE).unlink()
    for loaded in through_cache, storage.load_tensor(tmp_path):
        assert (loaded.languages, loaded.features) == (tensor.languages, tensor.features)
        assert sorted(loaded.iter_cells()) == sorted(tensor.iter_cells())


def test_load_reports_the_first_bad_row_in_file_order(tmp_path, tiny_tensor):
    storage.save_tensor(tiny_tensor, tmp_path)
    (tmp_path / "SRC_A.csv").write_text(
        "language,feature,value\npare1234,S_NOPE,1\nzzzz9999,S_F1,1\n")
    (tmp_path / "SRC_B.csv").write_text("language,feature,value\npare1234,S_F1,7\n")
    with pytest.raises(FormatError, match=r"SRC_A\.csv: row 2: unregistered feature 'S_NOPE'$"):
        storage.load_tensor(tmp_path)
    (tmp_path / "SRC_A.csv").write_text(
        "language,feature,value\npare1234,S_F1,1\nzzzz9999,S_F1,1\npare1234,S_NOPE,1\n")
    with pytest.raises(FormatError, match=r"SRC_A\.csv: row 3: unregistered language 'zzzz9999'$"):
        storage.load_tensor(tmp_path)
    (tmp_path / "SRC_A.csv").write_text("language,feature,value\npare1234,S_F1,1\n")
    with pytest.raises(FormatError, match=r"SRC_B\.csv: row 2: value 7\.0 outside"):
        storage.load_tensor(tmp_path)


def test_load_keeps_the_last_of_repeated_rows(tmp_path, tiny_tensor):
    storage.save_tensor(tiny_tensor, tmp_path)
    (tmp_path / "SRC_A.csv").write_text(
        "language,feature,value\npare1234,S_F1,1\nothe1234,S_F1,0\npare1234,S_F1,0.5\n")
    loaded = storage.load_tensor(tmp_path)
    assert loaded.get_cell("pare1234", "S_F1", "SRC_A") == 0.5
    assert loaded.cell_count() == 2 + 3  # SRC_B keeps its three cells


def _load_as_before(directory):
    """The per-row loader load_tensor replaced, with a missing row's names
    checked as well: the cells it stores, by (language, feature, source)."""
    registries = json.loads((directory / storage.REGISTRY_FILE).read_text())
    langs = {obj["glottocode"] for obj in registries["languages"]}
    feats = {obj["name"] for obj in registries["features"]}
    cells = {}
    for src in registries["sources"]:
        path = directory / f"{src}.csv"
        if not path.exists():
            continue
        for row_num, row in storage._read_csv_rows(path, storage.CELL_HEADER):
            value = storage.parse_value(row[2], path, row_num)
            lang, feat = row[0].strip(), row[1].strip()
            if lang not in langs or feat not in feats:
                kind, name = ("language", lang) if lang not in langs else ("feature", feat)
                raise FormatError(f"{path}: row {row_num}: unregistered {kind} {name!r}")
            if value is not None:
                cells[(lang, feat, src)] = value
    return cells


def test_load_matches_the_per_row_loader_on_random_files(tmp_path):
    outcomes = []
    for seed in range(60):
        rng = np.random.default_rng([seed, 29])
        directory = tmp_path / f"kb{seed}"
        tensor = _random_tensor(rng)
        storage.save_tensor(tensor, directory)
        langs = [r.glottocode for r in tensor.languages]
        feats = [f.name for f in tensor.features]
        bad_rate = float(rng.choice([0.0, 0.05, 0.2]))
        for src in tensor.sources:
            path = directory / f"{src}.csv"
            lines = path.read_text().splitlines()
            for _ in range(int(rng.integers(0, 8))):
                lang, feat = langs[int(rng.integers(len(langs)))], feats[int(rng.integers(len(feats)))]
                value = str(rng.choice(["0", "1", "0.25", "--", " 1 ", "-0", "", "--"]))
                if rng.random() < bad_rate:
                    kind = int(rng.integers(3))
                    lang = "zzzz9999" if kind == 0 else lang
                    feat = "S_NOPE" if kind == 1 else feat
                    value = str(rng.choice(["maybe", "1.5", "nan", "-0.5"])) if kind == 2 else value
                line = "" if value == "" else f" {lang},{feat} ,{value}"
                lines.insert(int(rng.integers(1, len(lines) + 1)), line)
            path.write_text("\n".join(lines) + "\n")
        want, got = _outcome(lambda: _load_as_before(directory)), _outcome(
            lambda: storage.load_tensor(directory))
        outcomes.append(isinstance(want, Exception))
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert {(l, f, s): v for l, f, s, v in got.iter_cells()} == want
    assert 10 < sum(outcomes) < 50  # both outcomes, often


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and message
        return exc


#: field texts for the cell-reader tests: plain, padded, non-ASCII, and
#: characters str.splitlines breaks at and the csv module does not
_CELL_TEXTS = ["abcd1234", "S_F1", "1", "0", "--", " 0.5 ", "ñañu", "\xa0pad\xa0",
               "in side", " edge", "x\x0by", "\x1c", "\x85", "\t", ""]

_MUTATIONS = {
    "blank line": lambda rng, lines: _insert(rng, lines, ""),
    "whitespace line": lambda rng, lines: _insert(rng, lines, " \t "),
    "comma-only line": lambda rng, lines: _insert(rng, lines, " , ,"),
    "short row": lambda rng, lines: _insert(rng, lines, "abcd1234,S_F1"),
    "long row": lambda rng, lines: _insert(rng, lines, "abcd1234,S_F1,1,"),
    "short and long row": lambda rng, lines: _insert(
        rng, _insert(rng, lines, "abcd1234,S_F1"), "abcd1234,S_F1,1,"),
    "quoted field": lambda rng, lines: _insert(rng, lines, '"ab,cd",S_F1,1'),
    "quoted name": lambda rng, lines: _insert(rng, lines, '"abcd1234", S_F1,1'),
    "stray quote": lambda rng, lines: _insert(rng, lines, 'ab"cd,S_F1,1'),
    "NUL": lambda rng, lines: _insert(rng, lines, "ab\0cd,S_F1,1"),
    "lone CR": lambda rng, lines: _insert(rng, lines, "abcd1234,S_F1,1\rabcd1234,S_F2,0"),
    "CRLF in one line": lambda rng, lines: _insert(rng, lines, "abcd1234,S_F1,1\r"),
    "BOM": lambda rng, lines: [("﻿" + lines[0]) if lines else "﻿", *lines[1:]],
    "BOM in a field": lambda rng, lines: _insert(rng, lines, "﻿abcd1234,S_F1,1"),
    "upper-case header": lambda rng, lines: [" Language ,FEATURE,value", *lines[1:]],
    "bad header": lambda rng, lines: ["language,feature", *lines[1:]],
    "header only": lambda rng, lines: lines[:1],
    "quote in header": lambda rng, lines: ['language,"feature",value', *lines[1:]],
    "NUL in header": lambda rng, lines: ["language,feature,value\0", *lines[1:]],
    "lone CR in header": lambda rng, lines: ["language,feature\r,value", *lines[1:]],
    # a header line end unlike the rows' when the file's line end is the other one
    "CRLF header": lambda rng, lines: ["\r\n".join(lines[:2]), *lines[2:]],
    "LF header": lambda rng, lines: ["\n".join(lines[:2]), *lines[2:]],
    "empty": lambda rng, lines: [],
}


def _insert(rng, lines, line):
    # appended when an earlier mutation left no lines to insert among
    return [*lines, line] if rng.random() < 0.3 or not lines else [
        *lines[:(k := int(rng.integers(1, len(lines) + 1)))], line, *lines[k:]]


def _cell_lines(rng, n):
    """A header and n rows; a row is blank only where a mutation makes it so."""
    texts = np.array(_CELL_TEXTS, dtype=object)
    named = texts[[bool(text.strip()) for text in _CELL_TEXTS]]
    columns = rng.choice(named, n), rng.choice(texts, n), rng.choice(texts, n)
    return ["language,feature,value", *map(",".join, zip(*columns))]


def _same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return (isinstance(got, tuple) and got[1] == want[1]
            and all(g.dtype == w.dtype and np.array_equal(g, w)
                    for g, w in zip([got[0], *got[2]], [want[0], *want[2]])))


@pytest.mark.parametrize("block", [1, 2, 5, 64, None])
def test_cell_reader_matches_the_csv_path_on_mutated_files(tmp_path, monkeypatch, block):
    if block is not None:  # blocks of part of a line or a few lines, some cut inside a CRLF
        monkeypatch.setattr(storage, "_READ_BLOCK_BYTES", block)
    bulk, longest = [], 0
    for seed in range(150):
        rng = np.random.default_rng([seed, 23])
        lines = _cell_lines(rng, int(rng.integers(1, 30)) if seed % 10 else 6000)
        kinds = rng.choice(list(_MUTATIONS), int(rng.choice([0, 0, 1, 2])), replace=False)
        for kind in kinds:
            lines = _MUTATIONS[kind](rng, lines)
        end = str(rng.choice(["\n", "\r\n"]))
        text = end.join(lines) + (end if rng.random() < 0.8 else "")
        if rng.random() < 0.1 and end in text:  # mixed line ends
            text = text.replace(end, "\r\n" if end == "\n" else "\n", 1)
        path = tmp_path / f"cells{seed}.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(lambda: storage._csv_cell_columns(path))
        assert _same_outcome(_outcome(lambda: storage._read_cell_columns(path)), want), (
            seed, kinds, text[:200])
        bulk.append(storage._bulk_cell_columns(path) is not None)
        longest = max(longest, len(text) if bulk[-1] else 0)
    assert 40 < sum(bulk) < 140  # both paths, often
    assert longest > storage._READ_BLOCK_BYTES  # some file read in several blocks


@pytest.mark.parametrize("excess", [0, 1])
def test_cell_reader_matches_the_csv_path_at_the_field_size_limit(tmp_path, excess):
    long = "x" * (csv.field_size_limit() + excess)
    # a line over the bulk reader's line bound, 4 x (3 x limit + 4) bytes:
    # it reads a part of it, which must not pass for a line
    over = f"language,feature,value\nabcd1234,S_F1,1\nabcd1234,S_F2,{long * 13}\nabcd1234,S_F3,1\n"
    for text in [f"language,feature,value\nabcd1234,{long},1\n",
                 f"language,feature,value\r\n{long},S_F1,1\r\n",
                 f"language,feature,{' ' * (len(long) - 5)}value\nabcd1234,S_F1,1\n", over]:
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = _outcome(lambda: storage._csv_cell_columns(path))
        assert _same_outcome(_outcome(lambda: storage._read_cell_columns(path)), want)
        assert isinstance(want, FormatError) == (bool(excess) or text is over)
    assert storage._bulk_cell_columns(path) is None  # `over`, the last file


def test_cell_reader_reads_a_pipe_once(tmp_path):
    # a bulk read that declined a pipe would leave the csv path nothing to read
    text = 'language,feature,value\n"abcd1234",S_F1,1\n'
    (tmp_path / "quoted.csv").write_text(text)
    read, write = os.pipe()
    with os.fdopen(write, "w") as fh:
        fh.write(text)
    try:
        got = storage._read_cell_columns(f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert _same_outcome(got, storage._csv_cell_columns(tmp_path / "quoted.csv"))


def test_cell_reader_takes_the_bulk_path_for_plain_files(tmp_path):
    # exports and save_tensor outputs; a reader that declined them all
    # would still give the right columns, only slower
    ingest_data = DATA_DIR / "ingest"
    assert storage._bulk_cell_columns(ingest_data / "a.csv") is None  # it holds an empty line
    paths = [ingest_data / name for name in ("a_update.csv", "b.csv", "c.csv")]
    paths += sorted(ingest_data.glob("step*/*.csv"))
    rng = np.random.default_rng(5)
    for k in range(5):
        storage.save_tensor(_random_tensor(rng), tmp_path / f"kb{k}")
    paths += sorted(tmp_path.glob("kb*/*.csv"))
    for k, text in enumerate([" Language ,FEATURE,Value\r\nabcd1234,S_F1,1\r\n",
                              "language,feature,value\nabcd1234,S_F1,1\n\xa0ñañu , S_F2,--",
                              "language,feature,value\n, ,1\n"]):
        paths.append(tmp_path / f"plain{k}.csv")
        paths[-1].write_text(text, encoding="utf-8", newline="")
    for path in paths:
        got = storage._bulk_cell_columns(path)
        assert got is not None, path
        assert _same_outcome(got, storage._csv_cell_columns(path)), path


# cell cache -----------------------------------------------------------------------


def _cache_tensor(rng):
    """Several sources, one of them empty, binary and fractional values,
    dialects with parents, cells written in shuffled order."""
    langs = [LanguageRecord(f"l{i:03d}1234") for i in range(int(rng.integers(2, 40)))]
    langs += [LanguageRecord(f"d{i:03d}1234", parent=langs[i].glottocode) for i in range(2)]
    feats = [f"{p}F{j}" for j in range(int(rng.integers(1, 20))) for p in ("S_", "INV_")]
    srcs = ["SRC_B", "SRC_A", "SRC.c", "src-d"][: int(rng.integers(1, 5))]
    cells = [(lang.glottocode, f, s, float(rng.choice([0.0, 1.0, rng.random()])))
             for lang in langs for f in feats for s in srcs if rng.random() < 0.3]
    cells = [cells[i] for i in rng.permutation(len(cells))]
    return make_tensor(langs, feats, cells, sources=["EMPTY"])


def _csv_reads(monkeypatch):
    """The paths load_tensor reads as CSV from now on."""
    paths, read = [], storage._read_cell_columns
    monkeypatch.setattr(storage, "_read_cell_columns", lambda path: paths.append(path) or read(path))
    return paths


def _load_from_csv(directory, scratch):
    """A load of directory's files without its cell cache."""
    scratch.mkdir()
    for path in Path(directory).iterdir():
        if path.name != storage.CACHE_FILE:
            (scratch / path.name).write_bytes(path.read_bytes())
    return storage.load_tensor(scratch)


def _next_writes(tensor, rng):
    """A batch that conflicts with a stored cell, and one that adds cells to
    that cell's source, to the empty source and to a new source."""
    lang, feat, src, v = sorted(tensor.iter_cells())[int(rng.integers(tensor.cell_count()))]
    other = 0.25 if v != 0.25 else 0.75
    glottocodes = [r.glottocode for r in tensor.languages]
    new_cells = [(g, feat, s, float(rng.random())) for g in glottocodes for s in ("EMPTY", "SRC_NEW")
                 if rng.random() < 0.5]
    missing = [(g, feat, src, other) for g in glottocodes if tensor.get_cell(g, feat, src) is None]
    return (TensorBatch(cells=[(lang, feat, src, other)]),
            TensorBatch(sources=["SRC_NEW"], cells=[*missing, *new_cells]))


def test_a_load_through_the_cell_cache_equals_a_load_from_the_csvs(tmp_path, monkeypatch):
    rng = np.random.default_rng(41)
    reads = _csv_reads(monkeypatch)
    for k in range(12):
        tensor = _cache_tensor(rng)
        storage.save_tensor(tensor, tmp_path / f"kb{k}")
        cached = storage.load_tensor(tmp_path / f"kb{k}")
        assert reads == []
        from_csv = _load_from_csv(tmp_path / f"kb{k}", tmp_path / f"csv{k}")
        _assert_same_tensor(cached, from_csv)
        assert len(reads) == len(tensor.sources)
        reads.clear()
        assert sorted(cached.iter_cells()) == sorted(tensor.iter_cells())
        assert cached.languages == tensor.languages and cached.sources[0] == "EMPTY"
        # later writes meet both loads alike, and each saves the same bytes
        conflicting, adding = _next_writes(cached, rng)
        errors = []
        for loaded in (cached, from_csv):
            with pytest.raises(ConflictingWrite) as error:
                loaded.extend_with(conflicting)
            errors.append(str(error.value))
            loaded.extend_with(adding)
        assert errors[0] == errors[1]
        _assert_same_tensor(cached, from_csv)
        storage.save_tensor(cached, tmp_path / f"next{k}")
        storage.save_tensor(from_csv, tmp_path / f"next-csv{k}")
        assert _files(tmp_path / f"next{k}") == _files(tmp_path / f"next-csv{k}")


def test_a_cached_load_holds_few_bytes_beyond_its_cells(tmp_path):
    """The peak traced memory of a load through the cell cache, per cell.
    The columns themselves take 16 bytes per cell; writing the cached cells
    through extend_with took about 58 on this tensor."""
    rng = np.random.default_rng(59)
    langs = [f"l{i:04d}123" for i in range(400)]
    feats = [f"S_F{j}" for j in range(120)]
    tensor = FeatureTensor()
    tensor.extend_with(TensorBatch([LanguageRecord(g) for g in langs],
                                   [FeatureDescriptor(f, Category.SYNTACTIC) for f in feats]))
    for src in ("SRC_A", "SRC_B", "SRC_C", "SRC_D"):
        lang, feat = np.nonzero(rng.random((len(langs), len(feats))) < 0.3)
        codes = (lang, feat, np.zeros(len(lang), np.intp))
        tensor.extend_with(TensorBatch(sources=[src], cells=CellArrays(
            (langs, feats, [src]), codes, rng.choice([0.0, 0.5, 1.0], len(lang)))))
    storage.save_tensor(tensor, tmp_path)
    storage.load_tensor(tmp_path)  # imports and caches settle outside the traced load
    tracemalloc.start()
    try:
        loaded = storage.load_tensor(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.cell_count() == tensor.cell_count() > 50_000
    assert peak / loaded.cell_count() <= 30


def test_two_saves_of_one_tensor_write_the_same_cell_cache(tmp_path):
    tensor = _cache_tensor(np.random.default_rng(43))
    storage.save_tensor(tensor, tmp_path / "a")
    storage.save_tensor(tensor, tmp_path / "b")
    storage.save_tensor(storage.load_tensor(tmp_path / "a"), tmp_path / "c")
    cache = (tmp_path / "a" / storage.CACHE_FILE).read_bytes()
    assert cache.startswith(storage._CACHE_MARKER)
    assert (tmp_path / "b" / storage.CACHE_FILE).read_bytes() == cache
    assert (tmp_path / "c" / storage.CACHE_FILE).read_bytes() == cache


def test_a_csv_edit_that_keeps_size_and_mtime_is_loaded(tmp_path, monkeypatch):
    tensor = make_tensor(["abcd1234", "efgh1234"], ["S_F1"], [
        ("abcd1234", "S_F1", "SRC_A", 1.0), ("efgh1234", "S_F1", "SRC_A", 0.0)])
    storage.save_tensor(tensor, tmp_path)
    path = tmp_path / "SRC_A.csv"
    before = path.stat()
    text = path.read_bytes()
    assert b"abcd1234,S_F1,1\r\n" in text
    path.write_bytes(text.replace(b"abcd1234,S_F1,1\r\n", b"abcd1234,S_F1,0\r\n"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    reads = _csv_reads(monkeypatch)
    assert storage.load_tensor(tmp_path).get_cell("abcd1234", "S_F1", "SRC_A") == 0.0
    assert reads == [path]


def _tampered_caches(cache: bytes, n_sources: int, n_languages: int):
    """(what was done, the cache bytes) for caches a load must not use;
    the last source holds at least two cells."""
    arrays = len(storage._CACHE_MARKER) + 32 + 40 * n_sources
    n = int.from_bytes(cache[arrays - 8:arrays], "little")  # the last source's count
    head, keys, values = cache[:-16 * n], cache[-16 * n:-8 * n], cache[-8 * n:]
    keys, values = np.frombuffer(keys, "<i8"), np.frombuffer(values, "<f8")
    assert n >= 2 and len(head) >= arrays

    def with_arrays(k, v):
        return head + np.asarray(k, "<i8").tobytes() + np.asarray(v, "<f8").tobytes()

    past_language = np.int64(n_languages) << 32 | keys[-1] & 0xFFFFFFFF
    past_feature = keys[-1] >> 32 << 32 | 0xFFFFFFF0  # each still sorts last
    yield "empty", b""
    yield "marker only", storage._CACHE_MARKER
    yield "header cut short", cache[:arrays - 3]
    yield "arrays cut short", cache[:-8]
    yield "one byte more", cache + b"\0"
    yield "garbage", bytes(np.random.default_rng(3).integers(0, 256, len(cache), np.uint8))
    yield "wrong marker", b"typodist cells/0" + cache[len(storage._CACHE_MARKER):]
    yield "keys out of order", with_arrays([keys[1], keys[0], *keys[2:]], values)
    yield "a key twice", with_arrays([keys[0], *keys[:-1]], values)
    yield "a negative language", with_arrays([-(1 << 32) | keys[0] & 0xFFFFFFFF, *keys[1:]], values)
    yield "a language past the registries", with_arrays([*keys[:-1], past_language], values)
    yield "a feature past the registries", with_arrays([*keys[:-1], past_feature], values)
    for bad in (1.5, -0.5, -0.0, np.nan, np.inf):  # a write stores -0.0 as 0.0
        yield f"value {bad}", with_arrays(keys, [bad, *values[1:]])


def test_a_cache_that_does_not_match_or_validate_is_ignored(tmp_path, monkeypatch):
    tensor = _cache_tensor(np.random.default_rng(47))
    directory = tmp_path / "kb"
    storage.save_tensor(tensor, directory)
    want = _load_from_csv(directory, tmp_path / "csv")
    cache = (directory / storage.CACHE_FILE).read_bytes()
    reads = _csv_reads(monkeypatch)
    cases = list(_tampered_caches(cache, len(tensor.sources), len(tensor.languages)))
    for what, tampered in cases:
        (directory / storage.CACHE_FILE).write_bytes(tampered)
        _assert_same_tensor(storage.load_tensor(directory), want)
        assert len(reads) == len(tensor.sources), what
        reads.clear()
    (directory / storage.CACHE_FILE).write_bytes(cache)  # the genuine cache is used
    _assert_same_tensor(storage.load_tensor(directory), want)
    assert reads == []
    # registries changed: a language's name, so its index stays where it was
    path = directory / storage.REGISTRY_FILE
    registries = json.loads(path.read_text())
    registries["languages"][0]["name"] = "Renamed"
    path.write_text(json.dumps(registries))
    loaded = storage.load_tensor(directory)
    assert loaded.languages[0].name == "Renamed" and len(reads) == len(tensor.sources)
    assert sorted(loaded.iter_cells()) == sorted(tensor.iter_cells())
    reads.clear()
    # a source file gone: its cells are gone, as without a cache
    (directory / "SRC_B.csv").unlink()
    loaded = storage.load_tensor(directory)
    assert len(reads) == len(tensor.sources) - 1
    assert {s for _l, _f, s, _v in loaded.iter_cells()} == {
        s for _l, _f, s, _v in tensor.iter_cells()} - {"SRC_B"}


def test_a_bad_csv_next_to_a_stale_cache_exits_2(tmp_path, capsys, tiny_tensor):
    storage.save_tensor(tiny_tensor, tmp_path)
    (tmp_path / "SRC_A.csv").write_text("language,feature,value\npare1234,S_F1,7\n")
    assert main(["eval", "coverage", "--data", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "FormatError" and "SRC_A.csv: row 2" in error["message"]


# one load path --------------------------------------------------------------------


def _hand_edited(rng, directory):
    """Save a random tensor to directory and edit its files as by hand: the
    cell cache deleted; registries in shuffled order; per source some of a
    header-only file or no file at all, rows that repeat a cell (the last
    row wins), `--` rows, `-0`, padded values and names, an upper-case
    header, CRLF line ends, no final line end; now and then a row naming an
    unregistered language or feature, or holding a bad value."""
    storage.save_tensor(_cache_tensor(rng), directory)
    (directory / storage.CACHE_FILE).unlink()
    path = directory / storage.REGISTRY_FILE
    registries = json.loads(path.read_text())
    langs = registries["languages"]  # _cache_tensor's two dialects come last, after their parents
    registries["languages"] = [langs[i] for i in rng.permutation(len(langs) - 2)] + langs[-2:]
    for key in ("features", "sources"):
        registries[key] = [registries[key][i] for i in rng.permutation(len(registries[key]))]
    path.write_text(json.dumps(registries))
    glottocodes = [obj["glottocode"] for obj in langs]
    names = [obj["name"] for obj in registries["features"]]
    bad_rate = float(rng.choice([0.0, 0.2]))
    for src in registries["sources"]:
        path = directory / f"{src}.csv"
        header, *rows = path.read_text().splitlines()
        layout = int(rng.integers(8))
        if layout == 0:
            path.unlink()
            continue
        if layout == 1:
            rows = []
        for _ in range(int(rng.integers(0, 8))):
            if rows and rng.random() < 0.5:  # a cell already on a row, again
                lang, feat, _value = rows[int(rng.integers(len(rows)))].split(",")
            else:
                lang, feat = rng.choice(glottocodes), rng.choice(names)
            value = str(rng.choice(["--", "-0", " 0.5 ", "1", "0", "0.25", " -- "]))
            if rng.random() < bad_rate:
                kind = int(rng.integers(3))
                lang = "zzzz9999" if kind == 0 else lang
                feat = "S_NOPE" if kind == 1 else feat
                value = str(rng.choice(["maybe", "1.5", "nan", "-0.5"])) if kind == 2 else value
            padded = rng.random() < 0.3
            row = f" {lang}, {feat} ,{value}" if padded else f"{lang},{feat},{value}"
            rows.insert(int(rng.integers(len(rows) + 1)), row)
        header = header.upper() if rng.random() < 0.3 else header
        end = str(rng.choice(["\n", "\r\n"]))
        path.write_bytes((end.join([header, *rows]) + end * (rng.random() < 0.7)).encode())


def _load_by_extend_with(directory):
    """A tensor with directory's registries, then each source's rows, as the
    csv module reads them, written through extend_with, one batch per source."""
    registries = json.loads((directory / storage.REGISTRY_FILE).read_text())
    languages = [LanguageRecord(obj["glottocode"], obj["iso639_3"], obj["name"], obj["parent"],
                                ResourceTier(obj["tier"])) for obj in registries["languages"]]
    features = [FeatureDescriptor(obj["name"], Category(obj["category"]), FeatureOrigin(
        OriginKind(obj["origin"]["kind"]), obj["origin"]["parent_feature"], obj["origin"]["level"]))
        for obj in registries["features"]]
    tensor = FeatureTensor().extend_with(TensorBatch(languages, features, registries["sources"]))
    snap = tensor.snapshot()
    for src in registries["sources"]:
        path = directory / f"{src}.csv"
        if not path.exists():
            continue
        cells = []
        for row_num, row in storage._read_csv_rows(path, storage.CELL_HEADER):
            value = storage.parse_value(row[2], path, row_num)
            lang, feat = row[0].strip(), row[1].strip()
            for kind, name, index in (("language", lang, snap.lang_index),
                                      ("feature", feat, snap.feat_index)):
                if name not in index:
                    raise FormatError(f"{path}: row {row_num}: unregistered {kind} {name!r}")
            if value is not None:
                cells.append((lang, feat, src, value))
        tensor.extend_with(TensorBatch(cells=cells))
    return tensor


def test_every_load_equals_writing_its_rows_through_extend_with(tmp_path, monkeypatch):
    reads = _csv_reads(monkeypatch)
    errors = 0
    for seed in range(40):
        rng = np.random.default_rng([seed, 67])
        directory = tmp_path / f"kb{seed}"
        _hand_edited(rng, directory)
        want = _outcome(lambda: _load_by_extend_with(directory))
        got = _outcome(lambda: storage.load_tensor(directory))
        if isinstance(want, Exception):
            errors += 1
            assert type(got) is type(want) and str(got) == str(want), seed
            continue
        _assert_same_tensor(got, want)
        # the cached load of a save equals the load of its CSVs
        storage.save_tensor(got, tmp_path / f"saved{seed}")
        reads.clear()
        cached = storage.load_tensor(tmp_path / f"saved{seed}")
        assert reads == []
        (tmp_path / f"saved{seed}" / storage.CACHE_FILE).unlink()
        _assert_same_tensor(cached, storage.load_tensor(tmp_path / f"saved{seed}"))
    assert 5 <= errors <= 30  # both outcomes, often


def test_no_load_writes_a_cell_through_extend_with(tmp_path, monkeypatch):
    """The registries go through extend_with, every cell through adopt_columns:
    from the cache, from the CSVs, and from the CSVs after kb refuses a cache."""
    tensor = _cache_tensor(np.random.default_rng(61))
    directory = tmp_path / "kb"
    storage.save_tensor(tensor, directory)
    cache = (directory / storage.CACHE_FILE).read_bytes()
    refused = dict(_tampered_caches(cache, len(tensor.sources), len(tensor.languages)))["value 1.5"]
    extend_with, batches = FeatureTensor.extend_with, []

    def registries_only(self, batch):
        assert not len(batch.cells), f"{len(batch.cells)} cells reached extend_with"
        batches.append(batch)
        return extend_with(self, batch)

    monkeypatch.setattr(FeatureTensor, "extend_with", registries_only)
    reads = _csv_reads(monkeypatch)
    loads = [storage.load_tensor(directory)]
    assert reads == []
    (directory / storage.CACHE_FILE).write_bytes(refused)
    loads.append(storage.load_tensor(directory))
    (directory / storage.CACHE_FILE).unlink()
    loads.append(storage.load_tensor(directory))
    assert len(reads) == 2 * len(tensor.sources) and len(batches) == 3
    for loaded in loads:
        assert sorted(loaded.iter_cells()) == sorted(tensor.iter_cells())
        _assert_same_tensor(loaded, loads[-1])
