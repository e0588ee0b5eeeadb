import copy
import errno
import json
import math
import os
import random
from pathlib import Path

import pytest

from typodist import storage
from typodist.cli import main
from typodist.kb import LanguageRecord

from conftest import DATA_DIR, make_tensor


SCHEMA = {
    "features": {
        "tone": {"kind": "binary", "category": "phonological"},
        "nasal vowels": {"kind": "binary", "category": "phonological"},
        "word order": {
            "kind": "nominal",
            "category": "syntactic",
            "categories": ["SOV", "SVO", "VSO"],
        },
        "cases": {"kind": "ordinal", "category": "morphological", "max_level": 3},
        "prenominal articles": {"kind": "binary", "category": "syntactic"},
        "article before noun": {"kind": "binary", "category": "syntactic"},
    }
}

RESOLUTION = (
    "external_id,glottocode,retired_flag\n"
    "eng,stan1293,0\n"
    "deu,stan1295,0\n"
    "fra,stan1290,0\n"
    "gre,mode1248,1\n"
)

RULES = (
    "from_feature,to_feature,direction,from_value,to_value\n"
    "S_ARTICLE_BEFORE_NOUN,S_PRENOMINAL_ARTICLES,implies,1,1\n"
)

WALS = (
    "language,feature,value\n"
    "eng,tone,0\n"
    "eng,nasal vowels,1\n"
    "eng,word order,SVO\n"
    "eng,cases,1\n"
    "eng,article before noun,1\n"
    "deu,tone,0\n"
    "deu,nasal vowels,1\n"
    "deu,word order,SOV\n"
    "deu,cases,3\n"
    "gre,tone,0\n"
)

GRAMBANK = (
    "language,feature,value\n"
    "eng,prenominal articles,--\n"
    "fra,prenominal articles,1\n"
    "fra,tone,0\n"
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA))
    (tmp_path / "res.csv").write_text(RESOLUTION)
    (tmp_path / "rules.csv").write_text(RULES)
    (tmp_path / "wals.csv").write_text(WALS)
    (tmp_path / "grambank.csv").write_text(GRAMBANK)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def ingest(capsys, ws: Path) -> Path:
    data = ws / "kb"
    code, out, err = run(
        capsys,
        "ingest",
        "--schema", ws / "schema.json",
        "--resolution-table", ws / "res.csv",
        "--rules", ws / "rules.csv",
        "--source", f"WALS={ws / 'wals.csv'}",
        "--source", f"GRAMBANK={ws / 'grambank.csv'}",
        "--out", data,
    )
    assert code == 0, err
    return data


def test_ingest_builds_tensor_and_reports(workspace, capsys):
    data = ingest(capsys, workspace)
    code, out, _ = run(capsys, "ingest",
                       "--schema", workspace / "schema.json",
                       "--resolution-table", workspace / "res.csv",
                       "--source", f"WALS={workspace / 'wals.csv'}",
                       "--out", workspace / "kb2")
    payload = json.loads(out)
    assert payload["languages"] == 3  # eng, deu, gre
    assert payload["sources"] == ["WALS"]
    # retired code resolution is logged per source
    report = payload["per_source"][0]
    assert ["gre", "mode1248"] in report["resolved_retired"]
    assert (data / "registries.json").exists()
    assert (data / "WALS.csv").exists()


def test_ingest_applies_inference_rules(workspace, capsys):
    data = ingest(capsys, workspace)
    code, out, _ = run(
        capsys, "distance", "--data", data, "stan1293", "stan1290",
        "--features", "S_PRENOMINAL_ARTICLES",
    )
    assert code == 0
    payload = json.loads(out)
    # eng's value was inferred from the article-before-noun rule
    assert payload["distance"] == pytest.approx(0.0)
    assert payload["shared_features"] == 1


@pytest.mark.parametrize("mapping, bad", [("1,5", "5.0"), ("inf,1", "inf"), ("0,nan", "nan")])
def test_ingest_rejects_a_rule_value_no_cell_can_hold(workspace, capsys, mapping, bad):
    rules = workspace / "rules.csv"
    rules.write_text(RULES + f"P_TONE,P_NASAL_VOWELS,implies,{mapping}\n")
    code, out, err = run(
        capsys, "ingest",
        "--schema", workspace / "schema.json",
        "--resolution-table", workspace / "res.csv",
        "--rules", rules,
        "--source", f"WALS={workspace / 'wals.csv'}",
        "--out", workspace / "kb",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == (
        f"{rules}: row 3: inference rule 'P_TONE' -> 'P_NASAL_VOWELS': "
        f"mapping value {bad} is not a finite number in [0, 1]")
    assert not (workspace / "kb").exists()


def test_ingest_malformed_row_exits_2(workspace, capsys):
    (workspace / "broken.csv").write_text("language,feature,value\neng,tone\n")
    code, _, err = run(
        capsys, "ingest",
        "--schema", workspace / "schema.json",
        "--resolution-table", workspace / "res.csv",
        "--source", f"X={workspace / 'broken.csv'}",
        "--out", workspace / "kbx",
    )
    assert code == 2
    assert "row 2" in json.loads(err)["message"]


def test_aggregate_export(workspace, capsys, tmp_path):
    data = ingest(capsys, workspace)
    out_csv = tmp_path / "union.csv"
    code, out, _ = run(capsys, "aggregate", "--data", data, "--mode", "union",
                       "--out", out_csv)
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("language,")
    assert "P_TONE" in header


def test_impute_writes_matrix_and_mask(workspace, capsys, tmp_path):
    data = ingest(capsys, workspace)
    out_csv = tmp_path / "imputed.csv"
    code, out, _ = run(
        capsys, "impute", "--data", data, "--mode", "union",
        "--method", "knn", "--k", "2", "--out", out_csv,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "knn"
    assert Path(payload["mask_out"]).exists()
    assert "--" not in out_csv.read_text()


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "-1"])
def test_impute_rejects_a_non_finite_or_negative_lam(workspace, capsys, tmp_path, lam):
    data = ingest(capsys, workspace)
    out_csv = tmp_path / "imputed.csv"
    code, out, err = run(
        capsys, "impute", "--data", data, "--mode", "union",
        "--method", "softimpute", f"--lam={lam}", "--out", out_csv,
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err) == {
        "error": "ValueError", "message": "lam must be a finite non-negative number"}
    assert not out_csv.exists()


def test_distance_pair_json(workspace, capsys):
    data = ingest(capsys, workspace)
    code, out, _ = run(
        capsys, "distance", "--data", data, "stan1293", "stan1295",
        "--metric", "cosine", "--aggregation", "union", "--category", "phonological",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metric"] == "cosine"
    assert payload["pair"] == ["stan1293", "stan1295"]


def test_distance_not_computable_still_exit_zero(workspace, capsys):
    data = ingest(capsys, workspace)
    # mode1248 has only phonological data; no morphological overlap possible
    code, out, _ = run(
        capsys, "distance", "--data", data, "mode1248", "stan1295",
        "--category", "morphological",
    )
    assert code == 0
    assert json.loads(out)["status"] == "not_computable"


def test_distance_unknown_language_exit_one(workspace, capsys):
    data = ingest(capsys, workspace)
    code, _, err = run(capsys, "distance", "--data", data, "zzzz9999", "stan1295")
    assert code == 1
    assert json.loads(err)["error"] == "UnknownLanguage"


def test_distance_matrix_for_language_list(workspace, capsys):
    data = ingest(capsys, workspace)
    code, out, _ = run(
        capsys, "distance", "--data", data, "stan1293", "stan1295", "mode1248",
        "--category", "phonological",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 3
    assert payload["results"][0][0]["distance"] == 0.0


# stan1293 listed twice; fra and gre share only a zero-valued tone with the
# others, and no morphological data with anyone
GOLDEN_LANGUAGES = ["stan1293", "stan1295", "stan1290", "mode1248", "stan1293"]


@pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("table", "txt")])
@pytest.mark.parametrize("scope,extra", [
    ("all", []), ("morphological", ["--category", "morphological"])])
def test_distance_matrix_stdout_matches_golden(workspace, capsys, scope, extra, fmt, suffix):
    data = ingest(capsys, workspace)
    code, out, err = run(capsys, "--format", fmt, "distance", "--data", data,
                         *GOLDEN_LANGUAGES, *extra)
    assert code == 0, err
    assert out == (DATA_DIR / f"distance_{scope}.{suffix}").read_text(encoding="utf-8")


# two more sources, so that some cells have two or three sources that disagree
PHOIBLE = (
    "language,feature,value\n"
    "eng,tone,1\n"
    "eng,nasal vowels,0\n"
    "fra,tone,0\n"
    "fra,word order,SVO\n"
)

APICS = (
    "language,feature,value\n"
    "eng,tone,1\n"
    "fra,tone,1\n"
    "fra,word order,SOV\n"
    "deu,cases,2\n"
)


@pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("table", "txt")])
@pytest.mark.parametrize("scope,extra", [
    ("all", []),
    ("syntactic", ["--category", "syntactic"]),
    ("listed", ["--features", "S_WORD_ORDER_SOV,P_TONE,M_CASES,P_TONE"]),
    ("one", ["--features", "P_TONE"]),
])
def test_confidence_stdout_matches_golden(workspace, capsys, scope, extra, fmt, suffix):
    ws, data = workspace, workspace / "kb"
    (ws / "phoible.csv").write_text(PHOIBLE)
    (ws / "apics.csv").write_text(APICS)
    code, _, err = run(
        capsys, "ingest", "--schema", ws / "schema.json", "--resolution-table", ws / "res.csv",
        "--rules", ws / "rules.csv", "--out", data,
        *(f"--source={name}={ws / name.lower()}.csv"
          for name in ("WALS", "GRAMBANK", "PHOIBLE", "APICS")),
    )
    assert code == 0, err
    code, out, err = run(capsys, "--format", fmt, "confidence", "--data", data,
                         "stan1293", "stan1290", *extra)
    assert code == 0, err
    assert out == (DATA_DIR / f"confidence_{scope}.{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("command,flag,error,message", [
    ("distance", "--features", "ValueError", "explicit feature list must be non-empty"),
    ("distance", "--category", "QueryError", "unknown feature category: ''"),
    ("distance", "--sources", "EmptySourceSubset", "source subset must be non-empty"),
    ("distance", "--source", "UnknownSource", "unknown source: ''"),
    ("confidence", "--features", "EmptyScope", "feature scope is empty"),
    ("confidence", "--category", "QueryError", "unknown feature category: ''"),
])
def test_an_empty_scope_flag_names_an_empty_scope(workspace, capsys, command, flag, error,
                                                  message):
    # an empty value is a scope the library rejects, not the whole scope
    data = ingest(capsys, workspace)
    code, out, err = run(capsys, command, "--data", data, "stan1293", "stan1295", flag, "")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": error, "message": message}
    assert len(err.splitlines()) == 1


def test_confidence_command(workspace, capsys):
    data = ingest(capsys, workspace)
    code, out, _ = run(capsys, "confidence", "--data", data, "stan1293", "stan1295")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"pair", "completeness", "consistency", "imputation_quality"}
    assert payload["imputation_quality"] == 1.0


@pytest.mark.parametrize("flag", [["--k", "3"], ["--lam", "0.5"], ["--rank-cap", "2"],
                                  ["--seed", "1"]])
def test_confidence_has_no_imputer_knob_flags(workspace, capsys, flag):
    # a report reads only the method's cache key, so these flags would change nothing
    data = ingest(capsys, workspace)
    with pytest.raises(SystemExit) as exc:
        run(capsys, "confidence", "--data", data, "stan1293", "stan1295", "--method", "knn", *flag)
    assert exc.value.code == 2


def test_eval_quality_deterministic_and_caches(workspace, capsys, tmp_path):
    data = ingest(capsys, workspace)
    cache = tmp_path / "cache.json"
    args = [
        "eval", "quality", "--data", data, "--imputer", "mean",
        "--mode", "union", "--seed", "7", "--quality-cache", cache,
    ]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical given same flags, data, seed
    cached = json.loads(cache.read_text())
    assert "mean|union" in cached

    code, out, _ = run(
        capsys, "confidence", "--data", data, "stan1293", "stan1295",
        "--method", "mean", "--aggregation", "union", "--quality-cache", cache,
    )
    payload = json.loads(out)
    assert payload["imputation_quality"] == cached["mean|union"]["f1"]


def test_eval_casestudy_table5(capsys, tmp_path):
    out_file = tmp_path / "case.json"
    code, out, _ = run(
        capsys, "eval", "casestudy", "--input", DATA_DIR / "table5.csv",
        "--iterations", "2000", "--seed", "0", "--out", out_file,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_a"] == pytest.approx(-0.05, abs=0.01)
    assert payload["tau_b"] == pytest.approx(0.19, abs=0.01)
    assert payload["perm_both"]["p_value"] > 0.05
    assert json.loads(out_file.read_text()) == payload


@pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("table", "txt")])
def test_eval_casestudy_stdout_matches_golden(capsys, fmt, suffix):
    # the default 10,000 Perm-Both iterations; the goldens pin every digit
    # of tau and of the p-value
    code, out, err = run(capsys, "--format", fmt, "eval", "casestudy",
                         "--input", DATA_DIR / "table5.csv", "--seed", "0")
    assert code == 0, err
    assert out == (DATA_DIR / f"casestudy_table5.{suffix}").read_text(encoding="utf-8")


def test_eval_coverage(workspace, capsys):
    data = ingest(capsys, workspace)
    code, out, _ = run(capsys, "eval", "coverage", "--data", data)
    assert code == 0
    payload = json.loads(out)
    assert payload["categories"]["phonological"]["total"] == 4
    assert payload["typological_total"]["total"] == 4


def test_format_table_carries_same_information(workspace, capsys):
    data = ingest(capsys, workspace)
    code, as_json, _ = run(capsys, "distance", "--data", data, "stan1293", "stan1295")
    code, as_table, _ = run(
        capsys, "--format", "table", "distance", "--data", data, "stan1293", "stan1295",
    )
    payload = json.loads(as_json)
    for key, value in payload.items():
        assert str(key) in as_table
        if not isinstance(value, (list, dict)):
            assert str(value) in as_table


def test_env_var_supplies_data_dir(workspace, capsys, monkeypatch):
    data = ingest(capsys, workspace)
    monkeypatch.setenv("TYPODIST_DATA_DIR", str(data))
    code, out, _ = run(capsys, "distance", "stan1293", "stan1295")
    assert code == 0
    assert "pair" in json.loads(out)


def test_config_file_defaults(workspace, capsys, tmp_path):
    data = ingest(capsys, workspace)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data_dir": str(data), "metric": "cosine"}))
    code, out, _ = run(capsys, "--config", config, "distance", "stan1293", "stan1295")
    assert code == 0
    assert json.loads(out)["metric"] == "cosine"
    config.write_text(json.dumps({"data_dir": str(tmp_path / "missing")}))
    code, _, err = run(capsys, "--config", config, "distance", "a", "b")
    assert code == 2


@pytest.mark.parametrize("seed", ["x", None, 1.7, True, -1, 2**64])
def test_config_seed_must_be_an_unsigned_64_bit_integer(workspace, capsys, tmp_path, seed):
    data = ingest(capsys, workspace)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data_dir": str(data), "seed": seed}))
    code, out, err = run(capsys, "--config", config, "distance", "stan1293", "stan1295")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "FormatError"
    config.write_text(json.dumps({"data_dir": str(data), "seed": 2**64 - 1}))
    code, _, err = run(capsys, "--config", config, "distance", "stan1293", "stan1295")
    assert code == 0, err


def test_config_seed_is_the_seed_that_no_flag_overrides(workspace, capsys, tmp_path):
    data = ingest(capsys, workspace)
    config, unseeded = tmp_path / "config.json", tmp_path / "unseeded.json"
    config.write_text(json.dumps({"data_dir": str(data), "seed": 5}))
    unseeded.write_text(json.dumps({"data_dir": str(data)}))
    commands = [
        (["eval", "quality", "--imputer", "mean", "--mode", "union"], lambda r: r["seed"]),
        (["eval", "casestudy", "--input", DATA_DIR / "table5.csv", "--iterations", "200"],
         lambda r: r["perm_both"]["seed"]),
    ]
    for argv, seed_of in commands:
        code, from_config, err = run(capsys, "--config", config, *argv)
        assert code == 0, err
        assert seed_of(json.loads(from_config)) == 5
        assert run(capsys, "--config", config, *argv, "--seed", "5")[1] == from_config
        overridden = run(capsys, "--config", config, *argv, "--seed", "0")[1]
        assert seed_of(json.loads(overridden)) == 0
        assert overridden == run(capsys, "--config", unseeded, *argv)[1]


def test_distance_with_external_imputer_file(workspace, capsys, tmp_path):
    data = ingest(capsys, workspace)
    imputed_csv = tmp_path / "imp.csv"
    code, _, _ = run(
        capsys, "impute", "--data", data, "--mode", "union",
        "--method", "mean", "--out", imputed_csv,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "distance", "--data", data, "stan1293", "mode1248",
        "--impute", "external", "--external-file", imputed_csv,
    )
    assert code == 0
    payload = json.loads(out)
    # imputation makes every feature shared, so the sparse pair is computable
    assert payload["distance"] is not None


@pytest.mark.parametrize("method", ["mean", "knn", "softimpute"])
def test_imputed_distance_matches_the_impute_command(workspace, capsys, tmp_path, method):
    data = ingest(capsys, workspace)
    imputed_csv = tmp_path / "imp.csv"
    code, _, err = run(
        capsys, "impute", "--data", data, "--mode", "union", "--dialect-fill",
        "--method", method, "--k", "2", "--out", imputed_csv,
    )
    assert code == 0, err
    langs = ["stan1293", "stan1295", "stan1290", "mode1248"]
    outputs = []
    for impute in ([method, "--k", "2"], ["external", "--external-file", imputed_csv]):
        code, out, err = run(capsys, "distance", "--data", data, *langs,
                             "--aggregation", "union", "--dialect-fill", "--impute", *impute)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_dialect_fill_without_impute_exits_1(capsys, tmp_path):
    """The fill runs only on an imputed matrix, so the flag alone is refused
    rather than ignored: here it would have filled the dialect's S_B."""
    tensor = make_tensor(
        [LanguageRecord("pare1234"), LanguageRecord("dial1234", parent="pare1234"), "othe1234"],
        ["S_A", "S_B"],
        [("pare1234", "S_A", "SRC", 1.0), ("pare1234", "S_B", "SRC", 1.0),
         ("dial1234", "S_A", "SRC", 1.0),
         ("othe1234", "S_A", "SRC", 1.0), ("othe1234", "S_B", "SRC", 0.0)])
    storage.save_tensor(tensor, tmp_path / "kb")
    argv = ("distance", "--data", tmp_path / "kb", "dial1234", "othe1234")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["shared_features"] == 1
    code, out, err = run(capsys, *argv, "--dialect-fill")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError",
                               "message": "--dialect-fill is set but --impute is not"}
    code, out, err = run(capsys, *argv, "--dialect-fill", "--impute", "mean")
    assert code == 0, err
    assert json.loads(out)["shared_features"] == 2


def test_imputed_distance_output_is_pinned(workspace, capsys):
    """--impute measures on the imputed matrix. The grid is pinned, so a
    change in how the CLI builds its request shows; without --impute the
    sparse pair stays not computable."""
    data = ingest(capsys, workspace)
    langs = ["stan1293", "stan1295", "stan1290", "mode1248"]
    code, out, err = run(capsys, "distance", "--data", data, *langs, "--impute", "mean")
    assert code == 0, err
    far, near = 0.4096655293982671, 0.26772047280122996
    want = [[0.0, far, near, near], [far, 0.0, near, near],
            [near, near, 0.0, 0.0], [near, near, 0.0, 0.0]]
    results = json.loads(out)["results"]
    assert [[cell["distance"] for cell in row] for row in results] == want
    assert {cell["shared_features"] for row in results for cell in row} == {8}
    code, out, err = run(capsys, "distance", "--data", data, "stan1293", "mode1248")
    assert code == 0, err
    assert json.loads(out)["status"] == "not_computable"


def test_bad_schema_exits_2(workspace, capsys):
    (workspace / "bad_schema.json").write_text('{"features": {}}')
    code, _, err = run(
        capsys, "ingest",
        "--schema", workspace / "bad_schema.json",
        "--resolution-table", workspace / "res.csv",
        "--source", f"WALS={workspace / 'wals.csv'}",
        "--out", workspace / "kbz",
    )
    assert code == 2
    assert json.loads(err)["error"] == "FormatError"


def test_unknown_schema_feature_is_format_error(workspace, capsys):
    (workspace / "extra.csv").write_text("language,feature,value\neng,mystery,1\n")
    code, _, err = run(
        capsys, "ingest",
        "--schema", workspace / "schema.json",
        "--resolution-table", workspace / "res.csv",
        "--source", f"X={workspace / 'extra.csv'}",
        "--out", workspace / "kbq",
    )
    assert code == 2
    assert "ingest schema" in json.loads(err)["message"]


def test_unregistered_language_in_a_source_csv_exits_2_naming_the_row(workspace, capsys):
    data = ingest(capsys, workspace)
    wals = data / "WALS.csv"
    with open(wals, "a", encoding="utf-8") as fh:
        fh.write("zzzz9999,P_TONE,1\n")
    row = len(wals.read_text().splitlines())
    code, out, err = run(capsys, "distance", "--data", data, "stan1293", "stan1295")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err) == {
        "error": "FormatError",
        "message": f"{wals}: row {row}: unregistered language 'zzzz9999'",
    }


def test_ingest_twice_into_same_tensor_is_stable(workspace, capsys, tmp_path):
    data = ingest(capsys, workspace)
    # re-ingesting the same sources into the existing tensor writes the
    # same values (no conflicts) and leaves the registries unchanged
    code, out, _ = run(
        capsys, "ingest",
        "--schema", workspace / "schema.json",
        "--resolution-table", workspace / "res.csv",
        "--rules", workspace / "rules.csv",
        "--source", f"WALS={workspace / 'wals.csv'}",
        "--source", f"GRAMBANK={workspace / 'grambank.csv'}",
        "--data", data,
        "--out", tmp_path / "kb2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["conflicts"] == []
    first = json.loads((Path(data) / "registries.json").read_text())
    second = json.loads((tmp_path / "kb2" / "registries.json").read_text())
    assert first == second


def test_reingest_reports_conflicts_in_order_and_keeps_stored_values(workspace, capsys, tmp_path):
    from typodist.storage import load_tensor

    data = ingest(capsys, workspace)
    (workspace / "wals2.csv").write_text(
        "language,feature,value\n"
        "eng,tone,1\n"
        "deu,tone,0\n"
        "fra,tone,1\n"
        "deu,nasal vowels,0\n"
    )
    code, out, _ = run(
        capsys, "ingest",
        "--schema", workspace / "schema.json",
        "--resolution-table", workspace / "res.csv",
        "--source", f"WALS={workspace / 'wals2.csv'}",
        "--data", data,
        "--out", tmp_path / "kb2",
    )
    assert code == 0
    assert json.loads(out)["conflicts"] == [
        {"cell": ["stan1293", "P_TONE", "WALS"], "existing": 0.0, "incoming": 1.0},
        {"cell": ["stan1295", "P_NASAL_VOWELS", "WALS"], "existing": 1.0, "incoming": 0.0},
    ]
    tensor = load_tensor(tmp_path / "kb2")
    assert tensor.get_cell("stan1293", "P_TONE", "WALS") == 0.0
    assert tensor.get_cell("stan1295", "P_NASAL_VOWELS", "WALS") == 1.0
    assert tensor.get_cell("stan1290", "P_TONE", "WALS") == 1.0  # a new cell is written


INGEST_DIR = DATA_DIR / "ingest"


def test_ingest_and_reingest_match_golden(capsys, tmp_path, monkeypatch):
    """An ingest of two sources, then a re-ingest with rules and a planted
    conflict: stdout and every saved file match the goldens. A language
    reached first as an ISO code keeps that record when a later row, source
    or run names its glottocode directly."""
    monkeypatch.chdir(tmp_path)
    common = ["ingest", "--schema", INGEST_DIR / "schema.json",
              "--resolution-table", INGEST_DIR / "resolution.csv"]
    steps = {
        "step1": [*common, "--source", f"A={INGEST_DIR / 'a.csv'}",
                  "--source", f"B={INGEST_DIR / 'b.csv'}", "--out", "step1"],
        "step2": [*common, "--rules", INGEST_DIR / "rules.csv",
                  "--source", f"A={INGEST_DIR / 'a_update.csv'}",
                  "--source", f"C={INGEST_DIR / 'c.csv'}", "--data", "step1", "--out", "step2"],
    }
    for step, argv in steps.items():
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == (INGEST_DIR / f"{step}.json").read_text(encoding="utf-8")
        want = {p.name: p.read_bytes() for p in (INGEST_DIR / step).iterdir()}
        assert {p.name: p.read_bytes() for p in (tmp_path / step).iterdir()} == want
    tensor = storage.load_tensor(tmp_path / "step2")
    assert tensor.language("aaab1037").iso639_3 == "kcv"
    assert tensor.language("mode1248").iso639_3 == "gre"


def test_registry_file_bytes_deterministic(workspace, capsys, tmp_path):
    ingest(capsys, workspace)
    code, _, _ = run(
        capsys, "ingest",
        "--schema", workspace / "schema.json",
        "--resolution-table", workspace / "res.csv",
        "--rules", workspace / "rules.csv",
        "--source", f"WALS={workspace / 'wals.csv'}",
        "--source", f"GRAMBANK={workspace / 'grambank.csv'}",
        "--out", tmp_path / "again",
    )
    assert code == 0
    a = (workspace / "kb" / "registries.json").read_bytes()
    b = (tmp_path / "again" / "registries.json").read_bytes()
    assert a == b
    a_csv = (workspace / "kb" / "WALS.csv").read_bytes()
    b_csv = (tmp_path / "again" / "WALS.csv").read_bytes()
    assert a_csv == b_csv


@pytest.mark.parametrize("command", [
    ["aggregate", "--mode", "union"],
    ["impute", "--mode", "union", "--method", "mean"],
    ["eval", "quality", "--imputer", "mean", "--mode", "union", "--seed", "3"],
])
def test_single_source_flag_matches_sources_flag(workspace, capsys, tmp_path, command):
    data = ingest(capsys, workspace)
    out_file = tmp_path / "out"
    results = []
    for flag in ("--source", "--sources"):
        code, out, err = run(capsys, *command, "--data", data, flag, "WALS", "--out", out_file)
        assert code == 0, err
        results.append((out, out_file.read_bytes()))
    assert results[0] == results[1]


def _missing_schema(ws):
    return ["ingest", "--schema", ws / "nope.json", "--resolution-table", ws / "res.csv",
            "--source", f"WALS={ws / 'wals.csv'}", "--out", ws / "kbm"]


def _missing_source_csv(ws):
    return ["ingest", "--schema", ws / "schema.json", "--resolution-table", ws / "res.csv",
            "--source", f"WALS={ws / 'nope.csv'}", "--out", ws / "kbm"]


def _missing_quality_cache(ws):
    return ["confidence", "--data", ws / "kb", "stan1293", "stan1295", "--method", "mean",
            "--quality-cache", ws / "nope.json"]


def _corrupt_registries(ws):
    (ws / "kb" / "registries.json").write_text('{"languages": [')
    return ["distance", "--data", ws / "kb", "stan1293", "stan1295"]


def _registries_not_an_object(ws):
    (ws / "kb" / "registries.json").write_text("[]")
    return ["distance", "--data", ws / "kb", "stan1293", "stan1295"]


def _registry_entry_without_glottocode(ws):
    path = ws / "kb" / "registries.json"
    registries = json.loads(path.read_text())
    del registries["languages"][0]["glottocode"]
    path.write_text(json.dumps(registries))
    return ["distance", "--data", ws / "kb", "stan1293", "stan1295"]


def _edit_registries(ws, edit):
    path = ws / "kb" / "registries.json"
    registries = json.loads(path.read_text())
    edit(registries)
    path.write_text(json.dumps(registries))
    return ["distance", "--data", ws / "kb", "stan1293", "stan1295"]


def _registry_entry_not_an_object(ws):
    return _edit_registries(ws, lambda r: r["languages"].append(1))


def _registry_section_not_a_list(ws):
    return _edit_registries(ws, lambda r: r.update(languages=5))


def _registry_source_not_a_string(ws):
    return _edit_registries(ws, lambda r: r["sources"].append([1]))


def _registry_source_listed_twice(ws):
    return _edit_registries(ws, lambda r: r["sources"].append(r["sources"][0]))


def _registry_origin_not_an_object(ws):
    return _edit_registries(ws, lambda r: r["features"][0].update(origin=[]))


def _missing_casestudy_input(ws):
    return ["eval", "casestudy", "--input", ws / "nope.csv", "--iterations", "100"]


def _missing_tiers(ws):
    return ["eval", "coverage", "--data", ws / "kb", "--tiers", ws / "nope.csv"]


def _impute_external(ws, external_file):
    return ["impute", "--data", ws / "kb", "--method", "external",
            "--external-file", external_file, "--out", ws / "imputed.csv"]


def _missing_external_file(ws):
    return _impute_external(ws, ws / "nope.csv")


def _external_file_is_a_directory(ws):
    return _impute_external(ws, ws)


def _external_file_not_utf8(ws):
    (ws / "latin1.csv").write_bytes("language,P_TONE\nstan1293\xe9,1\n".encode("latin-1"))
    return _impute_external(ws, ws / "latin1.csv")


def _csv_field_over_the_csv_module_limit(ws):
    (ws / "huge.csv").write_text("language,feature,value\neng,tone," + "1" * 131073 + "\n")
    return ["ingest", "--schema", ws / "schema.json", "--resolution-table", ws / "res.csv",
            "--source", f"WALS={ws / 'huge.csv'}", "--out", ws / "kbh"]


def _out_is_a_directory(ws):
    (ws / "outdir").mkdir()
    return ["aggregate", "--data", ws / "kb", "--mode", "union", "--out", ws / "outdir"]


def _edit_schema(ws, label, edit):
    schema = json.loads(json.dumps(SCHEMA))
    edit(schema["features"], label)
    (ws / "schema.json").write_text(json.dumps(schema))
    return ["ingest", "--schema", ws / "schema.json", "--resolution-table", ws / "res.csv",
            "--source", f"WALS={ws / 'wals.csv'}", "--out", ws / "kbs"]


def _schema_entry_is_a_list(ws):
    return _edit_schema(ws, "tone", lambda f, label: f.update({label: ["binary"]}))


def _schema_max_level_null(ws):
    return _edit_schema(ws, "cases", lambda f, label: f[label].update(max_level=None))


def _schema_categories_not_a_list(ws):
    return _edit_schema(ws, "word order", lambda f, label: f[label].update(categories=5))


def _confidence_with_cache(ws, cache):
    (ws / "cache.json").write_text(json.dumps(cache))
    return ["confidence", "--data", ws / "kb", "stan1293", "stan1295", "--method", "mean",
            "--aggregation", "union", "--quality-cache", ws / "cache.json"]


def _quality_cache_entry_not_an_object(ws):
    return _confidence_with_cache(ws, {"mean|union": 5})


def _quality_cache_entry_without_f1(ws):
    return _confidence_with_cache(ws, {"mean|union": {"accuracy": 0.5}})


def _quality_cache_key_without_a_method(ws):
    return _confidence_with_cache(ws, {"union": {"f1": 0.5}})


def _distance_with_config(ws, config):
    (ws / "config.json").write_text(json.dumps(config))
    return ["--config", ws / "config.json", "distance", "--data", ws / "kb",
            "stan1293", "stan1295"]


def _config_data_dir_not_a_string(ws):
    return _distance_with_config(ws, {"data_dir": 5})


def _config_aggregation_out_of_set(ws):
    return _distance_with_config(ws, {"aggregation": "median"})


def _registry_feature_name_not_a_string(ws):
    return _edit_registries(ws, lambda r: r["features"][0].update(name=5))


def _registry_language_name_not_a_string(ws):
    return _edit_registries(ws, lambda r: r["languages"][0].update(name=5))


def _registry_iso_code_not_a_string(ws):
    return _edit_registries(ws, lambda r: r["languages"][0].update(iso639_3=[1]))


def _registry_glottocode_not_a_string(ws):
    return _edit_registries(ws, lambda r: r["languages"][0].update(glottocode=5))


def _registry_integer_longer_than_int_conversion_allows(ws):
    (ws / "kb" / "registries.json").write_text('{"sources": [' + "1" * 5000 + "]}")
    return ["distance", "--data", ws / "kb", "stan1293", "stan1295"]


def _casestudy_row_not_finite(ws):
    rows = (DATA_DIR / "table5.csv").read_text().splitlines()
    rows[2] = rows[2].rsplit(",", 1)[0] + ",nan"
    (ws / "case.csv").write_text("\n".join(rows) + "\n")
    return ["eval", "casestudy", "--input", ws / "case.csv", "--iterations", "100"]


@pytest.mark.parametrize("make_argv", [
    _missing_schema,
    _missing_source_csv,
    _missing_quality_cache,
    _corrupt_registries,
    _registries_not_an_object,
    _registry_entry_without_glottocode,
    _registry_entry_not_an_object,
    _registry_origin_not_an_object,
    _registry_section_not_a_list,
    _registry_source_not_a_string,
    _registry_source_listed_twice,
    _missing_casestudy_input,
    _missing_tiers,
    _missing_external_file,
    _external_file_is_a_directory,
    _external_file_not_utf8,
    _csv_field_over_the_csv_module_limit,
    _out_is_a_directory,
    _schema_entry_is_a_list,
    _schema_max_level_null,
    _schema_categories_not_a_list,
    _quality_cache_entry_not_an_object,
    _quality_cache_entry_without_f1,
    _quality_cache_key_without_a_method,
    _config_data_dir_not_a_string,
    _config_aggregation_out_of_set,
    _registry_feature_name_not_a_string,
    _registry_language_name_not_a_string,
    _registry_iso_code_not_a_string,
    _registry_glottocode_not_a_string,
    _registry_integer_longer_than_int_conversion_allows,
    _casestudy_row_not_finite,
])
def test_unreadable_input_exits_2_with_one_line_error(workspace, capsys, make_argv):
    ingest(capsys, workspace)
    code, out, err = run(capsys, *make_argv(workspace))
    assert code == 2
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == "FormatError"


def test_registry_parent_that_names_no_earlier_language_exits_2(workspace, capsys):
    ingest(capsys, workspace)
    argv = _edit_registries(workspace, lambda r: r["languages"][1].update(parent="zzzz9999"))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "FormatError"
    assert "registries.json: language entry 'stan1295'" in error["message"]
    assert "zzzz9999" in error["message"]


def test_registry_source_outside_the_tensor_directory_exits_2(workspace, capsys):
    ingest(capsys, workspace)
    (workspace / "outside.csv").write_text("language,feature,value\nstan1293,P_TONE,1\n")
    _edit_registries(workspace, lambda r: r["sources"].append("../outside"))
    code, out, err = run(capsys, "eval", "coverage", "--data", workspace / "kb")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "FormatError"
    assert "registries.json: source name '../outside'" in error["message"]


@pytest.mark.parametrize("failure", ["write", "fsync"])
def test_failing_out_write_leaves_the_existing_file_unchanged(workspace, capsys, monkeypatch,
                                                             failure):
    out_file = workspace / "case.json"
    out_file.write_bytes(b"old bytes\n")

    def fail(*args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    def open_failing_writes(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        fh.write = fail
        return fh

    if failure == "write":
        monkeypatch.setattr(storage, "open", open_failing_writes, raising=False)
    else:
        monkeypatch.setattr(storage.os, "fsync", fail)
    code, out, err = run(capsys, "eval", "casestudy", "--input", DATA_DIR / "table5.csv",
                         "--iterations", "100", "--out", out_file)
    monkeypatch.undo()
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and os.strerror(errno.EIO) in json.loads(err)["message"]
    assert out_file.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in workspace.iterdir() if p.name.startswith(".")) == []


def test_ingest_without_resolution_table_passes_glottocodes(workspace, capsys):
    (workspace / "glotto.csv").write_text(
        "language,feature,value\nstan1293,tone,0\nstan1295,tone,1\n"
    )
    code, out, err = run(
        capsys, "ingest", "--schema", workspace / "schema.json",
        "--source", f"WALS={workspace / 'glotto.csv'}", "--out", workspace / "kbg",
    )
    assert code == 0, err
    assert json.loads(out)["languages"] == 2


def test_ingest_without_resolution_table_rejects_iso_codes(workspace, capsys):
    code, out, err = run(
        capsys, "ingest", "--schema", workspace / "schema.json",
        "--source", f"WALS={workspace / 'wals.csv'}", "--out", workspace / "kbi",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "UnresolvableId"


#: One value of each JSON type, drawn from a seeded random.Random.
_JSON_VALUES = {
    "null": lambda rng: None,
    "bool": lambda rng: rng.random() < 0.5,
    "int": lambda rng: rng.randint(-2, 2**70),
    "huge int": lambda rng: 10**rng.randint(309, 400),  # beyond float range
    "float": lambda rng: rng.uniform(-2.0, 2.0),
    "nan": lambda rng: math.nan,
    "string": lambda rng: "".join(rng.choices("ab9_|", k=rng.randint(0, 6))),
    "list": lambda rng: [rng.randint(0, 9)] * rng.randint(0, 2),
    "object": lambda rng: {"f1": rng.random()} if rng.random() < 0.5 else {},
}


def _json_type(value) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return {type(None): "null", bool: "bool", int: "int", float: "float", str: "string",
            list: "list", dict: "object"}[type(value)]


def _paths(node, prefix=()):
    """The key or index path of every value under node."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield prefix + (key,)
            yield from _paths(child, prefix + (key,))


def test_json_fields_of_every_type_exit_0_1_or_2_without_a_traceback(workspace, capsys):
    """Replace each field and each whole entry of every JSON input with a
    value of each other JSON type, and run the command that reads it."""
    rng = random.Random(6)
    data = ingest(capsys, workspace)
    cache = workspace / "cache.json"
    for mode in ("union", "average"):
        code, _, err = run(capsys, "eval", "quality", "--data", data, "--imputer", "mean",
                           "--mode", mode, "--quality-cache", cache)
        assert code == 0, err
    config = workspace / "config.json"
    config.write_text(json.dumps({
        "data_dir": str(data), "aggregation": "union", "metric": "cosine", "imputer": "mean",
        "seed": 3, "resolution_table": str(workspace / "res.csv"),
        "rules_file": str(workspace / "rules.csv"),
    }))
    inputs = {
        data / "registries.json": ["distance", "--data", data, "stan1293", "stan1295"],
        workspace / "schema.json": [
            "ingest", "--schema", workspace / "schema.json",
            "--resolution-table", workspace / "res.csv",
            "--source", f"WALS={workspace / 'wals.csv'}", "--out", workspace / "kbf"],
        config: ["--config", config, "distance", "stan1293", "stan1295"],
        cache: ["confidence", "--data", data, "stan1293", "stan1295", "--method", "mean",
                "--quality-cache", cache],
    }
    runs = 0
    for path, argv in inputs.items():
        original = json.loads(path.read_text())
        for key_path in list(_paths(original)):
            doc = copy.deepcopy(original)
            node = doc
            for key in key_path[:-1]:
                node = node[key]
            for kind, make in _JSON_VALUES.items():
                if kind == _json_type(node[key_path[-1]]):
                    continue
                node[key_path[-1]] = make(rng)
                path.write_text(json.dumps(doc))
                mutation = f"{path.name} {list(key_path)} = {node[key_path[-1]]!r}"
                try:
                    code, out, err = run(capsys, *argv)
                except Exception as exc:  # a traceback is the defect this test looks for
                    pytest.fail(f"{mutation}: {type(exc).__name__}: {exc}")
                assert code in (0, 1, 2), mutation
                assert "Traceback" not in err, mutation
                if code == 0:
                    assert err == "", mutation
                else:
                    assert out == "" and err.count("\n") == 1, mutation
                    assert set(json.loads(err)) == {"error", "message"}, mutation
                runs += 1
        path.write_text(json.dumps(original))
    assert runs > 1000  # the mutation set is not meant to shrink
