import json
from typing import Optional, Sequence

import numpy as np
import pytest

from typodist.aggregate import AggregationMode, aggregate
from typodist.errors import (
    CyclicRules,
    FormatError,
    LevelOutOfRange,
    NameCollision,
    TypodistError,
    UnknownCategory,
    UnknownFeature,
    UnresolvableId,
)
from typodist.ingest import (
    MISSING_MARKERS,
    CanonicalNamer,
    FeatureSpec,
    IdResolutionTable,
    InferenceRule,
    IngestReport,
    IngestSchema,
    RuleDirection,
    VariableKind,
    apply_inference,
    binarize_nominal,
    binarize_ordinal,
    build_batch,
    canonicalize_feature_name,
    check_rules_acyclic,
    is_retired,
    load_ingest_schema,
    load_resolution_table,
    load_rules,
    read_source_csv,
    resolve_language,
)
from typodist.kb import (
    Category,
    CellArrays,
    FeatureDescriptor,
    FeatureOrigin,
    FeatureTensor,
    LanguageRecord,
    TensorBatch,
)
from typodist.storage import _read_csv_rows

from conftest import make_tensor



# canonical names ----------------------------------------------------------

def test_canonicalize_examples():
    assert (
        canonicalize_feature_name("are there prenominal articles?", Category.SYNTACTIC)
        == "S_ARE_THERE_PRENOMINAL_ARTICLES"
    )
    assert canonicalize_feature_name("tone", Category.PHONOLOGICAL) == "P_TONE"


def test_canonicalize_truncates_to_64():
    raw = "x" * 200
    name = canonicalize_feature_name(raw, Category.MORPHOLOGICAL)
    assert len(name) == 64
    assert name.startswith("M_")


def test_canonicalize_is_a_function():
    for raw, cat in [("Has Tone?", Category.PHONOLOGICAL), ("a  b\tc", Category.SYNTACTIC)]:
        assert canonicalize_feature_name(raw, cat) == canonicalize_feature_name(raw, cat)


def test_name_collision_detected():
    namer = CanonicalNamer()
    namer.canonicalize("has tone", Category.PHONOLOGICAL)
    namer.canonicalize("has tone", Category.PHONOLOGICAL)  # same raw is fine
    with pytest.raises(NameCollision):
        namer.canonicalize("has tone!", Category.PHONOLOGICAL)


# binarization ----------------------------------------------------------------

def test_binarize_nominal_word_order():
    out = binarize_nominal("word order", ["SOV", "SVO", "VSO"], "SVO", Category.SYNTACTIC)
    assert out == [
        ("S_WORD_ORDER_SOV", 0.0),
        ("S_WORD_ORDER_SVO", 1.0),
        ("S_WORD_ORDER_VSO", 0.0),
    ]


def test_binarize_nominal_two_categories():
    out = binarize_nominal("voicing", ["yes", "no"], "yes", Category.PHONOLOGICAL)
    assert [v for _, v in out] == [1.0, 0.0]


def test_binarize_nominal_unknown_category():
    with pytest.raises(UnknownCategory):
        binarize_nominal("word order", ["SOV", "SVO", "VSO"], "OVS", Category.SYNTACTIC)


def test_one_hot_exclusivity_property():
    rng = np.random.default_rng(7)
    alphabet = ["AA", "BB", "CC", "DD", "EE", "FF"]
    for _ in range(100):
        k = int(rng.integers(2, 6))
        cats = list(rng.choice(alphabet, size=k, replace=False))
        observed = cats[int(rng.integers(0, k))]
        out = binarize_nominal("some feature", cats, observed, Category.MORPHOLOGICAL)
        assert len(out) == k
        assert sum(v for _, v in out) == 1.0
        assert len({n for n, _ in out}) == k


def test_binarize_ordinal_presence_threshold():
    assert binarize_ordinal("cases", 2, 0, Category.MORPHOLOGICAL)[1] == 0.0
    assert binarize_ordinal("cases", 2, 2, Category.MORPHOLOGICAL)[1] == 1.0
    assert binarize_ordinal("cases", 2, 1, Category.MORPHOLOGICAL)[1] == 1.0


def test_binarize_ordinal_out_of_range():
    with pytest.raises(LevelOutOfRange):
        binarize_ordinal("cases", 2, 3, Category.MORPHOLOGICAL)
    with pytest.raises(LevelOutOfRange):
        binarize_ordinal("cases", 2, -1, Category.MORPHOLOGICAL)


# inference ---------------------------------------------------------------------

ARTICLE_RULE = InferenceRule(
    from_feature="S_ARTICLE_WORD_BEFORE_NOUN",
    to_feature="S_ARE_THERE_PRENOMINAL_ARTICLES",
    direction=RuleDirection.IMPLIES,
    mapping=((1.0, 1.0),),
)


def _article_batch(to_value=None):
    cells = [("abcd1234", "S_ARTICLE_WORD_BEFORE_NOUN", "SRC_A", 1.0)]
    if to_value is not None:
        cells.append(("abcd1234", "S_ARE_THERE_PRENOMINAL_ARTICLES", "SRC_B", to_value))
    return TensorBatch(
        features=[
            FeatureDescriptor("S_ARTICLE_WORD_BEFORE_NOUN", Category.SYNTACTIC),
            FeatureDescriptor("S_ARE_THERE_PRENOMINAL_ARTICLES", Category.SYNTACTIC),
        ],
        sources=["SRC_A", "SRC_B"],
        cells=cells,
    )


def test_inference_fills_missing_target():
    out = apply_inference([ARTICLE_RULE], _article_batch())
    assert ("abcd1234", "S_ARE_THERE_PRENOMINAL_ARTICLES", "SRC_A", 1.0) in out.cells


def test_inference_never_overwrites_known():
    out = apply_inference([ARTICLE_RULE], _article_batch(to_value=0.0))
    target = [c for c in out.cells if c[1] == "S_ARE_THERE_PRENOMINAL_ARTICLES"]
    assert target == [("abcd1234", "S_ARE_THERE_PRENOMINAL_ARTICLES", "SRC_B", 0.0)]


def test_equivalent_rule_drops_duplicate_column():
    rule = InferenceRule(
        from_feature="S_ARTICLE_WORD_BEFORE_NOUN",
        to_feature="S_ARE_THERE_PRENOMINAL_ARTICLES",
        direction=RuleDirection.EQUIVALENT,
        mapping=((1.0, 1.0), (0.0, 0.0)),
    )
    out = apply_inference([rule], _article_batch())
    assert all(c[1] != "S_ARTICLE_WORD_BEFORE_NOUN" for c in out.cells)
    assert all(f.name != "S_ARTICLE_WORD_BEFORE_NOUN" for f in out.features)
    # the value still flowed into the kept feature before the drop
    assert ("abcd1234", "S_ARE_THERE_PRENOMINAL_ARTICLES", "SRC_A", 1.0) in out.cells


def test_inference_idempotent_and_monotone():
    rng = np.random.default_rng(13)
    feats = [f"S_CHAIN{i}" for i in range(5)]
    rules = [
        InferenceRule(feats[i], feats[i + 1], RuleDirection.IMPLIES, ((1.0, 1.0), (0.0, 0.0)))
        for i in range(4)
    ]
    for _ in range(20):
        batch = TensorBatch(
            features=[FeatureDescriptor(f, Category.SYNTACTIC) for f in feats],
            sources=["SRC_A"],
            cells=[
                (f"l{i:03d}1234", feats[j], "SRC_A", float(rng.integers(0, 2)))
                for i in range(3)
                for j in range(5)
                if rng.random() < 0.4
            ],
        )
        once = apply_inference(rules, batch)
        twice = apply_inference(rules, once)
        assert sorted(once.cells) == sorted(twice.cells)
        assert len(once.cells) >= len(batch.cells)


def test_chained_inference_reaches_fixpoint_regardless_of_order():
    feats = ["S_A", "S_B", "S_C"]
    rules = [
        InferenceRule("S_B", "S_C", RuleDirection.IMPLIES, ((1.0, 1.0),)),
        InferenceRule("S_A", "S_B", RuleDirection.IMPLIES, ((1.0, 1.0),)),
    ]
    batch = TensorBatch(
        features=[FeatureDescriptor(f, Category.SYNTACTIC) for f in feats],
        sources=["SRC_A"],
        cells=[("abcd1234", "S_A", "SRC_A", 1.0)],
    )
    out = apply_inference(rules, batch)
    known = {(c[0], c[1]): c[3] for c in out.cells}
    assert known[("abcd1234", "S_B")] == 1.0
    assert known[("abcd1234", "S_C")] == 1.0


def test_cyclic_rules_rejected():
    rules = [
        InferenceRule("S_A", "S_B", RuleDirection.IMPLIES, ((1.0, 1.0),)),
        InferenceRule("S_B", "S_A", RuleDirection.IMPLIES, ((1.0, 1.0),)),
    ]
    batch = TensorBatch(
        features=[
            FeatureDescriptor("S_A", Category.SYNTACTIC),
            FeatureDescriptor("S_B", Category.SYNTACTIC),
        ]
    )
    with pytest.raises(CyclicRules):
        apply_inference(rules, batch)


def test_inference_rejects_unknown_features():
    with pytest.raises(UnknownFeature):
        apply_inference([ARTICLE_RULE], TensorBatch())


def test_known_in_tensor_blocks_inference(tiny_tensor):
    rule = InferenceRule("S_F1", "S_F2", RuleDirection.IMPLIES, ((0.0, 1.0),))
    batch = TensorBatch(cells=[("othe1234", "S_F1", "SRC_A", 0.0)])
    out = apply_inference([rule], batch, tensor=tiny_tensor)
    # othe1234 already has S_F2 in the tensor, so nothing is inferred
    assert all(c[1] != "S_F2" for c in out.cells)


def test_an_equivalence_cycle_is_rejected_before_it_drops_both_columns():
    rules = [
        InferenceRule("S_A", "S_B", RuleDirection.EQUIVALENT, ((1.0, 1.0),)),
        InferenceRule("S_B", "S_A", RuleDirection.EQUIVALENT, ((1.0, 1.0),)),
    ]
    batch = TensorBatch(
        features=[FeatureDescriptor("S_A", Category.SYNTACTIC),
                  FeatureDescriptor("S_B", Category.SYNTACTIC)],
        sources=["SRC_A"],
        cells=[("abcd1234", "S_A", "SRC_A", 1.0), ("efgh1234", "S_B", "SRC_A", 1.0)],
    )
    with pytest.raises(CyclicRules, match="equivalence cycle"):
        apply_inference(rules, batch)


def test_a_cycle_mixing_implies_and_equivalent_rules_is_allowed():
    rules = [
        InferenceRule("S_A", "S_B", RuleDirection.IMPLIES, ((1.0, 1.0),)),
        InferenceRule("S_B", "S_A", RuleDirection.EQUIVALENT, ((1.0, 1.0),)),
    ]
    batch = TensorBatch(
        features=[FeatureDescriptor("S_A", Category.SYNTACTIC),
                  FeatureDescriptor("S_B", Category.SYNTACTIC)],
        sources=["SRC_A"],
        cells=[("abcd1234", "S_A", "SRC_A", 1.0), ("efgh1234", "S_B", "SRC_A", 1.0)],
    )
    out = apply_inference(rules, batch)
    assert [f.name for f in out.features] == ["S_A"]
    assert sorted(out.cells) == [("abcd1234", "S_A", "SRC_A", 1.0), ("efgh1234", "S_A", "SRC_A", 1.0)]


@pytest.mark.parametrize("value", [5.0, -0.5, float("inf"), float("-inf"), float("nan"), "1"])
@pytest.mark.parametrize("side", [0, 1])
def test_a_rule_mapping_value_must_be_a_finite_number_in_0_1(value, side):
    pair = (value, 1.0) if side == 0 else (1.0, value)
    with pytest.raises(FormatError, match=r"'S_A' -> 'S_B': mapping value .* is not a finite number in \[0, 1\]"):
        InferenceRule("S_A", "S_B", RuleDirection.IMPLIES, ((0.0, 0.0), pair))


def test_rule_inference_reads_no_cell_one_at_a_time(monkeypatch):
    def one_cell(self, i):
        raise AssertionError("apply_inference read a cell through CellArrays.__getitem__")

    rules = [ARTICLE_RULE, InferenceRule("S_ARE_THERE_PRENOMINAL_ARTICLES", "S_C",
                                         RuleDirection.EQUIVALENT, ((1.0, 0.0), (0.0, 1.0)))]
    batch = _article_batch()
    batch.features.append(FeatureDescriptor("S_C", Category.SYNTACTIC))
    batch.cells = CellArrays.of(batch.cells + [("efgh1234", "S_ARTICLE_WORD_BEFORE_NOUN", "SRC_B", 1.0)])
    want = list(apply_inference_oracle(rules, batch).cells)
    monkeypatch.setattr(CellArrays, "__getitem__", one_cell)
    got = list(apply_inference(rules, batch).cells)
    assert sorted(got) == sorted(want)
    assert ("efgh1234", "S_C", "SRC_B", 0.0) in got


def apply_inference_oracle(
    rules: Sequence[InferenceRule],
    batch: TensorBatch,
    tensor: Optional[FeatureTensor] = None,
) -> TensorBatch:
    """apply_inference as a per-cell dict fixpoint: the oracle for the
    columnar one. Its inferred cells come in sweep, rule, language order."""
    check_rules_acyclic(rules)
    known_features = {f.name for f in batch.features}
    if tensor is not None:
        known_features.update(f.name for f in tensor.features)
    for rule in rules:
        for name in (rule.from_feature, rule.to_feature):
            if name not in known_features:
                raise UnknownFeature(name)

    cells = CellArrays.of(batch.cells)
    ruled = {name for rule in rules for name in (rule.from_feature, rule.to_feature)}
    # (lang, feature) -> first contributing source and its value, for the rules' features
    cell_map: dict[tuple[str, str], tuple[str, float]] = {}
    for i in np.flatnonzero(np.isin(cells.names[1], list(ruled))[cells.codes[1]]).tolist():
        lang, feat, src, value = cells[i]
        cell_map.setdefault((lang, feat), (src, value))
    # rule target feature -> languages with a known value for it in the tensor
    known_in_tensor: dict[str, set[str]] = {}
    if tensor is not None:
        matrix = aggregate(tensor, AggregationMode.UNION)
        known = matrix.known_mask
        column = {f.name: j for j, f in enumerate(matrix.features)}
        for name in {rule.to_feature for rule in rules} & column.keys():
            rows = np.flatnonzero(known[:, column[name]]).tolist()
            known_in_tensor[name] = {matrix.languages[i] for i in rows}

    languages = dict.fromkeys(lang for lang, _feat in cell_map)  # the ones a rule can fill
    inferred: list[tuple[str, str, str, float]] = []
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for lang in languages:
                src_cell = cell_map.get((lang, rule.from_feature))
                if src_cell is None:
                    continue
                in_tensor = known_in_tensor.get(rule.to_feature, ())
                if (lang, rule.to_feature) in cell_map or lang in in_tensor:
                    continue
                mapped = rule.mapped(src_cell[1])
                if mapped is None:
                    continue
                cell_map[(lang, rule.to_feature)] = (src_cell[0], mapped)
                inferred.append((lang, rule.to_feature, src_cell[0], mapped))
                changed = True

    dropped = {r.from_feature for r in rules if r.direction is RuleDirection.EQUIVALENT}
    kept = ~np.isin(cells.names[1], list(dropped))[cells.codes[1]]
    return TensorBatch(
        languages=list(batch.languages),
        features=[f for f in batch.features if f.name not in dropped],
        sources=list(batch.sources),
        cells=CellArrays.concat(
            [cells.take(kept), CellArrays.of(c for c in inferred if c[1] not in dropped)]),
    )


# --- language identifier resolution ------------------------------------------


_RULE_FEATURES = ["S_A", "S_B", "S_C", "S_D", "S_E"]
_RULE_VALUES = [0.0, 0.5, 1.0, -0.0]


def _random_rules(rng):
    rules = []
    for _ in range(rng.integers(1, 7)):
        frm, to = rng.choice(_RULE_FEATURES + ["S_MISSING"] * (rng.random() < 0.05), 2, replace=False)
        direction = RuleDirection.EQUIVALENT if rng.random() < 0.3 else RuleDirection.IMPLIES
        n_pairs = rng.integers(0 if rng.random() < 0.05 else 1, 4)
        sources = rng.choice(_RULE_VALUES, n_pairs).tolist()
        targets = (rng.choice(_RULE_VALUES[:3], n_pairs, replace=False)
                   if direction is RuleDirection.EQUIVALENT else rng.choice(_RULE_VALUES, n_pairs)).tolist()
        rules.append(InferenceRule(str(frm), str(to), direction, tuple(zip(sources, targets))))
    return rules


def _random_cells(rng, n, languages, sources):
    features = _RULE_FEATURES + ["S_OTHER"]
    values = [0.0, 0.5, 1.0, 1.0, -0.0, float("nan"), 0.25]
    return [(str(rng.choice(languages)), str(rng.choice(features)), str(rng.choice(sources)),
             float(rng.choice(values))) for _ in range(n)]


def _random_inference_case(rng):
    languages = [f"l{i:03d}1234" for i in range(rng.integers(1, 8))]
    sources = ["SRC_A", "SRC_B", "SRC_C"]
    cells = _random_cells(rng, rng.integers(0, 20), languages, sources)
    if rng.random() < 0.5:  # as merge_batches gives it: tables that repeat names
        half = len(cells) // 2
        cells = CellArrays.concat([CellArrays.of(cells[:half]), CellArrays.of(cells[half:])])
    in_batch = [f for f in _RULE_FEATURES + ["S_OTHER"] if rng.random() < 0.95]
    batch = TensorBatch(features=[FeatureDescriptor(f, Category.SYNTACTIC) for f in in_batch],
                        sources=sources, cells=cells)
    tensor = None
    if rng.random() < 0.5:
        held = languages[:rng.integers(0, len(languages) + 1)] + ["zzzz1234"]
        tensor_cells = [c for c in _random_cells(rng, rng.integers(0, 30), held, sources[:2])
                        if not np.isnan(c[3])]
        tensor = make_tensor(held, _RULE_FEATURES + ["S_OTHER"], tensor_cells, sources[:2])
    return _random_rules(rng), batch, tensor


def _bits(cells):
    return [(lang, feat, src, np.float64(v).tobytes()) for lang, feat, src, v in cells]


def _inference_outcome(rules, batch, tensor, fn):
    try:
        out = fn(rules, batch, tensor)
    except (CyclicRules, UnknownFeature) as exc:
        return type(exc), str(exc)
    dropped = {r.from_feature for r in rules if r.direction is RuleDirection.EQUIVALENT}
    n_kept = sum(c[1] not in dropped for c in batch.cells)
    cells = _bits(out.cells)
    return (out.languages, out.features, out.sources, cells[:n_kept], sorted(cells[n_kept:]))


def test_apply_inference_matches_the_per_cell_oracle():
    rng = np.random.default_rng(29)
    outcomes = []
    for _ in range(1200):
        rules, batch, tensor = _random_inference_case(rng)
        want = _inference_outcome(rules, batch, tensor, apply_inference_oracle)
        assert _inference_outcome(rules, batch, tensor, apply_inference) == want, (rules, list(batch.cells))
        outcomes.append(want[0] if isinstance(want[0], type) else len(want[4]) > 0)
    # the cases reach every kind of outcome
    assert {CyclicRules, UnknownFeature, True, False} <= set(outcomes)


# identifier resolution -----------------------------------------------------------

def _replacement_table():
    return IdResolutionTable(
        iso_to_glotto={"eng": "stan1293"},
        retired_iso={
            "alb": "alba1267",
            "ara": "stan1318",
            "aze": "nort2697",
            "zho": "mand1415",
            "ekk": "esto1258",
            "msa": "stan1306",
            "orm": "east2652",
            "fas": "west2369",
            "swa": "swah1253",
        },
    )


def test_resolve_replacement_rows():
    table = _replacement_table()
    assert resolve_language("alb", table) == "alba1267"
    assert resolve_language("swa", table) == "swah1253"


def test_resolve_glottocode_passthrough():
    assert resolve_language("stan1293", IdResolutionTable()) == "stan1293"


def test_resolve_unresolvable():
    with pytest.raises(UnresolvableId):
        resolve_language("xxq", IdResolutionTable())


def test_resolution_table_file(tmp_path):
    path = tmp_path / "res.csv"
    path.write_text(
        "external_id,glottocode,retired_flag\n"
        "eng,stan1293,0\n"
        "gre,mode1248,1\n"
    )
    table = load_resolution_table(path)
    assert resolve_language("eng", table) == "stan1293"
    assert resolve_language("gre", table) == "mode1248"
    bad = tmp_path / "bad.csv"
    bad.write_text("external_id,glottocode,retired_flag\neng,notacode,0\n")
    with pytest.raises(FormatError, match="row 2"):
        load_resolution_table(bad)


# rules / schema files ---------------------------------------------------------------

def test_load_rules(tmp_path):
    path = tmp_path / "rules.csv"
    path.write_text(
        "from_feature,to_feature,direction,from_value,to_value\n"
        "S_A,S_B,implies,1,1\n"
        "S_A,S_B,implies,0,0\n"
        "S_C,S_D,equivalent,1,1\n"
    )
    rules = load_rules(path)
    assert len(rules) == 2
    assert rules[0].mapping == ((1.0, 1.0), (0.0, 0.0))
    assert rules[1].direction is RuleDirection.EQUIVALENT


def test_load_rules_names_the_first_row_with_a_value_no_cell_can_hold(tmp_path):
    path = tmp_path / "rules.csv"
    path.write_text(
        "from_feature,to_feature,direction,from_value,to_value\n"
        "S_A,S_B,implies,1,1\n"
        "S_A,S_B,implies,0,-0.5\n"
        "S_C,S_D,equivalent,2,1\n"
    )
    with pytest.raises(FormatError) as exc:
        load_rules(path)
    assert str(exc.value) == (f"{path}: row 3: inference rule 'S_A' -> 'S_B': "
                              "mapping value -0.5 is not a finite number in [0, 1]")


def test_load_schema_validation(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('{"features": {"tone": {"kind": "binary", "category": "phonological"}}}')
    schema = load_ingest_schema(path)
    assert schema.lookup("tone").category is Category.PHONOLOGICAL
    path.write_text('{"features": {"wo": {"kind": "nominal", "category": "syntactic", "categories": ["SOV"]}}}')
    with pytest.raises(FormatError, match="categories"):
        load_ingest_schema(path)


def test_schema_keeps_a_repeated_category_once_and_binarizes_with_its_own_level(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"features": {"order": {
        "kind": "nominal", "category": "syntactic", "categories": ["SOV", "SOV", "SVO"]}}}))
    schema = load_ingest_schema(path)
    assert schema.lookup("order").categories == ("SOV", "SVO")
    src = tmp_path / "s.csv"
    src.write_text("language,feature,value\neng,order,SVO\n")
    batch, _ = build_batch(read_source_csv(src, "S"), schema, _replacement_table())
    assert {f.name: f.origin.level for f in batch.features} == {
        "S_ORDER_SOV": "SOV", "S_ORDER_SVO": "SVO"}
    path.write_text(json.dumps({"features": {"order": {
        "kind": "nominal", "category": "syntactic", "categories": ["SOV", "SOV"]}}}))
    with pytest.raises(FormatError, match="needs >= 2 categories"):
        load_ingest_schema(path)


def test_a_schema_built_in_code_labels_each_level_once(tmp_path):
    spec = FeatureSpec("order", VariableKind.NOMINAL, Category.SYNTACTIC, ("SOV", "SOV", "SVO"))
    src = tmp_path / "s.csv"
    src.write_text("language,feature,value\neng,order,SVO\n")
    batch, _ = build_batch(read_source_csv(src, "S"), IngestSchema({"order": spec}),
                           _replacement_table())
    assert {f.name: f.origin.level for f in batch.features} == {
        "S_ORDER_SOV": "SOV", "S_ORDER_SVO": "SVO"}
    assert sorted((feat, v) for _lang, feat, _src, v in batch.cells) == [
        ("S_ORDER_SOV", 0.0), ("S_ORDER_SVO", 1.0)]


# end-to-end batch building ------------------------------------------------------------

def test_build_batch_from_csv(tmp_path):
    src = tmp_path / "wals.csv"
    src.write_text(
        "language,feature,value\n"
        "eng,word order,SVO\n"
        "alb,tone,0\n"
        "eng,cases,2\n"
        "eng,unused,--\n"
    )
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        """
        {"features": {
            "word order": {"kind": "nominal", "category": "syntactic",
                           "categories": ["SOV", "SVO", "VSO"]},
            "tone": {"kind": "binary", "category": "phonological"},
            "cases": {"kind": "ordinal", "category": "morphological", "max_level": 3},
            "unused": {"kind": "binary", "category": "syntactic"}
        }}
        """
    )
    schema = load_ingest_schema(schema_path)
    records = read_source_csv(src, "WALS")
    batch, report = build_batch(records, schema, _replacement_table())
    assert report.rows_read == 4
    assert report.rows_skipped_missing == 1
    assert report.resolved_retired == [("alb", "alba1267")]
    cells = {(c[0], c[1]): c[3] for c in batch.cells}
    assert cells[("stan1293", "S_WORD_ORDER_SVO")] == 1.0
    assert cells[("stan1293", "S_WORD_ORDER_SOV")] == 0.0
    assert cells[("alba1267", "P_TONE")] == 0.0
    assert cells[("stan1293", "M_CASES")] == 1.0
    assert report.cells_written == len(batch.cells) == 5
    lang_isos = {r.glottocode: r.iso639_3 for r in batch.languages}
    assert lang_isos == {"stan1293": "eng", "alba1267": "alb"}


def test_build_batch_rejects_bad_binary(tmp_path):
    src = tmp_path / "s.csv"
    src.write_text("language,feature,value\neng,tone,maybe\n")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text('{"features": {"tone": {"kind": "binary", "category": "phonological"}}}')
    with pytest.raises(FormatError, match="non-binary"):
        build_batch(
            read_source_csv(src, "S"),
            load_ingest_schema(schema_path),
            _replacement_table(),
        )


# row errors and the per-row oracle -------------------------------------------------------

ROW_SCHEMA = {
    "tone": {"kind": "binary", "category": "phonological"},
    "tone!": {"kind": "binary", "category": "phonological"},  # canonicalizes as "tone" does
    "nasal vowels": {"kind": "binary", "category": "phonological"},
    "word order": {"kind": "nominal", "category": "syntactic", "categories": ["SOV", "SVO", "VSO"]},
    "cases": {"kind": "ordinal", "category": "morphological", "max_level": 3},
}


def _row_schema(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"features": ROW_SCHEMA}))
    return load_ingest_schema(path)


def _row_table():
    return IdResolutionTable(
        iso_to_glotto={"eng": "stan1293", "deu": "stan1295", "kcv": "aaab1037", "ell": "mode1248"},
        retired_iso={"gre": "mode1248", "alb": "alba1267"},
    )


@pytest.mark.parametrize("rows, error, message", [
    (["eng,tone,1", "", "deu,tone,maybe"], FormatError,  # a blank row keeps its number
     "row 4: binary feature 'tone' has non-binary value 'maybe'"),
    (["eng,cases,2", "eng,cases,two"], FormatError,
     "row 3: ordinal feature 'cases' has non-integer level 'two'"),
    (["eng,cases,2", "deu,cases,--", "deu,cases,4"], LevelOutOfRange,
     "row 4: level 4 for 'cases' outside [0, 3]"),
    (["eng,word order,SVO", "deu,word order,OVS"], UnknownCategory,
     "row 3: value 'OVS' not among declared categories for 'word order'"),
    (["eng,tone,1", "deu,bogus,1"], FormatError,
     "row 3: feature label 'bogus' is not in the ingest schema"),
    (["eng,tone,1", "xxq,bogus,--", "xxq,tone,1"], UnresolvableId,
     "row 4: cannot resolve language identifier: 'xxq'"),
    # the first bad row in file order, whichever distinct value is bad
    (["eng,tone,1", "xxq,tone,1", "eng,tone,maybe"], UnresolvableId, "row 3: cannot resolve"),
    (["eng,tone,1", "eng,tone,maybe", "xxq,tone,1"], FormatError, "row 3: binary feature"),
    (["eng,tone,1", "xxq,tone,maybe"], UnresolvableId, "row 3: cannot resolve"),
    (["eng,tone,1", "deu,tone!,1"], NameCollision, "row 3: feature name collision"),
])
def test_build_batch_row_errors_name_the_file_and_csv_row(tmp_path, rows, error, message):
    path = tmp_path / "bad1.csv"
    path.write_text("language,feature,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(error) as caught:
        build_batch(read_source_csv(path, "S"), _row_schema(tmp_path), _row_table())
    assert type(caught.value) is error
    assert str(caught.value).startswith(f"{path}: {message}")


def _build_batch_oracle(path, schema, table, namer, source_name):
    """The per-row build_batch that the distinct-value one replaced; its
    row errors carry the file and CSV row prefix of today's contract."""
    batch = TensorBatch()
    report = IngestReport(source=source_name)
    seen_langs, seen_feats, seen_sources = set(), set(), set()

    def add_feature(name, category, origin):
        if name not in seen_feats:
            seen_feats.add(name)
            batch.features.append(FeatureDescriptor(name, category, origin))

    for row_num, row in _read_csv_rows(path, ("language", "feature", "value")):
        ext, label, value = (c.strip() for c in row)
        report.rows_read += 1
        if value in MISSING_MARKERS:
            report.rows_skipped_missing += 1
            continue
        try:
            glotto = resolve_language(ext, table)
            if is_retired(ext, table) and (ext, glotto) not in report.resolved_retired:
                report.resolved_retired.append((ext, glotto))
            if glotto not in seen_langs:
                seen_langs.add(glotto)
                batch.languages.append(
                    LanguageRecord(glottocode=glotto, iso639_3=ext if ext != glotto else None))
            if source_name not in seen_sources:
                seen_sources.add(source_name)
                batch.sources.append(source_name)
            spec = schema.lookup(label)
            if spec.kind is VariableKind.BINARY:
                if value not in {"0", "1", "0.0", "1.0"}:
                    raise FormatError(f"binary feature {label!r} has non-binary value {value!r}")
                name = namer.canonicalize(label, spec.category)
                add_feature(name, spec.category, FeatureOrigin.native())
                batch.cells.append((glotto, name, source_name, float(value)))
            elif spec.kind is VariableKind.NOMINAL:
                pairs = binarize_nominal(label, spec.categories, value, spec.category)
                base = canonicalize_feature_name(label, spec.category)
                for (name, v), cat_value in zip(pairs, spec.categories):
                    namer.claim(name, f"{label}={cat_value}")
                    add_feature(name, spec.category, FeatureOrigin.nominal(base, str(cat_value)))
                    batch.cells.append((glotto, name, source_name, v))
            else:
                try:
                    level = int(value)
                except ValueError:
                    raise FormatError(
                        f"ordinal feature {label!r} has non-integer level {value!r}") from None
                name, v = binarize_ordinal(label, spec.max_level, level, spec.category)
                namer.claim(name, label)
                add_feature(name, spec.category, FeatureOrigin.ordinal(label))
                batch.cells.append((glotto, name, source_name, v))
        except TypodistError as exc:
            exc.args = (f"{path}: row {row_num}: {exc}",)
            raise
    report.cells_written = len(batch.cells)
    return batch, report


ROW_IDS = ["eng", "deu", "kcv", "ell", "gre", "alb", "stan1293", "aaab1037", "abcd1234",
           " eng", "gre "]
ROW_VALUES = {
    "tone": ["0", "1", "0.0", "1.0"], "tone!": ["1"], "nasal vowels": ["0", "1"],
    "word order": ["SOV", "SVO", "VSO"], "cases": ["0", "1", "2", "3", " 2"],
}
BAD_VALUES = ["maybe", "2", "4", "-1", "two", "OVS", "SVO "]


def _random_source(rng, path, bad_rate):
    """A raw export of seeded random rows: every kind of feature and id,
    every missing marker, repeated and blank rows, and at bad_rate a bad
    id, label or value."""
    labels = [label for label in ROW_VALUES if label != "tone!"]
    lines = []
    for _ in range(int(rng.integers(0, 40))):
        r = rng.random()
        if lines and r < 0.15:
            lines.append(lines[int(rng.integers(len(lines)))])  # a repeated row
            continue
        if r < 0.2:
            lines.append("")
            continue
        ext = ROW_IDS[int(rng.integers(len(ROW_IDS)))]
        label = labels[int(rng.integers(len(labels)))]
        choices = ROW_VALUES[label] + sorted(MISSING_MARKERS)
        value = choices[int(rng.integers(len(choices)))]
        if rng.random() < bad_rate:
            kind = int(rng.integers(4))
            ext = "xxq" if kind == 0 else ext
            label = ["bogus", "tone!"][int(rng.integers(2))] if kind == 1 else label
            value = BAD_VALUES[int(rng.integers(len(BAD_VALUES)))] if kind >= 2 else value
            if label == "tone!":
                value = "1"
        lines.append(f"{ext},{label},{value}")
    path.write_text("language,feature,value\n" + "".join(line + "\n" for line in lines))


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and message
        return exc


def test_build_batch_matches_the_per_row_oracle(tmp_path):
    schema, table = _row_schema(tmp_path), _row_table()
    outcomes = []
    for seed in range(120):
        rng = np.random.default_rng([seed, 23])
        namer, oracle_namer = CanonicalNamer(), CanonicalNamer()  # shared by a run's sources
        for k in range(3):
            path = tmp_path / f"s{seed}_{k}.csv"
            _random_source(rng, path, bad_rate=float(rng.choice([0.0, 0.02, 0.1])))
            want = _outcome(lambda: _build_batch_oracle(path, schema, table, oracle_namer, f"S{k}"))
            got = _outcome(lambda: build_batch(read_source_csv(path, f"S{k}"), schema, table,
                                               namer=namer))
            outcomes.append(type(want).__name__)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
                break
            (want_batch, want_report), (got_batch, got_report) = want, got
            assert got_batch.languages == want_batch.languages
            assert got_batch.features == want_batch.features
            assert got_batch.sources == want_batch.sources
            assert list(got_batch.cells) == want_batch.cells
            assert len(got_batch.cells) == len(want_batch.cells)
            assert got_report.to_json() == want_report.to_json()
    # the fixtures reach every outcome
    assert {"tuple", "FormatError", "UnresolvableId", "UnknownCategory", "LevelOutOfRange",
            "NameCollision"} <= set(outcomes)
    assert outcomes.count("tuple") > len(outcomes) // 2
