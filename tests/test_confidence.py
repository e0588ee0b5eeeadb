import json
import math
import operator
import re
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from typodist import confidence as confidence_module
from typodist.aggregate import AggregationMode
from typodist.confidence import (
    ConfidenceReport,
    QualityCache,
    completeness,
    confidence_report,
    consistency,
    imputation_quality,
)
from typodist.errors import EmptyScope, FormatError, MissingQualityRun, NoSourcedFeatures
from typodist.impute import ImputerSpec
from typodist.kb import Category, FeatureDescriptor, LanguageRecord, TensorBatch

from conftest import make_tensor


FEATS = [f"S_F{j}" for j in range(1, 7)]
LANGS = ["l0011234", "l0021234", "l0031234", "l0041234"]

# hand-built (language, feature, source, value) table: agreements,
# disagreements, a mode tie, single-source cells, and fully missing features
CELLS = [
    ("l0011234", "S_F1", "A", 1.0),
    ("l0011234", "S_F1", "B", 1.0),
    ("l0011234", "S_F1", "C", 0.0),
    ("l0011234", "S_F2", "A", 0.0),
    ("l0011234", "S_F3", "B", 1.0),
    ("l0011234", "S_F3", "C", 1.0),
    ("l0021234", "S_F1", "A", 1.0),
    ("l0021234", "S_F2", "A", 1.0),
    ("l0021234", "S_F2", "B", 0.0),  # tie: mode breaks to 0
    ("l0021234", "S_F4", "C", 1.0),
    ("l0031234", "S_F5", "A", 0.5),
    ("l0041234", "S_F1", "A", 1.0),
    ("l0041234", "S_F1", "B", 0.0),
    ("l0041234", "S_F1", "C", 0.0),
    ("l0041234", "S_F6", "A", 1.0),
    ("l0041234", "S_F6", "B", 1.0),
]


@pytest.fixture
def fixture_tensor():
    return make_tensor(LANGS, FEATS, CELLS)


def spreadsheet_completeness(lang_a, lang_b):
    """Independent evaluation straight off the cell table."""
    def p(lang):
        observed = {feat for l, feat, _s, _v in CELLS if l == lang}
        return sum(1 for f in FEATS if f not in observed) / len(FEATS)

    return 1 - (p(lang_a) + p(lang_b)) / 2


def spreadsheet_consistency(lang_a, lang_b):
    def a(lang):
        ratios = []
        for f in FEATS:
            values = [v for l, feat, _s, v in CELLS if l == lang and feat == f]
            if not values:
                continue
            counts = Counter(values)
            top = max(counts.values())
            mode = min(v for v, c in counts.items() if c == top)
            ratios.append(counts[mode] / len(values))
        return sum(ratios) / len(ratios)

    return (a(lang_a) + a(lang_b)) / 2


def test_completeness_direct_formula(fixture_tensor):
    # l001 observes 3/6 features -> p=0.5; l002 observes 3/6 -> p=0.5
    assert completeness("l0011234", "l0021234", fixture_tensor) == pytest.approx(0.5)
    # worked example: missing fractions 0.2 and 0.4 give 0.7
    assert 1 - (0.2 + 0.4) / 2 == pytest.approx(0.7)


def test_completeness_boundaries():
    full = make_tensor(
        ["aaaa1234", "bbbb1234"],
        ["S_F1", "S_F2"],
        [
            ("aaaa1234", "S_F1", "A", 1.0),
            ("aaaa1234", "S_F2", "A", 0.0),
            ("bbbb1234", "S_F1", "A", 1.0),
            ("bbbb1234", "S_F2", "A", 1.0),
        ],
    )
    assert completeness("aaaa1234", "bbbb1234", full) == 1.0
    empty = make_tensor(
        ["aaaa1234", "bbbb1234", "cccc1234"],
        ["S_F1"],
        [("cccc1234", "S_F1", "A", 1.0)],
    )
    assert completeness("aaaa1234", "bbbb1234", empty) == 0.0


def test_consistency_mode_agreement(fixture_tensor):
    # l001: F1 {1,1,0} -> 2/3, F2 single -> 1, F3 {1,1} -> 1 ; a = 8/9
    # l003: one single-source feature -> a = 1 ; C = 17/18
    expected = ((2 / 3 + 1 + 1) / 3 + 1) / 2
    got = consistency("l0011234", "l0031234", fixture_tensor)
    assert got == pytest.approx(expected, abs=1e-12)


def test_consistency_single_source_everywhere():
    tensor = make_tensor(
        ["aaaa1234", "bbbb1234"],
        ["S_F1", "S_F2"],
        [
            ("aaaa1234", "S_F1", "A", 1.0),
            ("bbbb1234", "S_F2", "B", 0.0),
        ],
    )
    assert consistency("aaaa1234", "bbbb1234", tensor) == 1.0


def test_consistency_tie_breaks_to_lowest(fixture_tensor):
    # l002 F2 is {1, 0}: mode tie resolved to 0, so z/n = 1/2
    got = consistency("l0021234", "l0021234", fixture_tensor)
    expected = (1 + 1 / 2 + 1) / 3  # F1 single, F2 tie, F4 single
    assert got == pytest.approx(expected, abs=1e-12)


def test_consistency_no_sourced_features(fixture_tensor):
    bare = make_tensor(["aaaa1234", "bbbb1234"], ["S_F1"], [("bbbb1234", "S_F1", "A", 1.0)])
    with pytest.raises(NoSourcedFeatures):
        consistency("aaaa1234", "bbbb1234", bare)


def test_spreadsheet_oracle_all_pairs(fixture_tensor):
    # acceptance-grade check: module vs independent evaluation, 1e-12
    for i, a in enumerate(LANGS):
        for b in LANGS[i:]:
            if a == "l0031234" or b == "l0031234":
                pass  # l003 has data; fine
            assert completeness(a, b, fixture_tensor) == pytest.approx(
                spreadsheet_completeness(a, b), abs=1e-12
            )
            assert consistency(a, b, fixture_tensor) == pytest.approx(
                spreadsheet_consistency(a, b), abs=1e-12
            )


def test_imputation_quality_constants():
    assert imputation_quality(None, AggregationMode.UNION) == 1.0
    cache = QualityCache()
    cache.store("softimpute", AggregationMode.UNION, {"f1": 0.7980, "accuracy": 0.8875})
    cache.store("knn", AggregationMode.AVERAGE, {"rmse": 0.3069, "mae": 0.1809})
    assert imputation_quality(
        ImputerSpec("softimpute"), AggregationMode.UNION, cache
    ) == pytest.approx(0.7980)
    assert imputation_quality(
        ImputerSpec("knn"), AggregationMode.AVERAGE, cache
    ) == pytest.approx(1 - 0.3069)
    with pytest.raises(MissingQualityRun):
        imputation_quality(ImputerSpec("mean"), AggregationMode.UNION, cache)
    with pytest.raises(MissingQualityRun):
        imputation_quality(ImputerSpec("mean"), AggregationMode.UNION, None)


def test_quality_cache_round_trip(tmp_path):
    cache = QualityCache()
    cache.store("softimpute", AggregationMode.UNION, {"f1": 0.7980})
    path = tmp_path / "cache.json"
    cache.save(path)
    loaded = QualityCache.load(path)
    assert loaded.get("softimpute", AggregationMode.UNION)["f1"] == 0.7980


@pytest.mark.parametrize("key", ["union", "|union"])
def test_quality_cache_key_without_a_method_is_a_format_error(tmp_path, key):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({key: {"f1": 0.5}}))
    with pytest.raises(FormatError, match=re.escape(repr(key))):
        QualityCache.load(path)


def test_confidence_report_bundles_components(fixture_tensor):
    report = confidence_report("l0011234", "l0031234", fixture_tensor)
    assert report.completeness == pytest.approx(
        completeness("l0011234", "l0031234", fixture_tensor)
    )
    assert report.consistency == pytest.approx(
        consistency("l0011234", "l0031234", fixture_tensor)
    )
    assert report.imputation_quality == 1.0
    assert report.feature_count_k == len(FEATS)
    payload = report.to_json()
    assert payload["pair"] == ["l0011234", "l0031234"]


def test_fully_observed_single_source_pair_is_all_ones():
    tensor = make_tensor(
        ["aaaa1234", "bbbb1234"],
        ["S_F1", "S_F2"],
        [
            ("aaaa1234", "S_F1", "A", 1.0),
            ("aaaa1234", "S_F2", "A", 0.0),
            ("bbbb1234", "S_F1", "A", 0.0),
            ("bbbb1234", "S_F2", "A", 1.0),
        ],
    )
    report = confidence_report("aaaa1234", "bbbb1234", tensor)
    assert (report.completeness, report.consistency, report.imputation_quality) == (
        1.0,
        1.0,
        1.0,
    )


def test_empty_scope_rejected(fixture_tensor):
    with pytest.raises(EmptyScope):
        completeness("l0011234", "l0021234", fixture_tensor, scope=Category.PHONOLOGICAL)
    with pytest.raises(EmptyScope):
        confidence_report("l0011234", "l0021234", fixture_tensor, scope=[])


def test_bare_string_scope_is_one_feature(fixture_tensor):
    one = confidence_report("l0011234", "l0021234", fixture_tensor, scope="S_F1")
    assert one == confidence_report("l0011234", "l0021234", fixture_tensor, scope=["S_F1"])
    assert one.feature_count_k == 1


def test_components_bounded_and_monotone(fixture_tensor):
    rng = np.random.default_rng(47)
    base = completeness("l0031234", "l0041234", fixture_tensor)
    assert 0.0 <= base <= 1.0
    # turning a missing cell into a known one never lowers completeness
    fixture_tensor.extend_with(TensorBatch(cells=[("l0031234", "S_F1", "B", 1.0)]))
    grown = completeness("l0031234", "l0041234", fixture_tensor)
    assert grown >= base
    for a in LANGS:
        for b in LANGS:
            c = consistency(a, b, fixture_tensor)
            assert 0.0 <= c <= 1.0


def test_agreeing_source_never_decreases_consistency(fixture_tensor):
    before = consistency("l0011234", "l0021234", fixture_tensor)
    # add a source agreeing with the current mode of l001's S_F1 (mode 1)
    fixture_tensor.extend_with(TensorBatch(sources=["D"], cells=[("l0011234", "S_F1", "D", 1.0)]))
    after = consistency("l0011234", "l0021234", fixture_tensor)
    assert after >= before - 1e-15


# --- the per-version statistics against the per-call code they replaced -----

def _scope_names(tensor, scope):
    if scope is None:
        names = [f.name for f in tensor.features]
    elif isinstance(scope, Category):
        names = [f.name for f in tensor.features_in_category(scope)]
    else:
        names = list(dict.fromkeys(scope))
    if not names:
        raise EmptyScope("feature scope is empty")
    return names


def _completeness_oracle(lang_a, lang_b, tensor, scope=None):
    names = _scope_names(tensor, scope)

    def missing_fraction(lang):
        missing = sum(1 for name in names if tensor.source_stats(lang, name)[0] == 0)
        return missing / len(names)

    return 1.0 - (missing_fraction(lang_a) + missing_fraction(lang_b)) / 2.0


def _mode_agreement(values):
    counts = Counter(values)
    top = max(counts.values())
    mode = min(v for v, c in counts.items() if c == top)
    return counts[mode] / len(values)


def _consistency_oracle(lang_a, lang_b, tensor, scope=None):
    names = _scope_names(tensor, scope)

    def agreement(lang):
        ratios = []
        for name in names:
            n, values = tensor.source_stats(lang, name)
            if n >= 1:
                ratios.append(_mode_agreement(values))
        if not ratios:
            raise NoSourcedFeatures(
                f"language {lang!r} has no sourced value for any scope feature"
            )
        # left to right: sum() of floats is compensated from Python 3.12 on
        return reduce(operator.add, ratios) / len(ratios)

    return (agreement(lang_a) + agreement(lang_b)) / 2.0


def _report_oracle(lang_a, lang_b, tensor, scope=None):
    return ConfidenceReport((lang_a, lang_b), _completeness_oracle(lang_a, lang_b, tensor, scope),
                            _consistency_oracle(lang_a, lang_b, tensor, scope), 1.0,
                            len(_scope_names(tensor, scope)))


def _same_outcome(fn, oracle, *args):
    try:
        want = oracle(*args)
    except Exception as exc:  # compared by type and message
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fn(*args)
        return
    assert fn(*args) == want  # bit for bit


def test_components_match_the_per_call_oracle():
    rng = np.random.default_rng(53)
    for trial in range(40):
        langs = [f"l{i:03d}1234" for i in range(int(rng.integers(2, 8)))]
        feats = [f"{p}F{j}" for p in ("S_", "P_", "INV_") for j in range(int(rng.integers(1, 5)))]
        sources = ["A", "B", "C", "D", "E"][: int(rng.integers(1, 6))]
        levels = [0.0, 1.0] if trial % 2 else [0.0, 0.25, 0.5, 1.0]
        cells = [(l, f, s, float(rng.choice(levels)))
                 for l in langs for f in feats for s in sources if rng.random() < 0.35]
        if not cells:
            continue
        tensor = make_tensor(langs, feats, [cells[i] for i in rng.permutation(len(cells))])
        scopes = [None, Category.SYNTACTIC, Category.MORPHOLOGICAL,
                  list(rng.choice(feats, size=3)), []]
        for _ in range(15):
            a, b = (langs[int(i)] for i in rng.integers(len(langs), size=2))
            scope = scopes[int(rng.integers(len(scopes)))]
            _same_outcome(completeness, _completeness_oracle, a, b, tensor, scope)
            _same_outcome(consistency, _consistency_oracle, a, b, tensor, scope)
            _same_outcome(confidence_report, _report_oracle, a, b, tensor, scope)
        # a write makes a new version, and the statistics follow it
        l, f, s, v = cells[0]
        tensor.extend_with(TensorBatch(sources=["NEW"], cells=[(l, f, "NEW", 1.0 - v)]))
        _same_outcome(consistency, _consistency_oracle, l, langs[-1], tensor, None)
        _same_outcome(completeness, _completeness_oracle, l, langs[-1], tensor, None)
    # agreement ratios 1/3, 3/4 and 1 add up left to right to one ulp below
    # their exact sum, which a compensated sum gives; the mean keeps the ulp
    assert reduce(operator.add, [1 / 3, 3 / 4, 1.0]) / 3 != math.fsum([1 / 3, 3 / 4, 1.0]) / 3
    cells = [("l0001234", "S_F0", s, v) for s, v in zip("ABC", (0.0, 0.5, 1.0))]
    cells += [("l0001234", "S_F1", s, v) for s, v in zip("ABCD", (1.0, 1.0, 1.0, 0.0))]
    cells += [("l0001234", "P_F2", "A", 1.0), ("l0011234", "S_F1", "D", 0.5)]
    tensor = make_tensor(["l0001234", "l0011234"], ["S_F0", "S_F1", "P_F2"], cells)
    for scope in (None, ["S_F0", "S_F1", "P_F2"], ["P_F2", "S_F1", "S_F0"]):
        for a, b in (("l0001234", "l0001234"), ("l0001234", "l0011234")):
            _same_outcome(consistency, _consistency_oracle, a, b, tensor, scope)
            _same_outcome(confidence_report, _report_oracle, a, b, tensor, scope)


def test_confidence_report_reads_no_per_cell_statistics(fixture_tensor, monkeypatch):
    pair = ("l0011234", "l0041234")
    want = (_completeness_oracle(*pair, fixture_tensor), _consistency_oracle(*pair, fixture_tensor))

    def fail(*args):
        raise AssertionError("source_stats called")

    monkeypatch.setattr(type(fixture_tensor), "source_stats", fail)
    report = confidence_report(*pair, fixture_tensor)
    assert (report.completeness, report.consistency) == want


def _counting_builds(monkeypatch):
    """The row count of every per-language vector build."""
    rows, build = [], confidence_module._scope_vectors

    def counting(sourced, agreement, cols):
        rows.append(len(sourced))
        return build(sourced, agreement, cols)

    monkeypatch.setattr(confidence_module, "_scope_vectors", counting)
    return rows


def test_scope_vectors_are_kept_per_tensor_state(fixture_tensor, monkeypatch):
    builds = _counting_builds(monkeypatch)
    for scope in (None, Category.SYNTACTIC):
        for a, b in (("l0011234", "l0021234"), ("l0041234", "l0011234")):
            assert confidence_report(a, b, fixture_tensor, scope) == _report_oracle(
                a, b, fixture_tensor, scope)
    assert builds == [len(LANGS), len(LANGS)]  # one build per scope, then lookups
    fixture_tensor.add_language(LanguageRecord("l0051234"))
    fixture_tensor.extend_with(TensorBatch(cells=[("l0051234", "S_F1", "A", 1.0)]))
    pair = ("l0051234", "l0011234")
    assert confidence_report(*pair, fixture_tensor) == _report_oracle(*pair, fixture_tensor)
    assert builds == [len(LANGS), len(LANGS), len(LANGS) + 1]  # the write made new ones


def test_a_listed_scope_reads_the_pairs_two_rows_only(fixture_tensor, monkeypatch):
    builds = _counting_builds(monkeypatch)
    for _ in range(2):
        report = confidence_report("l0011234", "l0041234", fixture_tensor, ["S_F1", "S_F6"])
        assert report == _report_oracle("l0011234", "l0041234", fixture_tensor, ["S_F1", "S_F6"])
    assert builds == [2, 2]
    assert not any(key[0] == "confidence vectors" for key in fixture_tensor.derived
                   if isinstance(key, tuple))


def test_vectors_follow_a_write_made_after_the_scope_was_resolved(fixture_tensor, monkeypatch):
    resolve, writes = confidence_module.feature_columns, []

    def resolve_then_write(features, scope):
        cols = resolve(features, scope)
        if not writes:  # a write lands between the scope and the statistics
            writes.append(fixture_tensor.add_feature(FeatureDescriptor("S_F7", Category.SYNTACTIC)))
            fixture_tensor.extend_with(TensorBatch(cells=[("l0021234", "S_F7", "A", 1.0)]))
        return cols

    monkeypatch.setattr(confidence_module, "feature_columns", resolve_then_write)
    pair = ("l0011234", "l0021234")
    confidence_report(*pair, fixture_tensor, Category.SYNTACTIC)
    monkeypatch.undo()
    for scope in (None, Category.SYNTACTIC):
        assert confidence_report(*pair, fixture_tensor, scope) == _report_oracle(
            *pair, fixture_tensor, scope)


# --- the merged source agreement against the per-source-pair loop ------------

def _source_agreement_oracle(snap):
    """Per (language, feature): how many sources know the cell, and their
    mode agreement, the largest number of equal values over that count or 0.

    Built from language x feature arrays one source at a time.
    """
    shape = (len(snap.languages), len(snap.features))
    sourced = np.zeros(shape, dtype=np.int64)
    top = np.zeros(shape, dtype=np.int64)
    value_of = np.empty(shape)
    for col in snap.columns:
        # how many sources hold col's value at each of col's cells
        value_of.fill(np.nan)
        value_of[col.language, col.feature] = col.value
        sourced[col.language, col.feature] += 1
        agreeing = np.zeros(shape, dtype=np.int64)
        for other in snap.columns:
            at = (other.language, other.feature)
            agreeing[at] += value_of[at] == other.value
        np.maximum(top, agreeing, out=top)
    return sourced, top / np.maximum(sourced, 1)


def _agreement_tensors():
    """Seeded random tensors with fractional values, then the edge cases."""
    rng = np.random.default_rng(59)
    for trial in range(24):
        langs = [f"l{i:03d}1234" for i in range(int(rng.integers(1, 9)))]
        feats = [f"S_F{j}" for j in range(int(rng.integers(1, 7)))]
        sources = [f"src{s}" for s in range(int(rng.integers(1, 9)))]
        # few levels make ties and agreement; continuous values make neither
        levels = rng.random(3) if trial % 3 == 2 else np.arange(int(rng.integers(2, 6))) / 4
        cells = [(l, f, s, float(rng.choice(levels)))
                 for l in langs for f in feats for s in sources if rng.random() < 0.6]
        yield make_tensor(langs, feats, [cells[i] for i in rng.permutation(len(cells))])
    one_cell = [("l0011234", "S_F1", s, 0.5) for s in ("A", "B", "C")]
    yield make_tensor(LANGS, FEATS, [c for c in CELLS if c[2] == "A"])  # one source
    yield make_tensor(LANGS, FEATS, CELLS, sources=["A", "EMPTY"])  # an empty source column
    yield make_tensor(LANGS + ["l0091234"], FEATS, CELLS)  # a language with no cells
    yield make_tensor(LANGS, FEATS, [])  # no sources
    yield make_tensor(LANGS, FEATS, one_cell)  # every source holds one cell, all agree
    # more sources than an int8 count holds, all of them on one cell
    many = [(f"src{s:03d}", s % 3 / 2) for s in range(130)]
    yield make_tensor(LANGS, FEATS, [("l0021234", "S_F2", s, 0.25) for s, _ in many]
                      + [("l0031234", "S_F3", s, v) for s, v in many])


def test_source_agreement_matches_the_per_source_pair_oracle():
    for tensor in _agreement_tensors():
        snap = tensor.snapshot()
        got = confidence_module._source_agreement(snap)
        want = _source_agreement_oracle(snap)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)
    sourced, agreement = got  # the last tensor's: 130 sources
    assert (sourced[1, 1], agreement[1, 1]) == (130, 1.0)
    assert (sourced[2, 2], agreement[2, 2]) == (130, 44 / 130)
