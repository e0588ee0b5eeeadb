import copy
import dataclasses
import gc
import json
import math
import pickle
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from typodist import distance as distance_module
from typodist import storage
from typodist.aggregate import AggregationMode, _masked_gram, aggregate
from typodist.confidence import confidence_report
from typodist.distance import (
    NO_SHARED_DATA,
    ZERO_VECTOR,
    DistanceGrid,
    DistanceRequest,
    DistanceResult,
    Metric,
    distance_from_tensor,
    distance_matrix,
    genetic_distance,
    language_distance,
    matrix_for,
)
from typodist.errors import UnknownFeature, UnknownLanguage
from typodist.impute import ImputerSpec, impute_knn, impute_mean, run_imputer
from typodist.kb import Category, LanguageRecord, TensorBatch

from conftest import make_matrix, make_tensor, random_matrix


def _req(a, b, **kw):
    kw.setdefault("aggregation", AggregationMode.UNION)
    return DistanceRequest(lang_a=a, lang_b=b, **kw)


def test_identical_vectors_distance_zero():
    m = make_matrix(
        AggregationMode.UNION,
        ["aaaa1234", "bbbb1234"],
        ["S_F1", "S_F2"],
        [[1.0, 0.0], [1.0, 0.0]],
    )
    for metric in Metric:
        res = language_distance(_req("aaaa1234", "bbbb1234", metric=metric), m)
        assert res.computable
        assert res.distance == pytest.approx(0.0, abs=1e-9)
        assert res.shared_features == 2


def test_orthogonal_vectors_angular_is_one():
    m = make_matrix(
        AggregationMode.UNION,
        ["aaaa1234", "bbbb1234"],
        ["S_F1", "S_F2"],
        [[1.0, 0.0], [0.0, 1.0]],
    )
    res = language_distance(_req("aaaa1234", "bbbb1234", metric=Metric.ANGULAR), m)
    assert res.distance == pytest.approx(1.0)  # (2/pi) * arccos(0)
    res_cos = language_distance(_req("aaaa1234", "bbbb1234", metric=Metric.COSINE), m)
    assert res_cos.distance == pytest.approx(1.0)


def test_no_shared_data_not_computable():
    m = make_matrix(
        AggregationMode.UNION,
        ["croa1234", "serb1234"],
        ["P_F1", "P_F2"],
        [[1.0, np.nan], [np.nan, 1.0]],
    )
    res = language_distance(_req("croa1234", "serb1234"), m)
    assert not res.computable
    assert res.reason == NO_SHARED_DATA
    assert res.to_json()["status"] == "not_computable"


def test_zero_vector_not_computable():
    m = make_matrix(
        AggregationMode.UNION,
        ["aaaa1234", "bbbb1234"],
        ["S_F1", "S_F2"],
        [[0.0, 0.0], [1.0, 0.0]],
    )
    res = language_distance(_req("aaaa1234", "bbbb1234"), m)
    assert not res.computable
    assert res.reason == ZERO_VECTOR


def test_angular_formula_half_similarity():
    # cos-sim of [1,1] vs [1,0] is 1/sqrt(2); check the stated formula directly
    m = make_matrix(
        AggregationMode.UNION,
        ["aaaa1234", "bbbb1234"],
        ["S_F1", "S_F2"],
        [[1.0, 1.0], [1.0, 0.0]],
    )
    res = language_distance(_req("aaaa1234", "bbbb1234", metric=Metric.ANGULAR), m)
    assert res.distance == pytest.approx((2 / math.pi) * math.acos(1 / math.sqrt(2)))


def test_selector_coherence_category_equals_explicit_list():
    rng = np.random.default_rng(41)
    values = rng.integers(0, 2, (3, 6)).astype(float)
    m = make_matrix(
        AggregationMode.UNION,
        ["aaaa1234", "bbbb1234", "cccc1234"],
        ["S_F1", "P_F1", "S_F2", "P_F2", "S_F3", "GEN_F1"],
        values,
    )
    by_cat = language_distance(
        _req("aaaa1234", "bbbb1234", features=Category.SYNTACTIC), m
    )
    by_list = language_distance(
        _req("aaaa1234", "bbbb1234", features=["S_F3", "S_F1", "S_F2"]), m
    )
    assert by_cat.distance == by_list.distance
    assert by_cat.shared_features == by_list.shared_features


def test_masking_soundness():
    m1 = make_matrix(
        AggregationMode.UNION,
        ["aaaa1234", "bbbb1234"],
        ["S_F1", "S_F2"],
        [[1.0, 1.0], [1.0, 0.0]],
    )
    m2 = make_matrix(
        AggregationMode.UNION,
        ["aaaa1234", "bbbb1234"],
        ["S_F1", "S_F2", "S_F3"],
        [[1.0, 1.0, np.nan], [1.0, 0.0, 1.0]],
    )
    d1 = language_distance(_req("aaaa1234", "bbbb1234"), m1).distance
    d2 = language_distance(_req("aaaa1234", "bbbb1234"), m2).distance
    assert d1 == d2


def test_request_matrix_mode_mismatch():
    m = make_matrix(AggregationMode.UNION, ["aaaa1234", "bbbb1234"], ["S_F1"], [[1.0], [1.0]])
    with pytest.raises(ValueError, match="does not match"):
        language_distance(_req("aaaa1234", "bbbb1234", aggregation=AggregationMode.AVERAGE), m)


def test_unknown_identifiers_raise():
    m = make_matrix(AggregationMode.UNION, ["aaaa1234", "bbbb1234"], ["S_F1"], [[1.0], [1.0]])
    with pytest.raises(UnknownLanguage):
        language_distance(_req("aaaa1234", "zzzz9999"), m)
    with pytest.raises(UnknownFeature):
        language_distance(_req("aaaa1234", "bbbb1234", features=["S_NOPE"]), m)
    with pytest.raises(ValueError, match="non-empty"):
        language_distance(_req("aaaa1234", "bbbb1234", features=[]), m)


def test_bare_string_selector_is_one_feature():
    m = make_matrix(AggregationMode.UNION, ["aaaa1234", "bbbb1234"], ["S_F1", "S_F2"],
                    [[1.0, 0.0], [0.0, 1.0]])
    one = language_distance(_req("aaaa1234", "bbbb1234", features="S_F2"), m)
    assert one == language_distance(_req("aaaa1234", "bbbb1234", features=["S_F2"]), m)
    assert one.reason == ZERO_VECTOR
    with pytest.raises(UnknownFeature, match="S_F9"):
        language_distance(_req("aaaa1234", "bbbb1234", features="S_F9"), m)


def test_distance_matrix_symmetric_and_matches_pairwise_oracle():
    rng = np.random.default_rng(43)
    m = random_matrix(rng, 5, 8, AggregationMode.UNION, missing_frac=0.4)
    langs = list(m.languages)
    template = _req("", "")
    grid = distance_matrix(langs, template, m)
    for i, a in enumerate(langs):
        for j, b in enumerate(langs):
            cell = grid[i][j]
            mirror = grid[j][i]
            assert cell.distance == mirror.distance
            assert cell.reason == mirror.reason
            if i != j:
                solo = language_distance(_req(a, b), m)
                assert cell.distance == solo.distance
                assert cell.shared_features == solo.shared_features


def test_distance_matrix_diagonal_and_empty_rows():
    m = make_matrix(
        AggregationMode.UNION,
        ["aaaa1234", "bbbb1234", "cccc1234"],
        ["S_F1", "S_F2"],
        [[1.0, 0.0], [0.0, 1.0], [np.nan, np.nan]],
    )
    grid = distance_matrix(list(m.languages), _req("", ""), m)
    assert grid[0][0].distance == 0.0
    assert grid[2][2].reason == NO_SHARED_DATA
    assert grid[0][2].reason == NO_SHARED_DATA
    assert grid[2][1].reason == NO_SHARED_DATA


def test_distance_matrix_needs_two_languages():
    m = make_matrix(AggregationMode.UNION, ["aaaa1234", "bbbb1234"], ["S_F1"], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        distance_matrix(["aaaa1234"], _req("", ""), m)


def test_genetic_distance_same_and_disjoint_families():
    m = make_matrix(
        AggregationMode.UNION,
        ["croa1234", "serb1234", "basq1234"],
        ["GEN_SLAVIC", "GEN_ISOLATE", "S_F1"],
        [[1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
    )
    same = genetic_distance("croa1234", "serb1234", m)
    assert same.distance == pytest.approx(0.0)
    disjoint = genetic_distance("croa1234", "basq1234", m)
    assert disjoint.distance == pytest.approx(1.0)
    assert same.shared_features == 2  # only GEN_ features in play


def test_dynamic_recomputation_after_extend(tiny_tensor):
    req = DistanceRequest(
        lang_a="pare1234",
        lang_b="dial1234",
        metric=Metric.ANGULAR,
        aggregation=AggregationMode.UNION,
        features=Category.PHONOLOGICAL,
    )
    before = distance_from_tensor(tiny_tensor, req)
    assert not before.computable  # dialect has no phonological data yet
    tiny_tensor.extend_with(TensorBatch(cells=[("dial1234", "P_F1", "SRC_B", 1.0)]))
    after = distance_from_tensor(tiny_tensor, req)
    assert after.computable
    assert after.distance == pytest.approx(0.0)


def test_distance_over_single_source(tiny_tensor):
    # restricted to SRC_B, pare and othe share no syntactic feature at all
    narrow = DistanceRequest(
        lang_a="pare1234",
        lang_b="othe1234",
        aggregation=AggregationMode.UNION,
        features=Category.SYNTACTIC,
        sources="SRC_B",
    )
    assert distance_from_tensor(tiny_tensor, narrow).reason == NO_SHARED_DATA
    # but pare and dial both have S_F1 there
    shared = DistanceRequest(
        lang_a="pare1234",
        lang_b="dial1234",
        aggregation=AggregationMode.UNION,
        features=Category.SYNTACTIC,
        sources="SRC_B",
    )
    res = distance_from_tensor(tiny_tensor, shared)
    assert res.shared_features == 1
    assert res.distance == pytest.approx(0.0)


def test_use_imputed_makes_everything_shared(tiny_tensor):
    req = DistanceRequest(
        lang_a="dial1234",
        lang_b="othe1234",
        aggregation=AggregationMode.UNION,
        use_imputed=True,
        imputer=None,  # defaults to softimpute
    )
    res = distance_from_tensor(tiny_tensor, req)
    assert res.computable
    assert res.shared_features == len(tiny_tensor.features)


def test_result_json_shapes():
    ok = DistanceResult.of(("a", "b"), Metric.ANGULAR, AggregationMode.UNION, 0.48, 123)
    assert ok.to_json() == {
        "pair": ["a", "b"],
        "metric": "angular",
        "aggregation": "union",
        "distance": 0.48,
        "shared_features": 123,
    }
    nc = DistanceResult.not_computable(("a", "b"), Metric.ANGULAR, AggregationMode.UNION, NO_SHARED_DATA)
    assert nc.to_json() == {
        "pair": ["a", "b"],
        "status": "not_computable",
        "reason": "no shared data",
    }


@pytest.mark.parametrize("mode", list(AggregationMode))
def test_pair_results_hold_python_scalars_that_go_to_json(mode):
    langs = ["aaaa1234", "bbbb1234", "cccc1234", "dddd1234"]
    m = make_matrix(mode, langs, ["S_F1", "S_F2", "S_F3"],
                    [[1, 0.5, np.nan], [0.5, 1, 1], [1, 0.25, 1], [np.nan, 1, 0.5]])
    # with gaps, fully known, and the same row with gaps and fully known
    pairs = [("aaaa1234", "bbbb1234"), ("aaaa1234", "dddd1234"), ("bbbb1234", "cccc1234"),
             ("aaaa1234", "aaaa1234"), ("cccc1234", "cccc1234")]
    for metric in Metric:
        for a, b in pairs:
            res = language_distance(_req(a, b, metric=metric, aggregation=mode), m)
            assert res.computable, (a, b)
            assert type(res.shared_features) is int and type(res.distance) is float, (a, b, res)
            json.dumps(res.to_json())


def test_matrix_for_aggregates_then_imputes_on_request(tiny_tensor):
    plain = _req("dial1234", "othe1234", sources="SRC_A")
    assert matrix_for(tiny_tensor, plain) is aggregate(
        tiny_tensor, AggregationMode.UNION, ["SRC_A"])
    imputed = matrix_for(tiny_tensor, _req("dial1234", "othe1234", use_imputed=True),
                         dialect_fill=True)
    assert imputed.method.method == "softimpute"
    assert not np.isnan(imputed.values).any()
    # dialect-filled cells count as imputed
    observed = aggregate(tiny_tensor, AggregationMode.UNION)
    assert np.array_equal(imputed.imputed_mask, np.isnan(observed.values))


def _counting_imputer(monkeypatch):
    calls = []
    inner = distance_module.run_imputer

    def counting(matrix, spec, **kwargs):
        calls.append(spec)
        return inner(matrix, spec, **kwargs)

    monkeypatch.setattr(distance_module, "run_imputer", counting)
    return calls


def test_matrix_for_imputes_once_per_tensor_version(tiny_tensor, monkeypatch):
    calls = _counting_imputer(monkeypatch)
    mean = ImputerSpec("mean")
    req = _req("dial1234", "othe1234", use_imputed=True, imputer=mean)
    first = matrix_for(tiny_tensor, req, dialect_fill=True)
    # pair, metric and features do not change the matrix
    again = replace(req, lang_a="pare1234", metric=Metric.COSINE, features=Category.SYNTACTIC)
    assert matrix_for(tiny_tensor, again, dialect_fill=True) is first
    equal_spec = replace(req, imputer=ImputerSpec("mean"))
    assert matrix_for(tiny_tensor, equal_spec, dialect_fill=True) is first
    assert distance_from_tensor(tiny_tensor, req, dialect_fill=True) == language_distance(req, first)
    assert len(calls) == 1

    others = [
        matrix_for(tiny_tensor, req),  # no dialect fill
        matrix_for(tiny_tensor, replace(req, imputer=ImputerSpec("knn", k=1)), dialect_fill=True),
        matrix_for(tiny_tensor, replace(req, imputer=ImputerSpec("mean", seed=1)), dialect_fill=True),
        matrix_for(tiny_tensor, replace(req, sources="SRC_A"), dialect_fill=True),
        matrix_for(tiny_tensor, replace(req, aggregation=AggregationMode.AVERAGE), dialect_fill=True),
        matrix_for(tiny_tensor, replace(req, imputer=None), dialect_fill=True),
    ]
    assert len({id(m) for m in [first] + others}) == 7
    assert others[3].provenance == ("SRC_A",)
    # all sources named explicitly is the same scope as none named
    both = replace(req, sources=["SRC_A", "SRC_B"])
    assert matrix_for(tiny_tensor, both, dialect_fill=True) is first


def test_imputed_cache_follows_tensor_writes(tiny_tensor):
    req = _req("dial1234", "othe1234", use_imputed=True, imputer=ImputerSpec("mean"))
    first = matrix_for(tiny_tensor, req)
    tiny_tensor.extend_with(TensorBatch(cells=[("dial1234", "P_F1", "SRC_B", 1.0)]))
    second = matrix_for(tiny_tensor, req)
    assert second is not first
    assert second.values[second.language_index("dial1234"), 2] == 1.0
    assert not second.imputed_mask[second.language_index("dial1234"), 2]

    tiny_tensor.add_language(LanguageRecord("newl1234"))
    third = matrix_for(tiny_tensor, req)
    assert third is not second
    assert third.language_index("newl1234") == 3
    assert third.imputed_mask[3].all()


def test_no_op_writes_keep_the_cached_matrices(tiny_tensor):
    req = _req("dial1234", "othe1234", use_imputed=True, imputer=ImputerSpec("mean"))
    observed = aggregate(tiny_tensor, AggregationMode.UNION)
    imputed = matrix_for(tiny_tensor, req)
    version = tiny_tensor.version
    tiny_tensor.extend_with(TensorBatch(cells=[("pare1234", "S_F1", "SRC_A", 1.0)]))
    tiny_tensor.add_language(tiny_tensor.language("othe1234"))
    assert tiny_tensor.version == version
    assert aggregate(tiny_tensor, AggregationMode.UNION) is observed
    assert matrix_for(tiny_tensor, req) is imputed


def test_an_imputation_across_a_write_is_not_kept_for_the_new_state(tiny_tensor, monkeypatch):
    """A write between the aggregate and the imputation of one matrix_for
    call must not leave the older imputation cached for the newer state."""
    req = _req("dial1234", "othe1234", use_imputed=True, imputer=ImputerSpec("mean"))
    real = distance_module.aggregate

    def aggregate_then_write(tensor, *args):
        matrix = real(tensor, *args)
        tensor.add_language(LanguageRecord("newl1234"))
        return matrix

    monkeypatch.setattr(distance_module, "aggregate", aggregate_then_write)
    raced = matrix_for(tiny_tensor, req)
    monkeypatch.undo()
    fresh = matrix_for(tiny_tensor, req)
    assert fresh is not raced
    assert fresh.language_index("newl1234") == 3


def test_a_tensor_with_cached_entries_is_freed_without_the_collector():
    tensor = make_tensor(["aaaa1234", "bbbb1234"], ["S_F1", "S_F2"],
                         [("aaaa1234", "S_F1", "A", 1.0), ("bbbb1234", "S_F2", "A", 0.0)])
    req = _req("aaaa1234", "bbbb1234", use_imputed=True, imputer=ImputerSpec("mean"))
    distance_from_tensor(tensor, replace(req, use_imputed=False, imputer=None))
    distance_from_tensor(tensor, req)
    confidence_report("aaaa1234", "bbbb1234", tensor)
    assert len(tensor.derived) == 4  # aggregated, imputed, source agreement, confidence vectors
    ref = weakref.ref(tensor)
    gc.disable()
    try:
        del tensor
        assert ref() is None
    finally:
        gc.enable()


def test_an_imputer_without_use_imputed_is_rejected():
    with pytest.raises(ValueError, match="use_imputed"):
        DistanceRequest("aaaa1234", "bbbb1234", imputer=ImputerSpec("knn"))
    assert DistanceRequest("aaaa1234", "bbbb1234", use_imputed=True).imputer is None


def test_cached_imputed_matrix_is_read_only(tiny_tensor):
    req = _req("dial1234", "othe1234", use_imputed=True, imputer=ImputerSpec("mean"))
    shared = matrix_for(tiny_tensor, req)
    with pytest.raises(ValueError):
        shared.values[0, 0] = 0.5
    with pytest.raises(ValueError):
        shared.imputed_mask[0, 0] = True
    own = shared.copy()
    own.values[0, 0] = 0.5
    own.imputed_mask[0, 0] = True
    own.objective_history.append(1.0)
    own.all_missing_columns.append("S_F9")
    assert shared.values[0, 0] != 0.5 and not shared.imputed_mask[0, 0]
    assert shared.objective_history == [] and shared.all_missing_columns == []


def test_external_imputation_is_read_on_every_call(tiny_tensor, tmp_path, monkeypatch):
    calls = _counting_imputer(monkeypatch)
    path = tmp_path / "external.csv"
    spec = ImputerSpec("external", external_path=str(path))
    req = _req("dial1234", "othe1234", use_imputed=True, imputer=spec)
    observed = aggregate(tiny_tensor, AggregationMode.UNION)
    version = tiny_tensor.version
    for fill in (0.0, 1.0):
        dense = np.where(np.isnan(observed.values), fill, observed.values)
        storage.export_matrix_csv(observed.languages, observed.features, dense, path)
        m = matrix_for(tiny_tensor, req)
        assert np.array_equal(m.values, dense)
    assert tiny_tensor.version == version
    assert len(calls) == 2


# distance_matrix against its per-pair oracle -----------------------------------

def _gram_cells_oracle(x, rows, metric):
    """distance._gram_cells with a fresh array per n x n step and np.select
    verdicts: (verdict, shared count, distance), angular distances for
    i <= j only and 0 below the diagonal."""
    shared, squares, dots = _masked_gram(x)
    nu = np.sqrt(squares, out=squares)
    zero = (nu == 0.0) | (nu.T == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = np.clip(dots / (nu * nu.T), -1.0, 1.0)
    same = rows[:, None] == rows[None, :]
    if metric is Metric.COSINE:
        d = 1.0 - sim
        ill = np.zeros_like(same)
    else:
        acos = np.zeros_like(sim)
        for i, row in enumerate(sim):
            acos[i, i:] = np.fromiter(map(math.acos, row[i:].tolist()), float, len(row) - i)
        d = (2.0 / math.pi) * acos
        ill = ~same & (1.0 - sim < distance_module._ILL_CONDITIONED_ACOS)
    d = np.where(same, 0.0, np.clip(d, 0.0, 1.0))
    # the reason codes, 0 computed, 1 no shared data, 2 zero vector, and 3 to measure per pair
    verdict = np.select([shared == 0, zero, ill], [1, 2, 3], 0)
    return verdict, shared, d


def _grid_arrays_oracle(langs, template, m):
    """distance_matrix's (distances, reasons, shared) from _gram_cells_oracle,
    each array's upper triangle mirrored by np.where, then each
    ill-conditioned pair measured by language_distance."""
    view = distance_module._view(m, template.features)
    rows = np.array([m.language_index(lang) for lang in langs])
    x = view.values[rows][:, view.cols]
    upper = np.triu(np.ones((len(langs), len(langs)), dtype=bool))
    verdict, shared, d = (np.where(upper, a, a.T) for a in _gram_cells_oracle(x, rows, template.metric))
    computed = verdict == 0
    distances = np.where(computed, d, np.nan)
    reasons = verdict.astype(np.int8)
    counts = np.where(computed, shared, 0).astype(np.int32)
    for i, j in zip(*np.nonzero(upper & (verdict == 3))):
        res = language_distance(replace(template, lang_a=langs[i], lang_b=langs[j]), m)
        cell = (np.nan if res.distance is None else res.distance,
                distance_module._REASONS.index(res.reason), res.shared_features)
        distances[i, j], reasons[i, j], counts[i, j] = cell
        distances[j, i], reasons[j, i], counts[j, i] = cell
    return distances, reasons, counts


def _assert_grid_equals_its_oracle(grid, langs, template, m):
    """The grid's three arrays equal _grid_arrays_oracle's byte for byte."""
    for got, want in zip((grid.distances, grid.reasons, grid.shared),
                         _grid_arrays_oracle(langs, template, m)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_matches_language_distance(grid, langs, template, m, exact=False):
    for i, a in enumerate(langs):
        for j, b in enumerate(langs):
            cell = grid[i][j]
            solo = language_distance(replace(template, lang_a=a, lang_b=b), m)
            assert cell.pair == (a, b)
            assert cell.reason == solo.reason
            assert cell.shared_features == solo.shared_features
            assert (cell.distance is None) == (solo.distance is None)
            if solo.distance is not None:
                if exact:
                    assert cell.distance == solo.distance
                else:
                    assert abs(cell.distance - solo.distance) <= 1e-12


EDGE_LANGS = ["aaaa1234", "bbbb1234", "cccc1234"]
EDGE_FEATS = ["S_F1", "S_F2", "P_F1"]


@pytest.mark.parametrize("values, langs, features", [
    ([[1, 0, 1], [0, 1, 1], [1, 1, np.nan]], ["aaaa1234", "bbbb1234", "aaaa1234"], None),
    ([[1, 0, 1], [0, 1, 1], [1, 1, np.nan]], EDGE_LANGS, ["P_F1", "S_F1"]),
    ([[1, 0, 1], [0, 1, 1], [1, 1, np.nan]], EDGE_LANGS, Category.MORPHOLOGICAL),
    ([[0, 0, 0], [0, 1, 1], [1, np.nan, 0]], EDGE_LANGS, None),
    ([[1e-200, 1e-200, 1e-200], [0.5, 1, 0.2], [1e-160, 1, np.nan]], EDGE_LANGS, None),
    ([[0.3, 0.9, np.nan], [0.6, 1.8, 1.0], [0.1, 0.2, 0.3]], ["cccc1234", "bbbb1234"], None),
], ids=["listed-twice", "explicit-features", "empty-category", "zero-row",
        "underflowing-squares", "two-languages"])
@pytest.mark.parametrize("metric", list(Metric))
def test_distance_matrix_edge_cases_match_language_distance(values, langs, features, metric):
    m = make_matrix(AggregationMode.AVERAGE, EDGE_LANGS, EDGE_FEATS, values)
    template = _req("", "", metric=metric, aggregation=AggregationMode.AVERAGE, features=features)
    grid = distance_matrix(langs, template, m)
    assert len(grid) == len(langs) and all(len(row) == len(langs) for row in grid)
    _assert_matches_language_distance(grid, langs, template, m)
    _assert_grid_equals_its_oracle(grid, langs, template, m)
    if features is Category.MORPHOLOGICAL:
        assert all(cell.reason == NO_SHARED_DATA for row in grid for cell in row)


def test_distance_matrix_edge_verdicts():
    m = make_matrix(AggregationMode.AVERAGE, EDGE_LANGS, EDGE_FEATS,
                    [[0, 0, 0], [1e-200, 1e-200, 1], [1, 0, 1]])
    grid = distance_matrix(["aaaa1234", "bbbb1234", "aaaa1234"],
                           _req("", "", aggregation=AggregationMode.AVERAGE), m)
    assert grid[0][1].reason == ZERO_VECTOR and grid[0][2].reason == ZERO_VECTOR
    # the squares of 1e-200 underflow to 0, but P_F1 keeps the norm nonzero
    assert grid[1][1].distance == 0.0 and grid[1][1].shared_features == 3


def test_distance_matrix_rejects_what_language_distance_rejects():
    m = make_matrix(AggregationMode.UNION, ["aaaa1234", "bbbb1234"], ["S_F1"], [[1.0], [1.0]])
    with pytest.raises(UnknownLanguage):
        distance_matrix(["aaaa1234", "zzzz9999"], _req("", ""), m)
    with pytest.raises(ValueError, match="does not match"):
        distance_matrix(list(m.languages), _req("", "", aggregation=AggregationMode.AVERAGE), m)
    with pytest.raises(UnknownFeature):
        distance_matrix(list(m.languages), _req("", "", features=["S_NOPE"]), m)


def _random_fixture(rng):
    n_lang = int(rng.integers(2, 9))
    n_feat = int(rng.integers(1, 13))
    binary = rng.random() < 0.5
    if binary:
        values = rng.integers(0, 2, (n_lang, n_feat)).astype(float)
    else:
        values = rng.random((n_lang, n_feat))
    if n_lang > 2 and rng.random() < 0.3:
        values[1] = values[0]  # duplicated row
    if not binary and n_lang > 3 and rng.random() < 0.3:
        values[3] = values[2] * rng.uniform(0.01, 1.0)  # parallel row
    values[rng.random(values.shape) < rng.random()] = np.nan
    langs = [f"l{i:03d}1234" for i in range(n_lang)]
    names = [f"S_F{j:03d}" for j in range(n_feat)]
    mode = AggregationMode.UNION if rng.random() < 0.5 else AggregationMode.AVERAGE
    m = make_matrix(mode, langs, names, values)
    listed = langs + [langs[0]] if rng.random() < 0.2 else langs
    return m, listed, binary


def test_distance_matrix_matches_language_distance_on_random_fixtures():
    rng = np.random.default_rng(2025)
    reasons = set()
    for _ in range(1000):
        m, langs, binary = _random_fixture(rng)
        metric = Metric.ANGULAR if rng.random() < 0.5 else Metric.COSINE
        template = _req("", "", metric=metric, aggregation=m.mode)
        grid = distance_matrix(langs, template, m)
        _assert_matches_language_distance(grid, langs, template, m, exact=binary)
        _assert_grid_equals_its_oracle(grid, langs, template, m)
        reasons.update(cell.reason for row in grid for cell in row)
    assert reasons == {None, NO_SHARED_DATA, ZERO_VECTOR}


def test_distance_matrix_measures_only_ill_conditioned_angular_cells_per_pair(monkeypatch):
    rng = np.random.default_rng(47)
    values = rng.random((30, 20))
    values[5] = 0.5 * values[4]  # parallel: cos = 1 up to rounding
    values[7] = values[6] + 1e-7  # nearly parallel
    values[rng.random(values.shape) < 0.3] = np.nan
    m = make_matrix(AggregationMode.AVERAGE, [f"l{i:03d}1234" for i in range(30)],
                    [f"S_F{j:03d}" for j in range(20)], values)
    calls = []

    def counting(req, matrix):
        calls.append((req.lang_a, req.lang_b))
        return language_distance(req, matrix)

    monkeypatch.setattr(distance_module, "language_distance", counting)
    for metric in Metric:
        calls.clear()
        template = _req("", "", metric=metric, aggregation=AggregationMode.AVERAGE)
        grid = distance_matrix(list(m.languages), template, m)
        # the oracle measures through this module's language_distance, not the counting one
        _assert_grid_equals_its_oracle(grid, list(m.languages), template, m)
        if metric is Metric.COSINE:
            assert calls == []
            continue
        assert {("l0041234", "l0051234"), ("l0061234", "l0071234")} <= set(calls)
        for a, b in calls:
            d = grid[m.language_index(a)][m.language_index(b)].distance
            assert a != b and 1.0 - math.cos(d * math.pi / 2) < 1e-5


# DistanceGrid: the arrays and the cells they yield ------------------------------

def _assert_grid_arrays_agree_with_cells(grid, langs):
    n = len(langs)
    assert isinstance(grid, DistanceGrid)
    assert grid.languages == tuple(langs)
    arrays = ((grid.distances, np.float64, np.uint64), (grid.reasons, np.int8, np.int8),
              (grid.shared, np.int32, np.int32))
    for values, dtype, bits in arrays:
        assert values.dtype == dtype and values.shape == (n, n)
        assert not values.flags.writeable
        assert np.array_equal(values.view(bits), values.view(bits).T)  # bit-exact symmetry
    assert np.array_equal(np.isnan(grid.distances), grid.reasons != 0)
    assert set(np.unique(grid.reasons).tolist()) <= {0, 1, 2}
    assert len(grid) == n
    rows = list(grid)
    assert len(rows) == n
    for i, row in enumerate(rows):
        assert type(row) is list and len(row) == n and row is grid[i]
        for j, cell in enumerate(row):
            assert cell.pair == (langs[i], langs[j])
            assert cell.reason == distance_module._REASONS[grid.reasons[i, j]]
            assert type(cell.shared_features) is int
            assert cell.shared_features == grid.shared[i, j]
            if cell.distance is not None:
                assert type(cell.distance) is float
                assert cell.distance == grid.distances[i, j]
    assert grid.to_json() == [[cell.to_json() for cell in row] for row in rows]


@pytest.mark.parametrize("values, langs, features", [
    ([[1, 0, 1], [0, 1, 1], [1, 1, np.nan]], ["aaaa1234", "bbbb1234", "aaaa1234"], None),
    ([[1, 0, 1], [0, 1, 1], [1, 1, np.nan]], EDGE_LANGS, Category.MORPHOLOGICAL),
    ([[0, 0, 0], [0, 1, 1], [1, np.nan, 0]], EDGE_LANGS, None),
    ([[1e-200, 1e-200, 1e-200], [0.5, 1, 0.2], [1e-160, 1, np.nan]], EDGE_LANGS, None),
    ([[0.3, 0.9, np.nan], [0.6, 1.8, 1.0], [0.1, 0.2, 0.3]], ["cccc1234", "bbbb1234"], None),
], ids=["listed-twice", "empty-category", "zero-row", "underflowing-squares", "two-languages"])
@pytest.mark.parametrize("metric", list(Metric))
def test_distance_grid_arrays_agree_with_cells_on_edge_cases(values, langs, features, metric):
    m = make_matrix(AggregationMode.AVERAGE, EDGE_LANGS, EDGE_FEATS, values)
    template = _req("", "", metric=metric, aggregation=AggregationMode.AVERAGE, features=features)
    _assert_grid_arrays_agree_with_cells(distance_matrix(langs, template, m), langs)


def test_distance_grid_arrays_agree_with_cells_on_random_fixtures():
    rng = np.random.default_rng(2025)
    codes = set()
    for _ in range(1000):
        m, langs, _ = _random_fixture(rng)
        metric = Metric.ANGULAR if rng.random() < 0.5 else Metric.COSINE
        grid = distance_matrix(langs, _req("", "", metric=metric, aggregation=m.mode), m)
        _assert_grid_arrays_agree_with_cells(grid, langs)
        codes.update(np.unique(grid.reasons).tolist())
    assert codes == {0, 1, 2}


def test_distance_grid_ill_conditioned_cells_land_in_both_triangles():
    values = np.array([[0.3, 0.9, 0.2], [0.6, 1.8, 0.4], [0.1, 0.2, 0.3]])
    m = make_matrix(AggregationMode.AVERAGE, EDGE_LANGS, EDGE_FEATS, values)
    template = _req("", "", aggregation=AggregationMode.AVERAGE)
    grid = distance_matrix(EDGE_LANGS, template, m)
    # rows 0 and 1 are parallel, so their cell is measured per pair
    solo = language_distance(replace(template, lang_a="aaaa1234", lang_b="bbbb1234"), m)
    assert grid.distances[0, 1] == grid.distances[1, 0] == solo.distance
    assert grid.shared[0, 1] == grid.shared[1, 0] == solo.shared_features == 3
    _assert_grid_arrays_agree_with_cells(grid, EDGE_LANGS)


def test_distance_grid_leaves_the_arrays_it_is_given_writeable():
    values = np.zeros((2, 2))
    reasons, shared = np.zeros((2, 2), dtype=np.int8), np.ones((2, 2), dtype=np.int32)
    grid = DistanceGrid(("aaaa1234", "bbbb1234"), Metric.COSINE, AggregationMode.AVERAGE,
                        values, reasons, shared)
    assert all(a.flags.writeable for a in (values, reasons, shared))
    assert grid[0][1] == DistanceResult.of(("aaaa1234", "bbbb1234"), Metric.COSINE,
                                           AggregationMode.AVERAGE, 0.0, 1)


def test_distance_grid_keeps_each_row_so_assignments_stick():
    m = make_matrix(AggregationMode.UNION, EDGE_LANGS, EDGE_FEATS,
                    [[1, 0, 1], [0, 1, 1], [1, 1, np.nan]])
    grid = distance_matrix(EDGE_LANGS, _req("", ""), m)
    fabricated = DistanceResult.of(("aaaa1234", "bbbb1234"), Metric.ANGULAR,
                                   AggregationMode.UNION, 0.5, 1)
    measured = grid[0][1].to_json()
    grid[0][1] = fabricated
    assert grid[0][1] is fabricated
    assert next(iter(grid))[1] is fabricated
    assert grid[1][0] is not fabricated
    assert grid.distances[0, 1] != 0.5  # the arrays keep the measured values
    assert grid.to_json()[0][1] == measured
    assert grid[-1] is grid[2]
    with pytest.raises(IndexError):
        grid[3]
    with pytest.raises(TypeError):
        grid[0:2]
    with pytest.raises(ValueError):
        grid.distances[0, 1] = 0.5


# language_distance against its per-pair oracle ---------------------------------

def _oracle_metric_distance(u, v, metric):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return None
    sim = float(np.dot(u, v)) / (nu * nv)
    sim = min(1.0, max(-1.0, sim))
    if metric is Metric.COSINE:
        d = 1.0 - sim
    else:
        d = (2.0 / math.pi) * math.acos(sim)
    return min(1.0, max(0.0, d))


def oracle_language_distance(req, matrix):
    """language_distance as it was before prepared row views: select the
    columns, mask both rows and compact them on every call."""
    distance_module._check_mode(req, matrix)
    pair = (req.lang_a, req.lang_b)
    cols = distance_module.select_feature_indices(matrix.features, req.features)
    ia = matrix.language_index(req.lang_a)
    ib = matrix.language_index(req.lang_b)

    row_a = np.asarray(matrix.values[ia, cols], dtype=float)
    row_b = np.asarray(matrix.values[ib, cols], dtype=float)
    shared = ~np.isnan(row_a) & ~np.isnan(row_b)
    n_shared = int(shared.sum())
    if n_shared == 0:
        return DistanceResult.not_computable(pair, req.metric, req.aggregation, NO_SHARED_DATA)
    u = row_a[shared]
    v = row_b[shared]
    if ia == ib:
        if float(np.linalg.norm(u)) == 0.0:
            return DistanceResult.not_computable(pair, req.metric, req.aggregation, ZERO_VECTOR)
        return DistanceResult.of(pair, req.metric, req.aggregation, 0.0, n_shared)
    d = _oracle_metric_distance(u, v, req.metric)
    if d is None:
        return DistanceResult.not_computable(pair, req.metric, req.aggregation, ZERO_VECTOR)
    return DistanceResult.of(pair, req.metric, req.aggregation, d, n_shared)


VIEW_PREFIXES = ("S_", "P_", "M_", "INV_")
# no fixture has a geographic feature, so this category is always empty
VIEW_CATEGORIES = (Category.SYNTACTIC, Category.PHONOLOGICAL, Category.MORPHOLOGICAL,
                   Category.INVENTORY, Category.GEOGRAPHIC)


def _view_fixture(rng):
    """A random matrix over a registry whose categories are grouped or
    interleaved, observed or imputed, C- or Fortran-ordered."""
    n_lang = int(rng.integers(2, 10))
    n_feat = int(rng.integers(1, 15))
    prefixes = [VIEW_PREFIXES[int(k)] for k in rng.integers(len(VIEW_PREFIXES), size=n_feat)]
    if rng.random() < 0.5:
        prefixes.sort(key=VIEW_PREFIXES.index)  # one run of columns per category
    names = [f"{p}F{j:03d}" for j, p in enumerate(prefixes)]
    langs = [f"l{i:03d}1234" for i in range(n_lang)]
    binary = rng.random() < 0.5
    if binary:
        values = rng.integers(0, 2, (n_lang, n_feat)).astype(float)
    else:
        values = rng.random((n_lang, n_feat))
    values[rng.random(n_lang) < 0.15] = 0.0  # all-zero rows
    values[rng.random(values.shape) < rng.uniform(0.0, 0.9)] = np.nan
    if np.isnan(values).all():
        values[0, 0] = 1.0  # the imputers need an observed cell
    if rng.random() < 0.2:
        values = np.asfortranarray(values)
    mode = AggregationMode.UNION if rng.random() < 0.5 else AggregationMode.AVERAGE
    m = make_matrix(mode, langs, names, values)
    imputer = rng.random()
    if imputer < 0.2:
        m = impute_mean(m)
    elif imputer < 0.4:
        m = impute_knn(m, k=int(rng.integers(1, 4)))
    if rng.random() < 0.6:
        m.values.flags.writeable = False  # as aggregate and matrix_for return it
    return m


def _view_selectors(rng, m):
    names = [f.name for f in m.features]
    listed = list(rng.choice(names, size=int(rng.integers(1, len(names) + 1))))
    listed += listed[: int(rng.integers(0, len(listed) + 1))]  # duplicates, out of order
    rng.shuffle(listed)
    return [None, *VIEW_CATEGORIES, listed, str(rng.choice(names))]


def test_language_distance_matches_its_oracle_on_random_fixtures():
    rng = np.random.default_rng(1212)
    reasons, paths, row_states = set(), set(), set()
    for _ in range(300):
        m = _view_fixture(rng)
        for selector in _view_selectors(rng, m):
            metric = Metric.ANGULAR if rng.random() < 0.5 else Metric.COSINE
            for a in m.languages:
                for b in m.languages:
                    req = _req(a, b, metric=metric, aggregation=m.mode, features=selector)
                    got = language_distance(req, m)
                    assert got == oracle_language_distance(req, m), (req, m.values)
                    reasons.add(got.reason)
            view = distance_module._view(m, selector)
            paths.add(type(view.cols))
            row_states.update(view.state)
    assert reasons == {None, NO_SHARED_DATA, ZERO_VECTOR}
    assert paths == {slice, np.ndarray}
    assert {distance_module._FULL, distance_module._GAPS} <= row_states


def test_views_are_kept_only_for_read_only_matrices_and_category_selectors():
    m = make_matrix(AggregationMode.UNION, EDGE_LANGS, EDGE_FEATS,
                    [[1, 0, 1], [0, 1, 1], [1, 1, np.nan]])
    for selector in (None, Category.SYNTACTIC, ["S_F1"]):
        language_distance(_req("aaaa1234", "bbbb1234", features=selector), m)
    assert m._views == {}
    m.values.flags.writeable = False
    for selector in (None, Category.SYNTACTIC, ["S_F1"], "S_F2"):
        language_distance(_req("aaaa1234", "bbbb1234", features=selector), m)
    assert set(m._views) == {None, Category.SYNTACTIC}
    assert m._views[Category.SYNTACTIC].cols == slice(0, 2)


def test_writable_matrix_mutated_between_calls_gets_the_fresh_answer():
    m = make_matrix(AggregationMode.AVERAGE, EDGE_LANGS, EDGE_FEATS,
                    [[1, 0, 1], [0, 1, 1], [1, 1, 0.5]])
    req = _req("aaaa1234", "cccc1234", aggregation=AggregationMode.AVERAGE)
    before = language_distance(req, m)
    m.values[2] = [0.0, 1.0, 0.0]
    after = language_distance(req, m)
    assert after == oracle_language_distance(req, m) and after.distance == 1.0
    assert after != before
    m.values[0, 1] = np.nan
    assert language_distance(req, m) == oracle_language_distance(req, m)

    # read-only values replaced by other read-only values: the kept view is not used
    for row in ([1, 0, 1], [0, 1, 0]):
        frozen = np.array([[1, 0, 1], [0, 1, 1], row], dtype=float)
        frozen.flags.writeable = False
        m.values = frozen
        assert language_distance(req, m) == oracle_language_distance(req, m)
    assert language_distance(req, m).distance == 1.0


@pytest.mark.parametrize("use_imputed", [False, True])
def test_views_follow_tensor_writes(tiny_tensor, use_imputed):
    req = _req("pare1234", "othe1234", features=Category.SYNTACTIC,
               use_imputed=use_imputed, imputer=ImputerSpec("mean") if use_imputed else None)
    first = matrix_for(tiny_tensor, req)
    assert distance_from_tensor(tiny_tensor, req) == oracle_language_distance(req, first)
    kept = first._views[Category.SYNTACTIC]

    tiny_tensor.extend_with(TensorBatch(cells=[("othe1234", "S_F1", "SRC_B", 1.0)]))
    second = matrix_for(tiny_tensor, req)
    assert second is not first
    got = distance_from_tensor(tiny_tensor, req)
    assert got == oracle_language_distance(req, second)
    assert second._views[Category.SYNTACTIC] is not kept
    assert got != oracle_language_distance(req, first)

    tiny_tensor.add_language(LanguageRecord("newl1234"))
    third = matrix_for(tiny_tensor, req)
    new_req = replace(req, lang_b="newl1234")
    assert distance_from_tensor(tiny_tensor, new_req) == oracle_language_distance(new_req, third)
    assert len(third._views[Category.SYNTACTIC].state) == 4


def test_threads_from_a_cold_view_get_the_oracle_answers():
    rng = np.random.default_rng(88)
    langs = [f"l{i:03d}1234" for i in range(40)]
    feats = [f"{p}F{j:03d}" for p in VIEW_PREFIXES for j in range(6)]
    cells = [(lang, feat, "A", float(rng.integers(0, 2)))
             for lang in langs for feat in feats if rng.random() < 0.4]
    tensor = make_tensor(langs, feats, cells)
    template = _req("", "", use_imputed=True, imputer=ImputerSpec("mean"))
    matrix = matrix_for(tensor, template)
    requests = [replace(template, lang_a=a, lang_b=b, metric=metric, features=selector)
                for a in langs[:12] for b in langs
                for metric, selector in ((Metric.ANGULAR, None), (Metric.COSINE, Category.PHONOLOGICAL))]
    want = [oracle_language_distance(req, matrix) for req in requests]
    assert matrix._views == {}

    start = threading.Barrier(8)
    results = [None] * 8

    def work(k):
        start.wait()
        order = requests if k % 2 else requests[::-1]
        got = [distance_from_tensor(tensor, req) for req in order]
        results[k] = got if k % 2 else got[::-1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got == want for got in results)
    assert set(matrix._views) == {None, Category.PHONOLOGICAL}


# matrix_for's cache across request spellings -----------------------------------

def test_every_spelling_of_a_scope_reads_one_cached_matrix(tiny_tensor, tmp_path, monkeypatch):
    imputed = {"use_imputed": True, "imputer": ImputerSpec("mean")}
    same_scopes = [(None, ["SRC_A", "SRC_B"], ("SRC_A", "SRC_B", "SRC_A")),
                   ("SRC_A", ["SRC_A"], ["SRC_A", "SRC_A"])]
    for extra in ({}, imputed):
        for scope in same_scopes:
            first, *rest = [matrix_for(tiny_tensor, _req("dial1234", "othe1234", sources=s, **extra))
                            for s in scope]
            assert all(m is first for m in rest)

    imputations = _counting_imputer(monkeypatch)
    aggregates = []
    real = distance_module.aggregate
    monkeypatch.setattr(distance_module, "aggregate",
                        lambda *args: aggregates.append(args) or real(*args))
    for scope in same_scopes:
        for sources in scope:
            matrix_for(tiny_tensor, _req("dial1234", "othe1234", sources=sources, **imputed))
    assert imputations == [] and aggregates == []  # a hit neither imputes nor aggregates

    # an external file can change while the tensor does not: read on every call
    path = tmp_path / "external.csv"
    observed = real(tiny_tensor, AggregationMode.UNION)
    dense = np.where(np.isnan(observed.values), 0.0, observed.values)
    storage.export_matrix_csv(observed.languages, observed.features, dense, path)
    spec = ImputerSpec("external", external_path=str(path))
    for _ in range(2):
        matrix_for(tiny_tensor, _req("dial1234", "othe1234", use_imputed=True, imputer=spec))
    assert len(imputations) == 2 and len(aggregates) == 2


def test_cached_queries_equal_queries_on_a_freshly_built_matrix():
    rng = np.random.default_rng(29)
    langs = [f"l{i:03d}1234" for i in range(12)]
    feats = [f"{p}F{j}" for j, p in enumerate(["S_", "P_", "S_", "M_", "P_", "S_", "M_", "P_"])]
    sources = ["SRC_A", "SRC_B", "SRC_C"]
    cells = [(l, f, s, float(rng.choice([0.0, 1.0]))) for l in langs for f in feats
             for s in sources if rng.random() < 0.35]
    tensor = make_tensor(langs, feats, cells, sources=sources)
    scopes = [None, "SRC_B", ["SRC_C", "SRC_A"], ["SRC_A", "SRC_A"]]
    specs = [None, ImputerSpec("mean"), ImputerSpec("knn", k=2)]
    selectors = [None, Category.SYNTACTIC, Category.PHONOLOGICAL, ["S_F0", "M_F3"]]
    for _ in range(300):
        a, b = (langs[int(i)] for i in rng.integers(len(langs), size=2))
        spec = specs[int(rng.integers(len(specs)))]
        req = DistanceRequest(
            a, b, metric=list(Metric)[int(rng.integers(2))],
            aggregation=list(AggregationMode)[int(rng.integers(2))],
            features=selectors[int(rng.integers(len(selectors)))],
            sources=scopes[int(rng.integers(len(scopes)))],
            use_imputed=bool(spec) or rng.random() < 0.3, imputer=spec)
        fill = bool(rng.random() < 0.5)
        # a new tensor of the same cells has nothing cached
        fresh = aggregate(make_tensor(langs, feats, cells, sources=sources), req.aggregation,
                          req.sources)
        if req.use_imputed:
            fresh = run_imputer(fresh, req.imputer or ImputerSpec("softimpute"),
                                registry=tensor, dialect_fill=fill)
        got = distance_from_tensor(tensor, req, dialect_fill=fill)
        want = language_distance(req, fresh)
        assert got == want
        assert (got.distance is None) == (want.distance is None)
        if got.distance is not None:
            assert math.copysign(1.0, got.distance) == math.copysign(1.0, want.distance)


# the DistanceResult contract ----------------------------------------------------

def test_distance_result_is_a_frozen_slotted_dataclass():
    ok = DistanceResult.of(["a", "b"], Metric.ANGULAR, AggregationMode.UNION, 0.48, 123)
    nc = DistanceResult.not_computable(("a", "b"), Metric.COSINE, AggregationMode.AVERAGE, ZERO_VECTOR)
    built = DistanceResult(("a", "b"), Metric.ANGULAR, AggregationMode.UNION, 0.48, 123)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ok.distance = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ok.reason
    assert not hasattr(ok, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(ok)  # no __weakref__ slot

    assert ok == built and ok != nc and ok != (("a", "b"), Metric.ANGULAR)
    assert hash(ok) == hash(built) == hash(dataclasses.astuple(built))
    assert repr(ok) == ("DistanceResult(pair=('a', 'b'), metric=<Metric.ANGULAR: 'angular'>, "
                        "aggregation=<AggregationMode.UNION: 'union'>, distance=0.48, "
                        "shared_features=123, reason=None)")
    assert dataclasses.replace(ok, distance=None, shared_features=0, reason=NO_SHARED_DATA) \
        == DistanceResult.not_computable(("a", "b"), Metric.ANGULAR, AggregationMode.UNION,
                                         NO_SHARED_DATA)
    assert dataclasses.asdict(nc) == {
        "pair": ("a", "b"), "metric": Metric.COSINE, "aggregation": AggregationMode.AVERAGE,
        "distance": None, "shared_features": 0, "reason": ZERO_VECTOR,
    }
    for result in (ok, nc):
        for twin in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
            assert twin == result and twin is not result and hash(twin) == hash(result)
            assert twin.to_json() == result.to_json() and twin.computable is result.computable
    assert [f.name for f in dataclasses.fields(DistanceResult)] == [
        "pair", "metric", "aggregation", "distance", "shared_features", "reason"]


#: bytes held per result below when DistanceResult was a frozen dataclass
#: with a __dict__ (tracemalloc, CPython 3.11: 203.0; slotted: 154.9)
DICT_RESULT_BYTES = 203


def test_held_results_take_no_more_memory_than_dict_backed_ones():
    rng = np.random.default_rng(7)
    langs = [f"l{i:03d}1234" for i in range(50)]
    values = rng.integers(0, 2, (50, 8)).astype(float)
    values[:3] = [0.0] * 8, [np.nan] * 8, [1.0] + [np.nan] * 7  # not computable pairs
    m = make_matrix(AggregationMode.UNION, langs, [f"S_F{j}" for j in range(8)], values)
    m.values.flags.writeable = False
    reqs = [_req(langs[i], langs[j], metric=Metric.ANGULAR if (i + j) % 2 else Metric.COSINE)
            for i in range(50) for j in range(50)]
    n = 100_000
    batch = [reqs[k % len(reqs)] for k in range(n)]
    language_distance(batch[0], m)  # the matrix's row view, built once
    held = [None] * n
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k, req in enumerate(batch):
            held[k] = language_distance(req, m)
        per_result = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert any(r.reason for r in held) and any(r.computable for r in held)
    assert per_result <= DICT_RESULT_BYTES
