import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kendalltau as scipy_kendalltau

from typodist import evalkit, storage
from typodist.aggregate import AggregationMode
from typodist.errors import DegenerateInput, FormatError, TooFewObserved
from typodist.evalkit import (
    _union_metrics,
    case_study,
    coverage_report,
    draw_mask,
    kendall_tau,
    knn_select_k,
    load_case_study,
    perm_both_test,
    quality_test,
)
from typodist.impute import ImputerSpec, impute_knn
from typodist.kb import FeatureTensor, LanguageRecord, ResourceTier, TensorBatch

from conftest import make_matrix, make_tensor, random_matrix


# quality test -------------------------------------------------------------------

def test_masked_count_is_exactly_twenty_percent_floor():
    rng = np.random.default_rng(3)
    for n_obs_target, expected in [(10, 2), (23, 4), (5, 1)]:
        m = random_matrix(rng, 5, 10, AggregationMode.UNION, missing_frac=0.0)
        values = m.values.copy()
        observed = np.argwhere(~np.isnan(values))
        drop = observed[n_obs_target:]
        values[drop[:, 0], drop[:, 1]] = np.nan
        m.values = values
        cells = draw_mask(m, seed=1)
        assert len(cells) == expected


def test_too_few_observed():
    m = make_matrix(AggregationMode.UNION, ["a0001234", "b0001234"], ["S_F1", "S_F2"],
                    [[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(TooFewObserved):
        quality_test(m, ImputerSpec("mean"), seed=0)


def test_perfect_imputer_scores_perfectly(tmp_path):
    rng = np.random.default_rng(5)
    union = random_matrix(rng, 8, 8, AggregationMode.UNION, missing_frac=0.1)
    truth_file = tmp_path / "truth_union.csv"
    dense = np.where(np.isnan(union.values), 0.0, union.values)
    storage.export_matrix_csv(union.languages, union.features, dense, truth_file)
    report = quality_test(
        union, ImputerSpec("external", external_path=str(truth_file)), seed=2
    )
    assert report.metrics["f1"] == 1.0
    assert report.metrics["accuracy"] == 1.0

    avg = random_matrix(rng, 8, 8, AggregationMode.AVERAGE, missing_frac=0.1)
    truth_file2 = tmp_path / "truth_avg.csv"
    dense2 = np.where(np.isnan(avg.values), 0.0, avg.values)
    storage.export_matrix_csv(avg.languages, avg.features, dense2, truth_file2)
    report2 = quality_test(
        avg, ImputerSpec("external", external_path=str(truth_file2)), seed=2
    )
    assert report2.metrics["rmse"] == 0.0
    assert report2.metrics["mae"] == 0.0


def test_union_metrics_hand_counted_confusion():
    # constant-0 predictions on truth {1,1,0,0}
    truth = np.array([1.0, 1.0, 0.0, 0.0])
    pred = np.zeros(4)
    metrics, guards = _union_metrics(truth, pred)
    assert metrics["accuracy"] == 0.5
    assert metrics["recall"] == 0.0
    assert metrics["precision"] == 0.0
    assert "precision" in guards  # no positive predictions at all


@pytest.mark.parametrize("truth, pred, metrics, guards", [
    ([0.0, 0.0], [0.0, 0.4], (1.0, 0.0, 0.0, 0.0), ["precision", "recall", "f1"]),
    ([1.0, 0.0], [0.0, 0.5], (0.0, 0.0, 0.0, 0.0), ["f1"]),
    ([0.0, 0.0], [1.0, 0.0], (0.5, 0.0, 0.0, 0.0), ["recall", "f1"]),
    ([1.0, 1.0, 0.0], [1.0, 0.0, 1.0], (1 / 3, 0.5, 0.5, 0.5), []),
    ([], [], (0.0, 0.0, 0.0, 0.0), ["precision", "recall", "f1"]),
])
def test_union_metrics_guard_each_zero_denominator_in_order(truth, pred, metrics, guards):
    got, got_guards = _union_metrics(np.array(truth), np.array(pred))
    assert tuple(got.values()) == metrics
    assert list(got) == ["accuracy", "precision", "recall", "f1"]
    assert all(type(v) is float for v in got.values())
    assert got_guards == guards


def test_quality_report_reproducible_and_seed_sensitive():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, 10, 10, AggregationMode.UNION, missing_frac=0.2)
    a = quality_test(m, ImputerSpec("knn", k=3), seed=5)
    b = quality_test(m, ImputerSpec("knn", k=3), seed=5)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    c = quality_test(m, ImputerSpec("knn", k=3), seed=6)
    assert c.to_json() != a.to_json() or True  # different mask; metrics may coincide


def test_quality_test_masks_before_dialect_fill():
    # the dialect's held-out cell must be recoverable from the parent,
    # which only works if masking happened before the fill
    records = {
        "pare1234": LanguageRecord("pare1234"),
        "dial1234": LanguageRecord("dial1234", parent="pare1234"),
    }
    values = np.array(
        [
            [1.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 1.0, 0.0],
        ]
    )
    m = make_matrix(
        AggregationMode.UNION,
        ["pare1234", "dial1234"],
        [f"S_F{j}" for j in range(5)],
        values,
    )
    report = quality_test(m, ImputerSpec("mean"), seed=0, registry=records, dialect_fill=True)
    assert report.masked_count == 2
    assert report.metrics["accuracy"] >= 0.5


def test_per_category_breakdown_partitions_mask():
    rng = np.random.default_rng(21)
    values = rng.integers(0, 2, (6, 6)).astype(float)
    names = ["S_F1", "S_F2", "P_F1", "P_F2", "M_F1", "M_F2"]
    m = make_matrix(AggregationMode.UNION, [f"l{i:03d}1234" for i in range(6)], names, values)
    report = quality_test(m, ImputerSpec("mean"), seed=3)
    total = sum(v["masked_count"] for v in report.per_category.values())
    assert total == report.masked_count


# k selection ----------------------------------------------------------------------

def _fold_objective(matrix, pool, fold_indices, k):
    """Independent re-evaluation of one candidate k."""
    from typodist.evalkit import _mask_cells, _score

    scores = []
    for fold in fold_indices:
        cells = pool[fold]
        test_matrix = _mask_cells(matrix, cells)
        result = impute_knn(test_matrix, k=k)
        truth = matrix.values[cells[:, 0], cells[:, 1]]
        pred = result.values[cells[:, 0], cells[:, 1]]
        metrics, _ = _score(matrix.mode, truth, pred)
        return_key = "f1" if matrix.mode is AggregationMode.UNION else "rmse"
        scores.append(metrics[return_key])
    return float(np.mean(scores))


def test_knn_select_k_matches_exhaustive_oracle():
    rng = np.random.default_rng(33)
    m = random_matrix(rng, 20, 12, AggregationMode.UNION, missing_frac=0.15)
    pool = draw_mask(m, seed=4)
    order = np.random.default_rng(4).permutation(len(pool))
    fold_indices = np.array_split(order, 5)
    best = knn_select_k(m, seed=4)
    objectives = {k: _fold_objective(m, pool, fold_indices, k) for k in (3, 6, 9, 12, 15)}
    top = max(objectives.values())
    smallest_best = min(k for k, v in objectives.items() if v == top)
    assert best == smallest_best


def test_knn_select_k_all_ties_returns_smallest():
    # every language identical: any k imputes the same value everywhere
    values = np.ones((8, 5))
    values[0, 0] = np.nan
    m = make_matrix(
        AggregationMode.UNION,
        [f"l{i:03d}1234" for i in range(8)],
        [f"S_F{j}" for j in range(5)],
        values,
    )
    assert knn_select_k(m, seed=0) == 3


def test_knn_select_k_needs_enough_cells():
    m = make_matrix(
        AggregationMode.UNION,
        ["a0001234", "b0001234"],
        ["S_F1", "S_F2", "S_F3"],
        [[1.0, 0.0, 1.0], [0.0, 1.0, np.nan]],
    )
    with pytest.raises(TooFewObserved):
        knn_select_k(m, seed=0)  # pool of one cell cannot fill 5 folds


# kendall ---------------------------------------------------------------------------

def test_kendall_perfect_concordance_and_discordance():
    assert kendall_tau([1, 2, 3], [1, 2, 3]).tau == 1.0
    assert kendall_tau([1, 2, 3], [3, 2, 1]).tau == -1.0


def test_kendall_degenerate_input():
    with pytest.raises(DegenerateInput):
        kendall_tau([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        kendall_tau([1, 2, 3], [2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        kendall_tau([1.0], [2.0])


def test_kendall_matches_scipy_with_ties():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(3, 25))
        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 6, n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        mine = kendall_tau(x, y).tau
        ref = scipy_kendalltau(x, y, variant="b").statistic
        assert mine == pytest.approx(ref, abs=1e-12)


def _tau_b_all_pairs(x, y):
    """The n x n sign-matrix tau-b that row-blocked counting replaced."""
    n = x.size
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    prod = dx[iu] * dy[iu]
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
    n0 = n * (n - 1) // 2
    ties_x = int(np.sum(dx[iu] == 0))
    ties_y = int(np.sum(dy[iu] == 0))
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        return None
    return (concordant - discordant) / denom


def _tau_inputs(rng, n, tied):
    if tied:
        return (rng.integers(0, 5, n).astype(float), rng.integers(0, 3, n).astype(float))
    return rng.random(n), rng.random(n)


@pytest.mark.parametrize("sizes", [range(2, 81), [600, 2016, 3001]], ids=["2-80", "blocks"])
def test_blocked_tau_b_equals_all_pairs_oracle(sizes):
    rng = np.random.default_rng(71)
    for n in sizes:
        for tied in (False, True):
            x, y = _tau_inputs(rng, n, tied)
            mine = evalkit._tau_b(x, y)
            assert mine == _tau_b_all_pairs(x, y)
            if mine is not None:
                ref = scipy_kendalltau(x, y, variant="b").statistic
                assert abs(mine - ref) <= 1e-12
    constant = np.ones(5)
    assert evalkit._tau_b(constant, np.arange(5.0)) is None


def test_perm_both_p_values_unchanged_by_blocked_tau_b(table5, monkeypatch):
    _labels, dist_a, dist_b, gd = table5
    rng = np.random.default_rng(73)
    a, b, ref = (rng.integers(0, 8, 190).astype(float) for _ in range(3))
    cases = [((dist_a, dist_b, gd), 2000), ((a, b, ref), 100)]

    def results():
        return [perm_both_test(*scores, iterations=n, seed=5) for scores, n in cases]

    blocked = results()
    monkeypatch.setattr(evalkit, "_tau_b", _tau_b_all_pairs)
    assert blocked == results()


def _perm_both_oracle(scores_a, scores_b, reference, iterations, seed):
    """perm_both_test as one _tau_b pair per iteration and one swap mask
    drawn per iteration: the loop that batched counting replaced."""
    a, b, ref = (np.asarray(v, dtype=float) for v in (scores_a, scores_b, reference))
    observed = evalkit._delta(a, b, ref)
    if observed is None:
        raise DegenerateInput("rank correlation undefined for constant input")
    rng = np.random.default_rng(seed)
    at_least, valid = 0, 0
    for _ in range(iterations):
        swap = rng.random(a.size) < 0.5
        delta = evalkit._delta(np.where(swap, b, a), np.where(swap, a, b), ref)
        if delta is None:
            continue
        valid += 1
        if delta >= observed:
            at_least += 1
    p = (1 + at_least) / (1 + valid) if valid else 1.0
    return evalkit.PermTestResult(
        observed_delta=observed, p_value=p, iterations=iterations, seed=seed)


def _perm_inputs(rng, n, tied):
    if tied:  # few levels: ties, and at small n permuted vectors that go constant
        return tuple(rng.integers(0, 3, n).astype(float) for _ in range(3))
    return rng.random(n), rng.random(n), rng.random(n)


@pytest.mark.parametrize("block_cells", [evalkit._PERM_BLOCK_CELLS, 2**10],
                         ids=["default-blocks", "small-blocks"])
def test_batched_perm_both_equals_the_per_iteration_loop(monkeypatch, block_cells):
    monkeypatch.setattr(evalkit, "_PERM_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(79)
    checked = 0
    for n in [*range(2, 21), 37, 64, 200]:
        for tied in (False, True):
            scores = _perm_inputs(rng, n, tied)
            iterations = 100 + int(rng.integers(0, 150))
            seed = int(rng.integers(0, 1000))
            try:
                want = _perm_both_oracle(*scores, iterations, seed)
            except DegenerateInput:
                continue
            assert perm_both_test(*scores, iterations=iterations, seed=seed) == want
            checked += 1
    assert checked >= 35


def test_batched_perm_both_equals_the_loop_over_full_blocks_and_a_remainder():
    rng = np.random.default_rng(89)
    n = 150
    iterations = 2 * (evalkit._PERM_BLOCK_CELLS // n) + 7
    for tied in (False, True):
        scores = _perm_inputs(rng, n, tied)
        want = _perm_both_oracle(*scores, iterations, 11)
        assert perm_both_test(*scores, iterations=iterations, seed=11) == want


@pytest.mark.parametrize("a,b", [
    # swapping exactly one pair makes both permuted vectors constant
    ([0.0, 1.0], [1.0, 0.0]),
    # swapping the first pair alone makes only w = where(swap, a, b) constant
    ([0.0, 1.0], [2.0, 0.0]),
])
def test_batched_perm_both_skips_the_iterations_the_loop_skips(a, b):
    ref = [0.0, 1.0]
    for seed in range(3):
        result = perm_both_test(a, b, ref, iterations=333, seed=seed)
        assert result == _perm_both_oracle(a, b, ref, 333, seed)
        assert result.p_value == 1.0


def test_batched_perm_both_memory_stays_linear_in_n():
    rng = np.random.default_rng(83)
    n = 4000  # one n x n float64 array would take 128 MB
    a, b, ref = rng.random(n), rng.random(n), rng.integers(0, 40, n).astype(float)
    tracemalloc.start()
    try:
        perm_both_test(a, b, ref, iterations=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_are_rejected(bad):
    # a NaN pair used to count in n0 as neither concordant, discordant nor tied
    with pytest.raises(ValueError, match="finite"):
        kendall_tau([1, 2, bad, 4], [1, 2, 3, 4])
    with pytest.raises(ValueError, match="finite"):
        kendall_tau([1, 2, 3, 4], [1, bad, 3, 4])
    scores = [[0.1, 0.4, 0.3, 0.9], [0.2, 0.5, 0.1, 0.7], [0.3, 0.1, 0.8, 0.6]]
    for k in range(3):
        bent = [list(s) for s in scores]
        bent[k][2] = bad
        with pytest.raises(ValueError, match="finite"):
            perm_both_test(*bent, iterations=100)


def test_kendall_antisymmetric_under_negation():
    rng = np.random.default_rng(67)
    for _ in range(50):
        n = int(rng.integers(3, 15))
        x = rng.permutation(n).astype(float)  # no ties
        y = rng.permutation(n).astype(float)
        assert kendall_tau(x, -y).tau == pytest.approx(-kendall_tau(x, y).tau, abs=1e-12)


def test_kendall_on_case_study_columns(table5):
    _labels, dist_a, dist_b, gd = table5
    assert kendall_tau(dist_a, gd).tau == pytest.approx(-0.05, abs=0.01)
    assert kendall_tau(dist_b, gd).tau == pytest.approx(0.19, abs=0.01)


# perm-both -------------------------------------------------------------------------

def test_perm_both_identical_scores_p_one():
    a = [0.5, 0.7, 0.2, 0.9, 0.4]
    ref = [0.1, 0.3, 0.2, 0.8, 0.5]
    result = perm_both_test(a, list(a), ref, iterations=200, seed=0)
    assert result.p_value == 1.0
    assert result.observed_delta == 0.0


def perm_both_exhaustive(scores_a, scores_b, reference) -> float:
    """Perm-Both's exact p-value by enumerating every swap pattern; the
    oracle for perm_both_test, only viable for short inputs."""
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    ref = np.asarray(reference, dtype=float)
    n = a.size
    if n > 16:
        raise ValueError("exhaustive enumeration limited to 16 pairs")
    observed = evalkit._delta(a, b, ref)
    if observed is None:
        raise DegenerateInput("rank correlation undefined for constant input")
    at_least, valid = 0, 0
    for pattern in range(2**n):
        swap = np.array([(pattern >> i) & 1 for i in range(n)], dtype=bool)
        delta = evalkit._delta(np.where(swap, b, a), np.where(swap, a, b), ref)
        if delta is None:
            continue
        valid += 1
        if delta >= observed:
            at_least += 1
    return at_least / valid


def test_perm_both_matches_exhaustive_on_four_pairs():
    a = [0.9, 0.1, 0.6, 0.3]
    b = [0.2, 0.8, 0.4, 0.7]
    ref = [0.9, 0.5, 0.6, 0.1]
    exact = perm_both_exhaustive(a, b, ref)
    mc = perm_both_test(a, b, ref, iterations=20000, seed=1).p_value
    assert mc == pytest.approx(exact, abs=0.02)


def test_perm_both_exchange_symmetric_same_seed():
    a = [0.9, 0.1, 0.6, 0.3, 0.5]
    b = [0.2, 0.8, 0.4, 0.7, 0.1]
    ref = [0.9, 0.5, 0.6, 0.1, 0.3]
    p_ab = perm_both_test(a, b, ref, iterations=500, seed=9).p_value
    p_ba = perm_both_test(b, a, ref, iterations=500, seed=9).p_value
    assert p_ab == p_ba


def test_perm_both_validates_input():
    with pytest.raises(ValueError):
        perm_both_test([1, 2], [1, 2], [1, 2], iterations=10)
    with pytest.raises(ValueError):
        perm_both_test([1, 2, 3], [1, 2], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        perm_both_test([1, 1, 1], [1, 2, 3], [1, 2, 3])


def test_perm_both_case_study_band(table5):
    _labels, dist_a, dist_b, gd = table5
    result = perm_both_test(dist_a, dist_b, gd, iterations=2000, seed=0)
    assert result.p_value > 0.05
    assert 0.10 <= result.p_value <= 0.55  # loose band at low iteration count


def test_case_study_wrapper(table5):
    labels, dist_a, dist_b, gd = table5
    result = case_study(dist_a, dist_b, gd, iterations=200, seed=0, pair_labels=labels)
    assert result.n_pairs == 20
    payload = result.to_json()
    assert payload["tau_a"] == pytest.approx(-0.053, abs=0.01)
    assert payload["perm_both"]["iterations"] == 200


def test_load_case_study_validates(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("pair,dist_a,dist_b\nx,1,2\n")
    with pytest.raises(FormatError):
        load_case_study(bad)
    bad.write_text("pair,dist_a,dist_b,g_d\nx,1,2,oops\n")
    with pytest.raises(FormatError, match="row 2"):
        load_case_study(bad)


# coverage ---------------------------------------------------------------------------

def test_coverage_empty_tensor():
    report = coverage_report(FeatureTensor())
    assert report.language_count == 0
    assert report.categories == {}
    assert report.typological_total["total"] == 0


def test_coverage_counts_languages_with_any_category_data():
    tensor = make_tensor(
        ["a0001234", "b0001234", "c0001234"],
        ["S_F1", "P_F1", "GEN_F1"],
        [
            ("a0001234", "S_F1", "X", 1.0),
            ("b0001234", "GEN_F1", "X", 1.0),
        ],
    )
    report = coverage_report(tensor)
    assert report.categories["syntactic"]["total"] == 1
    assert report.categories["genetic"]["total"] == 1
    assert report.categories["phonological"]["total"] == 0
    assert report.typological_total["total"] == 1  # only a000 has typological data



def test_coverage_counts_a_language_added_while_it_aggregates(monkeypatch):
    tensor = make_tensor(["a0001234"], ["S_F1"], [("a0001234", "S_F1", "X", 1.0)])
    real = evalkit.aggregate

    def write_then_aggregate(tensor, *args):
        tensor.extend_with(TensorBatch(
            languages=[LanguageRecord("b0001234", tier=ResourceTier.HRL)],
            cells=[("b0001234", "S_F1", "X", 0.0)]))
        return real(tensor, *args)

    monkeypatch.setattr(evalkit, "aggregate", write_then_aggregate)
    report = coverage_report(tensor)
    assert report.language_count == 2
    assert report.categories["syntactic"]["by_tier"] == {
        "HRL": 1, "MRL": 0, "LRL": 0, "Unknown": 1,
    }

def test_coverage_hand_tally_with_tiers():
    langs = [
        LanguageRecord("hrla1234", tier=ResourceTier.HRL),
        LanguageRecord("mrla1234", tier=ResourceTier.MRL),
        LanguageRecord("lrla1234", tier=ResourceTier.LRL),
        LanguageRecord("lrlb1234", tier=ResourceTier.LRL),
    ]
    cells = [
        ("hrla1234", "S_F1", "X", 1.0),
        ("hrla1234", "P_F1", "X", 1.0),
        ("mrla1234", "P_F1", "X", 0.0),
        ("lrla1234", "M_F1", "X", 1.0),
        ("lrlb1234", "INV_F1", "X", 1.0),
        ("lrlb1234", "M_F1", "X", 0.0),
    ]
    tensor = make_tensor(langs, ["S_F1", "P_F1", "M_F1", "INV_F1"], cells)
    report = coverage_report(tensor)
    assert report.categories["phonological"]["by_tier"] == {
        "HRL": 1, "MRL": 1, "LRL": 0, "Unknown": 0,
    }
    assert report.categories["morphological"]["total"] == 2
    assert report.typological_total["total"] == 4
    # override mrla's tier via the tier map
    report2 = coverage_report(tensor, tiers={"mrla1234": ResourceTier.LRL})
    assert report2.categories["phonological"]["by_tier"]["LRL"] == 1


def test_coverage_names_a_tier_override_that_is_not_a_tier():
    tensor = make_tensor(["a0001234", "b0001234"], ["S_F1"], [("a0001234", "S_F1", "X", 1.0)])
    report = coverage_report(tensor, tiers={"a0001234": "HRL", "b0001234": ResourceTier.MRL})
    assert report.categories["syntactic"]["by_tier"] == {"HRL": 1, "MRL": 0, "LRL": 0, "Unknown": 0}
    with pytest.raises(ValueError, match="a0001234: 'bogus' is not a resource tier"):
        coverage_report(tensor, tiers={"a0001234": "bogus"})
