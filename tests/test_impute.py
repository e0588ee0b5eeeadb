from dataclasses import replace

import numpy as np
import pytest

from typodist import storage
from typodist.aggregate import AggregatedMatrix, AggregationMode
from typodist.errors import FormatError, UnknownLanguage
from typodist.impute import (
    ImputedMatrix,
    ImputerSpec,
    _column_fill_values,
    _finalize,
    fill_dialects,
    impute_external,
    impute_knn,
    impute_mean,
    impute_softimpute,
    run_imputer,
    select_softimpute_lambda,
)
from typodist.kb import LanguageRecord

from conftest import make_matrix, random_matrix


# dialect fill ------------------------------------------------------------------

def _family_records():
    return {
        "pare1234": LanguageRecord("pare1234"),
        "dial1234": LanguageRecord("dial1234", parent="pare1234"),
        "gran1234": LanguageRecord("gran1234", parent="dial1234"),
    }


def test_fill_dialects_from_parent():
    m = make_matrix(
        AggregationMode.UNION,
        ["pare1234", "dial1234"],
        ["S_F1"],
        [[1.0], [np.nan]],
    )
    out = fill_dialects(m, _family_records())
    assert out.values[1, 0] == 1.0


def test_fill_dialects_never_overwrites():
    m = make_matrix(
        AggregationMode.UNION,
        ["pare1234", "dial1234"],
        ["S_F1"],
        [[1.0], [0.0]],
    )
    out = fill_dialects(m, _family_records())
    assert out.values[1, 0] == 0.0


def test_fill_dialects_walks_to_grandparent():
    # derived from a 3-node chain: child and parent missing, grandparent known
    m = make_matrix(
        AggregationMode.UNION,
        ["pare1234", "dial1234", "gran1234"],
        ["S_F1", "S_F2"],
        [[1.0, 0.0], [np.nan, 1.0], [np.nan, np.nan]],
    )
    out = fill_dialects(m, _family_records())
    assert out.values[2, 0] == 1.0  # from grandparent (chain through missing parent)
    assert out.values[2, 1] == 1.0  # from parent, which has it
    assert out.values[1, 0] == 1.0


def test_fill_dialects_no_parent_passthrough():
    m = make_matrix(AggregationMode.UNION, ["solo1234"], ["S_F1"], [[np.nan]])
    out = fill_dialects(m, {"solo1234": LanguageRecord("solo1234")})
    assert np.isnan(out.values[0, 0])


# mean ---------------------------------------------------------------------------

def test_mean_average_mode_uses_column_mean():
    m = make_matrix(
        AggregationMode.AVERAGE,
        ["a0001234", "b0001234", "c0001234", "d0001234"],
        ["S_F1"],
        [[0.0], [1.0], [1.0], [np.nan]],
    )
    out = impute_mean(m)
    assert out.values[3, 0] == pytest.approx(2 / 3)


def test_mean_union_mode_rounds_up_at_half():
    m = make_matrix(
        AggregationMode.UNION,
        ["a0001234", "b0001234", "c0001234", "d0001234"],
        ["S_F1"],
        [[0.0], [1.0], [1.0], [np.nan]],
    )
    assert impute_mean(m).values[3, 0] == 1.0  # 2/3 >= 0.5
    m2 = make_matrix(
        AggregationMode.UNION,
        ["a0001234", "b0001234", "c0001234"],
        ["S_F1"],
        [[0.0], [1.0], [np.nan]],
    )
    assert impute_mean(m2).values[2, 0] == 1.0  # exactly 0.5 rounds to 1


def test_mean_single_zero_column():
    m = make_matrix(
        AggregationMode.UNION, ["a0001234", "b0001234"], ["S_F1"], [[0.0], [np.nan]]
    )
    assert impute_mean(m).values[1, 0] == 0.0


def test_mean_all_missing_column_reported_and_filled_globally():
    m = make_matrix(
        AggregationMode.AVERAGE,
        ["a0001234", "b0001234"],
        ["S_F1", "S_F2"],
        [[0.25, np.nan], [0.75, np.nan]],
    )
    out = impute_mean(m)
    assert out.all_missing_columns == ["S_F2"]
    assert np.all(out.values[:, 1] == 0.5)


# knn -----------------------------------------------------------------------------

def test_knn_picks_nearest_neighbor():
    # L1 matches L3 exactly on shared features, L2 is maximally distant
    m = make_matrix(
        AggregationMode.UNION,
        ["l0011234", "l0021234", "l0031234"],
        ["S_F1", "S_F2", "S_F3", "S_F4", "S_TARGET"],
        [
            [1.0, 0.0, 1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 1.0, 0.0, np.nan],
        ],
    )
    out = impute_knn(m, k=1)
    assert out.values[2, 4] == 1.0


def test_knn_clamps_k_to_candidates():
    m = make_matrix(
        AggregationMode.AVERAGE,
        ["l0011234", "l0021234", "l0031234"],
        ["S_F1", "S_F2"],
        [[1.0, 0.0], [1.0, 1.0], [1.0, np.nan]],
    )
    out = impute_knn(m, k=50)
    assert out.values[2, 1] == pytest.approx(0.5)  # both candidates used


def test_knn_falls_back_to_column_mean_without_shared_features():
    # target language knows nothing, so no distance is defined to anyone
    m = make_matrix(
        AggregationMode.AVERAGE,
        ["l0011234", "l0021234", "l0031234"],
        ["S_F1", "S_F2"],
        [[1.0, 0.25], [1.0, 0.75], [np.nan, np.nan]],
    )
    out = impute_knn(m, k=1)
    assert out.values[2, 0] == pytest.approx(1.0)
    assert out.values[2, 1] == pytest.approx(0.5)


def _knn_oracle(matrix, k):
    """impute_knn's values from a per-row masked L1 loop and one stable
    argsort per missing cell."""
    values = matrix.values.copy()
    known = ~np.isnan(values)
    col_fill, _ = _column_fill_values(values)
    n = values.shape[0]
    filled = np.where(known, values, 0.0)
    dist = np.full((n, n), np.nan)
    for i in range(n):
        shared = known & known[i]
        counts = shared.sum(axis=1)
        diffs = np.abs(filled - filled[i])
        diffs[~shared] = 0.0
        with np.errstate(invalid="ignore"):
            row = diffs.sum(axis=1) / counts
        row[counts == 0] = np.nan
        dist[i] = row
    np.fill_diagonal(dist, np.nan)

    out = values.copy()
    for f in range(values.shape[1]):
        holders = np.flatnonzero(known[:, f])
        targets = np.flatnonzero(~known[:, f])
        for l in targets:
            cand = holders[~np.isnan(dist[l, holders])]
            if cand.size == 0:
                out[l, f] = col_fill[f]
                continue
            order = np.argsort(dist[l, cand], kind="stable")
            chosen = cand[order[: min(k, cand.size)]]
            out[l, f] = values[chosen, f].mean()
    return _finalize(matrix, out, ImputerSpec("knn", k=k)).values


def _knn_fixtures(n_fixtures=240):
    """Seeded matrices for the oracle: both modes, binary and fractional
    values, k 1-15, missing fractions 0-1, duplicated rows (distance ties)
    and blank rows (no shared feature, so the column-mean fallback)."""
    rng = np.random.default_rng(2024)
    for i in range(n_fixtures):
        mode = (AggregationMode.UNION, AggregationMode.AVERAGE)[i % 2]
        binary = bool((i // 2) % 2)
        n_lang, n_feat = int(rng.integers(2, 30)), int(rng.integers(1, 16))
        missing = float(rng.choice([0.0, 1.0, rng.random()], p=[0.05, 0.05, 0.9]))
        m = random_matrix(rng, n_lang, n_feat, mode, missing_frac=missing, binary=binary)
        values = m.values.copy()
        if rng.random() < 0.5:
            values[rng.integers(0, n_lang, n_lang // 2)] = values[rng.integers(0, n_lang, n_lang // 2)]
        if rng.random() < 0.3:
            values[rng.integers(0, n_lang)] = np.nan
        yield replace(m, values=values), 1 + i % 15


def test_knn_equals_per_cell_oracle_on_random_fixtures():
    checked = 0
    for m, k in _knn_fixtures():
        if np.isnan(m.values).all():
            with pytest.raises(FormatError):
                impute_knn(m, k=k)
            continue
        assert np.array_equal(impute_knn(m, k=k).values, _knn_oracle(m, k))
        checked += 1
    assert checked >= 200


# softimpute -----------------------------------------------------------------------

def test_softimpute_fully_known_is_identity():
    m = random_matrix(np.random.default_rng(1), 5, 4, AggregationMode.AVERAGE, missing_frac=0.0)
    out = impute_softimpute(m, lam=0.1)
    assert np.array_equal(out.values, m.values)
    assert not out.imputed_mask.any()
    assert out.converged


def test_softimpute_recovers_rank1_completion():
    m = make_matrix(
        AggregationMode.AVERAGE,
        ["a0001234", "b0001234"],
        ["S_F1", "S_F2"],
        [[0.25, 0.5], [0.5, np.nan]],
    )
    out = impute_softimpute(m, lam=1e-8, rank_cap=1, tol=1e-12, max_iter=5000)
    assert out.values[1, 1] == pytest.approx(1.0, abs=1e-6)


def test_softimpute_large_lambda_zeroes_missing():
    m = make_matrix(
        AggregationMode.AVERAGE,
        ["a0001234", "b0001234"],
        ["S_F1", "S_F2"],
        [[0.25, 0.5], [0.5, np.nan]],
    )
    probe = np.array([[0.25, 0.5], [0.5, 0.5]])  # column-mean start
    sigma1 = float(np.linalg.svd(probe, compute_uv=False)[0])
    out = impute_softimpute(m, lam=2 * sigma1, rank_cap=2)
    assert out.values[1, 1] == 0.0
    assert out.values[0, 0] == 0.25  # observed untouched


def test_softimpute_objective_monotone_on_random_fixtures():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = random_matrix(rng, 12, 8, AggregationMode.AVERAGE, missing_frac=0.3)
        out = impute_softimpute(m, lam=0.05, tol=1e-8, max_iter=100)
        hist = out.objective_history
        assert len(hist) >= 2
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))


def test_softimpute_nonconvergence_flagged():
    rng = np.random.default_rng(19)
    m = random_matrix(rng, 10, 6, AggregationMode.AVERAGE, missing_frac=0.4)
    out = impute_softimpute(m, lam=0.01, tol=1e-14, max_iter=2)
    assert not out.converged


def test_softimpute_beats_mean_on_low_rank():
    rng = np.random.default_rng(101)
    u = rng.random((30, 3))
    v = rng.random((3, 20))
    full = u @ v
    full = (full - full.min()) / (full.max() - full.min())
    holes = rng.random(full.shape) < 0.2
    values = full.copy()
    values[holes] = np.nan
    m = make_matrix(
        AggregationMode.AVERAGE,
        [f"l{i:03d}1234" for i in range(30)],
        [f"S_F{j:02d}" for j in range(20)],
        values,
    )
    soft = impute_softimpute(m, seed=0)
    mean = impute_mean(m)
    rmse = lambda out: float(np.sqrt(np.mean((out.values[holes] - full[holes]) ** 2)))
    assert rmse(soft) < rmse(mean)


def test_lambda_grid_selection_is_deterministic():
    rng = np.random.default_rng(31)
    m = random_matrix(rng, 15, 10, AggregationMode.AVERAGE, missing_frac=0.2)
    lam1 = select_softimpute_lambda(m, rank_cap=10, seed=4)
    lam2 = select_softimpute_lambda(m, rank_cap=10, seed=4)
    assert lam1 == lam2


# shared contracts -------------------------------------------------------------------

IMPUTERS = [
    ("mean", lambda m: impute_mean(m)),
    ("knn", lambda m: impute_knn(m, k=3)),
    ("softimpute", lambda m: impute_softimpute(m, lam=0.05)),
]


@pytest.mark.parametrize("name,imputer", IMPUTERS)
def test_observed_preserved_and_range(name, imputer):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    for mode in (AggregationMode.UNION, AggregationMode.AVERAGE):
        m = random_matrix(rng, 10, 7, mode, missing_frac=0.35)
        out = imputer(m)
        observed = ~np.isnan(m.values)
        assert np.array_equal(out.values[observed], m.values[observed])
        assert np.array_equal(out.imputed_mask, ~observed)
        assert np.all((out.values >= 0.0) & (out.values <= 1.0))
        if mode is AggregationMode.UNION:
            assert set(np.unique(out.values)) <= {0.0, 1.0}


@pytest.mark.parametrize("name,imputer", IMPUTERS)
def test_imputers_deterministic(name, imputer):
    rng = np.random.default_rng(77)
    m = random_matrix(rng, 9, 6, AggregationMode.AVERAGE, missing_frac=0.3)
    a = imputer(m)
    b = imputer(m.copy())
    assert np.array_equal(a.values, b.values)


# external + orchestration --------------------------------------------------------------

def test_external_imputer_round_trip(tmp_path):
    m = make_matrix(
        AggregationMode.AVERAGE,
        ["a0001234", "b0001234"],
        ["S_F1", "S_F2"],
        [[0.25, np.nan], [0.5, 1.0]],
    )
    dense = np.array([[0.25, 0.75], [0.5, 1.0]])
    path = tmp_path / "external.csv"
    storage.export_matrix_csv(m.languages, m.features, dense, path)
    out = impute_external(m, path)
    assert out.values[0, 1] == 0.75
    assert out.values[0, 0] == 0.25


def test_external_imputer_requires_dense(tmp_path):
    m = make_matrix(
        AggregationMode.AVERAGE, ["a0001234"], ["S_F1", "S_F2"], [[0.25, np.nan]]
    )
    path = tmp_path / "holes.csv"
    storage.export_matrix_csv(m.languages, m.features, m.values, path)
    with pytest.raises(FormatError, match="dense"):
        impute_external(m, path)


def test_run_imputer_counts_dialect_fill_as_imputed():
    m = make_matrix(
        AggregationMode.UNION,
        ["pare1234", "dial1234"],
        ["S_F1", "S_F2"],
        [[1.0, 1.0], [np.nan, np.nan]],
    )
    out = run_imputer(
        m, ImputerSpec("mean"), registry=_family_records(), dialect_fill=True
    )
    assert np.array_equal(out.imputed_mask, np.array([[False, False], [True, True]]))
    # the filled values came from the parent, not the column mean
    assert np.array_equal(out.values[1], [1.0, 1.0])


def test_imputed_matrix_is_an_aggregated_matrix():
    m = random_matrix(np.random.default_rng(5), 6, 4, AggregationMode.UNION)
    out = run_imputer(m, ImputerSpec("mean"))
    assert isinstance(out, ImputedMatrix) and isinstance(out, AggregatedMatrix)
    assert out.provenance == m.provenance
    assert out.language_index(m.languages[3]) == 3
    with pytest.raises(UnknownLanguage):
        out.language_index("zzzz9999")
    assert np.array_equal(out.known_mask, np.ones_like(out.imputed_mask))

    twin = out.copy()
    assert type(twin) is ImputedMatrix
    assert twin.method == out.method
    assert np.array_equal(twin.imputed_mask, out.imputed_mask)
    twin.values[0, 0] = 0.5
    assert out.values[0, 0] != 0.5
