"""Evaluation kit: held-out imputation quality, k selection, rank
correlation, permutation significance, and coverage reporting.

The quality test masks a fifth of the observed cells, re-imputes them,
and scores the predictions: classification metrics for union matrices,
RMSE/MAE for average ones. All randomness flows from explicit seeds so
reports are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .aggregate import AggregatedMatrix, AggregationMode, aggregate
from .errors import DegenerateInput, FormatError, TooFewObserved
from .impute import ImputerSpec, run_imputer
from .kb import TYPOLOGICAL_CATEGORIES, FeatureTensor, ResourceTier
from .storage import _read_csv_rows


# --- held-out quality test ---------------------------------------------------

MASK_FRACTION = 0.2


@dataclass
class QualityReport:
    mode: AggregationMode
    method_key: str
    masked_count: int
    seed: int
    metrics: dict[str, float]
    per_category: dict[str, dict[str, float]]
    undefined_guards: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "mode": self.mode.value,
            "method": self.method_key,
            "masked_count": self.masked_count,
            "seed": self.seed,
            "metrics": dict(self.metrics),
            "per_category": {k: dict(v) for k, v in self.per_category.items()},
            "undefined_guards": list(self.undefined_guards),
        }


def _union_metrics(truth: np.ndarray, pred: np.ndarray) -> tuple[dict[str, float], list[str]]:
    """Accuracy/precision/recall/F1 with value 1 as the positive class.

    Predictions at exactly 0.5 count as positive, matching the union
    rounding rule. Undefined ratios are reported as 0 and flagged.
    """
    pred_bin = np.where(pred >= 0.5, 1.0, 0.0)
    pos_truth = truth == 1.0
    pos_pred = pred_bin == 1.0
    tp = int(np.sum(pos_truth & pos_pred))
    fp = int(np.sum(~pos_truth & pos_pred))
    fn = int(np.sum(pos_truth & ~pos_pred))
    guards = []

    def ratio(name: str, num, den) -> float:
        if den == 0:
            guards.append(name)
            return 0.0
        return num / den

    accuracy = float(np.mean(pred_bin == truth)) if truth.size else 0.0
    precision = ratio("precision", tp, tp + fp)
    recall = ratio("recall", tp, tp + fn)
    f1 = ratio("f1", 2 * precision * recall, precision + recall)
    return (
        {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1},
        guards,
    )


def _average_metrics(truth: np.ndarray, pred: np.ndarray) -> dict[str, float]:
    err = pred - truth
    return {
        "rmse": float(np.sqrt(np.mean(err**2))),
        "mae": float(np.mean(np.abs(err))),
    }


def _score(mode: AggregationMode, truth, pred) -> tuple[dict[str, float], list[str]]:
    if mode is AggregationMode.UNION:
        return _union_metrics(truth, pred)
    return _average_metrics(truth, pred), []


def draw_mask(matrix: AggregatedMatrix, seed: int) -> np.ndarray:
    """Uniformly sampled 20% of the observed cells, as an (n, 2) index array."""
    observed = np.argwhere(~np.isnan(matrix.values))
    n_observed = len(observed)
    if n_observed < 5:
        raise TooFewObserved(f"need at least 5 observed cells, have {n_observed}")
    masked_count = int(math.floor(MASK_FRACTION * n_observed))
    rng = np.random.default_rng(seed)
    picked = rng.choice(n_observed, size=masked_count, replace=False)
    return observed[np.sort(picked)]


def _mask_cells(matrix: AggregatedMatrix, cells: np.ndarray) -> AggregatedMatrix:
    values = matrix.values.copy()
    values[cells[:, 0], cells[:, 1]] = np.nan
    return replace(matrix, values=values)


def _held_out(matrix: AggregatedMatrix, cells: np.ndarray, spec: ImputerSpec, registry,
              dialect_fill: bool) -> tuple[np.ndarray, np.ndarray]:
    """Impute matrix with cells masked; the cells' true and imputed values."""
    result = run_imputer(_mask_cells(matrix, cells), spec, registry=registry,
                         dialect_fill=dialect_fill and registry is not None)
    at = (cells[:, 0], cells[:, 1])
    return matrix.values[at], result.values[at]


def quality_test(
    matrix: AggregatedMatrix,
    spec: ImputerSpec,
    seed: int = 0,
    registry=None,
    dialect_fill: bool = True,
) -> QualityReport:
    """Mask, impute, and score; dialect fill runs on the masked copy only.

    Masking happens before dialect fill so the imputer never sees the
    held-out truth, though a masked dialect cell may legitimately be
    recovered from its parent language.
    """
    cells = draw_mask(matrix, seed)
    truth, pred = _held_out(matrix, cells, spec, registry, dialect_fill)
    metrics, guards = _score(matrix.mode, truth, pred)

    per_category: dict[str, dict[str, float]] = {}
    cats = np.array([f.category.value for f in matrix.features])
    for cat in dict.fromkeys(cats[cells[:, 1]]):
        in_cat = cats[cells[:, 1]] == cat
        cat_metrics, cat_guards = _score(matrix.mode, truth[in_cat], pred[in_cat])
        cat_metrics["masked_count"] = int(in_cat.sum())
        per_category[cat] = cat_metrics
        guards.extend(f"{cat}:{g}" for g in cat_guards)

    return QualityReport(
        mode=matrix.mode,
        method_key=spec.key,
        masked_count=len(cells),
        seed=seed,
        metrics=metrics,
        per_category=per_category,
        undefined_guards=guards,
    )


_CANDIDATE_KS, _FOLDS = (3, 6, 9, 12, 15), 5  #: knn_select_k's k values and fold count


def knn_select_k(
    matrix: AggregatedMatrix,
    seed: int = 0,
    registry=None,
    dialect_fill: bool = True,
) -> int:
    """Cross-validated k: the masked-cell pool is split into folds, each
    fold held out in turn, and the mode's objective (F1 up / RMSE down)
    averaged across folds. Ties go to the smaller k.
    """
    pool = draw_mask(matrix, seed)
    if len(pool) < _FOLDS:
        raise TooFewObserved(
            f"masked pool of {len(pool)} cells cannot fill {_FOLDS} folds"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    fold_indices = np.array_split(order, _FOLDS)

    maximize = matrix.mode is AggregationMode.UNION
    objective_key = "f1" if maximize else "rmse"
    best_k, best_score = None, None
    for k in _CANDIDATE_KS:
        scores, spec = [], ImputerSpec("knn", k=k)
        for fold in fold_indices:
            truth, pred = _held_out(matrix, pool[fold], spec, registry, dialect_fill)
            scores.append(_score(matrix.mode, truth, pred)[0][objective_key])
        mean_score = float(np.mean(scores))
        better = (
            best_score is None
            or (maximize and mean_score > best_score)
            or (not maximize and mean_score < best_score)
        )
        if better:
            best_k, best_score = k, mean_score
    return best_k


# --- rank correlation ---------------------------------------------------------

@dataclass(frozen=True)
class CorrelationResult:
    tau: float
    n_pairs: int


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Tie-corrected (tau-b) Kendall rank correlation.

    Constant input makes the correlation undefined and raises rather than
    silently returning 0.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D sequences")
    n = xa.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    _require_finite(xa, ya)
    tau = _tau_b(xa, ya)
    if tau is None:
        raise DegenerateInput("rank correlation undefined for constant input")
    return CorrelationResult(tau=tau, n_pairs=n)


#: pair-sign cells per row block of _tau_b, so its memory stays O(n)
_TAU_BLOCK_CELLS = 2**18


def _require_finite(*arrays: np.ndarray) -> None:
    # a NaN pair is neither concordant, discordant nor tied, yet counts in n0
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("scores must be finite")


def _tau_b(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    """tau-b via pair counting: (C - D) / sqrt((n0 - Tx) (n0 - Ty)).

    The pairs i < j are counted in blocks of rows, never as an n x n array.
    """
    n = x.size
    concordant = discordant = ties_x = ties_y = 0
    step = max(1, _TAU_BLOCK_CELLS // n)
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n)
        upper = np.arange(lo, hi)[:, None] < np.arange(lo, n)
        dx = np.sign(x[lo:hi, None] - x[lo:])[upper]
        dy = np.sign(y[lo:hi, None] - y[lo:])[upper]
        prod = dx * dy
        concordant += int(np.count_nonzero(prod > 0))
        discordant += int(np.count_nonzero(prod < 0))
        ties_x += int(np.count_nonzero(dx == 0))
        ties_y += int(np.count_nonzero(dy == 0))
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        return None
    return (concordant - discordant) / denom


# --- permutation significance --------------------------------------------------

@dataclass(frozen=True)
class PermTestResult:
    observed_delta: float
    p_value: float
    iterations: int
    seed: int


#: pair-class cells per column chunk, and swap-mask cells per block of
#: iterations, in perm_both_test, so its memory stays O(n)
_PERM_BLOCK_CELLS = 2**18


def perm_both_test(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    reference: Sequence[float],
    iterations: int = 10000,
    seed: int = 0,
) -> PermTestResult:
    """Paired-swap permutation test on the gap between two rank correlations.

    The observed statistic is |tau(a, ref) - tau(b, ref)|. Each iteration
    swaps a_i and b_i independently with probability 1/2 and recomputes
    the statistic; the p-value uses the add-one estimator
    (1 + #{delta* >= observed}) / (1 + iterations). Iterations whose
    permuted vectors make the correlation undefined are skipped from both
    counts (only possible on tiny degenerate inputs).

    Iterations run in blocks: one block's swap masks are drawn at once,
    from the same stream as one draw per iteration, and every tau's pair
    counts are exact integer sums (see _swap_counts), so the result equals
    a per-iteration loop over _tau_b bit for bit.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if not (a.shape == b.shape == ref.shape) or a.ndim != 1 or a.size < 2:
        raise ValueError("need three equal-length 1-D sequences of length >= 2")
    _require_finite(a, b, ref)
    if iterations < 100:
        raise ValueError("need at least 100 iterations")
    observed = _delta(a, b, ref)
    if observed is None:
        raise DegenerateInput("rank correlation undefined for constant input")

    n = a.size
    n0 = n * (n - 1) // 2
    _, ref_counts = np.unique(ref, return_counts=True)
    ties_ref = int((ref_counts * (ref_counts - 1) // 2).sum())
    rng = np.random.default_rng(seed)
    at_least, valid = 0, 0
    block = max(1, _PERM_BLOCK_CELLS // n)
    for done in range(0, iterations, block):
        swaps = rng.random((min(block, iterations - done), n)) < 0.5
        cd, ties = _swap_counts(a, b, ref, swaps)
        denom = np.sqrt(((n0 - ties) * (n0 - ties_ref)).astype(float))
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = cd / denom  # rows: v = where(swap, b, a), w = where(swap, a, b)
            delta = np.abs(tau[0] - tau[1])
        defined = (denom != 0.0).all(axis=0)
        valid += int(np.count_nonzero(defined))
        at_least += int(np.count_nonzero(delta[defined] >= observed))
    p = (1 + at_least) / (1 + valid) if valid else 1.0
    return PermTestResult(
        observed_delta=observed, p_value=p, iterations=iterations, seed=seed
    )


def _swap_counts(a: np.ndarray, b: np.ndarray, ref: np.ndarray,
                 swaps: np.ndarray) -> np.ndarray:
    """Exact C - D against ref, and tied pairs, of v and of w per swap mask.

    Pair (i, j) of v = where(swap, b, a) compares one of four value pairs,
    by its swap class (sigma_i, sigma_j), sigma = +1 where swapped and -1
    where not: (a_i, a_j), (b_i, b_j), (b_i, a_j) or (a_i, b_j). The pair
    terms f (sign products for C - D, tie indicators for ties), summed over
    ordered pairs, expand to
        4 * sum f = c + sigma . l + sigma^T Q sigma.
    w = where(swap, a, b) is v with every sigma negated, which flips only
    the odd term sigma . l, so one sigma @ Q per column chunk serves both.
    Every term is a small integer, so the float sums are exact. Returns
    C - D and ties as int64 arrays, each with rows v and w.
    """
    n = a.size
    sigma = np.where(swaps, 1.0, -1.0)
    even = np.zeros((2, len(swaps)))  # c + sigma^T Q sigma, of C - D and of ties
    odd = np.zeros((2, len(swaps)))  # sigma . l, likewise
    step = max(1, _PERM_BLOCK_CELLS // n)
    for lo in range(0, n, step):
        cols = slice(lo, min(lo + step, n))
        off_diagonal = np.arange(n)[:, None] != np.arange(n)[cols]
        quad = 0.0
        with np.errstate(over="ignore"):  # a difference may overflow to +-inf
            ref_sign = np.sign(ref[:, None] - ref[cols])
            for x, y, lin_sign, quad_sign in ((a, a, -1, 1), (b, b, 1, 1),
                                              (b, a, -1, -1), (a, b, 1, -1)):
                diff = x[:, None] - y[cols]
                f = np.stack((np.sign(diff) * ref_sign, (diff == 0) & off_diagonal))
                even += f.sum(axis=(1, 2))[:, None]
                odd += 2 * lin_sign * (f.sum(axis=1) @ sigma[:, cols].T)
                quad += quad_sign * f
        even += ((sigma @ quad) * sigma[:, cols]).sum(axis=2)
    # 8 * the counts over pairs i < j, exactly
    return (np.stack((even + odd, even - odd), axis=1) / 8).astype(np.int64)


def _delta(a: np.ndarray, b: np.ndarray, ref: np.ndarray) -> Optional[float]:
    ta = _tau_b(a, ref)
    tb = _tau_b(b, ref)
    if ta is None or tb is None:
        return None
    return abs(ta - tb)


# --- case study ---------------------------------------------------------------

@dataclass
class CaseStudyResult:
    tau_a: float
    tau_b: float
    n_pairs: int
    perm: PermTestResult
    pair_labels: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "tau_a": self.tau_a,
            "tau_b": self.tau_b,
            "perm_both": {
                "observed_delta": self.perm.observed_delta,
                "p_value": self.perm.p_value,
                "iterations": self.perm.iterations,
                "seed": self.perm.seed,
            },
        }


def load_case_study(path) -> tuple[list[str], list[float], list[float], list[float]]:
    """Case-study CSV: pair,dist_a,dist_b,g_d, with finite distances."""
    labels, a, b, ref = [], [], [], []
    for row_num, row in _read_csv_rows(path, ("pair", "dist_a", "dist_b", "g_d")):
        try:
            numbers = [float(cell) for cell in row[1:]]
        except ValueError:
            numbers = [math.nan]
        if not all(map(math.isfinite, numbers)):
            raise FormatError(f"{path}: row {row_num}: distances must be finite numbers")
        labels.append(row[0].strip())
        for column, number in zip((a, b, ref), numbers):
            column.append(number)
    return labels, a, b, ref


def case_study(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    reference: Sequence[float],
    iterations: int = 10000,
    seed: int = 0,
    pair_labels: Optional[list[str]] = None,
) -> CaseStudyResult:
    """Both correlations against the reference plus their Perm-Both p-value."""
    ra = kendall_tau(scores_a, reference)
    rb = kendall_tau(scores_b, reference)
    perm = perm_both_test(scores_a, scores_b, reference, iterations=iterations, seed=seed)
    return CaseStudyResult(
        tau_a=ra.tau,
        tau_b=rb.tau,
        n_pairs=ra.n_pairs,
        perm=perm,
        pair_labels=pair_labels or [],
    )


# --- coverage -------------------------------------------------------------------

@dataclass
class CoverageReport:
    categories: dict[str, dict]
    typological_total: dict
    language_count: int

    def to_json(self) -> dict:
        return {
            "language_count": self.language_count,
            "categories": self.categories,
            "typological_total": self.typological_total,
        }


def coverage_report(tensor: FeatureTensor, tiers=None) -> CoverageReport:
    """Languages with any known data, per feature category and resource tier.

    tiers optionally overrides the registry's tier per glottocode with a
    ResourceTier or its value; any other value raises ValueError. Also
    reports languages eligible for typological distance: those with at
    least one known typological cell.
    """
    tiers = tiers or {}
    matrix = aggregate(tensor, AggregationMode.UNION)
    records = tensor.languages  # read after matrix: registries only grow, so it covers its rows
    known = matrix.known_mask
    feature_categories = [f.category for f in matrix.features]

    tier_names = [t.value for t in ResourceTier]

    def tier_index(rec) -> int:
        tier = tiers.get(rec.glottocode, rec.tier)
        try:
            return tier_names.index(ResourceTier(tier).value)
        except ValueError:
            raise ValueError(
                f"tier override for {rec.glottocode}: {tier!r} is not a resource tier"
            ) from None

    row_tiers = np.array([tier_index(rec) for rec in records[: len(matrix.languages)]],
                         dtype=np.intp)

    def languages_with_data(in_scope) -> dict:
        """Languages with a known cell in a feature whose category is in_scope, by tier."""
        cols = np.array([in_scope(c) for c in feature_categories], dtype=bool)
        rows = known[:, cols].any(axis=1)
        by_tier = np.bincount(row_tiers[rows], minlength=len(tier_names)).tolist()
        return {"total": int(rows.sum()), "by_tier": dict(zip(tier_names, by_tier))}

    categories = {
        cat.value: languages_with_data(lambda c: c is cat)
        for cat in sorted(set(feature_categories), key=lambda c: c.value)
    }
    typological_total = languages_with_data(lambda c: c in TYPOLOGICAL_CATEGORIES)

    return CoverageReport(
        categories=categories,
        typological_total=typological_total,
        language_count=len(matrix.languages),
    )
