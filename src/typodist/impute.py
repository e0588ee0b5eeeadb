"""Missing-value imputation over aggregated matrices.

Three built-in imputers (column mean, masked-distance k-NN, iterative
soft-thresholded SVD) plus dialect fill from parent languages and a slot
for externally imputed matrices. Every imputer restores originally
observed cells bit-exactly and binarizes imputed values for union-mode
matrices (threshold 0.5, ties round up).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from .aggregate import AggregatedMatrix, AggregationMode, _masked_gram
from .errors import FormatError
from .kb import FeatureTensor, LanguageRecord, ancestors
from . import storage

LAMBDA_GRID_SCALES = (0.1, 0.5, 1.0, 2.0, 5.0)

#: kNN fill scans a language's ranked neighbours this many at first, then
#: four times as many at each step, until every missing cell has k holders
_KNN_FIRST_WINDOW = 32

IMPUTER_METHODS = ("mean", "knn", "softimpute", "external")


@dataclass(frozen=True)
class ImputerSpec:
    """Which imputer to run and with what parameters; the one place that
    checks them.

    lam=None and rank_cap=None mean "pick at run time": a small grid on a
    held-out validation mask for lam, min(dims, 100) for rank_cap.
    """

    method: str  # one of IMPUTER_METHODS
    k: int = 9
    lam: Optional[float] = None
    rank_cap: Optional[int] = None
    tol: float = 1e-4
    max_iter: int = 200
    seed: int = 0
    external_path: Optional[str] = None

    def __post_init__(self):
        if self.method not in IMPUTER_METHODS:
            raise ValueError(f"unknown imputation method {self.method!r}")
        if self.method == "knn" and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.method == "external" and not self.external_path:
            raise ValueError("external imputer needs external_path")
        if self.lam is not None and not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be a finite non-negative number")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be a finite positive number")
        if self.method == "softimpute" and self.rank_cap is not None and self.rank_cap < 1:
            raise ValueError("rank_cap must be >= 1")
        # a spec keys the matrix cache: hash its fields once, not on every lookup
        object.__setattr__(self, "_hash", hash(astuple(self)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # pickled as its fields, so the kept hash is taken again: a str's
        # hash differs between processes
        return type(self), astuple(self)

    @property
    def key(self) -> str:
        """Stable label used to match cached quality-test runs."""
        if self.method == "external":
            return f"external:{self.external_path}"
        return self.method


@dataclass
class ImputedMatrix(AggregatedMatrix):
    """A fully known aggregated matrix, the mask of cells that were filled,
    and the imputer's diagnostics."""

    imputed_mask: np.ndarray
    method: ImputerSpec
    converged: bool = True
    objective_history: list[float] = field(default_factory=list)
    all_missing_columns: list[str] = field(default_factory=list)

    def copy(self) -> "ImputedMatrix":
        return replace(
            super().copy(),
            imputed_mask=self.imputed_mask.copy(),
            objective_history=list(self.objective_history),
            all_missing_columns=list(self.all_missing_columns),
        )


def _language_records(registry) -> Mapping[str, LanguageRecord]:
    if isinstance(registry, FeatureTensor):
        return registry.language_map
    return registry


def fill_dialects(matrix: AggregatedMatrix, registry) -> AggregatedMatrix:
    """Copy each language's missing cells from the nearest ancestor that has them.

    registry is a FeatureTensor or a glottocode -> LanguageRecord mapping;
    ancestors outside the matrix rows are skipped. Observed cells are
    never touched.
    """
    records = _language_records(registry)
    original = matrix.values
    values = original.copy()
    row_of = {g: i for i, g in enumerate(matrix.languages)}
    for i, glottocode in enumerate(matrix.languages):
        for ancestor in ancestors(records, glottocode):
            a = row_of.get(ancestor)
            if a is None:
                continue
            fillable = np.isnan(values[i]) & ~np.isnan(original[a])
            if fillable.any():
                values[i, fillable] = original[a, fillable]
            if not np.isnan(values[i]).any():
                break
    return replace(matrix, values=values)


def _column_fill_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column means over known cells; all-missing columns get the global mean."""
    known = ~np.isnan(values)
    if not known.any():
        raise FormatError("matrix has no observed cells to impute from")
    col_known = known.sum(axis=0)
    sums = np.where(known, values, 0.0).sum(axis=0)
    fill = np.full(values.shape[1], np.nan)
    has = col_known > 0
    fill[has] = sums[has] / col_known[has]
    global_mean = values[known].mean()
    fill[~has] = global_mean
    return fill, ~has


def _finalize(
    original: AggregatedMatrix,
    filled: np.ndarray,
    spec: ImputerSpec,
    converged: bool = True,
    objective_history: Optional[list[float]] = None,
    all_missing_columns: Optional[list[str]] = None,
) -> ImputedMatrix:
    mask = np.isnan(original.values)
    values = filled.copy()
    values[~mask] = original.values[~mask]
    values[mask] = np.clip(values[mask], 0.0, 1.0)
    if original.mode is AggregationMode.UNION:
        values[mask] = np.where(values[mask] >= 0.5, 1.0, 0.0)
    if np.isnan(values).any():
        raise FormatError("imputer left missing cells behind")
    return ImputedMatrix(
        mode=original.mode,
        languages=list(original.languages),
        features=list(original.features),
        values=values,
        provenance=original.provenance,
        imputed_mask=mask,
        method=spec,
        converged=converged,
        objective_history=objective_history or [],
        all_missing_columns=all_missing_columns or [],
    )


def impute_mean(matrix: AggregatedMatrix) -> ImputedMatrix:
    """Column-mean baseline."""
    values = matrix.values.copy()
    fill, all_missing = _column_fill_values(values)
    missing = np.isnan(values)
    values[missing] = np.broadcast_to(fill, values.shape)[missing]
    names = [matrix.features[j].name for j in np.flatnonzero(all_missing)]
    return _finalize(matrix, values, ImputerSpec("mean"), all_missing_columns=names)


def _masked_l1_distances(values: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Pairwise mean absolute difference over mutually known features.

    Entries with no shared feature are NaN; the diagonal is NaN so a
    language never neighbors itself. When every known value is 0 or 1, as
    in every union matrix, the sums are matrix products: on shared cells
    |x - y| = x + y - 2xy, and each product sums small integers exactly,
    so the result equals _masked_l1_rows bit for bit.
    """
    if not np.isin(values[known], (0.0, 1.0)).all():
        return _masked_l1_rows(values, known)
    # on 0 and 1, x² = x; a -0.0 in X0 X0ᵀ leaves each sum's bytes as they are
    counts, one_known, both_one = _masked_gram(values)
    sums = one_known + one_known.T - 2 * both_one
    with np.errstate(invalid="ignore"):
        dist = sums / counts
    dist[counts == 0] = np.nan  # 0/0 may set the sign bit; np.nan does not
    np.fill_diagonal(dist, np.nan)
    return dist


def _masked_l1_rows(values: np.ndarray, known: np.ndarray) -> np.ndarray:
    """_masked_l1_distances one row at a time, for any finite values."""
    n = values.shape[0]
    filled = np.where(known, values, 0.0)
    dist = np.full((n, n), np.nan)
    for i in range(n):
        shared = known & known[i]
        counts = shared.sum(axis=1)
        diffs = np.abs(filled - filled[i])
        diffs *= shared  # exact: the diffs are finite
        with np.errstate(invalid="ignore"):
            row = diffs.sum(axis=1) / counts
        row[counts == 0] = np.nan
        dist[i] = row
    np.fill_diagonal(dist, np.nan)
    return dist


def impute_knn(matrix: AggregatedMatrix, k: int = 9) -> ImputedMatrix:
    """k nearest neighbors under the masked mean-absolute-difference metric.

    Neighbors for cell (l, f) are languages with f known and at least one
    feature shared with l, nearest first, ties in row order; fewer than k
    candidates means all of them are used, and no candidate at all falls
    back to the column mean. Each language's neighbors are sorted once and
    scanned only as far as its cells' k-th holders, and every cell's chosen
    values are averaged in that order, so the result equals a per-cell
    argsort and mean bit for bit.
    """
    spec = ImputerSpec("knn", k=k)
    values = matrix.values
    known = ~np.isnan(values)
    col_fill, all_missing = _column_fill_values(values)
    dist = _masked_l1_distances(values, known)
    # a stable sort puts NaN (no shared feature, or self) last
    order = np.argsort(dist, axis=1, kind="stable")
    n_near = (~np.isnan(dist)).sum(axis=1)

    out = values.copy()
    known_by_feature = np.ascontiguousarray(known.T)
    for l in np.flatnonzero(~known.all(axis=1)):
        near = order[l, : n_near[l]]
        miss = np.flatnonzero(~known[l])
        cell, pos, counts = _first_holders(known_by_feature, miss, near, k)
        picked = values[near[pos], miss[cell]]
        starts = np.cumsum(counts) - counts
        fill = col_fill[miss]
        for c in np.unique(counts[counts > 0]):
            sel = counts == c
            # one C-contiguous row per cell, so each mean sums like a 1-D mean
            fill[sel] = picked[starts[sel][:, None] + np.arange(c)].mean(axis=1)
        out[l, miss] = fill
    names = [matrix.features[j].name for j in np.flatnonzero(all_missing)]
    return _finalize(matrix, out, spec, all_missing_columns=names)


def _first_holders(known_by_feature: np.ndarray, miss: np.ndarray, near: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the first k holders of each missing feature miss[j] sit in
    near, the ranked neighbours: (cell, pos) pairs, grouped by cell (j) and
    nearest first, and each cell's number of them. near is scanned in
    growing windows, and a cell leaves the scan at its k-th holder."""
    counts = np.zeros(len(miss), np.int64)
    pending = np.arange(len(miss))
    cells, positions = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    lo, width = 0, _KNN_FIRST_WINDOW
    while pending.size and lo < len(near):
        # take[j, i]: near[lo + i] is among the first k holders of miss[pending[j]]
        held = known_by_feature[np.ix_(miss[pending], near[lo:lo + width])]
        want = (k - counts[pending])[:, None]
        take = held & (np.cumsum(held, axis=1, dtype=np.int32) <= want)
        cell, pos = np.nonzero(take)
        cells.append(pending[cell])
        positions.append(pos + lo)
        counts[pending] += take.sum(axis=1)
        pending = pending[counts[pending] < k]
        lo, width = lo + width, 4 * width
    cell, pos = np.concatenate(cells), np.concatenate(positions)
    by_cell = np.argsort(cell, kind="stable")  # windows come in order, so pos stays ascending
    return cell[by_cell], pos[by_cell], counts


def _soft_svd(filled: np.ndarray, lam: float, rank_cap: int) -> tuple[np.ndarray, float]:
    """Rank-capped reconstruction with singular values soft-thresholded by lam.

    Works from the eigenpairs of the Gram matrix of the short side (AᵀA for
    a tall A): with s = sqrt(w), the reconstruction is (A V) diag(thr/s) Vᵀ
    over the components whose thresholded value thr = s - lam is positive.
    """
    a = filled if filled.shape[0] >= filled.shape[1] else filled.T
    w, v = np.linalg.eigh(a.T @ a)
    w, v = w[::-1][:rank_cap], v[:, ::-1][:, :rank_cap]
    s = np.sqrt(np.maximum(w, 0.0))
    thr = np.maximum(s - lam, 0.0)
    keep = thr > 0
    v = v[:, keep]
    recon = ((a @ v) * (thr[keep] / s[keep])) @ v.T
    return (recon if a is filled else recon.T), float(thr.sum())


def impute_softimpute(
    matrix: AggregatedMatrix,
    lam: Optional[float] = None,
    rank_cap: Optional[int] = None,
    tol: float = 1e-4,
    max_iter: int = 200,
    seed: int = 0,
    *,
    start: Optional[np.ndarray] = None,
) -> ImputedMatrix:
    """Iterative soft-thresholded SVD completion.

    Starting from start's values in the missing cells (column means when
    start is None), alternate between a rank-capped SVD of the current
    matrix (observed entries always restored), shrinking the singular
    values by lam, and writing the reconstruction back into the missing
    positions only. Stops when the relative change of the filled matrix
    drops below tol; hitting max_iter flags non-convergence but still
    returns the result. The tracked objective is the squared error on
    observed entries plus lam times the nuclear norm.

    With lam=None, select_softimpute_lambda picks lam on a regularisation
    path, and the winning grid point's completed matrix is the start of
    this full-data fit, so a start needs an explicit lam.
    """
    spec = ImputerSpec("softimpute", lam=lam, rank_cap=rank_cap, tol=tol, max_iter=max_iter,
                       seed=seed)
    if lam is None and start is not None:
        raise ValueError("start needs an explicit lam")
    values = matrix.values
    missing = np.isnan(values)
    if not missing.any():
        return _finalize(matrix, values.copy(), spec)

    if rank_cap is None:
        rank_cap = min(min(values.shape), 100)
    if lam is None:
        lam, start = select_softimpute_lambda(matrix, rank_cap=rank_cap, tol=tol,
                                              max_iter=max_iter, seed=seed)

    fill = values.copy()
    if start is None:
        col_fill, _ = _column_fill_values(values)
        fill[missing] = np.broadcast_to(col_fill, values.shape)[missing]
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != values.shape or not np.isfinite(start[missing]).all():
            raise ValueError("start must be a finite matrix of the same shape")
        fill[missing] = start[missing]

    # flat indices, taken once: np.where over the scattered 2-D mask would
    # mispredict a branch per cell in every iteration
    observed_at, missing_at = np.flatnonzero(~missing), np.flatnonzero(missing)
    observed_values, base = values.ravel()[observed_at], values.copy()
    resid = np.zeros(values.size)  # stays zero on every missing cell
    history: list[float] = []
    converged = False
    for _ in range(max_iter):
        recon, nuclear = _soft_svd(fill, lam, rank_cap)
        flat = recon.ravel()
        resid[observed_at] = observed_values - flat[observed_at]
        history.append(0.5 * float(np.vdot(resid, resid)) + lam * nuclear)
        new_fill = base.copy()
        new_fill.ravel()[missing_at] = flat[missing_at]
        denom = max(float(np.linalg.norm(fill)), 1e-12)
        delta = float(np.linalg.norm(new_fill - fill)) / denom
        fill = new_fill
        if delta < tol:
            converged = True
            break
    return _finalize(matrix, fill, spec, converged=converged, objective_history=history)


def select_softimpute_lambda(
    matrix: AggregatedMatrix,
    rank_cap: int,
    tol: float = 1e-4,
    max_iter: int = 200,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Pick lam from a small grid scaled by the top singular value.

    A tenth of the observed cells are held out as a validation mask, and
    the grid is solved as one regularisation path (Mazumder, Hastie and
    Tibshirani 2010, section 5): from the largest lam to the smallest,
    each solve starting from the previous solve's completed matrix. The
    walk stops at the first grid value whose validation RMSE (before any
    binarization) is above the lowest so far, leaving the smaller lams
    unsolved; an equal RMSE walks on, so ties go to the smaller lam. The
    lowest RMSE wins. Returns (lam, the winning solve's completed values).
    """
    values = matrix.values
    observed = np.argwhere(~np.isnan(values))
    if len(observed) < 2:
        raise FormatError("too few observed cells to select lambda")
    rng = np.random.default_rng(seed)
    n_val = max(1, len(observed) // 10)
    picked = observed[rng.choice(len(observed), size=n_val, replace=False)]

    masked = values.copy()
    truth = values[picked[:, 0], picked[:, 1]]
    masked[picked[:, 0], picked[:, 1]] = np.nan
    # average mode keeps the predictions continuous for RMSE
    work = replace(matrix, mode=AggregationMode.AVERAGE, values=masked)
    col_fill, _ = _column_fill_values(masked)
    probe = masked.copy()
    probe[np.isnan(masked)] = np.broadcast_to(col_fill, masked.shape)[np.isnan(masked)]
    sigma1 = float(np.linalg.svd(probe, compute_uv=False)[0])

    best_lam, best_rmse, best_values, start = None, np.inf, None, None
    for scale in reversed(LAMBDA_GRID_SCALES):
        lam = scale * sigma1 / 100.0
        result = impute_softimpute(
            work, lam=lam, rank_cap=rank_cap, tol=tol, max_iter=max_iter, seed=seed,
            start=start,
        )
        start = result.values
        pred = result.values[picked[:, 0], picked[:, 1]]
        rmse = float(np.sqrt(np.mean((pred - truth) ** 2)))
        if rmse > best_rmse:  # past the turn of the validation error
            break
        best_lam, best_rmse, best_values = lam, rmse, result.values
    return best_lam, best_values


def impute_external(matrix: AggregatedMatrix, path) -> ImputedMatrix:
    """Adopt a pre-imputed dense matrix produced by an external tool.

    The exchange file must cover the exact language/feature grid with no
    missing cells; observed entries still come from the source matrix.
    """
    spec = ImputerSpec("external", external_path=str(path))
    names = [f.name for f in matrix.features]
    dense = storage.load_matrix_values(path, matrix.languages, names)
    if np.isnan(dense).any():
        raise FormatError(f"{path}: external imputation file must be fully dense")
    return _finalize(matrix, dense, spec)


def run_imputer(
    matrix: AggregatedMatrix,
    spec: ImputerSpec,
    registry=None,
    dialect_fill: bool = False,
) -> ImputedMatrix:
    """Optional dialect fill, then the requested imputer.

    The result's method is spec, and its imputed mask is relative to the
    matrix passed in, so dialect-filled cells count as imputed, not observed.
    """
    source = matrix
    if dialect_fill:
        if registry is None:
            raise ValueError("dialect_fill requires a registry of language records")
        matrix = fill_dialects(matrix, registry)

    if spec.method == "mean":
        result = impute_mean(matrix)
    elif spec.method == "knn":
        result = impute_knn(matrix, k=spec.k)
    elif spec.method == "softimpute":
        # called by its module name, where tracers observe each solve
        result = impute_softimpute(matrix, lam=spec.lam, rank_cap=spec.rank_cap, tol=spec.tol,
                                   max_iter=spec.max_iter, seed=spec.seed)
    else:
        result = impute_external(matrix, spec.external_path)
    return replace(result, method=spec, imputed_mask=np.isnan(source.values))
