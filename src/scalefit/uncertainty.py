"""Bootstrap confidence intervals for curve fits.

Rows, or whole clusters of rows, are resampled with replacement, drawn in
one call from one generator seeded with the base seed: an (R, n) matrix of
row indices, or (R, clusters) of cluster picks. So reruns are bit-identical,
and the first R resamples do not depend on how many are drawn. Each is
refitted (`scaling._fit_resamples`) with the point estimate's fit, from the
same start grid or, warm, from the point estimate. The resamples yield one
(R, d) matrix of the fitted parameters, in the form's `params` order; the
intervals are percentiles of its columns, and the curve band percentiles
of every row's curve at each grid point. The draws, failures and intervals
are those of fitting each resample alone.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .scaling import (
    _FORMS,
    FitConfig,
    _fit_resamples,
    _form,
    fit_joint,
    fit_power_law,
    fit_shifted_power_law,
    predict,
)

__all__ = ["BootstrapConfig", "BootstrapResult", "bootstrap_fit"]


@dataclass(frozen=True)
class BootstrapConfig:
    resamples: int = 1000
    ci_level: float = 0.95
    seed: int = 0
    curve_grid: tuple = ()

    def __post_init__(self):
        if self.resamples < 2:
            raise ValueError("resamples must be >= 2")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")


@dataclass
class BootstrapResult:
    point_estimate: object
    param_ci: dict
    curve_ci: list  # (x, lo_L, hi_L) or ((n, d), lo_L, hi_L) tuples
    n_failed_resamples: int
    resamples: int = 0
    seed: int = 0


def _fit_once(points, form, fit_cfg, x_kind):
    """The point estimate, from the form's fit_* function.

    The function is looked up by name in this module when called (it is
    one of the fit_* names imported above), so a wrapper installed on the
    module attribute sees the call.
    """
    return form.run_fitter(globals()[form.fitter], points, fit_cfg, x_kind)


def _curve_band(point_fit, draws: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Every draw's curve at every grid point, shape (draws, points), in one
    `predict` call: the grid holds x values, or (n, d) rows for joint.

    Row i is the curve of `point_fit` with its parameters set to row i of
    `draws` (in `params` order), bit for bit: `predict` runs on the point
    fit with each parameter replaced by a column of every draw's value.
    """
    form = _FORMS[point_fit.form]
    columns = {p.field: draws[:, j, None] for j, p in enumerate(form.params)}
    resources = dict(zip(form.resources, grid.reshape(len(grid), -1).T))
    return predict(replace(point_fit, **columns), **resources)[0]


def _band_grid(curve_grid, form) -> np.ndarray:
    """`curve_grid` as an array, one x per point (m,) or one (n, d) pair per
    point (m, 2) for joint; a ValueError, before any fit runs, if not."""
    grid = np.asarray(curve_grid, dtype=float)
    shape = (len(grid),) if form.x_axis else (len(grid), len(form.resources))
    if grid.shape != shape:
        what = "x value" if form.x_axis else f"({', '.join(form.resources)}) pair"
        raise ValueError(f"curve_grid must hold one {what} per point")
    if np.any(~(grid > 0)):
        raise ValueError("inputs must be positive")
    return grid


def _warm_cfg(fit_cfg: FitConfig, fit) -> FitConfig:
    """Single-node start grid at the point estimate.

    A joint fit's node is the estimate's (alpha, beta); each resample
    solves its own (E, A, B) there.
    """
    starts = {}
    for p in _FORMS[fit.form].params:
        value = getattr(fit, p.field)
        starts[p.grid] = (float(np.log(max(value, 1e-300))) if p.log else value,)
    return replace(fit_cfg, **starts)


def bootstrap_fit(
    points,
    fit_kind: str,
    fit_cfg: FitConfig = FitConfig(),
    bs_cfg: BootstrapConfig = BootstrapConfig(),
    x_kind: str = "flops",
    warm_start: bool = False,
    cluster_ids=None,
) -> BootstrapResult:
    """Percentile bootstrap of a curve fit's parameters and predictions.

    With `cluster_ids`, whole clusters of rows are resampled instead of
    individual rows. `warm_start` refits each resample from the point
    estimate only (for joint fits, from its exponents) instead of the full
    start grid.

    The draws, the failed resamples and the intervals are those of fitting
    each resample alone with the same `fit_*` call: a resample fails, and
    is left out of the intervals, where that call would raise. More than
    20% failed resamples raise RuntimeError. The curve band evaluates every
    resample's parameters at every `curve_grid` point in one `predict`
    call, equal bit for bit to one call per resample fit.

    `cluster_ids` are checked before the point estimate is fitted, unless
    `points` is not 2-d, which the point fit rejects first; `curve_grid`
    (`_band_grid`) is checked after them, also before the point fit.
    """
    points = np.asarray(points, dtype=float)
    form = _form(fit_kind, "fit_kind")
    if cluster_ids is not None and points.ndim == 2:  # other points fail the point fit first
        cluster_ids = np.asarray(cluster_ids)
        if len(cluster_ids) != len(points):
            raise ValueError("cluster_ids length must match points")
        nan_rows = np.flatnonzero(cluster_ids != cluster_ids)
        if nan_rows.size:  # np.unique would give NaN an id that matches no row
            raise ValueError(f"cluster_ids must not be NaN; NaN at rows {nan_rows.tolist()}")
        clusters = [np.flatnonzero(cluster_ids == c) for c in np.unique(cluster_ids)]
    grid = list(bs_cfg.curve_grid)
    band_grid = _band_grid(grid, form) if grid else None
    point_fit = _fit_once(points, form, fit_cfg, x_kind)
    resample_cfg = _warm_cfg(fit_cfg, point_fit) if warm_start else fit_cfg

    units = len(points) if cluster_ids is None else len(clusters)  # rows or clusters, drawn alike
    picks = np.random.default_rng(bs_cfg.seed).integers(0, units, size=(bs_cfg.resamples, units))
    if cluster_ids is not None:  # each resample's rows are those of its picked clusters
        picks = [np.concatenate([clusters[p] for p in row]) for row in picks]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        draws = _fit_resamples(points, picks, fit_kind, resample_cfg, x_kind)
    draws = draws[~np.isnan(draws).all(axis=1)]

    n_failed = bs_cfg.resamples - len(draws)
    if n_failed > 0.2 * bs_cfg.resamples:
        raise RuntimeError(
            f"{n_failed}/{bs_cfg.resamples} bootstrap refits failed (> 20%)"
        )

    q = 100.0 * (1.0 - bs_cfg.ci_level) / 2.0
    lo, hi = np.percentile(draws, [q, 100.0 - q], axis=0)
    param_ci = {p.name: (float(lo[j]), float(hi[j])) for j, p in enumerate(form.params)}
    curve_ci = []
    if grid:
        band = _curve_band(point_fit, draws, band_grid)
        lo, hi = np.percentile(band, [q, 100.0 - q], axis=0)
        curve_ci = [(g, float(a), float(b)) for g, a, b in zip(grid, lo, hi)]

    return BootstrapResult(
        point_estimate=point_fit,
        param_ci=param_ci,
        curve_ci=curve_ci,
        n_failed_resamples=n_failed,
        resamples=bs_cfg.resamples,
        seed=bs_cfg.seed,
    )
