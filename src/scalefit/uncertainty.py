"""Bootstrap confidence intervals for curve fits.

Rows are resampled with replacement; each resample index gets its own
random stream derived from the base seed, so reruns produce bit-identical
results. All resample indices are drawn first; the resamples of each
length are then fitted together in one batched BFGS run, or in several
where resamples x starts would pass a row cap; the run's objective
evaluates its rows in blocks of bounded size. A resample's data is the
whole data set's per-point arrays gathered at its indices; the starts of
every resample of a run come from one call, which for joint fits solves
every resample's (E, A, B) in blocks of bounded size; the best start
of every resample of a run is picked in one array pass; and the curve
band is every fit's curve from one `predict` call. Each resample's rows
run exactly the arithmetic a fit of that resample alone would, including
the BFGS line search, which tries the step lengths of many rows, and
several of one row, in one objective call; so the draws and intervals are
the same as fitting the resamples one at a time.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .numerics import _bfgs_rows
from .scaling import (
    _FORMS,
    FitConfig,
    _form,
    _select_best,
    _stacked_objective,
    fit_joint,
    fit_power_law,
    fit_shifted_power_law,
    predict,
)

__all__ = ["BootstrapConfig", "BootstrapResult", "bootstrap_fit"]

# Upper bound on resamples x starts in one batched BFGS run, enough for
# every warm resample of a default 1,000-resample bootstrap; a run always
# holds at least one resample. Its objective evaluates the rows in blocks
# (scaling._CHUNK_ELEMS), so the cap bounds only the optimizer's own
# per-row state.
_RUN_ROWS = 2048


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


def _fit_once(points, fit_kind, fit_cfg, x_kind):
    """The point estimate, from the form's fit_* function.

    The function is looked up by name in this module when called (it is
    one of the fit_* names imported above), so a wrapper installed on the
    module attribute sees the call.
    """
    form = _form(fit_kind, "fit_kind")
    return form.run_fitter(globals()[form.fitter], points, fit_cfg, x_kind)


def _curve_values(fit, grid: np.ndarray) -> np.ndarray:
    """The fitted curve at every grid point: x values, or (n, d) rows for joint."""
    columns = grid.reshape(len(grid), -1).T
    return predict(fit, **dict(zip(_FORMS[fit.form].resources, columns)))[0]


def _curve_band(fits: list, grid: np.ndarray) -> np.ndarray:
    """Every fit's curve at every grid point, shape (fits, points), in one call.

    The fits share one form and one set of scales. Row i is
    `_curve_values(fits[i], grid)` bit for bit: `predict` runs on a fit whose
    parameters are columns holding every fit's value.
    """
    columns = {
        p.field: np.array([getattr(fit, p.field) for fit in fits])[:, None]
        for p in _FORMS[fits[0].form].params
    }
    return _curve_values(replace(fits[0], **columns), grid)


def _fit_resamples(points, draws, fit_kind, cfg: FitConfig, x_kind):
    """Fit every resample `points[idx]` for idx in `draws`, in batched runs.

    Returns one fit per draw, or None where fitting that resample alone
    would raise: it falls short of one of the form's `counts` rules, one of
    its starts is not finite at the initial point, or every start diverges.
    Only resamples of equal length share a run, so no data is padded; all of
    them share one run unless it would exceed _RUN_ROWS rows.

    `points` must pass the form's checks as a whole, as the point estimate's
    do. Their per-point arrays are computed once; a resample's arrays are
    those arrays at its indices, which is what computing them from
    `points[idx]` gives, as every step is elementwise. The counts rules are
    checked for all resamples of a length in one array pass.
    """
    form = _FORMS[fit_kind]
    data = form.data(points, cfg, x_kind)
    resources, _ = form.read(points, x_kind)
    nodes = form.grid(cfg)
    starts = len(nodes)
    per_run = max(1, _RUN_ROWS // starts)
    by_len = {}
    for i, idx in enumerate(draws):
        by_len.setdefault(len(idx), []).append(i)

    fits = [None] * len(draws)
    for n, members in by_len.items():
        index = np.array([draws[i] for i in members])
        short = np.logical_or.reduce(form.count_faults([column[index] for column in resources]))
        members, index = [i for i, s in zip(members, short) if not s], index[~short]
        for c in range(0, len(members), per_run):
            run = members[c : c + per_run]
            stacked = [a[index[c : c + per_run]] for a in data]
            P0, inits = form.starts(stacked, nodes)
            fg = _stacked_objective(form.fg, stacked, starts, cfg.huber.delta)
            X, f, _, conv, _, started = _bfgs_rows(fg, P0, cfg.optimizer)
            best, found = _select_best(X.reshape(len(run), starts, -1), f.reshape(len(run), starts))
            found &= started.reshape(len(run), starts).all(axis=1)
            ok = np.flatnonzero(found)
            r = ok * starts + best[ok]
            built = form.result(X[r], f[r], conv[r], [inits[j][best[j]] for j in ok], cfg, x_kind, n)
            for j, fit in zip(ok.tolist(), built):
                fits[run[j]] = fit
    return fits


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

    The resamples of each length are fitted together, in one batched BFGS
    run of at most _RUN_ROWS rows (resamples x starts) or as few such runs
    as hold them. The draws, the failed resamples and the intervals are
    those of fitting each resample alone with the same `fit_*` call: a
    resample fails, and is left out of the intervals, where that call would
    raise. More than 20% failed resamples raise RuntimeError. The curve
    band evaluates every fit at every `curve_grid` point in one `predict`
    call, equal bit for bit to one call per fit.
    """
    points = np.asarray(points, dtype=float)
    point_fit = _fit_once(points, fit_kind, fit_cfg, x_kind)
    resample_cfg = _warm_cfg(fit_cfg, point_fit) if warm_start else fit_cfg

    n_rows = len(points)
    if cluster_ids is not None:
        cluster_ids = np.asarray(cluster_ids)
        if len(cluster_ids) != n_rows:
            raise ValueError("cluster_ids length must match points")
        nan_rows = np.flatnonzero(cluster_ids != cluster_ids)
        if nan_rows.size:  # np.unique would give NaN an id that matches no row
            raise ValueError(f"cluster_ids must not be NaN; NaN at rows {nan_rows.tolist()}")
        clusters = [np.flatnonzero(cluster_ids == c) for c in np.unique(cluster_ids)]

    resample_idx = []
    for child in np.random.SeedSequence(bs_cfg.seed).spawn(bs_cfg.resamples):
        rng = np.random.default_rng(child)
        if cluster_ids is None:
            resample_idx.append(rng.integers(0, n_rows, size=n_rows))
        else:
            picks = rng.integers(0, len(clusters), size=len(clusters))
            resample_idx.append(np.concatenate([clusters[p] for p in picks]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fits = _fit_resamples(points, resample_idx, fit_kind, resample_cfg, x_kind)
    fits = [fit for fit in fits if fit is not None]

    n_failed = bs_cfg.resamples - len(fits)
    if n_failed > 0.2 * bs_cfg.resamples:
        raise RuntimeError(
            f"{n_failed}/{bs_cfg.resamples} bootstrap refits failed (> 20%)"
        )

    params = _FORMS[point_fit.form].params
    grid = list(bs_cfg.curve_grid)
    draws = np.array([[getattr(fit, p.field) for p in params] for fit in fits])

    lo_q = 100.0 * (1.0 - bs_cfg.ci_level) / 2.0
    hi_q = 100.0 - lo_q
    param_ci = {
        p.name: (
            float(np.percentile(draws[:, j], lo_q)),
            float(np.percentile(draws[:, j], hi_q)),
        )
        for j, p in enumerate(params)
    }
    curve_ci = []
    if grid:
        grid_arr = np.asarray(grid, dtype=float)
        cd = _curve_band(fits, grid_arr)
        lo = np.percentile(cd, lo_q, axis=0)
        hi = np.percentile(cd, hi_q, axis=0)
        curve_ci = [(grid[j], float(lo[j]), float(hi[j])) for j in range(len(grid))]

    return BootstrapResult(
        point_estimate=point_fit,
        param_ci=param_ci,
        curve_ci=curve_ci,
        n_failed_resamples=n_failed,
        resamples=bs_cfg.resamples,
        seed=bs_cfg.seed,
    )
