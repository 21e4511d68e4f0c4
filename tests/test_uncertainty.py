import warnings
from dataclasses import replace

import numpy as np
import pytest

from scalefit import uncertainty
from scalefit.scaling import (
    _FORMS,
    FitConfig,
    Rescale,
    fit_joint,
    fit_power_law,
    fit_shifted_power_law,
    predict,
)
from scalefit.synth import CurveGenerator, gen_curve_points
from scalefit.uncertainty import (
    BootstrapConfig,
    BootstrapResult,
    _curve_band,
    _fit_resamples,
    _warm_cfg,
    bootstrap_fit,
)

ID_CFG = FitConfig(rescale=Rescale(1.0, 1.0, 1.0))


def noisy_points(sigma=0.05, seed=0, n=25):
    g = CurveGenerator(
        form="power",
        true_params={"E": 0.52, "A": 0.55, "alpha": 0.16},
        x_grid=tuple(np.logspace(-2, 2, n)),
        noise_sigma_log=sigma,
        seed=seed,
    )
    return gen_curve_points(g)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BootstrapConfig(resamples=1)
        with pytest.raises(ValueError):
            BootstrapConfig(ci_level=1.0)

    def test_unknown_fit_kind(self):
        with pytest.raises(ValueError, match="fit_kind"):
            bootstrap_fit(noisy_points(), "quadratic", ID_CFG, BootstrapConfig(resamples=5))


class TestDeterminism:
    def test_bit_identical_reruns(self):
        pts = noisy_points()
        cfg = BootstrapConfig(resamples=30, seed=42, curve_grid=(0.1, 1.0, 10.0))
        r1 = bootstrap_fit(pts, "power", ID_CFG, cfg, warm_start=True)
        r2 = bootstrap_fit(pts, "power", ID_CFG, cfg, warm_start=True)
        assert r1.param_ci == r2.param_ci
        assert r1.curve_ci == r2.curve_ci
        assert r1.n_failed_resamples == r2.n_failed_resamples

    def test_seed_changes_draws(self):
        pts = noisy_points()
        a = bootstrap_fit(pts, "power", ID_CFG, BootstrapConfig(resamples=30, seed=1), warm_start=True)
        b = bootstrap_fit(pts, "power", ID_CFG, BootstrapConfig(resamples=30, seed=2), warm_start=True)
        assert a.param_ci != b.param_ci


class TestIntervals:
    def test_noise_free_ci_collapses(self):
        pts = noisy_points(sigma=0.0)
        res = bootstrap_fit(
            pts, "power", ID_CFG,
            BootstrapConfig(resamples=20, seed=0, curve_grid=(1.0,)),
            warm_start=True,
        )
        for name, (lo, hi) in res.param_ci.items():
            assert hi - lo < 1e-6, name
        x, lo, hi = res.curve_ci[0]
        assert hi - lo < 1e-6

    def test_lo_le_hi_and_containment(self):
        pts = noisy_points(sigma=0.08, seed=3)
        res = bootstrap_fit(
            pts, "power", ID_CFG,
            BootstrapConfig(resamples=60, seed=0, ci_level=0.95),
            warm_start=True,
        )
        assert isinstance(res, BootstrapResult)
        for lo, hi in res.param_ci.values():
            assert lo <= hi
        # true parameters inside the 95% CI for a well-specified model
        assert res.param_ci["E"][0] <= 0.52 <= res.param_ci["E"][1]
        assert res.param_ci["alpha"][0] <= 0.16 <= res.param_ci["alpha"][1]

    def test_wider_ci_level_nests(self):
        pts = noisy_points(sigma=0.08, seed=5)
        lo_cfg = BootstrapConfig(resamples=60, seed=0, ci_level=0.5)
        hi_cfg = BootstrapConfig(resamples=60, seed=0, ci_level=0.95)
        narrow = bootstrap_fit(pts, "power", ID_CFG, lo_cfg, warm_start=True)
        wide = bootstrap_fit(pts, "power", ID_CFG, hi_cfg, warm_start=True)
        for name in narrow.param_ci:
            assert wide.param_ci[name][0] <= narrow.param_ci[name][0]
            assert narrow.param_ci[name][1] <= wide.param_ci[name][1]


class TestFailureHandling:
    def test_too_many_failures_aborts(self):
        # 3 points: most resamples have < 3 distinct X and the refit raises
        pts = np.array([[1.0, 0.9], [10.0, 0.6], [100.0, 0.4]])
        with pytest.raises(RuntimeError, match="bootstrap refits failed"):
            bootstrap_fit(pts, "power", ID_CFG, BootstrapConfig(resamples=50, seed=0))

    def test_failed_count_reported(self):
        pts = noisy_points(n=5)
        res = bootstrap_fit(
            pts, "power", ID_CFG, BootstrapConfig(resamples=40, seed=0), warm_start=True
        )
        assert 0 <= res.n_failed_resamples <= 0.2 * 40


class TestClusters:
    def test_cluster_resampling(self):
        pts = noisy_points(sigma=0.05, seed=7, n=24)
        clusters = np.repeat(np.arange(8), 3)
        res = bootstrap_fit(
            pts, "power", ID_CFG,
            BootstrapConfig(resamples=20, seed=0),
            warm_start=True,
            cluster_ids=clusters,
        )
        assert res.n_failed_resamples == 0
        assert res.param_ci["E"][0] <= res.param_ci["E"][1]

    @pytest.mark.parametrize("dtype", [float, object])
    def test_nan_cluster_ids_rejected(self, dtype):
        # np.unique gives NaN one id that `cluster_ids == nan` matches on no
        # row, so NaN rows would never be resampled.
        clusters = np.repeat(np.arange(8.0), 3).astype(dtype)
        clusters[21:] = np.nan
        with pytest.raises(ValueError, match=r"^cluster_ids must not be NaN; NaN at rows \[21, 22, 23\]$"):
            bootstrap_fit(
                noisy_points(sigma=0.05, seed=7, n=24), "power", ID_CFG,
                BootstrapConfig(resamples=5), warm_start=True, cluster_ids=clusters,
            )

    def test_cluster_length_mismatch(self):
        with pytest.raises(ValueError, match="cluster_ids"):
            bootstrap_fit(
                noisy_points(), "power", ID_CFG,
                BootstrapConfig(resamples=5), cluster_ids=[0, 1],
            )

    @pytest.mark.parametrize("ids", [[0, 1], [np.nan] * 25], ids=["length", "nan"])
    def test_bad_ids_raise_before_the_point_fit(self, monkeypatch, ids):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_power_law(*args, **kwargs)

        monkeypatch.setattr(uncertainty, "fit_power_law", counted)
        with pytest.raises(ValueError, match="cluster_ids"):
            bootstrap_fit(
                noisy_points(), "power", ID_CFG,
                BootstrapConfig(resamples=5), warm_start=True, cluster_ids=ids,
            )
        assert calls == []

    def test_points_not_2d_get_the_shape_message_first(self):
        with pytest.raises(ValueError, match=r"points must have shape \(n, 2\)"):
            bootstrap_fit(np.ones(25), "power", ID_CFG, BootstrapConfig(resamples=5), cluster_ids=[0, 1])


class TestJoint:
    def test_joint_bootstrap(self):
        g = CurveGenerator(
            form="joint",
            true_params={"E": 0.3, "A": 1.0, "alpha": 0.4, "B": 1.5, "beta": 0.3},
            n_grid=tuple(np.logspace(0, 3, 6)),
            d_grid=tuple(np.logspace(0, 3, 6)),
            noise_sigma_log=0.03,
            seed=0,
        )
        pts = gen_curve_points(g)
        res = bootstrap_fit(
            pts, "joint", ID_CFG,
            BootstrapConfig(resamples=10, seed=0, curve_grid=((10.0, 10.0), (100.0, 100.0))),
            warm_start=True,
        )
        assert set(res.param_ci) == {"E", "A", "alpha", "B", "beta"}
        (nd0, lo0, hi0), (nd1, lo1, hi1) = res.curve_ci
        assert lo0 <= hi0 and lo1 <= hi1
        assert lo1 <= hi0  # larger N, D gives smaller misalignment overall


def joint_points():
    g = CurveGenerator(
        form="joint",
        true_params={"E": 0.3, "A": 1.0, "alpha": 0.4, "B": 1.5, "beta": 0.3},
        n_grid=tuple(np.logspace(0, 3, 6)),
        d_grid=tuple(np.logspace(0, 3, 6)),
        noise_sigma_log=0.03,
        seed=0,
    )
    return gen_curve_points(g)


def shifted_points(n=30):
    g = CurveGenerator(
        form="shifted",
        true_params={"E": 0.3, "A": 1.0, "alpha": 0.4, "lambda": 0.5},
        x_grid=tuple(np.logspace(-2, 3, n)),
        noise_sigma_log=0.03,
        seed=1,
    )
    return gen_curve_points(g)


def sparse_joint_clusters():
    """13 joint points in 3 clusters, one per N: a lone point at the least N, then
    N's next two values at every D. Picking one cluster thrice leaves 3 points
    or a single N, so about a ninth of the resamples fail."""
    pts = joint_points()
    N = np.unique(pts[:, 0])
    keep = (pts[:, 0] != N[0]) | (pts[:, 1] == pts[0, 1])
    keep &= pts[:, 0] <= N[2]
    pts = pts[keep]
    return pts, np.searchsorted(N, pts[:, 0])


SPARSE_JOINT, SPARSE_JOINT_CLUSTERS = sparse_joint_clusters()


# 25 rows in clusters of 1 to 5, so resamples differ in length.
UNEQUAL_CLUSTERS = np.repeat(np.arange(8), [1, 2, 3, 4, 5, 4, 3, 3])

FITS = {"power": fit_power_law, "shifted": fit_shifted_power_law, "joint": fit_joint}


# A 2^d-start grid keeps the point-estimate fits of these tests short.
SMALL_CFG = FitConfig(
    grid_e=(-1.0, 0.0),
    grid_a=(0.0, 5.0),
    grid_alpha=(0.5, 1.0),
    grid_lambda=(0.0, 1.0),
    rescale=Rescale(1.0, 1.0, 1.0),
)


def resample_draws(points, bs_cfg, cluster_ids=None):
    """The row indices of each resample, from the streams bootstrap_fit draws them from."""
    n = len(points)
    if cluster_ids is not None:
        clusters = [np.flatnonzero(cluster_ids == c) for c in np.unique(cluster_ids)]
    draws = []
    for child in np.random.SeedSequence(bs_cfg.seed).spawn(bs_cfg.resamples):
        rng = np.random.default_rng(child)
        if cluster_ids is None:
            draws.append(rng.integers(0, n, size=n))
        else:
            picks = rng.integers(0, len(clusters), size=len(clusters))
            draws.append(np.concatenate([clusters[p] for p in picks]))
    return draws


def one_at_a_time(point, points, fit_kind, fit_cfg, bs_cfg, warm_start, cluster_ids=None):
    """(param_ci, n_failed) from one fit_* call per resample, same streams."""
    fit = FITS[fit_kind]
    cfg = _warm_cfg(fit_cfg, point) if warm_start else fit_cfg
    draws, failed = [], 0
    for idx in resample_draws(points, bs_cfg, cluster_ids):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                draws.append(list(fit(points[idx], cfg).params().values()))
        except (ValueError, RuntimeError):
            failed += 1
    draws = np.array(draws)
    lo_q = 100.0 * (1.0 - bs_cfg.ci_level) / 2.0
    ci = {
        name: (float(np.percentile(draws[:, j], lo_q)), float(np.percentile(draws[:, j], 100.0 - lo_q)))
        for j, name in enumerate(point.params())
    }
    return ci, failed


class TestBatchedMatchesOneAtATime:
    """Batched resample fits give the CIs and failures of per-resample fits."""

    @pytest.mark.parametrize(
        "points, fit_kind, fit_cfg, resamples, warm_start, cluster_ids",
        [
            (noisy_points(n=6, seed=2), "power", SMALL_CFG, 60, True, None),
            (noisy_points(n=12, seed=4), "power", ID_CFG, 3, False, None),
            (shifted_points(), "shifted", SMALL_CFG, 40, True, None),
            (joint_points(), "joint", SMALL_CFG, 30, True, None),
            (joint_points(), "joint", ID_CFG, 10, False, None),
            (noisy_points(seed=6), "power", SMALL_CFG, 30, True, UNEQUAL_CLUSTERS),
            # one run of 300 rows, evaluated in blocks of fewer rows
            (noisy_points(n=60, seed=9), "power", SMALL_CFG, 300, True, None),
            # 150 starts per resample: runs of several resamples each
            (noisy_points(n=30, seed=8), "power", ID_CFG, 12, False, None),
            # resamples that fail the count rules: < 3 distinct X; < 5 points or one N
            (shifted_points(n=6), "shifted", SMALL_CFG, 40, True, None),
            (SPARSE_JOINT, "joint", SMALL_CFG, 30, True, SPARSE_JOINT_CLUSTERS),
        ],
        ids=[
            "power-warm", "power-cold", "shifted-warm", "joint-warm", "joint-cold",
            "clusters-unequal", "power-warm-blocks", "power-cold-runs",
            "shifted-warm-failures", "joint-clusters-failures",
        ],
    )
    def test_param_ci_and_failures_identical(
        self, request, points, fit_kind, fit_cfg, resamples, warm_start, cluster_ids
    ):
        bs_cfg = BootstrapConfig(resamples=resamples, seed=11)
        res = bootstrap_fit(
            points, fit_kind, fit_cfg, bs_cfg, warm_start=warm_start, cluster_ids=cluster_ids
        )
        ci, failed = one_at_a_time(
            res.point_estimate, points, fit_kind, fit_cfg, bs_cfg, warm_start, cluster_ids
        )
        assert res.param_ci == ci
        assert res.n_failed_resamples == failed
        if request.node.callspec.id.endswith("-failures"):
            assert failed > 0


# A grid with non-unit scales, so the band divides by them.
SCALED_CFG = replace(SMALL_CFG, rescale=Rescale(10.0, 3.0, 7.0))


class TestCurveBand:
    """Each curve of the band is predict's curve at its draw's parameters, bit for bit."""

    @pytest.mark.parametrize(
        "points, fit_kind, grid",
        [
            (noisy_points(sigma=0.08, seed=3), "power", tuple(np.logspace(-2, 2, 9))),
            (shifted_points(), "shifted", tuple(np.logspace(-2, 3, 11))),
            (joint_points(), "joint", ((1.0, 1.0), (10.0, 30.0), (300.0, 5.0), (1e3, 1e3))),
        ],
        ids=["power", "shifted", "joint"],
    )
    def test_band_is_per_fit_curves(self, points, fit_kind, grid):
        # 100 shifted fits are enough for numpy's vector 10**lambda to differ
        # from Python's in some curve value
        bs_cfg = BootstrapConfig(resamples=100, seed=3, curve_grid=grid)
        res = bootstrap_fit(points, fit_kind, SCALED_CFG, bs_cfg, warm_start=True)
        point = res.point_estimate
        cfg = _warm_cfg(SCALED_CFG, point)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            draws = _fit_resamples(points, resample_draws(points, bs_cfg), fit_kind, cfg, "flops")
        draws = draws[~np.isnan(draws).all(axis=1)]
        form = _FORMS[fit_kind]
        grid_arr = np.asarray(grid, dtype=float)
        resources = dict(zip(form.resources, grid_arr.reshape(len(grid), -1).T))
        curves = np.array([
            predict(replace(point, **{p.field: float(v) for p, v in zip(form.params, row)}), **resources)[0]
            for row in draws
        ])
        assert np.array_equal(_curve_band(point, draws, grid_arr).view(np.uint64), curves.view(np.uint64))
        lo_q = 100.0 * (1.0 - bs_cfg.ci_level) / 2.0
        lo = np.percentile(curves, lo_q, axis=0)
        hi = np.percentile(curves, 100.0 - lo_q, axis=0)
        assert res.curve_ci == [(g, float(a), float(b)) for g, a, b in zip(grid, lo, hi)]

    def test_nan_grid_point_rejected(self):
        bs_cfg = BootstrapConfig(resamples=5, curve_grid=(1.0, np.nan))
        with pytest.raises(ValueError, match="^inputs must be positive$"):
            bootstrap_fit(noisy_points(), "power", ID_CFG, bs_cfg, warm_start=True)

    @pytest.mark.parametrize(
        "fit_kind, grid, message",
        [
            ("power", (0.0,), "^inputs must be positive$"),
            ("power", (1.0, np.nan), "^inputs must be positive$"),
            ("power", ((1.0, 5.0),), "^curve_grid must hold one x value per point$"),
            ("joint", ((10.0, 10.0), (1.0, np.nan)), "^inputs must be positive$"),
            ("joint", (10.0, 100.0), r"^curve_grid must hold one \(n, d\) pair per point$"),
        ],
        ids=["power-zero", "power-nan", "power-pairs", "joint-nan", "joint-numbers"],
    )
    def test_bad_grid_raises_before_the_point_fit(self, monkeypatch, fit_kind, grid, message):
        calls = []
        fitter = FITS[fit_kind]

        def counted(*args, **kwargs):
            calls.append(args)
            return fitter(*args, **kwargs)

        monkeypatch.setattr(uncertainty, fitter.__name__, counted)
        points = noisy_points() if fit_kind == "power" else joint_points()
        with pytest.raises(ValueError, match=message):
            bootstrap_fit(
                points, fit_kind, ID_CFG,
                BootstrapConfig(resamples=1000, curve_grid=grid), warm_start=True,
            )
        assert calls == []


class TestResampleRows:
    """`_fit_resamples` gives each draw's lone fit's parameters, or NaN where that fit raises."""

    @pytest.mark.parametrize(
        "points, fit_kind, resamples, cluster_ids",
        [
            (shifted_points(n=6), "shifted", 40, None),
            (SPARSE_JOINT, "joint", 30, SPARSE_JOINT_CLUSTERS),
        ],
        ids=["shifted-warm-failures", "joint-clusters-failures"],
    )
    def test_nan_rows_are_the_draws_whose_fit_raises(self, points, fit_kind, resamples, cluster_ids):
        fit = FITS[fit_kind]
        cfg = _warm_cfg(SMALL_CFG, fit(points, SMALL_CFG))
        idx = resample_draws(points, BootstrapConfig(resamples=resamples, seed=11), cluster_ids)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            draws = _fit_resamples(points, idx, fit_kind, cfg, "flops")
            wants = []
            for i in idx:
                try:
                    wants.append(list(fit(points[i], cfg).params().values()))
                except (ValueError, RuntimeError):
                    wants.append(None)
        assert draws.shape == (resamples, len(_FORMS[fit_kind].params))
        failed = [want is None for want in wants]
        assert np.isnan(draws).all(axis=1).tolist() == failed
        assert any(failed) and not all(failed)
        for row, want in zip(draws, wants):
            if want is not None:
                assert row.tobytes() == np.array(want).tobytes()
