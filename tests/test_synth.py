import numpy as np
import pytest

from scalefit.scaling import FitConfig, Rescale, fit_power_law
from scalefit.synth import (
    SUBSAMPLE_PER_CLASS,
    BenchmarkGenerator,
    CurveGenerator,
    gen_behavior_task,
    gen_benchmark,
    gen_curve_points,
    subsample_counts,
)


class TestCurveGenerator:
    def test_power_closed_form(self):
        g = CurveGenerator(
            form="power",
            true_params={"E": 0.3, "A": 2.0, "alpha": 0.5},
            x_grid=(1.0, 4.0, 100.0),
        )
        pts = gen_curve_points(g)
        assert pts[:, 1] == pytest.approx([2.3, 1.3, 0.5], rel=1e-12)

    def test_shifted_closed_form(self):
        g = CurveGenerator(
            form="shifted",
            true_params={"E": 0.1, "A": 1.0, "alpha": 1.0, "lambda": 1.0},
            x_grid=(90.0,),
        )
        pts = gen_curve_points(g)
        assert pts[0, 1] == pytest.approx(0.1 + 1.0 / 100.0, rel=1e-12)

    def test_joint_closed_form_and_grid(self):
        g = CurveGenerator(
            form="joint",
            true_params={"E": 0.2, "A": 1.0, "alpha": 1.0, "B": 2.0, "beta": 0.5},
            n_grid=(1.0, 10.0),
            d_grid=(4.0, 100.0),
        )
        pts = gen_curve_points(g)
        assert pts.shape == (4, 3)
        row = pts[(pts[:, 0] == 10.0) & (pts[:, 1] == 4.0)][0]
        assert row[2] == pytest.approx(0.2 + 0.1 + 1.0, rel=1e-12)

    def test_seeded_reproducibility(self):
        g = CurveGenerator(
            form="power",
            true_params={"E": 0.3, "A": 1.0, "alpha": 0.2},
            x_grid=tuple(np.logspace(0, 2, 10)),
            noise_sigma_log=0.1,
            seed=5,
        )
        assert np.array_equal(gen_curve_points(g), gen_curve_points(g))
        g2 = CurveGenerator(
            form="power",
            true_params={"E": 0.3, "A": 1.0, "alpha": 0.2},
            x_grid=tuple(np.logspace(0, 2, 10)),
            noise_sigma_log=0.1,
            seed=6,
        )
        assert not np.array_equal(gen_curve_points(g), gen_curve_points(g2))

    def test_noise_is_multiplicative_lognormal(self):
        x = tuple(np.logspace(0, 2, 500))
        base = CurveGenerator(
            form="power", true_params={"E": 0.0, "A": 1.0, "alpha": 0.0}, x_grid=x
        )
        noisy = CurveGenerator(
            form="power", true_params={"E": 0.0, "A": 1.0, "alpha": 0.0},
            x_grid=x, noise_sigma_log=0.1, seed=0,
        )
        ratio = gen_curve_points(noisy)[:, 1] / gen_curve_points(base)[:, 1]
        logr = np.log(ratio)
        assert np.std(logr) == pytest.approx(0.1, abs=0.02)
        assert np.mean(logr) == pytest.approx(0.0, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError, match="form"):
            CurveGenerator(form="cubic")
        with pytest.raises(ValueError, match="noise"):
            CurveGenerator(form="power", noise_sigma_log=-0.1)
        g = CurveGenerator(
            form="power", true_params={"E": 0, "A": 1, "alpha": 1}, x_grid=(0.0, 1.0)
        )
        with pytest.raises(ValueError, match="positive"):
            gen_curve_points(g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("form", ["power", "joint-n", "joint-d"])
    def test_grid_values_positive_and_finite(self, form, bad):
        grids = {"x_grid": (1.0, bad)} if form == "power" else {
            "n_grid": (1.0, bad) if form == "joint-n" else (1.0, 2.0),
            "d_grid": (1.0, bad) if form == "joint-d" else (1.0, 2.0),
        }
        params = {"E": 0.1, "A": 1.0, "alpha": 0.5, "B": 1.0, "beta": 0.5}
        g = CurveGenerator(form=form[:5], true_params=params, **grids)
        with pytest.raises(ValueError, match="^grids must be positive and finite$"):
            gen_curve_points(g)


class TestSubsampleCounts:
    def test_grid(self):
        assert SUBSAMPLE_PER_CLASS == (1, 3, 10, 30, 100, 300)
        counts = subsample_counts(64)
        assert counts.tolist() == [64, 192, 640, 1920, 6400, 19200]


class TestBenchmarkGenerator:
    def test_noiseless_recordings_exactly_linear(self):
        sb = gen_benchmark(BenchmarkGenerator(seed=0))
        assert np.allclose(sb.data.recordings, sb.data.activations @ sb.linear_map)
        assert sb.theoretical_r == 1.0

    def test_theoretical_r_cases(self):
        assert BenchmarkGenerator.sigma_for_pearson(1.0) == 0.0
        s = BenchmarkGenerator.sigma_for_pearson(0.5)
        assert s == pytest.approx(np.sqrt(3.0), rel=1e-12)
        sb = gen_benchmark(BenchmarkGenerator(noise_sigma=s, seed=1))
        assert sb.theoretical_r == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(ValueError):
            BenchmarkGenerator.sigma_for_pearson(0.0)

    def test_unit_norm_map_columns(self):
        sb = gen_benchmark(BenchmarkGenerator(seed=2))
        norms = np.linalg.norm(sb.linear_map, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_empirical_r_matches_theory(self):
        rho = 0.7
        g = BenchmarkGenerator(
            n_stimuli=5000, n_features=6, n_neuroids=4,
            noise_sigma=BenchmarkGenerator.sigma_for_pearson(rho), seed=3,
        )
        sb = gen_benchmark(g)
        ideal = sb.data.activations @ sb.linear_map
        from scalefit.alignment import pearson

        rs = [pearson(ideal[:, j], sb.data.recordings[:, j]) for j in range(4)]
        assert np.mean(rs) == pytest.approx(rho, abs=0.03)

    def test_seeded_reproducibility(self):
        a = gen_benchmark(BenchmarkGenerator(noise_sigma=0.5, seed=4))
        b = gen_benchmark(BenchmarkGenerator(noise_sigma=0.5, seed=4))
        assert np.array_equal(a.data.activations, b.data.activations)
        assert np.array_equal(a.data.recordings, b.data.recordings)

    def test_min_stimuli(self):
        with pytest.raises(ValueError):
            BenchmarkGenerator(n_stimuli=10)


class TestBehaviorTask:
    def test_shapes_and_reproducibility(self):
        Xtr, ytr, Xte, yte, bayes = gen_behavior_task(seed=0)
        assert Xtr.shape == (2160, 8)
        assert Xte.shape == (240, 8)
        assert bayes.shape == (240 * 3,)
        Xtr2, *_ = gen_behavior_task(seed=0)
        assert np.array_equal(Xtr, Xtr2)

    def test_bayes_pattern_is_valid_probability(self):
        *_, bayes = gen_behavior_task(seed=1)
        assert np.all(bayes >= 0) and np.all(bayes <= 1)


class TestOracleRecovery:
    """Monte Carlo check that the fitter recovers generator parameters."""

    def test_median_alpha_unbiased(self):
        cfg = FitConfig(rescale=Rescale(1.0, 1.0, 1.0))
        alphas = []
        for seed in range(50):
            g = CurveGenerator(
                form="power",
                true_params={"E": 0.4, "A": 1.0, "alpha": 0.3},
                x_grid=tuple(np.logspace(-1, 3, 20)),
                noise_sigma_log=0.05,
                seed=seed,
            )
            alphas.append(fit_power_law(gen_curve_points(g), cfg).alpha)
        assert float(np.median(alphas)) == pytest.approx(0.3, abs=0.02)
