import itertools
import warnings

import numpy as np
import pytest

from scalefit import scaling
from scalefit.numerics import HuberParams, check_gradient
from scalefit.scaling import (
    DEGENERATE_EPS,
    FitConfig,
    JointFit,
    PowerLawFit,
    Rescale,
    ShiftedPowerLawFit,
    _COEF_FLOOR,
    _FORMS,
    _joint_project,
    _power_fg,
    _power_objective,
    _select_best,
    _shifted_fg,
    _stacked_objective,
    fit_joint,
    fit_power_law,
    fit_shifted_power_law,
    predict,
    region_gain,
)
from scalefit.synth import CurveGenerator, gen_curve_points

ID_CFG = FitConfig(rescale=Rescale(1.0, 1.0, 1.0))


def power_points(E, A, alpha, x_lo=-2, x_hi=2, n=30, sigma=0.0, seed=0):
    g = CurveGenerator(
        form="power",
        true_params={"E": E, "A": A, "alpha": alpha},
        x_grid=tuple(np.logspace(x_lo, x_hi, n)),
        noise_sigma_log=sigma,
        seed=seed,
    )
    return gen_curve_points(g)


GRIDS = ["grid_e", "grid_a", "grid_alpha", "grid_lambda", "grid_b", "grid_beta"]


class TestFitConfig:
    @pytest.mark.parametrize(
        "name, grid, message",
        [pytest.param(name, (), f"^{name} must be nonempty$", id=name) for name in GRIDS]
        + [
            pytest.param("grid_alpha", (np.nan,), "^grid_alpha values must be finite, got nan$", id="alpha-nan"),
            pytest.param("grid_e", (0.0, np.inf), "^grid_e values must be finite, got inf$", id="e-inf"),
            pytest.param("grid_beta", (np.nan,), "^grid_beta values must be finite, got nan$", id="beta-nan"),
            pytest.param("grid_b", (-np.inf,), "^grid_b values must be finite, got -inf$", id="b-minus-inf"),
        ],
    )
    def test_empty_grid_rejected(self, name, grid, message):
        with pytest.raises(ValueError, match=message):
            FitConfig(**{name: grid})


class TestRescale:
    @pytest.mark.parametrize("name", ["c_scale", "n_scale", "d_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_factor_outside_open_interval_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            Rescale(**{name: value})

    def test_positive_finite_factors_accepted(self):
        assert Rescale(1e-300, 1.0, 1e300).factor("samples") == 1e300


class TestPointChecks:
    """Every form checks its points in one order: shape, then x_kind (forms in
    one resource x only), then values, then the counts rules."""

    SHAPE = {
        "power": r"^points must have shape \(n, 2\) of \(X, L\)$",
        "shifted": r"^points must have shape \(n, 2\) of \(X, L\)$",
        "joint": r"^points must have shape \(n, 3\) of \(N, D, L\)$",
    }

    def points(self, kind):
        if kind == "joint":
            return TestFitJoint().joint_points()
        return power_points(0.3, 0.5, 0.2, n=8)

    @pytest.mark.parametrize("kind", sorted(SHAPE))
    @pytest.mark.parametrize("shape", ["flat", "fewer columns", "more columns", "3-d"])
    def test_shape_message(self, kind, shape):
        pts = self.points(kind)
        bad = {
            "flat": pts[:, 0],
            "fewer columns": pts[:, :-1],
            "more columns": np.column_stack([pts, pts[:, -1]]),
            "3-d": pts[None],
        }[shape]
        with pytest.raises(ValueError, match=self.SHAPE[kind]):
            _FORMS[kind].data(bad, ID_CFG, "flops")

    @pytest.mark.parametrize("fit", [fit_power_law, fit_shifted_power_law])
    def test_unknown_x_kind(self, fit):
        with pytest.raises(ValueError, match=r"^unknown x_kind 'tokens'$"):
            fit(self.points("power"), ID_CFG, x_kind="tokens")

    def test_joint_ignores_x_kind(self):
        pts = self.points("joint")
        want = _FORMS["joint"].data(pts, ID_CFG, "flops")
        for x_kind in ("tokens", "params", ""):
            got = _FORMS["joint"].data(pts, ID_CFG, x_kind)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    @pytest.mark.parametrize("kind", sorted(SHAPE))
    def test_shape_before_x_kind_and_values(self, kind):
        pts = self.points(kind)
        pts[2, 0] = np.nan
        with pytest.raises(ValueError, match=self.SHAPE[kind]):
            _FORMS[kind].data(pts[:, 1:], ID_CFG, "tokens")

    @pytest.mark.parametrize("kind", ["power", "shifted"])
    def test_x_kind_before_values(self, kind):
        pts = self.points(kind)
        pts[2, 0], pts[3, 1] = -1.0, np.inf
        with pytest.raises(ValueError, match=r"^unknown x_kind 'tokens'$"):
            _FORMS[kind].data(pts, ID_CFG, "tokens")

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("power", "^X values must be positive, got -1.0$"),
            ("shifted", "^X values must be positive, got -1.0$"),
            ("joint", "^N values must be positive, got -1.0$"),
        ],
    )
    def test_values_before_counts(self, kind, message):
        # Two points, the first resource of one negative: short of every
        # counts rule, but the value is named first.
        pts = self.points(kind)[:2]
        pts[1, 0] = -1.0
        with pytest.raises(ValueError, match=message):
            _FORMS[kind].data(pts, ID_CFG, "flops")


class TestFitPowerLaw:
    def test_recovers_neural_curve(self):
        # saturating curve, plateau 0.52 in misalignment terms
        pts = power_points(0.52, 0.55, 0.16)
        fit = fit_power_law(pts, ID_CFG)
        assert fit.E == pytest.approx(0.52, rel=0.01)
        assert fit.A == pytest.approx(0.55, rel=0.01)
        assert fit.alpha == pytest.approx(0.16, rel=0.01)
        assert not fit.degenerate

    def test_recovers_behavioral_curve(self):
        pts = power_points(0.0, 1.4, 0.06)
        fit = fit_power_law(pts, ID_CFG)
        assert fit.E == pytest.approx(0.0, abs=1e-4)
        assert fit.A == pytest.approx(1.4, rel=0.01)
        assert fit.alpha == pytest.approx(0.06, rel=0.01)

    def test_constant_data_degenerate(self):
        x = np.logspace(0, 3, 20)
        pts = np.column_stack([x, np.full_like(x, 0.3)])
        fit = fit_power_law(pts, ID_CFG)
        assert fit.E == pytest.approx(0.3, rel=1e-3)
        assert fit.A < 1e-4
        assert fit.degenerate

    def test_too_few_distinct_x(self):
        pts = np.array([[1.0, 0.5], [1.0, 0.5], [2.0, 0.4]])
        with pytest.raises(ValueError, match="distinct X"):
            fit_power_law(pts, ID_CFG)

    @pytest.mark.parametrize("fit", [fit_power_law, fit_shifted_power_law])
    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, np.nan, "X values must be positive, got nan"),
            (0, -2.0, "X values must be positive, got -2.0"),
            (1, np.nan, "L values must be finite, got nan"),
            (1, np.inf, "L values must be finite, got inf"),
        ],
    )
    def test_bad_value_named(self, fit, column, value, message):
        pts = power_points(0.3, 0.5, 0.2, n=8)
        pts[3, column] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit(pts, ID_CFG)

    def test_count_rules_on_many_datasets_match_unique(self):
        # the rules as each fit used to check them, with np.unique per dataset
        rng = np.random.default_rng(0)
        for n in range(8):
            V = rng.integers(1, 5, size=(300, n)).astype(float)
            V[rng.random(V.shape) < 0.1] = np.nan
            W = rng.integers(1, 4, size=(300, n)).astype(float)
            (few_x,) = _FORMS["power"].count_faults([V])
            assert few_x.tolist() == [n < 3 or np.unique(v).size < 3 for v in V]
            few, span = _FORMS["joint"].count_faults([V, W])
            assert np.array_equal(few, np.full(300, n < 5))
            assert span.tolist() == [
                np.unique(v).size < 2 or np.unique(w).size < 2 for v, w in zip(V, W)
            ]

    def test_low_l_clamped_with_warning(self):
        pts = power_points(0.0, 1.0, 0.5, x_lo=0, x_hi=20, n=30)
        with pytest.warns(UserWarning, match="clamped"):
            fit_power_law(pts, ID_CFG)

    def test_objective_beats_every_grid_init(self):
        pts = power_points(0.52, 0.55, 0.16, sigma=0.05, seed=3)
        fit = fit_power_law(pts, ID_CFG)
        fg = _power_objective(np.log(pts[:, 0])[None, :], np.log(pts[:, 1])[None, :])
        inits = np.array(
            list(itertools.product(ID_CFG.grid_e, ID_CFG.grid_a, ID_CFG.grid_alpha))
        )
        init_vals = fg(inits, need_grad=False)
        assert fit.objective <= np.min(init_vals) + 1e-12

    def test_deterministic(self):
        pts = power_points(0.4, 1.0, 0.3, sigma=0.1, seed=7)
        f1 = fit_power_law(pts, ID_CFG)
        f2 = fit_power_law(pts, ID_CFG)
        assert (f1.E, f1.A, f1.alpha, f1.objective) == (f2.E, f2.A, f2.alpha, f2.objective)

    def test_rescaling_consistency(self):
        # fitting raw X with scale s == fitting pre-divided X with identity
        pts = power_points(0.3, 0.8, 0.25, x_lo=10, x_hi=15, n=30)
        scaled_cfg = FitConfig(rescale=Rescale(c_scale=1e13, n_scale=1.0, d_scale=1.0))
        f_raw = fit_power_law(pts, scaled_cfg, x_kind="flops")
        pre = np.column_stack([pts[:, 0] / 1e13, pts[:, 1]])
        f_pre = fit_power_law(pre, ID_CFG, x_kind="flops")
        assert f_raw.E == pytest.approx(f_pre.E, rel=1e-8)
        assert f_raw.A == pytest.approx(f_pre.A, rel=1e-8)
        assert f_raw.alpha == pytest.approx(f_pre.alpha, rel=1e-8)
        # A transforms back to raw units as A_raw = A_scaled * s^-alpha
        x_probe = 3e13
        l_raw, _ = predict(f_raw, x=x_probe)
        l_pre, _ = predict(f_pre, x=x_probe / 1e13)
        assert l_raw == pytest.approx(l_pre, rel=1e-8)


class TestFitShifted:
    def test_recovers_parameters(self):
        g = CurveGenerator(
            form="shifted",
            true_params={"E": 0.5, "A": 2.0, "alpha": 0.5, "lambda": 1.0},
            x_grid=tuple(np.logspace(0, 5, 40)),
        )
        fit = fit_shifted_power_law(gen_curve_points(g), ID_CFG)
        assert fit.E == pytest.approx(0.5, rel=0.02)
        assert fit.A == pytest.approx(2.0, rel=0.02)
        assert fit.alpha == pytest.approx(0.5, rel=0.02)
        assert fit.lam == pytest.approx(1.0, rel=0.02)

    def test_large_lambda_limit(self):
        fit = ShiftedPowerLawFit(
            E=0.5, A=2.0, alpha=0.5, lam=8.0, objective=0.0, init_used=(), degenerate=False
        )
        l_at_1, _ = predict(fit, x=1.0)
        assert l_at_1 == pytest.approx(0.5 + 2.0 * 10 ** (-8.0 * 0.5), rel=1e-6)

    def test_full_grid_at_least_as_good_as_restricted(self):
        g = CurveGenerator(
            form="shifted",
            true_params={"E": 0.4, "A": 1.5, "alpha": 0.6, "lambda": 1.5},
            x_grid=tuple(np.logspace(0, 4, 30)),
            noise_sigma_log=0.05,
            seed=11,
        )
        pts = gen_curve_points(g)
        restricted = FitConfig(rescale=Rescale(1, 1, 1), grid_lambda=(0.0,))
        f_full = fit_shifted_power_law(pts, ID_CFG)
        f_restr = fit_shifted_power_law(pts, restricted)
        assert f_full.objective <= f_restr.objective + 1e-12

    def test_freeze_lambda_keeps_grid_value(self):
        g = CurveGenerator(
            form="shifted",
            true_params={"E": 0.4, "A": 1.5, "alpha": 0.6, "lambda": 1.3},
            x_grid=tuple(np.logspace(0, 4, 30)),
        )
        fit = fit_shifted_power_law(gen_curve_points(g), ID_CFG, freeze_lambda=True)
        assert fit.lam in ID_CFG.grid_lambda


class TestFitJoint:
    @pytest.mark.parametrize(
        "points, message",
        [
            ([[1.0, 1.0, 0.5]] * 2 + [[2.0, 3.0, 0.4]] * 2, "at least 5 points"),
            ([[1.0, d, 0.5] for d in (1.0, 2.0, 3.0, 4.0, 5.0)], "insufficient span"),
        ],
        ids=["few-points", "one-n"],
    )
    def test_joint_count_messages(self, points, message):
        with pytest.raises(ValueError, match=message):
            fit_joint(np.array(points), ID_CFG)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, np.nan, "N values must be positive, got nan"),
            (1, 0.0, "D values must be positive, got 0.0"),
            (2, -np.inf, "L values must be finite, got -inf"),
        ],
    )
    def test_bad_value_named(self, column, value, message):
        pts = self.joint_points()
        pts[7, column] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_joint(pts, ID_CFG)

    def joint_points(self, E=0.3, A=1.0, alpha=0.34, B=2.0, beta=0.28, sigma=0.0, seed=0):
        g = CurveGenerator(
            form="joint",
            true_params={"E": E, "A": A, "alpha": alpha, "B": B, "beta": beta},
            n_grid=tuple(np.logspace(0, 3, 10)),
            d_grid=tuple(np.logspace(0, 3, 10)),
            noise_sigma_log=sigma,
            seed=seed,
        )
        return gen_curve_points(g)

    def test_recovers_parameters(self):
        fit = fit_joint(self.joint_points(), ID_CFG)
        assert fit.E == pytest.approx(0.3, rel=0.02)
        assert fit.A == pytest.approx(1.0, rel=0.02)
        assert fit.alpha == pytest.approx(0.34, rel=0.02)
        assert fit.B == pytest.approx(2.0, rel=0.02)
        assert fit.beta == pytest.approx(0.28, rel=0.02)

    def test_data_independent_of_d(self):
        fit = fit_joint(self.joint_points(B=0.0, beta=0.5), ID_CFG)
        assert fit.B < 1e-3
        l1, _ = predict(fit, n=10.0, d=1.0)
        l2, _ = predict(fit, n=10.0, d=1000.0)
        assert l1 == pytest.approx(l2, abs=1e-3)

    def test_symmetric_generator(self):
        fit = fit_joint(self.joint_points(A=1.5, alpha=0.3, B=1.5, beta=0.3), ID_CFG)
        assert fit.alpha == pytest.approx(fit.beta, rel=1e-3)
        assert fit.A == pytest.approx(fit.B, rel=1e-3)

    def test_insufficient_span(self):
        pts = np.array([[1.0, d, 0.5] for d in (1, 2, 3, 4, 5)], dtype=float)
        with pytest.raises(ValueError, match="span"):
            fit_joint(pts, ID_CFG)

    def test_default_rescale_reaches_unscaled_optimum(self):
        # `simulate --form joint --grid-side 6 --sigma 0.01 --seed 3` points; at
        # the default rescale (N / 1e5, D / 1e4) the truth's log A is about -3.9.
        g = CurveGenerator(
            form="joint",
            true_params={"E": 0.3, "A": 1.0, "alpha": 0.34, "B": 2.0, "beta": 0.28},
            n_grid=tuple(np.logspace(0, 3, 6)),
            d_grid=tuple(np.logspace(0, 3, 6)),
            noise_sigma_log=0.01,
            seed=3,
        )
        pts = gen_curve_points(g)
        fit = fit_joint(pts, FitConfig())
        assert (fit.n_scale, fit.d_scale) == (1e5, 1e4)
        assert fit.objective == pytest.approx(fit_joint(pts, ID_CFG).objective, rel=1e-9)
        assert not fit.degenerate


class TestJointProjection:
    """(E, A, B) solved at fixed exponents, the starts of a joint fit."""

    def project(self, node, **truth):
        """exp of the solved (e, a, b) at the (alpha, beta) node, on a truth's points."""
        pts = TestFitJoint().joint_points(**truth)
        data = [a[None, :] for a in _FORMS["joint"].data(pts, ID_CFG, "flops")]
        (e, a, alpha, b, beta), = _joint_project(data, [node])
        assert (alpha, beta) == node
        return np.exp([e, a, b])

    def test_noise_free_at_true_exponents_recovers_coefficients(self):
        np.testing.assert_allclose(self.project((0.34, 0.28)), [0.3, 1.0, 2.0], rtol=0, atol=1e-10)

    def test_absent_term_gets_floor(self):
        E, A, B = self.project((0.34, 0.5), B=0.0, beta=0.5)
        assert B == pytest.approx(_COEF_FLOOR, rel=1e-12)
        np.testing.assert_allclose([E, A], [0.3, 1.0], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.28), (0.34, 0.0), (0.0, 0.0)])
    def test_zero_exponent_node_solves_quietly(self, alpha, beta):
        # A zero exponent makes its column the constant column.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coef = self.project((alpha, beta))
        assert np.all(np.isfinite(coef)) and np.all(coef >= _COEF_FLOOR)

    def test_starts_follow_the_exponent_grid(self):
        cfg = FitConfig(grid_alpha=(0.2, 0.5), grid_beta=(0.1, 0.3, 0.7), rescale=ID_CFG.rescale)
        data = _FORMS["joint"].data(TestFitJoint().joint_points(), cfg, "flops")
        nodes = _FORMS["joint"].grid(cfg)
        assert nodes == list(itertools.product(cfg.grid_alpha, cfg.grid_beta))
        P0 = _FORMS["joint"].starts([a[None, :] for a in data], nodes)
        assert P0.shape == (len(nodes), 5)
        assert [(s[2], s[4]) for s in P0.tolist()] == nodes
        init = fit_joint(TestFitJoint().joint_points(), cfg).init_used
        assert type(init) is tuple and init in list(map(tuple, P0.tolist()))
        assert all(type(v) is float for v in init)

    def resampled(self, resamples, side=10, seed=0):
        """The per-point arrays of noisy joint points on a side x side grid,
        gathered at `resamples` bootstrap draws: arrays (resamples, side**2)."""
        g = CurveGenerator(
            form="joint",
            true_params={"E": 0.3, "A": 1.0, "alpha": 0.34, "B": 2.0, "beta": 0.28},
            n_grid=tuple(np.logspace(0, 3, side)),
            d_grid=tuple(np.logspace(0, 3, side)),
            noise_sigma_log=0.02,
            seed=seed,
        )
        data = _FORMS["joint"].data(gen_curve_points(g), ID_CFG, "flops")
        n = len(data[0])
        index = np.random.default_rng(seed).integers(0, n, (resamples, n))
        return [a[index] for a in data]

    def test_stacked_datasets_match_one_at_a_time(self):
        # 60 datasets x 5 nodes = 300 rows of 100 points: four blocks of
        # _CHUNK_ELEMS // 100 = 81 rows, so blocks split datasets' nodes.
        stacked = self.resampled(60)
        nodes = [(0.34, 0.28), (0.0, 0.5), (1.0, 0.0), (2.0, 2.0), (0.2, 0.7)]
        assert len(nodes) * 60 > 3 * (scaling._CHUNK_ELEMS // 100)
        P = _joint_project(stacked, nodes)
        assert P.shape == (300, 5)
        for r in range(60):
            one = _joint_project([a[r : r + 1] for a in stacked], nodes)
            assert one.tobytes() == P[5 * r : 5 * r + 5].tobytes()
        P0 = _FORMS["joint"].starts(stacked, nodes)
        assert P0.tobytes() == P.tobytes()

    def test_stacked_projection_memory_is_bounded(self):
        # A 1,600-point, 300-resample warm bootstrap's starts: one (E, A, B)
        # solve per resample. Solved in one block, U alone would take 11.5 MB
        # and the normal equations' products 35 MB; in blocks of
        # _CHUNK_ELEMS // 1600 = 5 rows the peak stays below 2 MB.
        tracemalloc = pytest.importorskip("tracemalloc")
        stacked = self.resampled(300, side=40)
        tracemalloc.start()
        try:
            P0 = _FORMS["joint"].starts(stacked, [(0.34, 0.28)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P0.shape == (300, 5)
        assert peak < 2 * 2**20


class TestPredict:
    def test_neural_curve_at_unit_compute(self):
        fit = PowerLawFit(
            E=0.52, A=0.55, alpha=0.16, objective=0.0, init_used=(), degenerate=False
        )
        L, S = predict(fit, x=1.0)
        assert L == pytest.approx(1.07, abs=1e-12)
        assert S == pytest.approx(-0.07, abs=1e-12)

    def test_behavioral_limit(self):
        fit = PowerLawFit(
            E=0.0, A=1.4, alpha=0.06, objective=0.0, init_used=(), degenerate=False
        )
        _, S = predict(fit, x=1e40)
        assert S == pytest.approx(1.0, abs=1e-2)

    def test_constant_fit(self):
        fit = JointFit(
            E=0.25, A=0.0, alpha=0.5, B=0.0, beta=0.5, objective=0.0,
            init_used=(), degenerate=True,
        )
        for n, d in [(1, 1), (10, 1e6), (1e9, 3)]:
            L, _ = predict(fit, n=n, d=d)
            assert L == 0.25

    def test_monotone_decreasing_and_limit(self):
        fit = PowerLawFit(
            E=0.4, A=2.0, alpha=0.05, objective=0.0, init_used=(), degenerate=False
        )
        x = np.logspace(0, 12, 100)
        L, _ = predict(fit, x=x)
        assert np.all(np.diff(L) < 0)
        assert np.all(L > fit.E)
        fit2 = PowerLawFit(
            E=0.4, A=2.0, alpha=0.5, objective=0.0, init_used=(), degenerate=False
        )
        l_big2, _ = predict(fit2, x=1e14)
        assert abs(l_big2 - fit2.E) / fit2.E < 1e-6

    def test_shifted_below_unshifted(self):
        p = PowerLawFit(E=0.3, A=1.0, alpha=0.4, objective=0.0, init_used=(), degenerate=False)
        s = ShiftedPowerLawFit(
            E=0.3, A=1.0, alpha=0.4, lam=0.5, objective=0.0, init_used=(), degenerate=False
        )
        x = np.logspace(-3, 6, 50)
        lp, _ = predict(p, x=x)
        ls, _ = predict(s, x=x)
        assert np.all(ls < lp)

    def test_joint_monotone(self):
        fit = JointFit(
            E=0.2, A=1.0, alpha=0.3, B=2.0, beta=0.4, objective=0.0,
            init_used=(), degenerate=False,
        )
        n = np.logspace(0, 6, 30)
        l_n, _ = predict(fit, n=n, d=np.full_like(n, 100.0))
        assert np.all(np.diff(l_n) < 0)
        d = np.logspace(0, 6, 30)
        l_d, _ = predict(fit, n=np.full_like(d, 100.0), d=d)
        assert np.all(np.diff(l_d) < 0)

    def test_nonpositive_input(self):
        fit = PowerLawFit(E=0.3, A=1.0, alpha=0.4, objective=0.0, init_used=(), degenerate=False)
        with pytest.raises(ValueError):
            predict(fit, x=0.0)

    NAN_INPUTS = {
        "power": (PowerLawFit(0.3, 1.0, 0.4, 0.0, (), False), [{"x": np.nan}, {"x": [1.0, np.nan]}]),
        "shifted": (ShiftedPowerLawFit(0.3, 1.0, 0.4, 0.5, 0.0, (), False), [{"x": np.nan}]),
        "joint": (
            JointFit(0.2, 1.0, 0.3, 2.0, 0.4, 0.0, (), False),
            [{"n": np.nan, "d": 10.0}, {"n": 10.0, "d": [5.0, np.nan]}],
        ),
    }

    @pytest.mark.parametrize("form", sorted(NAN_INPUTS))
    def test_nan_input(self, form):
        fit, calls = self.NAN_INPUTS[form]
        for inputs in calls:
            with pytest.raises(ValueError, match="^inputs must be positive$"):
                predict(fit, **inputs)


class TestRegionGain:
    def test_paper_parameters(self):
        fit = PowerLawFit(
            E=0.52, A=0.55, alpha=0.16, objective=0.0, init_used=(), degenerate=False
        )
        assert region_gain(fit) == pytest.approx(0.7950, abs=1e-4)

    def test_zero_amplitude(self):
        fit = PowerLawFit(E=0.3, A=0.0, alpha=0.5, objective=0.0, init_used=(), degenerate=True)
        assert region_gain(fit) == 0.0

    def test_unit_case(self):
        fit = PowerLawFit(E=0.0, A=1.0, alpha=0.0, objective=0.0, init_used=(), degenerate=False)
        assert region_gain(fit) == 1.0


class TestObjectiveGradient:
    def test_matches_finite_differences(self):
        pts = power_points(0.52, 0.55, 0.16, sigma=0.05, seed=5)
        fg = _power_objective(np.log(pts[:, 0])[None, :], np.log(pts[:, 1])[None, :])

        def single(p):
            v, g = fg(p[None, :])
            return float(v[0]), g[0]

        rng = np.random.default_rng(0)
        for _ in range(20):
            p = np.array([rng.uniform(-1, 1), rng.uniform(0, 5), rng.uniform(0, 2)])
            assert check_gradient(single, p, fd_step=1e-6) < 1e-4


class TestStackedObjective:
    """Rows evaluated in blocks get the values and gradients of one kernel call."""

    def test_blocks_match_one_call(self):
        rng = np.random.default_rng(0)
        starts, n = 3, 50
        block = scaling._CHUNK_ELEMS // n
        datasets = 2 * block  # (starts * datasets) rows, several blocks of them
        data = (
            np.log(rng.uniform(1e-2, 1e2, (datasets, n))),
            np.log(rng.uniform(0.2, 0.9, (datasets, n))),
        )
        rows = np.sort(rng.choice(starts * datasets, 5 * block // 2, replace=False))
        P = rng.uniform([-1, 0, 0], [1, 5, 2], (len(rows), 3))  # (e, a, alpha)
        P[block + 1, 1] = np.inf  # a row whose value and gradient are not finite
        fg = _stacked_objective(_power_fg, data, starts)
        owner = rows // starts
        with np.errstate(over="ignore", invalid="ignore"):
            hp = HuberParams(scaling.HUBER_DELTA)
            f_ref, g_ref = _power_fg(P, data[0][owner], data[1][owner], hp, True)
        f, g = fg(P, rows, True)
        assert not np.isfinite(f[block + 1]) and not np.all(np.isfinite(g[block + 1]))
        assert np.array_equal(f, f_ref, equal_nan=True)
        assert np.array_equal(g, g_ref, equal_nan=True)
        assert np.array_equal(fg(P, rows, False), f_ref, equal_nan=True)


    @pytest.mark.parametrize(
        "fg, kw",
        [(_power_fg, {}), (_shifted_fg, {"freeze_lambda": False}), (_shifted_fg, {"freeze_lambda": True})],
        ids=["power", "shifted", "shifted-frozen"],
    )
    def test_one_dataset_matches_its_row_repeated(self, fg, kw):
        # With one dataset every row reads the (1, n) arrays without a
        # gather; the bytes are those of R copies read through row indices.
        rng = np.random.default_rng(2)
        starts, R, n = 4, 3, 50
        X = rng.uniform(1e-2, 1e2, (1, n))
        data = (X if fg is _shifted_fg else np.log(X), np.log(rng.uniform(0.2, 0.9, (1, n))))
        d = 4 if fg is _shifted_fg else 3
        K = 2 * (scaling._CHUNK_ELEMS // n) + 7  # three blocks, the last one short
        rows = np.sort(rng.integers(0, starts * R, K))  # repeats, as in a line search
        P = rng.uniform([-1, 0, 0, 0][:d], [1, 5, 2, 2][:d], (K, d))
        P[3, 1], P[K - 2, 0] = np.inf, np.nan  # rows whose value is not finite
        one = _stacked_objective(fg, data, starts, **kw)
        repeated = _stacked_objective(fg, [np.repeat(a, R, axis=0) for a in data], starts, **kw)
        f_ref, g_ref = repeated(P, rows, True)
        for f, g in (one(P, rows, True), one(P)):
            assert f.tobytes() == f_ref.tobytes() and g.tobytes() == g_ref.tobytes()
        assert one(P, rows, False).tobytes() == one(P, need_grad=False).tobytes() == f_ref.tobytes()
        assert repeated(P, rows, False).tobytes() == f_ref.tobytes()


class TestSharedObjective:
    """The objective on one dataset, data shared by every row, evaluates its
    rows in blocks of bounded size."""

    @pytest.mark.parametrize("freeze_lambda", [False, True])
    def test_blocks_match_one_call(self, freeze_lambda):
        rng = np.random.default_rng(1)
        n = 50
        K = 2 * (scaling._CHUNK_ELEMS // n) + 7  # three blocks, the last one short
        data = (rng.uniform(1e-2, 1e2, (1, n)), np.log(rng.uniform(0.2, 0.9, (1, n))))
        P = rng.uniform([-1, 0, 0, 0], [1, 5, 2, 2], (K, 4))  # (e, a, alpha, lambda)
        P[3, 1], P[K - 2, 3] = np.inf, np.nan  # rows whose value is not finite
        kw = {"freeze_lambda": freeze_lambda}
        fg = _stacked_objective(_shifted_fg, data, 1, **kw)
        with np.errstate(all="ignore"):
            f_ref, g_ref = _shifted_fg(P, *data, HuberParams(scaling.HUBER_DELTA), True, **kw)
        f, g = fg(P)
        assert not np.isfinite(f[3]) and not np.isfinite(f[K - 2])
        assert f.tobytes() == f_ref.tobytes() and f.shape == (K,)
        assert g.tobytes() == g_ref.tobytes() and g.shape == (K, 4)
        assert fg(P, need_grad=False).tobytes() == f_ref.tobytes()

    def test_wide_grid_first_evaluation_is_bounded(self):
        # 625 starts on 2,000 points: one kernel call over every row would
        # hold a dozen (625, 2000) temporaries, about 120 MB. In blocks of
        # _CHUNK_ELEMS // 2000 = 4 rows the peak stays below 2 MB.
        tracemalloc = pytest.importorskip("tracemalloc")
        x = np.logspace(-2, 3, 2000)
        pts = np.column_stack([x, 0.3 + (x + 3.0) ** -0.4])
        grid = (0.0, 0.5, 1.0, 1.5, 2.0)
        cfg = FitConfig(grid_e=grid, grid_a=grid, grid_alpha=grid, grid_lambda=grid, rescale=Rescale(1.0, 1.0, 1.0))
        form = _FORMS["shifted"]
        data = form.data(pts, cfg, "flops")
        fg = _stacked_objective(form.fg, [a[None, :] for a in data], 1)
        P = np.array(form.grid(cfg), dtype=float)
        assert P.shape == (625, 4)
        tracemalloc.start()
        try:
            f, g = fg(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.shape == (625,) and g.shape == (625, 4)
        assert peak < 2 * 2**20


def reference_result(form, best, obj, converged, init, cfg, x_kind, n_points):
    """`_Form.result` as it was, one fit from one parameter vector."""
    values = {p.field: float(np.exp(v) if p.log else v) for p, v in zip(form.params, best)}
    units = {s: cfg.rescale.factor(k) for s, k in zip(form.scales, form.kinds(x_kind))}
    if form.x_axis:
        units["x_kind"] = x_kind
    return form.fit_class(
        **values,
        **units,
        objective=obj,
        init_used=init,
        degenerate=any(values[p.field] < DEGENERATE_EPS for p in form.params if p.degeneracy),
        converged=converged,
        n_points=n_points,
    )


class TestFormResult:
    """`_Form.result` builds from `_Form.values` the fit a scalar build gives."""

    @pytest.mark.parametrize("kind", sorted(_FORMS))
    def test_matches_row_by_row(self, kind):
        form = _FORMS[kind]
        rng = np.random.default_rng(7)
        m, d = 300, len(form.params)
        best = rng.normal(0.0, 3.0, (m, d))
        # Values at and around the degeneracy threshold, zero, overflow and NaN.
        eps = np.log(DEGENERATE_EPS)
        specials = [eps, np.nextafter(eps, 0), np.nextafter(eps, -np.inf), -np.inf, 800.0, np.nan, -0.0, 0.0]
        for j in range(d):
            best[rng.choice(m, 3 * len(specials), replace=False), j] = np.repeat(specials, 3)
        best[rng.random(m) < 0.1, 2] = DEGENERATE_EPS / 2  # a degenerate alpha
        obj = rng.uniform(0.0, 1.0, m)
        obj[::17] = np.nan
        conv = rng.random(m) < 0.7
        inits = [tuple(rng.normal(0.0, 1.0, d).tolist()) for _ in range(m)]
        cfg = FitConfig(rescale=Rescale(2.0, 3.0, 5.0))
        x_kind = "params" if form.x_axis else "flops"
        with np.errstate(over="ignore"):
            got = [form.result(best[i], obj[i], conv[i], inits[i], cfg, x_kind, 42) for i in range(m)]
            wants = [
                reference_result(form, best[i], float(obj[i]), bool(conv[i]), inits[i], cfg, x_kind, 42)
                for i in range(m)
            ]
            values = form.values(best)
        for fit, want, row in zip(got, wants, values):
            assert type(fit) is type(want)
            assert repr(fit) == repr(want)
            for name, value in vars(want).items():
                assert type(getattr(fit, name)) is type(value), name
            assert row.tobytes() == np.array(list(fit.params().values())).tobytes()
        assert any(fit.degenerate for fit in got) and not all(fit.degenerate for fit in got)

    def test_no_rows(self):
        assert _FORMS["power"].values(np.zeros((0, 3))).shape == (0, 3)


class TestSelectBest:
    # Three datasets of four starts (e, a, alpha): ties in f broken by alpha
    # and then start order; NaN and infinite objectives skipped; every
    # start of the last dataset diverged.
    F = np.array(
        [
            [1.0, 0.5, 0.5, 0.5],
            [np.nan, np.inf, 0.7, 0.7],
            [np.nan, np.inf, -np.inf, np.nan],
        ]
    )
    ALPHA = np.array([[0.0, 0.3, 0.2, 0.2], [0.0, 0.0, 0.5, 0.4], [0.1, 0.2, 0.3, 0.4]])

    def batch(self):
        X = np.zeros(self.F.shape + (3,))
        X[:, :, 2] = self.ALPHA
        return X, self.F

    def test_picks_per_dataset(self):
        best, found = _select_best(*self.batch())
        assert best[:2].tolist() == [2, 3]
        assert found.tolist() == [True, True, False]

    def test_one_dataset_at_a_time_agrees(self):
        X, F = self.batch()
        best, found = _select_best(X, F)
        for r in range(len(F)):
            (b,), (ok,) = _select_best(X[r : r + 1], F[r : r + 1])
            assert ok == found[r]
            if ok:
                assert b == best[r]

    def test_fit_raises_when_every_start_diverges(self, monkeypatch):
        def diverged(fg, x0, cfg):
            K = len(x0)
            return x0, np.full(K, np.nan), np.zeros(K, int), np.zeros(K, bool), np.zeros(K)

        monkeypatch.setattr(scaling, "minimize_batch", diverged)
        pts = np.column_stack([np.logspace(0, 2, 5), np.linspace(1.0, 0.6, 5)])
        with pytest.raises(RuntimeError, match="all grid minimizations diverged"):
            fit_power_law(pts, ID_CFG)
