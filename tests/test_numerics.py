import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefit.numerics import (
    HuberParams,
    OptimizerConfig,
    check_gradient,
    huber,
    huber_deriv,
    lse,
    loglog_linreg,
    minimize,
)
from scalefit.numerics import _bfgs_rows, _huber_parts, _logaddexp

HP = HuberParams(1e-3)


HUBER_SPECIALS = [0.0, -0.0, 1e-3, -1e-3, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324]


def branch_huber(r, delta):
    """The Huber loss by its two branches: 0.5 r^2 within delta, delta (|r| - delta / 2) beyond."""
    a = np.abs(r)
    return np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))


def assert_same_bits(a, b):
    """a and b are NaN at the same places and bit-identical elsewhere, signed zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    keep = ~np.isnan(a)
    assert np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


class TestHuber:
    def test_zero(self):
        assert huber(0.0, HP) == 0.0

    def test_boundary_quadratic(self):
        assert huber(1e-3, HP) == pytest.approx(5e-7, abs=1e-15)

    def test_linear_branch(self):
        assert huber(0.1, HP) == pytest.approx(9.95e-5, abs=1e-15)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            HuberParams(0.0)

    @given(st.floats(-1e6, 1e6))
    def test_even(self, r):
        assert huber(r, HP) == huber(-r, HP)

    @given(st.floats(-1e3, 1e3))
    def test_below_quadratic(self, r):
        assert huber(r, HP) <= 0.5 * r * r + 1e-18
        if abs(r) <= HP.delta:
            assert huber(r, HP) == pytest.approx(0.5 * r * r, rel=1e-12)

    def test_knee_continuity(self):
        eps = 1e-12
        d = HP.delta
        assert abs(huber(d + eps, HP) - huber(d - eps, HP)) < 1e-14

    @given(
        st.lists(st.one_of(st.sampled_from(HUBER_SPECIALS), st.floats()), min_size=1, max_size=40),
        st.sampled_from([1e-3, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=300)
    def test_clip_form_bit_identical(self, values, delta):
        r = np.array(values + [delta, -delta])
        hp = HuberParams(delta)
        with np.errstate(over="ignore", invalid="ignore"):
            value, deriv = _huber_parts(r, delta)
            assert_same_bits(value, branch_huber(r, delta))
        assert_same_bits(value, huber(r, hp))
        assert_same_bits(deriv, huber_deriv(r, hp))


LSE_SPECIALS = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 709.8, -745.2]


class TestLogaddexp:
    @staticmethod
    def assert_within_2_ulp(x, y):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _logaddexp(x, y), np.logaddexp(x, y)
            finite = np.isfinite(want)
            assert_same_bits(got[~finite], want[~finite])
            got, want = got[finite], want[finite]
            scale = np.maximum.reduce([np.abs(x[finite]), np.abs(y[finite]), np.abs(want)])
            assert np.all((got == want) | (np.abs(got - want) <= 2 * np.spacing(scale)))

    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=False), st.floats(-40, 40)), min_size=1, max_size=50
        )
    )
    @settings(max_examples=300)
    def test_within_2_ulp_of_numpy(self, pairs):
        x = np.array([p[0] for p in pairs])
        y = x + np.array([p[1] for p in pairs])  # near pairs, where the log1p term counts
        self.assert_within_2_ulp(x, y)
        self.assert_within_2_ulp(x, np.flip(x))

    def test_random_pairs(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 5.0, 200_000) * 10.0 ** rng.uniform(-3, 2, 200_000)
        y = x + rng.normal(0.0, 3.0, x.size) * 10.0 ** rng.uniform(-4, 1, x.size)
        self.assert_within_2_ulp(x, y)

    def test_special_pairs_match_numpy(self):
        x, y = np.meshgrid(LSE_SPECIALS, LSE_SPECIALS)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(_logaddexp(x, y), np.logaddexp(x, y))

    def test_broadcasts(self):
        x, y = np.linspace(-3.0, 3.0, 12).reshape(4, 3), np.array([[0.5], [-1.0], [2.0], [0.0]])
        assert _logaddexp(x, y).shape == (4, 3)
        assert np.allclose(_logaddexp(x, y), np.logaddexp(x, y), rtol=1e-15, atol=0)


class TestLse:
    def test_single_term(self):
        assert lse([3.7]) == pytest.approx(3.7, abs=1e-15)

    def test_two_zeros(self):
        assert lse([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_three_terms(self):
        expect = 3 + math.log(math.exp(-2) + math.exp(-1) + 1)
        assert lse([1.0, 2.0, 3.0]) == pytest.approx(expect, rel=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            lse([])

    def test_overflow_safe(self):
        assert lse([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2), rel=1e-12)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-50, 50),
    )
    @settings(max_examples=200)
    def test_shift_and_bounds(self, terms, c):
        v = lse(terms)
        assert max(terms) <= v + 1e-12
        assert v <= max(terms) + math.log(len(terms)) + 1e-12
        assert lse([t + c for t in terms]) == pytest.approx(v + c, abs=1e-12)


class TestLogLogLinreg:
    def test_exact_linear(self):
        x = np.logspace(0, 3, 10)
        intercept, slope, r2 = loglog_linreg(x, 6 * x)
        assert intercept == pytest.approx(math.log(6), rel=1e-12)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_power(self):
        x = np.logspace(-1, 4, 12)
        intercept, slope, _ = loglog_linreg(x, 2 * x**1.1)
        assert intercept == pytest.approx(math.log(2), rel=1e-10)
        assert slope == pytest.approx(1.1, rel=1e-12)

    def test_degenerate_x(self):
        with pytest.raises(ValueError):
            loglog_linreg([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            loglog_linreg([1.0, -1.0], [1.0, 2.0])


class TestMinimize:
    def test_quadratic_bowl(self):
        res = minimize(lambda x: ((x[0] - 3) ** 2, np.array([2 * (x[0] - 3)])), [0.0])
        assert res.converged
        assert res.x_star[0] == pytest.approx(3.0, abs=1e-6)

    def test_rosenbrock(self):
        def f(x):
            a, b = 1.0, 100.0
            v = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
            g = np.array(
                [
                    -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
                    2 * b * (x[1] - x[0] ** 2),
                ]
            )
            return v, g

        res = minimize(f, [-1.2, 1.0], OptimizerConfig(max_iters=2000))
        assert np.allclose(res.x_star, [1.0, 1.0], atol=1e-4)

    def test_constant_function(self):
        res = minimize(lambda x: (5.0, np.zeros_like(x)), [1.0, 2.0])
        assert res.converged
        assert res.iterations == 0
        assert res.grad_norm == 0.0
        assert np.array_equal(res.x_star, [1.0, 2.0])

    def test_deterministic(self):
        def f(x):
            v = np.sum((x - 1.5) ** 4) + np.sum(x**2)
            return v, 4 * (x - 1.5) ** 3 + 2 * x

        r1 = minimize(f, [5.0, -3.0])
        r2 = minimize(f, [5.0, -3.0])
        assert np.array_equal(r1.x_star, r2.x_star)
        assert r1.f_star == r2.f_star
        assert r1.iterations == r2.iterations

    def test_converged_implies_grad_tol(self):
        cfg = OptimizerConfig()
        res = minimize(lambda x: (float(np.sum(x**2)), 2 * x), [4.0, -2.0], cfg)
        assert res.converged
        assert res.grad_norm <= cfg.grad_tol

    def test_tiny_scale_objective_converges(self):
        # The curvature s.y shrinks with the objective's scale c; a guard on
        # its absolute size would freeze the inverse Hessian and stall here.
        c = 1e-6
        scale = np.array([1.0, 10.0])

        def f(x):
            return c * 0.5 * float(np.sum(scale * x**2)), c * scale * x

        res = minimize(f, [3.0, -2.0], OptimizerConfig(grad_tol=c * 1e-8))
        assert res.converged
        assert np.allclose(res.x_star, 0.0, atol=1e-8)

    def test_nonfinite_start(self):
        with pytest.raises(ValueError):
            minimize(lambda x: (float("nan"), np.zeros_like(x)), [0.0])

    def test_bad_config(self):
        with pytest.raises(ValueError):
            OptimizerConfig(armijo_c=2.0)
        with pytest.raises(ValueError):
            OptimizerConfig(backtrack=1.0)


class TestBfgsRows:
    # Per-row Rosenbrock valleys (a - x)^2 + 100 (y - x^2)^2, scaled by w;
    # w = inf makes a row's objective non-finite everywhere.
    A = np.array([1.0, 2.0, -0.5])
    W = np.array([1.0, np.inf, 3.0])
    X0 = np.array([[-1.2, 1.0], [0.0, 0.0], [2.0, -1.0]])

    def fg_for(self, keep):
        a, w = self.A[keep], self.W[keep]

        def fg(P, rows, need_grad):
            x, y = P[:, 0], P[:, 1]
            with np.errstate(invalid="ignore"):
                v = w[rows] * ((a[rows] - x) ** 2 + 100 * (y - x**2) ** 2)
                if not need_grad:
                    return v
                g = w[rows, None] * np.stack(
                    [-2 * (a[rows] - x) - 400 * x * (y - x**2), 200 * (y - x**2)], axis=1
                )
            return v, g

        return fg

    def test_nonfinite_start_fails_only_its_row(self):
        cfg = OptimizerConfig(max_iters=2000)
        X, f, iters, conv, gn, started = _bfgs_rows(self.fg_for([0, 1, 2]), self.X0, cfg)
        ref = _bfgs_rows(self.fg_for([0, 2]), self.X0[[0, 2]], cfg)
        assert started.tolist() == [True, False, True]
        assert not conv[1] and iters[1] == 0
        assert np.array_equal(X[1], self.X0[1])
        for got, want in zip((X, f, iters, conv, gn, started), ref):
            assert np.array_equal(got[[0, 2]], want)
        assert conv[[0, 2]].all()
        assert np.allclose(X[[0, 2]], [[1.0, 1.0], [-0.5, 0.25]], atol=1e-6)


class TestCheckGradient:
    def test_polynomial(self):
        err = check_gradient(lambda x: (float(x[0] ** 2), np.array([2 * x[0]])), [2.0])
        assert err < 1e-8

    def test_wrong_gradient(self):
        err = check_gradient(lambda x: (float(x[0] ** 2), np.array([4 * x[0]])), [2.0])
        assert err == pytest.approx(0.5, abs=1e-6)
