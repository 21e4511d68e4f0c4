import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefit import scaling
from scalefit.numerics import (
    HuberParams,
    OptimizerConfig,
    check_gradient,
    huber,
    lse,
    loglog_linreg,
    minimize,
)
from scalefit.numerics import _CURVATURE_RTOL, _bfgs_rows, _huber_parts, _logaddexp
from scalefit.scaling import FitConfig, Rescale

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
        assert_same_bits(deriv, np.clip(r, -delta, delta))


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


def rosenbrock_rows(a, w, x0=None, island=None, flip=None):
    """Row-aware objective fg(P, rows, need_grad) of per-row Rosenbrock valleys.

    Row r's objective is w[r] ((a[r] - x)^2 + 100 (y - x^2)^2); w = inf makes
    it non-finite everywhere. A row marked in `island` is finite only at its
    start x0[r], so every trial step away from it fails; a row marked in
    `flip` reports its gradient with the wrong sign.
    """

    def fg(P, rows, need_grad):
        x, y = P[:, 0], P[:, 1]
        with np.errstate(all="ignore"):
            v = w[rows] * ((a[rows] - x) ** 2 + 100 * (y - x**2) ** 2)
            if island is not None:
                v = np.where(~island[rows] | np.all(P == x0[rows], axis=1), v, np.nan)
            if not need_grad:
                return v
            g = w[rows, None] * np.stack(
                [-2 * (a[rows] - x) - 400 * x * (y - x**2), 200 * (y - x**2)], axis=1
            )
            if flip is not None:
                g = np.where(flip[rows, None], -g, g)
        return v, g

    return fg


class TestBfgsRows:
    A = np.array([1.0, 2.0, -0.5])
    W = np.array([1.0, np.inf, 3.0])
    X0 = np.array([[-1.2, 1.0], [0.0, 0.0], [2.0, -1.0]])

    def fg_for(self, keep):
        return rosenbrock_rows(self.A[keep], self.W[keep])

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


def reference_bfgs_rows(fg, x0: np.ndarray, cfg: OptimizerConfig):
    """`numerics._bfgs_rows` with one objective call per backtracking trial.

    A verbatim copy of the BFGS core in its one-trial-at-a-time form, kept as
    the reference that any rework of its line search must match bit for bit.
    """
    X = np.array(x0, dtype=float)
    if X.ndim != 2:
        raise ValueError("x0 must have shape (K, d)")
    K, d = X.shape
    f, g = fg(X, np.arange(K), True)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    started = np.isfinite(f)

    eye = np.eye(d)
    H = np.repeat(eye[None, :, :], K, axis=0)
    iters = np.zeros(K, dtype=int)
    gnorm = np.max(np.abs(g), axis=1) if d else np.zeros(K)
    converged = started & (gnorm <= cfg.grad_tol)
    active = started & ~converged

    for _ in range(cfg.max_iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Xi, fi, gi = X[idx], f[idx], g[idx]

        p = -np.einsum("kij,kj->ki", H[idx], gi)
        slope = np.sum(p * gi, axis=1)
        bad = slope >= 0  # not a descent direction; reset to steepest descent
        if np.any(bad):
            p[bad] = -gi[bad]
            slope[bad] = -np.sum(gi[bad] ** 2, axis=1)
            H[idx[bad]] = eye

        # Armijo backtracking line search, per row.
        t = np.ones(idx.size)
        Xnew = Xi.copy()
        fnew = fi.copy()
        accepted = np.zeros(idx.size, dtype=bool)
        searching = np.ones(idx.size, dtype=bool)
        for _bt in range(60):
            sj = np.flatnonzero(searching)
            if sj.size == 0:
                break
            cand = Xi[sj] + t[sj, None] * p[sj]
            fc = np.asarray(fg(cand, idx[sj], False), dtype=float)
            ok = np.isfinite(fc) & (fc <= fi[sj] + cfg.armijo_c * t[sj] * slope[sj])
            hit = sj[ok]
            Xnew[hit] = cand[ok]
            fnew[hit] = fc[ok]
            accepted[hit] = True
            searching[hit] = False
            t[sj[~ok]] *= cfg.backtrack

        aj = np.flatnonzero(accepted)
        if aj.size:
            rows = idx[aj]
            _, gnew = fg(Xnew[aj], rows, True)
            gnew = np.asarray(gnew, dtype=float)
            s = Xnew[aj] - Xi[aj]
            y = gnew - gi[aj]
            sy = np.sum(s * y, axis=1)
            s_norm = np.sqrt(np.sum(s * s, axis=1))
            y_norm = np.sqrt(np.sum(y * y, axis=1))
            upd = sy > _CURVATURE_RTOL * s_norm * y_norm
            if np.any(upd):
                Hu = H[rows[upd]]
                su, yu = s[upd], y[upd]
                # A tiny s.y can overflow rho or rho^2 * yHy; such rows keep
                # their previous H below, without a warning.
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    rho = 1.0 / sy[upd]
                    Hy = np.einsum("kij,kj->ki", Hu, yu)
                    yHy = np.sum(yu * Hy, axis=1)
                    outer_sHy = np.einsum("ki,kj->kij", su, Hy)
                    Hu = (
                        Hu
                        - rho[:, None, None] * (outer_sHy + outer_sHy.transpose(0, 2, 1))
                        + (rho * rho * yHy + rho)[:, None, None]
                        * np.einsum("ki,kj->kij", su, su)
                    )
                finite = np.all(np.isfinite(Hu), axis=(1, 2))
                H[rows[upd][finite]] = Hu[finite]

            X[rows] = Xnew[aj]
            f[rows] = fnew[aj]
            g[rows] = gnew
            gn = np.max(np.abs(gnew), axis=1)
            gnorm[rows] = gn
            iters[rows] += 1
            done = gn <= cfg.grad_tol
            converged[rows[done]] = True
            active[rows[done]] = False

        # Rows where the line search stalled make no further progress.
        stalled = idx[~accepted]
        active[stalled] = False
        iters[stalled] += 1

    return X, f, iters, converged, gnorm, started


# Stacked objectives: datasets of n points, `starts` parameter rows each.
STACK_CFG = FitConfig(rescale=Rescale(1.0, 1.0, 1.0))


def stacked_batch(kind, rng, datasets, starts, n):
    """(fg, x0) of a `_stacked_objective` over random datasets of a form.

    About one start in eight holds a NaN or a huge value, so that its
    objective is not finite at the start and the row never steps.
    """
    form = scaling._FORMS[kind]
    data = []
    for _ in range(datasets):
        noise = np.exp(rng.normal(0.0, 0.05, n))
        if kind == "joint":
            N, D = 10 ** rng.uniform(0, 3, n), 10 ** rng.uniform(0, 3, n)
            pts = np.column_stack([N, D, (0.3 + N**-0.4 + 1.5 * D**-0.3) * noise])
        else:
            X = 10 ** rng.uniform(-2, 3, n)
            pts = np.column_stack([X, (0.5 + 0.6 * X**-0.2) * noise])
        data.append(form.data(pts, STACK_CFG, "flops"))
    stacked = [np.array(columns) for columns in zip(*data)]
    fg = scaling._stacked_objective(form.fg, stacked, starts, 1e-3)
    K, d = datasets * starts, len(form.params)
    x0 = rng.normal(0.0, 1.0, (K, d)) * 10 ** rng.uniform(-1, 1.5, (K, 1))
    x0[rng.random(K) < 1 / 16, 0] = np.nan
    x0[rng.random(K) < 1 / 16, 1] = 1e300
    return fg, x0


def rosenbrock_batch(rng, K):
    """(fg, x0) of K Rosenbrock rows of every kind `rosenbrock_rows` makes.

    Weights of 1e-300 make p.g underflow to -0.0, so such rows reset to
    steepest descent; starts up to 1e75 overflow their trial values; island
    rows start at the origin, so every trial step fails and they stall.
    """
    a = rng.normal(0.0, 1.5, K)
    w = rng.choice([1.0, 3.0, 1e-3, 1e-300, np.inf], K)
    x0 = rng.normal(0.0, 1.0, (K, 2)) * 10.0 ** rng.choice([0, 0, 1, 40, 75], (K, 1))
    island = rng.random(K) < 0.2
    x0[island] = 0.0
    flip = rng.random(K) < 0.15
    return rosenbrock_rows(a, w, x0, island, flip), x0


OPT_CFGS = st.builds(
    OptimizerConfig,
    max_iters=st.sampled_from([1, 2, 5, 30, 200]),
    grad_tol=st.sampled_from([1e-8, 1e-12, 0.0]),
    armijo_c=st.sampled_from([1e-4, 0.1, 0.45, 0.9]),
    backtrack=st.sampled_from([0.5, 0.3, 0.7, 0.9]),
)


def assert_matches_reference(fg, x0, cfg):
    with np.errstate(all="ignore"):  # huge rows overflow p.g and the H update
        got, want = _bfgs_rows(fg, x0, cfg), reference_bfgs_rows(fg, x0, cfg)
    assert len(got) == len(want) == 6
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestMatchesReference:
    """`_bfgs_rows` returns the reference's six outputs bit for bit."""

    @given(
        st.sampled_from(["power", "shifted", "joint"]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(5, 12),
        OPT_CFGS,
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_objectives(self, kind, seed, datasets, starts, n, cfg):
        fg, x0 = stacked_batch(kind, np.random.default_rng(seed), datasets, starts, n)
        assert_matches_reference(fg, x0, cfg)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), OPT_CFGS)
    @settings(max_examples=80, deadline=None)
    def test_rosenbrock_rows(self, seed, K, cfg):
        fg, x0 = rosenbrock_batch(np.random.default_rng(seed), K)
        assert_matches_reference(fg, x0, cfg)

    @pytest.mark.parametrize("backtrack", [0.5, 0.3, 0.7])
    @pytest.mark.parametrize("armijo_c", [1e-4, 0.3])
    def test_every_kind_of_row(self, backtrack, armijo_c):
        # One row of each kind: converging, never starting, tiny (resets),
        # huge (overflowing trials), island (stalls after 60 trials) and
        # wrong-signed; first for a few iterations, then to the end.
        a = np.array([1.0, 2.0, -0.5, 1.0, 0.7, -1.0])
        w = np.array([1.0, np.inf, 1e-300, 1.0, 1.0, 2.0])
        x0 = np.array([[-1.2, 1.0], [0.0, 0.0], [2.0, -1.0], [3e75, -1e75], [0.0, 0.0], [0.5, 0.5]])
        island = np.array([False, False, False, False, True, False])
        flip = np.array([False, False, False, False, False, True])
        fg = rosenbrock_rows(a, w, x0, island, flip)
        for max_iters in (3, 400):
            cfg = OptimizerConfig(max_iters, 0.0, armijo_c, backtrack)
            assert_matches_reference(fg, x0, cfg)

    def test_joint_grid_rows(self):
        # A default joint start grid on one dataset, as fit_joint runs it.
        fg, x0 = stacked_batch("joint", np.random.default_rng(5), 1, 25, 10)
        cfg = OptimizerConfig()
        assert_matches_reference(fg, x0, cfg)


class TestBatchedLineSearch:
    """The line search makes about log2(k) value calls for k halvings, not k."""

    @staticmethod
    def counted(a, island=None):
        # Per-row a x^2 from x = 1: with H = I the full step lands at
        # 1 - 2a, and a = 0.75 * 2^k needs exactly k halvings. An island
        # row is finite only at its start, so all 60 trials fail.
        calls = []

        def fg(P, rows, need_grad):
            calls.append((need_grad, rows.copy()))
            v = a[rows] * P[:, 0] ** 2
            if island is not None:
                v = np.where(island[rows] & (P[:, 0] != 1.0), np.nan, v)
            return (v, (2 * a[rows] * P[:, 0])[:, None]) if need_grad else v

        return fg, calls

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 13, 40])
    def test_rounds_for_k_halvings(self, k):
        cfg = OptimizerConfig(max_iters=1)
        fg, calls = self.counted(np.array([0.75 * 2.0**k]))
        X, f, iters, _, _, _ = _bfgs_rows(fg, np.ones((1, 1)), cfg)
        assert X[0, 0] == 1 - 2 * 0.75 * 2.0**k * 0.5**k and iters[0] == 1
        value_calls = sum(not need_grad for need_grad, _ in calls)
        grad_calls = sum(need_grad for need_grad, _ in calls)
        # Rounds of 2, 4, 8, ... trials: r rounds cover 2^(r+1) - 2 of them.
        assert value_calls == (math.ceil(math.log2(k + 2)) - 1 if k else 0)
        assert grad_calls == (3 if k else 2)  # start, full step, backtracked rows
        ref_fg, ref_calls = self.counted(np.array([0.75 * 2.0**k]))
        assert X.tobytes() == reference_bfgs_rows(ref_fg, np.ones((1, 1)), cfg)[0].tobytes()
        assert sum(not need_grad for need_grad, _ in ref_calls) == k + 1  # one per trial

    @pytest.mark.parametrize("K", [3, 70])
    def test_no_call_wider_than_max_of_rows_and_60(self, K):
        # Every row stalls, so rounds of 2, 4, ..., 29 trials a row hold
        # up to 29 K rows; they are split into calls of max(K, 60) rows.
        fg, calls = self.counted(np.ones(K), island=np.ones(K, dtype=bool))
        cfg = OptimizerConfig(max_iters=1)
        out = _bfgs_rows(fg, np.ones((K, 1)), cfg)
        assert max(len(rows) for _, rows in calls) == max(K, 60)
        trials = np.bincount(np.concatenate([rows for g, rows in calls if not g]), minlength=K)
        assert trials.tolist() == [59] * K  # and the full step
        assert_matches_reference(fg, np.ones((K, 1)), cfg)
        assert not out[3].any()

    @pytest.mark.parametrize("backtrack", [0.3, 0.7])
    @pytest.mark.parametrize("armijo_c", [1e-4, 0.3])
    def test_value_on_the_armijo_bound_passes(self, backtrack, armijo_c):
        # From f(x0) = 0 with gradient g, the bound at step length t is
        # (c t) slope, which can differ from c (t slope) in its last bit.
        # The trial J where it does returns exactly the bound and must pass;
        # every other trial is NaN.
        g, x0 = 0.7, 1.0
        slope = -g * g
        t = [1.0]
        while len(t) < 60:
            t.append(t[-1] * backtrack)
        J = next(j for j, tj in enumerate(t) if armijo_c * (tj * slope) < (armijo_c * tj) * slope)
        xJ, bound = x0 + t[J] * -g, (armijo_c * t[J]) * slope

        def fg(P, rows, need_grad):
            x = P[:, 0]
            v = np.where(x == x0, 0.0, np.where(x == xJ, bound, np.nan))
            return (v, np.full((len(x), 1), g)) if need_grad else v

        cfg = OptimizerConfig(max_iters=1, armijo_c=armijo_c, backtrack=backtrack)
        X, f, _, _, _, _ = _bfgs_rows(fg, np.array([[x0]]), cfg)
        assert X[0, 0] == xJ and f[0] == bound
        assert_matches_reference(fg, np.array([[x0]]), cfg)

    def test_stalled_row_tries_60_steps_in_5_rounds(self):
        a = np.array([1.0, 0.75 * 2.0**3])
        fg, calls = self.counted(a, island=np.array([True, False]))
        X, _, iters, conv, _, _ = _bfgs_rows(fg, np.ones((2, 1)), OptimizerConfig(max_iters=1))
        trials = [np.count_nonzero(rows == 0) for need_grad, rows in calls if not need_grad]
        assert trials == [2, 4, 8, 16, 29]  # and the full step: 60 in all
        assert X[0, 0] == 1.0 and iters[0] == 1 and not conv[0]
        # Row 1 backtracks 3 times alongside, in the first two rounds.
        assert [np.count_nonzero(rows == 1) for need_grad, rows in calls if not need_grad] == [
            2, 4, 0, 0, 0
        ]
        assert X[1, 0] == 1 - 2 * 6.0 * 0.125


class TestCheckGradient:
    def test_polynomial(self):
        err = check_gradient(lambda x: (float(x[0] ** 2), np.array([2 * x[0]])), [2.0])
        assert err < 1e-8

    def test_wrong_gradient(self):
        err = check_gradient(lambda x: (float(x[0] ** 2), np.array([4 * x[0]])), [2.0])
        assert err == pytest.approx(0.5, abs=1e-6)
