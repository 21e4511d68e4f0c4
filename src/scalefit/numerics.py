"""Robust-loss primitives, log-domain helpers, and a quasi-Newton minimizer.

Everything here is pure and deterministic: identical inputs produce
bit-identical outputs, which the fitting and bootstrap layers rely on.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "HuberParams",
    "OptimizerConfig",
    "MinimizeResult",
    "huber",
    "huber_deriv",
    "lse",
    "loglog_linreg",
    "minimize",
    "minimize_batch",
    "check_gradient",
]


@dataclass(frozen=True)
class HuberParams:
    """Transition point of the Huber loss (quadratic below, linear above)."""

    delta: float = 1e-3

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-8
    armijo_c: float = 1e-4
    backtrack: float = 0.5

    def __post_init__(self):
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must be in (0, 1)")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack must be in (0, 1)")


@dataclass
class MinimizeResult:
    x_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    grad_norm: float


def _huber_parts(r, delta: float):
    """(loss, derivative) of the Huber loss at r, both from one clip.

    The derivative is dh = clip(r, -delta, delta) and the loss |dh (r - dh/2)|,
    which is 0.5 r^2 within delta and delta (|r| - 0.5 delta) beyond, bit for
    bit. The abs only turns the -0.0 that r = -0.0 gives into +0.0.
    """
    dh = np.clip(r, -delta, delta)
    return np.abs(dh * (r - 0.5 * dh)), dh


def huber(r, params: HuberParams = HuberParams()):
    """Huber loss: 0.5 r^2 for |r| <= delta, delta (|r| - 0.5 delta) beyond."""
    out = _huber_parts(np.asarray(r, dtype=float), params.delta)[0]
    return out if out.ndim else float(out)


def huber_deriv(r, params: HuberParams = HuberParams()):
    """Derivative of the Huber loss; equals clip(r, -delta, delta)."""
    r = np.asarray(r, dtype=float)
    out = np.clip(r, -params.delta, params.delta)
    return out if out.ndim else float(out)


def lse(terms) -> float:
    """Log-sum-exp with max-shift, log sum_i exp(t_i)."""
    t = np.asarray(terms, dtype=float)
    if t.size == 0:
        raise ValueError("lse requires at least one term")
    m = np.max(t)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(t - m))))


def _logaddexp(x, y):
    """np.logaddexp(x, y) by its own formula, max(x, y) + log1p(exp(-|x - y|)),
    in vector ufuncs where np.logaddexp runs a scalar loop.

    The vector exp and log1p can differ from the scalar ones in the last bits:
    the result is within 2 ulp of max(|x|, |y|, |np.logaddexp(x, y)|) of
    np.logaddexp's. Equal infinities give that infinity, and a NaN gives NaN.
    """
    t = np.subtract(x, y)
    np.abs(t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    # x - y is NaN only for a NaN, which the max carries, or for equal
    # infinities, whose sum is the max itself.
    np.fmax(t, 0.0, out=t)
    t += np.maximum(x, y)
    return t


def loglog_linreg(x, y) -> tuple[float, float, float]:
    """OLS of log y on log x; returns (intercept, slope, r2).

    For a power law y = m x^n this recovers intercept = log m, slope = n.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("loglog_linreg requires strictly positive values")
    lx, ly = np.log(x), np.log(y)
    if np.unique(lx).size < 2:
        raise ValueError("degenerate x: need at least 2 distinct values")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(intercept), float(slope), r2


# Relative curvature threshold: the BFGS update needs s.y above this
# fraction of ||s|| ||y||, i.e. a cosine between s and y above it.
_CURVATURE_RTOL = 1e-10

# A batch objective maps params (K, d) -> values (K,) when need_grad is
# False, or (values (K,), gradients (K, d)) when True.
BatchObjective = Callable


def minimize_batch(fg: BatchObjective, x0: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()):
    """Run K independent BFGS descents simultaneously.

    `x0` has shape (K, d). Each row is minimized with an inverse-Hessian
    BFGS update and Armijo backtracking. Accepted steps are monotone
    non-increasing in the objective. Returns (X, f, iterations, converged,
    grad_norm) with leading dimension K. Raises ValueError if the objective
    is not finite at one of the initial points.

    A row's inverse Hessian is updated only when the step s and gradient
    change y satisfy the curvature condition s.y > 1e-10 ||s|| ||y||. The
    test is relative, so it does not depend on the scale of the objective
    and keeps updating as the objective and its gradient approach zero. A
    row whose update is not finite keeps its previous inverse Hessian.
    """

    def fg_rows(P, rows, need_grad):
        return fg(P) if need_grad else fg(P, need_grad=False)

    X, f, iters, converged, gnorm, started = _bfgs_rows(fg_rows, x0, cfg)
    if not np.all(started):
        raise ValueError("objective is not finite at an initial point")
    return X, f, iters, converged, gnorm


def _bfgs_rows(fg, x0: np.ndarray, cfg: OptimizerConfig):
    """BFGS core of `minimize_batch` for objectives that depend on the row.

    `fg(P, rows, need_grad)` evaluates the rows `rows` of `x0` (indices into
    its first axis) at the parameters P, one row of P per index. A row whose
    objective is not finite at its initial point is left where it is and
    never stepped; the other rows run exactly as they would without it.
    Returns (X, f, iterations, converged, grad_norm, started), where
    `started` is False for those rows.
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


def _fd_gradient(f_only, x: np.ndarray, step: float) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f_only(x + e) - f_only(x - e)) / (2 * step)
    return g


def minimize(f, x0, cfg: OptimizerConfig = OptimizerConfig()) -> MinimizeResult:
    """BFGS with Armijo backtracking for a single starting point.

    `f(x)` must return `(value, gradient)`, the gradient analytic;
    `check_gradient` tests it against central differences.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def fg(X, need_grad=True):
        if not need_grad:
            return np.array([f(x)[0] for x in X])
        pairs = [f(x) for x in X]
        vals = np.array([p[0] for p in pairs])
        grads = np.array([np.atleast_1d(np.asarray(p[1], dtype=float)) for p in pairs])
        return vals, grads

    Xs, fs, iters, conv, gn = minimize_batch(fg, x0[None, :], cfg)
    return MinimizeResult(
        x_star=Xs[0],
        f_star=float(fs[0]),
        iterations=int(iters[0]),
        converged=bool(conv[0]),
        grad_norm=float(gn[0]),
    )


def check_gradient(f, x, fd_step: float = 1e-6) -> float:
    """Relative discrepancy between analytic and central-difference gradients.

    `f(x)` must return `(value, gradient)`. Compared by vector norm,
    ||g - g_fd|| / max(||g||, ||g_fd||): components that are negligibly
    small relative to the gradient as a whole are dominated by finite-
    difference cancellation noise and should not fail the check.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _, g = f(x)
    g = np.atleast_1d(np.asarray(g, dtype=float))
    g_fd = _fd_gradient(lambda z: f(z)[0], x, fd_step)
    denom = max(float(np.linalg.norm(g)), float(np.linalg.norm(g_fd)), 1e-12)
    return float(np.linalg.norm(g - g_fd) / denom)
