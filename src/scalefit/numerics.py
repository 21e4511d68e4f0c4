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
    """(loss, derivative) of the Huber loss at an array r, both from one clip.

    The derivative is dh = clip(r, -delta, delta), formed as
    min(max(r, -delta), delta), which gives clip's bits, NaN and -0.0
    included. The loss is |dh (r - dh/2)|, which is 0.5 r^2 within delta and
    delta (|r| - 0.5 delta) beyond, bit for bit. The abs only turns the -0.0
    that r = -0.0 gives into +0.0.
    """
    dh = np.minimum(np.maximum(r, -delta), delta)
    h = 0.5 * dh
    np.subtract(r, h, out=h)
    np.multiply(dh, h, out=h)
    return np.abs(h, out=h), dh


def huber(r, params: HuberParams = HuberParams()):
    """Huber loss: 0.5 r^2 for |r| <= delta, delta (|r| - 0.5 delta) beyond."""
    r = np.asarray(r, dtype=float)
    out = _huber_parts(np.atleast_1d(r), params.delta)[0]
    return out if r.ndim else float(out[0])


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
    -|x - y| is formed as min(x, y) - max(x, y), whose rounding is that of
    x - y with the sign turned, and which reuses the max.
    """
    m = np.maximum(x, y)
    t = np.minimum(x, y)
    t -= m
    np.exp(t, out=t)
    np.log1p(t, out=t)
    # min - max is NaN only for a NaN, which the max carries, or for equal
    # infinities, whose sum is the max itself.
    np.fmax(t, 0.0, out=t)
    t += m
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

    An iteration calls `fg` a few times: the full steps with their
    gradients, then the trial step lengths of the rows that backtrack in
    batches of 2, 4, 8, ... per row, then the gradients where those rows
    stop. So one call may hold several trial points of one row, and `fg`
    must give each row of P the value it would give that row alone, with
    or without need_grad. Every row takes the step, and gets the result,
    that trying one step length at a time would give it.

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


# Trial step lengths a row's line search tries per iteration: 1, backtrack,
# backtrack^2, ...
_TRIALS = 60


def _step_lengths(backtrack: float) -> np.ndarray:
    """The _TRIALS step lengths, each the previous one times `backtrack`."""
    t = np.empty(_TRIALS)
    t[0] = 1.0
    for j in range(1, _TRIALS):
        t[j] = t[j - 1] * backtrack
    return t


def _bfgs_rows(fg, x0: np.ndarray, cfg: OptimizerConfig):
    """BFGS core of `minimize_batch` for objectives that depend on the row.

    `fg(P, rows, need_grad)` evaluates the rows `rows` of `x0` (indices into
    its first axis) at the parameters P, one row of P per index; an index
    may repeat, once per trial step of that row. A row's value must not
    depend on need_grad or on the other rows of the call. A row whose
    objective is not finite at its initial point is left where it is and
    never stepped; the other rows run exactly as they would without it.
    The arrays `fg` returns are kept and written to, so each call must
    return new ones. Returns (X, f, iterations, converged, grad_norm,
    started), where `started` is False for those rows.

    Each iteration tries the full step of every stepping row with its
    gradient. The rows that reject it try their next step lengths together,
    2 per row in one call, then 4, 8 and so on, up to _TRIALS in all; each
    row takes the first that passes Armijo, as trying one at a time would,
    and one gradient call serves the rows that backtracked. No call holds
    more than max(K, _TRIALS) rows, so from K = _TRIALS on no call is wider
    than the first, which evaluates every row. The state of the stepping
    rows is held apart and written back as each row stops; it is gathered
    anew only in an iteration where a row stops.
    """
    X = np.array(x0, dtype=float)
    if X.ndim != 2:
        raise ValueError("x0 must have shape (K, d)")
    K, d = X.shape
    f, g = fg(X, np.arange(K), True)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    started = np.isfinite(f)

    iters = np.zeros(K, dtype=int)
    gnorm = np.maximum.reduce(np.abs(g), axis=1) if d else np.zeros(K)
    converged = started & (gnorm <= cfg.grad_tol)

    # The stepping rows: their index in x0, point, value, gradient, its
    # max-norm and inverse Hessian.
    rows = np.flatnonzero(started & ~converged)
    Xa, fa, ga, gna = X[rows], f[rows], g[rows], gnorm[rows]
    eye = np.eye(d)
    Ha = np.repeat(eye[None, :, :], rows.size, axis=0)
    steps = _step_lengths(cfg.backtrack)
    armijo = cfg.armijo_c * steps
    cap = max(K, _TRIALS)  # rows per objective call

    for it in range(cfg.max_iters):
        if rows.size == 0:
            break
        p = np.einsum("kij,kj->ki", Ha, ga)
        np.negative(p, out=p)
        slope = np.add.reduce(p * ga, axis=1)
        bad = slope >= 0  # not a descent direction; reset to steepest descent
        if bad.any():
            p[bad] = -ga[bad]
            slope[bad] = -np.add.reduce(ga[bad] ** 2, axis=1)
            Ha[bad] = eye

        # Armijo backtracking line search: the full step, with its gradient.
        Xn = Xa + p
        fn, gn = fg(Xn, rows, True)
        fn = np.asarray(fn, dtype=float)
        gn = np.asarray(gn, dtype=float)
        accepted = np.isfinite(fn) & (fn <= fa + armijo[0] * slope)

        if not accepted.all():
            # The rows that reject it try their next step lengths in batches.
            backtracking = searching = np.flatnonzero(~accepted)
            tried, width = 1, 2
            while searching.size and tried < _TRIALS:
                k = min(width, _TRIALS - tried)
                t = steps[tried : tried + k]
                cand = Xa[searching, None, :] + t[None, :, None] * p[searching, None, :]
                flat, owner = cand.reshape(-1, d), np.repeat(rows[searching], k)
                fc = np.concatenate(
                    [
                        np.asarray(fg(flat[i : i + cap], owner[i : i + cap], False), dtype=float)
                        for i in range(0, len(flat), cap)
                    ]
                ).reshape(-1, k)
                ok = np.isfinite(fc) & (
                    fc <= fa[searching, None] + armijo[tried : tried + k] * slope[searching, None]
                )
                hit = ok.any(axis=1)
                first = np.argmax(ok[hit], axis=1)
                took = searching[hit]
                Xn[took] = cand[hit, first]
                fn[took] = fc[hit, first]
                accepted[took] = True
                searching = searching[~hit]
                tried += k
                width *= 2
            took = backtracking[accepted[backtracking]]
            if took.size:
                _, gb = fg(Xn[took], rows[took], True)
                gn[took] = np.asarray(gb, dtype=float)

            # Rows where the line search stalled make no further progress;
            # the others carry on.
            stalled = np.flatnonzero(~accepted)
            if stalled.size:
                out = rows[stalled]
                X[out], f[out], gnorm[out], iters[out] = Xa[stalled], fa[stalled], gna[stalled], it + 1
                aj = np.flatnonzero(accepted)
                rows, Xa, ga, Ha, Xn, fn, gn = (a[aj] for a in (rows, Xa, ga, Ha, Xn, fn, gn))

        s = Xn - Xa
        y = gn - ga
        sy = np.add.reduce(s * y, axis=1)
        s_norm = np.sqrt(np.add.reduce(s * s, axis=1))
        y_norm = np.sqrt(np.add.reduce(y * y, axis=1))
        # Every row's update is formed, and a row takes it where it passes
        # the curvature test and is finite; a row's update does not depend
        # on the others.
        Hn = _bfgs_update(Ha, s, y, sy)
        take = sy > _CURVATURE_RTOL * s_norm * y_norm
        finite = np.isfinite(Hn)
        if not (take.all() and finite.all()):
            take &= finite.all(axis=(1, 2))
            Hn = np.where(take[:, None, None], Hn, Ha)
        Ha = Hn

        gn_max = np.maximum.reduce(np.abs(gn), axis=1)
        done = gn_max <= cfg.grad_tol
        if done.any():
            out = rows[done]
            X[out], f[out], gnorm[out], iters[out] = Xn[done], fn[done], gn_max[done], it + 1
            converged[out] = True
            keep = ~done
            rows, Xn, fn, gn, gn_max, Ha = (a[keep] for a in (rows, Xn, fn, gn, gn_max, Ha))
        Xa, fa, ga, gna = Xn, fn, gn, gn_max

    # Rows still stepping ran every iteration.
    X[rows], f[rows], gnorm[rows], iters[rows] = Xa, fa, gna, cfg.max_iters
    return X, f, iters, converged, gnorm, started


def _bfgs_update(H, s, y, sy):
    """The BFGS update of each inverse Hessian H (k, d, d) by its step s and
    gradient change y (k, d), with sy = s.y:

        H - rho (s (Hy)^T + (Hy) s^T) + (rho^2 yHy + rho) s s^T,  rho = 1 / sy.

    The (d, d) blocks are scaled and summed as rows of d * d elements, the
    same arithmetic in fewer, longer passes. A tiny s.y can overflow rho or
    rho^2 yHy; such rows come out non-finite, without a warning.
    """
    k, d = s.shape
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rho = 1.0 / sy
        Hy = np.einsum("kij,kj->ki", H, y)
        yHy = np.add.reduce(y * Hy, axis=1)
        sHy = np.einsum("ki,kj->kij", s, Hy)
        Hn = (sHy + sHy.transpose(0, 2, 1)).reshape(k, d * d)
        Hn *= rho[:, None]
        np.subtract(H.reshape(k, d * d), Hn, out=Hn)
        ss = np.einsum("ki,kj->kij", s, s).reshape(k, d * d)
        ss *= (rho * rho * yHy + rho)[:, None]
        Hn += ss
    return Hn.reshape(k, d, d)


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
