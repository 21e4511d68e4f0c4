"""Parametric misalignment curve fitting.

Three forms are supported, all fit by minimizing a Huber loss on the
log-residual of a log-sum-exp combination of the saturation and power-law
terms, started from a grid of initializations and solved by BFGS:

  power:   L = E + A X^-alpha
  shifted: L = E + A (X + 10^lambda)^-alpha
  joint:   L = E + A N^-alpha + B D^-beta

E, A, B are optimized in log space (e = log E, ...), so they are
nonnegative by construction. Power and shifted fits start from the product
of every parameter's grid. Joint fits start from the grid of the exponents
only: at each (alpha, beta) node the curve is linear in (E, A, B), which
are solved by nonnegative least squares (variable projection), for every
node of every dataset of a call at once.

The forms differ in their columns and in how many power terms they sum,
so one `_Form` method reads every form's points, one builds the per-point
arrays, and one kernel evaluates E plus any number of power terms: power
has one, joint two, and shifted runs it on log(X + 10^lambda) and adds
lambda's gradient. The `_FORMS` table holds what sets each form apart.

Every fit runs here, with one objective factory (`_stacked_objective`):
a point fit is one dataset in a `minimize_batch` call, and the bootstrap's
resample fits (`_fit_resamples`) are many datasets per `_bfgs_rows` run.

The objective kernels evaluate many starts at once, in whole-array numpy:
the log-sum-exp is `numerics._logaddexp` and the loss and its derivative
come from one clip (`numerics._huber_parts`). Their vector exp and log1p
follow numpy's SIMD dispatch for the CPU, so fitted values can differ in
the last bits between CPUs.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import HuberParams, OptimizerConfig, _bfgs_rows, _huber_parts, _logaddexp, minimize_batch
from .records import RESOURCE_FIELDS

__all__ = [
    "Rescale",
    "FitConfig",
    "PowerLawFit",
    "ShiftedPowerLawFit",
    "JointFit",
    "fit_power_law",
    "fit_shifted_power_law",
    "fit_joint",
    "predict",
    "region_gain",
]

L_FLOOR = 1e-6
DEGENERATE_EPS = 1e-4
# Transition point of the Huber loss on log-residuals, as in Hoffmann et
# al. 2022; every fit and resample fit uses it, with OptimizerConfig().
HUBER_DELTA = 1e-3
_OPTIMIZER = OptimizerConfig()

X_KINDS = tuple(RESOURCE_FIELDS)


@dataclass(frozen=True)
class Rescale:
    """Variable rescaling applied before fitting to avoid large constants."""

    c_scale: float = 1e13
    n_scale: float = 1e5
    d_scale: float = 1e4

    def __post_init__(self):
        for name in ("c_scale", "n_scale", "d_scale"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # NaN fails both tests
                raise ValueError(f"{name} must be positive and finite, got {float(value)}")

    def factor(self, x_kind: str) -> float:
        if x_kind == "flops":
            return self.c_scale
        if x_kind == "params":
            return self.n_scale
        if x_kind == "samples":
            return self.d_scale
        raise ValueError(f"unknown x_kind {x_kind!r}")


@dataclass(frozen=True)
class FitConfig:
    """Start grids and rescale of a fit.

    Power and shifted fits start from the product of the grids of their
    parameters. Joint fits read only `grid_alpha` and `grid_beta` (which
    mirrors `grid_alpha` while None) and solve (E, A, B) at each node, so
    `grid_e` and `grid_a` do not affect them, and `grid_b` is read by no
    fit; it stays so existing callers keep working. The loss and the
    optimizer are fixed: HUBER_DELTA and OptimizerConfig().
    """

    grid_e: tuple = (-1.0, -0.5, 0.0, 0.5, 1.0)
    grid_a: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    grid_alpha: tuple = (0.0, 0.5, 1.0, 1.5, 2.0)
    grid_lambda: tuple = (0.0, 0.5, 1.0, 1.5, 2.0)
    # beta's start values mirror alpha's unless overridden; no fit reads grid_b.
    grid_b: tuple | None = None
    grid_beta: tuple | None = None
    rescale: Rescale = field(default_factory=Rescale)

    def __post_init__(self):
        for name in ("grid_e", "grid_a", "grid_alpha", "grid_lambda", "grid_b", "grid_beta"):
            grid = getattr(self, name)
            if grid is not None and len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            bad = [v for v in grid or () if not np.isfinite(v)]
            if bad:
                raise ValueError(f"{name} values must be finite, got {float(bad[0])}")


class _Curve:
    """Base of the fit classes; `form` names the class's `_FORMS` entry."""

    form: str

    def params(self) -> dict:
        return {p.name: getattr(self, p.field) for p in _FORMS[self.form].params}


@dataclass
class PowerLawFit(_Curve):
    E: float
    A: float
    alpha: float
    objective: float
    init_used: tuple
    degenerate: bool
    x_kind: str = "flops"
    x_scale: float = 1.0
    converged: bool = True
    n_points: int = 0

    form = "power"


@dataclass
class ShiftedPowerLawFit(_Curve):
    E: float
    A: float
    alpha: float
    lam: float
    objective: float
    init_used: tuple
    degenerate: bool
    x_kind: str = "flops"
    x_scale: float = 1.0
    converged: bool = True
    n_points: int = 0

    form = "shifted"


@dataclass
class JointFit(_Curve):
    E: float
    A: float
    alpha: float
    B: float
    beta: float
    objective: float
    init_used: tuple
    degenerate: bool
    n_scale: float = 1.0
    d_scale: float = 1.0
    converged: bool = True
    n_points: int = 0

    form = "joint"


def _clean_L(L: np.ndarray) -> np.ndarray:
    if np.any(L <= 0) or np.any(L <= L_FLOOR):
        n_low = int(np.sum(L <= L_FLOOR))
        warnings.warn(
            f"{n_low} misalignment value(s) <= {L_FLOOR} clamped to {L_FLOOR}",
            stacklevel=6,
        )
        L = np.maximum(L, L_FLOOR)
    return L


# Each form reads its points in three steps: `_Form.read` checks their shape
# and signs and returns the resource columns and L, each of shape (n,); the
# form's `counts` rules check how many points and distinct resource values
# they hold; and `_Form.arrays` turns them into the per-point arrays its
# objective reads. `_Form.data` runs all three. A subset of valid points
# passes `read`, so only `counts` can fail a bootstrap resample.


def _check_values(resources: dict, L):
    """A ValueError naming the first resource value that is not positive, NaN
    included, or else the first L that is not finite."""
    for name, values in resources.items():
        bad = values[~(values > 0)]
        if bad.size:
            raise ValueError(f"{name} values must be positive, got {float(bad[0])}")
    bad = L[~np.isfinite(L)]
    if bad.size:
        raise ValueError(f"L values must be finite, got {float(bad[0])}")


@dataclass(frozen=True)
class _Count:
    """A least number of points and of distinct values in each resource column."""

    points: int
    distinct: int
    message: str  # of the ValueError raised for data that falls short


def _distinct(V: np.ndarray) -> np.ndarray:
    """The number of distinct values in each row of V (R, n), counted as np.unique
    counts them: NaNs, which sort last, count once."""
    S = np.sort(V, axis=1)
    if S.shape[1] == 0:
        return np.zeros(len(S), dtype=int)
    rises = np.count_nonzero(S[:, 1:] > S[:, :-1], axis=1)
    return 1 + rises + (np.isnan(S[:, -1]) & ~np.isnan(S[:, 0]))


# Each form's objective evaluates K parameter rows P (K, d) against data
# arrays of shape (1, n), shared by every row, or (K, n), one row of data
# per parameter row. Returns values (K,), and gradients (K, d) if need_grad.
# The kernels form their (K, n) temporaries in place and reduce each
# gradient column straight into its column of the result. Every product
# keeps the operand order of the plain expression it stands for, as the
# operand order decides which NaN payload a product of two NaNs carries.


def _residual_parts(s, logL, hp):
    """(values (K,), dh (K, n)): the Huber loss of the residuals s - logL,
    summed per row, and its derivative."""
    h, dh = _huber_parts(np.subtract(s, logL), hp.delta)
    return np.add.reduce(h, axis=1), dh


def _grad_column(out, terms, negate=False):
    """Sum each row of `terms` into the column `out`, negated if asked."""
    np.add.reduce(terms, axis=1, out=out)
    if negate:
        np.negative(out, out=out)


def _dh_weight(dh, t, s, out):
    """dh exp(t - s), the loss derivative times that of s = logaddexp(..., t)
    in t, formed in `out`."""
    np.subtract(t, s, out=out)
    np.exp(out, out=out)
    return np.multiply(dh, out, out=out)


def _power_fg(P, *args, weights=False):
    """The kernel of E plus power terms t_j = a_j - alpha_j logX_j, called as
    fg(P, logX_1, ..., logL, hp, need_grad): one term for the power form,
    N and D for the joint form. P's columns are e, then a_j and alpha_j per
    term, and s = logaddexp(logaddexp(t_1, t_2, ...), e).

    Returns values (K,), or, if need_grad, (values, g): g (K, d) holds the
    gradient columns e, then (a_j, alpha_j) per term, its columns past those
    left for the caller. With `weights` a third item lists each term's
    dh exp(t_j - s).
    """
    *logX, logL, hp, need_grad = args
    e = P[:, 0:1]
    terms = []
    for c, logXj in zip(range(1, P.shape[1], 2), logX):
        t = np.multiply(P[:, c + 1 : c + 2], logXj)
        terms.append(np.subtract(P[:, c : c + 1], t, out=t))
    s = terms[0]
    for t in terms[1:]:
        s = _logaddexp(s, t)
    s = _logaddexp(s, e)
    fv, dh = _residual_parts(s, logL, hp)
    if not need_grad:
        return fv
    g = np.empty(P.shape)
    for t in terms:  # each t becomes its dh exp(t - s)
        _dh_weight(dh, t, s, out=t)
    _grad_column(g[:, 0], _dh_weight(dh, e, s, out=s))
    for c, w, logXj in zip(range(1, P.shape[1], 2), terms, logX):
        _grad_column(g[:, c], w)
        _grad_column(g[:, c + 1], np.multiply(w, logXj, out=s), negate=True)
    return (fv, g, terms) if weights else (fv, g)


_LN10 = np.log(10.0)


def _shifted_fg(P, X, logL, hp, need_grad, freeze_lambda=False):
    """The power kernel on log(X + 10^lambda), with lambda's gradient column."""
    al, lam = P[:, 2:3], P[:, 3:4]
    shift = np.power(10.0, lam)
    Xs = np.add(X, shift)
    out = _power_fg(P, np.log(Xs), logL, hp, need_grad, weights=True)
    if not need_grad:
        return out
    fv, g, (dhw,) = out
    if freeze_lambda:
        g[:, 3] = 0.0
    else:
        np.multiply(dhw, al, out=dhw)
        dhw *= shift * _LN10
        _grad_column(g[:, 3], np.divide(dhw, Xs, out=dhw), negate=True)
    return fv, g


# Upper bound on rows x points in one kernel call, which bounds the
# kernel's (rows, n) temporaries however many rows a call holds.
_CHUNK_ELEMS = 8192

# Overflow/invalid arithmetic from diverging starts is expected: the
# minimizer masks out non-finite objective rows, so it is silenced here.


def _in_blocks(kernel, K: int, n: int, need_grad: bool):
    """kernel(lo, hi), the kernel on rows lo:hi of data of n points, over
    rows 0:K in blocks of at most _CHUNK_ELEMS // n rows, with the results
    concatenated: one array, or with need_grad the pair (values,
    gradients). A row's results do not depend on the block it falls in, as
    the kernels and the projection are elementwise along the rows."""
    block = max(1, _CHUNK_ELEMS // n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if K <= block:
            return kernel(0, K)
        parts = [kernel(lo, min(lo + block, K)) for lo in range(0, K, block)]
    if not need_grad:
        return np.concatenate(parts)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _stacked_objective(fg, data, starts: int, **kw):
    """The objective fg(P, rows=None, need_grad=True) of fits over R datasets.

    `data` holds per-point arrays of shape (R, n), one row per dataset, such
    as the arrays of all points gathered at each bootstrap resample's
    indices; batch row r belongs to dataset r // starts. With one dataset
    (R = 1) every row reads the (1, n) arrays as they are and `rows` is not
    needed, which is how `minimize_batch` calls it. `fg` gets `kw` and the
    loss at HUBER_DELTA. The rows are evaluated in blocks of at most
    _CHUNK_ELEMS // n.
    """
    hp = HuberParams(HUBER_DELTA)
    n = data[0].shape[1]
    shared = len(data[0]) == 1

    def objective(P, rows=None, need_grad=True):
        owner = None if shared else rows // starts

        def kernel(lo, hi):
            arrays = data if shared else [a.take(owner[lo:hi], axis=0) for a in data]
            return fg(P[lo:hi], *arrays, hp, need_grad, **kw)

        return _in_blocks(kernel, len(P), n, need_grad)

    return objective


def _power_objective(logX: np.ndarray, logL: np.ndarray):
    """Power-law objective on one dataset, log X and log L of shape (1, n)."""
    return _stacked_objective(_power_fg, (logX, logL), 1)


# Start value of a linear coefficient the projection solves as zero, so
# its logarithm is finite.
_COEF_FLOOR = 1e-12

# Every nonempty support of the projection's three columns, smallest first.
_SUPPORTS = [list(s) for k in (1, 2, 3) for s in itertools.combinations(range(3), k)]


def _det(M: np.ndarray) -> np.ndarray:
    """Determinant of each trailing k x k block of M, k <= 3, by cofactors of row 0."""
    if M.shape[-1] == 1:
        return M[..., 0, 0]
    return sum(
        (-1) ** j * M[..., 0, j] * _det(np.delete(M[..., 1:, :], j, axis=-1))
        for j in range(M.shape[-1])
    )


def _nonneg_lstsq(U: np.ndarray) -> np.ndarray:
    """x >= 0 minimizing ||x @ U - 1|| for each leading row of U (K, 3, n).

    Every nonempty support of the 3 columns is solved from its normal
    equations by Cramer's rule; the feasible solution (finite, all >= 0)
    with the least sum of squares wins, the smaller support on a tie. A
    one-column support of a positive U is always feasible. A support with
    two equal columns has a zero determinant, so its non-finite solution
    is skipped. Elementwise numpy only, so the result does not depend on
    the BLAS build or thread count.
    """
    K = len(U)
    M = np.sum(U[:, :, None, :] * U[:, None, :, :], axis=-1)
    r = np.sum(U, axis=-1)
    best, best_sse = np.zeros((K, 3)), np.full(K, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for S in _SUPPORTS:
            Ms = M[:, S][:, :, S]
            det = _det(Ms)
            x = np.zeros((K, 3))
            for i, j in enumerate(S):
                Mi = Ms.copy()
                Mi[:, :, i] = r[:, S]
                x[:, j] = _det(Mi) / det
            sse = np.sum((np.sum(x[:, S, None] * U[:, S], axis=1) - 1.0) ** 2, axis=-1)
            better = np.all(np.isfinite(x) & (x >= 0), axis=1) & (sse < best_sse)
            best[better], best_sse[better] = x[better], sse[better]
    return best


def _joint_project(data, nodes) -> np.ndarray:
    """Joint starts (e, a, alpha, b, beta), one row per node of each dataset.

    `data` holds the per-point arrays of R datasets, each of shape (R, n);
    row r * len(nodes) + k starts dataset r at its k-th (alpha, beta) node.
    At fixed exponents L = E + A N^-alpha + B D^-beta is linear in (E, A,
    B), which are solved by nonnegative least squares on residuals relative
    to L; a zero coefficient starts at _COEF_FLOOR. The rows are solved in
    blocks of at most _CHUNK_ELEMS // n, each independently of its block.
    """
    R, n = data[0].shape
    alpha, beta = np.array(nodes, dtype=float).T
    owner, node = np.divmod(np.arange(R * len(alpha)), len(alpha))

    def solve(lo, hi):
        lN, lD, lL = (x.take(owner[lo:hi], axis=0) for x in data)
        k = node[lo:hi, None]
        U = np.stack([np.exp(-lL), np.exp(-alpha[k] * lN - lL), np.exp(-beta[k] * lD - lL)], axis=1)
        return _nonneg_lstsq(U)

    coef = _in_blocks(solve, len(owner), n, need_grad=False)
    e, a, b = np.log(np.maximum(coef, _COEF_FLOOR)).T
    return np.column_stack([e, a, alpha[node], b, beta[node]])


@dataclass(frozen=True)
class _Param:
    """One curve parameter, as the fits, reports and start grids name it."""

    name: str  # key in params() and in fit reports
    field: str  # fit-class field
    grid: str  # FitConfig field holding its start values
    log: bool = False  # optimized as its logarithm, so it stays nonnegative
    degeneracy: bool = True  # a value below DEGENERATE_EPS marks the fit degenerate
    mirrors: str | None = None  # FitConfig grid used while `grid` is None

    def axis(self, cfg: FitConfig) -> tuple:
        """Its start values in `cfg`."""
        grid = getattr(cfg, self.grid)
        return grid if grid is not None else getattr(cfg, self.mirrors)


_E = _Param("E", "E", "grid_e", log=True, degeneracy=False)
_A = _Param("A", "A", "grid_a", log=True)
_ALPHA = _Param("alpha", "alpha", "grid_alpha")
_LAMBDA = _Param("lambda", "lam", "grid_lambda", degeneracy=False)
_B = _Param("B", "B", "grid_b", log=True)
_BETA = _Param("beta", "beta", "grid_beta", mirrors="grid_alpha")

# Resource kind (X_KINDS) of the n and d input columns; an x column has
# the fit's x_kind.
_COLUMN_KINDS = {"n": "params", "d": "samples"}


@dataclass(frozen=True)
class _Form:
    """Everything that sets one curve form apart, for fitting, bootstrap and CLI.

    The forms differ in their columns, parameters, counts rules and
    kernel; the point checks, the per-point arrays and the starts are
    written once, from those. A fit's parameter vector holds `params` in
    order, the log ones as logarithms. Its start grid is the product of
    their axes, or, for a form with `project`, of the other parameters'
    axes only: the log parameters are then linear coefficients, solved at
    each node. The form's fit class records the rescale divisor of each
    resource column in the matching `scales` field, and a form in one
    resource x also its x_kind.
    """

    fit_class: type
    fitter: str  # name of the public fit_* function of this module
    params: tuple  # _Param per parameter-vector entry
    columns: tuple  # input columns: the resources, then l
    scales: tuple  # fit-class field per resource column
    counts: tuple  # _Count rules the points must meet, checked in order
    fg: Callable  # (P, *data, hp, need_grad) -> values[, gradients]
    options: tuple = ()  # keyword options of the fit_* function beyond x_kind
    project: Callable | None = None  # (data, nodes) -> (R * nodes, d) starts
    raw: bool = False  # fg reads the rescaled resources themselves, not their logs

    @property
    def resources(self) -> tuple:
        """The input columns but l, as `predict` names its arguments."""
        return self.columns[:-1]

    @property
    def x_axis(self) -> bool:
        """Whether the curve is in one resource x of a given x_kind."""
        return self.resources == ("x",)

    def kinds(self, x_kind: str) -> tuple:
        """The resource kind of each resource column."""
        return tuple(_COLUMN_KINDS.get(c, x_kind) for c in self.resources)

    def read(self, points, x_kind: str):
        """(resource columns, L) of `points`, each of shape (n,).

        Checks, in order, the shape (n, len(columns)), the x_kind of a form
        in one resource x, and the values (`_check_values`); the columns
        are named by their upper-cased `columns` entries.
        """
        names = [c.upper() for c in self.columns]
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != len(names):
            raise ValueError(f"points must have shape (n, {len(names)}) of ({', '.join(names)})")
        if self.x_axis and x_kind not in X_KINDS:
            raise ValueError(f"unknown x_kind {x_kind!r}")
        *resources, L = pts.T
        _check_values(dict(zip(names, resources)), L)
        return resources, L

    def data(self, points, cfg: FitConfig, x_kind: str) -> tuple:
        """The per-point arrays of `points` that `fg` reads (`arrays`).

        Raises the ValueError the form's fit_* function documents for points
        it rejects; clamps L at L_FLOOR, with a warning.
        """
        resources, L = self.read(points, x_kind)
        for rule, short in zip(self.counts, self.count_faults([c[None, :] for c in resources])):
            if short[0]:
                raise ValueError(rule.message)
        return self.arrays(resources, L, cfg, x_kind)

    def arrays(self, resources, L, cfg: FitConfig, x_kind: str) -> tuple:
        """The per-point arrays of the columns `read` returns, each of shape (n,):
        each resource divided by its kind's rescale factor, as its log unless
        `raw`, then log L, clamped at L_FLOOR with a warning."""
        scaled = [c / cfg.rescale.factor(k) for c, k in zip(resources, self.kinds(x_kind))]
        return (*(scaled if self.raw else map(np.log, scaled)), np.log(_clean_L(L)))

    def count_faults(self, resources) -> list:
        """Per `counts` rule, which of R datasets fall short of it.

        `resources` holds each resource column of the datasets, of shape (R, n).
        """
        n = resources[0].shape[1]
        distinct = np.min([_distinct(c) for c in resources], axis=0)
        return [(n < rule.points) | (distinct < rule.distinct) for rule in self.counts]

    def grid(self, cfg: FitConfig) -> list:
        """The start grid's nodes in `cfg`."""
        axes = (p.axis(cfg) for p in self.params if self.project is None or not p.log)
        return list(itertools.product(*axes))

    def starts(self, data, nodes: list) -> np.ndarray:
        """P0 (R * len(nodes), d): the parameter vectors the fits of R datasets
        start from, one per node of `grid` each. `data` holds the datasets'
        per-point arrays, each of shape (R, n); a form with `project` solves
        every node of every dataset in one call."""
        if self.project is None:
            return np.tile(np.array(nodes, dtype=float), (len(data[0]), 1))
        return self.project(data, nodes)

    def values(self, P: np.ndarray) -> np.ndarray:
        """The fit-class values of parameter rows P (m, d), in `params` order:
        each log column through one np.exp, which gives the bits of one
        np.exp per value."""
        V = P.copy()
        for j, p in enumerate(self.params):
            if p.log:
                V[:, j] = np.exp(P[:, j])
        return V

    def result(self, best, objective, converged, init, cfg: FitConfig, x_kind: str, n_points: int):
        """The fit of parameter vector `best` (d,), with its objective, converged
        flag and start tuple `init`."""
        (values,) = self.values(best[None, :]).tolist()
        units = {s: cfg.rescale.factor(k) for s, k in zip(self.scales, self.kinds(x_kind))}
        if self.x_axis:
            units["x_kind"] = x_kind
        return self.fit_class(
            **{p.field: v for p, v in zip(self.params, values)},
            **units,
            objective=float(objective),
            init_used=init,
            degenerate=any(v < DEGENERATE_EPS for p, v in zip(self.params, values) if p.degeneracy),
            converged=bool(converged),
            n_points=n_points,
        )

    def run_fitter(self, fitter: Callable, points, cfg: FitConfig, x_kind: str, **options):
        """Call `fitter`, this form's fit_* function, which takes x_kind if x_axis."""
        if self.x_axis:
            return fitter(points, cfg, x_kind, **options)
        return fitter(points, cfg, **options)


_X_COUNTS = (_Count(3, 3, "need at least 3 points with 3 distinct X values"),)
_ND_COUNTS = (
    _Count(5, 0, "need at least 5 points"),
    _Count(0, 2, "insufficient span: need >= 2 distinct N and >= 2 distinct D"),
)

_FORMS = {
    "power": _Form(
        PowerLawFit, "fit_power_law",
        params=(_E, _A, _ALPHA), columns=("x", "l"), scales=("x_scale",),
        counts=_X_COUNTS, fg=_power_fg,
    ),
    "shifted": _Form(
        ShiftedPowerLawFit, "fit_shifted_power_law",
        params=(_E, _A, _ALPHA, _LAMBDA), columns=("x", "l"), scales=("x_scale",),
        counts=_X_COUNTS, fg=_shifted_fg, options=("freeze_lambda",), raw=True,
    ),
    "joint": _Form(
        JointFit, "fit_joint",
        params=(_E, _A, _ALPHA, _B, _BETA), columns=("n", "d", "l"), scales=("n_scale", "d_scale"),
        counts=_ND_COUNTS, fg=_power_fg, project=_joint_project,
    ),
}


def _form(name: str, what: str = "form") -> _Form:
    """The `_FORMS` entry of `name`; ValueError naming the known forms."""
    if name not in _FORMS:
        raise ValueError(f"unknown {what} {name!r}; known: {tuple(_FORMS)}")
    return _FORMS[name]


def _select_best(X: np.ndarray, f: np.ndarray):
    """The best start of each dataset, from X (datasets, starts, d) and f (datasets, starts).

    Lowest finite objective; ties by smaller alpha (column 2 in every form),
    then start order. Returns (index, found), each of shape (datasets,);
    found is False for a dataset whose every objective is non-finite.
    """
    finite = np.isfinite(f)
    f = np.where(finite, f, np.inf)
    order = np.lexsort((np.broadcast_to(np.arange(f.shape[1]), f.shape), X[:, :, 2], f), axis=-1)
    return order[:, 0], np.any(finite, axis=1)


def _fit(kind: str, points, cfg: FitConfig, x_kind: str, **objective_kw):
    """Validate, minimize from every start, keep the best start."""
    form = _FORMS[kind]
    data = form.data(points, cfg, x_kind)
    shared = [a[None, :] for a in data]
    nodes = form.grid(cfg)
    fg = _stacked_objective(form.fg, shared, len(nodes), **objective_kw)
    P0 = form.starts(shared, nodes)
    P, fvals, _, conv, _ = minimize_batch(fg, P0, _OPTIMIZER)
    (k,), (found,) = _select_best(P[None], fvals[None])
    if not found:
        raise RuntimeError("all grid minimizations diverged to non-finite objectives")
    init = nodes[k] if form.project is None else tuple(P0[k].tolist())
    return form.result(P[k], fvals[k], conv[k], init, cfg, x_kind, len(data[0]))


# Upper bound on resamples x starts in one `_bfgs_rows` run, enough for
# every warm resample of a default 1,000-resample bootstrap; a run always
# holds at least one resample. Its objective evaluates the rows in blocks
# (_CHUNK_ELEMS), so the cap bounds only the optimizer's own per-row state.
_RUN_ROWS = 2048


def _fit_resamples(points, draws, fit_kind, cfg: FitConfig, x_kind) -> np.ndarray:
    """Fit every resample `points[idx]` for idx in `draws`, in batched runs.

    Returns the parameters found, one row per draw of an (R, d) array in the
    form's `params` order, holding the values the fit class would hold. A
    row is NaN where fitting that resample alone would raise: it falls
    short of one of the form's `counts` rules, one of its starts is not
    finite at the initial point, or every start diverges.

    `points` must pass the form's checks as a whole, as the point estimate's
    do. They are read once and their per-point arrays computed once; a
    resample's arrays are those arrays at its indices, as every step is
    elementwise. The resamples of each length share one `_bfgs_rows` run,
    or several where resamples x starts would pass _RUN_ROWS, so no data is
    padded. The counts rules take one array pass per length, and the starts
    (for joint fits, every resample's projection) and best starts one call
    per run. Each resample's rows run exactly the arithmetic its lone
    `_fit` would, the line search included, which tries the step lengths
    of many rows, and several of one row, in one objective call.
    """
    form = _FORMS[fit_kind]
    resources, L = form.read(points, x_kind)
    data = form.arrays(resources, L, cfg, x_kind)
    nodes = form.grid(cfg)
    starts = len(nodes)
    per_run = max(1, _RUN_ROWS // starts)
    by_len = {}
    for i, idx in enumerate(draws):
        by_len.setdefault(len(idx), []).append(i)

    params = np.full((len(draws), len(form.params)), np.nan)
    for members in by_len.values():
        index = np.array([draws[i] for i in members])
        short = np.logical_or.reduce(form.count_faults([column[index] for column in resources]))
        members, index = np.array(members)[~short], index[~short]
        for c in range(0, len(members), per_run):
            run = members[c : c + per_run]
            stacked = [a[index[c : c + per_run]] for a in data]
            P0 = form.starts(stacked, nodes)
            fg = _stacked_objective(form.fg, stacked, starts)
            X, f, _, _, _, started = _bfgs_rows(fg, P0, _OPTIMIZER)
            best, found = _select_best(X.reshape(len(run), starts, -1), f.reshape(len(run), starts))
            ok = np.flatnonzero(found & started.reshape(len(run), starts).all(axis=1))
            params[run[ok]] = form.values(X[ok * starts + best[ok]])
    return params


def fit_power_law(points, cfg: FitConfig = FitConfig(), x_kind: str = "flops") -> PowerLawFit:
    """Fit L = E + A X^-alpha over the initialization grid; keep the best."""
    return _fit("power", points, cfg, x_kind)


def fit_shifted_power_law(
    points,
    cfg: FitConfig = FitConfig(),
    x_kind: str = "flops",
    freeze_lambda: bool = False,
) -> ShiftedPowerLawFit:
    """Fit L = E + A (X + 10^lambda)^-alpha.

    lambda is seeded from the grid and optimized jointly by default;
    freeze_lambda keeps each grid value fixed during descent.
    """
    return _fit("shifted", points, cfg, x_kind, freeze_lambda=freeze_lambda)


def fit_joint(points, cfg: FitConfig = FitConfig()) -> JointFit:
    """Fit L = E + A N^-alpha + B D^-beta.

    Starts at every (alpha, beta) node of grid_alpha x grid_beta (which
    mirrors grid_alpha while None), with (E, A, B) solved at the node.
    """
    return _fit("joint", points, cfg, "flops")


def predict(fit, x=None, n=None, d=None):
    """Evaluate a fitted curve; returns (L, S) with S = 1 - L.

    Power/shifted fits take raw `x` (rescaled internally with the scale the
    fit was made with); joint fits take raw `n` and `d`. A fit whose
    parameters are (k, 1) columns, one row per fit, gives one row of L per
    fit, each equal to that fit's own curve bit for bit.
    """
    if isinstance(fit, JointFit):
        if n is None or d is None:
            raise ValueError("joint predict requires n and d")
        n = np.asarray(n, dtype=float)
        d = np.asarray(d, dtype=float)
        if not (np.all(n > 0) and np.all(d > 0)):  # NaN fails too
            raise ValueError("inputs must be positive")
        with np.errstate(over="ignore"):
            # X**p may overflow to inf for extreme fitted exponents; the
            # resulting term A/inf = 0 is the correct limit.
            L = (
                fit.E
                + fit.A / (n / fit.n_scale) ** fit.alpha
                + fit.B / (d / fit.d_scale) ** fit.beta
            )
    else:
        if x is None:
            raise ValueError("predict requires x")
        x = np.asarray(x, dtype=float)
        if not np.all(x > 0):  # NaN fails too
            raise ValueError("inputs must be positive")
        xs = x / fit.x_scale
        if isinstance(fit, ShiftedPowerLawFit):
            # 10**lam by Python's float power, one value at a time: numpy's
            # vector power can differ from it in the last bit, and a fit
            # whose parameters are columns must give each fit's own curve.
            shift = np.reshape([10.0**v for v in np.ravel(fit.lam).tolist()], np.shape(fit.lam))
            L = fit.E + fit.A * (xs + shift) ** (-fit.alpha)
        elif isinstance(fit, PowerLawFit):
            L = fit.E + fit.A * xs ** (-fit.alpha)
        else:
            raise TypeError(f"unknown fit type {type(fit)!r}")
    S = 1.0 - L
    if np.ndim(L):
        return L, S
    return float(L), float(S)


def region_gain(fit: PowerLawFit) -> float:
    """Scale sensitivity of a fitted region curve, A * 10^alpha."""
    if fit.degenerate:
        return 0.0
    return float(fit.A * 10.0**fit.alpha)
