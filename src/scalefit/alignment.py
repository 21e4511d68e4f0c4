"""Benchmark scoring: linear readout of neural data, confusion-pattern
correlation for behavior, and ceiling normalization."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import OptimizerConfig
# Unused; kept for bench/selftest.py::test_shims_reach_every_importing_module.
from .numerics import minimize  # noqa: F401

__all__ = [
    "BenchmarkData",
    "BehaviorData",
    "ScoreReport",
    "pearson",
    "neural_score",
    "behavior_score",
    "ceiling_normalize",
]

NEURAL_REGIONS = ("V1", "V2", "V4", "IT")

# Smallest eigenvalue ratio at which neural_score solves a split's normal
# equations directly; below it the split falls back to min-norm lstsq.
_GRAM_EIG_RATIO = 1e-8


@dataclass
class BenchmarkData:
    """Paired stimulus x feature activations and stimulus x neuroid recordings."""

    stimulus_ids: list
    activations: np.ndarray
    recordings: np.ndarray
    ceiling: float
    region: str

    def __post_init__(self):
        self.activations = np.asarray(self.activations, dtype=float)
        self.recordings = np.asarray(self.recordings, dtype=float)
        if self.activations.shape[0] != self.recordings.shape[0]:
            raise ValueError(
                "activations and recordings must share the stimulus axis: "
                f"{self.activations.shape[0]} vs {self.recordings.shape[0]}"
            )
        if len(self.stimulus_ids) != self.activations.shape[0]:
            raise ValueError("stimulus_ids length must match the stimulus axis")
        if np.isnan(self.activations).any() or np.isnan(self.recordings).any():
            raise ValueError("NaN entries are not allowed")
        if not 0.0 < self.ceiling <= 1.0:
            raise ValueError("ceiling must lie in (0, 1]")
        if self.region not in NEURAL_REGIONS:
            raise ValueError(f"unknown region {self.region!r}")


@dataclass
class BehaviorData:
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    primate_pattern: np.ndarray
    ceiling: float

    def __post_init__(self):
        self.train_features = np.asarray(self.train_features, dtype=float)
        self.test_features = np.asarray(self.test_features, dtype=float)
        self.train_labels = np.asarray(self.train_labels)
        self.test_labels = np.asarray(self.test_labels)
        self.primate_pattern = np.asarray(self.primate_pattern, dtype=float)
        if not 0.0 < self.ceiling <= 1.0:
            raise ValueError("ceiling must lie in (0, 1]")
        classes = np.unique(self.train_labels)
        missing = np.setdiff1d(np.unique(self.test_labels), classes)
        if missing.size:
            raise ValueError(f"test labels absent from training set: {missing}")
        expected = self.test_features.shape[0] * (classes.size - 1)
        if self.primate_pattern.size != expected:
            raise ValueError(
                f"pattern length {self.primate_pattern.size} != "
                f"test_images x (classes - 1) = {expected}"
            )


@dataclass
class ScoreReport:
    raw: float
    ceiled: float
    ceiling: float
    per_neuroid: np.ndarray
    n_repeats: int
    seed: int
    aggregate: str = "median"


def _column_pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson correlation of each column of x with the same column of y.

    Exact at +-1 for (anti-)identical columns; NaN where a column is constant.
    """
    a = x - x.mean(axis=0)
    b = y - y.mean(axis=0)
    num = (a * b).sum(axis=0)
    den = (a * a).sum(axis=0) * (b * b).sum(axis=0)
    # num^2/den == 1 bit-exactly when b == +-a, because both sides are the
    # same computed product; plain num/sqrt(den) can land one ulp off 1.
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.copysign(np.sqrt(np.minimum(num * num / den, 1.0)), num)
    return np.where(den == 0.0, np.nan, r)


def pearson(x, y) -> float:
    """Pearson correlation, exact at +-1 for (anti-)identical inputs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(_column_pearson(x[:, None], y[:, None])[0])


def ceiling_normalize(raw: float, ceiling: float) -> float:
    """Divide a raw score by its ceiling; flags supra-ceiling results."""
    if ceiling <= 0:
        raise ValueError("ceiling must be positive")
    out = raw / ceiling
    if out > 1.0:
        warnings.warn(f"ceiled score {out:.4f} exceeds 1", stacklevel=2)
    return out


def neural_score(
    data: BenchmarkData,
    repeats: int = 10,
    train_fraction: float = 0.9,
    seed: int = 0,
    ridge: float = 0.0,
    aggregate: str = "median",
) -> ScoreReport:
    """Cross-validated linear readout score.

    Each repeat draws a seeded random train/test split, fits a linear map
    with intercept from activations to recordings on the train split, and
    computes the Pearson correlation per neuroid on held-out stimuli.
    Neuroids are combined by `aggregate` (median by default), repeats by
    the mean.

    The normal equations XᵀX and XᵀY are formed once over all stimuli, from
    features centered on their all-stimulus mean (the intercept absorbs
    the shift, so a large feature mean does not make XᵀX look
    ill-conditioned), and each split subtracts its held-out rows. With
    ``ridge > 0`` the split solves XᵀX + ridge·I (intercept not shrunk). With ``ridge == 0`` a
    split whose XᵀX is singular or ill-conditioned (eigenvalue ratio at
    most ``_GRAM_EIG_RATIO``, or no more training stimuli than weights)
    takes the min-norm least-squares solution on its training rows, with
    uncentered features, since a min-norm solution depends on the shift.
    """
    n = data.activations.shape[0]
    if n < 20:
        raise ValueError("need at least 20 stimuli")
    if not 0.5 < train_fraction <= 0.95:
        raise ValueError("train_fraction must lie in (0.5, 0.95]")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if aggregate not in ("median", "mean"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    n_train = round(train_fraction * n)
    if n - n_train < 3:
        raise ValueError("too few held-out stimuli (< 3)")

    A, Y = data.activations, data.recordings
    p, q = A.shape[1] + 1, Y.shape[1]
    use_gram = ridge > 0 or n_train > p  # else the Gram matrix outgrows X
    X = None  # uncentered, built by the first split that falls back
    if use_gram:
        Xc = np.hstack([A, np.ones((n, 1))])
        Xc[:, :-1] -= A.mean(axis=0)
        G, XY = Xc.T @ Xc, Xc.T @ Y
        reg = ridge * np.eye(p)
        reg[-1, -1] = 0.0  # intercept not shrunk
    rng = np.random.default_rng(seed)
    repeat_scores = []
    per_neuroid_sum = np.zeros(q)
    per_neuroid_cnt = np.zeros(q)
    for _ in range(repeats):
        perm = rng.permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
        actual = Y[te]
        W = None
        if use_gram:
            Xte = Xc[te]
            Gtr = G - Xte.T @ Xte + reg
            if ridge > 0 or _well_conditioned(Gtr):
                W = np.linalg.solve(Gtr, XY - Xte.T @ actual)
        if W is None:
            if X is None:
                X = np.hstack([A, np.ones((n, 1))])
            Xte = X[te]
            W = np.linalg.lstsq(X[tr], Y[tr], rcond=None)[0]
        zero_var = np.ptp(actual, axis=0) == 0.0
        for j in np.flatnonzero(zero_var):
            warnings.warn(
                f"neuroid {j}: zero variance on held-out split, excluded",
                stacklevel=2,
            )
        rs = _column_pearson(Xte @ W, actual)
        rs[np.isnan(rs)] = 0.0  # constant prediction: no predictivity
        rs[zero_var] = np.nan
        valid = ~zero_var
        per_neuroid_sum[valid] += rs[valid]
        per_neuroid_cnt[valid] += 1
        agg = np.median(rs[valid]) if aggregate == "median" else np.mean(rs[valid])
        repeat_scores.append(agg)

    raw = float(np.mean(repeat_scores))
    with np.errstate(invalid="ignore"):
        per_neuroid = np.where(per_neuroid_cnt > 0, per_neuroid_sum / per_neuroid_cnt, np.nan)
    return ScoreReport(
        raw=raw,
        ceiled=ceiling_normalize(raw, data.ceiling),
        ceiling=data.ceiling,
        per_neuroid=per_neuroid,
        n_repeats=repeats,
        seed=seed,
        aggregate=aggregate,
    )


def _well_conditioned(gram: np.ndarray) -> bool:
    """Whether a symmetric Gram matrix is safe to solve directly."""
    eig = np.linalg.eigvalsh(gram)
    return bool(eig[0] > eig[-1] * _GRAM_EIG_RATIO)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def fit_logistic(
    X: np.ndarray,
    labels: np.ndarray,
    l2: float = 1e-4,
    grad_tol: float = 1e-10,
    max_iters: int = 100,
):
    """Multinomial logistic classifier by Newton's method on the exact Hessian.

    Minimizes the mean cross-entropy plus 0.5·l2·‖W‖², the intercept row
    not penalized, from zero weights (iteratively reweighted least squares).
    Each step is the min-norm least-squares solution of H·p = −∇: adding
    the same constant to every class's intercept leaves the objective
    unchanged, so H is singular along that direction and the intercepts
    stay centered across classes. Armijo backtracking follows. The loop
    ends when max|∇| ≤ grad_tol, when the line search finds no acceptable
    step, after an accepted step that leaves the objective unchanged and
    does not lower max|∇|, or after max_iters steps; it never raises on a
    stall. At that rounding floor Armijo's test passes only by rounding,
    and further steps would spend the budget without measurable progress.

    The steps are taken on features centered on their mean, with the
    intercept absorbing the shift, so a large common offset does not make
    H ill-conditioned. The weights returned, and the gradient that
    grad_tol bounds, are those of the uncentered features.

    Returns (classes, weights) where weights has shape (features + 1,
    n_classes), last row the intercept. Deterministic.
    """
    classes, y = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise ValueError("need at least 2 classes")
    n, f = X.shape
    k = classes.size
    d = (f + 1) * k
    mu = X.mean(axis=0)
    Xa = np.hstack([X - mu, np.ones((n, 1))])
    true = (np.arange(n), y)
    onehot = np.zeros((n, k))
    onehot[true] = 1.0
    penalized = np.ones((f + 1, k))
    penalized[-1, :] = 0.0  # intercept unpenalized
    # H's class-diagonal blocks, in W.ravel() order: row (i, a) meets columns (j, a).
    rows = np.arange(d)[:, None]
    block_cols = np.arange(f + 1)[None, :] * k + rows % k
    pen_diag = np.arange(f * k)
    others = 1.0 - np.eye(k)  # P @ others sums the other classes' probabilities
    cfg = OptimizerConfig()

    def loss(W):
        Z = Xa @ W
        Z -= Z.max(axis=1, keepdims=True)
        e = np.exp(Z)
        s = e.sum(axis=1)
        ce = np.sum(np.log(s) - Z[true]) / n
        return ce + 0.5 * l2 * np.sum(penalized * W * W), e / s[:, None]

    W = np.zeros((f + 1, k))
    val, P = loss(W)
    unchanged, last_gmax = False, np.inf
    for _ in range(max_iters):
        G = Xa.T @ (P - onehot) / n + l2 * penalized * W
        G_raw = G.copy()  # gradient with respect to the uncentered weights
        G_raw[:-1] += np.outer(mu, G[-1])
        gmax = np.max(np.abs(G_raw))
        if gmax <= grad_tol or (unchanged and gmax >= last_gmax):
            break
        last_gmax = gmax
        # n·H = Σ_r Xa_r Xa_rᵀ ⊗ (diag(p_r) − p_r p_rᵀ). Off the class diagonal
        # it is −MᵀM, with M[r, (i, a)] = Xa[r, i]·P[r, a]. The diagonal
        # blocks Xaᵀ diag(p_a·Σ_{b≠a} p_b) Xa are formed directly: their
        # weights, summed without cancelling 1 − p_a, keep H's rows summing
        # to zero along the flat direction when some p_a is near 1.
        M = np.einsum("ri,ra->ria", Xa, P).reshape(n, d)
        H = -(M.T @ M)
        N = np.einsum("ri,ra->ria", Xa, P * (P @ others)).reshape(n, d)
        H[rows, block_cols] = N.T @ Xa
        H /= n
        H[pen_diag, pen_diag] += l2
        p = np.linalg.lstsq(H, -G.ravel(), rcond=None)[0].reshape(f + 1, k)
        slope = np.sum(G * p)
        if not slope < 0:
            break
        t = 1.0
        for _bt in range(60):
            cand = W + t * p
            fc, Pc = loss(cand)
            if np.isfinite(fc) and fc <= val + cfg.armijo_c * t * slope:
                break
            t *= cfg.backtrack
        else:
            break  # no acceptable step: stalled at rounding level
        unchanged = fc == val
        W, val, P = cand, fc, Pc
    W[-1] -= mu @ W[:-1]
    return classes, W


def confusion_pattern(
    probs: np.ndarray, true_labels: np.ndarray, classes: np.ndarray
) -> np.ndarray:
    """Flattened image x incorrect-class probability pattern.

    Image-major order; within an image, incorrect classes in ascending
    class order (the true class is skipped).
    """
    true_labels = np.asarray(true_labels)
    return probs[np.asarray(classes)[None, :] != true_labels[:, None]]


def behavior_score(data: BehaviorData, seed: int = 0) -> ScoreReport:
    """Confusion-pattern correlation between classifier and primate reference."""
    classes, W = fit_logistic(data.train_features, data.train_labels)
    Xte = np.hstack([data.test_features, np.ones((data.test_features.shape[0], 1))])
    probs = _softmax(Xte @ W)
    pattern = confusion_pattern(probs, data.test_labels, classes)
    if pattern.size != data.primate_pattern.size:
        raise ValueError("confusion pattern length mismatch")
    raw = pearson(pattern, data.primate_pattern)
    return ScoreReport(
        raw=raw,
        ceiled=ceiling_normalize(raw, data.ceiling),
        ceiling=data.ceiling,
        per_neuroid=np.array([]),
        n_repeats=1,
        seed=seed,
        aggregate="pattern",
    )
