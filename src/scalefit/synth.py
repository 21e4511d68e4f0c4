"""Seeded synthetic-data generators used as independent oracles."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import BenchmarkData

__all__ = [
    "CurveGenerator",
    "BenchmarkGenerator",
    "SynthBenchmark",
    "gen_curve_points",
    "gen_benchmark",
    "subsample_counts",
    "gen_behavior_task",
]

# Images-per-category subsampling pattern used for dataset-size sweeps.
SUBSAMPLE_PER_CLASS = (1, 3, 10, 30, 100, 300)


def subsample_counts(n_classes: int, per_class=SUBSAMPLE_PER_CLASS) -> np.ndarray:
    """Total sample counts for the per-class subsampling grid."""
    return np.array([d * n_classes for d in per_class], dtype=float)


@dataclass(frozen=True)
class CurveGenerator:
    """Closed-form curve sampler with multiplicative log-normal noise."""

    form: str  # "power", "shifted", or "joint"
    true_params: dict = field(default_factory=dict)
    x_grid: tuple = ()
    n_grid: tuple = ()
    d_grid: tuple = ()
    noise_sigma_log: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.form not in ("power", "shifted", "joint"):
            raise ValueError(f"unknown form {self.form!r}")
        if self.noise_sigma_log < 0:
            raise ValueError("noise_sigma_log must be >= 0")


def gen_curve_points(g: CurveGenerator) -> np.ndarray:
    """Sample (X, L) or (N, D, L) rows from the generator's closed form.

    Noise is applied in log space: L_obs = L_true * exp(eps),
    eps ~ Normal(0, sigma^2).
    """
    p = g.true_params
    rng = np.random.default_rng(g.seed)
    if g.form == "joint":
        N, D = np.meshgrid(
            np.asarray(g.n_grid, dtype=float), np.asarray(g.d_grid, dtype=float)
        )
        N, D = N.ravel(), D.ravel()
        if not np.all((0 < N) & (N < np.inf) & (0 < D) & (D < np.inf)):
            raise ValueError("grids must be positive and finite")
        L = p["E"] + p["A"] / N ** p["alpha"] + p["B"] / D ** p["beta"]
        if g.noise_sigma_log > 0:
            L = L * np.exp(rng.normal(0.0, g.noise_sigma_log, size=L.shape))
        return np.column_stack([N, D, L])

    X = np.asarray(g.x_grid, dtype=float)
    if not np.all((0 < X) & (X < np.inf)):  # NaN fails both tests
        raise ValueError("grids must be positive and finite")
    if g.form == "power":
        L = p["E"] + p["A"] * X ** (-p["alpha"])
    else:
        L = p["E"] + p["A"] * (X + 10.0 ** p["lambda"]) ** (-p["alpha"])
    if g.noise_sigma_log > 0:
        L = L * np.exp(rng.normal(0.0, g.noise_sigma_log, size=L.shape))
    return np.column_stack([X, L])


@dataclass(frozen=True)
class BenchmarkGenerator:
    """Linear-map benchmark with a known per-neuroid Pearson ceiling."""

    n_stimuli: int = 100
    n_features: int = 10
    n_neuroids: int = 8
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_stimuli < 20:
            raise ValueError("n_stimuli must be >= 20")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")

    @staticmethod
    def sigma_for_pearson(rho: float) -> float:
        """Noise level giving theoretical per-neuroid Pearson rho."""
        if not 0 < rho <= 1:
            raise ValueError("rho must lie in (0, 1]")
        return float(np.sqrt(1.0 / rho**2 - 1.0))


@dataclass
class SynthBenchmark:
    data: BenchmarkData
    theoretical_r: float
    linear_map: np.ndarray


def gen_benchmark(g: BenchmarkGenerator, region: str = "IT", ceiling: float = 1.0) -> SynthBenchmark:
    """Draw activations ~ N(0,1), recordings = activations @ map + noise.

    Map columns are unit-norm, so every neuroid shares the theoretical
    Pearson r = 1 / sqrt(1 + sigma^2) against a perfect linear readout.
    """
    rng = np.random.default_rng(g.seed)
    acts = rng.standard_normal((g.n_stimuli, g.n_features))
    lin = rng.standard_normal((g.n_features, g.n_neuroids))
    lin /= np.linalg.norm(lin, axis=0, keepdims=True)
    rec = acts @ lin
    if g.noise_sigma > 0:
        rec = rec + g.noise_sigma * rng.standard_normal(rec.shape)
    data = BenchmarkData(
        stimulus_ids=[f"s{i}" for i in range(g.n_stimuli)],
        activations=acts,
        recordings=rec,
        ceiling=ceiling,
        region=region,
    )
    theo = 1.0 / float(np.sqrt(1.0 + g.noise_sigma**2))
    return SynthBenchmark(data=data, theoretical_r=theo, linear_map=lin)


def gen_behavior_task(
    n_train: int = 2160,
    n_test: int = 240,
    n_classes: int = 4,
    n_features: int = 8,
    separation: float = 2.0,
    seed: int = 0,
):
    """Gaussian-blob classification task with an analytic Bayes confusion pattern.

    Class means are `separation`-scaled random unit vectors, features have
    unit isotropic noise, so the Bayes posterior is a softmax of linear
    scores. Returns (train_features, train_labels, test_features,
    test_labels, bayes_pattern) where bayes_pattern follows the
    image-major, ascending-class flattening.
    """
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, n_features))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)

    def draw(n):
        labels = rng.integers(0, n_classes, size=n)
        feats = means[labels] + rng.standard_normal((n, n_features))
        return feats, labels

    Xtr, ytr = draw(n_train)
    Xte, yte = draw(n_test)

    # Bayes posterior under equal priors and unit isotropic covariance.
    scores = Xte @ means.T - 0.5 * np.sum(means**2, axis=1)
    scores -= scores.max(axis=1, keepdims=True)
    post = np.exp(scores)
    post /= post.sum(axis=1, keepdims=True)
    bayes = []
    for i in range(n_test):
        for c in range(n_classes):
            if c != yte[i]:
                bayes.append(post[i, c])
    return Xtr, ytr, Xte, yte, np.array(bayes)
