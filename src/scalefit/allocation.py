"""Compute model C = m (N D)^n and compute-optimal (N*, D*) allocation.

Compute models, budgets and allocations are in raw units (FLOPs,
parameters, samples). A joint fit's coefficients are in its own rescaled
units; the allocation applies the fit's n_scale and d_scale, as
`predict` does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import loglog_linreg
from .scaling import JointFit, predict

__all__ = [
    "ComputeModel",
    "AllocationCoefficients",
    "AllocationResult",
    "fit_compute_model",
    "allocation_coefficients",
    "optimal_allocation",
    "brute_force_allocation",
]

# Width, in decades of N, of the brute-force oracle's grid around the closed-form optimum.
SPAN_DECADES = 12.0


@dataclass(frozen=True)
class ComputeModel:
    m: float
    n: float
    r2: float
    n_points: int

    def __post_init__(self):
        if self.m <= 0 or self.n <= 0:
            raise ValueError("compute model requires m > 0 and n > 0")

    def compute(self, n_params, samples):
        return self.m * (np.asarray(n_params) * np.asarray(samples)) ** self.n

    def nd_product(self, budget_c: float) -> float:
        """The N*D product implied by a compute budget."""
        return float((budget_c / self.m) ** (1.0 / self.n))


@dataclass(frozen=True)
class AllocationCoefficients:
    a_prime: float
    b_prime: float
    G: float


@dataclass(frozen=True)
class AllocationResult:
    budget_C: float
    n_star: float
    d_star: float
    predicted_L: float
    method: str  # "closed_form" or "brute_force"


def fit_compute_model(runs) -> ComputeModel:
    """Log-log regression of flops against N * D over (N, D, flops) triples."""
    runs = list(runs)
    nd = np.array([float(n) * float(d) for n, d, _ in runs])
    c = np.array([float(f) for _, _, f in runs])
    if nd.size < 2 or np.unique(nd).size < 2:
        raise ValueError("need at least 2 runs with distinct N*D products")
    intercept, slope, r2 = loglog_linreg(nd, c)
    return ComputeModel(m=float(np.exp(intercept)), n=slope, r2=r2, n_points=nd.size)


def allocation_coefficients(fit: JointFit) -> AllocationCoefficients:
    """a' = beta/(alpha+beta), b' = 1 - a', G = (alpha A / (beta B))^(1/(alpha+beta))."""
    if fit.degenerate:
        raise ValueError("allocation requires a non-degenerate joint fit")
    alpha, beta, A, B = fit.alpha, fit.beta, fit.A, fit.B
    if alpha <= 0 or beta <= 0 or A <= 0 or B <= 0:
        raise ValueError("allocation requires alpha, beta, A, B all positive")
    a_prime = beta / (alpha + beta)
    b_prime = 1.0 - a_prime
    G = (alpha * A / (beta * B)) ** (1.0 / (alpha + beta))
    return AllocationCoefficients(a_prime=a_prime, b_prime=b_prime, G=G)


def optimal_allocation(fit: JointFit, cm: ComputeModel, budget_c: float) -> AllocationResult:
    """Closed-form minimizer of predicted misalignment on the budget surface:

    N* = G (C/m')^(a'/n),  D* = G^-1 (C/m')^(b'/n)

    in the fit's units, where m' = m (n_scale d_scale)^n; N* and D* are
    returned in raw units.
    """
    if not 0 < budget_c < np.inf:
        raise ValueError("budget_c must be positive and finite")
    coef = allocation_coefficients(fit)
    base = budget_c / (cm.m * (fit.n_scale * fit.d_scale) ** cm.n)
    n_star = fit.n_scale * coef.G * base ** (coef.a_prime / cm.n)
    d_star = fit.d_scale / coef.G * base ** (coef.b_prime / cm.n)
    return AllocationResult(
        budget_C=budget_c,
        n_star=float(n_star),
        d_star=float(d_star),
        predicted_L=predict(fit, n=n_star, d=d_star)[0],
        method="closed_form",
    )


def brute_force_allocation(
    fit: JointFit,
    cm: ComputeModel,
    budget_c: float,
    grid_points: int = 10_000,
) -> AllocationResult:
    """Grid-search oracle for the constrained argmin.

    Parameterizes the budget surface by N on a log grid SPAN_DECADES wide,
    centered on the closed-form optimum, sets D = (C/m)^(1/n) / N, and
    returns the grid argmin (ties broken toward smaller N).
    """
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")
    closed = optimal_allocation(fit, cm, budget_c)
    half = SPAN_DECADES / 2.0
    n_grid = closed.n_star * np.logspace(-half, half, grid_points)
    nd = cm.nd_product(budget_c)
    d_grid = nd / n_grid
    L = predict(fit, n=n_grid, d=d_grid)[0]
    k = int(np.argmin(L))  # first minimum: smallest N since n_grid ascends
    return AllocationResult(
        budget_C=budget_c,
        n_star=float(n_grid[k]),
        d_star=float(d_grid[k]),
        predicted_L=float(L[k]),
        method="brute_force",
    )
