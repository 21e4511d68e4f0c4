import math

import numpy as np
import pytest

from scalefit.allocation import (
    ComputeModel,
    allocation_coefficients,
    brute_force_allocation,
    fit_compute_model,
    optimal_allocation,
)
from scalefit.scaling import JointFit


def make_fit(E=0.3, A=1.0, alpha=0.5, B=2.0, beta=0.5, degenerate=False):
    return JointFit(
        E=E, A=A, alpha=alpha, B=B, beta=beta,
        objective=0.0, init_used=(), degenerate=degenerate,
    )


def runs_from_compute(pairs, m=6.0, n=1.0):
    return [(N, D, m * (N * D) ** n) for N, D in pairs]


class TestComputeModel:
    PAIRS = [(10.0, 100.0), (100.0, 1e3), (1e3, 1e4), (1e4, 1e4), (50.0, 2e4)]

    def test_exact_linear(self):
        cm = fit_compute_model(runs_from_compute(self.PAIRS))
        assert cm.m == pytest.approx(6.0, rel=1e-9)
        assert cm.n == pytest.approx(1.0, abs=1e-12)
        assert cm.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_powerlaw(self):
        cm = fit_compute_model(runs_from_compute(self.PAIRS, m=2.0, n=1.1))
        assert cm.m == pytest.approx(2.0, rel=1e-9)
        assert cm.n == pytest.approx(1.1, rel=1e-12)

    def test_compute_and_inverse(self):
        cm = ComputeModel(m=2.0, n=1.1, r2=1.0, n_points=5)
        c = cm.compute(1e3, 1e4)
        assert c == pytest.approx(2.0 * 1e7**1.1, rel=1e-12)
        assert cm.nd_product(c) == pytest.approx(1e7, rel=1e-12)

    def test_needs_distinct_products(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_compute_model([(10.0, 10.0, 600.0), (100.0, 1.0, 600.0)])

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            fit_compute_model([(10.0, 10.0, 600.0)])


class TestCoefficients:
    def test_hand_values(self):
        # alpha=0.1, beta=0.3: a' = 0.75, b' = 0.25,
        # G = (0.1*2 / (0.3*0.6))^(1/0.4) = (10/9)^2.5
        fit = make_fit(A=2.0, alpha=0.1, B=0.6, beta=0.3)
        co = allocation_coefficients(fit)
        assert co.a_prime == pytest.approx(0.75, abs=1e-15)
        assert co.b_prime == pytest.approx(0.25, abs=1e-15)
        assert co.G == pytest.approx((10.0 / 9.0) ** 2.5, rel=1e-12)

    def test_sum_to_one_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            fit = make_fit(alpha=rng.uniform(0.05, 2), beta=rng.uniform(0.05, 2))
            co = allocation_coefficients(fit)
            assert co.a_prime + co.b_prime == 1.0

    def test_symmetric_exponents(self):
        co = allocation_coefficients(make_fit(A=1.0, alpha=0.5, B=1.0, beta=0.5))
        assert co.a_prime == 0.5
        assert co.G == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            allocation_coefficients(make_fit(degenerate=True))
        with pytest.raises(ValueError):
            allocation_coefficients(make_fit(alpha=0.0))


class TestOptimalAllocation:
    def test_symmetric_unit_case(self):
        # alpha=beta, A=B, m=6, n=1: N* = D* = sqrt(C/6)
        fit = make_fit(A=1.0, alpha=0.5, B=1.0, beta=0.5)
        cm = ComputeModel(m=6.0, n=1.0, r2=1.0, n_points=5)
        res = optimal_allocation(fit, cm, budget_c=6e6)
        assert res.n_star == pytest.approx(1000.0, rel=1e-12)
        assert res.d_star == pytest.approx(1000.0, rel=1e-12)

    def test_product_constraint(self):
        fit = make_fit(A=1.3, alpha=0.34, B=2.1, beta=0.28)
        cm = ComputeModel(m=2.0, n=1.1, r2=1.0, n_points=5)
        for c in (1e3, 1e6, 1e9):
            res = optimal_allocation(fit, cm, budget_c=c)
            assert res.n_star * res.d_star == pytest.approx(cm.nd_product(c), rel=1e-12)

    def test_budget_scaling_law(self):
        # N*(kC)/N*(C) = k^(a'/n)
        fit = make_fit(A=1.0, alpha=0.7, B=1.0, beta=0.3)
        cm = ComputeModel(m=6.0, n=1.0, r2=1.0, n_points=5)
        co = allocation_coefficients(fit)
        base = optimal_allocation(fit, cm, budget_c=1e6)
        for k in (2.0, 10.0):
            res = optimal_allocation(fit, cm, budget_c=k * 1e6)
            assert res.n_star / base.n_star == pytest.approx(k ** (co.a_prime / cm.n), rel=1e-10)
            assert res.d_star / base.d_star == pytest.approx(k ** (co.b_prime / cm.n), rel=1e-10)

    def test_predicted_loss_matches_curve(self):
        fit = make_fit(A=1.3, alpha=0.34, B=2.1, beta=0.28)
        cm = ComputeModel(m=6.0, n=1.0, r2=1.0, n_points=5)
        res = optimal_allocation(fit, cm, budget_c=1e8)
        direct = (
            fit.E + fit.A * res.n_star**-fit.alpha + fit.B * res.d_star**-fit.beta
        )
        assert res.predicted_L == pytest.approx(direct, rel=1e-12)

    def test_rejects_nonpositive_budget(self):
        fit = make_fit()
        cm = ComputeModel(m=6.0, n=1.0, r2=1.0, n_points=5)
        with pytest.raises(ValueError):
            optimal_allocation(fit, cm, budget_c=0.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_rejects_non_finite_budget(self, budget):
        fit = make_fit()
        cm = ComputeModel(m=6.0, n=1.0, r2=1.0, n_points=5)
        with pytest.raises(ValueError, match="budget_c must be positive and finite"):
            optimal_allocation(fit, cm, budget_c=budget)


class TestFitScales:
    """A fit made in rescaled units allocates in raw units."""

    def scaled_pair(self):
        raw = make_fit(A=1.3, alpha=0.34, B=2.1, beta=0.28)
        # The same curve in units of 1e5 parameters and 1e4 samples.
        scaled = JointFit(
            E=raw.E, A=raw.A / 1e5**raw.alpha, alpha=raw.alpha,
            B=raw.B / 1e4**raw.beta, beta=raw.beta,
            objective=0.0, init_used=(), degenerate=False, n_scale=1e5, d_scale=1e4,
        )
        return raw, scaled

    @pytest.mark.parametrize("allocate", [optimal_allocation, brute_force_allocation])
    def test_scaled_fit_matches_unit_fit(self, allocate):
        raw, scaled = self.scaled_pair()
        cm = ComputeModel(m=6.0, n=1.0, r2=1.0, n_points=5)
        for c in (1e12, 1e20):
            want, got = allocate(raw, cm, c), allocate(scaled, cm, c)
            assert got.n_star == pytest.approx(want.n_star, rel=1e-12)
            assert got.d_star == pytest.approx(want.d_star, rel=1e-12)
            assert got.predicted_L == pytest.approx(want.predicted_L, rel=1e-12)
            assert cm.compute(got.n_star, got.d_star) == pytest.approx(c, rel=1e-12)


class TestBruteForce:
    def test_agrees_with_closed_form(self):
        fit = make_fit(A=1.3, alpha=0.34, B=2.1, beta=0.28)
        cm = ComputeModel(m=6.0, n=1.0, r2=1.0, n_points=5)
        closed = optimal_allocation(fit, cm, budget_c=1e9)
        brute = brute_force_allocation(fit, cm, budget_c=1e9, grid_points=10000)
        cell = 12.0 / (10000 - 1)
        assert abs(math.log10(brute.n_star) - math.log10(closed.n_star)) <= cell
        assert brute.n_star * brute.d_star == pytest.approx(
            cm.nd_product(1e9), rel=1e-10
        )

    def test_closed_form_not_worse(self):
        fit = make_fit(A=0.9, alpha=0.6, B=3.0, beta=0.2)
        cm = ComputeModel(m=2.0, n=1.05, r2=1.0, n_points=5)
        closed = optimal_allocation(fit, cm, budget_c=1e7)
        brute = brute_force_allocation(fit, cm, budget_c=1e7)
        assert closed.predicted_L <= brute.predicted_L + 1e-10

    def test_methods_labeled(self):
        fit = make_fit()
        cm = ComputeModel(m=6.0, n=1.0, r2=1.0, n_points=5)
        assert optimal_allocation(fit, cm, budget_c=1e6).method == "closed_form"
        assert brute_force_allocation(fit, cm, budget_c=1e6).method == "brute_force"
