"""Acceptance suite: ten independent pass/fail gates, one test each.

Every test prints a single "ACCEPT <n> <name>: PASS" line on success (a
failure raises before the print). Tolerances are pinned here and should
not be loosened without revisiting the corresponding decision record.
"""
import json
import math
import time

import numpy as np
import pytest

from scalefit.alignment import (
    _softmax,
    behavior_score,
    confusion_pattern,
    fit_logistic,
    neural_score,
)
from scalefit.allocation import (
    ComputeModel,
    allocation_coefficients,
    brute_force_allocation,
    fit_compute_model,
    optimal_allocation,
)
from scalefit.alignment import BehaviorData
from scalefit.cli import main as cli_main
from scalefit.numerics import HuberParams, check_gradient, huber, lse
from scalefit.scaling import (
    FitConfig,
    JointFit,
    Rescale,
    _power_objective,
    fit_joint,
    fit_power_law,
    region_gain,
)
from scalefit.synth import BenchmarkGenerator, CurveGenerator, gen_behavior_task, gen_benchmark, gen_curve_points
from scalefit.uncertainty import BootstrapConfig, bootstrap_fit

ID_CFG = FitConfig(rescale=Rescale(1.0, 1.0, 1.0))


def _ok(n, name):
    print(f"ACCEPT {n} {name}: PASS")


def test_01_power_law_recovery():
    """100 random noise-free generators recovered within 1% in < 60 s."""
    rng = np.random.default_rng(20260823)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        true = {
            "E": rng.uniform(0.0, 1.0),
            "A": rng.uniform(0.1, 5.0),
            "alpha": rng.uniform(0.05, 1.0),
        }
        lo = rng.uniform(-3, 0)
        g = CurveGenerator(
            form="power",
            true_params=true,
            x_grid=tuple(np.logspace(lo, lo + rng.uniform(4.0, 6.0), 30)),
        )
        fit = fit_power_law(gen_curve_points(g), ID_CFG)
        for key, got in (("E", fit.E), ("A", fit.A), ("alpha", fit.alpha)):
            if true[key] == 0.0:
                continue
            rel = abs(got - true[key]) / abs(true[key])
            worst = max(worst, rel)
            assert rel < 0.01, f"{key}: {got} vs {true[key]} (rel {rel:.2e})"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _ok(1, f"power-law recovery (worst rel {worst:.2e}, {elapsed:.1f}s)")


def test_02_paper_curve_regression():
    """Fig. 1b neural and behavioral curves, sigma_log = 0.02, 60 points."""
    x = tuple(np.logspace(-3, 3, 60))
    neural = CurveGenerator(
        form="power", true_params={"E": 0.52, "A": 0.55, "alpha": 0.16},
        x_grid=x, noise_sigma_log=0.02, seed=0,
    )
    nf = fit_power_law(gen_curve_points(neural), ID_CFG)
    assert abs(nf.E - 0.52) <= 0.02, f"neural E {nf.E}"
    assert abs(nf.alpha - 0.16) <= 0.02, f"neural alpha {nf.alpha}"

    behav = CurveGenerator(
        form="power", true_params={"E": 0.0, "A": 1.4, "alpha": 0.06},
        x_grid=x, noise_sigma_log=0.02, seed=2,
    )
    bf = fit_power_law(gen_curve_points(behav), ID_CFG)
    assert abs(bf.E - 0.0) <= 0.02, f"behavioral E {bf.E}"
    assert abs(bf.alpha - 0.06) <= 0.02, f"behavioral alpha {bf.alpha}"
    _ok(2, f"paper curves (neural E={nf.E:.3f} a={nf.alpha:.3f}, behav E={bf.E:.4f})")


def test_03_joint_fit_recovery():
    """10x10 noise-free grid: all five parameters within 2%, < 120 s."""
    true = {"E": 0.3, "A": 1.0, "alpha": 0.34, "B": 2.0, "beta": 0.28}
    g = CurveGenerator(
        form="joint", true_params=true,
        n_grid=tuple(np.logspace(0, 3, 10)), d_grid=tuple(np.logspace(0, 3, 10)),
    )
    t0 = time.monotonic()
    fit = fit_joint(gen_curve_points(g), ID_CFG)
    elapsed = time.monotonic() - t0
    got = {"E": fit.E, "A": fit.A, "alpha": fit.alpha, "B": fit.B, "beta": fit.beta}
    for key, want in true.items():
        rel = abs(got[key] - want) / want
        assert rel < 0.02, f"{key}: {got[key]} vs {want}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(3, f"joint recovery ({elapsed:.1f}s)")


def test_04_allocation_correctness():
    """Constraint to 1e-9 relative; brute force within one grid cell;
    m=6, n=1 reproduces the simplified path bit-for-bit."""
    rng = np.random.default_rng(4)
    grid_points = 10_000
    cell = 12.0 / (grid_points - 1)
    for _ in range(20):
        fit = JointFit(
            E=rng.uniform(0.0, 0.6),
            A=rng.uniform(0.2, 3.0),
            alpha=rng.uniform(0.1, 1.0),
            B=rng.uniform(0.2, 3.0),
            beta=rng.uniform(0.1, 1.0),
            objective=0.0, init_used=(), degenerate=False,
        )
        cm = ComputeModel(
            m=rng.uniform(0.5, 10.0), n=rng.uniform(0.8, 1.3), r2=1.0, n_points=5
        )
        c = 10.0 ** rng.uniform(3, 10)
        res = optimal_allocation(fit, cm, c)
        constraint = cm.m * (res.n_star * res.d_star) ** cm.n
        assert abs(constraint - c) / c < 1e-9
        bf = brute_force_allocation(fit, cm, c, grid_points=grid_points)
        assert abs(math.log10(bf.n_star) - math.log10(res.n_star)) <= cell

        # m=6, n=1: general path must equal the simplified G (C/6)^{a'} form
        cm6 = ComputeModel(m=6.0, n=1.0, r2=1.0, n_points=5)
        res6 = optimal_allocation(fit, cm6, c)
        co = allocation_coefficients(fit)
        base = c / 6.0
        assert res6.n_star == co.G * base**co.a_prime  # bit-for-bit
        assert res6.d_star == (1.0 / co.G) * base**co.b_prime
    _ok(4, "allocation correctness")


def test_05_exponent_consistency():
    """beta/(alpha+beta) = 0.3 gives N* ~ C^{0.3/n}, D* ~ C^{0.7/n}."""
    fit = JointFit(
        E=0.2, A=1.0, alpha=0.7, B=1.5, beta=0.3,
        objective=0.0, init_used=(), degenerate=False,
    )
    for n_exp in (1.0, 1.1):
        cm = ComputeModel(m=6.0, n=n_exp, r2=1.0, n_points=5)
        budgets = np.logspace(4, 10, 12)
        n_stars = [optimal_allocation(fit, cm, c).n_star for c in budgets]
        d_stars = [optimal_allocation(fit, cm, c).d_star for c in budgets]
        slope_n = np.polyfit(np.log(budgets), np.log(n_stars), 1)[0]
        slope_d = np.polyfit(np.log(budgets), np.log(d_stars), 1)[0]
        assert abs(slope_n - 0.3 / n_exp) < 0.02, f"N slope {slope_n} (n={n_exp})"
        assert abs(slope_d - 0.7 / n_exp) < 0.02, f"D slope {slope_d} (n={n_exp})"
    _ok(5, "exponent consistency (D ~ C^0.7, N ~ C^0.3)")


def test_06_bootstrap():
    """Seed determinism, noise-free collapse, 88/100 coverage, < 5 min."""
    # determinism (byte-identical serialized results)
    pts = gen_curve_points(
        CurveGenerator(
            form="power", true_params={"E": 0.52, "A": 0.55, "alpha": 0.16},
            x_grid=tuple(np.logspace(-2, 2, 25)), noise_sigma_log=0.05, seed=0,
        )
    )
    cfg = BootstrapConfig(resamples=50, seed=9, curve_grid=(0.1, 1.0, 10.0))
    r1 = bootstrap_fit(pts, "power", ID_CFG, cfg, warm_start=True)
    r2 = bootstrap_fit(pts, "power", ID_CFG, cfg, warm_start=True)
    blob1 = json.dumps({"p": r1.param_ci, "c": r1.curve_ci}, sort_keys=True)
    blob2 = json.dumps({"p": r2.param_ci, "c": r2.curve_ci}, sort_keys=True)
    assert blob1.encode() == blob2.encode()

    # noise-free CI widths < 1e-6
    clean = gen_curve_points(
        CurveGenerator(
            form="power", true_params={"E": 0.52, "A": 0.55, "alpha": 0.16},
            x_grid=tuple(np.logspace(-2, 2, 25)),
        )
    )
    rc = bootstrap_fit(
        clean, "power", ID_CFG, BootstrapConfig(resamples=20, seed=0), warm_start=True
    )
    for name, (lo, hi) in rc.param_ci.items():
        assert hi - lo < 1e-6, f"{name} CI width {hi - lo}"

    # coverage: 95% CI for alpha covers truth in >= 88/100 repetitions
    covered = 0
    for rep in range(100):
        noisy = gen_curve_points(
            CurveGenerator(
                form="power", true_params={"E": 0.52, "A": 0.55, "alpha": 0.16},
                x_grid=tuple(np.logspace(-2, 2, 25)), noise_sigma_log=0.05, seed=1000 + rep,
            )
        )
        res = bootstrap_fit(
            noisy, "power", ID_CFG,
            BootstrapConfig(resamples=200, seed=rep), warm_start=True,
        )
        lo, hi = res.param_ci["alpha"]
        covered += lo <= 0.16 <= hi
    assert covered >= 88, f"coverage {covered}/100"

    # timing: 1000 resamples of a 60-point fit in < 5 min
    big = gen_curve_points(
        CurveGenerator(
            form="power", true_params={"E": 0.52, "A": 0.55, "alpha": 0.16},
            x_grid=tuple(np.logspace(-3, 3, 60)), noise_sigma_log=0.05, seed=2,
        )
    )
    t0 = time.monotonic()
    bootstrap_fit(big, "power", ID_CFG, BootstrapConfig(resamples=1000, seed=0), warm_start=True)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"1000 resamples took {elapsed:.1f}s"
    _ok(6, f"bootstrap (coverage {covered}/100, 1000 resamples {elapsed:.0f}s)")


def test_07_compute_model():
    """Exact C = 6ND gives m = 6 +- 1e-6, n = 1 +- 1e-9, r^2 = 1."""
    rng = np.random.default_rng(7)
    runs = []
    for _ in range(12):
        n = 10.0 ** rng.uniform(4, 8)
        d = 10.0 ** rng.uniform(5, 9)
        runs.append((n, d, 6.0 * n * d))
    cm = fit_compute_model(runs)
    assert abs(cm.m - 6.0) <= 1e-6, f"m {cm.m}"
    assert abs(cm.n - 1.0) <= 1e-9, f"n {cm.n}"
    assert cm.r2 == pytest.approx(1.0, abs=1e-12)
    _ok(7, f"compute model (m={cm.m:.9f}, n={cm.n:.12f})")


def test_08_alignment_scoring():
    """Noiseless >= 0.99 ceiled; rho=0.8 within +-0.05; self-pattern == 1.0."""
    clean = gen_benchmark(BenchmarkGenerator(n_stimuli=100, seed=0))
    rep = neural_score(clean.data, seed=0)
    assert rep.ceiled >= 0.99, f"ceiled {rep.ceiled}"

    g = BenchmarkGenerator(
        n_stimuli=600, n_features=10, n_neuroids=8,
        noise_sigma=BenchmarkGenerator.sigma_for_pearson(0.8), seed=1,
    )
    att = neural_score(gen_benchmark(g).data, seed=0)
    assert abs(att.raw - 0.8) <= 0.05, f"raw {att.raw}"

    # behavioral self-pattern correlation exactly 1.0
    Xtr, ytr, Xte, yte, _ = gen_behavior_task(n_train=400, n_test=80, seed=0)
    classes, W = fit_logistic(Xtr, ytr)
    Xa = np.hstack([Xte, np.ones((Xte.shape[0], 1))])
    own = confusion_pattern(_softmax(Xa @ W), yte, classes)
    data = BehaviorData(
        train_features=Xtr, train_labels=ytr, test_features=Xte,
        test_labels=yte, primate_pattern=own, ceiling=1.0,
    )
    brep = behavior_score(data)
    assert brep.raw == 1.0, f"self-pattern r {brep.raw!r}"

    # determinism under fixed seed
    assert neural_score(clean.data, seed=3).raw == neural_score(clean.data, seed=3).raw
    assert behavior_score(data).raw == brep.raw
    _ok(8, f"alignment scoring (ceiled {rep.ceiled:.4f}, attenuated {att.raw:.3f})")


def test_09_numerics():
    """Huber hand values to 1e-15; LSE(0,0)=ln2 to 1e-12; gradient < 1e-4."""
    hp = HuberParams(1e-3)
    assert abs(huber(0.0, hp) - 0.0) <= 1e-15
    assert abs(huber(1e-3, hp) - 5e-7) <= 1e-15
    assert abs(huber(0.1, hp) - 9.95e-5) <= 1e-15
    assert abs(lse([0.0, 0.0]) - math.log(2.0)) <= 1e-12

    pts = gen_curve_points(
        CurveGenerator(
            form="power", true_params={"E": 0.52, "A": 0.55, "alpha": 0.16},
            x_grid=tuple(np.logspace(-2, 2, 30)), noise_sigma_log=0.05, seed=0,
        )
    )
    fg = _power_objective(np.log(pts[:, 0])[None, :], np.log(pts[:, 1])[None, :])

    def single(p):
        v, g = fg(np.asarray(p)[None, :])
        return float(v[0]), g[0]

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        p = np.array([rng.uniform(-1, 1), rng.uniform(0, 25), rng.uniform(0, 2)])
        err = check_gradient(single, p, fd_step=1e-6)
        worst = max(worst, err)
        assert err < 1e-4, f"gradient rel err {err} at {p}"
    _ok(9, f"numerics (worst gradient err {worst:.2e})")


def test_10_region_gain_ordering(tmp_path, capsys):
    """cmd_report reproduces Behavior > IT > V4 > V2 > V1; gain value check."""
    from scalefit.scaling import PowerLawFit

    unit = PowerLawFit(
        E=0.52, A=0.55, alpha=0.16, objective=0.0, init_used=(), degenerate=False
    )
    assert abs(region_gain(unit) - 0.7950) <= 1e-4, f"gain {region_gain(unit)}"

    # synthetic per-region data with gains ordered Behavior > IT > V4 > V2 > V1
    truths = {
        "V1": (0.60, 0.15, 0.05),
        "V2": (0.58, 0.25, 0.08),
        "V4": (0.55, 0.35, 0.12),
        "IT": (0.52, 0.55, 0.16),
        "Behavior": (0.10, 1.30, 0.30),
    }
    flags = []
    for region, (E, A, alpha) in truths.items():
        g = CurveGenerator(
            form="power", true_params={"E": E, "A": A, "alpha": alpha},
            x_grid=tuple(np.logspace(-2, 2, 30)), noise_sigma_log=0.01,
            seed=hash(region) % 1000,
        )
        fit = fit_power_law(gen_curve_points(g), ID_CFG)
        path = tmp_path / f"{region}.json"
        path.write_text(json.dumps({
            "form": "power",
            "params": fit.params(),
            "objective": fit.objective,
            "init_used": list(fit.init_used),
            "degenerate": fit.degenerate,
            "x_kind": "flops",
            "rescale": {"x_scale": 1.0},
            "spec_version": "1.0",
        }))
        flags += ["--fit", f"{region}={path}"]
    out = tmp_path / "gains.csv"
    assert cli_main(["report", *flags, "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Behavior > IT > V4 > V2 > V1" in stdout, stdout
    _ok(10, "region-gain ordering")
