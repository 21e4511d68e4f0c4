"""Print how often warm-bootstrap intervals cover the truth, on a fixed case list.

Usage:

    PYTHONPATH=<tree>/src python tools/coverage.py > coverage.txt

Each case is a truth, a point layout and a noise level. It is run for 100
noise replicates: replicate r draws its points with noise seed 1000 + r,
fits them, and bootstraps the fit with 200 warm resamples
(``warm_start=True``) and bootstrap seed r, at the default 95% level. For
each case and parameter the output gives how many of the 100 intervals
hold the true value (``lo <= truth <= hi``, as acceptance test 6 counts)
and the median interval width. Fits use the identity rescale.

The cases, fixed here so that every change to the intervals is measured
on the same list:

- ``test06``: acceptance test 6's truth (E 0.52, A 0.55, alpha 0.16) on
  25 points over X = 1e-2 .. 1e2, sigma_log 0.05;
- ``V1``, ``V2``, ``V4``, ``IT``, ``Behavior``: acceptance test 10's
  truths on 30 points over the same span, sigma_log 0.01;
- ``test03``: acceptance test 3's joint truth (E 0.3, A 1.0, alpha 0.34,
  B 2.0, beta 0.28) on its 10 x 10 grid of N, D = 1 .. 1e3, sigma_log 0.02.

Under nominal 95% coverage a count of 100 lies in about 90-99. The output
is the same bytes on every run with one numpy build and CPU. The run
takes about a minute and a half on a 2-vCPU Xeon. Cold bootstraps, which
refit each resample from the whole start grid, are not covered: at about
200 times the cost of a warm one they need a cheaper start mode first.
"""
from __future__ import annotations

import warnings

import numpy as np

from scalefit.scaling import FitConfig, Rescale
from scalefit.synth import CurveGenerator, gen_curve_points
from scalefit.uncertainty import BootstrapConfig, bootstrap_fit

ID_CFG = FitConfig(rescale=Rescale(1.0, 1.0, 1.0))
REPLICATES = 100
RESAMPLES = 200
NOISE_SEED0 = 1000

X_GRID_25 = tuple(np.logspace(-2, 2, 25))
X_GRID_30 = tuple(np.logspace(-2, 2, 30))
ND_GRID = tuple(np.logspace(0, 3, 10))

# (name, form, truth, generator grids, sigma_log)
CASES = [
    ("test06", "power", {"E": 0.52, "A": 0.55, "alpha": 0.16}, {"x_grid": X_GRID_25}, 0.05),
    ("V1", "power", {"E": 0.60, "A": 0.15, "alpha": 0.05}, {"x_grid": X_GRID_30}, 0.01),
    ("V2", "power", {"E": 0.58, "A": 0.25, "alpha": 0.08}, {"x_grid": X_GRID_30}, 0.01),
    ("V4", "power", {"E": 0.55, "A": 0.35, "alpha": 0.12}, {"x_grid": X_GRID_30}, 0.01),
    ("IT", "power", {"E": 0.52, "A": 0.55, "alpha": 0.16}, {"x_grid": X_GRID_30}, 0.01),
    ("Behavior", "power", {"E": 0.10, "A": 1.30, "alpha": 0.30}, {"x_grid": X_GRID_30}, 0.01),
    (
        "test03",
        "joint",
        {"E": 0.3, "A": 1.0, "alpha": 0.34, "B": 2.0, "beta": 0.28},
        {"n_grid": ND_GRID, "d_grid": ND_GRID},
        0.02,
    ),
]


def intervals(form, truth, grids, sigma, rep):
    """The warm bootstrap's param_ci on replicate `rep` of a case."""
    g = CurveGenerator(
        form=form, true_params=truth, noise_sigma_log=sigma, seed=NOISE_SEED0 + rep, **grids
    )
    bs = BootstrapConfig(resamples=RESAMPLES, seed=rep)
    return bootstrap_fit(gen_curve_points(g), form, ID_CFG, bs, warm_start=True).param_ci


def main() -> int:
    print("case      n    sigma_log  param  covered  median_width")
    for name, form, truth, grids, sigma in CASES:
        n = int(np.prod([len(v) for v in grids.values()]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cis = [intervals(form, truth, grids, sigma, rep) for rep in range(REPLICATES)]
        for param, value in truth.items():
            covered = sum(lo <= value <= hi for lo, hi in (ci[param] for ci in cis))
            width = float(np.median([hi - lo for lo, hi in (ci[param] for ci in cis)]))
            print(f"{name:<9} {n:<4} {sigma:<10} {param:<6} {covered:>3}/{REPLICATES}  {width:.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
