"""Print one sha256 per fitting case, so that an optimizer change meant to
leave every result bit-identical shows as an empty diff.

Usage:

    PYTHONPATH=<tree>/src python tools/fit_digest.py > digests.txt

Run it on two source trees and diff the two outputs. Each line is
``<case> <sha256>``. A case's digest covers:

- every field of its point fit;
- for a bootstrap case, ``param_ci``, ``curve_ci`` and ``n_failed_resamples``,
  and the (R, d) matrix of every resample's fitted parameters, recorded from
  the bootstrap's own ``_fit_resamples`` call: the intervals pin only two
  order statistics per column, the matrix also every other draw and where
  its NaN rows (failed resamples) fall;
- ``minimize_batch``'s X, f, iterations, converged and grad_norm from the
  point fit's whole start grid, recorded from the fit's own call.

Floats enter by their bytes (arrays) or their ``repr`` (Python floats), so
two equal digests mean bit-identical results. The cases:

- the ten cases of ``tests/test_uncertainty.py``'s
  ``TestBatchedMatchesOneAtATime``, with a three-point curve band added;
- the ``bootstrap_warm`` benchmark workload's points at bootstrap seeds
  1001-1010;
- joint fits of ten truths drawn as the ``joint_fit`` workload draws them;
- the truths of acceptance tests 3, 6 and 10, test 10's regions with noise
  seed ``zlib.crc32(region) % 1000``;
- a shifted fit with ``freeze_lambda=True``;
- a 1,000-resample joint warm bootstrap on the ``joint_fit`` workload's
  10 x 10 grid, whose (E, A, B) projection spans several blocks of rows.

All inputs are built with ``scalefit.synth``; nothing here reads ``bench/``.
The whole list runs in about seven seconds on a 2-vCPU Xeon.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import warnings
import zlib

import numpy as np

from scalefit import scaling, uncertainty
from scalefit.scaling import FitConfig, Rescale, fit_joint, fit_power_law, fit_shifted_power_law
from scalefit.synth import CurveGenerator, gen_curve_points
from scalefit.uncertainty import BootstrapConfig, bootstrap_fit

ID_CFG = FitConfig(rescale=Rescale(1.0, 1.0, 1.0))
SMALL_CFG = FitConfig(
    grid_e=(-1.0, 0.0),
    grid_a=(0.0, 5.0),
    grid_alpha=(0.5, 1.0),
    grid_lambda=(0.0, 1.0),
    rescale=Rescale(1.0, 1.0, 1.0),
)
IT = {"E": 0.52, "A": 0.55, "alpha": 0.16}


def power_points(n=25, sigma=0.05, seed=0, lo=-2, hi=2, truth=IT):
    g = CurveGenerator(
        form="power", true_params=truth, x_grid=tuple(np.logspace(lo, hi, n)),
        noise_sigma_log=sigma, seed=seed,
    )
    return gen_curve_points(g)


def shifted_points(n=30):
    g = CurveGenerator(
        form="shifted", true_params={"E": 0.3, "A": 1.0, "alpha": 0.4, "lambda": 0.5},
        x_grid=tuple(np.logspace(-2, 3, n)), noise_sigma_log=0.03, seed=1,
    )
    return gen_curve_points(g)


def joint_points(truth=None, side=6, sigma=0.03, seed=0):
    grid = tuple(np.logspace(0, 3, side))
    truth = truth or {"E": 0.3, "A": 1.0, "alpha": 0.4, "B": 1.5, "beta": 0.3}
    g = CurveGenerator(
        form="joint", true_params=truth, n_grid=grid, d_grid=grid, noise_sigma_log=sigma, seed=seed
    )
    return gen_curve_points(g)


def sparse_joint():
    """13 joint points in 3 clusters, one per N (as in test_uncertainty)."""
    pts = joint_points()
    N = np.unique(pts[:, 0])
    keep = (pts[:, 0] != N[0]) | (pts[:, 1] == pts[0, 1])
    keep &= pts[:, 0] <= N[2]
    pts = pts[keep]
    return pts, np.searchsorted(N, pts[:, 0])


# The joint_fit workload's truth ranges, within about 15% of test 3's truth.
JOINT_RANGES = {
    "E": (0.25, 0.35), "A": (0.8, 1.25), "alpha": (0.3, 0.38), "B": (1.6, 2.5), "beta": (0.25, 0.31),
}
TEST10_TRUTHS = {
    "V1": (0.60, 0.15, 0.05),
    "V2": (0.58, 0.25, 0.08),
    "V4": (0.55, 0.35, 0.12),
    "IT": (0.52, 0.55, 0.16),
    "Behavior": (0.10, 1.30, 0.30),
}


FITTERS = {"power": fit_power_law, "shifted": fit_shifted_power_law, "joint": fit_joint}


def cases():
    """(name, points, fit kind, FitConfig, bootstrap arguments or None, fit options)."""
    sparse, sparse_clusters = sparse_joint()
    unequal = np.repeat(np.arange(8), [1, 2, 3, 4, 5, 4, 3, 3])
    batched = [
        ("power-warm", power_points(n=6, seed=2), "power", SMALL_CFG, 60, True, None),
        ("power-cold", power_points(n=12, seed=4), "power", ID_CFG, 3, False, None),
        ("shifted-warm", shifted_points(), "shifted", SMALL_CFG, 40, True, None),
        ("joint-warm", joint_points(), "joint", SMALL_CFG, 30, True, None),
        ("joint-cold", joint_points(), "joint", ID_CFG, 10, False, None),
        ("clusters-unequal", power_points(seed=6), "power", SMALL_CFG, 30, True, unequal),
        ("power-warm-blocks", power_points(n=60, seed=9), "power", SMALL_CFG, 300, True, None),
        ("power-cold-runs", power_points(n=30, seed=8), "power", ID_CFG, 12, False, None),
        ("shifted-warm-failures", shifted_points(n=6), "shifted", SMALL_CFG, 40, True, None),
        ("joint-clusters-failures", sparse, "joint", SMALL_CFG, 30, True, sparse_clusters),
    ]
    for name, pts, kind, cfg, resamples, warm, clusters in batched:
        grid = ((1.0, 1.0), (10.0, 30.0), (300.0, 5.0)) if kind == "joint" else (0.1, 1.0, 10.0)
        bs = BootstrapConfig(resamples=resamples, seed=11, curve_grid=grid)
        yield f"batched/{name}", pts, kind, cfg, (bs, warm, clusters), {}

    warm_pts = power_points(n=60, seed=2, lo=-3, hi=3)
    x = warm_pts[:, 0]
    band = tuple(np.logspace(np.log10(x.min()), np.log10(x.max()), 25))
    for seed in range(1001, 1011):
        bs = BootstrapConfig(resamples=1000, seed=seed, curve_grid=band)
        yield f"bootstrap_warm/{seed}", warm_pts, "power", ID_CFG, (bs, True, None), {}

    for seed in range(1, 11):
        pts = joint_points(joint_truth(seed), side=10, sigma=0.0)
        yield f"joint_fit/{seed}", pts, "joint", ID_CFG, None, {}

    test3 = {"E": 0.3, "A": 1.0, "alpha": 0.34, "B": 2.0, "beta": 0.28}
    yield "test03", joint_points(test3, side=10, sigma=0.0), "joint", ID_CFG, None, {}
    bs = BootstrapConfig(resamples=50, seed=9, curve_grid=(0.1, 1.0, 10.0))
    yield "test06/determinism", power_points(), "power", ID_CFG, (bs, True, None), {}
    for rep in range(5):
        bs = BootstrapConfig(resamples=200, seed=rep)
        pts = power_points(seed=1000 + rep)
        yield f"test06/coverage-{rep}", pts, "power", ID_CFG, (bs, True, None), {}
    for region, (E, A, alpha) in TEST10_TRUTHS.items():
        pts = power_points(
            n=30, sigma=0.01, seed=zlib.crc32(region.encode()) % 1000,
            truth={"E": E, "A": A, "alpha": alpha},
        )
        yield f"test10/{region}", pts, "power", ID_CFG, None, {}

    yield "shifted-frozen", shifted_points(), "shifted", ID_CFG, None, {"freeze_lambda": True}
    grid = ((1.0, 1.0), (10.0, 30.0), (300.0, 5.0))
    bs = BootstrapConfig(resamples=1000, seed=23, curve_grid=grid)
    pts = joint_points(joint_truth(1), side=10, sigma=0.02, seed=1)
    yield "joint_fit-warm-bootstrap/1", pts, "joint", ID_CFG, (bs, True, None), {}


def joint_truth(seed):
    """A truth drawn as the joint_fit workload draws its jobs' truths."""
    rng = np.random.default_rng(seed)
    return {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in JOINT_RANGES.items()}


def _feed(h, value):
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b"\0")


@contextlib.contextmanager
def recorded_start_grids():
    """A list that collects the outputs of every `minimize_batch` call
    `scaling._fit` makes while the context is open: one per point fit, from
    its whole start grid."""
    outputs, real = [], scaling.minimize_batch

    def record(fg, x0, cfg):
        outputs.append(real(fg, x0, cfg))
        return outputs[-1]

    scaling.minimize_batch = record
    try:
        yield outputs
    finally:
        scaling.minimize_batch = real


@contextlib.contextmanager
def recorded_draws():
    """A list that collects the (R, d) parameter matrix of every
    `_fit_resamples` call `bootstrap_fit` makes while the context is open."""
    outputs, real = [], uncertainty._fit_resamples

    def record(*args, **kwargs):
        outputs.append(real(*args, **kwargs))
        return outputs[-1]

    uncertainty._fit_resamples = record
    try:
        yield outputs
    finally:
        uncertainty._fit_resamples = real


def digest(points, kind, cfg, bootstrap, options) -> str:
    h = hashlib.sha256()
    with warnings.catch_warnings(), recorded_start_grids() as start_grids, recorded_draws() as draws:
        warnings.simplefilter("ignore")
        if bootstrap is None:
            fit = FITTERS[kind](points, cfg, **options)
        else:
            bs, warm, clusters = bootstrap
            res = bootstrap_fit(points, kind, cfg, bs, warm_start=warm, cluster_ids=clusters)
            fit = res.point_estimate
            (matrix,) = draws
            for value in (sorted(res.param_ci.items()), res.curve_ci, res.n_failed_resamples, matrix):
                _feed(h, value)
    for f in dataclasses.fields(fit):
        _feed(h, (f.name, getattr(fit, f.name)))
    (start_grid,) = start_grids  # the point fit's; the resample runs call `_bfgs_rows`
    for array in start_grid:
        _feed(h, array)
    return h.hexdigest()


def main() -> int:
    for name, points, kind, cfg, bootstrap, options in cases():
        print(name, digest(points, kind, cfg, bootstrap, options), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
