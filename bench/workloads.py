"""The benchmark's four workloads: seeded inputs, one job, output checks.

Every workload follows one protocol, driven by run.py:

- ``setup(seed)`` builds the run's inputs from the workload seed;
- ``warmup(seed)`` runs one untimed job (at a reduced size where a full
  job would take longer than the run itself);
- ``job_input(job_seed)`` derives one job's inputs (cheap, untimed);
- ``run(inp)`` is the timed job;
- ``check(inp, out)`` lists what is wrong with the output (empty: correct);
- ``serialize(out)`` gives the bytes the determinism check compares.

Library calls go through module attributes (``scaling.fit_joint``, not a
name imported from it), so the traced run's shims see every call.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from scalefit import alignment, allocation, cli, records, scaling, synth, uncertainty

IDENTITY = scaling.Rescale(1.0, 1.0, 1.0)
ID_CFG = scaling.FitConfig(rescale=IDENTITY)

# Tolerances pinned by tests/test_acceptance.py (tests 3, 4, 6, 7 and 8).
JOINT_REL_TOL = 0.02
BUDGET_REL_TOL = 1e-9
COMPUTE_M_TOL = 1e-6
COMPUTE_N_TOL = 1e-9
MAX_FAILED_RESAMPLE_FRAC = 0.2
NEURAL_TOL = 0.05

BRUTE_FORCE_POINTS = 10_000
BRUTE_FORCE_CELL = 12.0 / (BRUTE_FORCE_POINTS - 1)


# Stream indexes at and above this one seed set-up inputs, never a job.
SETUP_STREAM = 1 << 30
# The warm-up job's seed is fixed, so every set-up does the same work.
WARMUP_SEED = 0


def job_seed(seed: int, index: int) -> int:
    """Seed of the index-th job of a run; the same (seed, index) gives the same job."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _floats(values) -> list:
    return [float(v) for v in np.ravel(values)]


def _dump(payload) -> bytes:
    # json writes floats with repr, so equal bytes mean bit-identical values.
    return json.dumps(payload, sort_keys=True).encode()


class JointFitWorkload:
    """Default-grid joint fit, compute model and allocation sweep per job.

    The wide-batch path: 4,500 starts advance together through the
    batched objective, which does nearly all the work.
    """

    name = "joint_fit"
    repeat_first = False
    # Within about 15% of acceptance test 3's truth (0.3, 1.0, 0.34, 2.0,
    # 0.28): wider draws change the fit's work by up to 10% from job to job.
    truth_range = {
        "E": (0.25, 0.35),
        "A": (0.8, 1.25),
        "alpha": (0.3, 0.38),
        "B": (1.6, 2.5),
        "beta": (0.25, 0.31),
    }
    # Untimed warm-up: the same code path from 2 x 2 = 4 starts.
    warmup_cfg = scaling.FitConfig(
        grid_e=(0.0,), grid_a=(0.0, 5.0), grid_alpha=(0.5,),
        grid_b=(0.0, 5.0), grid_beta=(0.5,), rescale=IDENTITY,
    )

    def __init__(self, workdir, fit_cfg=ID_CFG, grid_side=10, budgets=tuple(np.logspace(4, 10, 12))):
        self.fit_cfg = fit_cfg
        self.grid = tuple(np.logspace(0, 3, grid_side))
        self.budgets = budgets

    def setup(self, seed):
        pass  # every job draws its own inputs

    def warmup(self, seed):
        self.run(self.job_input(seed), self.warmup_cfg)

    def job_input(self, seed):
        rng = np.random.default_rng(seed)
        truth = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in self.truth_range.items()}
        gen = synth.CurveGenerator(form="joint", true_params=truth, n_grid=self.grid, d_grid=self.grid)
        return {"truth": truth, "points": synth.gen_curve_points(gen)}

    def run(self, inp, cfg=None):
        pts = inp["points"]
        fit = scaling.fit_joint(pts, cfg or self.fit_cfg)
        cm = allocation.fit_compute_model([(n, d, 6.0 * n * d) for n, d, _ in pts])
        allocs = [
            (
                allocation.optimal_allocation(fit, cm, c),
                allocation.brute_force_allocation(fit, cm, c, grid_points=BRUTE_FORCE_POINTS),
            )
            for c in self.budgets
        ]
        return {"fit": fit, "cm": cm, "allocs": allocs}

    def check(self, inp, out):
        problems = []
        got = out["fit"].params()
        for key, want in inp["truth"].items():
            rel = abs(got[key] - want) / want
            if not rel < JOINT_REL_TOL:
                problems.append(f"{key}={got[key]!r} vs truth {want!r} (rel {rel:.2e})")
        cm = out["cm"]
        if not (abs(cm.m - 6.0) <= COMPUTE_M_TOL and abs(cm.n - 1.0) <= COMPUTE_N_TOL):
            problems.append(f"compute model m={cm.m!r} n={cm.n!r}, want 6 and 1")
        for res, bf in out["allocs"]:
            c = res.budget_C
            spent = cm.m * (res.n_star * res.d_star) ** cm.n
            if not abs(spent - c) / c < BUDGET_REL_TOL:
                problems.append(f"budget {c:.3g}: allocation spends {spent!r}")
            gap = abs(math.log10(bf.n_star) - math.log10(res.n_star))
            if not gap <= BRUTE_FORCE_CELL:
                problems.append(f"budget {c:.3g}: brute-force N* off by {gap:.3g} decades")
        return problems

    def serialize(self, out):
        allocs = [[a.n_star, a.d_star, b.n_star, b.d_star] for a, b in out["allocs"]]
        return _dump({"fit": out["fit"].params(), "m": out["cm"].m, "n": out["cm"].n, "allocs": allocs})


class BootstrapWarmWorkload:
    """Warm-started power-law bootstrap with a curve band, new seed per job.

    The narrow path: about a thousand single-start fits, where per-call
    overhead outweighs the objective. The points are acceptance test 6's
    timing case; only the bootstrap seed comes from the workload seed, as
    job time depends on the noise draw (up to 25% between draws) and a
    per-run draw would swamp the run-to-run comparison.
    """

    name = "bootstrap_warm"
    repeat_first = True
    truth = {"E": 0.52, "A": 0.55, "alpha": 0.16}  # the paper's IT curve
    points_seed = 2

    def __init__(self, workdir, resamples=1000, n_points=60, curve_points=25, warmup_resamples=50):
        self.resamples = resamples
        self.n_points = n_points
        self.curve_points = curve_points
        self.warmup_resamples = warmup_resamples

    def setup(self, seed):
        gen = synth.CurveGenerator(
            form="power", true_params=self.truth,
            x_grid=tuple(np.logspace(-3, 3, self.n_points)), noise_sigma_log=0.05,
            seed=self.points_seed,
        )
        self.points = synth.gen_curve_points(gen)
        x = self.points[:, 0]
        # The CLI's band: curve_points log-spaced x values across the data.
        self.band = tuple(np.logspace(np.log10(x.min()), np.log10(x.max()), self.curve_points))

    def warmup(self, seed):
        self.run(seed, self.warmup_resamples)

    def job_input(self, seed):
        return seed

    def run(self, seed, resamples=None):
        cfg = uncertainty.BootstrapConfig(
            resamples=resamples or self.resamples, seed=seed, curve_grid=self.band
        )
        return uncertainty.bootstrap_fit(self.points, "power", ID_CFG, cfg, warm_start=True)

    def check(self, inp, out):
        problems = []
        point = out.point_estimate.params()
        for key, (lo, hi) in out.param_ci.items():
            if not lo <= point[key] <= hi:
                problems.append(f"{key}: point estimate {point[key]!r} outside CI [{lo!r}, {hi!r}]")
        for x, lo, hi in out.curve_ci:
            if not lo <= hi:
                problems.append(f"curve band at x={x!r}: lo {lo!r} > hi {hi!r}")
        if len(out.curve_ci) != self.curve_points:
            problems.append(f"curve band has {len(out.curve_ci)} points, want {self.curve_points}")
        if out.n_failed_resamples > MAX_FAILED_RESAMPLE_FRAC * out.resamples:
            problems.append(f"{out.n_failed_resamples}/{out.resamples} resamples failed")
        return problems

    def serialize(self, out):
        return _dump({
            "point": out.point_estimate.params(),
            "param_ci": out.param_ci,
            "curve_ci": out.curve_ci,
            "n_failed": out.n_failed_resamples,
        })


class AlignmentScoreWorkload:
    """One model scored against a neural and a behavioral benchmark.

    The only workload where alignment and the single-start minimizer do
    the work: per-neuroid Pearson loop, LAPACK lstsq, logistic fit.
    """

    name = "alignment_score"
    repeat_first = True
    rho = 0.8  # target model-neuroid Pearson r of the synthetic benchmark
    repeats = 10

    def __init__(self, workdir, n_stimuli=2000, n_features=128, n_neuroids=168, behavior_kwargs=None):
        self.shape = (n_stimuli, n_features, n_neuroids)
        self.behavior_kwargs = behavior_kwargs or {}

    def setup(self, seed):
        neural_seed, behavior_seed = job_seed(seed, SETUP_STREAM), job_seed(seed, SETUP_STREAM + 1)
        n_stimuli, n_features, n_neuroids = self.shape
        gen = synth.BenchmarkGenerator(
            n_stimuli=n_stimuli, n_features=n_features, n_neuroids=n_neuroids,
            noise_sigma=synth.BenchmarkGenerator.sigma_for_pearson(self.rho), seed=neural_seed,
        )
        self.neural = synth.gen_benchmark(gen).data
        Xtr, ytr, Xte, yte, bayes = synth.gen_behavior_task(seed=behavior_seed, **self.behavior_kwargs)
        self.behavior = alignment.BehaviorData(
            train_features=Xtr, train_labels=ytr, test_features=Xte,
            test_labels=yte, primate_pattern=bayes, ceiling=1.0,
        )

    def warmup(self, seed):
        self.run(seed)

    def job_input(self, seed):
        return seed

    def run(self, seed):
        neural = alignment.neural_score(self.neural, repeats=self.repeats, seed=seed)
        behavior = alignment.behavior_score(self.behavior, seed=seed)
        return neural, behavior

    def check(self, inp, out):
        neural, behavior = out
        problems = []
        if not abs(neural.raw - self.rho) <= NEURAL_TOL:
            problems.append(f"neural raw {neural.raw!r}, want {self.rho} +- {NEURAL_TOL}")
        if not math.isfinite(behavior.raw):
            problems.append(f"behavioral r {behavior.raw!r} is not finite")
        return problems

    def serialize(self, out):
        neural, behavior = out
        return _dump({
            "neural": [neural.raw, neural.ceiled, _floats(neural.per_neuroid)],
            "behavior": [behavior.raw, behavior.ceiled],
        })


class RuntableIOWorkload:
    """Three CLI commands over a seeded run table: convert, filter, allocate.

    The only workload where records and cli do most of the work; the fit
    layers do nothing.
    """

    name = "runtable_io"
    repeat_first = True
    families = ("resnet", "convnext", "vit", "efficientnet", "swin")
    samples_per_class = (1, 3, 10, 30, 100, 300, "full")
    regions = ("score_v1", "score_v2", "score_v4", "score_it", "score_behavior")
    n_classes = 1000
    epochs = 30
    n_seeds = 3
    # Generating law for the scores, in the CLI's default rescaled units.
    law = {"E": 0.3, "A": 0.4, "alpha": 0.3, "B": 0.5, "beta": 0.25}

    def __init__(self, workdir, n_configs=2000):
        self.workdir = workdir
        self.n_configs = n_configs
        self.table = os.path.join(workdir, "runs.csv")
        self.fit_report = os.path.join(workdir, "joint_fit.json")
        self.outputs = {
            "avg": os.path.join(workdir, "avg.json"),
            "filtered": os.path.join(workdir, "filtered.csv"),
            "alloc": os.path.join(workdir, "alloc.json"),
        }

    def setup(self, seed):
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng(seed)
        law = self.law
        rows, self.expected, points, seen = [], {}, [], set()
        for c in range(self.n_configs):
            n = int(10.0 ** rng.uniform(5.0, 9.0))
            while n in seen:  # seed averaging groups configs by n_params
                n += 1
            seen.add(n)
            family = self.families[c % len(self.families)]
            spc = self.samples_per_class[int(rng.integers(len(self.samples_per_class)))]
            per_class = 1300 if spc == "full" else spc
            d = per_class * self.n_classes * self.epochs
            L = law["E"] + law["A"] / (n / 1e5) ** law["alpha"] + law["B"] / (d / 1e4) ** law["beta"]
            base = {
                "family": family, "arch": f"{family}_{c % 7}", "dataset": "imagenet",
                "samples_per_class": str(spc), "n_params": str(n), "samples_seen": str(d),
                "flops": repr(6.0 * n * d),
            }
            scores = []
            for s in range(self.n_seeds):
                noisy = L * np.exp(rng.normal(0.0, 0.02, size=len(self.regions)))
                row_scores = [float(min(max(1.0 - v, 0.0), 1.0)) for v in noisy]
                scores.append(row_scores)
                rows.append({
                    **base, "run_id": f"r{c:05d}s{s}", "seed": str(s),
                    **{col: repr(v) for col, v in zip(self.regions, row_scores)},
                    "val_accuracy": repr(float(rng.uniform(0.1, 0.9))) if c % 2 else "",
                })
            # The seed-averaged record the ingest step must produce.
            means = [sum(s[j] for s in scores) / self.n_seeds for j in range(len(self.regions))]
            keep = family not in ("convnext", "vit") or spc in (300, "full")
            self.expected[f"r{c:05d}s0_seedavg"] = (n, d, means, keep)
            points.append((n, d, 1.0 - sum(means) / len(means)))
        with open(self.table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=records.CSV_COLUMNS + records.OPTIONAL_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        self._write_fit_report(np.array(points, dtype=float))

    def _write_fit_report(self, points):
        """Joint fit of the averaged table, started at the generating law."""
        law = self.law
        cfg = scaling.FitConfig(
            grid_e=(math.log(law["E"]),), grid_a=(math.log(law["A"]),), grid_alpha=(law["alpha"],),
            grid_b=(math.log(law["B"]),), grid_beta=(law["beta"],),
            rescale=scaling.Rescale(1e13, 1e5, 1e4),
        )
        fit = scaling.fit_joint(points, cfg)
        payload = {
            "form": "joint", "params": fit.params(), "objective": fit.objective,
            "init_used": list(fit.init_used), "degenerate": fit.degenerate,
            "converged": fit.converged, "n_points": fit.n_points,
            "rescale": {"n_scale": fit.n_scale, "d_scale": fit.d_scale},
            "x": None, "target": "mean", "spec_version": "1.0",
        }
        with open(self.fit_report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    def warmup(self, seed):
        self.run(self.job_input(seed))

    def job_input(self, seed):
        return float(10.0 ** np.random.default_rng(seed).uniform(19.0, 23.0))

    def run(self, budget):
        out = self.outputs
        commands = [
            ["ingest", "--input", self.table, "--average-seeds",
             "--output", out["avg"], "--output-format", "json"],
            ["ingest", "--input", out["avg"], "--format", "json",
             "--filter", "convnext_vit_restricted", "--output", out["filtered"]],
            ["allocate", "--fit-report", self.fit_report, "--input", self.table,
             "--budget", repr(budget), "--verify", "--output", out["alloc"]],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in commands]
        blobs = {}
        for key, path in out.items():
            with open(path, "rb") as fh:
                blobs[key] = fh.read()
        return {"budget": budget, "codes": codes, "blobs": blobs}

    def bytes_written(self, out):
        """Bytes the job's commands wrote: primary outputs and their sidecar logs."""
        return sum(len(b) for b in out["blobs"].values()) + sum(
            os.path.getsize(p + ".log") for p in self.outputs.values()
        )

    def check(self, inp, out):
        if out["codes"] != [0, 0, 0]:
            return [f"exit codes {out['codes']}, want [0, 0, 0]"]
        return self._check_alloc(out) + self._check_tables()

    def _check_alloc(self, out):
        report = json.loads(out["blobs"]["alloc"])
        problems = []
        if report["budget_C"] != out["budget"]:
            problems.append(f"allocation for budget {report['budget_C']!r}, asked {out['budget']!r}")
        v = report["verify"]
        if not v["log10_n_discrepancy"] <= v["grid_cell_log10"]:
            problems.append(f"brute-force N* off by {v['log10_n_discrepancy']!r} decades")
        return problems

    def _check_tables(self):
        """Re-ingest both exported tables and compare with the generator's records."""
        problems = []
        try:
            avg = records.ingest(self.outputs["avg"], format="json").rows
            filtered = records.ingest(self.outputs["filtered"], format="csv").rows
        except (ValueError, OSError) as exc:
            return [f"exported table does not re-ingest: {exc}"]
        if len(avg) != len(self.expected):
            problems.append(f"{len(avg)} seed-averaged rows, want {len(self.expected)}")
        for rec in avg:
            want = self.expected.get(rec.run_id)
            if want is None:
                problems.append(f"unexpected run_id {rec.run_id!r}")
                continue
            n, d, means, _ = want
            got = [rec.scores[region] for region in ("V1", "V2", "V4", "IT", "behavior")]
            if (rec.n_params, rec.samples_seen, rec.seed) != (n, d, -1) or any(
                abs(g - m) > 1e-12 for g, m in zip(got, means)
            ):
                problems.append(f"{rec.run_id}: averaged record differs from the generated runs")
        kept = tuple(r for r in avg if self.expected.get(r.run_id, (0, 0, 0, False))[3])
        if filtered != kept:
            problems.append(f"filtered table has {len(filtered)} rows, want the {len(kept)} kept rows")
        return problems[:10]

    def serialize(self, out):
        return b"\0".join(out["blobs"][k] for k in sorted(out["blobs"]))


WORKLOADS = {
    cls.name: cls
    for cls in (JointFitWorkload, BootstrapWarmWorkload, AlignmentScoreWorkload, RuntableIOWorkload)
}
