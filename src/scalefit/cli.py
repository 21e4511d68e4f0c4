"""Command-line interface: ingest, fit, allocate, bootstrap, score, simulate, report.

Every command is reproducible: primary outputs depend only on the inputs
and flags (seeds included), timestamps go to a sidecar .log file.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .alignment import NEURAL_REGIONS, BehaviorData, BenchmarkData, behavior_score, neural_score
from .allocation import (
    SPAN_DECADES,
    ComputeModel,
    allocation_coefficients,
    brute_force_allocation,
    fit_compute_model,
    optimal_allocation,
)
from .records import (
    CSV_COLUMNS,
    FILTER_RULES,
    REGIONS,
    RESOURCE_FIELDS,
    SCORE_COLUMNS,
    RunRecord,
    RunTable,
    _clamp_score,
    _mean,
    _text_columns,
    export,
    filter_for_fit,
    ingest,
)
from .scaling import (
    _FORMS,
    X_KINDS,
    FitConfig,
    Rescale,
    _form,
    fit_joint,
    fit_power_law,
    fit_shifted_power_law,
    predict,
    region_gain,
)
from .synth import BenchmarkGenerator, CurveGenerator, gen_benchmark, gen_curve_points
from .uncertainty import BootstrapConfig, bootstrap_fit

SPEC_VERSION = "1.0"


def _r(v) -> str:
    """repr of a value as a plain python float (round-trip exact)."""
    return repr(float(v))


_TARGET_REGIONS = {**{r.lower(): (r,) for r in REGIONS}, "brain": NEURAL_REGIONS, "mean": REGIONS}
TARGETS = tuple(_TARGET_REGIONS)

# The input files of each score kind, by argument name.
_SCORE_INPUTS = {"neural": ("activations", "recordings"), "behavior": ("train", "test", "pattern")}


def _default_seed() -> int:
    """The seed of a command run without --seed: $SCALEFIT_SEED, else 0."""
    return int(os.environ.get("SCALEFIT_SEED", "0"))


def _write_json(path: str, payload: dict) -> None:
    payload = dict(payload)
    payload["spec_version"] = SPEC_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_sidecar_log(path)


# Thread-count settings of the BLAS numpy may load; a float output's last bits can depend on them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_sidecar_log(path: str) -> None:
    with open(path + ".log", "w", encoding="utf-8") as fh:
        fh.write(f"written_at: {datetime.datetime.now().isoformat()}\n")
        fh.write(f"argv: {' '.join(sys.argv)}\n")
        fh.write(f"scalefit_version: {__version__}\n")
        fh.write(f"numpy_version: {np.__version__}\n")
        for var in _BLAS_THREAD_VARS:
            fh.write(f"{var}: {os.environ.get(var, 'unset')}\n")


def _read_report(path: str, build):
    """`build(payload)` of the JSON report at `path`, whose spec_version major must match.

    A payload that is not a JSON object, a missing field or a value `build`
    rejects is a ValueError naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: report is not a JSON object")
    version = str(payload.get("spec_version", ""))
    if version.split(".")[0] != SPEC_VERSION.split(".")[0]:
        raise ValueError(
            f"{path}: unsupported report spec_version {version!r} "
            f"(reader supports major {SPEC_VERSION.split('.')[0]})"
        )
    try:
        return build(payload)
    except KeyError as exc:
        raise ValueError(f"{path}: report has no field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_csv(path: str, need) -> list:
    """The rows of a CSV file as dicts in header order; the header must hold the columns `need`.

    Blank lines are skipped. A missing or repeated column, or a row whose
    width differs from the header's, is a ValueError naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = [row for row in csv.reader(fh) if row] or [[]]
    if any(c not in header for c in need) or len(set(header)) < len(header):
        raise ValueError(f"{path}: CSV must have columns {','.join(need)}, each column named once")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i} has {len(row)} fields, the header has {len(header)}")
    return [dict(zip(header, row)) for row in rows]


def _write_csv(path: str, header, rows) -> None:
    """Write a new CSV output and its sidecar log: floats through _r, other values as str.

    Every row is formatted before the file is opened, so a row that raises
    leaves no file behind.
    """
    lines = [header] + [[_r(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(lines)
    _write_sidecar_log(path)


def _float_columns(rows: list, skip) -> list:
    """Each row's values outside the columns `skip`, as floats."""
    return [[float(v) for c, v in row.items() if c not in skip] for row in rows]


def _fit_config(args) -> FitConfig:
    if args.no_rescale:
        return FitConfig(rescale=Rescale(1.0, 1.0, 1.0))
    return FitConfig(rescale=Rescale(args.c_scale, args.n_scale, args.d_scale))


def _target_misalignment(table, target: str) -> list:
    """Each run's misalignment L = 1 - S, S the mean of its scores in the target's regions."""
    scores = zip(*(table.columns[SCORE_COLUMNS[region]] for region in _TARGET_REGIONS[target]))
    return [1.0 - _mean(s) for s in scores]


def _load_points(args, form) -> np.ndarray:
    """Fit input for `form`: either a run table (scores -> L) or a bare points CSV."""
    if args.points:
        rows = _read_csv(args.points, form.columns)
        return np.asarray([[float(row[c]) for c in form.columns] for row in rows], dtype=float)
    table = _read_table(args)
    resources = [map(float, table.columns[RESOURCE_FIELDS[k]]) for k in form.kinds(args.x)]
    return np.array(list(zip(*resources, _target_misalignment(table, args.target))))


def _read_table(args):
    """The run table of --input, seed-averaged and filtered as the flags ask."""
    table = ingest(args.input, format=args.format, average_seeds=args.average_seeds)
    return filter_for_fit(table, args.filter) if args.filter else table


def _fit_payload(fit) -> dict:
    form = _FORMS[fit.form]
    payload = {
        "form": fit.form,
        "params": fit.params(),
        "objective": fit.objective,
        "init_used": list(fit.init_used),
        "degenerate": fit.degenerate,
        "converged": fit.converged,
        "n_points": fit.n_points,
        "rescale": {s: getattr(fit, s) for s in form.scales},
    }
    if form.x_axis:
        payload["x_kind"] = fit.x_kind
    return payload


def _fit_from_payload(payload: dict):
    form = _form(payload["form"])
    params, rescale = payload["params"], payload["rescale"]
    fields = {p.field: params[p.name] for p in form.params}
    fields.update((s, rescale[s]) for s in form.scales)
    if form.x_axis:
        fields["x_kind"] = payload["x_kind"]
    return form.fit_class(
        objective=payload["objective"],
        init_used=tuple(payload["init_used"]),
        degenerate=payload["degenerate"],
        converged=payload.get("converged", True),
        n_points=payload.get("n_points", 0),
        **fields,
    )


def _run_fit(points: np.ndarray, args, cfg: FitConfig):
    """Fit through the form's fit_* function, found by name in this module when called."""
    form = _FORMS[args.form]
    options = {k: getattr(args, k) for k in form.options}
    return form.run_fitter(globals()[form.fitter], points, cfg, args.x, **options)


def _emit_curve(fit, points: np.ndarray, csv_path: str | None, svg_path: str | None, curve_ci=None):
    if not _FORMS[fit.form].x_axis:
        raise ValueError("curve emission supports power and shifted fits only")
    x = points[:, 0]
    grid = np.logspace(np.log10(x.min()), np.log10(x.max()), 200)
    L, S = predict(fit, x=grid)
    if csv_path:
        _write_csv(csv_path, ["x", "L", "S"], zip(grid, L, S))
    if svg_path:
        band = None
        if curve_ci:
            band = (
                np.array([c[0] for c in curve_ci], dtype=float),
                np.array([c[1] for c in curve_ci], dtype=float),
                np.array([c[2] for c in curve_ci], dtype=float),
            )
        _write_svg(svg_path, grid, L, points, band)
        _write_sidecar_log(svg_path)


def _write_svg(path: str, x, y, points, band=None, width=640, height=400):
    """Minimal log-x line chart: axes, fitted line, data dots, optional CI band."""
    pad = 50
    all_x = np.concatenate([x, points[:, 0]])
    all_y = np.concatenate([y, points[:, 1]])
    if band is not None:
        all_x = np.concatenate([all_x, band[0]])
        all_y = np.concatenate([all_y, band[1], band[2]])
    lx0, lx1 = np.log10(all_x.min()), np.log10(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return pad + (np.log10(v) - lx0) / (lx1 - lx0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    def poly(xs, ys):
        return " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xs, ys))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12">x (log scale)</text>',
        f'<text x="12" y="{height // 2}" font-size="12" transform="rotate(-90 12 {height // 2})">L</text>',
    ]
    if band is not None:
        bx, blo, bhi = band
        pts = poly(bx, blo) + " " + poly(bx[::-1], bhi[::-1])
        parts.append(f'<polygon points="{pts}" fill="lightsteelblue" opacity="0.5"/>')
    parts.append(f'<polyline points="{poly(x, y)}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    for px, py in points[:, :2]:
        parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="2.5" fill="black"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    table = _read_table(args)
    export(table, args.output, format=args.output_format)
    _write_sidecar_log(args.output)
    print(f"ingested {len(table)} run(s) -> {args.output}")
    return 0


def cmd_fit(args) -> int:
    form = _FORMS[args.form]
    points = _load_points(args, form)
    cfg = _fit_config(args)
    fit = _run_fit(points, args, cfg)
    payload = _fit_payload(fit)
    payload["x"] = args.x if form.x_axis else None
    payload["target"] = args.target
    _write_json(args.output, payload)
    if args.emit_curve or args.svg:
        _emit_curve(fit, points, args.emit_curve, args.svg)
    print(f"fit {fit.form}: params={fit.params()} objective={fit.objective:.6g}")
    return 0


def cmd_allocate(args) -> int:
    if not 0 < args.budget < np.inf:
        raise ValueError("--budget must be positive and finite")
    fit = _read_report(args.fit_report, _fit_from_payload)
    if fit.form != "joint":
        raise ValueError("allocation requires a joint fit report")

    if args.compute_model:
        cm = _read_report(
            args.compute_model,
            lambda p: ComputeModel(
                m=p["m"], n=p["n"], r2=p.get("r2", float("nan")), n_points=p.get("n_points", 0)
            ),
        )
    else:
        table = ingest(args.input, format=args.format)
        triples = zip(*(table.columns[c] for c in ("n_params", "samples_seen", "flops")))
        cm = fit_compute_model(triples)

    result = optimal_allocation(fit, cm, args.budget)
    coef = allocation_coefficients(fit)
    out = {
        "budget_C": args.budget,
        "n_star": result.n_star,
        "d_star": result.d_star,
        "predicted_L": result.predicted_L,
        "predicted_S": 1.0 - result.predicted_L,
        "method": result.method,
        "coefficients": {"a_prime": coef.a_prime, "b_prime": coef.b_prime, "G": coef.G},
        # A compute-model file without r2 reads as NaN, which strict JSON has no token for.
        "compute_model": {"m": cm.m, "n": cm.n, "r2": cm.r2 if np.isfinite(cm.r2) else None},
        "rescale": {"n_scale": fit.n_scale, "d_scale": fit.d_scale},
    }
    if args.verify:
        bf = brute_force_allocation(fit, cm, args.budget, grid_points=args.grid_points)
        cell = SPAN_DECADES / (args.grid_points - 1)  # log10 grid spacing
        out["verify"] = {
            "n_star": bf.n_star,
            "d_star": bf.d_star,
            "predicted_L": bf.predicted_L,
            "log10_n_discrepancy": abs(np.log10(bf.n_star / result.n_star)),
            "grid_cell_log10": cell,
            "grid_points": args.grid_points,
        }
    _write_json(args.output, out)
    print(
        f"allocation: N*={out['n_star']:.6g} D*={out['d_star']:.6g} "
        f"L={out['predicted_L']:.6g}"
    )
    return 0


def cmd_bootstrap(args) -> int:
    form = _FORMS[args.form]
    points = _load_points(args, form)
    cfg = _fit_config(args)
    grid = ()
    # X values that are not positive get no band, so the fit's check names them.
    if args.curve_points > 0 and form.x_axis and np.all(points[:, 0] > 0):
        x = points[:, 0]
        grid = tuple(np.logspace(np.log10(x.min()), np.log10(x.max()), args.curve_points))
    bs_cfg = BootstrapConfig(
        resamples=args.resamples, ci_level=args.ci, seed=args.seed, curve_grid=grid
    )
    result = bootstrap_fit(
        points,
        args.form,
        cfg,
        bs_cfg,
        x_kind=args.x,
        warm_start=args.warm_start,
    )
    payload = _fit_payload(result.point_estimate)
    payload.update(
        {
            "param_ci": {k: list(v) for k, v in result.param_ci.items()},
            "curve_ci": [[x, lo, hi] for x, lo, hi in result.curve_ci],
            "resamples": result.resamples,
            "seed": result.seed,
            "n_failed_resamples": result.n_failed_resamples,
            "ci_level": args.ci,
        }
    )
    _write_json(args.output, payload)
    if args.svg and form.x_axis:
        _emit_curve(result.point_estimate, points, None, args.svg, curve_ci=result.curve_ci)
    print(f"bootstrap: {result.resamples} resamples, {result.n_failed_resamples} failed")
    return 0


def _append_score(runs_path: str, run_id: str, region: str, ceiled: float) -> None:
    """Set `run_id`'s score column of `region` in a run-table CSV, rewritten in place.

    A score the run table would reject on ingest is a ValueError raised before
    the file is read.
    """
    if _clamp_score(ceiled) != ceiled:
        warnings.warn(f"score {ceiled} clamped into [0, 1]", stacklevel=2)
    col = SCORE_COLUMNS[region]
    rows = _read_csv(runs_path, ("run_id", col))
    hits = [row for row in rows if row["run_id"] == run_id]
    if not hits:
        raise ValueError(f"{runs_path}: no run_id {run_id!r}")
    for row in hits:
        row[col] = _r(ceiled)
    with open(runs_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([list(rows[0])] + [list(row.values()) for row in rows])


def cmd_score(args) -> int:
    missing = [f"--{name}" for name in _SCORE_INPUTS[args.kind] if not getattr(args, name)]
    if missing:
        raise ValueError(f"score --kind {args.kind} needs {', '.join(missing)}")
    if args.append_to and not args.run_id:
        raise ValueError("--append-to requires --run-id")
    if args.kind == "neural":
        acts = _read_csv(args.activations, ("stim_id",))
        recs = _read_csv(args.recordings, ("stim_id",))
        ids = [row["stim_id"] for row in acts]
        if ids != [row["stim_id"] for row in recs]:
            raise ValueError("activation and recording stimulus ids differ")
        data = BenchmarkData(
            stimulus_ids=ids,
            activations=_float_columns(acts, ("stim_id",)),
            recordings=_float_columns(recs, ("stim_id",)),
            ceiling=args.ceiling,
            region=args.region,
        )
        report = neural_score(
            data,
            repeats=args.repeats,
            train_fraction=args.train_fraction,
            seed=args.seed,
            ridge=args.ridge,
            aggregate=args.aggregate,
        )
        region = args.region
    else:
        keys = ("stim_id", "label")
        train, test = _read_csv(args.train, keys), _read_csv(args.test, keys)
        pattern = _read_csv(args.pattern, ("image_id", "class", "probability"))
        data = BehaviorData(
            train_features=_float_columns(train, keys),
            train_labels=[row["label"] for row in train],
            test_features=_float_columns(test, keys),
            test_labels=[row["label"] for row in test],
            primate_pattern=[float(row["probability"]) for row in pattern],
            ceiling=args.ceiling,
        )
        report = behavior_score(data, seed=args.seed)
        region = "behavior"

    if args.append_to:
        _append_score(args.append_to, args.run_id, region, report.ceiled)
    _write_json(
        args.output,
        {
            "region": region,
            "raw": report.raw,
            "ceiled": report.ceiled,
            "ceiling": report.ceiling,
            "n_repeats": report.n_repeats,
            "seed": report.seed,
            "aggregate": report.aggregate,
        },
    )
    print(f"score {region}: raw={report.raw:.4f} ceiled={report.ceiled:.4f}")
    return 0


def cmd_simulate(args) -> int:
    if args.kind == "curve":
        form = _FORMS[args.form]
        # Each resource column's grid: (low, high, count) flags.
        spans = {
            "x": (args.x_min, args.x_max, args.n_points),
            "n": (args.n_min, args.n_max, args.grid_side),
            "d": (args.d_min, args.d_max, args.grid_side),
        }
        grids = {}
        for c in form.resources:
            lo, hi, count = spans[c]
            grids[f"{c}_grid"] = tuple(np.logspace(np.log10(lo), np.log10(hi), count))
        gen = CurveGenerator(
            form=args.form,
            # Each parameter flag stores to its fit-class field (--lambda to lam).
            true_params={p.name: getattr(args, p.field) for p in form.params},
            noise_sigma_log=args.sigma,
            seed=args.seed,
            **grids,
        )
        pts = gen_curve_points(gen)
        if args.as_runs:
            _write_csv(args.output, CSV_COLUMNS, _runs_from_points(args, pts))
        else:
            _write_csv(args.output, form.columns, pts)
        print(f"simulated {len(pts)} point(s) -> {args.output}")
        return 0

    gen = BenchmarkGenerator(
        n_stimuli=args.stimuli,
        n_features=args.features,
        n_neuroids=args.neuroids,
        noise_sigma=(
            BenchmarkGenerator.sigma_for_pearson(args.rho) if args.rho is not None else args.noise
        ),
        seed=args.seed,
    )
    bench = gen_benchmark(gen, region=args.region, ceiling=args.ceiling)
    for path, mat, prefix in [
        (args.activations, bench.data.activations, "f"),
        (args.recordings, bench.data.recordings, "n"),
    ]:
        header = ["stim_id"] + [f"{prefix}{j}" for j in range(mat.shape[1])]
        _write_csv(path, header, ([sid, *row] for sid, row in zip(bench.data.stimulus_ids, mat)))
    _write_json(
        args.output,
        {
            "theoretical_r": bench.theoretical_r,
            "n_stimuli": args.stimuli,
            "n_features": args.features,
            "n_neuroids": args.neuroids,
            "seed": args.seed,
        },
    )
    print(f"simulated benchmark (theoretical r={bench.theoretical_r:.4f})")
    return 0


def _runs_from_points(args, pts: np.ndarray) -> list:
    """Run-table rows, in CSV_COLUMNS order, with every region score set to S = 1 - L."""
    if pts.shape[1] != 2:
        raise ValueError("--as-runs supports power/shifted points only")
    recs = []
    for i, (x, l) in enumerate(pts):
        s = 1.0 - l
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"point {i}: score {s:.4f} outside [0, 1]; emit --points instead")
        n_params = round(x) if args.x_kind == "params" else 1_000_000
        samples = round(x) if args.x_kind == "samples" else 10_000_000
        flops = x if args.x_kind == "flops" else 6.0 * n_params * samples
        recs.append(RunRecord(
            run_id=f"sim{i}", family="Synthetic", arch="synthetic", dataset="synthetic",
            samples_per_class="full", seed=args.seed, n_params=max(n_params, 1),
            samples_seen=max(samples, 1), flops=flops, scores=dict.fromkeys(REGIONS, s),
        ))
    columns = _text_columns(RunTable(recs))
    return list(zip(*(columns[c] for c in CSV_COLUMNS)))


def cmd_report(args) -> int:
    rows = []
    for spec in args.fit:
        region, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--fit expects REGION=REPORT.json, got {spec!r}")
        fit = _read_report(path, _fit_from_payload)
        if fit.form != "power":
            raise ValueError(f"{path}: region gain requires a power-law fit, got {fit.form}")
        params = [float(fit.E), float(fit.A), float(fit.alpha)]
        rows.append([region, *params, region_gain(fit), fit.degenerate])
    if not rows:
        raise ValueError("no fit reports given")
    rows.sort(key=lambda r: -r[4])
    _write_csv(args.output, ["region", "E", "A", "alpha", "gain", "degenerate"], rows)
    print("gain ordering: " + " > ".join(r[0] for r in rows))
    return 0


# ---------------------------------------------------------------- parser


def _add_rescale_flags(p):
    p.add_argument("--c-scale", type=float, default=1e13, help="flops rescale divisor")
    p.add_argument("--n-scale", type=float, default=1e5, help="params rescale divisor")
    p.add_argument("--d-scale", type=float, default=1e4, help="samples rescale divisor")
    p.add_argument("--no-rescale", action="store_true", help="fit in raw units")


def _add_fit_input_flags(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="run-table file (CSV/JSON)")
    source.add_argument("--points", help="bare points CSV (x,l or n,d,l) instead of a run table")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--average-seeds", action="store_true")
    p.add_argument("--filter", choices=list(FILTER_RULES), default=None)
    p.add_argument("--target", choices=TARGETS, default="mean")
    p.add_argument(
        "--x", choices=X_KINDS, required=True, help="which resource the curve is fit against"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scalefit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, validate, and re-export a run table")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", required=True)
    p.add_argument("--output-format", choices=["csv", "json"], default="csv")
    p.add_argument("--average-seeds", action="store_true")
    p.add_argument("--filter", choices=list(FILTER_RULES), default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit a misalignment curve")
    _add_fit_input_flags(p)
    p.add_argument("--form", choices=list(_FORMS), required=True)
    p.add_argument("--freeze-lambda", action="store_true")
    _add_rescale_flags(p)
    p.add_argument("--output", required=True, help="fit report JSON")
    p.add_argument("--emit-curve", help="write (x,L,S) curve samples CSV")
    p.add_argument("--svg", help="write a minimal SVG line chart")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("allocate", help="compute-optimal (N*, D*) for a budget")
    p.add_argument("--fit-report", required=True, help="joint fit report JSON")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--compute-model", help="compute-model report JSON with m, n in raw units")
    source.add_argument("--input", help="run table to fit the compute model from")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--budget", type=float, required=True, help="compute budget in raw FLOPs")
    p.add_argument("--verify", action="store_true", help="run the brute-force oracle")
    p.add_argument("--grid-points", type=int, default=10_000)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("bootstrap", help="bootstrap CIs for a curve fit")
    _add_fit_input_flags(p)
    p.add_argument("--form", choices=list(_FORMS), required=True)
    _add_rescale_flags(p)
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--ci", type=float, default=0.95)
    p.add_argument("--seed", type=int)
    p.add_argument("--curve-points", type=int, default=25, help="curve CI grid size (0 disables)")
    p.add_argument("--warm-start", action="store_true")
    p.add_argument("--output", required=True)
    p.add_argument("--svg", help="SVG chart with CI band")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("score", help="neural or behavioral alignment score")
    p.add_argument("--kind", choices=list(_SCORE_INPUTS), required=True)
    p.add_argument("--activations", help="neural: stimulus x feature CSV")
    p.add_argument("--recordings", help="neural: stimulus x neuroid CSV")
    p.add_argument("--region", choices=NEURAL_REGIONS, default="IT")
    p.add_argument("--train", help="behavior: training CSV (stim_id,label,f0,...)")
    p.add_argument("--test", help="behavior: test CSV (stim_id,label,f0,...)")
    p.add_argument("--pattern", help="behavior: primate pattern CSV")
    p.add_argument("--ceiling", type=float, required=True)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--train-fraction", type=float, default=0.9)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--aggregate", choices=["median", "mean"], default="median")
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True)
    p.add_argument("--append-to", help="run-table CSV to merge the ceiled score into")
    p.add_argument("--run-id", help="row to update with --append-to")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("simulate", help="emit synthetic curve points or benchmark matrices")
    p.add_argument("--kind", choices=["curve", "benchmark"], required=True)
    p.add_argument("--form", choices=list(_FORMS), default="power")
    p.add_argument("--E", type=float, default=0.52)
    p.add_argument("--A", type=float, default=0.55)
    p.add_argument("--alpha", type=float, default=0.16)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--x-min", type=float, default=1e-3)
    p.add_argument("--x-max", type=float, default=1e3)
    p.add_argument("--n-points", type=int, default=60)
    p.add_argument("--n-min", type=float, default=1.0)
    p.add_argument("--n-max", type=float, default=1e3)
    p.add_argument("--d-min", type=float, default=1.0)
    p.add_argument("--d-max", type=float, default=1e3)
    p.add_argument("--grid-side", type=int, default=10)
    p.add_argument("--sigma", type=float, default=0.0, help="log-space noise sd")
    p.add_argument("--seed", type=int)
    p.add_argument("--as-runs", action="store_true", help="emit a run-table CSV")
    p.add_argument("--x-kind", choices=X_KINDS, default="flops")
    p.add_argument("--stimuli", type=int, default=100)
    p.add_argument("--features", type=int, default=10)
    p.add_argument("--neuroids", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=None, help="target theoretical Pearson r")
    p.add_argument("--region", choices=NEURAL_REGIONS, default="IT")
    p.add_argument("--ceiling", type=float, default=1.0)
    p.add_argument("--activations", default="activations.csv")
    p.add_argument("--recordings", default="recordings.csv")
    p.add_argument("--output", required=True, help="points CSV (curve) or meta JSON (benchmark)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="region-gain summary table from fit reports")
    p.add_argument("--fit", action="append", default=[], metavar="REGION=REPORT.json")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def _join_signed_numbers(argv: list) -> list:
    """argv with each `--option VALUE` whose VALUE is a number starting with "-"
    written as `--option=VALUE`.

    argparse takes a value such as -1e9 or -inf, which starts with "-" and
    is not a plain decimal, for an option and rejects it as a missing
    argument; joined to its option, it reaches the option's own checks.
    """
    out = []
    for token in argv:
        option = out[-1] if out else ""
        if option.startswith("--") and option != "--" and "=" not in option and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_join_signed_numbers(sys.argv[1:] if argv is None else argv))
    if getattr(args, "seed", 0) is None:
        args.seed = _default_seed()  # read per call, so a changed $SCALEFIT_SEED counts
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
