"""Run a fixed set of scalefit CLI commands and write a manifest of what they did.

Usage:

    PYTHONPATH=<tree>/src python tools/cli_manifest.py OUTDIR
    PYTHONPATH=<tree>/src python tools/cli_manifest.py --compare OLD_OUTDIR NEW_OUTDIR

Every command runs in-process through ``scalefit.cli.main`` with OUTDIR as
the working directory and relative paths, so no path of the machine enters
an output. ``OUTDIR/manifest.txt`` lists, per command, its argv, its exit
code (``exception <Type>`` for a traceback), the last line of stderr when
the exit code is not 0, and the sha256 of every file the command created
or changed; ``.log`` sidecars, which hold timestamps, are left out.

Running it on two source trees into two empty directories and diffing the
two manifests checks that the trees' CLI outputs are byte-identical. The
command set ends with error-path cases, whose exit codes and messages are
expected to differ only where a change means them to.

Where a change is meant to move numbers only in their last digits,
``--compare`` reads two such directories' outputs as numbers: for every
output that differs it prints the largest relative difference, then each
JSON key path, CSV cell or (in other text, such as SVG) numbered token
that moved by more than 1e-9 relative, and any non-numeric change.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import sys

from scalefit.cli import main
from scalefit.synth import gen_behavior_task

CURVE = ["simulate", "--kind", "curve"]
POWER_TRUTH = ["--form", "power", "--E", "0.3", "--A", "0.5", "--alpha", "0.2"]
RUNS = [*CURVE, *POWER_TRUTH, "--x-min", "1", "--x-max", "1e4", "--n-points", "20", "--as-runs"]
COMMANDS = [
    # simulate: every form, --as-runs for every x kind, a benchmark
    [*CURVE, *POWER_TRUTH, "--x-min", "1", "--x-max", "1e4", "--n-points", "30",
     "--sigma", "0.02", "--seed", "3", "--output", "power.csv"],
    [*CURVE, "--form", "shifted", "--E", "0.4", "--A", "0.6", "--alpha", "0.3", "--lambda", "0.5",
     "--x-min", "1e-2", "--x-max", "1e3", "--n-points", "30", "--output", "shifted.csv"],
    [*CURVE, "--form", "joint", "--E", "0.3", "--A", "1.0", "--alpha", "0.34", "--B", "2.0",
     "--beta", "0.28", "--grid-side", "6", "--sigma", "0.01", "--seed", "3",
     "--output", "joint.csv"],
    [*RUNS, "--output", "runs_flops.csv"],
    [*RUNS, "--x-kind", "params", "--output", "runs.csv"],
    [*RUNS, "--x-kind", "samples", "--seed", "2", "--output", "runs_samples.csv"],
    ["simulate", "--kind", "benchmark", "--stimuli", "60", "--rho", "0.8", "--seed", "1",
     "--activations", "acts.csv", "--recordings", "recs.csv", "--output", "bench.json"],
    # more features than stimuli: every split is rank-deficient
    ["simulate", "--kind", "benchmark", "--stimuli", "30", "--features", "40", "--noise", "0.3",
     "--seed", "2", "--activations", "acts_wide.csv", "--recordings", "recs_wide.csv",
     "--output", "bench_wide.json"],
    # ingest: csv and json, seed averaging, both filters
    ["ingest", "--input", "table.csv", "--average-seeds", "--output", "avg.json",
     "--output-format", "json"],
    ["ingest", "--input", "avg.json", "--format", "json", "--filter", "convnext_vit_restricted",
     "--output", "filtered.csv"],
    ["ingest", "--input", "table.csv", "--filter", "none", "--output", "table_echo.csv"],
    # seed groups of one to three runs whose val_accuracy is filled, empty or mixed
    ["ingest", "--input", "seeds.csv", "--average-seeds", "--output", "seeds_avg.csv"],
    # ingest: quoting, non-ASCII, a blank line, an extra column, a clamped score;
    # CSV -> JSON -> CSV, and a JSON table of numbers and nulls
    ["ingest", "--input", "edge.csv", "--output", "edge.json", "--output-format", "json"],
    ["ingest", "--input", "edge.json", "--format", "json", "--output", "edge_back.csv"],
    ["ingest", "--input", "numeric.json", "--format", "json", "--output", "numeric.csv"],
    # fit: every form, --freeze-lambda, curve and SVG output, points and run tables,
    # joint at the default rescale
    ["fit", "--form", "power", "--x", "flops", "--points", "power.csv", "--no-rescale",
     "--output", "fit_power.json", "--emit-curve", "curve_power.csv", "--svg", "curve_power.svg"],
    ["fit", "--form", "shifted", "--x", "flops", "--points", "shifted.csv", "--no-rescale",
     "--output", "fit_shifted.json", "--emit-curve", "curve_shifted.csv"],
    ["fit", "--form", "shifted", "--x", "samples", "--points", "shifted.csv", "--freeze-lambda",
     "--output", "fit_shifted_frozen.json", "--svg", "curve_shifted.svg"],
    ["fit", "--form", "joint", "--x", "flops", "--points", "joint.csv", "--no-rescale",
     "--output", "fit_joint.json"],
    ["fit", "--form", "joint", "--x", "flops", "--points", "joint.csv",
     "--output", "fit_joint_rescaled.json"],
    ["fit", "--form", "power", "--x", "params", "--input", "runs.csv", "--target", "it",
     "--output", "fit_runs.json"],
    ["fit", "--form", "power", "--x", "flops", "--input", "runs.csv", "--average-seeds",
     "--filter", "convnext_vit_restricted", "--no-rescale", "--output", "fit_runs_flops.json",
     "--emit-curve", "curve_runs.csv"],
    ["fit", "--form", "shifted", "--x", "flops", "--input", "runs_flops.csv", "--target", "v1",
     "--output", "fit_runs_shifted.json"],
    ["fit", "--form", "power", "--x", "flops", "--input", "avg.json", "--format", "json",
     "--target", "brain", "--output", "fit_table.json"],
    ["fit", "--form", "power", "--x", "params", "--input", "seeds.json", "--format", "json",
     "--average-seeds", "--filter", "convnext_vit_restricted", "--output", "fit_seeds.json"],
    # bootstrap: cold and warm, every form, SVG with a band
    ["bootstrap", "--form", "power", "--x", "flops", "--points", "power.csv", "--no-rescale",
     "--resamples", "20", "--seed", "5", "--curve-points", "10", "--output", "boot_cold.json"],
    ["bootstrap", "--form", "power", "--x", "flops", "--points", "power.csv", "--no-rescale",
     "--resamples", "200", "--warm-start", "--output", "boot_warm.json", "--svg", "boot.svg"],
    # a warm run of 1,000 resamples, evaluated in several blocks of rows
    ["bootstrap", "--form", "power", "--x", "flops", "--points", "power.csv", "--no-rescale",
     "--resamples", "1000", "--warm-start", "--output", "boot_warm_1000.json"],
    ["bootstrap", "--form", "shifted", "--x", "flops", "--points", "shifted.csv", "--no-rescale",
     "--resamples", "50", "--warm-start", "--output", "boot_shifted.json"],
    ["bootstrap", "--form", "joint", "--x", "flops", "--points", "joint.csv", "--no-rescale",
     "--resamples", "50", "--warm-start", "--output", "boot_joint.json"],
    ["bootstrap", "--form", "joint", "--x", "flops", "--points", "joint.csv", "--no-rescale",
     "--resamples", "10", "--output", "boot_joint_cold.json"],
    # allocate --verify from a compute-model report and from a run table, and
    # from a fit made at the default rescale
    ["allocate", "--fit-report", "fit_joint.json", "--compute-model", "cm.json",
     "--budget", "6e9", "--verify", "--output", "alloc_cm.json"],
    ["allocate", "--fit-report", "fit_joint.json", "--input", "runs.csv",
     "--budget", "1e20", "--verify", "--grid-points", "2001", "--output", "alloc_runs.json"],
    ["allocate", "--fit-report", "fit_joint_rescaled.json", "--compute-model", "cm.json",
     "--budget", "6e9", "--verify", "--output", "alloc_cm_rescaled.json"],
    ["allocate", "--fit-report", "fit_joint.json", "--input", "seeds.json", "--format", "json",
     "--budget", "1e12", "--output", "alloc_seeds.json"],
    # score: neural merged into a run table, ridge, rank-deficient, behavioral at two sizes
    ["score", "--kind", "neural", "--activations", "acts.csv", "--recordings", "recs.csv",
     "--region", "V4", "--ceiling", "0.9", "--output", "score_v4.json",
     "--append-to", "runs.csv", "--run-id", "sim3"],
    ["score", "--kind", "neural", "--activations", "acts.csv", "--recordings", "recs.csv",
     "--ridge", "0.1", "--ceiling", "0.9", "--output", "score_ridge.json"],
    ["score", "--kind", "neural", "--activations", "acts_wide.csv", "--recordings", "recs_wide.csv",
     "--region", "V1", "--ceiling", "1", "--output", "score_wide.json"],
    ["score", "--kind", "behavior", "--train", "train.csv", "--test", "test.csv",
     "--pattern", "pattern.csv", "--ceiling", "0.8", "--output", "score_behavior.json"],
    ["score", "--kind", "behavior", "--train", "train_full.csv", "--test", "test_full.csv",
     "--pattern", "pattern_full.csv", "--ceiling", "1", "--output", "score_behavior_full.json"],
    ["report", "--fit", "IT=fit_power.json", "--fit", "V4=fit_runs.json",
     "--fit", "V1=fit_runs_flops.json", "--output", "gains.csv"],
    # error paths
    ["fit", "--form", "power", "--x", "flops", "--output", "err_fit.json"],
    ["fit", "--form", "power", "--x", "flops", "--input", "runs.csv", "--points", "power.csv",
     "--no-rescale", "--output", "err_both.json"],
    ["fit", "--form", "power", "--x", "flops", "--points", "joint.csv",
     "--output", "err_cols.json"],
    ["bootstrap", "--form", "power", "--x", "flops", "--output", "err_boot.json"],
    [*CURVE, "--form", "power", "--as-runs", "--output", "err_runs.csv"],
    ["score", "--kind", "neural", "--activations", "acts.csv", "--ceiling", "1",
     "--output", "err_neural.json"],
    ["score", "--kind", "behavior", "--train", "train.csv", "--test", "test.csv", "--ceiling", "1",
     "--output", "err_behavior.json"],
    ["score", "--kind", "neural", "--activations", "acts.csv", "--recordings", "recs.csv",
     "--ceiling", "1", "--append-to", "runs.csv", "--output", "err_append.json"],
    ["score", "--kind", "neural", "--activations", "acts.csv", "--recordings", "recs.csv",
     "--ceiling", "1", "--repeats", "0", "--output", "err_repeats.json"],
    # a ceiled score above the run table's range; no later command reads runs_samples.csv
    ["score", "--kind", "neural", "--activations", "acts.csv", "--recordings", "recs.csv",
     "--ceiling", "0.5", "--append-to", "runs_samples.csv", "--run-id", "sim0",
     "--output", "err_append_range.json"],
    ["allocate", "--fit-report", "fit_joint.json", "--compute-model", "cm_no_n.json",
     "--budget", "1e9", "--output", "err_alloc.json"],
    ["allocate", "--fit-report", "fit_joint.json", "--compute-model", "cm.json",
     "--input", "runs.csv", "--budget", "1e9", "--output", "err_alloc_both.json"],
    ["report", "--fit", "IT=list.json", "--output", "err_gains.csv"],
    ["ingest", "--input", "short.csv", "--output", "err_short.csv"],
    ["ingest", "--input", "bad_rows.csv", "--output", "err_bad_rows.csv"],
    ["ingest", "--input", "dup.csv", "--output", "err_dup.csv"],
    ["ingest", "--input", "no_flops.csv", "--output", "err_no_flops.csv"],
    ["ingest", "--input", "empty.csv", "--output", "err_empty.csv"],
    ["ingest", "--input", "not_objects.json", "--format", "json", "--output", "err_not_objects.csv"],
    ["ingest", "--input", "multi_fault.csv", "--output", "err_multi_fault.csv"],
    ["ingest", "--input", "repeated.csv", "--output", "err_repeated.csv"],
    ["allocate", "--fit-report", "fit_joint.json", "--compute-model", "cm.json",
     "--budget", "nan", "--output", "err_alloc_nan.json"],
    ["ingest", "--input", "inf_flops.csv", "--output", "err_inf_flops.csv"],
    ["allocate", "--fit-report", "fit_joint.json", "--compute-model", "cm.json",
     "--budget", "-1e9", "--output", "err_alloc_negative.json"],
    # two seed rows whose flops sum overflows; the averaged table is read back
    ["ingest", "--input", "huge_flops.csv", "--average-seeds", "--output", "huge_avg.csv"],
    ["ingest", "--input", "huge_avg.csv", "--output", "huge_avg_back.csv"],
]

TABLE_HEADER = (
    "run_id,family,arch,dataset,samples_per_class,seed,n_params,samples_seen,flops,"
    "score_v1,score_v2,score_v4,score_it,score_behavior,val_accuracy"
)
TABLE_ROWS = [
    "a0,ViT,vit_s,eco,10,0,1000,20000,1.2e11,0.1,0.2,0.3,0.4,0.5,0.61",
    "a1,ViT,vit_s,eco,10,1,1000,20000,1.2e11,0.12,0.22,0.32,0.42,0.52,",
    "b0,ViT,vit_b,eco,full,0,5000,130000,3.9e12,0.2,0.3,0.4,0.5,0.6,0.7",
    "c0,ResNet,r18,eco,10,0,2000,20000,2.4e11,0.15,0.25,0.35,0.45,0.55,",
    "c1,ResNet,r18,eco,10,1,2000,20002,2.4e11,0.17,0.27,0.37,0.47,0.57,0.5",
    "d0,ConvNeXt,cnx_t,eco,300,0,3000,39000,7.0e11,0.3,0.3,0.3,0.3,0.3,",
]

EDGE_ROWS = [  # CSV lines under TABLE_HEADER plus a "notes" column
    'e0,"Res,Net","r18 ""wide""",eco,10,0,1000,20000,1.2e11,0.1,0.2,0.3,0.4,1.02,0.5,"a, b"',
    "",
    "\u00e9\u4e2d1,ViT,vit_s,eco,full,1,2000,40000,4.8e11,0.1,0.2,0.3,0.4,0.5,,",
    'e2,"back\\slash",x,eco,300,0,3000,30000,5.4e11,0,1,0.5,0.25,0.125,1,note',
]
NUMERIC_ROWS = [
    {"run_id": "n0", "family": "ViT", "arch": "vit_s", "dataset": "eco", "samples_per_class": 10,
     "seed": 0, "n_params": 1000, "samples_seen": 20000, "flops": 1.2e11, "score_v1": 0.1,
     "score_v2": 0.2, "score_v4": 0.3, "score_it": 0.4, "score_behavior": 0.5,
     "val_accuracy": None},
    {"run_id": "n1", "family": "ViT", "arch": "vit_s", "dataset": "eco", "samples_per_class": "full",
     "seed": 1, "n_params": 1000, "samples_seen": 20000, "flops": 120000000000, "score_v1": 1,
     "score_v2": 0, "score_v4": 0.3, "score_it": 0.4, "score_behavior": 0.5,
     "val_accuracy": 0.75, "notes": None},
]


def seed_rows() -> list:
    """Run-table rows, as dicts of cell texts, of nine configs run with one to three seeds.

    A config's val_accuracy cells are all filled, all empty or mixed, for a single
    run too; one config's samples_seen mean is a whole number and another's ends in .5.
    """
    rows = []
    for c in range(9):
        n = 1000 * 2**c
        for s in range((2, 3, 1)[c % 3]):
            d = 20000 + (s if c in (3, 4) else 0)
            rows.append({
                "run_id": f"s{c}_{s}", "family": ("ViT", "ResNet", "ConvNeXt")[c % 3],
                "arch": f"a{c}", "dataset": "eco", "samples_per_class": ("10", "300", "full")[c // 3],
                "seed": str(s), "n_params": str(n), "samples_seen": str(d), "flops": repr(6.0 * n * d),
                **{col: repr(0.05 + ((7 * c + 3 * s + j) % 17) / 19)
                   for j, col in enumerate(TABLE_HEADER.split(",")[9:14])},
                "val_accuracy": repr(0.5 + s / 7) if (c + s) % 4 < 2 else "",
            })
    return rows


BAD_ROWS = [  # a bad int, an out-of-range score, a missing cell, a bad float
    TABLE_ROWS[0].replace(",0,1000,", ",zero,1000,"),
    TABLE_ROWS[1].replace(",0.52,", ",1.2,"),
    TABLE_ROWS[2].replace(",vit_b,", ",,"),
    TABLE_ROWS[3].replace(",2.4e11,", ",many,"),
    TABLE_ROWS[4],
]
MULTI_FAULT_ROWS = [
    TABLE_ROWS[0].replace(",1000,20000,1.2e11,", ",0,20000,0,"),  # two record faults
    TABLE_ROWS[1].replace(",20000,1.2e11,0.12,", ",-5,1.2e11,1.02,"),  # a clamp, then a fault
    TABLE_ROWS[2].replace("b0,", "a0,"),  # the run_id of a faulted row
    TABLE_ROWS[3].replace("c0,", "a0,"),  # a duplicate of the row before
    TABLE_ROWS[4].replace(",2.4e11,", ",nan,"),  # NaN flops
    TABLE_ROWS[5][:-4] + "-0.01,",  # a clamp in a good row
]


def write_inputs():
    """Inputs no CLI command writes: run tables, compute models, behavior CSVs, a bad report."""
    with open("table.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join([TABLE_HEADER, *TABLE_ROWS]) + "\n")
    with open("short.csv", "w", encoding="utf-8") as fh:  # a row missing its last four fields
        fh.write("\n".join([TABLE_HEADER, TABLE_ROWS[0].rsplit(",", 4)[0]]) + "\n")
    for name, lines in [
        ("edge.csv", [TABLE_HEADER + ",notes", *EDGE_ROWS]),
        ("bad_rows.csv", [TABLE_HEADER, *BAD_ROWS]),
        ("multi_fault.csv", [TABLE_HEADER, *MULTI_FAULT_ROWS]),
        ("inf_flops.csv", [TABLE_HEADER, *(r.replace(",3.9e12,", ",inf,") for r in TABLE_ROWS)]),
        ("huge_flops.csv", [TABLE_HEADER, *(r.replace(",1.2e11,", ",1.5e308,") for r in TABLE_ROWS)]),
        ("repeated.csv", [TABLE_HEADER + ",score_v1", *(row + ",0.99" for row in TABLE_ROWS)]),
        ("dup.csv", [TABLE_HEADER, *TABLE_ROWS, TABLE_ROWS[2]]),
        ("no_flops.csv", [TABLE_HEADER.replace(",flops", ""), *TABLE_ROWS]),
        ("empty.csv", []),
    ]:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    seeds = seed_rows()
    with open("seeds.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_HEADER.split(","))
        writer.writeheader()
        writer.writerows(seeds)
    for name, payload in [
        ("seeds.json", [{k: v or None for k, v in row.items()} for row in seeds]),
        ("cm.json", {"m": 6.0, "n": 1.0, "r2": 1.0, "spec_version": "1.0"}),
        ("cm_no_n.json", {"m": 6.0, "spec_version": "1.0"}),
        ("list.json", [1]),
        ("numeric.json", NUMERIC_ROWS),
        ("not_objects.json", [1, NUMERIC_ROWS[0], "row"]),
    ]:
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    write_behavior_task("", gen_behavior_task(n_train=400, n_test=80, seed=0))
    write_behavior_task("_full", gen_behavior_task(seed=0))  # the benchmark's 2,160/240 size


def write_behavior_task(suffix, task):
    """train, test and pattern CSVs of one gen_behavior_task draw."""
    Xtr, ytr, Xte, yte, bayes = task
    for name, X, y in [("train", Xtr, ytr), ("test", Xte, yte)]:
        with open(f"{name}{suffix}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stim_id", "label"] + [f"f{j}" for j in range(X.shape[1])])
            for i, (row, label) in enumerate(zip(X, y)):
                writer.writerow([f"s{i}", label] + [repr(float(v)) for v in row])
    with open(f"pattern{suffix}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "class", "probability"])
        k = 0
        for i, label in enumerate(yte):
            for c in range(4):
                if c != label:
                    writer.writerow([f"s{i}", c, repr(float(bayes[k]))])
                    k += 1


def digests() -> dict:
    out = {}
    for name in sorted(os.listdir(".")):
        if not name.endswith(".log") and os.path.isfile(name):
            with open(name, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run(argv):
    """(exit code, last stderr line) of one in-process CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a result the manifest records
            code = f"exception {type(exc).__name__}"
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def build_manifest(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    if os.listdir("."):
        sys.exit(f"{outdir} is not empty")
    write_inputs()
    seen = digests()
    lines = ["inputs"] + [f"  {h}  {name}" for name, h in seen.items()]
    for argv in COMMANDS:
        code, message = run(argv)
        now = digests()
        lines.append("$ " + " ".join(argv))
        lines.append(f"  exit {code}" + (f": {message}" if code != 0 else ""))
        lines += [f"  {h}  {name}" for name, h in now.items() if seen.get(name) != h]
        seen = now
    with open("manifest.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(COMMANDS)} commands -> {os.path.join(outdir, 'manifest.txt')}")


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
MOVED = 1e-9


def flatten(value, path=""):
    """(location, leaf) pairs of a JSON value, locations as key paths like a.b[0]."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from flatten(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def leaves(path) -> dict:
    """Each value of an output by its location: a JSON key path, a CSV cell named
    by row and column, or the k-th number of other text (#k, with the text
    between numbers under #text)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        with contextlib.suppress(ValueError):
            return dict(flatten(json.loads(text)))
    if path.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        return {
            f"row {i} {header[j] if j < len(header) else j}": cell
            for i, row in enumerate(rows[1:], start=1)
            for j, cell in enumerate(row)
        }
    return {
        **{f"#{k}": m.group() for k, m in enumerate(NUMBER.finditer(text))},
        "#text": NUMBER.sub("#", text),
    }


def as_number(value):
    """A float for an int, float or numeric string; None for anything else."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(old_dir: str, new_dir: str) -> None:
    """Print each output's largest relative difference and the values that moved."""
    def outputs(d):
        return {n for n in os.listdir(d) if not n.endswith(".log") and n != "manifest.txt"}

    old, new = outputs(old_dir), outputs(new_dir)
    for name in sorted(old ^ new):
        print(f"{name}: only in {old_dir if name in old else new_dir}")
    same = 0
    for name in sorted(old & new):
        a, b = os.path.join(old_dir, name), os.path.join(new_dir, name)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                same += 1
                continue
        va, vb = leaves(a), leaves(b)
        largest, lines = 0.0, []
        for key in sorted(va.keys() | vb.keys()):
            x, y = va.get(key), vb.get(key)
            fx, fy = as_number(x), as_number(y)
            if fx is None or fy is None:
                if x != y:
                    lines.append(f"  {key}: {x!r} -> {y!r}")
                continue
            rel = relative(fx, fy)
            largest = max(largest, rel)
            if rel > MOVED:
                lines.append(f"  {key}: {x} -> {y} (rel {rel:.2e})")
        print(f"{name}: largest relative difference {largest:.2e}")
        for line in lines:
            print(line)
    print(f"{same} outputs byte-identical")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        compare(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 2:
        build_manifest(sys.argv[1])
    else:
        sys.exit("usage: cli_manifest.py OUTDIR | --compare OLD_OUTDIR NEW_OUTDIR")
