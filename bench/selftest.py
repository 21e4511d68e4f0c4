"""Tests of the benchmark itself: tiny workloads, output checks, tracing.

    python3 -m pytest -q bench/selftest.py

Every output check must flag a deliberately corrupted result, so that a
run reporting no failed jobs means something.
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_scalefit()

import scalefit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "joint_fit": dict(
        fit_cfg=dataclasses.replace(workloads.JointFitWorkload.warmup_cfg, grid_alpha=(0.3, 0.6)),
        grid_side=6,
        budgets=(1e4, 1e7, 1e10),
    ),
    "bootstrap_warm": dict(resamples=40, n_points=20, curve_points=5, warmup_resamples=10),
    # Acceptance test 8's attenuated benchmark: small, and still within tolerance.
    "alignment_score": dict(
        n_stimuli=600, n_features=10, n_neuroids=8,
        behavior_kwargs=dict(n_train=400, n_test=80),
    ),
    "runtable_io": dict(n_configs=60),
}


def tiny(name, tmp_path, seed=3):
    w = workloads.WORKLOADS[name](str(tmp_path), **TINY[name])
    w.setup(seed)
    return w


def one_job(w, seed=5):
    inp = w.job_input(seed)
    return inp, w.run(inp)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_job_passes_and_repeats_bytes(name, tmp_path):
    w = tiny(name, tmp_path)
    w.warmup(7)
    inp, out = one_job(w)
    assert w.check(inp, out) == []
    assert w.serialize(one_job(w)[1]) == w.serialize(out)


def test_joint_check_flags_perturbed_parameter_and_allocation(tmp_path):
    w = tiny("joint_fit", tmp_path)
    inp, out = one_job(w)
    bad = dict(out, fit=dataclasses.replace(out["fit"], alpha=out["fit"].alpha * 1.03))
    assert any("alpha" in p for p in w.check(inp, bad))
    closed, brute = out["allocs"][0]
    moved = dataclasses.replace(closed, n_star=closed.n_star * 1.01)
    problems = w.check(inp, dict(out, allocs=[(moved, brute)] + out["allocs"][1:]))
    assert any("spends" in p for p in problems) and any("brute-force" in p for p in problems)


def test_bootstrap_check_flags_swapped_bound_and_failed_resamples(tmp_path):
    w = tiny("bootstrap_warm", tmp_path)
    inp, out = one_job(w)
    lo, hi = out.param_ci["alpha"]
    swapped = dataclasses.replace(out, param_ci=dict(out.param_ci, alpha=(hi, lo)))
    assert any("alpha" in p for p in w.check(inp, swapped))
    failing = dataclasses.replace(out, n_failed_resamples=out.resamples // 4)
    assert any("resamples failed" in p for p in w.check(inp, failing))


def test_alignment_check_flags_off_target_and_nonfinite_scores(tmp_path):
    w = tiny("alignment_score", tmp_path)
    inp, (neural, behavior) = one_job(w)
    off = dataclasses.replace(neural, raw=neural.raw + 0.1)
    assert any("neural raw" in p for p in w.check(inp, (off, behavior)))
    nan = dataclasses.replace(behavior, raw=math.nan)
    assert any("behavioral" in p for p in w.check(inp, (neural, nan)))


def test_runtable_check_flags_exit_code_and_altered_byte(tmp_path):
    w = tiny("runtable_io", tmp_path)
    inp, out = one_job(w)
    assert w.check(inp, out) == []
    assert w.check(inp, dict(out, codes=[0, 1, 0]))

    path = Path(w.outputs["filtered"])
    data = bytearray(path.read_bytes())
    header_end = data.index(b"\n")
    digit = next(i for i in range(header_end + 1, len(data)) if data[i : i + 1].isdigit() and data[i] != ord("9"))
    data[digit] += 1  # one digit of one field, one byte
    path.write_bytes(bytes(data))
    altered = dict(out, blobs=dict(out["blobs"], filtered=bytes(data)))
    assert w.check(inp, altered)


def test_runtable_check_flags_wrong_allocation(tmp_path):
    w = tiny("runtable_io", tmp_path)
    inp, out = one_job(w)
    report = json.loads(out["blobs"]["alloc"])
    report["verify"]["log10_n_discrepancy"] = 2 * report["verify"]["grid_cell_log10"]
    bad = dict(out, blobs=dict(out["blobs"], alloc=json.dumps(report).encode()))
    assert any("brute-force" in p for p in w.check(inp, bad))


class Counter:
    """A workload whose output changes on every job, even with the same seed."""

    name = "counter"
    repeat_first = True

    def __init__(self):
        self.calls = 0

    def setup(self, seed):
        pass

    def warmup(self, seed):
        pass

    def job_input(self, seed):
        return seed

    def run(self, inp):
        self.calls += 1
        return self.calls

    def check(self, inp, out):
        return []

    def serialize(self, out):
        return str(out).encode()


def test_determinism_check_fails_the_repeated_job():
    res = run.measure(Counter(), seed=0, seconds=1e-9)
    assert len(res["latencies"]) == 2
    assert list(res["failures"]) == [1]


def test_measure_runs_closed_loop_with_repeat(tmp_path):
    w = tiny("alignment_score", tmp_path)
    w.warmup(workloads.WARMUP_SEED)
    res = run.measure(w, seed=1, seconds=0.05)
    assert res["failures"] == {}
    assert len(res["latencies"]) >= 2


def test_shims_reach_every_importing_module(tmp_path):
    originals = {
        (mod, attr): getattr(mod, attr)
        for mod, attr in [
            (scalefit.scaling, "minimize_batch"),
            (scalefit.numerics, "minimize_batch"),
            (scalefit.alignment, "minimize"),
            (scalefit.alignment, "pearson"),
            (scalefit.alignment, "fit_logistic"),
            (scalefit.uncertainty, "fit_power_law"),
            (scalefit.uncertainty, "predict"),
            (scalefit.cli, "ingest"),
            (scalefit.cli, "export"),
            (scalefit.cli, "fit_joint"),
            (scalefit, "fit_joint"),
        ]
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn, f"{mod.__name__}.{attr} not shimmed"
            assert getattr(mod, attr).__wrapped__ is fn
        assert scalefit.numerics.huber.__name__ == "huber" and not hasattr(scalefit.numerics.huber, "__wrapped__")
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn


def traced_measure(w, seed=2):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.prepare(w, seed)
        res = run.measure(w, seed=seed, seconds=1e-9, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, res


def test_traced_job_self_times_add_up_and_count_layers(tmp_path):
    tracer, res = traced_measure(tiny("bootstrap_warm", tmp_path))
    assert res["failures"] == {}
    n = len(res["latencies"])
    closure = res["closure"]
    assert sorted(closure) == list(range(n))
    assert max(gap for gap, _ in closure.values()) < run.CLOSURE_TOL_S
    assert max(share for _, share in closure.values()) < run.UNTRACED_MAX_SHARE
    m = tracer.layer_metrics(n, n / sum(res["latencies"]))
    assert set(m) == set(tracing.PER_LAYER)
    assert m["uncertainty.resamples"] == 40
    assert m["scaling.fit_power_law.calls"] == 41  # point estimate + resamples
    assert m["scaling.predict.calls"] == 40 * 5
    assert m["numerics.minimize_batch.calls"] == 41
    assert 0 < m["numerics.objective.s"] < m["uncertainty.bootstrap_fit.s"]
    assert m["alignment.neural_score.s"] == 0.0 and m["cli.main.calls"] == 0.0
    assert m["synth.s"] > 0.0


def test_synth_s_leaves_out_job_inputs(tmp_path):
    # joint_fit generates each job's points with synth; that is not set-up.
    tracer, res = traced_measure(tiny("joint_fit", tmp_path))
    a = tracer.arrays()
    synth = np.char.startswith(a["name"], "synth.")
    assert np.sum(synth & (a["job"] == tracing.INPUT_JOB)) == len(res["latencies"])
    setup_synth = float(np.sum((a["end"] - a["start"])[synth & (a["job"] == tracing.SETUP_JOB)]))
    assert tracer.layer_metrics(1, 1.0)["synth.s"] == setup_synth


def test_closure_flags_work_no_shim_saw(tmp_path):
    w = tiny("bootstrap_warm", tmp_path)
    tracer = tracing.Tracer()  # job spans, but no shims installed
    res = run.measure(w, seed=2, seconds=1e-9, tracer=tracer)
    assert sorted(res["failures"]) == sorted(res["closure"])
    assert all(any("outside every shim" in p for p in issues) for issues in res["failures"].values())


def test_benchmark_json_names_match_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "joint_fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
