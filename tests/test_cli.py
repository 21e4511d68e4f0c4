import csv
import json

import numpy as np
import pytest

from scalefit import cli, records
from scalefit.cli import (
    _fit_from_payload,
    _fit_payload,
    _target_misalignment,
    build_parser,
    main,
)
from scalefit.records import CSV_COLUMNS, OPTIONAL_COLUMNS, REGIONS, RunRecord, RunTable, ingest
from scalefit.scaling import (
    FitConfig,
    Rescale,
    fit_joint,
    fit_power_law,
    fit_shifted_power_law,
)
from scalefit.synth import CurveGenerator, gen_behavior_task, gen_curve_points


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def run(*argv):
    return main(list(argv))


def write_report(path, **fields):
    """A power-law fit report, with `fields` replacing or adding entries."""
    payload = {
        "form": "power",
        "params": {"E": 0.52, "A": 0.55, "alpha": 0.16},
        "objective": 0.0,
        "init_used": [],
        "degenerate": False,
        "x_kind": "flops",
        "rescale": {"x_scale": 1.0},
        "spec_version": "1.0",
    }
    payload.update(fields)
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def points_csv(tmp_path):
    """Noiseless power-law points in bare units."""
    out = tmp_path / "points.csv"
    assert run(
        "simulate", "--kind", "curve", "--form", "power",
        "--E", "0.52", "--A", "0.55", "--alpha", "0.16",
        "--x-min", "1e-3", "--x-max", "1e3", "--n-points", "40",
        "--output", str(out),
    ) == 0
    return out


@pytest.fixture
def joint_reports(tmp_path):
    """Joint fit reports of one noisy 6x6 grid at the default rescale and with --no-rescale."""
    pts = tmp_path / "joint.csv"
    assert run(
        "simulate", "--kind", "curve", "--form", "joint",
        "--E", "0.3", "--A", "1.0", "--alpha", "0.34", "--B", "2.0", "--beta", "0.28",
        "--grid-side", "6", "--sigma", "0.01", "--seed", "3", "--output", str(pts),
    ) == 0
    reports = {}
    for name, flags in [("default", ()), ("raw", ("--no-rescale",))]:
        reports[name] = tmp_path / f"{name}.json"
        assert run(
            "fit", "--form", "joint", "--x", "flops", "--points", str(pts), *flags,
            "--output", str(reports[name]),
        ) == 0
    return reports


class TestSimulate:
    def test_curve_points_file(self, points_csv):
        with open(points_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        x0, l0 = float(rows[0]["x"]), float(rows[0]["l"])
        assert l0 == pytest.approx(0.52 + 0.55 * x0**-0.16, rel=1e-12)

    def test_benchmark_files(self, tmp_path):
        acts = tmp_path / "acts.csv"
        recs = tmp_path / "recs.csv"
        meta = tmp_path / "meta.json"
        assert run(
            "simulate", "--kind", "benchmark", "--stimuli", "50",
            "--rho", "0.8", "--seed", "3",
            "--activations", str(acts), "--recordings", str(recs),
            "--output", str(meta),
        ) == 0
        payload = read_json(meta)
        assert payload["theoretical_r"] == pytest.approx(0.8, rel=1e-12)
        with open(acts) as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "stim_id"

    def test_as_runs_round_trip(self, tmp_path):
        runs = tmp_path / "runs.csv"
        assert run(
            "simulate", "--kind", "curve", "--form", "power",
            "--E", "0.3", "--A", "0.5", "--alpha", "0.2",
            "--x-min", "1", "--x-max", "1e4", "--n-points", "20",
            "--as-runs", "--x-kind", "flops",
            "--output", str(runs),
        ) == 0
        out = tmp_path / "echo.csv"
        assert run("ingest", "--input", str(runs), "--output", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20

    def test_as_runs_rejects_negative_scores(self, tmp_path):
        # E + A at x=1 is 1.07 -> S = -0.07, not a valid score
        out = tmp_path / "runs.csv"
        assert run(
            "simulate", "--kind", "curve", "--form", "power",
            "--x-min", "1e-3", "--x-max", "1e3",
            "--as-runs", "--output", str(out),
        ) == 1
        assert not out.exists()


class TestParser:
    def test_parser_built_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run("report", "--output", str(tmp_path / "gains.csv")) == 1
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1

    def test_seed_env_read_per_call(self, tmp_path, monkeypatch):
        curve = [
            "simulate", "--kind", "curve", "--n-points", "10", "--sigma", "0.1", "--output",
        ]

        def points(name, *extra):
            path = tmp_path / name
            assert run(*curve, str(path), *extra) == 0
            return path.read_bytes()

        monkeypatch.delenv("SCALEFIT_SEED", raising=False)
        zero = points("zero.csv", "--seed", "0")
        assert points("unset.csv") == zero
        by_env = {}
        for seed in ("5", "7"):
            monkeypatch.setenv("SCALEFIT_SEED", seed)
            by_env[seed] = points(f"env{seed}.csv")
            assert by_env[seed] == points(f"flag{seed}.csv", "--seed", seed)
            assert points(f"override{seed}.csv", "--seed", "0") == zero
        assert by_env["5"] != by_env["7"]


class TestFit:
    def test_fit_recovers_and_reruns_identically(self, tmp_path, points_csv):
        rep1 = tmp_path / "fit1.json"
        rep2 = tmp_path / "fit2.json"
        for rep in (rep1, rep2):
            assert run(
                "fit", "--form", "power", "--x", "flops",
                "--points", str(points_csv), "--no-rescale",
                "--output", str(rep),
            ) == 0
        assert rep1.read_bytes() == rep2.read_bytes()
        payload = read_json(rep1)
        assert payload["params"]["E"] == pytest.approx(0.52, rel=1e-3)
        assert payload["params"]["alpha"] == pytest.approx(0.16, rel=1e-3)
        assert payload["spec_version"] == "1.0"
        assert (tmp_path / "fit1.json.log").exists()

    def test_sidecar_log_records_numpy_and_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "pts.csv"
        assert run(
            "simulate", "--kind", "curve", "--form", "power",
            "--E", "0.3", "--A", "0.5", "--alpha", "0.2", "--output", str(out),
        ) == 0
        lines = (tmp_path / "pts.csv.log").read_text().splitlines()
        assert f"numpy_version: {np.__version__}" in lines
        assert lines[-3:] == [
            "OPENBLAS_NUM_THREADS: 3", "OMP_NUM_THREADS: 1", "MKL_NUM_THREADS: unset",
        ]

    def test_shifted_fit_reruns_identically(self, tmp_path):
        pts = tmp_path / "shifted.csv"
        assert run(
            "simulate", "--kind", "curve", "--form", "shifted",
            "--E", "0.4", "--A", "0.6", "--alpha", "0.3", "--lambda", "0.5",
            "--x-min", "1e-2", "--x-max", "1e3", "--n-points", "30",
            "--output", str(pts),
        ) == 0
        for freeze in ([], ["--freeze-lambda"]):
            outputs = []
            for i in range(2):
                rep, curve = tmp_path / f"s{i}.json", tmp_path / f"c{i}.csv"
                assert run(
                    "fit", "--form", "shifted", "--x", "flops", *freeze,
                    "--points", str(pts), "--no-rescale",
                    "--output", str(rep), "--emit-curve", str(curve),
                ) == 0
                outputs.append((rep.read_bytes(), curve.read_bytes()))
            assert outputs[0] == outputs[1]
            payload = read_json(tmp_path / "s0.json")
            assert payload["form"] == "shifted" and payload["x_kind"] == "flops"
            # lambda = 0.5 is on the start grid, so a frozen fit recovers it too
            assert payload["params"]["alpha"] == pytest.approx(0.3, rel=1e-3)
            assert payload["params"]["lambda"] == pytest.approx(0.5, abs=1e-3)

    def test_missing_x_is_usage_error(self, tmp_path, points_csv):
        with pytest.raises(SystemExit) as exc:
            run(
                "fit", "--form", "power", "--points", str(points_csv),
                "--output", str(tmp_path / "f.json"),
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["fit", "bootstrap"])
    @pytest.mark.parametrize("sources", [[], ["--input", "runs.csv", "--points", "points.csv"]])
    def test_input_xor_points_is_usage_error(self, tmp_path, command, sources):
        with pytest.raises(SystemExit) as exc:
            run(
                command, "--form", "power", "--x", "flops", *sources,
                "--output", str(tmp_path / "f.json"),
            )
        assert exc.value.code == 2
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize(
        "text", ["n,l\n1.0,0.5\n", "x,l\n1.0,0.5\n2.0\n", "x,l,x\n1.0,0.5,1.0\n"],
        ids=["missing-column", "short-row", "repeated-column"],
    )
    def test_bad_points_csv_names_file(self, tmp_path, capsys, text):
        pts = tmp_path / "bad.csv"
        pts.write_text(text)
        assert run(
            "fit", "--form", "power", "--x", "flops", "--points", str(pts),
            "--output", str(tmp_path / "f.json"),
        ) == 1
        assert "bad.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, message", [
        ("x", "X values must be positive, got nan"),
        ("l", "L values must be finite, got nan"),
    ])
    def test_nan_point_named(self, tmp_path, capsys, cell, message):
        rows = [{"x": repr(10.0**k), "l": repr(0.3 + 0.5 * 10.0**(-0.2 * k))} for k in range(5)]
        rows[2][cell] = "nan"
        pts = tmp_path / "nan.csv"
        pts.write_text("x,l\n" + "".join(f"{r['x']},{r['l']}\n" for r in rows))
        assert run(
            "fit", "--form", "power", "--x", "flops", "--points", str(pts),
            "--output", str(tmp_path / "f.json"),
        ) == 1
        assert capsys.readouterr().err.strip().endswith(f"error: {message}")

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        assert run(
            "fit", "--form", "power", "--x", "flops",
            "--points", str(tmp_path / "nope.csv"),
            "--output", str(tmp_path / "f.json"),
        ) == 1

    def test_emit_curve_and_svg(self, tmp_path, points_csv):
        curve = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        assert run(
            "fit", "--form", "power", "--x", "flops",
            "--points", str(points_csv), "--no-rescale",
            "--output", str(tmp_path / "fit.json"),
            "--emit-curve", str(curve), "--svg", str(svg),
        ) == 0
        with open(curve) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        assert float(rows[0]["S"]) == pytest.approx(1.0 - float(rows[0]["L"]), abs=1e-12)
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_fit_from_run_table_target_it(self, tmp_path):
        runs = tmp_path / "runs.csv"
        assert run(
            "simulate", "--kind", "curve", "--form", "power",
            "--E", "0.3", "--A", "0.5", "--alpha", "0.2",
            "--x-min", "1", "--x-max", "1e4", "--n-points", "20",
            "--as-runs", "--output", str(runs),
        ) == 0
        rep = tmp_path / "fit.json"
        assert run(
            "fit", "--form", "power", "--x", "flops",
            "--input", str(runs), "--target", "it", "--no-rescale",
            "--output", str(rep),
        ) == 0
        payload = read_json(rep)
        assert payload["target"] == "it"
        assert payload["params"]["alpha"] == pytest.approx(0.2, rel=0.01)

    @pytest.mark.parametrize("target, scores, L", [
        ("mean", (0.71, 0.21, 0.83, 0.57, 0.28), 0.48),
        ("brain", (0.58, 0.9, 0.68, 0.93, 0.5), 0.22750000000000004),
        ("v4", (0.1, 0.2, 0.3, 0.4, 0.5), 0.7),
    ])
    def test_target_mean_is_fsum_then_one_division(self, target, scores, L):
        # a left-to-right sum of the mean and brain scores gives another last digit
        run_ = RunRecord(
            run_id="r", family="ResNet", arch="r18", dataset="eco", samples_per_class="full",
            seed=0, n_params=1000, samples_seen=1000, flops=1e9, scores=dict(zip(REGIONS, scores)),
        )
        assert _target_misalignment(RunTable(rows=(run_,)), target) == [L]

    def test_joint_fit_at_default_rescale_reaches_unscaled_optimum(self, joint_reports):
        # At the default rescale (N / 1e5, D / 1e4) the truth's log A is about -3.9.
        fits = {name: read_json(rep) for name, rep in joint_reports.items()}
        assert fits["default"]["rescale"] == {"n_scale": 1e5, "d_scale": 1e4}
        assert fits["default"]["objective"] == pytest.approx(fits["raw"]["objective"], rel=1e-9)
        assert not fits["default"]["degenerate"]


class TestAllocate:
    @pytest.fixture
    def joint_report(self, tmp_path):
        pts = tmp_path / "joint.csv"
        assert run(
            "simulate", "--kind", "curve", "--form", "joint",
            "--E", "0.3", "--A", "1.0", "--alpha", "0.34",
            "--B", "2.0", "--beta", "0.28",
            "--n-min", "1", "--n-max", "1e3", "--d-min", "1", "--d-max", "1e3",
            "--grid-side", "8", "--output", str(pts),
        ) == 0
        rep = tmp_path / "jointfit.json"
        assert run(
            "fit", "--form", "joint", "--x", "flops",
            "--points", str(pts), "--no-rescale",
            "--output", str(rep),
        ) == 0
        return rep

    def test_allocate_with_verify(self, tmp_path, joint_report):
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps({"m": 6.0, "n": 1.0, "r2": 1.0, "spec_version": "1.0"}))
        out = tmp_path / "alloc.json"
        assert run(
            "allocate", "--fit-report", str(joint_report),
            "--compute-model", str(cm),
            "--budget", "6e9",
            "--verify", "--output", str(out),
        ) == 0
        payload = read_json(out)
        assert payload["n_star"] * payload["d_star"] == pytest.approx(1e9, rel=1e-9)
        v = payload["verify"]
        assert v["log10_n_discrepancy"] <= v["grid_cell_log10"]
        assert payload["coefficients"]["a_prime"] + payload["coefficients"]["b_prime"] == 1.0

    def test_raw_compute_model_on_rescaled_fit_spends_budget(self, tmp_path, joint_reports):
        # The compute model and budget are raw; the fit's own scales are
        # applied inside the allocation, so both fits spend the budget.
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps({"m": 6, "n": 1, "spec_version": "1.0"}))
        allocs = {}
        for name, rep in joint_reports.items():
            out = tmp_path / f"alloc_{name}.json"
            assert run(
                "allocate", "--fit-report", str(rep), "--compute-model", str(cm),
                "--budget", "1e20", "--output", str(out),
            ) == 0
            allocs[name] = read_json(out)
            spent = 6.0 * allocs[name]["n_star"] * allocs[name]["d_star"]
            assert spent == pytest.approx(1e20, rel=1e-9)
        assert allocs["default"]["rescale"] == {"n_scale": 1e5, "d_scale": 1e4}
        assert allocs["default"]["compute_model"]["m"] == 6.0
        assert allocs["default"]["n_star"] == pytest.approx(allocs["raw"]["n_star"], rel=1e-6)

    def test_compute_model_without_r2_writes_strict_json(self, tmp_path, joint_report):
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps({"m": 6, "n": 1, "spec_version": "1.0"}))
        out = tmp_path / "alloc.json"
        assert run(
            "allocate", "--fit-report", str(joint_report), "--compute-model", str(cm),
            "--budget", "1e20", "--output", str(out),
        ) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["compute_model"]["r2"] is None

    def test_allocate_requires_compute_model_source(self, tmp_path, joint_report):
        with pytest.raises(SystemExit) as exc:
            run(
                "allocate", "--fit-report", str(joint_report),
                "--budget", "1e9", "--output", str(tmp_path / "a.json"),
            )
        assert exc.value.code == 2

    def test_compute_model_xor_input_is_usage_error(self, tmp_path, joint_report):
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps({"m": 6.0, "n": 1.0, "spec_version": "1.0"}))
        with pytest.raises(SystemExit) as exc:
            run(
                "allocate", "--fit-report", str(joint_report), "--compute-model", str(cm),
                "--input", str(tmp_path / "missing.csv"),
                "--budget", "1e9", "--output", str(tmp_path / "a.json"),
            )
        assert exc.value.code == 2
        assert not (tmp_path / "a.json").exists()

    def test_compute_model_missing_field_is_error(self, tmp_path, joint_report, capsys):
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps({"m": 6.0, "spec_version": "1.0"}))
        assert run(
            "allocate", "--fit-report", str(joint_report), "--compute-model", str(cm),
            "--budget", "1e9", "--output", str(tmp_path / "a.json"),
        ) == 1
        assert "cm.json: report has no field 'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "inf", "-1", "0", "-1e9", "-inf"])
    def test_allocate_rejects_bad_budget_before_reading_reports(self, tmp_path, capsys, budget):
        out = tmp_path / "a.json"
        assert run(
            "allocate", "--fit-report", str(tmp_path / "missing.json"),
            "--compute-model", str(tmp_path / "missing_cm.json"),
            "--budget", budget, "--output", str(out),
        ) == 1
        assert capsys.readouterr().err == "error: --budget must be positive and finite\n"
        assert not out.exists()

    def test_allocate_rejects_power_fit(self, tmp_path, points_csv):
        rep = tmp_path / "p.json"
        assert run(
            "fit", "--form", "power", "--x", "flops",
            "--points", str(points_csv), "--no-rescale", "--output", str(rep),
        ) == 0
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps({"m": 6.0, "n": 1.0, "spec_version": "1.0"}))
        assert run(
            "allocate", "--fit-report", str(rep), "--compute-model", str(cm),
            "--budget", "1e9", "--output", str(tmp_path / "a.json"),
        ) == 1


class TestBootstrap:
    def test_bootstrap_deterministic(self, tmp_path):
        pts = tmp_path / "noisy.csv"
        assert run(
            "simulate", "--kind", "curve", "--form", "power",
            "--x-min", "1e-2", "--x-max", "1e2", "--n-points", "25",
            "--sigma", "0.05", "--seed", "1", "--output", str(pts),
        ) == 0
        out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
        for out in (out1, out2):
            assert run(
                "bootstrap", "--form", "power", "--x", "flops",
                "--points", str(pts), "--no-rescale",
                "--resamples", "20", "--seed", "7", "--warm-start",
                "--curve-points", "5", "--output", str(out),
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = read_json(out1)
        lo, hi = payload["param_ci"]["alpha"]
        assert lo <= payload["params"]["alpha"] * 1.5 and lo <= hi
        assert len(payload["curve_ci"]) == 5

    @pytest.mark.parametrize("x", ["0", "-2", "nan"])
    def test_bad_x_named_with_a_band(self, tmp_path, capsys, x):
        # The band is built from X, and bootstrap_fit checks it before the
        # point fit; X that is not positive builds none, so the fit names it.
        pts = tmp_path / "bad.csv"
        pts.write_text(f"x,l\n{x},0.9\n1,0.8\n2,0.7\n3,0.65\n4,0.6\n")
        assert run(
            "bootstrap", "--form", "power", "--x", "flops", "--points", str(pts),
            "--no-rescale", "--resamples", "5", "--curve-points", "5",
            "--output", str(tmp_path / "b.json"),
        ) == 1
        want = f"error: X values must be positive, got {float(x)}"
        assert capsys.readouterr().err.strip().endswith(want)


class TestScore:
    def test_neural_noiseless_high(self, tmp_path):
        acts = tmp_path / "acts.csv"
        recs = tmp_path / "recs.csv"
        assert run(
            "simulate", "--kind", "benchmark", "--stimuli", "80", "--seed", "0",
            "--activations", str(acts), "--recordings", str(recs),
            "--output", str(tmp_path / "meta.json"),
        ) == 0
        out = tmp_path / "score.json"
        assert run(
            "score", "--kind", "neural",
            "--activations", str(acts), "--recordings", str(recs),
            "--region", "IT", "--ceiling", "1.0", "--seed", "0",
            "--output", str(out),
        ) == 0
        payload = read_json(out)
        assert payload["ceiled"] >= 0.99
        assert payload["region"] == "IT"

    def test_neural_append_to_runs(self, tmp_path):
        acts, recs = tmp_path / "a.csv", tmp_path / "r.csv"
        run(
            "simulate", "--kind", "benchmark", "--stimuli", "60", "--seed", "1",
            "--activations", str(acts), "--recordings", str(recs),
            "--output", str(tmp_path / "m.json"),
        )
        runs = tmp_path / "runs.csv"
        run(
            "simulate", "--kind", "curve", "--form", "power",
            "--E", "0.3", "--A", "0.5", "--alpha", "0.2",
            "--x-min", "1", "--x-max", "1e4", "--n-points", "5",
            "--as-runs", "--output", str(runs),
        )
        assert run(
            "score", "--kind", "neural",
            "--activations", str(acts), "--recordings", str(recs),
            "--region", "V4", "--ceiling", "1.0",
            "--output", str(tmp_path / "s.json"),
            "--append-to", str(runs), "--run-id", "sim0",
        ) == 0
        with open(runs) as fh:
            rows = {r["run_id"]: r for r in csv.DictReader(fh)}
        payload = read_json(tmp_path / "s.json")
        assert float(rows["sim0"]["score_v4"]) == pytest.approx(payload["ceiled"], abs=1e-12)

    def test_behavior_score_cli(self, tmp_path):
        Xtr, ytr, Xte, yte, bayes = gen_behavior_task(n_train=400, n_test=80, seed=0)

        def write_labeled(path, X, y):
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["stim_id", "label"] + [f"f{j}" for j in range(X.shape[1])])
                for i, (row, lab) in enumerate(zip(X, y)):
                    w.writerow([f"s{i}", lab] + [repr(float(v)) for v in row])

        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_labeled(train, Xtr, ytr)
        write_labeled(test, Xte, yte)
        pattern = tmp_path / "pattern.csv"
        with open(pattern, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["image_id", "class", "probability"])
            k = 0
            for i in range(len(yte)):
                for c in range(4):
                    if c != yte[i]:
                        w.writerow([f"s{i}", c, repr(float(bayes[k]))])
                        k += 1
        out = tmp_path / "b.json"
        assert run(
            "score", "--kind", "behavior",
            "--train", str(train), "--test", str(test), "--pattern", str(pattern),
            "--ceiling", "1.0", "--output", str(out),
        ) == 0
        payload = read_json(out)
        assert payload["region"] == "behavior"
        assert payload["raw"] > 0.9

    @pytest.mark.parametrize(
        "kind, given, missing",
        [
            ("neural", ["--activations", "a.csv"], "--recordings"),
            ("behavior", ["--train", "t.csv", "--test", "t.csv"], "--pattern"),
        ],
    )
    def test_missing_input_flag_is_named(self, tmp_path, capsys, kind, given, missing):
        out = tmp_path / "s.json"
        assert run(
            "score", "--kind", kind, *given, "--ceiling", "1.0", "--output", str(out)
        ) == 1
        assert missing in capsys.readouterr().err
        assert not out.exists()

    def test_append_to_without_run_id_writes_nothing(self, tmp_path):
        acts, recs = tmp_path / "a.csv", tmp_path / "r.csv"
        assert run(
            "simulate", "--kind", "benchmark", "--stimuli", "40",
            "--activations", str(acts), "--recordings", str(recs),
            "--output", str(tmp_path / "m.json"),
        ) == 0
        out = tmp_path / "s.json"
        assert run(
            "score", "--kind", "neural", "--activations", str(acts), "--recordings", str(recs),
            "--ceiling", "1.0", "--append-to", str(tmp_path / "runs.csv"), "--output", str(out),
        ) == 1
        assert not out.exists()

    def test_append_out_of_range_score_writes_nothing(self, tmp_path, capsys):
        acts, recs = tmp_path / "a.csv", tmp_path / "r.csv"
        assert run(
            "simulate", "--kind", "benchmark", "--stimuli", "60", "--rho", "0.8", "--seed", "1",
            "--activations", str(acts), "--recordings", str(recs),
            "--output", str(tmp_path / "m.json"),
        ) == 0
        runs = tmp_path / "runs.csv"
        assert run(
            "simulate", "--kind", "curve", "--form", "power",
            "--E", "0.3", "--A", "0.5", "--alpha", "0.2",
            "--x-min", "1", "--x-max", "1e4", "--n-points", "5",
            "--as-runs", "--output", str(runs),
        ) == 0
        before = runs.read_bytes()
        out = tmp_path / "s.json"
        # raw ~0.8 over a 0.5 ceiling: a ceiled score of ~1.6, which ingest rejects
        with pytest.warns(UserWarning, match="exceeds 1"):
            code = run(
                "score", "--kind", "neural", "--activations", str(acts), "--recordings", str(recs),
                "--ceiling", "0.5", "--output", str(out), "--append-to", str(runs),
                "--run-id", "sim0",
            )
        assert code == 1
        assert "error: score" in capsys.readouterr().err
        assert not out.exists()
        assert runs.read_bytes() == before

    def test_zero_repeats_is_error(self, tmp_path, capsys):
        acts, recs = tmp_path / "a.csv", tmp_path / "r.csv"
        assert run(
            "simulate", "--kind", "benchmark", "--stimuli", "40",
            "--activations", str(acts), "--recordings", str(recs),
            "--output", str(tmp_path / "m.json"),
        ) == 0
        out = tmp_path / "s.json"
        assert run(
            "score", "--kind", "neural", "--activations", str(acts), "--recordings", str(recs),
            "--ceiling", "1.0", "--repeats", "0", "--output", str(out),
        ) == 1
        assert "error: repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_mismatched_stimulus_ids(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("stim_id,f0\ns0,1.0\ns1,2.0\n")
        b.write_text("stim_id,n0\nz0,1.0\nz1,2.0\n")
        assert run(
            "score", "--kind", "neural", "--activations", str(a),
            "--recordings", str(b), "--ceiling", "1.0",
            "--output", str(tmp_path / "o.json"),
        ) == 1


class TestReport:
    def test_gain_ordering(self, tmp_path, capsys):
        # construct fit reports with strictly increasing gain A * 10^alpha
        specs = {
            "V1": (0.6, 0.15, 0.05),
            "V2": (0.58, 0.25, 0.08),
            "V4": (0.55, 0.35, 0.12),
            "IT": (0.52, 0.55, 0.16),
            "Behavior": (0.0, 1.4, 0.6),
        }
        flags = []
        for region, (E, A, alpha) in specs.items():
            path = write_report(tmp_path / f"{region}.json", params={"E": E, "A": A, "alpha": alpha})
            flags += ["--fit", f"{region}={path}"]
        out = tmp_path / "gains.csv"
        assert run("report", *flags, "--output", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["region"] for r in rows] == ["Behavior", "IT", "V4", "V2", "V1"]
        gains = [float(r["gain"]) for r in rows]
        assert gains == sorted(gains, reverse=True)
        assert "Behavior > IT > V4 > V2 > V1" in capsys.readouterr().out

    def test_rejects_old_spec_version(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"form": "power", "spec_version": "2.0"}))
        assert run(
            "report", "--fit", f"IT={path}", "--output", str(tmp_path / "g.csv")
        ) == 1

    def test_report_not_an_object_is_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert run("report", "--fit", f"IT={path}", "--output", str(tmp_path / "g.csv")) == 1
        assert "list.json: report is not a JSON object" in capsys.readouterr().err
        assert run(
            "allocate", "--fit-report", str(path), "--compute-model", str(path),
            "--budget", "1e9", "--output", str(tmp_path / "a.json"),
        ) == 1

    def test_no_reports_is_error(self, tmp_path):
        assert run("report", "--output", str(tmp_path / "g.csv")) == 1

    def test_missing_field_is_error(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"spec_version": "1.0", "form": "power"}))
        assert run("report", "--fit", f"IT={path}", "--output", str(tmp_path / "g.csv")) == 1
        assert "'params'" in capsys.readouterr().err
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps({"m": 6.0, "n": 1.0, "spec_version": "1.0"}))
        assert run(
            "allocate", "--fit-report", str(path), "--compute-model", str(cm),
            "--budget", "1e9", "--output", str(tmp_path / "a.json"),
        ) == 1
        assert "'params'" in capsys.readouterr().err

    def test_unknown_form_is_error(self, tmp_path, capsys):
        path = write_report(tmp_path / "r.json", form="bogus")
        with pytest.raises(ValueError, match="power.*shifted.*joint"):
            _fit_from_payload(read_json(path))
        assert run("report", "--fit", f"IT={path}", "--output", str(tmp_path / "g.csv")) == 1
        assert "'bogus'" in capsys.readouterr().err

    def test_rejects_shifted_fit(self, tmp_path):
        path = write_report(
            tmp_path / "s.json",
            form="shifted",
            params={"E": 0.52, "A": 0.55, "alpha": 0.16, "lambda": 1.0},
        )
        out = tmp_path / "g.csv"
        assert run("report", "--fit", f"IT={path}", "--output", str(out)) == 1
        assert not out.exists()


def xl_points(form, params):
    return gen_curve_points(
        CurveGenerator(form=form, true_params=params, x_grid=tuple(np.logspace(-2, 2, 12)))
    )


def joint_points():
    grid = tuple(np.logspace(0, 3, 4))
    params = {"E": 0.3, "A": 1.0, "alpha": 0.34, "B": 2.0, "beta": 0.28}
    return gen_curve_points(CurveGenerator(form="joint", true_params=params, n_grid=grid, d_grid=grid))


# A 2^d-start grid and distinct rescale divisors, so a mixed-up scale field shows.
SMALL_CFG = FitConfig(
    grid_e=(-1.0, 0.0),
    grid_a=(0.0, 5.0),
    grid_alpha=(0.5, 1.0),
    grid_lambda=(0.0, 1.0),
    rescale=Rescale(10.0, 100.0, 1000.0),
)


class TestFitPayload:
    @pytest.mark.parametrize(
        "form, make_fit",
        [
            ("power", lambda: fit_power_law(
                xl_points("power", {"E": 0.52, "A": 0.55, "alpha": 0.16}), SMALL_CFG, "params"
            )),
            ("shifted", lambda: fit_shifted_power_law(
                xl_points("shifted", {"E": 0.4, "A": 0.6, "alpha": 0.3, "lambda": 0.5}),
                SMALL_CFG,
                "samples",
            )),
            ("joint", lambda: fit_joint(joint_points(), SMALL_CFG)),
        ],
        ids=["power", "shifted", "joint"],
    )
    def test_round_trip(self, form, make_fit):
        fit = make_fit()
        assert fit.form == form
        payload = json.loads(json.dumps(_fit_payload(fit)))
        assert _fit_from_payload(payload) == fit


class TestIngestCommand:
    def test_filter_flag(self, tmp_path):
        header = (
            "run_id,family,arch,dataset,samples_per_class,seed,n_params,"
            "samples_seen,flops,score_v1,score_v2,score_v4,score_it,score_behavior"
        )
        rows = [
            "a,ViT,vit_s,eco,10,0,1000,1000,1e6,0.1,0.1,0.1,0.1,0.1",
            "b,ResNet,r18,eco,10,0,1000,1000,1e6,0.1,0.1,0.1,0.1,0.1",
        ]
        src = tmp_path / "in.csv"
        src.write_text("\n".join([header] + rows) + "\n")
        out = tmp_path / "out.csv"
        assert run(
            "ingest", "--input", str(src), "--output", str(out),
            "--filter", "convnext_vit_restricted",
        ) == 0
        with open(out) as fh:
            kept = [r["run_id"] for r in csv.DictReader(fh)]
        assert kept == ["b"]

    def test_table_commands_build_no_records(self, tmp_path, monkeypatch, joint_reports):
        # ingest, averaging, filtering, export, allocate --input and fit --input
        # read the run table's columns; its RunRecords are built only when asked for
        header = ",".join(CSV_COLUMNS + OPTIONAL_COLUMNS)
        rows = [
            f"r{c}s{s},{('ViT', 'ResNet', 'ConvNeXt')[c % 3]},a{c},eco,{(10, 300, 'full')[c % 3]},"
            f"{s},{1000 * 3**c},{20000 * 2**c},{6.0 * 1000 * 3**c * 20000 * 2**c!r},"
            + ",".join(repr(0.2 + 0.05 * c + 0.01 * s + 0.003 * j) for j in range(5))
            + ("," if s else ",0.5")
            for c in range(8)
            for s in range(2)
        ]
        src = tmp_path / "runs.csv"
        src.write_text("\n".join([header, *rows]) + "\n")
        avg, filtered = tmp_path / "avg.json", tmp_path / "filtered.csv"
        commands = [
            ["ingest", "--input", src, "--average-seeds", "--output", avg, "--output-format", "json"],
            ["ingest", "--input", avg, "--format", "json", "--filter", "convnext_vit_restricted",
             "--output", filtered],
            ["allocate", "--fit-report", joint_reports["raw"], "--input", src, "--budget", "1e12",
             "--output", tmp_path / "alloc.json"],
            ["fit", "--form", "joint", "--x", "flops", "--input", src, "--average-seeds",
             "--filter", "convnext_vit_restricted", "--output", tmp_path / "fit.json"],
        ]

        def no_record(fields):
            raise AssertionError("a RunRecord was built")

        monkeypatch.setattr(records, "_trusted_record", no_record)
        assert [run(*map(str, argv)) for argv in commands] == [0, 0, 0, 0]
        monkeypatch.undo()
        kept = [r.run_id for r in ingest(filtered).rows]
        assert kept == [f"r{c}s0_seedavg" for c in (1, 2, 4, 5, 7)]

    def test_bad_row_exit_code(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("run_id,family\nx,y\n")
        assert run("ingest", "--input", str(src), "--output", str(tmp_path / "o.csv")) == 1
