import csv
import functools
import io
import json
import math
import operator
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scalefit.records import (
    CSV_COLUMNS,
    OPTIONAL_COLUMNS,
    IngestError,
    RunRecord,
    RunTable,
    aggregate_score,
    export,
    filter_for_fit,
    ingest,
)
from scalefit.records import _COLUMNS, _FIELD_COLUMNS, SCORE_COLUMNS

HEADER = ",".join(CSV_COLUMNS)
ROW = "r1,ResNet,resnet18,imagenet,full,0,11689512,128155776,9.2e15,0.31,0.29,0.40,0.38,0.35"
CELLS = dict(zip(CSV_COLUMNS, ROW.split(",")))


def line(**cells):
    """ROW with some cells replaced, as a CSV line under HEADER."""
    return ",".join({**CELLS, **cells}[c] for c in CSV_COLUMNS)


def write_csv(tmp_path, lines, name="runs.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def reference_ingest(rows):
    """(errors, warnings, records) of a run table, checked row by row with the
    column parsers and RunRecord; a table with an error has no records. A row
    is a dict of cell texts, where an absent or empty cell is missing, or any
    other value for a non-object."""
    errors, warned, records, seen = [], [], [], set()
    for i, row in enumerate(rows, start=1):
        try:
            if not isinstance(row, dict):
                raise ValueError("not a JSON object")
            missing = [c for c in CSV_COLUMNS if not row.get(c)]
            if missing:
                raise ValueError(f"missing column(s) {', '.join(missing)}")
            fields = {c: parse(row[c]) if row.get(c) else None for c, parse, _ in _FIELD_COLUMNS}
            scores = {}
            for region, column in SCORE_COLUMNS.items():
                score = float(row[column])
                if not -0.05 <= score <= 1.05:
                    raise ValueError(f"score {score} outside acceptable range [-0.05, 1.05]")
                if not 0.0 <= score <= 1.0:
                    warned.append(f"score {score} clamped into [0, 1]")
                    score = min(max(score, 0.0), 1.0)
                scores[region] = score
            rec = RunRecord(scores=scores, **fields)
            if rec.run_id in seen:
                raise ValueError(f"duplicate run_id {rec.run_id!r}")
        except ValueError as exc:
            errors.append(f"row {i}: {exc}")
            continue
        seen.add(rec.run_id)
        records.append(rec)
    return errors, warned, [] if errors else records


def ingest_outcome(path, format="csv"):
    """(errors, warnings, records) of ingest: the IngestError's messages, or []."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records, errors = list(ingest(path, format=format).rows), []
        except IngestError as exc:
            records, errors = [], exc.errors
    return errors, [str(w.message) for w in caught], records


def make_record(run_id="r", family="ResNet", spc="full", seed=0, scores=None, **kw):
    return RunRecord(
        run_id=run_id,
        family=family,
        arch="resnet18",
        dataset="imagenet",
        samples_per_class=spc,
        seed=seed,
        n_params=kw.get("n_params", 11689512),
        samples_seen=kw.get("samples_seen", 128155776),
        flops=kw.get("flops", 9.2e15),
        scores=scores or {"V1": 0.31, "V2": 0.29, "V4": 0.40, "IT": 0.38, "behavior": 0.35},
        val_accuracy=kw.get("val_accuracy"),
    )


class TestIngest:
    def test_basic_row(self, tmp_path):
        path = write_csv(tmp_path, [HEADER + ",val_accuracy", ROW + ",0.70"])
        table = ingest(path)
        rec = table.rows[0]
        assert rec.n_params == 11689512
        assert rec.samples_seen == 128155776
        assert rec.flops == 9.2e15
        assert rec.samples_per_class == "full"
        assert rec.scores["V4"] == 0.40
        assert rec.val_accuracy == 0.70

    def test_optional_column_absent(self, tmp_path):
        table = ingest(write_csv(tmp_path, [HEADER, ROW]))
        assert table.rows[0].val_accuracy is None

    def test_duplicate_run_id(self, tmp_path):
        path = write_csv(tmp_path, [HEADER, ROW, ROW])
        with pytest.raises(IngestError, match="duplicate run_id"):
            ingest(path)

    def test_score_out_of_range(self, tmp_path):
        bad = ROW.replace(",0.35", ",1.2")
        with pytest.raises(IngestError, match="row 1"):
            ingest(write_csv(tmp_path, [HEADER, bad]))

    def test_score_clamp_band(self, tmp_path):
        near = ROW.replace(",0.35", ",1.03")
        with pytest.warns(UserWarning, match="clamped"):
            table = ingest(write_csv(tmp_path, [HEADER, near]))
        assert table.rows[0].scores["behavior"] == 1.0

    def test_missing_column(self, tmp_path):
        header = HEADER.replace("flops,", "")
        with pytest.raises(IngestError, match="flops"):
            ingest(write_csv(tmp_path, [header, ROW]))

    def test_short_row_reports_missing_columns(self, tmp_path):
        short = ROW.rsplit(",", 3)[0]
        with pytest.raises(IngestError, match="row 1: missing column.*score_behavior"):
            ingest(write_csv(tmp_path, [HEADER, short]))

    def test_malformed_row_reports_index(self, tmp_path):
        bad = ROW.replace("9.2e15", "not-a-number")
        ok = ROW.replace("r1", "r2")
        with pytest.raises(IngestError, match="row 1"):
            ingest(write_csv(tmp_path, [HEADER, bad, ok]))

    def test_short_row_message(self, tmp_path):
        short = ROW.replace("r1", "r2").rsplit(",", 3)[0]
        with pytest.raises(IngestError) as exc:
            ingest(write_csv(tmp_path, [HEADER, ROW, short]))
        assert exc.value.errors == ["row 2: missing column(s) score_v4, score_it, score_behavior"]

    def test_blank_line_skipped_and_not_counted(self, tmp_path):
        bad = ROW.replace("r1", "r2").replace("11689512", "x")
        with pytest.raises(IngestError) as exc:
            ingest(write_csv(tmp_path, [HEADER, "", ROW, "", bad]))
        assert exc.value.errors == ["row 2: invalid literal for int() with base 10: 'x'"]

    def test_repeated_header_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, [HEADER + ",score_v1,notes,notes", ROW + ",0.99,a,b"])
        with pytest.raises(IngestError) as exc:
            ingest(path)
        assert exc.value.errors == ["header names column(s) more than once: score_v1"]

    def test_unknown_extra_column_ignored(self, tmp_path):
        plain = ingest(write_csv(tmp_path, [HEADER, ROW]))
        extra = ingest(write_csv(tmp_path, [HEADER + ",notes", ROW + ",a note"], name="extra.csv"))
        assert extra.rows == plain.rows

    def test_every_bad_row_reported_in_order(self, tmp_path):
        lines = [
            HEADER,
            ROW,
            ROW.replace("r1", "r2").replace(",full,0,", ",full,zero,"),
            ROW.replace("r1", "r3").replace(",0.35", ",1.2"),
            ROW,
        ]
        with pytest.raises(IngestError) as exc:
            ingest(write_csv(tmp_path, lines))
        assert exc.value.errors == [
            "row 2: invalid literal for int() with base 10: 'zero'",
            "row 3: score 1.2 outside acceptable range [-0.05, 1.05]",
            "row 4: duplicate run_id 'r1'",
        ]

    def test_each_clamped_score_warns_once(self, tmp_path):
        lines = [
            HEADER,
            ROW.replace("0.31", "1.01").replace(",0.35", ",1.03"),
            ROW.replace("r1", "r2").replace("0.29", "-0.02"),
            ROW.replace("r1", "r3").replace(",0.35", ",1.03"),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = ingest(write_csv(tmp_path, lines))
        assert [str(w.message) for w in caught] == [
            "score 1.01 clamped into [0, 1]",
            "score 1.03 clamped into [0, 1]",
            "score -0.02 clamped into [0, 1]",
            "score 1.03 clamped into [0, 1]",
        ]
        assert [r.scores["behavior"] for r in table.rows] == [1.0, 0.35, 1.0]
        assert table.rows[1].scores["V2"] == 0.0

    def test_json_format(self, tmp_path):
        keys = CSV_COLUMNS
        row = dict(zip(keys, ROW.split(",")))
        path = tmp_path / "runs.json"
        path.write_text(json.dumps([row]))
        table = ingest(path, format="json")
        assert table.rows[0].run_id == "r1"

    def test_json_numbers_parse_as_their_str(self, tmp_path):
        row = dict(zip(CSV_COLUMNS, ROW.split(",")))
        numeric = {**row, "seed": 0, "n_params": 11689512, "flops": 1.2e11, "score_v1": 0.31,
                   "val_accuracy": None}
        path = tmp_path / "runs.json"
        path.write_text(json.dumps([numeric]))
        rec = ingest(path, format="json").rows[0]
        assert (rec.seed, rec.n_params, rec.flops, rec.scores["V1"]) == (0, 11689512, 1.2e11, 0.31)
        assert rec.val_accuracy is None
        path.write_text(json.dumps([numeric, {**numeric, "run_id": "r2", "n_params": 1000.0}]))
        with pytest.raises(IngestError) as exc:
            ingest(path, format="json")
        assert exc.value.errors == ["row 2: invalid literal for int() with base 10: '1000.0'"]

    def test_json_non_object_rows_reported(self, tmp_path):
        row = dict(zip(CSV_COLUMNS, ROW.split(",")))
        path = tmp_path / "runs.json"
        path.write_text(json.dumps([1, row, {**row, "seed": "x"}, [row]]))
        with pytest.raises(IngestError) as exc:
            ingest(path, format="json")
        assert exc.value.errors == [
            "row 1: not a JSON object",
            "row 3: invalid literal for int() with base 10: 'x'",
            "row 4: not a JSON object",
        ]
        path.write_text("[1, 2]")
        with pytest.raises(IngestError, match="row 1: not a JSON object; row 2: not a JSON object"):
            ingest(path, format="json")

    def test_average_seeds(self, tmp_path):
        rows = [
            ROW,
            ROW.replace("r1,ResNet,resnet18,imagenet,full,0", "r2,ResNet,resnet18,imagenet,full,1")
            .replace("0.31", "0.33"),
        ]
        table = ingest(write_csv(tmp_path, [HEADER] + rows), average_seeds=True)
        assert len(table) == 1
        assert table.rows[0].scores["V1"] == pytest.approx(0.32)
        assert table.rows[0].seed == -1

    @pytest.mark.parametrize(
        "flops, mean",
        [((1.5e308, 1.5e308), 1.5e308), ((sys.float_info.max,) * 3, sys.float_info.max)],
        ids=["two-1.5e308", "three-max"],
    )
    def test_average_seeds_huge_flops(self, tmp_path, flops, mean):
        # the mean of finite flops is finite, and the averaged table re-ingests
        rows = [line(run_id=f"r{s}", seed=str(s), flops=repr(f)) for s, f in enumerate(flops)]
        table = ingest(write_csv(tmp_path, [HEADER] + rows), average_seeds=True)
        assert [r.flops for r in table.rows] == [mean]
        out = tmp_path / "avg.csv"
        export(table, out)
        assert ingest(out).rows == table.rows


# Score tuples whose mean through a left-to-right float sum differs in the last
# digit from the pinned mean: their correctly rounded sum, divided once.
MEAN_CASES = [
    ((0.1, 0.2, 0.3), 0.19999999999999998),
    ((0.18, 0.58, 0.86), 0.5399999999999999),
    ((0.22, 0.42, 0.03), 0.2233333333333333),
    ((0.71, 0.21, 0.83, 0.57, 0.28), 0.52),
    ((0.04, 0.61, 0.04, 0.72, 0.33), 0.348),
]


class TestMeanRule:
    """Every mean of run-table values is math.fsum, then one division, so it has the
    same bytes on every Python version; builtin sum is compensated from 3.12 on."""

    @pytest.mark.parametrize("values, mean", MEAN_CASES)
    def test_left_fold_differs(self, values, mean):
        assert functools.reduce(operator.add, values) / len(values) != mean

    @pytest.mark.parametrize("values, mean", MEAN_CASES)
    def test_average_seeds(self, tmp_path, values, mean):
        rows = [
            line(run_id=f"r{s}", seed=str(s), score_it=repr(v), flops=repr(v)) + f",{v!r}"
            for s, v in enumerate(values)
        ]
        path = write_csv(tmp_path, [HEADER + ",val_accuracy", *rows])
        (rec,) = ingest(path, average_seeds=True).rows
        assert (rec.scores["IT"], rec.flops, rec.val_accuracy) == (mean, mean, mean)

    @pytest.mark.parametrize("values, mean", [c for c in MEAN_CASES if len(c[0]) == 5])
    def test_aggregate_score(self, values, mean):
        s = aggregate_score(dict(zip(("V1", "V2", "V4", "IT", "behavior"), values)))
        assert (s.S, s.L) == (mean, 1.0 - mean)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "fmt, numpy_scalars",
        [("csv", False), ("json", False), ("csv", True), ("json", True)],
        ids=["csv", "json", "csv-numpy", "json-numpy"],
    )
    def test_ingest_export_identity(self, tmp_path, fmt, numpy_scalars):
        path = write_csv(
            tmp_path,
            [
                HEADER + ",val_accuracy",
                ROW + ",0.70",
                "r2,ViT,vit_s,ecoset,300,1,22050664,384467328,2.7182818284590452e16,"
                "0.123456789012345,0.2,0.3,0.4,0.5,",
            ],
        )
        table = ingest(path)
        if numpy_scalars:
            # records built from numpy results must still export as plain numbers
            table = RunTable(
                rows=tuple(
                    replace(
                        r,
                        flops=np.float64(r.flops),
                        scores={k: np.float64(v) for k, v in r.scores.items()},
                    )
                    for r in table.rows
                )
            )
        out = tmp_path / f"out.{fmt}"
        export(table, out, format=fmt)
        table2 = ingest(out, format=fmt)
        assert table2.rows == table.rows


# (column, cell text, first error, clamp warning): the text replaces the cell of
# row 2 (run r1) of a three-row table; a None error means the table is accepted.
# The test id ends in whether the table is accepted without a warning.
COLUMN_CASES = [
    ("flops", "nan", "run r1: flops must be positive", None),
    ("flops", "inf", "run r1: flops must be positive", None),
    ("flops", "1e-320", None, None),
    ("flops", "-0.0", "run r1: flops must be positive", None),
    ("flops", "0", "run r1: flops must be positive", None),
    ("n_params", "0", "run r1: n_params must be >= 1", None),
    ("n_params", "1_000", None, None),
    ("samples_seen", "-1", "run r1: samples_seen must be >= 1", None),
    ("samples_per_class", "0",
     "run r1: samples_per_class must be a positive integer or 'full', got 0", None),
    ("samples_per_class", " 7", None, None),
    ("samples_per_class", "half", "invalid literal for int() with base 10: 'half'", None),
    ("seed", "-3", None, None),
    ("score_v1", "nan", "score nan outside acceptable range [-0.05, 1.05]", None),
    ("score_v1", "-0.0", None, None),
    ("score_it", "1.0000001", None, "score 1.0000001 clamped into [0, 1]"),
    ("score_behavior", "inf", "score inf outside acceptable range [-0.05, 1.05]", None),
    ("score_behavior", "", "missing column(s) score_behavior", None),
    ("val_accuracy", "nan", "run r1: val_accuracy outside [0, 1]", None),
    ("val_accuracy", "1.5", "run r1: val_accuracy outside [0, 1]", None),
    ("val_accuracy", "", None, None),
    ("run_id", "r0", "duplicate run_id 'r0'", None),
]


class TestColumnCheck:
    """ingest's column-wise checks give the row-by-row reference's results."""

    @pytest.mark.parametrize(
        "column, text, error, warning",
        COLUMN_CASES,
        ids=[f"{c}-{t}-{e is None and w is None}" for c, t, e, w in COLUMN_CASES],
    )
    def test_agrees_with_row_scan(self, tmp_path, column, text, error, warning):
        rows = [{**CELLS, "run_id": f"r{i}", "val_accuracy": "0.5"} for i in range(3)]
        rows[1][column] = text
        lines = [",".join(r[c] for c in _COLUMNS) for r in [dict(zip(_COLUMNS, _COLUMNS)), *rows]]
        path = write_csv(tmp_path, lines)
        got = ingest_outcome(path)
        want = reference_ingest(rows)
        assert got[:2] == want[:2] and list(map(repr, got[2])) == list(map(repr, want[2]))
        assert got[0] == ([f"row 2: {error}"] if error else [])
        assert got[1] == ([warning] if warning else [])

    def test_first_record_fault_wins(self, tmp_path):
        lines = [
            HEADER + ",val_accuracy",
            line(n_params="0", flops="0") + ",",
            line(run_id="r2", samples_seen="0", samples_per_class="0") + ",",
            line(run_id="r3", samples_per_class="0") + ",2",
        ]
        errors, warned, _ = ingest_outcome(write_csv(tmp_path, lines))
        assert errors == [
            "row 1: run r1: n_params must be >= 1",
            "row 2: run r2: samples_seen must be >= 1",
            "row 3: run r3: samples_per_class must be a positive integer or 'full', got 0",
        ]
        assert warned == []

    def test_clamps_before_a_rows_first_fault_warn(self, tmp_path):
        lines = [
            HEADER,
            line(),
            line(run_id="r2", score_v1="1.02", score_v4="x"),
            line(run_id="r3", score_v2="-0.01", flops="0"),
            line(score_it="1.04"),
            line(run_id="r5", seed="x", score_v1="1.03"),
            line(run_id="r6", score_v1="1.2", score_behavior="1.01"),
            line(run_id="r7", score_behavior="1.01"),
        ]
        errors, warned, _ = ingest_outcome(write_csv(tmp_path, lines))
        assert errors == [
            "row 2: could not convert string to float: 'x'",
            "row 3: run r3: flops must be positive",
            "row 4: duplicate run_id 'r1'",
            "row 5: invalid literal for int() with base 10: 'x'",
            "row 6: score 1.2 outside acceptable range [-0.05, 1.05]",
        ]
        assert warned == [
            "score 1.02 clamped into [0, 1]",
            "score -0.01 clamped into [0, 1]",
            "score 1.04 clamped into [0, 1]",
            "score 1.01 clamped into [0, 1]",
        ]

    def test_faulted_row_holds_no_run_id(self, tmp_path):
        lines = [HEADER, line(flops="0"), line(), line(score_v1="0.5"), line(run_id="r2")]
        errors, _, _ = ingest_outcome(write_csv(tmp_path, lines))
        assert errors == ["row 1: run r1: flops must be positive", "row 3: duplicate run_id 'r1'"]

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), fmt=st.sampled_from(["csv", "json"]))
    def test_random_bad_tables_agree_with_row_scan(self, tmp_path, data, fmt):
        # None is an absent cell: empty in CSV, null in JSON.
        cell = st.sampled_from([None, "", "0", "1", "-1", "x", "full", "nan", "inf", "-0.0",
                                "1e15", "0.5", "1.02", "-0.03", "1.2", "r1", "r2"])
        good = {**CELLS, "val_accuracy": "0.5"}
        row = st.one_of(
            st.builds(lambda d: {**good, **d},
                      st.dictionaries(st.sampled_from(_COLUMNS), cell, max_size=3)),
            st.fixed_dictionaries(dict.fromkeys(_COLUMNS, cell)),
            *([st.sampled_from([1, "row", [good]])] if fmt == "json" else []),
        )
        rows = data.draw(st.lists(row, max_size=8))
        path = tmp_path / f"runs.{fmt}"
        if fmt == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([_COLUMNS, *([r[c] for c in _COLUMNS] for r in rows)])
        else:
            path.write_text(json.dumps(rows))
        got = ingest_outcome(path, format=fmt)
        want = reference_ingest(rows)
        assert got[:2] == want[:2]
        assert list(map(repr, got[2])) == list(map(repr, want[2]))


def row_of(rec):
    """`rec` as the run-table row export writes: every value a str, an absent one None."""
    row = {
        "run_id": rec.run_id, "family": rec.family, "arch": rec.arch, "dataset": rec.dataset,
        "samples_per_class": str(rec.samples_per_class), "seed": str(rec.seed),
        "n_params": str(rec.n_params), "samples_seen": str(rec.samples_seen),
        "flops": str(rec.flops),
        "val_accuracy": None if rec.val_accuracy is None else str(rec.val_accuracy),
    }
    row.update({f"score_{region.lower()}": str(s) for region, s in rec.scores.items()})
    return row


class TestExportBytes:
    RECORDS = (
        make_record("r\u00e9sn\u00e9t-\u4e2d", val_accuracy=0.7),
        make_record('say "hi"', family="Res,Net", spc=300, seed=2, flops=1.5e-7),
        make_record("back\\slash", family="a\\b", spc=10, val_accuracy=None),
    )

    @pytest.mark.parametrize("rows", [RECORDS, ()], ids=["edge-values", "empty"])
    def test_json_matches_json_dump(self, tmp_path, rows):
        out = tmp_path / "out.json"
        export(RunTable(rows=rows), out, format="json")
        want = io.StringIO()
        json.dump([row_of(r) for r in rows], want, indent=2, sort_keys=True)
        assert out.read_bytes() == (want.getvalue() + "\n").encode("utf-8")

    @pytest.mark.parametrize("rows", [RECORDS, ()], ids=["edge-values", "empty"])
    def test_csv_matches_dict_writer(self, tmp_path, rows):
        out = tmp_path / "out.csv"
        export(RunTable(rows=rows), out, format="csv")
        want = io.StringIO(newline="")
        writer = csv.DictWriter(want, fieldnames=CSV_COLUMNS + OPTIONAL_COLUMNS)
        writer.writeheader()
        writer.writerows(row_of(r) for r in rows)
        assert out.read_bytes() == want.getvalue().encode("utf-8")

    def test_edge_values_round_trip(self, tmp_path):
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            export(RunTable(rows=self.RECORDS), out, format=fmt)
            assert ingest(out, format=fmt).rows == self.RECORDS


class TestRecordInvariants:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_record(n_params=0)
        with pytest.raises(ValueError):
            make_record(flops=0.0)

    def test_rejects_nan_flops(self):
        with pytest.raises(ValueError, match="^run r: flops must be positive$"):
            make_record(flops=float("nan"))

    def test_rejects_inf_flops(self):
        with pytest.raises(ValueError, match="^run r: flops must be positive$"):
            make_record(flops=float("inf"))

    @pytest.mark.parametrize("kw, message", [
        ({"n_params": 0, "flops": 0.0}, "n_params must be >= 1"),
        ({"samples_seen": 0, "val_accuracy": 2.0}, "samples_seen must be >= 1"),
        ({"flops": -1.0, "spc": 0}, "flops must be positive"),
        ({"spc": 2.0}, "samples_per_class must be a positive integer or 'full', got 2.0"),
        ({"scores": {"V1": 1.5}, "val_accuracy": 2.0}, "score V1=1.5 outside [0, 1]"),
        ({"scores": {"V9": 0.5}}, "unknown region 'V9'"),
        ({"val_accuracy": float("nan")}, "val_accuracy outside [0, 1]"),
    ])
    def test_first_fault_message(self, kw, message):
        with pytest.raises(ValueError) as exc:
            make_record(**kw)
        assert str(exc.value) == f"run r: {message}"

    def test_rejects_bad_spc(self):
        with pytest.raises(ValueError):
            make_record(spc="half")

    def test_table_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RunTable(rows=(make_record("a"), make_record("a")))

    def test_table_lists_each_duplicate_once_sorted(self):
        ids = ["c", "a", "b", "c", "a", "c", "d"]
        with pytest.raises(ValueError) as exc:
            RunTable(rows=tuple(make_record(i) for i in ids))
        assert str(exc.value) == "duplicate run_id values: ['a', 'c']"


class TestAggregateScore:
    def test_constant(self):
        s = aggregate_score({r: 0.5 for r in ("V1", "V2", "V4", "IT", "behavior")})
        assert s.S == 0.5 and s.L == 0.5

    def test_hand_values(self):
        s = aggregate_score({"V1": 0.2, "V2": 0.3, "V4": 0.4, "IT": 0.5, "behavior": 0.6})
        assert s.S == pytest.approx(0.4)
        assert s.L == pytest.approx(0.6)
        assert s.L == 1.0 - s.S  # exact complement

    def test_perfect(self):
        s = aggregate_score({r: 1.0 for r in ("V1", "V2", "V4", "IT", "behavior")})
        assert s.S == 1.0 and s.L == 0.0

    def test_missing_region(self):
        with pytest.raises(ValueError, match="behavior"):
            aggregate_score({"V1": 0.2, "V2": 0.3, "V4": 0.4, "IT": 0.5})

    def test_permutation_invariant(self):
        scores = {"V1": 0.11, "V2": 0.22, "V4": 0.33, "IT": 0.44, "behavior": 0.55}
        shuffled = dict(reversed(list(scores.items())))
        assert aggregate_score(scores) == aggregate_score(shuffled)


class TestFilter:
    def table(self):
        return RunTable(
            rows=(
                make_record("a", family="ViT", spc=10),
                make_record("b", family="ViT", spc=300),
                make_record("c", family="ConvNeXt", spc="full"),
                make_record("d", family="ResNet", spc=10),
            )
        )

    def test_restricted_rule(self):
        out = filter_for_fit(self.table(), "convnext_vit_restricted")
        assert [r.run_id for r in out] == ["b", "c", "d"]

    def test_identity_rule(self):
        table = self.table()
        assert filter_for_fit(table, "none").rows == table.rows

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown filter rule"):
            filter_for_fit(self.table(), "nope")

    def test_subset_and_idempotent(self):
        table = self.table()
        once = filter_for_fit(table, "convnext_vit_restricted")
        twice = filter_for_fit(once, "convnext_vit_restricted")
        ids = {r.run_id for r in table.rows}
        assert {r.run_id for r in once.rows} <= ids
        assert twice.rows == once.rows


def reference_average(recs) -> list:
    """Seed averaging of records, one group at a time: rows equal in family, arch,
    dataset, samples_per_class and n_params become one row, the first's with
    "_seedavg" on its run_id, seed -1, samples_seen's rounded mean and the mean
    (math.fsum, then one division) of flops, each score and the given val_accuracy."""
    groups = {}
    for r in recs:
        key = (r.family, r.arch, r.dataset, r.samples_per_class, r.n_params)
        groups.setdefault(key, []).append(r)
    out = []
    for grp in groups.values():
        first, k = grp[0], len(grp)
        if k == 1:
            out.append(first)
            continue
        vas = [g.val_accuracy for g in grp if g.val_accuracy is not None]
        out.append(replace(
            first,
            run_id=first.run_id + "_seedavg",
            seed=-1,
            samples_seen=round(sum(g.samples_seen for g in grp) / k),
            flops=math.fsum(g.flops for g in grp) / k,
            scores={region: math.fsum(g.scores[region] for g in grp) / k for region in first.scores},
            val_accuracy=math.fsum(vas) / len(vas) if vas else None,
        ))
    return out


REFERENCE_FILTERS = {
    "none": lambda r: True,
    "convnext_vit_restricted": lambda r: (
        r.family.lower() not in ("convnext", "vit") or r.samples_per_class in (300, "full")
    ),
}


def reference_exports(recs) -> dict:
    """The bytes export writes for records, by format, from json.dump and csv.DictWriter."""
    as_json = io.StringIO()
    json.dump([row_of(r) for r in recs], as_json, indent=2, sort_keys=True)
    as_csv = io.StringIO(newline="")
    writer = csv.DictWriter(as_csv, fieldnames=CSV_COLUMNS + OPTIONAL_COLUMNS)
    writer.writeheader()
    writer.writerows(row_of(r) for r in recs)
    return {"json": (as_json.getvalue() + "\n").encode(), "csv": as_csv.getvalue().encode()}


class TestTablePipeline:
    """ingest, seed averaging, filter_for_fit and export agree with a row-by-row reference."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        fmt=st.sampled_from(["csv", "json"]),
        average=st.booleans(),
        rule=st.sampled_from([None, *REFERENCE_FILTERS]),
    )
    def test_random_tables_match_row_reference(self, tmp_path, data, fmt, average, rule):
        unit = st.floats(0.0, 1.0)
        run = st.fixed_dictionaries({
            "family": st.sampled_from(["ViT", "vit", "ConvNeXt", "ResNet"]),
            "arch": st.sampled_from(["a", "b"]),
            "dataset": st.just("eco"),
            "samples_per_class": st.sampled_from([1, 10, 300, "full"]),
            "seed": st.integers(-2, 5),
            "n_params": st.sampled_from([1000, 2000]),
            "samples_seen": st.integers(1, 10**6),
            "flops": st.floats(1e-3, 1e20),
            "scores": st.tuples(*[unit] * len(SCORE_COLUMNS)).map(
                lambda values: dict(zip(SCORE_COLUMNS, values))),
            "val_accuracy": st.one_of(st.none(), unit),
        })
        runs = data.draw(st.lists(run, max_size=12))
        want = [RunRecord(run_id=f"r{i}", **fields) for i, fields in enumerate(runs)]
        if average:
            want = reference_average(want)
        if rule:
            want = [r for r in want if REFERENCE_FILTERS[rule](r)]
        source = tmp_path / f"runs.{fmt}"
        export(RunTable(rows=tuple(RunRecord(run_id=f"r{i}", **f) for i, f in enumerate(runs))),
               source, format=fmt)
        table = ingest(source, format=fmt, average_seeds=average)
        if rule:
            table = filter_for_fit(table, rule)
        assert len(table) == len(want)
        assert list(map(repr, table.rows)) == list(map(repr, want))
        for out_fmt, expected in reference_exports(want).items():
            out = tmp_path / f"out.{out_fmt}"
            export(table, out, format=out_fmt)
            assert out.read_bytes() == expected

    def test_averaged_run_id_taken_by_another_row(self, tmp_path):
        rows = [line(), line(run_id="r2", seed="1"), line(run_id="r1_seedavg", n_params="7")]
        with pytest.raises(ValueError, match=r"^duplicate run_id values: \['r1_seedavg'\]$"):
            ingest(write_csv(tmp_path, [HEADER, *rows]), average_seeds=True)
