import json
from dataclasses import replace

import numpy as np
import pytest

from scalefit.records import (
    CSV_COLUMNS,
    IngestError,
    RunRecord,
    RunTable,
    aggregate_score,
    export,
    filter_for_fit,
    ingest,
)

HEADER = ",".join(CSV_COLUMNS)
ROW = "r1,ResNet,resnet18,imagenet,full,0,11689512,128155776,9.2e15,0.31,0.29,0.40,0.38,0.35"


def write_csv(tmp_path, lines, name="runs.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


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

    def test_json_format(self, tmp_path):
        keys = CSV_COLUMNS
        row = dict(zip(keys, ROW.split(",")))
        path = tmp_path / "runs.json"
        path.write_text(json.dumps([row]))
        table = ingest(path, format="json")
        assert table.rows[0].run_id == "r1"

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


class TestRecordInvariants:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_record(n_params=0)
        with pytest.raises(ValueError):
            make_record(flops=0.0)

    def test_rejects_bad_spc(self):
        with pytest.raises(ValueError):
            make_record(spc="half")

    def test_table_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RunTable(rows=(make_record("a"), make_record("a")))


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
