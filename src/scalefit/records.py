"""Run-record data model, CSV/JSON ingestion and export, filtering."""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, replace

REGIONS = ("V1", "V2", "V4", "IT", "behavior")


def _parse_spc(text: str):
    if text == "full":
        return "full"
    return int(text)


# The run-table columns other than the scores, in file order: (column, parser,
# optional). Each fills the RunRecord field of its name; an optional column may
# be absent or empty, which leaves its field None.
_FIELD_COLUMNS = (
    ("run_id", str, False),
    ("family", str, False),
    ("arch", str, False),
    ("dataset", str, False),
    ("samples_per_class", _parse_spc, False),
    ("seed", int, False),
    ("n_params", int, False),
    ("samples_seen", int, False),
    ("flops", float, False),
    ("val_accuracy", float, True),
)
# The column holding each region's score; the scores follow the mandatory fields.
SCORE_COLUMNS = {region: f"score_{region.lower()}" for region in REGIONS}
CSV_COLUMNS = [
    *(c for c, _, optional in _FIELD_COLUMNS if not optional),
    *SCORE_COLUMNS.values(),
]
OPTIONAL_COLUMNS = [c for c, _, optional in _FIELD_COLUMNS if optional]

FORMAT_VERSION = "1"

# The RunRecord field holding each resource a curve can be fitted against.
RESOURCE_FIELDS = {"flops": "flops", "params": "n_params", "samples": "samples_seen"}


class IngestError(ValueError):
    """Raised when a file cannot be ingested; carries row-indexed messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunRecord:
    """One trained-model evaluation run."""

    run_id: str
    family: str
    arch: str
    dataset: str
    samples_per_class: int | str  # positive int or the literal "full"
    seed: int
    n_params: int
    samples_seen: int
    flops: float
    scores: dict = field(default_factory=dict)  # region -> score in [0, 1]
    val_accuracy: float | None = None

    def __post_init__(self):
        if self.n_params < 1:
            raise ValueError(f"run {self.run_id}: n_params must be >= 1")
        if self.samples_seen < 1:
            raise ValueError(f"run {self.run_id}: samples_seen must be >= 1")
        if self.flops <= 0:
            raise ValueError(f"run {self.run_id}: flops must be positive")
        if self.samples_per_class != "full" and (
            not isinstance(self.samples_per_class, int) or self.samples_per_class < 1
        ):
            raise ValueError(
                f"run {self.run_id}: samples_per_class must be a positive "
                f"integer or 'full', got {self.samples_per_class!r}"
            )
        for region, s in self.scores.items():
            if region not in REGIONS:
                raise ValueError(f"run {self.run_id}: unknown region {region!r}")
            if not 0.0 <= s <= 1.0:
                raise ValueError(
                    f"run {self.run_id}: score {region}={s} outside [0, 1]"
                )
        if self.val_accuracy is not None and not 0.0 <= self.val_accuracy <= 1.0:
            raise ValueError(f"run {self.run_id}: val_accuracy outside [0, 1]")


@dataclass(frozen=True)
class RunTable:
    rows: tuple
    provenance: str = ""

    def __post_init__(self):
        ids = [r.run_id for r in self.rows]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate run_id values: {dupes}")

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass(frozen=True)
class AggregateScore:
    S: float
    L: float
    regions_used: tuple


def _parse_score(value: float) -> float:
    """Validate a ceiling-normalized score; clamp a narrow out-of-range band."""
    if not -0.05 <= value <= 1.05:
        raise ValueError(f"score {value} outside acceptable range [-0.05, 1.05]")
    if value < 0.0 or value > 1.0:
        warnings.warn(f"score {value} clamped into [0, 1]", stacklevel=3)
        return min(max(value, 0.0), 1.0)
    return float(value)


def _row_to_record(row: dict) -> RunRecord:
    fields = {}
    for col, parse, _ in _FIELD_COLUMNS:
        text = row.get(col)
        fields[col] = parse(text) if text else None
    scores = {region: _parse_score(float(row[col])) for region, col in SCORE_COLUMNS.items()}
    return RunRecord(scores=scores, **fields)


def ingest(path, format: str = "csv", average_seeds: bool = False) -> RunTable:
    """Parse a run table from CSV or JSON, enforcing the schema and invariants."""
    if format == "csv":
        rows = _read_csv_rows(path)
    elif format == "json":
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
        if not isinstance(rows, list):
            raise IngestError(["JSON run table must be a list of row objects"])
        rows = [{k: str(v) if v is not None else "" for k, v in r.items()} for r in rows]
    else:
        raise ValueError(f"unknown format {format!r}")

    records, errors, seen_ids = [], [], set()
    for i, row in enumerate(rows, start=1):
        missing = [c for c in CSV_COLUMNS if not row.get(c)]  # a short CSV row holds None
        if missing:
            errors.append(f"row {i}: missing column(s) {', '.join(missing)}")
            continue
        try:
            rec = _row_to_record(row)
        except (ValueError, KeyError) as exc:
            errors.append(f"row {i}: {exc}")
            continue
        if rec.run_id in seen_ids:
            errors.append(f"row {i}: duplicate run_id {rec.run_id!r}")
            continue
        seen_ids.add(rec.run_id)
        records.append(rec)
    if errors:
        raise IngestError(errors)

    table = RunTable(rows=tuple(records), provenance=f"{path}#v{FORMAT_VERSION}")
    if average_seeds:
        table = _average_seeds(table)
    return table


def _read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise IngestError(["empty file: missing header"])
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise IngestError([f"header missing mandatory column(s): {', '.join(missing)}"])
        return list(reader)


def _average_seeds(table: RunTable) -> RunTable:
    """Collapse seed repeats: rows identical up to seed are score-averaged."""
    groups: dict[tuple, list[RunRecord]] = {}
    order = []
    for r in table.rows:
        key = (r.family, r.arch, r.dataset, r.samples_per_class, r.n_params)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    out = []
    for key in order:
        grp = groups[key]
        if len(grp) == 1:
            out.append(grp[0])
            continue
        first = grp[0]
        k = len(grp)
        scores = {
            region: sum(g.scores[region] for g in grp) / k for region in first.scores
        }
        vas = [g.val_accuracy for g in grp if g.val_accuracy is not None]
        out.append(
            replace(
                first,
                run_id=first.run_id + "_seedavg",
                seed=-1,
                samples_seen=round(sum(g.samples_seen for g in grp) / k),
                flops=sum(g.flops for g in grp) / k,
                scores=scores,
                val_accuracy=sum(vas) / len(vas) if vas else None,
            )
        )
    return RunTable(rows=tuple(out), provenance=table.provenance + "#seedavg")


def _record_to_row(rec: RunRecord) -> dict:
    """`rec` as a run-table row: every value through str, an absent optional one as None."""
    row = {}
    for col, _, _ in _FIELD_COLUMNS:
        value = getattr(rec, col)
        row[col] = None if value is None else str(value)
    for region, col in SCORE_COLUMNS.items():
        row[col] = str(rec.scores[region])
    return row


def export(table: RunTable, path, format: str = "csv") -> None:
    """Write a run table back to disk; round-trips through ingest exactly."""
    columns = CSV_COLUMNS + OPTIONAL_COLUMNS
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for rec in table.rows:
                writer.writerow(_record_to_row(rec))
    elif format == "json":
        rows = [_record_to_row(rec) for rec in table.rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {format!r}")


def aggregate_score(scores: dict) -> AggregateScore:
    """Mean alignment across the five regions and its complement L = 1 - S."""
    missing = [r for r in REGIONS if r not in scores]
    if missing:
        raise ValueError(f"missing region(s): {', '.join(missing)}")
    S = sum(scores[r] for r in REGIONS) / len(REGIONS)
    return AggregateScore(S=S, L=1.0 - S, regions_used=REGIONS)


# Families whose low-data runs are excluded from the restricted fits.
_RESTRICTED_FAMILIES = {"convnext", "vit"}


def _rule_convnext_vit_restricted(rec: RunRecord) -> bool:
    if rec.family.lower() in _RESTRICTED_FAMILIES:
        return rec.samples_per_class in (300, "full")
    return True


FILTER_RULES = {
    "none": lambda rec: True,
    "convnext_vit_restricted": _rule_convnext_vit_restricted,
}


def filter_for_fit(table: RunTable, rule: str = "none") -> RunTable:
    """Keep only rows passing the named rule."""
    if rule not in FILTER_RULES:
        raise ValueError(f"unknown filter rule {rule!r}; known: {sorted(FILTER_RULES)}")
    pred = FILTER_RULES[rule]
    return RunTable(
        rows=tuple(r for r in table.rows if pred(r)),
        provenance=table.provenance,
    )
