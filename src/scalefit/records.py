"""Run-record data model, CSV/JSON ingestion and export, filtering."""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

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
# Every column in file order: the mandatory ones, then the optional ones.
_COLUMNS = (*CSV_COLUMNS, *OPTIONAL_COLUMNS)
# RunRecord's fields in _FIELD_COLUMNS order, then its scores.
_RECORD_FIELDS = (*(c for c, _, _ in _FIELD_COLUMNS), "scores")

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


def _trusted_record(fields) -> RunRecord:
    """A RunRecord of fields, a dict or (name, value) pairs, that already pass
    __post_init__'s checks, built without running them."""
    rec = object.__new__(RunRecord)
    rec.__dict__.update(fields)
    return rec


def _convert(values, fn, absent) -> list:
    """fn of each value, with `absent` in place of each None."""
    if None in values:
        return [absent if v is None else fn(v) for v in values]
    return list(map(fn, values))


def ingest(path, format: str = "csv", average_seeds: bool = False) -> RunTable:
    """Parse a run table from CSV or JSON, enforcing the schema and invariants.

    The table is checked column by column. Only a table that fails that check,
    or holds a score to clamp, is scanned row by row, which words each row's
    error and warns once per clamped score.
    """
    not_objects = ()
    if format == "csv":
        columns = _read_csv_columns(path)
    elif format == "json":
        columns, not_objects = _read_json_columns(path)
    else:
        raise ValueError(f"unknown format {format!r}")
    records = None if not_objects else _records_from_columns(columns)
    if records is None:
        records = _records_from_rows(zip(*columns), not_objects)

    table = RunTable(rows=tuple(records), provenance=f"{path}#v{FORMAT_VERSION}")
    if average_seeds:
        table = _average_seeds(table)
    return table


def _read_csv_columns(path) -> list:
    """The table's cells as columns in _COLUMNS order: a missing cell or column reads as None.

    As with csv.DictReader, a blank line is skipped, cells past the header's
    width are ignored and a column named twice reads from its last position.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError(["empty file: missing header"])
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise IngestError([f"header missing mandatory column(s): {', '.join(missing)}"])
        rows = list(filter(None, reader))
    width = len(header)
    if set(map(len, rows)) - {width}:
        rows = [(row + [None] * width)[:width] for row in rows]
    table = list(zip(*rows)) or [()] * width
    position = {c: i for i, c in enumerate(header)}
    absent = (None,) * len(rows)
    return [table[position[c]] if c in position else absent for c in _COLUMNS]


def _read_json_columns(path):
    """(columns, not_objects): the cells as _read_csv_columns gives them, each value
    through str and a null or absent one as "", and the row numbers that hold no
    JSON object; those rows read as empty.
    """
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    if not isinstance(rows, list):
        raise IngestError(["JSON run table must be a list of row objects"])
    not_objects = {i for i, row in enumerate(rows, start=1) if not isinstance(row, dict)}
    if not_objects:
        rows = [row if isinstance(row, dict) else {} for row in rows]
    columns = [_convert(list(map(dict.get, rows, repeat(c))), str, "") for c in _COLUMNS]
    return columns, not_objects


def _records_from_columns(columns) -> list | None:
    """The records of a table whose every row passes the row scan without a warning, else None.

    Each column is parsed in one pass and checked as a whole against the rules
    the row scan applies: mandatory cells non-empty, counts >= 1, flops > 0,
    samples_per_class "full" or >= 1, scores and val_accuracy in [0, 1] and
    run_ids unique.
    """
    cells = dict(zip(_COLUMNS, columns))
    if not cells["run_id"]:
        return []
    if not all(map(all, (cells[c] for c in CSV_COLUMNS))):
        return None
    va = cells["val_accuracy"]
    try:
        values = {col: list(map(parse, cells[col])) for col, parse, optional in _FIELD_COLUMNS
                  if not optional}
        values["val_accuracy"] = list(map(float, va)) if all(va) else [
            float(t) if t else None for t in va
        ]
        scores = [list(map(float, cells[col])) for col in SCORE_COLUMNS.values()]
    except ValueError:
        return None
    accuracies = [v for v in values["val_accuracy"] if v is not None]
    va_lo, va_hi = _span(accuracies) if accuracies else (0.0, 0.0)
    if not (
        _span(values["n_params"])[0] >= 1
        and _span(values["samples_seen"])[0] >= 1
        and _span(values["flops"])[0] > 0.0
        and all(v == "full" or v >= 1 for v in set(values["samples_per_class"]))
        and all(0.0 <= lo and hi <= 1.0 for lo, hi in map(_span, scores))
        and 0.0 <= va_lo and va_hi <= 1.0
        and len(set(values["run_id"])) == len(values["run_id"])
    ):
        return None
    by_region = map(dict, map(zip, repeat(REGIONS), zip(*scores)))
    fields = zip(*(values[c] for c, _, _ in _FIELD_COLUMNS), by_region)
    return [_trusted_record(zip(_RECORD_FIELDS, row)) for row in fields]


def _span(column) -> tuple:
    """(min, max) of a non-empty column, or (nan, nan), which fails every bound, if it holds a NaN."""
    total = sum(column)
    if total != total:  # a NaN, or inf and -inf: min and max would not see it
        return (float("nan"),) * 2
    return min(column), max(column)


def _records_from_rows(rows, not_objects=()) -> list:
    """Parse and validate row by row, raising an IngestError with every bad row's message.

    `rows` hold their cells in _COLUMNS order; the row numbers in `not_objects`
    held no JSON object.
    """
    records, errors, seen_ids = [], [], set()
    for i, row in enumerate(rows, start=1):
        if i in not_objects:
            errors.append(f"row {i}: not a JSON object")
            continue
        row = dict(zip(_COLUMNS, row))
        missing = [c for c in CSV_COLUMNS if not row[c]]
        if missing:
            errors.append(f"row {i}: missing column(s) {', '.join(missing)}")
            continue
        try:
            rec = _row_to_record(row)
        except ValueError as exc:
            errors.append(f"row {i}: {exc}")
            continue
        if rec.run_id in seen_ids:
            errors.append(f"row {i}: duplicate run_id {rec.run_id!r}")
            continue
        seen_ids.add(rec.run_id)
        records.append(rec)
    if errors:
        raise IngestError(errors)
    return records


def _row_to_record(row: dict) -> RunRecord:
    fields = {}
    for col, parse, _ in _FIELD_COLUMNS:
        text = row[col]
        fields[col] = parse(text) if text else None
    scores = {region: _parse_score(float(row[col])) for region, col in SCORE_COLUMNS.items()}
    return RunRecord(scores=scores, **fields)


def _average_seeds(table: RunTable) -> RunTable:
    """Collapse seed repeats: rows identical up to seed are score-averaged."""
    groups: dict[tuple, list[RunRecord]] = {}
    for r in table.rows:
        groups.setdefault((r.family, r.arch, r.dataset, r.samples_per_class, r.n_params), []).append(r)
    out = []
    for grp in groups.values():
        if len(grp) == 1:
            out.append(grp[0])
            continue
        first = grp[0]
        k = len(grp)
        vas = [g.val_accuracy for g in grp if g.val_accuracy is not None]
        # Means of valid values are valid: the record needs no __post_init__ checks.
        out.append(_trusted_record({
            **first.__dict__,
            "run_id": first.run_id + "_seedavg",
            "seed": -1,
            "samples_seen": round(sum(g.samples_seen for g in grp) / k),
            "flops": sum(g.flops for g in grp) / k,
            "scores": {region: sum(g.scores[region] for g in grp) / k for region in first.scores},
            "val_accuracy": sum(vas) / len(vas) if vas else None,
        }))
    return RunTable(rows=tuple(out), provenance=table.provenance + "#seedavg")


def _record_columns(recs) -> dict:
    """Each run-table column of `recs`, by name: every value through str, an absent one None."""
    names = [c for c, _, _ in _FIELD_COLUMNS]
    fields = list(zip(*map(attrgetter(*names), recs))) or [()] * len(names)
    scores = list(zip(*map(itemgetter(*REGIONS), map(attrgetter("scores"), recs))))
    columns = dict(zip(names, fields))
    columns.update(zip(SCORE_COLUMNS.values(), scores or [()] * len(REGIONS)))
    return {col: _convert(values, str, None) for col, values in columns.items()}


# One exported JSON row in json.dump's indent=2, sort_keys=True layout, with a %s per value.
_JSON_ROW = "  {\n" + ",\n".join(
    f"    {encode_basestring_ascii(c)}: %s" for c in sorted(_COLUMNS)
) + "\n  }"


def export(table: RunTable, path, format: str = "csv") -> None:
    """Write a run table back to disk; round-trips through ingest exactly.

    JSON output is byte-identical to json.dump(rows, indent=2, sort_keys=True)
    plus a newline, each row a dict of str values and None for an absent one.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    columns = _record_columns(table.rows)
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
            writer.writerows(zip(*(columns[c] for c in _COLUMNS)))
    else:
        encoded = [_convert(columns[c], encode_basestring_ascii, "null") for c in sorted(_COLUMNS)]
        rows = ",\n".join(map(_JSON_ROW.__mod__, zip(*encoded)))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"[\n{rows}\n]\n" if rows else "[]\n")


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
