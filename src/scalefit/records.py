"""Run-record data model, CSV/JSON ingestion and export, filtering."""
from __future__ import annotations

import csv
import json
import math
import warnings
from collections import Counter
from contextlib import suppress
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


# RunRecord's bounds, in the order they are checked: (field, test, message). Each
# test passes an interval of numbers, which NaN is never in, and perhaps values of
# another type; the message is formatted with the value.
_BOUNDS = (
    ("n_params", lambda v: v >= 1, "n_params must be >= 1"),
    ("samples_seen", lambda v: v >= 1, "samples_seen must be >= 1"),
    ("flops", lambda v: 0 < v < math.inf, "flops must be positive"),
    ("samples_per_class", lambda v: v == "full" or isinstance(v, int) and v >= 1,
     "samples_per_class must be a positive integer or 'full', got {!r}"),
    ("val_accuracy", lambda v: v is None or 0.0 <= v <= 1.0, "val_accuracy outside [0, 1]"),
)


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
        for name, test, message in _BOUNDS:
            if name == "val_accuracy":  # the scores are checked before it
                for region, s in self.scores.items():
                    if region not in REGIONS:
                        raise ValueError(f"run {self.run_id}: unknown region {region!r}")
                    if not 0.0 <= s <= 1.0:
                        raise ValueError(f"run {self.run_id}: score {region}={s} outside [0, 1]")
            value = getattr(self, name)
            if not test(value):
                raise ValueError(f"run {self.run_id}: {message.format(value)}")


@dataclass(frozen=True)
class RunTable:
    rows: tuple
    provenance: str = ""

    def __post_init__(self):
        ids = [r.run_id for r in self.rows]
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
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


def _clamp_score(value: float) -> float:
    """A ceiling-normalized score clamped into [0, 1]; a ValueError outside [-0.05, 1.05]."""
    if not -0.05 <= value <= 1.05:
        raise ValueError(f"score {value} outside acceptable range [-0.05, 1.05]")
    return min(max(value, 0.0), 1.0)


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

    The table is checked column by column, in the order of a row's checks: a
    JSON object, every mandatory cell, each field's parse, each score's parse
    and range, RunRecord's bounds, then a run_id that no earlier good row
    holds. The IngestError lists each bad row's first fault. A score in
    [-0.05, 1.05] but outside [0, 1] is clamped into it, with a warning unless
    its row has an earlier fault.
    """
    not_objects = ()
    if format == "csv":
        columns = _read_csv_columns(path)
    elif format == "json":
        columns, not_objects = _read_json_columns(path)
    else:
        raise ValueError(f"unknown format {format!r}")
    table = RunTable(tuple(_records(columns, not_objects)), f"{path}#v{FORMAT_VERSION}")
    if average_seeds:
        table = _average_seeds(table)
    return table


def _read_csv_columns(path) -> list:
    """The table's cells as columns in _COLUMNS order: a missing cell or column reads as None.

    As with csv.DictReader, a blank line is skipped and cells past the header's
    width are ignored. A run-table column named twice is an IngestError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError(["empty file: missing header"])
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise IngestError([f"header missing mandatory column(s): {', '.join(missing)}"])
        repeated = [c for c in _COLUMNS if header.count(c) > 1]
        if repeated:
            raise IngestError([f"header names column(s) more than once: {', '.join(repeated)}"])
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
    through str and a null or absent one as "", and the indices of the rows that
    hold no JSON object; those rows read as empty.
    """
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    if not isinstance(rows, list):
        raise IngestError(["JSON run table must be a list of row objects"])
    not_objects = {i for i, row in enumerate(rows) if not isinstance(row, dict)}
    if not_objects:
        rows = [row if isinstance(row, dict) else {} for row in rows]
    columns = [_convert(list(map(dict.get, rows, repeat(c))), str, "") for c in _COLUMNS]
    return columns, not_objects


def _records(columns, not_objects) -> list:
    """The records of a table's columns, in _COLUMNS order, checked as ingest describes.

    `faults` maps a row's index to its first fault. Each check runs over whole
    columns, in order, and words a fault only for a row that has none yet.
    """
    cells = dict(zip(_COLUMNS, columns))
    faults = dict.fromkeys(not_objects, "not a JSON object")
    mandatory = [cells[c] for c in CSV_COLUMNS]
    if not all(map(all, mandatory)):
        for i, row in enumerate(zip(*mandatory)):
            if i not in faults and not all(row):
                missing = [c for c, text in zip(CSV_COLUMNS, row) if not text]
                faults[i] = f"missing column(s) {', '.join(missing)}"
    values = {c: _parse_column(cells[c], parse, faults) for c, parse, _ in _FIELD_COLUMNS}
    scores, clamped = [], []
    for region, column in enumerate(SCORE_COLUMNS.values()):
        score = _parse_column(cells[column], float, faults)
        for i in _failing(score, lambda v: 0.0 <= v <= 1.0, faults):
            s = score[i]
            try:
                score[i] = _clamp_score(s)
            except ValueError as exc:
                faults[i] = str(exc)
            else:
                clamped.append((i, region, s))
        scores.append(score)
    run_ids = values["run_id"]
    for name, test, message in _BOUNDS:
        for i in _failing(values[name], test, faults):
            faults[i] = f"run {run_ids[i]}: {message.format(values[name][i])}"
    if len(set(run_ids)) != len(run_ids):
        seen = set()
        for i, run_id in enumerate(run_ids):
            if i not in faults:
                if run_id in seen:
                    faults[i] = f"duplicate run_id {run_id!r}"
                seen.add(run_id)
    for _, _, s in sorted(clamped):  # in row, then region, order
        warnings.warn(f"score {s} clamped into [0, 1]", stacklevel=3)
    if faults:
        raise IngestError(f"row {i + 1}: {faults[i]}" for i in sorted(faults))
    by_region = map(dict, map(zip, repeat(REGIONS), zip(*scores)))
    fields = zip(*(values[c] for c, _, _ in _FIELD_COLUMNS), by_region)
    return [_trusted_record(zip(_RECORD_FIELDS, row)) for row in fields]


def _parse_column(cells, parse, faults) -> list:
    """`parse` of each cell, None for an empty one. A cell `parse` rejects reads None,
    and its message becomes the row's fault; a row that has a fault reads None."""
    if all(cells):
        try:
            return list(map(parse, cells))
        except ValueError:
            pass
    values = []
    for i, text in enumerate(cells):
        value = None
        if text and i not in faults:
            try:
                value = parse(text)
            except ValueError as exc:
                faults[i] = str(exc)
        values.append(value)
    return values


def _failing(column, test, faults) -> list:
    """The rows with no fault whose value fails `test`, which passes an interval of numbers
    and perhaps values of other types. A column of numbers is judged by its extremes, at C
    speed, unless its total is NaN: it holds a NaN, or inf and -inf, that they can miss."""
    try:
        total = sum(column)
        if total == total and (not column or test(min(column)) and test(max(column))):
            return []
    except TypeError:  # strings or None among the values: test each distinct value
        with suppress(TypeError):
            if all(map(test, set(column))):
                return []
    return [i for i, value in enumerate(column) if i not in faults and not test(value)]


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
        flops = sum(g.flops for g in grp) / k
        if not math.isfinite(flops):
            # The sum overflowed. A sum of quotients can still round past the
            # largest float, which the mean, at most the largest value, is not.
            flops = min(sum(g.flops / k for g in grp), max(g.flops for g in grp))
        # Each mean, flops' included, meets the bounds its values meet, so the
        # record needs no __post_init__ checks.
        out.append(_trusted_record({
            **first.__dict__,
            "run_id": first.run_id + "_seedavg",
            "seed": -1,
            "samples_seen": round(sum(g.samples_seen for g in grp) / k),
            "flops": flops,
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
