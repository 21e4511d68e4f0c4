"""Run-record data model, CSV/JSON ingestion and export, filtering."""
from __future__ import annotations

import csv
import json
import math
import warnings
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, fields
from itertools import compress, repeat, starmap
from json.encoder import encode_basestring_ascii
from operator import itemgetter

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

FORMAT_VERSION = "1"

# The RunRecord field holding each resource a curve can be fitted against.
RESOURCE_FIELDS = {"flops": "flops", "params": "n_params", "samples": "samples_seen"}


# A run's bounds, in the order they are checked: (column, test, message). Each
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
    """One trained-model evaluation run, as RunTable.rows gives it; ingest checks its values."""

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


class RunTable:
    """A run table held as checked columns, its RunRecords built only when asked for.

    ingest builds every table, and seed averaging and filter_for_fit derive
    tables from its columns. `columns` maps each column of _COLUMNS to the
    checked values ingest gives it, one per run, as the RunRecord fields hold
    them: a score column holds its region's scores, and an absent val_accuracy
    is None. `rows` builds the records on first use.
    """

    def __init__(self, columns: dict, provenance: str):
        self.columns = {c: tuple(columns[c]) for c in _COLUMNS}
        self.provenance = provenance
        self._rows = None
        ids = self.columns["run_id"]
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
            raise ValueError(f"duplicate run_id values: {dupes}")

    @property
    def rows(self) -> tuple:
        """The table's RunRecords, one per run in table order."""
        if self._rows is None:
            columns = dict(self.columns)
            scores = zip(*(columns[c] for c in SCORE_COLUMNS.values()))
            columns["scores"] = map(dict, map(zip, repeat(REGIONS), scores))
            by_field = zip(*(columns[f.name] for f in fields(RunRecord)))
            self._rows = tuple(starmap(RunRecord, by_field))
        return self._rows

    def __len__(self):
        return len(self.columns["run_id"])

    def __eq__(self, other):
        if not isinstance(other, RunTable):
            return NotImplemented
        return (self.columns, self.provenance) == (other.columns, other.provenance)


def _clamp_score(value: float) -> float:
    """A ceiling-normalized score clamped into [0, 1]; a ValueError outside [-0.05, 1.05]."""
    if not -0.05 <= value <= 1.05:
        raise ValueError(f"score {value} outside acceptable range [-0.05, 1.05]")
    return min(max(value, 0.0), 1.0)


def _mean(values) -> float:
    """The mean of a sequence of floats: their correctly rounded sum (math.fsum), divided
    once by their count. Builtin sum is compensated from Python 3.12 on, so a mean through
    it can differ in its last digit between versions; this rule cannot."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        # The sum passes the largest float. Divided first by a power of two above the
        # count it does not, and the division is exact but for subnormal values, so the
        # rule is the same. The cap keeps the mean finite, as it is at most the largest value.
        scale = 2.0 ** len(values).bit_length()
        return min(math.fsum(v / scale for v in values) / len(values) * scale, max(values))


def _convert(values, fn, absent) -> list:
    """fn of each value, with `absent` in place of each None."""
    if None in values:
        return [absent if v is None else fn(v) for v in values]
    return list(map(fn, values))


def ingest(path, format: str = "csv", average_seeds: bool = False) -> RunTable:
    """Parse a run table from CSV or JSON, enforcing the schema and invariants.

    The table is checked column by column, in the order of a row's checks: a
    JSON object, every mandatory cell, each field's parse, each score's parse
    and range, the bounds of _BOUNDS, then a run_id that no earlier good row
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
    checked = _checked_columns(columns, not_objects)
    table = RunTable(checked, f"{path}#v{FORMAT_VERSION}")
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


def _checked_columns(columns, not_objects) -> dict:
    """The parsed values of a table's cells, given as columns in _COLUMNS order, by
    column name, checked as ingest describes.

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
    _bound_faults(values, faults)
    run_ids = values["run_id"]
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
    return {**values, **dict(zip(SCORE_COLUMNS.values(), scores))}


def _bound_faults(columns, faults) -> dict:
    """`faults` with each row's first _BOUNDS fault added, for a row that has none yet.

    `columns` holds the run_id column and each bounded column, by name.
    """
    run_ids = columns["run_id"]
    for name, test, message in _BOUNDS:
        for i in _failing(columns[name], test, faults):
            faults[i] = f"run {run_ids[i]}: {message.format(columns[name][i])}"
    return faults


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


def _mean_of_given(values):
    """The mean of the values that are not None, or None if every value is."""
    given = [v for v in values if v is not None]
    return _mean(given) if given else None


# The fields that name a config: seed averaging merges the rows equal in all of them.
_SEED_GROUP = ("family", "arch", "dataset", "samples_per_class", "n_params")
# How seed averaging reduces a column over a group of rows; a column not named
# takes the group's first value. Each mean meets the bounds its values meet, so
# the averaged columns need no further checks.
_SEED_AVERAGES = {
    "run_id": lambda ids: ids[0] + "_seedavg",
    "seed": lambda seeds: -1,
    "samples_seen": lambda counts: round(sum(counts) / len(counts)),
    "flops": _mean,
    **dict.fromkeys(SCORE_COLUMNS.values(), _mean),
    "val_accuracy": _mean_of_given,
}


def _average_seeds(table: RunTable) -> RunTable:
    """Collapse seed repeats: rows identical up to seed become one averaged row."""
    columns = table.columns
    groups: dict[tuple, list] = {}
    for i, key in enumerate(zip(*(columns[c] for c in _SEED_GROUP))):
        groups.setdefault(key, []).append(i)
    firsts = [group[0] for group in groups.values()]
    repeats = [(j, itemgetter(*group)) for j, group in enumerate(groups.values()) if len(group) > 1]
    averaged = {}
    for c, values in columns.items():
        averaged[c] = column = list(map(values.__getitem__, firsts))
        reduce = _SEED_AVERAGES.get(c)
        if reduce is not None:
            for j, take in repeats:
                column[j] = reduce(take(values))
    return RunTable(averaged, table.provenance + "#seedavg")


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
    # Each column's values through str, an absent one None.
    columns = {c: _convert(values, str, None) for c, values in table.columns.items()}
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


# Families whose low-data runs are excluded from the restricted fits.
_RESTRICTED_FAMILIES = {"convnext", "vit"}


def _rule_convnext_vit_restricted(columns) -> list:
    """Whether each run is kept: ConvNeXt and ViT runs only at 300 per class or the full set."""
    return [
        family.lower() not in _RESTRICTED_FAMILIES or spc in (300, "full")
        for family, spc in zip(columns["family"], columns["samples_per_class"])
    ]


# Each rule takes a table's columns and says, per run, whether the run is kept.
FILTER_RULES = {
    "none": lambda columns: [True] * len(columns["run_id"]),
    "convnext_vit_restricted": _rule_convnext_vit_restricted,
}


def filter_for_fit(table: RunTable, rule: str = "none") -> RunTable:
    """Keep only rows passing the named rule."""
    if rule not in FILTER_RULES:
        raise ValueError(f"unknown filter rule {rule!r}; known: {sorted(FILTER_RULES)}")
    keep = FILTER_RULES[rule](table.columns)
    kept = {c: compress(values, keep) for c, values in table.columns.items()}
    return RunTable(kept, table.provenance)
