"""Write the seed-averaged export of a run-table CSV, using only scalefit's records module.

Usage:

    python tools/records_average.py RUNS.csv OUT.json

``src/scalefit/records.py`` imports only the standard library, so this script
loads it by its path, without the package and without numpy. That makes the
averaged bytes comparable across Python versions that have no numpy:

    for py in python3.10 python3.11 python3.12 python3.13; do
        $py tools/records_average.py runs.csv avg_$py.json
    done
    sha256sum avg_*.json

The output is the JSON export of ``ingest --average-seeds``, or its CSV export
when OUT ends in ``.csv``.
"""
from __future__ import annotations

import importlib.util
import os
import sys

RECORDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "scalefit", "records.py")


def load_records():
    """The records module, loaded from its file alone."""
    spec = importlib.util.spec_from_file_location("scalefit_records", RECORDS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building a class
    spec.loader.exec_module(module)
    return module


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit("usage: records_average.py RUNS.csv OUT.json")
    source, out = argv
    records = load_records()
    table = records.ingest(source, average_seeds=True)
    records.export(table, out, format="csv" if out.endswith(".csv") else "json")
    print(f"{len(table)} averaged run(s) -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
