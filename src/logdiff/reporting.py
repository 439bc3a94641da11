"""Report rows and their deterministic CSV and manifest serialization.

Every report dataclass subclasses :class:`Row`, whose ``to_row()`` is the one
rule that turns a report into a row.  Byte-identical output is a contract:
floats are written with ``repr`` (the shortest round-tripping form), column
order is fixed by the caller or by the first row's insertion order, and
nothing time- or host-dependent is emitted.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import fields
from pathlib import Path

from .errors import ParameterError


@functools.lru_cache(maxsize=None)
def _row_names(cls) -> tuple:
    """The names of the row fields of the dataclass ``cls``, in order."""
    return tuple(f.name for f in fields(cls) if f.metadata.get("row", True))


class Row:
    """Mixin for report dataclasses: ``to_row()`` is the fields in order.

    Tuples become ``;``-joined reprs; a field declared with
    ``metadata={"row": False}`` is left out.
    """

    def to_row(self) -> dict:
        row = {}
        for name in _row_names(type(self)):
            value = getattr(self, name)
            row[name] = ";".join(repr(v) for v in value) if isinstance(value, tuple) else value
        return row


def format_cell(value) -> str:
    """Canonical text for one CSV cell; ``repr`` of a float writes ``nan`` and ``inf``."""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int,)):
        return str(value)
    if value is None:
        return ""
    return str(value)


def write_csv(path, rows, columns=None) -> list[str]:
    """Write dict rows with a fixed column set; returns the columns used.

    All rows must provide exactly the chosen columns; missing or extra keys
    are an error so that silent column drift cannot occur between runs.
    """
    path = Path(path)
    rows = list(rows)
    if columns is None:
        if not rows:
            raise ParameterError("cannot infer columns from zero rows")
        columns = list(rows[0].keys())
    for i, row in enumerate(rows):
        if set(row.keys()) != set(columns):
            missing = set(columns) - set(row.keys())
            extra = set(row.keys()) - set(columns)
            raise ParameterError(
                f"row {i} column mismatch: missing {sorted(missing)}, extra {sorted(extra)}"
            )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(row[c]) for c in columns])
    return list(columns)


def write_json(path, payload: dict) -> None:
    """Sorted-keys JSON with a trailing newline; deterministic bytes."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
