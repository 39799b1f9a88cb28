"""The one writer of rtmhd's artifact files, the one JSON reader, and the one
number format.

A CSV file is a header line and one line per row, each ending in a
newline.  A float is written with 17 significant digits (``fmt``), which
``float`` reads back bitwise; an int is written as an int, and None as an
empty field.  A JSON file is indented by one space, with sorted keys and a
final newline.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence


def fmt(value: float) -> str:
    """A float with 17 significant digits: ``float`` reads it back bitwise."""
    return f"{value:.17g}"


def _field(value) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else fmt(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header), *(",".join(map(_field, row)) for row in rows)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def read_json(path: str) -> dict:
    """The JSON object in ``path``; ValueError unless the file holds one."""
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return payload
