"""Deterministic text serialization.

All artifacts the library writes (JSON documents, CSV tables) are produced by
the formatters in this module so that identical values yield identical bytes,
run after run and machine after machine:

* floats are rendered with printf ``%.17g`` — 17 significant digits always
  round-trip a double exactly — and a ``.0`` is appended when the rendering
  would otherwise look like an integer, so floats stay visibly floats;
* JSON objects keep insertion order (callers build them in a fixed order)
  and use two-space indentation. A container goes on one line when that line
  is at most 100 characters and none of its children spans lines; otherwise
  it puts one item per line;
* CSV uses ``\\n`` line endings and no quoting (no field we emit needs it).

Only finite numbers and string object keys are serializable; anything else
raises :class:`~qibc.exceptions.ValidationError`.

Every JSON reader goes through :class:`reading`, which raises a
``ValidationError`` in one of two forms: the shape of the object
(``<what> must be a JSON object, got <type>`` or ``unknown <what> keys:
[...]``), or ``malformed <what>: <the error>`` for a missing field or one of
the wrong type or value. A ``ValidationError`` a value raises itself, such
as a pwl's non-increasing breakpoints, passes through unchanged.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .exceptions import _CONVERSION_ERRORS, ValidationError

__all__ = [
    "format_float",
    "dumps_json",
    "dump_json_file",
    "load_json_file",
    "reading",
    "render_csv",
    "read_csv",
]

#: Maximum rendered length for a container to be kept on one line.
_INLINE_WIDTH = 100


def format_float(x: float) -> str:
    """Render a float with 17 significant digits, round-trip exact."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"non-finite value not serializable: {x!r}")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _dump(node: Any, indent: int) -> str:
    """``node`` as JSON text whose nested lines sit ``indent`` levels deep."""
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, str):
        return json.dumps(node)
    if isinstance(node, int):
        return str(node)
    if isinstance(node, float):
        return format_float(node)
    if isinstance(node, dict):
        items = []
        for key, value in node.items():
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            items.append(json.dumps(key) + ": " + _dump(value, indent + 1))
        left, right = "{", "}"
    elif isinstance(node, (list, tuple)):
        items = [_dump(item, indent + 1) for item in node]
        left, right = "[", "]"
    else:
        raise ValidationError(f"value of type {type(node).__name__} is not serializable")
    line = left + ", ".join(items) + right
    if len(line) <= _INLINE_WIDTH:  # a child that spans lines is longer than that
        return line
    pad = "  " * indent
    return f"{left}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{right}"


def dumps_json(node: Any) -> str:
    """Serialize ``node`` deterministically; ends with a newline."""
    return _dump(node, 0) + "\n"


def dump_json_file(path: str, node: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(node))


def load_json_file(path: str) -> Any:
    """Parse the JSON document in the UTF-8 file ``path``."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path} nests JSON too deeply to parse") from exc


class reading:
    """Guard the reads from JSON object ``node``, a ``what`` whose keys lie in ``keys``.

    Its two forms of error are those the module docstring gives.
    """

    def __init__(self, node: Any, what: str, keys: set[str]) -> None:
        if not isinstance(node, dict):
            raise ValidationError(f"{what} must be a JSON object, got {type(node).__name__}")
        extra = set(node) - keys
        if extra:
            raise ValidationError(f"unknown {what} keys: {sorted(extra)}")
        self.what = what

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: Any, exc: Any, tb: Any) -> None:
        bad = (KeyError, *_CONVERSION_ERRORS)
        if isinstance(exc, bad) and not isinstance(exc, ValidationError):
            raise ValidationError(f"malformed {self.what}: {exc}") from exc


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        if any(ch in value for ch in ",\"\n\r"):
            raise ValidationError(f"CSV cell would need quoting: {value!r}")
        return value
    raise ValidationError(f"CSV cell of type {type(value).__name__} not supported")


def render_csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValidationError(
                f"CSV row has {len(row)} cells, header has {len(header)}"
            )
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read CSV text as :func:`render_csv` writes it (no quoting, no escapes)."""
    lines = [ln for ln in _read_text(path).split("\n") if ln != ""]
    if not lines:
        raise ValidationError(f"empty CSV file: {path}")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise ValidationError(f"ragged CSV row in {path}: {row!r}")
    return header, rows
