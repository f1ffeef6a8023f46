"""Deterministic text serialization.

All artifacts the library writes (JSON documents, CSV tables) are produced by
the formatters in this module so that identical values yield identical bytes,
run after run and machine after machine:

* floats are rendered with printf ``%.17g`` — 17 significant digits always
  round-trip a double exactly — and a ``.0`` is appended when the rendering
  would otherwise look like an integer, so floats stay visibly floats;
* JSON objects keep insertion order (callers build them in a fixed order),
  use two-space indentation, and inline short scalar-only containers;
* CSV uses ``\\n`` line endings and no quoting (no field we emit needs it).

Only finite numbers are serializable; NaN or infinity raises
:class:`~qibc.exceptions.ValidationError`.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .exceptions import ValidationError

__all__ = [
    "format_float",
    "dumps_json",
    "dump_json_file",
    "check_keys",
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


def _render(node: Any) -> str | None:
    """Inline rendering of a node, or None if it must go multiline."""
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
    if isinstance(node, (list, tuple)):
        parts = []
        for item in node:
            p = _render(item)
            if p is None:
                return None
            parts.append(p)
        s = "[" + ", ".join(parts) + "]"
        return s if len(s) <= _INLINE_WIDTH else None
    if isinstance(node, dict):
        parts = []
        for key, value in node.items():
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            p = _render(value)
            if p is None:
                return None
            parts.append(json.dumps(key) + ": " + p)
        s = "{" + ", ".join(parts) + "}"
        return s if len(s) <= _INLINE_WIDTH else None
    raise ValidationError(f"value of type {type(node).__name__} is not serializable")


def _write(node: Any, indent: int, out: list[str]) -> None:
    inline = _render(node)
    if inline is not None:
        out.append(inline)
        return
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(node, (list, tuple)):
        out.append("[\n")
        for i, item in enumerate(node):
            out.append(pad_in)
            _write(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(node) else "\n")
        out.append(pad + "]")
    elif isinstance(node, dict):
        out.append("{\n")
        items = list(node.items())
        for i, (key, value) in enumerate(items):
            out.append(pad_in + json.dumps(key) + ": ")
            _write(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:  # a scalar too long to inline cannot exist
        raise AssertionError("unreachable")


def dumps_json(node: Any) -> str:
    """Serialize ``node`` deterministically; ends with a newline."""
    out: list[str] = []
    _write(node, 0, out)
    out.append("\n")
    return "".join(out)


def dump_json_file(path: str, node: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(node))


def check_keys(node: Any, what: str, keys: set[str]) -> None:
    """Require ``node`` to be a JSON object whose keys all lie in ``keys``."""
    if not isinstance(node, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(node).__name__}")
    extra = set(node) - keys
    if extra:
        raise ValidationError(f"unknown {what} keys: {sorted(extra)}")


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


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read CSV text as :func:`render_csv` writes it (no quoting, no escapes)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    lines = [ln for ln in raw.split("\n") if ln != ""]
    if not lines:
        raise ValidationError(f"empty CSV file: {path}")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise ValidationError(f"ragged CSV row in {path}: {row!r}")
    return header, rows
