"""Shared JSON file helpers with deterministic output."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import MalformedFile


def json_int(value, what: str) -> int:
    """A JSON integer read from a document; a bool, a fractional number
    or any other value raises MalformedFile rather than being truncated."""
    if type(value) is not int:
        raise MalformedFile(f"{what} must be an integer, got {value!r}")
    return value


def canonical_dumps(obj) -> str:
    """Serialize with sorted keys and a trailing newline, for stable files."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj))


def read_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path}: not valid JSON ({exc})") from exc
