"""Shared JSON file helpers with deterministic output."""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import MalformedFile


def json_int(value, what: str) -> int:
    """A JSON integer read from a document; a bool, a fractional number
    or any other value raises MalformedFile rather than being truncated."""
    if type(value) is not int:
        raise MalformedFile(f"{what} must be an integer, got {value!r}")
    return value


def key_int(text: str) -> int:
    """The integer a key spells as ``str`` writes it; any other spelling
    ("01", " 1", "1_0") raises ValueError, so no two keys name one id."""
    n = int(text)
    if str(n) != text:
        raise ValueError(f"{text!r} is not a canonical decimal")
    return n


def canonical_dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)`` plus a
    trailing newline, for stable files.

    With ``indent`` the stdlib encodes in pure Python, one call per value,
    so this renders the shapes the documents are made of itself: dicts
    with ``str`` keys, flat int lists in one join, and tables (rows of one
    length whose columns hold ints or int lists of one length) by filling
    one ``%``-template per row.  Any other value (a bool, float,
    ``None``, tuple, or a dict with other keys) and every subtree under it
    goes to the stdlib.  The type checks are exact, so ``True`` never
    prints as ``1``.
    """
    return _render(obj, "\n") + "\n"


def _render(value, nl: str) -> str:
    """``value`` as the stdlib writes it where each new line is ``nl``,
    a newline and the indentation of the current level."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = nl + "  "
    if kind is list and value:
        return "[" + inner + ("," + inner).join(_items(value, inner)) + nl + "]"
    if kind is dict and {*map(type, value)} == {str}:
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _render(v, inner)
            for k, v in sorted(value.items())
        ) + nl + "}"
    # JSON strings escape newlines, so every newline here starts a line
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def _items(values: list, nl: str):
    kinds = {*map(type, values)}
    if kinds == {int}:
        return map(str, values)
    if kinds == {list}:
        rows = _table(values, nl)
        if rows is not None:
            return rows
    return [_render(v, nl) for v in values]


def _table(rows: list, nl: str):
    """Rendered rows of a table, or None if some column is neither all
    ints nor all int lists of one nonzero length.  The int lists are
    split into int columns, so each row is one template filled with its
    ints."""
    widths = {*map(len, rows)}
    if widths == {0} or len(widths) != 1:
        return None
    inner = nl + "  "
    deeper = inner + "  "
    columns = []
    cells = []
    for column in zip(*rows):
        kinds = {*map(type, column)}
        if kinds == {int}:
            columns.append(column)
            cells.append("%d")
            continue
        if kinds != {list} or len(lengths := {*map(len, column)}) != 1:
            return None
        if {*map(type, chain.from_iterable(column))} != {int}:
            return None
        columns.extend(zip(*column))
        ints = ("%d," + deeper) * (lengths.pop() - 1) + "%d"
        cells.append("[" + deeper + ints + inner + "]")
    row = "[" + inner + ("," + inner).join(cells) + nl + "]"
    return map(row.__mod__, zip(*columns))


def write_json(path, obj) -> None:
    text = canonical_dumps(obj)
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise MalformedFile(f"cannot write {path}: {exc}") from exc


def read_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise MalformedFile(f"{path}: JSON nested too deeply") from exc
