"""Shared JSON file helpers with deterministic output."""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import MalformedFile


# what a document holds as a JSON array: a list, as parsed from text, or
# a tuple, as the writers hand out stored rows; json.dumps writes both alike
ARRAY_TYPES = (list, tuple)


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
    and its nested encoder closures form a reference cycle on every call,
    so this renders the shapes the documents are made of itself: dicts
    whose keys are all ``str`` or all ``int`` (sorted numerically and
    written as decimal text, as ``sort_keys`` does), empty arrays and
    objects, flat int lists in one join, ``true``, ``false`` and ``null``,
    and tables (rows of one length whose columns hold ints or int lists
    of one length) by filling one ``%``-template per table.  A tuple is
    written as the array the stdlib writes for it, so it may stand
    wherever a list does.  Any other value (a float, or a dict with
    mixed or other keys) and every subtree under it goes to the stdlib.
    The type checks are exact, so ``True`` never prints as ``1`` and
    ``1`` never as ``true``.
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
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = nl + "  "
    if kind in ARRAY_TYPES:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_items(value, inner)) + nl + "]"
    if kind is dict:
        if not value:
            return "{}"
        if {*map(type, value)} in ({str}, {int}):
            return "{" + inner + ("," + inner).join(
                encode_basestring_ascii(str(k)) + ": " + _render(v, inner)
                for k, v in sorted(value.items())
            ) + nl + "}"
    # JSON strings escape newlines, so every newline here starts a line
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def _items(values: list, nl: str):
    kinds = {*map(type, values)}
    if kinds == {int}:
        return map(str, values)
    if kinds.issubset(ARRAY_TYPES):
        rows = _table(values, nl)
        if rows is not None:
            return rows
    return [_render(v, nl) for v in values]


def _table(rows: list, nl: str):
    """A table rendered as one item, or None if some column is neither
    all ints nor all int lists or tuples of one nonzero length.

    One row template, repeated per row, is filled once with the table's
    cells in row order.  A table of ints alone gives them straight from
    its rows.  Otherwise each array column is written as text, each
    distinct array object once, since tables share them (the projection
    stores a few operators per dimension)."""
    widths = {*map(len, rows)}
    if widths == {0} or len(widths) != 1:
        return None
    inner = nl + "  "
    first = {*map(type, rows[0])}
    if first == {int} and {*map(type, chain.from_iterable(rows))} == first:
        cells = ["%d"] * widths.pop()
        values = chain.from_iterable(rows)
    else:
        columns = []
        cells = []
        for column in zip(*rows):
            kinds = {*map(type, column)}
            if kinds == {int}:
                columns.append(column)
                cells.append("%d")
                continue
            if not kinds.issubset(ARRAY_TYPES):
                return None
            distinct = dict(zip(map(id, column), column))
            if len({*map(len, distinct.values())}) != 1:
                return None
            if {*map(type, chain.from_iterable(distinct.values()))} != {int}:
                return None
            deeper = inner + "  "
            texts = {
                key: "[" + deeper + ("," + deeper).join(map(str, array)) + inner + "]"
                for key, array in distinct.items()
            }
            columns.append(map(texts.__getitem__, map(id, column)))
            cells.append("%s")
        values = chain.from_iterable(zip(*columns))
    row = "[" + inner + ("," + inner).join(cells) + nl + "]"
    return [("," + nl).join([row] * len(rows)) % tuple(values)]


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
