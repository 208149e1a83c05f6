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
    trailing newline, for stable files: the pieces ``_render`` hands
    out, joined once.  ``write_json`` writes the same pieces to a file.

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
    pieces: list[str] = []
    _render(obj, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


def _render(value, nl: str, out) -> None:
    """Hand ``value``, as the stdlib writes it where each new line is
    ``nl`` (a newline and the indentation of the current level), to the
    sink ``out`` piece by piece, in order: brackets, separators and key
    texts, each flat int list, each table filled from its template, and
    each subtree the stdlib writes.  The caller joins the pieces or
    writes each to a file, so no text of a whole document is made."""
    kind = type(value)
    if kind is int:
        out(str(value))
    elif kind is str:
        out(encode_basestring_ascii(value))
    elif kind is bool:
        out("true" if value else "false")
    elif value is None:
        out("null")
    elif kind in ARRAY_TYPES:
        if value:
            inner = nl + "  "
            out("[" + inner)
            _items(value, inner, out)
            out(nl + "]")
        else:
            out("[]")
    elif kind is dict and not value:
        out("{}")
    elif kind is dict and {*map(type, value)} in ({str}, {int}):
        inner = nl + "  "
        head = "{" + inner
        for k, v in sorted(value.items()):
            out(head + encode_basestring_ascii(str(k)) + ": ")
            _render(v, inner, out)
            head = "," + inner
        out(nl + "}")
    else:
        # JSON strings escape newlines, so every newline here starts a line
        out(json.dumps(value, indent=2, sort_keys=True).replace("\n", nl))


def _items(values, nl: str, out) -> None:
    """Hand the items of a nonempty array to ``out``, with the
    separators between them."""
    kinds = {*map(type, values)}
    if kinds == {int}:
        out(("," + nl).join(map(str, values)))
        return
    if kinds.issubset(ARRAY_TYPES):
        table = _table(values, nl)
        if table is not None:
            out(table)
            return
    sep = "," + nl
    rest = iter(values)
    _render(next(rest), nl, out)
    for v in rest:
        out(sep)
        _render(v, nl, out)


def _table(rows: list, nl: str):
    """A table rendered as one piece, or None if some column is neither
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
    return ("," + nl).join([row] * len(rows)) % tuple(values)


def write_json(path, obj) -> None:
    """Write the text of ``canonical_dumps(obj)`` to ``path``: the file is
    opened first and each piece ``_render`` hands out is written as it is
    made, so the whole text is never held.  An OSError from the open, a
    write or the close raises MalformedFile; a value the stdlib cannot
    write raises when it is reached, with the file written up to it."""
    try:
        with open(path, "w") as fh:
            _render(obj, "\n", fh.write)
            fh.write("\n")
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
