"""The canonical writer against the stdlib call it replaces.

``canonical_dumps`` renders tables and int lists itself and must give
the bytes of ``json.dumps(v, indent=2, sort_keys=True)`` plus a newline
for every value, so that call stays here as the oracle.  ``write_json``
streams the same pieces into a file, which must hold the same bytes.
"""

from __future__ import annotations

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from scbundles import (
    IntCochain,
    SemiSimplicialSet,
    assemble,
    build_surface_bundle,
    bundle_to_json_dict,
    cochain_to_json_dict,
    delta_torus,
    fundamental_class,
    minimal_from_cocycle,
    named_base,
    total_to_json_dict,
)
from scbundles._json import canonical_dumps, write_json

from generators import random_system


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def written(directory, value) -> bytes:
    """The bytes ``write_json`` puts in a file for ``value``."""
    path = directory / "doc.json"
    write_json(path, value)
    return path.read_bytes()


@pytest.fixture(scope="module")
def module_tmp(tmp_path_factory):
    """One directory for every example of a hypothesis test, which may
    not take a fixture made anew per test call."""
    return tmp_path_factory.mktemp("written")


ints = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
scalars = (
    ints
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
# the cells a table column may hold besides its ints
strays = (
    st.booleans() | st.none() | st.floats() | st.text(max_size=3)
    | st.just([]) | st.just(())
)


def arrays(draw, items: list):
    """The items as a list or, as the writers hand out rows, a tuple."""
    return tuple(items) if draw(st.booleans()) else items


@st.composite
def tables(draw):
    """Rows of one width whose columns hold ints or int lists of one
    length, with here and there a stray cell, an empty or ragged row,
    or an int list of another length.  The table, each row and each
    int list may be a list or a tuple."""
    width = draw(st.integers(0, 4))
    lengths = [draw(st.none() | st.integers(0, 3)) for _ in range(width)]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = [
            draw(ints) if m is None
            else arrays(draw, draw(st.lists(ints, min_size=m, max_size=m)))
            for m in lengths
        ]
        if row and draw(st.integers(0, 7)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(strays | scalars)
        if draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(0, len(row)))]
        if row and draw(st.integers(0, 9)) == 0:
            cell = row[-1]
            row[-1] = type(cell)((*cell, 0)) if type(cell) in (list, tuple) else (cell,)
        rows.append(arrays(draw, row))
    return arrays(draw, rows)


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.dictionaries(st.text(max_size=4), children, max_size=5)
        | st.tuples(children, children)
        | st.dictionaries(st.integers(), children, max_size=3)
        | tables()
    )


values = st.recursive(scalars | tables(), containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(values)
def test_canonical_dumps_matches_stdlib(module_tmp, value):
    assert canonical_dumps(value) == oracle(value)
    if type(value) is dict:
        # a sample: every document the library writes is a dict
        assert written(module_tmp, value) == oracle(value).encode()


@settings(max_examples=100, deadline=None)
@given(st.lists(tables(), max_size=3), st.dictionaries(st.text(max_size=3), tables()))
def test_nested_tables_match_stdlib(nested, keyed):
    for value in (nested, keyed, [keyed, nested], {"t": nested}):
        assert canonical_dumps(value) == oracle(value)


def test_exact_types_and_special_values():
    cases = [
        True, [True, 1], [[1, True]], [[1, [2, True]]], [[1, 2.0]], [2.5, 1],
        [[1, 2], [3]], [[]], [[], []], [[1, []], [2, []]], [[1, [2]], [3, [4, 5]]],
        [[1, (2,)]], (1, 2), {1: 2}, {"a": {2: [1]}}, 2**70, [[2**70, -(2**90)]],
        (), [()], ((),), ((1,), [2]), [(1, 2), [3, 4]], ([1, (2, 3)], (4, [5, 6])),
        [(1, ())], [(True, 1)], [(1, (2, True))], ((1, [2]), (3, (4, 5))),
        {"t": ((0, 1, (0, 1)), (0, 0, (0, 0)))},
        [math.nan, math.inf, -math.inf], {"nan": [[1, math.nan]]},
        "café \U0001d11e \"q\" \\ \n\t\x00", {"é\n": [" "]},
        {}, [], "", [{}], [[[]]], {"a": {}}, None, 0, -1,
        [None, 1], {"a": False}, [[1, None]],
    ]
    for value in cases:
        assert canonical_dumps(value) == oracle(value), value


def test_every_document_kind_matches_stdlib(tmp_path):
    tetra = named_base("tetra")
    hopf = minimal_from_cocycle(tetra, IntCochain(2, (0, 0, 1, 0))).as_local_system()
    labelled = delta_torus()
    rows = labelled.to_json_dict()["faces"]
    partial = SemiSimplicialSet(
        labelled.simplex_count(0), [rows["1"], rows["2"]],
        labels={(1, 0): "a", (2, 1): "t"},
    )
    docs = [
        tetra.to_json_dict(),
        labelled.to_json_dict(),
        partial.to_json_dict(),
        bundle_to_json_dict(hopf),
        total_to_json_dict(assemble(hopf)),
        cochain_to_json_dict(IntCochain(2, (0, 0, 1, 0))),
    ]
    rng = random.Random(4)
    for _ in range(5):
        system = random_system(rng)
        docs += [bundle_to_json_dict(system), total_to_json_dict(assemble(system))]
    assert None in partial.to_json_dict()["labels"]["1"]
    assert any("bead_maps" in doc for doc in docs)
    for doc in docs:
        assert canonical_dumps(doc) == oracle(doc)
        assert written(tmp_path, doc) == oracle(doc).encode()


def test_write_json_never_holds_the_whole_text(tmp_path):
    """The total space of the Chern-3 bundle over the 32x32 torus, about
    4 MB of text, is written piece by piece: at its peak the write holds
    less than the file's size, where a joined text and its encoded copy
    would hold twice that."""
    base = named_base("torus:32")
    system = build_surface_bundle(base, fundamental_class(base), 3).as_local_system()
    doc = total_to_json_dict(assemble(system))
    path = tmp_path / "total.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_json(path, doc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size
    assert path.read_bytes() == canonical_dumps(doc).encode()
