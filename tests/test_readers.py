"""The JSON readers: integer fields and single-value corruptions.

Every reader either loads a document or raises a domain error whose exit
code the README documents; none truncates a fractional number or lets a
Python exception escape.
"""

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scbundles import (
    DanglingReference,
    IncoherentLocalSystem,
    IntCochain,
    MalformedFile,
    Necklace,
    NecklaceLocalSystem,
    ScbError,
    SemiSimplicialSet,
    bundle_from_json_dict,
    bundle_to_json_dict,
    cochain_from_json_dict,
    cochain_to_json_dict,
    delta_torus,
    minimal_from_cocycle,
    named_base,
    subdivide,
)
from scbundles._json import write_json
from scbundles.cli import _load_selection

from oracles import elementary_system


def as_read(doc):
    """The document as a reader gets it from a file: the writers hand out
    tuple rows, which JSON text holds as arrays, and the corruptions below
    edit arrays in place."""
    return json.loads(json.dumps(doc))


HOPF = minimal_from_cocycle(named_base("tetra"), IntCochain(2, (0, 0, 1, 0)))
MINIMAL_DOC = as_read(bundle_to_json_dict(HOPF.as_local_system()))
GENERAL_DOC = as_read(bundle_to_json_dict(subdivide(HOPF.as_local_system(), 0, 0)))
COMPLEX_DOC = as_read(delta_torus().to_json_dict())
# 864 edge ids come before the triangle table
TORUS_DOC = as_read(named_base("torus:12").to_json_dict())
COCHAIN_DOC = as_read(cochain_to_json_dict(IntCochain(2, (0, 0, 1, 0))))


def documented_exit_codes() -> set[int]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    return {int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)}


def with_fractional_bead_position(doc):
    key = sorted(doc["bead_maps"])[0]
    doc["bead_maps"][key][0] += 0.9


def read_selection(doc, tmp_path):
    path = tmp_path / "selection.json"
    write_json(path, doc)
    return _load_selection(str(path))


@pytest.mark.parametrize(
    "reader, doc, corrupt",
    [
        (bundle_from_json_dict, GENERAL_DOC, with_fractional_bead_position),
        (bundle_from_json_dict, GENERAL_DOC,
         lambda d: d["bead_maps"].update({"1/0/0": [True]})),
        (cochain_from_json_dict, COCHAIN_DOC, lambda d: d.update(dim=2.5)),
        (cochain_from_json_dict, COCHAIN_DOC,
         lambda d: d.update(values=[0.7, 1, 0, True])),
        (read_selection, {"0": 0}, lambda d: d.update({"0": 0.5})),
        (read_selection, {"0": 0}, lambda d: d.update({"0": False})),
        (SemiSimplicialSet.from_json_dict, COMPLEX_DOC,
         lambda d: d["faces"]["2"][0].__setitem__(0, 1.5)),
        (SemiSimplicialSet.from_json_dict, COMPLEX_DOC,
         lambda d: d["dims"].__setitem__(1, 3.0)),
    ],
    ids=[
        "bead-map-position-float", "bead-map-position-bool", "cochain-dim-float",
        "cochain-values-float-bool", "selection-float", "selection-bool",
        "face-id-float", "dims-float",
    ],
)
def test_readers_reject_non_integers(tmp_path, reader, doc, corrupt):
    doc = copy.deepcopy(doc)
    corrupt(doc)
    with pytest.raises(MalformedFile):
        if reader is read_selection:
            reader(doc, tmp_path)
        else:
            reader(doc)


def rename_key(table, old, new):
    table[new] = table.pop(old)


@pytest.mark.parametrize(
    "reader, doc, corrupt",
    [
        (bundle_from_json_dict, MINIMAL_DOC,
         lambda d: d["stalks"].update({"0/0_0": "(0)"})),
        (bundle_from_json_dict, MINIMAL_DOC,
         lambda d: rename_key(d["stalks"], "2/1", "2/ 1")),
        (bundle_from_json_dict, MINIMAL_DOC,
         lambda d: rename_key(d["stalks"], "1/0", "01/0")),
        (bundle_from_json_dict, GENERAL_DOC,
         lambda d: rename_key(d["bead_maps"], "1/0/0", "1/0/00")),
        (bundle_from_json_dict, GENERAL_DOC,
         lambda d: rename_key(d["bead_maps"], "1/0/0", "1/+0/0")),
        (SemiSimplicialSet.from_json_dict, COMPLEX_DOC,
         lambda d: d["faces"].update({"01": [["junk"]]})),
        (SemiSimplicialSet.from_json_dict, COMPLEX_DOC,
         lambda d: d["faces"].update({"+2": []})),
        (bundle_from_json_dict, MINIMAL_DOC,
         lambda d: rename_key(d["stalks"], "2/1", "2/\N{FULLWIDTH DIGIT ONE}")),
        (SemiSimplicialSet.from_json_dict, COMPLEX_DOC,
         lambda d: rename_key(d["labels"], "1", "1 ")),
        (read_selection, {"0": 0}, lambda d: d.update({"00": 0})),
    ],
    ids=[
        "stalk-underscore-alias", "stalk-space", "stalk-leading-zero",
        "bead-map-leading-zero", "bead-map-plus", "faces-leading-zero",
        "faces-plus", "stalk-fullwidth-digit", "labels-space",
        "selection-leading-zero",
    ],
)
def test_readers_reject_non_canonical_keys(tmp_path, reader, doc, corrupt):
    # int() also reads these spellings, so without the check each would
    # load, alias another key or be ignored
    doc = copy.deepcopy(doc)
    corrupt(doc)
    with pytest.raises(MalformedFile) as info:
        if reader is read_selection:
            reader(doc, tmp_path)
        else:
            reader(doc)
    assert info.value.exit_code == 3


@pytest.mark.parametrize(
    "labels, code",
    [
        ({"1": "abc"}, 3),
        ({"1": ["a", "b", "c", "d", "e"]}, 4),
        ({"9": ["a"]}, 4),
        ({"-1": ["a"]}, 4),
        ({"1": [1, None, None]}, 3),
        ({"1": [True, None, None]}, 3),
        ({"1": [{"a": 1}, None, None]}, 3),
        (["a", "b", "c"], 3),
    ],
    ids=[
        "string-of-names", "more-names-than-edges", "dimension-above-top",
        "negative-dimension", "int-name", "bool-name", "object-name", "not-an-object",
    ],
)
def test_complex_labels_are_name_lists_on_existing_simplices(labels, code):
    # each of these loaded, a string iterated as names and any value turned
    # into text by str()
    doc = copy.deepcopy(COMPLEX_DOC)
    doc["labels"] = labels
    with pytest.raises(ScbError) as info:
        SemiSimplicialSet.from_json_dict(doc)
    assert info.value.exit_code == code


@pytest.mark.parametrize("doc", [MINIMAL_DOC, GENERAL_DOC], ids=["minimal", "general"])
@pytest.mark.parametrize(
    "token", ["+1", "01", "\N{FULLWIDTH DIGIT ONE}", "1_0", "1.0"],
    ids=["plus", "leading-zero", "fullwidth-digit", "underscore", "fraction"],
)
def test_necklace_tokens_are_canonical_decimals(doc, token):
    # int() reads the first four, three of them as 1, so the stalk
    # would load as if it were written plainly
    doc = copy.deepcopy(doc)
    key, text = next(
        (key, text) for key, text in sorted(doc["stalks"].items()) if "1" in text.split()
    )
    bad = text.replace(" 1", " " + token, 1)
    doc["stalks"][key] = bad
    with pytest.raises(MalformedFile) as info:
        bundle_from_json_dict(doc)
    assert str(info.value) == f"bad necklace text {bad!r}"
    assert info.value.exit_code == 3


def paths(node, prefix=()):
    """Every position in a JSON tree, the root excluded."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


DROP = object()
REPLACEMENTS = st.one_of(
    st.just(DROP),
    st.none(),
    st.booleans(),
    st.floats(allow_infinity=False),
    st.integers(min_value=-3, max_value=40),
    st.sampled_from([-(10**6), 10**6]),
    st.sampled_from(["", "x", "0", "(0 1)", "(0 0 1)", "1/0", "(-1 0)"]),
    st.just([]),
    st.just({}),
    st.lists(st.integers(min_value=-2, max_value=6), max_size=4),
)

READERS = {
    "minimal-bundle": (bundle_from_json_dict, MINIMAL_DOC),
    "general-bundle": (bundle_from_json_dict, GENERAL_DOC),
    "complex": (SemiSimplicialSet.from_json_dict, COMPLEX_DOC),
    "cochain": (cochain_from_json_dict, COCHAIN_DOC),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_single_corruptions_load_or_raise_documented_errors(name):
    reader, original = READERS[name]
    codes = documented_exit_codes()
    places = list(paths(original))

    @settings(
        max_examples=300, deadline=None, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.sampled_from(places), REPLACEMENTS)
    def check(path, value):
        doc = copy.deepcopy(original)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        try:
            reader(doc)
        except ScbError as exc:
            assert exc.exit_code in codes, (type(exc).__name__, exc)

    check()


# Over the edge 1/0 the stalk is (0 0 1 0 1) with ids (4 0 1 2 3); face 1
# keeps the 0-colored beads 4, 0, 2 over vertex 0.  Over 2/0 the stalk is
# (0 1 2), and face 0 sends beads 1, 2 of the face stalk (0 1) to 1, 2.
EDGE = elementary_system(Necklace.from_colors((0, 1, 0, 1, 0)))
TRIANGLE = elementary_system(Necklace.from_colors((0, 1, 2)))


@pytest.mark.parametrize(
    "system, key, row, message",
    [
        (EDGE, (1, 0, 1), None, "missing bead map along face 1 of 1/0"),
        (EDGE, (1, 0, 1), {0: 0, 2: 2, 5: 4},
         "bead map along face 1 of 1/0 is not defined on the face stalk"),
        (EDGE, (1, 0, 1), {0: 0, 2: 0, 4: 4},
         "bead map along face 1 of 1/0 is not injective"),
        (EDGE, (1, 0, 1), {0: 0, 2: 2, 4: 1},
         "bead map along face 1 of 1/0 must hit exactly the beads not colored 1"),
        (TRIANGLE, (2, 0, 0), {1: 2, 2: 1},
         "bead map along face 0 of 2/0 breaks colors at bead 1"),
        (EDGE, (1, 0, 1), {0: 2, 2: 0, 4: 4},
         "bead map along face 1 of 1/0 does not preserve the circular order"),
    ],
    ids=["missing", "domain", "not-injective", "survivors", "colors", "circular-order"],
)
def test_each_bead_map_failure_has_its_message(system, key, row, message):
    q, idx, i = key
    faces = list(system.bead_maps[q][idx])
    faces[i] = row
    maps = [list(level) for level in system.bead_maps]
    maps[q][idx] = tuple(faces)
    broken = NecklaceLocalSystem(system.base, system.stalks, maps, check=False)
    assert broken.validate() == [message]
    with pytest.raises(IncoherentLocalSystem) as info:
        NecklaceLocalSystem(system.base, system.stalks, maps)
    assert str(info.value) == message


def drop(table, *keys):
    for key in keys:
        del table[key]


def set_face_id(q, row, column, value):
    return lambda d: d["faces"][q][row].__setitem__(column, value)


# Each corruption of a bundle's stalks, applied to the minimal and to the
# general document alike: (id, corruption, error class, full message).
# Where a document holds two faults, the message names the one that fires
# first: the stalks are read key by key in document order, each key's name
# before its range and its range before its text, and the missing stalks
# are looked for only after every key has been read.
STALK_FAULTS = [
    ("key-leading-zero", lambda d: rename_key(d["stalks"], "1/0", "01/0"),
     MalformedFile, "bad stalk key '01/0', expected 'dim/index'"),
    ("key-not-a-number", lambda d: rename_key(d["stalks"], "1/0", "1/x"),
     MalformedFile, "bad stalk key '1/x', expected 'dim/index'"),
    ("key-three-parts", lambda d: rename_key(d["stalks"], "1/0", "1/2/3"),
     MalformedFile, "bad stalk key '1/2/3', expected 'dim/index'"),
    ("key-dim-out-of-range", lambda d: d["stalks"].update({"9/0": "(0)"}),
     DanglingReference, "stalk key 9/0 names no base simplex"),
    ("key-index-out-of-range", lambda d: d["stalks"].update({"1/99999": "(0 1)"}),
     DanglingReference, "stalk key 1/99999 names no base simplex"),
    ("text-not-a-string", lambda d: d["stalks"].update({"1/0": [0, 1]}),
     MalformedFile, 'stalk 1/0 must be necklace text like "(0 1 2)"'),
    ("first-missing-stalk", lambda d: drop(d["stalks"], "1/4", "0/2"),
     MalformedFile, "missing stalk for simplex 0/2"),
    ("text-before-bad-key",
     lambda d: (d["stalks"].update({"0/1": 5}), rename_key(d["stalks"], "2/3", "2/03")),
     MalformedFile, 'stalk 0/1 must be necklace text like "(0 1 2)"'),
    ("bad-key-before-missing",
     lambda d: (drop(d["stalks"], "0/0"), rename_key(d["stalks"], "2/3", "2/03")),
     MalformedFile, "bad stalk key '2/03', expected 'dim/index'"),
    ("range-before-text", lambda d: d["stalks"].update({"9/0": 5}),
     DanglingReference, "stalk key 9/0 names no base simplex"),
]

# Corruptions that only a document without bead maps meets.
MINIMAL_FAULTS = [
    ("not-a-circular-permutation", lambda d: d["stalks"].update({"1/3": "(0 0 1)"}),
     MalformedFile, "stalk 1/3 is not a circular permutation and no bead_maps are given"),
    ("wrong-tops", lambda d: d["stalks"].update({"1/3": "(0 2 1)", "2/1": "(0 1)"}),
     IncoherentLocalSystem,
     "stalk over 1/3 uses colors 0..2, expected 0..1; "
     "stalk over 2/1 uses colors 0..1, expected 0..2"),
]

COMPLEX_FAULTS = [
    ("bool-first-row", set_face_id("2", 0, 0, True),
     MalformedFile, "a face id in dimension 2 must be an integer, got True"),
    ("float-first-row", set_face_id("2", 0, 1, 1.5),
     MalformedFile, "a face id in dimension 2 must be an integer, got 1.5"),
    ("string-first-row", set_face_id("1", 0, 1, "0"),
     MalformedFile, "a face id in dimension 1 must be an integer, got '0'"),
    ("bool-later-row", set_face_id("1", 2, 0, False),
     MalformedFile, "a face id in dimension 1 must be an integer, got False"),
    ("float-later-row", set_face_id("2", 1, 2, 0.0),
     MalformedFile, "a face id in dimension 2 must be an integer, got 0.0"),
    ("string-later-row", set_face_id("2", 1, 0, "1"),
     MalformedFile, "a face id in dimension 2 must be an integer, got '1'"),
    ("row-not-an-array", lambda d: d["faces"]["2"].__setitem__(1, 7),
     MalformedFile, "faces table for dimension 2 must list id lists"),
    ("row-a-string", lambda d: d["faces"]["1"].__setitem__(0, "00"),
     MalformedFile, "faces table for dimension 1 must list id lists"),
]

PINNED = (
    [(bundle_from_json_dict, MINIMAL_DOC, f"minimal/{name}", *rest)
     for name, *rest in STALK_FAULTS + MINIMAL_FAULTS]
    + [(bundle_from_json_dict, GENERAL_DOC, f"general/{name}", *rest)
       for name, *rest in STALK_FAULTS]
    + [(SemiSimplicialSet.from_json_dict, COMPLEX_DOC, f"complex/{name}", *rest)
       for name, *rest in COMPLEX_FAULTS]
    + [(SemiSimplicialSet.from_json_dict, TORUS_DOC, "complex/bool-after-1166-ids",
        lambda d: (set_face_id("2", 100, 2, True)(d), set_face_id("2", 200, 0, "7")(d)),
        MalformedFile, "a face id in dimension 2 must be an integer, got True")]
)


@pytest.mark.parametrize(
    "reader, doc, corrupt, error, message",
    [case[:2] + case[3:] for case in PINNED],
    ids=[case[2] for case in PINNED],
)
def test_reader_errors_are_pinned(reader, doc, corrupt, error, message):
    # the class and the whole message, so that a faster reader keeps both
    doc = copy.deepcopy(doc)
    corrupt(doc)
    with pytest.raises(ScbError) as info:
        reader(doc)
    assert type(info.value) is error
    assert str(info.value) == message
