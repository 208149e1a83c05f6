"""The JSON readers: integer fields and single-value corruptions.

Every reader either loads a document or raises a domain error whose exit
code the README documents; none truncates a fractional number or lets a
Python exception escape.
"""

import copy
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scbundles import (
    IntCochain,
    MalformedFile,
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

HOPF = minimal_from_cocycle(named_base("tetra"), IntCochain(2, (0, 0, 1, 0)))
MINIMAL_DOC = bundle_to_json_dict(HOPF.as_local_system())
GENERAL_DOC = bundle_to_json_dict(subdivide(HOPF.as_local_system(), 0, 0))
COMPLEX_DOC = delta_torus().to_json_dict()
COCHAIN_DOC = cochain_to_json_dict(IntCochain(2, (0, 0, 1, 0)))


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
