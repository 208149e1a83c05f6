import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scbundles
from scbundles._json import canonical_dumps, read_json, write_json
from scbundles import (
    IncoherentLocalSystem,
    IntCochain,
    build_surface_bundle,
    bundle_from_json_dict,
    bundle_to_json_dict,
    delta_torus,
    fundamental_class,
    minimal_from_cocycle,
    named_base,
    subdivide,
)
from scbundles.cli import build_parser, main
from scbundles.simplicial import MAX_NAMED_K, MAX_TORUS_N


def named_base_system(name, chern=3):
    base = named_base(name)
    return build_surface_bundle(base, fundamental_class(base), chern).as_local_system()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# bytes that are not UTF-8, and an array nested past the parser's recursion
UNREADABLE_JSON = {
    "not-utf8": b'\xff\xfe{"dims":[1]}',
    "nested-100000": b"[" * 100_000 + b"]" * 100_000,
}


class TestValidateAndHomology:
    def test_validate_named_base(self, capsys):
        code, out, _ = run(capsys, "validate", "octahedron")
        assert code == 0
        assert "[6, 12, 8]" in out
        assert "valid" in out

    def test_validate_json(self, capsys):
        code, doc, _ = run_json(capsys, "validate", "tetra")
        assert code == 0
        assert doc["ok"] is True
        assert doc["counts"] == [4, 6, 4]
        assert doc["euler"] == 2

    def test_validate_bad_file_exit_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        write_json(bad, {"dims": [2, 1], "faces": {"1": [[0, 9]]}})
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 4

    def test_unparseable_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
    def test_unreadable_json_exit_3(self, capsys, tmp_path, name):
        bad = tmp_path / "bad.json"
        bad.write_bytes(UNREADABLE_JSON[name])
        code, out, err = run(capsys, "homology", str(bad))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {bad}: ")

    def test_unknown_base_exit_3(self, capsys):
        code, _, err = run(capsys, "homology", "no-such-base")
        assert code == 3
        assert "unknown base" in err

    def test_homology_torus(self, capsys):
        code, out, _ = run(capsys, "homology", "delta-torus")
        assert code == 0
        assert "H1 = Z^2" in out
        assert "euler characteristic: 0" in out

    def test_homology_json(self, capsys):
        code, doc, _ = run_json(capsys, "homology", "sphere:3")
        assert code == 0
        assert doc["groups"][2] == {"dim": 2, "betti": 1, "torsion": []}


class TestHexagram:
    def test_table_and_checks(self, capsys):
        code, out, _ = run(capsys, "hexagram")
        assert code == 0
        assert "non-degenerate counts: [1, 0, 1, 2]" in out
        assert "zero rows: 6, extendable rows: 6" in out
        # the six extension words, one per chern-zero row
        for word in (
            "<0,1,2,3>",
            "<0,2,3,1>",
            "<0,3,1,2>",
            "<0,2,1,3>",
            "<0,1,3,2>",
            "<0,3,2,1>",
        ):
            assert word in out

    def test_json_rows(self, capsys):
        code, doc, _ = run_json(capsys, "hexagram")
        assert code == 0
        assert doc["ok"] is True
        assert doc["checks"] == {
            "six_zero_rows": True,
            "extensions_match_zero_rows": True,
        }
        row = next(r for r in doc["rows"] if r["f"] == [0, 0, 1, 1])
        assert row["chern"] == 0
        assert row["extends"] == "<0,2,3,1>"


class TestPipeline:
    def test_extend_chern_assemble_homology(self, capsys, tmp_path):
        cocycle = tmp_path / "u.json"
        bundle = tmp_path / "bundle.json"
        total = tmp_path / "total.json"
        write_json(cocycle, {"dim": 2, "values": [0, 0, 1, 0]})

        code, out, _ = run(
            capsys, "extend", "--base", "sphere:3",
            "--cocycle", str(cocycle), "--out", str(bundle),
        )
        assert code == 0
        assert bundle.exists()

        code, doc, _ = run_json(capsys, "chern", "--bundle", str(bundle))
        assert code == 0
        assert doc["cocycle"]["values"] == [0, 0, 1, 0]
        assert doc["chern_number"] in (1, -1)

        code, out, _ = run(
            capsys, "assemble", "--bundle", str(bundle), "--out", str(total)
        )
        assert code == 0
        assert "[4, 16, 24, 12]" in out

        code, out, _ = run(capsys, "homology", str(total))
        assert code == 0
        assert "H0 = Z" in out and "H1 = 0" in out and "H3 = Z" in out

    def test_round_trip_bit_identity(self, capsys, tmp_path):
        cocycle = tmp_path / "u.json"
        bundle = tmp_path / "bundle.json"
        write_json(cocycle, {"dim": 2, "values": [1, 0]})
        code, _, _ = run(
            capsys, "extend", "--base", "delta-torus",
            "--cocycle", str(cocycle), "--out", str(bundle),
        )
        assert code == 0
        text = bundle.read_text()
        again = bundle_to_json_dict(bundle_from_json_dict(read_json(bundle)))
        assert canonical_dumps(again) == text

    def test_minimize_with_selection_file(self, capsys, tmp_path):
        system = minimal_from_cocycle(
            delta_torus(), IntCochain(2, (1, 0))
        ).as_local_system()
        system = subdivide(system, 0, 0)
        fat = tmp_path / "fat.json"
        write_json(fat, bundle_to_json_dict(system))
        written = bundle_from_json_dict(read_json(fat))
        keep = written.stalk(0, 0).ids[-1]
        selection = tmp_path / "keep.json"
        write_json(selection, {"0": keep})
        out_bundle = tmp_path / "min.json"

        code, doc, _ = run_json(
            capsys, "minimize", "--bundle", str(fat),
            "--selection", str(selection), "--out", str(out_bundle),
        )
        assert code == 0
        assert doc["selection"] == {"0": keep}

        code, doc, _ = run_json(capsys, "chern", "--bundle", str(out_bundle))
        assert code == 0
        assert abs(doc["chern_number"]) == 1

    def test_chern_with_selection_on_general_bundle(self, capsys, tmp_path):
        system = minimal_from_cocycle(
            delta_torus(), IntCochain(2, (1, 0))
        ).as_local_system()
        system = subdivide(system, 0, 0)
        fat = tmp_path / "fat.json"
        write_json(fat, bundle_to_json_dict(system))
        selection = tmp_path / "keep.json"
        write_json(selection, {"0": 0})
        code, doc, _ = run_json(
            capsys, "chern", "--bundle", str(fat), "--selection", str(selection)
        )
        assert code == 0
        assert doc["method"] == "triangle parities after reduction"
        assert abs(doc["chern_number"]) == 1


    @pytest.mark.parametrize(
        "selection, exit_code", [({"0": 7}, 10), (None, 3)], ids=["no-bead-7", "no-file"]
    )
    def test_chern_checks_selection_of_minimal_bundle(
        self, capsys, tmp_path, selection, exit_code
    ):
        bundle = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "gen-surface", "--base", "octahedron", "--chern", "1",
            "--out", str(bundle),
        )
        assert code == 0
        keep = tmp_path / "keep.json"
        if selection is not None:
            write_json(keep, {**{str(v): 0 for v in range(6)}, **selection})
        code, _, err = run(
            capsys, "chern", "--bundle", str(bundle), "--selection", str(keep)
        )
        assert code == exit_code
        assert err.startswith("error: ")


    @pytest.mark.parametrize("command", ["chern", "minimize"])
    @pytest.mark.parametrize("vertex", ["99", "-1"])
    def test_selection_naming_no_vertex_exit_4(self, capsys, tmp_path, command, vertex):
        bundle = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "gen-surface", "--base", "tetra", "--chern", "1",
            "--out", str(bundle),
        )
        assert code == 0
        keep = tmp_path / "keep.json"
        write_json(keep, {**{str(v): 0 for v in range(4)}, vertex: 7})
        out = tmp_path / "min.json"
        extra = ["--out", str(out)] if command == "minimize" else []
        code, stdout, err = run(
            capsys, command, "--bundle", str(bundle), "--selection", str(keep),
            *extra, "--json",
        )
        assert (code, stdout) == (4, "")
        assert err == f"error: selection names vertex {vertex}, which the base lacks\n"
        assert not out.exists()


class TestGenSurface:
    def test_lens_pipeline(self, capsys, tmp_path):
        out = tmp_path / "lens.json"
        code, stdout, _ = run(
            capsys, "gen-surface", "--base", "octahedron", "--chern", "3",
            "--out", str(out), "--verify",
        )
        assert code == 0
        assert "split 4/4, bound 4" in stdout
        assert "H1=Z/3" in stdout

    def test_bound_exceeded_exit_7(self, capsys):
        code, _, err = run(
            capsys, "gen-surface", "--base", "delta-torus", "--chern", "2"
        )
        assert code == 7
        assert "bound" in err

    def test_not_a_surface_exit_9(self, capsys):
        code, _, err = run(
            capsys, "gen-surface", "--base", "simplex:2", "--chern", "0"
        )
        assert code == 9

    def test_place_seed_same_chern(self, capsys):
        code, doc, _ = run_json(
            capsys, "gen-surface", "--base", "octahedron", "--chern", "2",
            "--place-seed", "5",
        )
        assert code == 0
        assert sum(doc["cocycle"]) == 2


class TestKanCheck:
    def test_k3(self, capsys):
        code, doc, _ = run_json(capsys, "kan-check", "3")
        assert code == 0
        assert doc["families"] == 16
        assert doc["lift_counts"] == {"0": 10, "1": 6}
        assert doc["matches_expected"] is True
        assert doc["unique"] is False

    def test_k2_two_lifts(self, capsys):
        code, doc, _ = run_json(capsys, "kan-check", "2")
        assert code == 0
        assert doc["lift_counts"] == {"2": 1}
        assert doc["unique"] is False

    def test_k4_unique(self, capsys):
        code, doc, _ = run_json(capsys, "kan-check", "4")
        assert code == 0
        assert doc["compatible"] == 24
        assert doc["unique"] is True

    def test_too_large_exit_11(self, capsys):
        code, _, err = run(capsys, "kan-check", "5")
        assert code == 11


class TestVerify:
    def test_hopf_bundle_passes(self, capsys, tmp_path):
        cocycle = tmp_path / "u.json"
        bundle = tmp_path / "hopf.json"
        write_json(cocycle, {"dim": 2, "values": [0, 0, 1, 0]})
        run(capsys, "extend", "--base", "tetra",
            "--cocycle", str(cocycle), "--out", str(bundle))
        code, out, _ = run(capsys, "verify", "--bundle", str(bundle))
        assert code == 0
        assert "[ok] local system coherent" in out
        assert "[ok] surface Gysin law" in out
        assert "FAILED" not in out

    @pytest.mark.parametrize(
        "base, chern, h1, h2",
        [
            ("octahedron", 0, "Z", "Z"),
            ("octahedron", -3, "Z/3", "0"),
            ("delta-torus", 0, "Z^3", "Z^3"),
            ("delta-torus", 1, "Z^2", "Z^2"),
            ("delta-torus", -1, "Z^2", "Z^2"),
        ],
    )
    def test_surface_gysin_law(self, capsys, tmp_path, base, chern, h1, h2):
        bundle = tmp_path / "b.json"
        run(capsys, "gen-surface", "--base", base, "--chern", str(chern),
            "--out", str(bundle))
        code, doc, _ = run_json(capsys, "verify", "--bundle", str(bundle))
        assert code == 0
        (check,) = [c for c in doc["checks"] if c["name"] == "surface Gysin law"]
        genus = 1 if base == "delta-torus" else 0
        assert check == {
            "name": "surface Gysin law",
            "ok": True,
            "detail": f"H1 = {h1}, H2 = {h2}, chern {chern}, genus {genus}",
        }

    def test_incoherent_general_bundle_exit_5(self, capsys, tmp_path):
        # the reader's coherence check is verify's only one: an incoherent
        # document stops at load with exit 5 and the reader's message
        system = subdivide(subdivide(named_base_system("octahedron"), 0, 0), 0, 0)
        doc = bundle_to_json_dict(system)
        key = next(k for k, row in sorted(doc["bead_maps"].items()) if len(row) == 3)
        row = doc["bead_maps"][key]
        row[0], row[1] = row[1], row[0]
        bundle = tmp_path / "bad.json"
        write_json(bundle, doc)
        with pytest.raises(IncoherentLocalSystem) as info:
            bundle_from_json_dict(doc)
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "verify", "--bundle", str(bundle), *extra)
            assert (code, out) == (5, "")
            assert err == f"error: {info.value}\n"
            assert "bead map along" in err

    def test_missing_bundle_file_exit_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "--bundle", str(tmp_path / "absent.json")
        )
        assert code == 3


SIMPLEX3 = named_base("simplex:3")
SIMPLEX3_DOC = bundle_to_json_dict(
    minimal_from_cocycle(
        SIMPLEX3, IntCochain(2, (0,) * SIMPLEX3.simplex_count(2))
    ).as_local_system()
)


def simplex3_file_with_stalk(tmp_path, key, text):
    doc = json.loads(json.dumps(SIMPLEX3_DOC))
    doc["stalks"][key] = text
    bundle = tmp_path / "bad.json"
    write_json(bundle, doc)
    return str(bundle)


@pytest.mark.parametrize("command", ["verify", "assemble"])
@pytest.mark.parametrize(
    "key, text, code, message",
    [
        # faces 0 and 1 of <0,1,3,2> are <0,2,1>; its triangles are <0,1,2>
        ("3/0", "(0 1 3 2)", 5,
         "bead map along face 0 of 3/0 does not preserve the circular order; "
         "bead map along face 1 of 3/0 does not preserve the circular order"),
        ("1/0", "(0 1 2)", 5, "stalk over 1/0 uses colors 0..2, expected 0..1"),
        ("1/0", "(0 1 1)", 3,
         "stalk 1/0 is not a circular permutation and no bead_maps are given"),
    ],
    ids=["tetra-contradicts-triangle", "edge-three-colors", "edge-repeated-color"],
)
def test_corrupt_minimal_file_exit_and_message(
    capsys, tmp_path, command, key, text, code, message
):
    bundle = simplex3_file_with_stalk(tmp_path, key, text)
    extra = ("--out", str(tmp_path / "total.json")) if command == "assemble" else ()
    assert run(capsys, command, "--bundle", bundle, *extra) == (
        code, "", f"error: {message}\n"
    )


@pytest.mark.parametrize(
    "text", ["(0 +1 2)", "(0 1 \N{FULLWIDTH DIGIT TWO})"], ids=["plus", "fullwidth-digit"]
)
def test_necklace_tokens_must_be_canonical_exit_3(capsys, tmp_path, text):
    # both loaded with exit 0 while tokens were read with int()
    bundle = simplex3_file_with_stalk(tmp_path, "2/0", text)
    assert run(capsys, "verify", "--bundle", bundle) == (
        3, "", f"error: bad necklace text {text!r}\n"
    )


def run_module(cwd, *argv):
    """Run ``python -m scbundles`` in a child, on the source tree this
    suite imports."""
    src = Path(scbundles.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "scbundles", *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_calls_in_one_process_match_fresh_processes(capsys, tmp_path):
    """``main`` shares one parser across calls; a bad argument in between
    leaves nothing behind that changes a later command's output."""
    bundle = tmp_path / "b.json"
    assert run(capsys, "gen-surface", "--base", "torus:4", "--chern", "3",
               "--out", str(bundle))[0] == 0
    sequence = [
        ("hexagram", "--json"),
        ("kan-check", "--no-such-flag"),
        ("kan-check", "4", "--json"),
        ("verify", "--bundle", str(bundle), "--json"),
    ]
    codes = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        child = run_module(tmp_path, *argv)
        assert (code, out) == (child.returncode, child.stdout)
        codes.append(code)
    assert codes == [0, 2, 0, 0]


def test_unreadable_json_exit_3_without_traceback(tmp_path):
    for name, content in UNREADABLE_JSON.items():
        (tmp_path / f"{name}.json").write_bytes(content)
        proc = run_module(tmp_path, "homology", f"{name}.json")
        assert proc.returncode == 3, name
        assert proc.stderr.startswith(f"error: {name}.json: ")
        assert "Traceback" not in proc.stderr


def _wrap_bead_map_target(doc):
    # position t - size names the same bead as t under Python's indexing
    key, row = next(iter(doc["bead_maps"].items()))
    q, idx, _ = key.split("/")
    size = len(doc["stalks"][f"{q}/{idx}"].split())
    row[0] -= size


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc["stalks"].update({"0/0": 5}),
        lambda doc: doc.update(stalks=list(doc["stalks"].values())),
        lambda doc: doc["base"]["faces"].update({"1": 7}),
        lambda doc: doc["base"].update(labels={"x": ["a"]}),
        lambda doc: doc["bead_maps"].update({next(iter(doc["bead_maps"])): 3}),
        _wrap_bead_map_target,
    ],
    ids=[
        "stalk-not-text", "stalks-as-list", "faces-table-int",
        "label-key-not-int", "bead-map-row-int", "bead-map-target-negative",
    ],
)
def test_malformed_bundle_exit_3_without_traceback(tmp_path, corrupt):
    hopf = minimal_from_cocycle(named_base("tetra"), IntCochain(2, (0, 0, 1, 0)))
    doc = bundle_to_json_dict(subdivide(hopf.as_local_system(), 0, 0))
    corrupt(doc)
    write_json(tmp_path / "bad.json", doc)
    proc = run_module(tmp_path, "verify", "--bundle", "bad.json")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["gen-surface", "--base", "tetra", "--chern", "1"],
        ["assemble", "--bundle", "hopf.json"],
        ["extend", "--base", "tetra", "--cocycle", "hopf_cocycle.json"],
        ["minimize", "--bundle", "hopf.json"],
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("out", [".", "absent/out.json"], ids=["directory", "no-parent"])
def test_unwritable_out_exit_3_without_traceback(tmp_path, command, out):
    hopf = minimal_from_cocycle(named_base("tetra"), IntCochain(2, (0, 0, 1, 0)))
    write_json(tmp_path / "hopf.json", bundle_to_json_dict(hopf.as_local_system()))
    write_json(tmp_path / "hopf_cocycle.json", {"dim": 2, "values": [0, 0, 1, 0]})
    proc = run_module(tmp_path, *command, "--out", out)
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, code",
    [
        ("simplex:-1", 3), ("sphere:0", 3), ("sphere:-2", 3),
        (f"simplex:{MAX_NAMED_K + 1}", 11), ("sphere:25", 11),
        ("torus:2", 3), ("torus:3", 0), (f"torus:{MAX_TORUS_N + 1}", 11),
    ],
)
def test_named_base_size_bounds(capsys, name, code):
    assert run(capsys, "homology", name)[0] == code


def project_scripts():
    """``[project.scripts]`` of pyproject.toml, read as text (3.10 has no tomllib)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return dict(re.findall(r'^\s*([\w.-]+)\s*=\s*"([^"]+)"', section, re.M))


def test_console_script_subprocess(tmp_path):
    # Without an install there is no console script on PATH; `python -m
    # scbundles` then runs the very target the script would run.
    assert project_scripts()["scbundles"] == "scbundles.cli:main"
    script = shutil.which("scbundles")
    command = [script] if script else [sys.executable, "-m", "scbundles"]
    # The child imports the same source tree as this suite, from any cwd.
    src = Path(scbundles.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def run_child(*argv):
        return subprocess.run(
            [*command, *argv], capture_output=True, text=True, cwd=tmp_path, env=env
        )

    proc = run_child("homology", "tetra", "--json")
    assert proc.returncode == 0
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["euler"] == 2

    proc = run_child("homology", "nosuchbase")
    assert proc.returncode == 3
    assert "unknown base" in proc.stderr

