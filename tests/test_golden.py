"""Byte-for-byte golden outputs of `verify`, `assemble` and the reports.

Each case builds a bundle file (a Chern-c bundle from `gen-surface`, or a
subdivided one), then runs `verify --json`, plain `verify` and
`assemble`, and compares sha256 digests of the input file, both stdouts
and the written total-space file with the table below.  `assemble`'s
stdout names its `--out` path, so only its file is digested.  A second
table pins the spindle moves: the digest of the bundle file written
after a seeded chain of subdivides and contractions.  A third pins a
walk of 1 000 mixed moves: the stalks and bead maps it ends at, and the
minimal bundles and Chern cocycles reduced from them.  A fourth pins
the total-space file assembled from each walk's end system, whose
stalks carry each color many times and share no arc table.  A
fifth table pins outputs the first four do not reach: `gen-surface --json`
reports, which carry the whole cocycle list, the `kan-check 2`,
`kan-check 3`, `kan-check 4` and `hexagram` reports, and the total-space
file of a Chern-3 bundle over `torus:16`, the largest face and
projection tables in the suite.  The `kan-check 2` and `kan-check 4`
digests were taken before the census ran on cached face tables.

A change meant to keep outputs identical (a performance change, say)
must pass unchanged.  To print the table for the current code, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

import pytest

from scbundles import (
    bundle_from_json_dict,
    bundle_to_json_dict,
    chern_cocycle_general,
    contract,
    minimize,
    subdivide,
)
from scbundles._json import read_json, write_json
from scbundles.cli import main

from generators import grid_torus, random_moves

CHERNS = (-2, 0, 1, 3)
BASES = ("tetra", "octahedron", "delta-torus", "torus6")
SUBDIVIDED = "octahedron/3/split6"
MOVE_BASES = ("torus6", "delta-torus")


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _base_arg(base: str, tmp: Path) -> str:
    if base != "torus6":
        return base
    path = tmp / "torus6.json"
    write_json(path, grid_torus(6).to_json_dict())
    return str(path)


def _make_bundle(case: str, tmp: Path) -> Path | None:
    """Write the case's bundle file; None where gen-surface refuses."""
    base, chern, *split = case.split("/")
    bundle = tmp / "bundle.json"
    code, _ = _run(
        ["gen-surface", "--base", _base_arg(base, tmp), "--chern", chern,
         "--out", str(bundle)]
    )
    if code != 0:
        return None
    if split:
        rng = random.Random(6)
        system = bundle_from_json_dict(read_json(bundle))
        for _ in range(6):
            v = rng.randrange(system.base.simplex_count(0))
            system = subdivide(system, v, rng.choice(system.stalk(0, v).ids))
        write_json(bundle, bundle_to_json_dict(system))
    return bundle


def digests(case: str, tmp: Path) -> dict[str, str] | None:
    bundle = _make_bundle(case, tmp)
    if bundle is None:
        return None
    out = {"bundle": _digest(bundle.read_bytes())}
    for key, extra in (("verify_json", ["--json"]), ("verify_text", [])):
        code, stdout = _run(["verify", "--bundle", str(bundle), *extra])
        assert code == 0, stdout
        out[key] = _digest(stdout)
    total = tmp / "total.json"
    code, _ = _run(["assemble", "--bundle", str(bundle), "--out", str(total)])
    assert code == 0
    out["assemble"] = _digest(total.read_bytes())
    return out


def move_digest(base: str, tmp: Path) -> str:
    """Digest of the Chern-1 bundle over base after 30 seeded subdivides,
    then 10 seeded contractions, written as a bundle file."""
    system = bundle_from_json_dict(read_json(_make_bundle(f"{base}/1", tmp)))
    rng = random.Random(30)
    vertices = system.base.simplices(0)
    for _ in range(30):
        v = rng.choice(vertices)
        system = subdivide(system, v, rng.choice(system.stalk(0, v).ids))
    for _ in range(10):
        v = rng.choice([u for u in vertices if system.stalk(0, u).size > 1])
        system = contract(system, v, rng.choice(system.stalk(0, v).ids))
    path = tmp / "moved.json"
    write_json(path, bundle_to_json_dict(system))
    return _digest(path.read_bytes())


def _walked(base: str, tmp: Path):
    """The Chern-1 bundle over base after 1 000 seeded mixed moves, and
    the generator that made them."""
    system = bundle_from_json_dict(read_json(_make_bundle(f"{base}/1", tmp)))
    rng = random.Random(1000)
    system = random_moves(system, rng, 1000)
    assert not system.validate()
    return system, rng


def walk_digest(base: str, tmp: Path) -> str:
    """Digest of the Chern-1 bundle over base after 1 000 seeded mixed
    moves: its stalks and bead maps, the words of both its minimal bundles
    (the default and a seeded selection) and both Chern cocycles.

    Items are listed in the order the digest was taken in, when they were
    held in dicts keyed (q, idx): stalks and minimal words in the string
    order of their "q/idx" document keys, as the reader met them, and bead
    maps flattened to one ((q, idx, i), items) entry per face in numeric
    order."""
    system, rng = _walked(base, tmp)
    selection = {v: rng.choice(system.stalk(0, v).ids) for v in system.base.simplices(0)}

    def in_document_order(items):
        return sorted(items, key=lambda item: "%d/%d" % item[0])

    parts = (
        in_document_order(
            ((q, idx), neck)
            for q, level in enumerate(system.stalks)
            for idx, neck in enumerate(level)
        ),
        [
            ((q, idx, i), list(m.items()))
            for q, level in enumerate(system.bead_maps)
            for idx, maps in enumerate(level)
            for i, m in enumerate(maps)
        ],
        *(in_document_order(minimize(system, s).stalks.items()) for s in (None, selection)),
        *(chern_cocycle_general(system, s).values for s in (None, selection)),
    )
    return _digest(repr(parts))


def walk_total_digest(base: str, tmp: Path) -> str:
    """Digest of the total-space file `assemble` writes for the end system
    of the 1 000-move walk over base."""
    system, _ = _walked(base, tmp)
    bundle, total = tmp / "walked.json", tmp / "walked-total.json"
    write_json(bundle, bundle_to_json_dict(system))
    code, _ = _run(["assemble", "--bundle", str(bundle), "--out", str(total)])
    assert code == 0
    return _digest(total.read_bytes())


GEN_SURFACE = (("tetra", "-2"), ("octahedron", "3"), ("torus:16", "3"))


def output_digests(tmp: Path) -> dict[str, str]:
    out = {}
    for base, chern in GEN_SURFACE:
        code, stdout = _run(["gen-surface", "--base", base, "--chern", chern, "--json"])
        assert code == 0, stdout
        out[f"gen-surface/{base}/{chern}"] = _digest(stdout)
    for name, argv in (
        ("kan-check/2", ["kan-check", "2"]),
        ("kan-check/3", ["kan-check", "3"]),
        ("kan-check/4", ["kan-check", "4"]),
        ("hexagram", ["hexagram"]),
    ):
        code, stdout = _run([*argv, "--json"])
        assert code == 0, stdout
        out[name] = _digest(stdout)
    bundle, total = tmp / "bundle16.json", tmp / "total16.json"
    code, _ = _run(
        ["gen-surface", "--base", "torus:16", "--chern", "3", "--out", str(bundle)]
    )
    assert code == 0
    code, _ = _run(["assemble", "--bundle", str(bundle), "--out", str(total)])
    assert code == 0
    out["assemble/torus:16/3"] = _digest(total.read_bytes())
    return out


def all_cases() -> list[str]:
    return [f"{b}/{c}" for b in BASES for c in CHERNS] + [SUBDIVIDED]


# digests of the outputs before the table-driven `verify` checks
GOLDEN: dict[str, dict[str, str]] = {
    'tetra/-2': {
        'bundle': 'be16cfc1a0a80634e228264a48cebb2b285d6bd48c00f56a457a3a5866151e39',
        'verify_json': '93313f25bc1a3e9ccd149fca0313ca27bea4147be2a51bfcbc00dc9bf06fe524',
        'verify_text': '8f87ea3952d6a6b1e8b8ba77a39007dd6cf760128a52e31898dcacd885e011c4',
        'assemble': '638358e28e0f4feaa445e381c0d457c59c316cd9677da3c26f495063f6860124',
    },
    'tetra/0': {
        'bundle': 'b70a3744e62fb332459b80c01fd9c9c09e8a51ef80b7f6dc20ef02ddadb9d8d3',
        'verify_json': '8965eb3f2014eefe65777ed23f0ccf269baf83b7d230f6fda6e06650db5a3b16',
        'verify_text': '2647fd02ef85259975121184e390018d3d353f1a7ed6df0dde8f77bc89afde17',
        'assemble': 'b8dcf5d7bd1b410030bc5a5dde89913a5845601837d1cdbf2b8483cb066c18c4',
    },
    'tetra/1': {
        'bundle': '6d14307b7f149afc8d822d083fd931f99540ab0dc82c0a5080cdf6209e0e0d38',
        'verify_json': '6ac2e1b934798d96e48830709712774dc4a959e3e03f054bafb4075c9d03c927',
        'verify_text': 'f2174468a79be2af4361fa2eeab3adb40f63d46cb697a1b8fd381a15df066c72',
        'assemble': '3164ef2bc2723b569b86afd49a763f9d8505bafed0423b5ab0cbe82f38cda9c2',
    },
    'octahedron/-2': {
        'bundle': 'b90c9cefb7ce6d7fa1d097a906736aa124e41ac13ccfa1cf36247d045d15ee4b',
        'verify_json': 'fb308383aaabe6b0c4e324516eb9d6a1a070eabf35840febbcb0026c956d01ef',
        'verify_text': '23231de656572b11165d8278229dd8511525ffb950f284cdea6d5d96dfc40c61',
        'assemble': '187ed145b19462470d9c64dd0c6727768daaef807ea437a509757b5e892db0f6',
    },
    'octahedron/0': {
        'bundle': 'df1e25170e68ec700e6ad4f2818cb220fbdd6d300818f5d39b64e08d324cf385',
        'verify_json': '3e26b1b9c2d1358bf74764fd3123fd0ab338124e4880012442c42578adeeb253',
        'verify_text': '2729204fcfe02cc43a7b8b6445417433d67e24d07153c5848f75404835a64ed3',
        'assemble': '389d4cfd7816fd0a659f00297785732dd1651c1ca33d166d405f44a5c40e5c14',
    },
    'octahedron/1': {
        'bundle': '6cadcf443fc87aabbb5a769c5aa1c2880d7029d323a08a879291681337efe01d',
        'verify_json': 'd500b60487433ef8b36800f1f782f3ee78e758588ca3ada398b231f6ede25846',
        'verify_text': 'b6a7084488f7cb9d9433a7c203ee70e9cd833610928713acb03fbb485fe1d67d',
        'assemble': '0be27cf29d546c645dae42d8c82f7651a8d1cafa9cd9245c138b9d3cb2aba692',
    },
    'octahedron/3': {
        'bundle': '0741db08808d4817fa29731a9a5143b269b1c33b2040a4362a96c753cb0382c7',
        'verify_json': '3c317c5f401495e589fc53853b89ec581caa7751a7371bb5022363971b237898',
        'verify_text': 'b0751f34fb69b97aa96d6be7f08a3184f6477d451f4b1bcd010d981c5f79e0f6',
        'assemble': '8b3e3381affc7e105a4d99618c8220e2d785f81904b7903589c6763badf17054',
    },
    'delta-torus/0': {
        'bundle': 'b870a2efec4af2957e9ae14a40819af94f542fae019b7dd2d4a281ee076d751d',
        'verify_json': '4000ff1ea91534240f1ae29d112829b721528ccb828e37994ec89eaf89ad71ba',
        'verify_text': 'c007addb5ecfce1b66b95a7fa091fd15354aae341f568cdce64e57e897619ac3',
        'assemble': 'c53be99a190729f460b560bcfe884f9d6b1a3bd11fd9304d0d2cf27d2902052b',
    },
    'delta-torus/1': {
        'bundle': '67f866f518252dd0ce087f5df63bd03bba260ace1d4f275260a1ab53671bf288',
        'verify_json': '471088cafe48eac01cb61852416a852268b879a37e829139443c92fafe1e2502',
        'verify_text': '2298032b9310804e595126bd37ba7cb2054ae70968edf6cba203d065028cd3b6',
        'assemble': '91fc829ed200c453b84acc0f620e96f6e62d7d320886379b25862ad790f78216',
    },
    'torus6/-2': {
        'bundle': '748388e1fc48d68c6bdbaabc569491688c25cbb87b1c61f8d4cc9d4575a21b45',
        'verify_json': '7e3d5ba990c5258e4d679dd28d530b8bc57c32efeab8328206f9909a8b93dada',
        'verify_text': 'bf7a1badeacc7415d0d4a25f9eed4bcf0b37abfac390c096a10fcfca905f5cea',
        'assemble': '36563fab933ceb3a1e3b26e73e7cc0e86a88dae97c2cefc8a513cd532c4a881c',
    },
    'torus6/0': {
        'bundle': 'ccaddb180c079ae7be89cb64aa6dfdc2a9f18e86d02089e6a22f656150d168a2',
        'verify_json': '5514c86160f016ba7194cd5b8e43383bb08ec14801efc50444a031536ba5fe3d',
        'verify_text': 'bb354ef72f804451022e66f48e55d86042f2abd0e1c6fa75653381cae34453cb',
        'assemble': '5bc886b866d97564459178940fb2cd410d35580ae8d1e41ef940fd0d1777281f',
    },
    'torus6/1': {
        'bundle': '4b54cdbf8066fad6000bbe59072775c7134e3c0cb1e8b2d90326220dd4358610',
        'verify_json': 'adbcd7456d437a2f57d381b93d906fcbec2be1353482fadde25e5f4510f39459',
        'verify_text': '47bdb860a83b0b13c5baac1e82c86b77f1c046947a5bf9bb914c70f711704942',
        'assemble': 'd5c86d8adeaffe8a38f40118e6f0f0e5cde52cc5465bb5291a391695a77c2797',
    },
    'torus6/3': {
        'bundle': '250e945807daf945bf15239475b836a5c9beb808e9d1b587111da2e5bd1f34e3',
        'verify_json': '6cb8e7046365c895e7d1535a15d1944dc1ae8975a21f321c30cb403e9a90b8ad',
        'verify_text': '0646a7b7850b796f1573865249e0c4eace9a4bddb0e0cffc4ce10141678e6bbc',
        'assemble': 'cdf39931d7f649dae8e08aa9373e264643cc17867d57eec2d4b18031fda56eed',
    },
    'octahedron/3/split6': {
        'bundle': 'ef0ffd0acf31becea30f60d137d1322c68054c922dcf7ba088e8ac7f231a23dd',
        'verify_json': '41198af66248f5c616be780daba2773583733b5533dd36bf91b004218d66cd6f',
        'verify_text': '242338b922070df2669e14e1d3fb8d32876a6bb15abe0d30bc0a0077d6f4eb5d',
        'assemble': '872f9894aefbf5f765197a32261ad6b44bdb753500697277b311c94e1f978314',
    },
}


# digests of the moved bundles before the moves rewrote only the star
MOVES: dict[str, str] = {
    'torus6': 'f02165fb8cbe940f212e3922cb507d2c13e7f9e3fdae9924bd69c56604c397b6',
    'delta-torus': '5fe9f93e9c5116d9d9de540fbb8ba1f9546b1d4818918ce64878e485f522d163',
}


# digests of the walks before the moves read only the star's face rows
WALKS: dict[str, str] = {
    'torus6': '70d0383af4b1b08767d89bbe42e2c8e8f8ca011829c43fc1d6e554e5537f1f34',
    'delta-torus': '4716dd984a6d26a2391213882ff15cf244577acc77c77a44741de25afc9382a5',
}


# digests of the walked systems' total spaces before assembly went a level
# at a time
WALK_TOTALS: dict[str, str] = {
    'torus6': '9c1f3cc48a5f6fbf91885d079aadaa8877ad18f252e0c678510100e71508a31d',
    'delta-torus': '872ab9f80d225ad977062cdcf9972b4e87bfce474c5b9d0674ff6ba98eef5a9d',
}


# digests of the reports and the large total space before the table writer
OUTPUTS: dict[str, str] = {
    'gen-surface/tetra/-2': 'ac2f3a6971c67e24db493c6acb1f6a63197333e5c6ddc62d1f9e75208570740d',
    'gen-surface/octahedron/3': '69362c11d25de9cf15874dff1c0e5d2366e3672747d6b711d42234a90749b7b0',
    'gen-surface/torus:16/3': '5a29770fdf7d2e9e0e07bd9578e9b60cedb7ec991bed302f14a7f887a5182762',
    'kan-check/2': '2792439414f6fab50074c0ccc02798584acacdcd6bdc6806d0a35c47506a08d0',
    'kan-check/3': 'c67135a3d966b89eba9b268e7db29fbdf292c7f25eede64f11019ff1420e6415',
    'kan-check/4': 'e63402c206c33d1f03a66e500efc342d081c1489b2b68297695bca396ff303cf',
    'hexagram': '74988b94d5f33205d9cc7e4d28384692d3044699c0e339bf9d6c1afec3e86e83',
    'assemble/torus:16/3': '6906a8af18807ea4aa7f2560889c4a330ef45f3cf8d8ec26c04aa720af8140e2',
}


def test_table_covers_every_accepted_case(tmp_path):
    accepted = [
        case for case in all_cases() if _make_bundle(case, tmp_path) is not None
    ]
    assert accepted == list(GOLDEN)


@pytest.mark.parametrize("case", list(GOLDEN))
def test_outputs_match_golden_digests(case, tmp_path):
    assert digests(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("base", list(MOVES))
def test_spindle_moves_match_golden_digests(base, tmp_path):
    assert move_digest(base, tmp_path) == MOVES[base]


@pytest.mark.parametrize("base", list(WALKS))
def test_move_walks_match_golden_digests(base, tmp_path):
    assert walk_digest(base, tmp_path) == WALKS[base]


@pytest.mark.parametrize("base", list(WALK_TOTALS))
def test_walked_total_spaces_match_golden_digests(base, tmp_path):
    assert walk_total_digest(base, tmp_path) == WALK_TOTALS[base]


def test_reports_and_large_total_space_match_golden_digests(tmp_path):
    assert output_digests(tmp_path) == OUTPUTS


if __name__ == "__main__":
    import tempfile

    print("GOLDEN: dict[str, dict[str, str]] = {")
    for case in all_cases():
        with tempfile.TemporaryDirectory() as tmp:
            found = digests(case, Path(tmp))
        if found is None:
            print(f"    # {case}: refused by gen-surface", file=sys.stderr)
            continue
        print(f"    {case!r}: {{")
        for key, value in found.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
    print("MOVES: dict[str, str] = {")
    for base in MOVE_BASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {base!r}: {move_digest(base, Path(tmp))!r},")
    print("}")
    print("WALKS: dict[str, str] = {")
    for base in MOVE_BASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {base!r}: {walk_digest(base, Path(tmp))!r},")
    print("}")
    print("WALK_TOTALS: dict[str, str] = {")
    for base in MOVE_BASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {base!r}: {walk_total_digest(base, Path(tmp))!r},")
    print("}")
    print("OUTPUTS: dict[str, str] = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name, value in output_digests(Path(tmp)).items():
            print(f"    {name!r}: {value!r},")
    print("}")
