"""Command-line surface for building, transforming, and verifying bundles.

Every subcommand prints a human-readable report by default and a JSON
document with --json; files on disk use the formats of the library
readers and writers, and built-in bases may be named in place of a file
(tetra, octahedron, delta-torus, simplex:k, sphere:k, torus:n).  Domain
errors map to distinct nonzero exit codes; a report whose assertions fail
exits nonzero as well.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

from ._json import canonical_dumps, json_int, key_int, read_json, write_json
from .bundle import (
    assemble,
    bundle_from_json_dict,
    bundle_to_json_dict,
    chern_number,
    check_projection_naturality,
    minimal_from_cocycle,
    total_to_json_dict,
)
from .cyclic import enumerate_sc, kan_survey, sc_normalized_homology
from .errors import MalformedFile, ScbError
from .homology import (
    IntCochain,
    cochain_from_json_dict,
    cochain_to_json_dict,
    connected_component_count,
    fundamental_class,
    homology_groups,
)
from .simplicial import NAMED_BASES, SemiSimplicialSet, named_base, standard_simplex, boundary_sphere
from .spindle import chern_cocycle_general, default_selection, minimize
from .surface import cocycle_for_chern, parity_check

INVALID_COMPLEX_EXIT = 4


@dataclass
class Report:
    """One command's outcome: structured data, display lines, verdict."""

    data: dict
    lines: list[str] = field(default_factory=list)
    ok: bool = True
    fail_exit: int = 1


# -- shared loading ----------------------------------------------------


def _load_complex(source: str) -> SemiSimplicialSet:
    if os.path.exists(source):
        return SemiSimplicialSet.from_json_dict(read_json(source))
    return named_base(source)


def _load_bundle(path: str):
    return bundle_from_json_dict(read_json(path))


def _load_selection(path: str) -> dict[int, int]:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise MalformedFile("selection file must map vertex ids to bead ids")
    try:
        return {key_int(v): json_int(b, f"the bead kept over {v}") for v, b in doc.items()}
    except ValueError as exc:
        raise MalformedFile("selection file must map vertex ids to bead ids") from exc


def _orientation_note(seed: int, sign: int) -> str:
    return f"orientation: seed triangle {seed}, sign {'+' if sign > 0 else '-'}"


# -- subcommand handlers -----------------------------------------------


def cmd_validate(args) -> Report:
    x = _load_complex(args.base)
    problems = x.validate()
    data = {
        "counts": list(x.counts),
        "euler": x.euler_characteristic(),
        "valid": not problems,
        "violations": problems,
    }
    lines = [f"simplices per dimension: {list(x.counts)}"]
    if problems:
        lines += [f"INVALID: {p}" for p in problems]
    else:
        lines.append("valid semi-simplicial set")
    return Report(data, lines, ok=not problems, fail_exit=INVALID_COMPLEX_EXIT)


def cmd_homology(args) -> Report:
    x = _load_complex(args.base)
    h = homology_groups(x)
    data = {
        "counts": list(x.counts),
        "euler": x.euler_characteristic(),
        "groups": [
            {"dim": q, "betti": h.betti(q), "torsion": list(h.torsion(q))}
            for q in range(x.top_dim + 1)
        ],
    }
    lines = [f"simplices per dimension: {list(x.counts)}"]
    lines += [f"H{q} = {h.describe(q)}" for q in range(x.top_dim + 1)]
    lines.append(f"euler characteristic: {x.euler_characteristic()}")
    return Report(data, lines)


def cmd_hexagram(args) -> Report:
    """All circular permutations through dimension 3 and the full table
    of binary 2-cochains on the tetrahedral sphere."""
    sc_rows = []
    lines = ["circular permutations through dimension 3:"]
    for k in range(4):
        for th in enumerate_sc(k):
            deg = th.is_degenerate()
            sc_rows.append({"dim": k, "word": str(th), "degenerate": deg})
            lines.append(f"  dim {k}: {th}{'  (degenerate)' if deg else ''}")
    counts, nh = sc_normalized_homology(3)
    lines.append(f"non-degenerate counts: {list(counts)}")
    lines.append(f"normalized homology: {nh}")

    sphere = boundary_sphere(3)
    simplex = standard_simplex(3)
    fm = fundamental_class(sphere, seed=args.seed_triangle, sign=args.seed_sign)
    lines.append("")
    lines.append("binary 2-cochains on the tetrahedral sphere "
                 f"({_orientation_note(args.seed_triangle, args.seed_sign)}):")
    lines.append("  f0 f1 f2 f3   chern   extension")
    rows = []
    extendable = 0
    for code in range(16):
        f = [(code >> (3 - i)) & 1 for i in range(4)]
        values = tuple(f[3 - i] for i in range(4))
        u = IntCochain(2, values)
        c = chern_number(u, fm)
        word = None
        if c == 0:
            word = str(minimal_from_cocycle(simplex, u).stalk(3, 0))
            extendable += 1
        rows.append({"f": f, "chern": c, "extends": word})
        lines.append(
            f"   {f[0]}  {f[1]}  {f[2]}  {f[3]}    {c:+d}    {word or '-'}"
        )
    zeros = sum(1 for r in rows if r["chern"] == 0)
    checks = {
        "six_zero_rows": zeros == 6,
        "extensions_match_zero_rows": extendable == zeros
        and all((r["extends"] is not None) == (r["chern"] == 0) for r in rows),
    }
    ok = all(checks.values())
    lines.append(f"zero rows: {zeros}, extendable rows: {extendable}")
    data = {
        "sc": sc_rows,
        "nondegenerate_counts": list(counts),
        "normalized_homology": str(nh),
        "orientation": {"seed_triangle": args.seed_triangle, "sign": args.seed_sign},
        "rows": rows,
        "checks": checks,
    }
    return Report(data, lines, ok=ok)


def cmd_extend(args) -> Report:
    base = _load_complex(args.base)
    u = cochain_from_json_dict(read_json(args.cocycle))
    bundle = minimal_from_cocycle(base, u)
    write_json(args.out, bundle_to_json_dict(bundle))
    data = {
        "base_counts": list(base.counts),
        "cocycle": list(u.values),
        "stalks": {
            f"{q}/{i}": str(th) for (q, i), th in sorted(bundle.stalks.items())
        },
        "out": args.out,
    }
    lines = [
        f"minimal bundle over {list(base.counts)} written to {args.out}",
        f"top stalks: "
        + ", ".join(
            str(bundle.stalk(base.top_dim, i))
            for i in base.simplices(base.top_dim)
        ),
    ]
    return Report(data, lines)


def cmd_chern(args) -> Report:
    system = _load_bundle(args.bundle)
    selection = _load_selection(args.selection) if args.selection else None
    u = chern_cocycle_general(system, selection)
    base = system.base
    if system.is_minimal():
        how = "triangle parities"
    else:
        how = "triangle parities after reduction"
    data = {"cocycle": cochain_to_json_dict(u), "method": how}
    lines = [f"chern cocycle ({how}): {list(u.values)}"]
    flags_given = args.seed_triangle != 0 or args.seed_sign != 1
    if base.top_dim == 2:
        try:
            fm = fundamental_class(base, seed=args.seed_triangle, sign=args.seed_sign)
            c = chern_number(u, fm)
            data["chern_number"] = c
            data["orientation"] = {
                "seed_triangle": args.seed_triangle,
                "sign": args.seed_sign,
            }
            lines.append(
                f"chern number: {c}  "
                f"({_orientation_note(args.seed_triangle, args.seed_sign)})"
            )
        except ScbError as exc:
            if flags_given:
                raise
            data["chern_number"] = None
            lines.append(f"no chern number: {exc}")
    else:
        data["chern_number"] = None
        lines.append("no chern number: base is not a surface")
    return Report(data, lines)


def cmd_minimize(args) -> Report:
    system = _load_bundle(args.bundle)
    selection = _load_selection(args.selection) if args.selection else default_selection(system)
    minimal = minimize(system, selection)
    write_json(args.out, bundle_to_json_dict(minimal))
    data = {
        "selection": {str(v): b for v, b in sorted(selection.items())},
        "stalks": {
            f"{q}/{i}": str(th) for (q, i), th in sorted(minimal.stalks.items())
        },
        "out": args.out,
    }
    lines = [f"minimal bundle written to {args.out}"]
    return Report(data, lines)


def cmd_gen_surface(args) -> Report:
    base = _load_complex(args.base)
    fm = fundamental_class(base, seed=args.seed_triangle, sign=args.seed_sign)
    orientation = parity_check(base, fm)
    u = cocycle_for_chern(base, fm, args.chern, seed=args.place_seed)
    bundle = minimal_from_cocycle(base, u)
    data = {
        "base_counts": list(base.counts),
        "triangle_split": [orientation.positives, orientation.negatives],
        "chern_bound": orientation.chern_bound,
        "chern": args.chern,
        "orientation": {
            "seed_triangle": args.seed_triangle,
            "sign": args.seed_sign,
        },
        "cocycle": list(u.values),
    }
    lines = [
        f"surface with {len(fm.coefficients)} triangles, split "
        f"{orientation.positives}/{orientation.negatives}, bound {orientation.chern_bound}",
        _orientation_note(args.seed_triangle, args.seed_sign),
        f"cocycle for chern {args.chern}: {list(u.values)}",
    ]
    if args.out:
        write_json(args.out, bundle_to_json_dict(bundle))
        data["out"] = args.out
        lines.append(f"bundle written to {args.out}")
    if args.verify:
        system = bundle.as_local_system()
        asm = assemble(system)
        h = homology_groups(asm.total)
        achieved = chern_number(chern_cocycle_general(system), fm)
        checks = {
            "chern_achieved": achieved == args.chern,
            "euler_zero": asm.total.euler_characteristic() == 0,
            "total_identities": not asm.total.validate(),
        }
        data["verify"] = {
            "total_counts": list(asm.total.counts),
            "homology": str(h),
            **checks,
        }
        lines.append(
            f"total space {list(asm.total.counts)}; homology {h}"
        )
        if not all(checks.values()):
            return Report(data, lines, ok=False)
    return Report(data, lines)


def cmd_assemble(args) -> Report:
    asm = assemble(_load_bundle(args.bundle))
    write_json(args.out, total_to_json_dict(asm))
    data = {
        "total_counts": list(asm.total.counts),
        "euler": asm.total.euler_characteristic(),
        "out": args.out,
    }
    lines = [
        f"total space {list(asm.total.counts)}, "
        f"euler {asm.total.euler_characteristic()}, written to {args.out}"
    ]
    return Report(data, lines)


KAN_EXPECTED = {
    2: {"families": 1, "compatible": 1, "lift_counts": {2: 1}},
    3: {"families": 16, "compatible": 16, "lift_counts": {0: 10, 1: 6}},
    4: {"families": 7776, "compatible": 24, "lift_counts": {1: 24}},
}


def cmd_kan_check(args) -> Report:
    survey = kan_survey(args.k)
    unique = survey["lift_counts"] == {1: survey["compatible"]}
    lines = [
        f"dimension {args.k}: {survey['families']} facet families, "
        f"compatible families: {survey['compatible']}",
        f"lift counts over compatible families: {survey['lift_counts']}",
        f"all uniquely liftable: {'yes' if unique else 'no'}",
    ]
    data = dict(survey)
    data["unique"] = unique
    expected = KAN_EXPECTED.get(args.k)
    ok = True
    if expected is not None:
        ok = all(survey[key] == expected[key] for key in expected)
        data["matches_expected"] = ok
        lines.append(f"matches expected counts: {'yes' if ok else 'NO'}")
    return Report(data, lines, ok=ok)


def cmd_verify(args) -> Report:
    # the reader raises IncoherentLocalSystem (exit 5) on any incoherence
    system = _load_bundle(args.bundle)
    checks: list[tuple[str, bool, str]] = [("local system coherent", True, "")]
    asm = assemble(system)
    total = asm.total
    identity_problems = total.validate()
    checks.append(
        ("total face identities", not identity_problems, "; ".join(identity_problems))
    )
    naturality = check_projection_naturality(total, asm.projection)
    checks.append(("projection natural", not naturality, "; ".join(naturality)))
    chi = total.euler_characteristic()
    checks.append(("euler characteristic 0", chi == 0, f"chi = {chi}"))
    h = homology_groups(total)
    components = connected_component_count(system.base)
    checks.append(
        (
            "H0 free of rank one per base component",
            h.betti(0) == components and not h.torsion(0),
            f"H0 = {h.describe(0)}, base components = {components}",
        )
    )
    data = {
        "total_counts": list(total.counts),
        "homology": str(h),
    }
    lines = [f"total space {list(total.counts)}; homology {h}"]
    base = system.base
    if base.top_dim == 2:
        try:
            fm = fundamental_class(base)
        except ScbError as exc:
            lines.append(f"no surface oracle: {exc}")
        else:
            c = chern_number(chern_cocycle_general(system), fm)
            data["chern_number"] = c
            lines.append(f"chern number (default selection, seed 0, sign +): {c}")
            checks.append(
                ("H3 free of rank one", h.betti(3) == 1 and not h.torsion(3), h.describe(3))
            )
            # Gysin sequence for a circle bundle over a closed oriented
            # surface of genus g with Chern number c
            genus = homology_groups(base).betti(1) // 2
            if c:
                want = ((2 * genus, (abs(c),) if abs(c) > 1 else ()), (2 * genus, ()))
            else:
                want = ((2 * genus + 1, ()),) * 2
            got = ((h.betti(1), h.torsion(1)), (h.betti(2), h.torsion(2)))
            checks.append(
                (
                    "surface Gysin law",
                    got == want,
                    f"H1 = {h.describe(1)}, H2 = {h.describe(2)}, "
                    f"chern {c}, genus {genus}",
                )
            )
    for name, good, detail in checks:
        mark = "ok" if good else "FAIL"
        lines.append(f"[{mark}] {name}" + (f": {detail}" if detail and not good else ""))
    data["checks"] = [
        {"name": name, "ok": good, "detail": detail} for name, good, detail in checks
    ]
    return Report(data, lines, ok=all(good for _, good, _ in checks))


# -- parser ------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves
    no state in it, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="scbundles",
        description="Triangulated circle bundles over semi-simplicial bases.",
        epilog="Named bases: " + ", ".join(NAMED_BASES),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    orientation = argparse.ArgumentParser(add_help=False)
    orientation.add_argument(
        "--seed-triangle", type=int, default=0, metavar="ID",
        help="triangle fixing the orientation (default 0)",
    )
    orientation.add_argument(
        "--seed-sign", type=int, choices=(1, -1), default=1,
        help="sign of the seed triangle (default +1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a complex file")
    p.add_argument("base", help="complex file or named base")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("homology", parents=[common], help="integer homology of a complex")
    p.add_argument("base", help="complex file or named base")
    p.set_defaults(handler=cmd_homology)

    p = sub.add_parser(
        "hexagram", parents=[common],
        help="circular permutations through dim 3 and the 16-row cochain table",
    )
    p.add_argument(
        "--seed-triangle", type=int, default=3, metavar="ID",
        help="orientation seed triangle on the tetrahedral sphere (default 3)",
    )
    p.add_argument(
        "--seed-sign", type=int, choices=(1, -1), default=1,
        help="sign of the seed triangle (default +1)",
    )
    p.set_defaults(handler=cmd_hexagram)

    p = sub.add_parser("extend", parents=[common], help="binary 2-cocycle to minimal bundle")
    p.add_argument("--base", required=True, help="complex file or named base")
    p.add_argument("--cocycle", required=True, help="cochain file")
    p.add_argument("--out", required=True, help="bundle file to write")
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("chern", parents=[common, orientation], help="chern cocycle of a bundle")
    p.add_argument("--bundle", required=True, help="bundle file")
    p.add_argument("--selection", help="kept-arc file (default: first bead per vertex)")
    p.set_defaults(handler=cmd_chern)

    p = sub.add_parser("minimize", parents=[common], help="reduce a bundle to a minimal one")
    p.add_argument("--bundle", required=True, help="bundle file")
    p.add_argument("--selection", help="kept-arc file (default: first bead per vertex)")
    p.add_argument("--out", required=True, help="bundle file to write")
    p.set_defaults(handler=cmd_minimize)

    p = sub.add_parser(
        "gen-surface", parents=[common, orientation],
        help="minimal bundle with prescribed chern number over a surface",
    )
    p.add_argument("--base", required=True, help="surface complex file or named base")
    p.add_argument("--chern", required=True, type=int, help="target chern number")
    p.add_argument(
        "--place-seed", type=int, metavar="N",
        help="shuffle the placement of ones with this seed",
    )
    p.add_argument("--out", help="bundle file to write")
    p.add_argument(
        "--verify", action="store_true",
        help="assemble the result and report its homology",
    )
    p.set_defaults(handler=cmd_gen_surface)

    p = sub.add_parser("assemble", parents=[common], help="write the total space of a bundle")
    p.add_argument("--bundle", required=True, help="bundle file")
    p.add_argument("--out", required=True, help="total-space complex file to write")
    p.set_defaults(handler=cmd_assemble)

    p = sub.add_parser("kan-check", parents=[common], help="exhaustive horn-lifting census")
    p.add_argument("k", type=int, help="dimension to survey (2, 3, or 4)")
    p.set_defaults(handler=cmd_kan_check)

    p = sub.add_parser("verify", parents=[common], help="full invariant suite on a bundle")
    p.add_argument("--bundle", required=True, help="bundle file")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except ScbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if args.json:
        payload = dict(report.data)
        payload["ok"] = report.ok
        sys.stdout.write(canonical_dumps(payload))
    else:
        for line in report.lines:
            print(line)
        if not report.ok:
            print("FAILED")
    return 0 if report.ok else report.fail_exit


if __name__ == "__main__":
    sys.exit(main())
