"""Command-line surface for building, transforming, and verifying bundles.

Every subcommand prints a human-readable report by default and a JSON
document with --json; files on disk use the formats of the library
readers and writers, and built-in bases may be named in place of a file
(tetra, octahedron, delta-torus, simplex:k, sphere:k, torus:n).  Domain
errors map to distinct nonzero exit codes; a report whose assertions fail
exits nonzero as well.

``main`` pauses the cyclic garbage collector while a command runs and
restores the caller's setting afterwards.  A command is a bounded unit
of work that builds no reference cycles of its own, so reference counting
frees what it drops and the collector's scans of the growing heap find
nothing.  The library API never touches the collector.
"""

from __future__ import annotations

import argparse
import functools
import gc
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
from .cyclic import enumerate_sc, kan_lifts, kan_survey, sc_normalized_homology
from .errors import MalformedFile, ScbError
from .homology import (
    IntCochain,
    cochain_from_json_dict,
    cochain_to_json_dict,
    fundamental_class,
    homology_groups,
)
from .simplicial import NAMED_BASES, SemiSimplicialSet, boundary_sphere, named_base
from .spindle import chern_cocycle_general, default_selection, minimize
from .surface import cocycle_for_chern, parity_check

@dataclass
class Report:
    """One command's outcome: structured data, display lines, verdict."""

    data: dict
    lines: list[str] = field(default_factory=list)
    ok: bool = True


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
    """A complex file that breaks a face identity fails to load, with
    ``InvalidComplex`` (exit 4), and named bases are valid as built; so
    a complex that loads is valid."""
    x = _load_complex(args.base)
    data = {
        "counts": list(x.counts),
        "euler": x.euler_characteristic(),
        "valid": True,
        "violations": [],
    }
    lines = [f"simplices per dimension: {list(x.counts)}", "valid semi-simplicial set"]
    return Report(data, lines)


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

    fm = fundamental_class(boundary_sphere(3), seed=args.seed_triangle, sign=args.seed_sign)
    # the triangle stalks <0,1,2> and <0,2,1>, of parity 0 and 1
    parity = enumerate_sc(2)
    lines.append("")
    lines.append("binary 2-cochains on the tetrahedral sphere "
                 f"({_orientation_note(args.seed_triangle, args.seed_sign)}):")
    lines.append("  f0 f1 f2 f3   chern   extension")
    rows = []
    for code in range(16):
        f = [(code >> (3 - i)) & 1 for i in range(4)]
        # face i of the tetrahedron is triangle 3 - i of the sphere
        c = chern_number(IntCochain(2, tuple(reversed(f))), fm)
        # the stalks over the tetrahedron whose faces are the triangle
        # stalks, looked up by the census engine without the Chern number
        word = ", ".join(map(str, kan_lifts(parity[fi] for fi in f))) or None
        rows.append({"f": f, "chern": c, "extends": word})
        lines.append(
            f"   {f[0]}  {f[1]}  {f[2]}  {f[3]}    {c:+d}    {word or '-'}"
        )
    zeros = sum(1 for r in rows if r["chern"] == 0)
    extendable = sum(1 for r in rows if r["extends"])
    checks = {
        "six_zero_rows": zeros == 6,
        "extensions_match_zero_rows": all((r["extends"] is None) == bool(r["chern"]) for r in rows),
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
        found, found_lines, checks = _verify_checks(
            bundle.as_local_system(), fm, (args.seed_triangle, args.seed_sign)
        )
        c = found["chern_number"]
        checks.append(("chern achieved", c == args.chern, f"chern {c}, asked {args.chern}"))
        verdict = _report_checks(found, found_lines, checks)
        data["verify"] = verdict.data
        lines += verdict.lines
        return Report(data, lines, ok=verdict.ok)
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
    5: {"families": 191_102_976, "compatible": 120, "lift_counts": {1: 120}},
    6: {"families": 358_318_080_000_000, "compatible": 720, "lift_counts": {1: 720}},
    7: {"families": 72_220_413_630_873_600_000_000, "compatible": 5040, "lift_counts": {1: 5040}},
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
    # the census refuses every k it has no expected counts for
    expected = KAN_EXPECTED[args.k]
    ok = all(survey[key] == expected[key] for key in expected)
    lines.append(f"matches expected counts: {'yes' if ok else 'NO'}")
    data = dict(survey, unique=unique, matches_expected=ok)
    return Report(data, lines, ok=ok)


def _verify_checks(system, fm, orientation) -> tuple[dict, list[str], list]:
    """The checks of `verify` on a coherent local system, as (name, ok,
    detail), with the report data and the lines to print before them.

    With ``fm``, the fundamental class of a surface base at the given
    (seed triangle, sign), the Chern number of the default selection is
    reported, and H3 and the Gysin law are checked; with None they are not.
    The base's homology is computed once, for every base: its H0 gives
    the component count the total's H0 is checked against, and over a
    surface its H1 gives the genus.
    """
    # the reader raises IncoherentLocalSystem (exit 5) on any incoherence,
    # and a minimal bundle built from a cocycle is coherent by construction
    checks = [("local system coherent", True, "")]
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
    hb = homology_groups(system.base)
    components = hb.betti(0)
    h0_free = h.betti(0) == components and not h.torsion(0)
    detail = f"H0 = {h.describe(0)}, base components = {components}"
    checks.append(("H0 free of rank one per base component", h0_free, detail))
    data = {"total_counts": list(total.counts), "homology": str(h)}
    lines = [f"total space {list(total.counts)}; homology {h}"]
    if fm is not None:
        seed, sign = orientation
        c = chern_number(chern_cocycle_general(system), fm)
        data["chern_number"] = c
        lines.append(
            f"chern number (default selection, seed {seed}, "
            f"sign {'+' if sign > 0 else '-'}): {c}"
        )
        checks.append(
            ("H3 free of rank one", h.betti(3) == 1 and not h.torsion(3), h.describe(3))
        )
        # Gysin sequence for a circle bundle over a closed oriented
        # surface of genus g with Chern number c
        genus = hb.betti(1) // 2
        if c:
            want = ((2 * genus, (abs(c),) if abs(c) > 1 else ()), (2 * genus, ()))
        else:
            want = ((2 * genus + 1, ()),) * 2
        got = ((h.betti(1), h.torsion(1)), (h.betti(2), h.torsion(2)))
        detail = f"H1 = {h.describe(1)}, H2 = {h.describe(2)}, chern {c}, genus {genus}"
        checks.append(("surface Gysin law", got == want, detail))
    return data, lines, checks


def _report_checks(data: dict, lines: list[str], checks: list) -> Report:
    """The report listing the checks after the lines; it passes if they all do."""
    for name, good, detail in checks:
        mark = "ok" if good else "FAIL"
        lines.append(f"[{mark}] {name}" + (f": {detail}" if detail and not good else ""))
    data["checks"] = [
        {"name": name, "ok": good, "detail": detail} for name, good, detail in checks
    ]
    return Report(data, lines, ok=all(good for _, good, _ in checks))


def cmd_verify(args) -> Report:
    """A surface base with no fundamental class has no Chern number, H3
    or Gysin check; the report says why, in a line and under
    ``no_surface_oracle``."""
    system = _load_bundle(args.bundle)
    fm, reason = None, None
    if system.base.top_dim == 2:
        try:
            fm = fundamental_class(system.base)
        except ScbError as exc:
            reason = str(exc)
    data, lines, checks = _verify_checks(system, fm, (0, 1))
    if reason is not None:
        data["no_surface_oracle"] = reason
        lines.append(f"no surface oracle: {reason}")
    return _report_checks(data, lines, checks)


# -- parser ------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves
    no state in it, so every call of ``main`` shares it.

    ``add_argument`` makes a help formatter for each argument and drops
    it, and each formatter is a reference cycle (112 objects in all on
    3.11).  They are still young when the build ends, so a collection of
    the youngest generation frees them, once per process."""
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
        help="run verify's checks on the result and check its chern number",
    )
    p.set_defaults(handler=cmd_gen_surface)

    p = sub.add_parser("assemble", parents=[common], help="write the total space of a bundle")
    p.add_argument("--bundle", required=True, help="bundle file")
    p.add_argument("--out", required=True, help="total-space complex file to write")
    p.set_defaults(handler=cmd_assemble)

    p = sub.add_parser("kan-check", parents=[common], help="exhaustive horn-lifting census")
    p.add_argument("k", type=int, help="dimension to survey, 2 to 7")
    p.set_defaults(handler=cmd_kan_check)

    p = sub.add_parser("verify", parents=[common], help="full invariant suite on a bundle")
    p.add_argument("--bundle", required=True, help="bundle file")
    p.set_defaults(handler=cmd_verify)
    gc.collect(0)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused from argument parsing to the
    last byte of the report, and the caller's setting is restored on the
    way out, however the command ends.  A command makes no reference
    cycles, and the parser's build collects its own, so reference
    counting frees what it drops; the collector would only rescan the
    rows it builds, which took a sixth of ``gen-surface`` plus
    ``assemble`` over ``torus:32``.
    The library functions leave the collector alone."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
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
        return 0 if report.ok else 1
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
