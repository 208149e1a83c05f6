"""Expected outputs of each workload, computed without the library.

Every check returns a list of mismatch descriptions; an empty list means
the op's output is correct.
"""

from __future__ import annotations

# Simplices per dimension of a minimal bundle's total space, per base vertex
# of the grid torus: (1, 7, 12, 6) for vertices, edges, triangles, tetrahedra.
TORUS_TOTAL_PER_VERTEX = (1, 7, 12, 6)

KAN4 = {"families": 7776, "compatible": 24, "lift_counts": {"1": 24}}
HEXAGRAM = {
    "sc_words": 10,
    "rows": 16,
    "zero_rows": 6,
    "nondegenerate_counts": [1, 0, 1, 2],
    "normalized_homology": "H0=Z, H1=0, H2=Z",
}


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def torus_total_counts(n: int) -> list[int]:
    return [n * n * k for k in TORUS_TOTAL_PER_VERTEX]


def torus_bundle_homology(c: int) -> str:
    """The Gysin law over the torus, in the CLI's report format:
    H1 = Z^2 + Z/|c|, H2 = Z^2, H3 = Z for c != 0, H1 = H2 = Z^3 for c = 0."""
    if c == 0:
        return "H0=Z, H1=Z^3, H2=Z^3, H3=Z"
    h1 = "Z^2" + (f" + Z/{abs(c)}" if abs(c) > 1 else "")
    return f"H0=Z, H1={h1}, H2=Z^2, H3=Z"


def euler(counts) -> int:
    return sum((-1) ** q * n for q, n in enumerate(counts))


def complex_problems(doc) -> list[str]:
    """Shape, index ranges and face identities of a complex document,
    checked directly on its tables."""
    dims = doc.get("dims")
    faces = doc.get("faces", {})
    if not isinstance(dims, list) or not isinstance(faces, dict):
        return ["complex document lacks 'dims' or 'faces'"]
    tables = [faces.get(str(q), []) for q in range(1, len(dims))]
    for q, table in enumerate(tables, start=1):
        if len(table) != dims[q]:
            return [f"dimension {q}: {len(table)} rows for {dims[q]} simplices"]
        for idx, row in enumerate(table):
            if len(row) != q + 1 or not all(0 <= f < dims[q - 1] for f in row):
                return [f"simplex {q}/{idx} has a malformed face row {row!r}"]
    for q in range(2, len(dims)):
        below = tables[q - 2]
        for idx, row in enumerate(tables[q - 1]):
            for j in range(1, q + 1):
                for i in range(j):
                    if below[row[j]][i] != below[row[i]][j - 1]:
                        return [f"face identity ({i}, {j}) fails at {q}/{idx}"]
    return []


def check_verify(rc: int, report: dict, c: int, n: int) -> list[str]:
    """`verify --json` on a Chern-c minimal bundle over the n x n torus."""
    problems: list[str] = []
    _expect(problems, "exit code", rc, 0)
    _expect(problems, "ok", report.get("ok"), True)
    _expect(problems, "homology", report.get("homology"), torus_bundle_homology(c))
    _expect(problems, "chern_number", report.get("chern_number"), c)
    _expect(problems, "total_counts", report.get("total_counts"), torus_total_counts(n))
    return problems


def check_assemble(gen, asm, total_doc, c: int, n: int) -> list[str]:
    """`gen-surface` then `assemble` over the n x n torus; ``gen`` and
    ``asm`` are (exit code, report) pairs and ``total_doc`` the
    total-space file as read back."""
    problems: list[str] = []
    want = torus_total_counts(n)
    _expect(problems, "gen-surface exit code", gen[0], 0)
    _expect(problems, "gen-surface chern", gen[1].get("chern"), c)
    _expect(problems, "assemble exit code", asm[0], 0)
    _expect(problems, "assemble total_counts", asm[1].get("total_counts"), want)
    _expect(problems, "assemble euler", asm[1].get("euler"), 0)
    if total_doc is None:
        problems.append("total-space file missing")
        return problems
    _expect(problems, "total-space file dims", total_doc.get("dims"), want)
    problems += complex_problems(total_doc)
    return problems


def chern_of(triangle_words, signs) -> int:
    """Pairing of a minimal bundle's triangle parities with the
    fundamental class: word (0,1,2) has parity 0, (0,2,1) parity 1."""
    parity = {(0, 1, 2): 0, (0, 2, 1): 1}
    return sum(s * parity[tuple(w)] for w, s in zip(triangle_words, signs))


def check_spindle(total_counts, minima, signs, c: int) -> list[str]:
    """Subdivide, assemble and minimize twice: the subdivided total space
    has Euler characteristic 0 and both minima have Chern number c.
    ``minima`` lists the triangle stalk words of each minimized bundle."""
    problems: list[str] = []
    _expect(problems, "subdivided total-space euler", euler(total_counts), 0)
    for k, words in enumerate(minima):
        if len(words) != len(signs) or any(
            tuple(w) not in ((0, 1, 2), (0, 2, 1)) for w in words
        ):
            problems.append(f"minimum {k} is not minimal over every triangle")
            continue
        _expect(problems, f"minimum {k} chern number", chern_of(words, signs), c)
    return problems


def check_kan(kan, hexagram, orientation, expected=KAN4, hex_expected=HEXAGRAM) -> list[str]:
    """`kan-check 4 --json` and `hexagram --json` at the given (seed
    triangle, sign); ``kan`` and ``hexagram`` are (exit code, report)."""
    problems: list[str] = []
    rc, rep = kan
    _expect(problems, "kan-check exit code", rc, 0)
    _expect(problems, "kan-check ok", rep.get("ok"), True)
    _expect(problems, "kan-check matches_expected", rep.get("matches_expected"), True)
    for key, want in expected.items():
        _expect(problems, f"kan-check {key}", rep.get(key), want)
    rc, rep = hexagram
    _expect(problems, "hexagram exit code", rc, 0)
    _expect(problems, "hexagram ok", rep.get("ok"), True)
    checks = rep.get("checks") or {}
    _expect(problems, "hexagram checks", bool(checks) and all(checks.values()), True)
    seed, sign = orientation
    _expect(problems, "hexagram orientation", rep.get("orientation"),
            {"seed_triangle": seed, "sign": sign})
    rows = rep.get("rows") or []
    _expect(problems, "hexagram sc words", len(rep.get("sc") or []), hex_expected["sc_words"])
    _expect(problems, "hexagram rows", len(rows), hex_expected["rows"])
    _expect(problems, "hexagram zero rows",
            sum(1 for r in rows if r.get("chern") == 0), hex_expected["zero_rows"])
    for key in ("nondegenerate_counts", "normalized_homology"):
        _expect(problems, f"hexagram {key}", rep.get(key), hex_expected[key])
    return problems
