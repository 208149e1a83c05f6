"""Independent references that the suites share.

None of these is on a path the library takes.  Each answers a question
the library answers another way, or one the tests ask about its
output: the iterated face chain of a simplex against ``spindle._lifted``'s
one face step, the named bases' former hand-written face tables against
``from_simplices``, the checks of a complex's face tables row by row
against ``validate``'s checks a level at a time, equivalence of local
systems up to bead renaming, the local system of one necklace, the
face-by-face validation of a local system against ``validate``'s checks
once per distinct combination of objects, the total space's face rows
and projection by bead id against ``assemble``'s positional tables,
whether a total space is a classical complex, the face and degeneracy
operators of circular permutations, and dense Smith normal form against
``smith_normal_form``'s Euclid steps on nonzero entries.
"""

from __future__ import annotations

from itertools import combinations

from scbundles import (
    CircularPermutation,
    Necklace,
    NecklaceLocalSystem,
    SemiSimplicialSet,
    assemble,
    standard_simplex,
)
from scbundles.bundle import _bead_map_problem

# -- the iterated face chain -------------------------------------------


def face_walk(
    base: SemiSimplicialSet, q: int, index: int, keep
) -> tuple[int, list[tuple[int, int, int]]]:
    """Face of a q-simplex spanned by the vertex positions in ``keep``.

    Every other position is deleted from the top down, which keeps each
    lower position at its original index.  Returns the index of the
    face and the steps ``(dim, index, position)`` taken, in order.
    """
    steps = []
    for t in range(q, -1, -1):
        if t not in keep:
            steps.append((q, index, t))
            index = base.face_index(q, index, t)
            q -= 1
    return index, steps


def vertex_at(base: SemiSimplicialSet, q: int, index: int, p: int) -> int:
    """Vertex index at position ``p`` of a q-simplex."""
    if not 0 <= p <= q:
        raise IndexError(f"position {p} outside 0..{q}")
    return face_walk(base, q, index, (p,))[0]


def vertices_of(base: SemiSimplicialSet, q: int, index: int) -> tuple[int, ...]:
    return tuple(vertex_at(base, q, index, p) for p in range(q + 1))


def vertex_embedding(
    system: NecklaceLocalSystem, q: int, index: int, p: int
) -> dict[int, int]:
    """Composite bead embedding from the circle over vertex position p
    into the stalk; independent of the face chain by coherence."""
    vertex, chain = face_walk(system.base, q, index, (p,))
    emb = {b: b for b in system.stalk(0, vertex).ids}
    for dq, di, fi in reversed(chain):
        bm = system.bead_maps[dq][di][fi]
        emb = {vb: bm[sb] for vb, sb in emb.items()}
    return emb


# -- named bases -------------------------------------------------------
# The hand-written face tables the library built its named bases from
# before ``SemiSimplicialSet.from_simplices``, kept as they were.


def reference_simplex_tables(k: int, include_top: bool) -> tuple[int, list]:
    """Face tables for the full k-simplex, simplices = vertex subsets in
    lexicographic order."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    top = k if include_top else k - 1
    by_dim = [
        list(combinations(range(k + 1), q + 1)) for q in range(max(top, 0) + 1)
    ]
    index = [{s: i for i, s in enumerate(level)} for level in by_dim]
    faces = []
    for q in range(1, len(by_dim)):
        table = []
        for simplex in by_dim[q]:
            table.append(
                [
                    index[q - 1][simplex[:i] + simplex[i + 1 :]]
                    for i in range(q + 1)
                ]
            )
        faces.append(table)
    return k + 1, faces


ANTIPODES = ((0, 1), (2, 3), (4, 5))


def reference_octahedron() -> SemiSimplicialSet:
    """The octahedral 2-sphere: 6 vertices, 12 edges, 8 triangles.

    Vertices pair into antipodes (0,1), (2,3), (4,5); a subset spans a
    simplex exactly when it contains no antipodal pair.
    """
    forbidden = set(ANTIPODES)
    edges = [
        e for e in combinations(range(6), 2) if e not in forbidden
    ]
    triangles = [
        t
        for t in combinations(range(6), 3)
        if all(p not in forbidden for p in combinations(t, 2))
    ]
    edge_index = {e: i for i, e in enumerate(edges)}
    tri_faces = [
        [edge_index[t[:i] + t[i + 1 :]] for i in range(3)] for t in triangles
    ]
    # face 0 of an edge drops the first vertex, leaving the second
    edge_faces = [[e[1], e[0]] for e in edges]
    return SemiSimplicialSet(6, [edge_faces, tri_faces], check=False)


def reference_grid_torus(n):
    """The grid torus as the test generators built it before the library
    had ``torus:n``: vertex (i, j) mod n is i * n + j, each square split
    along its diagonal, each triangle's vertices sorted, and every face
    found by deleting one vertex."""

    def vertex(i, j):
        return (i % n) * n + j % n

    edges = {}
    triangles = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            for tri in ((a, b, c), (a, c, d)):
                x, y, z = sorted(tri)
                triangles.append(
                    [edges.setdefault(e, len(edges)) for e in ((y, z), (x, z), (x, y))]
                )
    edge_faces = [[v, u] for u, v in edges]
    return SemiSimplicialSet(n * n, [edge_faces, triangles])


def reference_base(name: str) -> SemiSimplicialSet:
    """The named base ``name``, in ``named_base``'s canonical spelling,
    from the references above; ``delta-torus`` from its literal table."""
    kind, _, size = name.partition(":")
    if kind == "tetra":
        kind, size = "sphere", "3"
    if kind == "octahedron":
        return reference_octahedron()
    if kind == "delta-torus":
        return SemiSimplicialSet(1, [[[0, 0]] * 3, [[1, 2, 0], [0, 2, 1]]])
    if kind == "torus":
        return reference_grid_torus(int(size))
    n0, faces = reference_simplex_tables(int(size), include_top=kind == "simplex")
    return SemiSimplicialSet(n0, faces)


# -- face tables -------------------------------------------------------


def validate_row_by_row(x: SemiSimplicialSet) -> list[str]:
    """The violations ``SemiSimplicialSet.validate`` reports, found by
    checking every face of every row, and every face identity of every
    row, one at a time: the reference for its checks a level at a time."""
    problems: list[str] = []
    if x.simplex_count(0) < 0:
        problems.append("negative vertex count")
    for q in range(1, x.top_dim + 1):
        below = x.simplex_count(q - 1)
        for idx, row in enumerate(x.face_rows(q)):
            if len(row) != q + 1:
                problems.append(
                    f"simplex {q}/{idx} has {len(row)} faces, expected {q + 1}"
                )
                continue
            for i, f in enumerate(row):
                if not 0 <= f < below:
                    problems.append(
                        f"face {i} of {q}/{idx} references {q - 1}/{f} "
                        f"but dimension {q - 1} has {below} simplices"
                    )
    if problems:
        return problems
    for q in range(2, x.top_dim + 1):
        lower = x.face_rows(q - 1)
        for idx, row in enumerate(x.face_rows(q)):
            for j in range(1, q + 1):
                for i in range(j):
                    left = lower[row[j]][i]
                    right = lower[row[i]][j - 1]
                    if left != right:
                        problems.append(
                            f"face identity violated at ({q}/{idx}, {i}, {j}): "
                            f"face(face(x,{j}),{i}) = {left} but "
                            f"face(face(x,{i}),{j - 1}) = {right}"
                        )
    return problems


# -- local systems -----------------------------------------------------


def elementary_system(neck: Necklace | CircularPermutation) -> NecklaceLocalSystem:
    """The local system of one necklace over the standard simplex on its
    colors: stalks restrict by deleting absent colors, bead ids persist."""
    if isinstance(neck, CircularPermutation):
        neck = Necklace.from_circular(neck)
    k = neck.top
    base = standard_simplex(k)
    subsets = {
        q: list(combinations(range(k + 1), q + 1)) for q in range(k + 1)
    }
    stalks: list[list[Necklace]] = []
    restricted: dict[tuple, Necklace] = {}
    for q, level in subsets.items():
        stalks.append([])
        for sub in level:
            rank = {c: r for r, c in enumerate(sub)}
            picked = [(b, rank[c]) for b, c in neck.beads() if c in rank]
            stalk = Necklace(
                tuple(c for _, c in picked), tuple(b for b, _ in picked)
            )
            stalks[q].append(stalk)
            restricted[sub] = stalk
    bead_maps: list[list] = [[]]
    for q in range(1, k + 1):
        bead_maps.append([])
        for sub in subsets[q]:
            maps = []
            for i in range(q + 1):
                small = restricted[sub[:i] + sub[i + 1 :]]
                maps.append({b: b for b in small.ids})
            bead_maps[q].append(tuple(maps))
    return NecklaceLocalSystem(base, stalks, bead_maps, check=False)


def entry(levels: list[list], q: int, idx: int):
    """``levels[q][idx]``, or None where a level or an entry is missing."""
    level = levels[q] if 0 <= q < len(levels) else []
    return level[idx] if 0 <= idx < len(level) else None


def validate_reference(system: NecklaceLocalSystem) -> list[str]:
    """``NecklaceLocalSystem.validate`` face by face: every stalk, then
    every bead map through ``_bead_map_problem``, then, when all of those
    hold, every pair of routes, with nothing checked once for many
    simplices.  The same problems in the same order and words.  A stalk
    is missing where ``entry`` finds none, and every entry past the
    simplices of a level, or in a level past the base's, is over a
    missing simplex; bead maps past the simplices are not read."""
    base = system.base
    problems = []
    for q in range(base.top_dim + 1):
        for idx in base.simplices(q):
            stalk = entry(system.stalks, q, idx)
            if stalk is None:
                problems.append(f"missing stalk over {q}/{idx}")
            elif stalk.top != q:
                problems.append(
                    f"stalk over {q}/{idx} uses colors 0..{stalk.top}, expected 0..{q}"
                )
    for q, level in enumerate(system.stalks):
        for idx in range(len(level)):
            if not (q <= base.top_dim and idx < base.simplex_count(q)):
                problems.append(f"stalk over missing simplex {q}/{idx}")
    if problems:
        return problems
    for q in range(1, base.top_dim + 1):
        for idx in base.simplices(q):
            big = system.stalks[q][idx]
            maps = entry(system.bead_maps, q, idx) or ()
            for i, f in enumerate(base.face_row(q, idx)):
                bm = maps[i] if i < len(maps) else None
                if bm is None:
                    problems.append(f"missing bead map along face {i} of {q}/{idx}")
                elif what := _bead_map_problem(bm, big, system.stalks[q - 1][f], i):
                    problems.append(f"bead map along face {i} of {q}/{idx} {what}")
    if problems:
        return problems
    maps = system.bead_maps
    for q in range(2, base.top_dim + 1):
        for idx in base.simplices(q):
            for i, j in combinations(range(q + 1), 2):
                fj = base.face_index(q, idx, j)
                fi = base.face_index(q, idx, i)
                route_a = {
                    db: maps[q][idx][j][sb] for db, sb in maps[q - 1][fj][i].items()
                }
                route_b = {
                    db: maps[q][idx][i][sb] for db, sb in maps[q - 1][fi][j - 1].items()
                }
                if route_a != route_b:
                    problems.append(
                        f"descent maps of {q}/{idx} do not commute for faces ({i}, {j})"
                    )
    return problems


def systems_equivalent(
    first: NecklaceLocalSystem, second: NecklaceLocalSystem
) -> bool:
    """Whether a bead renaming carries one system to the other.

    A renaming is determined by one rotation of each vertex circle, since
    every stalk's color class is the embedded image of a vertex circle.
    The rotations are searched with backtracking, checking each stalk as
    soon as all of its vertices are assigned; the search is a loop, so
    bases with thousands of vertices do not hit the recursion limit.
    """
    if first.base != second.base:
        return False
    base = first.base
    nv = base.simplex_count(0)
    for v in range(nv):
        if first.stalk(0, v).size != second.stalk(0, v).size:
            return False
    # each simplex is checked once its last vertex is assigned, and the
    # embeddings of its vertex circles are walked once for the search
    by_last: dict[int, list[tuple[int, int, tuple[int, ...], list]]] = {
        v: [] for v in range(nv)
    }
    for q in range(base.top_dim + 1):
        for idx in base.simplices(q):
            vs = vertices_of(base, q, idx)
            embeddings = [
                (vertex_embedding(first, q, idx, p), vertex_embedding(second, q, idx, p))
                for p in range(q + 1)
            ]
            by_last[max(vs)].append((q, idx, vs, embeddings))

    def stalk_matches(q, idx, vs, embeddings, rotations):
        n1 = first.stalk(q, idx)
        n2 = second.stalk(q, idx)
        if n1.size != n2.size:
            return False
        f = {}
        for v, (e1, e2) in zip(vs, embeddings):
            ids1 = first.stalk(0, v).ids
            ids2 = second.stalk(0, v).ids
            r = rotations[v]
            n = len(ids1)
            for t, vb in enumerate(ids1):
                f[e1[vb]] = e2[ids2[(t + r) % n]]
        seq = tuple(f[b] for b in n1.ids)
        ids2t = n2.ids
        j = ids2t.index(seq[0])
        return ids2t[j:] + ids2t[:j] == seq

    # depth-first over the vertices; rotations[v] is the one being tried
    rotations = [-1] * nv
    v = 0
    while 0 <= v < nv:
        rotations[v] += 1
        if rotations[v] == first.stalk(0, v).size:
            rotations[v] = -1
            v -= 1
        elif all(stalk_matches(*entry, rotations) for entry in by_last[v]):
            v += 1
    return v == nv


# -- total spaces ------------------------------------------------------


def catalog(system: NecklaceLocalSystem) -> list[list[tuple]]:
    """Catalog keys of the total simplices in the order ``assemble`` numbers
    them: in dimension p, ("H", p, idx, bead) over every base p-simplex,
    then ("V", p - 1, idx, bead) over every (p-1)-simplex, each stalk in
    stored bead order."""
    base = system.base
    levels = []
    for p in range(base.top_dim + 2):
        level = [
            ("H", p, idx, b) for idx in base.simplices(p) for b in system.stalk(p, idx).ids
        ]
        if p:
            level += [
                ("V", p - 1, idx, b)
                for idx in base.simplices(p - 1)
                for b in system.stalk(p - 1, idx).ids
            ]
        levels.append(level)
    return levels


def total_rows(
    system: NecklaceLocalSystem,
) -> tuple[list[list[tuple[int, ...]]], list[list[tuple[int, int, tuple[int, ...]]]]]:
    """Face rows and projection entries of the total space, key by key.

    Returns ``(faces, projection)``: ``faces[p][i]`` is the face row of
    total p-simplex i (empty for p = 0) and ``projection[p][i]`` its
    (base dim, base index, op).  The faces of each catalog key follow the
    rule in bundle.py's module docstring, by bead id: the arc after a
    bead merges along face m into the arc after the nearest bead at or
    before it that survives, named by its preimage; the vertical simplex
    on a bead b of color j has the arcs after and before b as faces j and
    j + 1, and below j and above j + 1 the vertical simplex on b's
    preimage along face m, resp. m - 1.
    """
    base = system.base
    levels = catalog(system)
    ids = {key: i for level in levels for i, key in enumerate(level)}

    def preimages(q, idx, m):
        return {b: s for s, b in system.bead_maps[q][idx][m].items()}

    def faces_of(kind, q, idx, bead):
        beads = system.stalk(q, idx).ids
        if kind == "H":
            row = []
            for m in range(q + 1):
                pre = preimages(q, idx, m)
                k = beads.index(bead)
                while beads[k] not in pre:
                    k -= 1  # a negative index wraps around the circle
                row.append(("H", q - 1, base.face_index(q, idx, m), pre[beads[k]]))
            return row
        j = dict(system.stalk(q, idx).beads())[bead]
        before = beads[beads.index(bead) - 1]
        row = []
        for m in range(q + 2):
            if m == j:
                row.append(("H", q, idx, bead))
            elif m == j + 1:
                row.append(("H", q, idx, before))
            else:
                fm = m if m < j else m - 1
                pre = preimages(q, idx, fm)[bead]
                row.append(("V", q - 1, base.face_index(q, idx, fm), pre))
        return row

    def entry(kind, q, idx, bead):
        if kind == "H":
            return q, idx, tuple(range(q + 1))
        j = dict(system.stalk(q, idx).beads())[bead]
        return q, idx, tuple(t if t <= j else t - 1 for t in range(q + 2))

    faces = [
        [tuple(ids[key] for key in faces_of(*key)) for key in level] if p else []
        for p, level in enumerate(levels)
    ]
    projection = [[entry(*key) for key in level] for level in levels]
    return faces, projection


# -- classical complexes -----------------------------------------------


def is_classical_bundle(system: NecklaceLocalSystem) -> tuple[bool, str | None]:
    """Whether the total space is a classical simplicial complex in
    dimension one: no loops and no repeated edges."""
    total = assemble(system).total
    seen: dict[tuple[int, int], int] = {}
    for e in total.simplices(1):
        f0, f1 = total.face_row(1, e)
        if f0 == f1:
            return False, f"total edge 1/{e} is a loop"
        pair = (f0, f1) if f0 < f1 else (f1, f0)
        if pair in seen:
            return False, (
                f"total edges 1/{seen[pair]} and 1/{e} join the same vertices"
            )
        seen[pair] = e
    return True, None


def is_classical_necklace(neck: Necklace) -> tuple[bool, str | None]:
    """Whether the elementary bundle on this necklace is a classical
    simplicial complex: every color at least three beads, every color
    pair mixed (not two solid blocks around the circle)."""
    counts = [0] * (neck.top + 1)
    for c in neck.colors:
        counts[c] += 1
    for color, n in enumerate(counts):
        if n < 3:
            return False, f"color {color} has only {n} bead(s), needs 3"
    for i, j in combinations(range(neck.top + 1), 2):
        sub = [c for c in neck.colors if c in (i, j)]
        changes = sum(
            1 for p in range(len(sub)) if sub[p] != sub[p - 1]
        )
        if changes == 2:
            return False, f"colors {i} and {j} sit in two solid blocks"
    return True, None


# -- faces and degeneracies --------------------------------------------


def word_face(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Face i of a circular word: delete the color i from the linear word,
    renumber the colors above it down by one, then turn the word to start
    at color 0, found by a plain search."""
    linear = [v if v < i else v - 1 for v in word if v != i]
    start = 0
    while linear[start] != 0:
        start += 1
    return tuple(linear[start:] + linear[:start])


def word_degeneracy(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Degeneracy i of a linear word: a duplicate right after the letter
    i, with the higher letters moved up."""
    out = []
    for v in word:
        out.append(v if v <= i else v + 1)
        if v == i:
            out.append(i + 1)
    return tuple(out)


def degeneracy(theta: CircularPermutation, i: int) -> CircularPermutation:
    """Insert a duplicate right after color i; higher colors move up."""
    if not 0 <= i <= theta.top:
        raise ValueError(f"color {i} outside 0..{theta.top}")
    return CircularPermutation(word_degeneracy(theta.word, i))


# -- dense Smith normal form -------------------------------------------
# The dense elimination the library ran on the block left after unit
# pivots before it took Euclid steps on that block's nonzero entries.


def _swap_rows(a, r1, r2):
    a[r1], a[r2] = a[r2], a[r1]


def _swap_cols(a, c1, c2):
    if c1 != c2:
        for row in a:
            row[c1], row[c2] = row[c2], row[c1]


def _add_row(a, dst, src, coeff):
    # row dst += coeff * row src
    arow = a[dst]
    for c, v in enumerate(a[src]):
        if v:
            arow[c] += coeff * v


def _add_col(a, dst, src, coeff):
    for row in a:
        if row[src]:
            row[dst] += coeff * row[src]


def dense_smith_diagonal(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of the matrix with these row lists, by dense row
    and column elimination in place on a copy.

    Pivots always take the entry of least absolute value in the remaining
    block, which keeps coefficient growth tame on the matrix sizes this
    package produces.
    """
    a = [list(row) for row in rows]
    nr, nc = len(a), len(a[0]) if a else 0
    t = 0
    limit = min(nr, nc)
    while t < limit:
        # hunt the least nonzero entry of the remaining block
        best = None
        for r in range(t, nr):
            row = a[r]
            for c in range(t, nc):
                x = row[c]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), r, c)
                    if best[0] == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _swap_rows(a, t, best[1])
        _swap_cols(a, t, best[2])
        while True:
            swapped = False
            for r in range(t + 1, nr):
                if a[r][t]:
                    q = a[r][t] // a[t][t]
                    _add_row(a, r, t, -q)
                    if a[r][t]:
                        _swap_rows(a, t, r)
                        swapped = True
                        break
            if swapped:
                continue
            for c in range(t + 1, nc):
                if a[t][c]:
                    q = a[t][c] // a[t][t]
                    _add_col(a, c, t, -q)
                    if a[t][c]:
                        _swap_cols(a, t, c)
                        swapped = True
                        break
            if swapped:
                continue
            break
        # enforce the divisibility chain before advancing
        pivot = a[t][t]
        offender = None
        for r in range(t + 1, nr):
            row = a[r]
            for c in range(t + 1, nc):
                if row[c] % pivot:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, t, offender, 1)
            continue
        t += 1
    diagonal = tuple(abs(a[i][i]) for i in range(t))
    for i in range(len(diagonal) - 1):
        if diagonal[i + 1] % diagonal[i]:
            raise AssertionError("divisibility chain broken; elimination bug")
    return diagonal
