"""Necklace local systems and their triangulated circle bundles.

A local system assigns to every base q-simplex a stalk necklace over the
colors 0..q and to every face operator a descent record embedding the
face stalk into the stalk above it.  The total space is assembled from a
catalog with two entry kinds per base simplex x of dimension q:

* one horizontal q-simplex per arc of the stalk (arcs are keyed by the
  bead they follow), and
* one vertical (q+1)-simplex per bead.

For a vertical simplex on a bead b of color j, face j is the horizontal
simplex of the arc following b and face j+1 of the arc preceding b; the
collapsing edge of the fiber sits at vertex positions j, j+1, so faces
below j descend through the bead map of face operator m and faces above
j+1 through face operator m-1, with colors renumbered by the deletion.
Horizontal faces descend through the arc merge maps.  The projection
sends horizontal simplices down by the identity operator and vertical
ones by the degeneracy at their bead color, which makes it a simplicial
map onto the base.

A minimal bundle is the local system with one bead per color over every
simplex: each stalk is a circular permutation and every descent map is
forced by the colors.  ``NecklaceLocalSystem`` is the one bundle type
that the reader returns, the writer takes and ``validate`` checks;
``MinimalBundle`` is only the circular-permutation record of a minimal
bundle, which the cocycle construction and ``minimize`` produce and
``chern_cocycle`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from ._json import json_int, key_int
from .cyclic import (
    CircularPermutation,
    Necklace,
    TripleOrderFamily,
    _cp_face,
    c01,
    insertion_extend,
)
from .errors import (
    DanglingReference,
    IncoherentLocalSystem,
    InconsistentTriples,
    MalformedFile,
    MismatchedCarriers,
    NotACocycle,
    NotBinary,
)
from .homology import FundamentalClass, IntCochain, coboundary
from .simplicial import SemiSimplicialSet, SimplexRef, standard_simplex

__all__ = [
    "NecklaceLocalSystem",
    "MinimalBundle",
    "AssembledBundle",
    "SingularProjection",
    "assemble",
    "elementary_system",
    "elementary_bundle",
    "minimal_from_cocycle",
    "chern_cocycle",
    "chern_number",
    "is_classical_bundle",
    "systems_equivalent",
    "check_projection_naturality",
    "bundle_to_json_dict",
    "bundle_from_json_dict",
    "total_to_json_dict",
    "format_necklace_text",
    "parse_necklace_text",
]


SimplexKey = tuple[int, int]


class NecklaceLocalSystem:
    """Stalk necklaces over a base plus descent maps along every face.

    ``stalks`` maps (dim, index) to the necklace over that simplex;
    ``bead_maps`` maps (dim, index, face_index) to the embedding of the
    face stalk's beads into the stalk's beads (its image is exactly the
    set of beads not colored face_index).  Instances and their maps are
    never mutated; spindle moves share every map they leave unchanged.
    """

    __slots__ = ("base", "stalks", "bead_maps", "_embeddings")

    def __init__(self, base, stalks, bead_maps, check=True):
        self.base = base
        self.stalks: dict[SimplexKey, Necklace] = dict(stalks)
        self.bead_maps: dict[tuple[int, int, int], dict[int, int]] = dict(bead_maps)
        self._embeddings: dict[tuple[int, int, int], dict[int, int]] = {}
        if check:
            problems = self.validate()
            if problems:
                raise IncoherentLocalSystem("; ".join(problems))

    # -- access --------------------------------------------------------

    def stalk(self, q: int, index: int) -> Necklace:
        try:
            return self.stalks[(q, index)]
        except KeyError:
            raise DanglingReference(f"no stalk over simplex {q}/{index}") from None

    def bead_map(self, q: int, index: int, i: int) -> dict[int, int]:
        return self.bead_maps[(q, index, i)]

    def vertex_embedding(self, q: int, index: int, p: int) -> dict[int, int]:
        """Composite bead embedding from the circle over vertex position p
        into the stalk; independent of the face chain by coherence."""
        key = (q, index, p)
        cached = self._embeddings.get(key)
        if cached is not None:
            return cached
        vertex, chain = self.base.face_walk(q, index, (p,))
        emb = {b: b for b in self.stalk(0, vertex).ids}
        for dq, di, fi in reversed(chain):
            bm = self.bead_map(dq, di, fi)
            emb = {vb: bm[sb] for vb, sb in emb.items()}
        self._embeddings[key] = emb
        return emb

    def is_minimal(self) -> bool:
        return all(n.size == q + 1 for (q, _), n in self.stalks.items())

    # -- validation ----------------------------------------------------

    def validate(self) -> list[str]:
        base = self.base
        problems = _stalk_problems(base, self.stalks)
        if problems:
            return problems
        for q in range(1, base.top_dim + 1):
            for idx in base.simplices(q):
                big = self.stalks[(q, idx)]
                for i, f in enumerate(base.face_row(q, idx)):
                    bm = self.bead_maps.get((q, idx, i))
                    if bm is None:
                        problems.append(f"missing bead map along face {i} of {q}/{idx}")
                    elif what := _bead_map_problem(bm, big, self.stalks[(q - 1, f)], i):
                        problems.append(f"bead map along face {i} of {q}/{idx} {what}")
        if problems:
            return problems
        for q in range(2, base.top_dim + 1):
            for idx in base.simplices(q):
                for i, j in combinations(range(q + 1), 2):
                    fj = base.face_index(q, idx, j)
                    fi = base.face_index(q, idx, i)
                    route_a = {
                        db: self.bead_map(q, idx, j)[sb]
                        for db, sb in self.bead_map(q - 1, fj, i).items()
                    }
                    route_b = {
                        db: self.bead_map(q, idx, i)[sb]
                        for db, sb in self.bead_map(q - 1, fi, j - 1).items()
                    }
                    if route_a != route_b:
                        problems.append(
                            f"descent maps of {q}/{idx} do not commute for faces ({i}, {j})"
                        )
        return problems


def _stalk_problems(base: SemiSimplicialSet, stalks: Mapping) -> list[str]:
    """Simplices without a stalk, stalks whose top color is not their
    dimension, and stalks over no simplex; any stalk with a ``top`` will
    do, a necklace or a circular permutation."""
    problems = []
    for q in range(base.top_dim + 1):
        for idx in base.simplices(q):
            stalk = stalks.get((q, idx))
            if stalk is None:
                problems.append(f"missing stalk over {q}/{idx}")
            elif stalk.top != q:
                problems.append(
                    f"stalk over {q}/{idx} uses colors 0..{stalk.top}, expected 0..{q}"
                )
    for q, idx in stalks:
        if not (0 <= q <= base.top_dim and 0 <= idx < base.simplex_count(q)):
            problems.append(f"stalk over missing simplex {q}/{idx}")
    return problems


def _bead_map_problem(
    bm: dict[int, int], big: Necklace, small: Necklace, i: int
) -> str | None:
    """Why bm fails to embed the stalk of face i into the stalk above it
    (domain, injectivity, survivors, colors, circular order, checked in
    that order), or None when it is a descent map."""
    small_pos = small.position
    if bm.keys() != small_pos.keys():
        return "is not defined on the face stalk"
    hit = set(bm.values())
    if len(hit) != len(bm):
        return "is not injective"
    colors, big_pos = big.colors, big.position
    if (
        len(hit) != len(colors) - colors.count(i)
        or not hit <= big_pos.keys()
        or i in (colors[big_pos[bb]] for bb in hit)
    ):
        return f"must hit exactly the beads not colored {i}"
    order = [-1] * len(colors)  # small positions, in the big stalk's order
    for sb, bb in bm.items():
        c = colors[big_pos[bb]]
        if small.colors[small_pos[sb]] != (c if c < i else c - 1):
            return f"breaks colors at bead {sb}"
        order[big_pos[bb]] = small_pos[sb]
    seq = [p for p in order if p >= 0]
    j = seq.index(0)
    if seq[j:] + seq[:j] != list(range(len(seq))):
        return "does not preserve the circular order"
    return None


class MinimalBundle:
    """The circular-permutation record of a minimal bundle.

    ``stalks`` maps (dim, index) to the circular permutation over that
    simplex.  Construction checks, word by word, that deleting color i
    from each stalk gives the stalk over face i, unless ``check`` is
    false; ``minimal_from_cocycle`` and ``minimize`` pass false, since
    their output is coherent by construction.
    """

    __slots__ = ("base", "stalks")

    def __init__(self, base, stalks, check=True):
        self.base = base
        self.stalks: dict[SimplexKey, CircularPermutation] = dict(stalks)
        if check:
            problems = _minimal_problems(base, self.stalks)
            if problems:
                raise IncoherentLocalSystem("; ".join(problems))

    def stalk(self, q: int, index: int) -> CircularPermutation:
        return self.stalks[(q, index)]

    def as_local_system(self) -> NecklaceLocalSystem:
        """Expand to the general representation: bead ids equal colors and
        descent maps are the canonical color embeddings."""
        return _minimal_system(self.base, self.stalks)

    def __repr__(self):
        return f"MinimalBundle(base={self.base.counts})"


def _minimal_problems(
    base: SemiSimplicialSet, stalks: Mapping[SimplexKey, CircularPermutation]
) -> list[str]:
    """The problems ``validate`` finds in the minimal system of these
    stalks, in its order and words, without building that system.

    The canonical color embeddings always commute and pass every
    bead-map test but circular order, which holds exactly when deleting
    color i from the stalk gives the stalk over face i."""
    problems = _stalk_problems(base, stalks)
    if problems:
        return problems
    for q in range(1, base.top_dim + 1):
        for idx in base.simplices(q):
            word = stalks[(q, idx)].word
            for i, f in enumerate(base.face_row(q, idx)):
                if _cp_face(word, i) != stalks[(q - 1, f)].word:
                    problems.append(
                        f"bead map along face {i} of {q}/{idx} "
                        "does not preserve the circular order"
                    )
    return problems


def _minimal_system(
    base: SemiSimplicialSet, stalks: Mapping[SimplexKey, CircularPermutation]
) -> NecklaceLocalSystem:
    """The local system of circular-permutation stalks: each bead id is
    its color, and face i sends color c to c below i and to c + 1 above.
    Equal stalks share one necklace, since few words recur over a base."""
    shared: dict[CircularPermutation, Necklace] = {}
    necklaces = {}
    for key, th in stalks.items():
        if th not in shared:
            shared[th] = Necklace.from_circular(th)
        necklaces[key] = shared[th]
    bead_maps = {}
    for q in range(1, base.top_dim + 1):
        embeddings = [
            {c: (c if c < i else c + 1) for c in range(q)} for i in range(q + 1)
        ]
        for idx in base.simplices(q):
            for i in range(q + 1):
                bead_maps[(q, idx, i)] = embeddings[i]
    return NecklaceLocalSystem(base, necklaces, bead_maps, check=False)


# -- total space assembly ----------------------------------------------


@dataclass(frozen=True)
class SingularProjection:
    """Projection of each total simplex to its base simplex.

    ``table[p][i]`` is a pair (base ref, op) where op lists the values of
    the monotone surjection from vertex positions of the total simplex to
    those of the base simplex: the identity for horizontal entries and
    the degeneracy collapsing positions j, j+1 for a bead of color j.
    """

    base: SemiSimplicialSet
    table: tuple[tuple[tuple[SimplexRef, tuple[int, ...]], ...], ...]


@dataclass(frozen=True)
class AssembledBundle:
    total: SemiSimplicialSet
    projection: SingularProjection


def assemble(system: NecklaceLocalSystem) -> AssembledBundle:
    """Build the total space and its projection.

    Dimension p lists the horizontal simplices over the base p-simplices,
    then the vertical ones over the (p-1)-simplices, stalk by stalk in
    stored bead order; so a simplex's id is the first id of its stalk
    plus its bead's position, and face rows are read off bead positions.
    Arc tables are built once per distinct (stalk, face stalk, bead map)
    triple of objects, which the system keeps alive for the whole call.
    """
    base = system.base
    top = base.top_dim
    arc_memo: dict[tuple[int, int, int], list[int]] = {}
    first_h: list[list[int]] = []  # [q][idx]: first horizontal id over q/idx
    first_v: list[list[int]] = []  # [q][idx]: first vertical id over q/idx
    arcs: list[list[list[int]]] = []  # [idx][m]: arc table along face m of p/idx
    faces: list[list[list[int]]] = []
    proj_table = []
    for p in range(top + 2):
        rows: list[list[int]] = []
        entries = []
        starts = []
        below_arcs = arcs
        arcs = []
        identity = tuple(range(p + 1))
        for idx in base.simplices(p):
            neck = system.stalk(p, idx)
            starts.append(len(entries))
            entries.extend([(SimplexRef(p, idx), identity)] * neck.size)
            if p:
                face_row = base.face_row(p, idx)
                tables = []
                for m, f in enumerate(face_row):
                    small, bm = system.stalk(p - 1, f), system.bead_map(p, idx, m)
                    key = (id(neck), id(small), id(bm))
                    table = arc_memo.get(key)
                    if table is None:
                        table = arc_memo[key] = _arc_table(neck, small, bm)
                    tables.append(table)
                arcs.append(tables)
                heads = [first_h[p - 1][f] for f in face_row]
                rows.extend(
                    [h + t[pos] for h, t in zip(heads, tables)]
                    for pos in range(neck.size)
                )
        first_h.append(starts)
        if p:
            q = p - 1
            degeneracies = [
                tuple(t if t <= j else t - 1 for t in identity) for j in range(p)
            ]
            starts = []
            for idx in base.simplices(q):
                neck = system.stalk(q, idx)
                starts.append(len(entries))
                h0 = first_h[q][idx]
                ref = SimplexRef(q, idx)
                # faces j and j + 1 are the bead's two horizontal ends; face
                # m < j lies over face m, and m > j + 1 over face m - 1
                lower = [
                    (first_v[q - 1][f], below_arcs[idx][fm])
                    for fm, f in enumerate(base.face_row(q, idx) if q else ())
                ]
                for pos, j in enumerate(neck.colors):
                    entries.append((ref, degeneracies[j]))
                    rows.append(
                        [start + table[pos] for start, table in lower[:j]]
                        + [h0 + pos, h0 + (pos - 1) % neck.size]
                        + [start + table[pos] for start, table in lower[j + 1:]]
                    )
            first_v.append(starts)
            faces.append(rows)
        proj_table.append(tuple(entries))
    total = SemiSimplicialSet(len(proj_table[0]), faces, check=False)
    return AssembledBundle(total, SingularProjection(base, tuple(proj_table)))


def _arc_table(big: Necklace, small: Necklace, bead_map: Mapping[int, int]) -> list[int]:
    """Arc merge table along a face: for each bead position of big, the
    position in small of the bead whose arc takes in the arc after it.
    That bead is the preimage of the nearest bead at or before it that
    survives the face, so a surviving bead's entry is its own preimage."""
    hit = {b: small.position[s] for s, b in bead_map.items()}
    last = next(hit[b] for b in reversed(big.ids) if b in hit)
    table = []
    for b in big.ids:
        last = hit.get(b, last)
        table.append(last)
    return table


def check_projection_naturality(
    total: SemiSimplicialSet, projection: SingularProjection
) -> list[str]:
    """Confirm the projection commutes with every face operator.

    For each total simplex with target (x, s), the composite of s with the
    coface at m either stays surjective, in which case the face must map
    to x by that composite, or misses one value v, in which case the face
    must map to face(x, v) by the co-restriction.  What each face must
    project to depends only on s and dim x, so it is worked out once per
    such pair.
    """
    base = projection.base
    rules: dict[tuple[tuple[int, ...], int], list] = {}
    problems = []
    for p in range(1, total.top_dim + 1):
        level, below = projection.table[p], projection.table[p - 1]
        for idx, (x, s) in enumerate(level):
            rule = rules.get((s, x.dim))
            if rule is None:
                rule = rules[(s, x.dim)] = _face_rules(s, x.dim)
            for m, (f, (v, want_op)) in enumerate(zip(total.face_row(p, idx), rule)):
                fx, fs = below[f]
                if want_op is None:
                    problems.append(
                        f"projection of {p}/{idx} is not a degeneracy operator"
                    )
                    continue
                if v < 0:
                    want_dim, want_index = x.dim, x.index
                else:
                    want_dim, want_index = x.dim - 1, base.face_index(x.dim, x.index, v)
                if fx.index != want_index or fx.dim != want_dim or fs != want_op:
                    problems.append(
                        f"face {m} of {p}/{idx} projects to ({fx}, {fs}), "
                        f"expected ({want_dim}/{want_index}, {want_op})"
                    )
    return problems


def _face_rules(
    s: tuple[int, ...], dim: int
) -> list[tuple[int, tuple[int, ...] | None]]:
    """For each face m of a simplex projecting by s onto a dim-simplex:
    the base position its image deletes (-1 for none) and its expected
    operator, which is None when s without position m misses two or more
    values."""
    rules = []
    for m in range(len(s)):
        composite = s[:m] + s[m + 1 :]
        missing = [v for v in range(dim + 1) if v not in composite]
        if not missing:
            rules.append((-1, composite))
        elif len(missing) == 1:
            v = missing[0]
            rules.append((v, tuple(w if w < v else w - 1 for w in composite)))
        else:
            rules.append((-1, None))
    return rules


# -- elementary bundles ------------------------------------------------


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
    stalks: dict[SimplexKey, Necklace] = {}
    restricted: dict[tuple, Necklace] = {}
    for q, level in subsets.items():
        for idx, sub in enumerate(level):
            rank = {c: r for r, c in enumerate(sub)}
            picked = [(b, rank[c]) for b, c in neck.beads() if c in rank]
            stalk = Necklace(
                tuple(c for _, c in picked), tuple(b for b, _ in picked)
            )
            stalks[(q, idx)] = stalk
            restricted[sub] = stalk
    bead_maps = {}
    for q in range(1, k + 1):
        for idx, sub in enumerate(subsets[q]):
            for i in range(q + 1):
                small = restricted[sub[:i] + sub[i + 1 :]]
                bead_maps[(q, idx, i)] = {b: b for b in small.ids}
    return NecklaceLocalSystem(base, stalks, bead_maps, check=False)


def elementary_bundle(neck: Necklace | CircularPermutation) -> AssembledBundle:
    return assemble(elementary_system(neck))


# -- cocycles and minimal bundles --------------------------------------


def _require_binary_cocycle(base: SemiSimplicialSet, u: IntCochain) -> None:
    if u.dim != 2:
        raise MismatchedCarriers(f"need a 2-cochain, got dimension {u.dim}")
    if len(u.values) != base.simplex_count(2):
        raise MismatchedCarriers(
            f"cochain has {len(u.values)} values but the base has "
            f"{base.simplex_count(2)} triangles"
        )
    if not u.is_binary():
        raise NotBinary("cochain values must be 0 or 1")
    if base.top_dim >= 3 and not coboundary(base, u).is_zero():
        raise NotACocycle("binary 2-cochain has nonzero coboundary")


def minimal_from_cocycle(base: SemiSimplicialSet, u: IntCochain) -> MinimalBundle:
    """The minimal bundle whose triangle stalks realize the parity u.

    Stalks over vertices and edges are forced; a triangle gets the even
    class for u = 0 and the odd class for u = 1; higher stalks are the
    unique insertion extensions of the parities on their 2-faces, which
    exist exactly because u is a cocycle.
    """
    _require_binary_cocycle(base, u)
    stalks: dict[SimplexKey, CircularPermutation] = {}
    point, arc = CircularPermutation((0,)), CircularPermutation((0, 1))
    parities = (CircularPermutation((0, 1, 2)), CircularPermutation((0, 2, 1)))
    for idx in base.simplices(0):
        stalks[(0, idx)] = point
    for idx in base.simplices(1):
        stalks[(1, idx)] = arc
    for idx in base.simplices(2):
        stalks[(2, idx)] = parities[u.values[idx]]
    for q in range(3, base.top_dim + 1):
        for idx in base.simplices(q):
            bits = {}
            for triple in combinations(range(q + 1), 3):
                bits[triple] = u.values[base.face_walk(q, idx, triple)[0]]
            family = TripleOrderFamily.from_mapping(q, bits)
            try:
                stalks[(q, idx)] = insertion_extend(family)
            except InconsistentTriples as exc:
                raise AssertionError(
                    "cocycle condition held but insertion failed; "
                    f"simplex {q}/{idx}: {exc}"
                ) from exc
    return MinimalBundle(base, stalks, check=False)


def chern_cocycle(bundle: MinimalBundle) -> IntCochain:
    """Triangle parities of a minimal bundle; inverse to the construction
    from a cocycle."""
    values = tuple(
        c01(bundle.stalk(2, idx)) for idx in bundle.base.simplices(2)
    )
    return IntCochain(2, values)


def chern_number(u: IntCochain, fm: FundamentalClass) -> int:
    """Pairing of a binary 2-cocycle with the fundamental class."""
    _require_binary_cocycle(fm.carrier, u)
    return sum(c * v for c, v in zip(fm.coefficients, u.values))


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
    by_last: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {
        v: [] for v in range(nv)
    }
    for q in range(base.top_dim + 1):
        for idx in base.simplices(q):
            vs = base.vertices_of(q, idx)
            by_last[max(vs)].append((q, idx, vs))

    def stalk_matches(q, idx, vs, rotations):
        n1 = first.stalk(q, idx)
        n2 = second.stalk(q, idx)
        if n1.size != n2.size:
            return False
        f = {}
        for p, v in enumerate(vs):
            e1 = first.vertex_embedding(q, idx, p)
            e2 = second.vertex_embedding(q, idx, p)
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
        elif all(
            stalk_matches(q, idx, vs, rotations) for q, idx, vs in by_last[v]
        ):
            v += 1
    return v == nv


def is_classical_bundle(system: NecklaceLocalSystem) -> tuple[bool, str | None]:
    """Whether the total space is a classical simplicial complex in
    dimension one: no loops and no repeated edges."""
    asm = assemble(system)
    total = asm.total
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


# -- serialization -----------------------------------------------------


def format_necklace_text(colors: Iterable[int]) -> str:
    return "(" + " ".join(str(c) for c in colors) + ")"


def parse_necklace_text(text: str) -> tuple[int, ...]:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise MalformedFile(f"necklace text must look like \"(0 1 2)\", got {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise MalformedFile("necklace text must list at least one color")
    try:
        return tuple(map(key_int, body.split()))
    except ValueError as exc:
        raise MalformedFile(f"bad necklace text {text!r}") from exc


def bundle_to_json_dict(system: NecklaceLocalSystem | MinimalBundle) -> dict:
    """Serialize a local system or a minimal bundle.

    Stalk words are written in the canonical turning, which for a
    circular permutation starts at color 0.  Bead maps refer to beads by
    their position in the written word; a minimal bundle, in either
    representation, omits them, since its descent is forced by the
    colors.  A ``MinimalBundle`` is written from its words, unexpanded.
    """
    base = system.base
    minimal = isinstance(system, MinimalBundle)
    texts: dict[tuple[int, ...], str] = {}  # few distinct words recur
    stalks = {}
    for (q, idx), n in system.stalks.items():
        colors = n.word if minimal else n.colors
        text = texts.get(colors)
        if text is None:
            text = texts[colors] = format_necklace_text(colors)
        stalks[f"{q}/{idx}"] = text
    doc: dict = {"base": base.to_json_dict(), "stalks": stalks}
    if minimal or system.is_minimal():
        return doc
    maps = {}
    for (q, idx, i), bm in system.bead_maps.items():
        fidx = base.face_index(q, idx, i)
        small = system.stalk(q - 1, fidx)
        pos = system.stalk(q, idx).position
        maps[f"{q}/{idx}/{i}"] = [pos[bm[b]] for b in small.ids]
    doc["bead_maps"] = maps
    return doc


def _parse_stalk_keys(raw, base: SemiSimplicialSet) -> dict[SimplexKey, tuple[int, ...]]:
    if not isinstance(raw, Mapping):
        raise MalformedFile("'stalks' must map 'dim/index' keys to necklace text")
    out = {}
    parsed: dict[str, tuple[int, ...]] = {}  # few distinct texts recur
    for key, text in raw.items():
        try:
            q, idx = map(key_int, key.split("/"))
        except ValueError as exc:
            raise MalformedFile(f"bad stalk key {key!r}, expected 'dim/index'") from exc
        if not (0 <= q <= base.top_dim and 0 <= idx < base.simplex_count(q)):
            raise DanglingReference(f"stalk key {key} names no base simplex")
        if not isinstance(text, str):
            raise MalformedFile(f"stalk {key} must be necklace text like \"(0 1 2)\"")
        word = parsed.get(text)
        if word is None:
            word = parsed[text] = parse_necklace_text(text)
        out[(q, idx)] = word
    return out


def bundle_from_json_dict(doc) -> NecklaceLocalSystem:
    """Read a bundle document into a validated local system; without
    descent data the stalks must be circular permutations, whose descent
    maps are the canonical color embeddings."""
    if not isinstance(doc, Mapping) or "base" not in doc or "stalks" not in doc:
        raise MalformedFile("bundle document needs 'base' and 'stalks'")
    base = SemiSimplicialSet.from_json_dict(doc["base"])
    words = _parse_stalk_keys(doc["stalks"], base)
    for q in range(base.top_dim + 1):
        for idx in base.simplices(q):
            if (q, idx) not in words:
                raise MalformedFile(f"missing stalk for simplex {q}/{idx}")
    raw_maps = doc.get("bead_maps")
    if raw_maps is None:
        stalks = {}
        perms: dict[tuple[int, ...], CircularPermutation] = {}
        for key, word in words.items():
            th = perms.get(word)
            if th is None:
                try:
                    th = perms[word] = CircularPermutation(word)
                except ValueError as exc:
                    raise MalformedFile(
                        f"stalk {key[0]}/{key[1]} is not a circular permutation "
                        "and no bead_maps are given"
                    ) from exc
            stalks[key] = th
        return MinimalBundle(base, stalks).as_local_system()
    stalks = {}
    for key, word in words.items():
        try:
            stalks[key] = Necklace.from_colors(word)
        except ValueError as exc:
            raise MalformedFile(f"bad stalk over {key[0]}/{key[1]}: {exc}") from exc
    if not isinstance(raw_maps, Mapping):
        raise MalformedFile("'bead_maps' must map 'dim/index/face' keys to rows")
    bead_maps = {}
    for key, row in raw_maps.items():
        try:
            q, idx, i = map(key_int, key.split("/"))
        except ValueError as exc:
            raise MalformedFile(f"bad bead map key {key!r}") from exc
        if not (1 <= q <= base.top_dim and 0 <= idx < base.simplex_count(q) and 0 <= i <= q):
            raise DanglingReference(f"bead map key {key} names no face")
        fidx = base.face_index(q, idx, i)
        small = stalks[(q - 1, fidx)]
        big = stalks[(q, idx)]
        if not isinstance(row, list) or len(row) != small.size:
            raise MalformedFile(f"bead map {key} must list {small.size} bead positions")
        what = f"a position in bead map {key}"
        targets = [json_int(t, what) for t in row]
        if any(not 0 <= t < big.size for t in targets):
            raise MalformedFile(f"bead map {key} points outside the stalk")
        bead_maps[(q, idx, i)] = {
            small.ids[p]: big.ids[t] for p, t in enumerate(targets)
        }
    return NecklaceLocalSystem(base, stalks, bead_maps)


def total_to_json_dict(asm: AssembledBundle) -> dict:
    """Total space in complex format plus the projection table."""
    doc = asm.total.to_json_dict()
    doc["projection"] = {
        str(p): [
            [ref.dim, ref.index, list(op)] for ref, op in asm.projection.table[p]
        ]
        for p in range(len(asm.projection.table))
    }
    return doc
