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
from itertools import accumulate, chain, combinations, compress, count, cycle, repeat
from operator import add, itemgetter, ne
from typing import Iterable, Mapping

from ._json import json_int, key_int
from .cyclic import (
    CircularPermutation,
    Necklace,
    _cp_face,
    c01,
)
from .errors import (
    DanglingReference,
    IncoherentLocalSystem,
    MalformedFile,
    MismatchedCarriers,
    NotACocycle,
    NotBinary,
)
from .homology import FundamentalClass, IntCochain, coboundary
from .simplicial import SemiSimplicialSet, SimplexRef

__all__ = [
    "NecklaceLocalSystem",
    "MinimalBundle",
    "AssembledBundle",
    "SingularProjection",
    "assemble",
    "minimal_from_cocycle",
    "chern_cocycle",
    "chern_number",
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

    __slots__ = ("base", "stalks", "bead_maps")

    def __init__(self, base, stalks, bead_maps, check=True):
        self.base = base
        self.stalks: dict[SimplexKey, Necklace] = dict(stalks)
        self.bead_maps: dict[tuple[int, int, int], dict[int, int]] = dict(bead_maps)
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


def _level(table: Mapping, q: int, n: int) -> list:
    """The values of table at the keys (q, 0) .. (q, n - 1), in order;
    a missing key gives None."""
    return list(map(table.get, zip(repeat(q), range(n))))


def _stalk_problems(base: SemiSimplicialSet, stalks: Mapping) -> list[str]:
    """Simplices without a stalk, stalks whose top color is not their
    dimension, and stalks over no simplex; any stalk with a ``top`` will
    do, a necklace or a circular permutation."""
    problems = []
    for q, n in enumerate(base.counts):
        for idx, stalk in enumerate(_level(stalks, q, n)):
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
    below: list[tuple[int, ...]] = []  # the words one level down
    for q, n in enumerate(base.counts):
        level = [th.word for th in _level(stalks, q, n)]
        if q:
            # a simplex is wrong where the faces of its word are not the
            # words over its faces; few words recur, so faces are per word
            faces = {w: [_cp_face(w, i) for i in range(q + 1)] for w in set(level)}
            rows = base.face_rows(q)
            got = map(list, map(map, repeat(below.__getitem__), rows))
            for idx in compress(count(), map(ne, map(faces.__getitem__, level), got)):
                for i, (want, f) in enumerate(zip(faces[level[idx]], rows[idx])):
                    if want != below[f]:
                        problems.append(
                            f"bead map along face {i} of {q}/{idx} "
                            "does not preserve the circular order"
                        )
        below = level
    return problems


def _minimal_system(
    base: SemiSimplicialSet, stalks: Mapping[SimplexKey, CircularPermutation]
) -> NecklaceLocalSystem:
    """The local system of circular-permutation stalks: each bead id is
    its color, and face i sends color c to c below i and to c + 1 above.
    Equal stalks share one necklace, since few words recur over a base,
    and every q-simplex shares the q + 1 embeddings of its level."""
    words = [th.word for th in stalks.values()]
    distinct = dict(zip(words, stalks.values()))
    shared = {word: Necklace.from_circular(th) for word, th in distinct.items()}
    necklaces = dict(zip(stalks, map(shared.__getitem__, words)))
    bead_maps = {}
    for q, n in enumerate(base.counts[1:], 1):
        embeddings = [
            {c: (c if c < i else c + 1) for c in range(q)} for i in range(q + 1)
        ]
        # the keys (q, idx, i), idx-major, each with embedding i
        indices = chain.from_iterable(map(repeat, range(n), repeat(q + 1)))
        keys = zip(repeat(q), indices, cycle(range(q + 1)))
        bead_maps.update(zip(keys, cycle(embeddings)))
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
    plus its bead's position, and face rows are read off bead positions,
    a column per face over a whole base level.  Arc tables are built once
    per distinct (stalk, face stalk, bead map) triple of objects, which
    the system keeps alive for the whole call.  Rows are tuples, and each
    base simplex has one ``SimplexRef`` and one projection pair per
    operator, shared by its stalk, so the total holds few containers for
    the collector to scan.
    """
    base = system.base
    stalks, bead_maps = system.stalks, system.bead_maps
    level: list[Necklace] = []  # the stalks over the base p-simplices
    sizes: list[int] = []  # their sizes
    refs: list[SimplexRef] = []  # [idx]: the ref of base simplex p/idx
    arcs: list[list[list[int]]] = []  # [m][idx]: arc table along face m of p/idx
    first_h: list[list[int]] = []  # [q][idx]: first horizontal id over q/idx
    first_v: list[list[int]] = []  # [q][idx]: first vertical id over q/idx
    faces: list[list[tuple[int, ...]]] = []
    proj_table = []
    for p in range(base.top_dim + 2):
        below, below_sizes, below_refs, below_arcs = level, sizes, refs, arcs
        n = base.simplex_count(p)
        level = _level(stalks, p, n)
        sizes = [neck.size for neck in level]
        refs = [SimplexRef(p, idx) for idx in range(n)]
        identity = tuple(range(p + 1))
        entries = list(chain.from_iterable(
            map(repeat, [(ref, identity) for ref in refs], sizes)
        ))
        # one more than the simplices: the last is the level's bead count
        first_h.append(list(accumulate(sizes, initial=0)))
        if not p:
            proj_table.append(tuple(entries))
            continue
        face_rows = base.face_rows(p) if n else ()
        arcs = []
        for m in range(p + 1):
            # face m of every simplex: its stalk, and the bead map along it
            smalls = list(map(below.__getitem__, map(itemgetter(m), face_rows)))
            maps = list(map(bead_maps.__getitem__, zip(repeat(p), range(n), repeat(m))))
            keys = list(zip(map(id, level), map(id, smalls), map(id, maps)))
            triples = dict(zip(keys, zip(level, smalls, maps)))
            built = {key: _arc_table(*triple) for key, triple in triples.items()}
            arcs.append(list(map(built.__getitem__, keys)))
        rows = list(zip(*_face_columns(face_rows, arcs, sizes, first_h[p - 1])))
        # the vertical simplices over the base q-simplices: a bead's cells
        # are the arc after it, the arc before it and its lower faces
        q = p - 1
        heads = first_h[q]
        before = list(range(-1, heads[-1] - 1))
        for start, end in zip(heads, heads[1:]):
            before[start] = end - 1
        columns = [range(heads[-1]), before]
        if q:
            columns += _face_columns(
                base.face_rows(q), below_arcs, below_sizes, first_v[q - 1]
            )
        # a bead of color j picks its row from its cells: faces j and
        # j + 1 are its two arcs, face m < j lies over face m and m > j + 1
        # over m - 1
        slots = [
            itemgetter(*range(2, j + 2), 0, 1, *range(j + 3, p + 2))
            for j in range(p)
        ]
        colors = list(chain.from_iterable(neck.colors for neck in below))
        rows += map(itemgetter.__call__, map(slots.__getitem__, colors), zip(*columns))
        degeneracies = [
            tuple(t if t <= j else t - 1 for t in identity) for j in range(p)
        ]
        # pair p * idx + j projects a bead of color j over q/idx
        pairs = [(ref, op) for ref in below_refs for op in degeneracies]
        firsts = chain.from_iterable(map(repeat, range(0, len(pairs), p), below_sizes))
        entries += map(pairs.__getitem__, map(add, firsts, colors))
        first_v.append(list(accumulate(below_sizes, initial=first_h[p][-1])))
        faces.append(rows)
        proj_table.append(tuple(entries))
    total = SemiSimplicialSet(len(proj_table[0]), faces, check=False)
    return AssembledBundle(total, SingularProjection(base, tuple(proj_table)))


def _face_columns(
    face_rows: Iterable[tuple[int, ...]],
    arcs: list[list[list[int]]],
    sizes: list[int],
    heads: list[int],
) -> list:
    """The face columns of the rows of the simplices stacked over one base
    level: over each base simplex in turn, with its stalk of the given
    size, column m adds the first id over its face m to the arc table
    along that face, ``arcs[m][idx]``."""
    return [
        map(
            add,
            chain.from_iterable(
                map(repeat, map(heads.__getitem__, map(itemgetter(m), face_rows)), sizes)
            ),
            chain.from_iterable(tables),
        )
        for m, tables in enumerate(arcs)
    ]


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
    class for u = 0 and the odd class for u = 1.  Above dimension 2 the
    stalk is the unique horn filler over its faces: the stalk over face q
    with color q inserted at the one gap where deleting each color i < q
    gives the stalk over face i.  That gap exists exactly because u is a
    cocycle, the binary form of Huntington's transitivity axiom for
    cyclic orders, and it is unique because the faces fix every triple.
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
            faces = [stalks[(q - 1, f)].word for f in base.face_row(q, idx)]
            below = faces[q]
            for gap in range(1, q + 1):
                word = below[:gap] + (q,) + below[gap:]
                if all(_cp_face(word, i) == faces[i] for i in range(q)):
                    break
            else:
                raise AssertionError(
                    f"no gap fits the faces of simplex {q}/{idx}, "
                    "though u is a cocycle"
                )
            stalks[(q, idx)] = CircularPermutation(word)
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
    """The words of the stalks, keyed by simplex in document order.  A
    key is looked up among the keys "q/idx" the base has, and parsed only
    to say why it is not one of them."""
    if not isinstance(raw, Mapping):
        raise MalformedFile("'stalks' must map 'dim/index' keys to necklace text")
    simplices = {
        f"{q}/{idx}": (q, idx) for q, n in enumerate(base.counts) for idx in range(n)
    }
    out = {}
    parsed: dict[str, tuple[int, ...]] = {}  # few distinct texts recur
    for key, text in raw.items():
        simplex = simplices.get(key)
        if simplex is None:
            try:
                q, idx = map(key_int, key.split("/"))
            except ValueError as exc:
                raise MalformedFile(f"bad stalk key {key!r}, expected 'dim/index'") from exc
            raise DanglingReference(f"stalk key {key} names no base simplex")
        if not isinstance(text, str):
            raise MalformedFile(f"stalk {key} must be necklace text like \"(0 1 2)\"")
        word = parsed.get(text)
        if word is None:
            word = parsed[text] = parse_necklace_text(text)
        out[simplex] = word
    return out


def bundle_from_json_dict(doc) -> NecklaceLocalSystem:
    """Read a bundle document into a validated local system; without
    descent data the stalks must be circular permutations, whose descent
    maps are the canonical color embeddings."""
    if not isinstance(doc, Mapping) or "base" not in doc or "stalks" not in doc:
        raise MalformedFile("bundle document needs 'base' and 'stalks'")
    base = SemiSimplicialSet.from_json_dict(doc["base"])
    words = _parse_stalk_keys(doc["stalks"], base)
    for q, n in enumerate(base.counts):
        level = _level(words, q, n)
        if None in level:
            raise MalformedFile(f"missing stalk for simplex {q}/{level.index(None)}")
    raw_maps = doc.get("bead_maps")
    if raw_maps is None:
        # distinct words in the order they first occur, so the stalk named
        # is the first in the document that is not a permutation
        perms = dict.fromkeys(words.values())
        for word in perms:
            try:
                perms[word] = CircularPermutation(word)
            except ValueError as exc:
                q, idx = next(key for key, w in words.items() if w == word)
                raise MalformedFile(
                    f"stalk {q}/{idx} is not a circular permutation "
                    "and no bead_maps are given"
                ) from exc
        stalks = dict(zip(words, map(perms.__getitem__, words.values())))
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
    """Total space in complex format plus the projection table, whose
    rows are tuples ``(dim, index, op)`` sharing the stored operators;
    the writer puts them out as arrays."""
    doc = asm.total.to_json_dict()
    doc["projection"] = {
        str(p): [(ref.dim, ref.index, op) for ref, op in level]
        for p, level in enumerate(asm.projection.table)
    }
    return doc
