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
that the reader returns and the writer takes, and its ``validate`` is
the one check of every bundle, minimal ones included.  Like the base's
face rows, it holds its stalks and bead maps a level at a time, one list
per dimension; the bead maps of a simplex are a tuple of one map per
face, so a minimal system shares one tuple over a whole level.
``MinimalBundle`` is only the circular-permutation record of a minimal
bundle, which the cocycle construction and ``minimize`` produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, count, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping

from ._json import json_int, key_int
from .cyclic import CircularPermutation, Necklace, _cp_face
from .errors import (
    DanglingReference,
    IncoherentLocalSystem,
    MalformedFile,
    MismatchedCarriers,
    NotACocycle,
    NotBinary,
)
from .homology import FundamentalClass, IntCochain, coboundary
from .simplicial import SemiSimplicialSet

__all__ = [
    "NecklaceLocalSystem",
    "MinimalBundle",
    "AssembledBundle",
    "SingularProjection",
    "assemble",
    "minimal_from_cocycle",
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
    """Stalk necklaces over a base plus descent maps along every face,
    one list per dimension.

    ``stalks[q][idx]`` is the necklace over the base simplex q/idx, and
    ``bead_maps[q][idx]``, q >= 1, the tuple of its q + 1 face maps, where
    map i embeds the beads of the stalk over face i into the stalk's beads
    (its image is exactly the set of beads not colored i); level 0 of
    ``bead_maps`` is empty.  The constructor keeps the level lists it is
    given.  Instances, level lists, tuples and maps are never mutated once
    built: spindle moves build new level lists but share every stalk, tuple
    and map they leave unchanged, and a minimal system shares one tuple
    over each level.
    """

    __slots__ = ("base", "stalks", "bead_maps")

    def __init__(self, base, stalks, bead_maps, check=True):
        self.base = base
        self.stalks: list[list[Necklace]] = stalks
        self.bead_maps: list[list[tuple[dict[int, int], ...]]] = bead_maps
        if check:
            _checked(self)

    # -- access --------------------------------------------------------

    def stalk(self, q: int, index: int) -> Necklace:
        level = self.stalks[q] if 0 <= q < len(self.stalks) else ()
        if not 0 <= index < len(level):
            raise DanglingReference(f"no stalk over simplex {q}/{index}")
        return level[index]

    def is_minimal(self) -> bool:
        return all(n.size == q + 1 for q, level in enumerate(self.stalks) for n in level)

    # -- validation ----------------------------------------------------

    def validate(self) -> list[str]:
        """The problems of the stalks, else of the bead maps, else the
        descent maps that do not commute; each check runs once per distinct
        combination, by identity, of the objects over a simplex it reads."""
        base, stalks = self.base, self.stalks
        if problems := _stalk_problems(base, stalks):
            return problems
        commute = []
        below_maps = []
        for q in range(1, base.top_dim + 1):
            below, level, rows = stalks[q - 1], stalks[q], base.face_rows(q)
            maps = self.bead_maps[q] if q < len(self.bead_maps) else []
            if len(maps) < len(level):  # a short level lacks its last maps
                maps = [*maps, *repeat(None, len(level) - len(maps))]
            keys = zip(map(id, level), map(id, maps), *_face_ids(below, rows))
            faults = _once_per_key(
                _face_problems, keys, zip(level, maps, rows, repeat(below))
            )
            for idx in compress(count(), faults):
                for i, what in faults[idx]:
                    problems.append(
                        f"missing bead map along face {i} of {q}/{idx}" if what is None
                        else f"bead map along face {i} of {q}/{idx} {what}"
                    )
            if q > 1 and not problems:
                keys = zip(map(id, maps), *_face_ids(below_maps, rows))
                pairs = _once_per_key(
                    _commute_problems, keys, zip(maps, rows, repeat(below_maps))
                )
                for idx in compress(count(), pairs):
                    commute.extend(
                        f"descent maps of {q}/{idx} do not commute for faces ({i}, {j})"
                        for i, j in pairs[idx]
                    )
            below_maps = maps
        return problems or commute


def _checked(system: NecklaceLocalSystem) -> NecklaceLocalSystem:
    """system, once ``validate`` finds nothing wrong with it."""
    if problems := system.validate():
        raise IncoherentLocalSystem("; ".join(problems))
    return system


def _face_ids(below: list, rows: Iterable[tuple[int, ...]]) -> Iterator[Iterator[int]]:
    """The ids of the objects below that the face rows name, a column per face."""
    ids = list(map(id, below))
    return map(map, repeat(ids.__getitem__), zip(*rows))


def _once_per_key(check, keys: Iterable, args: Iterable[tuple]) -> list:
    """[check(*a) for a in args], calling check once per distinct key."""
    keys = list(keys)
    done = {key: check(*a) for key, a in dict(zip(keys, args)).items()}
    return list(map(done.__getitem__, keys))


def _stalk_problems(base: SemiSimplicialSet, stalks: list) -> list[str]:
    """Simplices without a stalk (a None entry, or a level too short),
    stalks whose top color is not their dimension, and entries past the
    simplices of a level or past the base's levels; a shared stalk is read
    once.  So a system without problems has one stalk per simplex."""
    problems = []
    counts = base.counts
    for q, n in enumerate(counts):
        level = stalks[q][:n] if q < len(stalks) else []
        level += repeat(None, n - len(level))
        if any(s is None or s.top != q for s in dict(zip(map(id, level), level)).values()):
            for idx, stalk in enumerate(level):
                if stalk is None:
                    problems.append(f"missing stalk over {q}/{idx}")
                elif stalk.top != q:
                    problems.append(
                        f"stalk over {q}/{idx} uses colors 0..{stalk.top}, expected 0..{q}"
                    )
    problems.extend(
        f"stalk over missing simplex {q}/{idx}"
        for q, level in enumerate(stalks)
        for idx in range(counts[q] if q < len(counts) else 0, len(level))
    )
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


def _face_problems(big: Necklace, maps, row, below: list) -> list[tuple[int, str | None]]:
    """(i, why) for each face i of a simplex with stalk big whose map in
    maps is missing (why is None) or is not a descent map."""
    faults = []
    for i, (f, bm) in enumerate(zip(row, chain(maps or (), repeat(None)))):
        if bm is None:
            faults.append((i, None))
        elif what := _bead_map_problem(bm, big, below[f], i):
            faults.append((i, what))
    return faults


def _commute_problems(maps: tuple, row, below_maps: list) -> list[tuple[int, int]]:
    """The faces (i, j), i < j, of a simplex along which descending to
    face i of face j and to face j - 1 of face i gives different maps."""
    faces = [below_maps[f] for f in row]
    return [
        (i, j)
        for i, j in combinations(range(len(row)), 2)
        if {db: maps[j][sb] for db, sb in faces[j][i].items()}
        != {db: maps[i][sb] for db, sb in faces[i][j - 1].items()}
    ]


class MinimalBundle:
    """The circular-permutation record of a minimal bundle.

    ``stalks`` maps (dim, index) to the circular permutation over that
    simplex.  Construction validates the local system these stalks
    expand to, unless ``check`` is false; ``minimal_from_cocycle`` and
    ``minimize`` pass false, since their output is coherent by
    construction.
    """

    __slots__ = ("base", "stalks")

    def __init__(self, base, stalks, check=True):
        self.base = base
        self.stalks: dict[SimplexKey, CircularPermutation] = dict(stalks)
        if check:
            _checked(self.as_local_system())

    def stalk(self, q: int, index: int) -> CircularPermutation:
        return self.stalks[(q, index)]

    def as_local_system(self) -> NecklaceLocalSystem:
        """Expand to the general representation: bead ids equal colors and
        descent maps are the canonical color embeddings."""
        return _minimal_system(self.base, _by_level(self.base.counts, self.stalks))

    def __repr__(self):
        return f"MinimalBundle(base={self.base.counts})"


def _by_level(counts: tuple[int, ...], table: Mapping[SimplexKey, object]) -> list[list]:
    """The values of a table keyed (q, idx) as one list per dimension, each
    at least counts[q] long, with None where a key is absent; a key past
    the counts lengthens its level, or adds levels, to hold its value."""
    levels: list[list] = [[None] * n for n in counts]
    for (q, idx), value in table.items():
        if q < 0 or idx < 0:
            raise DanglingReference(f"stalk key {q}/{idx} names no base simplex")
        try:
            levels[q][idx] = value
        except IndexError:
            levels.extend([] for _ in range(q + 1 - len(levels)))
            levels[q].extend(repeat(None, idx + 1 - len(levels[q])))
            levels[q][idx] = value
    return levels


def _minimal_system(
    base: SemiSimplicialSet, stalks: list[list[CircularPermutation | None]]
) -> NecklaceLocalSystem:
    """The local system of circular-permutation stalks, given a level at a
    time: each bead id is its color, and face i sends color c to c below i
    and to c + 1 above.  Equal stalks share one necklace, since few words
    recur over a base, and every q-simplex shares one tuple of the q + 1
    embeddings.  A None entry stays None, for ``validate`` to report."""
    words = [[th.word if th else None for th in level] for level in stalks]
    distinct = dict(zip(chain.from_iterable(words), chain.from_iterable(stalks)))
    shared = {word: Necklace.from_circular(th) if th else None for word, th in distinct.items()}
    necklaces = [list(map(shared.__getitem__, level)) for level in words]
    bead_maps = [[]]
    for q, n in enumerate(base.counts[1:], 1):
        embeddings = tuple({c: (c if c < i else c + 1) for c in range(q)} for i in range(q + 1))
        bead_maps.append([embeddings] * n)
    return NecklaceLocalSystem(base, necklaces, bead_maps, check=False)


# -- total space assembly ----------------------------------------------


@dataclass(frozen=True)
class SingularProjection:
    """Projection of each total simplex to its base simplex.

    ``table[p][i]`` is the row (dim, index, op) that the writer puts out:
    the base simplex dim/index, and op, the values of the monotone
    surjection from vertex positions of the total simplex to those of the
    base simplex: the identity for horizontal entries and the degeneracy
    collapsing positions j, j+1 for a bead of color j.
    """

    base: SemiSimplicialSet
    table: tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]


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
    base simplex has one projection row per operator, shared by its stalk,
    so the total holds few containers for the collector to scan.
    """
    base = system.base
    level: list[Necklace] = []  # the stalks over the base p-simplices
    sizes: list[int] = []  # their sizes
    arcs: list[list[list[int]]] = []  # [m][idx]: arc table along face m of p/idx
    first_h: list[list[int]] = []  # [q][idx]: first horizontal id over q/idx
    first_v: list[list[int]] = []  # [q][idx]: first vertical id over q/idx
    faces: list[list[tuple[int, ...]]] = []
    proj_table = []
    # above the top dimension there are only vertical simplices
    for p, above in enumerate([*system.stalks, []]):
        below, below_sizes, below_arcs, level = level, sizes, arcs, above
        n = len(level)
        sizes = [len(neck.colors) for neck in level]
        identity = tuple(range(p + 1))
        entries = list(chain.from_iterable(
            map(repeat, [(p, idx, identity) for idx in range(n)], sizes)
        ))
        # one more than the simplices: the last is the level's bead count
        first_h.append(list(accumulate(sizes, initial=0)))
        if not p:
            proj_table.append(tuple(entries))
            continue
        face_rows = base.face_rows(p) if n else ()
        level_maps = system.bead_maps[p][:n] if n else ()
        arcs = []
        for m in range(p + 1):
            # face m of every simplex: its stalk, and the bead map along it
            smalls = list(map(below.__getitem__, map(itemgetter(m), face_rows)))
            maps = list(map(itemgetter(m), level_maps))
            keys = zip(map(id, level), map(id, smalls), map(id, maps))
            arcs.append(_once_per_key(_arc_table, keys, zip(level, smalls, maps)))
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
        # row p * idx + j projects a bead of color j over q/idx
        pairs = [(q, idx, op) for idx in range(len(below)) for op in degeneracies]
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
        for idx, (dim, index, s) in enumerate(level):
            rule = rules.get((s, dim))
            if rule is None:
                rule = rules[(s, dim)] = _face_rules(s, dim)
            for m, (f, (v, want_op)) in enumerate(zip(total.face_row(p, idx), rule)):
                f_dim, f_index, fs = below[f]
                if want_op is None:
                    problems.append(
                        f"projection of {p}/{idx} is not a degeneracy operator"
                    )
                    continue
                if v < 0:
                    want_dim, want_index = dim, index
                else:
                    want_dim, want_index = dim - 1, base.face_index(dim, index, v)
                if f_index != want_index or f_dim != want_dim or fs != want_op:
                    problems.append(
                        f"face {m} of {p}/{idx} projects to ({f_dim}/{f_index}, {fs}), "
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
    levels = _by_level(base.counts, system.stalks) if minimal else system.stalks
    texts: dict[tuple[int, ...], str] = {}  # few distinct words recur
    stalks = {}
    for q, level in enumerate(levels):
        for idx, n in enumerate(level):
            colors = n.word if minimal else n.colors
            text = texts.get(colors)
            if text is None:
                text = texts[colors] = format_necklace_text(colors)
            stalks[f"{q}/{idx}"] = text
    doc: dict = {"base": base.to_json_dict(), "stalks": stalks}
    if minimal or system.is_minimal():
        return doc
    maps = {}
    for q in range(1, base.top_dim + 1):
        below = system.stalks[q - 1]
        level = zip(system.stalks[q], system.bead_maps[q], base.face_rows(q))
        for idx, (neck, faces, row) in enumerate(level):
            pos = neck.position
            for i, (f, bm) in enumerate(zip(row, faces)):
                maps[f"{q}/{idx}/{i}"] = [pos[bm[b]] for b in below[f].ids]
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
    levels = _by_level(base.counts, words)
    for q, level in enumerate(levels):
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
        stalks = [list(map(perms.__getitem__, level)) for level in levels]
        return _checked(_minimal_system(base, stalks))
    necklaces = {}
    for key, word in words.items():
        try:
            necklaces[key] = Necklace.from_colors(word)
        except ValueError as exc:
            raise MalformedFile(f"bad stalk over {key[0]}/{key[1]}: {exc}") from exc
    stalks = _by_level(base.counts, necklaces)
    if not isinstance(raw_maps, Mapping):
        raise MalformedFile("'bead_maps' must map 'dim/index/face' keys to rows")
    # the maps of each simplex, by face
    faces = [[[None] * (q + 1) for _ in range(n)] if q else [] for q, n in enumerate(base.counts)]
    for key, row in raw_maps.items():
        try:
            q, idx, i = map(key_int, key.split("/"))
        except ValueError as exc:
            raise MalformedFile(f"bad bead map key {key!r}") from exc
        if not (1 <= q <= base.top_dim and 0 <= idx < base.simplex_count(q) and 0 <= i <= q):
            raise DanglingReference(f"bead map key {key} names no face")
        small = stalks[q - 1][base.face_index(q, idx, i)]
        big = stalks[q][idx]
        if not isinstance(row, list) or len(row) != small.size:
            raise MalformedFile(f"bead map {key} must list {small.size} bead positions")
        what = f"a position in bead map {key}"
        targets = [json_int(t, what) for t in row]
        if any(not 0 <= t < big.size for t in targets):
            raise MalformedFile(f"bead map {key} points outside the stalk")
        faces[q][idx][i] = {small.ids[p]: big.ids[t] for p, t in enumerate(targets)}
    return NecklaceLocalSystem(base, stalks, [list(map(tuple, level)) for level in faces])


def total_to_json_dict(asm: AssembledBundle) -> dict:
    """Total space in complex format plus the projection table, whose
    stored rows ``(dim, index, op)`` the writer puts out as arrays."""
    doc = asm.total.to_json_dict()
    doc["projection"] = {str(p): level for p, level in enumerate(asm.projection.table)}
    return doc
