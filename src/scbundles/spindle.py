"""Spindle moves on necklace local systems.

Contracting a bead of a vertex circle removes its trace from every stalk
over the vertex's star; splitting a bead is the inverse move.  Either
move shares every other stalk and maps tuple with its input.  A move
reads only the star, and walks it once: level by level, up from the
vertex through the base's coface table.  Over each star simplex it takes
the bead's images at the vertex's positions from two faces one level
down, and rewrites the simplex's stalk and face maps in the same step.
Its one cost in proportion to the base is its copy of each level list,
of stalks and of bead maps, one entry per simplex, which it writes the
star into.

Iterating contractions until each vertex circle has a single bead
reduces any bundle to a minimal one, and the result depends only on
which bead is kept over each vertex, not on the order of removals.  So
``minimize`` computes it in one walk over the whole base, a level at a
time, up from the vertices through the face table: over a simplex, the
bead kept at color p is the image of the bead kept over the vertex at
position p, lifted from the beads kept over two of its faces one level
down.  That is the face step a move takes: the moves walk the star, and
the reduction walks the whole base.  ``chern_cocycle_general`` stops
the walk at the triangles.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping

from .bundle import MinimalBundle, NecklaceLocalSystem, _checked
from .cyclic import CircularPermutation, Necklace, c01
from .errors import BeadNotFound, DanglingReference, IncoherentLocalSystem, LastArc
from .homology import IntCochain
from .simplicial import SemiSimplicialSet

__all__ = [
    "ArcSelection",
    "contract",
    "subdivide",
    "minimize",
    "chern_cocycle_general",
    "default_selection",
    "validate_selection",
]

ArcSelection = Mapping[int, int]


def _lifted(
    maps: tuple[Mapping[int, int], ...],
    q: int,
    low: Mapping[int, int],
    high: Mapping[int, int],
) -> dict[int, int]:
    """Beads over a q-simplex with face maps ``maps``, by vertex position,
    lifted one face step from beads over two of its faces.  A vertex at
    position p < q sits at p in face q, and one at q at q - 1 in face q - 1;
    so ``high`` (over face q) and ``low`` (over face q - 1) are pushed along
    those faces' maps.  Taken a level at a time from the vertices up, the
    step carries a vertex bead to its image in every stalk above it:
    ``contract`` takes it over a vertex's star (``subdivide`` inlines it),
    and the reduction over the whole base, from the bead kept over each
    vertex.  By coherence of the bead maps the image does not depend on
    the faces passed through."""
    lifted = {p: maps[q][b] for p, b in high.items()}
    if (b := low.get(q - 1)) is not None:
        lifted[q] = maps[q - 1][b]
    return lifted


def _circle(system: NecklaceLocalSystem, v: int, bead: int) -> Necklace:
    """The stalk over vertex v, once it is known to hold bead."""
    if not 0 <= v < system.base.simplex_count(0):
        raise DanglingReference(f"no vertex {v} in the base")
    circle = system.stalks[0][v]
    if not circle.has_bead(bead):
        raise BeadNotFound(f"vertex {v} has no bead {bead}")
    return circle


def _star_level(base: SemiSimplicialSet, q: int, below: Mapping[int, object]) -> list[int]:
    """The q-simplices of a vertex's star, ascending, from its
    (q - 1)-simplices, the keys of below: a simplex of dimension q >= 1
    contains the vertex exactly when one of its faces does."""
    return sorted({x for y in below for x in base.cofaces(q - 1, y)})


def contract(system: NecklaceLocalSystem, v: int, bead: int) -> NecklaceLocalSystem:
    """Remove bead from the circle over v and its trace from every stalk
    over v's star; every other stalk and maps tuple is shared with system.

    Over a simplex containing v at positions P, the beads removed are the
    embedded images of the bead at each position in P; they have pairwise
    distinct colors, so each color class keeps at least one bead as long
    as the vertex circle itself does.

    The star is walked once, a level at a time, as in ``subdivide``: over
    each simplex the images are ``_lifted`` from those over its faces one
    level down, and its stalk and face maps are cut in the same step.
    """
    circle = _circle(system, v, bead)
    if circle.size == 1:
        raise LastArc(f"bead {bead} is the only bead over vertex {v}")
    base = system.base
    # a copy of each level list; the star's entries are replaced in it
    stalks, bead_maps = list(map(list, system.stalks)), list(map(list, system.bead_maps))
    stalks[0][v] = Necklace(*zip(*((c, b) for b, c in circle.beads() if b != bead)))
    # over each star simplex of the level below, by index: the image of
    # bead at each position of v, and the set of those images
    images, removed = {v: {0: bead}}, {v: {bead}}
    for q in range(1, base.top_dim + 1):
        images_above, removed_above = {}, {}
        for idx in _star_level(base, q, images):
            row = base.face_row(q, idx)
            maps = system.bead_maps[q][idx]
            lifted = images_above[idx] = _lifted(
                maps, q, images.get(row[q - 1], {}), images.get(row[q], {})
            )
            gone = removed_above[idx] = set(lifted.values())
            picked = [(c, b) for b, c in system.stalks[q][idx].beads() if b not in gone]
            stalks[q][idx] = Necklace(*zip(*picked))
            kept_maps = []
            for i, (f, m) in enumerate(zip(row, maps)):
                gone_small = removed.get(f, ())
                kept = {s: t for s, t in m.items() if s not in gone_small}
                if any(t in gone for t in kept.values()):
                    raise IncoherentLocalSystem(
                        f"contracting bead {bead} over vertex {v} removes the image of "
                        f"a surviving bead along face {i} of {q}/{idx}"
                    )
                kept_maps.append(kept)
            bead_maps[q][idx] = tuple(kept_maps)
        images, removed = images_above, removed_above
    return _checked(NecklaceLocalSystem(base, stalks, bead_maps, check=False))


def subdivide(
    system: NecklaceLocalSystem, v: int, bead: int, check: bool = True
) -> NecklaceLocalSystem:
    """Split bead into two adjacent beads of its color in every stalk over
    v's star; every other stalk and maps tuple is shared with system, as
    is each map along a face without v.  Fresh ids count up from each
    stalk's maximum, one per position of v, so contracting the new vertex
    bead restores the original verbatim.

    The star is walked once, a level at a time.  Over each simplex, in
    one step, the images of bead at the positions of v are lifted from
    the faces q - 1 and q, which hold them one level down; the fresh ids
    are minted; the stalk is split; and each face map along a face with
    v is extended by the fresh ids minted over that face.
    """
    circle = _circle(system, v, bead)
    base = system.base
    # a copy of each level list; the star's entries are replaced in it
    stalks, bead_maps = list(map(list, system.stalks)), list(map(list, system.bead_maps))
    new = max(circle.ids) + 1
    stalks[0][v] = circle.split({bead: new})
    # over each star simplex of the level below, by index: the image of
    # bead and the fresh id at each position of v
    images, minted = {v: {0: bead}}, {v: {0: new}}
    for q in range(1, base.top_dim + 1):
        necks, level_maps, q_low = system.stalks[q], system.bead_maps[q], q - 1
        images_above, minted_above = {}, {}
        for idx in _star_level(base, q, images):
            row = base.face_row(q, idx)
            maps = list(level_maps[idx])
            neck = necks[idx]
            first = max(neck.ids) + 1
            lifted, fresh, after = {}, {}, {}
            if high := images.get(row[q]):  # v at p < q sits at p in face q
                along = maps[q]
                for p, b in high.items():
                    lifted[p] = b = along[b]
                    fresh[p] = after[b] = first
                    first += 1
            low = images.get(row[q_low])  # v at q sits at q - 1 in face q - 1
            if low and q_low in low:
                lifted[q] = b = maps[q_low][low[q_low]]
                fresh[q] = after[b] = first
            stalks[q][idx] = neck.split(after)
            for i, f in enumerate(row):
                if (small := minted.get(f)) is not None:
                    extended = maps[i] = dict(maps[i])
                    for p, b in small.items():
                        extended[b] = fresh[p + (p >= i)]
            bead_maps[q][idx] = tuple(maps)
            images_above[idx], minted_above[idx] = lifted, fresh
        images, minted = images_above, minted_above
    moved = NecklaceLocalSystem(base, stalks, bead_maps, check=False)
    return _checked(moved) if check else moved


def default_selection(system: NecklaceLocalSystem) -> dict[int, int]:
    """Keep the first bead of each vertex circle in its canonical turning."""
    return {
        v: system.stalk(0, v).ids[0]
        for v in system.base.simplices(0)
    }


def validate_selection(system: NecklaceLocalSystem, selection: ArcSelection) -> None:
    vertices = system.base.simplices(0)
    for v in selection:
        if v not in vertices:
            raise DanglingReference(f"selection names vertex {v}, which the base lacks")
    for v in vertices:
        if v not in selection:
            raise BeadNotFound(f"selection keeps no bead over vertex {v}")
        if not system.stalk(0, v).has_bead(selection[v]):
            raise BeadNotFound(
                f"selection keeps bead {selection[v]} over vertex {v}, "
                "which does not exist"
            )


def _kept_levels(
    system: NecklaceLocalSystem, selection: ArcSelection | None, top: int
) -> list[list[dict[int, int]]]:
    """The bead kept at each vertex position of every simplex of dimension
    at most top, one list per level in index order, after checking the
    selection.  Level 0 holds {0: selected bead} over each vertex; level q
    is ``_lifted`` from level q - 1 along each q-simplex's face row."""
    if selection is None:
        selection = default_selection(system)
    validate_selection(system, selection)
    base = system.base
    levels = [[{0: selection[v]} for v in base.simplices(0)]]
    for q in range(1, min(top, base.top_dim) + 1):
        kept = levels[-1]
        levels.append([
            _lifted(maps, q, kept[row[q - 1]], kept[row[q]])
            for maps, row in zip(system.bead_maps[q], base.face_rows(q))
        ])
    return levels


def _kept_word(
    neck: Necklace,
    kept: Mapping[int, int],
    perms: dict[tuple[int, ...], CircularPermutation],
) -> CircularPermutation:
    """The word left of neck once every bead but the kept ones, one per
    vertex position, is contracted: neck's own if it has one bead per
    color, else the colors of the kept beads in circular order.  A word
    is made a ``CircularPermutation`` once per call of the caller, which
    passes ``perms``: the permutation of each word met so far."""
    if neck.size == len(kept):
        word = neck.colors
    else:
        chosen = set(kept.values())
        word = tuple(compress(neck.colors, map(chosen.__contains__, neck.ids)))
    perm = perms.get(word)
    if perm is None:
        perm = perms[word] = CircularPermutation(word)
    return perm


def minimize(
    system: NecklaceLocalSystem, selection: ArcSelection | None = None
) -> MinimalBundle:
    """The minimal bundle left by contracting every non-selected bead.

    Rather than a chain of contractions, one walk over the whole base, a
    level at a time, lifts the kept beads over each simplex from those
    over its faces by the moves' face step; each stalk's word is read
    off its kept beads.
    """
    levels = _kept_levels(system, selection, system.base.top_dim)
    perms: dict = {}
    words = {
        (q, idx): _kept_word(neck, beads, perms)
        for q, (necks, kept) in enumerate(zip(system.stalks, levels))
        for idx, (neck, beads) in enumerate(zip(necks, kept))
    }
    return MinimalBundle(system.base, words, check=False)


def chern_cocycle_general(
    system: NecklaceLocalSystem, selection: ArcSelection | None = None
) -> IntCochain:
    """Triangle parities after reduction; selection-dependent as a
    cochain but always in one cohomology class.  The walk of ``minimize``
    stops at the triangles, and only their words are built; a base
    without triangles has the empty cochain."""
    levels = _kept_levels(system, selection, 2)
    perms: dict = {}
    # levels[2:] holds the triangles, or nothing below dimension 2
    return IntCochain(2, tuple(
        c01(_kept_word(neck, beads, perms))
        for necks, kept in zip(system.stalks[2:], levels[2:])
        for neck, beads in zip(necks, kept)
    ))
