"""Spindle moves on necklace local systems.

Contracting a bead of a vertex circle removes its trace from every stalk
over the vertex's star; splitting a bead is the inverse move.  Either
move shares every other stalk and maps tuple with its input.  A move
reads only the star: it walks up from the vertex through the base's
coface table and takes the bead's image over each star simplex from one
face of it.  Its one cost in proportion to the base is a single copy of
the two outer dicts, of stalks and of bead maps, one entry per simplex.

Iterating contractions until each vertex circle has a single bead
reduces any bundle to a minimal one, and the result depends only on
which bead is kept over each vertex, not on the order of removals.  So
``minimize`` computes it in one pass: over a simplex, the bead kept at
color p is the image of the kept bead of the vertex at position p.
"""

from __future__ import annotations

from typing import Mapping

from .bundle import MinimalBundle, NecklaceLocalSystem, _checked
from .cyclic import CircularPermutation, Necklace, c01
from .errors import BeadNotFound, DanglingReference, IncoherentLocalSystem, LastArc
from .homology import IntCochain

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
    those faces' maps.  Taken from a vertex up, these steps carry a vertex
    bead to its image in every stalk of the star; by coherence of the bead
    maps the image does not depend on the faces passed through."""
    lifted = {p: maps[q][b] for p, b in high.items()}
    if (b := low.get(q - 1)) is not None:
        lifted[q] = maps[q - 1][b]
    return lifted


def _star(
    system: NecklaceLocalSystem, v: int, bead: int
) -> dict[tuple[int, int], dict[int, int]]:
    """Each simplex of v's star, dimension by dimension and ascending in
    each, with the image of bead at every position where v sits.

    A simplex of dimension q >= 1 contains v exactly when one of its
    faces does, so the star is walked up through the cofaces, and the
    images over each simplex are ``_lifted`` from those over its faces.
    """
    base = system.base
    if not 0 <= v < base.simplex_count(0):
        raise DanglingReference(f"no vertex {v} in the base")
    if not system.stalk(0, v).has_bead(bead):
        raise BeadNotFound(f"vertex {v} has no bead {bead}")
    level = {v: {0: bead}}
    star = {(0, v): level[v]}
    for q in range(1, base.top_dim + 1):
        above = {}
        for idx in sorted({x for y in level for x in base.cofaces(q - 1, y)}):
            row = base.face_row(q, idx)
            above[idx] = star[(q, idx)] = _lifted(
                system.bead_maps[(q, idx)], q,
                level.get(row[q - 1], {}), level.get(row[q], {}),
            )
        level = above
    return star


def _replaced(
    system: NecklaceLocalSystem,
    stalks: dict[tuple[int, int], Necklace],
    bead_maps: dict[tuple[int, int], tuple[dict[int, int], ...]],
    check: bool,
) -> NecklaceLocalSystem:
    """system with the given stalks and maps tuples in place of its own.
    The two outer dicts are copied once; every other entry is shared."""
    moved = NecklaceLocalSystem(system.base, system.stalks, system.bead_maps, check=False)
    moved.stalks.update(stalks)
    moved.bead_maps.update(bead_maps)
    return _checked(moved) if check else moved


def contract(
    system: NecklaceLocalSystem, v: int, bead: int, check: bool = True
) -> NecklaceLocalSystem:
    """Remove bead from the circle over v and its trace from every stalk
    over v's star; every other stalk and maps tuple is shared with system.

    Over a simplex containing v at positions P, the beads removed are the
    embedded images of the bead at each position in P; they have pairwise
    distinct colors, so each color class keeps at least one bead as long
    as the vertex circle itself does.
    """
    removed = {key: set(imgs.values()) for key, imgs in _star(system, v, bead).items()}
    if system.stalk(0, v).size == 1:
        raise LastArc(f"bead {bead} is the only bead over vertex {v}")
    base = system.base
    stalks = {}
    bead_maps = {}
    for (q, idx), gone in removed.items():
        picked = [(c, b) for b, c in system.stalks[(q, idx)].beads() if b not in gone]
        stalks[(q, idx)] = Necklace(*zip(*picked))
        if not q:
            continue
        maps = []
        for i, (f, m) in enumerate(zip(base.face_row(q, idx), system.bead_maps[(q, idx)])):
            gone_small = removed.get((q - 1, f), ())
            kept = {s: t for s, t in m.items() if s not in gone_small}
            if any(t in gone for t in kept.values()):
                raise IncoherentLocalSystem(
                    f"contracting bead {bead} over vertex {v} removes the image of "
                    f"a surviving bead along face {i} of {q}/{idx}"
                )
            maps.append(kept)
        bead_maps[(q, idx)] = tuple(maps)
    return _replaced(system, stalks, bead_maps, check)


def subdivide(
    system: NecklaceLocalSystem, v: int, bead: int, check: bool = True
) -> NecklaceLocalSystem:
    """Split bead into two adjacent beads of its color in every stalk over
    v's star; every other stalk and maps tuple is shared with system, as
    is each map along a face without v.  Fresh ids count up from each
    stalk's maximum, one per position of v, so contracting the new vertex
    bead restores the original verbatim."""
    star = _star(system, v, bead)
    base = system.base
    stalks = {}
    bead_maps = {}
    fresh: dict[tuple[int, int], dict[int, int]] = {}
    for (q, idx), images in star.items():
        neck = system.stalks[(q, idx)]
        first = max(neck.ids) + 1
        minted = fresh[(q, idx)] = {p: first + k for k, p in enumerate(images)}
        stalks[(q, idx)] = neck.split({images[p]: b for p, b in minted.items()})
        if not q:
            continue
        maps = list(system.bead_maps[(q, idx)])
        for i, f in enumerate(base.face_row(q, idx)):
            small_minted = fresh.get((q - 1, f))
            if small_minted is None:
                continue  # v is not on this face, so its map stays as it is
            extended = maps[i] = dict(maps[i])
            for p_small, new_small in small_minted.items():
                p_big = p_small if p_small < i else p_small + 1
                extended[new_small] = minted[p_big]
        bead_maps[(q, idx)] = tuple(maps)
    return _replaced(system, stalks, bead_maps, check)


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


def _kept_at_vertices(
    system: NecklaceLocalSystem, selection: ArcSelection | None
) -> dict[tuple[int, int], dict[int, int]]:
    """{(0, v): {0: bead}} for the bead selection keeps over each vertex v,
    after checking it: the memo that ``_kept_beads`` starts from."""
    if selection is None:
        selection = default_selection(system)
    validate_selection(system, selection)
    return {(0, v): {0: b} for v, b in selection.items()}


def _kept_beads(
    system: NecklaceLocalSystem,
    kept: dict[tuple[int, int], dict[int, int]],
    q: int,
    idx: int,
) -> dict[int, int]:
    """The bead kept at each vertex position of (q, idx): the image of the
    bead selected over the vertex there.  ``kept`` memoizes it per simplex
    and starts out holding {0: selected bead} for each vertex; every
    other entry is ``_lifted`` from its faces, each face read once."""
    beads = kept.get((q, idx))
    if beads is None:
        row = system.base.face_row(q, idx)
        beads = kept[(q, idx)] = _lifted(
            system.bead_maps[(q, idx)], q,
            _kept_beads(system, kept, q - 1, row[q - 1]),
            _kept_beads(system, kept, q - 1, row[q]),
        )
    return beads


def _kept_word(
    system: NecklaceLocalSystem,
    kept: dict[tuple[int, int], dict[int, int]],
    q: int,
    idx: int,
) -> CircularPermutation:
    """The circular permutation left over simplex (q, idx) once every
    non-selected bead is contracted.

    A stalk with one bead per color keeps it; any other stalk keeps the
    beads ``_kept_beads`` names over it, and the kept beads in circular
    order give the word.
    """
    neck = system.stalks[(q, idx)]
    if neck.size == q + 1:
        return neck.to_circular()
    chosen = set(_kept_beads(system, kept, q, idx).values())
    return CircularPermutation(tuple(c for b, c in neck.beads() if b in chosen))


def minimize(
    system: NecklaceLocalSystem, selection: ArcSelection | None = None
) -> MinimalBundle:
    """The minimal bundle left by contracting every non-selected bead.

    It is computed in one pass, stalk by stalk, rather than by a chain of
    contractions.
    """
    kept = _kept_at_vertices(system, selection)
    words = {key: _kept_word(system, kept, *key) for key in system.stalks}
    return MinimalBundle(system.base, words, check=False)


def chern_cocycle_general(
    system: NecklaceLocalSystem, selection: ArcSelection | None = None
) -> IntCochain:
    """Triangle parities after reduction; selection-dependent as a
    cochain but always in one cohomology class.  Only the triangle words
    of the minimal bundle are built."""
    kept = _kept_at_vertices(system, selection)
    return IntCochain(2, tuple(
        c01(_kept_word(system, kept, 2, idx))
        for idx in system.base.simplices(2)
    ))
