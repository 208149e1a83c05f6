"""Spindle moves on necklace local systems.

Contracting a bead of a vertex circle removes its trace from every stalk
over the vertex's star; splitting a bead is the inverse move.  Either
move shares every other stalk and bead map with its input.  Iterating
contractions until each vertex circle has a single bead reduces any
bundle to a minimal one, and the result depends only on which bead is
kept over each vertex, not on the order of removals.  So ``minimize``
computes it in one pass: over a simplex, the bead kept at color p is the
image of the kept bead of the vertex at position p.
"""

from __future__ import annotations

from typing import Mapping

from .bundle import MinimalBundle, NecklaceLocalSystem
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


def _star(
    system: NecklaceLocalSystem, v: int, bead: int
) -> dict[tuple[int, int], dict[int, int]]:
    """Each simplex of v's star, dimension by dimension, with the image of
    bead at every position where v sits.  A simplex of dimension at least
    1 contains v exactly when one of its faces does, so the star is found
    from the face rows, and vertices and embeddings are read on it alone.
    """
    base = system.base
    if not 0 <= v < base.simplex_count(0):
        raise DanglingReference(f"no vertex {v} in the base")
    if not system.stalk(0, v).has_bead(bead):
        raise BeadNotFound(f"vertex {v} has no bead {bead}")
    star = {(0, v): {0: bead}}
    level = {v}
    for q in range(1, base.top_dim + 1):
        level = {
            idx for idx in base.simplices(q)
            if not level.isdisjoint(base.face_row(q, idx))
        }
        for idx in sorted(level):
            star[(q, idx)] = {
                p: system.vertex_embedding(q, idx, p)[bead]
                for p, u in enumerate(base.vertices_of(q, idx)) if u == v
            }
    return star


def contract(
    system: NecklaceLocalSystem, v: int, bead: int, check: bool = True
) -> NecklaceLocalSystem:
    """Remove bead from the circle over v and its trace from every stalk
    over v's star; every other stalk and bead map is shared with system.

    Over a simplex containing v at positions P, the beads removed are the
    embedded images of the bead at each position in P; they have pairwise
    distinct colors, so each color class keeps at least one bead as long
    as the vertex circle itself does.
    """
    removed = {key: set(imgs.values()) for key, imgs in _star(system, v, bead).items()}
    if system.stalk(0, v).size == 1:
        raise LastArc(f"bead {bead} is the only bead over vertex {v}")
    base = system.base
    stalks = dict(system.stalks)
    bead_maps = dict(system.bead_maps)
    for (q, idx), gone in removed.items():
        picked = [(c, b) for b, c in stalks[(q, idx)].beads() if b not in gone]
        stalks[(q, idx)] = Necklace(*zip(*picked))
        for i, f in enumerate(base.face_row(q, idx) if q else ()):
            gone_small = removed.get((q - 1, f), ())
            m = bead_maps[(q, idx, i)]
            kept = {s: t for s, t in m.items() if s not in gone_small}
            if any(t in gone for t in kept.values()):
                raise IncoherentLocalSystem(
                    f"contracting bead {bead} over vertex {v} removes the image of "
                    f"a surviving bead along face {i} of {q}/{idx}"
                )
            bead_maps[(q, idx, i)] = kept
    return NecklaceLocalSystem(base, stalks, bead_maps, check=check)


def subdivide(
    system: NecklaceLocalSystem, v: int, bead: int, check: bool = True
) -> NecklaceLocalSystem:
    """Split bead into two adjacent beads of its color in every stalk over
    v's star; every other stalk and bead map is shared with system.  Fresh
    ids count up from each stalk's maximum, one per position of v, so
    contracting the new vertex bead restores the original verbatim."""
    star = _star(system, v, bead)
    base = system.base
    stalks = dict(system.stalks)
    bead_maps = dict(system.bead_maps)
    fresh: dict[tuple[int, int], dict[int, int]] = {}
    for (q, idx), images in star.items():
        neck = stalks[(q, idx)]
        first = max(neck.ids) + 1
        minted = fresh[(q, idx)] = {p: first + k for k, p in enumerate(images)}
        split_after = {images[p]: b for p, b in minted.items()}
        seq = []
        for b, c in neck.beads():
            seq.append((c, b))
            if b in split_after:
                seq.append((c, split_after[b]))
        stalks[(q, idx)] = Necklace(*zip(*seq))
        for i, f in enumerate(base.face_row(q, idx) if q else ()):
            extended = dict(bead_maps[(q, idx, i)])
            for p_small, new_small in fresh.get((q - 1, f), {}).items():
                p_big = p_small if p_small < i else p_small + 1
                extended[new_small] = minted[p_big]
            bead_maps[(q, idx, i)] = extended
    return NecklaceLocalSystem(base, stalks, bead_maps, check=check)


def default_selection(system: NecklaceLocalSystem) -> dict[int, int]:
    """Keep the first bead of each vertex circle in its canonical turning."""
    return {
        v: system.stalk(0, v).ids[0]
        for v in system.base.simplices(0)
    }


def validate_selection(system: NecklaceLocalSystem, selection: ArcSelection) -> None:
    for v in system.base.simplices(0):
        if v not in selection:
            raise BeadNotFound(f"selection keeps no bead over vertex {v}")
        if not system.stalk(0, v).has_bead(selection[v]):
            raise BeadNotFound(
                f"selection keeps bead {selection[v]} over vertex {v}, "
                "which does not exist"
            )


def _checked_selection(
    system: NecklaceLocalSystem, selection: ArcSelection | None
) -> ArcSelection:
    if selection is None:
        selection = default_selection(system)
    validate_selection(system, selection)
    return selection


def _kept_word(
    system: NecklaceLocalSystem, selection: ArcSelection, q: int, idx: int
) -> CircularPermutation:
    """The circular permutation left over simplex (q, idx) once every
    non-selected bead is contracted.

    A stalk with one bead per color keeps it; any other stalk keeps, at
    each vertex position p, the embedded image of the bead selected over
    the vertex at p, and the kept beads in circular order give the word.
    """
    neck = system.stalks[(q, idx)]
    if neck.size == q + 1:
        return neck.to_circular()
    base = system.base
    kept = {
        system.vertex_embedding(q, idx, p)[selection[base.vertex_at(q, idx, p)]]
        for p in range(q + 1)
    }
    return CircularPermutation(tuple(c for b, c in neck.beads() if b in kept))


def minimize(
    system: NecklaceLocalSystem, selection: ArcSelection | None = None
) -> MinimalBundle:
    """The minimal bundle left by contracting every non-selected bead.

    It is computed in one pass, stalk by stalk, rather than by a chain of
    contractions.
    """
    selection = _checked_selection(system, selection)
    words = {key: _kept_word(system, selection, *key) for key in system.stalks}
    return MinimalBundle(system.base, words, check=False)


def chern_cocycle_general(
    system: NecklaceLocalSystem, selection: ArcSelection | None = None
) -> IntCochain:
    """Triangle parities after reduction; selection-dependent as a
    cochain but always in one cohomology class.  Only the triangle words
    of the minimal bundle are built."""
    selection = _checked_selection(system, selection)
    return IntCochain(2, tuple(
        c01(_kept_word(system, selection, 2, idx))
        for idx in system.base.simplices(2)
    ))
