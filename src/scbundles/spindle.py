"""Spindle moves on necklace local systems.

Contracting a bead of a vertex circle removes its trace from every stalk
over the vertex's star; splitting a bead is the inverse move.  Iterating
contractions until each vertex circle has a single bead reduces any
bundle to a minimal one, and the result depends only on which bead is
kept over each vertex, not on the order of removals.  So ``minimize``
computes it in one pass: over a simplex, the bead kept at color p is the
image of the kept bead of the vertex at position p.
"""

from __future__ import annotations

from typing import Mapping

from .bundle import MinimalBundle, NecklaceLocalSystem, chern_cocycle
from .cyclic import CircularPermutation, Necklace
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


def _check_vertex(system: NecklaceLocalSystem, v: int) -> Necklace:
    if not 0 <= v < system.base.simplex_count(0):
        raise DanglingReference(f"no vertex {v} in the base")
    return system.stalk(0, v)


def _vertex_positions(base, q: int, idx: int, v: int) -> list[int]:
    return [p for p in range(q + 1) if base.vertex_at(q, idx, p) == v]


def contract(
    system: NecklaceLocalSystem, v: int, bead: int, check: bool = True
) -> NecklaceLocalSystem:
    """Remove bead from the circle over v and its trace from every stalk.

    Over a simplex containing v at positions P, the beads removed are the
    embedded images of the bead at each position in P; they have pairwise
    distinct colors, so each color class keeps at least one bead as long
    as the vertex circle itself does.
    """
    circle = _check_vertex(system, v)
    if not circle.has_bead(bead):
        raise BeadNotFound(f"vertex {v} has no bead {bead}")
    if circle.size == 1:
        raise LastArc(f"bead {bead} is the only bead over vertex {v}")
    base = system.base
    stalks: dict[tuple[int, int], Necklace] = {}
    removed: dict[tuple[int, int], set[int]] = {}
    for (q, idx), neck in system.stalks.items():
        gone = {
            system.vertex_embedding(q, idx, p)[bead]
            for p in _vertex_positions(base, q, idx, v)
        }
        removed[(q, idx)] = gone
        if gone:
            picked = [(b, c) for b, c in neck.beads() if b not in gone]
            stalks[(q, idx)] = Necklace(
                tuple(c for _, c in picked), tuple(b for b, _ in picked)
            )
        else:
            stalks[(q, idx)] = neck
    bead_maps = {}
    for (q, idx, i), m in system.bead_maps.items():
        fidx = base.face_index(q, idx, i)
        gone_small = removed[(q - 1, fidx)]
        gone_big = removed[(q, idx)]
        kept = {s: t for s, t in m.items() if s not in gone_small}
        if any(t in gone_big for t in kept.values()):
            raise IncoherentLocalSystem(
                f"contracting bead {bead} over vertex {v} removes the image of "
                f"a surviving bead along face {i} of {q}/{idx}"
            )
        bead_maps[(q, idx, i)] = kept
    return NecklaceLocalSystem(base, stalks, bead_maps, check=check)


def subdivide(
    system: NecklaceLocalSystem, v: int, bead: int, check: bool = True
) -> NecklaceLocalSystem:
    """Split bead into two adjacent beads of its color in every stalk
    where it appears.  Fresh ids count up from each stalk's current
    maximum, one per affected position, so contracting the new vertex
    bead restores the original system verbatim.
    """
    circle = _check_vertex(system, v)
    if not circle.has_bead(bead):
        raise BeadNotFound(f"vertex {v} has no bead {bead}")
    base = system.base
    stalks: dict[tuple[int, int], Necklace] = {}
    fresh: dict[tuple[int, int], dict[int, int]] = {}
    for (q, idx), neck in system.stalks.items():
        positions = _vertex_positions(base, q, idx, v)
        if not positions:
            stalks[(q, idx)] = neck
            fresh[(q, idx)] = {}
            continue
        next_id = max(neck.ids) + 1
        minted = {}
        split_after = {}
        for p in positions:
            target = system.vertex_embedding(q, idx, p)[bead]
            minted[p] = next_id
            split_after[target] = next_id
            next_id += 1
        seq = []
        for b, c in neck.beads():
            seq.append((b, c))
            if b in split_after:
                seq.append((split_after[b], c))
        stalks[(q, idx)] = Necklace(
            tuple(c for _, c in seq), tuple(b for b, _ in seq)
        )
        fresh[(q, idx)] = minted
    bead_maps = {}
    for (q, idx, i), m in system.bead_maps.items():
        fidx = base.face_index(q, idx, i)
        extended = dict(m)
        for p_small, new_small in fresh[(q - 1, fidx)].items():
            p_big = p_small if p_small < i else p_small + 1
            extended[new_small] = fresh[(q, idx)][p_big]
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


def minimize(
    system: NecklaceLocalSystem, selection: ArcSelection | None = None
) -> MinimalBundle:
    """The minimal bundle left by contracting every non-selected bead.

    It is computed in one pass rather than by a chain of contractions: a
    stalk with one bead per color keeps it, and any other stalk keeps, at
    each vertex position p, the embedded image of the bead selected over
    the vertex at p; the kept beads, read in circular order, give the
    circular permutation.
    """
    if selection is None:
        selection = default_selection(system)
    validate_selection(system, selection)
    base = system.base
    words = {}
    for (q, idx), neck in system.stalks.items():
        if neck.size == q + 1:
            words[(q, idx)] = neck.to_circular()
            continue
        kept = {
            system.vertex_embedding(q, idx, p)[selection[base.vertex_at(q, idx, p)]]
            for p in range(q + 1)
        }
        words[(q, idx)] = CircularPermutation(
            tuple(c for b, c in neck.beads() if b in kept)
        )
    return MinimalBundle(base, words, check=False)


def chern_cocycle_general(
    system: NecklaceLocalSystem, selection: ArcSelection | None = None
) -> IntCochain:
    """Triangle parities after reduction; selection-dependent as a
    cochain but always in one cohomology class."""
    return chern_cocycle(minimize(system, selection))
