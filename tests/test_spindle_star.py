"""The spindle moves against whole-walk references.

``contract`` and ``subdivide`` rebuild only the stalks over the star of
the vertex and the bead maps of the star's simplices.  The references
below walk every stalk and every bead map of the system instead.  On
random systems both must give equal stalks and bead maps in the same
order, raise the same errors, and the library moves must share every
stalk and tuple of bead maps outside the star with their input.

The library walks the star up the base's coface table, a level at a
time, and splices each star stalk in the same step.  The scan below
tests every face row of the base instead, and reads each image through
``vertex_embedding``.  The stalks a move replaces, and the beads it
splits or removes in them, must be the scan's, and a move must read as
many face rows on a large torus as on a small one.  A move is pure: it
leaves every stalk and bead map of its input as it was.
"""

import random

from scbundles import (
    BeadNotFound,
    DanglingReference,
    IncoherentLocalSystem,
    LastArc,
    Necklace,
    NecklaceLocalSystem,
    ScbError,
    SemiSimplicialSet,
    contract,
    minimal_from_cocycle,
    named_base,
    octahedron_sphere,
    subdivide,
)
from generators import (
    BUNDLE_BASES,
    NAMED_EXAMPLES,
    grid_torus,
    random_binary_cocycle,
    random_moves,
    random_necklace,
    random_system,
    vertex_order_cocycle,
)
from oracles import elementary_system, vertex_at, vertex_embedding, vertices_of

BASES = BUNDLE_BASES + (octahedron_sphere(), grid_torus(3))
CASES = 200
CHAIN = 5  # moves per elementary system


def _check_vertex(system, v):
    if not 0 <= v < system.base.simplex_count(0):
        raise DanglingReference(f"no vertex {v} in the base")
    return system.stalk(0, v)


def _vertex_positions(base, q, idx, v):
    return [p for p in range(q + 1) if vertex_at(base, q, idx, p) == v]


def keyed(levels):
    """((q, idx), entry) for every entry of a per-dimension table."""
    return [((q, idx), x) for q, level in enumerate(levels) for idx, x in enumerate(level)]


def by_level(table):
    """A table keyed (q, idx), complete in every level, as one list per
    dimension."""
    levels = []
    for (q, idx), x in sorted(table.items()):
        levels.extend([] for _ in range(q + 1 - len(levels)))
        levels[q].append(x)
    return levels


def reference_contract(system, v, bead):
    circle = _check_vertex(system, v)
    if not circle.has_bead(bead):
        raise BeadNotFound(f"vertex {v} has no bead {bead}")
    if circle.size == 1:
        raise LastArc(f"bead {bead} is the only bead over vertex {v}")
    base = system.base
    stalks = {}
    removed = {}
    for (q, idx), neck in keyed(system.stalks):
        gone = {
            vertex_embedding(system, q, idx, p)[bead]
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
    for (q, idx), maps in keyed(system.bead_maps):
        faces = []
        for i, m in enumerate(maps):
            fidx = base.face_index(q, idx, i)
            gone_small = removed[(q - 1, fidx)]
            gone_big = removed[(q, idx)]
            kept = {s: t for s, t in m.items() if s not in gone_small}
            if any(t in gone_big for t in kept.values()):
                raise IncoherentLocalSystem(
                    f"contracting bead {bead} over vertex {v} removes the image of "
                    f"a surviving bead along face {i} of {q}/{idx}"
                )
            faces.append(kept)
        bead_maps[(q, idx)] = tuple(faces)
    return NecklaceLocalSystem(base, by_level(stalks), by_level(bead_maps))


def reference_subdivide(system, v, bead, check=True):
    circle = _check_vertex(system, v)
    if not circle.has_bead(bead):
        raise BeadNotFound(f"vertex {v} has no bead {bead}")
    base = system.base
    stalks = {}
    fresh = {}
    for (q, idx), neck in keyed(system.stalks):
        positions = _vertex_positions(base, q, idx, v)
        if not positions:
            stalks[(q, idx)] = neck
            fresh[(q, idx)] = {}
            continue
        next_id = max(neck.ids) + 1
        minted = {}
        split_after = {}
        for p in positions:
            target = vertex_embedding(system, q, idx, p)[bead]
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
    for (q, idx), maps in keyed(system.bead_maps):
        faces = []
        for i, m in enumerate(maps):
            fidx = base.face_index(q, idx, i)
            extended = dict(m)
            for p_small, new_small in fresh[(q - 1, fidx)].items():
                p_big = p_small if p_small < i else p_small + 1
                extended[new_small] = fresh[(q, idx)][p_big]
            faces.append(extended)
        bead_maps[(q, idx)] = tuple(faces)
    return NecklaceLocalSystem(base, by_level(stalks), by_level(bead_maps), check=check)


def scan_star(system, v, bead):
    """The star of v with the image of bead at each position of v, found
    by testing every face row of every dimension: a simplex of dimension
    at least 1 contains v exactly when one of its faces does."""
    base = system.base
    _check_vertex(system, v)
    if not system.stalk(0, v).has_bead(bead):
        raise BeadNotFound(f"vertex {v} has no bead {bead}")
    found = {(0, v): {0: bead}}
    level = {v}
    for q in range(1, base.top_dim + 1):
        level = {
            idx for idx in base.simplices(q)
            if not level.isdisjoint(base.face_row(q, idx))
        }
        for idx in sorted(level):
            found[(q, idx)] = {
                p: vertex_embedding(system, q, idx, p)[bead]
                for p, u in enumerate(vertices_of(base, q, idx)) if u == v
            }
    return found


def star(system, v):
    base = system.base
    return {
        (q, idx)
        for q in range(base.top_dim + 1)
        for idx in base.simplices(q)
        if v in vertices_of(base, q, idx)
    }


def assert_same_move(moved, reference, system, v):
    assert moved.stalks == reference.stalks
    assert moved.bead_maps == reference.bead_maps
    inside = star(system, v)
    for (q, idx), neck in keyed(system.stalks):
        if (q, idx) not in inside:
            assert moved.stalks[q][idx] is neck, (q, idx)
    for (q, idx), maps in keyed(system.bead_maps):
        if (q, idx) not in inside:
            assert moved.bead_maps[q][idx] is maps, (q, idx)


def test_subdivide_matches_the_whole_walk():
    rng = random.Random(81)
    for _ in range(CASES):
        system = random_system(rng, BASES)
        v = rng.randrange(system.base.simplex_count(0))
        bead = rng.choice(system.stalk(0, v).ids)
        moved = subdivide(system, v, bead)
        assert_same_move(moved, reference_subdivide(system, v, bead), system, v)


def zero_runs(colors):
    """The number of runs of color 0 on the circle of colors."""
    return sum(c == 0 and colors[i - 1] != 0 for i, c in enumerate(colors))


def test_subdivide_matches_the_whole_walk_on_interleaved_systems():
    """Random systems keep each color in one block, so their spliced
    stalks open with their one run of 0s and need no rotation search.
    The stalks of an elementary system of an interleaved necklace do
    need it.  Each system takes a chain of moves, so later moves split
    stalks that earlier ones spliced; contracting each fresh vertex bead
    in turn gives every system of the chain back verbatim."""
    rng = random.Random(86)
    searched = 0
    for top in (2, 3) * (CASES // 4):
        chain = [elementary_system(random_necklace(rng, top))]
        undo = []
        for _ in range(CHAIN):
            system = chain[-1]
            v = rng.randrange(system.base.simplex_count(0))
            circle = system.stalk(0, v)
            bead = rng.choice(circle.ids)
            moved = subdivide(system, v, bead)
            assert_same_move(moved, reference_subdivide(system, v, bead), system, v)
            searched += sum(
                zero_runs(moved.stalks[q][idx].colors) > 1 for q, idx in star(system, v)
            )
            (fresh,) = set(moved.stalk(0, v).ids) - set(circle.ids)
            chain.append(moved)
            undo.append((v, fresh))
        back = chain.pop()
        for v, fresh in reversed(undo):
            back = contract(back, v, fresh)
            system = chain.pop()
            assert back.stalks == system.stalks
            assert back.bead_maps == system.bead_maps
    assert searched >= 50


def test_contract_matches_the_whole_walk():
    rng = random.Random(82)
    for _ in range(CASES):
        system = random_system(rng, BASES)
        v = rng.randrange(system.base.simplex_count(0))
        system = subdivide(system, v, rng.choice(system.stalk(0, v).ids))
        # the fresh bead has the largest id; otherwise any bead of the circle
        ids = system.stalk(0, v).ids
        bead = max(ids) if rng.randrange(2) else rng.choice(ids)
        moved = contract(system, v, bead)
        assert_same_move(moved, reference_contract(system, v, bead), system, v)


def _outcome(move, *args):
    try:
        return move(*args)
    except ScbError as exc:
        return type(exc), str(exc)


def test_errors_match_the_whole_walk():
    system = elementary_system(Necklace.from_colors((0, 0, 1)))
    doomed = system.stalk(0, 0).ids[0]
    (other,), along_1 = system.bead_maps[1][0]
    maps = [[], [({other: vertex_embedding(system, 1, 0, 0)[doomed]}, along_1)]]
    broken = NecklaceLocalSystem(system.base, system.stalks, maps, check=False)
    cases = [
        (contract, (broken, 0, doomed), IncoherentLocalSystem),
        (contract, (system, 7, 0), DanglingReference),
        (contract, (system, 0, 99), BeadNotFound),
        (contract, (system, 1, system.stalk(0, 1).ids[0]), LastArc),
        (subdivide, (system, -1, 0), DanglingReference),
        (subdivide, (system, 1, 99), BeadNotFound),
    ]
    references = {contract: reference_contract, subdivide: reference_subdivide}
    for move, args, error in cases:
        got = _outcome(move, *args)
        assert got == _outcome(references[move], *args)
        assert got[0] is error


def _named_system(name, rng):
    base = named_base(name)
    if base.top_dim < 3:
        u = random_binary_cocycle(base, rng)
    else:
        u = vertex_order_cocycle(base, rng)
    return minimal_from_cocycle(base, u).as_local_system()


def spliced(system, moved, v):
    """What a subdivide at v did, read off its result: each stalk it
    replaced, with the bead each fresh bead was split from, by position
    of v; the fresh ids count up in the order of the positions."""
    base = system.base
    found = {}
    for (q, idx), neck in keyed(moved.stalks):
        old = system.stalks[q][idx]
        if neck is old:
            continue
        positions = _vertex_positions(base, q, idx, v)
        fresh = sorted(set(neck.ids) - set(old.ids))
        assert len(fresh) == len(positions), (q, idx)
        found[(q, idx)] = {
            p: neck.ids[neck.ids.index(b) - 1] for p, b in zip(positions, fresh)
        }
    return found


def removed(system, moved):
    """The beads a contraction removed, over each stalk it replaced."""
    return {
        (q, idx): set(system.stalks[q][idx].ids) - set(neck.ids)
        for (q, idx), neck in keyed(moved.stalks)
        if neck is not system.stalks[q][idx]
    }


def assert_stars_match_the_scan(system, rng):
    for v in system.base.simplices(0):
        bead = rng.choice(system.stalk(0, v).ids)
        scanned = scan_star(system, v, bead)
        moved = subdivide(system, v, bead, check=False)
        assert list(spliced(system, moved, v).items()) == list(scanned.items()), (v, bead)
        if system.stalk(0, v).size > 1:
            gone = {key: set(images.values()) for key, images in scanned.items()}
            assert removed(system, contract(system, v, bead)) == gone, (v, bead)


def test_star_matches_the_scan_on_named_bases():
    rng = random.Random(83)
    for name in NAMED_EXAMPLES:
        system = _named_system(name, rng)
        assert_stars_match_the_scan(system, rng)
        assert_stars_match_the_scan(random_moves(system, rng, 12), rng)


def test_star_matches_the_scan_on_random_systems():
    rng = random.Random(84)
    for _ in range(CASES // 4):
        system = random_system(rng, BASES)
        assert_stars_match_the_scan(system, rng)
        assert_stars_match_the_scan(random_moves(system, rng, 6), rng)


def test_a_move_reads_as_many_face_rows_on_a_larger_torus(monkeypatch):
    """Once the coface table is built, a move reads the face rows of the
    star alone: as many on torus:32 as on torus:8."""
    rng = random.Random(85)
    systems = [_named_system(f"torus:{n}", rng) for n in (8, 32)]
    for system in systems:
        system.base.cofaces(0, 0)
    reads = []
    face_row = SemiSimplicialSet.face_row

    def counted(self, q, index):
        reads[-1] += 1
        return face_row(self, q, index)

    monkeypatch.setattr(SemiSimplicialSet, "face_row", counted)
    for system in systems:
        reads.append(0)
        subdivide(system, 0, system.stalk(0, 0).ids[0], check=False)
    assert reads[0] == reads[1] > 0


def snapshot(system):
    """Every stalk and bead map of system, by value."""
    return (
        [[(neck.colors, neck.ids) for neck in level] for level in system.stalks],
        [[[dict(m) for m in maps] for maps in level] for level in system.bead_maps],
    )


def test_a_move_leaves_its_input_unchanged():
    """A minimal system shares one tuple of embeddings over each level,
    so a move that wrote into a face map of its input would change every
    simplex of that level; moved systems hold a tuple per simplex."""
    rng = random.Random(87)
    for name in ("torus:6", "delta-torus", "simplex:4"):
        minimal = _named_system(name, rng)
        for count in (0, 12):
            system = random_moves(minimal, rng, count)
            before = snapshot(system)
            for v in system.base.simplices(0):
                ids = system.stalk(0, v).ids
                subdivide(system, v, rng.choice(ids), check=False)
                assert snapshot(system) == before, (name, v)
                if len(ids) > 1:
                    contract(system, v, rng.choice(ids))
                    assert snapshot(system) == before, (name, v)
