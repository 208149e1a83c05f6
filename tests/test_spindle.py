import itertools
import random

import pytest

from scbundles import (
    BeadNotFound,
    CircularPermutation,
    DanglingReference,
    IncoherentLocalSystem,
    IntCochain,
    LastArc,
    MinimalBundle,
    Necklace,
    NecklaceLocalSystem,
    assemble,
    boundary_sphere,
    build_surface_bundle,
    chern_cocycle_general,
    chern_number,
    coboundary,
    cohomologous,
    contract,
    default_selection,
    delta_torus,
    fundamental_class,
    homology_groups,
    minimal_from_cocycle,
    minimize,
    named_base,
    standard_simplex,
    subdivide,
    validate_selection,
)
from scbundles import cyclic as cyclic_module
from generators import random_necklace, random_system
from oracles import elementary_system, systems_equivalent, vertex_embedding


def selection_witness(system, rng):
    """The 1-cochain by which the Chern cocycles of two random selections
    differ, checked to be such a witness."""
    picks = [
        {v: rng.choice(system.stalk(0, v).ids) for v in system.base.simplices(0)}
        for _ in range(2)
    ]
    u1, u2 = (chern_cocycle_general(system, pick) for pick in picks)
    same, witness = cohomologous(system.base, u1, u2)
    assert same
    assert coboundary(system.base, witness) == u1 - u2
    return witness


def doubled_interval():
    """Elementary (0, 0, 1) bundle: two beads over vertex 0 of an edge."""
    return elementary_system(Necklace.from_colors((0, 0, 1)))


class TestContract:
    def test_removes_trace_everywhere(self):
        system = doubled_interval()
        spare = [b for b in system.stalk(0, 0).ids][0]
        small = contract(system, 0, spare)
        assert small.stalk(0, 0).size == 1
        assert small.stalk(0, 1).size == 1
        assert small.stalk(1, 0).size == 2
        assert not small.validate()
        assert small.is_minimal()

    def test_result_matches_plain_circle(self):
        system = doubled_interval()
        spare = system.stalk(0, 0).ids[0]
        small = contract(system, 0, spare)
        plain = elementary_system(Necklace.from_colors((0, 1)))
        assert systems_equivalent(small, plain)

    def test_last_arc_refused(self):
        system = elementary_system(Necklace.from_colors((0, 1)))
        only = system.stalk(0, 1).ids[0]
        with pytest.raises(LastArc):
            contract(system, 1, only)

    def test_unknown_bead(self):
        system = doubled_interval()
        with pytest.raises(BeadNotFound):
            contract(system, 0, 99)

    def test_incoherent_descent_raises(self):
        # point the other vertex's bead at the image of the doomed bead
        system = doubled_interval()
        doomed = system.stalk(0, 0).ids[0]
        target = vertex_embedding(system, 1, 0, 0)[doomed]
        (other,), along_1 = system.bead_maps[1][0]
        maps = [[], [({other: target}, along_1)]]
        broken = NecklaceLocalSystem(system.base, system.stalks, maps, check=False)
        with pytest.raises(IncoherentLocalSystem):
            contract(broken, 0, doomed)

    def test_unknown_vertex(self):
        system = doubled_interval()
        with pytest.raises(DanglingReference):
            contract(system, 7, 0)

    def test_repeated_vertex_positions(self):
        # over the one-vertex torus the doomed bead is cut at every
        # position of every stalk at once
        base = delta_torus()
        system = minimal_from_cocycle(base, IntCochain(2, (1, 0))).as_local_system()
        system = subdivide(system, 0, system.stalk(0, 0).ids[0])
        assert system.stalk(2, 0).size == 6
        fresh = [b for b in system.stalk(0, 0).ids][-1]
        back = contract(system, 0, fresh)
        assert back.stalk(2, 0).size == 3
        assert not back.validate()


class TestSubdivide:
    def test_sizes_grow_per_position(self):
        base = delta_torus()
        system = minimal_from_cocycle(base, IntCochain(2, (0, 0))).as_local_system()
        split = subdivide(system, 0, 0)
        assert split.stalk(0, 0).size == 2
        # the lone vertex sits at two positions of each edge, three of
        # each triangle
        for e in base.simplices(1):
            assert split.stalk(1, e).size == 4
        for t in base.simplices(2):
            assert split.stalk(2, t).size == 6
        assert not split.validate()

    def test_maps_along_faces_without_the_vertex_are_shared(self):
        # over torus:6 the star of a vertex has 6 edges and 6 triangles,
        # and each of them has one face without the vertex; the map along
        # it describes the same beads after the split, so it is not copied
        base = named_base("torus:6")
        u = IntCochain(2, (0,) * base.simplex_count(2))
        system = minimal_from_cocycle(base, u).as_local_system()
        split = subdivide(system, 7, system.stalk(0, 7).ids[0])
        shared = []
        for q in range(1, base.top_dim + 1):
            for idx, neck in enumerate(split.stalks[q]):
                if neck is system.stalks[q][idx]:
                    # outside the star the whole tuple of maps is shared
                    assert split.bead_maps[q][idx] is system.bead_maps[q][idx]
                    continue
                for i, f in enumerate(base.face_row(q, idx)):
                    m = split.bead_maps[q][idx][i]
                    if split.stalks[q - 1][f] is system.stalks[q - 1][f]:
                        assert m is system.bead_maps[q][idx][i]
                        shared.append((q, idx, i))
                    else:
                        assert m is not system.bead_maps[q][idx][i]
        assert len(shared) == 12
        assert not split.validate()

    def test_split_beads_adjacent_same_color(self):
        system = doubled_interval()
        bead = system.stalk(0, 1).ids[0]
        split = subdivide(system, 1, bead)
        circle = split.stalk(1, 0)
        colors = circle.colors
        assert sorted(colors) == [0, 0, 1, 1]
        pos = [i for i, c in enumerate(colors) if c == 1]
        assert (pos[1] - pos[0]) % circle.size in (1, circle.size - 1)

    def test_unknown_bead_and_vertex(self):
        system = doubled_interval()
        with pytest.raises(BeadNotFound):
            subdivide(system, 1, 41)
        with pytest.raises(DanglingReference):
            subdivide(system, -1, 0)

    def test_contract_fresh_is_literal_inverse(self):
        rng = random.Random(11)
        for _ in range(25):
            system = random_system(rng)
            v = rng.randrange(system.base.simplex_count(0))
            bead = rng.choice(system.stalk(0, v).ids)
            split = subdivide(system, v, bead)
            fresh = (set(split.stalk(0, v).ids) - set(system.stalk(0, v).ids)).pop()
            back = contract(split, v, fresh)
            assert back.stalks == system.stalks
            assert back.bead_maps == system.bead_maps

    def test_contract_original_inverse_up_to_renaming(self):
        rng = random.Random(12)
        for _ in range(15):
            system = random_system(rng)
            v = rng.randrange(system.base.simplex_count(0))
            bead = rng.choice(system.stalk(0, v).ids)
            split = subdivide(system, v, bead)
            back = contract(split, v, bead)
            assert systems_equivalent(back, system)

    def test_subdivisions_commute(self):
        rng = random.Random(13)
        for _ in range(15):
            system = random_system(rng, max_subdivisions=1)
            nv = system.base.simplex_count(0)
            v1 = rng.randrange(nv)
            v2 = rng.randrange(nv)
            b1 = rng.choice(system.stalk(0, v1).ids)
            b2 = rng.choice(system.stalk(0, v2).ids)
            if v1 == v2 and b1 == b2:
                continue
            one = subdivide(subdivide(system, v1, b1), v2, b2)
            two = subdivide(subdivide(system, v2, b2), v1, b1)
            assert systems_equivalent(one, two)

    def test_moves_on_a_minimal_bundle_keep_each_color_in_one_block(self, monkeypatch):
        # the traffic Necklace's turning is fast for: every circle a move
        # turns opens with its one run of 0s, or is all 0s
        seen = []
        least_turning = cyclic_module._least_turning

        def recording(colors, ids):
            seen.append(colors)
            return least_turning(colors, ids)

        monkeypatch.setattr(cyclic_module, "_least_turning", recording)
        base = named_base("torus:6")
        minimal = build_surface_bundle(base, fundamental_class(base), 2).as_local_system()
        rng = random.Random(37)
        system, moves = minimal, []
        for _ in range(200):
            v = rng.randrange(base.simplex_count(0))
            ids = system.stalk(0, v).ids
            system = subdivide(system, v, rng.choice(ids), check=False)
            moves.append((v, (set(system.stalk(0, v).ids) - set(ids)).pop()))
        for v, fresh in reversed(moves):
            system = contract(system, v, fresh)
        assert system.stalks == minimal.stalks
        assert seen
        for colors in seen:
            zeros = colors.count(0)
            assert not any(colors[:zeros]) and 0 not in colors[zeros:], colors

    def test_total_space_euler_zero_after_moves(self):
        rng = random.Random(14)
        for _ in range(8):
            system = random_system(rng)
            assert assemble(system).total.euler_characteristic() == 0


class TestSelections:
    def test_default_selection_first_canonical(self):
        system = doubled_interval()
        sel = default_selection(system)
        assert set(sel) == {0, 1}
        for v, b in sel.items():
            assert b == system.stalk(0, v).ids[0]

    def test_validate_selection_missing_vertex(self):
        system = doubled_interval()
        with pytest.raises(BeadNotFound):
            validate_selection(system, {0: system.stalk(0, 0).ids[0]})

    def test_validate_selection_missing_bead(self):
        system = doubled_interval()
        sel = default_selection(system)
        sel[0] = 95
        with pytest.raises(BeadNotFound):
            validate_selection(system, sel)

    def test_minimize_rejects_bad_selection(self):
        system = doubled_interval()
        with pytest.raises(BeadNotFound):
            minimize(system, {0: 95, 1: system.stalk(0, 1).ids[0]})


class TestMinimize:
    def test_idempotent_on_minimal(self):
        base = boundary_sphere(3)
        bundle = minimal_from_cocycle(base, IntCochain(2, (0, 0, 1, 0)))
        again = minimize(bundle.as_local_system())
        assert again.stalks == bundle.stalks

    def test_recovers_original_bundle(self):
        # splitting beads and then keeping the original ones undoes the move
        rng = random.Random(15)
        for _ in range(15):
            bases = [standard_simplex(3), boundary_sphere(3), delta_torus()]
            base = rng.choice(bases)
            from generators import random_binary_cocycle

            u = random_binary_cocycle(base, rng)
            bundle = minimal_from_cocycle(base, u)
            system = bundle.as_local_system()
            original = {v: system.stalk(0, v).ids[0] for v in base.simplices(0)}
            for _ in range(rng.randrange(4)):
                v = rng.randrange(base.simplex_count(0))
                system = subdivide(system, v, rng.choice(system.stalk(0, v).ids))
            assert minimize(system, original).stalks == bundle.stalks

    def test_result_is_coherent(self):
        # minimize skips the check because this always holds
        rng = random.Random(18)
        for _ in range(60):
            system = random_system(rng)
            random_pick = {
                v: rng.choice(system.stalk(0, v).ids)
                for v in system.base.simplices(0)
            }
            for selection in (None, random_pick):
                minimal = minimize(system, selection)
                assert minimal.as_local_system().validate() == []

    def test_order_independent_for_fixed_selection(self):
        # random systems keep each color in one block; elementary systems
        # of random necklaces interleave them, so that the kept beads, and
        # with them the minimum, depend on the selection
        rng = random.Random(16)
        systems = itertools.chain(
            (random_system(rng) for _ in range(60)),
            (elementary_system(random_necklace(rng, top)) for top in (2, 3) * 60),
        )
        differ = 0
        for system in systems:
            sel = {
                v: rng.choice(system.stalk(0, v).ids)
                for v in system.base.simplices(0)
            }
            expected = minimize(system, sel)
            differ += expected.stalks != minimize(system).stalks
            # contract the doomed beads in a shuffled global order
            current = system
            doomed = [
                (v, b)
                for v in system.base.simplices(0)
                for b in system.stalk(0, v).ids
                if b != sel[v]
            ]
            rng.shuffle(doomed)
            for v, b in doomed:
                current = contract(current, v, b)
            words = {
                (q, idx): CircularPermutation(n.colors)
                for q, level in enumerate(current.stalks)
                for idx, n in enumerate(level)
            }
            assert MinimalBundle(system.base, words).stalks == expected.stalks
        assert differ >= 20

    def test_bases_below_dimension_two(self):
        # the walk stops at the base's top dimension, short of the
        # triangles; every word there is forced, so any selection gives
        # the minimal bundle back and the Chern cocycle is empty
        rng = random.Random(30)
        for name in ("simplex:0", "sphere:1", "simplex:1"):
            base = named_base(name)
            bundle = minimal_from_cocycle(base, IntCochain(2, ()))
            system = bundle.as_local_system()
            for _ in range(6):
                v = rng.randrange(base.simplex_count(0))
                system = subdivide(system, v, rng.choice(system.stalk(0, v).ids))
            systems = [system]
            if name.startswith("simplex"):  # the base of an elementary system
                systems.append(elementary_system(random_necklace(rng, base.top_dim)))
            for system in systems:
                pick = {
                    v: rng.choice(system.stalk(0, v).ids) for v in base.simplices(0)
                }
                for selection in (None, pick):
                    assert minimize(system, selection).stalks == bundle.stalks
                    assert chern_cocycle_general(system, selection) == IntCochain(2, ())

    def test_different_selections_same_class(self):
        rng = random.Random(17)
        for _ in range(40):
            system = random_system(rng)
            if system.base.top_dim != 2:
                continue
            selection_witness(system, rng)

    def test_elementary_selections_differ_by_a_coboundary(self):
        # spindle moves keep each color in one block, so over the systems
        # above every selection gives the same cocycle; a necklace with
        # interleaved colors makes the witness nonzero
        rng = random.Random(19)
        moved = 0
        for top in (2, 3) * 100:
            system = elementary_system(random_necklace(rng, top))
            moved += any(selection_witness(system, rng).values)
        assert moved >= 20


class TestGeneralChern:
    def test_trivial_fiber_product(self):
        system = elementary_system(Necklace.from_colors((0, 1, 2)))
        u = chern_cocycle_general(system)
        assert u.values == (0,)

    def test_subdivided_hopf_keeps_chern_one(self):
        base = boundary_sphere(3)
        fm = fundamental_class(base, seed=3, sign=1)
        bundle = minimal_from_cocycle(base, IntCochain(2, (0, 0, 1, 0)))
        system = bundle.as_local_system()
        expected = chern_number(chern_cocycle_general(system), fm)
        assert expected in (1, -1)
        rng = random.Random(18)
        for _ in range(5):
            v = rng.randrange(base.simplex_count(0))
            system = subdivide(system, v, rng.choice(system.stalk(0, v).ids))
        sel = {
            v: rng.choice(system.stalk(0, v).ids) for v in base.simplices(0)
        }
        assert chern_number(chern_cocycle_general(system, sel), fm) == expected

    def test_torus_chern_stable_under_moves(self):
        base = delta_torus()
        fm = fundamental_class(base)
        bundle = minimal_from_cocycle(base, IntCochain(2, (1, 0)))
        start = chern_number(chern_cocycle_general(bundle.as_local_system()), fm)
        system = subdivide(bundle.as_local_system(), 0, 0)
        system = subdivide(system, 0, system.stalk(0, 0).ids[-1])
        assert chern_number(chern_cocycle_general(system), fm) == start


    def test_matches_chern_of_the_minimized_bundle(self):
        # only the triangle words are built; they agree with the whole
        # minimal bundle for any selection
        rng = random.Random(29)
        for _ in range(80):
            system = random_system(rng, max_subdivisions=5)
            random_pick = {
                v: rng.choice(system.stalk(0, v).ids)
                for v in system.base.simplices(0)
            }
            for selection in (None, random_pick):
                assert chern_cocycle_general(system, selection) == chern_cocycle_general(
                    minimize(system, selection).as_local_system()
                )

    def test_rejects_a_missing_bead(self):
        system = subdivide(doubled_interval(), 0, 0)
        with pytest.raises(BeadNotFound):
            chern_cocycle_general(system, {0: 95, 1: system.stalk(0, 1).ids[0]})


class TestHomologyInvariance:
    def test_total_homology_stable_under_moves(self):
        base = boundary_sphere(3)
        bundle = minimal_from_cocycle(base, IntCochain(2, (0, 0, 1, 0)))
        system = bundle.as_local_system()
        before = str(homology_groups(assemble(system).total))
        assert before == "H0=Z, H1=0, H2=0, H3=Z"
        rng = random.Random(19)
        for _ in range(3):
            v = rng.randrange(base.simplex_count(0))
            system = subdivide(system, v, rng.choice(system.stalk(0, v).ids))
        assert str(homology_groups(assemble(system).total)) == before
        v = next(
            v for v in base.simplices(0) if system.stalk(0, v).size > 1
        )
        system = contract(system, v, system.stalk(0, v).ids[0])
        assert str(homology_groups(assemble(system).total)) == before
