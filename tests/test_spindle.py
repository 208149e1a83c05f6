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
from generators import random_system
from oracles import elementary_system, systems_equivalent, vertex_embedding


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
        (other,) = system.bead_map(1, 0, 0)
        maps = {**system.bead_maps, (1, 0): ({other: target}, system.bead_map(1, 0, 1))}
        broken = NecklaceLocalSystem(system.base, system.stalks, maps, check=False)
        with pytest.raises(IncoherentLocalSystem):
            contract(broken, 0, doomed, check=False)

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
        for (q, idx), neck in split.stalks.items():
            if not q:
                continue
            if neck is system.stalks[(q, idx)]:
                # outside the star the whole tuple of maps is shared
                assert split.bead_maps[(q, idx)] is system.bead_maps[(q, idx)]
                continue
            for i, f in enumerate(base.face_row(q, idx)):
                m = split.bead_map(q, idx, i)
                if split.stalks[(q - 1, f)] is system.stalks[(q - 1, f)]:
                    assert m is system.bead_map(q, idx, i)
                    shared.append((q, idx, i))
                else:
                    assert m is not system.bead_map(q, idx, i)
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
        rng = random.Random(16)
        for _ in range(60):
            system = random_system(rng)
            sel = {
                v: rng.choice(system.stalk(0, v).ids)
                for v in system.base.simplices(0)
            }
            expected = minimize(system, sel)
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
                current = contract(current, v, b, check=False)
            words = {k: n.to_circular() for k, n in current.stalks.items()}
            assert MinimalBundle(system.base, words).stalks == expected.stalks

    def test_different_selections_same_class(self):
        rng = random.Random(17)
        for _ in range(40):
            system = random_system(rng)
            if system.base.top_dim != 2:
                continue
            picks = []
            for _ in range(2):
                picks.append(
                    {
                        v: rng.choice(system.stalk(0, v).ids)
                        for v in system.base.simplices(0)
                    }
                )
            u1 = chern_cocycle_general(system, picks[0])
            u2 = chern_cocycle_general(system, picks[1])
            same, witness = cohomologous(system.base, u1, u2)
            assert same
            assert coboundary(system.base, witness).values == (u1 - u2).values


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
