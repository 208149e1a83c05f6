"""End-to-end acceptance checks, one test per criterion.

Each test carries its own frozen expected values and a wall-clock
budget; run with -v to get one pass/fail line per criterion.
"""

import itertools
import random

import pytest

from scbundles import (
    BoundExceeded,
    IntCochain,
    NotACocycle,
    assemble,
    boundary_sphere,
    bundle_from_json_dict,
    bundle_to_json_dict,
    c01,
    chern_cocycle_general,
    chern_number,
    coboundary,
    cocycle_for_chern,
    cohomologous,
    contract,
    delta_torus,
    enumerate_sc,
    fundamental_class,
    homology_groups,
    kan_lifts,
    kan_survey,
    minimal_from_cocycle,
    minimize,
    octahedron_sphere,
    parity_check,
    sc_normalized_homology,
    standard_simplex,
    subdivide,
)
from scbundles._json import canonical_dumps
from generators import Budget, random_binary_cocycle, random_necklace, random_system
from oracles import (
    elementary_system,
    is_classical_bundle,
    is_classical_necklace,
    systems_equivalent,
)


# (f0, f1, f2, f3) -> (chern number, extension word over the solid
# 3-simplex or None); chern taken against the seed-3, sign +1
# orientation of the tetrahedral sphere
PARITY_TABLE = {
    (0, 0, 0, 0): (0, "<0,1,2,3>"),
    (0, 0, 0, 1): (-1, None),
    (0, 0, 1, 0): (1, None),
    (0, 0, 1, 1): (0, "<0,2,3,1>"),
    (0, 1, 0, 0): (-1, None),
    (0, 1, 0, 1): (-2, None),
    (0, 1, 1, 0): (0, "<0,3,1,2>"),
    (0, 1, 1, 1): (-1, None),
    (1, 0, 0, 0): (1, None),
    (1, 0, 0, 1): (0, "<0,2,1,3>"),
    (1, 0, 1, 0): (2, None),
    (1, 0, 1, 1): (1, None),
    (1, 1, 0, 0): (0, "<0,1,3,2>"),
    (1, 1, 0, 1): (-1, None),
    (1, 1, 1, 0): (1, None),
    (1, 1, 1, 1): (0, "<0,3,2,1>"),
}


def test_criterion_1_parity_table():
    """All 16 binary flag rows: chern numbers and the six extensions."""
    with Budget(1.0):
        sphere = boundary_sphere(3)
        solid = standard_simplex(3)
        fm = fundamental_class(sphere, seed=3, sign=1)
        assert fm.coefficients == (-1, 1, -1, 1)
        for flags, (expected_c, expected_word) in PARITY_TABLE.items():
            f0, f1, f2, f3 = flags
            u = IntCochain(2, (f3, f2, f1, f0))
            assert chern_number(u, fm) == expected_c == f0 - f1 + f2 - f3
            if expected_word is None:
                with pytest.raises(NotACocycle):
                    minimal_from_cocycle(solid, u)
            else:
                bundle = minimal_from_cocycle(solid, u)
                assert str(bundle.stalk(3, 0)) == expected_word


def test_criterion_2_sphere_oracles():
    """Total spaces over the tetrahedral sphere: S3, RP3, S2 x S1."""
    sphere = boundary_sphere(3)
    fm = fundamental_class(sphere, seed=3, sign=1)
    expected = {
        1: "H0=Z, H1=0, H2=0, H3=Z",
        2: "H0=Z, H1=Z/2, H2=0, H3=Z",
        0: "H0=Z, H1=Z, H2=Z, H3=Z",
    }
    for c, want in expected.items():
        with Budget(1.0):
            bundle = minimal_from_cocycle(sphere, cocycle_for_chern(sphere, fm, c))
            total = assemble(bundle.as_local_system()).total
            assert total.counts == (4, 16, 24, 12)
            assert str(homology_groups(total)) == want


def test_criterion_3_lens_spaces():
    """H1 of the total space over the octahedron is Z/c for c = 0..4."""
    with Budget(5.0):
        base = octahedron_sphere()
        fm = fundamental_class(base)
        for c in range(5):
            bundle = minimal_from_cocycle(base, cocycle_for_chern(base, fm, c))
            total = assemble(bundle.as_local_system()).total
            assert total.counts == (6, 30, 48, 24)
            h = homology_groups(total)
            assert (h.betti(0), h.betti(3)) == (1, 1)
            if c == 0:
                assert (h.betti(1), h.torsion(1)) == (1, ())
            elif c == 1:
                assert (h.betti(1), h.torsion(1)) == (0, ())
            else:
                assert (h.betti(1), h.torsion(1)) == (0, (c,))


def test_criterion_4_torus_bundles():
    """Nilmanifold and 3-torus over the smallest torus; bound at 2."""
    with Budget(1.0):
        base = delta_torus()
        fm = fundamental_class(base)
        for c in (1, -1):
            u = cocycle_for_chern(base, fm, c)
            total = assemble(minimal_from_cocycle(base, u).as_local_system()).total
            assert total.counts == (1, 7, 12, 6)
            h = homology_groups(total)
            assert (h.betti(1), h.torsion(1)) == (2, ())
            assert h.betti(3) == 1
        flat = assemble(
            minimal_from_cocycle(base, IntCochain(2, (0, 0))).as_local_system()
        ).total
        h = homology_groups(flat)
        assert (h.betti(1), h.torsion(1)) == (3, ())
        with pytest.raises(BoundExceeded):
            cocycle_for_chern(base, fm, 2)
        with pytest.raises(BoundExceeded):
            cocycle_for_chern(base, fm, -2)


def test_criterion_5_kan_census():
    """Exhaustive horn-filling counts in dimensions 2, 3, 4."""
    with Budget(30.0):
        assert kan_survey(2) == {
            "dimension": 2,
            "families": 1,
            "compatible": 1,
            "lift_counts": {2: 1},
        }
        survey3 = kan_survey(3)
        assert survey3["families"] == 16
        assert survey3["compatible"] == 16
        assert survey3["lift_counts"] == {0: 10, 1: 6}
        # a dimension-3 family lifts exactly when its parities satisfy
        # the alternating-sum condition
        for family in itertools.product(enumerate_sc(2), repeat=4):
            lifts = kan_lifts(family)
            f = [c01(t) for t in family]
            should = (f[0] - f[1] + f[2] - f[3]) == 0
            assert bool(lifts) == should
            assert len(lifts) <= 1
        survey4 = kan_survey(4)
        assert survey4["families"] == 6**5
        assert survey4["compatible"] == 24
        assert survey4["lift_counts"] == {1: 24}


def test_criterion_6_circular_census():
    """Nondegenerate circular permutations and normalized homology."""
    with Budget(1.0):
        counts, h = sc_normalized_homology(3)
        assert counts == (1, 0, 1, 2)
        assert str(h) == "H0=Z, H1=0, H2=Z"


def test_criterion_7_property_suites():
    """Seven randomized invariant suites, at least 1000 cases each."""
    cases = 1000
    with Budget(60.0):
        # 1 + 2: euler characteristic zero and clean face identities on
        # the assembled total space
        rng = random.Random(701)
        for _ in range(cases):
            total = assemble(random_system(rng, max_subdivisions=2)).total
            assert total.euler_characteristic() == 0
            assert not total.validate()

        # 3: contracting the fresh bead undoes a split verbatim, and
        # contracting the split bead undoes it up to renaming
        rng = random.Random(703)
        for i in range(cases):
            system = random_system(rng, max_subdivisions=1)
            v = rng.randrange(system.base.simplex_count(0))
            bead = rng.choice(system.stalk(0, v).ids)
            split = subdivide(system, v, bead, check=False)
            fresh = (
                set(split.stalk(0, v).ids) - set(system.stalk(0, v).ids)
            ).pop()
            back = contract(split, v, fresh, check=False)
            assert back.stalks == system.stalks
            assert back.bead_maps == system.bead_maps
            if i % 4 == 0:
                assert systems_equivalent(contract(split, v, bead), system)

        # 4: the minimal bundle depends only on the kept beads, not on
        # the order the others are contracted in
        rng = random.Random(704)
        for _ in range(cases):
            system = random_system(rng, max_subdivisions=2)
            sel = {
                v: rng.choice(system.stalk(0, v).ids)
                for v in system.base.simplices(0)
            }
            expected = minimize(system, sel)
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
            words = {
                (q, idx): n.to_circular()
                for q, level in enumerate(current.stalks)
                for idx, n in enumerate(level)
            }
            assert words == expected.stalks

        # 5: chern cochains from different selections are cohomologous,
        # witnessed by an explicit 1-cochain
        rng = random.Random(705)

        def selection_witness(system):
            sels = [
                {v: rng.choice(system.stalk(0, v).ids) for v in system.base.simplices(0)}
                for _ in range(2)
            ]
            u1 = chern_cocycle_general(system, sels[0])
            u2 = chern_cocycle_general(system, sels[1])
            same, witness = cohomologous(system.base, u1, u2)
            assert same
            assert coboundary(system.base, witness).values == (u1 - u2).values
            return witness

        surfaces = (boundary_sphere(3), delta_torus(), octahedron_sphere())
        for _ in range(cases):
            base = surfaces[rng.randrange(len(surfaces))]
            system = minimal_from_cocycle(
                base, random_binary_cocycle(base, rng)
            ).as_local_system()
            for _ in range(rng.randrange(3)):
                v = rng.randrange(base.simplex_count(0))
                system = subdivide(
                    system, v, rng.choice(system.stalk(0, v).ids), check=False
                )
            selection_witness(system)
        # and over one necklace's system, where colors interleave, so
        # that the selection moves the cocycle and the witness is nonzero
        moved = 0
        for _ in range(cases):
            system = elementary_system(random_necklace(rng, rng.choice((2, 3))))
            moved += any(selection_witness(system).values)
        assert moved >= cases // 10

        # 6: the classical-complex criterion on a necklace agrees with
        # simplicity of the elementary bundle's total 1-skeleton
        rng = random.Random(706)
        for _ in range(cases):
            top = rng.randrange(4)
            neck = random_necklace(rng, top, extra=8 - (top + 1))
            assert neck.size <= 8
            verdict, _ = is_classical_necklace(neck)
            direct, _ = is_classical_bundle(elementary_system(neck))
            assert verdict == direct

        # 7: orientation signs split every closed oriented surface in half
        rng = random.Random(707)
        for _ in range(cases):
            base = surfaces[rng.randrange(len(surfaces))]
            seed = rng.randrange(base.simplex_count(2))
            sign = rng.choice((1, -1))
            data = parity_check(
                base, fundamental_class(base, seed=seed, sign=sign)
            )
            assert data.positives == data.negatives
            assert data.chern_bound == base.simplex_count(2) // 2


def test_criterion_8_file_round_trips():
    """Cocycle -> bundle -> cocycle and bundle -> file -> bundle are
    the identity on every binary cocycle over four bases."""
    with Budget(5.0):
        corpora = []
        for base, top_count in (
            (boundary_sphere(3), 4),
            (delta_torus(), 2),
            (octahedron_sphere(), 8),
        ):
            corpora.append(
                (base, [
                    IntCochain(2, bits)
                    for bits in itertools.product((0, 1), repeat=top_count)
                ])
            )
        solid = standard_simplex(3)
        solid_cocycles = [
            IntCochain(2, bits)
            for bits in itertools.product((0, 1), repeat=4)
            if coboundary(solid, IntCochain(2, bits)).is_zero()
        ]
        assert len(solid_cocycles) == 6
        corpora.append((solid, solid_cocycles))

        checked = 0
        for base, cocycles in corpora:
            for u in cocycles:
                bundle = minimal_from_cocycle(base, u)
                assert chern_cocycle_general(bundle.as_local_system()).values == u.values
                doc = bundle_to_json_dict(bundle.as_local_system())
                again = bundle_from_json_dict(doc)
                assert again.is_minimal()
                assert again.base == bundle.base
                assert again.stalks == bundle.as_local_system().stalks
                assert canonical_dumps(bundle_to_json_dict(again)) == (
                    canonical_dumps(doc)
                )
                assert chern_cocycle_general(again).values == u.values
                checked += 1
        assert checked == 16 + 4 + 256 + 6
