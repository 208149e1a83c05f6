import random

import pytest

from scbundles import (
    CircularPermutation,
    DanglingReference,
    IncoherentLocalSystem,
    IntCochain,
    MalformedFile,
    MinimalBundle,
    MismatchedCarriers,
    Necklace,
    NecklaceLocalSystem,
    NotACocycle,
    NotBinary,
    SemiSimplicialSet,
    assemble,
    boundary_sphere,
    build_surface_bundle,
    bundle_from_json_dict,
    bundle_to_json_dict,
    chern_cocycle,
    chern_number,
    check_projection_naturality,
    delta_torus,
    elementary_bundle,
    elementary_system,
    fundamental_class,
    homology_groups,
    is_classical_bundle,
    is_classical_necklace,
    minimal_from_cocycle,
    octahedron_sphere,
    standard_simplex,
    systems_equivalent,
    total_to_json_dict,
)
from scbundles._json import canonical_dumps
from scbundles.bundle import format_necklace_text, parse_necklace_text
from scbundles.simplicial import named_base
from scbundles.spindle import contract, subdivide

from generators import grid_torus, random_binary_cocycle, random_necklace, random_system


def assert_assembly_clean(system):
    asm = assemble(system)
    assert asm.total.validate() == []
    assert check_projection_naturality(asm.total, asm.projection) == []
    assert asm.total.euler_characteristic() == 0
    return asm


class TestLocalSystem:
    def test_elementary_systems_valid(self):
        rng = random.Random(0)
        for _ in range(25):
            neck = random_necklace(rng, rng.randrange(1, 4))
            assert elementary_system(neck).validate() == []

    def test_catalog_counts(self):
        asm = assert_assembly_clean(elementary_system(CircularPermutation((0, 1))))
        assert asm.total.counts == (2, 4, 2)
        assert str(homology_groups(asm.total)) == "H0=Z, H1=Z, H2=0"

    def test_counts_formula(self):
        rng = random.Random(3)
        system = random_system(rng)
        asm = assemble(system)
        base = system.base
        for p in range(base.top_dim + 2):
            want = 0
            if p <= base.top_dim:
                want += sum(
                    system.stalk(p, i).size for i in base.simplices(p)
                )
            if p >= 1:
                want += sum(
                    system.stalk(p - 1, i).size for i in base.simplices(p - 1)
                )
            assert asm.total.simplex_count(p) == want

    def test_vertex_embedding_is_color_class_bijection(self):
        rng = random.Random(11)
        for _ in range(20):
            system = random_system(rng)
            base = system.base
            for q in range(base.top_dim + 1):
                for idx in base.simplices(q):
                    neck = system.stalk(q, idx)
                    for p in range(q + 1):
                        emb = system.vertex_embedding(q, idx, p)
                        v = base.vertex_at(q, idx, p)
                        assert set(emb) == set(system.stalk(0, v).ids)
                        image = sorted(emb.values())
                        cls = sorted(
                            b for b, c in neck.beads() if c == p
                        )
                        assert image == cls

    def test_missing_stalk_reported(self):
        system = elementary_system(CircularPermutation((0, 1)))
        broken = dict(system.stalks)
        del broken[(0, 1)]
        with pytest.raises(IncoherentLocalSystem, match="missing stalk"):
            type(system)(system.base, broken, system.bead_maps)

    def test_bad_bead_map_reported(self):
        system = elementary_system(Necklace.from_colors((0, 1, 0, 2)))
        maps = {k: dict(v) for k, v in system.bead_maps.items()}
        key = (1, 0, 0)
        bm = maps[key]
        small = list(bm)
        # send a face bead to a bead of the deleted color
        deleted_color_beads = [
            b for b, c in system.stalk(1, 0).beads() if c == 0
        ]
        bm[small[0]] = deleted_color_beads[0]
        with pytest.raises(IncoherentLocalSystem):
            type(system)(system.base, system.stalks, maps)

    def test_order_reversal_reported(self):
        # with three 0-beads, swapping two of the images is not a rotation
        system = elementary_system(Necklace.from_colors((0, 0, 0, 1)))
        maps = {k: dict(v) for k, v in system.bead_maps.items()}
        bm = maps[(1, 0, 1)]
        assert len(bm) == 3
        a, b = sorted(bm)[:2]
        bm[a], bm[b] = bm[b], bm[a]
        problems = type(system)(
            system.base, system.stalks, maps, check=False
        ).validate()
        assert problems

    def test_two_bead_swap_is_a_rotation(self):
        # on a two-bead fiber every bijection is circular, so this stays valid
        system = elementary_system(Necklace.from_colors((0, 1, 0, 1)))
        maps = {k: dict(v) for k, v in system.bead_maps.items()}
        bm = maps[(1, 0, 1)]
        a, b = sorted(bm)
        bm[a], bm[b] = bm[b], bm[a]
        assert not type(system)(
            system.base, system.stalks, maps, check=False
        ).validate()

    def test_stalk_lookup_errors(self):
        system = elementary_system(CircularPermutation((0, 1)))
        with pytest.raises(DanglingReference):
            system.stalk(3, 0)


class TestAssembly:
    @pytest.mark.parametrize(
        "word",
        [(0,), (0, 0), (0, 1), (0, 1, 2), (0, 1, 0, 2), (0, 2, 1), (0, 1, 2, 3)],
    )
    def test_elementary_bundles_clean(self, word):
        assert_assembly_clean(elementary_system(Necklace.from_colors(word)))

    def test_fiber_over_point(self):
        asm = elementary_bundle(Necklace.from_colors((0, 0, 0)))
        assert asm.total.counts == (3, 3)
        h = homology_groups(asm.total)
        assert str(h) == "H0=Z, H1=Z"

    def test_index_round_trip(self):
        asm = elementary_bundle(Necklace.from_colors((0, 1, 0, 2)))
        for p in range(len(asm.index.keys)):
            keys = list(asm.index.keys[p])
            assert len(keys) == asm.total.simplex_count(p)
            assert len(set(keys)) == len(keys)
            for kind, q, _, _ in keys:
                assert p == (q if kind == "H" else q + 1)

    def test_projection_ops(self):
        system = elementary_system(CircularPermutation((0, 1, 2)))
        asm = assemble(system)
        for p, level in enumerate(asm.index.keys):
            for i, key in enumerate(level):
                kind, q, idx, bead = key
                ref, op = asm.projection.target(p, i)
                assert (ref.dim, ref.index) == (q, idx)
                if kind == "H":
                    assert op == tuple(range(q + 1))
                else:
                    j = system.stalk(q, idx).color_of(bead)
                    assert op == tuple(
                        t if t <= j else t - 1 for t in range(q + 2)
                    )

    def test_randomized_bundles_clean(self):
        rng = random.Random(21)
        for _ in range(30):
            assert_assembly_clean(random_system(rng))


class TestCocycleBridge:
    def test_not_binary(self):
        with pytest.raises(NotBinary):
            minimal_from_cocycle(delta_torus(), IntCochain(2, (2, 0)))

    def test_not_cocycle(self):
        with pytest.raises(NotACocycle):
            minimal_from_cocycle(standard_simplex(3), IntCochain(2, (1, 0, 0, 0)))

    def test_carrier_mismatch(self):
        with pytest.raises(MismatchedCarriers):
            minimal_from_cocycle(delta_torus(), IntCochain(2, (0, 0, 0)))
        with pytest.raises(MismatchedCarriers):
            minimal_from_cocycle(delta_torus(), IntCochain(1, (0, 0)))

    def test_stalk_words_follow_parity(self):
        u = IntCochain(2, (1, 0, 1, 0))
        m = minimal_from_cocycle(boundary_sphere(3), u)
        for idx in range(4):
            want = CircularPermutation((0, 2, 1) if u.values[idx] else (0, 1, 2))
            assert m.stalk(2, idx) == want
        for idx in range(6):
            assert m.stalk(1, idx) == CircularPermutation((0, 1))

    def test_chern_number_matches_alternating_sum(self):
        sphere = boundary_sphere(3)
        fm = fundamental_class(sphere, seed=3, sign=1)
        for code in range(16):
            f = [(code >> (3 - i)) & 1 for i in range(4)]
            u = IntCochain(2, tuple(f[3 - i] for i in range(4)))
            assert chern_number(u, fm) == f[0] - f[1] + f[2] - f[3]

    def test_chern_number_guards(self):
        fm = fundamental_class(delta_torus())
        with pytest.raises(MismatchedCarriers):
            chern_number(IntCochain(2, (0, 0, 0)), fm)
        with pytest.raises(NotBinary):
            chern_number(IntCochain(2, (3, 0)), fm)

    def test_minimal_bundle_face_law_checked(self):
        # an odd triangle under an even tetrahedron contradicts its face word
        base = standard_simplex(3)
        good = minimal_from_cocycle(base, IntCochain(2, (0, 0, 0, 0)))
        broken = dict(good.stalks)
        broken[(2, 0)] = CircularPermutation((0, 2, 1))
        with pytest.raises(IncoherentLocalSystem):
            MinimalBundle(base, broken)

    @pytest.mark.parametrize(
        "name", ["tetra", "octahedron", "delta-torus", "simplex:3", "sphere:4"]
    )
    def test_cocycle_construction_is_coherent(self, name):
        # minimal_from_cocycle skips the check because this always holds
        base = named_base(name)
        rng = random.Random(name)
        for _ in range(20):
            u = random_binary_cocycle(base, rng)
            assert minimal_from_cocycle(base, u).as_local_system().validate() == []

    def test_face_law_vacuous_without_top_cells(self):
        # with no 3-simplices any parity assignment is coherent; a single
        # flip over the torus is just a different bundle, not an error
        base = delta_torus()
        good = minimal_from_cocycle(base, IntCochain(2, (0, 0)))
        flipped = dict(good.stalks)
        flipped[(2, 0)] = CircularPermutation((0, 2, 1))
        again = MinimalBundle(base, flipped)
        assert chern_cocycle(again).values == (1, 0)


class TestClassicality:
    def test_matches_necklace_criterion(self):
        rng = random.Random(2)
        for _ in range(40):
            neck = random_necklace(rng, rng.randrange(3), extra=6)
            want, _ = is_classical_necklace(neck)
            got, witness = is_classical_bundle(elementary_system(neck))
            assert got is want
            assert (witness is None) is want


class TestEquivalence:
    def test_reflexive(self):
        rng = random.Random(4)
        system = random_system(rng)
        assert systems_equivalent(system, system)

    def test_renamed_copy(self):
        base = boundary_sphere(3)
        L = minimal_from_cocycle(base, IntCochain(2, (0, 0, 0, 1))).as_local_system()
        fat = subdivide(L, 0, 0)
        # keeping the fresh bead instead of the original renames the survivor
        other = contract(fat, 0, 0)
        assert other.stalks != L.stalks
        assert systems_equivalent(other, L)

    def test_distinguishes_parity(self):
        base = delta_torus()
        a = minimal_from_cocycle(base, IntCochain(2, (0, 0))).as_local_system()
        b = minimal_from_cocycle(base, IntCochain(2, (1, 0))).as_local_system()
        assert not systems_equivalent(a, b)

    def test_distinguishes_sizes(self):
        L = elementary_system(CircularPermutation((0, 1)))
        fat = subdivide(L, 0, L.stalk(0, 0).ids[0])
        assert not systems_equivalent(L, fat)

    def test_different_bases(self):
        a = elementary_system(CircularPermutation((0, 1)))
        b = elementary_system(CircularPermutation((0,)))
        assert not systems_equivalent(a, b)

    def test_thousand_vertex_base(self):
        # 1089 vertices: deeper than the default recursion limit
        base = grid_torus(33)
        bundle = build_surface_bundle(base, fundamental_class(base), 3)
        system = bundle.as_local_system()
        for v in (0, 544, 1088):
            system = subdivide(system, v, 0, check=False)
        renamed = contract(subdivide(system, 544, 0, check=False), 544, 0, check=False)
        assert renamed.stalks != system.stalks
        assert systems_equivalent(system, renamed)
        flat = minimal_from_cocycle(base, IntCochain(2, (0,) * 2178))
        assert not systems_equivalent(bundle.as_local_system(), flat.as_local_system())


class TestSerialization:
    def test_necklace_text(self):
        assert format_necklace_text((0, 2, 1)) == "(0 2 1)"
        assert parse_necklace_text("( 0 2 1 )") == (0, 2, 1)
        for bad in ["0 2 1", "()", "(x)", ""]:
            with pytest.raises(MalformedFile):
                parse_necklace_text(bad)

    def test_minimal_round_trip(self):
        m = minimal_from_cocycle(octahedron_sphere(), IntCochain(2, (1, 0) * 4))
        system = m.as_local_system()
        doc = bundle_to_json_dict(system)
        assert "bead_maps" not in doc
        back = bundle_from_json_dict(doc)
        assert isinstance(back, NecklaceLocalSystem)
        assert back.stalks == system.stalks
        assert back.bead_maps == system.bead_maps
        assert canonical_dumps(bundle_to_json_dict(back)) == canonical_dumps(doc)

    def test_general_round_trip(self):
        rng = random.Random(8)
        for _ in range(10):
            system = random_system(rng, max_subdivisions=2)
            doc = bundle_to_json_dict(system)
            back = bundle_from_json_dict(doc)
            assert isinstance(back, NecklaceLocalSystem)
            assert systems_equivalent(back, system)
            assert canonical_dumps(bundle_to_json_dict(back)) == canonical_dumps(doc)

    def test_minimal_system_serialized_without_maps(self):
        m = minimal_from_cocycle(delta_torus(), IntCochain(2, (1, 0)))
        doc = bundle_to_json_dict(m.as_local_system())
        assert "bead_maps" not in doc
        assert doc["stalks"] == {
            f"{q}/{idx}": format_necklace_text(th.word)
            for (q, idx), th in m.stalks.items()
        }

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("stalks"),
            lambda d: d["stalks"].pop("2/0"),
            lambda d: d["stalks"].update({"2/0": "(0 1)"}),
            lambda d: d["stalks"].update({"9/0": "(0)"}),
            lambda d: d["stalks"].update({"weird": "(0)"}),
        ],
    )
    def test_bad_documents(self, mutate):
        m = minimal_from_cocycle(delta_torus(), IntCochain(2, (0, 0)))
        doc = bundle_to_json_dict(m.as_local_system())
        mutate(doc)
        with pytest.raises((MalformedFile, DanglingReference, IncoherentLocalSystem)):
            bundle_from_json_dict(doc)

    def test_incoherent_minimal_document(self):
        # an odd triangle under an even tetrahedron, read from a file
        m = minimal_from_cocycle(standard_simplex(3), IntCochain(2, (0, 0, 0, 0)))
        doc = bundle_to_json_dict(m.as_local_system())
        doc["stalks"]["2/0"] = "(0 2 1)"
        with pytest.raises(IncoherentLocalSystem):
            bundle_from_json_dict(doc)

    def test_bad_bead_maps(self):
        system = subdivide(
            minimal_from_cocycle(delta_torus(), IntCochain(2, (0, 0))).as_local_system(),
            0,
            0,
        )
        base_doc = bundle_to_json_dict(system)
        doc = {k: v for k, v in base_doc.items()}
        doc["bead_maps"] = dict(base_doc["bead_maps"])
        doc["bead_maps"]["9/0/0"] = [0]
        with pytest.raises(DanglingReference):
            bundle_from_json_dict(doc)
        doc = {k: v for k, v in base_doc.items()}
        doc["bead_maps"] = dict(base_doc["bead_maps"])
        first = sorted(doc["bead_maps"])[0]
        doc["bead_maps"][first] = [99] * len(doc["bead_maps"][first])
        with pytest.raises(MalformedFile):
            bundle_from_json_dict(doc)

    def test_total_export(self):
        system = elementary_system(Necklace.from_colors((0, 1, 0, 2)))
        asm = assemble(system)
        doc = total_to_json_dict(asm)
        back = SemiSimplicialSet.from_json_dict(doc)
        assert back == asm.total
        for p in range(len(asm.index.keys)):
            assert len(doc["projection"][str(p)]) == asm.total.simplex_count(p)
