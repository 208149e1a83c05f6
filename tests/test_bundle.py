import gc
import random
import weakref

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
    SimplexRef,
    SingularProjection,
    assemble,
    boundary_sphere,
    build_surface_bundle,
    bundle_from_json_dict,
    bundle_to_json_dict,
    chern_cocycle_general,
    chern_number,
    check_projection_naturality,
    delta_torus,
    fundamental_class,
    homology_groups,
    minimal_from_cocycle,
    octahedron_sphere,
    standard_simplex,
    total_to_json_dict,
)
from scbundles._json import canonical_dumps, read_json, write_json
from scbundles.bundle import _minimal_system, format_necklace_text, parse_necklace_text
from scbundles.simplicial import named_base
from scbundles.spindle import contract, subdivide

from generators import (
    grid_torus,
    random_binary_cocycle,
    random_moves,
    random_necklace,
    random_system,
    vertex_order_cocycle,
)
from oracles import (
    catalog,
    elementary_system,
    is_classical_bundle,
    is_classical_necklace,
    systems_equivalent,
    total_rows,
    validate_reference,
    vertex_at,
    vertex_embedding,
)


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
                        emb = vertex_embedding(system, q, idx, p)
                        v = vertex_at(base, q, idx, p)
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
        maps = _copied_maps(system)
        bm = maps[(1, 0)][0]
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
        maps = _copied_maps(system)
        bm = maps[(1, 0)][1]
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
        maps = _copied_maps(system)
        bm = maps[(1, 0)][1]
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
        asm = assemble(elementary_system(Necklace.from_colors((0, 0, 0))))
        assert asm.total.counts == (3, 3)
        h = homology_groups(asm.total)
        assert str(h) == "H0=Z, H1=Z"

    def test_index_round_trip(self):
        system = elementary_system(Necklace.from_colors((0, 1, 0, 2)))
        asm = assemble(system)
        for p, keys in enumerate(catalog(system)):
            assert len(keys) == asm.total.simplex_count(p)
            assert len(set(keys)) == len(keys)
            for kind, q, _, _ in keys:
                assert p == (q if kind == "H" else q + 1)

    def test_catalog_counts(self):
        torus = _surface_system(grid_torus(6), 3)
        rng = random.Random(4)
        split = torus
        for _ in range(5):
            v = rng.randrange(split.base.simplex_count(0))
            split = subdivide(split, v, rng.choice(split.stalk(0, v).ids))
        counts = [tuple(len(level) for level in catalog(s)) for s in (torus, split)]
        assert counts == [assemble(s).total.counts for s in (torus, split)]
        assert counts[0] != counts[1]  # the moves did split beads

    def test_assembled_bundle_holds_no_system(self):
        class Tracked(NecklaceLocalSystem):
            """Has no __slots__, so it accepts a weak reference."""

        s = elementary_system(Necklace.from_colors((0, 1, 0, 2)))
        s = Tracked(s.base, s.stalks, s.bead_maps)
        held = weakref.ref(s)
        asm = assemble(s)
        del s
        gc.collect()
        assert held() is None
        assert asm.total.counts == (4, 12, 12, 4)

    def test_projection_ops(self):
        system = elementary_system(CircularPermutation((0, 1, 2)))
        asm = assemble(system)
        for p, level in enumerate(catalog(system)):
            for i, key in enumerate(level):
                kind, q, idx, bead = key
                ref, op = asm.projection.table[p][i]
                assert (ref.dim, ref.index) == (q, idx)
                if kind == "H":
                    assert op == tuple(range(q + 1))
                else:
                    j = dict(system.stalk(q, idx).beads())[bead]
                    assert op == tuple(
                        t if t <= j else t - 1 for t in range(q + 2)
                    )

    def test_randomized_bundles_clean(self):
        rng = random.Random(21)
        for _ in range(30):
            assert_assembly_clean(random_system(rng))

    @pytest.mark.parametrize(
        "name", ["random", "torus:6", "delta-torus", "simplex:4", "sphere:5"]
    )
    def test_rows_match_oracle(self, name):
        for system in _oracle_systems(name):
            asm = assemble(system)
            faces, projection = total_rows(system)
            table = asm.projection.table
            assert list(map(len, table)) == list(map(len, projection))
            for p, level in enumerate(table):
                rows = [asm.total.face_row(p, i) for i in range(len(level))] if p else []
                assert rows == faces[p], p
                entries = [(ref.dim, ref.index, op) for ref, op in level]
                assert entries == projection[p], p

    def test_total_shares_its_rows_and_pairs(self):
        # what keeps a large total cheap to build and write: one tuple per
        # face row, handed to the writer as it is, and one projection pair
        # per base simplex and operator rather than one per simplex
        plain = _surface_system(grid_torus(6), 3)
        split = random_moves(plain, random.Random(8), 40)
        assert not split.is_minimal()
        for system in (plain, split):
            asm = assemble(system)
            doc = total_to_json_dict(asm)
            for p in range(1, asm.total.top_dim + 1):
                rows = [asm.total.face_row(p, i) for i in asm.total.simplices(p)]
                assert {type(row) for row in rows} == {tuple}
                assert {type(row) for row in doc["faces"][str(p)]} == {tuple}
            refs, pairs = {}, {}
            for p, level in enumerate(asm.projection.table):
                for pair, row in zip(level, doc["projection"][str(p)], strict=True):
                    ref, op = pair
                    refs.setdefault((ref.dim, ref.index), set()).add(id(ref))
                    pairs.setdefault((ref.dim, ref.index, op), set()).add(id(pair))
                    assert row == (ref.dim, ref.index, op) and row[2] is op
            assert {len(objects) for objects in refs.values()} == {1}
            assert {len(objects) for objects in pairs.values()} == {1}

    def test_arc_tables_do_not_depend_on_sharing(self):
        # assemble keys its arc tables on object identity: a copy with a
        # fresh object for every stalk and bead map must assemble the same
        shared = _surface_system(grid_torus(6), 3)
        assert len({id(n) for n in shared.stalks.values()}) == 4
        rng = random.Random(10)
        moved = shared
        for _ in range(20):
            v = rng.randrange(moved.base.simplex_count(0))
            moved = subdivide(moved, v, rng.choice(moved.stalk(0, v).ids), check=False)
        for system in (shared, moved):
            unshared = NecklaceLocalSystem(
                system.base,
                {key: Necklace(n.colors, n.ids) for key, n in system.stalks.items()},
                _copied_maps(system),
                check=False,
            )
            a, b = assemble(system), assemble(unshared)
            assert a.total == b.total
            assert a.projection.table == b.projection.table


def naturality_oracle(total, projection):
    """The per-face naturality check, recomputing every composite: the
    reference for the library's table-driven version."""
    base = projection.base
    problems = []
    for p in range(1, total.top_dim + 1):
        for idx in total.simplices(p):
            x, s = projection.table[p][idx]
            for m in range(p + 1):
                composite = tuple(s[t] if t < m else s[t + 1] for t in range(p))
                fref = SimplexRef(p - 1, total.face_index(p, idx, m))
                fx, fs = projection.table[p - 1][fref.index]
                present = set(composite)
                missing = [v for v in range(x.dim + 1) if v not in present]
                if not missing:
                    if fx != x or fs != composite:
                        problems.append(
                            f"face {m} of {p}/{idx} projects to ({fx}, {fs}), "
                            f"expected ({x}, {composite})"
                        )
                elif len(missing) == 1:
                    v = missing[0]
                    want_ref = SimplexRef(x.dim - 1, base.face_index(x.dim, x.index, v))
                    want_op = tuple(w if w < v else w - 1 for w in composite)
                    if fx != want_ref or fs != want_op:
                        problems.append(
                            f"face {m} of {p}/{idx} projects to ({fx}, {fs}), "
                            f"expected ({want_ref}, {want_op})"
                        )
                else:
                    problems.append(
                        f"projection of {p}/{idx} is not a degeneracy operator"
                    )
    return problems


def _doubled_trivial(base):
    """The trivial bundle over base with every fiber doubled: over a
    q-simplex the word 0..q twice, the second copy's ids after the first,
    and one stalk and one maps tuple shared over each level.  A vertex
    circle has two beads, so a turn of it along an edge is still a
    descent map; only commutation above the edge can see it."""
    stalks, bead_maps = {}, {}
    for q, n in enumerate(base.counts):
        neck = Necklace.from_colors(tuple(range(q + 1)) * 2)
        stalks.update(((q, idx), neck) for idx in range(n))
        maps = tuple(
            {c + k * q: (c if c < i else c + 1) + k * (q + 1) for k in (0, 1) for c in range(q)}
            for i in range(q + 1)
        )
        bead_maps.update(((q, idx), maps) for idx in range(n) if q)
    return NecklaceLocalSystem(base, stalks, bead_maps)


def _copied_maps(system):
    """The bead maps of system, each tuple and map a fresh copy."""
    return {key: tuple(map(dict, maps)) for key, maps in system.bead_maps.items()}


def _surface_system(base, c):
    return build_surface_bundle(base, fundamental_class(base), c).as_local_system()


def _oracle_systems(name):
    """Random bundles for "random"; otherwise a minimal bundle over the
    named base and two after seeded moves, whose stalks repeat colors."""
    rng = random.Random(name)
    if name == "random":
        return [random_system(rng) for _ in range(20)]
    base = named_base(name)
    if base.top_dim == 2:
        plain = _surface_system(base, 3 if name == "torus:6" else 1)
    else:
        u = vertex_order_cocycle(base, rng)
        plain = minimal_from_cocycle(base, u).as_local_system()
    return [plain] + [random_moves(plain, rng, count) for count in (5, 40)]


def _naturality_bundles():
    split = _surface_system(octahedron_sphere(), 3)
    rng = random.Random(6)
    for _ in range(6):
        v = rng.randrange(split.base.simplex_count(0))
        split = subdivide(split, v, rng.choice(split.stalk(0, v).ids))
    bases = [(named_base("tetra"), 1), (octahedron_sphere(), 3), (delta_torus(), 1)]
    bases.append((grid_torus(6), 3))
    return [_surface_system(base, c) for base, c in bases] + [split]


class TestNaturalityOracle:
    """Corrupted projections and face tables: the library reports the same
    problems as the per-face oracle, message for message."""

    @staticmethod
    def corrupt(asm, kind, rng):
        table = [list(level) for level in asm.projection.table]
        faces = [
            [list(asm.total.face_row(q, i)) for i in asm.total.simplices(q)]
            for q in range(1, asm.total.top_dim + 1)
        ]
        p = rng.randrange(1, len(table))
        idx = rng.randrange(len(table[p]))
        ref, op = table[p][idx]
        if kind == "base ref":
            n = asm.projection.base.simplex_count(ref.dim)
            other = (ref.index + 1 + rng.randrange(n)) % n
            table[p][idx] = (SimplexRef(ref.dim, other), op)
        elif kind == "op":
            wrong = tuple(sorted(rng.randrange(ref.dim + 1) for _ in op))
            table[p][idx] = (ref, wrong)
        elif kind == "not a degeneracy":
            table[p][idx] = (ref, (0,) * len(op))
        else:
            row = faces[p - 1][idx]
            rng.shuffle(row)
        total = SemiSimplicialSet(len(table[0]), faces, check=False)
        projection = SingularProjection(
            asm.projection.base, tuple(tuple(level) for level in table)
        )
        return total, projection

    @pytest.mark.parametrize("kind", ["base ref", "op", "not a degeneracy", "face row"])
    def test_corruptions_match_oracle(self, kind):
        rng = random.Random(kind)
        found = 0
        for system in _naturality_bundles():
            asm = assemble(system)
            assert check_projection_naturality(asm.total, asm.projection) == []
            assert naturality_oracle(asm.total, asm.projection) == []
            for _ in range(15):
                total, projection = self.corrupt(asm, kind, rng)
                want = naturality_oracle(total, projection)
                assert check_projection_naturality(total, projection) == want
                found += bool(want)
        assert found >= 40


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
        assert chern_cocycle_general(again.as_local_system()).values == (1, 0)


class TestMinimalWordCheck:
    """Corrupted minimal bundles: ``MinimalBundle`` and the reader raise
    exactly the problems the face-by-face reference finds in the expanded
    local system, in its order, and nothing when it finds none."""

    @staticmethod
    def corrupt(base, stalks, rng):
        # swaps weigh most: any other corruption hides the face problems
        kind = rng.choice(["swap", "swap", "swap", "length", "missing", "beyond"])
        if kind == "beyond":
            q = rng.randrange(base.top_dim + 2)
            key = (q, base.simplex_count(q) + rng.randrange(2))
            stalks[key] = CircularPermutation(tuple(range(q + 1)))
            return kind
        q = rng.randrange(base.top_dim + 1)
        key = (q, rng.randrange(base.simplex_count(q)))
        if kind == "missing":
            stalks.pop(key, None)
        elif kind == "length":
            size = q + rng.choice([0, 2]) if q else 2
            stalks[key] = CircularPermutation(tuple(range(size)))
        elif key in stalks:
            word = list(stalks[key].word)
            i, j = rng.sample(range(len(word)), 2) if len(word) > 1 else (0, 0)
            word[i], word[j] = word[j], word[i]
            stalks[key] = CircularPermutation(tuple(word))
        return kind

    @pytest.mark.parametrize(
        "name", ["tetra", "delta-torus", "torus:5", "simplex:3", "simplex:4", "sphere:4"]
    )
    def test_matches_generic_validate(self, name):
        base = named_base(name)
        rng = random.Random(name)
        orders = 0
        for _ in range(40):
            stalks = dict(minimal_from_cocycle(base, random_binary_cocycle(base, rng)).stalks)
            kinds = {self.corrupt(base, stalks, rng) for _ in range(rng.randrange(1, 4))}
            want = "; ".join(validate_reference(_minimal_system(base, stalks)))
            orders += "circular order" in want
            builds = [lambda: MinimalBundle(base, stalks)]
            if kinds <= {"swap", "length"}:
                doc = {
                    "base": base.to_json_dict(),
                    "stalks": {
                        f"{q}/{idx}": format_necklace_text(th.word)
                        for (q, idx), th in stalks.items()
                    },
                }
                builds.append(lambda: bundle_from_json_dict(doc))
            for build in builds:
                if not want:
                    build()
                    continue
                with pytest.raises(IncoherentLocalSystem) as info:
                    build()
                assert str(info.value) == want
        assert orders >= (5 if base.top_dim >= 3 else 0)


class TestValidateOracle:
    """``validate`` checks each distinct combination of stalk, maps tuple
    and face objects once; the reference checks every face of every
    simplex.  Sound and corrupted systems get the same problems from both,
    in the same order."""

    # which face maps each corruption may pick, by dimension and map
    PLACES = {
        "drop": lambda q, bm: True,
        "swap": lambda q, bm: len(bm) > 1,
        "commute": lambda q, bm: q == 1 and len(bm) > 1,
    }

    @classmethod
    def corrupt(cls, system, rng):
        base = system.base
        stalks, maps = dict(system.stalks), dict(system.bead_maps)
        kind = rng.choice(["drop", "swap", "commute", "top", "shared-stalk"])
        q = rng.randrange(base.top_dim + 1)
        idx = rng.randrange(base.simplex_count(q))
        if kind == "top":
            stalks[(q, idx)] = Necklace.from_colors(range(q + 2))
        elif kind == "shared-stalk":
            # the very stalk of another simplex of the same dimension
            stalks[(q, idx)] = stalks[(q, rng.randrange(base.simplex_count(q)))]
        else:
            wanted = cls.PLACES[kind]
            places = [
                (key, i) for key, faces in maps.items()
                for i, bm in enumerate(faces) if bm is not None and wanted(key[0], bm)
            ]
            if places:
                key, i = rng.choice(places)
                faces = list(maps[key])
                bm = faces[i]
                if kind == "drop":
                    faces[i] = None
                elif kind == "swap":
                    a, b = rng.sample(sorted(bm), 2)
                    faces[i] = {**bm, a: bm[b], b: bm[a]}
                else:
                    # a turn of the vertex circle keeps a descent map one,
                    # so only the commutation check above the edge sees it
                    circle = stalks[(0, base.face_index(1, key[1], i))].ids
                    ids = [s for s in circle if s in bm]
                    faces[i] = {**bm, **dict(zip(ids, map(bm.get, ids[1:] + ids[:1])))}
                maps[key] = tuple(faces)
        return NecklaceLocalSystem(base, stalks, maps, check=False)

    @pytest.mark.parametrize(
        "name", ["random", "torus:6", "delta-torus", "simplex:4", "sphere:5"]
    )
    def test_matches_the_face_by_face_reference(self, name):
        rng = random.Random(f"validate {name}")
        found = set()
        systems = _oracle_systems(name)
        for system in systems + [_doubled_trivial(systems[0].base)]:
            assert system.validate() == validate_reference(system) == []
            for _ in range(12):
                broken = self.corrupt(system, rng)
                if rng.randrange(2):
                    broken = self.corrupt(broken, rng)
                problems = broken.validate()
                assert problems == validate_reference(broken)
                found.update(
                    what for what in ("uses colors", "missing bead map", "do not commute")
                    if any(what in problem for problem in problems)
                )
        assert found == {"uses colors", "missing bead map", "do not commute"}


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
        # tokens are canonical decimals, as keys are
        for bad in [
            "0 2 1", "()", "(x)", "",
            "(0 +1)", "(0 01)", "(0 1_0)", "(0 \N{FULLWIDTH DIGIT ONE})",
        ]:
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

    def test_minimal_file_shares_one_maps_tuple_per_level(self, tmp_path):
        base = grid_torus(6)
        path = tmp_path / "bundle.json"
        write_json(path, bundle_to_json_dict(_surface_system(base, 3)))
        system = bundle_from_json_dict(read_json(path))
        for q, n in enumerate(base.counts[1:], 1):
            tuples = {id(system.bead_maps[(q, idx)]) for idx in range(n)}
            assert len(tuples) == 1
            assert len(system.bead_maps[(q, 0)]) == q + 1
        assert len(system.bead_maps) == sum(base.counts[1:])

    def test_minimal_system_serialized_without_maps(self):
        m = minimal_from_cocycle(delta_torus(), IntCochain(2, (1, 0)))
        doc = bundle_to_json_dict(m.as_local_system())
        assert "bead_maps" not in doc
        assert doc["stalks"] == {
            f"{q}/{idx}": format_necklace_text(th.word)
            for (q, idx), th in m.stalks.items()
        }

    def test_minimal_bundle_written_unexpanded(self):
        for u in ((1, 0), (0, 0)):
            m = minimal_from_cocycle(delta_torus(), IntCochain(2, u))
            assert canonical_dumps(bundle_to_json_dict(m)) == canonical_dumps(
                bundle_to_json_dict(m.as_local_system())
            )

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
        for p in range(len(catalog(system))):
            assert len(doc["projection"][str(p)]) == asm.total.simplex_count(p)
