import itertools
import math
import random

import pytest

from scbundles import (
    CircularPermutation,
    EnumerationBound,
    IncompatibleFamily,
    IntCochain,
    LastColor,
    MismatchedCarriers,
    Necklace,
    NotACocycle,
    boundary_sphere,
    c01,
    enumerate_sc,
    kan_lifts,
    kan_survey,
    minimal_from_cocycle,
    sc_normalized_homology,
    standard_simplex,
)
from scbundles import cyclic as cyclic_module
from scbundles.bundle import _arc_table
from scbundles.cyclic import (
    _WORD_CACHE_SIZE,
    MAX_SC_K,
    _canon_cp,
    _cp_face,
)

from generators import Budget, vertex_order_cocycle
from oracles import (
    degeneracy,
    elementary_system,
    face_walk,
    is_classical_necklace,
    word_degeneracy,
)


class TestCircularWords:
    def test_canonical_form(self):
        assert CircularPermutation((2, 0, 1)) == CircularPermutation((0, 1, 2))
        assert str(CircularPermutation((1, 2, 0))) == "<0,1,2>"
        assert CircularPermutation((0, 2, 1)).top == 2

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            CircularPermutation((0, 0, 1))
        with pytest.raises(ValueError):
            CircularPermutation(())

    def test_face_examples(self):
        assert CircularPermutation((0, 2, 1, 3)).face(1) == CircularPermutation((0, 1, 2))
        assert CircularPermutation((0, 1, 2)).face(0) == CircularPermutation((0, 1))
        with pytest.raises(LastColor):
            CircularPermutation((0,)).face(0)

    def test_degeneracy_examples(self):
        assert degeneracy(CircularPermutation((0, 2, 1)), 1) == CircularPermutation((0, 3, 1, 2))
        assert degeneracy(CircularPermutation((0,)), 0) == CircularPermutation((0, 1))

    def test_face_deletes_color_not_position(self):
        # the value is removed wherever it sits, lower colors close ranks
        th = CircularPermutation((0, 3, 1, 4, 2))
        assert th.face(1) == CircularPermutation(
            tuple(v if v < 1 else v - 1 for v in (0, 3, 4, 2))
        )


def all_pairs(k):
    return [(i, j) for i in range(k + 1) for j in range(k + 1)]


class TestSimplicialIdentities:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_face_face_exhaustive(self, k):
        for th in enumerate_sc(k):
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    assert th.face(j).face(i) == th.face(i).face(j - 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mixed_identities_exhaustive(self, k):
        for th in enumerate_sc(k):
            for i in range(k + 1):
                s = degeneracy(th, i)
                # both cancellations give the element back
                assert s.face(i) == th
                assert s.face(i + 1) == th
                for j in range(k + 1):
                    if j < i:
                        assert s.face(j) == degeneracy(th.face(j), i - 1)
                    elif j > i + 1:
                        assert degeneracy(th, i).face(j) == degeneracy(th.face(j - 1), i)
            for i in range(k + 1):
                for j in range(i, k + 1):
                    assert (
                        degeneracy(degeneracy(th, j), i)
                        == degeneracy(degeneracy(th, i), j + 1)
                    )

    def test_random_dimension_five(self):
        rng = random.Random(9)
        elems = enumerate_sc(5)
        for _ in range(200):
            th = rng.choice(elems)
            i = rng.randrange(6)
            j = rng.randrange(i + 1, 7) if i < 6 else 6
            if j <= 5 and i < j:
                assert th.face(j).face(i) == th.face(i).face(j - 1)
            s = degeneracy(th, i)
            assert s.face(i) == th

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_coset_commutes_with_structure(self, k):
        # the operators on linear words, without wrapping around
        def face(word, i):
            return tuple(v if v < i else v - 1 for v in word if v != i)

        for word in itertools.permutations(range(k + 1)):
            coset = CircularPermutation(word)
            for i in range(k + 1):
                assert CircularPermutation(face(word, i)) == coset.face(i)
                assert CircularPermutation(word_degeneracy(word, i)) == degeneracy(coset, i)


def test_word_caches_are_bounded():
    for cache in (_canon_cp, _cp_face):
        assert cache.cache_info().maxsize == _WORD_CACHE_SIZE


class TestEnumeration:
    def test_counts(self):
        for k in range(6):
            assert len(enumerate_sc(k)) == math.factorial(k)

    def test_bound(self):
        with pytest.raises(EnumerationBound) as exc:
            enumerate_sc(MAX_SC_K + 1)
        assert exc.value.exit_code == 11
        assert len(enumerate_sc(MAX_SC_K)) == 5040

    def test_degeneracy_detection_matches_images(self):
        assert not CircularPermutation((0,)).is_degenerate()
        for k in range(1, 7):
            images = set()
            for th in enumerate_sc(k - 1):
                for i in range(k):
                    images.add(degeneracy(th, i))
            for th in enumerate_sc(k):
                assert th.is_degenerate() == (th in images)

    def test_nondegenerate_counts(self):
        counts, groups = sc_normalized_homology(3)
        assert counts == (1, 0, 1, 2)
        assert [groups.betti(q) for q in range(3)] == [1, 0, 1]
        assert all(not groups.torsion(q) for q in range(3))


class TestParity:
    def test_c01(self):
        assert c01(CircularPermutation((0, 1, 2))) == 0
        assert c01(CircularPermutation((0, 2, 1))) == 1
        with pytest.raises(ValueError):
            c01(CircularPermutation((0, 1)))

    def test_triple_bits_reconstruct(self):
        # a circular permutation is the top stalk of its own triple parities
        for k in range(2, 6):
            base = standard_simplex(k)
            triples = list(itertools.combinations(range(k + 1), 3))
            for th in enumerate_sc(k):
                u = IntCochain(2, tuple(_induced(th.word, t) for t in triples))
                assert minimal_from_cocycle(base, u).stalk(k, 0) == th

    @pytest.mark.parametrize("top", [3, 4])
    def test_insertion_succeeds_exactly_on_cocycles(self, top):
        # Huntington's transitivity axiom is the cocycle law on 0/1 bits;
        # the triangles of simplex:top are its triples in this order
        base = standard_simplex(top)
        triples = list(itertools.combinations(range(top + 1), 3))
        quadruples = list(itertools.combinations(range(top + 1), 4))
        successes = 0
        for code in range(2 ** len(triples)):
            bits = {t: (code >> r) & 1 for r, t in enumerate(triples)}
            u = IntCochain(2, tuple(bits[t] for t in triples))
            if any(
                bits[(b, c, d)] - bits[(a, c, d)] + bits[(a, b, d)] - bits[(a, b, c)]
                for a, b, c, d in quadruples
            ):
                with pytest.raises(NotACocycle):
                    minimal_from_cocycle(base, u)
            else:
                th = minimal_from_cocycle(base, u).stalk(top, 0)
                assert {t: _induced(th.word, t) for t in triples} == bits
                successes += 1
        assert successes == math.factorial(top)

    @pytest.mark.parametrize("k", range(5, 10))
    def test_every_stalk_induces_its_triangles(self, k):
        rng = random.Random(k)
        for base in (standard_simplex(k), boundary_sphere(k)):
            u = vertex_order_cocycle(base, rng)
            bundle = minimal_from_cocycle(base, u)
            for q in range(2, base.top_dim + 1):
                for idx in base.simplices(q):
                    word = bundle.stalk(q, idx).word
                    for t in itertools.combinations(range(q + 1), 3):
                        triangle = face_walk(base, q, idx, t)[0]
                        assert _induced(word, t) == u.values[triangle]

    def test_lift_budget(self):
        base = standard_simplex(12)
        u = vertex_order_cocycle(base, random.Random(12))
        with Budget(1.5):
            minimal_from_cocycle(base, u)


def _induced(word, t):
    """The cyclic order a word induces on the triple t = (a, b, c) with
    a < b < c: 0 for (a,b,c), 1 for (a,c,b)."""
    sub = [v for v in word if v in t]
    j = sub.index(t[0])
    return 0 if tuple(sub[j:] + sub[:j]) == t else 1


def _lifts_oracle(facets):
    """Lifts of a facet family object by object: the exchange precheck on
    `CircularPermutation.face`, then a filter of all of SC(k)."""
    k = len(facets) - 1
    for i in range(k):
        for j in range(i, k):
            left, right = facets[i].face(j), facets[j + 1].face(i)
            if left != right:
                raise IncompatibleFamily(
                    f"faces disagree between facets {i} and {j + 1}: "
                    f"face {j} of the former is {left}, "
                    f"face {i} of the latter is {right}"
                )
    return [
        th for th in enumerate_sc(k)
        if all(th.face(i) == facets[i] for i in range(k + 1))
    ]


def _census_oracle(k):
    """Every facet family of dimension k with its oracle outcome, in the
    lexicographic order of the tuples, and the census built from them."""
    outcomes = []
    compatible = 0
    histogram = {}
    for facets in itertools.product(enumerate_sc(k - 1), repeat=k + 1):
        try:
            lifts = _lifts_oracle(facets)
        except IncompatibleFamily as exc:
            outcomes.append((facets, (IncompatibleFamily, str(exc))))
            continue
        outcomes.append((facets, lifts))
        compatible += 1
        histogram[len(lifts)] = histogram.get(len(lifts), 0) + 1
    survey = {
        "dimension": k,
        "families": len(outcomes),
        "compatible": compatible,
        "lift_counts": histogram,
    }
    return outcomes, survey


def _lifts_outcome(facets):
    try:
        return kan_lifts(facets)
    except IncompatibleFamily as exc:
        return (type(exc), str(exc))


class TestKan:
    def test_dimension_two(self):
        edge = CircularPermutation((0, 1))
        lifts = kan_lifts([edge, edge, edge])
        assert sorted(str(t) for t in lifts) == ["<0,1,2>", "<0,2,1>"]

    def test_dimension_three_parity_law(self):
        even = CircularPermutation((0, 1, 2))
        odd = CircularPermutation((0, 2, 1))
        for code in range(16):
            f = [(code >> (3 - i)) & 1 for i in range(4)]
            facets = [odd if b else even for b in f]
            lifts = kan_lifts(facets)
            liftable = (f[0] - f[1] + f[2] - f[3]) == 0
            assert len(lifts) == (1 if liftable else 0)

    def test_bad_families(self):
        with pytest.raises(MismatchedCarriers):
            kan_lifts([CircularPermutation((0, 1))])
        with pytest.raises(MismatchedCarriers):
            kan_lifts([CircularPermutation((0, 1))] * 4)

    def test_incompatible_family_names_pair(self):
        a = CircularPermutation((0, 1, 2, 3))
        b = CircularPermutation((0, 2, 1, 3))
        found = False
        from itertools import product

        for combo in product([a, b], repeat=5):
            try:
                kan_lifts(combo)
            except IncompatibleFamily as exc:
                assert "facets" in str(exc)
                found = True
                break
        assert found

    def test_survey(self):
        assert kan_survey(2) == {
            "dimension": 2, "families": 1, "compatible": 1, "lift_counts": {2: 1},
        }
        s3 = kan_survey(3)
        assert s3["compatible"] == 16
        assert s3["lift_counts"] == {0: 10, 1: 6}
        with pytest.raises(EnumerationBound):
            kan_survey(MAX_SC_K + 1)
        with pytest.raises(MismatchedCarriers):
            kan_survey(1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_survey_matches_object_oracle(self, k):
        outcomes, expected = _census_oracle(k)
        survey = kan_survey(k)
        assert survey == expected
        assert list(survey["lift_counts"].items()) == list(expected["lift_counts"].items())
        for facets, want in outcomes:
            assert _lifts_outcome(facets) == want

    def test_census_budget(self):
        with Budget(0.05):
            assert kan_survey(4)["compatible"] == 24

    def test_survey_looks_facets_up_by_face(self, monkeypatch):
        calls = 0
        exchange_holds = cyclic_module._exchange_holds

        def counting(*args):
            nonlocal calls
            calls += 1
            return exchange_holds(*args)

        monkeypatch.setattr(cyclic_module, "_exchange_holds", counting)
        assert kan_survey(4)["compatible"] == 24
        # a pairwise join would test each partial family against every word
        assert calls == 0


class TestNecklace:
    def test_canonical_rotation(self):
        n = Necklace((1, 0, 0), (5, 6, 7))
        assert n.colors == (0, 0, 1)
        assert n.ids == (6, 7, 5)

    def test_tie_break_on_ids(self):
        n = Necklace((0, 1, 0, 1), (3, 2, 1, 0))
        assert n.colors == (0, 1, 0, 1)
        assert n.ids == (1, 0, 3, 2)

    @staticmethod
    def turning_cases(rng):
        """(colors, ids) circles: random words, then periodic words, all-zero
        circles, longest zero runs wrapping past the end of the word, and
        words near the one-run early exit (a single run of 0s in mid-word,
        a single run wrapping past the end, a front run plus a lone 0
        later), each under a few id orders, and one word with colors above
        255."""
        for _ in range(500):
            top = rng.randrange(4)
            colors = list(range(top + 1)) + [
                rng.randrange(top + 1) for _ in range(rng.randrange(8))
            ]
            rng.shuffle(colors)
            yield colors, rng.sample(range(100), len(colors))
        words = []
        for k in range(1, 5):
            words += [[0, 0, 1, 1] * k, [0, 1, 0, 2] * k, [0] * k]
        for lead in range(3):
            for tail in range(1, 4):
                # the wrapped run ties with the inner run of the same length
                words.append([0] * lead + [1] + [0] * (lead + tail) + [2] + [0] * tail)
                words.append([0] * lead + [2, 1] + [0] * tail)
        words += [
            [1, 0, 0, 2], [2, 1, 0, 0, 0, 1],  # one run in mid-word
            [0, 1, 2, 0], [0, 0, 2, 1, 0, 0],  # one run wrapping past the end
            [0, 0, 1, 0, 2], [0, 0, 0, 2, 1, 1, 0, 1],  # front run, lone 0 later
        ]
        for colors in words:
            for _ in range(4):
                yield colors, rng.sample(range(100), len(colors))
        colors = list(range(300)) + [0, 0, 299]
        rng.shuffle(colors)
        yield colors, rng.sample(range(1000), len(colors))

    def test_canonical_turning_is_least_of_all_rotations(self):
        # oracle: the least (colors, ids) pair over every rotation
        for colors, ids in self.turning_cases(random.Random(9)):
            want = min(
                (tuple(colors[r:] + colors[:r]), tuple(ids[r:] + ids[:r]))
                for r in range(len(colors))
            )
            got = Necklace(tuple(colors), tuple(ids))
            assert (got.colors, got.ids) == want

    def test_split_equals_the_necklace_of_the_spliced_beads(self):
        rng = random.Random(10)
        for colors, ids in self.turning_cases(rng):
            neck = Necklace(tuple(colors), tuple(ids))
            parents = rng.sample(neck.ids, rng.randint(0, min(3, neck.size)))
            after = dict(zip(parents, rng.sample(range(1000, 1100), len(parents))))
            beads = []
            for b, c in neck.beads():
                beads.append((c, b))
                if b in after:
                    beads.append((c, after[b]))
            top = neck.top  # cached on the parent before the split
            split = neck.split(after)
            assert split == Necklace(*zip(*beads))
            assert split.top == max(split.colors) == top

    def test_split_rejects_what_it_could_break(self):
        neck = Necklace((0, 1, 0, 2), (4, 5, 6, 7))
        with pytest.raises(ValueError, match="already on the necklace"):
            neck.split({4: 5})
        with pytest.raises(ValueError, match="distinct"):
            neck.split({4: 8, 6: 8})
        with pytest.raises(ValueError, match="no bead 9"):
            neck.split({4: 8, 9: 10})
        with pytest.raises(ValueError, match="no bead 9"):
            neck.split({9: 10})
        with pytest.raises(ValueError, match="already on the necklace"):
            neck.split({4: 8, 6: 5})
        # a parent must be on the necklace before the split, not spliced by it
        with pytest.raises(ValueError, match="no bead 8"):
            neck.split({4: 8, 8: 9})
        assert neck.split({4: 8, 6: 9}) == Necklace((0, 0, 1, 0, 0, 2), (4, 8, 5, 6, 9, 7))

    def test_invariants(self):
        with pytest.raises(ValueError):
            Necklace((0, 2), (0, 1))
        with pytest.raises(ValueError):
            Necklace((0, 1), (0, 0))
        with pytest.raises(ValueError):
            Necklace((), ())

    def test_navigation(self):
        n = Necklace.from_colors((0, 1, 0, 2))
        assert [n.position[b] for b in n.ids] == [0, 1, 2, 3]
        assert n.position is n.position  # built once
        assert n.has_bead(n.ids[0]) and not n.has_bead(99)

    def test_delete_color_maps(self):
        # face i of the top simplex of an elementary system deletes color i
        system = elementary_system(Necklace.from_colors((0, 1, 0, 2)))
        face = system.base.face_index
        top = system.stalk(2, 0)

        def arcs(i):
            """The arc table along face i, read as bead ids."""
            small = system.stalk(1, face(2, 0, i))
            table = _arc_table(top, small, system.bead_maps[2][0][i])
            return {b: small.ids[t] for b, t in zip(top.ids, table)}

        assert system.stalk(1, face(2, 0, 1)).colors == (0, 0, 1)
        bead_map = system.bead_maps[2][0][1]
        assert set(bead_map) == {0, 2, 3}
        assert all(bead_map[b] == b for b in bead_map)
        assert arcs(1) == {0: 0, 1: 0, 2: 2, 3: 3}
        assert system.stalk(1, face(2, 0, 0)).colors == (0, 1)
        assert set(system.bead_maps[2][0][0]) == {1, 3}
        assert arcs(0) == {0: 3, 1: 1, 2: 1, 3: 3}

    def test_to_circular(self):
        n = Necklace.from_circular(CircularPermutation((0, 2, 1)))
        assert n.to_circular() == CircularPermutation((0, 2, 1))
        with pytest.raises(ValueError):
            Necklace.from_colors((0, 0, 1)).to_circular()

    def test_classical_criterion(self):
        cases = [
            ((0, 0, 0), True),
            ((0, 1, 0, 1, 0, 1), True),
            ((0, 0, 0, 1, 1, 1), False),
            ((0, 1, 2, 0, 1, 2, 0, 1, 2), True),
            ((0, 1), False),
            ((0,), False),
            ((0, 0, 1, 1, 0, 1), True),
            ((0, 1, 0, 1), False),
        ]
        for word, want in cases:
            got, reason = is_classical_necklace(Necklace.from_colors(word))
            assert got is want, word
            assert (reason is None) is want
