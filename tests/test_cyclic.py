import itertools
import math
import random

import pytest

from scbundles import (
    CircularPermutation,
    EnumerationBound,
    IncompatibleFamily,
    InconsistentTriples,
    LastColor,
    MismatchedCarriers,
    Necklace,
    TripleOrderFamily,
    c01,
    elementary_system,
    enumerate_sc,
    insertion_extend,
    is_classical_necklace,
    kan_lifts,
    kan_survey,
    sc_normalized_homology,
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
        assert CircularPermutation((0, 2, 1)).degeneracy(1) == CircularPermutation((0, 3, 1, 2))
        assert CircularPermutation((0,)).degeneracy(0) == CircularPermutation((0, 1))

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
                s = th.degeneracy(i)
                # both cancellations give the element back
                assert s.face(i) == th
                assert s.face(i + 1) == th
                for j in range(k + 1):
                    if j < i:
                        assert s.face(j) == th.face(j).degeneracy(i - 1)
                    elif j > i + 1:
                        assert th.degeneracy(i).face(j) == th.face(j - 1).degeneracy(i)
            for i in range(k + 1):
                for j in range(i, k + 1):
                    assert (
                        th.degeneracy(j).degeneracy(i)
                        == th.degeneracy(i).degeneracy(j + 1)
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
            s = th.degeneracy(i)
            assert s.face(i) == th

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_coset_commutes_with_structure(self, k):
        # the operators on linear words, without wrapping around
        def face(word, i):
            return tuple(v if v < i else v - 1 for v in word if v != i)

        def degeneracy(word, i):
            out = []
            for v in word:
                out.append(v if v <= i else v + 1)
                if v == i:
                    out.append(i + 1)
            return tuple(out)

        for word in itertools.permutations(range(k + 1)):
            coset = CircularPermutation(word)
            for i in range(k + 1):
                assert CircularPermutation(face(word, i)) == coset.face(i)
                assert CircularPermutation(degeneracy(word, i)) == coset.degeneracy(i)


class TestEnumeration:
    def test_counts(self):
        for k in range(6):
            assert len(enumerate_sc(k)) == math.factorial(k)

    def test_bound(self, monkeypatch):
        monkeypatch.setenv("SC_MAX_K", "4")
        with pytest.raises(EnumerationBound):
            enumerate_sc(5)
        assert len(enumerate_sc(4)) == 24
        monkeypatch.setenv("SC_MAX_K", "banana")
        with pytest.raises(EnumerationBound):
            enumerate_sc(2)

    def test_explicit_max_overrides_env(self, monkeypatch):
        monkeypatch.setenv("SC_MAX_K", "2")
        assert len(enumerate_sc(4, max_k=5)) == 24

    def test_degeneracy_detection_matches_images(self):
        assert not CircularPermutation((0,)).is_degenerate()
        for k in range(1, 7):
            images = set()
            for th in enumerate_sc(k - 1):
                for i in range(k):
                    images.add(th.degeneracy(i))
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
        for k in range(2, 6):
            for th in enumerate_sc(k):
                triples = itertools.combinations(range(k + 1), 3)
                fam = TripleOrderFamily.from_mapping(
                    k, {t: th.triple_bit(*t) for t in triples}
                )
                assert insertion_extend(fam) == th

    def test_triple_bit_matches_restriction(self):
        th = CircularPermutation((0, 3, 1, 4, 2))
        for a, b, c in [(0, 1, 2), (1, 3, 4), (0, 2, 4)]:
            keep = {a: 0, b: 1, c: 2}
            word = tuple(keep[v] for v in th.word if v in keep)
            assert th.triple_bit(a, b, c) == c01(CircularPermutation(word))

    def test_inconsistent_family(self):
        bits = {t: 0 for t in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]}
        bits[(0, 1, 2)] = 1
        fam = TripleOrderFamily.from_mapping(3, bits)
        with pytest.raises(InconsistentTriples) as exc:
            insertion_extend(fam)
        assert exc.value.quadruple == (0, 1, 2, 3)


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
            kan_survey(5)
        with pytest.raises(MismatchedCarriers):
            kan_survey(1)


class TestNecklace:
    def test_canonical_rotation(self):
        n = Necklace((1, 0, 0), (5, 6, 7))
        assert n.colors == (0, 0, 1)
        assert n.ids == (6, 7, 5)

    def test_tie_break_on_ids(self):
        n = Necklace((0, 1, 0, 1), (3, 2, 1, 0))
        assert n.colors == (0, 1, 0, 1)
        assert n.ids == (1, 0, 3, 2)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Necklace((0, 2), (0, 1))
        with pytest.raises(ValueError):
            Necklace((0, 1), (0, 0))
        with pytest.raises(ValueError):
            Necklace((), ())

    def test_navigation(self):
        n = Necklace.from_colors((0, 1, 0, 2))
        assert n.predecessor(n.ids[0]) == n.ids[-1]
        assert n.color_of(n.ids[1]) == n.colors[1]
        assert n.has_bead(n.ids[0]) and not n.has_bead(99)

    def test_delete_color_maps(self):
        # face i of the top simplex of an elementary system deletes color i
        system = elementary_system(Necklace.from_colors((0, 1, 0, 2)))
        face = system.base.face_index
        assert system.stalk(1, face(2, 0, 1)).colors == (0, 0, 1)
        bead_map = system.bead_map(2, 0, 1)
        assert set(bead_map) == {0, 2, 3}
        assert all(bead_map[b] == b for b in bead_map)
        assert system.arc_map(2, 0, 1) == {0: 0, 1: 0, 2: 2, 3: 3}
        assert system.stalk(1, face(2, 0, 0)).colors == (0, 1)
        assert set(system.bead_map(2, 0, 0)) == {1, 3}
        assert system.arc_map(2, 0, 0) == {0: 3, 1: 1, 2: 1, 3: 3}

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
