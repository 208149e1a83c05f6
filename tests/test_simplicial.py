import math

import pytest

from scbundles import (
    InvalidComplex,
    MalformedFile,
    SemiSimplicialSet,
    SimplexRef,
    boundary_sphere,
    delta_torus,
    named_base,
    octahedron_sphere,
    standard_simplex,
)

from generators import klein_bottle


def binomial(n, k):
    return math.comb(n, k)


class TestBuiltins:
    def test_standard_simplex_counts(self):
        for k in range(5):
            x = standard_simplex(k)
            assert x.counts == tuple(
                binomial(k + 1, q + 1) for q in range(k + 1)
            )
            assert x.validate() == []
            assert x.euler_characteristic() == 1

    def test_boundary_sphere_counts_and_euler(self):
        for k in range(1, 6):
            x = boundary_sphere(k)
            assert x.counts == tuple(
                binomial(k + 1, q + 1) for q in range(k)
            )
            assert x.validate() == []
            assert x.euler_characteristic() == (2 if k % 2 else 0)

    def test_delta_torus(self):
        t = delta_torus()
        assert t.counts == (1, 3, 2)
        assert t.validate() == []
        assert t.euler_characteristic() == 0
        assert {t.labels.get((1, i)) for i in range(3)} == {"a", "b", "c"}

    def test_octahedron(self):
        o = octahedron_sphere()
        assert o.counts == (6, 12, 8)
        assert o.validate() == []
        assert o.euler_characteristic() == 2
        # antipodal pairs never share a triangle
        for idx in o.simplices(2):
            vs = o.vertices_of(2, idx)
            for a, b in ((0, 1), (2, 3), (4, 5)):
                assert not (a in vs and b in vs)

    def test_vertices_follow_lex_subsets(self):
        from itertools import combinations

        x = standard_simplex(4)
        for q in range(5):
            subsets = list(combinations(range(5), q + 1))
            for idx in x.simplices(q):
                assert x.vertices_of(q, idx) == subsets[idx]

    def test_face_walk_spans_kept_positions(self):
        from itertools import combinations

        x = standard_simplex(4)
        for q in range(5):
            for idx in x.simplices(q):
                vs = x.vertices_of(q, idx)
                for r in range(1, q + 2):
                    for keep in combinations(range(q + 1), r):
                        face, steps = x.face_walk(q, idx, keep)
                        want = tuple(vs[p] for p in keep)
                        assert face == list(combinations(range(5), r)).index(want)
                        deleted = [t for _, _, t in steps]
                        assert deleted == sorted(set(range(q + 1)) - set(keep), reverse=True)
                        assert [d for d, _, _ in steps] == list(range(q, r - 1, -1))

    def test_vertex_at_matches_vertices_of(self):
        for x in (standard_simplex(3), boundary_sphere(3), delta_torus(), octahedron_sphere()):
            for q in range(x.top_dim + 1):
                for idx in x.simplices(q):
                    vs = x.vertices_of(q, idx)
                    assert vs == tuple(
                        x.vertex_at(q, idx, p) for p in range(q + 1)
                    )


class TestValidation:
    def test_face_identity_violation_reported(self):
        # square of edges with mismatched corner assignments
        faces = [[[0, 1], [1, 2], [2, 0]], [[0, 1, 2]]]
        x = SemiSimplicialSet(3, faces, check=False)
        problems = x.validate()
        assert problems
        assert any("face identity" in p for p in problems)
        with pytest.raises(InvalidComplex):
            SemiSimplicialSet(3, faces)

    def test_range_errors(self):
        with pytest.raises(InvalidComplex):
            SemiSimplicialSet(2, [[[0, 5]]])
        with pytest.raises(InvalidComplex):
            SemiSimplicialSet(2, [[[0]]])

    def test_klein_bottle_is_valid(self):
        assert klein_bottle().validate() == []


class TestAccessors:
    def test_face_ref(self):
        x = standard_simplex(2)
        ref = SimplexRef(2, 0)
        assert x.face(ref, 0) == SimplexRef(1, x.face_index(2, 0, 0))
        assert str(ref) == "2/0"

    def test_face_out_of_range(self):
        x = standard_simplex(2)
        with pytest.raises(IndexError):
            x.face_index(2, 0, 3)
        with pytest.raises(IndexError):
            x.face_index(1, 99, 0)

    def test_trailing_empty_levels_trimmed(self):
        x = SemiSimplicialSet(2, [[[0, 1]], []])
        assert x.top_dim == 1
        assert x.counts == (2, 1)

    def test_equality_and_hash(self):
        assert standard_simplex(2) == standard_simplex(2)
        assert standard_simplex(2) != boundary_sphere(2)
        assert hash(standard_simplex(3)) == hash(standard_simplex(3))
        # labels do not affect identity
        t = delta_torus()
        bare = SemiSimplicialSet(1, [t.to_json_dict()["faces"]["1"], t.to_json_dict()["faces"]["2"]])
        assert bare == t


class TestJson:
    def test_round_trip(self):
        for x in (standard_simplex(3), delta_torus(), octahedron_sphere()):
            doc = x.to_json_dict()
            y = SemiSimplicialSet.from_json_dict(doc)
            assert y == x
            assert y.to_json_dict() == doc

    def test_labels_round_trip(self):
        t = delta_torus()
        y = SemiSimplicialSet.from_json_dict(t.to_json_dict())
        assert y.labels == t.labels

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"dims": []},
            {"dims": [-1]},
            {"dims": ["x"]},
            {"dims": [2, 1]},
            {"dims": [2, 1], "faces": {"1": []}},
            {"dims": [2, 1], "faces": {"one": [[0, 1]]}},
            {"dims": [2, 1], "faces": {"1": [[0, 1]], "5": [[0, 0]]}},
        ],
    )
    def test_malformed(self, doc):
        with pytest.raises(MalformedFile):
            SemiSimplicialSet.from_json_dict(doc)

    def test_parseable_but_invalid(self):
        with pytest.raises(InvalidComplex):
            SemiSimplicialSet.from_json_dict(
                {"dims": [2, 1], "faces": {"1": [[0, 9]]}}
            )

    def test_extra_keys_ignored(self):
        doc = standard_simplex(2).to_json_dict()
        doc["projection"] = {"0": []}
        assert SemiSimplicialSet.from_json_dict(doc) == standard_simplex(2)


class TestNamedBases:
    def test_aliases(self):
        assert named_base("tetra") == boundary_sphere(3)
        assert named_base("sphere:3") == boundary_sphere(3)
        assert named_base("Delta_Torus") == delta_torus()
        assert named_base("simplex:0") == standard_simplex(0)
        assert named_base("octahedron") == octahedron_sphere()

    def test_unknown(self):
        with pytest.raises(MalformedFile):
            named_base("dodecahedron")
        with pytest.raises(MalformedFile):
            named_base("simplex:two")
