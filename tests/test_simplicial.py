import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbundles import (
    EnumerationBound,
    InvalidComplex,
    MalformedFile,
    SemiSimplicialSet,
    boundary_sphere,
    closure,
    delta_torus,
    grid_torus,
    homology_groups,
    named_base,
    octahedron_sphere,
    standard_simplex,
)

from generators import NAMED_EXAMPLES, Budget, klein_bottle
from oracles import face_walk, reference_base, reference_grid_torus, vertex_at, vertices_of
from scbundles.simplicial import MAX_NAMED_K, MAX_TORUS_N


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
            vs = vertices_of(o, 2, idx)
            for a, b in ((0, 1), (2, 3), (4, 5)):
                assert not (a in vs and b in vs)

    def test_vertices_follow_lex_subsets(self):
        from itertools import combinations

        x = standard_simplex(4)
        for q in range(5):
            subsets = list(combinations(range(5), q + 1))
            for idx in x.simplices(q):
                assert vertices_of(x, q, idx) == subsets[idx]

    def test_face_walk_spans_kept_positions(self):
        from itertools import combinations

        x = standard_simplex(4)
        for q in range(5):
            for idx in x.simplices(q):
                vs = vertices_of(x, q, idx)
                for r in range(1, q + 2):
                    for keep in combinations(range(q + 1), r):
                        face, steps = face_walk(x, q, idx, keep)
                        want = tuple(vs[p] for p in keep)
                        assert face == list(combinations(range(5), r)).index(want)
                        deleted = [t for _, _, t in steps]
                        assert deleted == sorted(set(range(q + 1)) - set(keep), reverse=True)
                        assert [d for d, _, _ in steps] == list(range(q, r - 1, -1))

    def test_vertex_at_matches_vertices_of(self):
        for x in (standard_simplex(3), boundary_sphere(3), delta_torus(), octahedron_sphere()):
            for q in range(x.top_dim + 1):
                for idx in x.simplices(q):
                    vs = vertices_of(x, q, idx)
                    assert vs == tuple(
                        vertex_at(x, q, idx, p) for p in range(q + 1)
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

    @staticmethod
    def corrupted():
        def rows(x):
            return [[list(x.face_row(q, i)) for i in x.simplices(q)]
                    for q in range(1, x.top_dim + 1)]

        tetra = rows(standard_simplex(3))
        tetra[1][0][:2] = tetra[1][0][1::-1]
        torus = rows(grid_torus(3))
        torus[0][4].reverse()
        return {
            "square": (3, [[[0, 1], [1, 2], [2, 0]], [[0, 1, 2]]]),
            "tetrahedron": (4, tetra),
            "shape": (-1, [[[0, 5], [0]], [[0, 1, 2]]]),
            "torus": (9, torus),
        }

    # every problem, in order and word for word
    PROBLEMS = {
        "square": [
            "face identity violated at (2/0, 0, 1): face(face(x,1),0) = 1 but face(face(x,0),0) = 0",
            "face identity violated at (2/0, 0, 2): face(face(x,2),0) = 2 but face(face(x,0),1) = 1",
            "face identity violated at (2/0, 1, 2): face(face(x,2),1) = 0 but face(face(x,1),1) = 2",
        ],
        "tetrahedron": [
            "face identity violated at (2/0, 0, 2): face(face(x,2),0) = 1 but face(face(x,0),1) = 0",
            "face identity violated at (2/0, 1, 2): face(face(x,2),1) = 0 but face(face(x,1),1) = 1",
            "face identity violated at (3/0, 0, 3): face(face(x,3),0) = 1 but face(face(x,0),2) = 3",
            "face identity violated at (3/0, 1, 3): face(face(x,3),1) = 3 but face(face(x,1),2) = 1",
        ],
        "shape": [
            "negative vertex count",
            "face 0 of 1/0 references 0/0 but dimension 0 has -1 simplices",
            "face 1 of 1/0 references 0/5 but dimension 0 has -1 simplices",
            "simplex 1/1 has 1 faces, expected 2",
            "face 2 of 2/0 references 1/2 but dimension 1 has 2 simplices",
        ],
        "torus": [
            "face identity violated at (2/1, 0, 2): face(face(x,2),0) = 0 but face(face(x,0),1) = 1",
            "face identity violated at (2/1, 1, 2): face(face(x,2),1) = 1 but face(face(x,1),1) = 0",
            "face identity violated at (2/12, 0, 2): face(face(x,2),0) = 0 but face(face(x,0),1) = 1",
            "face identity violated at (2/12, 1, 2): face(face(x,2),1) = 1 but face(face(x,1),1) = 0",
        ],
    }

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_problem_list_is_pinned(self, name):
        n, faces = self.corrupted()[name]
        assert SemiSimplicialSet(n, faces, check=False).validate() == self.PROBLEMS[name]


class TestAccessors:
    def test_face_ref(self):
        x = standard_simplex(2)
        assert x.face_index(2, 0, 0) == 2  # face 0 of (0, 1, 2) is the edge (1, 2)

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


class TestCofaces:
    @pytest.mark.parametrize("name", NAMED_EXAMPLES)
    def test_cofaces_invert_the_face_rows(self, name):
        # each upper simplex once, also where faces repeat (delta-torus)
        x = named_base(name)
        for q in range(x.top_dim + 1):
            for idx in x.simplices(q):
                above = tuple(
                    up for up in x.simplices(q + 1) if idx in x.face_row(q + 1, up)
                )
                assert x.cofaces(q, idx) == above, (q, idx)


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

    @pytest.mark.parametrize("n", [3, 4, 6, 16, 33])
    def test_grid_torus_matches_reference(self, n):
        torus = named_base(f"torus:{n}")
        assert torus == reference_grid_torus(n)  # same vertex count and face tables
        assert torus.counts == (n * n, 3 * n * n, 2 * n * n)
        assert torus.validate() == []

    def test_grid_torus_is_a_torus(self):
        assert str(homology_groups(named_base("torus:5"))) == "H0=Z, H1=Z^2, H2=Z"

    @pytest.mark.parametrize(
        "name, error",
        [
            ("torus:2", MalformedFile),
            ("torus:-4", MalformedFile),
            ("torus:x", MalformedFile),
            (f"torus:{MAX_TORUS_N + 1}", EnumerationBound),
            ("torus:1000000000", EnumerationBound),
        ],
    )
    def test_grid_torus_bounds(self, name, error):
        with pytest.raises(error):
            named_base(name)

    # sizes are canonical decimals, as file keys and necklace tokens are
    @pytest.mark.parametrize(
        "name", ["torus:+4", "torus:04", "sphere: 2", "torus:\N{ARABIC-INDIC DIGIT THREE}"]
    )
    def test_size_spellings_rejected(self, name):
        with pytest.raises(MalformedFile, match="bad size in base name"):
            named_base(name)

    def test_grid_torus_needs_three_rows(self):
        with pytest.raises(ValueError):
            grid_torus(2)

    def test_grid_torus_cap_is_reachable(self):
        assert named_base(f"torus:{MAX_TORUS_N}").counts[0] == MAX_TORUS_N**2


# every named example, and the small sizes of each family the library
# once built from hand-written face tables
REBUILT_BASES = list(
    dict.fromkeys(
        [
            *NAMED_EXAMPLES,
            *(f"simplex:{k}" for k in range(9)),
            *(f"sphere:{k}" for k in range(1, 9)),
            *(f"torus:{n}" for n in range(3, 13)),
        ]
    )
)


@st.composite
def vertex_covers(draw):
    """Top simplices over the vertices 0..m-1, m <= 7, each vertex in one."""
    m = draw(st.integers(1, 7))
    tops = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1), max_size=6))
    covered = set().union(*tops)
    return tops + [{v} for v in range(m) if v not in covered]


class TestFromSimplices:
    @pytest.mark.parametrize("name", REBUILT_BASES)
    def test_named_base_matches_reference(self, name):
        built, reference = named_base(name), reference_base(name)
        assert built.counts == reference.counts
        for q in range(1, reference.top_dim + 1):
            assert built.face_rows(q) == reference.face_rows(q)

    @settings(max_examples=200, deadline=None)
    @given(vertex_covers())
    def test_closure_lists_every_face_once(self, tops):
        levels = closure(tops)
        x = SemiSimplicialSet.from_simplices(levels)
        assert x.validate() == []
        faces = {
            face
            for top in tops
            for r in range(1, len(top) + 1)
            for face in combinations(sorted(top), r)
        }
        listed = Counter(
            vertices_of(x, q, idx) for q in range(x.top_dim + 1) for idx in x.simplices(q)
        )
        assert listed == Counter(faces)
        for q, level in enumerate(levels):
            assert level == sorted(level)
            assert [vertices_of(x, q, idx) for idx in x.simplices(q)] == level

    @pytest.mark.parametrize(
        "levels, problems",
        [
            (
                [[(0,), (1,)], [(0, 1), (1, 2)]],
                ["face 0 (2,) of 1/1 (1, 2) is not listed"],
            ),
            (
                [[(0,), (1,), (2,)], [(0, 1), (1, 2)], [(0, 1, 2)]],
                ["face 1 (0, 2) of 2/0 (0, 1, 2) is not listed"],
            ),
            (
                [[(0,), (1,)], [(0, 1), (1,)]],
                ["a 1-simplex of length other than 2"],
            ),
        ],
    )
    def test_unclosed_level_rejected(self, levels, problems):
        with pytest.raises(InvalidComplex) as caught:
            SemiSimplicialSet.from_simplices(levels)
        assert caught.value.exit_code == 4
        assert list(caught.value.violations) == problems

    @pytest.mark.parametrize(
        "levels, problems",
        [
            # the first copy of the edge would get an id and no coface
            (
                [[(0,), (1,), (2,)], [(0, 1), (0, 1), (0, 2), (1, 2)], [(0, 1, 2)]],
                ["level 1 lists (0, 1) 2 times"],
            ),
            # a repeated vertex would shift the ids of the edges' faces
            ([[(0,), (0,), (1,)], [(0, 1)]], ["level 0 lists (0,) 2 times"]),
            (
                [[(0,), (1,), (2,)], [(0, 1), (1, 2), (0, 1), (1, 2), (1, 2)]],
                ["level 1 lists (0, 1) 2 times", "level 1 lists (1, 2) 3 times"],
            ),
        ],
        ids=["edge", "vertex", "two-edges"],
    )
    def test_repeated_simplex_rejected(self, levels, problems):
        with pytest.raises(InvalidComplex) as caught:
            SemiSimplicialSet.from_simplices(levels)
        assert caught.value.exit_code == 4
        assert list(caught.value.violations) == problems

    def test_lists_read_as_tuples(self):
        levels = closure([(0, 1, 2), (1, 2, 3)])
        as_lists = [[list(s) for s in level] for level in levels]
        assert SemiSimplicialSet.from_simplices(as_lists) == SemiSimplicialSet.from_simplices(levels)

    @pytest.mark.parametrize("family, missing", [("simplex", 1), ("sphere", 2)])
    def test_named_cap_builds_in_time(self, family, missing):
        with Budget(5.0):
            x = named_base(f"{family}:{MAX_NAMED_K}")
        assert sum(x.counts) == 2 ** (MAX_NAMED_K + 1) - missing
