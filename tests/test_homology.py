import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbundles import (
    DanglingReference,
    IntCochain,
    IntMatrix,
    MalformedFile,
    MismatchedCarriers,
    NonOrientable,
    NotACocycle,
    NotClosedSurface,
    SemiSimplicialSet,
    assemble,
    boundary_matrix,
    boundary_sphere,
    build_surface_bundle,
    chain_homology,
    coboundary,
    cochain_from_json_dict,
    cochain_to_json_dict,
    cohomologous,
    connected_component_count,
    delta_torus,
    fundamental_class,
    homology_groups,
    is_cocycle,
    minimal_from_cocycle,
    octahedron_sphere,
    smith_normal_form,
    solve_linear,
    standard_simplex,
    zero_cochain,
)

from scbundles import cyclic as cyclic_module
from scbundles import homology as homology_module
from scbundles.cyclic import sc_normalized_homology
from scbundles.simplicial import named_base
from scbundles.spindle import subdivide

from generators import Budget, grid_torus, klein_bottle, random_system

small_entries = st.integers(min_value=-9, max_value=9)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Plain matrix product, for checking transforms against SNF."""
    assert a.cols == b.rows
    return IntMatrix(a.rows, b.cols, [
        [sum(a.data[r][k] * b.data[k][c] for k in range(a.cols)) for c in range(b.cols)]
        for r in range(a.rows)
    ])


def diagonal_matrix(f) -> IntMatrix:
    """The Smith form's diagonal padded with zeros to the input's shape."""
    m = IntMatrix(*f.shape)
    for i, d in enumerate(f.diagonal):
        m.data[i][i] = d
    return m


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination; an oracle
    for Smith normal form independent of it."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (a[r][c] * a[k][k] - a[r][k] * a[k][c]) // prev
            a[r][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def gcd_of_minors(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors, 0 if none are nonzero."""
    from itertools import combinations
    from math import gcd

    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix(
                k, k, [[m.data[r][c] for c in cols] for r in rows]
            )
            g = gcd(g, determinant(sub))
    return g


class TestSmith:
    def test_known_form(self):
        m = IntMatrix(2, 2, [[2, 4], [6, 8]])
        f = smith_normal_form(m)
        assert f.diagonal == (2, 4)

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_snf_properties(self, rows):
        m = IntMatrix(len(rows), len(rows[0]), rows)
        f = smith_normal_form(m, transforms=True)
        d = list(f.diagonal)
        # nonnegative and divisibility chain
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # unimodular transforms reproduce the diagonal
        left, right = f.left, f.right
        assert abs(determinant(left)) == 1
        assert abs(determinant(right)) == 1
        assert matmul(matmul(left, m), right).data == diagonal_matrix(f).data
        # first two invariant factors against the minor-gcd oracle
        assert (d[0] if d else 0) == gcd_of_minors(m, 1)
        if len(d) >= 2:
            assert d[0] * d[1] == gcd_of_minors(m, 2)

    @settings(max_examples=60, deadline=None)
    @given(matrices(3))
    def test_determinant_matches_snf_rank(self, rows):
        m = IntMatrix(len(rows), len(rows[0]), rows)
        f = smith_normal_form(m)
        if m.rows == m.cols:
            det = determinant(m)
            if f.rank < m.rows:
                assert det == 0
            else:
                prod = 1
                for x in f.diagonal:
                    prod *= x
                assert abs(det) == prod


class TestHomology:
    def test_spheres(self):
        for k in range(2, 5):
            h = homology_groups(boundary_sphere(k))
            want = [(1, ())] + [(0, ())] * (k - 2) + [(1, ())]
            assert list(h.groups) == want

    def test_torus(self):
        h = homology_groups(delta_torus())
        assert list(h.groups) == [(1, ()), (2, ()), (1, ())]

    def test_klein_bottle(self):
        h = homology_groups(klein_bottle())
        assert list(h.groups) == [(1, ()), (1, (2,)), (0, ())]
        assert str(h) == "H0=Z, H1=Z + Z/2, H2=0"

    def test_disk_contractible(self):
        h = homology_groups(standard_simplex(2))
        assert list(h.groups) == [(1, ()), (0, ()), (0, ())]

    def test_components(self):
        t = delta_torus().to_json_dict()
        # two disjoint loops: 2 vertices, 2 loop edges
        x = SemiSimplicialSet(2, [[[0, 0], [1, 1]]])
        assert connected_component_count(x) == 2
        assert homology_groups(x).betti(0) == 2
        assert connected_component_count(delta_torus()) == 1

    def test_boundary_squares_to_zero(self):
        for x in (boundary_sphere(4), octahedron_sphere()):
            for q in range(2, x.top_dim + 1):
                prod = matmul(boundary_matrix(x, q - 1), boundary_matrix(x, q))
                assert not any(any(row) for row in prod.data)


@st.composite
def sparse_cases(draw):
    """A small integer matrix: rows from ``split`` on hold no unit entry,
    and some rows and columns are zeroed outright."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    split = draw(st.integers(0, nrows))
    any_entry = st.sampled_from((0, 0, 0, -3, -2, -1, 1, 2, 3))
    non_unit = st.sampled_from((0, 0, -3, -2, 2, 3))
    data = [
        [draw(any_entry if r < split else non_unit) for _ in range(ncols)]
        for r in range(nrows)
    ]
    dead_rows = draw(st.sets(st.integers(0, nrows - 1))) if nrows else set()
    dead_cols = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
    for r in range(nrows):
        for c in range(ncols):
            if r in dead_rows or c in dead_cols:
                data[r][c] = 0
    return nrows, ncols, data


def dense_homology(x):
    """Homology groups from dense Smith normal form of every boundary matrix."""
    top = x.top_dim
    ranks = [0] * (top + 2)
    torsions = [()] * (top + 2)
    for q in range(1, top + 1):
        snf = smith_normal_form(boundary_matrix(x, q))
        ranks[q] = snf.rank
        torsions[q] = tuple(d for d in snf.diagonal if d > 1)
    return tuple(
        (x.simplex_count(q) - ranks[q] - ranks[q + 1], torsions[q + 1])
        for q in range(top + 1)
    )


def uncleared_homology(counts, column):
    """Homology with every boundary operator reduced on its own, all of
    its columns kept: a complex of one boundary clears nothing."""
    ranks = [0] * (len(counts) + 1)
    torsions = [()] * (len(counts) + 1)
    for q in range(1, len(counts)):
        (_, torsions[q]), (kernel, _) = chain_homology(
            (counts[q - 1], counts[q]), lambda _, c: column(q, c)
        ).groups
        ranks[q] = counts[q] - kernel
    return tuple(
        (counts[q] - ranks[q] - ranks[q + 1], torsions[q + 1])
        for q in range(len(counts))
    )


def chern3_total_over_grid_torus(n):
    base = grid_torus(n)
    bundle = build_surface_bundle(base, fundamental_class(base), 3)
    total = assemble(bundle.as_local_system()).total
    assert total.counts == (n * n, 7 * n * n, 12 * n * n, 6 * n * n)
    return total


CLEARING_BASES = [
    "tetra", "octahedron", "delta-torus", "torus:3",
    *(f"simplex:{k}" for k in range(4)), *(f"sphere:{k}" for k in range(1, 5)),
]


class TestClearing:
    @pytest.mark.parametrize("name", CLEARING_BASES)
    def test_total_spaces_match_dense_before_and_after_moves(self, name):
        rng = random.Random(name)
        base = named_base(name)
        for _ in range(2):
            system = random_system(rng, bases=(base,), max_subdivisions=0)
            for _ in range(4):
                total = assemble(system).total
                assert homology_groups(total).groups == dense_homology(total)
                v = rng.randrange(base.simplex_count(0))
                bead = rng.choice(system.stalk(0, v).ids)
                system = subdivide(system, v, bead, check=False)

    def test_repeated_faces(self):
        # columns of these complexes sum a face that occurs twice
        rng = random.Random(3)
        for base in (klein_bottle(), named_base("delta-torus")):
            for _ in range(4):
                system = random_system(rng, bases=(base,), max_subdivisions=2)
                total = assemble(system).total
                assert homology_groups(total).groups == dense_homology(total)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_normalized_circular_complex_matches_uncleared(self, k, monkeypatch):
        seen = []

        def recording(counts, column):
            seen.append(uncleared_homology(counts, column))
            return chain_homology(counts, column)

        monkeypatch.setattr(cyclic_module, "chain_homology", recording)
        counts, h = sc_normalized_homology(k)
        assert len(seen) == 1
        assert h.groups == seen[0][:k]

    def test_pivot_rows_handed_down(self, monkeypatch):
        calls = []
        snf_ranks = []
        reduce = homology_module._rank_and_torsion
        snf = homology_module.smith_normal_form

        def recording_reduce(columns):
            columns = list(columns)
            rank, torsion, pivots = reduce(columns)
            calls.append((len(columns), rank, pivots))
            return rank, torsion, pivots

        def recording_snf(m, transforms=False):
            form = snf(m, transforms)
            snf_ranks.append(form.rank)
            return form

        monkeypatch.setattr(homology_module, "_rank_and_torsion", recording_reduce)
        monkeypatch.setattr(homology_module, "smith_normal_form", recording_snf)
        total = chern3_total_over_grid_torus(6)
        h = homology_groups(total)
        assert str(h) == "H0=Z, H1=Z^2 + Z/3, H2=Z^2, H3=Z"
        # top down: d3, d2, d1, one dense Smith form each
        assert [n for n, _, _ in calls] == [216, 217, 38]
        assert len(snf_ranks) == 3
        for (_, rank, pivots), snf_rank in zip(calls, snf_ranks):
            assert len(pivots) == rank - snf_rank
        # the pivot rows of d(q+1) are the q-simplices d(q) never sees
        for q, above, below in zip((2, 1), calls, calls[1:]):
            assert max(above[2]) < total.simplex_count(q)
            assert below[0] == total.simplex_count(q) - len(above[2])

    def test_only_kept_columns_are_built(self, monkeypatch):
        total = chern3_total_over_grid_torus(6)
        built = Counter()
        face_column = homology_module._face_column

        def counting(row):
            built[len(row) - 1] += 1
            return face_column(row)

        monkeypatch.setattr(homology_module, "_face_column", counting)
        assert homology_groups(total).groups == dense_homology(total)
        # 900 columns in all; clearing keeps 216 + 217 + 38 of them
        assert built == {3: 216, 2: 217, 1: 38}
        assert sum(built.values()) == 471


class TestSparseHomology:
    @settings(max_examples=300, deadline=None)
    @given(sparse_cases())
    def test_matches_dense_snf(self, case):
        nrows, ncols, data = case
        columns = [{r: data[r][c] for r in range(nrows)} for c in range(ncols)]
        h = chain_homology((nrows, ncols), lambda _, c: columns[c])
        snf = smith_normal_form(IntMatrix(nrows, ncols, data))
        torsion = tuple(d for d in snf.diagonal if d > 1)
        assert h.groups == ((nrows - snf.rank, torsion), (ncols - snf.rank, ()))

    def test_torsion_only_block(self):
        columns = [{0: 2, 1: 2}, {0: -2, 1: 4}]
        h = chain_homology((2, 2), lambda _, c: columns[c])
        assert h.groups == ((0, (2, 6)), (0, ()))

    def test_named_bases_and_klein_bottle(self):
        names = ["tetra", "octahedron", "delta-torus", "simplex:1", "simplex:3"]
        names += [f"sphere:{k}" for k in range(2, 6)]
        for x in [named_base(name) for name in names] + [klein_bottle()]:
            assert homology_groups(x).groups == dense_homology(x)

    def test_total_spaces(self):
        lens = build_surface_bundle(
            octahedron_sphere(), fundamental_class(octahedron_sphere()), 3
        )
        hopf = minimal_from_cocycle(boundary_sphere(3), IntCochain(2, (0, 0, 1, 0)))
        systems = [lens.as_local_system(), hopf.as_local_system()]
        rng = random.Random(7)
        systems += [random_system(rng) for _ in range(6)]
        for system in systems:
            total = assemble(system).total
            assert homology_groups(total).groups == dense_homology(total)
        assert str(homology_groups(assemble(systems[0]).total)) == (
            "H0=Z, H1=Z/3, H2=0, H3=Z"
        )

    def test_chern3_over_16x16_torus(self):
        total = chern3_total_over_grid_torus(16)
        start = time.perf_counter()
        h = homology_groups(total)
        elapsed = time.perf_counter() - start
        assert str(h) == "H0=Z, H1=Z^2 + Z/3, H2=Z^2, H3=Z"
        # about 0.05 s measured; dense elimination takes minutes here
        assert elapsed < 10.0

    def test_chern3_over_64x64_torus(self):
        total = chern3_total_over_grid_torus(64)
        assert sum(total.counts) == 106496
        # about 0.9 s measured on a shared 2-CPU x86-64 host, Python 3.11
        with Budget(10.0):
            h = homology_groups(total)
        assert str(h) == "H0=Z, H1=Z^2 + Z/3, H2=Z^2, H3=Z"


class TestCochains:
    def test_coboundary_alternating_sum(self):
        x = standard_simplex(3)
        rng = random.Random(1)
        u = IntCochain(2, tuple(rng.randrange(5) for _ in range(4)))
        du = coboundary(x, u)
        row = x.face_row(3, 0)
        want = sum(
            (-1 if i % 2 else 1) * u.values[r] for i, r in enumerate(row)
        )
        assert du.values == (want,)

    def test_coboundary_is_transposed_boundary(self):
        rng = random.Random(11)
        names = ["tetra", "octahedron", "delta-torus", "torus:3"]
        names += [f"simplex:{k}" for k in range(1, 5)]
        names += [f"sphere:{k}" for k in range(1, 5)]
        for x in [named_base(name) for name in names] + [klein_bottle()]:
            for q in range(x.top_dim):
                u = IntCochain(q, tuple(rng.randrange(-3, 4) for _ in x.simplices(q)))
                dense = boundary_matrix(x, q + 1).transpose()
                assert list(coboundary(x, u).values) == dense.apply(list(u.values))

    def test_cocycle_count_on_simplex3(self):
        x = standard_simplex(3)
        good = [
            code
            for code in range(16)
            if is_cocycle(x, IntCochain(2, tuple((code >> i) & 1 for i in range(4))))
        ]
        assert len(good) == 6

    def test_subtraction_mismatch(self):
        with pytest.raises(MismatchedCarriers):
            IntCochain(2, (0, 1)) - IntCochain(2, (0, 1, 1))

    def test_zero_cochain(self):
        assert zero_cochain(delta_torus(), 2).values == (0, 0)

    def test_json_round_trip(self):
        u = IntCochain(2, (0, 1, 1, 0))
        assert cochain_from_json_dict(cochain_to_json_dict(u)) == u
        with pytest.raises(MalformedFile):
            cochain_from_json_dict({"values": [1]})
        with pytest.raises(MalformedFile):
            cochain_from_json_dict({"dim": -1, "values": []})
        with pytest.raises(MalformedFile):
            cochain_from_json_dict([1, 2])


class TestCohomologous:
    def test_zero_rows_bound(self):
        x = boundary_sphere(3)
        for values, same_class in [
            ((0, 0, 0, 0), True),
            ((1, 0, 0, 1), True),
            ((0, 0, 0, 1), False),
            ((0, 1, 0, 1), False),
        ]:
            eq, witness = cohomologous(x, IntCochain(2, values), zero_cochain(x, 2))
            assert eq is same_class
            if eq:
                d = coboundary(x, witness)
                assert d.values == values

    def test_requires_cocycles(self):
        x = standard_simplex(3)
        bad = IntCochain(2, (1, 0, 0, 0))
        with pytest.raises(NotACocycle):
            cohomologous(x, bad, zero_cochain(x, 2))

    def test_dimension_guard(self):
        x = boundary_sphere(3)
        with pytest.raises(MismatchedCarriers):
            cohomologous(x, IntCochain(1, (0,) * 6), IntCochain(1, (0,) * 6))


class TestSolve:
    def test_solvable_and_unsolvable(self):
        rng = random.Random(5)
        for _ in range(40):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            m = IntMatrix(
                rows, cols,
                [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)],
            )
            x = [rng.randrange(-3, 4) for _ in range(cols)]
            rhs = m.apply(x)
            sol = solve_linear(m, rhs)
            assert sol is not None
            assert m.apply(sol) == rhs
        m = IntMatrix(1, 1, [[2]])
        assert solve_linear(m, [1]) is None
        assert solve_linear(m, [4]) == [2]


class TestFundamentalClass:
    def test_torus_signs(self):
        fm = fundamental_class(delta_torus())
        assert fm.coefficients == (1, -1)
        flipped = fundamental_class(delta_torus(), sign=-1)
        assert flipped.coefficients == (-1, 1)
        other_seed = fundamental_class(delta_torus(), seed=1)
        assert other_seed.coefficients == (-1, 1)

    def test_sphere_seed3(self):
        fm = fundamental_class(boundary_sphere(3), seed=3, sign=1)
        assert fm.coefficients == (-1, 1, -1, 1)

    def test_octahedron_split(self):
        fm = fundamental_class(octahedron_sphere())
        assert sorted(fm.coefficients).count(-1) == 4
        assert sum(fm.coefficients) == 0

    def test_boundary_of_class_vanishes(self):
        for x in (delta_torus(), boundary_sphere(3), octahedron_sphere()):
            fm = fundamental_class(x)
            d = boundary_matrix(x, 2).apply(list(fm.coefficients))
            assert all(v == 0 for v in d)

    def test_not_closed(self):
        with pytest.raises(NotClosedSurface):
            fundamental_class(standard_simplex(2))
        with pytest.raises(NotClosedSurface):
            fundamental_class(standard_simplex(3))

    def test_non_orientable(self):
        with pytest.raises(NonOrientable):
            fundamental_class(klein_bottle())

    def test_bad_seed(self):
        with pytest.raises(DanglingReference):
            fundamental_class(delta_torus(), seed=7)
        with pytest.raises(ValueError):
            fundamental_class(delta_torus(), sign=2)
