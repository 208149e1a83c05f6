import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager
from math import gcd, prod

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
    chern_number,
    closure,
    coboundary,
    cochain_from_json_dict,
    cochain_to_json_dict,
    cocycle_for_chern,
    cohomologous,
    delta_torus,
    fundamental_class,
    homology_groups,
    minimal_from_cocycle,
    octahedron_sphere,
    smith_normal_form,
    standard_simplex,
)

from scbundles import cyclic as cyclic_module
from scbundles import homology as homology_module
from scbundles.cyclic import sc_normalized_homology
from scbundles.simplicial import named_base
from scbundles.spindle import subdivide

from generators import Budget, grid_torus, klein_bottle, random_binary_cocycle, random_system
from oracles import dense_smith_diagonal

small_entries = st.integers(min_value=-9, max_value=9)


def int_matrix(rows: int, cols: int, data) -> IntMatrix:
    """An IntMatrix holding ``data``, ``rows`` lists of ``cols`` integers."""
    m = IntMatrix(rows, cols)
    m.data = [list(row) for row in data]
    assert len(m.data) == rows and all(len(row) == cols for row in m.data)
    return m


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Plain matrix product."""
    assert a.cols == b.rows
    return int_matrix(a.rows, b.cols, [
        [sum(a.data[r][k] * b.data[k][c] for k in range(a.cols)) for c in range(b.cols)]
        for r in range(a.rows)
    ])


def transpose(m: IntMatrix) -> IntMatrix:
    return int_matrix(m.cols, m.rows, [[row[c] for row in m.data] for c in range(m.cols)])


def apply(m: IntMatrix, vec) -> list[int]:
    """The product of m with a column vector."""
    assert len(vec) == m.cols
    return [sum(a * v for a, v in zip(row, vec)) for row in m.data]


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

    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = int_matrix(
                k, k, [[m.data[r][c] for c in cols] for r in rows]
            )
            g = gcd(g, determinant(sub))
    return g


class TestSmith:
    def test_known_form(self):
        m = int_matrix(2, 2, [[2, 4], [6, 8]])
        f = smith_normal_form(m)
        assert f.diagonal == (2, 4)

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_snf_properties(self, rows):
        m = int_matrix(len(rows), len(rows[0]), rows)
        f = smith_normal_form(m)
        d = list(f.diagonal)
        # nonnegative and divisibility chain
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # every invariant factor against the minor-gcd oracle: the first k
        # multiply to the gcd of the k x k minors, and none is larger
        for k in range(1, len(d) + 1):
            assert prod(d[:k]) == gcd_of_minors(m, k)
        assert gcd_of_minors(m, len(d) + 1) == 0

    @settings(max_examples=60, deadline=None)
    @given(matrices(3))
    def test_determinant_matches_snf_rank(self, rows):
        m = int_matrix(len(rows), len(rows[0]), rows)
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


@st.composite
def unitless_blocks(draw):
    """Blocks of the shape unit pivots leave: up to 7 x 7, possibly with
    no rows or no columns, and no entry +-1."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.sampled_from((0, 0, 0, -6, -4, -3, -2, 2, 3, 4, 5, 6, 9))
    return nrows, ncols, [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


class TestEuclidFinish:
    @settings(max_examples=300, deadline=None)
    @given(unitless_blocks())
    def test_matches_dense_oracle(self, block):
        nrows, ncols, data = block
        m = int_matrix(nrows, ncols, data)
        assert smith_normal_form(m).diagonal == dense_smith_diagonal(data)
        assert m.data == data  # the block is read, never changed

    @pytest.mark.parametrize("data, diagonal", [
        ([[-2], [2]], (2,)),  # Klein bottle, d2
        ([[-2], [-2], [2]], (2,)),  # RP2, d2
        *(([[c]], (c,)) for c in (3, 7)),  # Chern-c totals over torus:n, d2
    ])
    def test_measured_leftover_blocks(self, data, diagonal):
        m = int_matrix(len(data), len(data[0]), data)
        assert smith_normal_form(m).diagonal == diagonal
        assert dense_smith_diagonal(data) == diagonal

    def test_large_dense_even_block(self):
        rng = random.Random(40)
        data = [[2 * rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
        m = int_matrix(40, 40, data)
        # about 0.04 s measured on a shared 2-CPU x86-64 host, Python 3.11;
        # the dense oracle takes seconds here as its entries grow
        with Budget(2.0):
            d = smith_normal_form(m).diagonal
        assert len(d) == 40 and abs(determinant(m)) == prod(d)
        assert d[0] == gcd(*(v for row in data for v in row))
        assert all(b % a == 0 for a, b in zip(d, d[1:]))


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
        # two disjoint loops: 2 vertices, 2 loop edges
        x = SemiSimplicialSet(2, [[[0, 0], [1, 1]]])
        assert homology_groups(x).betti(0) == 2
        assert homology_groups(delta_torus()).betti(0) == 1

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
        diagonal = dense_smith_diagonal(boundary_matrix(x, q).data)
        ranks[q] = len(diagonal)
        torsions[q] = tuple(d for d in diagonal if d > 1)
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


@contextmanager
def dense_blocks():
    """Record the block each dense Smith form call receives, as row lists;
    a block with no rows or no columns is recorded as ``[]``."""
    blocks = []
    snf = homology_module.smith_normal_form

    def recording(m):
        blocks.append([list(row) for row in m.data] if m.rows and m.cols else [])
        return snf(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology_module, "smith_normal_form", recording)
        yield blocks


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

        def recording_snf(m):
            form = snf(m)
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

    def test_no_unit_entry_is_left_for_dense_snf(self):
        # column 0 is the unit pivot at row 1; column 1 reduces there to
        # {0: -1}, the unit pivot at row 0, and column 2 then reduces to
        # zero, so no column is left for dense Smith normal form
        columns = [{0: -2, 1: 1}, {0: 3, 1: -2}, {1: -2}]
        with dense_blocks() as blocks:
            h = chain_homology((2, 3), lambda _, c: columns[c])
        assert h.groups == ((0, ()), (1, ()))
        assert blocks == [[]]

    def test_leftover_blocks(self):
        # the blocks dense Smith normal form finishes; an exact eliminator
        # for them needs only Euclid steps on a handful of entries
        rp2 = SemiSimplicialSet.from_simplices(closure(RP2_TRIANGLES))
        cases = [(named_base(name), []) for name in (
            "tetra", "octahedron", "delta-torus", "simplex:5", "sphere:5",
        )]
        cases += [(klein_bottle(), [[[2]]]), (rp2, [[[2], [-2], [2]]])]
        for n in (6, 32):
            base = named_base(f"torus:{n}")
            for c in (0, 3, 7):
                bundle = build_surface_bundle(base, fundamental_class(base), c)
                total = assemble(bundle.as_local_system()).total
                cases.append((total, [[[c], [-c]]] if c else []))
        for x, expected in cases:
            with dense_blocks() as blocks:
                homology_groups(x)
            assert len(blocks) == x.top_dim
            assert [b for b in blocks if b] == expected

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


def invariant_factors(divisors):
    """The divisibility chain of a diagonal with these entries, by prime
    powers: the i-th largest factor takes the i-th largest power of each
    prime among the entries."""
    powers = {}
    for d in divisors:
        p = 2
        while d > 1:
            e = 0
            while d % p == 0:
                d, e = d // p, e + 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for found in powers.values():
        for i, x in enumerate(sorted(found, reverse=True)):
            factors[i] *= x
    return tuple(reversed(factors))


def unimodular_pair(rng, n):
    """A random n x n integer matrix of determinant +-1 and its inverse,
    as row lists: a product of elementary column operations, and of the
    inverse row operations taken in the opposite order."""
    a = [[int(r == c) for c in range(n)] for r in range(n)]
    a_inv = [list(row) for row in a]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:  # negate column i of a, row i of its inverse
            for row in a:
                row[i] = -row[i]
            a_inv[i] = [-v for v in a_inv[i]]
        elif rng.random() < 0.2:  # swap columns i and j, rows i and j
            for row in a:
                row[i], row[j] = row[j], row[i]
            a_inv[i], a_inv[j] = a_inv[j], a_inv[i]
        else:  # column i += m * column j, row j -= m * row i
            m = rng.choice((-2, -1, 1, 2))
            for row in a:
                row[i] += m * row[j]
            a_inv[j] = [x - m * y for x, y in zip(a_inv[j], a_inv[i])]
    return a, a_inv


def scrambled_complex(rng):
    """A chain complex over 3 or 4 degrees whose homology is known by
    construction, with torsion in every degree but the top.

    Each degree holds free generators, and each degree but the top the
    lower ends of pairs Z -> Z whose one boundary is k times the lower
    end, k in {1, 2, 3, 4, 6}: a free generator adds Z to its degree, a
    pair adds Z/k.  Each chain group is then rebased by a random
    unimodular matrix A_q, so the q-th boundary D_q becomes
    A_(q-1)^-1 D_q A_q.  Returns the counts, the boundaries as row
    lists, and the groups."""
    top = rng.choice((2, 3))
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    pairs = [
        [rng.choice((2, 3, 4, 6))] + [rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(0, 2))]
        for _ in range(top)
    ]
    counts = [
        free[q] + (len(pairs[q]) if q < top else 0) + (len(pairs[q - 1]) if q else 0)
        for q in range(top + 1)
    ]
    # degree q lists its free generators, then the lower ends of its pairs,
    # then the upper ends of the pairs of degree q - 1
    plain = [[]]
    for q in range(1, top + 1):
        d = [[0] * counts[q] for _ in range(counts[q - 1])]
        for i, k in enumerate(pairs[q - 1]):
            d[free[q - 1] + i][counts[q] - len(pairs[q - 1]) + i] = k
        plain.append(d)
    bases = [unimodular_pair(rng, n) for n in counts]
    for n, (a, a_inv) in zip(counts, bases):
        identity = [[int(r == c) for c in range(n)] for r in range(n)]
        assert matmul(int_matrix(n, n, a), int_matrix(n, n, a_inv)).data == identity
    boundaries = [[]] + [
        matmul(
            matmul(int_matrix(counts[q - 1], counts[q - 1], bases[q - 1][1]),
                   int_matrix(counts[q - 1], counts[q], plain[q])),
            int_matrix(counts[q], counts[q], bases[q][0]),
        ).data
        for q in range(1, top + 1)
    ]
    groups = tuple(
        (free[q], invariant_factors(k for k in pairs[q] if k > 1) if q < top else ())
        for q in range(top + 1)
    )
    return counts, boundaries, groups


class TestClearingOracle:
    """Clearing against complexes whose homology is known without any
    eliminator, and against reducing every boundary with all its columns."""

    def test_invariant_factors(self):
        assert invariant_factors([]) == ()
        assert invariant_factors([4, 6]) == (2, 12)
        assert invariant_factors([2, 3, 2]) == (2, 6)
        assert invariant_factors([6, 6, 4, 3]) == (6, 6, 12)

    @pytest.mark.parametrize("seed", range(40))
    def test_scrambled_complexes(self, seed):
        rng = random.Random(seed)
        counts, boundaries, groups = scrambled_complex(rng)
        for q in range(2, len(counts)):
            below = int_matrix(counts[q - 2], counts[q - 1], boundaries[q - 1])
            product = matmul(below, int_matrix(counts[q - 1], counts[q], boundaries[q]))
            assert not any(any(row) for row in product.data)
        assert sum(1 for _, torsion in groups if torsion) > 1

        def column(q, c):
            return {r: row[c] for r, row in enumerate(boundaries[q]) if row[c]}

        assert chain_homology(counts, column).groups == groups
        assert uncleared_homology(counts, column) == groups

    def test_surfaces_and_moved_totals_match_uncleared(self):
        rp2 = SemiSimplicialSet.from_simplices(closure(RP2_TRIANGLES))
        cases = [klein_bottle(), rp2]
        rng = random.Random(34)
        for name, c in (("torus:6", 3), ("delta-torus", 1)):
            base = named_base(name)
            system = build_surface_bundle(base, fundamental_class(base), c).as_local_system()
            for _ in range(20):
                v = rng.randrange(base.simplex_count(0))
                system = subdivide(system, v, rng.choice(system.stalk(0, v).ids), check=False)
            cases.append(assemble(system).total)
        for x in cases:
            def column(q, c):
                return homology_module._face_column(x.face_row(q, c))

            assert homology_groups(x).groups == uncleared_homology(x.counts, column)


class TestSparseHomology:
    @settings(max_examples=300, deadline=None)
    @given(sparse_cases())
    def test_matches_dense_snf(self, case):
        nrows, ncols, data = case
        columns = [{r: data[r][c] for r in range(nrows)} for c in range(ncols)]
        with dense_blocks() as blocks:
            h = chain_homology((nrows, ncols), lambda _, c: columns[c])
        diagonal = dense_smith_diagonal(data)
        torsion = tuple(d for d in diagonal if d > 1)
        rank = len(diagonal)
        assert h.groups == ((nrows - rank, torsion), (ncols - rank, ()))
        # the unit pivots split off an identity: the Smith form of the
        # whole is a 1 per pivot followed by the Smith form of the block
        assert len(blocks) == 1
        with dense_blocks() as direct:
            _, _, pivots = homology_module._rank_and_torsion(columns)
        assert direct == blocks
        assert diagonal == (1,) * len(pivots) + dense_smith_diagonal(blocks[0])

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

    def test_chern3_over_16x16_torus_after_moves(self):
        base = grid_torus(16)
        bundle = build_surface_bundle(base, fundamental_class(base), 3)
        system = bundle.as_local_system()
        rng = random.Random(16)
        for _ in range(200):
            v = rng.randrange(base.simplex_count(0))
            bead = rng.choice(system.stalk(0, v).ids)
            system = subdivide(system, v, bead, check=False)
        total = assemble(system).total
        assert sum(total.counts) > 26 * 16 * 16
        # about 0.05 s measured on a shared 2-CPU x86-64 host, Python 3.11
        with Budget(2.0):
            h = homology_groups(total)
        assert h == homology_groups(assemble(bundle.as_local_system()).total)
        assert str(h) == "H0=Z, H1=Z^2 + Z/3, H2=Z^2, H3=Z"

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
                dense = transpose(boundary_matrix(x, q + 1))
                assert list(coboundary(x, u).values) == apply(dense, u.values)

    def test_cocycle_count_on_simplex3(self):
        x = standard_simplex(3)
        good = [
            code
            for code in range(16)
            if coboundary(
                x, IntCochain(2, tuple((code >> i) & 1 for i in range(4)))
            ).is_zero()
        ]
        assert len(good) == 6

    def test_subtraction_mismatch(self):
        with pytest.raises(MismatchedCarriers):
            IntCochain(2, (0, 1)) - IntCochain(2, (0, 1, 1))

    def test_zero_cochain(self):
        x = delta_torus()
        zero = IntCochain(2, (0,) * x.simplex_count(2))
        eq, witness = cohomologous(x, zero, zero)
        assert eq and coboundary(x, witness) == zero

    def test_json_round_trip(self):
        u = IntCochain(2, (0, 1, 1, 0))
        assert cochain_from_json_dict(cochain_to_json_dict(u)) == u
        with pytest.raises(MalformedFile):
            cochain_from_json_dict({"values": [1]})
        with pytest.raises(MalformedFile):
            cochain_from_json_dict({"dim": -1, "values": []})
        with pytest.raises(MalformedFile):
            cochain_from_json_dict([1, 2])


# the six-vertex real projective plane, each edge in two triangles
RP2_TRIANGLES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]

# the boundary of the tetrahedron on vertices 0..3
TETRA_TRIANGLES = list(itertools.combinations(range(4), 3))


class TestCohomologous:
    def test_zero_rows_bound(self):
        x = boundary_sphere(3)
        zero = IntCochain(2, (0,) * x.simplex_count(2))
        for values, same_class in [
            ((0, 0, 0, 0), True),
            ((1, 0, 0, 1), True),
            ((0, 0, 0, 1), False),
            ((0, 1, 0, 1), False),
        ]:
            eq, witness = cohomologous(x, IntCochain(2, values), zero)
            assert eq is same_class
            if eq:
                d = coboundary(x, witness)
                assert d.values == values

    def test_projective_plane_by_parity(self):
        # H^2 = Z/2, read off the sum of the values mod 2
        x = SemiSimplicialSet.from_simplices(closure(RP2_TRIANGLES))
        assert str(homology_groups(x)) == "H0=Z, H1=Z/2, H2=0"
        zero = IntCochain(2, (0,) * 10)
        for values in itertools.product((0, 1), repeat=10):
            u = IntCochain(2, values)
            same, witness = cohomologous(x, u, zero)
            assert same is (sum(values) % 2 == 0)
            if same:
                assert coboundary(x, witness) == u

    def test_klein_bottle_by_parity(self):
        x = klein_bottle()
        cochains = [IntCochain(2, v) for v in itertools.product((0, 1), repeat=2)]
        for u1, u2 in itertools.product(cochains, repeat=2):
            same, witness = cohomologous(x, u1, u2)
            assert same is (sum(u1.values) % 2 == sum(u2.values) % 2)
            if same:
                assert coboundary(x, witness) == u1 - u2

    @pytest.mark.parametrize("name", ["tetra", "octahedron", "delta-torus", "torus:4", "torus:6"])
    def test_oriented_surfaces_by_chern_number(self, name):
        # H^2 = Z, read off the pairing with the fundamental class
        x = named_base(name)
        fm = fundamental_class(x)
        rng = random.Random(name)
        verdicts = set()
        for _ in range(100):
            u1, u2 = random_binary_cocycle(x, rng), random_binary_cocycle(x, rng)
            same, witness = cohomologous(x, u1, u2)
            assert same is (chern_number(u1, fm) == chern_number(u2, fm))
            if same:
                assert coboundary(x, witness) == u1 - u2
            verdicts.add(same)
        assert verdicts == {True, False}

    def test_chern3_placements_over_32x32_torus(self):
        x = grid_torus(32)
        fm = fundamental_class(x)
        u1, u2 = (cocycle_for_chern(x, fm, 3, seed) for seed in (1, 2))
        other = cocycle_for_chern(x, fm, 2, 1)
        assert u1 != u2
        # about 25 ms a call measured on a shared 2-CPU host, Python 3.11
        with Budget(1.0):
            same, witness = cohomologous(x, u1, u2)
            assert cohomologous(x, u1, other) == (False, None)
        assert same and coboundary(x, witness) == u1 - u2

    def test_requires_cocycles(self):
        x = standard_simplex(3)
        bad = IntCochain(2, (1, 0, 0, 0))
        with pytest.raises(NotACocycle):
            cohomologous(x, bad, IntCochain(2, (0,) * x.simplex_count(2)))

    def test_dimension_guard(self):
        x = boundary_sphere(3)
        with pytest.raises(MismatchedCarriers):
            cohomologous(x, IntCochain(1, (0,) * 6), IntCochain(1, (0,) * 6))



def solve_dense(m: IntMatrix, b) -> list[int] | None:
    """The sparse solver on the columns of a dense matrix."""
    columns = [{r: m.data[r][c] for r in range(m.rows)} for c in range(m.cols)]
    return homology_module._solve(columns, dict(enumerate(b)))


def dense_rank(m: IntMatrix) -> int:
    sizes = range(1, min(m.rows, m.cols) + 1)
    return max((k for k in sizes if gcd_of_minors(m, k)), default=0)


def solvable(m: IntMatrix, b) -> bool:
    """Whether m x = b has an integer solution, by determinantal divisors:
    exactly when m and m with the column b added have one rank r and one
    gcd of their r x r minors."""
    augmented = int_matrix(m.rows, m.cols + 1, [row + [v] for row, v in zip(m.data, b)])
    r = dense_rank(m)
    return dense_rank(augmented) == r and gcd_of_minors(augmented, r) == gcd_of_minors(m, r)


@st.composite
def systems(draw):
    """A small system m x = b with non-unit entries; half the time b is m
    times an integer vector, else it is arbitrary."""
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.sampled_from((0, 0, 0, -4, -3, -2, -1, 1, 2, 3, 4, 6))
    m = int_matrix(nrows, ncols, [[draw(entry) for _ in range(ncols)] for _ in range(nrows)])
    if draw(st.booleans()):
        b = apply(m, [draw(st.integers(-3, 3)) for _ in range(ncols)])
    else:
        b = [draw(st.integers(-6, 6)) for _ in range(nrows)]
    return m, b


class TestSolve:
    def test_solvable_and_unsolvable(self):
        rng = random.Random(5)
        for _ in range(40):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            m = int_matrix(
                rows, cols,
                [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)],
            )
            x = [rng.randrange(-3, 4) for _ in range(cols)]
            rhs = apply(m, x)
            sol = solve_dense(m, rhs)
            assert sol is not None
            assert apply(m, sol) == rhs
        m = int_matrix(1, 1, [[2]])
        assert solve_dense(m, [1]) is None
        assert solve_dense(m, [4]) == [2]
        # Euclid steps: 2x + 3y = 1 with no unit entry
        m = int_matrix(1, 2, [[2, 3]])
        assert apply(m, solve_dense(m, [1])) == [1]

    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_matches_determinantal_divisors(self, case):
        m, b = case
        x = solve_dense(m, b)
        assert (x is not None) is solvable(m, b)
        if x is not None:
            assert apply(m, x) == b


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
        # fundamental_class does not recompute the boundary: its propagation
        # cancels each edge's two slots, which this checks independently
        cases = [(x, 0, 1) for x in (delta_torus(), boundary_sphere(3))]
        cases += [(grid_torus(n), 0, 1) for n in range(3, 9)]
        octahedron = octahedron_sphere()
        cases += [
            (octahedron, seed, sign)
            for seed in octahedron.simplices(2)
            for sign in (1, -1)
        ]
        for x, seed, sign in cases:
            fm = fundamental_class(x, seed=seed, sign=sign)
            assert fm.coefficients[seed] == sign
            d = apply(boundary_matrix(x, 2), fm.coefficients)
            assert all(v == 0 for v in d)

    def test_not_closed(self):
        with pytest.raises(NotClosedSurface):
            fundamental_class(standard_simplex(2))
        with pytest.raises(NotClosedSurface):
            fundamental_class(standard_simplex(3))

    def test_non_orientable(self):
        with pytest.raises(NonOrientable):
            fundamental_class(klein_bottle())

    @pytest.mark.parametrize(
        "tops, error, message",
        [
            pytest.param(
                [*TETRA_TRIANGLES, *(tuple(v + 4 for v in t) for t in TETRA_TRIANGLES)],
                NotClosedSurface, "triangle dual graph is not connected",
                id="two-disjoint-spheres",
            ),
            pytest.param(
                [*TETRA_TRIANGLES, *(tuple(v + 3 for v in t) for t in TETRA_TRIANGLES)],
                NotClosedSurface, "triangle dual graph is not connected",
                id="two-spheres-wedged-at-a-vertex",
            ),
            pytest.param(
                [*TETRA_TRIANGLES, (4,)],
                NotClosedSurface, "complex is not connected",
                id="sphere-and-isolated-vertex",
            ),
            # the seed's component is propagated before the others are
            # looked at, so its non-orientability is what is reported
            pytest.param(
                [*RP2_TRIANGLES, *(tuple(v + 6 for v in t) for t in TETRA_TRIANGLES)],
                NonOrientable, "sign propagation contradicts itself",
                id="projective-plane-beside-a-sphere",
            ),
        ],
    )
    def test_disconnected(self, tops, error, message):
        x = SemiSimplicialSet.from_simplices(closure(tops))
        with pytest.raises(error, match=message) as info:
            fundamental_class(x)
        assert info.value.exit_code == 9

    def test_bad_seed(self):
        with pytest.raises(DanglingReference):
            fundamental_class(delta_torus(), seed=7)
        with pytest.raises(ValueError):
            fundamental_class(delta_torus(), sign=2)
