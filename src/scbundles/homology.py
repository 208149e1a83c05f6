"""Exact integer chain arithmetic for semi-simplicial sets.

Boundary matrices, Smith normal form with optional unimodular transforms,
homology groups with torsion, integer cochains with coboundary, a solver
for cohomologous pairs, and fundamental classes of closed oriented
surfaces.  Everything runs on Python integers, so entries may grow freely
during elimination without overflow.

Homology reduces each boundary operator as sparse columns, built on
demand from signed face rows: it eliminates +-1 pivots with unimodular
column operations, each of which contributes a unit to the Smith
diagonal, and runs dense Smith normal form only on the small block left
when no unit entry remains.  The boundaries are reduced from the top
dimension down, and each one never builds the columns whose simplices
were unit pivot rows of the boundary above: since the boundary squares
to zero, those columns lie in the integer span of the others.  This is
the clearing step of Chen and Kerber, *Persistent homology computation
with a twist* (EuroCG 2011); over the integers it is a reduction pair in
the sense of Kaczynski, Mrozek and Slusarek, *Homology computation by
reduction of chain complexes* (1998).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Mapping, Sequence

from ._json import json_int
from .errors import (
    DanglingReference,
    MalformedFile,
    MismatchedCarriers,
    NonOrientable,
    NotACocycle,
    NotClosedSurface,
)
from .simplicial import SemiSimplicialSet

__all__ = [
    "IntMatrix",
    "SmithForm",
    "smith_normal_form",
    "boundary_matrix",
    "HomologyGroups",
    "chain_homology",
    "homology_groups",
    "IntCochain",
    "zero_cochain",
    "cochain_to_json_dict",
    "cochain_from_json_dict",
    "coboundary",
    "is_cocycle",
    "cohomologous",
    "solve_linear",
    "FundamentalClass",
    "fundamental_class",
    "connected_component_count",
]


class IntMatrix:
    """Dense integer matrix; thin wrapper over a list of row lists."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            self.data = [[int(v) for v in row] for row in data]
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise ValueError("data shape disagrees with rows x cols")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)],
        )

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length disagrees with column count")
        return [
            sum(a * v for a, v in zip(row, vec) if a) for row in self.data
        ]

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SmithForm:
    """Diagonal of the Smith normal form plus optional transforms.

    When transforms are requested, ``left @ m @ right`` equals the diagonal
    matrix ``diag`` padded with zeros, and both transforms are unimodular.
    """

    diagonal: tuple[int, ...]
    shape: tuple[int, int]
    left: IntMatrix | None = field(default=None, repr=False)
    right: IntMatrix | None = field(default=None, repr=False)

    @property
    def rank(self) -> int:
        return len(self.diagonal)


def _swap_rows(a, u, r1, r2):
    if r1 != r2:
        a[r1], a[r2] = a[r2], a[r1]
        if u is not None:
            u[r1], u[r2] = u[r2], u[r1]


def _swap_cols(a, v, c1, c2):
    if c1 != c2:
        for row in a:
            row[c1], row[c2] = row[c2], row[c1]
        if v is not None:
            for row in v:
                row[c1], row[c2] = row[c2], row[c1]


def _add_row(a, u, dst, src, coeff):
    # row dst += coeff * row src
    arow, srow = a[dst], a[src]
    for c, v in enumerate(srow):
        if v:
            arow[c] += coeff * v
    if u is not None:
        urow, usrow = u[dst], u[src]
        for c, v in enumerate(usrow):
            if v:
                urow[c] += coeff * v


def _add_col(a, v, dst, src, coeff):
    for row in a:
        if row[src]:
            row[dst] += coeff * row[src]
    if v is not None:
        for row in v:
            if row[src]:
                row[dst] += coeff * row[src]


def _negate_row(a, u, r):
    a[r] = [-x for x in a[r]]
    if u is not None:
        u[r] = [-x for x in u[r]]


def smith_normal_form(m: IntMatrix, transforms: bool = False) -> SmithForm:
    """Diagonalize over the integers with the divisibility chain.

    Pivots always take the entry of least absolute value in the remaining
    block, which keeps coefficient growth tame on the matrix sizes this
    package produces.
    """
    a = [list(row) for row in m.data]
    nr, nc = m.rows, m.cols
    u = [list(row) for row in IntMatrix.identity(nr).data] if transforms else None
    v = [list(row) for row in IntMatrix.identity(nc).data] if transforms else None
    t = 0
    limit = min(nr, nc)
    while t < limit:
        # hunt the least nonzero entry of the remaining block
        best = None
        for r in range(t, nr):
            row = a[r]
            for c in range(t, nc):
                x = row[c]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), r, c)
                    if best[0] == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _swap_rows(a, u, t, best[1])
        _swap_cols(a, v, t, best[2])
        while True:
            swapped = False
            for r in range(t + 1, nr):
                if a[r][t]:
                    q = a[r][t] // a[t][t]
                    _add_row(a, u, r, t, -q)
                    if a[r][t]:
                        _swap_rows(a, u, t, r)
                        swapped = True
                        break
            if swapped:
                continue
            for c in range(t + 1, nc):
                if a[t][c]:
                    q = a[t][c] // a[t][t]
                    _add_col(a, v, c, t, -q)
                    if a[t][c]:
                        _swap_cols(a, v, t, c)
                        swapped = True
                        break
            if swapped:
                continue
            break
        # enforce the divisibility chain before advancing
        pivot = a[t][t]
        offender = None
        for r in range(t + 1, nr):
            row = a[r]
            for c in range(t + 1, nc):
                if row[c] % pivot:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, u, t, offender, 1)
            continue
        if pivot < 0:
            _negate_row(a, u, t)
        t += 1
    diagonal = tuple(a[i][i] for i in range(t))
    for i in range(len(diagonal) - 1):
        if diagonal[i + 1] % diagonal[i]:
            raise AssertionError("divisibility chain broken; elimination bug")
    return SmithForm(
        diagonal,
        (nr, nc),
        IntMatrix(nr, nr, u) if transforms else None,
        IntMatrix(nc, nc, v) if transforms else None,
    )


# -- chain complexes ---------------------------------------------------


def boundary_matrix(x: SemiSimplicialSet, q: int) -> IntMatrix:
    """Matrix of the q-th boundary operator; entry (r, c) collects
    (-1)^i over the face slots i of column simplex c landing on r."""
    if q < 1:
        raise ValueError("boundary operator defined for dimension >= 1")
    rows = x.simplex_count(q - 1)
    cols = x.simplex_count(q)
    m = IntMatrix(rows, cols)
    for c in range(cols):
        row_ids = x.face_row(q, c)
        for i, r in enumerate(row_ids):
            m.data[r][c] += -1 if i % 2 else 1
    return m


@dataclass(frozen=True)
class HomologyGroups:
    """Betti numbers and torsion divisors, one entry per dimension."""

    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def betti(self, q: int) -> int:
        return self.groups[q][0] if 0 <= q < len(self.groups) else 0

    def torsion(self, q: int) -> tuple[int, ...]:
        return self.groups[q][1] if 0 <= q < len(self.groups) else ()

    def describe(self, q: int) -> str:
        b, tors = self.betti(q), self.torsion(q)
        parts = []
        if b == 1:
            parts.append("Z")
        elif b > 1:
            parts.append(f"Z^{b}")
        parts.extend(f"Z/{d}" for d in tors)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return ", ".join(
            f"H{q}={self.describe(q)}" for q in range(len(self.groups))
        )


def _face_column(row: Sequence[int]) -> dict[int, int]:
    """Signed boundary of one simplex from its face row: face i counts
    (-1)^i, summed where a face repeats."""
    col: dict[int, int] = {}
    for i, r in enumerate(row):
        col[r] = col.get(r, 0) + (-1 if i % 2 else 1)
    return col


def _rank_and_torsion(
    columns: Iterable[Mapping[int, int]],
) -> tuple[int, tuple[int, ...], set[int]]:
    """Rank, invariant factors above 1 and unit pivot rows of a matrix of
    sparse columns.

    A +-1 pivot is taken from the row with the fewest nonzeros, in the
    shortest column holding a unit there; the rest of its row is cleared
    by column operations, and its row and column are dropped.  Every step is
    unimodular and adds a 1 to the Smith diagonal, so dense Smith normal
    form of what is left when no unit entry remains gives the other
    invariant factors.  The returned set holds one row per unit pivot.
    """
    cols = {}
    for c, col in enumerate(columns):
        nonzero = {r: v for r, v in col.items() if v}
        if nonzero:
            cols[c] = nonzero
    rows: dict[int, set[int]] = {}
    for c, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(c)
    heap = [(len(cs), r) for r, cs in rows.items()]
    heapify(heap)
    pivot_rows: set[int] = set()
    while heap:
        size, r = heappop(heap)
        cs = rows.get(r)
        if cs is None or len(cs) != size:
            continue  # superseded by a later entry for this row
        unit_cols = [c for c in cs if cols[c][r] in (1, -1)]
        if not unit_cols:
            continue  # revisited if an elimination changes the row
        c = min(unit_cols, key=lambda j: len(cols[j]))
        pivot = cols.pop(c)
        p = pivot.pop(r)
        del rows[r]
        cs.discard(c)
        for r2 in pivot:
            rows[r2].discard(c)
        for c2 in cs:
            col = cols[c2]
            f = col.pop(r) * p
            for r2, v in pivot.items():
                x = col.get(r2, 0) - f * v
                if x:
                    if r2 not in col:
                        rows[r2].add(c2)
                    col[r2] = x
                else:
                    del col[r2]
                    rows[r2].discard(c2)
            if not col:
                del cols[c2]
        for r2 in pivot:
            if rows[r2]:
                heappush(heap, (len(rows[r2]), r2))
            else:
                del rows[r2]
        pivot_rows.add(r)
    index = {r: i for i, r in enumerate(rows)}
    block = IntMatrix(len(index), len(cols))
    for j, col in enumerate(cols.values()):
        for r, v in col.items():
            block.data[index[r]][j] = v
    snf = smith_normal_form(block)
    torsion = tuple(d for d in snf.diagonal if d > 1)
    return len(pivot_rows) + snf.rank, torsion, pivot_rows


def chain_homology(
    counts: Sequence[int], column: Callable[[int, int], Mapping[int, int]]
) -> HomologyGroups:
    """Integral homology of a chain complex of free abelian groups.

    ``counts[q]`` is the rank of the chain group in dimension q, and
    ``column(q, c)`` returns column c of the q-th boundary operator, the
    boundary of generator c of dimension q, as a ``{row: value}`` dict;
    zero values are ignored.  The top boundary is taken to be zero.

    The operators must form a complex: the q-th boundary after the
    (q + 1)-th is zero.  They are reduced from the top down, and
    ``column`` is never called for a generator of dimension q that was a
    unit pivot row of the (q + 1)-th boundary.  If a reduced column z of
    the (q + 1)-th boundary has its unit pivot at row r, then z is +-e_r
    plus later pivot rows plus rows never pivoted, and the q-th boundary
    of z is zero; so by induction from the last pivot, column r lies in
    the integer span of the columns kept.  Dropping it is a triangular
    basis change with +-1 on the diagonal, which keeps the rank and the
    invariant factors.  This is the clearing step of Chen and Kerber
    (EuroCG 2011), a reduction pair in the sense of Kaczynski, Mrozek and
    Slusarek (1998).
    """
    ranks = [0] * (len(counts) + 1)
    torsions: list[tuple[int, ...]] = [()] * (len(counts) + 1)
    cleared: set[int] = set()
    for q in range(len(counts) - 1, 0, -1):
        ranks[q], torsions[q], cleared = _rank_and_torsion(
            column(q, c) for c in range(counts[q]) if c not in cleared
        )
    return HomologyGroups(
        tuple(
            (counts[q] - ranks[q] - ranks[q + 1], torsions[q + 1])
            for q in range(len(counts))
        )
    )


def homology_groups(x: SemiSimplicialSet) -> HomologyGroups:
    """Integral homology in every dimension of the carrier."""
    return chain_homology(x.counts, lambda q, c: _face_column(x.face_row(q, c)))


def connected_component_count(x: SemiSimplicialSet) -> int:
    """Components of the 1-skeleton (vertices joined by edges)."""
    parent = list(range(x.simplex_count(0)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in x.simplices(1):
        a, b = find(x.face_index(1, e, 0)), find(x.face_index(1, e, 1))
        if a != b:
            parent[a] = b
    return len({find(i) for i in range(len(parent))})


# -- cochains ----------------------------------------------------------


@dataclass(frozen=True)
class IntCochain:
    """Integer cochain: one value per simplex of its dimension."""

    dim: int
    values: tuple[int, ...]

    def is_binary(self) -> bool:
        return all(v in (0, 1) for v in self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def __sub__(self, other: "IntCochain") -> "IntCochain":
        if self.dim != other.dim or len(self.values) != len(other.values):
            raise MismatchedCarriers("cochain dimensions disagree")
        return IntCochain(
            self.dim, tuple(a - b for a, b in zip(self.values, other.values))
        )


def zero_cochain(x: SemiSimplicialSet, q: int) -> IntCochain:
    return IntCochain(q, (0,) * x.simplex_count(q))


def cochain_to_json_dict(u: IntCochain) -> dict:
    return {"dim": u.dim, "values": list(u.values)}


def cochain_from_json_dict(doc) -> IntCochain:
    if not isinstance(doc, Mapping):
        raise MalformedFile("cochain document must be a JSON object")
    if "dim" not in doc or not isinstance(doc.get("values"), list):
        raise MalformedFile(
            "cochain document needs an integer 'dim' and a value list 'values'"
        )
    dim = json_int(doc["dim"], "cochain 'dim'")
    values = tuple(json_int(v, "a cochain value") for v in doc["values"])
    if dim < 0:
        raise MalformedFile("cochain dimension must be nonnegative")
    return IntCochain(dim, values)


def _check_carrier(x: SemiSimplicialSet, u: IntCochain) -> None:
    if len(u.values) != x.simplex_count(u.dim):
        raise MismatchedCarriers(
            f"cochain of dimension {u.dim} has {len(u.values)} values but the "
            f"complex has {x.simplex_count(u.dim)} simplices there"
        )


def coboundary(x: SemiSimplicialSet, u: IntCochain) -> IntCochain:
    """(du)(y) = sum of (-1)^i u(face(y, i)) over the faces of y."""
    _check_carrier(x, u)
    q = u.dim + 1
    values = u.values
    return IntCochain(q, tuple(
        sum(v * values[f] for f, v in _face_column(x.face_row(q, idx)).items())
        for idx in x.simplices(q)
    ))


def is_cocycle(x: SemiSimplicialSet, u: IntCochain) -> bool:
    return coboundary(x, u).is_zero()


def solve_linear(m: IntMatrix, rhs: Sequence[int]) -> list[int] | None:
    """One integer solution of m @ x = rhs, or None if there is none."""
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length disagrees with row count")
    snf = smith_normal_form(m, transforms=True)
    urhs = snf.left.apply(list(rhs))
    y = [0] * m.cols
    for i, val in enumerate(urhs):
        if i < snf.rank:
            d = snf.diagonal[i]
            if val % d:
                return None
            y[i] = val // d
        elif val:
            return None
    return snf.right.apply(y)


def cohomologous(
    x: SemiSimplicialSet, u1: IntCochain, u2: IntCochain
) -> tuple[bool, IntCochain | None]:
    """Decide whether two 2-cocycles differ by a coboundary.

    Returns the witness 1-cochain a with u1 - u2 = da when one exists.
    The witness comes from the unimodular transforms of Smith normal
    form, which unit-pivot elimination does not keep, so this solver
    stays on the dense coboundary matrix.
    """
    _check_carrier(x, u1)
    _check_carrier(x, u2)
    if u1.dim != 2 or u2.dim != 2:
        raise MismatchedCarriers("cohomologous compares 2-cochains")
    for u in (u1, u2):
        if not is_cocycle(x, u):
            raise NotACocycle("input to cohomologous has nonzero coboundary")
    d = boundary_matrix(x, 2).transpose()
    sol = solve_linear(d, list((u1 - u2).values))
    if sol is None:
        return False, None
    return True, IntCochain(1, tuple(sol))


# -- fundamental classes -----------------------------------------------


@dataclass(frozen=True)
class FundamentalClass:
    """Coefficients of the orienting 2-cycle, one sign per triangle."""

    carrier: SemiSimplicialSet
    coefficients: tuple[int, ...]
    seed: int
    seed_sign: int


def fundamental_class(
    x: SemiSimplicialSet, seed: int = 0, sign: int = 1
) -> FundamentalClass:
    """Orient a closed connected surface by propagating signs across edges.

    Every edge must be the face of exactly two triangle face slots; the
    coefficient of the seed triangle is the given sign and neighbors get
    signs forced by cancellation in the boundary.  A contradiction during
    propagation, or a nonzero boundary afterward, means the surface is
    non-orientable.
    """
    if x.top_dim != 2 or x.simplex_count(2) == 0:
        raise NotClosedSurface(
            f"top dimension is {x.top_dim}; a closed surface has triangles on top"
        )
    if sign not in (1, -1):
        raise ValueError("seed sign must be +1 or -1")
    n2 = x.simplex_count(2)
    if not 0 <= seed < n2:
        raise DanglingReference(f"seed triangle {seed} outside 0..{n2 - 1}")
    slots: list[list[tuple[int, int]]] = [[] for _ in x.simplices(1)]
    for t in x.simplices(2):
        for i, e in enumerate(x.face_row(2, t)):
            slots[e].append((t, i))
    for e, found in enumerate(slots):
        if len(found) != 2:
            raise NotClosedSurface(
                f"edge 1/{e} lies in {len(found)} triangle face slots, not 2"
            )
    if connected_component_count(x) != 1:
        raise NotClosedSurface("complex is not connected")
    coeff: list[int | None] = [None] * n2
    coeff[seed] = sign
    queue = [seed]
    while queue:
        t = queue.pop()
        for i, e in enumerate(x.face_row(2, t)):
            (t1, i1), (t2, i2) = slots[e]
            if t1 == t2:
                if i1 % 2 == i2 % 2:
                    raise NonOrientable(
                        f"edge 1/{e} repeats in triangle 2/{t1} with equal parity"
                    )
                continue
            other, oi = ((t2, i2) if t1 == t else (t1, i1))
            forced = -coeff[t] * (-1) ** ((i + oi) % 2)
            if coeff[other] is None:
                coeff[other] = forced
                queue.append(other)
            elif coeff[other] != forced:
                raise NonOrientable(
                    f"sign propagation contradicts itself across edge 1/{e}"
                )
    if any(c is None for c in coeff):
        raise NotClosedSurface("triangle dual graph is not connected")
    boundary = [0] * x.simplex_count(1)
    for t, a in enumerate(coeff):
        for e, v in _face_column(x.face_row(2, t)).items():
            boundary[e] += a * v
    if any(boundary):
        raise NonOrientable("orienting cycle has nonzero boundary")
    return FundamentalClass(x, tuple(coeff), seed, sign)
