"""Exact integer chain arithmetic for semi-simplicial sets.

Boundary matrices, the Smith diagonal, homology groups with torsion,
integer cochains with coboundary, a solver for cohomologous pairs, and
fundamental classes of closed oriented surfaces.  Everything runs on
Python integers, so entries may grow freely during elimination without
overflow.

Homology reduces each boundary operator as sparse columns, built on
demand from signed face rows.  Each column in turn is reduced at its
last row against the +-1 pivots found earlier, as in the standard
reduction of persistent homology; a column whose last entry is left +-1
becomes a unit pivot, which contributes a unit to the Smith diagonal.
The few columns left with another last entry are cleared at the pivot
rows and finished as a small block by Euclid steps on its nonzero
entries; no dense elimination runs.  The boundaries are reduced from the
top dimension down, and each one never builds the columns whose simplices
were unit pivot rows of the boundary above: since the boundary squares
to zero, those columns lie in the integer span of the others.  This is
the clearing step of Chen and Kerber, *Persistent homology computation
with a twist* (EuroCG 2011); over the integers it is a reduction pair in
the sense of Kaczynski, Mrozek and Slusarek, *Homology computation by
reduction of chain complexes* (1998).

Whether two 2-cocycles differ by a coboundary is an integer linear system
on the sparse coboundary.  It is solved by echelon elimination with
unimodular column operations, recorded so that replaying them backward
gives the witness; no Smith transforms are needed.  The Smith finish and
this solver take the same sparse line update (Kannan and Bachem,
*Polynomial algorithms for computing the Smith and Hermite normal forms
of an integer matrix*, SIAM J. Comput. 1979).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
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
    "cochain_to_json_dict",
    "cochain_from_json_dict",
    "coboundary",
    "cohomologous",
    "FundamentalClass",
    "fundamental_class",
]


class IntMatrix:
    """Dense integer matrix of zeros; ``data`` holds its row lists."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.data = [[0] * cols for _ in range(rows)]

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SmithForm:
    """The positive invariant factors of a matrix, each dividing the next."""

    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.diagonal)


def _add_line(lines, cross, dst, src, k) -> None:
    """Line dst += k * line src of a sparse matrix held both ways: each of
    ``lines`` maps its cross indices to its nonzero entries, and ``cross``
    holds the same entries by cross line.  k is nonzero."""
    line = lines[dst]
    for j, v in lines[src].items():
        x = line.get(j, 0) + k * v
        if x:
            line[j] = cross[j][dst] = x
        else:
            del line[j], cross[j][dst]


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize over the integers with the divisibility chain.

    Euclid steps on the nonzero entries, each one unimodular: the entry
    of least absolute value is the pivot, row operations reduce the rest
    of its column and column operations the rest of its row.  A remainder
    left is less than the pivot and is the next one; a pivot that stands
    alone goes on the diagonal with its row and column.  Pairwise gcd and
    lcm then turn the diagonal into the invariant factors.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for r, row in enumerate(m.data):
        for c, v in enumerate(row):
            if v:
                rows.setdefault(r, {})[c] = cols.setdefault(c, {})[r] = v
    diagonal = []
    while any(cols.values()):
        _, r, c = min((abs(v), r, c) for c, col in cols.items() for r, v in col.items())
        p = rows[r][c]
        for r2 in [r2 for r2 in cols[c] if r2 != r]:
            _add_line(rows, cols, r2, r, -(cols[c][r2] // p))
        for c2 in [c2 for c2 in rows[r] if c2 != c]:
            _add_line(cols, rows, c2, c, -(rows[r][c2] // p))
        if len(rows[r]) == len(cols[c]) == 1:
            diagonal.append(abs(p))
            del rows[r], cols[c]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            diagonal[i], diagonal[j] = gcd(a, b), lcm(a, b)
    return SmithForm(tuple(diagonal))


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
    (-1)^i, summed where a face repeats.  A row of two to four distinct
    faces, every row of a total space over a surface, is one dict
    display; the summing loop runs for a longer row or a repeated face."""
    n = len(row)
    if n == 2:
        a, b = row
        col = {a: 1, b: -1}
    elif n == 3:
        a, b, c = row
        col = {a: 1, b: -1, c: 1}
    elif n == 4:
        a, b, c, d = row
        col = {a: 1, b: -1, c: 1, d: -1}
    else:
        col = {}
    if len(col) < n:
        col = {}
        for i, r in enumerate(row):
            col[r] = col.get(r, 0) + (-1 if i % 2 else 1)
    return col


def _rank_and_torsion(
    columns: Iterable[Mapping[int, int]],
) -> tuple[int, tuple[int, ...], set[int]]:
    """Rank, invariant factors above 1 and unit pivot rows of a matrix of
    sparse columns.

    The columns are taken in order, each copied without its zeros.  While
    a column's last (largest) row is the row of a unit pivot found
    earlier, ``col[low] * pivot[low]`` times that pivot's column is taken
    off it, which clears the entry at ``low``.  A column left empty is
    dropped; one whose last entry is +-1 becomes that row's pivot; any
    other is set aside.  At the end each set-aside column is cleared the
    same way at every unit pivot row it holds, highest row first: a pivot
    column's other entries lie below its row, so no row cleared fills in
    again.  This is the standard reduction of persistent homology
    (Edelsbrunner, Letscher and Zomorodian, *Topological persistence and
    simplification*, DCG 2002), stopped at the units.

    The unit pivots sit at distinct last rows, so the pivot columns,
    restricted to their pivot rows, form a triangular matrix with +-1 on
    the diagonal, which is unimodular.  The set-aside columns are zero at
    those rows, and row operations by that triangle clear the pivot
    columns' entries at the other rows without touching the set-aside
    ones.  Every step is unimodular, so the Smith form is I + SNF(block),
    where the block holds the set-aside columns at the rows left, in
    ascending order; ``smith_normal_form`` finishes it with Euclid steps
    on its nonzero entries.  The returned set holds the unit pivot rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    aside: list[dict[int, int]] = []

    def reduce(col, low):
        pivot = pivots[low]
        f = col[low] * pivot[low]
        for r, v in pivot.items():
            x = col.get(r, 0) - f * v
            if x:
                col[r] = x
            else:
                del col[r]

    for col in columns:
        # a copy without zeros, so the caller's dict is never changed
        if 0 in col.values():
            col = {r: v for r, v in col.items() if v}
        else:
            col = dict(col)
        while col and (low := max(col)) in pivots:
            reduce(col, low)
        if not col:
            continue
        if col[low] in (1, -1):
            pivots[low] = col
        else:
            aside.append(col)
    for col in aside:
        while rows := [r for r in col if r in pivots]:
            reduce(col, max(rows))
    index = {r: i for i, r in enumerate(sorted({r for col in aside for r in col}))}
    block = IntMatrix(len(index), len(aside))
    for j, col in enumerate(aside):
        for r, v in col.items():
            block.data[index[r]][j] = v
    snf = smith_normal_form(block)
    torsion = tuple(d for d in snf.diagonal if d > 1)
    return len(pivots) + snf.rank, torsion, set(pivots)


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
    plus rows of smaller index, since r is its last row, and the q-th
    boundary of z is zero; so, taking the cleared rows in increasing
    order, each cleared column lies in the integer span of the kept ones.
    Dropping them is a triangular basis change with +-1 on the diagonal,
    which keeps the rank and the invariant factors.  This is the clearing
    step of Chen and Kerber (EuroCG 2011), a reduction pair in the sense
    of Kaczynski, Mrozek and Slusarek (1998).
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
    tables = [x.face_rows(q) for q in range(1, x.top_dim + 1)]
    return chain_homology(x.counts, lambda q, c: _face_column(tables[q - 1][c]))


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


def _solve(
    columns: Sequence[Mapping[int, int]], rhs: Mapping[int, int]
) -> list[int] | None:
    """One integer x with sum of x[c] * columns[c] equal to rhs, or None if
    there is none; columns and rhs are sparse ``{row: value}`` vectors.

    Rows are taken in ascending order.  Column operations clear each row
    but for one pivot column: a +-1 entry clears it at once, other entries
    take Euclid steps with the least entry as pivot.  Rows done before hold
    no entry of the columns still live, so the pivot's coefficient is
    forced by its row, must divide what is left of rhs there, and is taken
    off rhs before the pivot column retires; a row no live column reaches
    must have nothing left.  Every operation is unimodular, so replaying
    them backward on the coefficients gives x.
    """
    cols = [{r: v for r, v in col.items() if v} for col in columns]
    rows: dict[int, dict[int, int]] = {}
    for c, col in enumerate(cols):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    left = {r: v for r, v in rhs.items() if v}
    ops = []  # (dst, src, k): column dst += k * column src
    x = [0] * len(cols)
    for r in sorted(rows.keys() | left.keys()):
        cs = rows.setdefault(r, {})
        while len(cs) > 1:
            p = min(cs, key=lambda c: (abs(cs[c]), len(cols[c])))
            for c in [c for c in cs if c != p]:
                k = -(cs[c] // cs[p])
                _add_line(cols, rows, c, p, k)
                ops.append((c, p, k))
        b = left.get(r, 0)
        if not cs:
            if b:
                return None
            continue
        (p,) = cs
        y, rest = divmod(b, cs[p])
        if rest:
            return None
        x[p] = y
        for r2, v in cols[p].items():
            del rows[r2][p]
            left[r2] = left.get(r2, 0) - y * v
    for dst, src, k in reversed(ops):
        x[src] += k * x[dst]
    return x


def cohomologous(
    x: SemiSimplicialSet, u1: IntCochain, u2: IntCochain
) -> tuple[bool, IntCochain | None]:
    """Decide whether two 2-cocycles differ by a coboundary.

    Returns the witness 1-cochain a with u1 - u2 = da when one exists.
    It solves the sparse system whose column for an edge holds the signs
    the edge takes in the triangles' face rows.
    """
    _check_carrier(x, u1)
    _check_carrier(x, u2)
    if u1.dim != 2 or u2.dim != 2:
        raise MismatchedCarriers("cohomologous compares 2-cochains")
    for u in (u1, u2):
        if not coboundary(x, u).is_zero():
            raise NotACocycle("input to cohomologous has nonzero coboundary")
    columns: list[dict[int, int]] = [{} for _ in x.simplices(1)]
    for t in x.simplices(2):
        for e, v in _face_column(x.face_row(2, t)).items():
            columns[e][t] = v
    sol = _solve(columns, dict(enumerate((u1 - u2).values)))
    if sol is None:
        return False, None
    return True, IntCochain(1, tuple(sol))


# -- fundamental classes -----------------------------------------------


@dataclass(frozen=True)
class FundamentalClass:
    """Coefficients of the orienting 2-cycle, one sign per triangle."""

    carrier: SemiSimplicialSet
    coefficients: tuple[int, ...]


def fundamental_class(
    x: SemiSimplicialSet, seed: int = 0, sign: int = 1
) -> FundamentalClass:
    """Orient a closed connected surface by propagating signs across edges.

    Every edge must be the face of exactly two triangle face slots; the
    coefficient of the seed triangle is the given sign and neighbors get
    signs forced by cancellation in the boundary.  A contradiction during
    propagation means the surface is non-orientable.

    The propagation alone proves the rest.  When a triangle is popped,
    the two slots of each of its edges are checked to cancel: within the
    triangle by parity, across to another triangle by the sign forced or
    already held there.  Once every triangle is signed, every edge has
    been checked, since each lies on triangles, so the boundary is zero.
    The triangles are then joined across edges, and every edge lies on a
    triangle, so the complex is connected unless a vertex lies on no edge.
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
    if len({v for row in x.face_rows(1) for v in row}) != x.simplex_count(0):
        raise NotClosedSurface("complex is not connected")
    return FundamentalClass(x, tuple(coeff))
