"""Finite semi-simplicial sets with dense integer indexing.

A complex stores, for each dimension q >= 1, a face table
``faces[q][index][i]`` holding the index of the i-th face, one dimension
down.  Vertex order is implicit in the face indices, which is all the
structure a semi-simplicial set carries; degeneracies are never stored.
Indices are dense: the q-simplices are exactly ``0 .. n_q - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from ._json import json_int
from .errors import EnumerationBound, InvalidComplex, MalformedFile

__all__ = [
    "SemiSimplicialSet",
    "SimplexRef",
    "standard_simplex",
    "boundary_sphere",
    "delta_torus",
    "octahedron_sphere",
    "named_base",
    "NAMED_BASES",
    "MAX_NAMED_K",
]


@dataclass(frozen=True)
class SimplexRef:
    """Address of one simplex: its dimension and index in that dimension."""

    dim: int
    index: int

    def __str__(self) -> str:
        return f"{self.dim}/{self.index}"


class SemiSimplicialSet:
    """Semi-simplicial set given by per-dimension simplex counts and face tables.

    Parameters
    ----------
    num_vertices:
        Number of 0-simplices.
    faces:
        ``faces[q - 1]`` is the table for dimension ``q``: a sequence of
        rows, one per q-simplex, each row listing the ``q + 1`` face
        indices in order.  Trailing empty dimensions are dropped.
    labels:
        Optional mapping from ``(dim, index)`` to a display name.
    check:
        Validate the face identities on construction.  Internal callers
        that build tables known to be coherent may pass ``False``.
    """

    __slots__ = ("_num_vertices", "_faces", "labels")

    def __init__(self, num_vertices, faces, labels=None, check=True):
        self._num_vertices = int(num_vertices)
        levels = [
            tuple(tuple(int(v) for v in row) for row in level) for level in faces
        ]
        while levels and not levels[-1]:
            levels.pop()
        self._faces = tuple(levels)
        self.labels = dict(labels) if labels else {}
        if check:
            problems = self.validate()
            if problems:
                raise InvalidComplex(problems)

    # -- shape ---------------------------------------------------------

    @property
    def top_dim(self) -> int:
        return len(self._faces)

    @property
    def counts(self) -> tuple[int, ...]:
        return (self._num_vertices,) + tuple(len(lv) for lv in self._faces)

    def simplex_count(self, q: int) -> int:
        if q == 0:
            return self._num_vertices
        if 1 <= q <= self.top_dim:
            return len(self._faces[q - 1])
        return 0

    def simplices(self, q: int) -> range:
        return range(self.simplex_count(q))

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * n for q, n in enumerate(self.counts))

    # -- faces ---------------------------------------------------------

    def face_index(self, q: int, index: int, i: int) -> int:
        return self._faces[q - 1][index][i]

    def face(self, ref: SimplexRef, i: int) -> SimplexRef:
        return SimplexRef(ref.dim - 1, self.face_index(ref.dim, ref.index, i))

    def face_row(self, q: int, index: int) -> tuple[int, ...]:
        return self._faces[q - 1][index]

    def face_walk(
        self, q: int, index: int, keep
    ) -> tuple[int, list[tuple[int, int, int]]]:
        """Face of a q-simplex spanned by the vertex positions in ``keep``.

        Every other position is deleted from the top down, which keeps each
        lower position at its original index.  Returns the index of the
        face and the steps ``(dim, index, position)`` taken, in order.
        """
        steps = []
        for t in range(q, -1, -1):
            if t not in keep:
                steps.append((q, index, t))
                index = self._faces[q - 1][index][t]
                q -= 1
        return index, steps

    def vertex_at(self, q: int, index: int, p: int) -> int:
        """Vertex index at position ``p`` of a q-simplex."""
        if not 0 <= p <= q:
            raise IndexError(f"position {p} outside 0..{q}")
        return self.face_walk(q, index, (p,))[0]

    def vertices_of(self, q: int, index: int) -> tuple[int, ...]:
        return tuple(self.vertex_at(q, index, p) for p in range(q + 1))

    # -- validation ----------------------------------------------------

    def validate(self) -> list[str]:
        """Return human-readable violations; empty means the set is coherent.

        Checks face-table shape, index ranges, and the simplicial identity
        face(face(x, j), i) = face(face(x, i), j - 1) for all i < j.
        """
        problems: list[str] = []
        if self._num_vertices < 0:
            problems.append("negative vertex count")
        for q in range(1, self.top_dim + 1):
            below = self.simplex_count(q - 1)
            for idx, row in enumerate(self._faces[q - 1]):
                if len(row) != q + 1:
                    problems.append(
                        f"simplex {q}/{idx} has {len(row)} faces, expected {q + 1}"
                    )
                    continue
                for i, f in enumerate(row):
                    if not 0 <= f < below:
                        problems.append(
                            f"face {i} of {q}/{idx} references {q - 1}/{f} "
                            f"but dimension {q - 1} has {below} simplices"
                        )
        if problems:
            return problems
        for q in range(2, self.top_dim + 1):
            for idx in self.simplices(q):
                row = self._faces[q - 1][idx]
                for j in range(1, q + 1):
                    for i in range(j):
                        left = self.face_index(q - 1, row[j], i)
                        right = self.face_index(q - 1, row[i], j - 1)
                        if left != right:
                            problems.append(
                                f"face identity violated at ({q}/{idx}, {i}, {j}): "
                                f"face(face(x,{j}),{i}) = {left} but "
                                f"face(face(x,{i}),{j - 1}) = {right}"
                            )
        return problems

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {
            "dims": list(self.counts),
            "faces": {
                str(q): [list(row) for row in self._faces[q - 1]]
                for q in range(1, self.top_dim + 1)
            },
        }
        if self.labels:
            labels: dict[str, list] = {}
            for q in range(self.top_dim + 1):
                if any((q, i) in self.labels for i in self.simplices(q)):
                    labels[str(q)] = [
                        self.labels.get((q, i)) for i in self.simplices(q)
                    ]
            doc["labels"] = labels
        return doc

    @classmethod
    def from_json_dict(cls, doc) -> "SemiSimplicialSet":
        if not isinstance(doc, Mapping):
            raise MalformedFile("complex document must be a JSON object")
        if not isinstance(doc.get("dims"), list):
            raise MalformedFile("complex document needs an integer list 'dims'")
        dims = [json_int(n, "an entry of 'dims'") for n in doc["dims"]]
        if not dims or any(n < 0 for n in dims):
            raise MalformedFile("'dims' must list nonnegative counts, vertices first")
        raw_faces = doc.get("faces", {})
        if not isinstance(raw_faces, Mapping):
            raise MalformedFile("'faces' must map dimension strings to tables")
        faces = []
        for q in range(1, len(dims)):
            table = raw_faces.get(str(q), [])
            if not isinstance(table, list):
                raise MalformedFile(f"faces table for dimension {q} must be a list")
            if len(table) != dims[q]:
                raise MalformedFile(
                    f"dimension {q}: 'dims' promises {dims[q]} simplices "
                    f"but 'faces' lists {len(table)}"
                )
            what = f"a face id in dimension {q}"
            for row in table:
                if not isinstance(row, list):
                    raise MalformedFile(f"faces table for dimension {q} must list id lists")
                for v in row:
                    json_int(v, what)
            faces.append(table)
        for q_str in raw_faces:
            try:
                q = int(q_str)
            except ValueError as exc:
                raise MalformedFile(f"bad faces key {q_str!r}") from exc
            if not 1 <= q < len(dims):
                raise MalformedFile(f"faces table for dimension {q} not matching 'dims'")
        labels = {}
        try:
            for q_str, names in (doc.get("labels") or {}).items():
                q = int(q_str)
                for i, name in enumerate(names):
                    if name is not None:
                        labels[(q, i)] = str(name)
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedFile("'labels' must map dimension strings to name lists") from exc
        return cls(dims[0], faces, labels=labels)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemiSimplicialSet):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and self._faces == other._faces
        )

    def __hash__(self):
        return hash((self._num_vertices, self._faces))

    def __repr__(self) -> str:
        return f"SemiSimplicialSet(counts={self.counts})"


# -- constructors ------------------------------------------------------


def _simplex_tables(k: int, include_top: bool) -> tuple[int, list]:
    """Face tables for the full k-simplex, simplices = vertex subsets in
    lexicographic order."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    top = k if include_top else k - 1
    by_dim = [
        list(combinations(range(k + 1), q + 1)) for q in range(max(top, 0) + 1)
    ]
    index = [{s: i for i, s in enumerate(level)} for level in by_dim]
    faces = []
    for q in range(1, len(by_dim)):
        table = []
        for simplex in by_dim[q]:
            table.append(
                [
                    index[q - 1][simplex[:i] + simplex[i + 1 :]]
                    for i in range(q + 1)
                ]
            )
        faces.append(table)
    return k + 1, faces


def standard_simplex(k: int) -> SemiSimplicialSet:
    """The k-simplex with all its faces; C(k+1, q+1) simplices per dimension."""
    n0, faces = _simplex_tables(k, include_top=True)
    return SemiSimplicialSet(n0, faces, check=False)


def boundary_sphere(k: int) -> SemiSimplicialSet:
    """The boundary of the k-simplex, a triangulated (k-1)-sphere."""
    if k < 1:
        raise ValueError("boundary needs dimension at least 1")
    n0, faces = _simplex_tables(k, include_top=False)
    return SemiSimplicialSet(n0, faces, check=False)


def delta_torus() -> SemiSimplicialSet:
    """The one-vertex torus: edges a, b, c and two triangles.

    The first triangle has faces (b, c, a), the second (a, c, b); a and b
    are the meridian and longitude, c the diagonal.
    """
    labels = {(1, 0): "a", (1, 1): "b", (1, 2): "c"}
    return SemiSimplicialSet(
        1,
        [[[0, 0], [0, 0], [0, 0]], [[1, 2, 0], [0, 2, 1]]],
        labels=labels,
        check=False,
    )


_ANTIPODES = ((0, 1), (2, 3), (4, 5))


def octahedron_sphere() -> SemiSimplicialSet:
    """The octahedral 2-sphere: 6 vertices, 12 edges, 8 triangles.

    Vertices pair into antipodes (0,1), (2,3), (4,5); a subset spans a
    simplex exactly when it contains no antipodal pair.
    """
    forbidden = set(_ANTIPODES)
    edges = [
        e for e in combinations(range(6), 2) if e not in forbidden
    ]
    triangles = [
        t
        for t in combinations(range(6), 3)
        if all(p not in forbidden for p in combinations(t, 2))
    ]
    edge_index = {e: i for i, e in enumerate(edges)}
    tri_faces = [
        [edge_index[t[:i] + t[i + 1 :]] for i in range(3)] for t in triangles
    ]
    # face 0 of an edge drops the first vertex, leaving the second
    edge_faces = [[e[1], e[0]] for e in edges]
    return SemiSimplicialSet(6, [edge_faces, tri_faces], check=False)


def _parse_sized(name: str, prefix: str) -> int | None:
    if name.startswith(prefix + ":"):
        try:
            return int(name[len(prefix) + 1 :])
        except ValueError as exc:
            raise MalformedFile(f"bad size in base name {name!r}") from exc
    return None


NAMED_BASES = ("tetra", "octahedron", "delta-torus", "simplex:k", "sphere:k")

# simplex:k and sphere:k have 2^(k+1) - 1 and 2^(k+1) - 2 simplices
MAX_NAMED_K = 16


def named_base(name: str) -> SemiSimplicialSet:
    """Resolve a built-in base by name.

    Accepted: ``tetra`` (the tetrahedral sphere, same as ``sphere:3``),
    ``octahedron``, ``delta-torus``, ``simplex:k`` for k >= 0 and
    ``sphere:k`` for k >= 1, both with k at most ``MAX_NAMED_K``.
    """
    key = name.strip().lower().replace("_", "-")
    if key == "tetra":
        return boundary_sphere(3)
    if key == "octahedron":
        return octahedron_sphere()
    if key == "delta-torus":
        return delta_torus()
    for prefix, least, build in (
        ("simplex", 0, standard_simplex),
        ("sphere", 1, boundary_sphere),
    ):
        k = _parse_sized(key, prefix)
        if k is None:
            continue
        if k < least:
            raise MalformedFile(f"base {name!r} needs k >= {least}")
        if k > MAX_NAMED_K:
            raise EnumerationBound(
                f"base {name!r} is capped at k = {MAX_NAMED_K}, "
                f"since it has about 2^{k + 1} simplices"
            )
        return build(k)
    raise MalformedFile(
        f"unknown base {name!r}; expected one of {', '.join(NAMED_BASES)} or a file"
    )

