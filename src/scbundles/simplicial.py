"""Finite semi-simplicial sets with dense integer indexing.

A complex stores, for each dimension q >= 1, a face table
``faces[q][index][i]`` holding the index of the i-th face, one dimension
down.  Vertex order is implicit in the face indices, which is all the
structure a semi-simplicial set carries; degeneracies are never stored.
Indices are dense: the q-simplices are exactly ``0 .. n_q - 1``.
The inverse table, the cofaces of each simplex, is built from the face
tables on first use.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, count
from operator import itemgetter
from typing import Mapping

from ._json import ARRAY_TYPES, json_int, key_int
from .errors import DanglingReference, EnumerationBound, InvalidComplex, MalformedFile

__all__ = [
    "SemiSimplicialSet",
    "closure",
    "standard_simplex",
    "boundary_sphere",
    "delta_torus",
    "octahedron_sphere",
    "grid_torus",
    "named_base",
    "NAMED_BASES",
    "MAX_NAMED_K",
    "MAX_TORUS_N",
]


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

    __slots__ = ("_num_vertices", "_faces", "_cofaces", "labels")

    def __init__(self, num_vertices, faces, labels=None, check=True):
        self._num_vertices = int(num_vertices)
        levels = [tuple(map(tuple, level)) for level in faces]
        while levels and not levels[-1]:
            levels.pop()
        self._faces = tuple(levels)
        self._cofaces = None
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

    def face_row(self, q: int, index: int) -> tuple[int, ...]:
        return self._faces[q - 1][index]

    def face_rows(self, q: int) -> tuple[tuple[int, ...], ...]:
        """The face row of every q-simplex, q >= 1, in index order."""
        return self._faces[q - 1]

    def cofaces(self, q: int, index: int) -> tuple[int, ...]:
        """The (q+1)-simplices having the q-simplex as a face, ascending,
        each once however many of its faces it is.

        The table for every dimension is built in one pass over the face
        rows on the first call.
        """
        if self._cofaces is None:
            table = tuple([[] for _ in range(n)] for n in self.counts)
            for level, up in zip(self._faces, table):
                for idx, row in enumerate(level):
                    for f in set(row):
                        up[f].append(idx)
            self._cofaces = tuple(tuple(map(tuple, level)) for level in table)
        return self._cofaces[q][index]

    # -- validation ----------------------------------------------------

    def validate(self) -> list[str]:
        """Return human-readable violations; empty means the set is coherent.

        Checks face-table shape, index ranges, and the simplicial identity
        face(face(x, j), i) = face(face(x, i), j - 1) for all i < j.  Each
        check runs a whole level at a time: the row lengths and the least
        and greatest distinct face id, then each identity (i, j) as two
        columns, the faces i of every face j against the faces j - 1 of
        every face i.  The rows of a level are walked one by one only where
        a check fails there, to word its violations in row order.
        """
        problems: list[str] = []
        if self._num_vertices < 0:
            problems.append("negative vertex count")
        for q in range(1, self.top_dim + 1):
            below = self.simplex_count(q - 1)
            level = self._faces[q - 1]
            if {*map(len, level)} == {q + 1}:
                ids = {*chain.from_iterable(level)}
                if 0 <= min(ids) and max(ids) < below:
                    continue
            for idx, row in enumerate(level):
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
            lower, level = self._faces[q - 2], self._faces[q - 1]
            # the face rows of face k of every q-simplex, for each k
            rows = [
                list(map(lower.__getitem__, map(itemgetter(k), level)))
                for k in range(q + 1)
            ]
            if all(
                list(map(itemgetter(i), rows[j]))
                == list(map(itemgetter(j - 1), rows[i]))
                for j in range(1, q + 1)
                for i in range(j)
            ):
                continue
            for idx, row in enumerate(level):
                for j in range(1, q + 1):
                    for i in range(j):
                        left = lower[row[j]][i]
                        right = lower[row[i]][j - 1]
                        if left != right:
                            problems.append(
                                f"face identity violated at ({q}/{idx}, {i}, {j}): "
                                f"face(face(x,{j}),{i}) = {left} but "
                                f"face(face(x,{i}),{j - 1}) = {right}"
                            )
        return problems

    @classmethod
    def from_simplices(cls, levels) -> "SemiSimplicialSet":
        """The complex whose q-simplices are the vertex tuples ``levels[q]``
        in id order, vertex v being the one listed as ``(v,)``.  Face i of a
        simplex deletes its i-th vertex; ``InvalidComplex`` is raised if the
        level below does not list it, if a q-simplex has not q + 1 vertices,
        or if a level lists a simplex more than once.
        """
        faces = []
        index: dict = {}  # the id of each simplex of the level below
        for q, level in enumerate(levels):
            if set(map(len, level)) - {q + 1}:
                raise InvalidComplex([f"a {q}-simplex of length other than {q + 1}"])
            if q:
                at = range(q + 1)
                getters = [itemgetter(*at[:i], *at[i + 1 :]) for i in at]
                columns = [map(index.__getitem__, map(get, level)) for get in getters]
                try:
                    faces.append(tuple(zip(*columns)))
                except KeyError:
                    listed = set(map(tuple, levels[q - 1]))
                    raise InvalidComplex(
                        f"face {i} {s[:i] + s[i + 1 :]} of {q}/{idx} {s} is not listed"
                        for idx, s in enumerate(map(tuple, level))
                        for i in at
                        if s[:i] + s[i + 1 :] not in listed
                    ) from None
            # an itemgetter of one position gives a bare vertex, not a tuple
            index = dict(zip(map(tuple, level) if q else [v for v, in level], count()))
            if len(index) < len(level):
                raise InvalidComplex(
                    f"level {q} lists {s} {k} times"
                    for s, k in Counter(map(tuple, level)).items()
                    if k > 1
                )
        return cls(len(levels[0]) if levels else 0, faces, check=False)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        """The complex document; each face table is the stored tuple of
        tuple rows, which the writer puts out as arrays, so the document
        shares them rather than copying them."""
        doc: dict = {
            "dims": list(self.counts),
            "faces": {str(q): self._faces[q - 1] for q in range(1, self.top_dim + 1)},
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
        """Read a complex document.  A tuple is taken wherever a JSON
        array is, so the output of ``to_json_dict`` reads back as it is."""
        if not isinstance(doc, Mapping):
            raise MalformedFile("complex document must be a JSON object")
        if not isinstance(doc.get("dims"), ARRAY_TYPES):
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
            if not isinstance(table, ARRAY_TYPES):
                raise MalformedFile(f"faces table for dimension {q} must be a list")
            if len(table) != dims[q]:
                raise MalformedFile(
                    f"dimension {q}: 'dims' promises {dims[q]} simplices "
                    f"but 'faces' lists {len(table)}"
                )
            # one type scan per table; the loop below runs only to name the
            # first bad row or id in document order
            if not (
                {*map(type, table)}.issubset(ARRAY_TYPES)
                and {*map(type, chain.from_iterable(table))} <= {int}
            ):
                what = f"a face id in dimension {q}"
                for row in table:
                    if not isinstance(row, ARRAY_TYPES):
                        raise MalformedFile(
                            f"faces table for dimension {q} must list id lists"
                        )
                    for v in row:
                        json_int(v, what)
            faces.append(table)
        for q_str in raw_faces:
            try:
                q = key_int(q_str)
            except ValueError as exc:
                raise MalformedFile(f"bad faces key {q_str!r}") from exc
            if not 1 <= q < len(dims):
                raise MalformedFile(f"faces table for dimension {q} not matching 'dims'")
        raw_labels = doc.get("labels", {})
        if not isinstance(raw_labels, Mapping):
            raise MalformedFile("'labels' must map dimension strings to name lists")
        labels = {}
        for q_str, names in raw_labels.items():
            try:
                q = key_int(q_str)
            except ValueError as exc:
                raise MalformedFile(f"bad labels key {q_str!r}") from exc
            if not isinstance(names, ARRAY_TYPES) or not all(
                name is None or isinstance(name, str) for name in names
            ):
                raise MalformedFile(
                    f"labels for dimension {q} must list names (strings or null)"
                )
            if not 0 <= q < len(dims) or len(names) > dims[q]:
                raise DanglingReference(
                    f"labels for dimension {q} name simplices the complex lacks"
                )
            for i, name in enumerate(names):
                if name is not None:
                    labels[(q, i)] = name
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


def closure(top_simplices) -> list[list[tuple[int, ...]]]:
    """Every nonempty face of the given simplices, each taken as its set
    of vertices: ``levels[q]`` lists the q-faces as increasing vertex
    tuples in lexicographic order, as ``from_simplices`` reads them."""
    tops = sorted({tuple(sorted(set(top))) for top in top_simplices})
    # faces of sorted tops come in long sorted runs, which sorting is fast on
    return [
        sorted(dict.fromkeys(chain.from_iterable(combinations(t, q + 1) for t in tops)))
        for q in range(max(map(len, tops), default=0))
    ]


def standard_simplex(k: int) -> SemiSimplicialSet:
    """The k-simplex with all its faces; C(k+1, q+1) simplices per dimension."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    return SemiSimplicialSet.from_simplices(closure([range(k + 1)]))


def boundary_sphere(k: int) -> SemiSimplicialSet:
    """The boundary of the k-simplex, a triangulated (k-1)-sphere."""
    if k < 1:
        raise ValueError("boundary needs dimension at least 1")
    return SemiSimplicialSet.from_simplices(closure([range(k + 1)])[:-1])


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


def octahedron_sphere() -> SemiSimplicialSet:
    """The octahedral 2-sphere: 6 vertices, 12 edges, 8 triangles.

    Vertices pair into antipodes (0,1), (2,3), (4,5); a subset spans a
    simplex exactly when it contains no antipodal pair.
    """
    triangles = (t for t in combinations(range(6), 3) if len({v // 2 for v in t}) == 3)
    return SemiSimplicialSet.from_simplices(closure(triangles))


def grid_torus(n: int) -> SemiSimplicialSet:
    """The n x n grid torus, an ordered simplicial complex for n >= 3.

    Vertex (i, j), taken mod n, has id i * n + j.  Each grid square splits
    along its diagonal into two triangles with sorted vertices.  Edges are
    numbered in order of first appearance as faces of the triangles.
    """
    if n < 3:
        raise ValueError("the grid torus needs n >= 3")

    def vertex(i, j):
        return (i % n) * n + j % n

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            triangles += (tuple(sorted(tri)) for tri in ((a, b, c), (a, c, d)))
    edges = dict.fromkeys(e for x, y, z in triangles for e in ((y, z), (x, z), (x, y)))
    vertices = [(v,) for v in range(n * n)]
    return SemiSimplicialSet.from_simplices([vertices, list(edges), triangles])


def _parse_sized(key: str, prefix: str, name: str) -> int | None:
    """The size in a normalized base name ``key`` of the form
    ``prefix:size``, or None for another form; a bad size is reported
    with the ``name`` as typed."""
    if key.startswith(prefix + ":"):
        try:
            return key_int(key[len(prefix) + 1 :])
        except ValueError as exc:
            raise MalformedFile(f"bad size in base name {name!r}") from exc
    return None


NAMED_BASES = ("tetra", "octahedron", "delta-torus", "simplex:k", "sphere:k", "torus:n")

# simplex:k and sphere:k have 2^(k+1) - 1 and 2^(k+1) - 2 simplices
MAX_NAMED_K = 16
# torus:n has 6n^2 simplices; a Chern bundle over it has 26n^2
MAX_TORUS_N = 128


def named_base(name: str) -> SemiSimplicialSet:
    """Resolve a built-in base by name.

    Accepted: ``tetra`` (the tetrahedral sphere, same as ``sphere:3``),
    ``octahedron``, ``delta-torus``, ``simplex:k`` for k >= 0 and
    ``sphere:k`` for k >= 1, both with k at most ``MAX_NAMED_K``, and
    ``torus:n``, the n x n grid torus, for 3 <= n <= ``MAX_TORUS_N``.
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
        k = _parse_sized(key, prefix, name)
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
    n = _parse_sized(key, "torus", name)
    if n is not None:
        if n < 3:
            raise MalformedFile(f"base {name!r} needs n >= 3")
        if n > MAX_TORUS_N:
            raise EnumerationBound(
                f"base {name!r} is capped at n = {MAX_TORUS_N}, "
                f"since it has 6n^2 simplices"
            )
        return grid_torus(n)
    raise MalformedFile(
        f"unknown base {name!r}; expected one of {', '.join(NAMED_BASES)} or a file"
    )

