"""The ordered n x n grid torus, built without the library.

Vertex (i, j) of the grid, taken mod n, has id i * n + j.  Each grid
square splits along its diagonal into two triangles; sorting each
triangle's vertex ids gives an ordered simplicial complex, whose face
tables follow by deleting one vertex at a time.
"""

from __future__ import annotations


def _parity(seq) -> int:
    """+1 for an even arrangement of distinct values, -1 for an odd one."""
    inversions = sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


def grid_torus(n: int) -> tuple[dict, tuple[int, ...]]:
    """Complex document of the n x n torus and its fundamental class.

    The document is in the library's complex file format, with n^2
    vertices, 3n^2 edges and 2n^2 triangles.  The second value holds one
    coefficient per triangle: +1 where the sorted vertex order agrees
    with the orientation of triangle 0, else -1.
    """
    if n < 3:
        raise ValueError("the grid torus needs n >= 3 to be a simplicial complex")

    def vid(i, j):
        return (i % n) * n + (j % n)

    triangles = []
    senses = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            for ccw in ((a, b, c), (a, c, d)):
                triangles.append(tuple(sorted(ccw)))
                senses.append(_parity(ccw))
    edge_ids: dict[tuple[int, int], int] = {}
    tri_faces = []
    for t in triangles:
        row = []
        for drop in range(3):
            e = t[:drop] + t[drop + 1 :]
            row.append(edge_ids.setdefault(e, len(edge_ids)))
        tri_faces.append(row)
    # face 0 of an edge drops its first vertex, leaving the second
    edge_faces = [[e[1], e[0]] for e in edge_ids]
    doc = {
        "dims": [n * n, len(edge_faces), len(tri_faces)],
        "faces": {"1": edge_faces, "2": tri_faces},
    }
    return doc, tuple(s * senses[0] for s in senses)
