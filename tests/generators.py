"""Shared generators for randomized suites, and a wall-clock budget.

Everything is seeded by the caller; no test should draw from global
random state.
"""

from __future__ import annotations

import random
import time

from scbundles import (
    IntCochain,
    Necklace,
    NecklaceLocalSystem,
    SemiSimplicialSet,
    boundary_sphere,
    coboundary,
    delta_torus,
    minimal_from_cocycle,
    named_base,
    octahedron_sphere,
    standard_simplex,
)
from scbundles.spindle import contract, subdivide

from oracles import vertices_of

KLEIN_FACES = [[0, 0, 0], [[0, 0], [0, 0], [0, 0]], [[1, 2, 0], [2, 1, 0]]]


def klein_bottle() -> SemiSimplicialSet:
    """One vertex, three edges, two triangles; H1 has 2-torsion."""
    return SemiSimplicialSet(1, [KLEIN_FACES[1], KLEIN_FACES[2]])


def random_necklace(rng: random.Random, top: int, extra: int = 4) -> Necklace:
    """A necklace over colors 0..top with up to ``extra`` repeated beads."""
    colors = list(range(top + 1))
    for _ in range(rng.randrange(extra + 1)):
        colors.append(rng.randrange(top + 1))
    rng.shuffle(colors)
    return Necklace.from_colors(colors)


def random_binary_cocycle(base: SemiSimplicialSet, rng: random.Random) -> IntCochain:
    """Uniform binary 2-cocycle, by rejection over the (small) cube."""
    n = base.simplex_count(2)
    while True:
        u = IntCochain(2, tuple(rng.randrange(2) for _ in range(n)))
        if base.top_dim < 3 or coboundary(base, u).is_zero():
            return u


def vertex_order_cocycle(base: SemiSimplicialSet, rng: random.Random) -> IntCochain:
    """The parities a random cyclic order of the vertices induces on the
    triangles: 0 where a triangle's vertices, in face order, run around
    the circle, else 1.

    It is the pullback of Huntington's cyclic order, so it is a cocycle
    over any dimension, on bases whose simplices have distinct vertices;
    ``random_binary_cocycle`` samples the whole cube and cannot reach
    beyond ``simplex:4``.
    """
    place = list(range(base.simplex_count(0)))
    rng.shuffle(place)
    values = []
    for idx in base.simplices(2):
        a, b, c = (place[v] for v in vertices_of(base, 2, idx))
        values.append(0 if a < b < c or b < c < a or c < a < b else 1)
    return IntCochain(2, tuple(values))


BUNDLE_BASES = (
    standard_simplex(1),
    standard_simplex(2),
    standard_simplex(3),
    boundary_sphere(3),
    delta_torus(),
)


# one or more of each named base family, the edge cases included
NAMED_EXAMPLES = (
    "tetra", "octahedron", "delta-torus", "simplex:0", "simplex:3",
    "simplex:6", "sphere:1", "sphere:4", "torus:3", "torus:5",
)


def random_system(
    rng: random.Random,
    bases=BUNDLE_BASES,
    max_subdivisions: int = 3,
) -> NecklaceLocalSystem:
    """A random bundle: cocycle bundle plus a few random bead splits."""
    base = rng.choice(bases)
    u = random_binary_cocycle(base, rng)
    system = minimal_from_cocycle(base, u).as_local_system()
    for _ in range(rng.randrange(max_subdivisions + 1)):
        v = rng.randrange(base.simplex_count(0))
        bead = rng.choice(system.stalk(0, v).ids)
        system = subdivide(system, v, bead, check=False)
    return system


def random_moves(
    system: NecklaceLocalSystem, rng: random.Random, count: int
) -> NecklaceLocalSystem:
    """count seeded moves, each a subdivide or, where the vertex circle
    has two beads or more, a contraction, by a coin; the subdivisions are
    unchecked, and a contraction always checks its result."""
    vertices = system.base.simplices(0)
    for _ in range(count):
        v = rng.choice(vertices)
        ids = system.stalk(0, v).ids
        if len(ids) > 1 and rng.randrange(2):
            system = contract(system, v, rng.choice(ids))
        else:
            system = subdivide(system, v, rng.choice(ids), check=False)
    return system


def grid_torus(n):
    """The n x n grid torus, the library's named base ``torus:n``."""
    return named_base(f"torus:{n}")


class Budget:
    """Context manager asserting the block finished inside its budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"budget {self.seconds}s exceeded: {elapsed:.2f}s"
            )
