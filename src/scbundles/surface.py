"""Bundles with a prescribed Chern number over closed oriented surfaces.

Half of the triangles of a closed oriented surface carry each relative
orientation sign, so any integer c with |c| at most half the triangle
count is realized by a binary cocycle supported on |c| triangles of the
matching sign, and by the minimal bundle built from that cocycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bundle import MinimalBundle, minimal_from_cocycle
from .errors import BoundExceeded, MismatchedCarriers, NonOrientable
from .homology import FundamentalClass, IntCochain
from .simplicial import SemiSimplicialSet

__all__ = [
    "SurfaceOrientationData",
    "parity_check",
    "cocycle_for_chern",
    "build_surface_bundle",
]


@dataclass(frozen=True)
class SurfaceOrientationData:
    signs: tuple[int, ...]
    positives: int
    negatives: int

    @property
    def chern_bound(self) -> int:
        return len(self.signs) // 2


def parity_check(
    surface: SemiSimplicialSet, fm: FundamentalClass
) -> SurfaceOrientationData:
    """Split the triangles by orientation sign; the two halves are equal
    on any closed oriented surface.

    Raises NonOrientable when they are not, since then the class does not
    orient the surface.
    """
    if fm.carrier != surface:
        raise MismatchedCarriers(
            "fundamental class belongs to a different complex"
        )
    signs = fm.coefficients
    pos = sum(1 for s in signs if s == 1)
    neg = len(signs) - pos
    if pos != neg:
        raise NonOrientable(
            f"orientation signs split {pos}/{neg}, expected equal halves"
        )
    return SurfaceOrientationData(signs, pos, neg)


def cocycle_for_chern(
    surface: SemiSimplicialSet,
    fm: FundamentalClass,
    c: int,
    seed: int | None = None,
) -> IntCochain:
    """A binary 2-cochain pairing to c with the fundamental class.

    Ones go on |c| triangles whose sign matches the sign of c, lowest
    ids first; a seed shuffles the placement instead, exercising the
    freedom the bound leaves.
    """
    data = parity_check(surface, fm)
    bound = data.chern_bound
    if abs(c) > bound:
        raise BoundExceeded(
            f"|{c}| exceeds the Chern bound {bound} "
            f"(half of {len(data.signs)} triangles)"
        )
    values = [0] * len(data.signs)
    if c != 0:
        want = 1 if c > 0 else -1
        candidates = [i for i, s in enumerate(data.signs) if s == want]
        if seed is not None:
            random.Random(seed).shuffle(candidates)
        for i in candidates[: abs(c)]:
            values[i] = 1
    return IntCochain(2, tuple(values))


def build_surface_bundle(
    surface: SemiSimplicialSet,
    fm: FundamentalClass,
    c: int,
    seed: int | None = None,
) -> MinimalBundle:
    """The minimal bundle over the surface with Chern number c."""
    return minimal_from_cocycle(surface, cocycle_for_chern(surface, fm, c, seed))
