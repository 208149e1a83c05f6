"""Circular permutations, necklaces, and the cyclic order engine.

Conventions, fixed here and relied on everywhere else:

* A necklace is an oriented circular word of colored beads.  The stored
  tuple is one turning of the circle; rotations are identified, and the
  canonical turning minimizes the pair (color word, id word).
* A circular permutation wears each color exactly once; its canonical
  turning starts at color 0.
* Face operator i deletes the bead(s) colored i and renumbers the higher
  colors down by one.  Degeneracy i inserts a duplicate right after the
  bead colored i: give the newcomer the value i + 1/2, then renumber.
  Both act the same way on linear permutations, so the quotient map from
  linear to circular words commutes with every operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

from .errors import (
    EnumerationBound,
    IncompatibleFamily,
    InconsistentTriples,
    LastColor,
    MismatchedCarriers,
)
from .homology import HomologyGroups, _face_column, chain_homology

__all__ = [
    "CircularPermutation",
    "Necklace",
    "c01",
    "enumerate_sc",
    "MAX_SC_K",
    "TripleOrderFamily",
    "insertion_extend",
    "kan_lifts",
    "kan_survey",
    "is_classical_necklace",
    "sc_normalized_homology",
]


# 0..k has k! circular permutations; enumeration stops above this top
MAX_SC_K = 7


# -- core word operations (plain tuples, cached) -----------------------


def _validate_perm_word(word: tuple[int, ...]) -> None:
    if sorted(word) != list(range(len(word))):
        raise ValueError(f"{word} is not a permutation word of 0..{len(word) - 1}")


@lru_cache(maxsize=None)
def _canon_cp(word: tuple[int, ...]) -> tuple[int, ...]:
    j = word.index(0)
    return word[j:] + word[:j]


@lru_cache(maxsize=None)
def _cp_face(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    # delete the letter i, pull higher letters down
    return _canon_cp(tuple(v if v < i else v - 1 for v in word if v != i))


@lru_cache(maxsize=None)
def _cp_degeneracy(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    out: list[int] = []
    for v in word:
        shifted = v if v <= i else v + 1
        out.append(shifted)
        if v == i:
            out.append(i + 1)
    return _canon_cp(tuple(out))


@dataclass(frozen=True)
class CircularPermutation:
    """A cyclic order on the colors 0..top, stored starting at color 0."""

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(int(v) for v in self.word)
        _validate_perm_word(word)
        object.__setattr__(self, "word", _canon_cp(word))

    @property
    def top(self) -> int:
        return len(self.word) - 1

    def face(self, i: int) -> "CircularPermutation":
        """Delete color i and renumber the colors above it down by one."""
        self._check_color(i)
        if self.top == 0:
            raise LastColor("cannot delete the only color of <0>")
        return CircularPermutation(_cp_face(self.word, i))

    def degeneracy(self, i: int) -> "CircularPermutation":
        """Insert a duplicate right after color i; higher colors move up."""
        self._check_color(i)
        return CircularPermutation(_cp_degeneracy(self.word, i))

    def is_degenerate(self) -> bool:
        """True when some degeneracy of a smaller circular permutation
        produces this one.

        That happens exactly when some color i is followed immediately by
        i + 1 around the circle: s_i inserts i + 1 right after i, and
        conversely such a word w satisfies s_i(d_{i+1} w) = w.  The stored
        turning starts at color 0, which follows no color, so only adjacent
        pairs of the stored word need checking.
        """
        w = self.word
        return any(a + 1 == b for a, b in zip(w, w[1:]))

    def triple_bit(self, a: int, b: int, c: int) -> int:
        """Induced cyclic order of a < b < c: 0 for (a,b,c), 1 for (a,c,b)."""
        if not a < b < c:
            raise ValueError("triple must be strictly increasing")
        return _induced_bit(self.word, a, b, c)

    def _check_color(self, i: int) -> None:
        if not 0 <= i <= self.top:
            raise ValueError(f"color {i} outside 0..{self.top}")

    def __str__(self) -> str:
        return "<" + ",".join(str(v) for v in self.word) + ">"


def _induced_bit(word: Iterable[int], a: int, b: int, c: int) -> int:
    """Cyclic order a word induces on a < b < c: 0 for (a,b,c), 1 for (a,c,b)."""
    sub = tuple(v for v in word if v in (a, b, c))
    j = sub.index(a)
    return 0 if sub[j:] + sub[:j] == (a, b, c) else 1


def c01(theta: CircularPermutation) -> int:
    """Parity of a circular permutation of three colors: 0 for the class
    of (0,1,2), 1 for the class of (0,2,1)."""
    if theta.top != 2:
        raise ValueError(f"parity defined on three colors, got top {theta.top}")
    return 0 if theta.word == (0, 1, 2) else 1


@lru_cache(maxsize=None)
def _sc_words(k: int) -> tuple[tuple[int, ...], ...]:
    if k < 0:
        raise ValueError("alphabet top must be nonnegative")
    if k > MAX_SC_K:
        raise EnumerationBound(
            f"enumeration of circular permutations capped at top {MAX_SC_K}, got {k}"
        )
    return tuple((0,) + rest for rest in permutations(range(1, k + 1)))


def enumerate_sc(k: int) -> tuple[CircularPermutation, ...]:
    """All circular permutations of 0..k in lexicographic order of the
    canonical word; there are k! of them, for k at most ``MAX_SC_K``."""
    return tuple(CircularPermutation(w) for w in _sc_words(k))


# -- triple orders and insertion --------------------------------------


@dataclass(frozen=True)
class TripleOrderFamily:
    """A cyclic order bit for every triple of the ground set 0..top.

    Bit 0 orders a < b < c as (a,b,c), bit 1 as (a,c,b).  Bits are stored
    by lexicographic rank of the triple.
    """

    top: int
    bits: tuple[int, ...]

    def __post_init__(self):
        expected = len(list(combinations(range(self.top + 1), 3)))
        if len(self.bits) != expected:
            raise ValueError(
                f"need {expected} bits for ground set 0..{self.top}, "
                f"got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("triple order bits must be 0 or 1")

    @classmethod
    def from_mapping(cls, top: int, bits: Mapping[tuple[int, int, int], int]):
        ordered = [bits[t] for t in combinations(range(top + 1), 3)]
        return cls(top, tuple(ordered))

    def items(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        return zip(combinations(range(self.top + 1), 3), self.bits)


def _violating_quadruple(
    top: int, bits: Mapping[tuple[int, int, int], int]
) -> tuple[int, ...] | None:
    for a, b, c, d in combinations(range(top + 1), 4):
        if bits[(b, c, d)] - bits[(a, c, d)] + bits[(a, b, d)] - bits[(a, b, c)]:
            return (a, b, c, d)
    return None


def insertion_extend(fam: TripleOrderFamily) -> CircularPermutation:
    """The unique circular permutation inducing a transitive triple family.

    Elements 3..top are inserted one at a time into the single gap
    consistent with every triple they join; afterwards all triples are
    re-verified.  An inconsistent family raises with a quadruple
    witnessing the transitivity failure.
    """
    if fam.top < 2:
        raise ValueError("triple orders need a ground set of at least three")
    bits = dict(fam.items())
    word = [0, 1, 2] if bits[(0, 1, 2)] == 0 else [0, 2, 1]
    for m in range(3, fam.top + 1):
        spot = None
        for gap in range(len(word)):
            candidate = word[: gap + 1] + [m] + word[gap + 1 :]
            if all(
                _induced_bit(candidate, a, b, m) == bits[(a, b, m)]
                for a, b in combinations(range(m), 2)
            ):
                spot = candidate
                break
        if spot is None:
            quad = _violating_quadruple(fam.top, bits)
            if quad is None:
                raise AssertionError("insertion failed on a transitive family")
            raise InconsistentTriples(quad)
        word = spot
    for (a, b, c), bit in bits.items():
        if _induced_bit(word, a, b, c) != bit:
            quad = _violating_quadruple(fam.top, bits)
            if quad is None:
                raise AssertionError("verification failed on a transitive family")
            raise InconsistentTriples(quad)
    return CircularPermutation(tuple(word))


# -- horn lifting ------------------------------------------------------


def _exchange_holds(lower: tuple[int, ...], upper: tuple[int, ...], i: int, m: int) -> bool:
    """Whether facets i < m of a horn agree on their common face: face
    m - 1 of the former must equal face i of the latter."""
    return _cp_face(lower, m - 1) == _cp_face(upper, i)


@lru_cache(maxsize=None)
def _lift_table(k: int) -> dict[tuple[tuple[int, ...], ...], list[tuple[int, ...]]]:
    # facet words (d_0 w, ..., d_k w) -> the words w of SC(k) above them
    table: dict = {}
    for w in _sc_words(k):
        table.setdefault(tuple(_cp_face(w, i) for i in range(k + 1)), []).append(w)
    return table


def kan_lifts(facets: Iterable[CircularPermutation]) -> list[CircularPermutation]:
    """All circular permutations whose faces are the given facet family.

    The family lists a facet for every face index 0..k; the pairwise
    exchange precheck runs first and failures name the offending index
    pair.  Counts follow the horn-filling pattern: two lifts when k is 2,
    one when k is at least 4, zero or one when k is 3.
    """
    facets = list(facets)
    k = len(facets) - 1
    if k < 1:
        raise MismatchedCarriers("a facet family needs at least two members")
    for j, th in enumerate(facets):
        if not isinstance(th, CircularPermutation) or th.top != k - 1:
            raise MismatchedCarriers(
                f"facet {j} should be a circular permutation of 0..{k - 1}"
            )
    words = tuple(th.word for th in facets)
    if k >= 2:
        for i, m in combinations(range(k + 1), 2):
            if not _exchange_holds(words[i], words[m], i, m):
                raise IncompatibleFamily(
                    f"faces disagree between facets {i} and {m}: "
                    f"face {m - 1} of the former is {facets[i].face(m - 1)}, "
                    f"face {i} of the latter is {facets[m].face(i)}"
                )
    return [CircularPermutation(w) for w in _lift_table(k).get(words, ())]


def kan_survey(k: int) -> dict:
    """Exhaustive lifting census over all facet families in dimension k.

    A family is a (k+1)-tuple of circular permutations of 0..k-1, so
    there are ((k-1)!)^(k+1) of them.  The compatible ones, those passing
    the pairwise exchange precheck, are found by extending families one
    facet at a time and keeping facet m only if it agrees with every
    earlier facet; they come out in the lexicographic order of the
    tuples.  Returns the family total, the compatible count, and a
    histogram of lift counts over compatible families.
    """
    if k < 2:
        raise MismatchedCarriers("the lifting census needs dimension >= 2")
    words = _sc_words(k - 1)
    total = len(words) ** (k + 1)
    if total > 1_000_000:
        raise EnumerationBound(
            f"census over {total} facet families is out of reach"
        )
    families: list[tuple[tuple[int, ...], ...]] = [()]
    for m in range(k + 1):
        families = [
            fam + (w,)
            for fam in families
            for w in words
            if all(_exchange_holds(fam[i], w, i, m) for i in range(m))
        ]
    table = _lift_table(k)
    histogram: dict[int, int] = {}
    for fam in families:
        n = len(table.get(fam, ()))
        histogram[n] = histogram.get(n, 0) + 1
    return {
        "dimension": k,
        "families": total,
        "compatible": len(families),
        "lift_counts": histogram,
    }


# -- necklaces ---------------------------------------------------------


@dataclass(frozen=True)
class Necklace:
    """Oriented circular word of colored beads with stable bead ids.

    Bead ids are local to the necklace; they survive color deletion and
    let descent data refer to beads without fixing a turning.  Arcs (the
    gaps between consecutive beads) are keyed by the bead they follow.
    """

    colors: tuple[int, ...]
    ids: tuple[int, ...]

    def __post_init__(self):
        colors = tuple(int(c) for c in self.colors)
        ids = tuple(int(b) for b in self.ids)
        if not colors:
            raise ValueError("a necklace needs at least one bead")
        if len(colors) != len(ids):
            raise ValueError("colors and ids must align")
        if len(set(ids)) != len(ids):
            raise ValueError("bead ids must be distinct")
        top = max(colors)
        if min(colors) < 0 or set(colors) != set(range(top + 1)):
            raise ValueError("every color 0..top must appear at least once")
        # the least turning starts at a bead of color 0
        best = min(
            (r for r, c in enumerate(colors) if c == 0),
            key=lambda r: (colors[r:] + colors[:r], ids[r:] + ids[:r]),
        )
        object.__setattr__(self, "colors", colors[best:] + colors[:best])
        object.__setattr__(self, "ids", ids[best:] + ids[:best])

    @classmethod
    def from_colors(cls, colors: Iterable[int], ids: Iterable[int] | None = None):
        colors = tuple(colors)
        if ids is None:
            ids = range(len(colors))
        return cls(colors, tuple(ids))

    @classmethod
    def from_circular(cls, theta: CircularPermutation) -> "Necklace":
        return cls(theta.word, theta.word)

    @property
    def size(self) -> int:
        return len(self.colors)

    @property
    def top(self) -> int:
        return max(self.colors)

    def beads(self) -> tuple[tuple[int, int], ...]:
        """Pairs (bead id, color) in circular order, canonical turning."""
        return tuple(zip(self.ids, self.colors))

    @cached_property
    def position(self) -> dict[int, int]:
        """Position of each bead id in the stored turning, built on first use."""
        return {b: p for p, b in enumerate(self.ids)}

    def has_bead(self, bead: int) -> bool:
        return bead in self.ids

    def to_circular(self) -> CircularPermutation:
        if len(self.colors) != self.top + 1:
            raise ValueError("not one bead per color")
        return CircularPermutation(self.colors)

def is_classical_necklace(neck: Necklace) -> tuple[bool, str | None]:
    """Whether the elementary bundle on this necklace is a classical
    simplicial complex: every color at least three beads, every color
    pair mixed (not two solid blocks around the circle)."""
    counts = [0] * (neck.top + 1)
    for c in neck.colors:
        counts[c] += 1
    for color, n in enumerate(counts):
        if n < 3:
            return False, f"color {color} has only {n} bead(s), needs 3"
    for i, j in combinations(range(neck.top + 1), 2):
        sub = [c for c in neck.colors if c in (i, j)]
        changes = sum(
            1 for p in range(len(sub)) if sub[p] != sub[p - 1]
        )
        if changes == 2:
            return False, f"colors {i} and {j} sit in two solid blocks"
    return True, None


# -- normalized chains of the circular-permutation family -------------


def sc_normalized_homology(max_dim: int = 3):
    """Homology of the normalized chain complex of circular permutations
    through dimension max_dim - 1, with nondegenerate element counts.

    Returns (counts, HomologyGroups); counts lists the nondegenerate
    elements per dimension 0..max_dim.  Above ``MAX_SC_K`` the enumeration
    raises ``EnumerationBound``.
    """
    nondeg: list[list[CircularPermutation]] = []
    for k in range(max_dim + 1):
        nondeg.append([th for th in enumerate_sc(k) if not th.is_degenerate()])
    counts = tuple(len(level) for level in nondeg)
    index = [{th: r for r, th in enumerate(level)} for level in nondeg[:-1]]

    def column(q, c):
        th = nondeg[q][c]
        col = _face_column([index[q - 1].get(th.face(i)) for i in range(q + 1)])
        col.pop(None, None)  # a degenerate face is zero in normalized chains
        return col

    # the top boundary is unknown here, so the top group is dropped
    h = chain_homology(counts, column)
    return counts, HomologyGroups(h.groups[:max_dim])
