"""Circular permutations, necklaces, horn lifting and the complex SC of
circular permutations.

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
from typing import Iterable, Mapping

from .errors import (
    EnumerationBound,
    IncompatibleFamily,
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
    "kan_lifts",
    "kan_survey",
    "sc_normalized_homology",
]


# 0..k has k! circular permutations; enumeration stops above this top
MAX_SC_K = 7


# -- core word operations (plain tuples, cached) -----------------------

# Each word cache keeps at most this many words, so that a large base
# does not pin every word it met for the life of the process.  The horn
# census and the hexagram reuse a few hundred at most.
_WORD_CACHE_SIZE = 4096


def _validate_perm_word(word: tuple[int, ...]) -> None:
    if sorted(word) != list(range(len(word))):
        raise ValueError(f"{word} is not a permutation word of 0..{len(word) - 1}")


@lru_cache(maxsize=_WORD_CACHE_SIZE)
def _canon_cp(word: tuple[int, ...]) -> tuple[int, ...]:
    j = word.index(0)
    return word[j:] + word[:j]


@lru_cache(maxsize=_WORD_CACHE_SIZE)
def _cp_face(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    # delete the letter i, pull higher letters down
    return _canon_cp(tuple(v if v < i else v - 1 for v in word if v != i))


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

    def _check_color(self, i: int) -> None:
        if not 0 <= i <= self.top:
            raise ValueError(f"color {i} outside 0..{self.top}")

    def __str__(self) -> str:
        return "<" + ",".join(str(v) for v in self.word) + ">"


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


def _least_turning(
    colors: tuple[int, ...], ids: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rotation of the circle of beads (colors, ids) whose pair
    (color word, id word) is least.

    Color 0 is the least letter, so the least color word opens with the
    longest run of 0s on the circle, and only the starts of such runs are
    compared.  The runs are found with bytes operations on a mask of the
    nonzero colors, written twice so that a run wrapping past the end of
    the word shows whole.  An all-zero circle turns at its least id.
    """
    zeros = bytes(map(bool, colors))
    if 1 not in zeros:
        r = ids.index(min(ids))
        return colors[r:] + colors[:r], ids[r:] + ids[:r]
    twice = zeros + zeros
    # runs of 0s differ only in length, and bytes order puts the longest last
    run = max(twice.split(b"\x01"))
    # searches stop here, so each run is found once, by its start in the
    # first copy
    end = len(zeros) - 1 + len(run)
    starts = []
    at = twice.find(run, 0, end)
    while at >= 0:
        starts.append(at)
        at = twice.find(run, at + len(run), end)
    return min((colors[s:] + colors[:s], ids[s:] + ids[:s]) for s in starts)


@dataclass(frozen=True)
class Necklace:
    """Oriented circular word of colored beads with stable bead ids.

    Bead ids are local to the necklace; they survive color deletion and
    let descent data refer to beads without fixing a turning.  Arcs (the
    gaps between consecutive beads) are keyed by the bead they follow.

    The stored turning is the canonical one: the rotation with the least
    color word, ties broken by the id word.  It is found by comparing only
    the rotations that open with a longest run of color 0.
    """

    colors: tuple[int, ...]
    ids: tuple[int, ...]

    def __post_init__(self):
        colors = tuple(map(int, self.colors))
        ids = tuple(map(int, self.ids))
        if not colors:
            raise ValueError("a necklace needs at least one bead")
        if len(colors) != len(ids):
            raise ValueError("colors and ids must align")
        if len(set(ids)) != len(ids):
            raise ValueError("bead ids must be distinct")
        top = max(colors)
        if min(colors) < 0 or set(colors) != set(range(top + 1)):
            raise ValueError("every color 0..top must appear at least once")
        colors, ids = _least_turning(colors, ids)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "ids", ids)

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

    @cached_property
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

    def split(self, after: Mapping[int, int]) -> "Necklace":
        """This necklace with a new bead right after each parent bead, in
        the parent's color; ``after`` maps parent id to new id.

        Only what a split can break is checked: every parent is a bead
        here, and the new ids are distinct and not on the necklace.  The
        result equals the ``Necklace`` built from the spliced beads.
        """
        fresh = set(after.values())
        if len(fresh) != len(after):
            raise ValueError("new bead ids must be distinct")
        if not fresh.isdisjoint(self.ids):
            raise ValueError("a new bead id is already on the necklace")
        cuts = []
        for parent, new in after.items():
            try:
                cuts.append((self.ids.index(parent) + 1, new))
            except ValueError:
                raise ValueError(f"no bead {parent} to split") from None
        colors, ids = list(self.colors), list(self.ids)
        # from the back, so that each cut still indexes the old turning
        for cut, new in sorted(cuts, reverse=True):
            colors.insert(cut, colors[cut - 1])
            ids.insert(cut, new)
        colors, ids = _least_turning(tuple(colors), tuple(ids))
        neck = object.__new__(type(self))
        object.__setattr__(neck, "colors", colors)
        object.__setattr__(neck, "ids", ids)
        return neck


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
