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

The complex SC of circular permutations is worked on as canonical words,
plain tuples that start at color 0: the horn census, the lift table and
SC's normalized homology enumerate, face and test words, and faces of
words come from ``_cp_face``.  A ``CircularPermutation`` is a value with
no operators, built only where a public function returns one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, islice, permutations
from operator import sub
from typing import Iterable, Mapping

from .errors import (
    EnumerationBound,
    IncompatibleFamily,
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
MAX_SC_K = 9
# the horn census stops when one facet slot has more compatible partial families
_MAX_PARTIAL_FAMILIES = 1_000_000


# -- core word operations (plain tuples, cached) -----------------------

# The face cache keeps at most this many words, so that a large base
# does not pin every word it met for the life of the process.  The horn
# census and the hexagram reuse a few hundred at most.
_WORD_CACHE_SIZE = 4096


def _validate_perm_word(word: tuple[int, ...]) -> None:
    if sorted(word) != list(range(len(word))):
        raise ValueError(f"{word} is not a permutation word of 0..{len(word) - 1}")


@lru_cache(maxsize=_WORD_CACHE_SIZE)
def _cp_face(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Face i of a canonical word, one that starts at color 0: delete the
    letter i and pull the higher letters down.  The result is canonical
    too.  Only deleting color 0 moves the start, to the old color 1."""
    if i:
        return tuple([v if v < i else v - 1 for v in word if v != i])
    j = word.index(1)
    return tuple([v - 1 for v in word[j:] + word[1:j]])


def _is_degenerate(word: tuple[int, ...]) -> bool:
    """Whether some degeneracy of a smaller circular permutation produces
    the canonical word.

    That happens exactly when some color i is followed immediately by
    i + 1 around the circle: s_i inserts i + 1 right after i, and
    conversely such a word w satisfies s_i(d_{i+1} w) = w.  A canonical
    word starts at color 0, which follows no color, so only its adjacent
    pairs need checking.
    """
    return 1 in map(sub, word[1:], word)


def _word_text(word: tuple[int, ...]) -> str:
    return "<" + ",".join(map(str, word)) + ">"


@dataclass(frozen=True)
class CircularPermutation:
    """A cyclic order on the colors 0..top, stored starting at color 0."""

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(int(v) for v in self.word)
        _validate_perm_word(word)
        j = word.index(0)
        object.__setattr__(self, "word", word[j:] + word[:j])

    @property
    def top(self) -> int:
        return len(self.word) - 1

    def __str__(self) -> str:
        return _word_text(self.word)


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
    # facet words (d_0 w, ..., d_k w) -> the words w of SC(k) above them;
    # the keys hold the words of SC(k - 1), not a fresh tuple per face
    lower = {w: w for w in _sc_words(k - 1)}
    table: dict = {}
    for w in _sc_words(k):
        table.setdefault(tuple([lower[_cp_face(w, i)] for i in range(k + 1)]), []).append(w)
    return table


def kan_lifts(facets: Iterable[CircularPermutation]) -> list[CircularPermutation]:
    """All circular permutations whose faces are the given facet family.

    The family lists a facet for every face index 0..k.  Its words are
    looked up in the lift table of SC(k).  A family with no lift then
    runs the pairwise exchange precheck, whose failures name the
    offending index pair; a family with a lift passes it, since the faces
    of one simplex satisfy d_{m-1} d_i = d_i d_m.  Above ``MAX_SC_K`` the
    table is not built, so an incompatible family fails the precheck and
    a compatible one raises ``EnumerationBound``.  Counts follow the
    horn-filling pattern: two lifts when k is 2, one when k is at least
    4, zero or one when k is 3.
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
    lifts = _lift_table(k).get(words) if k <= MAX_SC_K else None
    if lifts is None:
        # the one family at k = 1 lifts, so each facet here has a face
        for i, m in combinations(range(k + 1), 2):
            if not _exchange_holds(words[i], words[m], i, m):
                raise IncompatibleFamily(
                    f"faces disagree between facets {i} and {m}: "
                    f"face {m - 1} of the former is {_word_text(_cp_face(words[i], m - 1))}, "
                    f"face {i} of the latter is {_word_text(_cp_face(words[m], i))}"
                )
        lifts = _lift_table(k).get(words, ())
    return [CircularPermutation(w) for w in lifts]


def kan_survey(k: int) -> dict:
    """Exhaustive lifting census over all facet families in dimension k.

    A family is a (k+1)-tuple of circular permutations of 0..k-1, so
    there are ((k-1)!)^(k+1) of them.  The compatible ones, those passing
    the pairwise exchange precheck, are found by extending families one
    facet at a time.  For slot m the words of SC(k-1) are filed once,
    each under its faces 0..m-1, and a partial family is extended only
    by the words filed under the faces m - 1 of its members, which are
    exactly the words agreeing with every earlier facet.  So the work
    follows the compatible partial families, not the family total, and
    the families come out in the lexicographic order of the tuples.
    Returns the family total, the compatible count, and a histogram of
    lift counts over compatible families.  A k above ``MAX_SC_K``, or
    more than 10**6 compatible partial families at one slot, raises
    ``EnumerationBound``; the first is refused before any family is built.
    """
    if k < 2:
        raise MismatchedCarriers("the lifting census needs dimension >= 2")
    # the lift table enumerates SC(k), which refuses a k above MAX_SC_K
    table = _lift_table(k)
    words = _sc_words(k - 1)
    families: list[tuple[tuple[int, ...], ...]] = [()]
    for m in range(k + 1):
        # facet m fits facets 0..m-1 exactly when its faces 0..m-1 are
        # their faces m - 1, so file each word under its first m faces
        fitting: dict = {}
        for w in words:
            fitting.setdefault(tuple([_cp_face(w, i) for i in range(m)]), []).append(w)
        extended = (
            fam + (w,)
            for fam in families
            for w in fitting.get(tuple([_cp_face(f, m - 1) for f in fam]), ())
        )
        families = list(islice(extended, _MAX_PARTIAL_FAMILIES + 1))
        if len(families) > _MAX_PARTIAL_FAMILIES:
            raise EnumerationBound(
                f"census passes {_MAX_PARTIAL_FAMILIES} partial families at facet {m}"
            )
    histogram = dict(Counter(len(table.get(fam, ())) for fam in families))
    return {
        "dimension": k,
        "families": len(words) ** (k + 1),
        "compatible": len(families),
        "lift_counts": histogram,
    }


# -- necklaces ---------------------------------------------------------


def _least_turning(
    colors: tuple[int, ...], ids: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rotation of the circle of beads (colors, ids) whose pair
    (color word, id word) is least.

    Color 0 is the least letter, so the least color word opens a run of
    0s, and only the rotations that start such a run are compared.  When
    the 0s form one run that opens the word and does not wrap past its
    end, the word is returned as it is and no rotation is compared.
    Spindle moves on a minimal bundle keep each color of a stalk in one
    block, with the block of 0s first, so their splices always end here.
    An all-zero circle keeps its colors and turns its ids at the least id.
    """
    if colors[0] == 0 and colors[-1] and 0 not in colors[colors.count(0):]:
        return colors, ids
    if not any(colors):
        r = ids.index(min(ids))
        return colors, ids[r:] + ids[:r]
    return min(
        (colors[s:] + colors[:s], ids[s:] + ids[:s])
        for s in range(len(colors))
        if colors[s] == 0 and colors[s - 1]
    )


@dataclass(frozen=True)
class Necklace:
    """Oriented circular word of colored beads with stable bead ids.

    Bead ids are local to the necklace; they survive color deletion and
    let descent data refer to beads without fixing a turning.  Arcs (the
    gaps between consecutive beads) are keyed by the bead they follow.

    The stored turning is the canonical one: the rotation with the least
    color word, ties broken by the id word.  It is found by comparing only
    the rotations that start a run of color 0; when the word as given
    opens with the one run of 0s on the circle, no rotation is compared
    at all.
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
    def from_colors(cls, colors: Iterable[int]):
        """Bead ids 0, 1, ... in the order the colors are read."""
        colors = tuple(colors)
        return cls(colors, tuple(range(len(colors))))

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

    def split(self, after: Mapping[int, int]) -> "Necklace":
        """This necklace with a new bead right after each parent bead, in
        the parent's color; ``after`` maps parent id to new id.

        Only what a split can break is checked: every parent is a bead
        here, and the new ids are distinct and not on the necklace; the
        first entry of ``after`` that breaks one raises.  The result equals
        the ``Necklace`` built from the spliced beads.  Each new bead is
        spliced with tuple slices right after its parent in the beads
        spliced so far, which puts it there whatever the order of
        ``after``, so the cuts need no sort.
        """
        colors, ids = self.colors, self.ids
        for parent, new in after.items():
            if new in ids:
                if new in self.ids:
                    raise ValueError("a new bead id is already on the necklace")
                raise ValueError("new bead ids must be distinct")
            if parent not in self.ids:
                raise ValueError(f"no bead {parent} to split")
            cut = ids.index(parent) + 1
            colors = colors[:cut] + colors[cut - 1 : cut] + colors[cut:]
            ids = ids[:cut] + (new,) + ids[cut:]
        colors, ids = _least_turning(colors, ids)
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
    nondeg = [
        [w for w in _sc_words(k) if not _is_degenerate(w)] for k in range(max_dim + 1)
    ]
    counts = tuple(len(level) for level in nondeg)
    index = [{w: r for r, w in enumerate(level)} for level in nondeg[:-1]]

    def column(q, c):
        w = nondeg[q][c]
        col = _face_column([index[q - 1].get(_cp_face(w, i)) for i in range(q + 1)])
        col.pop(None, None)  # a degenerate face is zero in normalized chains
        return col

    # the top boundary is unknown here, so the top group is dropped
    h = chain_homology(counts, column)
    return counts, HomologyGroups(h.groups[:max_dim])
