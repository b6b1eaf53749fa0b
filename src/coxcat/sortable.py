"""Sorting words and sortable elements for a fixed Coxeter-element word.

The sorting word of w is the greedy (equivalently, lexicographically
first) reduced subword of the infinite repetition c|c|c|... ; w is
sortable when the letter sets of consecutive factors weakly decrease
under inclusion.  Every prefix of a sortable element's sorting word is
again the sorting word of a sortable element (Reading, Clusters,
Coxeter-sortable elements and noncrossing partitions, 2007), so the
sortable elements form a subtree of the right weak order rooted at e and
are enumerated by walking up it.

``c_sorting_word`` and ``is_c_sortable`` check the element and the word,
then run ``_sorting_word`` or ``_is_sortable``, the same scan on inputs
already checked; the walk calls ``_is_sortable`` once per element it
reaches, which stops at the first letter that breaks the chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qseries import GroupType
from .signedperm import (
    Perm,
    check_perm,
    coxeter_element,
    identity,
    inverse,
)


@dataclass(frozen=True)
class SortingWord:
    """A reduced word chopped into factors by the passes through c."""

    factors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return sum(map(len, self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "e"
        return " | ".join(" ".join(f"s{l}" for l in f) for f in self.factors)


def _check_c_word(c_word, n: int, family: str):
    expect = set(range(1, n)) if family == "A" else set(range(0, n))
    if set(c_word) != expect or len(c_word) != len(expect):
        raise ValueError(f"not a Coxeter word for {family}{n}: {c_word!r}")


def c_sorting_word(w: Perm, c_word, family: str) -> SortingWord:
    """Greedy scan of c|c|c|...: consume a letter iff it is a left descent.

    The inverse of the shrinking remainder is kept as the array of signed
    positions of each value, which makes every descent test and update O(1).
    The scan stops at the first pass through c that consumes nothing: a
    remainder other than e has a left descent, which that pass would reach.
    """
    check_perm(w, family)
    _check_c_word(c_word, len(w), family)
    return _sorting_word(w, c_word, family)


def _sorting_word(w: Perm, c_word, family: str) -> SortingWord:
    """``c_sorting_word`` for a ``w`` and ``c_word`` already checked."""
    pos = list(inverse(w))  # pos[v-1] = signed position p with w(p) = v
    factors = []
    while True:
        factor = []
        for s in c_word:
            if s:
                if pos[s - 1] < pos[s]:
                    continue
                pos[s - 1], pos[s] = pos[s], pos[s - 1]
            elif family == "B":
                if pos[0] > 0:
                    continue
                pos[0] = -pos[0]
            elif pos[0] + pos[1] > 0:
                continue
            else:
                pos[0], pos[1] = -pos[1], -pos[0]
            factor.append(s)
        if not factor:
            return SortingWord(tuple(factors))
        factors.append(tuple(factor))


def is_c_sortable(w: Perm, c_word, family: str) -> bool:
    check_perm(w, family)
    _check_c_word(c_word, len(w), family)
    return _is_sortable(w, c_word, family)


def _is_sortable(w: Perm, c_word, family: str) -> bool:
    """Whether the factors of ``_sorting_word(w, c_word, family)`` weakly
    decrease, for inputs already checked.

    The same greedy scan, keeping only the letters the previous pass took,
    as a bitmask: it stops at the first letter that the previous pass did
    not take, and builds no factors.
    """
    pos = list(inverse(w))
    allowed = -1  # the letters the previous pass took: all of them before the first
    while True:
        took = 0
        for s in c_word:
            if s:
                if pos[s - 1] < pos[s]:
                    continue
                pos[s - 1], pos[s] = pos[s], pos[s - 1]
            elif family == "B":
                if pos[0] > 0:
                    continue
                pos[0] = -pos[0]
            elif pos[0] + pos[1] > 0:
                continue
            else:
                pos[0], pos[1] = -pos[1], -pos[0]
            if not allowed >> s & 1:
                return False
            took |= 1 << s
        if not took:
            return True
        allowed = took


def _times_ascent(w: Perm, s: int, family: str) -> Perm | None:
    """w * s_s when s is a right ascent of w, else None.

    Right multiplication acts on positions, so the tests are those of
    ``c_sorting_word`` read on the one-line notation instead of its inverse.
    """
    if s == 0:
        if family == "B":
            return (-w[0],) + w[1:] if w[0] > 0 else None
        return (-w[1], -w[0]) + w[2:] if w[0] + w[1] > 0 else None
    if w[s - 1] > w[s]:
        return None
    return w[: s - 1] + (w[s], w[s - 1]) + w[s + 1 :]


def enumerate_sortables(t: GroupType, c_word=None) -> list[Perm]:
    """All sortable elements for the given Coxeter word, in walk order.

    Walks up the right weak order from e, stepping by ascents that are
    letters of c and keeping the sortable results: dropping the last letter
    of a sortable element's sorting word leaves a sortable element, so every
    one is reached.  The word defaults to that of ``coxeter_element``.  The
    result is listed in the order the walk reaches it, e first.
    """
    family, n = t.family, t.n
    if c_word is None:
        c_word = coxeter_element(family, n)[1]
    _check_c_word(c_word, n, family)
    found = [identity(n)]
    seen = set(found)
    for w in found:
        for s in c_word:
            u = _times_ascent(w, s, family)
            if u is not None and u not in seen:
                seen.add(u)
                if _is_sortable(u, c_word, family):
                    found.append(u)
    return found

