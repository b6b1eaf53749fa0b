"""Sorting words and sortable elements for a fixed Coxeter-element word.

The sorting word of w is the greedy (equivalently, lexicographically
first) reduced subword of the infinite repetition c|c|c|... ; w is
sortable when the letter sets of consecutive factors weakly decrease
under inclusion.  Every prefix of a sortable element's sorting word is
again the sorting word of a sortable element (Reading, Clusters,
Coxeter-sortable elements and noncrossing partitions, 2007), so the
sortable elements form a subtree of the right weak order rooted at e and
are enumerated by walking up it.

``c_sorting_word`` and ``is_c_sortable`` check the element and the word;
``_sorting_word`` is the same scan on inputs already checked, which the
walk and the verifiers call once per element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qseries import GroupType, check_guard
from .signedperm import (
    Perm,
    check_perm,
    coxeter_element,
    group_order_key,
    identity,
)


@dataclass(frozen=True)
class SortingWord:
    """A reduced word chopped into factors by the passes through c."""

    factors: tuple[tuple[int, ...], ...]

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(l for f in self.factors for l in f)

    def factor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(f) for f in self.factors)

    def is_sortable_chain(self) -> bool:
        sets = self.factor_sets()
        return all(sets[i] >= sets[i + 1] for i in range(len(sets) - 1))

    def __len__(self) -> int:
        return sum(len(f) for f in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "e"
        return " | ".join(" ".join(f"s{l}" for l in f) for f in self.factors)


def _check_c_word(c_word, n: int, family: str):
    expect = set(range(1, n)) if family == "A" else set(range(0, n))
    if list(c_word) and (set(c_word) != expect or len(c_word) != len(expect)):
        raise ValueError(f"not a Coxeter word for {family}{n}: {c_word!r}")
    if not list(c_word) and expect:
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
    n = len(w)
    # pos[v-1] = signed position p with w(p) = v
    pos = [0] * n
    for p, v in enumerate(w, start=1):
        if v > 0:
            pos[v - 1] = p
        else:
            pos[-v - 1] = -p
    factors = []
    while True:
        factor = []
        for s in c_word:
            if s == 0:
                if family == "B":
                    descent = pos[0] < 0
                else:
                    descent = pos[0] + pos[1] < 0
            else:
                descent = pos[s - 1] > pos[s]
            if descent:
                if s == 0:
                    if family == "B":
                        pos[0] = -pos[0]
                    else:
                        pos[0], pos[1] = -pos[1], -pos[0]
                else:
                    pos[s - 1], pos[s] = pos[s], pos[s - 1]
                factor.append(s)
        if not factor:
            return SortingWord(tuple(factors))
        factors.append(tuple(factor))


def is_c_sortable(w: Perm, c_word, family: str) -> bool:
    return c_sorting_word(w, c_word, family).is_sortable_chain()


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


def enumerate_sortables(t: GroupType, c_word=None, unsafe: bool = False) -> list[Perm]:
    """All sortable elements for the given Coxeter word, in group order.

    Walks up the right weak order from e, stepping by ascents that are
    letters of c and keeping the sortable results: dropping the last letter
    of a sortable element's sorting word leaves a sortable element, so every
    one is reached.  The word defaults to that of ``coxeter_element``.  The
    result is listed in ``enumerate_group`` order.
    """
    family, n = t.family, t.n
    check_guard("sortable", family, t.rank, unsafe)
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
                if _sorting_word(u, c_word, family).is_sortable_chain():
                    found.append(u)
    return sorted(found, key=group_order_key)

