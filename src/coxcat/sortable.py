"""Sorting words and sortable elements for a fixed Coxeter-element word.

The sorting word of w is the greedy (equivalently, lexicographically
first) reduced subword of the infinite repetition c|c|c|... ; w is
sortable when the letter sets of consecutive factors weakly decrease
under inclusion.  Every prefix of a sortable element's sorting word is
again the sorting word of a sortable element (Reading, Clusters,
Coxeter-sortable elements and noncrossing partitions, Trans. AMS 2007), so
the sortable elements form a prefix tree rooted at e: the parent of w is
the element of its sorting word without the last letter.

``_sortable_nodes`` grows that tree, deciding each child u*s from u alone:
s comes at or after u's last letter in c|c|c|... under the nesting rule,
is a right ascent of u, and u s u^-1 is none of the reflections recorded
for the letters u's scan skipped.  No candidate is scanned again, and each
element's length is its depth.  Each element comes with the reflections of
its sorting word and its cover reflections, from which
``noncrossing.nc_elements`` reads Reading's nc_c; ``_sortable_tree`` keeps
only the element and its length.  ``enumerate_sortables`` lists the tree's
elements in the order it yields them: depth first from e, so e comes first
and every other element after its parent.

``c_sorting_word`` and ``is_c_sortable`` check the element and the word,
then read the one greedy scan ``_scan``, which yields (pass, letter) keys:
``_sorting_word`` groups them into factors, and ``_is_sortable`` stops at
the first letter that breaks the chain.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from operator import itemgetter

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

    @classmethod
    def of(cls, keys) -> SortingWord:
        """The word of the (pass, letter) keys, in order, one factor per pass."""
        factors: dict[int, list[int]] = {}
        for f, s in keys:
            factors.setdefault(f, []).append(s)
        return cls(tuple(map(tuple, factors.values())))


def _check_c_word(c_word, n: int, family: str) -> tuple[int, ...]:
    """``c_word`` read once into a tuple, checked to hold each simple reflection of ``family`` once."""
    c_word = tuple(c_word)
    if family == "D" and n < 2:
        raise ValueError(f"type D's s_0 acts on the first two entries, so it needs n >= 2, got n = {n}")
    expect = set(range(1, n)) if family == "A" else set(range(0, n))
    # type(), not isinstance(): 2.0 == 2 and True == 1 would pass the set test
    if any(type(s) is not int for s in c_word) or set(c_word) != expect or len(c_word) != len(expect):
        raise ValueError(f"not a Coxeter word for {family}{n}: {c_word!r}")
    return c_word


def c_sorting_word(w: Perm, c_word, family: str) -> SortingWord:
    """Greedy scan of c|c|c|...: consume a letter iff it is a left descent.

    The letters are those of ``_scan``, the one greedy scan, one factor per
    pass through c.
    """
    check_perm(w, family)
    c_word = _check_c_word(c_word, len(w), family)
    return _sorting_word(w, c_word, family)


def _sorting_word(w: Perm, c_word, family: str) -> SortingWord:
    """``c_sorting_word`` for a ``w`` and ``c_word`` already checked."""
    return SortingWord.of(_scan(w, c_word, family))


def _scan(w: Perm, c_word, family: str) -> Iterator[tuple[int, int]]:
    """The greedy scan of c|c|c|... on a checked ``w``: each letter it
    takes, as (pass, letter) with passes counted from 1, keyed as
    ``bijmaps._psi_lanes`` keys its word masks.

    The inverse of the shrinking remainder is kept as the array of signed
    positions of each value, which makes every descent test and update O(1).
    The scan stops after the first pass through c that takes nothing: a
    remainder other than e has a left descent, which that pass would reach.
    """
    pos = list(inverse(w))  # pos[v-1] = signed position p with w(p) = v
    for f in count(1):
        took = False
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
            took = True
            yield f, s
        if not took:
            return


def is_c_sortable(w: Perm, c_word, family: str) -> bool:
    check_perm(w, family)
    c_word = _check_c_word(c_word, len(w), family)
    return _is_sortable(w, c_word, family)


def _is_sortable(w: Perm, c_word, family: str) -> bool:
    """Whether the factors of ``_sorting_word(w, c_word, family)`` weakly
    decrease, for inputs already checked.

    It reads ``_scan``'s letters, keeping the letters each pass took as a
    bitmask: it stops at the first letter that the previous pass did not
    take, and builds no factors.
    """
    took = [-1]  # the letters each pass took: all of them before the first
    for f, s in _scan(w, c_word, family):
        if f == len(took):
            took.append(0)
        if not took[f - 1] >> s & 1:
            return False
        took[f] |= 1 << s
    return True


@lru_cache(maxsize=None)
def _reflection_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """The reflections of rank n as bits, read ``bit[x][y]`` for the one
    exchanging the signed values x and y (negative x and y wrap around).

    The reflection exchanging x and y (and -x, -y) sits at |x| n + |y| for
    equal signs and |y| n + |x| for opposite ones, with |x| <= |y| counted
    from 0; ``bit[x][y]`` is 0 for x = y and where x or y is 0.
    """
    bit = [[0] * (2 * n + 1) for _ in range(2 * n + 1)]
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if x and y and x != y:
                i, j = sorted((abs(x) - 1, abs(y) - 1))
                bit[x][y] = 1 << (i * n + j if (x > 0) == (y > 0) else j * n + i)
    return tuple(map(tuple, bit))


def _sortable_tree(t: GroupType, c_word) -> Iterator[tuple[Perm, int]]:
    """Every sortable element for a checked ``c_word`` once, with its length,
    in the order of ``_sortable_nodes``."""
    return map(itemgetter(0, 1), _sortable_nodes(t, c_word))


def _sortable_nodes(t: GroupType, c_word) -> Iterator[tuple[Perm, int, tuple | None, int]]:
    """Every sortable element u for a checked ``c_word`` once, as
    (u, length, inversions, covers).

    ``inversions`` holds the reflections of u's sorting word a_1 ... a_k,
    t_i = a_1 ... a_(i-1) a_i a_(i-1) ... a_1, as bits of
    ``_reflection_bits``, in cons cells (t_k, (t_(k-1), ... (t_1, None))),
    the last first; a child's cell points at its parent's, so no list is
    copied.  ``covers`` is the mask of u's cover reflections u s u^-1, one
    for each right descent s of u.

    Grows the prefix tree from e, depth first: u*s is a child of u, with
    sorting word u's followed by s, exactly when

    - s, at its first place in c|c|c|... after u's last letter, lies in
      u's last pass and among the letters of the pass before it (any
      letter, in the first pass), or lies in the next pass and among the
      letters of u's last pass;
    - s is a right ascent of u;
    - u s u^-1 is not in u's mask of skipped reflections, which holds
      p t p^-1 for each letter t that u's scan skipped with prefix p
      (those with t a right descent of p may be left out; see below).

    **Proof.** At some letter of c|c|c|..., let p be what u's scan has taken
    and x = p^-1 u its remainder. If the scan of u*s has taken the same
    letters so far, its remainder is x s, and s is a right ascent of x since
    l(x s) >= l(u s) - l(p) = l(x) + 1. A letter t that the scan took is a
    left descent of x, so l(t x s) <= l(t x) + 1 = l(x) < l(x s): it is
    still taken. A letter t that the scan skipped is not a left descent of
    x; then t is a left descent of x s iff t x s = x (by the exchange
    condition, t x s drops a letter from x followed by s, and dropping one
    of x's would make t a left descent of x), that is, iff x^-1 t x = s, or
    p t p^-1 = u s u^-1. So the scan of u*s retraces u's word while no
    recorded reflection equals u s u^-1. After u's last letter the remainder
    is s, whose only left descent is s, so the scan skips every other letter
    up to the first s and takes it: its word is u's plus s, and u*s is
    sortable iff the nesting rule admits s there. Every sortable element
    other than e arises so from its parent, once.

    The loop meets every letter s once per element u, and reads u s u^-1
    off u: for s >= 1 it exchanges u(s) and u(s + 1); for s0 it exchanges
    u(1) and -u(1) in type B, and u(1) and -u(2) in type D.  That is the
    child's new inversion t_(k+1) when s is an ascent, and a cover
    reflection of u when s is a descent.  A skipped letter that is a descent
    of u is not recorded: its reflection is an inversion of u, so of every
    element below u in the tree, while the reflection tested at an ascent is
    not an inversion of the element it is tested at.  An element is yielded
    after its children are pushed, so the order is that of a walk which
    yields each element as it pops it.
    """
    family, n = t.family, t.n
    m = len(c_word)
    bit = _reflection_bits(n)
    # element, its length, the index in c_word of its last letter, the letters of the pass
    # before its last (all of them before the second), those of its last, its skipped
    # reflections, its inversions
    stack = [(identity(n), 0, -1, -1, 0, 0, None)]
    while stack:
        u, length, last, before, took, skipped, inversions = stack.pop()
        covers = 0
        for j in range(last + 1, last + 1 + m):
            same = j < m
            s = c_word[j] if same else c_word[j - m]
            if s:
                a, b = u[s - 1], u[s]
                r, up = bit[a][b], a < b
            elif family == "B":
                a = u[0]
                r, up = bit[a][-a], a > 0
            else:
                a, b = u[0], u[1]
                r, up = bit[a][-b], a + b > 0
            if not up:
                covers |= r
                continue
            if (before if same else took) >> s & 1 and not skipped & r:
                if s:
                    child = u[: s - 1] + (b, a) + u[s + 1 :]
                else:
                    child = (-a,) + u[1:] if family == "B" else (-b, -a) + u[2:]
                if same:
                    stack.append((child, length + 1, j, before, took | 1 << s, skipped, (r, inversions)))
                else:
                    stack.append((child, length + 1, j - m, took, 1 << s, skipped, (r, inversions)))
            skipped |= r
        yield u, length, inversions, covers


def enumerate_sortables(t: GroupType, c_word=None) -> list[Perm]:
    """All sortable elements for the Coxeter word (by default that of
    ``coxeter_element``), in the order ``_sortable_tree`` yields them: depth
    first from e, so e comes first and every element after its parent."""
    if c_word is None:
        c_word = coxeter_element(t.family, t.n)[1]
    c_word = _check_c_word(c_word, t.n, t.family)
    return [w for w, _ in _sortable_tree(t, c_word)]
