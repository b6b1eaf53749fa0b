"""Dyck paths of types A and B with their area and major-index statistics.

A path is a plain string over the alphabet {"N", "E"} (north/east steps).
Type A paths are balanced words of length 2n weakly above the diagonal;
type B paths have 2n steps and every prefix weakly above the diagonal,
with a free endpoint.  Both identify with staircase-closed sets of cells
``(i, j)`` (0-indexed column, row) lying below the path.
"""

from __future__ import annotations

from .qseries import QPoly, check_guard

Cell = tuple[int, int]


def is_dyck_a(word: str) -> bool:
    """Balanced N/E word whose prefixes never have more E's than N's."""
    return is_dyck_b(word) and 2 * word.count("N") == len(word)


def is_dyck_b(word: str) -> bool:
    """N/E word of even length whose prefixes never have more E's than N's."""
    if len(word) % 2 or any(c not in "NE" for c in word):
        return False
    lvl = 0
    for c in word:
        lvl += 1 if c == "N" else -1
        if lvl < 0:
            return False
    return True


def _check(word: str, family: str) -> int:
    ok = is_dyck_a(word) if family == "A" else is_dyck_b(word)
    if not ok:
        raise ValueError(f"not a type-{family} Dyck word: {word!r}")
    return len(word) // 2


def enumerate_a(n: int) -> list[str]:
    """All type-A Dyck words of semilength n, in lexicographic order (E < N)."""
    return _enumerate(n, n)


def enumerate_b(n: int) -> list[str]:
    """All type-B Dyck words of 2n steps, in lexicographic order (E < N)."""
    return _enumerate(n, 2 * n)


def _enumerate(n: int, max_norths: int) -> list[str]:
    """Words of 2n steps never below the diagonal, with at most max_norths N's."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[str] = []

    def rec(prefix: list[str], norths: int, easts: int):
        if norths + easts == 2 * n:
            out.append("".join(prefix))
            return
        if easts < norths:
            prefix.append("E")
            rec(prefix, norths, easts + 1)
            prefix.pop()
        if norths < max_norths:
            prefix.append("N")
            rec(prefix, norths + 1, easts)
            prefix.pop()

    rec([], 0, 0)
    return out


def _dyck_columns(word: str, family: str) -> list[int]:
    """The north columns of a type-``family`` Dyck word, read in one pass.

    Entry j is the number of east steps before the j-th north step.  Raises
    the ValueError of ``_check`` unless the word is a Dyck word: every step
    is N or E, no prefix has more E's than N's, the length is even, and a
    type-A word is balanced.
    """
    xs = []
    easts = 0
    for c in word:
        if c == "N":
            xs.append(easts)
        elif c == "E" and easts < len(xs):
            easts += 1
        else:  # not a step, or an east step that would cross the diagonal
            break
    else:
        if len(word) % 2 == 0 and (family != "A" or 2 * len(xs) == len(word)):
            return xs
    raise ValueError(f"not a type-{family} Dyck word: {word!r}")


def cells_a(word: str) -> frozenset[Cell]:
    """Cells (i, j), 0 <= i < j < n, strictly below the path and above the diagonal."""
    return _cells(word, "A")


def area_a(word: str) -> int:
    return len(cells_a(word))


def cells_b(word: str) -> frozenset[Cell]:
    """Cells (i, j), 0 <= i < j <= 2n-1-i, below a type-B path."""
    return _cells(word, "B")


def area_b(word: str) -> int:
    return len(cells_b(word))


def _cells(word: str, family: str) -> frozenset[Cell]:
    """Row j holds the cells from its north column up to its cap min(j, 2n - j)."""
    xs = _dyck_columns(word, family)
    n = len(word) // 2
    return frozenset((i, j) for j, x in enumerate(xs) for i in range(x, min(j, 2 * n - j)))


def _word_from_columns(xs: list[int], total: int) -> str:
    """The word of ``total`` steps whose j-th north step follows xs[j] east steps."""
    word = []
    easts = 0
    for j, x in enumerate(xs):
        if x < easts or x > j:
            raise ValueError("north columns must weakly increase and stay left of the diagonal")
        word.append("E" * (x - easts) + "N")
        easts = x
    word.append("E" * (total - len(xs) - easts))
    out = "".join(word)
    if len(out) != total:
        raise ValueError(f"north columns do not fit a path of {total} steps")
    return out


def _word_of_rows(family: str, n: int, x) -> str:
    """The type-``family`` path of 2n steps with row starts ``x``, as ``_row_stream`` yields them.

    Row j's north step follows x[j] east steps; a type-B row j >= n at its
    cap 2n - j has no north step.
    """
    cols = x if family == "A" else [a for j, a in enumerate(x) if j < n or a < 2 * n - j]
    return _word_from_columns(cols, 2 * n)


def descent_set(word: str) -> set[int]:
    """1-indexed positions i with an east step followed by a north step (N < E)."""
    return {i + 1 for i in range(len(word) - 1) if word[i] == "E" and word[i + 1] == "N"}


def maj_a(word: str) -> int:
    """Sum of 2n - i over descents of the word, with N < E."""
    n = _check(word, "A")
    return sum(2 * n - i for i in descent_set(word))


def maj_b(word: str) -> int:
    """Twice (number of east steps plus the sum of 2n - i over descents)."""
    n = _check(word, "B")
    return 2 * (word.count("E") + sum(2 * n - i for i in descent_set(word)))


def lattice_maj(word: str) -> int:
    """Sum of 2n - i over descents with respect to E < N, for any N/E word."""
    n2 = len(word)
    return sum(n2 - i for i in range(1, n2) if word[i - 1] == "N" and word[i] == "E")


def unfold_lattice_to_b(word: str) -> str:
    """Map an unrestricted balanced lattice word onto a type-B Dyck word.

    For each depth d < 0, the first east step descending to level d is
    replaced by a north step.  Major index doubles: maj_b of the image
    equals twice the E<N major index of the input.
    """
    n2 = len(word)
    if n2 % 2 or word.count("N") != n2 // 2 or any(c not in "NE" for c in word):
        raise ValueError(f"not a balanced lattice word: {word!r}")
    flips = set()
    seen = 0  # deepest level already assigned a flip
    lvl = 0
    for pos, c in enumerate(word):
        lvl += 1 if c == "N" else -1
        if c == "E" and lvl < 0 and lvl < seen:
            flips.add(pos)
            seen = lvl
    return "".join("N" if i in flips else c for i, c in enumerate(word))


def _stat_counts(family: str, n: int) -> tuple[QPoly, QPoly]:
    """The area and maj polynomials over all type-``family`` paths of 2n steps.

    One depth-first pass over the paths, one leaf per path, carries both
    statistics as it goes: a north step in row j adds the cap_j - easts
    cells to its right (cap_j is j in type A and min(j, 2n - j) in type B),
    and a north step at 0-indexed position p after an east step closes a
    descent worth 2n - p.  A type-B leaf doubles the maj and the east
    count, as ``maj_b`` does.  No word is built and none is re-checked;
    ``area_a``/``maj_a``/``area_b``/``maj_b`` remain the per-word oracles.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 2 * n
    if family == "A":
        top, caps, maj_top = n, list(range(n)), n * (n - 1)
    else:
        top, caps, maj_top = total, [min(j, total - j) for j in range(total)], 2 * n * n
    area = [0] * (sum(caps) + 1)
    maj = [0] * (maj_top + 1)
    double = family == "B"

    def rec(norths: int, easts: int, after_east: bool, a: int, m: int):
        # after the last north step the rest of the path is forced: east steps only
        if norths == top or norths + easts == total:
            area[a] += 1
            maj[2 * (m + total - norths) if double else m] += 1
            return
        if easts < norths:
            rec(norths, easts + 1, True, a, m)
        rec(norths + 1, easts, False, a + caps[norths] - easts, m + total - norths - easts if after_east else m)

    rec(0, 0, False, 0, 0)
    return QPoly(area), QPoly(maj)


def _row_stream(family: str, n: int):
    """Row starts, area, maj and descent count of every type-``family`` path of 2n steps.

    The depth-first pass of ``_stat_counts`` (E before N, one leaf per
    path, the same area and maj tallies) that also keeps the north columns
    and counts the E->N steps.  Row j starts at the east count of its north
    step; a row with no north step (type B, j past the last one) starts at
    its cap, so each leaf's starts are ``rootposets.ideal_row_starts`` of
    the ideal under the path.  Yields ``(starts, area, maj, descents)``;
    the starts are a tuple of n (type A) or 2n (type B) entries.
    """
    total = 2 * n
    if family == "A":
        top, caps = n, list(range(n))
    else:
        top, caps = total, [min(j, total - j) for j in range(total)]
    x = list(caps)
    double = family == "B"

    def rec(norths: int, easts: int, after_east: bool, a: int, m: int, d: int):
        if norths == top or norths + easts == total:
            yield tuple(x), a, 2 * (m + total - norths) if double else m, d
            return
        if easts < norths:
            yield from rec(norths, easts + 1, True, a, m, d)
        x[norths] = easts
        yield from rec(
            norths + 1, easts, False, a + caps[norths] - easts,
            m + total - norths - easts if after_east else m, d + after_east,
        )
        x[norths] = caps[norths]

    return rec(0, 0, False, 0, 0, 0)


def area_polynomial(family: str, n: int, unsafe: bool = False) -> QPoly:
    """Generating polynomial of the area statistic over all paths."""
    check_guard("path", family, n, unsafe)
    return _stat_counts(family, n)[0]


def maj_polynomial(family: str, n: int, unsafe: bool = False) -> QPoly:
    """Generating polynomial of the major index over all paths."""
    check_guard("path", family, n, unsafe)
    return _stat_counts(family, n)[1]
