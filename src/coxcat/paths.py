"""Dyck paths of types A and B with their area and major-index statistics.

A path is a plain string over the alphabet {"N", "E"} (north/east steps).
Type A paths are balanced words of length 2n weakly above the diagonal;
type B paths have 2n steps and every prefix weakly above the diagonal,
with a free endpoint.  Both identify with staircase-closed sets of cells
``(i, j)`` (0-indexed column, row) lying below the path.

Area and maj add up over the steps of a path, so their generating
polynomials come from one pass over the lattice points, in O(n^4) steps
rather than one per path; only ``_row_stream``, which hands every path's
row starts to the verifiers, still walks the paths one by one.
"""

from __future__ import annotations

from operator import add

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


def _add_shifted(dst: list[int], src: list[int], shift: int) -> None:
    """Add src, moved up by ``shift`` places, into dst, lengthening dst as needed."""
    end = shift + len(src)
    if end > len(dst):
        dst.extend([0] * (end - len(dst)))
    dst[shift:end] = map(add, dst[shift:end], src)


def _stat_counts(family: str, n: int) -> tuple[QPoly, QPoly]:
    """The area and maj polynomials over all type-``family`` paths of 2n steps.

    A transfer-matrix pass over the lattice points, not over the paths:
    both statistics add up over the steps, so the prefixes of k steps are
    grouped by their north count and by whether their last step was east,
    and each group keeps the area tallies and the maj tallies of its
    prefixes.  A north step in row j shifts the area tallies by the
    cap_j - easts cells to its right (cap_j is j in type A and
    min(j, 2n - j) in type B); after an east step it closes a descent at
    0-indexed position k, which shifts the maj tallies by 2n - k.  A
    prefix with ``top`` north steps or 2n steps ends its group's paths (the
    rest is forced east), and in type B it adds its east count 2n - norths
    to the maj before the doubling of ``maj_b``.  That is O(n^2) groups
    with O(n^2) tallies each: O(n^4) in all, against Cat(n) paths.
    ``area_a``/``maj_a``/``area_b``/``maj_b`` remain the per-word oracles.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 2 * n
    if family == "A":
        top, caps = n, list(range(n))
    else:
        top, caps = total, [min(j, total - j) for j in range(total)]
    double = family == "B"
    area: list[int] = []
    maj: list[int] = []
    layer = {(0, False): ([1], [1])}  # (norths, after_east) -> (area tallies, maj tallies)
    for k in range(total + 1):
        grown: dict[tuple[int, bool], tuple[list[int], list[int]]] = {}
        for (norths, after_east), (a, m) in layer.items():
            easts = k - norths
            if norths == top or k == total:
                _add_shifted(area, a, 0)
                _add_shifted(maj, m, total - norths if double else 0)
                continue
            steps = [((norths + 1, False), caps[norths] - easts, total - k if after_east else 0)]
            if easts < norths:
                steps.append(((norths, True), 0, 0))
            for key, da, dm in steps:
                ga, gm = grown.setdefault(key, ([], []))
                _add_shifted(ga, a, da)
                _add_shifted(gm, m, dm)
        layer = grown
    if double:
        maj[1:] = [c for x in maj[1:] for c in (0, x)]
    return QPoly(area), QPoly(maj)


def _row_stream(family: str, n: int):
    """Row starts, area, maj and descent count of every type-``family`` path of 2n steps.

    A depth-first pass with one leaf per path (E before N), since the
    verifiers need every path's row starts: it adds up area and maj step by
    step as ``_stat_counts`` does, keeps the north columns and counts the
    E->N steps.  Row j starts at the east count of its north step; a row
    with no north step (type B, j past the last one) starts at its cap, so
    each leaf's starts are ``rootposets.ideal_row_starts`` of the ideal
    under the path.  Yields ``(starts, area, maj, descents)``;
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
