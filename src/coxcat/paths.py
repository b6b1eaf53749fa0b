"""Dyck paths of types A and B with their area and major-index statistics.

A path is a plain string over the alphabet {"N", "E"} (north/east steps).
Type A paths are balanced words of length 2n weakly above the diagonal;
type B paths have 2n steps and every prefix weakly above the diagonal,
with a free endpoint.  Both identify with staircase-closed sets of cells
``(i, j)`` (0-indexed column, row) lying below the path: row j runs from
its north column up to its cap (``_caps``), so area and maj are read off
the north columns, and the cell sets are left to the tests' oracles.

Area and maj add up over the rows of a path, so their generating
polynomials and the verifiers' row starts both come from the prefix tree
of the paths by rows (``_path_tree``), folded from the last row up with no
step per path: ``_stat_counts`` packs each start's tallies into one int,
in fields that C(2n, n) bounds, sized by ``qseries._width`` and decoded
once by ``qseries._signed``, which checks that they add up to the path
count, and ``_row_columns`` joins one column per row.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import sub

from .qseries import QPoly, _signed, _size, _width


def is_dyck_a(word: str) -> bool:
    """Balanced N/E word whose prefixes never have more E's than N's."""
    return is_dyck_b(word) and 2 * word.count("N") == len(word)


def is_dyck_b(word: str) -> bool:
    """N/E word of even length whose prefixes never have more E's than N's."""
    try:
        _dyck_columns(word, "B")
    except ValueError:
        return False
    return True


def enumerate_a(n: int) -> list[str]:
    """All type-A Dyck words of semilength n, in lexicographic order (E < N)."""
    return _enumerate(n, 1)


def enumerate_b(n: int) -> list[str]:
    """All type-B Dyck words of 2n steps, in lexicographic order (E < N)."""
    return _enumerate(n, 2)


def _enumerate(n: int, scale: int) -> list[str]:
    """Words of 2n steps never below the diagonal, with at most scale * n N's."""
    max_norths = scale * _size(n)
    out: list[str] = []

    def rec(prefix: str, norths: int, easts: int):
        if norths + easts == 2 * n:
            out.append(prefix)
            return
        if easts < norths:
            rec(prefix + "E", norths, easts + 1)
        if norths < max_norths:
            rec(prefix + "N", norths + 1, easts)

    rec("", 0, 0)
    return out


def _dyck_columns(word: str, family: str) -> list[int]:
    """The north columns of a type-``family`` Dyck word, read in one pass.

    Entry j is the number of east steps before the j-th north step.  Raises
    a ValueError that names the word unless it is a Dyck word: every step
    is N or E, no prefix has more E's than N's, the length is even, and a
    type-A word is balanced.  It is the package's one Dyck validator.
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


@lru_cache(maxsize=None)
def _caps(family: str, n: int) -> tuple[int, ...]:
    """Row j of a path of 2n steps holds the cells x_j <= i < cap_j: j in type A, min(j, 2n - j) in type B.
    Only types A and B have paths: any other family raises ValueError."""
    if family == "A":
        return tuple(range(n))
    if family == "B":
        return tuple(min(j, 2 * n - j) for j in range(2 * n))
    raise ValueError(f"no paths of type {family!r}")


def area_a(word: str) -> int:
    """The number of cells (i, j), 0 <= i < j < n, below the path: cap_j - x_j in row j."""
    return sum(map(sub, _caps("A", len(word) // 2), _dyck_columns(word, "A")))


def area_b(word: str) -> int:
    """The number of cells (i, j), 0 <= i < j <= 2n-1-i, below a type-B path: cap_j - x_j in row j."""
    return sum(map(sub, _caps("B", len(word) // 2), _dyck_columns(word, "B")))


def _word_of_rows(family: str, n: int, x) -> str:
    """The type-``family`` path of 2n steps with row starts ``x``: row j's north step follows x[j] east
    steps, and a type-B row j >= n at its cap 2n - j has none (``_row_columns`` lays out all such rows)."""
    caps = _caps(family, n)
    word: list[str] = []  # one entry per north step until the closing east steps
    easts = 0
    for j, a in enumerate(x):
        if j >= n and a >= caps[j]:
            continue
        word.append("E" * (a - easts) + "N")
        easts = a
    word.append("E" * (2 * n - len(word) - easts))
    return "".join(word)


def _descent_weight(xs: list[int], total: int) -> int:
    """Sum of total - i over the descents i = j + x_j: the north steps j after an east step, x_j > x_(j-1)."""
    return sum(total - j - x for j, (prev, x) in enumerate(zip([0, *xs], xs)) if x > prev)


def maj_a(word: str) -> int:
    """Sum of 2n - i over descents of the word, with N < E."""
    return _descent_weight(_dyck_columns(word, "A"), len(word))


def maj_b(word: str) -> int:
    """Twice (number of east steps plus the sum of 2n - i over descents)."""
    xs = _dyck_columns(word, "B")
    return 2 * (len(word) - len(xs) + _descent_weight(xs, len(word)))


def lattice_maj(word: str) -> int:
    """Sum of 2n - i over descents with respect to E < N, for any N/E word."""
    if any(c not in "NE" for c in word):
        raise ValueError(f"not an N/E word: {word!r}")
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

    A fold up the prefix tree of the paths (``_path_tree``), not a walk
    over them: each row-j start keeps the area tallies and the maj tallies
    of the rows after it, and an edge into row j at start x adds that row's
    terms, as ``bijmaps._rank`` reads them.  The area gains the cap_j - x
    cells to its right (``_caps``); the maj gains 2n - j - x at an E->N
    corner, where x is above its parent's start, and in a type-B row
    j >= n at its cap, which has no north step, one east step before the
    doubling of ``maj_b``.  Row 0 starts at 0 and adds nothing.  Each
    start's tallies are one int, ``width`` bytes per coefficient, so a
    shift by d places is ``<< 8 * width * d``: O(n^3) shift-adds over ints
    of O(n^2) fields, against Cat(n) paths.  No start counts more than the
    C(2n, n) type-B paths, which sizes the fields by ``qseries._width``, and
    ``qseries._signed`` decodes each int once and checks that its fields add
    up to the path count: every field is nonnegative and below the sign
    bit, so the int's bit length gives the number of fields.
    ``area_a``/``maj_a``/``area_b``/``maj_b`` remain the per-word oracles.
    """
    children, _ = _path_tree(family, _size(n))
    caps = _caps(family, n)
    total = 2 * n
    double = family == "B"
    count = comb(total, n) if double else comb(total, n) // (n + 1)
    width = _width(comb(total, n))
    bits = 8 * width
    area = maj = [1] * (n + 1)  # the empty tally of the rows after any start of the last row
    for j in range(len(caps) - 1, 0, -1):
        cap = caps[j]
        area = [sum([area[x] << bits * (cap - x) for x in kid]) for kid in children[j]]
        maj = [
            sum([maj[x] << bits * (1 if j >= n and x == cap else total - j - x if x > v else 0) for x in kid])
            for v, kid in enumerate(children[j])
        ]
    area, maj = (_signed(p, width, -(-p.bit_length() // bits), count) for p in (area[0], maj[0]))
    if double:
        maj = [c for x in maj for c in (x, 0)]
    return QPoly(area), QPoly(maj)


@lru_cache(maxsize=None)
def _path_tree(family: str, n: int) -> tuple[list[list[bytes]], list[list[int]]]:
    """The prefix tree of the paths of 2n steps by rows: ``children[j][v]``, the row-j starts after a row
    j-1 start v (row 0 follows 0), E before N, so from cap_j down to v (in type B's rows j >= n, cap_j means
    the path has ended, and later rows stay at their caps), as bytes; ``below[j][v]``, paths under a start v."""
    caps = _caps(family, n)
    children = [[bytes(range(cap, v - 1, -1)) if v <= cap else bytes([cap]) for v in range(prev + 1)] for prev, cap in zip((0, *caps), caps)]
    below = [[1] * (cap + 1) for cap in caps[-1:]]
    for kids in reversed(children[1:]):
        below.insert(0, [sum(map(below[0].__getitem__, kid)) for kid in kids])
    return children, below


def _row_columns(family: str, n: int) -> list[bytes]:
    """The row starts of every type-``family`` path of 2n steps, in depth-first order (E before N), one byte
    per path in one bytes string per row: row j starts at the east count of its north step, or at its cap if
    it has none (``rootposets.ideal_row_starts``).  Row j's column is folded up the prefix tree
    (``_path_tree``) level by level: one block per start v of row j, v once per path below it, then, row by
    row up to the root, one block per start, the join of its children's blocks.  O(n^3) joins of bytes, with
    no Python step per path or per tree node."""
    children, below = _path_tree(family, n)
    cols = []
    for j, counts in enumerate(below):
        blocks = [bytes([v]) * c for v, c in enumerate(counts)]
        for kids in reversed(children[1:j + 1]):
            blocks = [b"".join(map(blocks.__getitem__, kid)) for kid in kids]
        cols.append(blocks[0])
    return cols


def area_polynomial(family: str, n: int) -> QPoly:
    """Generating polynomial of the area statistic over all paths."""
    return _stat_counts(family, n)[0]


def maj_polynomial(family: str, n: int) -> QPoly:
    """Generating polynomial of the major index over all paths."""
    return _stat_counts(family, n)[1]
