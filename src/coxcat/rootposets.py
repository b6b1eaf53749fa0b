"""Root posets of types A, B and D; order ideals and their Dyck-path dictionary.

Positive roots are tagged tuples: ``("diff", a, b)`` is e_b - e_a with
a < b, ``("short", b)`` is e_b (type B only), and ``("sum", a, b)`` is
e_a + e_b with a < b (types B and D).  The covering relation is
"difference is a simple root"; order ideals under it are the non-nesting
partitions of the group.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from . import paths
from .qseries import GroupType, QPoly, check_guard, gen_poly

Root = tuple
Cell = tuple[int, int]


def diff(a: int, b: int) -> Root:
    return ("diff", a, b)


def short(b: int) -> Root:
    return ("short", b)


def sum_root(a: int, b: int) -> Root:
    return ("sum", a, b)


def root_str(r: Root) -> str:
    if r[0] == "diff":
        return f"e{r[2]}-e{r[1]}"
    if r[0] == "short":
        return f"e{r[1]}"
    return f"e{r[1]}+e{r[2]}"


_ROOT_RE = re.compile(r"^e(\d+)([+-]e(\d+))?$")


def parse_root(s: str) -> Root:
    m = _ROOT_RE.match(s.replace(" ", ""))
    if not m:
        raise ValueError(f"bad root string {s!r}")
    x = int(m.group(1))
    if m.group(2) is None:
        return short(x)
    y = int(m.group(3))
    if m.group(2).startswith("+"):
        return sum_root(min(x, y), max(x, y))
    return diff(y, x)


def root_vector(r: Root, n: int) -> tuple[int, ...]:
    v = [0] * n
    if r[0] == "diff":
        v[r[1] - 1] -= 1
        v[r[2] - 1] += 1
    elif r[0] == "short":
        v[r[1] - 1] += 1
    else:
        v[r[1] - 1] += 1
        v[r[2] - 1] += 1
    return tuple(v)


def root_height(r: Root, family: str) -> int:
    if r[0] == "diff":
        return r[2] - r[1]
    if r[0] == "short":
        return r[1]
    return r[1] + r[2] - (2 if family == "D" else 0)


def positive_roots(t: GroupType) -> list[Root]:
    """All positive roots, sorted by height then serialized form."""
    n = t.n
    roots: list[Root] = [diff(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
    if t.family == "B":
        roots += [short(b) for b in range(1, n + 1)]
    if t.family in ("B", "D"):
        roots += [sum_root(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
    roots.sort(key=lambda r: (root_height(r, t.family), root_str(r)))
    return roots


def simple_roots(t: GroupType) -> list[Root]:
    n = t.n
    simples = [diff(i, i + 1) for i in range(1, n)]
    if t.family == "B":
        simples.append(short(1))
    if t.family == "D":
        simples.append(sum_root(1, 2))
    return simples


class RootPoset:
    """The poset of positive roots under the simple-difference covering."""

    def __init__(self, t: GroupType):
        if t.family not in ("A", "B", "D"):
            raise ValueError(f"no root poset for family {t.family!r}")
        self.type = t
        self.roots = positive_roots(t)
        self.index = {r: i for i, r in enumerate(self.roots)}
        n = t.n
        vecs = [root_vector(r, n) for r in self.roots]
        simple_vecs = {root_vector(s, n) for s in simple_roots(t)}
        m = len(self.roots)
        self.lower_covers: list[list[int]] = [[] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                d = tuple(vecs[j][k] - vecs[i][k] for k in range(n))
                if d in simple_vecs:
                    # roots[j] covers roots[i]
                    self.lower_covers[j].append(i)
        self._below = [frozenset(self._descend(i)) for i in range(m)]

    def _descend(self, i: int) -> set[int]:
        out = {i}
        stack = [i]
        while stack:
            for k in self.lower_covers[stack.pop()]:
                if k not in out:
                    out.add(k)
                    stack.append(k)
        return out

    def down_set(self, r: Root) -> frozenset[Root]:
        return frozenset(self.roots[k] for k in self._below[self.index[r]])

    def is_ideal(self, rs: frozenset[Root]) -> bool:
        idx = {self.index[r] for r in rs}
        return all(set(self.lower_covers[i]) <= idx for i in idx)

    def ideal_from_antichain(self, antichain) -> frozenset[Root]:
        out: set[Root] = set()
        for r in antichain:
            out |= self.down_set(r)
        return frozenset(out)

    def ideals(self, unsafe: bool = False) -> list[frozenset[Root]]:
        """All order ideals, by backtracking along a height linear extension."""
        check_guard("ideal", self.type.family, self.type.rank, unsafe)
        m = len(self.roots)
        lower = self.lower_covers  # roots are already height-sorted
        out: list[frozenset[Root]] = []
        chosen: list[int] = []
        included = bytearray(m)

        def rec(k: int):
            if k == m:
                out.append(frozenset(self.roots[i] for i in chosen))
                return
            rec(k + 1)
            if all(included[j] for j in lower[k]):
                included[k] = 1
                chosen.append(k)
                rec(k + 1)
                chosen.pop()
                included[k] = 0

        rec(0)
        return out


@lru_cache(maxsize=None)
def root_poset(t: GroupType) -> RootPoset:
    return RootPoset(t)


class PlanarCells(NamedTuple):
    """The cell/root dictionary of a type-A or type-B rank, by rows.

    Row j holds the cells (i, j) with i < ``caps[j]``, where the cap is j
    in type A and min(j, 2n - j) in type B; ``rows[j][i]`` is the root at
    cell (i, j) and ``cell_of`` inverts it.  Cell (i, j) is covered by
    (i, j + 1) and (i - 1, j), so an order ideal fills each row j with an
    interval [x_j, caps[j]): its row starts x are the ideal's Dyck path.
    """

    cell_of: dict[Root, Cell]
    rows: tuple[tuple[Root, ...], ...]
    caps: tuple[int, ...]


@lru_cache(maxsize=None)
def planar_cells(t: GroupType) -> PlanarCells:
    n = t.n
    if t.family == "A":
        caps, root_of = tuple(range(n)), root_of_cell_a
    elif t.family == "B":
        caps, root_of = tuple(min(j, 2 * n - j) for j in range(2 * n)), root_of_cell_b
    else:
        raise ValueError("no planar cells for type D")
    rows = tuple(tuple(root_of((i, j), n) for i in range(cap)) for j, cap in enumerate(caps))
    cell_of = {r: (i, j) for j, row in enumerate(rows) for i, r in enumerate(row)}
    return PlanarCells(cell_of, rows, caps)


def ideal_row_starts(t: GroupType, ideal: frozenset[Root]) -> list[int]:
    """Row starts x of an order ideal: row j of its cells is [x[j], caps[j]).

    Raises ValueError, naming a root, unless ``ideal`` is an order ideal of
    positive roots of ``t``.  Every row must be an interval ending at its
    cap, and a row reaching under the previous row's cap must start no
    further left than that row does.
    """
    cell_of, _, caps = planar_cells(t)
    x = list(caps)
    count = [0] * len(caps)
    try:
        for i, j in map(cell_of.__getitem__, ideal):
            if i < x[j]:
                x[j] = i
            count[j] += 1
    except KeyError as exc:
        root = exc.args[0]
        raise ValueError(f"{root_str(root)} is not a positive root of {t.family}{t.rank}") from None
    for j in range(1, len(caps)):
        xj = x[j]
        if count[j] != caps[j] - xj or (count[j] and xj < caps[j - 1] and x[j - 1] > xj):
            raise ValueError(_not_ideal_message(t, ideal))
    return x


def _not_ideal_message(t: GroupType, ideal: frozenset[Root]) -> str:
    poset = root_poset(t)
    for r in sorted(ideal, key=poset.index.__getitem__):
        for k in poset.lower_covers[poset.index[r]]:
            if poset.roots[k] not in ideal:
                return (
                    f"not an order ideal of {t.family}{t.rank}: "
                    f"it holds {root_str(r)} but not {root_str(poset.roots[k])}"
                )
    return f"not a set of distinct roots of {t.family}{t.rank}"


def ideals(t: GroupType, unsafe: bool = False) -> list[frozenset[Root]]:
    return root_poset(t).ideals(unsafe=unsafe)


def cat_q(t: GroupType, unsafe: bool = False) -> QPoly:
    """Generating polynomial of ideal sizes; the q-Catalan number by areas.

    In types A and B the row starts of an ideal are its Dyck path and |I|
    is that path's area, so this is the area polynomial of the paths of
    2n steps, from the O(n^4) lattice-point pass of ``paths._stat_counts``
    without building an ideal or a path.  Type D enumerates its ideals.
    """
    if t.family == "D":
        return gen_poly(map(len, ideals(t, unsafe=unsafe)))
    check_guard("ideal", t.family, t.rank, unsafe)
    return paths.area_polynomial(t.family, t.n, unsafe=True)


def root_of_cell_a(cell: Cell, n: int) -> Root:
    i, j = cell
    if not 0 <= i < j < n:
        raise ValueError(f"invalid type-A cell {cell!r}")
    return diff(n - j, n - i)


def root_of_cell_b(cell: Cell, n: int) -> Root:
    i, j = cell
    if not (0 <= i < j <= 2 * n - 1 - i):
        raise ValueError(f"invalid type-B cell {cell!r}")
    b, k = n - i, j - i
    if k < b:
        return diff(b - k, b)
    if k == b:
        return short(b)
    return sum_root(k - b, b)


def _ideal_of_rows(t: GroupType, x: list[int]) -> frozenset[Root]:
    """The roots in cells [x[j], caps[j]) of each row j: the inverse of ``ideal_row_starts``."""
    rows = planar_cells(t).rows
    return frozenset(r for row, a in zip(rows, x) for r in row[a:])


def ideal_to_dyck(t: GroupType, ideal: frozenset[Root]) -> str:
    """The Dyck word whose north steps sit at the ideal's row starts; area equals |ideal|.

    A type-B row j >= n gets a north step only when it holds a cell.
    Raises ValueError unless ``ideal`` is an order ideal of ``t``.
    """
    return paths._word_of_rows(t.family, t.n, ideal_row_starts(t, ideal))


def dyck_to_ideal(t: GroupType, word: str) -> frozenset[Root]:
    """The ideal under a type-``t`` Dyck word of 2n steps: row j from its north column on."""
    x = paths._dyck_columns(word, t.family)
    if len(word) != 2 * t.n:
        raise ValueError(f"{word!r} has {len(word)} steps, but {t.family}{t.rank} needs {2 * t.n}")
    return _ideal_of_rows(t, x)


def ideal_maj(t: GroupType, ideal: frozenset[Root]) -> int:
    word = ideal_to_dyck(t, ideal)
    return paths.maj_a(word) if t.family == "A" else paths.maj_b(word)


def lift_delta(t: GroupType, ideal: frozenset[Root]) -> frozenset[Root]:
    """Embed an ideal one rank up by shifting its rows up and filling the
    bottom row (type A) or the bottom two rows (type B)."""
    x = ideal_row_starts(t, ideal)
    big = GroupType(t.family, t.rank + 1)
    out = _ideal_of_rows(big, [0] * (1 if t.family == "A" else 2) + x)
    if not root_poset(big).is_ideal(out):
        raise AssertionError("lift produced a non-ideal")
    return out


def ideal_to_json(ideal: frozenset[Root]) -> dict:
    return {"roots": sorted(root_str(r) for r in ideal)}


def ideal_from_json(data) -> frozenset[Root]:
    """Decode ``{"roots": [...]}``, or a bare list, of root strings."""
    roots = data.get("roots") if isinstance(data, dict) else data
    if not isinstance(roots, list) or not all(isinstance(s, str) for s in roots):
        raise ValueError(f'expected a list of root strings or {{"roots": [...]}}, got {data!r}')
    return frozenset(parse_root(s) for s in roots)
