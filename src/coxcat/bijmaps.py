"""The statistic-preserving bijections between the Catalan families.

``phi`` peels an order ideal into shells (maximal antichains) and reads
each shell as a set of disjoint cycles; iterating over the stripped ideal
yields a signed permutation.  It works on the ideal's row starts (see
``rootposets.PlanarCells``): row j of the ideal's cells is the interval
[x_j, cap_j), the shell is the row starts (x_j, j) that row j + 1 does
not cover, and stripping is the shift x'_{j-1} = min(x_j + 1, cap_{j-1}),
so each shell costs O(n).  Reading the row starts rejects any input that
is not an order ideal.  ``psi_a``/``psi_b`` read the cells under a Dyck
path, diagonal by diagonal, as a sorting word, sorting the cells into
factors in one pass over the rows.  The verifiers check the counting and
major-index identities exhaustively at a given rank.

Shelling conventions.  A root unfolds to one or two intervals over the
signed baseline -n < ... < -1 < 1 < ... < n:

* ``diff(a, b)``  -> (a, b) and (-b, -a),
* ``short(b)``    -> (-1, b) and (-b, 1),
* ``sum(a, b)``   -> (-(a+1), b) and (-b, a+1),

where coinciding mirror images (the right-boundary roots) collapse to a
single symmetric interval.  Sorted by left endpoint, the intervals of an
antichain split into blocks wherever the previous right endpoint is
strictly smaller than the next left endpoint; inside a block every
touching pair contributes a chain point.  A block fixed by negation
yields the sign-crossing cycle on its positive endpoints, and mirror-pair
blocks are emitted once, as the cycle of the positive one.
"""

from __future__ import annotations

from functools import lru_cache

from . import paths, rootposets, signedperm
from .noncrossing import rev_nc
from .qseries import GroupType, check_guard
from .sortable import SortingWord, c_sorting_word, enumerate_sortables
from .signedperm import Perm

Root = rootposets.Root


@lru_cache(maxsize=None)
def _unfold_spans(root: Root, family: str) -> tuple[tuple[int, int], ...]:
    if family == "A":
        spans = {(root[1], root[2])}
    elif root[0] == "diff":
        spans = {(root[1], root[2]), (-root[2], -root[1])}
    elif root[0] == "short":
        spans = {(-1, root[1]), (-root[1], 1)}
    else:
        a, b = root[1], root[2]
        spans = {(-(a + 1), b), (-b, a + 1)}
    return tuple(sorted(spans))


def shell_cycles(maximal, family: str) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles read off one shell (an antichain of roots)."""
    spans: list[tuple[int, int]] = []
    for r in maximal:
        spans += _unfold_spans(r, family)
    spans.sort()
    # an antichain unfolds to spans with strictly increasing lo AND hi
    for k in range(1, len(spans)):
        if spans[k - 1][0] >= spans[k][0] or spans[k - 1][1] >= spans[k][1]:
            raise ValueError("not an antichain: nested or repeated spans")

    cycles: list[tuple[int, ...]] = []
    seq: list[int] = []
    end = 0
    for lo, hi in spans:
        if seq and end >= lo:
            if end == lo:
                seq.append(lo)
        else:
            if seq:
                seq.append(end)
                _read_block(seq, cycles)
            seq = [lo]
        end = hi
    if seq:
        seq.append(end)
        _read_block(seq, cycles)
    return tuple(cycles)


def _read_block(seq: list[int], cycles: list[tuple[int, ...]]) -> None:
    """Append the cycle of one block, given its start, chain points and end."""
    for k in range(1, len(seq)):
        if seq[k - 1] >= seq[k]:
            raise ValueError("block endpoints are not increasing")
    if seq[0] == -seq[-1]:
        if seq != [-v for v in reversed(seq)]:
            raise ValueError("fold block is not symmetric")
        positives = [v for v in seq if v > 0]
        cycles.append(tuple(positives) + (-positives[0],))
    elif seq[0] > 0:
        cycles.append(tuple(seq))
    elif seq[-1] >= 0:
        raise ValueError("asymmetric block straddling the fold")


def strip_ideal(t: GroupType, ideal: frozenset[Root]) -> frozenset[Root]:
    """Shrink every cell (i, j) with j - i > 2 to (i+1, j-1); drop the rest."""
    cell_of, rows, _ = rootposets.planar_cells(t)
    try:
        cells = [cell_of[r] for r in ideal]
    except KeyError as exc:
        root = rootposets.root_str(exc.args[0])
        raise ValueError(f"{root} is not a positive root of {t.family}{t.rank}") from None
    return frozenset(rows[j - 1][i + 1] for i, j in cells if j - i > 2)


def _strip_rows(x: list[int], caps: tuple[int, ...]) -> list[int]:
    """``strip_ideal`` on row starts: x'[j-1] = min(x[j] + 1, caps[j-1])."""
    return [a + 1 if a < cap else cap for a, cap in zip(x[1:], caps)] + [caps[-1]]


def phi(t: GroupType, ideal: frozenset[Root]) -> Perm:
    """Shell an ideal into cycles; the product is the image permutation.

    Raises ValueError unless ``ideal`` is an order ideal of ``t``.
    """
    x = rootposets.ideal_row_starts(t, ideal)
    _, rows, caps = rootposets.planar_cells(t)
    caps_up = caps[1:] + (0,)
    fam = t.family
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    while True:
        # the shell: row starts that the next row up does not cover
        maximal = [
            rows[j][a]
            for j, (a, up, cap, cap_up) in enumerate(zip(x, x[1:] + [0], caps, caps_up))
            if a < cap and not up <= a < cap_up
        ]
        if not maximal:
            break
        shell = shell_cycles(maximal, fam)
        for cyc in shell:
            body = {abs(v) for v in (cyc[:-1] if cyc[-1] == -cyc[0] else cyc)}
            if body & seen:
                raise AssertionError("shell cycles are not disjoint")
            seen |= body
        cycles += shell
        x = _strip_rows(x, caps)
    return signedperm.from_cycles(cycles, t.n)


def psi_a(word: str) -> tuple[Perm, SortingWord]:
    """Label cell (i, j) by letter n-1-i and read the diagonals in order."""
    return _psi(word, "A")


def psi_b(word: str) -> tuple[Perm, SortingWord]:
    """Type-B cell reading: lower cells as in type A, upper cells by columns."""
    return _psi(word, "B")


def _psi(word: str, family: str) -> tuple[Perm, SortingWord]:
    """Lower cells (j < n) carry letter n-1-i; upper cells (j >= n, type B
    only) carry letter 2n-1-i-j.  Reading rows in order, factor f collects
    the lower diagonal j - i = f by ascending i, then the upper column
    i = n - f by ascending j.
    """
    n = paths._check(word, family)
    factors: list[list[int]] = [[] for _ in range(n + 1)]
    for j, x in enumerate(paths._north_columns(word)):
        if j < n:
            for i in range(x, j):
                factors[j - i].append(n - 1 - i)
        else:
            for i in range(x, 2 * n - j):
                factors[n - i].append(2 * n - 1 - i - j)
    sw = SortingWord(_leading_factors(factors[1:]))
    return signedperm._word_to_perm(sw.letters, n, family), sw


def _leading_factors(factors: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The factors up to, not including, the first empty one."""
    out = []
    for factor in factors:
        if not factor:
            break
        out.append(tuple(factor))
    return tuple(out)


@lru_cache(maxsize=None)
def phi_inverse_table(t: GroupType) -> dict[Perm, frozenset[Root]]:
    return {phi(t, i): i for i in rootposets.ideals(t)}


@lru_cache(maxsize=None)
def psi_inverse_table(t: GroupType) -> dict[Perm, str]:
    check_guard("path", t.family, t.n)
    words = paths.enumerate_a(t.n) if t.family == "A" else paths.enumerate_b(t.n)
    return {_psi(w, t.family)[0]: w for w in words}


def _report(identity: str, rank: int) -> dict:
    return {"identity": identity, "rank": rank, "checked": 0, "failures": []}


def _fail(report: dict, what: str, **context):
    entry = {"check": what}
    entry.update({k: repr(v) for k, v in context.items()})
    report["failures"].append(entry)


def verify_phi_theorems(t: GroupType, unsafe: bool = False) -> dict:
    """Exhaustively check the shelling bijection and its statistics at rank t."""
    fam, n = t.family, t.n
    two_n = n * (n - 1) if fam == "A" else 2 * n * n
    report = _report(f"phi{fam}", t.rank)
    images = {}
    for ideal in rootposets.ideals(t, unsafe=unsafe):
        report["checked"] += 1
        sigma = phi(t, ideal)
        if signedperm.length_s(sigma, fam) != len(ideal):
            _fail(report, "length", ideal=sorted(map(rootposets.root_str, ideal)), image=sigma)
        total = (
            rootposets.ideal_maj(t, ideal)
            + signedperm.maj(sigma, fam)
            + signedperm.imaj(sigma, fam)
        )
        if total != two_n:
            _fail(report, "maj-identity", ideal=sorted(map(rootposets.root_str, ideal)), total=total)
        if fam == "A":
            if len(rootposets.ideal_des(t, ideal)) + signedperm.des(sigma) != n - 1:
                _fail(report, "des-sum", ideal=sorted(map(rootposets.root_str, ideal)))
        if sigma in images:
            _fail(report, "injectivity", image=sigma)
        images[sigma] = ideal
    target = set(rev_nc(t))
    if set(images) != target:
        _fail(report, "image-set", missing=sorted(target - set(images))[:3])
    if fam == "A":
        for sigma in target:
            if signedperm.des(sigma) != signedperm.ides(sigma):
                _fail(report, "des-ides", image=sigma)
    if fam == "B":
        big = GroupType("B", t.rank + 1)
        for sigma, ideal in images.items():
            lifted = phi(big, rootposets.lift_delta(t, ideal))
            if lifted != sigma + (-(n + 1),):
                _fail(report, "lift-identity", ideal=sorted(map(rootposets.root_str, ideal)))
    return report


def verify_psi_theorems(t: GroupType, unsafe: bool = False) -> dict:
    """Exhaustively check the cell-reading bijection and its statistics."""
    fam, n = t.family, t.n
    two_n = n * (n - 1) if fam == "A" else 2 * n * n
    report = _report(f"psi{fam}", t.rank)
    words = paths.enumerate_a(n) if fam == "A" else paths.enumerate_b(n)
    c_word = signedperm.coxeter_element(fam, n)[1]
    images = {}
    for word in words:
        report["checked"] += 1
        sigma, sw = (psi_a if fam == "A" else psi_b)(word)
        area = paths.area_a(word) if fam == "A" else paths.area_b(word)
        if signedperm.length_s(sigma, fam) != area or len(sw) != area:
            _fail(report, "length", word=word, image=sigma)
        if c_sorting_word(sigma, c_word, fam) != sw or not sw.is_sortable_chain():
            _fail(report, "sorting-word", word=word, emitted=str(sw))
        maj_d = paths.maj_a(word) if fam == "A" else paths.maj_b(word)
        total = maj_d + signedperm.maj(sigma, fam) + signedperm.imaj(sigma, fam)
        if total != two_n:
            _fail(report, "maj-identity", word=word, total=total)
        if fam == "A":
            easts_after = len(word) - word.rindex("N") - 1 if "N" in word else 0
            if easts_after:
                k = easts_after
                if sigma[k - 1] != 1 or not set(range(1, k)) <= signedperm.des_set(sigma):
                    _fail(report, "last-descent", word=word, image=sigma)
        else:
            if paths.neg_b(word) + signedperm.neg(sigma) != n:
                _fail(report, "neg-sum", word=word, image=sigma)
            lower, _ = paths.split_lower_upper(word)
            sigma1, _ = psi_a(lower)
            if signedperm.ides_set(sigma) != signedperm.ides_set(sigma1):
                _fail(report, "ides-split", word=word)
            if signedperm.imaj(sigma, "B") != signedperm.imaj(sigma1, "B") + signedperm.neg(sigma):
                _fail(report, "imaj-split", word=word)
        if sigma in images:
            _fail(report, "injectivity", image=sigma)
        images[sigma] = word
    target = set(enumerate_sortables(t, c_word, unsafe=unsafe))
    if set(images) != target:
        _fail(report, "image-set", missing=sorted(target - set(images))[:3])
    return report
