"""The statistic-preserving bijections between the Catalan families.

Both maps run on row starts: row j of the cells under a type-A or type-B
Dyck path, or of an order ideal's cells, is the interval [x_j, cap_j)
(see ``rootposets.PlanarCells``).  ``phi`` peels an order ideal into
shells (maximal antichains) and reads each shell as a set of disjoint
cycles; iterating over the stripped ideal yields a signed permutation.
It reads the ideal's row starts, which rejects any input that is not an
order ideal, and hands them to the row kernel ``_phi_rows``: the first
shell is the row starts (x_j, j) that row j + 1 does not cover, and
stripping moves each start one step along its anti-diagonal, so every
shell's intervals come from the starts by arithmetic, already in
left-endpoint order, and one streaming walk per shell writes its cycles
straight into the one-line notation.  ``psi_a``/``psi_b`` check a Dyck
word and collect its north columns in one pass, and hand them to the row
kernel ``_psi``, which reads the cells under the path, diagonal by
diagonal, as a sorting word, sorting the cells into factors in one pass
over the rows.  The verifiers check the counting and major-index
identities exhaustively at a given rank; both take each path's row
starts, area and maj from one pass over the Dyck paths
(``paths._row_stream``) and build no ideal or word unless a check fails;
``preimage`` looks an image up in one table from images to row starts,
built by that pass, and builds only the one ideal or word it finds.
The verifiers check each image once with ``check_perm`` and read all
its statistics from one pass, ``signedperm._stats``.  psi's image set is
checked by membership and count, and Sort(W, c) is walked only if that fails.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, takewhile

from . import paths, rootposets, signedperm
from .noncrossing import _nc_scan
from .qseries import GroupType, cat_number
from .sortable import SortingWord, _sorting_word, enumerate_sortables
from .signedperm import Perm, _stats, check_perm

Root = rootposets.Root


def phi(t: GroupType, ideal: frozenset[Root]) -> Perm:
    """Shell an ideal into cycles; the product is the image permutation.

    Raises ValueError unless ``ideal`` is an order ideal of ``t``.
    """
    return _phi_rows(t, rootposets.ideal_row_starts(t, ideal))


def _phi_rows(t: GroupType, x) -> Perm:
    """``phi`` of the ideal with row starts ``x`` (valid ones, as ``ideal_row_starts`` gives).

    Row m's start (x_m, m) is in the first shell when row m holds a cell
    and row m + 1 does not cover the start.  Stripping moves every start to
    (x_m + 1, m - 1), and the caps climb by one up to row n and fall by one
    after it, so a covered start stays covered and an uncovered one stays
    uncovered: row m adds the cell (x_m + k, m - k) to shell k for as long
    as that cell stays left of its row's cap, which is while 2k < m - x_m.
    Cell (i, j) spans (v(j), v(i)) on the signed baseline, where v(j) is
    n - j for j < n and n - j - 1 past it (type B's rows j >= n reach below
    the fold), so the starts taken by descending row give every shell's
    spans by ascending left endpoint.

    Each shell is one walk over its spans that writes the one-line
    notation as blocks open, chain and close.  A block runs on while the
    next span starts at or before its right end; a span starting exactly
    there adds a chain point, and a block's points (start, chain points,
    end) are the cycle it reads.  Type B adds each span's mirror
    (-v(i), -v(j)).  The spans of rows j < n lie right of the fold and
    their mirrors repeat their blocks, negated, left of it, so only the
    real ones are walked.  The spans of rows j >= n straddle the fold;
    merged with their mirrors they open the fold block [-e, e], which the
    walk carries on to the right, and its positive points p_1 < ... < p_r
    are the sign-crossing cycle (p_1, ..., p_r, -p_1).
    """
    n = t.n
    caps = rootposets.planar_cells(t).caps
    last = len(caps) - 1
    line = list(range(1, n + 1))
    used = [False] * (n + 1)
    starts = [
        (m, a) for m, a in enumerate(x)
        if a < caps[m] and (m == last or not x[m + 1] <= a < caps[m + 1])
    ]
    if not starts:
        return tuple(line)
    starts.reverse()
    # the first s starts are those whose shell-k cell is in a row m - k >= n (type B only)
    s = len(starts) if t.family == "B" else 0
    for k in range((max([m - a for m, a in starts]) + 1) // 2):
        while s and starts[s - 1][0] - k < n:
            s -= 1
        if s:
            reals = [(n - m + k - 1, n - a - k) for m, a in starts[:s]]
            mirrors = [(-hi, -lo) for lo, hi in reversed(reals) if lo != -hi]
            start = min(reals[0][0], mirrors[0][0]) if mirrors else reals[0][0]
            prev = end = -n - 1
            i = j = 0
            while i < len(reals) or j < len(mirrors):
                if j == len(mirrors) or i < len(reals) and reals[i] < mirrors[j]:
                    lo, hi = reals[i]
                    i += 1
                else:
                    lo, hi = mirrors[j]
                    j += 1
                if lo <= prev or hi <= end:
                    raise ValueError("not an antichain: nested or repeated spans")
                prev, end = lo, hi
            if start != -end:
                raise ValueError("fold block is not symmetric")
            sign = -1
        else:
            prev = end = 0
            sign = 1
        # the open block's first and latest positive points; the fold block has none yet
        first = point = 0
        for m, a in starts[s:]:
            if m - a <= 2 * k:
                continue
            lo, hi = n - m + k, n - a - k
            if lo <= prev or hi <= end:
                raise ValueError("not an antichain: nested or repeated spans")
            if lo >= end > 0:
                # the right end is the block's next point: a chain point, or its last
                if end <= point:
                    raise ValueError("block endpoints are not increasing")
                if used[end]:
                    raise AssertionError("shell cycles are not disjoint")
                used[end] = True
                if point:
                    line[point - 1] = end
                else:
                    first = end
                point = end
                if lo > end:
                    line[end - 1] = sign * first
            if lo > end:
                if used[lo]:
                    raise AssertionError("shell cycles are not disjoint")
                used[lo] = True
                first = point = lo
                sign = 1
            prev, end = lo, hi
        # close the last block, as above
        if end <= point:
            raise ValueError("block endpoints are not increasing")
        if used[end]:
            raise AssertionError("shell cycles are not disjoint")
        used[end] = True
        if point:
            line[point - 1] = end
        else:
            first = end
        line[end - 1] = sign * first
    return tuple(line)


def psi_a(word: str) -> tuple[Perm, SortingWord]:
    """Label cell (i, j) by letter n-1-i and read the diagonals in order."""
    return _psi(paths._dyck_columns(word, "A"), len(word) // 2, "A")


def psi_b(word: str) -> tuple[Perm, SortingWord]:
    """Type-B cell reading: lower cells as in type A, upper cells by columns."""
    return _psi(paths._dyck_columns(word, "B"), len(word) // 2, "B")


def _psi(x, n: int, family: str) -> tuple[Perm, SortingWord]:
    """``psi`` of the path of 2n steps whose row j starts at x[j].

    Row j holds the cells (i, j) with x[j] <= i < cap_j, so a type-B row at
    its cap adds none, and ``x`` may stop after the last north step.
    Lower cells (j < n) carry letter n-1-i; upper cells (j >= n, type B
    only) carry letter 2n-1-i-j.  Reading rows in order, factor f collects
    the lower diagonal j - i = f by ascending i, then the upper column
    i = n - f by ascending j; the word ends before the first empty factor.
    """
    factors: list[list[int]] = [[] for _ in range(n + 1)]
    for j, a in enumerate(x):
        if j < n:
            for i in range(a, j):
                factors[j - i].append(n - 1 - i)
        else:
            for i in range(a, 2 * n - j):
                factors[n - i].append(2 * n - 1 - i - j)
    sw = SortingWord(tuple(map(tuple, takewhile(bool, factors[1:]))))
    return signedperm._word_to_perm(chain.from_iterable(sw.factors), n, family), sw


@lru_cache(maxsize=None)
def _inverse_rows(t: GroupType, via: str) -> dict[Perm, tuple[int, ...]]:
    """Each image of ``via`` ("phi" or "psi") at rank t, mapped to its row starts
    by one pass over the Dyck paths through the row kernels, as the verifiers take it."""
    if via == "phi":
        return {_phi_rows(t, x): x for x, _, _, _ in paths._row_stream(t.family, t.n)}
    return {_psi(x, t.n, t.family)[0]: x for x, _, _, _ in paths._row_stream(t.family, t.n)}


def preimage(t: GroupType, via: str, image: Perm) -> frozenset[Root] | str | None:
    """The ideal (phi) or Dyck word (psi) that ``via`` sends to ``image`` at rank t, or None;
    the first call at a rank builds a table of all Cat(W) images."""
    x = _inverse_rows(t, via).get(image)
    if x is None:
        return None
    return rootposets._ideal_of_rows(t, x) if via == "phi" else paths._word_of_rows(t.family, t.n, x)


def _report(identity: str, rank: int) -> dict:
    return {"identity": identity, "rank": rank, "checked": 0, "failures": []}


def _fail(report: dict, what: str, **context):
    entry = {"check": what}
    entry.update({k: repr(v) for k, v in context.items()})
    report["failures"].append(entry)


def _roots(t: GroupType, x) -> list[str]:
    """The roots of the ideal with row starts ``x``, as a failure entry names them."""
    return sorted(map(rootposets.root_str, rootposets._ideal_of_rows(t, x)))


def verify_phi_theorems(t: GroupType) -> dict:
    """Exhaustively check the shelling bijection and its statistics at rank t.

    The ideals come as row starts from one pass over the Dyck paths, which
    carries each ideal's size, maj and descent count; the type-B lift pads
    the rows with two filled bottom rows.
    """
    fam, n = t.family, t.n
    two_n = 2 * sum(rootposets.planar_cells(t).caps)  # twice the cell count; raises for type D
    report = _report(f"phi{fam}", t.rank)
    images = {}
    masks = {}  # type A: each image's descent and inverse-descent masks
    for x, area, path_maj, descents in paths._row_stream(fam, n):
        report["checked"] += 1
        sigma = _phi_rows(t, x)
        check_perm(sigma, fam)
        length, sigma_maj, sigma_imaj, dmask, imask, _ = _stats(sigma, fam)
        if length != area:
            _fail(report, "length", ideal=_roots(t, x), image=sigma)
        total = path_maj + sigma_maj + sigma_imaj
        if total != two_n:
            _fail(report, "maj-identity", ideal=_roots(t, x), total=total)
        if fam == "A":
            if descents + dmask.bit_count() != n - 1:
                _fail(report, "des-sum", ideal=_roots(t, x))
            masks[sigma] = dmask, imask
        if sigma in images:
            _fail(report, "injectivity", image=sigma)
        images[sigma] = x
    # rev is the identity on a permutation with no negative entries
    target = set(_nc_scan("A", n)) if fam == "A" else {signedperm.rev(w) for w in _nc_scan(fam, n)}
    if images.keys() != target:
        _fail(report, "image-set", missing=sorted(target - images.keys())[:3])
    if fam == "A":
        for sigma in target:  # a target element that is not an image is read here
            dmask, imask = masks[sigma] if sigma in masks else _stats(sigma, fam)[3:5]
            if dmask.bit_count() != imask.bit_count():
                _fail(report, "des-ides", image=sigma)
    if fam == "B":
        big = GroupType("B", t.rank + 1)
        for sigma, x in images.items():
            if _phi_rows(big, (0, 0) + x) != sigma + (-(n + 1),):
                _fail(report, "lift-identity", ideal=_roots(t, x))
    return report


def verify_psi_theorems(t: GroupType) -> dict:
    """Exhaustively check the cell-reading bijection and its statistics.

    The paths come as row starts from one pass over the Dyck paths, which
    carries each path's area and maj; the east count and the lower part of
    a type-B path are read off its rows.
    """
    fam, n = t.family, t.n
    caps = rootposets.planar_cells(t).caps  # raises for type D, which has no row starts
    two_n = 2 * sum(caps)  # twice the cell count, that is, of the positive roots
    report = _report(f"psi{fam}", t.rank)
    c_word = signedperm.coxeter_element(fam, n)[1]
    images = set()
    unsorted = False
    for x, area, path_maj, _ in paths._row_stream(fam, n):
        report["checked"] += 1
        sigma, sw = _psi(x, n, fam)
        check_perm(sigma, fam)
        length, sigma_maj, sigma_imaj, dmask, imask, negs = _stats(sigma, fam)
        if length != area or len(sw) != area:
            _fail(report, "length", word=paths._word_of_rows(fam, n, x), image=sigma)
        if _sorting_word(sigma, c_word, fam) != sw or not sw.is_sortable_chain():
            _fail(report, "sorting-word", word=paths._word_of_rows(fam, n, x), emitted=str(sw))
            unsorted = True
        total = path_maj + sigma_maj + sigma_imaj
        if total != two_n:
            _fail(report, "maj-identity", word=paths._word_of_rows(fam, n, x), total=total)
        if fam == "A":
            k = n - x[n - 1]  # the east steps after the last north step
            full = (1 << k) - 2  # the descents 1, ..., k - 1
            if sigma[k - 1] != 1 or dmask & full != full:
                _fail(report, "last-descent", word=paths._word_of_rows(fam, n, x), image=sigma)
        else:
            easts = n - sum(a < cap for a, cap in zip(x[n:], caps[n:]))  # n minus the upper north steps
            if easts + negs != n:
                _fail(report, "neg-sum", word=paths._word_of_rows(fam, n, x), image=sigma)
            sigma1, _ = _psi(x[:n], n, "A")
            check_perm(sigma1, "B")
            _, _, lower_imaj, _, lower_imask, _ = _stats(sigma1, "B")
            if imask != lower_imask:
                _fail(report, "ides-split", word=paths._word_of_rows(fam, n, x))
            if sigma_imaj != lower_imaj + negs:
                _fail(report, "imaj-split", word=paths._word_of_rows(fam, n, x))
        if sigma in images:
            _fail(report, "injectivity", image=sigma)
        images.add(sigma)
    # Every image that passed the sorting-word check is c-sortable, and |Sort(W, c)| = Cat(W)
    # (Reading, Trans. AMS 2007), so Cat(W) distinct such images are all of Sort(W, c).
    if unsorted or len(images) != cat_number(t):
        target = set(enumerate_sortables(t, c_word))
        if images != target:
            _fail(report, "image-set", missing=sorted(target - images)[:3])
    return report
