"""The statistic-preserving bijections between the Catalan families.

``phi`` peels an order ideal into shells (maximal antichains) and reads
each shell as a set of disjoint cycles; iterating over the stripped ideal
yields a signed permutation.  ``phi`` reads the ideal's row starts (see
``rootposets.PlanarCells``), which rejects any input that is not an order
ideal, and hands them to the row kernel ``_phi_rows``: row j of the
ideal's cells is the interval [x_j, cap_j), the first shell is the row
starts (x_j, j) that row j + 1 does not cover, and stripping moves each
start one step along its anti-diagonal, so every shell's intervals come
from the starts by arithmetic, without a root in sight, and the cycles
are written straight into the one-line notation.  ``psi_a``/``psi_b``
read the cells under a Dyck path, diagonal by diagonal, as a sorting
word, sorting the cells into factors in one pass over the rows.  The
verifiers check the counting and major-index identities exhaustively at
a given rank; the phi verifier takes each ideal's row starts, size, maj
and descent count from one pass over the Dyck paths
(``paths._row_stream``) and builds no ideal unless a check fails.

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
    return tuple(_span_cycles(spans))


def _span_cycles(spans: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The cycles of a shell, given its spans sorted by left endpoint."""
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
    return cycles


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


def phi(t: GroupType, ideal: frozenset[Root]) -> Perm:
    """Shell an ideal into cycles; the product is the image permutation.

    Raises ValueError unless ``ideal`` is an order ideal of ``t``.
    """
    return _phi_rows(t, rootposets.ideal_row_starts(t, ideal))


def _phi_rows(t: GroupType, x) -> Perm:
    """``phi`` of the ideal with row starts ``x`` (valid ones, as ``ideal_row_starts`` gives).

    Row m's start (x_m, m) is in the first shell unless row m + 1 covers
    it.  Stripping moves every start to (x_m + 1, m - 1), and the caps
    climb by one up to row n and fall by one after it, so a covered start
    stays covered and an uncovered one stays uncovered: row m adds the cell
    (x_m + k, m - k) to shell k for as long as that cell stays left of its
    row's cap.  Cell (i, j) spans (v(j), v(i)) on the signed baseline,
    where v(j) is n - j for j < n and n - j - 1 past it (type B's rows
    j >= n reach below the fold); type B adds the mirror span
    (-v(i), -v(j)) unless it is the same one.  The cycles go straight into
    the one-line notation.
    """
    n = t.n
    caps = rootposets.planar_cells(t).caps
    last = len(caps) - 1
    mirror = t.family == "B"
    shells: list[list[tuple[int, int]]] = []
    for m, a in enumerate(x):
        if m < last and x[m + 1] <= a < caps[m + 1]:
            continue
        k = 0
        while a + k < caps[m - k]:
            j = m - k
            lo, hi = n - j if j < n else n - j - 1, n - a - k
            if k == len(shells):
                shells.append([])
            shells[k].append((lo, hi))
            if mirror and lo != -hi:
                shells[k].append((-hi, -lo))
            k += 1
    line = list(range(1, n + 1))
    used = [False] * (n + 1)
    for spans in shells:
        spans.sort()
        for cyc in _span_cycles(spans):
            fold = cyc[-1] == -cyc[0]
            for v in cyc[:-1] if fold else cyc:
                if used[v]:
                    raise AssertionError("shell cycles are not disjoint")
                used[v] = True
            for v, w in zip(cyc, cyc[1:]):
                line[v - 1] = w
            if not fold:
                line[cyc[-1] - 1] = cyc[0]
    return tuple(line)


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


def _roots(t: GroupType, x) -> list[str]:
    """The roots of the ideal with row starts ``x``, as a failure entry names them."""
    return sorted(map(rootposets.root_str, rootposets._ideal_of_rows(t, x)))


def verify_phi_theorems(t: GroupType, unsafe: bool = False) -> dict:
    """Exhaustively check the shelling bijection and its statistics at rank t.

    The ideals come as row starts from one pass over the Dyck paths, which
    carries each ideal's size, maj and descent count; the type-B lift pads
    the rows with two filled bottom rows.
    """
    fam, n = t.family, t.n
    rootposets.planar_cells(t)  # raises for type D, which has no row starts
    check_guard("ideal", fam, t.rank, unsafe)
    two_n = n * (n - 1) if fam == "A" else 2 * n * n
    report = _report(f"phi{fam}", t.rank)
    images = {}
    for x, area, maj, descents in paths._row_stream(fam, n):
        report["checked"] += 1
        sigma = _phi_rows(t, x)
        if signedperm.length_s(sigma, fam) != area:
            _fail(report, "length", ideal=_roots(t, x), image=sigma)
        total = maj + signedperm.maj(sigma, fam) + signedperm.imaj(sigma, fam)
        if total != two_n:
            _fail(report, "maj-identity", ideal=_roots(t, x), total=total)
        if fam == "A":
            if descents + signedperm.des(sigma) != n - 1:
                _fail(report, "des-sum", ideal=_roots(t, x))
        if sigma in images:
            _fail(report, "injectivity", image=sigma)
        images[sigma] = x
    target = set(rev_nc(t))
    if set(images) != target:
        _fail(report, "image-set", missing=sorted(target - set(images))[:3])
    if fam == "A":
        for sigma in target:
            if signedperm.des(sigma) != signedperm.ides(sigma):
                _fail(report, "des-ides", image=sigma)
    if fam == "B":
        big = GroupType("B", t.rank + 1)
        for sigma, x in images.items():
            if _phi_rows(big, (0, 0) + x) != sigma + (-(n + 1),):
                _fail(report, "lift-identity", ideal=_roots(t, x))
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
