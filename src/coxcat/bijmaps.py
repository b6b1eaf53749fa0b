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
identities exhaustively at a given rank; both take every path's row
starts, area and maj from ``_rank``, which packs the prefix tree's row
columns in the rank's one lane layout, and check the whole rank at once:
one int per quantity with one guarded field per path (``_Lanes``), so each
identity is a few dozen big-int operations and one comparison per rank.
psi builds its images and sorting words by masked swaps
(``_psi_lanes``), phi reads every shell's blocks off masks of the row
starts (``_phi_lanes``; ``_phi_rows`` stays the per-ideal map), and only a
failing lane is decoded into its ideal or word.  psi's image set is
checked by membership and count, and Sort(W, c) is walked only if that
fails; phi's likewise, by the arc test ``_nc_lanes`` for membership, one
int key per lane (``_image_keys``) for distinctness, and the count, and
[1, c] is scanned only if one of those fails.  ``preimage`` reads a
psi image's path off the (pass, letter) keys of the one greedy scan
``sortable._scan`` (``_word_starts``), and looks a phi image up in one
table from images to row starts, built by ``_phi_lanes``.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, count, repeat, takewhile
from operator import add, lshift, or_, xor

from . import paths, rootposets, signedperm
from .noncrossing import _fail, _nc_scan, _report
from .qseries import GroupType, cat_number
from .sortable import SortingWord, _scan, _sortable_tree
from .signedperm import Perm, _Lanes, check_perm

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
    with their mirrors they make the fold block [-e, e], where e is their
    largest right end, n - x_m - k over rows m - k >= n: a mirror's right
    end m - k + 1 - n is never larger, since x_m < cap_m = 2n - m.  The
    walk carries that block on to the right, and its positive points
    p_1 < ... < p_r are the sign-crossing cycle (p_1, ..., p_r, -p_1).
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
    starts.reverse()
    # the first s starts are those whose shell-k cell is in a row m - k >= n (type B only)
    s = len(starts) if t.family == "B" else 0
    for k in range((max([m - a for m, a in starts], default=0) + 1) // 2):
        while s and starts[s - 1][0] - k < n:
            s -= 1
        # the fold block [-e, e] that opens the shell in type B, and the open block's
        # first and latest positive points: the fold block has none yet
        end = max([n - a - k for _, a in starts[:s]], default=0)
        sign = -1 if s else 1
        first = point = 0
        for m, a in starts[s:]:
            if m - a <= 2 * k:
                continue
            lo, hi = n - m + k, n - a - k
            if lo >= end > 0:
                # the right end is the block's next point: a chain point, or its last
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
            end = hi
        # close the last block, as above
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


def _word_starts(letters, n: int, caps, one: int = 1) -> list[int]:
    """Row starts cap_j minus the cells of row j that ((factor, letter), weight) pairs name, a weight
    1 or a lane mask with ``one``: as ``_psi`` labels cells, letter s of factor f is a cell of row
    n-1-s+f (s >= f) or of the upper row n-1+f-s (s < f).

    Every key that ``sortable._scan`` yields for a signed permutation names a row, so there is no
    range check.  The word is s_{n-1} ... s_1 (s_0), so a pass is a bubble pass over the inverse
    positions from the right, parking the smallest one it meets at the front.  Type A: after f - 1
    passes the f - 1 smallest positions stand sorted at the front, so pass f takes no letter below
    f, and s >= f.  Type B: a pass that meets a negative position parks the smallest one at the
    front and flips it with s_0, so s_0 is taken in the first k <= n passes, k the number of
    negative entries, and pass k + g takes no letter below g, as in type A: f - s <= n, and row
    n-1+f-s <= 2n-1.  The verifier calls this only once ``_sort_lanes`` takes ``_psi_lanes``' keys.
    """
    x = [cap * one for cap in caps]
    for (f, s), weight in letters:
        x[n - 1 + f - s] -= weight
    return x


@lru_cache(maxsize=None)
def _inverse_rows(t: GroupType) -> dict[Perm, tuple[int, ...]]:
    """Each phi image at rank t, mapped to its row starts by ``_phi_lanes``
    on ``_rank``'s lanes, as the verifier takes them."""
    _, _, _, lanes, xs = _rank(t)
    return dict(zip(zip(*map(lanes.values, _phi_lanes(lanes, xs, t))), zip(*map(lanes.unpack, xs))))


def preimage(t: GroupType, via: str, image: Perm) -> frozenset[Root] | str | None:
    """The ideal (phi) or Dyck word (psi) that ``via`` sends to ``image`` at rank t, or None; phi reads
    a table of all Cat(W) images, psi its path's cell reading (Reading, Trans. AMS 2007) off sort(image)."""
    if via not in ("phi", "psi"):
        raise ValueError(f"no map {via!r}: preimage inverts phi or psi")
    image, fam, n = tuple(image), t.family, t.n
    if len(image) != n:
        return None
    try:
        check_perm(image, fam)
    except ValueError:  # not a signed permutation of rank t
        return None
    if via == "phi":
        x = _inverse_rows(t).get(image)
        return None if x is None else rootposets._ideal_of_rows(t, x)
    keys = _scan(image, signedperm.coxeter_element(fam, n)[1], fam)
    word = paths._word_of_rows(fam, n, _word_starts(((key, 1) for key in keys), n, rootposets.planar_cells(t).caps))
    try:
        return word if (psi_a if fam == "A" else psi_b)(word)[0] == image else None
    except ValueError:  # the rows are not a path
        return None


def _roots(t: GroupType, x) -> list[str]:
    """The roots of the ideal with row starts ``x``, as a failure entry names them."""
    return sorted(map(rootposets.root_str, rootposets._ideal_of_rows(t, x)))


def _rank(t: GroupType) -> tuple:
    """Every path of rank t: the packed area (the sum of cap_j - x_j), maj and descent count, the lanes and
    the row-start columns x_j of ``paths._row_columns``.  Row j > 0 has an E->N corner, adding 2n - j - x_j
    to the maj (doubled in type B, plus twice the east count), where x_j > x_(j-1) and it has a north step:
    type B's rows j >= n have one where x_j < cap_j.  The lanes hold every statistic, up to twice the cell
    count, and B_{n+1}'s entries stored as value + n + 2, so type B's lift runs in them too."""
    n = t.n
    caps = rootposets.planar_cells(t).caps  # raises for type D, which has no row starts
    cols = paths._row_columns(t.family, n)
    lanes = _Lanes(len(cols[0]), max(2 * sum(caps), 2 * n + 4), n + 2)
    xs, one = list(map(lanes.spread, cols)), lanes.one
    norths = [lanes.gt(cap * one, x) for cap, x in zip(caps[n:], xs[n:])]  # type B's rows j >= n
    corners = [lanes.gt(x, prev) & up for prev, x, up in zip(xs, xs[1:], [one] * (n - 1) + norths)]
    maj = sum((2 * n - j) * one - x & m * lanes.full for j, (x, m) in enumerate(zip(xs[1:], corners), 1))
    if t.family == "B":
        maj = 2 * (maj + n * one - sum(norths))
    return sum(caps) * one - sum(xs), maj, sum(corners), lanes, xs


def _phi_lanes(lanes: _Lanes, xs: list[int], t: GroupType) -> list[int]:
    """``_phi_rows`` on every lane at once; ``xs[m]`` holds the lanes' row m starts.

    Returns the images' one-line columns.  As in ``_phi_rows``, row m adds
    a cell to shell k in the lanes where its start is uncovered and
    m - x_m > 2k; a lower row's span (n - m + k, n - x_m - k) starts at a
    point that m and k fix, and type B's upper rows act as one span (0, e),
    with e the largest n - x_m - k over them, as in ``_phi_rows``.
    Each shell scans the points p = 1..n upward, keeping the reach R, the
    right end of the latest span starting below p (right ends grow with
    left ends): a span starting at p starts a block where R < p and adds a
    chain point where R = p, and where R = p and no span starts at p, a
    block ends.  A start or chain point maps to the next chain or end point
    above it, an end to the latest start below it, or, closing the fold
    block, to minus that block's first point.
    """
    n, one, off = t.n, lanes.one, lanes.off
    caps = rootposets.planar_cells(t).caps
    last = len(caps) - 1
    points = [(p + off) * one for p in range(1, n + 1)]
    cols = points[:]
    starts = [lanes.gt(cap * one, x) for cap, x in zip(caps, xs)]
    for m in range(last):  # drop the starts that row m + 1 covers
        starts[m] &= ~lanes.gt(caps[m + 1] * one, xs[m]) | lanes.gt(xs[m + 1], xs[m])
    for k in count():
        act = [s & lanes.gt((m - 2 * k) * one, x) if m > 2 * k else 0 for m, (s, x) in enumerate(zip(starts, xs))]
        if not any(act):
            return cols
        reach = off * one
        for m in range(n + k, last + 1):  # the upper rows' spans reach e
            e = (n - k + off) * one - xs[m]
            reach = lanes.select(act[m] & lanes.gt(e, reach), e, reach)
        opens, ends = [], []  # per point: start or chain point; chain or end point
        for p, at in enumerate(points, 1):
            m = n + k - p
            begins = act[m] if m <= last else 0
            opens.append(begins & ~lanes.gt(reach, at))
            ends.append(lanes.eq(reach, at))
            if begins:
                reach = lanes.select(begins, (n - k + off) * one - xs[m], reach)
        nxt = off * one
        for p in range(n - 1, -1, -1):
            if opens[p]:
                cols[p] = lanes.select(opens[p], nxt, cols[p])
            if ends[p]:
                nxt = lanes.select(ends[p], points[p], nxt)
        prev = 2 * off * one - nxt  # minus the fold block's first point
        for p, at in enumerate(points):
            end, start = ends[p] & ~opens[p], opens[p] & ~ends[p]
            if end:
                cols[p] = lanes.select(end, prev, cols[p])
            if start:
                prev = lanes.select(start, at, prev)


def _nc_lanes(lanes: _Lanes, cols: list[int], family: str) -> int:
    """The mask of the lanes whose element, with one-line columns ``cols``,
    lies in phi's target: [1, c] for c = (1, 2, ..., n) in type A, and
    rev([1, c]) for c = (1, ..., n, -1, ..., -n) in type B.

    Type A reads the arcs p -> u(p) > p: u is in [1, c], the increasing
    non-crossing cycles of Kreweras (1972), exactly when no point inside an
    arc is sent to its start or below, that is, p < q < u(p) implies
    u(q) > p.  That is necessary; for the converse, induct on n.  If
    u(m) = n with m < n, the test sends the points between m and n above m,
    so between them: they carry a smaller element that passes the test, and
    so do 1..m with m sent to u(n) <= m.  Splicing n in after m then closes
    m's increasing cycle over that interval, crossing nothing (if u(n) = n,
    drop n).  Type B (Reiner, 1997) needs
    |u| to pass the test, every negative entry u(p) = -f to close its block
    (f <= p), and no positive arc to span such a block: no q < f has
    u(q) > p.  Each pair of points costs two ``gt``; the scan
    ``noncrossing._nc_scan`` is the oracle.
    """
    one, off = lanes.one, lanes.off
    points = [(p + off) * one for p in range(1, len(cols) + 1)]
    negs = [lanes.gt(off * one, col) for col in cols] if family == "B" else []
    absolute = [lanes.select(m, 2 * off * one - col, col) for m, col in zip(negs, cols)] if negs else cols
    bad = 0
    for p, (a, at) in enumerate(zip(absolute, points)):
        for b, bt in zip(absolute[p + 1:], points[p + 1:]):  # q > p, inside the arc where u(p) > q
            bad |= lanes.gt(a, bt) & ~lanes.gt(b, at)
    for neg, f, at in zip(negs, absolute, points):
        if neg:
            spans = lanes.gt(f, at)
            for col, qt in zip(cols, points):  # q = p adds nothing, as u(p) < 0 < p
                spans |= lanes.gt(f, qt) & lanes.gt(col, at)
            bad |= neg & spans
    return one & ~bad


def _image_keys(lanes: _Lanes, cols: list[int]) -> set:
    """The lanes' distinct images, each as one int key: the low bytes of its
    columns, which hold the stored entries (below 256), eight to a 64-bit
    word.  No wider lane layout is built: the bytes are gathered by strided
    slices into one buffer, which is read in place as 64-bit words."""
    width = -(-len(cols) // 8) * 8  # key bytes per lane
    key = bytearray(width * lanes.count)
    for i, col in enumerate(cols):
        key[i::width] = lanes.low_bytes(col)
    words, step = memoryview(key).cast("Q"), width // 8
    return set(reduce(lambda high, word: map(add, word, map(lshift, high, repeat(64))),
                      [words[j::step] for j in reversed(range(step))]))


def _psi_lanes(lanes: _Lanes, xs: list[int], n: int) -> tuple[list[int], dict]:
    """``_psi`` on every lane at once; ``xs[j]`` holds the lanes' row j starts.

    Factor f reads the lower diagonal j - i = f, letters n-1 down to f, then
    (when ``xs`` has upper rows) the upper column i = n - f, letters f-1
    down to 0: each letter once, in the order of the Coxeter word, emitted
    in the lanes where x_j <= i.  Returns the images' one-line columns and
    the emitted masks, keyed by (factor, letter) in reading order.

    A lane's word needs no cut at its first empty factor, since every later
    factor is empty too: a cell of factor f + 1 puts one in factor f.  A
    lower cell (i, j), j - i = f + 1, has its right neighbour (i + 1, j) on
    diagonal f.  An upper cell (n-f-1, j) has (n-f, j) in column n - f, or,
    when that is past row j's cap, j = n + f and x_(n-1) <= x_j <= n-f-1,
    so (n-f-1, n-1) is a cell of diagonal f.
    """
    one = lanes.one
    cols = [(v + lanes.off) * one for v in range(1, n + 1)]
    word = {}
    for f in range(1, n + 1):
        cells = [(n - 1 - i, i + 1, xs[i + f]) for i in range(n - f)]
        cells += [(n + f - 1 - j, n - f + 1, xs[j]) for j in range(n, min(n + f, len(xs)))]
        for s, c, x in cells:
            m = lanes.gt(c * one, x)
            if m:
                word[f, s] = m
                lanes.act(cols, s, m)
    return cols, word


def _lane_stats(lanes: _Lanes, cols: list[int], family: str) -> tuple:
    """The inverse columns, valid lanes, l_S, maj, imaj, descent and
    inverse-descent masks (positions 1..n-1) and neg of the lanes' elements,
    by the formulas of ``signedperm.length_s`` and ``maj``.  A lane is valid
    when each of 1..n stands, with a sign in type B, in some column."""
    one, off = lanes.one, lanes.off
    q, valid = [], one
    for a in range(1, len(cols) + 1):
        hit = pos = 0
        for i, col in enumerate(cols, 1):
            for sign in (1, -1) if family == "B" else (1,):
                e = lanes.eq(col, (sign * a + off) * one)
                hit |= e
                pos |= e * (sign * i + off)
        valid &= hit
        q.append(pos)
    length = sum(lanes.gt(a, b) for k, a in enumerate(cols) for b in cols[k + 1:])
    dms, ims = ([lanes.gt(a, b) for a, b in zip(c, c[1:])] for c in (cols, q))
    dsum, isum = (sum(i * m for i, m in enumerate(ms, 1)) for ms in (dms, ims))
    if family == "A":
        return q, valid, length, dsum, isum, dms, ims, 0
    neg_masks = [lanes.gt(off * one, col) for col in cols]
    negs = sum(neg_masks)
    length += off * negs - sum(col & m * lanes.full for col, m in zip(cols, neg_masks))  # minus the negative entries
    return q, valid, length, 2 * dsum + negs, 2 * isum + negs, dms, ims, negs


def _sort_lanes(lanes: _Lanes, q: list[int], c_word, word: dict) -> int:
    """``sortable._scan`` on every lane at once, from the inverse columns
    ``q``, checked as it goes against ``word``, masks keyed as in
    ``_psi_lanes``: the mask of the lanes where a pass takes a letter that
    ``word`` lacks or leaves one that ``word`` holds, keys past the last
    pass included.  No word is built: ``word``'s keys are popped from a
    shallow copy as the scan visits them, and what is left is or-ed in."""
    q, left, wrong = list(q), dict(word), 0
    for f in count(1):
        consumed = 0
        for s in c_word:
            m = lanes.gt(q[s - 1], q[s]) if s else lanes.gt(lanes.off * lanes.one, q[0])
            wrong |= m ^ left.pop((f, s), 0)
            if m:
                consumed |= m
                lanes.act(q, s, m)
        if not consumed:
            return reduce(or_, left.values(), wrong)


def _falling(lanes: _Lanes, xs: list[int]) -> bool:
    """Whether the lanes hold distinct paths in the prefix tree's order, each above the next at their first
    differing row.  The next lane's starts are x >> bits in a little-endian lane layout, which this needs."""
    tied, above = lanes.one, 0
    for x in xs:
        above, tied = above | tied & lanes.gt(x, x >> lanes.bits), tied & lanes.eq(x, x >> lanes.bits)
    return above == lanes.one >> lanes.bits  # every lane but the last


def _repeats(images: list) -> set[int]:
    """The lanes whose image an earlier lane already has."""
    seen: set = set()
    return {k for k, image in enumerate(images) if image in seen or seen.add(image)}


# what the failure entry of each check names, of the names its verifier reads
_NAMES = {
    "length": ("ideal", "word", "image"),
    "sorting-word": ("word", "emitted"),
    "maj-identity": ("ideal", "word", "total"),
    "des-sum": ("ideal",),
    "last-descent": ("word", "image"),
    "neg-sum": ("word", "image"),
    "ides-split": ("word",),
    "imaj-split": ("word",),
    "injectivity": ("image",),
}


def _emit(report: dict, bad: dict, **read) -> None:
    """Report the failing lanes in stream order, each with its checks in
    ``bad``'s order, naming what ``_NAMES`` lists by ``read[name](lane)``."""
    for k in sorted(set().union(*bad.values())):
        for check, failed in bad.items():
            if k in failed:
                _fail(report, check, **{name: read[name](k) for name in _NAMES[check] if name in read})


def verify_phi_theorems(t: GroupType) -> dict:
    """Exhaustively check the shelling bijection and its statistics at rank t.

    Every check runs on all the ideals at once, in ``_rank``'s lanes:
    ``_phi_lanes`` builds the images, each statistic is a lane sum compared
    with the packed size, maj or descent count, and the type-B lift is
    ``_phi_lanes`` at the next rank on the rows padded with two filled
    bottom rows.  The image set is rev([1, c]) when every lane passes the
    arc test ``_nc_lanes`` (type A: p < q < u(p) implies u(q) > p;
    type B: |u| passes that test, and each negative entry u(p) = -f has
    f <= p and no positive arc over [f, p]), the lanes' keys
    (``_image_keys``) are distinct, and there are Cat(W) lanes: Cat(W)
    distinct elements of rev([1, c]) are all of it, since |NC(W)| = Cat(W).
    Only when a check fails are the images read out as tuples, [1, c]
    scanned and each failing lane decoded into its ideal.
    """
    fam, n = t.family, t.n
    area, path_maj, path_des, lanes, xs = _rank(t)
    two_n = 2 * sum(rootposets.planar_cells(t).caps)  # twice the cell count
    report = _report(f"phi{fam}", t.rank, lanes.count)
    one = lanes.one
    cols = _phi_lanes(lanes, xs, t)
    _, valid, length, sigma_maj, sigma_imaj, dms, ims, _ = _lane_stats(lanes, cols, fam)
    total = path_maj + sigma_maj + sigma_imaj
    bad = {"length": lanes.differ(length, area), "maj-identity": lanes.differ(total, two_n * one)}
    if fam == "A":
        bad["des-sum"] = lanes.differ(path_des + sum(dms), (n - 1) * one)
    failed = set()
    if fam == "B":
        lifted = _phi_lanes(lanes, [0, 0] + xs, GroupType("B", t.rank + 1))
        failed = lanes.differ(reduce(or_, map(xor, lifted, cols + [one])))  # then -(n + 1), stored as 1
    # Cat(W) distinct images in the target are all of it, since |NC(W)| = Cat(W)
    if (valid == one and not any(bad.values()) and not failed and (fam == "B" or sum(dms) == sum(ims))
            and lanes.count == cat_number(t) and _nc_lanes(lanes, cols, fam) == one
            and len(_image_keys(lanes, cols)) == lanes.count):
        return report
    images, rows = list(zip(*map(lanes.values, cols))), list(zip(*map(lanes.unpack, xs)))
    for k in sorted(lanes.differ(valid, one)):
        check_perm(images[k], fam)  # raises for the first element that is not a signed permutation
    lane_of = {image: k for k, image in enumerate(images)}  # each image's last lane, by first appearance
    bad["injectivity"] = _repeats(images)
    if any(bad.values()):
        totals = lanes.unpack(total)
        _emit(report, bad, ideal=lambda k: _roots(t, rows[k]), image=images.__getitem__, total=totals.__getitem__)
    target = set(_nc_scan(fam, n, under_rev=True))
    if lane_of.keys() != target:
        _fail(report, "image-set", missing=sorted(target - lane_of.keys())[:3])
    if fam == "A" and (sum(dms) != sum(ims) or lane_of.keys() != target):
        order = list(target)  # a target element that is not an image is read here
        tl = _Lanes(len(order), lanes.bound, lanes.off)
        _, _, _, _, _, dms, ims, _ = _lane_stats(tl, [tl.pack(map(tl.off.__add__, col)) for col in zip(*order)], fam)
        for k in sorted(tl.differ(sum(dms), sum(ims))):
            _fail(report, "des-ides", image=order[k])
    if failed:
        for k in filter(failed.__contains__, lane_of.values()):
            _fail(report, "lift-identity", ideal=_roots(t, rows[k]))
    return report


def verify_psi_theorems(t: GroupType) -> dict:
    """Exhaustively check the cell-reading bijection and its statistics.

    Every check runs on all the paths at once, in ``_rank``'s lanes:
    ``_psi_lanes`` builds the images and their words once, the greedy scan
    ``_sort_lanes`` on the images must take exactly the emitted letters,
    checked in place, and each statistic is a lane sum compared with the
    packed area, maj or east count.  Once the scan agrees in every lane,
    the emitted words' decode must read back every lane's row starts.
    Only a failing lane is decoded into its path, image and word.
    """
    fam, n = t.family, t.n
    area, path_maj, _, lanes, xs = _rank(t)
    caps = rootposets.planar_cells(t).caps
    two_n = 2 * sum(caps)  # twice the cell count, that is, of the positive roots
    report = _report(f"psi{fam}", t.rank, lanes.count)
    c_word = signedperm.coxeter_element(fam, n)[1]
    one, off = lanes.one, lanes.off
    cols, word = _psi_lanes(lanes, xs, n)
    q, _, length, sigma_maj, sigma_imaj, dms, ims, negs = _lane_stats(lanes, cols, fam)
    unnested = (m & ~word.get((f - 1, s), 0) for (f, s), m in word.items() if f > 1)  # a letter the factor before lacks
    unsorted = reduce(or_, unnested, _sort_lanes(lanes, q, c_word, word))
    total = path_maj + sigma_maj + sigma_imaj
    bad = {
        "length": lanes.differ(length, area) | lanes.differ(sum(word.values()), area),
        "sorting-word": lanes.differ(unsorted),
        "maj-identity": lanes.differ(total, two_n * one),
    }
    if fam == "A":
        k = n * one - xs[n - 1]  # the east steps after the last north step
        run, prefix = one, one  # prefix: 1 + how many of the descents 1, 2, ... come first
        for m in dms:
            run &= m
            prefix += run
        bad["last-descent"] = lanes.differ(q[0], k + off * one) | lanes.differ(prefix, k)  # sigma(k) = 1
    else:
        uppers = sum(lanes.gt(cap * one, x) for x, cap in zip(xs[n:], caps[n:]))  # n minus the east steps
        _, _, _, _, lower_imaj, _, lower_ims, _ = _lane_stats(lanes, _psi_lanes(lanes, xs[:n], n)[0], "B")
        bad["neg-sum"] = lanes.differ(negs, uppers)
        bad["ides-split"] = lanes.differ(reduce(or_, map(xor, ims, lower_ims), 0))
        bad["imaj-split"] = lanes.differ(sigma_imaj, lower_imaj + negs)
    # With the sorting-word check clean, the scan's words are the emitted ones.  Images whose sorting
    # words read back their lanes' row starts are distinct when those are, and Cat(W) distinct images
    # that passed the sorting-word check are all of Sort(W, c), of Cat(W) elements.
    if not any(bad.values()) and lanes.count == cat_number(t) and _falling(lanes, xs) and _word_starts(word.items(), n, caps, one) == xs:
        return report
    images = list(zip(*map(lanes.values, cols)))
    bad["injectivity"] = _repeats(images)
    if any(bad.values()):
        fields, totals, rows = {key: lanes.unpack(m) for key, m in word.items()}, lanes.unpack(total), list(zip(*map(lanes.unpack, xs)))
        _emit(report, bad, word=lambda k: paths._word_of_rows(fam, n, rows[k]), total=totals.__getitem__,
              image=images.__getitem__, emitted=lambda k: str(SortingWord.of(key for key, bits in fields.items() if bits[k])))
    distinct = set(images)
    if bad["sorting-word"] or len(distinct) != cat_number(t):
        target = {w for w, _ in _sortable_tree(t, c_word)}
        if distinct != target:
            _fail(report, "image-set", missing=sorted(target - distinct)[:3])
    return report
