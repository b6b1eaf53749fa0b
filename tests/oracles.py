"""Slow reference implementations that the tests compare the library against.

The whole group, walked one element at a time (``enumerate_group``), and
its order by the factorial formulas of types A, B and D (``group_order``),
against the product of the degrees ``qseries.degrees``.  The package
builds only Catalan-sized objects, so every test that ranges over the
whole group walks it here.

Reflection length by breadth-first search over the whole group: the
distance from the identity in the Cayley graph whose generators are all the
reflections (``reflections``, the list of them in types A, B and D).  It
costs the group order, so it is guarded and used only at small rank,
against the cycle formula ``signedperm.length_t``.

The interval [1, c] walked down from c, one level of l_T at a time
(``nc_walk``), against ``noncrossing.nc_elements``: the scan in types A
and B, the sortable tree in type D and the conjugated default interval for
any other c.

The phi verifier on frozensets: every ideal from ``rootposets.ideals``, its
statistics from ``ideal_maj``/``ideal_des`` and its lift from
``lift_delta``, against the row-start verifier ``bijmaps.verify_phi_theorems``.

The phi and psi verifiers one path at a time, as they ran before the
lanes: each image from the row kernels ``_phi_rows``/``_psi``, checked by
``check_perm`` and read by ``stats`` and the sorting scan, against the
lane verifiers ``bijmaps.verify_phi_theorems``/``verify_psi_theorems``.

The verifiers' paths one at a time: ``row_stream``, a depth-first pass with
one leaf per path and its row starts, area, maj and descent count, against
the byte columns of ``paths._row_columns`` and the lanes of
``bijmaps._rank``.

The psi verifier on words: every Dyck word from ``paths.enumerate_a/b``,
its statistics from the per-word ``area``/``maj``/``neg_b`` and its lower
part from ``split_lower_upper``, against the row-start verifier
``bijmaps.verify_psi_theorems``.

phi's row kernel by span lists: every shell's spans and mirrors, sorted
and read block by block, against the streaming walk
``bijmaps._phi_rows``.  The old readers beside it: the north columns of an
unchecked word and the Dyck check that reads a word three times
(``check_dyck``, ``is_dyck_a``/``is_dyck_b``), against the one-pass
``paths._dyck_columns``, the inversion count over all pairs, against the
insertion count ``inv_word``, which checks the bit count in
``signedperm.length_s``, the permutation check by
absolute values, against ``signedperm.check_perm`` and its type-A
shortcut, and the one-statistic helpers ``neg``, ``des_set``, ``des``,
``ides_set`` and ``ides``, against ``stats``, the one-pass reading of all
of an element's statistics that the verifiers' lanes are checked against.

The area and maj polynomials by a depth-first pass with one leaf per
path, and by a pass over the lattice points step by step on coefficient
lists, against the packed fold up the paths' prefix tree
``paths._stat_counts``, and the palindromicity
test one coefficient at a time, against ``qseries.is_palindromic``.

The cell sets of a path (``cells_a``/``cells_b``) and its descent set,
against the area and maj that ``paths`` reads off the north columns, and
the inverse tables of phi over every ideal and of psi over every word,
against ``bijmaps.preimage``: phi's table of row starts, and psi's
reading of a path off its image's sorting word.

The frozenset root poset ``RootPoset``: covers by an all-pairs scan of
the root vectors against its own list of simple roots, ideals by
backtracking, down-sets, the ideal test and antichain closure, and the
non-ideal message read off its cover lists, against the bitmask poset
``rootposets._poset``, its ideal masks and ``_not_ideal_message``.

The product of two polynomials by the schoolbook double loop, against the
packed Kronecker product ``QPoly.__mul__``.

The q-Catalan quotient as one full-length power series: the numerator
prod (1 - q^(d+h)) of degree sum(d + h), divided by every 1 - q^d,
against the paired exact divisions of ``qseries._qcat``.

The reference helpers that only the tests call, each checked against the
library or against a definition: a polynomial's degree and coefficients,
monomials, exact polynomial division and the substitution q -> q^m, path
conjugation, the east count and lower/upper split of a type-B path, the
partition above a path, the root-to-cell maps, an ideal's descent set and
arc partition, the root-poset order, upper covers, maximal elements and
antichains, the non-crossing predicates (a pairwise crossing test and the
type-B partition check), the partition-to-permutation codecs and the
orbits of an element started from each value in turn, which check
``noncrossing.partition_blocks``, absolute order, the sorting-word
parser, a sorting word's letters and its factor chain (the reference for
``sortable._is_sortable``), the walk that tests every candidate with that
scan (the reference for the set of ``sortable._sortable_tree`` and of
``enumerate_sortables``), 231-avoidance, the non-crossing
Coxeter elements (1, ..., n) and (1, ..., n, -1, ..., -n), and the class
of Coxeter elements of D_4 with their intervals conjugated one element at
a time, which check the lanes of ``noncrossing.d4_counterexample``.

Beside the oracles, ``refuse``: the one way a test makes a package
function fail on any call, so that it can show that a run never reaches it.
"""

import importlib
import itertools
import math
import pkgutil
from bisect import bisect_right, insort
from collections import deque
from functools import lru_cache
from itertools import accumulate, combinations
from operator import add, sub

import coxcat
from coxcat import bijmaps, noncrossing, paths, rootposets, signedperm, sortable
from coxcat.noncrossing import rev_nc
from coxcat.qseries import GroupType, InexactDivisionError, QPoly, SizeGuardError, cat_number, check_guard
from coxcat.rootposets import Cell, Root, diff, positive_roots, root_vector, short, sum_root
from coxcat.sortable import SortingWord, c_sorting_word
from coxcat.signedperm import (
    Perm,
    apply_value,
    check_perm,
    identity,
    inverse,
    length_s,
    length_t,
    mul,
    simple_reflection,
    word_to_perm,
)

BFS_ORDER_GUARD = 50_000


def refuse(monkeypatch, name: str) -> None:
    """Rebind ``name``, in every ``coxcat`` module that binds it, to a function
    that raises ``AssertionError``.

    A caller reaches a function through its own module's binding: the
    defining module's, a ``from ... import`` copy or the package's
    re-export, so patching one module can miss the call.  At least one
    module must bind ``name``, so a refusal cannot outlive a rename and
    check nothing.
    """

    def refused(*args, **kwargs):
        raise AssertionError(f"refused call to {name}")

    modules = [coxcat] + [importlib.import_module(f"coxcat.{m.name}") for m in pkgutil.iter_modules(coxcat.__path__)]
    bound = [m for m in modules if name in vars(m)]
    assert bound, f"no coxcat module binds {name}"
    for m in bound:
        monkeypatch.setattr(m, name, refused)


def group_order(family: str, n: int) -> int:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if family == "A":
        return math.factorial(n)
    if family == "B":
        return math.factorial(n) << n
    if family == "D":
        return math.factorial(n) << (n - 1)
    raise ValueError(f"unknown family {family!r}")


def enumerate_group(family: str, n: int):
    """Iterate the whole group, deterministically."""
    if family == "A":
        yield from itertools.permutations(range(1, n + 1))
        return
    for base in itertools.permutations(range(1, n + 1)):
        for mask in range(1 << n):
            if family == "D" and mask.bit_count() % 2:
                continue
            yield tuple(-v if mask >> i & 1 else v for i, v in enumerate(base))


def reflections(family: str, n: int) -> list[Perm]:
    """All reflections: transpositions, sign-swapping pairs, and (B only) sign flips."""
    out = []
    ident = list(range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            t = ident.copy()
            t[i - 1], t[j - 1] = j, i
            out.append(tuple(t))
            if family in ("B", "D"):
                t = ident.copy()
                t[i - 1], t[j - 1] = -j, -i
                out.append(tuple(t))
    if family == "B":
        for i in range(1, n + 1):
            t = ident.copy()
            t[i - 1] = -i
            out.append(tuple(t))
    return out


@lru_cache(maxsize=None)
def _abs_length_table(family: str, n: int) -> dict[Perm, int]:
    if group_order(family, n) > BFS_ORDER_GUARD:
        raise SizeGuardError(f"group {family}{n} too large for reflection BFS")
    gens = reflections(family, n)
    start = identity(n)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        d = dist[w] + 1
        for t in gens:
            u = mul(w, t)
            if u not in dist:
                dist[u] = d
                queue.append(u)
    return dist


def length_t_bfs(p: Perm, family: str) -> int:
    """Reflection length as graph distance in the full-reflection Cayley graph."""
    check_perm(p, family)
    return _abs_length_table(family, len(p))[p]


def stats(p: Perm, family: str) -> tuple[int, int, int, int, int, int]:
    """l_S, maj, imaj, the descent and inverse-descent sets (bitmasks of
    1-indexed positions) and neg of a checked ``p``, by the formulas of
    ``signedperm.length_s`` and ``maj``, in one pass that counts inversions
    as ``inv_word`` does and builds the inverse: what the verifiers read
    off each image before they read all images at once in lanes."""
    n = len(p)
    q = [0] * n  # the inverse, its positive entries shifted down by one (order kept)
    seen: list[int] = []
    inv = dmask = dsum = drop = idrop = negs = 0  # drop: minus the negative entries' sum; idrop: the inverse's
    prev = -n - 1
    for i, v in enumerate(p):
        inv += i - bisect_right(seen, v)
        insort(seen, v)
        if v > 0:
            q[v - 1] = i
        else:
            q[-v - 1] = ~i
            drop -= v
            negs += 1
            idrop += i + 1
        if prev > v:
            dmask |= 1 << i
            dsum += i
        prev = v
    imask = isum = 0
    for i in range(1, n):
        if q[i - 1] > q[i]:
            imask |= 1 << i
            isum += i
    if family == "A":
        return inv, dsum, isum, dmask, imask, negs
    if family == "B":
        return inv + drop, 2 * dsum + negs, 2 * isum + negs, dmask, imask, negs
    if family == "D":
        return inv + drop - negs, dsum + drop - negs, isum + idrop - negs, dmask, imask, negs
    raise ValueError(f"unknown family {family!r}")


def verify_phi_theorems_rows(t: GroupType) -> dict:
    """``bijmaps.verify_phi_theorems`` one path at a time: the shell walk,
    ``check_perm`` and ``stats`` per image, against the verifier's lanes."""
    fam, n = t.family, t.n
    two_n = 2 * sum(rootposets.planar_cells(t).caps)
    report = bijmaps._report(f"phi{fam}", t.rank)
    fail, roots = bijmaps._fail, bijmaps._roots
    images = {}
    masks = {}  # type A: each image's descent and inverse-descent masks
    for x, area, path_maj, descents in row_stream(fam, n):
        report["checked"] += 1
        sigma = bijmaps._phi_rows(t, x)
        check_perm(sigma, fam)
        length, sigma_maj, sigma_imaj, dmask, imask, _ = stats(sigma, fam)
        if length != area:
            fail(report, "length", ideal=roots(t, x), image=sigma)
        total = path_maj + sigma_maj + sigma_imaj
        if total != two_n:
            fail(report, "maj-identity", ideal=roots(t, x), total=total)
        if fam == "A":
            if descents + dmask.bit_count() != n - 1:
                fail(report, "des-sum", ideal=roots(t, x))
            masks[sigma] = dmask, imask
        if sigma in images:
            fail(report, "injectivity", image=sigma)
        images[sigma] = x
    scan = bijmaps._nc_scan
    target = set(scan("A", n)) if fam == "A" else {signedperm.rev(w) for w in scan(fam, n)}
    if images.keys() != target:
        fail(report, "image-set", missing=sorted(target - images.keys())[:3])
    if fam == "A":
        for sigma in target:
            dmask, imask = masks[sigma] if sigma in masks else stats(sigma, fam)[3:5]
            if dmask.bit_count() != imask.bit_count():
                fail(report, "des-ides", image=sigma)
    if fam == "B":
        big = GroupType("B", t.rank + 1)
        for sigma, x in images.items():
            if bijmaps._phi_rows(big, (0, 0) + x) != sigma + (-(n + 1),):
                fail(report, "lift-identity", ideal=roots(t, x))
    return report


def verify_psi_theorems_rows(t: GroupType) -> dict:
    """``bijmaps.verify_psi_theorems`` one path at a time: ``_psi``,
    ``check_perm``, ``stats`` and the sorting scan per image, against the
    verifier's lanes."""
    fam, n = t.family, t.n
    caps = rootposets.planar_cells(t).caps
    two_n = 2 * sum(caps)
    report = bijmaps._report(f"psi{fam}", t.rank)
    fail = bijmaps._fail
    c_word = signedperm.coxeter_element(fam, n)[1]
    images = set()
    unsorted = False
    for x, area, path_maj, _ in row_stream(fam, n):
        report["checked"] += 1
        word = paths._word_of_rows(fam, n, x)
        sigma, sw = bijmaps._psi(x, n, fam)
        check_perm(sigma, fam)
        length, sigma_maj, sigma_imaj, dmask, imask, negs = stats(sigma, fam)
        if length != area or len(sw) != area:
            fail(report, "length", word=word, image=sigma)
        if sortable._sorting_word(sigma, c_word, fam) != sw or not is_sortable_chain(sw):
            fail(report, "sorting-word", word=word, emitted=str(sw))
            unsorted = True
        total = path_maj + sigma_maj + sigma_imaj
        if total != two_n:
            fail(report, "maj-identity", word=word, total=total)
        if fam == "A":
            k = n - x[n - 1]
            full = (1 << k) - 2
            if sigma[k - 1] != 1 or dmask & full != full:
                fail(report, "last-descent", word=word, image=sigma)
        else:
            easts = n - sum(a < cap for a, cap in zip(x[n:], caps[n:]))
            if easts + negs != n:
                fail(report, "neg-sum", word=word, image=sigma)
            sigma1, _ = bijmaps._psi(x[:n], n, "A")
            check_perm(sigma1, "B")
            _, _, lower_imaj, _, lower_imask, _ = stats(sigma1, "B")
            if imask != lower_imask:
                fail(report, "ides-split", word=word)
            if sigma_imaj != lower_imaj + negs:
                fail(report, "imaj-split", word=word)
        if sigma in images:
            fail(report, "injectivity", image=sigma)
        images.add(sigma)
    if unsorted or len(images) != cat_number(t):
        target = set(sortable_walk(t, c_word))
        if images != target:
            fail(report, "image-set", missing=sorted(target - images)[:3])
    return report


def verify_phi_theorems_frozensets(t: GroupType) -> dict:
    """``bijmaps.verify_phi_theorems`` on the frozenset ideals of ``t``."""
    fam, n = t.family, t.n
    two_n = n * (n - 1) if fam == "A" else 2 * n * n
    report = bijmaps._report(f"phi{fam}", t.rank)
    fail = bijmaps._fail
    images = {}
    for ideal in rootposets.ideals(t):
        report["checked"] += 1
        sigma = bijmaps.phi(t, ideal)
        if signedperm.length_s(sigma, fam) != len(ideal):
            fail(report, "length", ideal=sorted(map(rootposets.root_str, ideal)), image=sigma)
        total = (
            rootposets.ideal_maj(t, ideal)
            + signedperm.maj(sigma, fam)
            + signedperm.imaj(sigma, fam)
        )
        if total != two_n:
            fail(report, "maj-identity", ideal=sorted(map(rootposets.root_str, ideal)), total=total)
        if fam == "A":
            if len(ideal_des(t, ideal)) + des(sigma) != n - 1:
                fail(report, "des-sum", ideal=sorted(map(rootposets.root_str, ideal)))
        if sigma in images:
            fail(report, "injectivity", image=sigma)
        images[sigma] = ideal
    target = set(rev_nc(t))
    if set(images) != target:
        fail(report, "image-set", missing=sorted(target - set(images))[:3])
    if fam == "A":
        for sigma in target:
            if des(sigma) != ides(sigma):
                fail(report, "des-ides", image=sigma)
    if fam == "B":
        big = GroupType("B", t.rank + 1)
        for sigma, ideal in images.items():
            lifted = bijmaps.phi(big, rootposets.lift_delta(t, ideal))
            if lifted != sigma + (-(n + 1),):
                fail(report, "lift-identity", ideal=sorted(map(rootposets.root_str, ideal)))
    return report


def verify_psi_theorems_words(t: GroupType) -> dict:
    """``bijmaps.verify_psi_theorems`` on the Dyck words of ``t``."""
    fam, n = t.family, t.n
    two_n = n * (n - 1) if fam == "A" else 2 * n * n
    report = bijmaps._report(f"psi{fam}", t.rank)
    fail = bijmaps._fail
    words = paths.enumerate_a(n) if fam == "A" else paths.enumerate_b(n)
    c_word = signedperm.coxeter_element(fam, n)[1]
    images = {}
    for word in words:
        report["checked"] += 1
        sigma, sw = (bijmaps.psi_a if fam == "A" else bijmaps.psi_b)(word)
        area = paths.area_a(word) if fam == "A" else paths.area_b(word)
        if signedperm.length_s(sigma, fam) != area or len(sw) != area:
            fail(report, "length", word=word, image=sigma)
        if c_sorting_word(sigma, c_word, fam) != sw or not is_sortable_chain(sw):
            fail(report, "sorting-word", word=word, emitted=str(sw))
        maj_d = paths.maj_a(word) if fam == "A" else paths.maj_b(word)
        total = maj_d + signedperm.maj(sigma, fam) + signedperm.imaj(sigma, fam)
        if total != two_n:
            fail(report, "maj-identity", word=word, total=total)
        if fam == "A":
            easts_after = len(word) - word.rindex("N") - 1 if "N" in word else 0
            if easts_after:
                k = easts_after
                if sigma[k - 1] != 1 or not set(range(1, k)) <= des_set(sigma):
                    fail(report, "last-descent", word=word, image=sigma)
        else:
            if neg_b(word) + neg(sigma) != n:
                fail(report, "neg-sum", word=word, image=sigma)
            lower, _ = split_lower_upper(word)
            sigma1, _ = bijmaps.psi_a(lower)
            if ides_set(sigma) != ides_set(sigma1):
                fail(report, "ides-split", word=word)
            if signedperm.imaj(sigma, "B") != signedperm.imaj(sigma1, "B") + neg(sigma):
                fail(report, "imaj-split", word=word)
        if sigma in images:
            fail(report, "injectivity", image=sigma)
        images[sigma] = word
    target = set(sortable_walk(t, c_word))
    if set(images) != target:
        fail(report, "image-set", missing=sorted(target - set(images))[:3])
    return report


# -- q-series ------------------------------------------------------------------


def mul_schoolbook(p: QPoly, q: QPoly) -> QPoly:
    """The product by the double loop over the coefficients, against the
    packed Kronecker product ``QPoly.__mul__``."""
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return QPoly()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return QPoly(out)


def degree(p: QPoly) -> int:
    """The degree of ``p``; -1 for the zero polynomial."""
    return len(p.coeffs) - 1


def coeff(p: QPoly, k: int) -> int:
    """The coefficient of q^k in ``p``, 0 outside its terms."""
    return p.coeffs[k] if 0 <= k < len(p.coeffs) else 0


def monomial(exponent: int, coefficient: int = 1) -> QPoly:
    """The polynomial coefficient * q^exponent."""
    if exponent < 0:
        raise ValueError("negative exponent")
    return QPoly((0,) * exponent + (coefficient,))


def divexact(p: QPoly, d: QPoly) -> QPoly:
    """The exact quotient p / d by long division; raises InexactDivisionError otherwise."""
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p.coeffs)
    ds = d.coeffs
    lead = ds[-1]
    if len(rem) < len(ds):
        if any(rem):
            raise InexactDivisionError(f"{p} not divisible by {d}")
        return QPoly()
    quot = [0] * (len(rem) - len(ds) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(ds) - 1]
        if c % lead:
            raise InexactDivisionError(f"{p} not divisible by {d}")
        quot[k] = c // lead
        if quot[k]:
            for j, y in enumerate(ds):
                rem[k + j] -= quot[k] * y
    if any(rem):
        raise InexactDivisionError(f"{p} not divisible by {d}")
    return QPoly(quot)


def series_qcat(ds, h) -> QPoly:
    """prod [d + h]_q / [d]_q = prod (1 - q^(d+h)) / (1 - q^d) over the degrees d.

    Multiplying by 1 - q^m subtracts the coefficient m places down; dividing
    by 1 - q^d, as a power series, takes running sums along each residue
    class mod d.  With prod (1 - q^d) of degree D and constant term 1, the
    truncated series is the quotient iff its top D coefficients, those past
    h * len(ds), are zero.  Raises InexactDivisionError otherwise.
    """
    if any(d < 1 for d in ds):
        raise ZeroDivisionError("division by [0]_q = 0")
    cs = [1] + [0] * sum(d + h for d in ds)
    for d in ds:
        m = d + h
        cs[m:] = map(sub, cs[m:], cs[:-m])
    for d in ds:
        for r in range(d):
            cs[r::d] = accumulate(cs[r::d])
    cut = h * len(ds) + 1
    if any(cs[cut:]):
        raise InexactDivisionError(f"prod [d + {h}]_q / [d]_q over d in {tuple(ds)} is not a polynomial")
    return QPoly(cs[:cut])


def substitute_power(p: QPoly, m: int) -> QPoly:
    """The polynomial with q replaced by q^m."""
    if m < 1:
        raise ValueError("power must be >= 1")
    out = [0] * (m * degree(p) + 1) if p.coeffs else []
    for i, c in enumerate(p.coeffs):
        out[m * i] = c
    return QPoly(out)


def is_palindromic_loop(p: QPoly, center: int) -> bool:
    """coeff(k) == coeff(center - k) for every k up to max(degree, center), one
    ``coeff`` call at a time; the oracle for ``qseries.is_palindromic``."""
    top = max(degree(p), center)
    return all(coeff(p, k) == coeff(p, center - k) for k in range(0, top + 1))


# -- phi's span reader ----------------------------------------------------------


def phi_rows_spans(t: GroupType, x) -> Perm:
    """``bijmaps._phi_rows`` by span lists: each shell's spans and their
    mirrors are listed, sorted, split into blocks and read into cycles.

    Row m's start is in the first shell unless row m + 1 covers it, and it
    adds the cell (x_m + k, m - k) to shell k while that cell stays left of
    its row's cap.  Cell (i, j) spans (v(j), v(i)), where v(j) is n - j
    for j < n and n - j - 1 past it; type B adds the mirror span
    (-v(i), -v(j)) unless it is the same one.
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


def _span_cycles(spans: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The cycles of a shell, given its spans sorted by left endpoint.

    The spans split into blocks wherever the previous right endpoint is
    strictly smaller than the next left endpoint; inside a block every
    touching pair contributes a chain point.  A block fixed by negation
    yields the sign-crossing cycle on its positive endpoints, and of a
    mirror pair of blocks only the positive one is read.
    """
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


# -- paths ---------------------------------------------------------------------


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


def check_dyck(word: str, family: str) -> int:
    """The semilength of a type-``family`` Dyck word, by the three reads of
    ``is_dyck_a``/``is_dyck_b``; the reference for ``paths._dyck_columns``."""
    ok = is_dyck_a(word) if family == "A" else is_dyck_b(word)
    if not ok:
        raise ValueError(f"not a type-{family} Dyck word: {word!r}")
    return len(word) // 2


def cells_a(word: str) -> frozenset[Cell]:
    """Cells (i, j), 0 <= i < j < n, strictly below the path and above the diagonal."""
    return _cells(word, "A")


def cells_b(word: str) -> frozenset[Cell]:
    """Cells (i, j), 0 <= i < j <= 2n-1-i, below a type-B path."""
    return _cells(word, "B")


def _cells(word: str, family: str) -> frozenset[Cell]:
    """Row j holds the cells from its north column up to its cap min(j, 2n - j)."""
    xs = paths._dyck_columns(word, family)
    n = len(word) // 2
    return frozenset((i, j) for j, x in enumerate(xs) for i in range(x, min(j, 2 * n - j)))


def descent_set(word: str) -> set[int]:
    """1-indexed positions i with an east step followed by a north step (N < E)."""
    return {i + 1 for i in range(len(word) - 1) if word[i] == "E" and word[i + 1] == "N"}


def north_columns(word: str) -> list[int]:
    """x-coordinate (number of earlier east steps) of the north step in each row."""
    xs = []
    easts = 0
    for c in word:
        if c == "N":
            xs.append(easts)
        else:
            easts += 1
    return xs


def row_stream(family: str, n: int) -> list[tuple[tuple[int, ...], int, int, int]]:
    """Row starts, area, maj and descent count of every type-``family`` path of 2n steps,
    against ``paths._row_columns`` and the lanes ``bijmaps._rank`` reads off its columns.

    A depth-first pass with one leaf per path (E before N): it adds up area
    and maj step by step as ``stat_counts_dfs`` does, keeps the north
    columns and counts the E->N steps.  Row j starts at the east count of
    its north step; a row with no north step (type B, j past the last one)
    starts at its cap.  Returns the leaves ``(starts, area, maj,
    descents)`` in path order; the starts are a tuple of n (type A) or 2n
    (type B) entries.
    """
    total = 2 * n
    caps = paths._caps(family, n)
    top = len(caps)
    x = list(caps)
    double = family == "B"
    leaves = []

    def rec(norths: int, easts: int, after_east: bool, a: int, m: int, d: int):
        if norths == top or norths + easts == total:
            leaves.append((tuple(x), a, 2 * (m + total - norths) if double else m, d))
            return
        if easts < norths:
            rec(norths, easts + 1, True, a, m, d)
        x[norths] = easts
        rec(
            norths + 1, easts, False, a + caps[norths] - easts,
            m + total - norths - easts if after_east else m, d + after_east,
        )
        x[norths] = caps[norths]

    rec(0, 0, False, 0, 0, 0)
    return leaves


def stat_counts_dfs(family: str, n: int) -> tuple[QPoly, QPoly]:
    """The area and maj polynomials by a depth-first pass with one leaf per path.

    A north step in row j adds the cap_j - easts cells to its right, and a
    north step at 0-indexed position p after an east step closes a descent
    worth 2n - p; a type-B leaf doubles the maj and the east count, as
    ``maj_b`` does.  An oracle for the prefix-tree fold
    ``paths._stat_counts``, which reads rows, not steps.
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


def stat_counts_lists(family: str, n: int) -> tuple[QPoly, QPoly]:
    """The area and maj polynomials by one pass over the lattice points, step
    by step, with the tallies kept as coefficient lists, each step an
    element-by-element shifted add.

    This is the pass ``paths._stat_counts`` replaced, before it folded the
    prefix tree of the paths by rows: the prefixes of k steps are grouped
    by their north count and by whether their last step was east.  A north
    step in row j shifts the area by the cap_j - easts cells to its right;
    after an east step it closes a descent at 0-indexed position k, worth
    2n - k to the maj.  A prefix with a north step in every row or with 2n
    steps ends its group's paths, and in type B adds its east count to
    the maj before the doubling.  Its own step and end rules make it an
    oracle for the fold's row terms, as well as for its packing.
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def add_shifted(dst: list[int], src: list[int], shift: int) -> None:
        end = shift + len(src)
        if end > len(dst):
            dst.extend([0] * (end - len(dst)))
        dst[shift:end] = map(add, dst[shift:end], src)

    total = 2 * n
    caps = paths._caps(family, n)
    double = family == "B"
    area: list[int] = []
    maj: list[int] = []
    layer = {(0, False): ([1], [1])}  # (norths, after_east) -> (area tallies, maj tallies)
    for k in range(total + 1):
        grown: dict[tuple[int, bool], tuple[list[int], list[int]]] = {}
        for (norths, after_east), (a, m) in layer.items():
            easts = k - norths
            if norths == len(caps) or k == total:
                add_shifted(area, a, 0)
                add_shifted(maj, m, total - norths if double else 0)
                continue
            steps = [((norths + 1, False), caps[norths] - easts, total - k if after_east else 0)]
            if easts < norths:
                steps.append(((norths, True), 0, 0))
            for key, da, dm in steps:
                ga, gm = grown.setdefault(key, ([], []))
                add_shifted(ga, a, da)
                add_shifted(gm, m, dm)
        layer = grown
    if double:
        maj[1:] = [c for x in maj[1:] for c in (0, x)]
    return QPoly(area), QPoly(maj)


def conjugate_a(word: str) -> str:
    """Reverse the word and swap N with E; an involution on Dyck words."""
    check_dyck(word, "A")
    swap = {"N": "E", "E": "N"}
    return "".join(swap[c] for c in reversed(word))


def neg_b(word: str) -> int:
    """Number of east steps of a type-B path."""
    check_dyck(word, "B")
    return word.count("E")


def split_lower_upper(word: str) -> tuple[str, str]:
    """Split a type-B path into its balanced lower part and the upper suffix.

    The lower part replaces every north step after the n-th by an east
    step; the upper part is the suffix following the n-th north step, and
    is empty when the path is balanced (nothing rises above height n).
    """
    n = check_dyck(word, "B")
    norths = 0
    cut = len(word)
    for pos, c in enumerate(word):
        if c == "N":
            norths += 1
            if norths == n:
                cut = pos + 1
                break
    lower = word[:cut] + word[cut:].replace("N", "E")
    upper = word[cut:] if "N" in word[cut:] else ""
    return lower, upper


def partition_of_path(word: str) -> tuple[int, ...]:
    """The partition above a type-A path inside the staircase, largest part first."""
    xs = paths._dyck_columns(word, "A")
    return tuple(x for x in reversed(xs) if x > 0)


def path_from_partition(lam: tuple[int, ...], n: int) -> str:
    """Inverse of partition_of_path for partitions inside the (n-1, ..., 1) staircase."""
    parts = list(lam) + [0] * (n - len(lam))
    if len(parts) != n or any(parts[i] < parts[i + 1] for i in range(n - 1)):
        raise ValueError("not a weakly decreasing partition fitting the staircase")
    xs = list(reversed(parts))
    if any(x > j for j, x in enumerate(xs)):
        raise ValueError("partition does not fit inside the staircase")
    return paths._word_of_rows("A", n, xs)


@lru_cache(maxsize=None)
def phi_inverse_table(t: GroupType) -> dict[Perm, frozenset[Root]]:
    """Every ideal of ``t`` by its phi image: the reference for ``bijmaps.preimage``."""
    return {bijmaps.phi(t, i): i for i in rootposets.ideals(t)}


@lru_cache(maxsize=None)
def psi_inverse_table(t: GroupType) -> dict[Perm, str]:
    """Every Dyck word of ``t`` by its psi image: the reference for ``bijmaps.preimage``."""
    check_guard("path", t.family, t.n)
    psi, words = (bijmaps.psi_a, paths.enumerate_a) if t.family == "A" else (bijmaps.psi_b, paths.enumerate_b)
    return {psi(w)[0]: w for w in words(t.n)}


# -- root posets ---------------------------------------------------------------


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

    def ideals(self) -> list[frozenset[Root]]:
        """All order ideals, by backtracking along a height linear extension."""
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


def not_ideal_message(t: GroupType, ideal) -> str:
    """The first root in height order that lacks a lower cover, and its lowest missing cover."""
    poset = root_poset(t)
    for r in sorted(ideal, key=poset.index.__getitem__):
        for k in poset.lower_covers[poset.index[r]]:
            if poset.roots[k] not in ideal:
                return (
                    f"not an order ideal of {t.family}{t.rank}: "
                    f"it holds {rootposets.root_str(r)} but not {rootposets.root_str(poset.roots[k])}"
                )
    return f"not a set of distinct roots of {t.family}{t.rank}"


def cell_of_root_a(r: Root, n: int) -> Cell:
    if r[0] != "diff":
        raise ValueError("type A has only difference roots")
    return (n - r[2], n - r[1])


def cell_of_root_b(r: Root, n: int) -> Cell:
    """Planar coordinates of a type-B root: column n-b, diagonal offset k.

    Writing b for the larger index of the root and k for its offset
    (b - a for differences, b for the short root e_b, a + b for sums) the
    cell is (n - b, n - b + k).
    """
    if r[0] == "diff":
        b, k = r[2], r[2] - r[1]
    elif r[0] == "short":
        b, k = r[1], r[1]
    else:
        b, k = r[2], r[1] + r[2]
    return (n - b, n - b + k)


def leq(poset: RootPoset, a: Root, b: Root) -> bool:
    """a <= b in the root poset."""
    return a in poset.down_set(b)


@lru_cache(maxsize=None)
def upper_covers(poset: RootPoset) -> list[list[int]]:
    """Entry i lists the indices of the roots that cover root i, read off ``lower_covers``."""
    out: list[list[int]] = [[] for _ in poset.roots]
    for j, below in enumerate(poset.lower_covers):
        for i in below:
            out[i].append(j)
    return out


def maximal_elements(poset: RootPoset, ideal: frozenset[Root]) -> list[Root]:
    """The maximal roots of an ideal, in the poset's height order."""
    idx = {poset.index[r] for r in ideal}
    above = upper_covers(poset)
    return [poset.roots[i] for i in sorted(idx) if not any(j in idx for j in above[i])]


def is_antichain(poset: RootPoset, rs) -> bool:
    rs = list(rs)
    return all(
        not leq(poset, a, b) and not leq(poset, b, a) for i, a in enumerate(rs) for b in rs[i + 1 :]
    )


def ideal_des(t: GroupType, ideal: frozenset[Root]) -> set[int]:
    """The descent set of the ideal's Dyck path."""
    return descent_set(rootposets.ideal_to_dyck(t, ideal))


def ideal_to_arc_partition_a(t: GroupType, ideal: frozenset[Root]) -> frozenset[frozenset[int]]:
    """The non-nesting set partition whose arcs are the maximal roots."""
    if t.family != "A":
        raise ValueError("arc partitions here are type A only")
    n = t.n
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in maximal_elements(root_poset(t), ideal):
        ra, rb = find(r[1]), find(r[2])
        parent[max(ra, rb)] = min(ra, rb)
    blocks: dict[int, set[int]] = {}
    for x in range(1, n + 1):
        blocks.setdefault(find(x), set()).add(x)
    return frozenset(frozenset(b) for b in blocks.values())


# -- non-crossing partitions ---------------------------------------------------


def order_key_b(v: int) -> tuple[int, int]:
    # -1 < -2 < ... < -n < 1 < 2 < ... < n
    return (0, -v) if v < 0 else (1, v)


Block = frozenset[int]
SetPartition = frozenset[Block]


def check_partition_a(p: SetPartition, n: int) -> None:
    seen: set[int] = set()
    for block in p:
        if not block or seen & block:
            raise ValueError("blocks must be nonempty and disjoint")
        seen |= block
    if seen != set(range(1, n + 1)):
        raise ValueError(f"blocks do not cover 1..{n}")


def check_partition_b(p: SetPartition, n: int) -> None:
    seen: set[int] = set()
    symmetric = 0
    for block in p:
        if not block or seen & block:
            raise ValueError("blocks must be nonempty and disjoint")
        seen |= block
        negated = frozenset(-v for v in block)
        if negated == block:
            symmetric += 1
        elif negated not in p:
            raise ValueError("blocks must close under negation")
    if symmetric > 1:
        raise ValueError("at most one self-negative block is allowed")
    full = set(range(1, n + 1)) | set(range(-n, 0))
    if seen != full:
        raise ValueError(f"blocks do not cover +-1..+-{n}")


def _blocks_cross(x: Block, y: Block) -> bool:
    # crossing iff the merged sequence of block labels alternates 4+ times
    merged = sorted([(v, 0) for v in x] + [(v, 1) for v in y])
    collapsed = [merged[0][1]]
    for _, who in merged[1:]:
        if who != collapsed[-1]:
            collapsed.append(who)
    return len(collapsed) >= 4


def _any_cross(blocks) -> bool:
    return any(_blocks_cross(x, y) for x, y in combinations(blocks, 2))


def is_noncrossing_a(p: SetPartition) -> bool:
    return not _any_cross(p)


def is_noncrossing_b(p: SetPartition, n: int | None = None) -> bool:
    """Crossings judged in the order -1 < -2 < ... < -n < 1 < 2 < ... < n."""
    if n is None:
        n = max(abs(v) for b in p for v in b)
    check_partition_b(p, n)
    # the keys list each block in the same order, so they cross as the blocks do
    return not _any_cross([frozenset(map(order_key_b, b)) for b in p])


def partition_to_perm_a(p: SetPartition, n: int) -> Perm:
    """Blocks become increasing cycles; requires a non-crossing input."""
    check_partition_a(p, n)
    if not is_noncrossing_a(p):
        raise ValueError("partition is crossing")
    out = list(range(1, n + 1))
    for block in p:
        vals = sorted(block)
        for a, b in zip(vals, vals[1:] + vals[:1]):
            out[a - 1] = b
    return tuple(out)


def partition_to_perm_b(p: SetPartition, n: int) -> Perm:
    """Blocks ordered by -1 < -2 < ... < -n < 1 < ... < n become cycles."""
    if not is_noncrossing_b(p, n):
        raise ValueError("partition is crossing")
    send: dict[int, int] = {}
    for block in p:
        vals = sorted(block, key=order_key_b)
        for a, b in zip(vals, vals[1:] + vals[:1]):
            send[a] = b
    if any(send[-v] != -w for v, w in send.items()):
        raise ValueError("blocks are inconsistent under negation")
    perm = tuple(send[i] for i in range(1, n + 1))
    check_perm(perm)
    return perm


def orbit_blocks(p: Perm, family: str) -> list[list[int]]:
    """The orbits of p on 1..n in type A, or on +-1..+-n in type B, each
    sorted, started from the values in increasing order so that each is
    found at its least entry: the reference for
    ``noncrossing.partition_blocks``, which reads them off the cycle walks."""
    n = len(p)
    values = range(1, n + 1) if family == "A" else [v for v in range(-n, n + 1) if v]
    return [sorted(orbit) for orbit in _orbits(p, values)]


def _orbits(p: Perm, values) -> list[set[int]]:
    seen: set[int] = set()
    out = []
    for start in values:
        if start in seen:
            continue
        orbit = {start}
        v = apply_value(p, start)
        while v != start:
            orbit.add(v)
            v = apply_value(p, v)
        seen |= orbit
        out.append(orbit)
    return out


def nc_coxeter_element(family: str, n: int) -> Perm:
    """The Coxeter element (1, 2, ..., n) of type A, or (1, ..., n, -1, ..., -n) of type B.

    It is s_1 s_2 ... s_{n-1} in type A and s_0 s_1 ... s_{n-1} in type B,
    the element whose interval ``noncrossing.nc_elements`` lists by default.
    """
    word = range(1, n) if family == "A" else range(0, n)
    return word_to_perm(tuple(word), n, family)


def nc_walk(t: GroupType, c: Perm) -> list[Perm]:
    """The interval [1, c] below a Coxeter element c, walked down from c
    and listed level by level from c down to the identity.

    w covers w*r, for a reflection r, exactly when l_T drops by one, and
    absolute order is graded, so the closure of {c} under such steps is the
    whole interval.  It costs |[1, c]| times the number of reflections,
    never the group order.
    """
    refl = reflections(t.family, t.n)
    found = {c}
    level = [c]
    out = [c]
    for rank in range(t.rank - 1, -1, -1):
        below = []
        for w in level:
            for r in refl:
                u = mul(w, r)
                if u not in found and length_t(u) == rank:
                    found.add(u)
                    below.append(u)
        out += below
        level = below
    return out


def coxeter_elements_d4() -> tuple[Perm, ...]:
    """The conjugacy class of the standard Coxeter element of D_4, sorted."""
    return tuple(c for c, _ in noncrossing._coxeter_class_d4())


def d4_intervals():
    """Yield (c, [1, c]) for every Coxeter element c of D_4, sorted by c.

    Only [1, c0], the default interval of ``nc_elements``, is built.
    Conjugation by g permutes the reflections and keeps l_T, so it carries
    [1, c0] onto [1, g c0 g^-1]; each interval is listed in the order of
    [1, c0], one element at a time, against the lanes of
    ``noncrossing._conj_lanes``.
    """
    base = noncrossing.nc_elements(GroupType("D", 4))
    for c, g in noncrossing._coxeter_class_d4():
        yield c, [conj(g, w) for w in base]


def conj(g: Perm, w: Perm) -> Perm:
    """g w g^-1 in one pass: it sends g(i) to g(w(i))."""
    out = [0] * len(w)
    for gi, wi in zip(g, w):
        v = apply_value(g, wi)
        out[abs(gi) - 1] = v if gi > 0 else -v
    return tuple(out)


# -- statistics ----------------------------------------------------------------


def check_perm_abs(p: Perm, family: str = "B") -> None:
    """``signedperm.check_perm`` without its type-A shortcut: entry types, then absolute values."""
    if not all(isinstance(v, int) for v in p):
        raise ValueError(f"entries must be integers: {p!r}")
    if sorted(map(abs, p)) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a signed permutation: {p!r}")
    if family == "A" and p and min(p) < 0:
        raise ValueError(f"type A forbids negative entries: {p!r}")
    if family == "D" and sum(1 for v in p if v < 0) % 2:
        raise ValueError(f"type D needs an even number of negatives: {p!r}")


def neg(p: Perm) -> int:
    return sum(1 for v in p if v < 0)


def des_set(w) -> set[int]:
    """1-indexed descent positions of an integer sequence."""
    return {i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]}


def des(p: Perm) -> int:
    return len(des_set(p))


def ides_set(p: Perm) -> set[int]:
    return des_set(inverse(p))


def ides(p: Perm) -> int:
    return des(inverse(p))


def inv_word(w) -> int:
    """Number of pairs i < j with w[i] > w[j], for any integer sequence.

    Each entry is counted against the earlier ones, kept sorted: those
    right of its insertion point are the larger ones.  The reference for
    the bit count of ``signedperm.length_s``.
    """
    seen: list[int] = []
    count = 0
    for a in w:
        count += len(seen) - bisect_right(seen, a)
        insort(seen, a)
    return count


def inv_word_pairs(w) -> int:
    """Number of pairs i < j with w[i] > w[j], by the double loop over the pairs."""
    count = 0
    for i, a in enumerate(w):
        for b in w[i + 1 :]:
            if a > b:
                count += 1
    return count


# -- absolute order and sortability --------------------------------------------


def leq_t(u: Perm, v: Perm) -> bool:
    """Absolute order: l_T(v) == l_T(u) + l_T(u^-1 v)."""
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    return length_t(v) == length_t(u) + length_t(mul(inverse(u), v))


def sortable_walk(t: GroupType, c_word=None) -> list[Perm]:
    """The sortable elements by testing every candidate: walks up the right
    weak order from e by the ascents that are letters of c, runs the
    early-exit scan ``sortable._is_sortable`` on each element it reaches
    and keeps the sortable ones, in the order it reaches them.  The
    reference for the set of ``sortable._sortable_tree`` and of
    ``enumerate_sortables``."""
    family, n = t.family, t.n
    if c_word is None:
        c_word = signedperm.coxeter_element(family, n)[1]
    steps = [simple_reflection(s, n, family) for s in c_word]
    found = [identity(n)]
    seen = set(found)
    for w in found:
        length = length_s(w, family)
        for step in steps:
            u = mul(w, step)  # w times the letter: a step up when it is longer than w
            if u not in seen and length_s(u, family) > length:
                seen.add(u)
                if sortable._is_sortable(u, c_word, family):
                    found.append(u)
    return found


def parse_sorting_word(s: str) -> SortingWord:
    """The sorting word printed by ``str(SortingWord)``: factors of ``s<i>`` letters split by ``|``, or ``e``."""
    s = s.strip()
    if s in ("", "e"):
        return SortingWord(())
    return SortingWord(tuple(tuple(int(tok[1:]) for tok in chunk.split()) for chunk in s.split("|")))


def is_sortable_chain(sw: SortingWord) -> bool:
    """The factors' letter sets weakly decrease, as frozensets: the reference
    for the early-exit bitmask scan ``sortable._is_sortable``."""
    fs = sw.factors
    return all(map(frozenset.issuperset, map(frozenset, fs), fs[1:]))


def letters(sw: SortingWord) -> tuple[int, ...]:
    """The reduced word a sorting word chops into factors, read straight through."""
    return tuple(l for f in sw.factors for l in f)


def avoids_231(p: Perm) -> bool:
    """No indices i < j < k with p[k] < p[i] < p[j]."""
    check_perm(p, "A")
    n = len(p)
    # best: the largest value playing the "2" before position j, given "3" = p[j]
    best = 0
    for j in range(1, n - 1):
        for i in range(j):
            if p[i] < p[j] and p[i] > best:
                best = p[i]
        for k in range(j + 1, n):
            if p[k] < best:
                return False
    return True
