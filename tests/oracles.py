"""Slow reference implementations that the tests compare the library against.

Reflection length by breadth-first search over the whole group: the
distance from the identity in the Cayley graph whose generators are all the
reflections.  It costs the group order, so it is guarded and used only at
small rank, against the cycle formula ``signedperm.length_t``.

The phi verifier on frozensets: every ideal from ``rootposets.ideals``, its
statistics from ``ideal_maj``/``ideal_des`` and its lift from
``lift_delta``, against the row-start verifier ``bijmaps.verify_phi_theorems``.

The psi verifier on words: every Dyck word from ``paths.enumerate_a/b``,
its statistics from the per-word ``area``/``maj``/``neg_b`` and its lower
part from ``split_lower_upper``, against the row-start verifier
``bijmaps.verify_psi_theorems``.

phi's row kernel by span lists: every shell's spans and mirrors, sorted
and read block by block, against the streaming walk
``bijmaps._phi_rows``.  The old readers beside it: the north columns of an
unchecked word, against the one-pass ``paths._dyck_columns``, the
inversion count over all pairs, against the insertion count
``signedperm.inv_word``, and the permutation check by absolute values,
against ``signedperm.check_perm`` and its type-A shortcut.

The area and maj polynomials by a depth-first pass with one leaf per
path, against the lattice-point pass ``paths._stat_counts``, and the
palindromicity test one coefficient at a time, against
``qseries.is_palindromic``.

The reference helpers that only the tests call, each checked against the
library or against a definition: monomials, exact polynomial division and
the substitution q -> q^m, path conjugation, the east count and
lower/upper split of a type-B path, the partition above a path, the
root-to-cell maps, an ideal's descent set and arc partition, the
root-poset order, upper covers, maximal elements and antichains, the
non-crossing predicates and the partition-to-permutation codecs, absolute
order, the sorting-word parser, 231-avoidance, the non-crossing Coxeter
elements (1, ..., n) and (1, ..., n, -1, ..., -n), and the class of
Coxeter elements of D_4.
"""

from collections import deque
from functools import lru_cache

from coxcat import bijmaps, noncrossing, paths, rootposets, signedperm
from coxcat.noncrossing import SetPartition, rev_nc
from coxcat.qseries import GroupType, InexactDivisionError, QPoly, SizeGuardError
from coxcat.rootposets import Cell, Root, RootPoset
from coxcat.sortable import SortingWord, c_sorting_word, enumerate_sortables
from coxcat.signedperm import (
    Perm,
    check_perm,
    group_order,
    identity,
    inverse,
    length_t,
    mul,
    reflections,
    word_to_perm,
)

BFS_ORDER_GUARD = 50_000


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


def verify_phi_theorems_frozensets(t: GroupType, unsafe: bool = False) -> dict:
    """``bijmaps.verify_phi_theorems`` on the frozenset ideals of ``t``."""
    fam, n = t.family, t.n
    two_n = n * (n - 1) if fam == "A" else 2 * n * n
    report = bijmaps._report(f"phi{fam}", t.rank)
    fail = bijmaps._fail
    images = {}
    for ideal in rootposets.ideals(t, unsafe=unsafe):
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
            if len(ideal_des(t, ideal)) + signedperm.des(sigma) != n - 1:
                fail(report, "des-sum", ideal=sorted(map(rootposets.root_str, ideal)))
        if sigma in images:
            fail(report, "injectivity", image=sigma)
        images[sigma] = ideal
    target = set(rev_nc(t))
    if set(images) != target:
        fail(report, "image-set", missing=sorted(target - set(images))[:3])
    if fam == "A":
        for sigma in target:
            if signedperm.des(sigma) != signedperm.ides(sigma):
                fail(report, "des-ides", image=sigma)
    if fam == "B":
        big = GroupType("B", t.rank + 1)
        for sigma, ideal in images.items():
            lifted = bijmaps.phi(big, rootposets.lift_delta(t, ideal))
            if lifted != sigma + (-(n + 1),):
                fail(report, "lift-identity", ideal=sorted(map(rootposets.root_str, ideal)))
    return report


def verify_psi_theorems_words(t: GroupType, unsafe: bool = False) -> dict:
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
        if c_sorting_word(sigma, c_word, fam) != sw or not sw.is_sortable_chain():
            fail(report, "sorting-word", word=word, emitted=str(sw))
        maj_d = paths.maj_a(word) if fam == "A" else paths.maj_b(word)
        total = maj_d + signedperm.maj(sigma, fam) + signedperm.imaj(sigma, fam)
        if total != two_n:
            fail(report, "maj-identity", word=word, total=total)
        if fam == "A":
            easts_after = len(word) - word.rindex("N") - 1 if "N" in word else 0
            if easts_after:
                k = easts_after
                if sigma[k - 1] != 1 or not set(range(1, k)) <= signedperm.des_set(sigma):
                    fail(report, "last-descent", word=word, image=sigma)
        else:
            if neg_b(word) + signedperm.neg(sigma) != n:
                fail(report, "neg-sum", word=word, image=sigma)
            lower, _ = split_lower_upper(word)
            sigma1, _ = bijmaps.psi_a(lower)
            if signedperm.ides_set(sigma) != signedperm.ides_set(sigma1):
                fail(report, "ides-split", word=word)
            if signedperm.imaj(sigma, "B") != signedperm.imaj(sigma1, "B") + signedperm.neg(sigma):
                fail(report, "imaj-split", word=word)
        if sigma in images:
            fail(report, "injectivity", image=sigma)
        images[sigma] = word
    target = set(enumerate_sortables(t, c_word, unsafe=unsafe))
    if set(images) != target:
        fail(report, "image-set", missing=sorted(target - set(images))[:3])
    return report


# -- q-series ------------------------------------------------------------------


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


def substitute_power(p: QPoly, m: int) -> QPoly:
    """The polynomial with q replaced by q^m."""
    if m < 1:
        raise ValueError("power must be >= 1")
    out = [0] * (m * p.degree() + 1) if p.coeffs else []
    for i, c in enumerate(p.coeffs):
        out[m * i] = c
    return QPoly(out)


def is_palindromic_loop(p: QPoly, center: int) -> bool:
    """coeff(k) == coeff(center - k) for every k up to max(degree, center), one
    ``coeff`` call at a time; the oracle for ``qseries.is_palindromic``."""
    top = max(p.degree(), center)
    return all(p.coeff(k) == p.coeff(center - k) for k in range(0, top + 1))


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


def stat_counts_dfs(family: str, n: int) -> tuple[QPoly, QPoly]:
    """The area and maj polynomials by a depth-first pass with one leaf per path.

    A north step in row j adds the cap_j - easts cells to its right, and a
    north step at 0-indexed position p after an east step closes a descent
    worth 2n - p; a type-B leaf doubles the maj and the east count, as
    ``maj_b`` does.  The oracle for the lattice-point pass
    ``paths._stat_counts``.
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


def conjugate_a(word: str) -> str:
    """Reverse the word and swap N with E; an involution on Dyck words."""
    paths._check(word, "A")
    swap = {"N": "E", "E": "N"}
    return "".join(swap[c] for c in reversed(word))


def neg_b(word: str) -> int:
    """Number of east steps of a type-B path."""
    paths._check(word, "B")
    return word.count("E")


def split_lower_upper(word: str) -> tuple[str, str]:
    """Split a type-B path into its balanced lower part and the upper suffix.

    The lower part replaces every north step after the n-th by an east
    step; the upper part is the suffix following the n-th north step, and
    is empty when the path is balanced (nothing rises above height n).
    """
    n = paths._check(word, "B")
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
    return paths._word_from_columns(xs, 2 * n)


# -- root posets ---------------------------------------------------------------


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
    return paths.descent_set(rootposets.ideal_to_dyck(t, ideal))


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

    for r in maximal_elements(rootposets.root_poset(t), ideal):
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


def check_partition_a(p: SetPartition, n: int) -> None:
    seen: set[int] = set()
    for block in p:
        if not block or seen & block:
            raise ValueError("blocks must be nonempty and disjoint")
        seen |= block
    if seen != set(range(1, n + 1)):
        raise ValueError(f"blocks do not cover 1..{n}")


def is_noncrossing_a(p: SetPartition) -> bool:
    return not noncrossing._any_cross(p)


def is_noncrossing_b(p: SetPartition, n: int | None = None) -> bool:
    """Crossings judged in the order -1 < -2 < ... < -n < 1 < 2 < ... < n."""
    if n is None:
        n = max(abs(v) for b in p for v in b)
    noncrossing.check_partition_b(p, n)
    # the keys list each block in the same order, so they cross as the blocks do
    return not noncrossing._any_cross([frozenset(map(order_key_b, b)) for b in p])


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


def nc_coxeter_element(family: str, n: int) -> Perm:
    """The Coxeter element (1, 2, ..., n) of type A, or (1, ..., n, -1, ..., -n) of type B.

    It is s_1 s_2 ... s_{n-1} in type A and s_0 s_1 ... s_{n-1} in type B,
    the element whose interval ``noncrossing.nc_elements`` lists by default.
    """
    word = range(1, n) if family == "A" else range(0, n)
    return word_to_perm(tuple(word), n, family)


def coxeter_elements_d4() -> tuple[Perm, ...]:
    """The conjugacy class of the standard Coxeter element of D_4, sorted."""
    return tuple(c for c, _ in noncrossing._coxeter_class_d4())


# -- statistics ----------------------------------------------------------------


def check_perm_abs(p: Perm, family: str = "B") -> None:
    """``signedperm.check_perm`` without its type-A shortcut: absolute values first."""
    if sorted(map(abs, p)) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a signed permutation: {p!r}")
    if family == "A" and p and min(p) < 0:
        raise ValueError(f"type A forbids negative entries: {p!r}")
    if family == "D" and sum(1 for v in p if v < 0) % 2:
        raise ValueError(f"type D needs an even number of negatives: {p!r}")


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


def parse_sorting_word(s: str) -> SortingWord:
    """The sorting word printed by ``str(SortingWord)``: factors of ``s<i>`` letters split by ``|``, or ``e``."""
    s = s.strip()
    if s in ("", "e"):
        return SortingWord(())
    return SortingWord(tuple(tuple(int(tok[1:]) for tok in chunk.split()) for chunk in s.split("|")))


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
