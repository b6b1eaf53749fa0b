"""Non-crossing partitions: absolute-order intervals and set-partition models.

Type A partitions live on 1..n; type B partitions live on +-1..+-n, are
closed under negation and have at most one self-negative block.  The
default interval [1, c] is read off the non-crossing partitions by one scan
in types A and B, and off the sortable tree by Reading's nc_c in type D;
the interval below any other Coxeter element is the default one
conjugated.  Each is listed in the order its scan or tree finds it: every
identity compares them as sets, counted by a statistic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod

from . import rootposets
from .qseries import GroupType, coxeter_number, degrees, gen_poly
from .signedperm import (
    Perm,
    _Lanes,
    _walks,
    apply_value,
    check_perm,
    coxeter_element,
    identity,
    inverse,
    mul,
    rev,
    simple_reflection,
)
from .sortable import _reflection_bits, _sortable_nodes, _sortable_tree


def _nc_scan(family: str, n: int, under_rev: bool = False) -> list[Perm]:
    """The interval [1, c] below c = (1, 2, ..., n) in type A, or below
    c = (1, ..., n, -1, ..., -n) in type B, in the order the scan finds its
    elements.

    Reads the points 1..n left to right.  Each point opens a block or joins
    the innermost open block, then closes that block or leaves it open: the
    step pairs NN, NE, EN and EE of a Dyck word, and a closed block is an
    increasing cycle (Kreweras, 1972).  Type A keeps the scans that close
    every block, one per Dyck path of length 2n.  Type B keeps every scan,
    one per prefix of 2n steps (Reiner, 1997): the blocks O_1..O_h still
    open, in opening order, close through the negatives with -O_{h+1-j},
    so the last entry of O_j is sent to -first(O_{h+1-j}).  The one-line
    notation is written as the blocks grow, so no group product is taken.

    With ``under_rev``, type B lists the rev images instead, in the same
    order; type A ignores it, since rev fixes an element with no negatives.
    The open blocks' lasts rise with j, and the values -first(O_{h+1-j})
    written there rise with them, so rev, which reverses the negatives'
    relative order in place, sends last(O_j) to -first(O_j).
    """
    out = [0] * n
    firsts: list[int] = []  # the open blocks, outermost first
    lasts: list[int] = []
    found: list[Perm] = []

    def place(p: int) -> None:
        if p > n:
            if family == "B":
                for last, first in zip(lasts, firsts if under_rev else reversed(firsts)):
                    out[last - 1] = -first
                found.append(tuple(out))
            elif not firsts:
                found.append(tuple(out))
            return
        if family == "A" and len(firsts) > n - p + 1:
            return  # too few points left to close every open block
        out[p - 1] = p  # NE: a singleton
        place(p + 1)
        firsts.append(p)  # NN: open a block and leave it open
        lasts.append(p)
        place(p + 1)
        firsts.pop()
        lasts.pop()
        if firsts:
            prev = lasts[-1]
            out[prev - 1] = p
            lasts[-1] = p  # EN: join the innermost block and leave it open
            place(p + 1)
            first = firsts.pop()  # EE: join it and close it
            lasts.pop()
            out[p - 1] = first
            place(p + 1)
            firsts.append(first)
            lasts.append(prev)

    place(1)
    return found


def _report(identity: str, rank: int, checked: int = 0) -> dict:
    """An empty verifier report: each verifier's and the D4 report's shape."""
    return {"identity": identity, "rank": rank, "checked": checked, "failures": []}


def _fail(report: dict, what: str, **context):
    """Add a failure entry: the check, then each named value as its repr."""
    entry = {"check": what}
    entry.update({k: repr(v) for k, v in context.items()})
    report["failures"].append(entry)


def nc_elements(t: GroupType, c: Perm | None = None) -> list[Perm]:
    """The interval [1, c] in absolute order.

    c defaults to the standard Coxeter element: (1, 2, ..., n) in type A,
    (1, ..., n, -1, ..., -n) in type B, and the sorting element in type D.
    The default interval in types A and B is read off non-crossing
    partitions by ``_nc_scan``, in the order the scan finds them, and in
    type D it is Reading's nc_c of each sortable element (``_nc_tree``), in
    the sortable tree's order, e first.

    Any other c is tested by ``_conjugator``, which finds a g with
    c = g c0 g^-1 for the default c0 or refuses c as no Coxeter element.
    Conjugation by g permutes the reflections and keeps l_T, so
    [1, c] = g [1, c0] g^-1: the default interval, each w replaced by
    g w g^-1, in the default interval's order, e first.  No l_T is computed.
    """
    if c is not None:
        g = _conjugator(t, c)
        g_inv = inverse(g)
        return [mul(mul(g, w), g_inv) for w in nc_elements(t)]
    if t.family != "D":
        return _nc_scan(t.family, t.n)
    return _nc_tree(t, coxeter_element("D", t.n)[1])


def _conjugator(t: GroupType, c) -> Perm:
    """A signed permutation g with c = g c0 g^-1, for the default Coxeter
    element c0 of ``nc_elements``, or a ``ValueError`` when c is no
    Coxeter element of t.

    c0 is ``coxeter_element``'s element in type D and its inverse
    s_1 ... s_{n-1} (s_0 s_1 ... s_{n-1} in type B) in types A and B.
    All Coxeter elements of W are conjugate (Springer, 1974), and a
    Coxeter element is one with l_T(c) the rank and |c| of c0's cycle type.
    l_T is n minus the cycles that do not cross sign, so both hold exactly
    when c's walks (``signedperm._walks``), sorted by (length, crossed),
    have the shape of c0's.  Then pairing the walks entry by entry,
    g(a) = b and g(-a) = -b, sends c0^k(m) to c^k(m') for the walks'
    starts m and m', and each pair of walks returns to its start with the
    same sign, so g c0 = c g.

    g need not lie in W (in type D it may negate an odd number of values),
    but conjugation by any signed permutation keeps the reflections of type
    A, B and D each, so it still carries [1, c0] onto [1, c].
    """
    if len(c := tuple(c)) != t.n:
        raise ValueError(f"{c!r} has {len(c)} entries, but {t} acts on {t.n}")
    check_perm(c, t.family)
    c0 = coxeter_element(t.family, t.n)[0]
    if t.family != "D":
        c0 = inverse(c0)

    def shape(walk):
        return len(walk[0]), walk[1]

    walks, walks0 = (sorted(_walks(w), key=shape) for w in (c, c0))
    if list(map(shape, walks)) != list(map(shape, walks0)):
        raise ValueError(f"{c!r} is not a Coxeter element of {t}")
    g = [0] * t.n
    for (walk, _), (walk0, _) in zip(walks, walks0):
        for b, a in zip(walk, walk0):
            g[abs(a) - 1] = b if a > 0 else -b
    return tuple(g)


@lru_cache(maxsize=None)
def _exchanges(n: int) -> dict[int, list[int]]:
    """Each reflection of rank n, keyed by its bit of ``sortable._reflection_bits``,
    as the list of its values: entry v (negative v wraps around) is r(v)."""
    bit = _reflection_bits(n)
    out = {}
    for x in range(1, n + 1):
        for y in range(-n, n + 1):
            if bit[x][y]:
                r = list(range(n + 1)) + list(range(-n, 0))
                r[x], r[y], r[-x], r[-y] = y, x, -y, -x
                out[bit[x][y]] = r
    return out


def _nc_tree(t: GroupType, c_word) -> list[Perm]:
    """Reading's nc_c of every sortable element for ``c_word``, in the order
    of ``sortable._sortable_nodes``.

    nc_c(w) is the product t_(i1) t_(i2) ... t_(ij), i1 < ... < ij, of w's
    cover reflections w s w^-1 (s a right descent of w) in the order they
    occur among the reflections t_1, ..., t_k of w's sorting word, and it is
    a bijection from the sortable elements onto [1, c] with l_T(nc_c(w))
    the number of right descents of w (Reading, Clusters, Coxeter-sortable
    elements and noncrossing partitions, Trans. AMS 2007).

    The tree hands over each element's reflections t_k, ..., t_1, last
    first, and its cover reflections as a mask.  Each cover reflection is
    one of the t_i: for a right descent s, (w s w^-1) w = w s is shorter
    than w, so w s w^-1 is a left inversion of w, and the left inversions
    of w are exactly t_1, ..., t_k, all distinct.  So the walk up the cells
    multiplies w's cover reflections on the left, last first, which leaves
    them in the order t_(i1) ... t_(ij), and it stops once the mask is spent.
    A left product r w applies r to w's values.
    """
    exchanges = _exchanges(t.n)
    e = identity(t.n)
    out = []
    for _, _, inversions, covers in _sortable_nodes(t, c_word):
        w = e
        while covers:
            r, inversions = inversions
            if r & covers:
                covers ^= r
                w = tuple(map(exchanges[r].__getitem__, w))
        out.append(w)
    return out


def rev_nc(t: GroupType) -> list[Perm]:
    """The image of the default non-crossing interval [1, c] under the rev
    involution, in the order of ``nc_elements(t)``; in types A and B the
    scan writes the images directly."""
    if t.family == "D":
        return [rev(w) for w in nc_elements(t)]
    return _nc_scan(t.family, t.n, under_rev=True)


def partition_blocks(p: Perm, family: str) -> list[list[int]]:
    """The set partition of a non-crossing element of type A or B: each
    block sorted, the blocks in order of their least entries.

    The blocks are the orbits of p, on 1..n in type A and on +-1..+-n in
    type B (Reiner, 1997), read off the walks of ``signedperm._walks``: a
    sign-crossing walk is one orbit together with its negatives, and any
    other walk is one orbit in type A and two mirror orbits in type B.
    Type A's walks come in order of their least entries already.  Type D
    has no such partitions, and ``p`` is checked first: ``_walks`` on a
    non-permutation would never return.
    """
    if family == "D":
        raise ValueError("no type-D set partitions")
    check_perm(p, family)
    if family == "A":
        return [sorted(walk) for walk, _ in _walks(p)]
    blocks = []
    for walk, crossed in _walks(p):
        mirror = [-v for v in walk]
        blocks += [sorted(walk + mirror)] if crossed else [sorted(walk), sorted(mirror)]
    return sorted(blocks)


@lru_cache(maxsize=None)
def _coxeter_class_d4() -> tuple[tuple[Perm, Perm], ...]:
    """Pairs (c, g) with c = g c0 g^-1, one for each conjugate c of the
    standard Coxeter element c0 of D_4, sorted by c, with g from
    ``_conjugator``.

    The class is the closure of c0 under conjugation by simple reflections.
    Its size is checked against |W|/h: the centralizer of a Coxeter element
    is the cyclic group it generates, of order h (Springer, 1974), and |W|
    is the product of the degrees (Humphreys, 1990, section 3.9).
    """
    t = GroupType("D", 4)
    c0 = coxeter_element("D", 4)[0]
    gens = [simple_reflection(i, 4, "D") for i in range(4)]
    cls = {c0}
    frontier = [c0]
    while frontier:
        w = frontier.pop()
        for s in gens:
            u = mul(mul(s, w), s)
            if u not in cls:
                cls.add(u)
                frontier.append(u)
    if len(cls) * coxeter_number(t) != prod(degrees(t)):
        raise AssertionError("conjugacy class size mismatch")
    return tuple((c, _conjugator(t, c)) for c in sorted(cls))


def _conj_lanes(lanes: _Lanes, hits: list[dict[int, int]], g: Perm) -> list[int]:
    """The one-line columns of g w g^-1 for the lanes' elements w, given
    ``hits[i][v]``, the mask of the lanes where w(i + 1) = v.

    g w g^-1 sends g(i) to g(w(i)), so column |g(i)| holds sign(g(i)) g(v)
    in the lanes where w(i) = v: a sum over the masks of the 2n signed
    values, which no two lanes' entries share.
    """
    out = [0] * len(g)
    off = lanes.off
    for gi, hit in zip(g, hits):
        sign = 1 if gi > 0 else -1
        out[abs(gi) - 1] = sum(m * (sign * apply_value(g, v) + off) for v, m in hit.items())
    return out


def _lengths_d(lanes: _Lanes, cols: list[int]) -> int:
    """The lanes' type-D lengths under rev, l_D(rev(w)).

    l_D is the inversion count minus the negative entries and their number
    (``signedperm.length_s``).  rev reverses the relative order of the
    negative entries in place, so it turns every pair of negative entries
    from inverted to not or back, and leaves the mixed pairs and the
    negatives' sum alone: l_D(rev w) = l_D(w) + C(k, 2) - 2 nn(w), with k
    the negative entries and nn their inverted pairs.  Each pair of columns
    adds its inversion mask, flipped where both entries are negative.
    """
    one, off = lanes.one, lanes.off
    neg = [lanes.gt(off * one, col) for col in cols]
    length = 0
    for i, (a, na) in enumerate(zip(cols, neg)):
        for b, nb in zip(cols[i + 1:], neg[i + 1:]):
            length += lanes.gt(a, b) ^ (na & nb)
    # each negative entry v adds -v - 1 = off - 1 - (v + off)
    return length + (off - 1) * sum(neg) - sum(col & m * lanes.full for col, m in zip(cols, neg))


def _pack_d(elements: list[Perm], n: int) -> tuple[_Lanes, list[int]]:
    """A lane layout for elements of D_n, with their one-line columns packed.

    Entries are stored as value + n + 1; the fields hold the stored
    entries, up to 2n + 1, and the partial sums of ``_lengths_d``, up to
    C(n, 2) + n^2.
    """
    lanes = _Lanes(len(elements), n * (n - 1) // 2 + n * n, n + 1)
    return lanes, [lanes.pack(map(lanes.off.__add__, col)) for col in zip(*elements)]


def d4_counterexample() -> dict:
    """Check that neither family of rank-4 type-D identities can hold.

    For every Coxeter element c of D_4 the ideal-size polynomial differs
    from the length generating function over rev([1, c]); the same holds
    over the sortable elements for every ordering of the simple
    reflections, although all counts agree at q = 1.

    Only [1, c0], the default interval of ``nc_elements``, is built (as nc_c
    of the sortable elements, in tree order), and its elements are packed in
    lanes (``signedperm._Lanes``).  Conjugation by g permutes the
    reflections and keeps l_T, so it carries [1, c0] onto [1, g c0 g^-1]:
    each conjugate's interval is built in the lanes by ``_conj_lanes``, and
    its rev lengths are read off them by ``_lengths_d``.  The sortable side takes each ordering's elements from
    ``sortable._sortable_tree``, whose lengths are their depths in the
    prefix tree, so no sortable element is packed or measured.
    """
    t = GroupType("D", 4)
    cat_poly = rootposets.cat_q(t)
    report = _report("d4-counterexample", 4)
    cardinality = cat_poly(1)

    lanes, cols = _pack_d(nc_elements(t), t.n)
    signed = [v for v in range(-t.n, t.n + 1) if v]
    hits = [{v: lanes.eq(col, (v + lanes.off) * lanes.one) for v in signed} for col in cols]
    nc_side = (("nc", "c", c, lanes.unpack(_lengths_d(lanes, _conj_lanes(lanes, hits, g)))) for c, g in _coxeter_class_d4())
    sortable_side = (("sortable", "word", w, [length for _, length in _sortable_tree(t, w)]) for w in itertools.permutations(range(4)))
    for side, key, value, lengths in itertools.chain(nc_side, sortable_side):  # the NC side's failures first
        report["checked"] += 1
        poly = gen_poly(lengths)
        if poly == cat_poly:
            _fail(report, f"{side}-side-equality", **{key: value})
        if poly(1) != cardinality or len(lengths) != cardinality:
            _fail(report, f"{side}-side-cardinality", **{key: value})
    return report
