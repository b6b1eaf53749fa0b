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
"""

from collections import deque
from functools import lru_cache

from coxcat import bijmaps, paths, rootposets, signedperm
from coxcat.noncrossing import rev_nc
from coxcat.qseries import GroupType, SizeGuardError
from coxcat.sortable import c_sorting_word, enumerate_sortables
from coxcat.signedperm import Perm, check_perm, group_order, identity, mul, reflections

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
            if len(rootposets.ideal_des(t, ideal)) + signedperm.des(sigma) != n - 1:
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
            if paths.neg_b(word) + signedperm.neg(sigma) != n:
                fail(report, "neg-sum", word=word, image=sigma)
            lower, _ = paths.split_lower_upper(word)
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
