"""Slow reference implementations that the tests compare the library against.

Reflection length by breadth-first search over the whole group: the
distance from the identity in the Cayley graph whose generators are all the
reflections.  It costs the group order, so it is guarded and used only at
small rank, against the cycle formula ``signedperm.length_t``.

The phi verifier on frozensets: every ideal from ``rootposets.ideals``, its
statistics from ``ideal_maj``/``ideal_des`` and its lift from
``lift_delta``, against the row-start verifier ``bijmaps.verify_phi_theorems``.
"""

from collections import deque
from functools import lru_cache

from coxcat import bijmaps, rootposets, signedperm
from coxcat.noncrossing import rev_nc
from coxcat.qseries import GroupType, SizeGuardError
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
