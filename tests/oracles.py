"""Slow reference implementations that the tests compare the library against.

Reflection length by breadth-first search over the whole group: the
distance from the identity in the Cayley graph whose generators are all the
reflections.  It costs the group order, so it is guarded and used only at
small rank, against the cycle formula ``signedperm.length_t``.
"""

from collections import deque
from functools import lru_cache

from coxcat.qseries import SizeGuardError
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
