"""Permutations and signed permutations with their classical statistics.

Elements are tuples of nonzero integers (one-line notation) whose absolute
values form a permutation of 1..n; the group law extends by sigma(-i) =
-sigma(i).  Type A restricts to all-positive entries, type D to an even
number of negative ones.  Composition is (p * q)(i) = p(q(i)), so simple
reflections act on positions under right multiplication.

``_Lanes`` packs one quantity of many objects into one int, one field per
object, so that a comparison or a masked swap acts on all of them at once.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

from .qseries import _size

Perm = tuple[int, ...]
Cycle = tuple[int, ...]


@lru_cache(maxsize=None)
def _values(n: int) -> frozenset[int]:
    return frozenset(range(1, n + 1))


def check_perm(p: Perm, family: str = "B") -> None:
    try:
        total = sum(p)
    except TypeError:  # entries that do not add, such as strings
        total = None
    if type(total) is not int:  # a float or other non-int entry, which set equality would let through
        raise ValueError(f"entries must be integers: {p!r}")
    values = _values(len(p))
    if family == "A" and values == set(p):
        return  # a permutation of 1..n: every check below passes
    if family not in ("A", "B", "D"):
        raise ValueError(f"unknown family {family!r}")
    if values != set(map(abs, p)):
        raise ValueError(f"not a signed permutation: {p!r}")
    if family == "A" and p and min(p) < 0:
        raise ValueError(f"type A forbids negative entries: {p!r}")
    if family == "D" and sum(1 for v in p if v < 0) % 2:
        raise ValueError(f"type D needs an even number of negatives: {p!r}")


def identity(n: int) -> Perm:
    """The identity on n entries, n an int >= 0 (``qseries._size``): a bool, float, string or None is a ValueError naming it."""
    return tuple(range(1, _size(n) + 1))


def apply_value(p: Perm, v: int) -> int:
    return p[v - 1] if v > 0 else -p[-v - 1]


def mul(p: Perm, q: Perm) -> Perm:
    """Composition p after q: (p * q)(i) = p(q(i))."""
    return tuple(apply_value(p, v) for v in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for pos, v in enumerate(p, start=1):
        if v > 0:
            out[v - 1] = pos
        else:
            out[-v - 1] = -pos
    return tuple(out)


def length_s(p: Perm, family: str) -> int:
    """Coxeter length: inversions, corrected by the negative entries in B/D.

    The inversions are counted with a bitmask of the values seen so far,
    bit v + n for value v: the earlier entries above a are its bits past
    a + n.
    """
    check_perm(p, family)
    n = len(p)
    seen = base = 0
    for a in p:
        base += (seen >> a + n).bit_count()
        seen |= 1 << a + n
    if family == "A":
        return base
    negatives = [v for v in p if v < 0]
    if family == "B":
        return base - sum(negatives)
    return base - sum(negatives) - len(negatives)  # type D, the last family ``check_perm`` lets through


def maj_word(w) -> int:
    """Sum of the descent positions of an integer sequence."""
    total = 0
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            total += i
    return total


def maj(p: Perm, family: str) -> int:
    """Major index: A uses the one-line word; B doubles it and adds neg;
    D subtracts the negative entries and their count."""
    check_perm(p, family)
    return _maj(p, family)


def _maj(p: Perm, family: str) -> int:
    """``maj`` of a checked ``p``; ``imaj`` reads it on the inverse."""
    base = maj_word(p)
    if family == "A":
        return base
    negatives = [v for v in p if v < 0]
    if family == "B":
        return 2 * base + len(negatives)
    return base - sum(negatives) - len(negatives)  # type D


def imaj(p: Perm, family: str) -> int:
    check_perm(p, family)
    return _maj(inverse(p), family)


def rev(p: Perm) -> Perm:
    """Rewrite the negative values, in place, in reversed relative order.

    >>> rev((2, -4, 3, -1))
    (2, -1, 3, -4)
    """
    negatives = [v for v in p if v < 0]
    negatives.reverse()
    it = iter(negatives)
    return tuple(next(it) if v < 0 else v for v in p)


def _walks(p: Perm) -> list[tuple[list[int], bool]]:
    """The cycles of |p|, each as the signed values m, p(m), p(p(m)), ...
    met from its least entry m until |p| returns to m, with a flag that is
    True when it returns as -m (a sign-crossing cycle).

    The walks come in increasing order of m, fixed points included.  This
    is the one place that reads p's cycles: ``to_cycles`` writes them,
    ``length_t`` counts them, ``noncrossing.partition_blocks`` reads its
    blocks off them and ``noncrossing._conjugator`` tests a Coxeter element
    by their shape and conjugates it to the default one along them.  Each
    of them passes p through ``check_perm`` first: on a list that is no
    signed permutation a walk may never return.
    """
    seen = [False] * (len(p) + 1)
    out = []
    for m, v in enumerate(p, start=1):
        if seen[m]:
            continue
        walk = [m]
        while v != m and v != -m:
            walk.append(v)
            seen[v if v > 0 else -v] = True
            v = p[v - 1] if v > 0 else -p[-v - 1]
        out.append((walk, v < 0))
    return out


def to_cycles(p: Perm) -> tuple[Cycle, ...]:
    """Cycle notation; a trailing entry -first marks a sign-crossing cycle.

    Each cycle is a walk of ``_walks``: the cycles come in order of their
    least absolute entries and start at that entry with positive sign;
    fixed points are omitted.

    >>> to_cycles((4, 2, 6, 5, 1, 3))
    ((1, 4, 5), (3, 6))
    """
    check_perm(p)
    return tuple([(*walk, -walk[0]) if crossed else tuple(walk) for walk, crossed in _walks(p) if len(walk) > 1 or crossed])


def from_cycles(cycles, n: int) -> Perm:
    """Build a signed permutation from disjoint cycles on 1..n, n an int >= 0 (``qseries._size``):
    a bool, float, string or None is a ValueError naming it."""
    out = list(range(1, _size(n) + 1))
    used: set[int] = set()

    def send(a: int, b: int):
        out[abs(a) - 1] = b if a > 0 else -b

    for cyc in cycles:
        if len(cyc) < 2:
            raise ValueError(f"cycle too short: {cyc!r}")
        body = cyc[:-1] if cyc[-1] == -cyc[0] else cyc
        absvals = [abs(v) for v in body]
        if len(set(absvals)) != len(absvals):
            raise ValueError(f"repeated entry in cycle {cyc!r}")
        if used & set(absvals):
            raise ValueError("cycles are not disjoint")
        if any(not 1 <= a <= n for a in absvals):
            raise ValueError(f"entry out of range in cycle {cyc!r}")
        used.update(absvals)
        for a, b in zip(cyc, cyc[1:]):
            send(a, b)
        if cyc[-1] != -cyc[0]:
            send(cyc[-1], cyc[0])
    return tuple(out)


def cycles_str(cycles) -> str:
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(v) for v in c) + ")" for c in cycles)


def parse_cycles(s: str) -> tuple[Cycle, ...]:
    s = s.replace(" ", "")
    if s in ("", "()"):
        return ()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"bad cycle string {s!r}")
    try:
        return tuple(tuple(int(v) for v in chunk.split(",")) for chunk in s[1:-1].split(")("))
    except ValueError:
        raise ValueError(f"bad cycle string {s!r}") from None


def length_t(p: Perm) -> int:
    """Absolute (reflection) length in types A, B and D.

    It is n minus the number of cycles of |p| whose entries change sign an
    even number of times, the walks of ``_walks`` that do not cross sign:
    such a cycle fixes a line and an odd one fixes nothing, so this is
    codim Fix(p), which is l_T in every Weyl group (Carter, 1972).
    """
    check_perm(p)
    return len(p) - sum(not crossed for _, crossed in _walks(p))


def simple_reflection(i: int, n: int, family: str = "B") -> Perm:
    """s_i for i >= 1 swaps positions i, i+1; s_0 is the type-specific extra one."""
    return word_to_perm((i,), n, family)


def word_to_perm(word, n: int, family: str = "B") -> Perm:
    """Evaluate a word in simple reflections by right multiplication; n is read by ``qseries._size`` first,
    since an empty word never reaches the range test of its letters."""
    n, word = _size(n), tuple(word)
    if family not in ("A", "B", "D"):
        raise ValueError(f"unknown family {family!r}")
    # type(), not isinstance(): a float or bool letter would index the one-line list
    if any(type(s) is not int for s in word):
        raise ValueError(f"letter that is not an int in {word!r}")
    if word and not 0 <= min(word) <= max(word) < n:
        raise ValueError(f"letter outside 0..{n - 1} in {word!r}")
    if family == "D" and n < 2 and 0 in word:
        raise ValueError(f"type D's s_0 acts on the first two entries, so it needs n >= 2, got n = {n}")
    return _word_to_perm(word, n, family)


def _word_to_perm(word, n: int, family: str) -> Perm:
    """``word_to_perm`` for a word already known to have letters in 0..n-1."""
    line = list(range(1, n + 1))
    for i in word:
        if i == 0:
            if family == "B":
                line[0] = -line[0]
            elif family == "D":
                line[0], line[1] = -line[1], -line[0]
            else:
                raise ValueError("type A has no s_0")
        else:
            line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def coxeter_element(family: str, n: int) -> tuple[Perm, tuple[int, ...]]:
    """A Coxeter element together with its defining reduced word.

    The word is s_{n-1} ... s_1 in type A and s_{n-1} ... s_1 s_0 in types
    B and D, the word the sorting words are read against.  n is an int >= 0
    (``qseries._size``): a bool, float, string or None is a ValueError naming it.
    """
    word = tuple(range(_size(n) - 1, 0 if family == "A" else -1, -1))
    return word_to_perm(word, n, family), word


class _Lanes:
    """Many objects at once: one int per quantity, one field (lane) per object
    (a Dyck path in the verifiers, a D4 element in the counterexample report).

    The fields are ``bits`` wide, the smallest array item whose top bit, the
    guard bit, stays above ``bound``, so ``gt`` compares all lanes without a
    borrow crossing a field, and a sum of two values still fits.  A mask
    holds 1 in the low bit of each chosen lane.  Signed entries are stored
    as value + ``off``.
    """

    def __init__(self, count: int, bound: int, off: int):
        self.code = next(c for c in "bhiq" if bound >> 8 * array(c).itemsize - 1 == 0)
        self.bits = 8 * array(self.code).itemsize
        self.count, self.bound, self.off, self.full = count, bound, off, (1 << self.bits) - 1
        self.one = self.spread(b"\1" * count)
        self.high = self.one << self.bits - 1

    def pack(self, values) -> int:
        """One value per lane; OverflowError unless each is in [0, 2^(bits-1))."""
        arr = array(self.code, values)  # a signed item: raises past 2^(bits-1) - 1
        if len(arr) != self.count or arr and min(arr) < 0:
            raise OverflowError(f"{len(arr)} values from {min(arr, default=0)} do not fit {self.count} lanes")
        return int.from_bytes(arr.tobytes(), sys.byteorder)

    def spread(self, small: bytes) -> int:
        """One value per lane from one byte per lane, each below 128: the low byte of its field."""
        fields = bytearray(self.count * self.bits // 8)
        fields[0 if sys.byteorder == "little" else self.bits // 8 - 1::self.bits // 8] = small
        return int.from_bytes(fields, sys.byteorder)

    def low_bytes(self, lane: int) -> bytes:
        """The low byte of each lane's field, one byte per lane: ``spread``'s inverse for values below 256."""
        fields = lane.to_bytes(self.count * self.bits // 8, sys.byteorder)
        return fields[0 if sys.byteorder == "little" else self.bits // 8 - 1::self.bits // 8]

    def unpack(self, lane: int) -> array:
        """The lanes' values, unsigned, since a sum may reach the guard bit."""
        return array(self.code.upper(), lane.to_bytes(self.count * self.bits // 8, sys.byteorder))

    def values(self, lane: int) -> array:
        """The lanes' entries stored as value + ``off``, as signed values: with
        every guard bit set, subtracting ``off`` borrows across no field, and
        flipping the guard bits back leaves each value in two's complement."""
        signed = (lane | self.high) - self.off * self.one ^ self.high
        return array(self.code, signed.to_bytes(self.count * self.bits // 8, sys.byteorder))

    def gt(self, a: int, b: int) -> int:
        """The mask of the lanes where a > b."""
        return ((a | self.high) - b - self.one & self.high) >> self.bits - 1

    def eq(self, a: int, b: int) -> int:
        """The mask of the lanes where a == b."""
        return self.one ^ self.gt(a ^ b, 0)

    def select(self, mask: int, a: int, b: int) -> int:
        """a in the masked lanes, b in the others."""
        return b ^ (a ^ b) & mask * self.full

    def differ(self, a: int, b: int = 0) -> set[int]:
        """The lanes where a and b differ (that a mask holds, for b = 0): one comparison when none do."""
        if a == b:
            return set()
        return {k for k, (u, v) in enumerate(zip(self.unpack(a), self.unpack(b))) if u != v}

    def act(self, cols: list[int], s: int, mask: int) -> None:
        """Right-multiply the masked lanes by s_s: swap columns s - 1 and s, or negate column 0."""
        if s:
            d = (cols[s - 1] ^ cols[s]) & mask * self.full
            cols[s - 1] ^= d
            cols[s] ^= d
        else:
            cols[0] = self.select(mask, 2 * self.off * self.one - cols[0], cols[0])
