"""Exact polynomial arithmetic in q and the closed-form q-Catalan numbers.

Everything here is integer-exact: polynomials are dense coefficient vectors
over Python ints, and quotients are computed by long division with an
explicit failure signal rather than rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


class InexactDivisionError(ArithmeticError):
    """Polynomial long division left a remainder where exactness was required."""


class SizeGuardError(ValueError):
    """An enumeration was requested beyond its limit in ``SIZE_GUARDS``."""


# The largest size each enumeration runs at unless ``unsafe`` is given:
# paths by their semilength n, everything else by rank.  |NC(W)| is the
# number of ideals, so the non-crossing walks share the ideal limits.
SIZE_GUARDS = {
    "path": {"A": 12, "B": 8},
    "ideal": {"A": 9, "B": 6, "D": 5},
    "non-crossing": {"A": 9, "B": 6, "D": 5},
    "sortable": {"A": 8, "B": 5, "D": 4},
}


def check_guard(kind: str, family: str, size: int, unsafe: bool = False) -> None:
    """Raise SizeGuardError if ``size`` exceeds the ``SIZE_GUARDS`` limit."""
    limits = SIZE_GUARDS[kind]
    if family not in limits:
        raise ValueError(f"no {kind}s of type {family!r}")
    if size > limits[family] and not unsafe:
        measure = "n <=" if kind == "path" else "rank"
        raise SizeGuardError(f"{kind} enumeration guarded at {measure} {limits[family]} for type {family}")


class QPoly:
    """Polynomial in q with integer coefficients, constant term first.

    Trailing zero coefficients are stripped; the zero polynomial has an
    empty coefficient tuple, so ``degree()`` is ``len(coeffs) - 1`` for
    nonzero polynomials.

    >>> str(QPoly([1, 0, 2, 1]))
    '1 + 2q^2 + q^3'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == QPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly((other,))
        return self + (-other)

    def __rsub__(self, other: int) -> "QPoly":
        return QPoly((other,)) - self

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """The polynomial times q^k."""
        if k < 0:
            raise ValueError("negative exponent")
        return QPoly((0,) * k + self.coeffs) if self.coeffs else self

    def __call__(self, x: int) -> int:
        val = 0
        for c in reversed(self.coeffs):
            val = val * x + c
        return val

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "QPoly":
        return cls(data["coeffs"])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


def gen_poly(values: Iterable[int]) -> QPoly:
    """The sum of q^v over the values: coefficient k counts the values equal to k."""
    values = list(values)
    if min(values, default=0) < 0:
        raise ValueError("values must be >= 0")
    counts = [0] * (max(values, default=0) + 1)
    for v in values:
        counts[v] += 1
    return QPoly(counts)


_FIXED_RANK = {"H3": 3, "H4": 4, "F4": 4, "E6": 6, "E7": 7, "E8": 8}

_EXCEPTIONAL_DEGREES = {
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}

FAMILIES = ("A", "B", "D", "I2") + tuple(_FIXED_RANK)


@dataclass(frozen=True)
class GroupType:
    """A reflection-group type: family letter plus rank.

    Families A, B, D support the full poset/path machinery; I2 and the
    exceptional families exist only for the Catalan-number table (for I2
    the ``rank`` field holds the defining parameter k).
    """

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.family}{self.rank}")
        if self.family == "D" and self.rank < 2:
            raise ValueError("type D needs rank >= 2")
        if self.family == "I2" and self.rank < 2:
            raise ValueError("I2(k) needs k >= 2")
        fixed = _FIXED_RANK.get(self.family)
        if fixed is not None and self.rank != fixed:
            raise ValueError(f"{self.family} has rank {fixed}")

    @property
    def n(self) -> int:
        """The classical index n: one-line length for the group, path length.

        For A_{n-1} this is rank + 1 (the group is the symmetric group S_n);
        for B_n and D_n it equals the rank.
        """
        if self.family == "A":
            return self.rank + 1
        if self.family in ("B", "D"):
            return self.rank
        raise ValueError(f"no classical index for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def degrees(t: GroupType) -> tuple[int, ...]:
    """The multiset of degrees d_1 <= ... <= d_l of the reflection group."""
    if t.family == "A":
        return tuple(range(2, t.rank + 2))
    if t.family == "B":
        return tuple(range(2, 2 * t.rank + 1, 2))
    if t.family == "D":
        return tuple(sorted(list(range(2, 2 * t.rank - 1, 2)) + [t.rank]))
    if t.family == "I2":
        return (2, t.rank)
    return _EXCEPTIONAL_DEGREES[t.family]


def coxeter_number(t: GroupType) -> int:
    return max(degrees(t))


def q_integer(k: int) -> QPoly:
    """The q-analogue 1 + q + ... + q^(k-1); k = 0 gives the zero polynomial."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return QPoly((1,) * k)


def q_factorial(k: int) -> QPoly:
    out = QPoly.one()
    for i in range(2, k + 1):
        out = out * q_integer(i)
    return out


def q_binomial(k: int, l: int) -> QPoly:
    """The q-binomial coefficient, computed by the q-Pascal recurrence.

    >>> str(q_binomial(4, 2))
    '1 + q + 2q^2 + q^3 + q^4'
    """
    if l < 0 or k < 0:
        raise ValueError("arguments must be >= 0")
    if l > k:
        raise ValueError("need l <= k")
    l = min(l, k - l)
    # row[j] holds qbinom(i, j); Pascal step: qbinom(i,j) = qbinom(i-1,j-1) + q^j qbinom(i-1,j)
    row = [QPoly.one()] + [QPoly.zero()] * l
    for i in range(1, k + 1):
        for j in range(min(i, l), 0, -1):
            row[j] = row[j - 1] + row[j].shift(j)
    return row[l]


def cat_number(t: GroupType) -> int:
    """The Catalan number prod (d_i + h)/d_i of the reflection group, exactly."""
    ds = degrees(t)
    h = coxeter_number(t)
    num = math.prod(d + h for d in ds)
    den = math.prod(ds)
    if num % den:
        raise ArithmeticError(f"degree table for {t} gives a non-integer")
    return num // den


def _times_q_integer(cs: list[int], k: int) -> list[int]:
    """The coefficients of cs times [k]_q: each is the sum of a window of k of cs."""
    out = []
    window = 0
    for i in range(len(cs) + k - 1):
        if i < len(cs):
            window += cs[i]
        if i >= k:
            window -= cs[i - k]
        out.append(window)
    return out


def _over_q_integer(cs: list[int], d: int) -> list[int]:
    """The coefficients of cs / [d]_q, dividing cs (1 - q) by 1 - q^d.

    The quotient by 1 - q^d satisfies c[i] = b[i] + c[i - d]; it is exact
    iff that recurrence dies out, i.e. its last d terms are zero.  Raises
    InexactDivisionError otherwise.
    """
    if d < 1:
        raise ZeroDivisionError("division by [0]_q = 0")
    c = [x - y for x, y in zip(cs + [0], [0] + cs)]
    for i in range(d, len(c)):
        c[i] += c[i - d]
    cut = max(len(c) - d, 0)
    if any(c[cut:]):
        raise InexactDivisionError(f"{QPoly(cs)} not divisible by {q_integer(d)}")
    return c[:cut]


def _qcat(ds: Sequence[int], h: int) -> QPoly:
    """prod [d + h]_q / [d]_q over the degrees d, in O(degree) steps per factor.

    Every partial quotient is a polynomial, since the full quotient times
    the [d]_q not yet divided out is one.
    """
    cs = [1]
    for d in ds:
        cs = _times_q_integer(cs, d + h)
    for d in ds:
        cs = _over_q_integer(cs, d)
    return QPoly(cs)


@lru_cache(maxsize=None)
def qcat_product(t: GroupType) -> QPoly:
    """The q-Catalan number prod [d_i + h]_q / [d_i]_q as an exact polynomial."""
    try:
        return _qcat(degrees(t), coxeter_number(t))
    except InexactDivisionError as exc:
        raise ArithmeticError(f"degree table for {t} is inconsistent") from exc


def qcat_a(n: int) -> QPoly:
    """The classical q-Catalan number qbinom(2n, n) / [n+1]_q.

    It is the product over the degrees d = 2..n of A_{n-1}, whose Coxeter
    number is n: prod [n + d]_q / [d]_q.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _qcat(range(2, n + 1), n)


def is_palindromic(p: QPoly, center: int) -> bool:
    """True iff coeff(k) == coeff(center - k) for all k.

    No term may lie past ``center``; below it, the coefficients padded with
    zeros up to q^center read the same backwards.
    """
    cs = p.coeffs
    if len(cs) > max(center + 1, 0):
        return False
    padded = cs + (0,) * (center + 1 - len(cs))
    return padded == padded[::-1]
