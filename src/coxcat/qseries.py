"""Exact polynomial arithmetic in q and the closed-form q-Catalan numbers.

Everything here is integer-exact: polynomials are dense coefficient vectors
over Python ints, and products run on packed ints (Kronecker substitution).
The q-Catalan quotient prod (1 - q^(d+h)) / (1 - q^d) is formed by shifted
adds and subtractions on one packed int, then exact running-sum divisions
on the coefficient list, not rational arithmetic, and a quotient that is
not a polynomial raises InexactDivisionError.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, repeat, zip_longest
from typing import Iterable, Sequence


class InexactDivisionError(ArithmeticError):
    """Polynomial long division left a remainder where exactness was required."""


class SizeGuardError(ValueError):
    """An enumeration was requested beyond its limit in ``SIZE_GUARDS``."""


# The largest size each enumeration runs at from the command line unless
# ``--unsafe`` is given: paths by their semilength n, everything else by
# rank.  The library itself sets no limit; only ``cli`` calls ``check_guard``.
# |NC(W)| is the number of ideals, so the non-crossing intervals share the
# ideal limits.  "ideal mask" counts type-D ideals as ``cat_q`` does
# (0.09 s at D9), and "verify" is the phi/psi verifiers (in process, on a
# 2-core machine with Python 3.11: 0.05-0.09 s for phi at A10 and at B8,
# 0.03-0.05 s for psi; one rank past the guard, 0.7-0.8 s at A11 and
# 0.2-0.3 s at B9).
SIZE_GUARDS = {
    "path": {"A": 12, "B": 8},
    "ideal": {"A": 9, "B": 6, "D": 5},
    "ideal mask": {"D": 9},
    "non-crossing": {"A": 9, "B": 6, "D": 5},
    "sortable": {"A": 8, "B": 5, "D": 4},
    "verify": {"A": 10, "B": 8},
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
    empty coefficient tuple, so a nonzero polynomial has degree
    ``len(coeffs) - 1``.

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
    def one(cls) -> "QPoly":
        return cls((1,))

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

    def __add__(self, other: "QPoly") -> "QPoly":
        return QPoly(map(sum, zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly([c * other for c in self.coeffs])
        # Kronecker substitution: each factor is packed as its value at
        # q = 2^(8 width), positive part minus negative part; no coefficient
        # of the product exceeds |a|_1 |b|_1, which sizes the fields, and
        # ``_signed`` checks them.
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        width = _width(sum(map(abs, a)) * sum(map(abs, b)))
        pa, pb = (_pack([max(c, 0) for c in cs], width) - _pack([max(-c, 0) for c in cs], width) for cs in (a, b))
        return QPoly(_signed(pa * pb, width, len(a) + len(b) - 1, sum(a) * sum(b)))

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        return reduce(lambda val, c: val * x + c, reversed(self.coeffs), 0)  # Horner's rule

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "QPoly":
        """Decode ``{"coeffs": [...]}``, a list of ints; a bool or float entry is refused."""
        cs = data.get("coeffs") if isinstance(data, dict) else None
        if not isinstance(cs, list):
            raise ValueError(f'expected {{"coeffs": [int, ...]}}, got {data!r}')
        for c in cs:
            if type(c) is not int:
                raise ValueError(f"coefficient {c!r} is not an int")
        return cls(cs)

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                var = "" if k == 0 else "q" if k == 1 else f"q^{k}"
                terms.append(("+ " if c > 0 else "- ") + ("" if abs(c) == 1 and var else str(abs(c))) + var)
        line = " ".join(terms)
        return "0" if not line else line[2:] if line[0] == "+" else "-" + line[2:]

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


_EXCEPTIONAL_DEGREES = {
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}

FAMILIES = ("A", "B", "D", "I2") + tuple(_EXCEPTIONAL_DEGREES)


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
        if type(self.rank) is not int:  # type(), not isinstance(): True and 2.0 would pass as ranks
            raise ValueError(f"rank must be an int, got {self.rank!r}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.family}{self.rank}")
        if self.family == "D" and self.rank < 2:
            raise ValueError("type D needs rank >= 2")
        if self.family == "I2" and self.rank < 2:
            raise ValueError("I2(k) needs k >= 2")
        fixed = len(_EXCEPTIONAL_DEGREES.get(self.family, ()))
        if fixed and self.rank != fixed:
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
        """The usual name: ``A4``, ``D4``, ``I2(5)``, and ``E8`` for a family whose name fixes the rank."""
        if self.family == "I2":
            return f"I2({self.rank})"
        return self.family if self.family in _EXCEPTIONAL_DEGREES else f"{self.family}{self.rank}"


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


def _size(value, name: str = "n") -> int:
    """``value`` if it is an int >= 0, else a ValueError that names it: the one size rule of every entry.

    type(), not isinstance(): True would pass as 1, and a float 2.0 as 2.
    """
    if type(value) is int and value >= 0:
        return value
    raise ValueError(f"{name} must be >= 0 and an int, got {value!r}")


def q_integer(k: int) -> QPoly:
    """The q-analogue 1 + q + ... + q^(k-1); k = 0 gives the zero polynomial.

    k is an int >= 0 (``_size``): a bool, float, string or None is a ValueError naming it.
    """
    return QPoly((1,) * _size(k, "k"))


def q_factorial(k: int) -> QPoly:
    out = QPoly.one()
    for i in range(2, _size(k, "k") + 1):
        out = out * q_integer(i)
    return out


def q_binomial(k: int, l: int) -> QPoly:
    """The q-binomial coefficient, computed by the q-Pascal recurrence.

    k and l are ints >= 0 (``_size``), and l <= k; anything else is a
    ValueError naming the argument.

    >>> str(q_binomial(4, 2))
    '1 + q + 2q^2 + q^3 + q^4'
    """
    if _size(l, "l") > _size(k, "k"):
        raise ValueError("need l <= k")
    l = min(l, k - l)
    total = math.comb(k, l)  # bounds every coefficient of qbinom(i, j), i <= k and j <= l
    width = _width(total)
    bits = 8 * width
    # row[j] holds qbinom(i, j) packed; Pascal step: qbinom(i,j) = qbinom(i-1,j-1) + q^j qbinom(i-1,j)
    row = [1] + [0] * l
    for i in range(1, k + 1):
        for j in range(min(i, l), 0, -1):
            row[j] = row[j - 1] + (row[j] << (bits * j))
    return QPoly(_signed(row[l], width, l * (k - l) + 1, total))  # the top coefficient is at q^(l (k - l))


def _pack(cs: Iterable[int], width: int) -> int:
    """The non-negative coefficients ``cs``, ``width`` bytes each, constant term lowest."""
    return int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(width), repeat("little"))), "little")


def cat_number(t: GroupType) -> int:
    """The Catalan number prod (d_i + h)/d_i of the reflection group, exactly."""
    ds = degrees(t)
    h = coxeter_number(t)
    num = math.prod(d + h for d in ds)
    den = math.prod(ds)
    if num % den:
        raise ArithmeticError(f"degree table for {t} gives a non-integer")
    return num // den


def _over(cs: list[int], d: int) -> bool:
    """Divide cs in place by 1 - q^d; False if the quotient is no polynomial.

    The running sums along each residue class mod d give the power series
    quotient to the length of cs; it is the exact quotient iff its top d
    coefficients are zero, and those are dropped.
    """
    for r in range(d):
        cs[r::d] = accumulate(cs[r::d])
    if any(cs[-d:]):
        return False
    del cs[-d:]
    return True


def _pairing(ds: Sequence[int], h: int) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """``_qcat``'s plan: the pairs (d, k), the unpaired numerator exponents, the unpaired degrees.

    Largest first, each degree d takes the smallest unused numerator
    exponent m = d' + h that it divides, and then (1 - q^m) / (1 - q^d) is
    the polynomial [k]_{q^d} with k = m / d.  A degree below 1 raises
    ZeroDivisionError.
    """
    order = sorted(ds, reverse=True)
    if order and order[-1] < 1:
        raise ZeroDivisionError("division by [0]_q = 0")
    free = sorted(d + h for d in order)
    pairs, lone = [], []
    for d in order:
        if m := next((m for m in free if m % d == 0), 0):
            free.remove(m)
            pairs.append((d, m // d))
        else:
            lone.append(d)
    return pairs, free, lone


def _width(bound: int) -> int:
    """Bytes per field for signed coefficients of absolute value at most ``bound``: 1, 2, 4 or 8 where that suffices."""
    width = (bound.bit_length() + 8) // 8
    return next((w for w in (1, 2, 4, 8) if w >= width), width)


_SIGNED_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}  # ``struct``'s standard sizes


def _signed(packed: int, width: int, length: int, total: int) -> list[int]:
    """The ``length`` signed coefficients packed ``width`` bytes per field into ``packed``, constant term first.

    ``packed`` is the polynomial's value at q = 2^(8 width).  Adding
    2^(8 width - 1) to every field keeps each field in [0, 2^(8 width)) if
    every |coefficient| is below that offset, so no borrow crosses a field,
    and flipping the top bits back leaves each field in two's complement.
    Fields that wrapped move the sum of the fields by a multiple of
    2^(8 width) - 1, which may be zero: a sum other than ``total``, the value
    at q = 1, raises OverflowError.  It is the one decoder of every packed
    polynomial here and in ``paths``, each sized by ``_width``.
    """
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")
    raw = ((packed + bias) ^ bias).to_bytes(width * length, "little")
    code = _SIGNED_CODES.get(width)
    cs = list(struct.unpack(f"<{length}{code}", raw)) if code else [int.from_bytes(raw[i:i + width], "little", signed=True) for i in range(0, len(raw), width)]
    if sum(cs) != total:
        raise OverflowError(f"{width}-byte signed fields add up to {sum(cs)}, not {total}")
    return cs


def _qcat(ds: Sequence[int], h: int) -> QPoly:
    """prod [d + h]_q / [d]_q = prod (1 - q^(d+h)) / (1 - q^d) over the degrees d.

    One int packs the coefficients ``width`` bytes per field.  Each pair
    (d, k) of ``_pairing`` multiplies it by [k]_{q^d} through k - 1 shifted
    adds (Horner's rule), and each unpaired numerator by 1 - q^m through one
    shifted subtraction.  The paired product's coefficients are nonnegative
    and add up to prod k, and each 1 - q^m at most doubles the largest
    |coefficient|, so ``_width`` of prod k * 2^(unpaired numerators) holds
    every field, and ``_signed`` decodes the int once.  Only the unpaired
    degrees are divided out of the list, which grows only towards the
    quotient's degree h * len(ds), never to the numerator's.  Every factor
    1 - q^k is a product of cyclotomic polynomials; if the whole quotient is
    a polynomial, the numerator holds each of them at least as often as the
    whole denominator, hence as any part of it, so every partial quotient
    is a polynomial too.  The first division that leaves a remainder thus
    proves the table inexact and raises InexactDivisionError; a degree
    below 1 raises ZeroDivisionError before any arithmetic.
    """
    pairs, free, lone = _pairing(ds, h)
    paired = math.prod(k for _, k in pairs)  # the paired product's value at q = 1
    width = _width(paired << len(free))
    packed = 1
    for d, k in pairs:
        step, shift = packed, 8 * width * d
        for _ in range(k - 1):
            packed = step + (packed << shift)
    for m in free:
        packed -= packed << (8 * width * m)
    cs = _signed(packed, width, 1 + sum(d * (k - 1) for d, k in pairs) + sum(free), 0 if free else paired)
    for d in lone:
        if not _over(cs, d):
            raise InexactDivisionError(f"prod [d + {h}]_q / [d]_q over d in {tuple(ds)} is not a polynomial")
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
    return _qcat(range(2, _size(n) + 1), n)


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
