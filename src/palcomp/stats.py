"""Compositions and their palindromicity statistics.

A composition of n is a tuple of positive integers summing to n; the empty
tuple is the unique composition of 0.  Compositions are kept as plain tuples
throughout the package, validated at API boundaries by :func:`composition`.
Every counting path validates its request with :func:`check_request`.

For a composition (a_1, ..., a_l), position i and its mirror l+1-i form a
pair for 1 <= i <= l//2.  A pair *mismatches* modulo m when the two parts are
incongruent mod m (literally unequal when the modulus is INFINITY), and
*matches* otherwise.  Counting compositions by the number of mismatching
pairs gives the palindromic families; counting by matching pairs gives the
anti-palindromic families.  A modulus is a positive int or the single Enum
member INFINITY, which every path tests by identity (``modulus is INFINITY``)
and which reads as ``inf`` under repr, str and format.

Sign classes refine the count by the middle part: a composition is PLUS when
its length is even, or odd with an even middle part; MINUS when the middle
part is odd.  The empty composition has even length 0 and is PLUS.  Since
minus(n) = plus(n - 1), :func:`plus_reads` reads every sign off plus values,
and :func:`sign_rows` is the one place a request's rows are summed from them.

The reduced families count equivalence classes under independently swapping
the two parts of any pair; :func:`swap_canonical` picks the class
representative with the larger part first in every pair.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from typing import Union


class _InfinityType(Enum):
    """Modulus meaning 'congruence is literal equality'."""

    INFINITY = "inf"

    __hash__ = object.__hash__  # it keys the census, catalog and series caches

    def __repr__(self) -> str:
        return "inf"

    __str__ = __repr__


INFINITY = _InfinityType.INFINITY

Modulus = Union[int, _InfinityType]

Composition = tuple[int, ...]


class Family(Enum):
    PC = "pc"  # count by mismatching pairs (palindromic at k = 0)
    AC = "ac"  # count by matching pairs (anti-palindromic at k = 0)

    __hash__ = object.__hash__  # members compare by identity; Enum's own hash runs in Python


class Sign(Enum):
    PLUS = "plus"
    MINUS = "minus"
    TOTAL = "total"

    __hash__ = object.__hash__


class FormulaVariant(Enum):  # the published formulas for one block (palcomp.formulas)
    V1 = 1
    V2 = 2
    V3 = 3


DEFAULT_ENUMERATION_CAP = 24  # the largest n brute force walks unless asked (palcomp.oracle)


def check_modulus(modulus: Modulus) -> Modulus:
    """Validate a modulus: a positive integer or INFINITY."""
    if modulus is INFINITY:
        return modulus
    if isinstance(modulus, bool) or not isinstance(modulus, int):
        raise TypeError(f"modulus must be a positive int or INFINITY, got {modulus!r}")
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    return modulus


def check_cell(family: Family, reduced: bool, sign: Sign, modulus: Modulus) -> None:
    """Validate the cell every counting path takes, before the indices n and k."""
    fields = (("family", family, Family), ("reduced", reduced, bool), ("sign", sign, Sign))
    for name, value, kind in fields:
        if not isinstance(value, kind):
            raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")
    check_modulus(modulus)


def check_index(value: int, name: str) -> int:
    """Validate a count index such as n or k: an int (not a bool) and >= 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_request(family: Family, reduced: bool, sign: Sign, modulus: Modulus,
                  ns: Sequence[int], ks: Sequence[int]) -> None:
    """Validate the request every counting path takes: the cell, then each n, then
    each k.  ns and ks are read again after the check, so each must be a sequence."""
    check_cell(family, reduced, sign, modulus)
    for name, values in (("n", ns), ("k", ks)):
        if not isinstance(values, Sequence):
            raise TypeError(f"{name}s must be a sequence, got {type(values).__name__}")
        for value in values:
            check_index(value, name)


def composition(parts: Iterable[int]) -> Composition:
    """Validate and normalize an iterable of parts into a composition tuple."""
    c = tuple(parts)
    for p in c:
        if isinstance(p, bool) or not isinstance(p, int) or p < 1:
            raise ValueError(f"composition parts must be integers >= 1, got {p!r}")
    return c


def parse_composition(text: str) -> Composition:
    """Parse the comma-separated text form, e.g. '2,4,1,1,2'; '' is empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse composition from {text!r}") from None
    return composition(parts)


def format_composition(c: Composition) -> str:
    """Inverse of :func:`parse_composition`."""
    return ",".join(str(p) for p in c)


def parse_modulus(text: str) -> Modulus:
    """Parse 'inf' (or 'infinity') or a positive integer."""
    text = text.strip().lower()
    if text in ("inf", "infinity"):
        return INFINITY
    try:
        m = int(text)
    except ValueError:
        raise ValueError(f"cannot parse modulus from {text!r}") from None
    return check_modulus(m)


def encode_binary(c: Composition) -> tuple[int, ...]:
    """Binary string of length n marking the partial sums of c with ones.

    Entry i (1-based) is 1 iff i is one of a_1, a_1+a_2, ...; nonempty
    compositions always end in 1.
    """
    bits = [0] * sum(c)
    total = 0
    for part in c:
        total += part
        bits[total - 1] = 1
    return tuple(bits)


def decode_binary(bits: Sequence[int] | str) -> Composition:
    """Inverse of :func:`encode_binary`; rejects nonempty input not ending in 1."""
    if isinstance(bits, str):
        if not set(bits) <= {"0", "1"}:
            raise ValueError(f"binary string may contain only 0 and 1: {bits!r}")
        bits = tuple(int(ch) for ch in bits)
    else:
        bits = tuple(bits)
        if not set(bits) <= {0, 1}:
            raise ValueError(f"binary sequence entries must be 0 or 1: {bits!r}")
    if not bits:
        return ()
    if bits[-1] != 1:
        raise ValueError("binary encoding of a nonempty composition must end in 1")
    parts = []
    prev = 0
    for i, bit in enumerate(bits, start=1):
        if bit:
            parts.append(i - prev)
            prev = i
    return tuple(parts)


def congruent(a: int, b: int, modulus: Modulus) -> bool:
    """a == b under INFINITY; a == b (mod m) otherwise."""
    if modulus is INFINITY:
        return a == b
    return (a - b) % modulus == 0


def mismatch_count(c: Composition, modulus: Modulus) -> int:
    """Number of pairs (i, l+1-i), i <= l//2, whose parts are incongruent."""
    check_modulus(modulus)
    l = len(c)
    return sum(1 for i in range(l // 2) if not congruent(c[i], c[l - 1 - i], modulus))


def match_count(c: Composition, modulus: Modulus) -> int:
    """Number of congruent pairs; complement of mismatch_count within l//2."""
    return len(c) // 2 - mismatch_count(c, modulus)


def sign_class(c: Composition) -> Sign:
    """PLUS for even length or even middle part, MINUS for an odd middle part."""
    l = len(c)
    if l % 2 == 1 and c[l // 2] % 2 == 1:
        return Sign.MINUS
    return Sign.PLUS


# sign(n) = sum of plus(n - b) over the sign's offsets b, plus below 0 reading as 0
SIGN_OFFSETS = {Sign.PLUS: (0,), Sign.MINUS: (1,), Sign.TOTAL: (0, 1)}


def plus_reads(sign: Sign, n: int) -> list[int]:
    """The m with sign(n) = sum of plus(m): n - b for each offset b <= n of the sign."""
    return [n - b for b in SIGN_OFFSETS[sign] if n >= b]


def sign_rows(sign: Sign, ns: Iterable[int], width: int,
              plus_row: Callable[[int], Sequence[int]]) -> list[list[int]]:
    """rows[i] = the sum of plus_row(m) over plus_reads(sign, ns[i]), zeros of width
    where it reads none (minus at n = 0).  Plus rows are built in ascending m, only
    the previous n's held, so over ascending ns each is built once."""
    rows, held = [], {}
    for n in ns:
        held = {m: held[m] if m in held else plus_row(m) for m in sorted(plus_reads(sign, n))}
        rows.append(list(map(sum, zip([0] * width, *held.values()))))
    return rows


def swap_canonical(c: Composition) -> Composition:
    """Representative of the pair-swap class with the larger part first in each pair.

    Idempotent, and preserves n, length, sign class, and the match/mismatch
    counts for every modulus (swapping a pair swaps two parts that are
    compared only with each other).
    """
    l = len(c)
    out = list(c)
    for i in range(l // 2):
        j = l - 1 - i
        if out[i] < out[j]:
            out[i], out[j] = out[j], out[i]
    return tuple(out)
