"""Ground-truth counting by exhaustive enumeration.

This module is the referee for every closed formula and generating function
in the package, so it stays deliberately naive: it walks all 2^(n-1)
compositions of n (via their binary encodings) and tallies statistics
directly from the definitions.  No transfer matrices, no recurrences.

Enumeration order is the lexicographic order of the binary encodings, which
makes streamed output deterministic and testable.  The integer mask over
bits b_1 .. b_(n-1) (most significant bit first, with b_n always 1)
increases exactly in that order.

Counting an n bounded by ``cap`` (default 24) is refused: 2^(n-1) items grow
fast and a typo should not start an hour-long loop.  The cap is an argument,
not a constant.

Per-(n, modulus) tallies are cached so repeated queries against the same
composition space (the verification grid asks thousands) enumerate it once.
Counts of equivalence classes for the reduced families materialize the set
of canonical forms; class sizes vary (2^(number of strictly unequal pairs)),
so dividing by an orbit size would be wrong.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator

from .stats import (
    Composition,
    CountSpec,
    Family,
    Modulus,
    Sign,
    SignClass,
    check_modulus,
    mismatch_count,
    sign_class,
    swap_canonical,
)

DEFAULT_ENUMERATION_CAP = 24


class EnumerationCapError(ValueError):
    """Raised when an exhaustive count would exceed the enumeration cap."""


def _check_cap(n: int, cap: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > cap:
        raise EnumerationCapError(
            f"refusing to enumerate 2^{n - 1} compositions of n={n}: "
            f"enumeration cap is {cap} (pass a larger cap to override)"
        )


def check_enumeration_cap(n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Refuse, before any work, a run that enumerates n = 0..n_max in turn.

    The error is the one that run would raise at its first n past the cap.
    """
    if n_max > cap:
        _check_cap(max(cap + 1, 0), cap)


def enumerate_compositions(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Composition]:
    """Yield every composition of n once, ordered by its binary encoding."""
    _check_cap(n, cap)
    if n == 0:
        yield ()
        return
    for mask in range(1 << (n - 1)):
        parts = []
        prev = 0
        for pos in range(1, n):
            if (mask >> (n - 1 - pos)) & 1:
                parts.append(pos - prev)
                prev = pos
        parts.append(n - prev)
        yield tuple(parts)


@lru_cache(maxsize=None)
def _census(n: int, modulus: Modulus) -> dict:
    """Tally all compositions of n: counts keyed by (sign, statistic).

    Returns {'mismatch': Counter[(SignClass, k)], 'match': Counter[...]}.
    """
    mismatch: Counter = Counter()
    match: Counter = Counter()
    for c in enumerate_compositions(n, cap=n):
        sign = sign_class(c)
        mis = mismatch_count(c, modulus)
        mismatch[(sign, mis)] += 1
        match[(sign, len(c) // 2 - mis)] += 1
    return {"mismatch": mismatch, "match": match}


@lru_cache(maxsize=None)
def _reduced_census(n: int, modulus: Modulus) -> dict:
    """Same tallies over distinct swap-canonical forms (equivalence classes)."""
    forms = {swap_canonical(c) for c in enumerate_compositions(n, cap=n)}
    mismatch: Counter = Counter()
    match: Counter = Counter()
    for c in forms:
        sign = sign_class(c)
        mis = mismatch_count(c, modulus)
        mismatch[(sign, mis)] += 1
        match[(sign, len(c) // 2 - mis)] += 1
    return {"mismatch": mismatch, "match": match}


def brute_count(spec: CountSpec, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Count compositions (or swap classes) of n selected by spec, from scratch."""
    _check_cap(n, cap)
    check_modulus(spec.modulus)
    census = (_reduced_census if spec.reduced else _census)(n, spec.modulus)
    stat = census["mismatch"] if spec.family is Family.PC else census["match"]
    if spec.sign is Sign.TOTAL:
        return stat[(SignClass.PLUS, spec.k)] + stat[(SignClass.MINUS, spec.k)]
    sign = SignClass.PLUS if spec.sign is Sign.PLUS else SignClass.MINUS
    return stat[(sign, spec.k)]


@lru_cache(maxsize=None)
def _ones_distribution(n: int) -> Counter:
    """Counter: number of parts equal to 1 -> how many compositions of n."""
    dist: Counter = Counter()
    for c in enumerate_compositions(n, cap=n):
        dist[sum(1 for p in c if p == 1)] += 1
    return dist


def count_parts_equal_one(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of compositions of n with exactly k parts equal to 1."""
    _check_cap(n, cap)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _ones_distribution(n)[k]


@lru_cache(maxsize=None)
def _max_part_distribution(n: int) -> Counter:
    """Counter: largest part -> how many compositions of n (0 for the empty one)."""
    dist: Counter = Counter()
    for c in enumerate_compositions(n, cap=n):
        dist[max(c, default=0)] += 1
    return dist


def count_parts_at_most(n: int, limit: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of compositions of n with every part <= limit."""
    _check_cap(n, cap)
    if limit < 1:
        raise ValueError(f"part limit must be >= 1, got {limit}")
    dist = _max_part_distribution(n)
    return sum(count for largest, count in dist.items() if largest <= limit)


def count_two_colored_no_ones(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Compositions of n with all parts >= 2, each part colored one of two ways.

    Weighted count: sum of 2^length over compositions without a part 1.
    """
    _check_cap(n, cap)
    return sum(
        1 << len(c) for c in enumerate_compositions(n, cap=n) if all(p >= 2 for p in c)
    )


def count_at_most_one_even_part(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of compositions of n with at most one even part."""
    _check_cap(n, cap)
    return sum(
        1
        for c in enumerate_compositions(n, cap=n)
        if sum(1 for p in c if p % 2 == 0) <= 1
    )


def clear_caches() -> None:
    """Drop the memoized censuses (mainly for tests that touch large n)."""
    _census.cache_clear()
    _reduced_census.cache_clear()
    _ones_distribution.cache_clear()
    _max_part_distribution.cache_clear()
