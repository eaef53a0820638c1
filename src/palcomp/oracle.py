"""Ground-truth counting by exhaustive enumeration.

This module is the referee for every closed formula and generating function
in the package, so it stays deliberately naive: it walks all 2^(n-1)
compositions of n, part by part, and tallies statistics directly from the
definitions.  No transfer matrices, no recurrences.

Enumeration order is the lexicographic order of the binary encodings, which
makes streamed output deterministic and testable.  The walk produces it from
a stack of (prefix, rest) nodes: it pops a node, yields the prefix closed by
one last part equal to rest, and pushes the prefix extended by p for
p = 1 .. rest-1, so the largest p is popped next.  A first part a puts a-1
zeros before the first one in the encoding, so a larger first part sorts
earlier: the first part runs from n down to 1, and below each first part the
remaining parts follow the same order for their own sum.  Closing the prefix
with rest (all zeros to the last bit) is the smallest encoding below a node,
which is why it is yielded before the node's children.

Below a node whose rest is at most a small depth (8), that node's whole
subtree is every composition t of rest, in the same order, each closed onto
the node's prefix.  So the walk stops there and emits ``prefix + t`` for each
t of a table of the small compositions (255 tuples at depth 8, each rest
built once by the same stack walk with no table below it).  It is still a
literal walk: every composition is built once, as its tuple or as its weight
sum, and yielded once, in encoding order, and no count is inferred from the
table's size.  A weighted walk is the same walk over numbers: a node carries
the sum of its prefix's part weights, a part p adds ``weights[p]``, and a table
row is the weight sums of the same small compositions.  A node above the
table costs O(1) Python steps, a node at the table costs one C-level ``map``
over its row, and each composition then costs one tuple concatenation or one
integer addition; the stack holds O(n^2) nodes.
:func:`enumerate_compositions` returns ``itertools.chain`` over the walk's
runs, so no composition passes through a Python generator frame; the chain is
as lazy as the walk, and a bad n, cap or weights is refused at its first
``next()``.

:func:`brute_grid` reads a request as rows, like ``formula_grid`` and
``gf_grid``, and :func:`brute_count` is its one-cell request.  It refuses what
they refuse, in their order (:func:`palcomp.stats.check_request`): a bad
cell, then each n, then each k.  Only then does it refuse a bad ``cap``
argument or any n above it (default 24) through :func:`check_enumeration_cap`,
the one cap rule that every walk and count here and ``verify`` use: 2^(n-1)
items grow fast and a typo should not start an hour-long loop.  Then each row
reads its n's census once, and a row whose every cell has 2k > n reads none.

Each n is walked at most twice, once per record below, and the 32 most
recent records of each kind are kept, which covers every n up to the default
cap.  The pair record tallies compositions by sign class, the sorted
differences |a_i - a_(l+1-i)| of their mirror pairs, and whether the
composition is its own swap-canonical form.  Two parts are congruent mod m
exactly when m divides their difference, so one pair record answers every
modulus and both families; the per-(n, modulus) census behind
:func:`brute_grid` is read off it without enumerating again.  The census asks
``stats.congruent`` once per difference value 0..n, into a table that every
key's differences index.  A reduced
family counts the canonical compositions, because every swap class has
exactly one representative with the larger part first in each pair; class
sizes vary (2^(number of strictly unequal pairs)), so dividing by an orbit
size would be wrong.  The part record keys each composition by its parts in
ascending order, the partition of n it rearranges, so it holds p(n) keys;
each auxiliary count reads its own definition off those parts.  It walks n
weighted: part p weighs ``1 << bits * (p - 1)`` with ``bits = n.bit_length()``,
so a composition's weight sum holds, in field p - 1, how many parts equal p.
No part occurs more than n < 2^bits times, so no field carries into the next,
and each sum is one multiset of parts, decoded into its tuple once per key.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .stats import (
    DEFAULT_ENUMERATION_CAP,
    Composition,
    Family,
    Modulus,
    Sign,
    check_index,
    check_request,
    congruent,
    sign_class,
    swap_canonical,
)

_SUFFIX_DEPTH = 8  # rests up to this are read from the table of small compositions


class EnumerationCapError(ValueError):
    """Raised when an exhaustive count would exceed the enumeration cap."""


def check_enumeration_cap(ns: Iterable[int], cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Refuse, before any work, a run that enumerates each n of ns in turn: a bad
    cap first, then the error that run would raise at its first bad n or n past the cap."""
    check_index(cap, "cap")
    for n in ns:
        check_index(n, "n")
        if n > cap:
            raise EnumerationCapError(
                f"refusing to enumerate 2^{n - 1} compositions of n={n}: "
                f"enumeration cap is {cap} (pass a larger cap to override)"
            )


def enumerate_compositions(
    n: int, cap: int = DEFAULT_ENUMERATION_CAP, *, weights: Sequence[int] | None = None,
) -> Iterator[Composition] | Iterator[int]:
    """Every composition of n once, ordered by its binary encoding, lazily.

    With weights, a sequence indexed by part that covers every part 1..n, each
    composition c is yielded as ``sum(weights[p] for p in c)`` instead, in the
    same order.  Weights shorter than n + 1, or not an int at some part 1..n,
    raise ValueError at the first ``next()``, as a bad n or cap does.
    """
    return chain.from_iterable(_runs(n, cap, weights))


def _runs(n: int, cap: int, weights: Sequence[int] | None) -> Iterator[Iterable]:
    """The runs of the walk of n, after refusing a bad n, cap or weights at the first one."""
    check_enumeration_cap([n], cap)
    if weights is None:
        atoms, empty, suffixes = [(p,) for p in range(n + 1)], (), _suffixes
    else:
        if len(weights) <= n:
            raise ValueError(f"weights must cover every part 1..{n}, got {len(weights)} entries")
        if not all(isinstance(weights[p], int) for p in range(1, n + 1)):
            raise ValueError(f"weights must be ints for every part 1..{n}")
        # the table's rows for these weights: the weight sum of each small composition
        table = [()] + [
            tuple(sum(map(weights.__getitem__, t)) for t in _suffixes(rest))
            for rest in range(1, min(n, _SUFFIX_DEPTH) + 1)
        ]
        atoms, empty, suffixes = weights, 0, table.__getitem__
    if n == 0:
        yield (empty,)
        return
    yield from _walk(n, _SUFFIX_DEPTH, atoms, empty, suffixes)


def _walk(n: int, depth: int, atoms: Sequence, empty, suffixes) -> Iterator[Iterable]:
    """The compositions of n >= 1 in encoding order, in runs: one per node above
    the table, and one per node whose rest is at most depth, read off the table
    row suffixes(rest).  A composition is empty plus atoms[p] for each part p in
    turn: its tuple when atoms[p] is (p,), its weight sum when atoms[p] is a weight."""
    stack = [(empty, n)]
    while stack:
        prefix, rest = stack.pop()
        if rest <= depth:
            yield map(prefix.__add__, suffixes(rest))
            continue
        yield (prefix + atoms[rest],)
        for p in range(1, rest):
            stack.append((prefix + atoms[p], rest - p))


@lru_cache(maxsize=_SUFFIX_DEPTH)
def _suffixes(rest: int) -> tuple[Composition, ...]:
    """Every composition of 1 <= rest <= _SUFFIX_DEPTH in encoding order, walked."""
    return tuple(chain.from_iterable(_walk(rest, 0, [(p,) for p in range(rest + 1)], (), None)))


@lru_cache(maxsize=32)
def _pair_record(n: int) -> Counter:
    """Tally the compositions of n by (sign, sorted pair differences, canonical)."""
    record: Counter = Counter()
    for c in enumerate_compositions(n, cap=n):
        l = len(c)
        differences = sorted([abs(c[i] - c[l - 1 - i]) for i in range(l // 2)])
        record[(sign_class(c), tuple(differences), c == swap_canonical(c))] += 1
    return record


@lru_cache(maxsize=128)
def _census(n: int, modulus: Modulus) -> Counter:
    """Counts keyed by (family, reduced, sign, k), read off the pair record of n."""
    # incongruent[d]: a pair whose parts differ by d mismatches; a difference is at most n
    incongruent = [not congruent(d, 0, modulus) for d in range(n + 1)]
    census: Counter = Counter()
    for (sign, differences, canonical), count in _pair_record(n).items():
        mis = sum(map(incongruent.__getitem__, differences))
        for family, k in ((Family.PC, mis), (Family.AC, len(differences) - mis)):
            census[(family, False, sign, k)] += count
            if canonical:
                census[(family, True, sign, k)] += count
    return census


def brute_grid(
    family: Family, reduced: bool, sign: Sign, modulus: Modulus,
    ns: Sequence[int], ks: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[list[int]]:
    """rows[i][j] = brute_count(..., ns[i], ks[j], cap).  The cell, every n and
    every k are checked, and then the cap at every n, before any walk.  Then
    each row reads its n's census once; a cell with 2k > n is 0 without it."""
    check_request(family, reduced, sign, modulus, ns, ks)
    check_enumeration_cap(ns, cap)
    signs = (Sign.PLUS, Sign.MINUS) if sign is Sign.TOTAL else (sign,)
    rows = []
    for n in ns:
        # n has at most n // 2 mirror pairs, so its census has no key past them
        census = _census(n, modulus) if any(2 * k <= n for k in ks) else Counter()
        rows.append([sum(census[(family, reduced, s, k)] for s in signs) for k in ks])
    return rows


def brute_count(
    family: Family, reduced: bool, sign: Sign, modulus: Modulus, n: int, k: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """Count compositions (or swap classes) of n in one cell, from scratch."""
    return brute_grid(family, reduced, sign, modulus, [n], [k], cap)[0][0]


@lru_cache(maxsize=32)
def _part_record(n: int) -> Counter:
    """Tally the compositions of n by their parts in ascending order.

    Each key is a partition of n, counted once per distinct ordering of its parts.
    The walk tallies one-hot weight sums, and each sum is decoded once.
    """
    bits = n.bit_length()
    weights = [0] + [1 << bits * (p - 1) for p in range(1, n + 1)]
    sums = Counter(enumerate_compositions(n, cap=n, weights=weights))
    field = (1 << bits) - 1
    return Counter({
        tuple(p for p in range(1, n + 1) for _ in range((key >> bits * (p - 1)) & field)): count
        for key, count in sums.items()
    })


def count_parts_equal_one(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of compositions of n with exactly k parts equal to 1."""
    check_enumeration_cap([n], cap)
    check_index(k, "k")
    return sum(count for parts, count in _part_record(n).items() if parts.count(1) == k)


def count_parts_at_most(n: int, limit: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of compositions of n with every part <= limit."""
    check_enumeration_cap([n], cap)
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise TypeError(f"part limit must be an int, got {limit!r}")
    if limit < 1:
        raise ValueError(f"part limit must be >= 1, got {limit}")
    return sum(count for parts, count in _part_record(n).items() if max(parts, default=0) <= limit)


def count_two_colored_no_ones(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Compositions of n with all parts >= 2, each part colored one of two ways.

    Weighted count: sum of 2^length over compositions without a part 1.
    """
    check_enumeration_cap([n], cap)
    return sum(count << len(parts) for parts, count in _part_record(n).items() if 1 not in parts)


def count_at_most_one_even_part(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of compositions of n with at most one even part."""
    check_enumeration_cap([n], cap)
    return sum(
        count for parts, count in _part_record(n).items()
        if sum(1 for p in parts if p % 2 == 0) <= 1
    )
