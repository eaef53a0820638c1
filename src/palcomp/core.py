"""Arbitrary-precision combinatorial primitives.

Everything downstream counts with plain Python integers, so all functions
here are exact for any argument size.

The binomial coefficient uses a nonstandard convention that every counting
formula in this package depends on:

    binom(a, b) = a! / (b! (a-b)!)   if a >= b >= 1,
                  1                  if b == 0  (for every integer a,
                                                 including negative a),
                  0                  otherwise.

In particular binom(-1, 0) == 1 while binom(-1, 1) == 0, which differs from
the usual extension of binomials to negative upper index.  Formulas rely on
terms like binom(i + k - 1, i) vanishing for k == 0, i >= 1 but contributing
1 at i == 0, so do not replace calls to :func:`binom` with ``math.comb`` or
factorial shortcuts.

Two tribonacci flavours appear, distinguished by initial conditions:

    tribonacci:        T(i) = 0 for i < 1,  T(1) = T(2) = 1
    tribonacci_prime:  T'(0) = 0, T'(1) = 1, T'(2) = 0

both following x(n) = x(n-1) + x(n-2) + x(n-3).
"""

from __future__ import annotations

import math
from typing import Sequence


def binom(a: int, b: int) -> int:
    """Binomial coefficient under the package-wide convention (see module doc)."""
    if b == 0:
        return 1
    if a >= b >= 1:
        return math.comb(a, b)
    return 0


def multinom(k: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient k! / (parts[0]! * ... * parts[-1]!).

    Returns 0 unless the parts are nonnegative and sum to k.  An empty part
    list is the empty product: multinom(0, []) == 1, multinom(k, []) == 0
    for k >= 1.
    """
    if any(p < 0 for p in parts) or sum(parts) != k:
        return 0
    result = 1
    remaining = k
    for p in parts:
        result *= math.comb(remaining, p)
        remaining -= p
    return result


def fibonacci(n: int) -> int:
    """F(n) with F(0) = 0, F(1) = 1."""
    if n < 0:
        raise ValueError(f"fibonacci is defined for n >= 0, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def tribonacci(n: int) -> int:
    """T(n) with T(i) = 0 for i < 1 and T(1) = T(2) = 1; defined for all integers."""
    if n < 1:
        return 0
    a, b, c = 0, 1, 1  # T(0), T(1), T(2)
    for _ in range(n - 2):
        a, b, c = b, c, a + b + c
    return c


def tribonacci_prime(n: int) -> int:
    """T'(n) with T'(0) = 0, T'(1) = 1, T'(2) = 0."""
    if n < 0:
        raise ValueError(f"tribonacci_prime is defined for n >= 0, got {n}")
    if n <= 2:
        return (0, 1, 0)[n]
    a, b, c = 0, 1, 0  # T'(0), T'(1), T'(2)
    for _ in range(n - 2):
        a, b, c = b, c, a + b + c
    return c


def tribonacci_identity_sum(n: int) -> int:
    """Triple sum over j + r + s = n of binom(j, r) * binom(r, s).

    Equals tribonacci(n + 1); the grid of solutions is enumerated literally
    rather than collapsed, so this doubles as an independent check of the
    tribonacci recurrence.
    """
    if n < 0:
        raise ValueError(f"tribonacci_identity_sum is defined for n >= 0, got {n}")
    total = 0
    for j in range(n + 1):
        for r in range(n - j + 1):
            s = n - j - r
            total += binom(j, r) * binom(r, s)
    return total
