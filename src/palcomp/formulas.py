"""Closed-form counts for every palindromicity family.

Each function evaluates one published summation: its terms are those of the
nonnegative index tuples satisfying the stated linear constraint, and every
binomial goes through :func:`palcomp.core.binom` (the three-case convention).
In the V1 finite-modulus sums, an inner sub-sum that depends on k, m and one
or two free indices, but not on n, is a function of all its arguments with
one bounded memo, reused for every outer index: the plus values of a
formula grid share its entries, and so do separate calls, in any order.
The terms and the exact arithmetic are those of the literal nested loops,
and so are the values.
Nothing here is simplified, telescoped, or shared with the
generating-function engine; agreement between the two paths and the
exhaustive oracle is what the verification suite checks.

Naming scheme: ``pc``/``ac`` count by mismatching/matching mirror pairs, an
``r`` prefix counts swap-equivalence classes, ``_plus`` restricts to
compositions without an odd middle part, ``_mod`` takes a finite modulus m
(the modulus-free functions are the m = infinity family and are not the
large-m limit of the _mod ones; keep the two groups apart).

The minus part equals plus(n-1) by the insert-or-bump-the-middle bijection,
and the total is plus(n) + plus(n-1), so no separate minus formulas exist:
:func:`palcomp.stats.sign_rows` sums every sign's rows from plus values.

Where several published formulas compute the same quantity they are kept as
separate variants (V1, V2, V3) selected by :class:`FormulaVariant`.  The
table ``_PLUS_FORMULAS`` is the one record of which formula answers which
block (family, reduced, finite modulus): its plus function, that function's
variants and the block's direct total formula, if any.  The one dispatch over
it is :func:`formula_grid`, and :func:`formula_count` is its one-cell request.

Loops stop where a binomial factor of their term turns zero: under the
three-case convention binom(a, x) = 0 for x > a >= 0, so a loop over x whose
term carries binom(a, x) runs to min(a, ...), one over i whose term carries
binom(i, k) starts at i = k, and ac_plus_k V3's loop over s, whose term
carries binom(j, rest - s), starts at s = rest - j.  The V2 vector walk stops
at its target weight: it drops a prefix whose least completion weighs more.
Every term left out is exactly zero, and a negative target leaves every range
empty and drops the walk's root.  A factor that is zero only where an index
sum in its top is -1, as binom(i+j-1, j) at i = 0, keeps its test inside the
loop.  For m = 1 an alternating index r has coefficient (m - 1) = 0, so there
the rule also makes the sum finite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .core import binom, fibonacci, multinom, tribonacci, tribonacci_prime
from .stats import (INFINITY, Family, FormulaVariant, Modulus, Sign, check_index, check_modulus,
                    check_request, plus_reads, sign_rows)

V1, V2, V3 = FormulaVariant.V1, FormulaVariant.V2, FormulaVariant.V3


class _PlusRow(NamedTuple):
    plus: str  # the block's plus function
    variants: tuple[FormulaVariant, ...]  # its published variants; () for a single formula
    direct_total: str | None = None  # the block's direct total formula, if it has one


# Which formula answers which block, keyed by (family, reduced, finite modulus).
# Rows hold names, looked up in this module at call time, so a rebound formula
# is the one that runs.  verify reports the rows with variants in this order.
_PLUS_FORMULAS: dict[tuple[Family, bool, bool], _PlusRow] = {
    (Family.AC, False, False): _PlusRow("ac_plus_k", (V1, V2, V3), "ac_total_k_alt"),
    (Family.PC, False, True): _PlusRow("pc_plus_k_mod", (V1, V2)),
    (Family.PC, True, True): _PlusRow("rpc_plus_k_mod", (V1, V2)),
    (Family.AC, False, True): _PlusRow("ac_plus_k_mod", (V1, V2), "ac_total_k_mod"),
    (Family.AC, True, True): _PlusRow("rac_plus_k_mod", (V1, V2), "rac_total_k_mod"),
    (Family.PC, False, False): _PlusRow("pc_plus_k", ()),
    (Family.PC, True, False): _PlusRow("rpc_plus_k", (), "rpc_total_k"),
    (Family.AC, True, False): _PlusRow("rac_plus_k", ()),
}


def _check_nk(n: int, k: int) -> None:
    check_index(n, "n")
    check_index(k, "k")


def _check_m(m: int) -> None:
    if m is INFINITY:
        raise ValueError(
            "the _mod formulas take a finite modulus; use the modulus-free "
            "functions for the infinity family"
        )
    check_modulus(m)


def _require_variant(v: FormulaVariant, block: tuple[Family, bool, bool], what: str = "") -> None:
    """Refuse a variant outside the block's row; `what` defaults to its plus function."""
    row = _PLUS_FORMULAS[block]
    if v not in row.variants:
        names = ", ".join(a.name for a in row.variants)
        raise ValueError(f"{what or row.plus} has variants {names}; got {v.name}")


def _nonnegative(value: int, what: str) -> int:
    if value < 0:
        raise ArithmeticError(f"{what} evaluated to a negative count: {value}")
    return value


@lru_cache(maxsize=256)
def _geometric_power_coeffs(m: int, e: int, w_max: int) -> tuple[tuple[int, int], ...]:
    """Coefficients of (1 + q + ... + q^(m-2))^e up to weight w_max, as
    (weight, coefficient) pairs.

    Built by enumerating the vectors (i_0, ..., i_(m-2)) of nonnegative
    integers summing to e, exactly as the multinomial-form summations are
    written; the coefficient of weight w collects multinom(e, vector) over
    vectors with i_1 + 2 i_2 + ... + (m-2) i_(m-2) = w.  For m = 1 there are
    no vector entries at all, so only e = 0 contributes (the empty vector).
    The vectors are walked from an explicit stack of prefixes, so a large m
    cannot exhaust the interpreter's recursion limit.  A prefix is dropped
    once its weight plus remaining * (next position) passes w_max, the least
    weight any completion reaches, and emitted once remaining is 0, since its
    other entries are zeros.  Callers pass min(target, e (m-2)), the top weight.
    """
    slots = m - 1
    acc: dict[int, int] = {}
    stack: list[tuple[tuple[int, ...], int, int]] = [((), e, 0)]
    while stack:
        prefix, remaining, weight = stack.pop()
        pos = len(prefix)
        if weight + remaining * pos > w_max:
            continue
        if remaining == 0:
            acc[weight] = acc.get(weight, 0) + multinom(e, prefix)
            continue
        if pos == slots:
            continue
        for val in range(remaining + 1):
            stack.append((prefix + (val,), remaining - val, weight + pos * val))
    return tuple(sorted(acc.items()))


# Inner sub-sums of the V1 finite-modulus sums.  Each is a plain function of
# k, m and free indices that do not involve n, with its own bounded memo:
# calls at one k and m share its entries (every n of a formula grid, and
# plus(n) and plus(n-1) of a total) in any cell order, and _sj_sum, which has
# no m, is shared across moduli.  One grid command or a whole verify run fills
# about 1,800 entries per memo, far below _MEMO_SIZE, which caps the memory a
# single large call can hold.
_MEMO_SIZE = 1 << 15


def _alternating_sum(a: int, after: int, m: int, tail: Callable[..., int], *args) -> int:
    """Sum over (m-1)r + rest = after of (-1)^r binom(a, r) tail(*args, rest)."""
    r_max = a if m == 1 else min(a, after // (m - 1))
    total = 0
    for r in range(r_max + 1):
        term = binom(a, r) * tail(*args, after - (m - 1) * r)
        total += -term if r % 2 else term
    return total


@lru_cache(maxsize=_MEMO_SIZE)
def _pc_tail(k: int, m: int, rest: int) -> int:
    """Sum over (m-1)r + s = rest of (-1)^r binom(k, r) binom(k+s-1, s)."""
    return _alternating_sum(k, rest, m, lambda s: binom(k + s - 1, s))


@lru_cache(maxsize=_MEMO_SIZE)
def _rpc_c_tail(k: int, m: int, i: int, after: int) -> int:
    """Sum over 2c + rest = after of binom(i+c, c) _pc_tail(k, m, rest)."""
    total = 0
    for c in range(after // 2 + 1):
        total += binom(i + c, c) * _pc_tail(k, m, after - 2 * c)
    return total


@lru_cache(maxsize=_MEMO_SIZE)
def _ac_plus_tail(k: int, m: int, j: int, after: int) -> int:
    """Sum over md + s = after of binom(k+j+d-1, d) binom(j+s-1, s)."""
    total = 0
    for d in range(after // m + 1):
        s = after - m * d
        total += binom(k + j + d - 1, d) * binom(j + s - 1, s)
    return total


@lru_cache(maxsize=_MEMO_SIZE)
def _sj_sum(k: int, i: int, after: int) -> int:
    """Sum over 2s + j = after of binom(i+k+s-1, s) binom(i+j, j)."""
    total = 0
    for s in range(after // 2 + 1):
        j = after - 2 * s
        total += binom(i + k + s - 1, s) * binom(i + j, j)
    return total


@lru_cache(maxsize=_MEMO_SIZE)
def _ac_total_tail(k: int, m: int, i: int, after: int) -> int:
    """Sum over md + 2s + j = after of
    binom(i+k+d-1, d) binom(i+k+s-1, s) binom(i+j, j)."""
    total = 0
    for d in range(after // m + 1):
        hd = binom(i + k + d - 1, d)
        if hd:
            total += hd * _sj_sum(k, i, after - m * d)
    return total


@lru_cache(maxsize=_MEMO_SIZE)
def _c_sum(tail: Callable[[int, int, int, int], int], k: int, m: int, a: int, after: int) -> int:
    """Sum over mc + rest = after of binom(k, c) tail(k, m, a, rest)."""
    total = 0
    for c in range(min(k, after // m) + 1):
        total += binom(k, c) * tail(k, m, a, after - m * c)
    return total


@lru_cache(maxsize=_MEMO_SIZE)
def _ac_plus_inner(k: int, m: int, j: int, after: int) -> int:
    """The (r, s, c, d) sum of ac_plus_k_mod V1 at that j and after."""
    return _alternating_sum(j, after, m, _c_sum, _ac_plus_tail, k, m, j)


@lru_cache(maxsize=_MEMO_SIZE)
def _rac_plus_inner(k: int, m: int, j: int, after: int) -> int:
    """The (r, s, d) sum of rac_plus_k_mod V1 at that j and after."""
    return _alternating_sum(j, after, m, _ac_plus_tail, k, m, j)


# ---------------------------------------------------------------------------
# modulus-free families
# ---------------------------------------------------------------------------


def pc_plus_k(n: int, k: int) -> int:
    """Sum over i + 2j = n - 3k of binom(i+k-1, i) binom(j+k, j) 2^(j+k)."""
    _check_nk(n, k)
    target = n - 3 * k
    total = 0
    for j in range(target // 2 + 1):
        i = target - 2 * j
        total += binom(i + k - 1, i) * binom(j + k, j) << (j + k)
    return total


def pc_plus_1_closed(n: int) -> int:
    """Closed form 2 + (ceil(n/2) - 2) 2^ceil(n/2) for pc_plus_k(n, 1)."""
    check_index(n, "n")
    h = (n + 1) // 2
    return _nonnegative(2 + (h - 2) * (1 << h), "pc_plus_1_closed")


def ac_plus_k(n: int, k: int, variant: FormulaVariant = V1) -> int:
    """Compositions of n in the plus class with exactly k matching pairs.

    V1: sum over 2r + i + j = n - 2k of
        binom(r+k, r) binom(r, i) binom(r+j-1, j)
    V2: sum over 2r + i + j = n - 2k of
        2^i binom(r+k, k) binom(r, i) binom(i+j-1, j)
    V3: sum over i + j + r + 2s = n - 2k of
        (-1)^i binom(k+1, i) binom(j+k, j) binom(j, r+s) binom(r+s, r)
    """
    _check_nk(n, k)
    _require_variant(variant, (Family.AC, False, False))
    target = n - 2 * k
    total = 0
    if variant is V1:
        for r in range(target // 2 + 1):
            head = binom(r + k, r)
            for i in range(min(r, target - 2 * r) + 1):
                j = target - 2 * r - i
                total += head * binom(r, i) * binom(r + j - 1, j)
    elif variant is V2:
        for r in range(target // 2 + 1):
            head = binom(r + k, k)
            for i in range(min(r, target - 2 * r) + 1):
                j = target - 2 * r - i
                total += (head * binom(r, i) << i) * binom(i + j - 1, j)
    else:
        for i in range(min(k + 1, target) + 1):
            ki = binom(k + 1, i)
            signed = -ki if i % 2 else ki
            for j in range(target - i + 1):
                jk = binom(j + k, j)
                rest = target - i - j
                for s in range(max(0, rest - j), rest // 2 + 1):
                    r = rest - 2 * s
                    total += signed * jk * binom(j, r + s) * binom(r + s, r)
    return _nonnegative(total, "ac_plus_k")


def _eq_total_matching_sum(target: int, k: int) -> int:
    """Sum over i + j + r + s = target of
    (-1)^i binom(k, i) binom(j+k, j) binom(j, r) binom(r, s)."""
    total = 0
    for i in range(min(k, target) + 1):
        ki = binom(k, i)
        signed = -ki if i % 2 else ki
        for j in range(target - i + 1):
            jk = binom(j + k, j)
            for r in range(min(j, target - i - j) + 1):
                s = target - i - j - r
                total += signed * jk * binom(j, r) * binom(r, s)
    return total


def ac_total_k_alt(n: int, k: int) -> int:
    """Alternating-sum formula for the total matching-pair count.

    Difference of the quadruple sum at targets n - 2k and n - 2k - 2; equals
    ac_plus_k(n, k) + ac_plus_k(n-1, k).
    """
    _check_nk(n, k)
    value = _eq_total_matching_sum(n - 2 * k, k) - _eq_total_matching_sum(n - 2 * k - 2, k)
    return _nonnegative(value, "ac_total_k_alt")


def _exact_halving(value: int, k: int, what: str) -> int:
    quotient, remainder = divmod(value, 1 << k)
    if remainder:
        raise ArithmeticError(
            f"{what}: {value} is not divisible by 2^{k}; "
            "the swap-class halving property failed"
        )
    return quotient


def rpc_plus_k(n: int, k: int) -> int:
    """pc_plus_k(n, k) / 2^k; the division must be exact."""
    _check_nk(n, k)
    return _exact_halving(pc_plus_k(n, k), k, "rpc_plus_k")


def rpc_total_k(n: int, k: int) -> int:
    """(pc_plus_k(n, k) + pc_plus_k(n-1, k)) / 2^k; the division must be exact."""
    _check_nk(n, k)
    return _exact_halving(total_from_plus(pc_plus_k, n, k), k, "rpc_total_k")


def rac_plus_k(n: int, k: int) -> int:
    """Sum over 2r + j = n - 2k of binom(r+k, r) binom(r+j-1, j).

    Also the number of compositions of n - k with exactly k parts equal
    to 1 (checked against the oracle).
    """
    _check_nk(n, k)
    target = n - 2 * k
    total = 0
    for r in range(target // 2 + 1):
        j = target - 2 * r
        total += binom(r + k, r) * binom(r + j - 1, j)
    return total


def rac_total_k(n: int, k: int) -> int:
    """rac_plus_k(n, k) + rac_plus_k(n-1, k)."""
    return total_from_plus(rac_plus_k, n, k)


# ---------------------------------------------------------------------------
# finite-modulus palindromic families
# ---------------------------------------------------------------------------


def pc_plus_k_mod(n: int, k: int, m: int, variant: FormulaVariant = V1) -> int:
    """Plus-class count with exactly k incongruent pairs mod m.

    V1: sum over 2i + mj + (m-1)r + s = n - k of
        (-1)^r 2^i binom(i, k) binom(i+j-1, j) binom(k, r) binom(k+s-1, s)
    V2: sum over vectors i_0 + ... + i_(m-2) = k and
        2i + mj + (i_1 + 2 i_2 + ... + (m-2) i_(m-2)) = n - k of
        2^i binom(i, k) binom(i+j-1, j) multinom(k; i_0, ..., i_(m-2))
    """
    _check_nk(n, k)
    _check_m(m)
    _require_variant(variant, (Family.PC, False, True))
    target = n - k
    total = 0
    if variant is V1:
        for i in range(k, target // 2 + 1):
            head = binom(i, k) << i
            for j in range((target - 2 * i) // m + 1):
                ij = head * binom(i + j - 1, j)
                if ij:
                    total += ij * _pc_tail(k, m, target - 2 * i - m * j)
    else:
        for weight, coeff in _geometric_power_coeffs(m, k, min(target, k * (m - 2))):
            rest = target - weight
            for i in range(k, rest // 2 + 1):
                if (rest - 2 * i) % m:
                    continue
                j = (rest - 2 * i) // m
                total += (binom(i, k) << i) * binom(i + j - 1, j) * coeff
    return _nonnegative(total, "pc_plus_k_mod")


def pc_plus_mod_k0(n: int, m: int) -> int:
    """k = 0 specialization: sum over 2i + mj = n of 2^i binom(i+j-1, j)."""
    _check_nk(n, 0)
    _check_m(m)
    total = 0
    for i in range(n // 2 + 1):
        rest = n - 2 * i
        if rest % m:
            continue
        j = rest // m
        total += binom(i + j - 1, j) << i
    return total


def pc_plus_k_mod2(n: int, k: int) -> int:
    """m = 2 specialization: sum over 2i + 2j = n - k of
    2^i binom(i, k) binom(i+j-1, j); zero when n - k is odd."""
    _check_nk(n, k)
    target = n - k
    if target % 2:
        return 0
    total = 0
    for i in range(target // 2 + 1):
        j = target // 2 - i
        total += (binom(i, k) << i) * binom(i + j - 1, j)
    return total


def pc_plus_1_mod2_odd(n: int) -> int:
    """pc_plus_k_mod(n, 1, 2) at odd n: sum of (i+1) 2^(i+1) binom((n-3)/2, i).

    Valid for even n (where it is 0) and odd n >= 3.  At n = 1 the sum as
    written gives 2 because binom(-1, 0) = 1 under the package convention,
    while the true count is 0, so that point is outside the domain.
    """
    check_index(n, "n")
    if n == 1:
        raise ValueError("the closed form for the k=1, m=2 plus count starts at n=3")
    if n % 2 == 0:
        return 0
    half = (n - 3) // 2
    return sum((i + 1) * binom(half, i) << (i + 1) for i in range(half + 1))


# ---------------------------------------------------------------------------
# finite-modulus reduced palindromic families
# ---------------------------------------------------------------------------


def rpc_plus_k_mod(n: int, k: int, m: int, variant: FormulaVariant = V1) -> int:
    """Swap-class plus count with exactly k incongruent pairs mod m.

    V1: sum over 2i + mj + 2c + (m-1)r + s = n - k of
        (-1)^r binom(i, k) binom(i+j-1, j) binom(i+c, c)
        binom(k, r) binom(k+s-1, s)
    V2: multinomial form over i_0 + ... + i_(m-2) = k with the same
        positive factors.
    """
    _check_nk(n, k)
    _check_m(m)
    _require_variant(variant, (Family.PC, True, True))
    target = n - k
    total = 0
    if variant is V1:
        for i in range(k, target // 2 + 1):
            ik = binom(i, k)
            for j in range((target - 2 * i) // m + 1):
                ij = ik * binom(i + j - 1, j)
                if not ij:
                    continue
                total += ij * _rpc_c_tail(k, m, i, target - 2 * i - m * j)
    else:
        for weight, coeff in _geometric_power_coeffs(m, k, min(target, k * (m - 2))):
            budget = target - weight
            for i in range(k, budget // 2 + 1):
                ik = binom(i, k)
                for j in range((budget - 2 * i) // m + 1):
                    rest = budget - 2 * i - m * j
                    if rest % 2:
                        continue
                    c = rest // 2
                    total += ik * binom(i + j - 1, j) * binom(i + c, c) * coeff
    return _nonnegative(total, "rpc_plus_k_mod")


def rpc_plus_mod_k0(n: int, m: int) -> int:
    """k = 0 specialization: sum over 2i + mj + 2r = n of
    binom(i+j-1, j) binom(i+r, r)."""
    _check_nk(n, 0)
    _check_m(m)
    total = 0
    for i in range(n // 2 + 1):
        for j in range((n - 2 * i) // m + 1):
            rest = n - 2 * i - m * j
            if rest % 2:
                continue
            r = rest // 2
            total += binom(i + j - 1, j) * binom(i + r, r)
    return total


def rpc_plus_k_mod2(n: int, k: int) -> int:
    """m = 2 specialization: sum over 2i + 2j = n - k of binom(i, k) binom(2i+j, j)."""
    _check_nk(n, k)
    target = n - k
    if target % 2:
        return 0
    total = 0
    for i in range(target // 2 + 1):
        j = target // 2 - i
        total += binom(i, k) * binom(2 * i + j, j)
    return total


def rpc_plus_1_mod2_odd(n: int) -> int:
    """rpc_plus_k_mod(n, 1, 2) at odd n = 2t + 1: sum of i binom(t+i, 2i)."""
    check_index(n, "n")
    if n % 2 == 0:
        return 0
    t = (n - 1) // 2
    return sum(i * binom(t + i, 2 * i) for i in range(t + 1))


# ---------------------------------------------------------------------------
# finite-modulus anti-palindromic families
# ---------------------------------------------------------------------------


def ac_plus_k_mod(n: int, k: int, m: int, variant: FormulaVariant = V1) -> int:
    """Plus-class count with exactly k congruent pairs mod m.

    V1: sum over 2i + j + (m-1)r + s + mc + md = n - 2k of
        (-1)^r 2^j binom(i+k, k) binom(i, j) binom(j, r) binom(j+s-1, s)
        binom(k, c) binom(k+j+d-1, d)
    V2: multinomial form over i_0 + ... + i_(m-2) = j.
    """
    _check_nk(n, k)
    _check_m(m)
    _require_variant(variant, (Family.AC, False, True))
    target = n - 2 * k
    total = 0
    if variant is V1:
        for i in range(target // 2 + 1):
            head = binom(i + k, k)
            for j in range(min(i, target - 2 * i) + 1):
                total += ((head * binom(i, j)) << j) * _ac_plus_inner(k, m, j, target - 2 * i - j)
    else:
        for i in range(target // 2 + 1):
            head = binom(i + k, k)
            for j in range(min(i, target - 2 * i) + 1):
                hj = (head * binom(i, j)) << j
                after = target - 2 * i - j
                for weight, coeff in _geometric_power_coeffs(m, j, min(after, j * (m - 2))):
                    rest = after - weight
                    if rest % m:  # then rest - m * c is a multiple of m for no c
                        continue
                    hw = hj * coeff
                    for c in range(min(k, rest // m) + 1):
                        d = rest // m - c
                        total += hw * binom(k, c) * binom(k + j + d - 1, d)
    return _nonnegative(total, "ac_plus_k_mod")


def ac_total_k_mod(n: int, k: int, m: int) -> int:
    """Direct total count: sum over 3i + j + (m-1)r + 2s + mc + md = n - 2k of
    (-1)^r 2^i binom(i+k, k) binom(i+j, j) binom(i, r) binom(i+k+s-1, s)
    binom(k, c) binom(i+k+d-1, d)."""
    _check_nk(n, k)
    _check_m(m)
    target = n - 2 * k
    total = 0
    for i in range(target // 3 + 1):
        head = binom(i + k, k) << i
        total += head * _alternating_sum(i, target - 3 * i, m, _c_sum, _ac_total_tail, k, m, i)
    return _nonnegative(total, "ac_total_k_mod")


def ac_plus_k_mod1(n: int, k: int) -> int:
    """m = 1 specialization: sum over 2i + c + d = n - 2k of
    binom(i+k, k) binom(k, c) binom(k+d-1, d)."""
    _check_nk(n, k)
    target = n - 2 * k
    total = 0
    for i in range(target // 2 + 1):
        head = binom(i + k, k)
        for c in range(min(k, target - 2 * i) + 1):
            d = target - 2 * i - c
            total += head * binom(k, c) * binom(k + d - 1, d)
    return total


# ---------------------------------------------------------------------------
# finite-modulus reduced anti-palindromic families
# ---------------------------------------------------------------------------


def rac_plus_k_mod(n: int, k: int, m: int, variant: FormulaVariant = V1) -> int:
    """Swap-class plus count with exactly k congruent pairs mod m.

    V1: sum over 2i + j + (m-1)r + s + md = n - 2k of
        (-1)^r binom(i+k, k) binom(i, j) binom(j, r) binom(j+s-1, s)
        binom(k+j+d-1, d)
    V2: multinomial form over i_0 + ... + i_(m-2) = j.
    """
    _check_nk(n, k)
    _check_m(m)
    _require_variant(variant, (Family.AC, True, True))
    target = n - 2 * k
    total = 0
    if variant is V1:
        for i in range(target // 2 + 1):
            head = binom(i + k, k)
            for j in range(min(i, target - 2 * i) + 1):
                total += head * binom(i, j) * _rac_plus_inner(k, m, j, target - 2 * i - j)
    else:
        for i in range(target // 2 + 1):
            head = binom(i + k, k)
            for j in range(min(i, target - 2 * i) + 1):
                hj = head * binom(i, j)
                after = target - 2 * i - j
                for weight, coeff in _geometric_power_coeffs(m, j, min(after, j * (m - 2))):
                    rest = after - weight
                    if rest % m:
                        continue
                    d = rest // m
                    total += hj * coeff * binom(k + j + d - 1, d)
    return _nonnegative(total, "rac_plus_k_mod")


def rac_total_k_mod(n: int, k: int, m: int) -> int:
    """Direct total count: sum over 3i + j + (m-1)r + 2s + md = n - 2k of
    (-1)^r binom(i+k, k) binom(i+j, j) binom(i, r) binom(i+k+s-1, s)
    binom(i+k+d-1, d)."""
    _check_nk(n, k)
    _check_m(m)
    target = n - 2 * k
    total = 0
    for i in range(target // 3 + 1):
        total += binom(i + k, k) * _alternating_sum(i, target - 3 * i, m, _ac_total_tail, k, m, i)
    return _nonnegative(total, "rac_total_k_mod")


def rac_plus_k_mod1(n: int, k: int) -> int:
    """m = 1 specialization: sum over 2i + j = n - 2k of binom(i+k, k) binom(j+k-1, j)."""
    _check_nk(n, k)
    target = n - 2 * k
    total = 0
    for i in range(target // 2 + 1):
        j = target - 2 * i
        total += binom(i + k, k) * binom(j + k - 1, j)
    return total


def rac_total_k_mod1(n: int, k: int) -> int:
    """m = 1 specialization: sum over 2i + j = n - 2k of binom(i+k-1, i) binom(j+k, j)."""
    _check_nk(n, k)
    target = n - 2 * k
    total = 0
    for i in range(target // 2 + 1):
        j = target - 2 * i
        total += binom(i + k - 1, i) * binom(j + k, j)
    return total


# ---------------------------------------------------------------------------
# totals, dispatch, named closed forms
# ---------------------------------------------------------------------------


def total_from_plus(plus_fn: Callable[..., int], n: int, *args, **kwargs) -> int:
    """plus_fn(n) + plus_fn(n-1), with the n = -1 term defined as 0."""
    return sum(plus_fn(m, *args, **kwargs) for m in plus_reads(Sign.TOTAL, check_index(n, "n")))


def formula_count(
    family: Family, reduced: bool, sign: Sign, modulus: Modulus, n: int, k: int,
    variant: FormulaVariant | None = None,
) -> int:
    """Evaluate one counting function through its closed formula."""
    return formula_grid(family, reduced, sign, modulus, [n], [k], variant)[0][0]


def formula_grid(
    family: Family, reduced: bool, sign: Sign, modulus: Modulus,
    ns: Sequence[int], ks: Sequence[int], variant: FormulaVariant | None = None,
) -> list[list[int]]:
    """rows[i][j] = formula_count(..., ns[i], ks[j], variant), every sign read
    off (stats.plus_reads) the plus function that the block's row of
    _PLUS_FORMULAS names; a block with a single published formula takes no
    variant.  The cell, every n, every k and the variant are checked before
    any plus value is computed; stats.sign_rows then sums the rows from plus
    rows over ks.
    """
    check_request(family, reduced, sign, modulus, ns, ks)
    finite = modulus is not INFINITY
    block = (family, reduced, finite)
    row = _PLUS_FORMULAS[block]
    args: tuple = (modulus,) if finite else ()
    if row.variants:
        if variant is not None:
            _require_variant(variant, block, "formula_count")
        args += (V1 if variant is None else variant,)
    elif variant is not None:
        raise ValueError(
            "this quantity has a single published formula; do not pass a variant"
        )
    plus_fn = globals()[row.plus]
    return sign_rows(sign, ns, len(ks), lambda m: [plus_fn(m, k, *args) for k in ks])


def _nonnegative_n(n: int) -> bool:
    return n >= 0


class SpecialValue(NamedTuple):
    """A named closed form and the count it equals on its domain in n."""

    cell: tuple[Family, bool, Sign, Modulus, int]  # (family, reduced, sign, modulus, k)
    closed_form: Callable[[int], int]
    description: str
    domain: Callable[[int], bool] = _nonnegative_n


SPECIAL_VALUES: dict[str, SpecialValue] = {
    "PC_TOTAL_POW2": SpecialValue(
        (Family.PC, False, Sign.TOTAL, INFINITY, 0), lambda n: 1 << (n // 2),
        "pc(n) = 2^floor(n/2)",
    ),
    "PC_PLUS1_CLOSED": SpecialValue(
        (Family.PC, False, Sign.PLUS, INFINITY, 1), pc_plus_1_closed,
        "pc_plus at k=1 closed form",
    ),
    "PC_MOD2": SpecialValue(
        (Family.PC, False, Sign.TOTAL, 2, 0), lambda n: 2 * 3 ** (n // 2 - 1),
        "pc(n, 2) = 2 * 3^(floor(n/2) - 1) for n >= 2", domain=lambda n: n >= 2,
    ),
    "PC_MOD3": SpecialValue(
        (Family.PC, False, Sign.TOTAL, 3, 0), lambda n: 2 * fibonacci(n - 1),
        "pc(n, 3) = 2 F(n-1) for n >= 2", domain=lambda n: n >= 2,
    ),
    "PC_PLUS_MOD3": SpecialValue(
        (Family.PC, False, Sign.PLUS, 3, 0), lambda n: 2 * (fibonacci(n - 2) + (-1) ** (n - 2)),
        "pc_plus(n, 3) = 2 (F(n-2) + (-1)^(n-2)) for n >= 2", domain=lambda n: n >= 2,
    ),
    "AC_TOTAL_TRIB": SpecialValue(
        (Family.AC, False, Sign.TOTAL, INFINITY, 0), lambda n: tribonacci(n) + tribonacci(n - 2),
        "ac(n) = T(n) + T(n-2) for n >= 1", domain=lambda n: n >= 1,
    ),
    "AC_TOTAL_TRIB_PRIME": SpecialValue(
        (Family.AC, False, Sign.TOTAL, INFINITY, 0),
        lambda n: tribonacci_prime(n + 1) + tribonacci_prime(n),
        "ac(n) = T'(n+1) + T'(n)",
    ),
    "AC_TOTAL_TRIB_DIFF": SpecialValue(
        (Family.AC, False, Sign.TOTAL, INFINITY, 0),
        lambda n: tribonacci(n + 1) - tribonacci(n - 1),
        "ac(n) = T(n+1) - T(n-1)",
    ),
    "AC_PLUS_TRIB_PRIME": SpecialValue(
        (Family.AC, False, Sign.PLUS, INFINITY, 0), lambda n: tribonacci_prime(n + 1),
        "ac_plus(n) = T'(n+1)",
    ),
    "RAC_FIB": SpecialValue(
        (Family.AC, True, Sign.TOTAL, INFINITY, 0), lambda n: 1 if n == 0 else fibonacci(n),
        "rac(0) = 1, rac(n) = F(n) for n >= 1",
    ),
    "RAC_PLUS_FIB": SpecialValue(
        (Family.AC, True, Sign.PLUS, INFINITY, 0), lambda n: 1 if n == 0 else fibonacci(n - 1),
        "rac_plus(0) = 1, rac_plus(n) = F(n-1) for n >= 1",
    ),
    "RAC_PLUS1_INF": SpecialValue(
        (Family.AC, True, Sign.PLUS, INFINITY, 1),
        lambda n: sum(
            (r + 1) * binom(n - r - 3, n - 2 * r - 2) for r in range((n - 1) // 2 + 1)
        ),
        "rac_plus at k=1: compositions of n-1 with exactly one part 1",
    ),
    "RAC_PLUS2_INF": SpecialValue(
        (Family.AC, True, Sign.PLUS, INFINITY, 2),
        lambda n: sum(
            binom(r + 2, 2) * binom(r + (n - 4 - 2 * r) - 1, n - 4 - 2 * r)
            for r in range((n - 4) // 2 + 1)
        ),
        "rac_plus at k=2: compositions of n-2 with exactly two parts 1",
    ),
    "AC_PLUS_MOD1_PARITY": SpecialValue(
        (Family.AC, False, Sign.PLUS, 1, 0), lambda n: (1 + (-1) ** n) // 2,
        "ac_plus(n, 1) = 1 for even n, 0 for odd n",
    ),
    "AC_PLUS1_MOD1": SpecialValue(
        (Family.AC, False, Sign.PLUS, 1, 1), lambda n: n * n // 4,
        "ac_plus^1(n, 1) = floor(n^2/4)",
    ),
    "RAC1_MOD1": SpecialValue(
        (Family.AC, True, Sign.TOTAL, 1, 1), lambda n: (n // 2) * ((n + 1) // 2),
        "rac^1(n, 1) = floor(n/2) ceil(n/2)",
    ),
    "RAC_PLUS1_MOD1": SpecialValue(
        (Family.AC, True, Sign.PLUS, 1, 1), lambda n: (n // 2) * (n // 2 + 1) // 2,
        "rac_plus^1(2t, 1) = rac_plus^1(2t+1, 1) = t(t+1)/2",
    ),
    "RAC_PLUS2_MOD1": SpecialValue(
        (Family.AC, True, Sign.PLUS, 1, 2),
        lambda n: sum(binom(i + 2, 2) * (n - 4 - 2 * i + 1) for i in range((n - 4) // 2 + 1)),
        "rac_plus^2(n, 1) = sum over 2i + j = n-4 of binom(i+2, 2) (j+1)",
    ),
    "RAC2_MOD1": SpecialValue(
        (Family.AC, True, Sign.TOTAL, 1, 2),
        lambda n: sum((i + 1) * binom(n - 4 - 2 * i + 2, 2) for i in range((n - 4) // 2 + 1)),
        "rac^2(n, 1) = sum over 2i + j = n-4 of (i+1) binom(j+2, 2)",
    ),
    "RAC_MOD1_ONE": SpecialValue((Family.AC, True, Sign.TOTAL, 1, 0), lambda n: 1, "rac(n, 1) = 1"),
    "RAC_PLUS_MOD1_PARITY": SpecialValue(
        (Family.AC, True, Sign.PLUS, 1, 0), lambda n: 1 if n % 2 == 0 else 0,
        "rac_plus(n, 1) = 1 for even n, 0 for odd n",
    ),
    "RPC_PLUS_MOD2_FIB": SpecialValue(
        (Family.PC, True, Sign.PLUS, 2, 0), lambda n: fibonacci(n + 1) if n % 2 == 0 else 0,
        "rpc_plus(2t, 2) = F(2t+1), rpc_plus(2t+1, 2) = 0",
    ),
    "RPC_MOD2_FIB": SpecialValue(
        (Family.PC, True, Sign.TOTAL, 2, 0), lambda n: fibonacci(2 * (n // 2) + 1),
        "rpc(2t, 2) = rpc(2t+1, 2) = F(2t+1)",
    ),
    "RPC_PLUS1_MOD2": SpecialValue(
        (Family.PC, True, Sign.PLUS, 2, 1), rpc_plus_1_mod2_odd,
        "rpc_plus^1(n, 2): 0 for even n, sum of i binom(t+i, 2i) at n = 2t+1",
    ),
    "PC_PLUS1_MOD2": SpecialValue(
        (Family.PC, False, Sign.PLUS, 2, 1), pc_plus_1_mod2_odd,
        "pc_plus^1(n, 2): 0 for even n, sum of (i+1) 2^(i+1) binom(t-1, i) at n = 2t+1 >= 3",
        domain=lambda n: n >= 0 and n != 1,
    ),
}


def special_value(name: str, n: int) -> int:
    """Evaluate a named closed form from :data:`SPECIAL_VALUES`."""
    try:
        value = SPECIAL_VALUES[name]
    except KeyError:
        known = ", ".join(sorted(SPECIAL_VALUES))
        raise ValueError(f"unknown special value {name!r}; known: {known}") from None
    check_index(n, "n")
    if not value.domain(n):
        raise ValueError(f"{name} ({value.description}) is not valid at n={n}")
    return value.closed_form(n)
