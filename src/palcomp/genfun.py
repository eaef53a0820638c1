"""Sparse bivariate polynomials, dense series tables and the generating-function catalog.

The second, independent computation path: every counting family has a
rational generating function in q (marking the composition total) and t
(marking the statistic), and counts fall out as series coefficients.

Two representations serve the path's two jobs.  A catalog polynomial,
:class:`BivariatePoly`, is sparse, a map of its few nonzero terms: a factor
such as 1 - q^m has two terms whatever m is, so building an entry costs the
same at m = 13 and at m = 10^18.  An expansion is dense, a tuple of row
tuples read as ``table[p][s]`` (the coefficient of q^p t^s), because every
coefficient up to the bounds is filled in and read by index.  Both are exact
over Python integers and immutable.  The catalog builds each numerator and
denominator from the factored displayed form, never cancelled (no polynomial
GCD here); equality of presentations is confirmed by coefficient comparison
in the tests.

Series inversion requires a denominator with constant term exactly 1 (true
of every catalog entry for every modulus) and runs the graded coefficient
recurrence: u(0,0) = 1 and each further coefficient of u is determined by
d * u = 1 from lower-order ones.  Terms of d beyond the bounds reach no
coefficient within them and are dropped first, so the work depends on the
bounds, not on d's degree.  Truncation bounds only discard higher terms, so
recomputing any coefficient with larger bounds returns the same value.

Every coefficient is read from one expansion, :func:`series_table`: the
inverse of the denominator, shift-added once per term of the numerator,
truncated to the requested bounds and cached.  :func:`gf_grid` reads a whole
grid from it, and :func:`gf_count` reads one cell of that grid.

Every term of every catalog numerator and denominator has q-degree at least
twice its t-degree, at every modulus; the tests check this over the whole
catalog.  So does every term of a product or inverse of such series, and
each coefficient with 2s > p is zero: :func:`gf_count` answers a cell with
2k > n as 0 without expanding anything, where the expansion would grow with k.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple

from .stats import Family, Modulus, Sign, _InfinityType, check_cell, check_index


class BivariatePoly:
    """Polynomial in q and t with integer coefficients, immutable and hashable.

    Built from a map {(p, s): c} of the coefficients c of q^p t^s.  Only
    nonzero terms are kept, so equal polynomials hold equal maps and q^m is
    one entry for any m.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int]):
        kept = {key: c for key, c in terms.items() if c}
        object.__setattr__(self, "_terms", kept)
        object.__setattr__(self, "_hash", hash(frozenset(kept.items())))

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield (q_degree, t_degree, coefficient) for the nonzero terms, sorted."""
        for (p, s), c in sorted(self._terms.items()):
            yield p, s, c

    def coeff(self, p: int, s: int) -> int:
        return self._terms.get((p, s), 0)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        sums = dict(self._terms)
        for key, c in other._terms.items():
            sums[key] = sums.get(key, 0) + c
        return BivariatePoly(sums)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return poly_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BivariatePoly({dict(sorted(self._terms.items()))!r})"


def _coerce(value):
    if isinstance(value, BivariatePoly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return BivariatePoly({(0, 0): value})
    return NotImplemented


ZERO = BivariatePoly({})
ONE = BivariatePoly({(0, 0): 1})
Q = BivariatePoly({(1, 0): 1})
T = BivariatePoly({(0, 1): 1})


def poly_mul(a: BivariatePoly, b: BivariatePoly) -> BivariatePoly:
    """The exact product a * b."""
    product: dict[tuple[int, int], int] = {}
    for (pa, sa), ca in a._terms.items():
        for (pb, sb), cb in b._terms.items():
            key = (pa + pb, sa + sb)
            product[key] = product.get(key, 0) + ca * cb
    return BivariatePoly(product)


def series_inverse(d: BivariatePoly, nq: int, nt: int) -> tuple[tuple[int, ...], ...]:
    """The table u[p][s], p <= nq and s <= nt, of u with d * u = 1 modulo
    (q^(nq+1), t^(nt+1)); d must have constant term 1."""
    if nq < 0 or nt < 0:
        raise ValueError(f"truncation bounds must be >= 0, got ({nq}, {nt})")
    if d.coeff(0, 0) != 1:
        raise ValueError(
            f"series inversion needs constant term 1, got {d.coeff(0, 0)}"
        )
    tail = [(p, s, c) for p, s, c in d.terms() if (p, s) != (0, 0) and p <= nq and s <= nt]
    rows = [[0] * (nt + 1) for _ in range(nq + 1)]
    rows[0][0] = 1
    for p in range(nq + 1):
        for s in range(nt + 1):
            if p == 0 and s == 0:
                continue
            acc = 0
            for dp, ds, dc in tail:
                if dp <= p and ds <= s:
                    acc += dc * rows[p - dp][s - ds]
            rows[p][s] = -acc
    return tuple(map(tuple, rows))


class RationalGF(NamedTuple):
    """numerator / denominator as a formal power series in q and t."""

    numerator: BivariatePoly
    denominator: BivariatePoly


@lru_cache(maxsize=32)
def series_table(gf: RationalGF, nq: int, nt: int) -> tuple[tuple[int, ...], ...]:
    """The expansion of gf as a table[p][s]: every coefficient with q-degree
    <= nq and t-degree <= nt.

    The denominator is inverted to those bounds, and each numerator term
    c q^dp t^ds adds c times the inverse, shifted by (dp, ds), into the rows.
    Only the 32 most recent expansions are kept, so a long-running process
    does not hold every table it has ever expanded.
    """
    inverse = series_inverse(gf.denominator, nq, nt)
    rows = [[0] * (nt + 1) for _ in range(nq + 1)]
    for dp, ds, c in gf.numerator.terms():
        for p in range(dp, nq + 1):
            row, source = rows[p], inverse[p - dp]
            for s in range(ds, nt + 1):
                row[s] += c * source[s - ds]
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _pc_plus_inf() -> RationalGF:
    num = ONE - Q
    den = (ONE - Q) * (ONE - 2 * Q**2) - 2 * Q**3 * T
    return RationalGF(num, den)


def _rpc_plus_inf() -> RationalGF:
    # halving the statistic weight: t -> t/2 in the unreduced series
    num = ONE - Q
    den = (ONE - Q) * (ONE - 2 * Q**2) - Q**3 * T
    return RationalGF(num, den)


def _ac_plus_inf() -> RationalGF:
    num = ONE - Q
    den = ONE - Q - Q**2 - Q**3 - (ONE - Q) * Q**2 * T
    return RationalGF(num, den)


def _ac_total_inf() -> RationalGF:
    num = ONE - Q**2
    den = ONE - Q - Q**2 - Q**3 - (ONE - Q) * Q**2 * T
    return RationalGF(num, den)


def _rac_plus_inf() -> RationalGF:
    num = ONE - Q
    den = ONE - Q - Q**2 - (ONE - Q) * Q**2 * T
    return RationalGF(num, den)


def _pc_plus_mod(m: int) -> RationalGF:
    num = (ONE - Q) * (ONE - Q**m)
    den = (ONE - Q) * (ONE - Q**m) - 2 * Q**2 * ((ONE - Q) + Q * (ONE - Q ** (m - 1)) * T)
    return RationalGF(num, den)


def _rpc_plus_mod(m: int) -> RationalGF:
    num = (ONE - Q) * (ONE - Q**m)
    den = (
        (ONE - Q) * (ONE - Q**2) * (ONE - Q**m)
        - Q**2 * (ONE - Q)
        - Q**3 * (ONE - Q ** (m - 1)) * T
    )
    return RationalGF(num, den)


def _ac_plus_mod(m: int) -> RationalGF:
    num = (ONE - Q) * (ONE - Q**m)
    den = (
        (ONE - Q) * (ONE - Q**m)
        - Q**2 * (ONE - Q) * (ONE - Q**m)
        - 2 * Q**3 * (ONE - Q ** (m - 1))
        - Q**2 * (ONE - Q) * (ONE + Q**m) * T
    )
    return RationalGF(num, den)


def _ac_total_mod(m: int) -> RationalGF:
    num = (ONE - Q**2) * (ONE - Q**m)
    den = (
        (ONE - Q) * (ONE - Q**2) * (ONE - Q**m)
        - 2 * Q**3 * (ONE - Q ** (m - 1))
        - Q**2 * (ONE - Q) * (ONE + Q**m) * T
    )
    return RationalGF(num, den)


def _rac_plus_mod(m: int) -> RationalGF:
    num = (ONE - Q) * (ONE - Q**m)
    den = (
        (ONE - Q) * (ONE - Q**m)
        - Q**2 * (ONE - 2 * Q**m + Q ** (m + 1))
        - Q**2 * (ONE - Q) * T
    )
    return RationalGF(num, den)


def _rac_total_mod(m: int) -> RationalGF:
    num = (ONE - Q**2) * (ONE - Q**m)
    den = (
        (ONE - Q) * (ONE - Q**2) * (ONE - Q**m)
        - Q**3 * (ONE - Q ** (m - 1))
        - Q**2 * (ONE - Q) * T
    )
    return RationalGF(num, den)


def _totalized(plus_gf: RationalGF) -> RationalGF:
    """Total series from a plus series: multiply the numerator by (1 + q)."""
    return RationalGF((ONE + Q) * plus_gf.numerator, plus_gf.denominator)


# (family, reduced, sign, finite modulus) -> builder; a finite-modulus builder takes m
_CATALOG: dict[tuple[Family, bool, Sign, bool], object] = {
    (Family.PC, False, Sign.PLUS, False): _pc_plus_inf,
    (Family.PC, False, Sign.TOTAL, False): lambda: _totalized(_pc_plus_inf()),
    (Family.PC, True, Sign.PLUS, False): _rpc_plus_inf,
    (Family.PC, True, Sign.TOTAL, False): lambda: _totalized(_rpc_plus_inf()),
    (Family.AC, False, Sign.PLUS, False): _ac_plus_inf,
    (Family.AC, False, Sign.TOTAL, False): _ac_total_inf,
    (Family.AC, True, Sign.PLUS, False): _rac_plus_inf,
    (Family.AC, True, Sign.TOTAL, False): lambda: _totalized(_rac_plus_inf()),
    (Family.PC, False, Sign.PLUS, True): _pc_plus_mod,
    (Family.PC, False, Sign.TOTAL, True): lambda m: _totalized(_pc_plus_mod(m)),
    (Family.PC, True, Sign.PLUS, True): _rpc_plus_mod,
    (Family.PC, True, Sign.TOTAL, True): lambda m: _totalized(_rpc_plus_mod(m)),
    (Family.AC, False, Sign.PLUS, True): _ac_plus_mod,
    (Family.AC, False, Sign.TOTAL, True): _ac_total_mod,
    (Family.AC, True, Sign.PLUS, True): _rac_plus_mod,
    (Family.AC, True, Sign.TOTAL, True): _rac_total_mod,
}


def gf_catalog(family: Family, reduced: bool, sign: Sign, modulus: Modulus) -> RationalGF:
    """Look up (and for finite moduli, instantiate) a catalog generating function.

    The cell is validated before the cached lookup, so a value that only
    hashes like a valid one (1 for True) cannot read another cell's entry.
    """
    check_cell(family, reduced, sign, modulus)
    return _gf_catalog(family, reduced, sign, modulus)


@lru_cache(maxsize=64)
def _gf_catalog(family: Family, reduced: bool, sign: Sign, modulus: Modulus) -> RationalGF:
    if sign is Sign.MINUS:
        raise KeyError(
            "no catalog entry for the minus part; expand the plus entry at n-1"
        )
    finite = not isinstance(modulus, _InfinityType)
    builder = _CATALOG[family, reduced, sign, finite]
    gf = builder(modulus) if finite else builder()
    if gf.denominator.coeff(0, 0) != 1:
        raise AssertionError("catalog invariant violated: denominator constant term != 1")
    return gf


def gf_count(
    family: Family, reduced: bool, sign: Sign, modulus: Modulus, n: int, k: int
) -> int:
    """Evaluate one counting function through its generating function: the
    (n, k) cell of :func:`gf_grid`."""
    check_cell(family, reduced, sign, modulus)
    check_index(n, "n")
    check_index(k, "k")
    if 2 * k > n:  # every catalog term has q-degree >= 2 * t-degree
        return 0
    return gf_grid(family, reduced, sign, modulus, n, k)[n][k]


def gf_grid(
    family: Family, reduced: bool, sign: Sign, modulus: Modulus, n_max: int, k_max: int
) -> list[list[int]]:
    """rows[n][k] = gf_count(..., n, k) for n <= n_max and k <= k_max.

    One series expansion answers every cell, because a larger truncation
    never changes a coefficient.  The minus rows are the plus rows one
    q-degree down, below an all-zero row 0; they are read off the plus
    expansion at (n_max, k_max), so a plus and a minus grid share it.
    """
    check_cell(family, reduced, sign, modulus)
    check_index(n_max, "n_max")
    check_index(k_max, "k_max")
    if sign is Sign.MINUS:
        plus_rows = gf_grid(family, reduced, Sign.PLUS, modulus, n_max, k_max)
        return [[0] * (k_max + 1)] + plus_rows[:n_max]
    series = series_table(gf_catalog(family, reduced, sign, modulus), n_max, k_max)
    return [list(row) for row in series]
