"""Truncated bivariate formal power series and the generating-function catalog.

The second, independent computation path: every counting family has a
rational generating function in q (marking the composition total) and t
(marking the statistic), and counts fall out as series coefficients.

Polynomials are exact over Python integers and immutable; q-degree is the
first index, t-degree the second.  The catalog stores each rational function
with numerator and denominator built from the factored displayed form, never
cancelled (no polynomial GCD here); equality of presentations is confirmed
by coefficient comparison in the tests.

Series inversion requires a denominator with constant term exactly 1 (true
of every catalog entry for every modulus) and runs the graded coefficient
recurrence: u(0,0) = 1 and each further coefficient of u is determined by
d * u = 1 from lower-order ones.  Truncation bounds only discard higher
terms, so recomputing any coefficient with larger bounds returns the same
value.

Every coefficient is read from one expansion, :func:`series_table`: the
inverse of the denominator times the numerator, truncated to the requested
bounds and cached.  :func:`gf_grid` reads a whole grid from it, and
:func:`gf_count` reads one cell of that grid.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .stats import Family, Modulus, Sign, _InfinityType, check_index, check_modulus


class BivariatePoly:
    """Polynomial in q and t with integer coefficients, immutable and hashable."""

    __slots__ = ("_rows", "_hash")

    def __init__(self, rows):
        trimmed = [tuple(row) for row in rows]
        # normalize: strip trailing zero columns per row, then trailing empty rows
        trimmed = [self._trim_row(row) for row in trimmed]
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        object.__setattr__(self, "_rows", tuple(trimmed))
        object.__setattr__(self, "_hash", hash(self._rows))

    @staticmethod
    def _trim_row(row: tuple[int, ...]) -> tuple[int, ...]:
        end = len(row)
        while end and row[end - 1] == 0:
            end -= 1
        return row[:end]

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield (q_degree, t_degree, coefficient) for the nonzero terms."""
        for p, row in enumerate(self._rows):
            for s, c in enumerate(row):
                if c:
                    yield p, s, c

    def coeff(self, p: int, s: int) -> int:
        if 0 <= p < len(self._rows) and 0 <= s < len(self._rows[p]):
            return self._rows[p][s]
        return 0

    @property
    def q_degree(self) -> int:
        """Degree in q (-1 for the zero polynomial)."""
        return len(self._rows) - 1

    @property
    def t_degree(self) -> int:
        return max((len(row) - 1 for row in self._rows), default=-1)

    def is_zero(self) -> bool:
        return not self._rows

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nq = max(len(self._rows), len(other._rows))
        rows = []
        for p in range(nq):
            a = self._rows[p] if p < len(self._rows) else ()
            b = other._rows[p] if p < len(other._rows) else ()
            width = max(len(a), len(b))
            rows.append(
                [
                    (a[s] if s < len(a) else 0) + (b[s] if s < len(b) else 0)
                    for s in range(width)
                ]
            )
        return BivariatePoly(rows)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly([-c for c in row] for row in self._rows)

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
        return self._rows == other._rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_zero():
            return "BivariatePoly(0)"

        def mono(p: int, s: int, c: int) -> str:
            factors = [str(c)] if abs(c) != 1 or (p == 0 and s == 0) else (["-"] if c == -1 else [])
            if p:
                factors.append("q" if p == 1 else f"q^{p}")
            if s:
                factors.append("t" if s == 1 else f"t^{s}")
            joined = "*".join(f for f in factors if f != "-")
            return ("-" + joined) if factors and factors[0] == "-" else joined

        return "BivariatePoly(" + " + ".join(mono(*t) for t in self.terms()) + ")"


def _coerce(value):
    if isinstance(value, BivariatePoly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return BivariatePoly(((value,),)) if value else BivariatePoly(())
    return NotImplemented


ZERO = BivariatePoly(())
ONE = BivariatePoly(((1,),))
Q = BivariatePoly(((0,), (1,)))
T = BivariatePoly(((0, 1),))


def poly_mul(
    a: BivariatePoly, b: BivariatePoly, nq: int | None = None, nt: int | None = None
) -> BivariatePoly:
    """Product, optionally discarding q-degrees > nq and t-degrees > nt."""
    if a.is_zero() or b.is_zero():
        return ZERO
    max_q = a.q_degree + b.q_degree
    max_t = a.t_degree + b.t_degree
    if nq is not None:
        max_q = min(max_q, nq)
    if nt is not None:
        max_t = min(max_t, nt)
    if max_q < 0 or max_t < 0:
        return ZERO
    rows = [[0] * (max_t + 1) for _ in range(max_q + 1)]
    b_terms = list(b.terms())
    for pa, sa, ca in a.terms():
        if pa > max_q or sa > max_t:
            continue
        for pb, sb, cb in b_terms:
            p = pa + pb
            s = sa + sb
            if p <= max_q and s <= max_t:
                rows[p][s] += ca * cb
    return BivariatePoly(rows)


def series_inverse(d: BivariatePoly, nq: int, nt: int) -> BivariatePoly:
    """u with d * u = 1 modulo (q^(nq+1), t^(nt+1)); d must have constant term 1."""
    if nq < 0 or nt < 0:
        raise ValueError(f"truncation bounds must be >= 0, got ({nq}, {nt})")
    if d.coeff(0, 0) != 1:
        raise ValueError(
            f"series inversion needs constant term 1, got {d.coeff(0, 0)}"
        )
    tail = [(p, s, c) for p, s, c in d.terms() if (p, s) != (0, 0)]
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
    return BivariatePoly(rows)


class RationalGF(NamedTuple):
    """numerator / denominator as a formal power series in q and t."""

    numerator: BivariatePoly
    denominator: BivariatePoly


@lru_cache(maxsize=32)
def series_table(gf: RationalGF, nq: int, nt: int) -> BivariatePoly:
    """The expansion of gf: every coefficient with q-degree <= nq and t-degree <= nt.

    The denominator is inverted to those bounds and multiplied by the
    numerator, truncated to the same bounds.  Only the 32 most recent
    expansions are kept, so a long-running process does not hold every
    table it has ever expanded.
    """
    inverse = series_inverse(gf.denominator, nq, nt)
    return poly_mul(gf.numerator, inverse, nq, nt)


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


@lru_cache(maxsize=64)
def gf_catalog(family: Family, reduced: bool, sign: Sign, modulus: Modulus) -> RationalGF:
    """Look up (and for finite moduli, instantiate) a catalog generating function."""
    check_modulus(modulus)
    if sign is Sign.MINUS:
        raise KeyError(
            "no catalog entry for the minus part; expand the plus entry at n-1"
        )
    finite = not isinstance(modulus, _InfinityType)
    builder = _CATALOG.get((family, reduced, sign, finite))
    if builder is None:
        raise KeyError(f"no catalog entry for {family}, reduced={reduced}, {sign}")
    gf = builder(modulus) if finite else builder()
    if gf.denominator.coeff(0, 0) != 1:
        raise AssertionError("catalog invariant violated: denominator constant term != 1")
    return gf


def gf_count(
    family: Family, reduced: bool, sign: Sign, modulus: Modulus, n: int, k: int
) -> int:
    """Evaluate one counting function through its generating function: the
    (n, k) cell of :func:`gf_grid`."""
    check_index(n, "n")
    check_index(k, "k")
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
    check_index(n_max, "n_max")
    check_index(k_max, "k_max")
    if sign is Sign.MINUS:
        plus_rows = gf_grid(family, reduced, Sign.PLUS, modulus, n_max, k_max)
        return [[0] * (k_max + 1)] + plus_rows[:n_max]
    series = series_table(gf_catalog(family, reduced, sign, modulus), n_max, k_max)
    return [[series.coeff(n, k) for k in range(k_max + 1)] for n in range(n_max + 1)]
