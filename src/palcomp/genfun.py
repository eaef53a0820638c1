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
over Python integers and immutable.  The catalog has one row per block
(family, reduced, finite modulus): the plus builder and the paper's displayed
total, if any.  Every count reads the plus entry (stats.plus_reads), so no
other total is built.  Entries keep the factored displayed form, never
cancelled (no polynomial GCD here), and the 64 most recently read are kept
built (:func:`gf_catalog`).

An expansion needs a denominator with constant term exactly 1 (true of every
catalog entry for every modulus): f = N / d is then one pass of the graded
recurrence f[p][s] = N[p][s] - sum of D[dp][ds] f[p-dp][s-ds] over d's other
terms.  Terms of d beyond the bounds reach no coefficient within them and are
dropped first, so the work depends on the bounds, not on d's degree.
Truncation bounds only discard higher terms, so recomputing any coefficient
with larger bounds returns the same value.

Every coefficient is read from one expansion, :func:`series_table`, the
cached :func:`series_inverse` pass truncated to the requested bounds.
:func:`gf_grid` reads a whole request off the block's plus entry, its rows
summed by stats.sign_rows, and :func:`gf_count` is its one-cell request.

Every catalog term has q-degree at least twice its t-degree, at every modulus
(:func:`gf_catalog` refuses one that has not).  So in u = t/q^2
(:func:`_shifted`), G(q, u) = F(q, u/q^2) is again a rational series with
nonnegative degrees and a(n, k) = [q^(n-2k) u^k] G: a request's expansion spans
only q-degree max(n) - 2 min(k), and a cell with 2k > n is 0 without one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .stats import INFINITY, Family, Modulus, Sign, check_cell, check_request, sign_rows


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


def series_inverse(
    d: BivariatePoly, nq: int, nt: int, numerator: BivariatePoly
) -> tuple[tuple[int, ...], ...]:
    """The table f[p][s], p <= nq and s <= nt, of f = numerator / d modulo
    (q^(nq+1), t^(nt+1)), in one pass; d must have constant term 1."""
    if nq < 0 or nt < 0:
        raise ValueError(f"truncation bounds must be >= 0, got ({nq}, {nt})")
    if d.coeff(0, 0) != 1:
        raise ValueError(
            f"series inversion needs constant term 1, got {d.coeff(0, 0)}"
        )
    tail = [(p, s, c) for p, s, c in d.terms() if (p, s) != (0, 0) and p <= nq and s <= nt]
    rows: list[Sequence[int]] = []
    for p in range(nq + 1):
        row = [numerator.coeff(p, s) for s in range(nt + 1)]
        rows.append(row)  # a term with dp = 0 reads this row's earlier entries
        for s in range(nt + 1):
            acc = row[s]
            for dp, ds, dc in tail:
                if dp <= p and ds <= s:
                    acc -= dc * rows[p - dp][s - ds]
            row[s] = acc
        rows[p] = tuple(row)
    return tuple(rows)


class RationalGF(NamedTuple):
    """numerator / denominator as a formal power series in q and t."""

    numerator: BivariatePoly
    denominator: BivariatePoly


@lru_cache(maxsize=32)
def series_table(gf: RationalGF, nq: int, nt: int) -> tuple[tuple[int, ...], ...]:
    """The expansion of gf as a table[p][s]: every coefficient with q-degree
    <= nq and t-degree <= nt, one :func:`series_inverse` pass with gf's numerator.

    Only the 32 most recent expansions are kept, so a long-running process
    does not hold every table it has ever expanded.
    """
    return series_inverse(gf.denominator, nq, nt, gf.numerator)


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


class _CatalogRow(NamedTuple):
    plus: Callable[..., RationalGF]  # the block's plus builder; a finite-modulus one takes m
    total: Callable[..., RationalGF] | None = None  # the paper's displayed total, if any


# (family, reduced, finite modulus) -> row
_CATALOG: dict[tuple[Family, bool, bool], _CatalogRow] = {
    (Family.PC, False, False): _CatalogRow(_pc_plus_inf),
    (Family.PC, True, False): _CatalogRow(_rpc_plus_inf),
    (Family.AC, False, False): _CatalogRow(_ac_plus_inf, _ac_total_inf),
    (Family.AC, True, False): _CatalogRow(_rac_plus_inf),
    (Family.PC, False, True): _CatalogRow(_pc_plus_mod),
    (Family.PC, True, True): _CatalogRow(_rpc_plus_mod),
    (Family.AC, False, True): _CatalogRow(_ac_plus_mod, _ac_total_mod),
    (Family.AC, True, True): _CatalogRow(_rac_plus_mod, _rac_total_mod),
}


def gf_catalog(family: Family, reduced: bool, sign: Sign, modulus: Modulus) -> RationalGF:
    """A catalog generating function, a finite-modulus one at that modulus: the
    block's plus entry, or the total the paper displays for it.  Any other sign
    is a KeyError, since it is read off the plus entry (stats.plus_reads).

    Each entry is built and checked once and then shared, which is safe since
    a :class:`BivariatePoly` is immutable.  The 64 most recently read are
    kept: room for the 35 entries that verify reads at its six default moduli.
    The memo is keyed on the row's builder and the modulus, and only after
    :func:`check_cell` has passed.  So a cell that merely hashes like a valid
    one (reduced=1 for True) is still refused, and a row of ``_CATALOG``
    replaced at run time is the one the next call builds."""
    check_cell(family, reduced, sign, modulus)
    if sign is Sign.MINUS:
        raise KeyError("no catalog entry for the minus part; expand the plus entry at n-1")
    row = _CATALOG[family, reduced, modulus is not INFINITY]
    build = row.plus if sign is Sign.PLUS else row.total
    if build is None:
        raise KeyError("no displayed total for this block; add the plus entry at n and n-1")
    return _built(build, modulus)


@lru_cache(maxsize=64)
def _built(build: Callable[..., RationalGF], modulus: Modulus) -> RationalGF:
    """The entry that build makes at the modulus, checked against both catalog invariants."""
    gf = build(*(() if modulus is INFINITY else (modulus,)))
    if gf.denominator.coeff(0, 0) != 1:
        raise AssertionError("catalog invariant violated: denominator constant term != 1")
    if any(p < 2 * s for poly in gf for p, s, _ in poly.terms()):
        raise AssertionError("catalog invariant violated: a term has q-degree below 2 * t-degree")
    return gf


@lru_cache(maxsize=64)
def _shifted(gf: RationalGF) -> RationalGF:
    """gf in u = t/q^2: each term q^p t^s becomes q^(p - 2s) u^s."""
    return RationalGF(*(BivariatePoly({(p - 2 * s, s): c for p, s, c in poly.terms()})
                        for poly in gf))


def gf_count(
    family: Family, reduced: bool, sign: Sign, modulus: Modulus, n: int, k: int
) -> int:
    """Evaluate one counting function through its generating function."""
    return gf_grid(family, reduced, sign, modulus, [n], [k])[0][0]


def gf_grid(
    family: Family, reduced: bool, sign: Sign, modulus: Modulus,
    ns: Sequence[int], ks: Sequence[int],
) -> list[list[int]]:
    """rows[i][j] = gf_count(..., ns[i], ks[j]), every sign read off
    (stats.plus_reads) one expansion of the block's shifted plus entry to
    q-degree max(ns) - 2 min(ks) and u-degree min(max(ks), max(ns) // 2), so
    the plus, minus and total requests of one window share it; stats.sign_rows
    sums the rows from its plus rows.
    """
    check_request(family, reduced, sign, modulus, ns, ks)
    n_max = max(ns, default=0)
    k_min = min(ks, default=n_max)  # no column read: the window is one coefficient
    gf = _shifted(gf_catalog(family, reduced, Sign.PLUS, modulus))
    g = series_table(gf, max(n_max - 2 * k_min, 0), min(max(ks, default=0), n_max // 2))
    return sign_rows(sign, ns, len(ks),
                     lambda m: [g[m - 2 * k][k] if m >= 2 * k else 0 for k in ks])
