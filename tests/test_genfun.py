"""Series arithmetic, inversion, and the generating-function catalog."""

import collections
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from palcomp import genfun, verify
from palcomp.core import fibonacci
from palcomp.formulas import formula_count, rac_plus_k_mod
from palcomp.genfun import (
    ONE,
    Q,
    T,
    ZERO,
    BivariatePoly,
    RationalGF,
    _CATALOG,
    _CatalogRow,
    _shifted,
    gf_catalog,
    gf_count,
    poly_mul,
    series_inverse,
    series_table,
)
from palcomp.oracle import brute_count
from palcomp.stats import INFINITY, Family, Sign

# INFINITY's test id stays the positional one pytest gave it as a non-Enum value
ALL_MODULI = (1, 2, 3, 4, 5, pytest.param(INFINITY, id="modulus5"))


def coefficient(gf: RationalGF, n: int, k: int) -> int:
    return series_table(gf, n, k)[n][k]


def entries(modulus):
    """(family, reduced, sign) of every catalog entry at the modulus: each block's
    plus entry and the totals the paper displays."""
    for family, reduced, sign in itertools.product(Family, (False, True), (Sign.PLUS, Sign.TOTAL)):
        if sign is Sign.PLUS or _CATALOG[family, reduced, modulus is not INFINITY].total:
            yield family, reduced, sign


def expansion(family, reduced, sign, modulus, nq, nt):
    """A block's plus or total series to (nq, nt): its catalog entry expanded,
    or, for a total the paper does not display, plus(n) + plus(n - 1)."""
    if (family, reduced, sign) in entries(modulus):
        return series_table(gf_catalog(family, reduced, sign, modulus), nq, nt)
    plus = series_table(gf_catalog(family, reduced, Sign.PLUS, modulus), nq, nt)
    below = ((0,) * (nt + 1),) + plus
    return tuple(tuple(map(sum, zip(row, lower))) for row, lower in zip(plus, below))


def two_pass(gf: RationalGF, nq: int, nt: int):
    """gf expanded the way the GF path once did: 1/denominator, then each
    numerator term c q^dp t^ds shift-added into the rows."""
    inverse = series_inverse(gf.denominator, nq, nt, ONE)
    rows = [[0] * (nt + 1) for _ in range(nq + 1)]
    for dp, ds, c in gf.numerator.terms():
        for p in range(dp, nq + 1):
            for s in range(ds, nt + 1):
                rows[p][s] += c * inverse[p - dp][s - ds]
    return tuple(map(tuple, rows))


class TestPolyArithmetic:
    def test_telescoping(self):
        geometric = sum((Q**i for i in range(11)), ZERO)
        assert (ONE - Q) * geometric == ONE - Q**11

    def test_zero_absorbs(self):
        assert poly_mul(ZERO, ONE - Q) == ZERO
        assert poly_mul(Q * T, ZERO) == ZERO

    def test_hand_expansion(self):
        expanded = (ONE - Q) * (ONE - 2 * Q**2)
        assert expanded == ONE - Q - 2 * Q**2 + 2 * Q**3

    def test_add_and_coeff(self):
        p = Q * T + 3 * Q
        assert p.coeff(1, 0) == 3
        assert p.coeff(1, 1) == 1
        assert p.coeff(0, 0) == 0
        assert p.coeff(9, 9) == 0

    def test_normalization_and_equality(self):
        assert BivariatePoly({(0, 0): 1, (0, 1): 0, (2, 0): 0}) == ONE
        assert BivariatePoly({(3, 1): 0}) == ZERO
        assert Q - Q == ZERO
        assert (ONE + Q) * (ONE - Q) == ONE - Q**2

    def test_truncate(self):
        p = (ONE + Q + T) ** 3
        cut = series_table(RationalGF(p, ONE), 1, 1)
        assert cut == ((1, 3), (3, 6))
        assert cut[1][1] == p.coeff(1, 1) == 6

    def test_repr_evaluates_back(self):
        p = 3 * Q**5 * T - Q + ONE
        assert repr(p) == "BivariatePoly({(0, 0): 1, (1, 0): -1, (5, 1): 3})"
        assert eval(repr(p)) == p and hash(eval(repr(p))) == hash(p)
        assert repr(ZERO) == "BivariatePoly({})"

    def test_immutability(self):
        with pytest.raises(AttributeError):
            ONE.rows = ()


class TestSeriesInverse:
    def test_geometric(self):
        inv = series_inverse(ONE - Q, 12, 0, ONE)
        assert inv == ((1,),) * 13

    def test_fibonacci_shift(self):
        inv = series_inverse(ONE - Q - Q**2, 15, 0, ONE)
        assert [inv[i][0] for i in range(16)] == [fibonacci(i + 1) for i in range(16)]

    def test_rejects_bad_constant_term(self):
        with pytest.raises(ValueError):
            series_inverse(2 * ONE - Q, 4, 4, ONE)
        with pytest.raises(ValueError):
            series_inverse(Q, 4, 4, ONE)

    @pytest.mark.parametrize("bounds", [(-1, 0), (0, -1)])
    def test_rejects_negative_bounds(self, bounds):
        with pytest.raises(ValueError, match="^truncation bounds must be >= 0"):
            series_inverse(ONE - Q, *bounds, ONE)

    @settings(max_examples=20, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 2)),
            st.integers(-3, 3),
            max_size=6,
        )
    )
    def test_inverse_times_self_is_one(self, terms):
        terms[(0, 0)] = 1
        d = sum((c * Q**p * T**s for (p, s), c in terms.items()), ZERO)
        unit = tuple(tuple(int(p == s == 0) for s in range(5)) for p in range(9))
        assert series_table(RationalGF(d, d), 8, 4) == unit

    @pytest.mark.parametrize("modulus", (1, 2, 3, 5, 97, pytest.param(INFINITY, id="inf")))
    @pytest.mark.parametrize("bounds", [(0, 0), (0, 4), (9, 0), (1, 1), (17, 5)])
    def test_one_pass_equals_inverse_then_shift_add(self, modulus, bounds):
        # every block's plus entry, as stored and as gf_grid expands it in u = t/q^2
        for family, reduced in itertools.product(Family, (False, True)):
            plus = gf_catalog(family, reduced, Sign.PLUS, modulus)
            for gf in (plus, _shifted(plus)):
                one_pass = series_inverse(gf.denominator, *bounds, gf.numerator)
                assert one_pass == two_pass(gf, *bounds), (family, reduced, gf)

    def test_one_pass_keeps_one_table(self):
        # the two-pass expansion held the inverse and the product at once (about 1.6 MiB here)
        gf = _shifted(gf_catalog(Family.AC, False, Sign.PLUS, INFINITY))
        tracemalloc.start()
        try:
            series_table.__wrapped__(gf, 800, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCatalog:
    @pytest.mark.parametrize("modulus", ALL_MODULI)
    def test_denominator_constant_term_is_one(self, modulus):
        for family, reduced, sign in entries(modulus):
            gf = gf_catalog(family, reduced, sign, modulus)
            assert gf.denominator.coeff(0, 0) == 1
            # the constant term of every entry is the empty composition
            assert coefficient(gf, 0, 0) == 1

    def test_minus_has_no_entry(self):
        with pytest.raises(KeyError):
            gf_catalog(Family.PC, False, Sign.MINUS, INFINITY)

    @pytest.mark.parametrize("modulus", (1, 5, pytest.param(INFINITY, id="inf")))
    def test_a_total_has_an_entry_only_where_the_paper_displays_one(self, modulus):
        answered = set()
        for family, reduced in itertools.product(Family, (False, True)):
            try:
                gf_catalog(family, reduced, Sign.TOTAL, modulus)
            except KeyError as error:
                assert "plus entry at n and n-1" in str(error)
            else:
                answered.add((family, reduced))
        displayed = {(Family.AC, False), (Family.AC, True)}
        assert answered == (displayed if modulus is not INFINITY else {(Family.AC, False)})

    def test_refuses_a_bad_cell_before_the_cached_lookup(self):
        gf_catalog(Family.PC, True, Sign.PLUS, INFINITY)  # 1 hashes like True, a catalog key
        with pytest.raises(TypeError, match="^reduced must be a bool, got 1$"):
            gf_catalog(Family.PC, 1, Sign.PLUS, INFINITY)
        with pytest.raises(TypeError, match="^family must be a Family, got 'pc'$"):
            gf_catalog("pc", False, Sign.PLUS, INFINITY)

    def test_a_default_verify_builds_each_entry_once(self, monkeypatch):
        built = collections.Counter()

        def counted(build):
            def wrapper(*modulus):
                built[(build.__name__, *modulus)] += 1
                return build(*modulus)
            return wrapper

        for block, row in list(_CATALOG.items()):
            total = row.total and counted(row.total)
            monkeypatch.setitem(_CATALOG, block, _CatalogRow(counted(row.plus), total))
        genfun._built.cache_clear()
        assert all(result.ok for result in verify.run_all())
        # every plus entry at the six default moduli, and each displayed total
        assert len(built) == 4 * 6 + 1 + 2 * 5
        assert set(built.values()) == {1}

    def test_a_default_verify_shifts_each_plus_entry_once(self):
        genfun._shifted.cache_clear()
        assert all(result.ok for result in verify.run_all())
        # one plus entry per family and reduced flag at each of the six default moduli
        assert genfun._shifted.cache_info().misses == 4 * 6

    def test_a_row_replaced_after_a_call_is_the_one_read(self, monkeypatch):
        first = gf_catalog(Family.PC, False, Sign.PLUS, 3)
        assert gf_catalog(Family.PC, False, Sign.PLUS, 3) is first

        def other(m):
            return RationalGF(ONE - Q, ONE - Q - Q**2)

        monkeypatch.setitem(_CATALOG, (Family.PC, False, True), _CatalogRow(other))
        assert gf_catalog(Family.PC, False, Sign.PLUS, 3) == other(3) != first

    def test_fixture_coefficients(self):
        assert coefficient(gf_catalog(Family.PC, False, Sign.PLUS, INFINITY), 4, 1) == 2
        assert coefficient(gf_catalog(Family.AC, False, Sign.TOTAL, 2), 8, 2) == 32

    def test_mod1_collapses_to_univariate_form(self):
        # after cancellation the modulus-1 plus series is (1-q)/(1-q-2q^2); the
        # catalog keeps the uncancelled displayed form, so compare coefficients
        cancelled = RationalGF(ONE - Q, ONE - Q - 2 * Q**2)
        kept = gf_catalog(Family.PC, False, Sign.PLUS, 1)
        kept_series, cancelled_series = series_table(kept, 20, 3), series_table(cancelled, 20, 3)
        for n in range(21):
            assert kept_series[n][0] == cancelled_series[n][0]
            for k in range(1, 4):
                assert kept_series[n][k] == 0

    def test_rac_plus_mod2_matches_formula(self):
        gf = gf_catalog(Family.AC, True, Sign.PLUS, 2)
        series = series_table(gf, 20, 3)
        for n in range(21):
            for k in range(4):
                assert series[n][k] == rac_plus_k_mod(n, k, 2)

    @pytest.mark.parametrize("modulus", ALL_MODULI)
    def test_total_equals_shifted_plus(self, modulus):
        # each total the paper displays; any other total is read as this sum
        for family, reduced in ((f, r) for f, r, sign in entries(modulus) if sign is Sign.TOTAL):
            plus = series_table(gf_catalog(family, reduced, Sign.PLUS, modulus), 14, 4)
            total = series_table(gf_catalog(family, reduced, Sign.TOTAL, modulus), 14, 4)
            for n in range(15):
                for k in range(5):
                    expected = plus[n][k] + (plus[n - 1][k] if n else 0)
                    assert total[n][k] == expected

    def test_catalog_covers_all_cells(self):
        # one row per (family, reduced, finite modulus) block; plus and any displayed
        # total resolve from it
        assert set(_CATALOG) == set(itertools.product(Family, (False, True), (False, True)))
        for modulus in (5, INFINITY):
            for family, reduced, sign in entries(modulus):
                assert isinstance(gf_catalog(family, reduced, sign, modulus), RationalGF)
        displayed = {block for block, row in _CATALOG.items() if row.total is not None}
        assert displayed == {(Family.AC, False, False), (Family.AC, False, True),
                             (Family.AC, True, True)}

    @pytest.mark.parametrize(
        "modulus", (1, 2, 3, 5, 97, 10**6, 10**12, pytest.param(INFINITY, id="inf"))
    )
    def test_displayed_totals_are_the_plus_entries_totalized(self, modulus):
        # exact polynomial identities, so they hold for every n, not only to a truncation
        finite = modulus is not INFINITY
        args = (modulus,) if finite else ()
        for (family, reduced, row_finite), row in _CATALOG.items():
            if row.total is not None and row_finite == finite:
                total, plus = row.total(*args), row.plus(*args)
                assert total.numerator == (ONE + Q) * plus.numerator, (family, reduced)
                assert total.denominator == plus.denominator, (family, reduced)

    @pytest.mark.parametrize("modulus", (13, 10**6, 10**18))
    def test_modulus_above_n_expands_like_infinity(self, modulus):
        # two parts <= 12 are congruent mod m > 12 only when they are equal
        for family, reduced, sign in itertools.product(
            Family, (False, True), (Sign.PLUS, Sign.TOTAL)
        ):
            finite = expansion(family, reduced, sign, modulus, 12, 4)
            assert finite == expansion(family, reduced, sign, INFINITY, 12, 4)

    def test_memory_does_not_grow_with_the_modulus(self):
        # every finite-modulus builder is reached, the displayed totals included
        tracemalloc.start()
        try:
            for family, reduced, sign in entries(5000):
                tracemalloc.reset_peak()
                series_table.__wrapped__(gf_catalog(family, reduced, sign, 5000), 8, 2)
                peak = tracemalloc.get_traced_memory()[1]
                assert peak < 0.1 * 2**20, (family, reduced, sign, peak)
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "modulus", (1, 2, 3, 5, 7, 97, 10**6, pytest.param(INFINITY, id="modulus7"))
    )
    def test_every_term_has_q_degree_at_least_twice_its_t_degree(self, modulus):
        # so the entry shifted to u = t/q^2 has nonnegative degrees, and a cell with 2k > n is 0
        for family, reduced, sign in entries(modulus):
            gf = gf_catalog(family, reduced, sign, modulus)
            for poly in (gf.numerator, gf.denominator):
                assert all(p >= 2 * s for p, s, _ in poly.terms()), (family, reduced, sign, poly)

    def test_a_term_below_twice_its_t_degree_is_refused(self, monkeypatch):
        # shifted by u = t/q^2, a q t term would have q-degree -1, and the
        # expansion would read rows it has not filled
        def bad():
            return RationalGF(ONE - Q, ONE - Q - Q**2 - Q * T)

        row = _CatalogRow(bad, bad)
        monkeypatch.setitem(_CATALOG, (Family.PC, False, False), row)
        for sign in (Sign.PLUS, Sign.TOTAL):
            with pytest.raises(AssertionError, match="q-degree below 2 \\* t-degree"):
                gf_catalog(Family.PC, False, sign, INFINITY)
        with pytest.raises(AssertionError, match="q-degree below 2 \\* t-degree"):
            gf_count(Family.PC, False, Sign.MINUS, INFINITY, 6, 1)

    def test_gf_count_past_half_of_n_expands_nothing(self):
        tracemalloc.start()
        try:
            assert gf_count(Family.PC, False, Sign.PLUS, INFINITY, 10, 10**9) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCrossPath:
    @pytest.mark.parametrize("modulus", ALL_MODULI)
    def test_counts_match_formula_and_oracle(self, modulus):
        for family, reduced, sign in itertools.product(Family, (False, True), Sign):
            for n in range(11):
                for k in range(4):
                    g = gf_count(family, reduced, sign, modulus, n, k)
                    assert g == formula_count(family, reduced, sign, modulus, n, k)
                    assert g == brute_count(family, reduced, sign, modulus, n, k)

    def test_truncation_soundness(self):
        for modulus in (1, 4, INFINITY):
            gf = gf_catalog(Family.AC, False, Sign.TOTAL, modulus)
            for n, k in [(3, 0), (9, 2), (13, 4)]:
                assert coefficient(gf, n, k) == series_table(gf, n + 5, k + 3)[n][k]

    def test_rpc_mod2_fibonacci_fold(self):
        series = series_table(gf_catalog(Family.PC, True, Sign.PLUS, 2), 24, 0)
        for n in range(25):
            expected = fibonacci(n + 1) if n % 2 == 0 else 0
            assert series[n][0] == expected

    @pytest.mark.parametrize(
        "n, k, name", [(True, 1, "n"), (4, False, "k"), (4.0, 1, "n"), (4, 1.5, "k")]
    )
    def test_gf_count_rejects_non_int_indices(self, n, k, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            gf_count(Family.PC, False, Sign.TOTAL, INFINITY, n, k)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            gf_count(Family.PC, False, Sign.PLUS, INFINITY, -1, 0)
        with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
            gf_count(Family.PC, False, Sign.PLUS, INFINITY, 2, -1)
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            gf_count(Family.PC, False, Sign.MINUS, INFINITY, -1, 0)
