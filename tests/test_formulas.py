"""Closed formulas against frozen values, the oracle, and each other."""

import itertools

import pytest

from palcomp import formulas
from palcomp.core import binom, fibonacci, tribonacci, tribonacci_prime
from palcomp.formulas import (
    V1,
    V2,
    V3,
    ac_plus_k,
    ac_plus_k_mod,
    ac_plus_k_mod1,
    ac_total_k_alt,
    ac_total_k_mod,
    formula_count,
    pc_plus_1_closed,
    pc_plus_1_mod2_odd,
    pc_plus_k,
    pc_plus_k_mod,
    pc_plus_k_mod2,
    pc_plus_mod_k0,
    rac_plus_k,
    rac_plus_k_mod,
    rac_plus_k_mod1,
    rac_total_k_mod,
    rac_total_k_mod1,
    rpc_plus_1_mod2_odd,
    rpc_plus_k_mod,
    rpc_plus_k_mod2,
    rpc_plus_mod_k0,
    rpc_total_k,
    special_value,
    special_value_names,
    total_from_plus,
)
from palcomp.oracle import brute_count, count_parts_equal_one
from palcomp.stats import INFINITY, CountSpec, Family, Sign

ALL_MODULI = (1, 2, 3, 4, 5, INFINITY)


def brute(family, reduced, sign, modulus, n, k):
    return brute_count(CountSpec(family, reduced, sign, modulus, k), n)


class TestInfinityFamilies:
    def test_pc_plus_fixtures(self):
        assert pc_plus_k(4, 1) == 2
        assert pc_plus_k(6, 0) == 8
        assert pc_plus_k(5, 0) == 0
        assert pc_plus_k(10, 2) == brute(Family.PC, False, Sign.PLUS, INFINITY, 10, 2)

    def test_pc_plus_1_closed(self):
        assert pc_plus_1_closed(4) == 2
        assert pc_plus_1_closed(3) == 2
        assert pc_plus_1_closed(0) == 0
        for n in range(25):
            assert pc_plus_1_closed(n) == pc_plus_k(n, 1)

    @pytest.mark.parametrize("variant", [V1, V2, V3])
    def test_ac_plus_fixtures(self, variant):
        assert ac_plus_k(6, 0, variant) == 11
        assert ac_plus_k(0, 0, variant) == 1

    def test_ac_total_alt(self):
        assert ac_total_k_alt(6, 0) == 17
        assert ac_total_k_alt(0, 0) == 1
        assert ac_total_k_alt(4, 1) == brute(Family.AC, False, Sign.TOTAL, INFINITY, 4, 1)
        for n in range(15):
            for k in range(5):
                assert ac_total_k_alt(n, k) == total_from_plus(ac_plus_k, n, k)

    def test_rpc_total(self):
        assert rpc_total_k(4, 1) == 2
        for n in range(16):
            assert rpc_total_k(n, 0) == 1 << (n // 2)
        assert rpc_total_k(7, 2) == brute(Family.PC, True, Sign.TOTAL, INFINITY, 7, 2)

    def test_rac_plus(self):
        assert rac_plus_k(5, 0) == 3
        assert rac_plus_k(0, 0) == 1
        assert rac_plus_k(6, 1) == count_parts_equal_one(5, 1)

    @pytest.mark.parametrize("n", range(19))
    @pytest.mark.parametrize("k", range(6))
    def test_rac_plus_counts_single_ones(self, n, k):
        if n >= k:
            assert rac_plus_k(n, k) == count_parts_equal_one(n - k, k)

    def test_nonnegative_n_required(self):
        with pytest.raises(ValueError):
            pc_plus_k(-1, 0)
        with pytest.raises(ValueError):
            ac_plus_k(3, -1)


class TestModularFamilies:
    def test_pc_plus_mod_fixtures(self):
        assert pc_plus_k_mod(4, 0, 2) == 6
        assert pc_plus_k_mod(3, 0, 2) == 0
        for n in range(12):
            assert pc_plus_k_mod(n, 1, 1, V2) == 0
            assert pc_plus_k_mod(n, 1, 1, V1) == 0
        assert pc_plus_k_mod(7, 1, 2) == sum(
            (i + 1) * 2 ** (i + 1) * binom(2, i) for i in range(3)
        )
        assert pc_plus_k_mod(7, 1, 2) == brute(Family.PC, False, Sign.PLUS, 2, 7, 1)

    def test_pc_plus_mod_k0(self):
        # modulus 3 totals are doubled Fibonacci numbers
        assert pc_plus_mod_k0(5, 3) + pc_plus_mod_k0(4, 3) == 2 * fibonacci(4)
        assert pc_plus_mod_k0(0, 7) == 1
        for n, m in [(3, 8), (4, 9), (5, 11)]:
            # beyond-range modulus: only the all-twos core remains
            assert pc_plus_mod_k0(2 * n, m) == 1 << n
            assert pc_plus_mod_k0(2 * n + 1, m) == 0
        for n in range(13):
            for m in range(1, 6):
                assert pc_plus_mod_k0(n, m) == pc_plus_k_mod(n, 0, m)

    def test_rpc_plus_mod_fixtures(self):
        assert rpc_plus_k_mod(4, 0, 2) == fibonacci(5)
        for n in range(12):
            assert rpc_plus_k_mod(n, 1, 1) == 0
            assert rpc_plus_k_mod(n, 2, 1) == 0
        assert rpc_plus_k_mod(7, 1, 2) == sum(i * binom(3 + i, 2 * i) for i in range(4))
        assert rpc_plus_k_mod(7, 1, 2) == brute(Family.PC, True, Sign.PLUS, 2, 7, 1)

    def test_rpc_plus_mod_k0(self):
        assert rpc_plus_mod_k0(4, 2) == 5
        assert rpc_plus_mod_k0(0, 3) == 1
        assert rpc_plus_mod_k0(6, 1) == brute(Family.PC, True, Sign.PLUS, 1, 6, 0)
        for n in range(13):
            for m in range(1, 6):
                assert rpc_plus_mod_k0(n, m) == rpc_plus_k_mod(n, 0, m)

    def test_ac_plus_mod_fixtures(self):
        assert ac_plus_k_mod(5, 1, 1) == 6
        for n in range(13):
            assert ac_plus_k_mod(n, 0, 1) == (1 + (-1) ** n) // 2
        assert ac_plus_k_mod(8, 2, 2) == brute(Family.AC, False, Sign.PLUS, 2, 8, 2)

    def test_ac_total_mod_fixtures(self):
        assert ac_total_k_mod(5, 1, 2) == 8
        assert ac_total_k_mod(5, 0, 3) == 7
        assert ac_total_k_mod(6, 2, 1) == 15
        for n in range(13):
            for k in range(4):
                for m in (1, 2, 3):
                    assert ac_total_k_mod(n, k, m) == total_from_plus(ac_plus_k_mod, n, k, m)

    def test_rac_plus_mod_fixtures(self):
        assert rac_plus_k_mod(6, 1, 1) == 6
        for n in range(0, 13, 2):
            assert rac_plus_k_mod(n, 0, 1) == 1
            assert rac_plus_k_mod(n + 1, 0, 1) == 0
        assert rac_plus_k_mod(7, 2, 2) == brute(Family.AC, True, Sign.PLUS, 2, 7, 2)

    def test_rac_total_mod_fixtures(self):
        assert rac_total_k_mod(5, 1, 1) == 6
        for n in range(13):
            assert rac_total_k_mod(n, 0, 1) == 1
        assert rac_total_k_mod(6, 1, 3) == brute(Family.AC, True, Sign.TOTAL, 3, 6, 1)
        for n in range(13):
            for k in range(4):
                for m in (1, 2, 3):
                    assert rac_total_k_mod(n, k, m) == total_from_plus(rac_plus_k_mod, n, k, m)

    def test_infinity_not_accepted(self):
        for fn in (pc_plus_k_mod, rpc_plus_k_mod, ac_plus_k_mod, rac_plus_k_mod):
            with pytest.raises(ValueError):
                fn(5, 1, INFINITY)
        with pytest.raises(ValueError):
            ac_total_k_mod(5, 1, INFINITY)
        with pytest.raises(ValueError):
            pc_plus_mod_k0(5, INFINITY)


class TestSpecializations:
    @pytest.mark.parametrize("n", range(17))
    @pytest.mark.parametrize("k", range(5))
    def test_m1_and_m2_forms(self, n, k):
        assert ac_plus_k_mod(n, k, 1) == ac_plus_k_mod1(n, k)
        assert rac_plus_k_mod(n, k, 1) == rac_plus_k_mod1(n, k)
        assert rac_total_k_mod(n, k, 1) == rac_total_k_mod1(n, k)
        assert ac_total_k_mod(n, k, 1) == binom(n, 2 * k)
        assert pc_plus_k_mod(n, k, 2) == pc_plus_k_mod2(n, k)
        assert rpc_plus_k_mod(n, k, 2) == rpc_plus_k_mod2(n, k)

    @pytest.mark.parametrize("n", [0, 2, 3, 5, 7, 9, 11, 13])
    def test_mod2_k1_closed_forms(self, n):
        assert pc_plus_k_mod(n, 1, 2) == pc_plus_1_mod2_odd(n)
        assert rpc_plus_k_mod(n, 1, 2) == rpc_plus_1_mod2_odd(n)

    def test_mod2_k1_domain_gap(self):
        # the closed form starts at n=3: the n=1 sum would give 2, the count is 0
        with pytest.raises(ValueError):
            pc_plus_1_mod2_odd(1)
        assert pc_plus_k_mod(1, 1, 2) == 0

    @pytest.mark.parametrize("n", range(1, 17))
    def test_parity_vanishing(self, n):
        for k in range(5):
            if (n - k) % 2:
                assert pc_plus_k_mod(n, k, 2) == 0
        if n % 2:
            for m in (2, 4):
                assert pc_plus_mod_k0(n, m) == 0


class TestVariantsAndDispatch:
    @pytest.mark.parametrize("n", range(21))
    @pytest.mark.parametrize("k", range(5))
    def test_infinity_variants_agree(self, n, k):
        assert ac_plus_k(n, k, V1) == ac_plus_k(n, k, V2) == ac_plus_k(n, k, V3)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_modular_variants_agree(self, m):
        for n in range(17):
            for k in range(5):
                assert pc_plus_k_mod(n, k, m, V1) == pc_plus_k_mod(n, k, m, V2)
                assert rpc_plus_k_mod(n, k, m, V1) == rpc_plus_k_mod(n, k, m, V2)
                assert ac_plus_k_mod(n, k, m, V1) == ac_plus_k_mod(n, k, m, V2)
                assert rac_plus_k_mod(n, k, m, V1) == rac_plus_k_mod(n, k, m, V2)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_geometric_power_coeffs_equal_repeated_products(self, m):
        base = [1] * (m - 1)  # 1 + q + ... + q^(m-2); empty for m = 1
        poly = [1]
        for e in range(7):
            want = tuple((w, c) for w, c in enumerate(poly) if c)
            assert formulas._geometric_power_coeffs(m, e) == want, (m, e)
            product = [0] * (len(poly) + len(base) - 1) if base else []
            for i, a in enumerate(poly):
                for j, b in enumerate(base):
                    product[i + j] += a * b
            poly = product

    def test_multinomial_walk_survives_a_large_modulus(self):
        assert formulas._geometric_power_coeffs(2000, 0) == ((0, 1),)
        assert pc_plus_k_mod(10, 0, 2000, V2) == pc_plus_k_mod(10, 0, 2000, V1)

    def test_variant_rejection(self):
        with pytest.raises(ValueError):
            ac_plus_k_mod(5, 1, 2, V3)
        with pytest.raises(ValueError):
            formula_count(Family.PC, False, Sign.PLUS, INFINITY, 5, 1, V2)

    @pytest.mark.parametrize(
        "n, k, name", [(True, 1, "n"), (4, False, "k"), (4.0, 1, "n"), (4, 1.5, "k"), ("4", 1, "n")]
    )
    def test_formula_count_rejects_non_int_indices(self, n, k, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            formula_count(Family.PC, False, Sign.TOTAL, INFINITY, n, k)

    def test_total_from_plus(self):
        assert total_from_plus(pc_plus_k, 4, 1) == 4
        assert total_from_plus(pc_plus_k, 0, 0) == pc_plus_k(0, 0)
        assert total_from_plus(ac_plus_k, 6, 0) == 11 + 6
        assert tribonacci_prime(6) == 6  # the n-1 term above

    @pytest.mark.parametrize(
        "family, reduced", list(itertools.product(Family, (False, True)))
    )
    @pytest.mark.parametrize("modulus", ALL_MODULI)
    def test_formula_count_matches_oracle(self, family, reduced, modulus):
        for n in range(11):
            for k in range(4):
                for sign in Sign:
                    assert formula_count(family, reduced, sign, modulus, n, k) == brute(
                        family, reduced, sign, modulus, n, k
                    )


class TestDivisibility:
    @pytest.mark.parametrize("n", range(21))
    @pytest.mark.parametrize("k", range(7))
    def test_power_of_two_divides_pc(self, n, k):
        total = total_from_plus(pc_plus_k, n, k)
        assert total % (1 << k) == 0
        assert rpc_total_k(n, k) == total >> k

    def test_failed_division_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(formulas, "pc_plus_k", lambda n, k: n)  # 5 + 4 is odd
        with pytest.raises(ArithmeticError, match="not divisible"):
            formulas.rpc_total_k(5, 1)


class TestSpecialValues:
    def test_fixtures(self):
        assert special_value("AC_TOTAL_TRIB", 6) == tribonacci(6) + tribonacci(4) == 17
        assert special_value("PC_MOD3", 5) == 2 * fibonacci(4) == 6
        assert special_value("RAC_FIB", 7) == fibonacci(7) == 13
        assert special_value("RAC_FIB", 0) == 1

    def test_unknown_and_out_of_domain(self):
        with pytest.raises(ValueError):
            special_value("NO_SUCH_FORM", 3)
        with pytest.raises(ValueError):
            special_value("PC_MOD3", 1)
        with pytest.raises(ValueError):
            special_value("AC_TOTAL_TRIB", 0)

    def test_three_tribonacci_forms_agree(self):
        for n in range(2, 31):
            a = special_value("AC_TOTAL_TRIB", n)
            b = special_value("AC_TOTAL_TRIB_PRIME", n)
            c = special_value("AC_TOTAL_TRIB_DIFF", n)
            assert a == b == c

    def test_every_name_evaluates_somewhere(self):
        for name in special_value_names():
            domain = formulas.special_value_domain(name)
            n = next(n for n in range(40) if domain(n))
            assert special_value(name, n) >= 0
