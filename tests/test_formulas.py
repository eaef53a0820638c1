"""Closed formulas against frozen values, the oracle, and each other."""

import ast
import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from palcomp import core, formulas
from palcomp.core import binom, fibonacci, tribonacci, tribonacci_prime
from palcomp.formulas import (
    SPECIAL_VALUES,
    FormulaVariant,
    V1,
    V2,
    V3,
    ac_plus_k,
    ac_plus_k_mod,
    ac_plus_k_mod1,
    ac_total_k_alt,
    ac_total_k_mod,
    formula_count,
    formula_grid,
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
    total_from_plus,
)
from palcomp.genfun import gf_count
from palcomp.oracle import brute_count, count_parts_equal_one
from palcomp.stats import INFINITY, Family, Sign

# INFINITY's test id stays the positional one pytest gave it as a non-Enum value
ALL_MODULI = (1, 2, 3, 4, 5, pytest.param(INFINITY, id="modulus5"))
TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
# The published variants of each block's plus function, written out apart from
# formulas._PLUS_FORMULAS, keyed the same way: (family, reduced, finite modulus).
PUBLISHED_VARIANTS = {
    (Family.AC, False, False): ("ac_plus_k", (V1, V2, V3)),
    (Family.PC, False, True): ("pc_plus_k_mod", (V1, V2)),
    (Family.PC, True, True): ("rpc_plus_k_mod", (V1, V2)),
    (Family.AC, False, True): ("ac_plus_k_mod", (V1, V2)),
    (Family.AC, True, True): ("rac_plus_k_mod", (V1, V2)),
    (Family.PC, False, False): ("pc_plus_k", ()),
    (Family.PC, True, False): ("rpc_plus_k", ()),
    (Family.AC, True, False): ("rac_plus_k", ()),
}


class TestInfinityFamilies:
    def test_pc_plus_fixtures(self):
        assert pc_plus_k(4, 1) == 2
        assert pc_plus_k(6, 0) == 8
        assert pc_plus_k(5, 0) == 0
        assert pc_plus_k(10, 2) == brute_count(Family.PC, False, Sign.PLUS, INFINITY, 10, 2)

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
        assert ac_total_k_alt(4, 1) == brute_count(Family.AC, False, Sign.TOTAL, INFINITY, 4, 1)
        for n in range(15):
            for k in range(5):
                assert ac_total_k_alt(n, k) == total_from_plus(ac_plus_k, n, k)

    def test_rpc_total(self):
        assert rpc_total_k(4, 1) == 2
        for n in range(16):
            assert rpc_total_k(n, 0) == 1 << (n // 2)
        assert rpc_total_k(7, 2) == brute_count(Family.PC, True, Sign.TOTAL, INFINITY, 7, 2)

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
        assert pc_plus_k_mod(7, 1, 2) == brute_count(Family.PC, False, Sign.PLUS, 2, 7, 1)

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
        assert rpc_plus_k_mod(7, 1, 2) == brute_count(Family.PC, True, Sign.PLUS, 2, 7, 1)

    def test_rpc_plus_mod_k0(self):
        assert rpc_plus_mod_k0(4, 2) == 5
        assert rpc_plus_mod_k0(0, 3) == 1
        assert rpc_plus_mod_k0(6, 1) == brute_count(Family.PC, True, Sign.PLUS, 1, 6, 0)
        for n in range(13):
            for m in range(1, 6):
                assert rpc_plus_mod_k0(n, m) == rpc_plus_k_mod(n, 0, m)

    def test_ac_plus_mod_fixtures(self):
        assert ac_plus_k_mod(5, 1, 1) == 6
        for n in range(13):
            assert ac_plus_k_mod(n, 0, 1) == (1 + (-1) ** n) // 2
        assert ac_plus_k_mod(8, 2, 2) == brute_count(Family.AC, False, Sign.PLUS, 2, 8, 2)

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
        assert rac_plus_k_mod(7, 2, 2) == brute_count(Family.AC, True, Sign.PLUS, 2, 7, 2)

    def test_rac_total_mod_fixtures(self):
        assert rac_total_k_mod(5, 1, 1) == 6
        for n in range(13):
            assert rac_total_k_mod(n, 0, 1) == 1
        assert rac_total_k_mod(6, 1, 3) == brute_count(Family.AC, True, Sign.TOTAL, 3, 6, 1)
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
        """The walk bounded at w_max equals the product truncated at w_max."""
        base = [1] * (m - 1)  # 1 + q + ... + q^(m-2); empty for m = 1
        poly = [1]
        for e in range(7):
            for w_max in range(-1, 20):
                want = tuple((w, c) for w, c in enumerate(poly) if c and w <= w_max)
                assert formulas._geometric_power_coeffs(m, e, w_max) == want, (m, e, w_max)
            product = [0] * (len(poly) + len(base) - 1) if base else []
            for i, a in enumerate(poly):
                for j, b in enumerate(base):
                    product[i + j] += a * b
            poly = product

    def test_multinomial_walk_survives_a_large_modulus(self):
        assert formulas._geometric_power_coeffs(2000, 0, 0) == ((0, 1),)
        assert pc_plus_k_mod(10, 0, 2000, V2) == pc_plus_k_mod(10, 0, 2000, V1)

    @pytest.mark.parametrize("block", list(formulas._PLUS_FORMULAS),
                             ids=[row.plus for row in formulas._PLUS_FORMULAS.values()])
    def test_variant_rejection(self, block):
        """A plus function and formula_count take exactly the published variants."""
        name, published = PUBLISHED_VARIANTS[block]
        family, reduced, finite = block
        modulus = 2 if finite else INFINITY
        plus = functools.partial(getattr(formulas, name), 5, 1, *([modulus] if finite else []))
        cell = functools.partial(formula_count, family, reduced, Sign.PLUS, modulus, 5, 1)
        count = cell()
        names = ", ".join(v.name for v in published)
        for v in FormulaVariant:
            if v in published:
                assert plus(v) == cell(v) == count
            elif published:
                for what, call in ((name, plus), ("formula_count", cell)):
                    message = f"^{what} has variants {names}; got {v.name}$"
                    with pytest.raises(ValueError, match=message):
                        call(v)
            else:
                with pytest.raises(ValueError, match="single published formula"):
                    cell(v)

    def test_the_benchmark_traces_the_plus_functions_of_the_table(self):
        """perfbench/traced_cli.py counts plus evaluations by the names in its own
        PLUS_FUNCTIONS; they must be the plus functions formula_count dispatches to."""
        (names,) = [node.value.args[0] for node in ast.parse(TRACED_CLI.read_text()).body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "PLUS_FUNCTIONS"]
        table = {row.plus for row in formulas._PLUS_FORMULAS.values()}
        assert table == ast.literal_eval(names)

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
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            total_from_plus(pc_plus_k, -1, 0)

    @pytest.mark.parametrize(
        "family, reduced", list(itertools.product(Family, (False, True)))
    )
    @pytest.mark.parametrize("modulus", ALL_MODULI)
    def test_formula_count_matches_oracle(self, family, reduced, modulus):
        for n in range(11):
            for k in range(4):
                for sign in Sign:
                    assert formula_count(family, reduced, sign, modulus, n, k) == brute_count(
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
        for name, value in SPECIAL_VALUES.items():
            n = next(n for n in range(40) if value.domain(n))
            assert special_value(name, n) >= 0



# ---------------------------------------------------------------------------
# The V1 finite-modulus sums as literal nested loops, one loop per index: the
# executable spec that the factored evaluations in formulas.py must reproduce.
# ---------------------------------------------------------------------------


def literal_pc_plus_k_mod(n, k, m):
    target = n - k
    if target < 0:
        return 0
    total = 0
    for i in range(target // 2 + 1):
        ik = binom(i, k)
        if not ik:
            continue
        head = ik << i
        for j in range((target - 2 * i) // m + 1):
            ij = head * binom(i + j - 1, j)
            if not ij:
                continue
            rest = target - 2 * i - m * j
            r_max = k if m == 1 else rest // (m - 1)
            for r in range(r_max + 1):
                kr = binom(k, r)
                if not kr:
                    continue
                s = rest - (m - 1) * r
                if s < 0:
                    break
                term = ij * kr * binom(k + s - 1, s)
                total += -term if r % 2 else term
    return total


def literal_rpc_plus_k_mod(n, k, m):
    target = n - k
    if target < 0:
        return 0
    total = 0
    for i in range(target // 2 + 1):
        ik = binom(i, k)
        if not ik:
            continue
        for j in range((target - 2 * i) // m + 1):
            ij = ik * binom(i + j - 1, j)
            if not ij:
                continue
            for c in range((target - 2 * i - m * j) // 2 + 1):
                ijc = ij * binom(i + c, c)
                rest = target - 2 * i - m * j - 2 * c
                r_max = k if m == 1 else rest // (m - 1)
                for r in range(r_max + 1):
                    kr = binom(k, r)
                    if not kr:
                        continue
                    s = rest - (m - 1) * r
                    if s < 0:
                        break
                    term = ijc * kr * binom(k + s - 1, s)
                    total += -term if r % 2 else term
    return total


def literal_ac_plus_k_mod(n, k, m):
    target = n - 2 * k
    if target < 0:
        return 0
    total = 0
    for i in range(target // 2 + 1):
        head = binom(i + k, k)
        for j in range(target - 2 * i + 1):
            ij = binom(i, j)
            if not ij:
                continue
            hj = (head * ij) << j
            after_j = target - 2 * i - j
            r_max = j if m == 1 else after_j // (m - 1)
            for r in range(r_max + 1):
                jr = binom(j, r)
                if not jr:
                    continue
                after_r = after_j - (m - 1) * r
                if after_r < 0:
                    break
                hr = hj * jr if r % 2 == 0 else -hj * jr
                for c in range(after_r // m + 1):
                    kc = binom(k, c)
                    if not kc:
                        continue
                    after_c = after_r - m * c
                    hc = hr * kc
                    for d in range(after_c // m + 1):
                        s = after_c - m * d
                        total += hc * binom(k + j + d - 1, d) * binom(j + s - 1, s)
    return total


def literal_rac_plus_k_mod(n, k, m):
    target = n - 2 * k
    if target < 0:
        return 0
    total = 0
    for i in range(target // 2 + 1):
        head = binom(i + k, k)
        for j in range(target - 2 * i + 1):
            ij = binom(i, j)
            if not ij:
                continue
            hj = head * ij
            after_j = target - 2 * i - j
            r_max = j if m == 1 else after_j // (m - 1)
            for r in range(r_max + 1):
                jr = binom(j, r)
                if not jr:
                    continue
                after_r = after_j - (m - 1) * r
                if after_r < 0:
                    break
                hr = hj * jr if r % 2 == 0 else -hj * jr
                for d in range(after_r // m + 1):
                    s = after_r - m * d
                    total += hr * binom(k + j + d - 1, d) * binom(j + s - 1, s)
    return total


def literal_ac_total_k_mod(n, k, m):
    target = n - 2 * k
    if target < 0:
        return 0
    total = 0
    for i in range(target // 3 + 1):
        head = binom(i + k, k) << i
        after_i = target - 3 * i
        r_max = i if m == 1 else after_i // (m - 1)
        for r in range(r_max + 1):
            ir = binom(i, r)
            if not ir:
                continue
            after_r = after_i - (m - 1) * r
            if after_r < 0:
                break
            hr = head * ir if r % 2 == 0 else -head * ir
            for c in range(after_r // m + 1):
                kc = binom(k, c)
                if not kc:
                    continue
                after_c = after_r - m * c
                hc = hr * kc
                for d in range(after_c // m + 1):
                    after_d = after_c - m * d
                    hd = hc * binom(i + k + d - 1, d)
                    if not hd:
                        continue
                    for s in range(after_d // 2 + 1):
                        j = after_d - 2 * s
                        total += hd * binom(i + k + s - 1, s) * binom(i + j, j)
    return total


def literal_rac_total_k_mod(n, k, m):
    target = n - 2 * k
    if target < 0:
        return 0
    total = 0
    for i in range(target // 3 + 1):
        head = binom(i + k, k)
        after_i = target - 3 * i
        r_max = i if m == 1 else after_i // (m - 1)
        for r in range(r_max + 1):
            ir = binom(i, r)
            if not ir:
                continue
            after_r = after_i - (m - 1) * r
            if after_r < 0:
                break
            hr = head * ir if r % 2 == 0 else -head * ir
            for d in range(after_r // m + 1):
                after_d = after_r - m * d
                hd = hr * binom(i + k + d - 1, d)
                if not hd:
                    continue
                for s in range(after_d // 2 + 1):
                    j = after_d - 2 * s
                    total += hd * binom(i + k + s - 1, s) * binom(i + j, j)
    return total


# factored function -> (literal spec, the count it is: family, reduced, sign)
FACTORED_V1 = {
    pc_plus_k_mod: (literal_pc_plus_k_mod, (Family.PC, False, Sign.PLUS)),
    rpc_plus_k_mod: (literal_rpc_plus_k_mod, (Family.PC, True, Sign.PLUS)),
    ac_plus_k_mod: (literal_ac_plus_k_mod, (Family.AC, False, Sign.PLUS)),
    rac_plus_k_mod: (literal_rac_plus_k_mod, (Family.AC, True, Sign.PLUS)),
    ac_total_k_mod: (literal_ac_total_k_mod, (Family.AC, False, Sign.TOTAL)),
    rac_total_k_mod: (literal_rac_total_k_mod, (Family.AC, True, Sign.TOTAL)),
}


def _clear_memos():
    for obj in vars(formulas).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with empty sub-sum memos, so call counts do not
    depend on which tests ran before."""
    _clear_memos()


_V1_CALL = st.tuples(
    st.sampled_from(list(FACTORED_V1)), st.integers(0, 40), st.integers(0, 6), st.integers(1, 7)
)


@st.composite
def _call_sequences(draw):
    """2 to 6 V1 calls; each after the first may keep the k or the m of the one before."""
    calls = [draw(_V1_CALL)]
    for _ in range(draw(st.integers(1, 5))):
        fn, n, k, m = draw(_V1_CALL)
        _, _, last_k, last_m = calls[-1]
        calls.append((fn, n, draw(st.sampled_from((last_k, k))), draw(st.sampled_from((last_m, m)))))
    return calls


def _counting_binom(monkeypatch):
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return core.binom(a, b)

    monkeypatch.setattr(formulas, "binom", counted)
    return calls


class TestFactoredSums:
    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("fn", list(FACTORED_V1), ids=lambda fn: fn.__name__)
    def test_equals_the_literal_loops(self, fn, m):
        literal = FACTORED_V1[fn][0]
        for n in range(31):
            for k in range(9):
                assert fn(n, k, m) == literal(n, k, m), (n, k, m)

    @settings(max_examples=30, deadline=None)
    @given(
        fn=st.sampled_from(list(FACTORED_V1)),
        n=st.integers(60, 120),
        k=st.integers(0, 6),
        m=st.integers(1, 7),
    )
    def test_equals_the_generating_function_far_out(self, fn, n, k, m):
        family, reduced, sign = FACTORED_V1[fn][1]
        assert fn(n, k, m) == gf_count(family, reduced, sign, m, n, k)

    # binom calls at n = 60, k = 3 from empty memos; the literal loops take
    # (m = 1 / m = 3): ac 232782 / 48167, rac 58577 / 16264, rpc 59699 / 27370,
    # pc 6347 / 3444, and for the totals ac 219336 at m = 1 and rac 59729 /
    # 13834.
    @pytest.mark.parametrize(
        "fn, m, bound",
        [
            (ac_plus_k_mod, 1, 36_000),
            (ac_plus_k_mod, 3, 15_000),
            (rac_plus_k_mod, 1, 17_000),
            (rac_plus_k_mod, 3, 9_000),
            (rpc_plus_k_mod, 1, 10_000),
            (rpc_plus_k_mod, 3, 4_500),
            (pc_plus_k_mod, 1, 1_500),
            (pc_plus_k_mod, 3, 1_500),
            (ac_total_k_mod, 1, 52_000),
            (rac_total_k_mod, 1, 14_000),
            (rac_total_k_mod, 3, 10_500),
        ],
    )
    def test_binom_calls_are_bounded(self, monkeypatch, fn, m, bound):
        calls = _counting_binom(monkeypatch)
        value = fn(60, 3, m)
        monkeypatch.undo()
        assert value == FACTORED_V1[fn][0](60, 3, m)
        assert 0 < calls[0] <= bound, calls[0]

    # The same calls with every loop run over its whole constraint range, zero
    # terms skipped inside it, took (m = 1 / m = 3) ac 28500 / 12255, rac 13217 /
    # 7232, rpc 7699 / 3444, pc 1147 / 1140, ac total 13308 and rac total 11291 /
    # 9732.  With each loop stopped where a binomial factor turns zero they take
    # ac 23739 / 9267, rac 12704 / 5176, rpc 7696 / 2957, pc 1144 / 653, ac total
    # 12849 and rac total 11291 / 9575.  Each bound sits between the two, so a
    # return to the whole ranges fails, except rac total at m = 1, where
    # stopping early saves no call.  The last row passes V3 in m's place:
    # ac_plus_k V3 with its s loop over the whole range takes 7564, and from
    # s = rest - j, where binom(j, r+s) stops being zero, 2792.
    @pytest.mark.parametrize(
        "fn, m, bound",
        [
            (ac_plus_k_mod, 1, 23_800),
            (ac_plus_k_mod, 3, 9_300),
            (rac_plus_k_mod, 1, 12_800),
            (rac_plus_k_mod, 3, 5_200),
            (rpc_plus_k_mod, 1, 7_698),
            (rpc_plus_k_mod, 3, 3_000),
            (pc_plus_k_mod, 1, 1_146),
            (pc_plus_k_mod, 3, 700),
            (ac_total_k_mod, 1, 12_900),
            (rac_total_k_mod, 1, 11_300),
            (rac_total_k_mod, 3, 9_600),
            (ac_plus_k, V3, 2_800),
        ],
    )
    def test_binom_calls_stop_where_the_binomials_vanish(self, monkeypatch, fn, m, bound):
        calls = _counting_binom(monkeypatch)
        fn(60, 3, m)
        assert 0 < calls[0] <= bound, calls[0]

    # Memos outlive a call and are keyed by (k, m), so calls in any order, at
    # repeated or changing k and m and at falling n, must match the literal loops.
    @settings(max_examples=60, deadline=None)
    @given(calls=_call_sequences())
    def test_calls_in_sequence_equal_the_literal_loops(self, calls):
        _clear_memos()
        for fn, n, k, m in calls:
            assert fn(n, k, m) == FACTORED_V1[fn][0](n, k, m), (fn.__name__, n, k, m)

    # binom calls for a total column at n <= 40, k = 3, where every n reuses
    # the memos of the n before; with fresh memos for every call the four
    # columns took 78762, 22578, 22420 and 3821.
    @pytest.mark.parametrize(
        "family, reduced, m, bound",
        [
            (Family.AC, False, 1, 16_000),
            (Family.AC, True, 3, 9_000),
            (Family.PC, True, 1, 6_500),
            (Family.PC, False, 5, 1_600),
        ],
    )
    def test_column_binom_calls_are_bounded(self, monkeypatch, family, reduced, m, bound):
        calls = _counting_binom(monkeypatch)
        column = [row[0] for row in formula_grid(family, reduced, Sign.TOTAL, m, range(41), [3])]
        monkeypatch.undo()
        assert column == [gf_count(family, reduced, Sign.TOTAL, m, n, 3) for n in range(41)]
        assert 0 < calls[0] <= bound, calls[0]


AC_PLUS, RAC_PLUS = (Family.AC, False, Sign.PLUS), (Family.AC, True, Sign.PLUS)
PC_PLUS, RPC_PLUS = (Family.PC, False, Sign.PLUS), (Family.PC, True, Sign.PLUS)

# The variants and specializations outside FACTORED_V1, whose loops are bounded
# by their binomial factors: name -> (formula at (n, k, m), the gf_count cell
# (family, reduced, sign, modulus, k) it counts at (k, m)).
BOUNDED_LOOPS = {
    "ac_plus_k V1": (lambda n, k, m: ac_plus_k(n, k, V1), lambda k, m: (*AC_PLUS, INFINITY, k)),
    "ac_plus_k V2": (lambda n, k, m: ac_plus_k(n, k, V2), lambda k, m: (*AC_PLUS, INFINITY, k)),
    "ac_plus_k V3": (lambda n, k, m: ac_plus_k(n, k, V3), lambda k, m: (*AC_PLUS, INFINITY, k)),
    "pc_plus_k_mod V2": (lambda n, k, m: pc_plus_k_mod(n, k, m, V2), lambda k, m: (*PC_PLUS, m, k)),
    "rpc_plus_k_mod V2": (lambda n, k, m: rpc_plus_k_mod(n, k, m, V2), lambda k, m: (*RPC_PLUS, m, k)),
    "ac_plus_k_mod V2": (lambda n, k, m: ac_plus_k_mod(n, k, m, V2), lambda k, m: (*AC_PLUS, m, k)),
    "rac_plus_k_mod V2": (lambda n, k, m: rac_plus_k_mod(n, k, m, V2), lambda k, m: (*RAC_PLUS, m, k)),
    "pc_plus_mod_k0": (lambda n, k, m: pc_plus_mod_k0(n, m), lambda k, m: (*PC_PLUS, m, 0)),
    "rpc_plus_mod_k0": (lambda n, k, m: rpc_plus_mod_k0(n, m), lambda k, m: (*RPC_PLUS, m, 0)),
    "pc_plus_k_mod2": (lambda n, k, m: pc_plus_k_mod2(n, k), lambda k, m: (*PC_PLUS, 2, k)),
    "rpc_plus_k_mod2": (lambda n, k, m: rpc_plus_k_mod2(n, k), lambda k, m: (*RPC_PLUS, 2, k)),
    "ac_plus_k_mod1": (lambda n, k, m: ac_plus_k_mod1(n, k), lambda k, m: (*AC_PLUS, 1, k)),
    "rac_plus_k_mod1": (lambda n, k, m: rac_plus_k_mod1(n, k), lambda k, m: (*RAC_PLUS, 1, k)),
    "rac_total_k_mod1": (
        lambda n, k, m: rac_total_k_mod1(n, k), lambda k, m: (Family.AC, True, Sign.TOTAL, 1, k)
    ),
    "ac_total_k_alt": (
        lambda n, k, m: ac_total_k_alt(n, k), lambda k, m: (Family.AC, False, Sign.TOTAL, INFINITY, k)
    ),
    "ac_total_k_mod": (
        lambda n, k, m: ac_total_k_mod(n, k, m), lambda k, m: (Family.AC, False, Sign.TOTAL, m, k)
    ),
    "rac_total_k_mod": (
        lambda n, k, m: rac_total_k_mod(n, k, m), lambda k, m: (Family.AC, True, Sign.TOTAL, m, k)
    ),
}


class TestBoundedLoops:
    @pytest.mark.parametrize("name", list(BOUNDED_LOOPS))
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 60), k=st.integers(0, 6), m=st.integers(1, 7))
    def test_equals_the_generating_function(self, name, n, k, m):
        formula, cell = BOUNDED_LOOPS[name]
        family, reduced, sign, modulus, cell_k = cell(k, m)
        assert formula(n, k, m) == gf_count(family, reduced, sign, modulus, n, cell_k)


class TestIndexValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda n: special_value("AC_PLUS1_MOD1", n),
            pc_plus_1_closed,
            pc_plus_1_mod2_odd,
            rpc_plus_1_mod2_odd,
        ],
        ids=["special_value", "pc_plus_1_closed", "pc_plus_1_mod2_odd", "rpc_plus_1_mod2_odd"],
    )
    def test_n_goes_through_check_index(self, call):
        for bad in (5.0, True, "5"):
            with pytest.raises(TypeError, match="^n must be an int"):
                call(bad)
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            call(-1)
