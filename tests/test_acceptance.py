"""Acceptance criteria.

One test per criterion, each running at its full stated range and printing a
single pass line (visible with ``pytest -v -s tests/test_acceptance.py``).
All values are exact integer equalities; there are no tolerances anywhere.
"""

import pytest

from palcomp import verify
from palcomp.bijection import decode_pair, encode_pair, pair_statistics
from palcomp.core import binom, fibonacci, tribonacci, tribonacci_identity_sum, tribonacci_prime
from palcomp.formulas import (
    ac_plus_k,
    formula_count,
    pc_plus_k_mod,
    rpc_total_k,
    total_from_plus,
)
from palcomp.genfun import gf_count
from palcomp.oracle import brute_count, count_parts_at_most, count_parts_equal_one, enumerate_compositions
from palcomp.stats import INFINITY, Family, Sign, match_count, sign_class

ALL_MODULI = (1, 2, 3, 4, 5, INFINITY)


def three_ways(family, reduced, sign, modulus, n, k):
    """formula, generating function, and brute force for one cell."""
    return (
        formula_count(family, reduced, sign, modulus, n, k),
        gf_count(family, reduced, sign, modulus, n, k),
        brute_count(family, reduced, sign, modulus, n, k),
    )


def passed(number: int, label: str) -> None:
    print(f"criterion {number:2d}: PASS - {label}")


def test_criterion_01_definition_fixtures():
    for sign, expected in ((Sign.PLUS, 2), (Sign.MINUS, 2), (Sign.TOTAL, 4)):
        values = three_ways(Family.PC, False, sign, INFINITY, 4, 1)
        assert values == (expected,) * 3, (sign, values)
    passed(1, "single-mismatch counts of 4 are 2/2/4 by all three methods")


# The eleven images of the plus-class anti-palindromic compositions of 6.
# Derived by applying the pair construction by hand to each composition and
# confirmed by the decode rules (decode of each pair returns the composition).
PAIRS_N6 = {
    (1, 5): ((1,), (5,)),
    (5, 1): ((5,), (1,)),
    (2, 4): ((0, 1), (0, 3)),
    (1, 2, 3): ((1, 0), (3, 0)),
    (1, 1, 2, 2): ((1, 1), (2, 2)),
    (4, 2): ((0, 3), (0, 1)),
    (3, 2, 1): ((3, 0), (1, 0)),
    (1, 2, 1, 2): ((1, 2), (2, 1)),
    (2, 1, 2, 1): ((2, 1), (1, 2)),
    (2, 2, 1, 1): ((2, 2), (1, 1)),
    (6,): ((0, 0, 0), (0, 0, 0)),
}


def test_criterion_02_antipalindromic_images_of_six():
    assert three_ways(Family.AC, False, Sign.PLUS, INFINITY, 6, 0) == (11, 11, 11)
    anti_plus = [
        c
        for c in enumerate_compositions(6)
        if sign_class(c) is Sign.PLUS and match_count(c, INFINITY) == 0
    ]
    assert sorted(anti_plus) == sorted(PAIRS_N6)
    images = {c: encode_pair(c) for c in anti_plus}
    assert {(p.head, p.tail) for p in images.values()} == set(PAIRS_N6.values())
    for c, pair in images.items():
        assert (pair.head, pair.tail) == PAIRS_N6[c]
        assert decode_pair(pair) == c
    passed(2, "the 11 anti-palindromic images of 6 match the worked pair set")


def test_criterion_03_palindromic_powers_of_two():
    for n in range(25):
        expected = 1 << (n // 2)
        assert formula_count(Family.PC, False, Sign.TOTAL, INFINITY, n, 0) == expected
        if n <= 20:
            assert brute_count(Family.PC, False, Sign.TOTAL, INFINITY, n, 0) == expected
    passed(3, "palindromic counts are 2^floor(n/2) up to n=24 (brute to 20)")


def test_criterion_04_mod2_powers_of_three():
    for half in range(1, 11):
        expected = 2 * 3 ** (half - 1)
        for n in (2 * half, 2 * half + 1):
            assert formula_count(Family.PC, False, Sign.TOTAL, 2, n, 0) == expected
            if half <= 8:
                values = three_ways(Family.PC, False, Sign.TOTAL, 2, n, 0)
                assert values == (expected,) * 3
    passed(4, "mod-2 palindromic counts are doubled powers of three")


def test_criterion_05_mod3_fibonacci():
    assert formula_count(Family.PC, False, Sign.TOTAL, 3, 1, 0) == 1
    for n in range(2, 25):
        assert formula_count(Family.PC, False, Sign.TOTAL, 3, n, 0) == 2 * fibonacci(n - 1)
        assert pc_plus_k_mod(n, 0, 3) == 2 * (fibonacci(n - 2) + (-1) ** (n - 2))
    passed(5, "mod-3 palindromic counts are doubled Fibonacci numbers")


def test_criterion_06_three_tribonacci_forms():
    for n in range(21):
        via_formula = total_from_plus(ac_plus_k, n, 0)
        brute = brute_count(Family.AC, False, Sign.TOTAL, INFINITY, n, 0)
        assert via_formula == brute
        assert tribonacci_prime(n + 1) + tribonacci_prime(n) == brute
        assert tribonacci(n + 1) - tribonacci(n - 1) == brute
        if n >= 1:  # at n=0 this form gives 0; its domain starts at 1
            assert tribonacci(n) + tribonacci(n - 2) == brute
    passed(6, "anti-palindromic counts agree across all tribonacci expressions")


SECTION6_TABLES = {
    (2, 0): [1, 1, 1, 3, 3, 7, 11, 17, 33, 49, 89, 147, 243, 423, 691, 1185],
    (2, 1): [0, 0, 1, 1, 4, 8, 13, 33, 52, 108, 201, 353, 688, 1196, 2213, 3985],
    (2, 2): [0, 0, 0, 0, 1, 1, 7, 13, 32, 80, 148, 352, 677, 1381, 2799, 5313],
    (3, 0): [1, 1, 1, 3, 5, 7, 15, 27, 43, 81, 147, 249, 449, 809, 1409, 2507],
    (3, 1): [0, 0, 1, 1, 2, 8, 13, 23, 58, 108, 195, 411, 786, 1446, 2831, 5387],
    (3, 2): [0, 0, 0, 0, 1, 1, 3, 13, 22, 48, 132, 258, 525, 1197, 2409, 4797],
}


def test_criterion_07_published_sequence_tables():
    for (m, k), values in SECTION6_TABLES.items():
        assert len(values) == 16
        for n, expected in enumerate(values):
            assert formula_count(Family.AC, False, Sign.TOTAL, m, n, k) == expected, (m, k, n)
    passed(7, "all 96 tabulated mod-2 and mod-3 matching counts reproduced")


def test_criterion_08_modulus_one_closed_forms():
    for n in range(21):
        for k in range(7):
            assert formula_count(Family.AC, False, Sign.TOTAL, 1, n, k) == binom(n, 2 * k)
        assert formula_count(Family.AC, False, Sign.PLUS, 1, n, 1) == n * n // 4
        assert formula_count(Family.AC, True, Sign.TOTAL, 1, n, 1) == (n // 2) * ((n + 1) // 2)
        assert formula_count(Family.AC, True, Sign.TOTAL, 1, n, 0) == 1
    for half in range(11):
        triangle = half * (half + 1) // 2
        assert formula_count(Family.AC, True, Sign.PLUS, 1, 2 * half, 1) == triangle
        assert formula_count(Family.AC, True, Sign.PLUS, 1, 2 * half + 1, 1) == triangle
    for n in range(17):
        for k in range(5):
            for family, reduced, sign in (
                (Family.AC, False, Sign.TOTAL),
                (Family.AC, False, Sign.PLUS),
                (Family.AC, True, Sign.TOTAL),
                (Family.AC, True, Sign.PLUS),
            ):
                cell = (family, reduced, sign, 1, n, k)
                assert formula_count(*cell) == brute_count(*cell)
    passed(8, "modulus-1 closed forms hold and match brute force")


def test_criterion_09_reduced_families():
    for n in range(21):
        for k in range(7):
            pc_total = total_from_plus(lambda v: formula_count(Family.PC, False, Sign.PLUS, INFINITY, v, k), n)
            assert rpc_total_k(n, k) * (1 << k) == pc_total
    for n in range(21):
        expected = 1 if n == 0 else fibonacci(n)
        assert formula_count(Family.AC, True, Sign.TOTAL, INFINITY, n, 0) == expected
    for n in range(19):
        for k in range(6):
            if n >= k:
                assert formula_count(Family.AC, True, Sign.PLUS, INFINITY, n, k) == (
                    count_parts_equal_one(n - k, k)
                )
    for half in range(11):
        expected = fibonacci(2 * half + 1)
        assert formula_count(Family.PC, True, Sign.TOTAL, 2, 2 * half, 0) == expected
        assert formula_count(Family.PC, True, Sign.TOTAL, 2, 2 * half + 1, 0) == expected
    passed(9, "swap-class counts: halving, Fibonacci values, and single-one counts")


def test_criterion_10_three_path_grid_and_variants():
    grid = verify.three_path_grid(n_max=14, k_max=4, moduli=ALL_MODULI)
    assert grid.ok, grid.as_dict()
    variants = verify.variant_agreement(n_max=30, k_max=6, moduli=(1, 2, 3, 4, 5, 6))
    assert variants.ok, variants.as_dict()
    passed(10, "formula = series = brute on the full grid; variants agree to n=30")


def test_criterion_11_bijection_round_trip():
    result = verify.bijection_round_trip(n_max=14)
    assert result.ok, result.as_dict()
    # spot re-check of the statistic transport machinery on one composition
    stats = pair_statistics(encode_pair((2, 1, 4, 1, 1, 2, 4, 1, 1, 1, 2, 3, 2)))
    assert stats.mismatches == 3 and stats.n == 25
    passed(11, "pair encoding round-trips exhaustively to n=14 with transported k")


def test_criterion_12_tribonacci_identity():
    for n in range(19):
        assert tribonacci_identity_sum(n) == tribonacci(n + 1) == count_parts_at_most(n, 3)
    passed(12, "triple-sum identity equals shifted tribonacci and bounded-part counts")


def test_criterion_13_reflection_identity():
    result = verify.reflection_identity(n_max=14, k_max=4, moduli=ALL_MODULI)
    assert result.ok, result.as_dict()
    passed(13, "minus-class counts reflect to plus-class counts one step down")


@pytest.fixture(scope="module", autouse=True)
def _summary():
    yield
    print("\nacceptance suite finished")
