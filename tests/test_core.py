"""Primitive combinatorics: binomial convention, multinomials, sequences."""

import pytest
from hypothesis import given, strategies as st

from palcomp.core import (
    binom,
    fibonacci,
    multinom,
    tribonacci,
    tribonacci_identity_sum,
    tribonacci_prime,
)


class TestBinom:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (5, 2, 10),
            (-1, 0, 1),
            (3, 5, 0),
            (-2, 3, 0),
            (0, 0, 1),
            (-7, 0, 1),
            (4, 4, 1),
            (4, 0, 1),
            (0, 1, 0),
            (-1, -1, 0),
            (2, -3, 0),
        ],
    )
    def test_three_case_convention(self, a, b, expected):
        assert binom(a, b) == expected

    def test_differs_from_generalized_binomial(self):
        # the generalized binomial would give binom(-1, 1) == -1
        assert binom(-1, 1) == 0

    @given(st.integers(1, 80), st.integers(1, 80))
    def test_pascal_recurrence_inside_regime(self, a, b):
        # restrict to the cells where all three coefficients use the factorial case
        if not (a - 1 >= b >= 1):
            return
        assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)

    @given(st.integers(-50, -1), st.integers(-5, 10))
    def test_negative_upper_index(self, a, b):
        assert binom(a, b) == (1 if b == 0 else 0)


class TestMultinom:
    @pytest.mark.parametrize(
        "k, parts, expected",
        [
            (3, [1, 1, 1], 6),
            (4, [4], 1),
            (3, [1, 1, 2], 0),
            (0, [], 1),
            (2, [], 0),
            (5, [2, 3], 10),
            (4, [0, 4, 0], 1),
        ],
    )
    def test_values(self, k, parts, expected):
        assert multinom(k, parts) == expected

    def test_negative_part_contributes_nothing(self):
        assert multinom(1, [2, -1]) == 0

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    def test_permutation_invariant(self, parts):
        k = sum(parts)
        assert multinom(k, parts) == multinom(k, sorted(parts))

    @given(st.lists(st.integers(0, 6), min_size=2, max_size=5))
    def test_splits_into_binomials(self, parts):
        k = sum(parts)
        assert multinom(k, parts) == binom(k, parts[0]) * multinom(k - parts[0], parts[1:])


class TestSequences:
    def test_fibonacci_base_cases(self):
        assert fibonacci(0) == 0
        assert fibonacci(1) == 1
        assert fibonacci(10) == 55

    def test_fibonacci_rejects_negative(self):
        with pytest.raises(ValueError):
            fibonacci(-1)

    def test_tribonacci_initial_and_values(self):
        assert tribonacci(-3) == 0
        assert tribonacci(0) == 0
        assert tribonacci(1) == 1
        assert tribonacci(2) == 1
        assert [tribonacci(n) for n in range(1, 9)] == [1, 1, 2, 4, 7, 13, 24, 44]

    def test_tribonacci_prime_initial_and_values(self):
        assert tribonacci_prime(1) == 1
        assert tribonacci_prime(2) == 0
        assert tribonacci_prime(7) == 11
        assert [tribonacci_prime(n) for n in range(8)] == [0, 1, 0, 1, 2, 3, 6, 11]

    def test_tribonacci_prime_rejects_negative(self):
        with pytest.raises(ValueError):
            tribonacci_prime(-2)

    @pytest.mark.parametrize("n", range(3, 40))
    def test_recurrences(self, n):
        assert tribonacci(n) == tribonacci(n - 1) + tribonacci(n - 2) + tribonacci(n - 3)
        assert tribonacci_prime(n) == (
            tribonacci_prime(n - 1) + tribonacci_prime(n - 2) + tribonacci_prime(n - 3)
        )

    @pytest.mark.parametrize("n", range(2, 31))
    def test_tribonacci_flavour_relations(self, n):
        assert tribonacci_prime(n + 1) == tribonacci(n - 1) + tribonacci(n - 2)
        assert tribonacci_prime(n) == tribonacci(n) - tribonacci(n - 1)


class TestTribonacciIdentity:
    @pytest.mark.parametrize("n, expected", [(0, 1), (5, 13), (7, 44)])
    def test_fixed_values(self, n, expected):
        assert tribonacci_identity_sum(n) == expected

    @pytest.mark.parametrize("n", range(31))
    def test_equals_shifted_tribonacci(self, n):
        assert tribonacci_identity_sum(n) == tribonacci(n + 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="defined for n >= 0, got -1$"):
            tribonacci_identity_sum(-1)


def test_every_module_cache_is_bounded():
    # an unbounded cache keeps one entry per distinct argument for the life
    # of the process; every module-level cache must name a finite maxsize
    import importlib
    import pkgutil

    import palcomp

    caches = {}
    for info in pkgutil.iter_modules(palcomp.__path__, "palcomp."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters"):
                caches[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert caches, "no module-level caches found"
    assert {name: size for name, size in caches.items() if size is None} == {}
