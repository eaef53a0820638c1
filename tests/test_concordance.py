"""Bundled OEIS concordance records against independently known closed forms."""

import json

import pytest

from palcomp import concordance
from palcomp.concordance import ConcordanceRecord, load_concordance, lookup
from palcomp.core import binom, fibonacci, tribonacci_prime
from palcomp.formulas import formula_count, pc_plus_1_closed
from palcomp.stats import Family, Sign


def record_terms(record: ConcordanceRecord, count: int, k: int | None = None) -> list[int]:
    terms = []
    for idx in range(count):
        n, stat = record.mapped_index(idx, k)
        value = 0 if n < 0 else formula_count(
            record.family, record.reduced, record.sign, record.modulus, n, stat
        )
        quotient, remainder = divmod(value, record.divisor)
        assert remainder == 0
        terms.append(quotient)
    return terms


def test_every_record_loads_and_evaluates():
    records = load_concordance()
    assert len(records) >= 30
    for record in records.values():
        k = 1 if record.k is None else None
        terms = record_terms(record, 8, k)
        assert all(t >= 0 for t in terms)


def test_lookup_unknown_id():
    with pytest.raises(KeyError, match="known ids"):
        lookup("A000000")


def test_triangle_requires_k():
    record = lookup("A105422")
    with pytest.raises(ValueError, match="k is required"):
        record.mapped_index(3)


def test_a036799_is_the_closed_form():
    record = lookup("A036799")
    # term(n) = plus count at 2n+1, which the closed form gives directly
    assert record_terms(record, 9) == [pc_plus_1_closed(2 * n + 1) for n in range(9)]
    # the paired even argument gives the same value
    assert record_terms(record, 9) == [pc_plus_1_closed(2 * n + 2) for n in range(9)]


def test_a025192_powers_of_three():
    assert record_terms(lookup("A025192"), 8) == [1] + [2 * 3 ** (n - 1) for n in range(1, 8)]


def test_a008346_halved_shifted_count():
    # f(n) = F(n) + (-1)^n starting 1, 0, 2, 1, 4, 4, 9, ...
    expected = [fibonacci(n) + (-1) ** n for n in range(10)]
    assert record_terms(lookup("A008346"), 10) == expected


def test_a001590_is_tribonacci_prime():
    assert record_terms(lookup("A001590"), 12) == [tribonacci_prime(n) for n in range(12)]


def test_a002620_quarter_squares_two_ways():
    record = lookup("A002620")
    quarter = [n * n // 4 for n in range(12)]
    assert record_terms(record, 12) == quarter
    # the same sequence is the reduced total count at modulus 1, k=1
    alt = [formula_count(Family.AC, True, Sign.TOTAL, 1, n, 1) for n in range(12)]
    assert alt == quarter


def test_a094967_fibonacci_fold():
    assert record_terms(lookup("A094967"), 12) == [
        fibonacci(2 * (n // 2) + 1) for n in range(12)
    ]


def test_a161680_and_friends_are_binomials():
    assert record_terms(lookup("A161680"), 12) == [binom(n, 2) for n in range(12)]
    assert record_terms(lookup("A000332"), 12) == [binom(n, 4) for n in range(12)]
    assert record_terms(lookup("A000579"), 14) == [binom(n, 6) for n in range(14)]
    assert record_terms(lookup("A000581"), 8) == [binom(n + 8, 8) for n in range(8)]


def test_a008805_repeated_triangles():
    expected = [(n // 2 + 1) * (n // 2 + 2) // 2 for n in range(10)]
    assert record_terms(lookup("A008805"), 10) == expected


def test_triangle_records_match_direct_counts():
    a105422 = lookup("A105422")
    for k in range(4):
        for idx in range(10):
            n, stat = a105422.mapped_index(idx, k)
            assert stat == k
            assert n == idx + k
    a060098 = lookup("A060098")
    for k in range(4):
        n, stat = a060098.mapped_index(5, k)
        assert n == 5 + 2 * k and stat == k


@pytest.fixture
def load_one(monkeypatch, tmp_path):
    """Load a concordance file holding one record A000000 with the given extra fields."""

    def load(**fields):
        entry = {"id": "A000000", "family": "pc", "reduced": False, "sign": "plus",
                 "modulus": "inf", "k": 0, "shift": 0, **fields}
        (tmp_path / "concordance.json").write_text(json.dumps([entry]))
        load_concordance.cache_clear()
        return load_concordance()

    monkeypatch.setattr(concordance.resources, "files", lambda package: tmp_path)
    yield load
    load_concordance.cache_clear()


@pytest.mark.parametrize("key, value", [("stride", 0), ("divisor", 0), ("stride", -1)])
def test_a_stride_or_divisor_below_one_is_refused(load_one, key, value):
    with pytest.raises(ValueError, match="^A000000: stride and divisor must be >= 1$"):
        load_one(**{key: value})


@pytest.mark.parametrize("key, loads", [("divisor", True), ("divsor", False)])
def test_a_misspelt_field_is_refused(load_one, key, loads):
    if loads:
        assert load_one(**{key: 2})["A000000"].divisor == 2
    else:
        with pytest.raises(TypeError, match="divsor"):
            load_one(**{key: 2})
