"""Exhaustive-enumeration referee: streams, tallies, cap handling."""

import itertools
import random
from collections import Counter

import pytest

from palcomp import oracle
from palcomp.core import multinom
from palcomp.oracle import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    brute_count,
    check_enumeration_cap,
    count_at_most_one_even_part,
    count_parts_at_most,
    count_parts_equal_one,
    count_two_colored_no_ones,
    enumerate_compositions,
)
from palcomp.stats import (
    INFINITY,
    Family,
    Sign,
    decode_binary,
    encode_binary,
    match_count,
    mismatch_count,
    sign_class,
    swap_canonical,
)


class TestEnumeration:
    def test_small_streams(self):
        assert list(enumerate_compositions(0)) == [()]
        assert list(enumerate_compositions(1)) == [(1,)]
        assert list(enumerate_compositions(3)) == [(3,), (2, 1), (1, 2), (1, 1, 1)]

    @pytest.mark.parametrize("n", range(11))
    def test_counts_and_uniqueness(self, n):
        items = list(enumerate_compositions(n))
        assert len(items) == (1 if n == 0 else 1 << (n - 1))
        assert len(set(items)) == len(items)
        assert all(sum(c) == n for c in items)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_order_is_lexicographic_in_the_encoding(self, n):
        encodings = [encode_binary(c) for c in enumerate_compositions(n)]
        assert encodings == sorted(encodings)

    def test_cap_refusal_names_the_limit(self):
        with pytest.raises(EnumerationCapError, match="cap is 10"):
            next(enumerate_compositions(11, cap=10))
        # the cap is a knob, not a constant
        assert sum(1 for _ in enumerate_compositions(11, cap=11)) == 1024

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            next(enumerate_compositions(-1))


class TestBruteCount:
    def test_definition_fixtures(self):
        assert brute_count(Family.PC, False, Sign.PLUS, INFINITY, 4, 1) == 2
        assert brute_count(Family.PC, False, Sign.MINUS, INFINITY, 4, 1) == 2
        assert brute_count(Family.PC, False, Sign.TOTAL, INFINITY, 4, 1) == 4
        assert brute_count(Family.AC, False, Sign.PLUS, INFINITY, 6, 0) == 11
        assert brute_count(Family.PC, False, Sign.TOTAL, 2, 4, 0) == 6
        assert brute_count(Family.AC, True, Sign.TOTAL, INFINITY, 5, 0) == 5

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            brute_count(Family.PC, False, Sign.TOTAL, INFINITY, 9, 0, cap=8)

    def test_cap_check_names_the_first_n_past_the_cap(self):
        # a strided run walks n = 21, 23, 25, ...; it would refuse at 25, not at cap + 1
        check_enumeration_cap(range(0, 25, 2), 24)
        refusal = r"^refusing to enumerate 2\^24 compositions of n=25: "
        with pytest.raises(EnumerationCapError, match=refusal):
            check_enumeration_cap(range(21, 31, 2), 24)

    def test_cap_check_refuses_the_cap_then_each_n_in_turn(self):
        with pytest.raises(ValueError, match="^cap must be >= 0, got -1$"):
            check_enumeration_cap([-1, 99], -1)
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            check_enumeration_cap([5, -1, 99], 24)
        with pytest.raises(EnumerationCapError, match="n=99: enumeration cap is 24"):
            check_enumeration_cap([5, 99, -1], 24)

    def test_a_cell_request_comes_before_the_cap_and_the_cap_before_n(self):
        # brute_count checks its cell, n and k first; a part count checks its cap first
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            brute_count(Family.PC, False, Sign.TOTAL, INFINITY, -1, 0, cap=-1)
        with pytest.raises(ValueError, match="^cap must be >= 0, got -1$"):
            count_parts_equal_one(-1, 0, cap=-1)

    def test_a_cell_past_half_of_n_is_zero_without_a_walk(self, monkeypatch):
        def no_walk(n, cap=DEFAULT_ENUMERATION_CAP):
            raise AssertionError(f"enumerate_compositions({n}) was called")

        monkeypatch.setattr(oracle, "enumerate_compositions", no_walk)
        records = (oracle._pair_record, oracle._census)
        before = [record.cache_info() for record in records]
        # a composition of 20 has at most 10 mirror pairs
        assert brute_count(Family.PC, False, Sign.PLUS, INFINITY, 20, 15) == 0
        assert brute_count(Family.AC, True, Sign.TOTAL, 3, 7, 4) == 0
        assert [record.cache_info() for record in records] == before  # not even a cached read
        with pytest.raises(EnumerationCapError, match="n=20: enumeration cap is 19"):
            brute_count(Family.PC, False, Sign.PLUS, INFINITY, 20, 15, cap=19)

    def test_refuses_the_cell_then_k_then_n(self):
        with pytest.raises(TypeError, match="family must be a Family"):
            brute_count("pc", False, Sign.TOTAL, 0, 99, -1)
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            brute_count(Family.PC, False, Sign.TOTAL, 0, 99, -1)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            brute_count(Family.PC, False, Sign.TOTAL, INFINITY, 99, -1)
        with pytest.raises(EnumerationCapError):
            brute_count(Family.PC, False, Sign.TOTAL, INFINITY, 99, 0)

    @pytest.mark.parametrize(
        "count",
        [
            lambda n: brute_count(Family.PC, False, Sign.TOTAL, INFINITY, n, 0),
            lambda n: count_parts_equal_one(n, 0),
            lambda n: count_parts_at_most(n, 3),
            count_two_colored_no_ones,
            count_at_most_one_even_part,
        ],
        ids=["brute_count", "count_parts_equal_one", "count_parts_at_most",
             "count_two_colored_no_ones", "count_at_most_one_even_part"],
    )
    def test_n_goes_through_check_index(self, count):
        # a float n would fail deep in the walk, and True would count as n = 1
        for bad in (2.5, True):
            with pytest.raises(TypeError, match="^n must be an int"):
                count(bad)
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            count(-1)

    @pytest.mark.parametrize(
        "count",
        [
            lambda cap: check_enumeration_cap(range(19), cap),
            lambda cap: brute_count(Family.PC, False, Sign.TOTAL, INFINITY, 5, 0, cap=cap),
            lambda cap: count_parts_equal_one(5, 0, cap=cap),
            lambda cap: count_parts_at_most(5, 3, cap=cap),
            lambda cap: count_two_colored_no_ones(5, cap=cap),
            lambda cap: count_at_most_one_even_part(5, cap=cap),
            lambda cap: next(enumerate_compositions(5, cap=cap)),
        ],
        ids=["check_enumeration_cap", "brute_count", "count_parts_equal_one",
             "count_parts_at_most", "count_two_colored_no_ones",
             "count_at_most_one_even_part", "enumerate_compositions"],
    )
    @pytest.mark.parametrize(
        "cap, error, message",
        [
            (-1, ValueError, "^cap must be >= 0, got -1$"),
            (True, TypeError, "^cap must be an int, got True$"),
            (2.5, TypeError, "^cap must be an int, got 2.5$"),
        ],
    )
    def test_a_bad_cap_is_refused_by_name(self, count, cap, error, message):
        # -1 once read as a cap below n = 0, and True as a cap of 1
        with pytest.raises(error, match=message):
            count(cap)

    @pytest.mark.parametrize(
        "count, name, low, least",
        [(count_parts_equal_one, "k", -1, 0), (count_parts_at_most, "part limit", 0, 1)],
        ids=["count_parts_equal_one", "count_parts_at_most"],
    )
    def test_second_argument_is_checked_by_name(self, count, name, low, least):
        # a float would count nothing or everything below it, and True would count as 1
        for bad in (2.5, True, "3"):
            with pytest.raises(TypeError, match=f"^{name} must be an int"):
                count(5, bad)
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {low}$"):
            count(5, low)

    # INFINITY's test id stays the positional one pytest gave it as a non-Enum value
    @pytest.mark.parametrize("n", range(11))
    @pytest.mark.parametrize("modulus", [1, 2, 3, pytest.param(INFINITY, id="modulus3")])
    def test_statistics_partition_everything(self, n, modulus):
        expected = 1 if n == 0 else 1 << (n - 1)
        for family in Family:
            total = sum(
                brute_count(family, False, Sign.TOTAL, modulus, n, k)
                for k in range(n // 2 + 1)
            )
            assert total == expected

    @pytest.mark.parametrize("n", range(11))
    @pytest.mark.parametrize("modulus", [1, 2, 3, pytest.param(INFINITY, id="modulus3")])
    def test_plus_minus_split(self, n, modulus):
        for family in Family:
            for reduced in (False, True):
                for k in range(n // 2 + 1):
                    plus = brute_count(family, reduced, Sign.PLUS, modulus, n, k)
                    minus = brute_count(family, reduced, Sign.MINUS, modulus, n, k)
                    total = brute_count(family, reduced, Sign.TOTAL, modulus, n, k)
                    assert plus + minus == total

    @pytest.mark.parametrize("n", range(1, 12))
    def test_minus_reflects_to_plus(self, n):
        for family in Family:
            for k in range(n // 2 + 1):
                for modulus in (2, INFINITY):
                    minus = brute_count(family, False, Sign.MINUS, modulus, n, k)
                    plus_prev = brute_count(family, False, Sign.PLUS, modulus, n - 1, k)
                    assert minus == plus_prev

    @pytest.mark.parametrize("n", range(13))
    def test_reduced_pc_halving(self, n):
        for k in range(n // 2 + 1):
            reduced = brute_count(Family.PC, True, Sign.TOTAL, INFINITY, n, k)
            full = brute_count(Family.PC, False, Sign.TOTAL, INFINITY, n, k)
            assert reduced * (1 << k) == full


class TestAuxiliaryCounts:
    def test_parts_equal_one(self):
        assert count_parts_equal_one(3, 1) == 2  # (1,2) and (2,1)
        assert count_parts_equal_one(0, 0) == 1
        assert count_parts_equal_one(4, 4) == 1
        assert count_parts_equal_one(4, 3) == 0  # three ones leave a fourth 1

    def test_parts_at_most(self):
        assert count_parts_at_most(4, 3) == 7
        assert count_parts_at_most(0, 3) == 1
        for n in range(1, 10):
            assert count_parts_at_most(n, n) == 1 << (n - 1)
        with pytest.raises(ValueError):
            count_parts_at_most(4, 0)

    def test_two_colored_no_ones(self):
        # n=4: (4) two ways, (2,2) four ways
        assert count_two_colored_no_ones(4) == 6
        assert count_two_colored_no_ones(0) == 1
        assert count_two_colored_no_ones(1) == 0

    def test_at_most_one_even_part(self):
        # n=3: (3), (1,2), (2,1), (1,1,1) all qualify
        assert count_at_most_one_even_part(3) == 4
        # n=4: all 8 except (2,2) and (4)... (4) has one even part, (2,2) has two
        assert count_at_most_one_even_part(4) == 7


# Reference tallies straight from the stats definitions, one enumeration per
# query, against which the oracle's per-n records are checked.


def _literal_census(n, modulus, reduced):
    """Counter[(family, sign, k)] over compositions, or over swap-canonical forms."""
    items = list(enumerate_compositions(n))
    if reduced:
        items = {swap_canonical(c) for c in items}
    tally = Counter()
    for c in items:
        tally[(Family.PC, sign_class(c), mismatch_count(c, modulus))] += 1
        tally[(Family.AC, sign_class(c), match_count(c, modulus))] += 1
    return tally


@pytest.mark.parametrize("modulus", [1, 2, 3, 4, 5, 6, 7, pytest.param(INFINITY, id="modulus7")])
@pytest.mark.parametrize("reduced", [False, True])
def test_brute_count_equals_the_literal_tally(modulus, reduced):
    for n in range(13):
        tally = _literal_census(n, modulus, reduced)
        for family, k in itertools.product(Family, range(n // 2 + 2)):
            plus, minus = tally[(family, Sign.PLUS, k)], tally[(family, Sign.MINUS, k)]
            for sign, want in ((Sign.PLUS, plus), (Sign.MINUS, minus), (Sign.TOTAL, plus + minus)):
                cell = (family, reduced, sign, modulus, n, k)
                assert brute_count(*cell) == want, cell


@pytest.mark.parametrize("n", range(13))
def test_part_counts_equal_the_literal_tally(n):
    items = list(enumerate_compositions(n))
    for k in range(n + 2):
        assert count_parts_equal_one(n, k) == sum(1 for c in items if sum(1 for p in c if p == 1) == k)
    for limit in range(1, n + 2):
        assert count_parts_at_most(n, limit) == sum(1 for c in items if max(c, default=0) <= limit)
    assert count_two_colored_no_ones(n) == sum(
        1 << len(c) for c in items if all(p >= 2 for p in c)
    )
    assert count_at_most_one_even_part(n) == sum(
        1 for c in items if sum(1 for p in c if p % 2 == 0) <= 1
    )


def _decoded_compositions(n):
    """All compositions of n in encoding order, decoded from the masks without the walk."""
    if n == 0:
        return [()]
    # the slice drops the lone "0" that formatting prints for n = 1
    return [decode_binary(f"{mask:0{n - 1}b}"[: n - 1] + "1") for mask in range(1 << (n - 1))]


@pytest.mark.parametrize("n", range(18))  # n = 17: two table depths (8) of stack walk above the table
def test_walk_equals_the_decoded_masks(n):
    assert list(enumerate_compositions(n)) == _decoded_compositions(n)


def test_the_suffix_table_is_bounded_and_walked_without_the_public_function(monkeypatch):
    # tracing counts calls of enumerate_compositions, one per walked n: the table makes none
    monkeypatch.setattr(oracle, "enumerate_compositions", lambda *args, **kwargs: pytest.fail("public walk"))
    oracle._suffixes.cache_clear()
    rows = [oracle._suffixes(rest) for rest in range(1, 9)]
    assert rows == [tuple(_decoded_compositions(rest)) for rest in range(1, 9)]
    assert sum(map(len, rows)) == 255
    caches = (oracle._suffixes, oracle._pair_record, oracle._census, oracle._part_record)
    assert all(cached.cache_info().maxsize is not None for cached in caches)


def test_the_walk_stays_lazy():
    # 2^29 compositions of 30: only a lazy walk yields its first one at once
    assert next(enumerate_compositions(30, cap=30)) == (30,)
    assert next(enumerate_compositions(30, cap=30, weights=range(0, 310, 10))) == 300


@pytest.mark.parametrize("n", range(18))  # n = 17: two table depths (8) of stack walk above the table
def test_a_weighted_walk_yields_each_weight_sum_in_walk_order(n):
    rng = random.Random(n)
    weights = [rng.getrandbits(64) for _ in range(n + 1)]
    want = [sum(map(weights.__getitem__, c)) for c in enumerate_compositions(n)]
    assert list(enumerate_compositions(n, weights=weights)) == want


@pytest.mark.parametrize(
    "weights, message",
    [([0, 1, 2], "weights must cover every part 1..3, got 3"), ([0, 1, 2.5, 3], "weights must be ints")],
)
def test_bad_weights_are_refused_by_name_at_the_first_next(weights, message):
    walk = enumerate_compositions(3, weights=weights)
    with pytest.raises(ValueError, match=message):
        next(walk)


@pytest.mark.parametrize("n", range(15))
def test_part_record_counts_the_orderings_of_each_partition(n):
    record = oracle._part_record(n)
    for parts, count in record.items():
        assert isinstance(parts, tuple) and list(parts) == sorted(parts), parts
        assert all(p >= 1 for p in parts) and sum(parts) == n, parts
        assert count == multinom(len(parts), list(Counter(parts).values())), parts
    assert sum(record.values()) == (1 << (n - 1) if n else 1)


@pytest.mark.parametrize("n", range(18))  # n = 8 and 16 widen the part record's count fields
def test_records_equal_tallies_over_the_decoded_masks(monkeypatch, n):
    decoded = _decoded_compositions(n)
    assert oracle._part_record(n) == Counter(tuple(sorted(c)) for c in decoded)
    walked = oracle._pair_record(n)
    monkeypatch.setattr(oracle, "enumerate_compositions", lambda n, cap: iter(decoded))
    assert oracle._pair_record.__wrapped__(n) == walked


def test_one_walk_per_n(monkeypatch):
    walks = Counter()
    honest = oracle.enumerate_compositions

    def counting(n, cap=DEFAULT_ENUMERATION_CAP, **kwargs):
        walks[n] += 1
        return honest(n, cap, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_compositions", counting)
    for cached in (oracle._pair_record, oracle._census, oracle._part_record):
        cached.cache_clear()
    ns = range(11)
    for n, family, reduced, sign, modulus in itertools.product(
        ns, Family, (False, True), Sign, (1, 2, 3, 5, INFINITY)
    ):
        for k in range(n // 2 + 1):
            brute_count(family, reduced, sign, modulus, n, k)
    assert walks == {n: 1 for n in ns}
    walks.clear()
    for n in ns:
        count_parts_equal_one(n, 1)
        count_parts_at_most(n, 3)
        count_two_colored_no_ones(n)
        count_at_most_one_even_part(n)
    assert walks == {n: 1 for n in ns}
