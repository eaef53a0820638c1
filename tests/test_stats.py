"""Composition representation, binary encoding, statistics, canonical forms."""

import copy
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from palcomp.oracle import brute_count, enumerate_compositions
from palcomp.stats import (
    INFINITY,
    Family,
    Sign,
    check_cell,
    check_modulus,
    check_request,
    composition,
    decode_binary,
    encode_binary,
    format_composition,
    match_count,
    mismatch_count,
    parse_composition,
    parse_modulus,
    plus_reads,
    sign_class,
    sign_rows,
    swap_canonical,
)

compositions_st = st.lists(st.integers(1, 9), max_size=9).map(tuple)
moduli_st = st.one_of(st.just(INFINITY), st.integers(1, 7))


class TestCompositionType:
    def test_validation(self):
        assert composition([2, 4, 1]) == (2, 4, 1)
        assert composition([]) == ()
        with pytest.raises(ValueError):
            composition([0, 1])
        with pytest.raises(ValueError):
            composition([2, -1])

    def test_parse_and_format(self):
        assert parse_composition("2,4,1,1,2") == (2, 4, 1, 1, 2)
        assert parse_composition("") == ()
        assert format_composition((2, 4, 1, 1, 2)) == "2,4,1,1,2"
        assert format_composition(()) == ""
        with pytest.raises(ValueError):
            parse_composition("2,x")
        with pytest.raises(ValueError):
            parse_composition("2,0")

    def test_parse_modulus(self):
        assert parse_modulus("inf") is INFINITY
        assert parse_modulus("3") == 3
        with pytest.raises(ValueError):
            parse_modulus("0")
        with pytest.raises(ValueError):
            parse_modulus("bogus")


class TestBinaryEncoding:
    def test_worked_example(self):
        assert "".join(map(str, encode_binary((2, 4, 1, 1, 2)))) == "0100011101"
        assert decode_binary("0100011101") == (2, 4, 1, 1, 2)

    def test_single_part_and_empty(self):
        assert encode_binary((7,)) == (0, 0, 0, 0, 0, 0, 1)
        assert encode_binary(()) == ()
        assert decode_binary("") == ()
        assert decode_binary("1111") == (1, 1, 1, 1)
        assert decode_binary("0101") == (2, 2)

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            decode_binary("0100")  # does not end in 1
        with pytest.raises(ValueError):
            decode_binary("012")
        with pytest.raises(ValueError):
            decode_binary((1, 2))

    @given(compositions_st)
    def test_round_trip_random(self, c):
        assert decode_binary(encode_binary(c)) == c

    @pytest.mark.parametrize("n", range(15))
    def test_round_trip_exhaustive(self, n):
        for c in enumerate_compositions(n):
            bits = encode_binary(c)
            assert len(bits) == n
            assert decode_binary(bits) == c
        # the other direction: every valid string of length n is hit exactly
        # once, so decoding those strings round-trips too
        if n:
            seen = {encode_binary(c) for c in enumerate_compositions(n)}
            assert len(seen) == 1 << (n - 1)


class TestStatistics:
    def test_mismatch_examples(self):
        assert mismatch_count((2, 4, 1, 1, 2), INFINITY) == 1
        assert mismatch_count((2, 4, 1, 1, 2), 3) == 0
        assert mismatch_count((), INFINITY) == 0
        assert mismatch_count((), 5) == 0

    def test_match_examples(self):
        assert match_count((2, 4, 1, 1, 2), INFINITY) == 1
        assert match_count((1, 5), INFINITY) == 0
        assert match_count((3,), INFINITY) == 0
        assert match_count((3,), 2) == 0

    def test_sign_class(self):
        assert sign_class((3, 1)) is Sign.PLUS
        assert sign_class((2, 1, 1)) is Sign.MINUS
        assert sign_class((1, 2, 1)) is Sign.PLUS
        assert sign_class(()) is Sign.PLUS
        assert sign_class((4,)) is Sign.PLUS
        assert sign_class((3,)) is Sign.MINUS

    def test_plus_reads(self):
        # minus(n) = plus(n - 1) and total = plus + minus
        assert [plus_reads(sign, 5) for sign in Sign] == [[5], [4], [5, 4]]
        # plus below 0 reads as 0, so no m < 0 is read
        assert [plus_reads(sign, 0) for sign in Sign] == [[0], [], [0]]

    @staticmethod
    def _plus_row(m):
        return [m, 10 * m + 1]  # width 2, and no row of m is zero

    def test_sign_rows_reads_zeros_where_no_plus_row_is_read(self):
        # minus at n = 0 reads no plus row, so its row is zeros of the given width
        unread = lambda m: pytest.fail(f"plus row {m} was built")
        assert sign_rows(Sign.MINUS, [0], 3, unread) == [[0, 0, 0]]
        assert sign_rows(Sign.MINUS, [0, 1], 2, self._plus_row) == [[0, 0], [0, 1]]

    def test_sign_rows_builds_each_plus_row_once_in_ascending_m(self):
        built = []

        def plus_row(m):
            built.append(m)
            return self._plus_row(m)

        rows = sign_rows(Sign.TOTAL, range(10), 2, plus_row)
        assert built == list(range(10))
        assert rows == [[0, 1]] + [[2 * n - 1, 20 * n - 8] for n in range(1, 10)]
        # a first n that reads two new rows builds the lower m first
        built.clear()
        sign_rows(Sign.TOTAL, [5, 6], 2, plus_row)
        assert built == [4, 5, 6]

    @pytest.mark.parametrize(
        "sign, at_5, at_3",
        [(Sign.PLUS, [5, 51], [3, 31]), (Sign.MINUS, [4, 41], [2, 21]),
         (Sign.TOTAL, [9, 92], [5, 52])],
    )
    def test_sign_rows_reads_non_ascending_ns(self, sign, at_5, at_3):
        # rows held for the previous n only save work; any order reads the same rows
        assert sign_rows(sign, [5, 3, 5], 2, self._plus_row) == [at_5, at_3, at_5]

    @pytest.mark.parametrize("modulus", [0, -1, -3, 2.5, True, "3"])
    @pytest.mark.parametrize("count", [mismatch_count, match_count])
    def test_a_bad_modulus_is_refused_by_name(self, count, modulus):
        # the same refusal check_modulus gives, not a ZeroDivisionError or a count
        with pytest.raises((TypeError, ValueError)) as expected:
            check_modulus(modulus)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            count((1, 2, 4), modulus)

    @given(compositions_st, moduli_st)
    def test_counts_partition_pairs(self, c, modulus):
        assert mismatch_count(c, modulus) + match_count(c, modulus) == len(c) // 2

    @given(compositions_st)
    def test_modulus_one_sees_everything_matched(self, c):
        assert mismatch_count(c, 1) == 0

    @given(compositions_st, st.integers(1, 7))
    def test_equality_is_the_finest_comparison(self, c, m):
        assert mismatch_count(c, INFINITY) >= mismatch_count(c, m)


class TestSwapCanonical:
    @pytest.mark.parametrize(
        "c, expected",
        [((1, 5), (5, 1)), ((2, 1, 4), (4, 1, 2)), ((3, 3), (3, 3)), ((), ())],
    )
    def test_examples(self, c, expected):
        assert swap_canonical(c) == expected

    @given(compositions_st)
    def test_idempotent(self, c):
        once = swap_canonical(c)
        assert swap_canonical(once) == once

    @given(compositions_st, moduli_st)
    def test_preserves_statistics(self, c, modulus):
        canonical = swap_canonical(c)
        assert sum(canonical) == sum(c)
        assert len(canonical) == len(c)
        assert sign_class(canonical) is sign_class(c)
        assert mismatch_count(canonical, modulus) == mismatch_count(c, modulus)
        assert match_count(canonical, modulus) == match_count(c, modulus)

    @given(compositions_st)
    def test_pairs_are_descending(self, c):
        canonical = swap_canonical(c)
        l = len(canonical)
        assert all(canonical[i] >= canonical[l - 1 - i] for i in range(l // 2))


class TestRequestCell:
    """The cell (family, reduced, sign, modulus) and index k that every path validates."""

    def test_validation(self):
        check_cell(Family.PC, False, Sign.PLUS, INFINITY)
        assert brute_count(Family.PC, False, Sign.PLUS, INFINITY, 0, 0) == 1
        with pytest.raises(ValueError):
            brute_count(Family.PC, False, Sign.PLUS, INFINITY, 0, -1)
        with pytest.raises(ValueError):
            check_cell(Family.PC, False, Sign.PLUS, 0)
        with pytest.raises(TypeError):
            check_cell(Family.PC, False, Sign.PLUS, 2.5)
        for k in (1.5, True, "1"):
            with pytest.raises(TypeError, match="k must be an int"):
                brute_count(Family.PC, False, Sign.PLUS, INFINITY, 0, k)
        for field, cell in (
            ("family", ("pc", False, Sign.PLUS, INFINITY)),
            ("reduced", (Family.PC, 1, Sign.PLUS, INFINITY)),
            ("reduced", (Family.PC, None, Sign.PLUS, INFINITY)),
            ("sign", (Family.PC, False, "plus", INFINITY)),
            ("sign", (Family.PC, False, Family.PC, INFINITY)),
        ):
            with pytest.raises(TypeError, match=f"^{field} must be a "):
                check_cell(*cell)

    def test_a_request_is_refused_at_its_cell_then_each_n_then_each_k(self):
        cell = (Family.PC, False, Sign.PLUS, INFINITY)
        check_request(*cell, range(5), range(3))
        with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
            check_request(*cell[:3], 0, [-1], [-1])
        # a bad n late in ns is named before a bad first k
        with pytest.raises(ValueError, match="^n must be >= 0, got -2$"):
            check_request(*cell, [3, 4, -2], [-1, 2])
        with pytest.raises(TypeError, match="^k must be an int, got True$"):
            check_request(*cell, [3, 4], [2, True, -1])

    @pytest.mark.parametrize("member", [*Family, *Sign, INFINITY])
    def test_members_hash_by_identity_and_copy_to_themselves(self, member):
        # every path keys its records and caches on these members, so their
        # hash is object.__hash__, not Enum's Python-level hash of the name
        assert hash(member) == object.__hash__(member)
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.deepcopy(member) is member

    def test_infinity_reads_as_inf(self):
        # reports and the CLI print the modulus with str(), so every spelling is "inf"
        assert (repr(INFINITY), str(INFINITY), format(INFINITY), f"{INFINITY}") == ("inf",) * 4
        assert f"[{INFINITY:>5}]" == "[  inf]"

    def test_statistic_dispatch(self):
        # pc counts mismatching pairs, ac matching ones; 4 and 1 agree mod 3
        c = (2, 4, 1, 1, 2)
        assert (mismatch_count(c, INFINITY), match_count(c, INFINITY)) == (1, 1)
        assert (mismatch_count(c, 3), match_count(c, 3)) == (0, 2)
