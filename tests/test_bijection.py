"""The composition <-> sequence-pair correspondence."""

from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from palcomp import bijection
from palcomp.bijection import (
    InvalidPairError,
    MinusClassError,
    PairSequences,
    PairStatistics,
    decode_pair,
    encode_pair,
    format_pair,
    pair_statistics,
    parse_pair,
    validate_pair,
)
from palcomp.formulas import pc_plus_k
from palcomp.oracle import enumerate_compositions
from palcomp.stats import INFINITY, Sign, composition, mismatch_count, sign_class

WIDE = (2, 1, 4, 1, 1, 2, 4, 1, 1, 1, 2, 3, 2)  # n = 25, three unequal pairs
NARROW = (2, 1, 3, 4, 1, 1, 5)  # n = 17, two unequal pairs

plus_compositions = (
    st.lists(st.integers(1, 6), max_size=8)
    .map(tuple)
    .filter(lambda c: sign_class(c) is Sign.PLUS)
)


class Decomposition(NamedTuple):
    """Split of a plus-class composition into swaps and a palindromic core."""

    unequal: tuple[int, ...]  # 1-based pair positions with differing parts
    differences: tuple[int, ...]  # positive gaps, one per unequal position
    core: tuple[int, ...]  # palindromic, same length as the input


def decompose(c) -> Decomposition:
    """Unequal pair positions, their differences, and the palindromic core: the
    reference that decomposition_encode_pair builds the spec of encode_pair from."""
    c = composition(c)
    if sign_class(c) is Sign.MINUS:
        raise MinusClassError(f"middle part {c[len(c) // 2]} is odd")
    l = len(c)
    unequal = []
    differences = []
    core = list(c)
    for h in range(l // 2):
        a, b = c[h], c[l - 1 - h]
        if a != b:
            unequal.append(h + 1)
            differences.append(abs(a - b))
        low = min(a, b)
        core[h] = low
        core[l - 1 - h] = low
    return Decomposition(tuple(unequal), tuple(differences), tuple(core))


class TestDecompose:
    def test_wide_example(self):
        d = decompose(WIDE)
        assert d.unequal == (2, 3, 6)
        assert d.differences == (2, 2, 1)
        assert d.core == (2, 1, 2, 1, 1, 1, 4, 1, 1, 1, 2, 1, 2)
        assert sum(d.differences) + sum(d.core) == 25
        assert d.core == tuple(reversed(d.core))

    def test_narrow_example(self):
        d = decompose(NARROW)
        assert d.unequal == (1, 3)
        assert d.differences == (3, 2)
        assert d.core == (2, 1, 1, 4, 1, 1, 2)

    def test_palindrome_decomposes_trivially(self):
        c = (3, 1, 2, 1, 3)
        d = decompose(c)
        assert d.unequal == ()
        assert d.differences == ()
        assert d.core == c

    def test_rejects_odd_middle(self):
        with pytest.raises(MinusClassError, match="middle part 3 is odd"):
            decompose((1, 3, 2))

    @given(plus_compositions)
    def test_core_is_palindromic_and_mass_splits(self, c):
        d = decompose(c)
        assert d.core == tuple(reversed(d.core))
        assert sum(d.differences) + sum(d.core) == sum(c)
        assert len(d.unequal) == mismatch_count(c, INFINITY)


class TestEncode:
    def test_wide_example(self):
        p = encode_pair(WIDE)
        assert p.head == (0, 1, 1, 0, 3, 1, 1, 2, 0, 0)
        assert p.tail == (0, 1, 3, 0, 1, 1, 1, 1, 0, 0)

    def test_narrow_example(self):
        p = encode_pair(NARROW)
        assert p.head == (0, 1, 1, 3, 0, 0)
        assert p.tail == (0, 4, 1, 1, 0, 0)

    def test_single_even_part(self):
        assert encode_pair((2,)) == PairSequences((0,), (0,))
        assert encode_pair(()) == PairSequences((), ())

    def test_rejects_minus_class(self):
        with pytest.raises(MinusClassError):
            encode_pair((1, 1, 1))


class TestDecode:
    def test_examples(self):
        assert decode_pair(PairSequences((0, 1, 1, 0, 3, 1, 1, 2, 0, 0),
                                         (0, 1, 3, 0, 1, 1, 1, 1, 0, 0))) == WIDE
        assert decode_pair(PairSequences((0,), (0,))) == (2,)
        assert decode_pair(PairSequences((5,), (1,))) == (5, 1)
        assert decode_pair(PairSequences((), ())) == ()

    @pytest.mark.parametrize(
        "head, tail, message",
        [
            ((1, 0), (1,), "length"),
            ((1, 0), (1, 1), "zero in only one sequence"),
            ((0, 2), (0, 3), "exceed 1"),
            ((1, -1), (1, 1), "negative"),
        ],
    )
    def test_structural_rejection(self, head, tail, message):
        with pytest.raises(InvalidPairError, match=message):
            decode_pair(PairSequences(tuple(head), tuple(tail)))

    def test_rejected_pair_is_not_an_image(self):
        # (2, 3) encodes with a base marker, not bare surpluses
        assert encode_pair((2, 3)) == PairSequences((0, 1), (0, 2))
        with pytest.raises(InvalidPairError):
            decode_pair(PairSequences((2,), (3,)))


class TestRoundTrip:
    @pytest.mark.parametrize("n", range(13))
    def test_exhaustive(self, n):
        for c in enumerate_compositions(n):
            if sign_class(c) is not Sign.PLUS:
                continue
            pair = encode_pair(c)
            assert decode_pair(pair) == c
            assert encode_pair(decode_pair(pair)) == pair

    @given(plus_compositions)
    def test_random(self, c):
        assert decode_pair(encode_pair(c)) == c

    @pytest.mark.parametrize("n", range(15))
    def test_image_cardinality_matches_closed_form(self, n):
        by_k = {}
        for c in enumerate_compositions(n):
            if sign_class(c) is not Sign.PLUS:
                continue
            k = mismatch_count(c, INFINITY)
            by_k.setdefault(k, set()).add(encode_pair(c))
        for k, images in by_k.items():
            assert len(images) == pc_plus_k(n, k)


class TestPairStatistics:
    def test_wide_parameters(self):
        stats = pair_statistics(encode_pair(WIDE))
        assert stats.mismatches == 3
        i, j = stats.palindromic_params
        assert (i, j) == (2, 7)
        assert i + 2 * j + 3 * stats.mismatches == 25 == stats.n

    def test_narrow_parameters(self):
        stats = pair_statistics(encode_pair(NARROW))
        assert stats.matches == 1
        r, i, j = stats.anti_params
        assert (r, i, j) == (5, 1, 4)
        assert 2 * r + 2 * stats.matches + i + j == 17 == stats.n

    def test_palindromic_preimage(self):
        stats = pair_statistics(encode_pair((3, 1, 2, 1, 3)))
        assert stats.mismatches == 0
        assert stats.n == 10

    def test_invalid_pair_rejected(self):
        with pytest.raises(InvalidPairError):
            pair_statistics(PairSequences((2,), (2,)))

    @given(plus_compositions)
    def test_transport(self, c):
        stats = pair_statistics(encode_pair(c))
        assert stats.n == sum(c)
        assert stats.mismatches == mismatch_count(c, INFINITY)
        assert stats.matches == len(c) // 2 - stats.mismatches
        i, j = stats.palindromic_params
        assert i + 2 * j + 3 * stats.mismatches == sum(c)
        r, ai, aj = stats.anti_params
        assert 2 * r + 2 * stats.matches + ai + aj == sum(c)


def literal_pair_statistics(p: PairSequences) -> PairStatistics:
    """The statistics as four separate sums over the pair: the spec of pair_statistics."""
    validate_pair(p)
    pairs = sum(1 for entry in p.head if entry > 0)
    mismatches = sum(1 for a, b in zip(p.head, p.tail) if a != b)
    matches = pairs - mismatches
    surplus = sum(abs(a - b) for a, b in zip(p.head, p.tail))
    half_total = len(p.head)
    anti_i = sum(1 for a, b in zip(p.head, p.tail) if a > b)
    return PairStatistics(
        n=surplus + 2 * half_total,
        mismatches=mismatches,
        matches=matches,
        palindromic_params=(surplus - mismatches, half_total - mismatches),
        anti_params=(half_total - matches, anti_i, surplus - anti_i),
    )


@pytest.mark.parametrize("n", range(15))
def test_pair_statistics_equal_the_literal_sums(n):
    for c in enumerate_compositions(n):
        if sign_class(c) is Sign.PLUS:
            pair = encode_pair(c)
            stats = pair_statistics(pair)
            assert stats == literal_pair_statistics(pair)
            flat = [stats.n, stats.mismatches, stats.matches,
                    *stats.palindromic_params, *stats.anti_params]
            assert all(type(value) is int for value in flat)


def decomposition_encode_pair(c) -> PairSequences:
    """The pair built from the decomposition: the spec of encode_pair.

    The core's first half, as a partial-sum string, is written on both sides,
    and each pair difference is added at its pair's partial sum, on the side of
    the larger part.
    """
    parts = decompose(c)
    l = len(c)
    base = [0] * (sum(parts.core) // 2)
    running = 0
    boundary = []  # partial sum of the core at pair position h (1-based h)
    for h in range(l // 2):
        running += parts.core[h]
        base[running - 1] = 1
        boundary.append(running)
    head = list(base)
    tail = list(base)
    for pos, diff in zip(parts.unequal, parts.differences):
        at = boundary[pos - 1] - 1
        if c[pos - 1] > c[l - pos]:
            head[at] += diff
        else:
            tail[at] += diff
    return PairSequences(tuple(head), tuple(tail))


@pytest.mark.parametrize("n", range(15))
def test_encode_equals_the_decomposition_spec(n):
    for c in enumerate_compositions(n):
        if sign_class(c) is Sign.PLUS:
            assert encode_pair(c) == decomposition_encode_pair(c), c


@given(plus_compositions)
def test_encode_equals_the_decomposition_spec_at_random(c):
    assert encode_pair(c) == decomposition_encode_pair(c)


def literal_pair_error(p: PairSequences) -> str | None:
    """The message of the first structural fault, each check spelled out: the spec of
    validate_pair and of the checks decode_pair and pair_statistics make as they read."""
    if len(p.head) != len(p.tail):
        return f"sequences differ in length: {len(p.head)} vs {len(p.tail)}"
    for i, (a, b) in enumerate(zip(p.head, p.tail)):
        if a < 0 or b < 0:
            return f"negative entry at position {i + 1}"
        if (a == 0) != (b == 0):
            return f"zero in only one sequence at position {i + 1}: {a} vs {b}"
        if a > 0 and min(a, b) != 1:
            return (f"both entries exceed 1 at position {i + 1}: {a} vs {b}; "
                    "only one side of a pair may carry a surplus")
    return None


small_sequences = st.lists(st.integers(-1, 3), max_size=6).map(tuple)


@given(small_sequences, small_sequences, st.booleans())
def test_each_reader_refuses_exactly_what_the_literal_checks_refuse(head, tail, same_length):
    if same_length:  # random lengths rarely agree; most faults worth finding need equal ones
        head, tail = head[: len(tail)], tail[: len(head)]
    pair = PairSequences(head, tail)
    message = literal_pair_error(pair)
    for reader in (validate_pair, decode_pair, pair_statistics):
        if message is None:
            reader(pair)
        else:
            with pytest.raises(InvalidPairError) as refused:
                reader(pair)
            assert str(refused.value) == message, reader.__name__
    if message is None:
        assert encode_pair(decode_pair(pair)) == pair
        assert pair_statistics(pair) == literal_pair_statistics(pair)


def test_encode_validates_its_composition_once(monkeypatch):
    # encode_pair validates its input once, and builds no decomposition to validate again
    calls = []

    def recorded(name):
        honest = getattr(bijection, name)

        def recording(c):
            calls.append(name)
            return honest(c)

        return recording

    for name in ("composition", "sign_class"):
        monkeypatch.setattr(bijection, name, recorded(name))
    assert encode_pair(NARROW) == PairSequences((0, 1, 1, 3, 0, 0), (0, 4, 1, 1, 0, 0))
    assert calls == ["composition", "sign_class"]
    with pytest.raises(MinusClassError, match="middle part 3 is odd"):
        encode_pair([1, 3, 2])
    with pytest.raises(ValueError, match="composition parts must be integers >= 1, got 0"):
        encode_pair((2, 0, 2))


class TestTextFormat:
    def test_round_trip(self):
        text = "0,1,1,0,3,1,1,2,0,0;0,1,3,0,1,1,1,1,0,0"
        assert format_pair(parse_pair(text)) == text
        assert parse_pair(";") == PairSequences((), ())

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_pair("1,2,3")
        with pytest.raises(ValueError):
            parse_pair("1,a;2")
        with pytest.raises(ValueError):
            parse_pair("1,-2;3,4")
