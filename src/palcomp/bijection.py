"""Explicit bijection between plus-class compositions and sequence pairs.

A plus-class composition (even length, or odd length with an even middle
part) decomposes into

  * the set of mirror-pair positions whose two parts differ,
  * the positive differences of those pairs, and
  * its palindromic core: every part replaced by the min of its pair, the
    middle part kept.

The core, being palindromic with an even middle, is determined by its first
half, encoded as the usual partial-sum binary string of length core_total/2.
Writing that half string once per side and then adding each pair difference
at the pair's partial-sum position (to the head sequence when the earlier
part of the pair is larger, to the tail sequence when the later part is
larger) yields a pair of equal-length sequences from which the composition
can be reconstructed.  This map is a bijection onto the pairs characterized
by :func:`validate_pair`:

  * both sequences have the same length,
  * zeros sit at identical positions, and
  * at every nonzero position at least one of the two entries is exactly 1
    (the shared base marker; only one side may carry a surplus).

Decoding reads the h-th part as the h-th positive entry plus the zeros
immediately before it, in the head sequence for the first half and in the
tail sequence for the mirrored half; a trailing zero run (if any) encodes
half of the even middle part.

Each map reads its input once.  :func:`encode_pair` writes both sequences
straight from the mirror pairs, without building the decomposition.
:func:`decode_pair` and :func:`pair_statistics` test each position as they
read it, and on a fault raise the first error :func:`validate_pair` would.
"""

from __future__ import annotations

from typing import NamedTuple

from .stats import Composition, Sign, composition, sign_class


class MinusClassError(ValueError):
    """Raised when a composition with an odd middle part is passed in."""


class InvalidPairError(ValueError):
    """Raised when a sequence pair is not the image of any composition."""


class PairSequences(NamedTuple):
    """Image of a plus-class composition; head tracks the first half, tail the mirror."""

    head: tuple[int, ...]
    tail: tuple[int, ...]


class PairStatistics(NamedTuple):
    """Statistics read off a pair without reconstructing the composition."""

    n: int
    mismatches: int  # pairs with differing parts (the palindromicity statistic)
    matches: int  # pairs with equal parts (the anti-palindromicity statistic)
    palindromic_params: tuple[int, int]  # (i, j): n = i + 2j + 3 * mismatches
    anti_params: tuple[int, int, int]  # (r, i, j): n = 2r + 2 * matches + i + j


def _require_plus(c: Composition) -> None:
    if sign_class(c) is Sign.MINUS:
        middle = c[len(c) // 2]
        raise MinusClassError(f"middle part {middle} is odd")


def encode_pair(c: Composition) -> PairSequences:
    """Map a plus-class composition to its sequence pair."""
    c = composition(c)
    _require_plus(c)
    l = len(c)
    head = []
    tail = []
    # pair (a, b) writes the core's low - 1 zeros and its base marker 1 on both
    # sides; the larger part's side carries the difference on that marker
    for a, b in zip(c[: l // 2], reversed(c)):
        low = a if a < b else b
        gap = [0] * (low - 1)
        head += gap
        tail += gap
        head.append(a - low + 1)
        tail.append(b - low + 1)
    if l % 2:  # the even middle part is half a zero run on each side
        gap = [0] * (c[l // 2] // 2)
        head += gap
        tail += gap
    return PairSequences(tuple(head), tuple(tail))


def validate_pair(p: PairSequences) -> None:
    """Check that p is structurally the image of some plus-class composition."""
    error = _pair_error(p)
    if error is not None:
        raise error


def _pair_error(p: PairSequences) -> InvalidPairError | None:
    """The first structural fault of p, checked position by position, or None.

    A position passes exactly when both entries are 0 or the smaller is 1: the
    test that :func:`decode_pair` and :func:`pair_statistics` make as they read.
    """
    head, tail = p.head, p.tail
    if len(head) != len(tail):
        return InvalidPairError(f"sequences differ in length: {len(head)} vs {len(tail)}")
    for i, (a, b) in enumerate(zip(head, tail)):
        if a < 0 or b < 0:
            return InvalidPairError(f"negative entry at position {i + 1}")
        if (a == 0) != (b == 0):
            return InvalidPairError(f"zero in only one sequence at position {i + 1}: {a} vs {b}")
        if a > 0 and min(a, b) != 1:
            return InvalidPairError(
                f"both entries exceed 1 at position {i + 1}: {a} vs {b}; "
                "only one side of a pair may carry a surplus"
            )
    return None


def decode_pair(p: PairSequences) -> Composition:
    """Reconstruct the composition; inverse of :func:`encode_pair`."""
    if len(p.head) != len(p.tail):
        raise _pair_error(p)
    first_half = []
    mirror_half = []
    zeros = 0
    for a, b in zip(p.head, p.tail):
        if a == b == 0:
            zeros += 1
        elif (a if a < b else b) == 1:
            first_half.append(a + zeros)
            mirror_half.append(b + zeros)
            zeros = 0
        else:
            raise _pair_error(p)  # fails first at this position
    if zeros:
        first_half.append(2 * zeros)  # odd length; the middle part is even
    first_half.extend(reversed(mirror_half))
    return tuple(first_half)


def pair_statistics(p: PairSequences) -> PairStatistics:
    """Statistics of the underlying composition, computed from the pair alone."""
    if len(p.head) != len(p.tail):
        raise _pair_error(p)
    pairs = mismatches = surplus = anti_i = 0
    for a, b in zip(p.head, p.tail):
        if a == b:  # a zero, or the markers of a matched pair
            if a == 1:
                pairs += 1
            elif a:
                raise _pair_error(p)  # fails first at this position
        elif (a if a < b else b) == 1:  # a marker and, on the other side, a surplus
            pairs += 1
            mismatches += 1
            surplus += a + b - 2
            anti_i += a > b
        else:
            raise _pair_error(p)  # fails first at this position
    matches = pairs - mismatches
    half_total = len(p.head)
    pal_i = surplus - mismatches
    pal_j = half_total - mismatches
    anti_r = half_total - matches
    anti_j = surplus - anti_i
    n = surplus + 2 * half_total
    return PairStatistics(
        n=n,
        mismatches=mismatches,
        matches=matches,
        palindromic_params=(pal_i, pal_j),
        anti_params=(anti_r, anti_i, anti_j),
    )


def parse_pair(text: str) -> PairSequences:
    """Parse 'h1,h2,...;t1,t2,...' into a pair (either side may be empty)."""
    if ";" not in text:
        raise ValueError("pair text needs ';' between the two sequences")
    head_text, tail_text = text.split(";", 1)

    def parse_side(side: str) -> tuple[int, ...]:
        side = side.strip()
        if not side:
            return ()
        try:
            values = tuple(int(tok) for tok in side.split(","))
        except ValueError:
            raise ValueError(f"cannot parse sequence from {side!r}") from None
        if any(v < 0 for v in values):
            raise ValueError("pair entries must be nonnegative")
        return values

    return PairSequences(parse_side(head_text), parse_side(tail_text))


def format_pair(p: PairSequences) -> str:
    """Inverse of :func:`parse_pair`."""
    return (
        ",".join(str(v) for v in p.head) + ";" + ",".join(str(v) for v in p.tail)
    )
