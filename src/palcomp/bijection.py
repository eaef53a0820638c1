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
"""

from __future__ import annotations

from typing import NamedTuple

from .stats import Composition, Sign, composition, sign_class


class MinusClassError(ValueError):
    """Raised when a composition with an odd middle part is passed in."""


class InvalidPairError(ValueError):
    """Raised when a sequence pair is not the image of any composition."""


class Decomposition(NamedTuple):
    """Split of a plus-class composition into swaps and a palindromic core."""

    unequal: tuple[int, ...]  # 1-based pair positions with differing parts
    differences: tuple[int, ...]  # positive gaps, one per unequal position
    core: Composition  # palindromic, same length as the input


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


def decompose(c: Composition) -> Decomposition:
    """Unequal pair positions, their differences, and the palindromic core."""
    c = composition(c)
    _require_plus(c)
    return _decompose(c)


def _decompose(c: Composition) -> Decomposition:
    """:func:`decompose` of a composition already validated as plus-class."""
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


def encode_pair(c: Composition) -> PairSequences:
    """Map a plus-class composition to its sequence pair."""
    c = composition(c)
    _require_plus(c)
    l = len(c)
    parts = _decompose(c)
    half_total = sum(parts.core) // 2
    base = [0] * half_total
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


def validate_pair(p: PairSequences) -> None:
    """Check that p is structurally the image of some plus-class composition."""
    head, tail = p.head, p.tail
    if len(head) != len(tail):
        raise InvalidPairError(
            f"sequences differ in length: {len(head)} vs {len(tail)}"
        )
    for i, (a, b) in enumerate(zip(head, tail)):
        if a < 0 or b < 0:
            raise InvalidPairError(f"negative entry at position {i + 1}")
        if (a == 0) != (b == 0):
            raise InvalidPairError(
                f"zero in only one sequence at position {i + 1}: {a} vs {b}"
            )
        if a > 0 and min(a, b) != 1:
            raise InvalidPairError(
                f"both entries exceed 1 at position {i + 1}: {a} vs {b}; "
                "only one side of a pair may carry a surplus"
            )


def _read_half(seq: tuple[int, ...]) -> tuple[list[int], int]:
    """Parts encoded by one sequence, plus the length of its trailing zero run."""
    parts = []
    zeros = 0
    for entry in seq:
        if entry == 0:
            zeros += 1
        else:
            parts.append(entry + zeros)
            zeros = 0
    return parts, zeros


def decode_pair(p: PairSequences) -> Composition:
    """Reconstruct the composition; inverse of :func:`encode_pair`."""
    validate_pair(p)
    first_half, trailing = _read_half(p.head)
    mirror_half, _ = _read_half(p.tail)  # same zero pattern, so same trailing run
    parts = list(first_half)
    if trailing:
        parts.append(2 * trailing)  # odd length; the middle part is even
    parts.extend(reversed(mirror_half))
    return tuple(parts)


def pair_statistics(p: PairSequences) -> PairStatistics:
    """Statistics of the underlying composition, computed from the pair alone."""
    validate_pair(p)
    pairs = mismatches = surplus = anti_i = 0
    for a, b in zip(p.head, p.tail):  # equal lengths and nonnegative entries, as validated
        pairs += a > 0
        mismatches += a != b
        surplus += abs(a - b)
        anti_i += a > b
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
