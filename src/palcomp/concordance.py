"""Bundled OEIS concordance.

Each record declares how one OEIS sequence reads off a counting family:

    term(n) = count(stride * n + shift + shift_per_k * k) / divisor

with a negative mapped argument contributing 0 (the counting functions are
extended by zero below 0).  Triangular sequences carry ``k = None`` and take
the statistic index at export time; everything else pins it.

The shifts are data, not code, so they can be audited in one place; the test
suite checks a sample of records against independently computed closed forms.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .stats import Family, Modulus, Sign, parse_modulus


class ConcordanceRecord(NamedTuple):
    id: str
    family: Family
    reduced: bool
    sign: Sign
    modulus: Modulus
    k: int | None
    shift: int
    stride: int = 1
    divisor: int = 1
    shift_per_k: int = 0
    note: str = ""

    def statistic(self, k: int | None) -> int:
        """The statistic index the record reads: its own k, or the given k for a triangle."""
        stat = self.k if self.k is not None else k
        if stat is None:
            raise ValueError(f"{self.id} is a triangle; a statistic index k is required")
        if stat < 0:
            raise ValueError(f"statistic index must be >= 0, got {stat}")
        return stat

    def mapped_index(self, n: int, k: int | None = None) -> tuple[int, int]:
        """(argument, statistic) addressed by sequence position n."""
        stat = self.statistic(k)
        return self.stride * n + self.shift + self.shift_per_k * stat, stat


@lru_cache(maxsize=1)
def load_concordance() -> dict[str, ConcordanceRecord]:
    raw = json.loads(resources.files("palcomp").joinpath("concordance.json").read_text())
    records = {}
    for entry in raw:
        record = ConcordanceRecord(**{
            **entry,
            "family": Family(entry["family"]),
            "sign": Sign(entry["sign"]),
            "modulus": parse_modulus(str(entry["modulus"])),
        })
        if record.stride < 1 or record.divisor < 1:
            raise ValueError(f"{record.id}: stride and divisor must be >= 1")
        records[record.id] = record
    return records


def lookup(sequence_id: str) -> ConcordanceRecord:
    records = load_concordance()
    try:
        return records[sequence_id]
    except KeyError:
        raise KeyError(
            f"no concordance record for {sequence_id!r}; known ids: "
            + ", ".join(sorted(records))
        ) from None
