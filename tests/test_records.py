"""Result records: immutable named tuples that hash, compare and print by value."""

import pytest

from palcomp.bijection import encode_pair, pair_statistics
from palcomp.concordance import ConcordanceRecord
from palcomp.genfun import ONE, Q, RationalGF, series_table
from palcomp.stats import Family, Sign
from palcomp.verify import CheckResult

RECORDS = {
    "PairSequences": lambda: encode_pair((2, 1, 3, 4, 1, 1, 5)),
    "PairStatistics": lambda: pair_statistics(encode_pair((2, 1, 3, 4, 1, 1, 5))),
    "RationalGF": lambda: RationalGF(ONE - Q, ONE - Q - Q**2),
    "ConcordanceRecord": lambda: ConcordanceRecord("A000000", Family.PC, False, Sign.PLUS, 2, 0, 1),
    "CheckResult": lambda: CheckResult("three_path_grid", "pass"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"CheckResult"}))
def test_equal_records_hash_equal(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first == tuple(first)


def test_check_result_keeps_its_defaults_and_json_key_order():
    result = CheckResult("divisibility", "pass")
    assert result.ok and result.params is None
    assert list(result.as_dict()) == ["check", "params", "status", "expected", "actual"]
    assert not CheckResult("divisibility", "fail", {"n": 3}, 1, 2).ok


def test_concordance_record_keeps_its_defaults():
    record = ConcordanceRecord("A000000", Family.PC, False, Sign.PLUS, 2, None, 1)
    assert (record.stride, record.divisor, record.shift_per_k, record.note) == (1, 1, 0, "")
    assert record.mapped_index(5, 3) == (6, 3)
    with pytest.raises(ValueError, match="a statistic index k is required"):
        record.mapped_index(5)


def test_equal_series_hit_the_expansion_cache():
    before = series_table.cache_info().hits
    first = series_table(RationalGF(ONE - Q, ONE - 3 * Q), 9, 2)
    again = series_table(RationalGF(ONE - Q, ONE - 3 * Q), 9, 2)
    assert again is first
    assert series_table.cache_info().hits == before + 1


def test_pair_repr_names_its_fields():
    assert repr(encode_pair((2, 1, 3, 4, 1, 1, 5))) == (
        "PairSequences(head=(0, 1, 1, 3, 0, 0), tail=(0, 4, 1, 1, 0, 0))"
    )

