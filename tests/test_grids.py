"""Whole-grid readers equal their per-cell APIs and each other: gf, formula and brute grids."""

import itertools
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from palcomp import formulas, genfun, oracle
from palcomp.formulas import V2, FormulaVariant, formula_count, formula_grid
from palcomp.genfun import BivariatePoly, RationalGF, gf_catalog, gf_count, gf_grid, series_table
from palcomp.oracle import EnumerationCapError, brute_count, brute_grid
from palcomp.stats import INFINITY, Family, Sign

cells_st = st.tuples(
    st.sampled_from(Family),
    st.booleans(),
    st.sampled_from(Sign),
    st.sampled_from((1, 2, 3, 4, 5, INFINITY)),
)


@settings(deadline=None)
@given(cells_st, st.integers(0, 30), st.integers(0, 5))
def test_gf_grid_equals_gf_count(cell, n_max, k_max):
    rows = gf_grid(*cell, range(n_max + 1), range(k_max + 1))
    assert rows == [
        [gf_count(*cell, n, k) for k in range(k_max + 1)] for n in range(n_max + 1)
    ]


@pytest.mark.parametrize("modulus", (1, 2, 3, 5, 97, INFINITY))
def test_gf_grid_past_half_of_n_max_equals_gf_count(modulus):
    # the columns above n_max // 2 are read as 0 without a coefficient, like gf_count's cells
    for family, reduced, sign in itertools.product(Family, (False, True), Sign):
        for n_max in (0, 1, 6, 9):
            k_max = n_max // 2 + 3
            rows = gf_grid(family, reduced, sign, modulus, range(n_max + 1), range(k_max + 1))
            assert rows == [
                [gf_count(family, reduced, sign, modulus, n, k) for k in range(k_max + 1)]
                for n in range(n_max + 1)
            ], (family, reduced, sign, n_max)


def test_gf_grid_past_half_of_n_max_expands_only_to_it():
    # 11 rows of 10^5 + 1 cells take 8.4 MiB; expanding to t-degree 10^5 takes 25
    tracemalloc.start()
    try:
        rows = gf_grid(Family.PC, False, Sign.PLUS, INFINITY, range(11), range(10**5 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cell = (Family.PC, False, Sign.PLUS, INFINITY)
    assert rows[10][:6] == [gf_count(*cell, 10, k) for k in range(6)]
    assert not any(any(row[6:]) for row in rows)
    assert peak < 12 * 2**20


def _unshifted_differences(modulus, ns, ks):
    """The cells where gf_grid differs from the unshifted catalog entry's
    expansion, over every block and sign; minus(n) is plus(n - 1), and a total
    the paper does not display is plus(n) + plus(n - 1)."""
    differences = []
    for family, reduced, sign in itertools.product(Family, (False, True), Sign):
        try:  # the entry itself: plus, or a displayed total
            gf, backs = gf_catalog(family, reduced, sign, modulus), (0,)
        except KeyError:  # minus, or a total without a displayed form
            gf = gf_catalog(family, reduced, Sign.PLUS, modulus)
            backs = (1,) if sign is Sign.MINUS else (0, 1)
        series = series_table(gf, 40, 25)  # a larger truncation changes no coefficient
        rows = gf_grid(family, reduced, sign, modulus, ns, ks)
        differences += [(family, reduced, sign, n, k) for n, row in zip(ns, rows)
                        for k, cell in zip(ks, row)
                        if cell != sum(series[n - b][k] for b in backs if n >= b)]
    return differences


@pytest.mark.parametrize("modulus", (1, 2, 3, 5, 97, INFINITY))
@settings(max_examples=25, deadline=None)
@given(ns=st.sets(st.integers(0, 40)).map(sorted), ks=st.sets(st.integers(0, 25)).map(sorted))
@example(ns=[0, 1, 7, 40], ks=[3, 9, 20])  # min(ks) > 0, with gaps, past max(ns) // 2
@example(ns=list(range(41)), ks=list(range(26)))
def test_gf_grid_equals_the_unshifted_expansion(modulus, ns, ks):
    assert _unshifted_differences(modulus, ns, ks) == []


def test_a_shift_by_t_over_q_is_caught(monkeypatch):
    # the mutant reads [q^(n-k) (t/q)^k], so it moves every cell with k >= 1 to a wrong q-degree
    def shifted_by_t_over_q(gf):
        return RationalGF(*(BivariatePoly({(p - s, s): c for p, s, c in poly.terms()})
                            for poly in gf))

    monkeypatch.setattr("palcomp.genfun._shifted", shifted_by_t_over_q)
    assert _unshifted_differences(INFINITY, range(13), range(4)) != []


def test_a_triangle_term_far_out_in_k_expands_only_its_window():
    # A060098's terms sit at (n + 2k, k); the unshifted window would be 2026 x 1001 coefficients
    cell = (Family.AC, True, Sign.TOTAL, 1)
    tracemalloc.start()
    try:
        rows = gf_grid(*cell, range(2000, 2025), [1000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == formula_grid(*cell, range(2000, 2025), [1000])
    assert peak < 8 * 2**20


def test_every_sign_of_a_block_reads_one_plus_expansion(monkeypatch):
    asked = []

    def catalog(family, reduced, sign, modulus):
        asked.append(sign)
        return gf_catalog(family, reduced, sign, modulus)

    monkeypatch.setattr(genfun, "gf_catalog", catalog)
    series_table.cache_clear()
    for sign in Sign:
        gf_grid(Family.AC, True, sign, 3, range(31), range(6))
    assert series_table.cache_info().misses == 1
    assert asked == [Sign.PLUS] * 3


def _formula_grid_column(cell, ns, k, variant=None):
    """The formula path's column at k: formula_grid's request with ks = [k]."""
    return [row[0] for row in formula_grid(*cell, ns, [k], variant)]


@settings(deadline=None)
@given(cells_st, st.integers(0, 30), st.integers(0, 5))
def test_formula_grid_column_equals_formula_count(cell, n_max, k):
    column = _formula_grid_column(cell, range(n_max + 1), k)
    assert column == [formula_count(*cell, n, k) for n in range(n_max + 1)]


@settings(deadline=None)
@given(cells_st, st.sets(st.integers(0, 40)).map(sorted), st.integers(0, 5),
       st.sampled_from([None, *FormulaVariant]))
def test_formula_grid_column_at_any_ns_equals_formula_count(cell, ns, k, variant):
    try:
        formula_count(*cell, 0, k, variant)
    except ValueError as refusal:  # the block does not take this variant
        with pytest.raises(ValueError, match=re.escape(str(refusal))):
            formula_grid(*cell, ns, [k], variant)
        return
    assert _formula_grid_column(cell, ns, k, variant) == [
        formula_count(*cell, n, k, variant) for n in ns
    ]


def test_formula_grid_column_passes_the_variant():
    cell = (Family.AC, False, Sign.TOTAL, INFINITY)
    for variant in (None, *FormulaVariant):
        assert _formula_grid_column(cell, range(13), 1, variant) == [
            formula_count(*cell, n, 1, variant) for n in range(13)
        ]


def test_minus_column_at_n0_still_validates_the_variant():
    with pytest.raises(ValueError, match="single published formula"):
        formula_grid(Family.PC, False, Sign.MINUS, INFINITY, [0], [0], V2)
    assert formula_grid(Family.AC, False, Sign.MINUS, INFINITY, [0], [0], V2) == [[0]]


@pytest.mark.parametrize(
    "bounds, name",
    [((True, 2), "n_max"), ((3, False), "k_max"), ((3.0, 2), "n_max"), ((3, "2"), "k_max")],
)
def test_gf_grid_rejects_non_int_bounds(bounds, name):
    # each bound is passed as the one element of ns or ks, which is named n or k
    n_max, k_max = bounds
    with pytest.raises(TypeError, match=f"^{name.removesuffix('_max')} must be an int"):
        gf_grid(Family.PC, False, Sign.PLUS, INFINITY, [n_max], [k_max])


@pytest.mark.parametrize(
    "n_max, k, name", [(True, 1, "n_max"), (3, True, "k"), (3.5, 1, "n_max"), (3, 1.0, "k")]
)
def test_formula_grid_rejects_non_int_arguments(n_max, k, name):
    # n_max is passed as the one element of ns, which is named n
    with pytest.raises(TypeError, match=f"^{name.removesuffix('_max')} must be an int"):
        formula_grid(Family.PC, False, Sign.PLUS, INFINITY, [n_max], [k])


@pytest.mark.parametrize("reader", [gf_grid, formula_grid, brute_grid])
def test_negative_bounds_rejected(reader):
    with pytest.raises(ValueError, match="must be >= 0"):
        reader(Family.AC, True, Sign.TOTAL, 2, [-1], [0])
    with pytest.raises(ValueError, match="must be >= 0"):
        reader(Family.AC, True, Sign.TOTAL, 2, [3], [-1])


def _drawn(good, bad):
    """A field drawn good or bad, as (value, is_bad)."""
    return st.one_of(good.map(lambda v: (v, False)), st.sampled_from(bad).map(lambda v: (v, True)))


def _indices(top):
    """A sorted subset of 0..top (maybe empty or gapped), or one with a bad index slipped in."""
    good = st.sets(st.integers(0, top)).map(sorted)
    slipped = st.tuples(good, st.sampled_from([-1, True, 1.5]), st.integers(0, top)).map(
        lambda t: (t[0][:t[2]] + [t[1]] + t[0][t[2]:], True))
    return st.one_of(good.map(lambda values: (values, False)), slipped)


GRID_FIELDS = ("family", "reduced", "sign", "modulus", "n", "k")
_PC_PLUS_INF = ((Family.PC, False), (False, False), (Sign.PLUS, False), (INFINITY, False))


@settings(max_examples=150, deadline=None)
@given(st.tuples(
    _drawn(st.sampled_from(Family), ["pc"]),
    _drawn(st.booleans(), [1]),
    _drawn(st.sampled_from(Sign), ["plus"]),
    _drawn(st.sampled_from((1, 2, 3, 4, 5, INFINITY)), [0, 2.0, True]),
    _indices(40),
    _indices(25),
))
@example((*_PC_PLUS_INF, ([0, 1, 7, 40], False), ([3, 9, 20], False)))  # ks past max(ns) // 2
@example((*_PC_PLUS_INF, ([], False), ([0, 4], False)))
@example((*_PC_PLUS_INF, ([2, 5], False), ([], False)))
@example(((Family.AC, False), (1, True), (Sign.TOTAL, False), (3, False),
          ([4, -1], True), ([True], True)))  # three faults: the cell's is named
def test_formula_grid_equals_gf_grid_and_refuses_alike(request):
    _assert_read_alike((formula_grid, gf_grid), request)


def _assert_read_alike(readers, request):
    """Every reader gives the same rows, or the same refusal, on a drawn request."""
    args = [value for value, _ in request]
    faults = [name for name, (_, bad) in zip(GRID_FIELDS, request) if bad]
    outcomes = []
    for reader in readers:
        try:
            outcomes.append(reader(*args))
        except (TypeError, ValueError) as error:
            outcomes.append((type(error), str(error)))
    assert all(outcome == outcomes[0] for outcome in outcomes), (args, outcomes)
    if faults:  # the first fault in the order cell, n, k is the one refused
        assert isinstance(outcomes[0], tuple) and outcomes[0][1].startswith(f"{faults[0]} must")
    else:
        assert [len(row) for row in outcomes[0]] == [len(args[5])] * len(args[4])


@pytest.mark.parametrize("ns, ks", [([], [0, 1]), ([3, 4], []), ([6], [1])])
def test_formula_grid_refuses_a_variant_before_any_plus_value(monkeypatch, ns, ks):
    def evaluated(*args):
        raise AssertionError("a plus function ran before the variant was checked")

    for row in formulas._PLUS_FORMULAS.values():
        monkeypatch.setattr(formulas, row.plus, evaluated)
    with pytest.raises(ValueError, match="^this quantity has a single published formula"):
        formula_grid(Family.PC, False, Sign.TOTAL, INFINITY, ns, ks, V2)
    with pytest.raises(ValueError, match="^formula_count has variants V1, V2; got V3$"):
        formula_grid(Family.AC, True, Sign.MINUS, 3, ns, ks, FormulaVariant.V3)


@pytest.mark.parametrize("modulus", (1, 2, 3, 4, 5, INFINITY))
def test_brute_grid_equals_brute_count(modulus):
    # every row and column lands where its n and k are, sorted or not, past n // 2 or not
    requests = [(range(11), range(7)), ([7, 0, 3], [6, 0, 2]), ([10, 10, 1], [1, 5]), ([], [2]),
                ([4], [])]
    for family, reduced, sign in itertools.product(Family, (False, True), Sign):
        cell = (family, reduced, sign, modulus)
        for ns, ks in requests:
            assert brute_grid(*cell, ns, ks) == [
                [brute_count(*cell, n, k) for k in ks] for n in ns
            ], (cell, ns, ks)


@settings(max_examples=100, deadline=None)
@given(st.tuples(
    _drawn(st.sampled_from(Family), ["pc"]),
    _drawn(st.booleans(), [1]),
    _drawn(st.sampled_from(Sign), ["plus"]),
    _drawn(st.sampled_from((1, 2, 3, 4, 5, INFINITY)), [0, 2.0, True]),
    _indices(12),  # brute force walks every n it reads, so n stays well below the cap
    _indices(8),
))
@example((*_PC_PLUS_INF, ([0, 1, 7, 12], False), ([3, 5, 8], False)))  # ks past max(ns) // 2
@example((*_PC_PLUS_INF, ([], False), ([0, 4], False)))
@example((*_PC_PLUS_INF, ([2, 5], False), ([], False)))
@example(((Family.AC, False), (1, True), (Sign.TOTAL, False), (3, False),
          ([4, -1], True), ([True], True)))  # three faults: the cell's is named
def test_brute_grid_equals_formula_grid_and_gf_grid_and_refuses_alike(request):
    _assert_read_alike((brute_grid, formula_grid, gf_grid), request)


def test_a_request_past_half_of_every_n_walks_nothing(monkeypatch):
    def no_walk(n, cap):
        raise AssertionError(f"enumerate_compositions({n}) was called")

    monkeypatch.setattr(oracle, "enumerate_compositions", no_walk)
    records = (oracle._pair_record, oracle._census)
    before = [record.cache_info() for record in records]
    # a composition of n has at most n // 2 mirror pairs
    assert brute_grid(Family.PC, False, Sign.PLUS, INFINITY, [20, 3, 7], [15, 11]) == [[0, 0]] * 3
    assert brute_grid(Family.AC, True, Sign.TOTAL, 3, [7, 1], [4]) == [[0], [0]]
    assert [record.cache_info() for record in records] == before  # not even a cached read
    # the cap is still checked at every n, before any cell
    with pytest.raises(EnumerationCapError, match="n=20: enumeration cap is 19"):
        brute_grid(Family.PC, False, Sign.PLUS, INFINITY, [3, 20], [15], cap=19)


def test_brute_grid_reads_each_census_once_and_only_where_a_cell_needs_it(monkeypatch):
    at_9 = [brute_count(Family.PC, False, Sign.TOTAL, 2, 9, k) for k in (2, 3)]
    read = []

    def recording(n, modulus, honest=oracle._census):
        read.append(n)
        return honest(n, modulus)

    monkeypatch.setattr(oracle, "_census", recording)
    # every sign of the row n = 9 reads one census; the row n = 3 has no cell with 2k <= 3
    assert brute_grid(Family.PC, False, Sign.TOTAL, 2, [3, 9], [2, 3]) == [[0, 0], at_9]
    assert read == [9]
