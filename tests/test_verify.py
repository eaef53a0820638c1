"""The cross-path harness itself: green on shipped code, red under mutation."""

import inspect
import itertools
import json
import tracemalloc
from collections import Counter

import pytest

from palcomp import formulas, genfun, oracle, stats, verify
from palcomp.genfun import ONE, Q, T, BivariatePoly, RationalGF
from palcomp.oracle import DEFAULT_ENUMERATION_CAP, EnumerationCapError
from palcomp.stats import INFINITY, Family, Sign


def test_all_checks_pass_on_shipped_code():
    results = verify.run_all(n_max=10, k_max=3, moduli=(1, 2, 3, INFINITY))
    failures = [r for r in results if not r.ok]
    assert failures == []


def test_grid_at_full_internal_range():
    # the internal contract grid is wider than the acceptance grid: n up to 16
    result = verify.three_path_grid(n_max=16, k_max=4, moduli=(1, 2, 3, 4, 5, INFINITY))
    assert result.ok, result.as_dict()


def test_trivial_grid_passes():
    results = verify.run_all(n_max=0, k_max=0, moduli=(1, INFINITY))
    assert all(r.ok for r in results)


def test_result_shape():
    result = verify.three_path_grid(n_max=4, k_max=1, moduli=(2,))
    assert result.as_dict() == {
        "check": "three_path_grid",
        "params": None,
        "status": "pass",
        "expected": None,
        "actual": None,
    }


def test_grid_pinpoints_a_perturbed_formula(monkeypatch):
    honest = formulas.pc_plus_k

    def corrupted(n, k):
        value = honest(n, k)
        return value + 1 if (n, k) == (7, 1) else value

    monkeypatch.setattr(formulas, "pc_plus_k", corrupted)
    result = verify.three_path_grid(n_max=9, k_max=2, moduli=(INFINITY,))
    assert not result.ok
    assert result.params["family"] == "pc"
    assert result.params["modulus"] == "inf"
    assert (result.params["n"], result.params["k"]) == (7, 1)


def test_grid_pinpoints_a_perturbed_modular_formula(monkeypatch):
    honest = formulas.ac_plus_k_mod

    def corrupted(n, k, m, variant=formulas.V1):
        value = honest(n, k, m, variant)
        return value + 1 if (n, k, m) == (6, 1, 2) else value

    monkeypatch.setattr(formulas, "ac_plus_k_mod", corrupted)
    result = verify.three_path_grid(n_max=8, k_max=2, moduli=(2,))
    assert not result.ok
    assert result.params["family"] == "ac"
    assert result.params["modulus"] == "2"
    assert (result.params["n"], result.params["k"]) == (6, 1)


def test_grid_pinpoints_a_perturbed_brute_count(monkeypatch):
    honest = verify.brute_grid
    target = (Family.AC, True, Sign.MINUS, 3)

    def corrupted(family, reduced, sign, modulus, ns, ks, cap=DEFAULT_ENUMERATION_CAP):
        rows = honest(family, reduced, sign, modulus, ns, ks, cap)
        if (family, reduced, sign, modulus) == target:  # the cell n = 6, k = 1
            rows[list(ns).index(6)][list(ks).index(1)] += 1
        return rows

    monkeypatch.setattr(verify, "brute_grid", corrupted)
    result = verify.three_path_grid(n_max=8, k_max=2, moduli=(2, 3))
    assert not result.ok
    assert result.params == {
        "family": "ac", "reduced": True, "sign": "minus", "modulus": "3", "n": 6, "k": 1,
    }
    assert result.actual == {"brute": result.expected["formula"] + 1}


def test_variant_check_catches_divergence(monkeypatch):
    honest = formulas.rac_plus_k_mod

    def skewed(n, k, m, variant=formulas.V1):
        value = honest(n, k, m, variant)
        return value + (1 if variant is formulas.V2 and (n, k, m) == (5, 1, 3) else 0)

    monkeypatch.setattr(formulas, "rac_plus_k_mod", skewed)
    result = verify.variant_agreement(n_max=6, k_max=2, moduli=(3,))
    assert not result.ok
    assert result.params["quantity"] == "rac_plus_mod"


def test_variant_agreement_runs_each_row_at_its_own_moduli():
    # the modulus-free ac_plus_k row runs only when INFINITY is asked for, and the
    # finite rows and their k = 0 specializations only at the finite moduli asked for
    cells = list(verify.variant_agreement.__wrapped__(4, 1, (2,)))
    assert len(cells) == 50 and all(params["modulus"] == 2 for params, _, _ in cells)
    cells = list(verify.variant_agreement.__wrapped__(4, 1, (INFINITY,)))
    assert [params for params, _, _ in cells] == [
        {"quantity": "ac_plus", "modulus": "inf", "n": n, "k": k}
        for n in range(5) for k in range(2)
    ]


@pytest.mark.parametrize(
    "check",
    [
        verify.reflection_identity,
        verify.totals_from_plus,
        verify.gf_total_plus_relation,
    ],
)
def test_individual_grid_checks(check):
    # the GF identity is exact, so it takes no grid bounds
    bounds = {} if check is verify.gf_total_plus_relation else {"n_max": 8, "k_max": 2}
    assert check(**bounds, moduli=(1, 3, INFINITY)).ok


@pytest.mark.parametrize("modulus", [m for m in verify.DEFAULT_MODULI if m is not INFINITY])
def test_a_displayed_total_wrong_past_the_grid_is_caught(monkeypatch, modulus):
    # the t-term -q^2 (1 - q) t of rac's displayed total times (1 + q^(m+20)): every
    # coefficient below q^(m+22) stays right, and no count reads the total entry
    def skewed(m):
        total = genfun._rac_total_mod(m)
        return RationalGF(total.numerator, total.denominator - Q ** (m + 22) * (ONE - Q) * T)

    row = genfun._CatalogRow(genfun._rac_plus_mod, skewed)
    monkeypatch.setitem(genfun._CATALOG, (Family.AC, True, True), row)
    result = verify.gf_total_plus_relation(moduli=(modulus,))
    assert not result.ok
    assert result.params["family"] == "ac" and result.params["reduced"] is True
    assert result.params["modulus"] == str(modulus)


def test_a_wrong_sign_rule_is_caught_by_brute_force(monkeypatch):
    # formula and GF read every sign through the one table, so they agree under a
    # wrong rule; brute force tallies the sign classes itself
    monkeypatch.setitem(stats.SIGN_OFFSETS, Sign.TOTAL, (0, 2))
    result = verify.three_path_grid(n_max=6, k_max=1, moduli=(2,))
    assert not result.ok and result.params["sign"] == "total"
    assert result.expected["formula"] == result.expected["genfun"] != result.actual["brute"]


def test_gf_total_plus_relation_cells_are_json_ints():
    cells = list(verify.gf_total_plus_relation.__wrapped__((1, 10**12, INFINITY)))
    assert len({tuple(params.values())[:4] for params, _, _ in cells}) == 5
    for params, expected, actual in cells:
        assert type(expected) is int and type(actual) is int
        assert json.loads(json.dumps(params)) == params


def test_gf_total_plus_relation_covers_exactly_the_displayed_totals():
    # a block without a displayed total has no total entry to relate to its plus entry
    moduli = (1, 5, INFINITY)
    displayed = {(family.value, reduced, str(modulus))
                 for (family, reduced, finite), row in genfun._CATALOG.items() if row.total
                 for modulus in moduli if (modulus is not INFINITY) == finite}
    cells = list(verify.gf_total_plus_relation.__wrapped__(moduli))
    blocks = {(params["family"], params["reduced"], params["modulus"]) for params, _, _ in cells}
    assert blocks == displayed and len(displayed) == 5


def test_truncation_soundness_catches_a_cell_that_depends_on_its_window(monkeypatch):
    # the mutant drops the denominator terms that reach exactly the last row of
    # an expansion, so a cell read alone, in that row, differs from a wider read
    honest = genfun.series_inverse

    def window_bound(d, nq, nt, numerator):
        kept = {(p, s): c for p, s, c in d.terms() if p != nq or (p, s) == (0, 0)}
        return honest(BivariatePoly(kept), nq, nt, numerator)

    assert len(list(verify.truncation_soundness.__wrapped__())) == 72
    monkeypatch.setattr(genfun, "series_inverse", window_bound)
    genfun.series_table.cache_clear()
    try:
        result = verify.truncation_soundness()
    finally:
        genfun.series_table.cache_clear()
    assert not result.ok and result.expected != result.actual


def test_individual_fixed_checks():
    assert verify.divisibility().ok
    assert verify.tribonacci_identity(12).ok
    assert verify.sequence_identification().ok
    assert verify.parity_vanishing().ok
    assert verify.special_values().ok
    assert verify.rpc_mod2_fibonacci_fold().ok
    assert verify.truncation_soundness().ok
    assert verify.bijection_round_trip(9).ok
    assert verify.binary_round_trip(9).ok
    assert verify.m1_specializations().ok
    assert verify.coloring_interpretations(10).ok
    assert verify.parts_equal_one(12).ok
    assert verify.statistic_partition(8, (2, INFINITY)).ok
    assert verify.reduced_halving(10, 3).ok


def test_cap_is_checked_before_any_check_runs():
    # n_max fits the cap, but tribonacci_identity and parts_equal_one reach n = 10
    with pytest.raises(EnumerationCapError, match="compositions of n=9: enumeration cap is 8"):
        verify.run_all(n_max=6, k_max=1, moduli=(2,), cap=8)
    verify.run_all(n_max=6, k_max=1, moduli=(2,), cap=10)


ENUMERATING = ("brute_grid", "enumerate_compositions", "count_parts_equal_one",
               "count_parts_at_most", "count_two_colored_no_ones", "count_at_most_one_even_part")


@pytest.mark.parametrize("n_max", [0, 3, 8, 14])
def test_cap_pre_check_covers_exactly_the_n_the_checks_walk(monkeypatch, n_max):
    # every oracle entry point verify calls records each n it is asked for; the
    # largest is the last n run_all's cap pre-check covers, max(n_max, deep_n)
    imported = {name for name, obj in vars(verify).items()
                if callable(obj) and getattr(obj, "__module__", None) == "palcomp.oracle"}
    assert imported - {"check_enumeration_cap"} == set(ENUMERATING)
    asked, checked = [], []
    honest_check = verify.check_enumeration_cap

    def recording_check(ns, cap):
        checked.extend(ns)
        return honest_check(ns, cap)

    monkeypatch.setattr(verify, "check_enumeration_cap", recording_check)
    for name in ENUMERATING:
        def recording(*args, honest=getattr(verify, name), **kwargs):
            arguments = inspect.signature(honest).bind(*args, **kwargs).arguments
            asked.extend(arguments["ns"] if "ns" in arguments else [arguments["n"]])
            return honest(*args, **kwargs)

        monkeypatch.setattr(verify, name, recording)
    assert all(r.ok for r in verify.run_all(n_max, 2, (2, INFINITY)))
    assert max(asked) == max(checked) == max(n_max, min(n_max + 4, 18))


def _bumped(honest, at):
    """honest, plus 1 wherever at(*args) holds."""

    def corrupted(*args, **kwargs):
        return honest(*args, **kwargs) + (1 if at(*args) else 0)

    return corrupted


def _raising(honest, at):
    """honest, raising ArithmeticError wherever at(*args) holds."""

    def corrupted(*args, **kwargs):
        if at(*args):
            raise ArithmeticError(f"perturbed at {args}")
        return honest(*args, **kwargs)

    return corrupted


def _total_cell(family, reduced, modulus, n, k):
    return {
        "family": family, "reduced": reduced, "sign": "total", "modulus": modulus, "n": n, "k": k,
    }


@pytest.mark.parametrize(
    "name, at, call, params",
    [
        pytest.param(
            "ac_total_k_mod", lambda n, k, m: (n, k, m) == (7, 1, 3),
            lambda: verify.totals_from_plus(9, 2, (1, 2, 3, INFINITY)),
            _total_cell("ac", False, "3", 7, 1),
            id="ac_total_k_mod",
        ),
        pytest.param(
            "rac_total_k_mod", lambda n, k, m: m == 5,
            lambda: verify.totals_from_plus(6, 1, (2, 5)),
            _total_cell("ac", True, "5", 0, 0),
            id="rac_total_k_mod",
        ),
        pytest.param(
            "ac_total_k_alt", lambda n, k: (n, k) == (6, 2),
            lambda: verify.totals_from_plus(8, 2, (2, INFINITY)),
            _total_cell("ac", False, "inf", 6, 2),
            id="ac_total_k_alt",
        ),
        pytest.param(
            "rpc_total_k", lambda n, k: n == 4,
            lambda: verify.totals_from_plus(6, 1, (2, INFINITY)),
            _total_cell("pc", True, "inf", 4, 0),
            id="rpc_total_k",
        ),
        pytest.param(
            "rpc_plus_mod_k0", lambda n, m: (n, m) == (8, 3),
            lambda: verify.variant_agreement(9, 1, (2, 3, INFINITY)),
            {"quantity": "rpc_plus_mod_k0", "modulus": 3, "n": 8, "k": 0},
            id="rpc_plus_mod_k0",
        ),
    ],
)
def test_direct_totals_and_k0_specializations_are_pinpointed(monkeypatch, name, at, call, params):
    # no other check compares these formulas at these moduli
    monkeypatch.setattr(formulas, name, _bumped(getattr(formulas, name), at))
    result = call()
    assert not result.ok
    assert result.params == params
    if result.check == "totals_from_plus":
        assert result.actual == result.expected + 1
    else:
        assert result.actual == [result.expected, result.expected - 1]


@pytest.mark.parametrize(
    "module, name, corrupt, call, report",
    [
        pytest.param(
            verify, "count_parts_at_most", lambda h: _bumped(h, lambda n, *_: n == 7),
            lambda: verify.tribonacci_identity(12),
            ({"n": 7}, 44, {"sum": 44, "compositions": 45}),
            id="tribonacci_identity",
        ),
        pytest.param(
            formulas, "ac_plus_k", lambda h: _bumped(h, lambda n, k, *_: (n, k) == (5, 0)),
            verify.sequence_identification,
            ({"quantity": "ac_plus", "n": 5}, 6, 7),
            id="sequence_identification-ac_plus",
        ),
        pytest.param(
            formulas, "tribonacci", lambda h: _bumped(h, lambda n: n == 6),
            verify.sequence_identification,
            ({"quantity": "ac_total_forms", "n": 5}, 9, {"prime": 9, "diff": 10, "plain": 9}),
            id="sequence_identification-forms",
        ),
        pytest.param(
            formulas, "rac_total_k", lambda h: _bumped(h, lambda n, k: (n, k) == (4, 0)),
            verify.sequence_identification,
            ({"quantity": "rac_total", "n": 4}, 3, 4),
            id="sequence_identification-rac_total",
        ),
        pytest.param(
            verify, "decode_binary",
            lambda h: lambda bits: h(bits)[::-1] if len(bits) == 5 else h(bits),
            lambda: verify.binary_round_trip(9),
            ({"n": 5, "composition": [4, 1]}, [4, 1], None),
            id="binary_round_trip",
        ),
        pytest.param(
            # bits as a string still decode to c, but their last entry is "1", not 1
            verify, "encode_binary",
            lambda h: lambda c: "".join(map(str, h(c))) if c == (2, 3) else h(c),
            lambda: verify.binary_round_trip(9),
            ({"n": 5, "composition": [2, 3], "aspect": "last bit"}, 1, "1"),
            id="binary_round_trip-last-bit",
        ),
        pytest.param(
            formulas, "rpc_total_k", lambda h: _raising(h, lambda n, k: (n, k) == (9, 2)),
            verify.divisibility,
            ({"n": 9, "k": 2}, "exact division", "perturbed at (9, 2)"),
            id="divisibility",
        ),
        pytest.param(
            verify, "mismatch_count", lambda h: _bumped(h, lambda c, m: c == (6,)),
            lambda: verify.bijection_round_trip(9),
            ({"n": 6, "composition": [6], "aspect": "statistic"},
             {"mismatches": 1, "n": 6}, {"mismatches": 0, "n": 6}),
            id="bijection_round_trip-statistic",
        ),
        pytest.param(
            verify, "decode_pair", lambda h: lambda pair: h(pair)[::-1],
            lambda: verify.bijection_round_trip(9),
            ({"n": 3, "composition": [2, 1]}, [2, 1], [1, 2]),
            id="bijection_round_trip-round-trip",
        ),
        pytest.param(
            formulas, "pc_plus_k", lambda h: _bumped(h, lambda n, k, *_: (n, k) == (6, 1)),
            lambda: verify.bijection_round_trip(9),
            ({"n": 6, "k": 1, "aspect": "cardinality"}, 11, 10),
            id="bijection_round_trip-cardinality",
        ),
        pytest.param(
            formulas, "ac_plus_k_mod",
            lambda h: _raising(h, lambda n, k, m, *_: (n, k, m) == (5, 1, 2)),
            lambda: verify.three_path_grid(8, 2, (2,)),
            ({"family": "ac", "reduced": False, "sign": "plus", "modulus": "2", "n": 5, "k": 1},
             "a count", "perturbed at (5, 1, 2, <FormulaVariant.V1: 1>)"),
            id="three_path_grid-error",
        ),
        pytest.param(
            formulas, "rac_plus_k", lambda h: _raising(h, lambda n, k: (n, k) == (9, 0)),
            lambda: next(r for r in verify.run_all(8, 2, (2, INFINITY))
                         if r.check == "sequence_identification"),
            ({}, "no internal errors", "perturbed at (9, 0)"),
            id="run_all-internal-error",
        ),
        pytest.param(
            # a check run alone reports an internal error as run_all does, not raising it
            formulas, "rac_plus_k", lambda h: _raising(h, lambda n, k: (n, k) == (9, 0)),
            verify.sequence_identification,
            ({}, "no internal errors", "perturbed at (9, 0)"),
            id="direct-internal-error",
        ),
    ],
)
def test_failure_report_is_pinned(monkeypatch, module, name, corrupt, call, report):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    result = call()
    assert result.status == "fail"
    assert (result.params, result.expected, result.actual) == report


def test_three_path_grid_names_the_first_raising_cell_in_n_major_order(monkeypatch):
    # the block's formula grid builds its plus rows in ascending n (stats.sign_rows)
    # and reaches (5, 2) first; the report names (5, 2), the first cell of the n-major walk
    raising = _raising(formulas.pc_plus_k, lambda n, k: (n, k) in {(5, 2), (9, 0)})
    monkeypatch.setattr(formulas, "pc_plus_k", raising)
    plus = (Family.PC, False, Sign.PLUS, INFINITY)
    with pytest.raises(ArithmeticError, match=r"^perturbed at \(5, 2\)$"):
        formulas.formula_grid(*plus, range(11), range(3))
    result = verify.three_path_grid(10, 2, (INFINITY,))
    params = {"family": "pc", "reduced": False, "sign": "plus", "modulus": "inf", "n": 5, "k": 2}
    assert (result.params, result.expected, result.actual) == (
        params, "a count", "perturbed at (5, 2)"
    )


@pytest.mark.parametrize(
    "name, check, n, report",
    [
        pytest.param(
            "RAC_FIB", verify.special_values, 150,
            lambda v: ({"name": "RAC_FIB", "n": 150}, {"genfun": v}, v + 1),
            id="special_values-gf",
        ),
        pytest.param(
            "RAC_FIB", verify.special_values, 12,
            lambda v: ({"name": "RAC_FIB", "n": 12}, {"formula": v, "genfun": v}, v + 1),
            id="special_values-formula",
        ),
        pytest.param(
            "RPC_PLUS_MOD2_FIB", verify.rpc_mod2_fibonacci_fold, 10,
            lambda v: ({"n": 10}, v + 1, v),
            id="rpc_mod2_fibonacci_fold",
        ),
        pytest.param(
            # special_values is the one check on the two m = 2 single-n rows
            "PC_PLUS1_MOD2", verify.special_values, 7,
            lambda v: ({"name": "PC_PLUS1_MOD2", "n": 7}, {"formula": v, "genfun": v}, v + 1),
            id="special_values-PC_PLUS1_MOD2",
        ),
        pytest.param(
            "RPC_PLUS1_MOD2", verify.special_values, 7,
            lambda v: ({"name": "RPC_PLUS1_MOD2", "n": 7}, {"formula": v, "genfun": v}, v + 1),
            id="special_values-RPC_PLUS1_MOD2",
        ),
        pytest.param(
            "AC_PLUS_TRIB_PRIME", verify.sequence_identification, 9,
            lambda v: ({"quantity": "ac_plus", "n": 9}, v + 1, v),
            id="sequence_identification",
        ),
    ],
)
def test_checks_read_the_named_identities_from_the_table(monkeypatch, name, check, n, report):
    # a closed form bumped in formulas.SPECIAL_VALUES alone fails the check at that cell
    row = formulas.SPECIAL_VALUES[name]
    bumped = row._replace(closed_form=_bumped(row.closed_form, lambda at: at == n))
    monkeypatch.setitem(formulas.SPECIAL_VALUES, name, bumped)
    result = check()
    assert result.status == "fail"
    assert (result.params, result.expected, result.actual) == report(row.closed_form(n))


@pytest.mark.parametrize("name", sorted(formulas.SPECIAL_VALUES))
def test_special_values_reads_every_row(monkeypatch, name):
    # a row the check skipped would pass with its closed form raised at its first n >= 2
    row = formulas.SPECIAL_VALUES[name]
    n = next(n for n in itertools.count(2) if row.domain(n))
    bumped = row._replace(closed_form=_bumped(row.closed_form, lambda at: at == n))
    monkeypatch.setitem(formulas.SPECIAL_VALUES, name, bumped)
    result = verify.special_values()
    v = row.closed_form(n)
    assert (result.status, result.params, result.expected, result.actual) == (
        "fail", {"name": name, "n": n}, {"formula": v, "genfun": v}, v + 1
    )


def test_a_default_run_makes_the_public_walks_the_traced_benchmark_pins(monkeypatch):
    # the traced verify benchmark counts calls of enumerate_compositions: 64 walks and
    # 311,296 compositions per default run, so a walk that bypasses it fails here too
    walks, weighted = Counter(), Counter()
    honest = oracle.enumerate_compositions

    def counting(n, *args, **kwargs):
        walks[n] += 1
        if "weights" in kwargs:
            weighted[n] += 1
        return honest(n, *args, **kwargs)

    for module in (oracle, verify):  # the two modules that walk
        monkeypatch.setattr(module, "enumerate_compositions", counting)
    for cached in (oracle._pair_record, oracle._census, oracle._part_record):
        cached.cache_clear()
    assert all(result.ok for result in verify.run_all())
    assert sum(walks.values()) == 64
    assert sum(count << (n - 1) if n else count for n, count in walks.items()) == 311_296
    # the part record walks each n <= 18 (deep_n) once, weighted
    assert weighted == {n: 1 for n in range(19)}


REQUEST_CHECKS = (
    "three_path_grid", "variant_agreement", "totals_from_plus", "reflection_identity",
    "statistic_partition", "reduced_halving", "tribonacci_identity", "gf_total_plus_relation",
    "bijection_round_trip", "binary_round_trip", "coloring_interpretations", "parts_equal_one",
)


# what each check that reads the request gets from run_all, at the defaults and at a
# small request: run_all alone scales small_n, deep_n and the coloring range
RECEIVED = [
    ({}, {
        "three_path_grid": (14, 4, verify.DEFAULT_MODULI, 24),
        "variant_agreement": (14, 4, verify.DEFAULT_MODULI),
        "totals_from_plus": (14, 4, verify.DEFAULT_MODULI),
        "reflection_identity": (14, 4, verify.DEFAULT_MODULI, 24),
        "statistic_partition": (14, verify.DEFAULT_MODULI, 24),
        "reduced_halving": (14, 4, 24),
        "tribonacci_identity": (18, 24),
        "gf_total_plus_relation": (verify.DEFAULT_MODULI,),
        "bijection_round_trip": (14, 24),
        "binary_round_trip": (14, 24),
        "coloring_interpretations": (16, 24),
        "parts_equal_one": (18, 24),
    }),
    ({"n_max": 4, "k_max": 1, "moduli": (2,)}, {
        "three_path_grid": (4, 1, (2,), 24),
        "variant_agreement": (4, 1, (2,)),
        "totals_from_plus": (4, 1, (2,)),
        "reflection_identity": (4, 1, (2,), 24),
        "statistic_partition": (4, (2,), 24),
        "reduced_halving": (4, 1, 24),
        "tribonacci_identity": (8, 24),
        "gf_total_plus_relation": ((2,),),
        "bijection_round_trip": (4, 24),
        "binary_round_trip": (4, 24),
        "coloring_interpretations": (6, 24),
        "parts_equal_one": (8, 24),
    }),
]


def test_run_all_calls_each_check_through_the_module(monkeypatch):
    # run_all looks the checks up when it runs, so a rebound verify.<check> is the one called
    names = [
        "three_path_grid", "variant_agreement", "totals_from_plus", "reflection_identity",
        "statistic_partition", "reduced_halving", "divisibility", "tribonacci_identity",
        "sequence_identification", "parity_vanishing", "special_values",
        "gf_total_plus_relation", "rpc_mod2_fibonacci_fold", "truncation_soundness",
        "bijection_round_trip", "binary_round_trip", "m1_specializations",
        "coloring_interpretations", "parts_equal_one",
    ]
    called, calls = [], {}
    for name in names:
        def stub(*args, name=name, **kwargs):
            called.append(name)
            calls[name] = (args, kwargs)
            return verify.CheckResult(name, "pass", {"stub": True})

        monkeypatch.setattr(verify, name, stub)
    fixed = [
        "divisibility", "sequence_identification", "parity_vanishing", "special_values",
        "rpc_mod2_fibonacci_fold", "truncation_soundness", "m1_specializations",
    ]
    for request_, received in RECEIVED:
        called.clear()
        results = verify.run_all(**request_)
        assert called == names
        assert [r.check for r in results] == names
        assert all(r.params == {"stub": True} for r in results)
        # each check that reads the request gets its range positionally, and the
        # fixed-range checks keep their ranges in their bodies, so get nothing
        assert {name: calls[name] for name in REQUEST_CHECKS} == {
            name: (args, {}) for name, args in received.items()
        }
        assert {name: calls[name] for name in fixed} == {name: ((), {}) for name in fixed}


def test_only_run_all_holds_a_default_request():
    # every check that reads the request takes it from its caller, so run_all's defaults
    # are its only copy; cap keeps the oracle's library-wide default
    signatures = {name: inspect.signature(obj).parameters for name, obj in vars(verify).items()
                  if inspect.isfunction(obj) and obj.__module__ == verify.__name__}
    request = {name: [params[p] for p in ("n_max", "k_max", "moduli") if p in params]
               for name, params in signatures.items()}
    assert {name for name, taken in request.items() if taken and not name.startswith("_")} == {
        *REQUEST_CHECKS, "run_all"
    }
    defaulted = {name for name, taken in request.items()
                 if any(p.default is not inspect.Parameter.empty for p in taken)}
    assert defaulted == {"run_all"}


def test_a_non_int_cap_is_refused_before_any_check_runs(monkeypatch):
    # the grid reaches n = 8, far below the cap, so only checking the cap itself refuses it
    for name in ("brute_grid", "enumerate_compositions", "count_parts_at_most"):
        monkeypatch.setattr(verify, name, lambda *args, **kwargs: pytest.fail("a check ran"))
    with pytest.raises(TypeError, match="cap must be an int, got 30.5"):
        verify.run_all(n_max=4, k_max=1, moduli=(2,), cap=30.5)


@pytest.mark.parametrize(
    "request_, error, message",
    [
        ({"n_max": -1}, ValueError, "^n_max must be >= 0, got -1$"),
        ({"k_max": -2}, ValueError, "^k_max must be >= 0, got -2$"),
        ({"n_max": True}, TypeError, "^n_max must be an int, got True$"),
        ({"n_max": 2.5}, TypeError, "^n_max must be an int, got 2.5$"),
        ({"moduli": ()}, ValueError, "^moduli must name at least one modulus, got none$"),
        ({"n_max": 6, "k_max": 1, "moduli": iter((2, INFINITY))}, TypeError,
         "^moduli must be a sequence, got tuple_iterator$"),
        ({"moduli": (2, 0)}, ValueError, "^modulus must be >= 1, got 0$"),
        ({"moduli": (2, True)}, TypeError,
         "^modulus must be a positive int or INFINITY, got True$"),
    ],
    ids=["negative-n_max", "negative-k_max", "bool-n_max", "float-n_max", "empty-moduli",
         "iterator-moduli", "zero-modulus", "bool-modulus"],
)
def test_run_all_refuses_a_request_whose_grid_checks_read_nothing(monkeypatch, request_, error,
                                                                  message):
    # each of these read no cell, read True as 1, or left later checks no moduli
    # to read, and so passed all 19 checks, or was refused only after work began
    for name in ("gf_grid", "brute_grid", "enumerate_compositions", "count_parts_at_most"):
        monkeypatch.setattr(verify, name, lambda *args, **kwargs: pytest.fail("a check ran"))
    with pytest.raises(error, match=message):
        verify.run_all(**request_)


REFUSED = {"n_max": (-1, ValueError, "^n_max must be >= 0, got -1$"),
           "k_max": (-2, ValueError, "^k_max must be >= 0, got -2$"),
           "moduli": ((), ValueError, "^moduli must name at least one modulus, got none$")}


@pytest.mark.parametrize("name", REQUEST_CHECKS)
def test_each_check_refuses_a_request_run_all_refuses(monkeypatch, name):
    # called alone, a check refuses what run_all refuses, with its message, before any
    # cell; each of these calls passed on no cells, e.g. three_path_grid(-1, 2, (2,))
    for reader in ("gf_grid", "brute_grid", "enumerate_compositions", "count_parts_at_most",
                   "count_parts_equal_one", "count_two_colored_no_ones", "tribonacci_identity_sum"):
        monkeypatch.setattr(verify, reader, lambda *args, **kwargs: pytest.fail("a cell was read"))
    check = getattr(verify, name)
    good = {"n_max": 3, "k_max": 1, "moduli": (2,)}
    taken = [p for p in inspect.signature(check).parameters if p in good]
    for field in taken:
        bad, error, message = REFUSED[field]
        request = {p: bad if p == field else good[p] for p in taken}
        with pytest.raises(error, match=message):
            check(*request.values())
        with pytest.raises(error, match=message):
            check(**request)


def test_m1_specializations_evaluates_each_mod2_plus_value_once(monkeypatch):
    calls = {}
    for name in ("pc_plus_k_mod", "rpc_plus_k_mod"):
        def counting(n, k, m, *args, honest=getattr(formulas, name), name=name):
            calls[name, n, k, m] = calls.get((name, n, k, m), 0) + 1
            return honest(n, k, m, *args)

        monkeypatch.setattr(formulas, name, counting)
    assert verify.m1_specializations().ok
    # each mod-2 plus value at k = 1 is read once, by its pair with the mod-2 specialization
    at_k1_mod2 = {key: count for key, count in calls.items() if key[2:] == (1, 2)}
    assert at_k1_mod2 == {(name, n, 1, 2): 1
                          for name in ("pc_plus_k_mod", "rpc_plus_k_mod") for n in range(21)}


@pytest.mark.parametrize("check", [verify.binary_round_trip, verify.bijection_round_trip])
def test_round_trips_walk_every_requested_n(monkeypatch, check):
    # run_all bounds these checks; called directly they reach the n they are given
    walked = []
    enumerate_compositions = verify.enumerate_compositions

    def recording(n, cap):
        walked.append(n)
        return enumerate_compositions(n, cap=cap)

    monkeypatch.setattr(verify, "enumerate_compositions", recording)
    assert check(15).ok
    assert walked == list(range(16))


def test_bijection_round_trip_counts_images_only_where_every_round_trip_held(monkeypatch):
    # a decode that reverses two-part compositions breaks the round trip from n = 3 on;
    # each such n yields no cardinality cells, wherever the walker stops
    honest = verify.decode_pair

    def reversing(pair):
        c = honest(pair)
        return c[::-1] if len(c) == 2 else c

    monkeypatch.setattr(verify, "decode_pair", reversing)
    cells = list(verify.bijection_round_trip.__wrapped__(6))
    cardinality = {params["n"] for params, _, _ in cells if params.get("aspect") == "cardinality"}
    assert cardinality == {0, 2}  # n = 1 has no plus composition
    assert {params["n"] for params, _, _ in cells if "aspect" not in params} == {3, 4, 5, 6}


def test_bijection_round_trip_memory_is_flat_in_n():
    # the cardinality cells count compositions, so no set of images grows with 2^n
    tracemalloc.start()
    try:
        assert verify.bijection_round_trip(14).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10


def _variant_skewed(honest, cells):
    """honest, plus 1 for V2 at the (n, k) in cells."""

    def skewed(n, k, m, variant=formulas.V1):
        return honest(n, k, m, variant) + (variant is formulas.V2 and (n, k) in cells)

    return skewed


@pytest.mark.parametrize(
    "name, corrupt, call, report",
    [
        pytest.param(
            "pc_plus_k_mod", lambda h: _bumped(h, lambda n, k, m, *_: (n, k) in {(5, 2), (6, 1)}),
            lambda: verify.three_path_grid(8, 2, (3,)),
            ({"family": "pc", "reduced": False, "sign": "plus", "modulus": "3", "n": 5, "k": 2},
             {"formula": 1, "genfun": 0}, {"brute": 0}),
            id="three_path_grid",
        ),
        pytest.param(
            "rac_plus_k_mod", lambda h: _variant_skewed(h, {(5, 2), (6, 1)}),
            lambda: verify.variant_agreement(8, 2, (3,)),
            ({"quantity": "rac_plus_mod", "modulus": 3, "n": 5, "k": 2}, 0, [0, 1]),
            id="variant_agreement",
        ),
        pytest.param(
            "ac_total_k_mod", lambda h: _bumped(h, lambda n, k, m: (n, k) in {(5, 2), (6, 1)}),
            lambda: verify.totals_from_plus(8, 2, (3,)),
            (_total_cell("ac", False, "3", 5, 2), 1, 2),
            id="totals_from_plus",
        ),
        pytest.param(
            "ac_total_k_mod",
            lambda h: _raising(_bumped(h, lambda n, k, m: (n, k) == (5, 2)),
                               lambda n, k, m: (n, k) == (6, 1)),
            lambda: verify.totals_from_plus(8, 2, (3,)),
            (_total_cell("ac", False, "3", 5, 2), 1, 2),
            id="totals_from_plus-error-at-a-later-cell",
        ),
        pytest.param(
            "ac_plus_k_mod", lambda h: _bumped(h, lambda n, k, m, *_: (n, k) in {(5, 2), (6, 1)}),
            verify.m1_specializations,
            ({"quantity": "ac_plus_mod1", "n": 5, "k": 2}, 4, 5),
            id="m1_specializations",
        ),
    ],
)
def test_cells_are_compared_n_major(monkeypatch, name, corrupt, call, report):
    # the cells are evaluated and compared n-major, so the first failing cell in that
    # order is reported: (5, 2) before (6, 1), though (6, 1) comes first k-major
    monkeypatch.setattr(formulas, name, corrupt(getattr(formulas, name)))
    result = call()
    assert result.status == "fail"
    assert (result.params, result.expected, result.actual) == report


V1_MEMOS = ("_pc_tail", "_rpc_c_tail", "_ac_plus_tail", "_sj_sum", "_ac_total_tail", "_c_sum",
            "_ac_plus_inner", "_rac_plus_inner")


def test_formula_memos_are_bounded_and_build_each_entry_once():
    memos = [obj for obj in vars(formulas).values() if hasattr(obj, "cache_info")]
    assert all(memo.cache_info().maxsize is not None for memo in memos)
    # m1_specializations alone cycles through 13 (k, m) per n: a memo that kept the
    # entries of only a few (k, m), or too few entries, would rebuild them on most cells
    for check in (verify.run_all, lambda: [verify.m1_specializations()]):
        for memo in memos:
            memo.cache_clear()
        assert all(result.ok for result in check())
        for name in V1_MEMOS:
            info = getattr(formulas, name).cache_info()
            assert info.misses == info.currsize, name
