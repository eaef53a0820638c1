"""The cross-path harness itself: green on shipped code, red under mutation."""

import pytest

from palcomp import formulas, verify
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
    honest = verify.brute_count
    target = (Family.AC, True, Sign.MINUS, 3, 1, 6)

    def corrupted(spec, n, cap=DEFAULT_ENUMERATION_CAP):
        value = honest(spec, n, cap)
        cell = (spec.family, spec.reduced, spec.sign, spec.modulus, spec.k, n)
        return value + 1 if cell == target else value

    monkeypatch.setattr(verify, "brute_count", corrupted)
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


@pytest.mark.parametrize(
    "check",
    [
        verify.reflection_identity,
        verify.totals_from_plus,
        verify.gf_total_plus_relation,
    ],
)
def test_individual_grid_checks(check):
    assert check(n_max=8, k_max=2, moduli=(1, 3, INFINITY)).ok


def test_individual_fixed_checks():
    assert verify.divisibility(14, 4).ok
    assert verify.tribonacci_identity(12).ok
    assert verify.sequence_identification(18).ok
    assert verify.parity_vanishing(12, 4).ok
    assert verify.special_values(16).ok
    assert verify.rpc_mod2_fibonacci_fold(16).ok
    assert verify.truncation_soundness([(5, 1)]).ok
    assert verify.bijection_round_trip(9).ok
    assert verify.binary_round_trip(9).ok
    assert verify.m1_specializations(12, 4).ok
    assert verify.coloring_interpretations(10).ok
    assert verify.parts_equal_one(12, 4).ok
    assert verify.statistic_partition(8, (2, INFINITY)).ok
    assert verify.reduced_halving(10, 3).ok


def test_cap_is_checked_before_any_check_runs():
    # n_max fits the cap, but tribonacci_identity and parts_equal_one reach n = 10
    with pytest.raises(EnumerationCapError, match="compositions of n=9: enumeration cap is 8"):
        verify.run_all(n_max=6, k_max=1, moduli=(2,), cap=8)
    verify.run_all(n_max=6, k_max=1, moduli=(2,), cap=10)
