"""Cross-path verification engine.

Runs the formula, generating-function, and brute-force paths over a
parameter grid and every internal identity the package promises, producing
one result per named check.  A check aggregates its whole grid: status is
``pass`` only if every cell agreed, and on failure the parameters of the
first offending cell are reported.

The formula path is resolved through the :mod:`palcomp.formulas` module
attributes at call time, so tests can inject a perturbed formula and assert
the harness pinpoints it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from . import formulas
from .bijection import decode_pair, encode_pair, pair_statistics
from .core import binom, fibonacci, tribonacci, tribonacci_identity_sum, tribonacci_prime
from .genfun import gf_catalog, gf_grid, series_table
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    brute_count,
    check_enumeration_cap,
    count_at_most_one_even_part,
    count_parts_at_most,
    count_parts_equal_one,
    count_two_colored_no_ones,
    enumerate_compositions,
)
from .stats import (
    INFINITY,
    CountSpec,
    Family,
    Modulus,
    Sign,
    decode_binary,
    encode_binary,
    format_modulus,
    mismatch_count,
    sign_class,
)

DEFAULT_MODULI: tuple[Modulus, ...] = (1, 2, 3, 4, 5, INFINITY)


class CheckResult(NamedTuple):
    check: str
    status: str  # "pass" | "fail"
    params: dict | None = None
    expected: object = None
    actual: object = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
        }


def _ok(check: str) -> CheckResult:
    return CheckResult(check=check, status="pass")


def _fail(check: str, params: dict, expected, actual) -> CheckResult:
    return CheckResult(check=check, status="fail", params=params, expected=expected, actual=actual)


def _cell_params(family: Family, reduced: bool, sign: Sign, modulus: Modulus, n: int, k: int) -> dict:
    return {
        "family": family.value,
        "reduced": reduced,
        "sign": sign.value,
        "modulus": format_modulus(modulus),
        "n": n,
        "k": k,
    }


def three_path_grid(
    n_max: int = 14,
    k_max: int = 4,
    moduli: Sequence[Modulus] = DEFAULT_MODULI,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CheckResult:
    """formula == generating function == brute force on the whole grid."""
    for family, reduced, sign in itertools.product(Family, (False, True), Sign):
        for modulus in moduli:
            rows = gf_grid(family, reduced, sign, modulus, n_max, k_max)
            for n in range(n_max + 1):
                for k in range(k_max + 1):
                    params = _cell_params(family, reduced, sign, modulus, n, k)
                    try:
                        f = formulas.formula_count(family, reduced, sign, modulus, n, k)
                    except ArithmeticError as error:
                        return _fail("three_path_grid", params, "a count", str(error))
                    g = rows[n][k]
                    b = brute_count(CountSpec(family, reduced, sign, modulus, k), n, cap=cap)
                    if not (f == g == b):
                        return _fail(
                            "three_path_grid",
                            params,
                            {"formula": f, "genfun": g},
                            {"brute": b},
                        )
    return _ok("three_path_grid")


def variant_agreement(
    n_max: int = 14, k_max: int = 4, moduli: Sequence[Modulus] = DEFAULT_MODULI
) -> CheckResult:
    """All published formulas for the same quantity return the same value."""
    finite = [m for m in moduli if m is not INFINITY]
    quantities = [
        ("ac_plus", lambda n, k, v: formulas.ac_plus_k(n, k, v), [None], 3),
        ("pc_plus_mod", formulas.pc_plus_k_mod, finite, 2),
        ("rpc_plus_mod", formulas.rpc_plus_k_mod, finite, 2),
        ("ac_plus_mod", formulas.ac_plus_k_mod, finite, 2),
        ("rac_plus_mod", formulas.rac_plus_k_mod, finite, 2),
    ]
    variants = [formulas.V1, formulas.V2, formulas.V3]
    for name, fn, ms, n_variants in quantities:
        for m in ms:
            for n in range(n_max + 1):
                for k in range(k_max + 1):
                    args = (n, k) if m is None else (n, k, m)
                    values = [fn(*args, variants[v]) for v in range(n_variants)]
                    if len(set(values)) != 1:
                        return _fail(
                            "variant_agreement",
                            {
                                "quantity": name,
                                "modulus": "inf" if m is None else m,
                                "n": n,
                                "k": k,
                            },
                            values[0],
                            values,
                        )
    return _ok("variant_agreement")


def totals_from_plus(
    n_max: int = 14, k_max: int = 4, moduli: Sequence[Modulus] = DEFAULT_MODULI
) -> CheckResult:
    """total(n) == plus(n) + plus(n-1) on the formula path for every family."""
    for family, reduced in itertools.product(Family, (False, True)):
        for modulus in moduli:
            for n in range(n_max + 1):
                for k in range(k_max + 1):
                    total = formulas.formula_count(family, reduced, Sign.TOTAL, modulus, n, k)
                    plus_n = formulas.formula_count(family, reduced, Sign.PLUS, modulus, n, k)
                    plus_prev = (
                        formulas.formula_count(family, reduced, Sign.PLUS, modulus, n - 1, k)
                        if n >= 1
                        else 0
                    )
                    if total != plus_n + plus_prev:
                        return _fail(
                            "totals_from_plus",
                            _cell_params(family, reduced, Sign.TOTAL, modulus, n, k),
                            plus_n + plus_prev,
                            total,
                        )
    return _ok("totals_from_plus")


def reflection_identity(
    n_max: int = 14,
    k_max: int = 4,
    moduli: Sequence[Modulus] = DEFAULT_MODULI,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CheckResult:
    """Brute force: minus(n) == plus(n-1) for every family and modulus."""
    for family, reduced in itertools.product(Family, (False, True)):
        for modulus in moduli:
            for n in range(1, n_max + 1):
                for k in range(k_max + 1):
                    minus = brute_count(CountSpec(family, reduced, Sign.MINUS, modulus, k), n, cap=cap)
                    plus_prev = brute_count(
                        CountSpec(family, reduced, Sign.PLUS, modulus, k), n - 1, cap=cap
                    )
                    if minus != plus_prev:
                        return _fail(
                            "reflection_identity",
                            _cell_params(family, reduced, Sign.MINUS, modulus, n, k),
                            plus_prev,
                            minus,
                        )
    return _ok("reflection_identity")


def statistic_partition(
    n_max: int = 14,
    moduli: Sequence[Modulus] = DEFAULT_MODULI,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CheckResult:
    """The statistics partition the composition space.

    Summing counts over k recovers 2^(n-1) for both families and every
    modulus.
    """
    for modulus in moduli:
        for n in range(n_max + 1):
            expected = 1 if n == 0 else 1 << (n - 1)
            for family in Family:
                acc = sum(
                    brute_count(CountSpec(family, False, Sign.TOTAL, modulus, k), n, cap=cap)
                    for k in range(n // 2 + 1)
                )
                if acc != expected:
                    return _fail(
                        "statistic_partition",
                        {"family": family.value, "modulus": format_modulus(modulus), "n": n},
                        expected,
                        acc,
                    )
    return _ok("statistic_partition")


def reduced_halving(
    n_max: int = 14, k_max: int = 4, cap: int = DEFAULT_ENUMERATION_CAP
) -> CheckResult:
    """Brute force at infinity: reduced PC count * 2^k == PC count."""
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            for sign in Sign:
                reduced = brute_count(CountSpec(Family.PC, True, sign, INFINITY, k), n, cap=cap)
                full = brute_count(CountSpec(Family.PC, False, sign, INFINITY, k), n, cap=cap)
                if reduced << k != full:
                    return _fail(
                        "reduced_halving",
                        _cell_params(Family.PC, True, sign, INFINITY, n, k),
                        full,
                        reduced << k,
                    )
    return _ok("reduced_halving")


def divisibility(n_max: int = 20, k_max: int = 6) -> CheckResult:
    """2^k divides the total mismatch count at infinity (exact swap halving)."""
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            try:
                formulas.rpc_total_k(n, k)
            except ArithmeticError as error:
                return _fail("divisibility", {"n": n, "k": k}, "exact division", str(error))
    return _ok("divisibility")


def tribonacci_identity(n_max: int = 18, cap: int = DEFAULT_ENUMERATION_CAP) -> CheckResult:
    """Triple sum == T(n+1) == compositions of n with parts <= 3."""
    for n in range(n_max + 1):
        lhs = tribonacci_identity_sum(n)
        mid = tribonacci(n + 1)
        rhs = count_parts_at_most(n, 3, cap=cap)
        if not (lhs == mid == rhs):
            return _fail(
                "tribonacci_identity", {"n": n}, mid, {"sum": lhs, "compositions": rhs}
            )
    return _ok("tribonacci_identity")


def sequence_identification(n_max: int = 30) -> CheckResult:
    """Named sequences: plus anti-palindromic counts are shifted tribonacci,
    reduced anti-palindromic counts are Fibonacci, and the three tribonacci
    expressions for the total anti-palindromic count agree."""
    for n in range(n_max + 1):
        if formulas.ac_plus_k(n, 0) != tribonacci_prime(n + 1):
            return _fail(
                "sequence_identification",
                {"quantity": "ac_plus", "n": n},
                tribonacci_prime(n + 1),
                formulas.ac_plus_k(n, 0),
            )
        via_prime = tribonacci_prime(n + 1) + tribonacci_prime(n)
        via_diff = tribonacci(n + 1) - tribonacci(n - 1)
        forms = {"prime": via_prime, "diff": via_diff}
        if n >= 1:
            forms["plain"] = tribonacci(n) + tribonacci(n - 2)
        if len(set(forms.values())) != 1:
            return _fail(
                "sequence_identification", {"quantity": "ac_total_forms", "n": n}, via_prime, forms
            )
        expected_rac = 1 if n == 0 else fibonacci(n)
        if formulas.rac_total_k(n, 0) != expected_rac:
            return _fail(
                "sequence_identification",
                {"quantity": "rac_total", "n": n},
                expected_rac,
                formulas.rac_total_k(n, 0),
            )
        expected_rac_plus = 1 if n == 0 else fibonacci(n - 1)
        if formulas.rac_plus_k(n, 0) != expected_rac_plus:
            return _fail(
                "sequence_identification",
                {"quantity": "rac_plus", "n": n},
                expected_rac_plus,
                formulas.rac_plus_k(n, 0),
            )
    return _ok("sequence_identification")


def parity_vanishing(n_max: int = 20, k_max: int = 6) -> CheckResult:
    """Mod-2 plus counts vanish at odd n-k; k=0 plus counts vanish at odd n for even m."""
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            if (n - k) % 2 and formulas.pc_plus_k_mod(n, k, 2) != 0:
                return _fail(
                    "parity_vanishing",
                    {"quantity": "pc_plus_mod2", "n": n, "k": k},
                    0,
                    formulas.pc_plus_k_mod(n, k, 2),
                )
    for m in (2, 4, 6):
        for n in range(1, n_max + 1, 2):
            if formulas.pc_plus_mod_k0(n, m) != 0:
                return _fail(
                    "parity_vanishing",
                    {"quantity": "pc_plus_k0", "modulus": m, "n": n},
                    0,
                    formulas.pc_plus_mod_k0(n, m),
                )
    return _ok("parity_vanishing")


def special_values(n_max: int = 24) -> CheckResult:
    """The named closed forms match the formula path on their domains."""
    for name in formulas.special_value_names():
        family, reduced, sign, modulus, k = formulas.special_value_cell(name)
        domain = formulas.special_value_domain(name)
        for n in range(n_max + 1):
            if not domain(n):
                continue
            closed = formulas.special_value(name, n)
            direct = formulas.formula_count(family, reduced, sign, modulus, n, k)
            if closed != direct:
                return _fail(
                    "special_values",
                    {"name": name, "n": n},
                    direct,
                    closed,
                )
    return _ok("special_values")


def gf_total_plus_relation(
    n_max: int = 14, k_max: int = 4, moduli: Sequence[Modulus] = DEFAULT_MODULI
) -> CheckResult:
    """Catalog totals equal plus(n) + plus(n-1) coefficientwise."""
    for family, reduced in itertools.product(Family, (False, True)):
        for modulus in moduli:
            plus = series_table(gf_catalog(family, reduced, Sign.PLUS, modulus), n_max, k_max)
            total = series_table(gf_catalog(family, reduced, Sign.TOTAL, modulus), n_max, k_max)
            for n in range(n_max + 1):
                for k in range(k_max + 1):
                    want = plus.coeff(n, k) + (plus.coeff(n - 1, k) if n >= 1 else 0)
                    if total.coeff(n, k) != want:
                        return _fail(
                            "gf_total_plus_relation",
                            _cell_params(family, reduced, Sign.TOTAL, modulus, n, k),
                            want,
                            total.coeff(n, k),
                        )
    return _ok("gf_total_plus_relation")


def rpc_mod2_fibonacci_fold(n_max: int = 24) -> CheckResult:
    """Reduced palindromic plus series at m=2: odd coefficients vanish and the
    even ones interleave the odd-indexed Fibonacci numbers."""
    series = series_table(gf_catalog(Family.PC, True, Sign.PLUS, 2), n_max, 0)
    for n in range(n_max + 1):
        expected = fibonacci(n + 1) if n % 2 == 0 else 0
        if series.coeff(n, 0) != expected:
            return _fail("rpc_mod2_fibonacci_fold", {"n": n}, expected, series.coeff(n, 0))
    return _ok("rpc_mod2_fibonacci_fold")


def truncation_soundness(samples: Iterable[tuple[int, int]] = ((6, 1), (11, 3), (14, 2))) -> CheckResult:
    """Expanding with larger bounds never changes an already-computed coefficient."""
    for family, reduced, sign in itertools.product(Family, (False, True), (Sign.PLUS, Sign.TOTAL)):
        for modulus in (1, 3, INFINITY):
            gf = gf_catalog(family, reduced, sign, modulus)
            for n, k in samples:
                tight = gf.series(n, k).coeff(n, k)
                loose = gf.series(n + 5, k + 3).coeff(n, k)
                if tight != loose:
                    return _fail(
                        "truncation_soundness",
                        _cell_params(family, reduced, sign, modulus, n, k),
                        tight,
                        loose,
                    )
    return _ok("truncation_soundness")


def bijection_round_trip(n_max: int = 14, cap: int = DEFAULT_ENUMERATION_CAP) -> CheckResult:
    """decode(encode(c)) == c on every plus-class composition, the pair statistic
    transports the mismatch count, and image counts per statistic match the
    plus-class closed formula."""
    for n in range(min(n_max, 14) + 1):
        image_by_k: dict[int, set] = {}
        for c in enumerate_compositions(n, cap=cap):
            if sign_class(c) is not Sign.PLUS:
                continue
            pair = encode_pair(c)
            back = decode_pair(pair)
            if back != c:
                return _fail(
                    "bijection_round_trip", {"n": n, "composition": list(c)}, list(c), list(back)
                )
            stats = pair_statistics(pair)
            direct = mismatch_count(c, INFINITY)
            if stats.mismatches != direct or stats.n != n:
                return _fail(
                    "bijection_round_trip",
                    {"n": n, "composition": list(c), "aspect": "statistic"},
                    {"mismatches": direct, "n": n},
                    {"mismatches": stats.mismatches, "n": stats.n},
                )
            image_by_k.setdefault(direct, set()).add((pair.head, pair.tail))
        for k, images in image_by_k.items():
            expected = formulas.pc_plus_k(n, k)
            if len(images) != expected:
                return _fail(
                    "bijection_round_trip",
                    {"n": n, "k": k, "aspect": "cardinality"},
                    expected,
                    len(images),
                )
    return _ok("bijection_round_trip")


def binary_round_trip(n_max: int = 14, cap: int = DEFAULT_ENUMERATION_CAP) -> CheckResult:
    """Binary encoding and decoding invert each other."""
    for n in range(min(n_max, 14) + 1):
        for c in enumerate_compositions(n, cap=cap):
            bits = encode_binary(c)
            if len(bits) != n or decode_binary(bits) != c:
                return _fail("binary_round_trip", {"n": n, "composition": list(c)}, list(c), None)
            if c and bits[-1] != 1:
                return _fail(
                    "binary_round_trip",
                    {"n": n, "composition": list(c), "aspect": "last bit"},
                    1,
                    bits[-1],
                )
    return _ok("binary_round_trip")


def m1_specializations(n_max: int = 20, k_max: int = 6) -> CheckResult:
    """Everything the m=1 and m=2 closed forms promise."""
    for n in range(n_max + 1):
        for k in range(1, k_max + 1):
            for quantity, value in (
                ("pc_plus_mod1", formulas.pc_plus_k_mod(n, k, 1)),
                ("rpc_plus_mod1", formulas.rpc_plus_k_mod(n, k, 1)),
            ):
                if value != 0:
                    return _fail(
                        "m1_specializations", {"quantity": quantity, "n": n, "k": k}, 0, value
                    )
        for k in range(k_max + 1):
            pairs = (
                ("ac_plus_mod1", formulas.ac_plus_k_mod(n, k, 1), formulas.ac_plus_k_mod1(n, k)),
                ("rac_plus_mod1", formulas.rac_plus_k_mod(n, k, 1), formulas.rac_plus_k_mod1(n, k)),
                ("rac_total_mod1", formulas.rac_total_k_mod(n, k, 1), formulas.rac_total_k_mod1(n, k)),
                ("ac_total_mod1_binom", formulas.ac_total_k_mod(n, k, 1), binom(n, 2 * k)),
                ("pc_plus_mod2", formulas.pc_plus_k_mod(n, k, 2), formulas.pc_plus_k_mod2(n, k)),
                ("rpc_plus_mod2", formulas.rpc_plus_k_mod(n, k, 2), formulas.rpc_plus_k_mod2(n, k)),
            )
            for quantity, general, specialized in pairs:
                if general != specialized:
                    return _fail(
                        "m1_specializations",
                        {"quantity": quantity, "n": n, "k": k},
                        specialized,
                        general,
                    )
        singles = [
            ("rpc_plus_1_mod2", formulas.rpc_plus_k_mod(n, 1, 2), formulas.rpc_plus_1_mod2_odd(n)),
            (
                "pc_total_mod1",
                formulas.formula_count(Family.PC, False, Sign.TOTAL, 1, n, 0),
                1 if n == 0 else 1 << (n - 1),
            ),
        ]
        if n != 1:  # the m=2, k=1 closed form starts at n=3
            singles.append(
                ("pc_plus_1_mod2", formulas.pc_plus_k_mod(n, 1, 2), formulas.pc_plus_1_mod2_odd(n))
            )
        for quantity, general, specialized in singles:
            if general != specialized:
                return _fail(
                    "m1_specializations", {"quantity": quantity, "n": n}, specialized, general
                )
    return _ok("m1_specializations")


def coloring_interpretations(n_max: int = 16, cap: int = DEFAULT_ENUMERATION_CAP) -> CheckResult:
    """Numeric identities with other composition families.

    The plus count at m=1, k=0 equals the two-colored count of compositions
    without ones, and the reduced anti-palindromic count at k=1 equals the
    number of compositions of n-2 with at most one even part.
    """
    for n in range(n_max + 1):
        lhs = formulas.pc_plus_mod_k0(n, 1)
        rhs = count_two_colored_no_ones(n, cap=cap)
        if lhs != rhs:
            return _fail(
                "coloring_interpretations", {"quantity": "two_colored", "n": n}, rhs, lhs
            )
    for n in range(2, n_max + 1):
        lhs = formulas.rac_total_k(n, 1)
        rhs = count_at_most_one_even_part(n - 2, cap=cap)
        if lhs != rhs:
            return _fail(
                "coloring_interpretations", {"quantity": "one_even_part", "n": n}, rhs, lhs
            )
    return _ok("coloring_interpretations")


def parts_equal_one(n_max: int = 18, k_max: int = 5, cap: int = DEFAULT_ENUMERATION_CAP) -> CheckResult:
    """Reduced anti-palindromic plus counts equal counts of compositions of
    n-k with exactly k parts equal to 1."""
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            if n - k < 0:
                continue
            lhs = formulas.rac_plus_k(n, k)
            rhs = count_parts_equal_one(n - k, k, cap=cap)
            if lhs != rhs:
                return _fail("parts_equal_one", {"n": n, "k": k}, rhs, lhs)
    return _ok("parts_equal_one")


def run_all(
    n_max: int = 14,
    k_max: int = 4,
    moduli: Sequence[Modulus] = DEFAULT_MODULI,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[CheckResult]:
    """Run every check.

    Checks backed by exhaustive enumeration scale with the requested grid;
    formula-only and series-only identities always run over their full fixed
    ranges (they are cheap and their ranges are part of the contract).  A
    grid that would enumerate past the cap raises EnumerationCapError before
    any check runs.  An exception escaping a check (a failed exact division,
    say) is reported as that check failing rather than aborting the run.
    """
    small_n = min(n_max, 14)
    deep_n = min(n_max + 4, 18)
    # each enumerating check walks n upward, to max(n_max, deep_n) at most
    check_enumeration_cap(max(n_max, deep_n), cap)
    planned = [
        ("three_path_grid", lambda: three_path_grid(n_max, k_max, moduli, cap)),
        ("variant_agreement", lambda: variant_agreement(n_max, k_max, moduli)),
        ("totals_from_plus", lambda: totals_from_plus(n_max, k_max, moduli)),
        ("reflection_identity", lambda: reflection_identity(n_max, k_max, moduli, cap)),
        ("statistic_partition", lambda: statistic_partition(n_max, moduli, cap)),
        ("reduced_halving", lambda: reduced_halving(small_n, k_max, cap)),
        ("divisibility", lambda: divisibility(20, 6)),
        ("tribonacci_identity", lambda: tribonacci_identity(deep_n, cap)),
        ("sequence_identification", lambda: sequence_identification(30)),
        ("parity_vanishing", lambda: parity_vanishing(20, 6)),
        ("special_values", lambda: special_values(24)),
        ("gf_total_plus_relation", lambda: gf_total_plus_relation(n_max, k_max, moduli)),
        ("rpc_mod2_fibonacci_fold", lambda: rpc_mod2_fibonacci_fold(24)),
        ("truncation_soundness", lambda: truncation_soundness()),
        ("bijection_round_trip", lambda: bijection_round_trip(small_n, cap)),
        ("binary_round_trip", lambda: binary_round_trip(small_n, cap)),
        ("m1_specializations", lambda: m1_specializations(20, 6)),
        ("coloring_interpretations", lambda: coloring_interpretations(min(n_max + 2, 16), cap)),
        ("parts_equal_one", lambda: parts_equal_one(deep_n, 5, cap)),
    ]
    results = []
    for name, check in planned:
        try:
            results.append(check())
        except ArithmeticError as error:
            results.append(_fail(name, {}, "no internal errors", str(error)))
    return results
