"""Cross-path verification engine.

Runs the formula, generating-function, and brute-force paths over a
parameter grid and every internal identity the package promises, producing
one result per named check.  Each check is written as a generator of cells
``(params, expected, actual)``, and one walker, :func:`_check`, turns it into
the public check.  The walker tests each cell for agreement, with ``==``
unless the check passes another test, and stops at the first cell that
disagrees: status is ``pass`` only if every cell agreed, and a failure
reports that cell's params, expected and actual values.  The walker also
turns an internal ``ArithmeticError`` into the check's failing result.  Each
cell holds on its own, so no verdict depends on where the walker stops.
Before the first cell, the walker refuses a bad request by
:func:`_check_request`, as :func:`run_all`, the one holder of the default
request, does before the first check.

Work is paid per block, not per cell.  :func:`three_path_grid` reads each
of its three legs as one grid per block: ``formula_grid``, ``gf_grid`` and
``brute_grid``.  Only when a block's formula grid raises does it read that
block again cell by cell through ``formula_count``, so the report names the
first raising cell in n-major order, not the first one the k-major grid
reached.  The other brute-force checks read their counts as grids too, one
per block or sign, before their first cell.  The two round-trip
checks compare tuples and ints and yield a cell only when it disagrees.
Since the walker stops at the first cell yielded that disagrees, and every
agreeing cell it no longer sees would have passed, it stops at the same
cell with the same report.

The named closed forms live in ``formulas.SPECIAL_VALUES``, and
:func:`special_values` checks each row on the formula path (n <= 24) and the
GF path (n <= 200).  Two checks still write a closed form of a family count
inline: :func:`statistic_partition` and :func:`m1_specializations` compare
with 2^(n-1), and :func:`m1_specializations` with C(n, 2k).  They wait for
rows that take k (ROADMAP item 8).  The m = 2 single-n rows are left to
:func:`special_values`, which reads each row on both paths.

The formula path, including the functions that the rows of
``formulas._PLUS_FORMULAS`` name, is resolved through the
:mod:`palcomp.formulas` module attributes at call time, so tests can inject
a perturbed formula and assert the harness pinpoints it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from . import formulas
from .bijection import decode_pair, encode_pair, pair_statistics
from .core import binom, tribonacci, tribonacci_identity_sum
from .genfun import ONE, Q, gf_catalog, gf_grid
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    brute_grid,
    check_enumeration_cap,
    count_at_most_one_even_part,
    count_parts_at_most,
    count_parts_equal_one,
    count_two_colored_no_ones,
    enumerate_compositions,
)
from .stats import (
    INFINITY,
    Family,
    Modulus,
    Sign,
    check_index,
    check_modulus,
    decode_binary,
    encode_binary,
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


_Cells = Iterator[tuple]  # one (params, expected, actual) per cell, read by _check


def _check(cells=None, *, agree=operator.eq):
    """Turn a cell generator into the check of its name and arguments, which fails
    at the first cell where ``agree(expected, actual)`` is false, or at an ArithmeticError."""
    if cells is None:
        return functools.partial(_check, agree=agree)

    @functools.wraps(cells)
    def check(*args, **kwargs) -> CheckResult:
        _check_request(**dict(zip(cells.__code__.co_varnames, args), **kwargs))
        try:
            for params, expected, actual in cells(*args, **kwargs):
                if not agree(expected, actual):
                    return CheckResult(cells.__name__, "fail", params, expected, actual)
        except ArithmeticError as error:
            return CheckResult(cells.__name__, "fail", {}, "no internal errors", str(error))
        return CheckResult(cells.__name__, "pass")

    return check


def _check_request(**request) -> None:
    """Refuse a request on which a check would read no cell or stop partway: n_max and
    k_max must be counts, and moduli a nonempty sequence of moduli, as each check rereads it."""
    for name in ("n_max", "k_max"):
        if name in request:
            check_index(request[name], name)
    if "moduli" in request:
        moduli = request["moduli"]
        if not isinstance(moduli, Sequence):
            raise TypeError(f"moduli must be a sequence, got {type(moduli).__name__}")
        if not moduli:
            raise ValueError("moduli must name at least one modulus, got none")
        for modulus in moduli:
            check_modulus(modulus)


def _all_equal(expected, actual) -> bool:
    """Agreement of every value in a cell; a dict or a list stands for its values."""
    values = set()
    for side in (expected, actual):
        if isinstance(side, dict):
            side = list(side.values())
        values.update(side if isinstance(side, list) else [side])
    return len(values) == 1


def _grid(signs: Iterable[Sign], moduli: Iterable[Modulus], points: Iterable[tuple[int, int]]):
    """Yield each block (family, reduced, sign, modulus), both families plain and
    reduced, with its cells: ``(n, k, params)`` for each (n, k) in ``points``."""
    points = list(points)
    for family, reduced, sign, modulus in itertools.product(Family, (False, True), signs, moduli):
        block = {"family": family.value, "reduced": reduced, "sign": sign.value,
                 "modulus": str(modulus)}
        cells = [(n, k, {**block, "n": n, "k": k}) for n, k in points]
        yield (family, reduced, sign, modulus), cells


def _named(name: str, n: int) -> int | None:
    """The closed form of ``formulas.SPECIAL_VALUES[name]`` at n, or None off its domain."""
    row = formulas.SPECIAL_VALUES[name]
    return row.closed_form(n) if row.domain(n) else None


def _box(n_max: int, k_max: int, n_min: int = 0) -> Iterator[tuple[int, int]]:
    return itertools.product(range(n_min, n_max + 1), range(k_max + 1))


@_check(agree=_all_equal)
def three_path_grid(n_max: int, k_max: int, moduli: Sequence[Modulus],
                    cap: int = DEFAULT_ENUMERATION_CAP) -> _Cells:
    """formula == generating function == brute force on the whole grid."""
    ns, ks = range(n_max + 1), range(k_max + 1)
    for block, cells in _grid(Sign, moduli, _box(n_max, k_max)):
        rows = gf_grid(*block, ns, ks)
        try:
            formula_rows = formulas.formula_grid(*block, ns, ks)
        except ArithmeticError:  # read the block cell by cell, n-major, to name the raising cell
            formula_rows = None
        # last: pair records built before formulas' lazy compile raise peak RSS (~0.15 MiB)
        brute_rows = brute_grid(*block, ns, ks, cap)
        for n, k, params in cells:
            try:
                if formula_rows is None:
                    f = formulas.formula_count(*block, n, k)
                else:
                    f = formula_rows[n][k]
            except ArithmeticError as error:
                yield params, "a count", str(error)
            else:
                yield params, {"formula": f, "genfun": rows[n][k]}, {"brute": brute_rows[n][k]}


@_check(agree=_all_equal)
def variant_agreement(n_max: int, k_max: int, moduli: Sequence[Modulus]) -> _Cells:
    """All published formulas for the same quantity return the same value."""
    finite = [m for m in moduli if m is not INFINITY]
    for (_, _, is_finite), row in formulas._PLUS_FORMULAS.items():
        if len(row.variants) < 2:
            continue
        fn = getattr(formulas, row.plus)
        name = row.plus.replace("_k", "")  # ac_plus_k_mod reports as ac_plus_mod
        row_moduli = finite if is_finite else [m for m in moduli if m is INFINITY]
        for m, (n, k) in itertools.product(row_moduli, _box(n_max, k_max)):
            args = (n, k, m) if is_finite else (n, k)
            values = [fn(*args, v) for v in row.variants]
            params = {"quantity": name, "modulus": m if is_finite else str(m), "n": n, "k": k}
            yield params, values[0], values
    # the k = 0 specializations against the general formula at k = 0
    for name, special, general in (
        ("pc_plus_mod_k0", formulas.pc_plus_mod_k0, formulas.pc_plus_k_mod),
        ("rpc_plus_mod_k0", formulas.rpc_plus_mod_k0, formulas.rpc_plus_k_mod),
    ):
        for m, n in itertools.product(finite, range(n_max + 1)):
            values = [special(n, m), general(n, 0, m)]
            yield {"quantity": name, "modulus": m, "n": n, "k": 0}, values[0], values


@_check
def totals_from_plus(n_max: int, k_max: int, moduli: Sequence[Modulus]) -> _Cells:
    """Each direct total formula that a row of formulas._PLUS_FORMULAS names
    equals plus(n) + plus(n-1) of the row's plus formula, at every modulus of
    the row's block."""
    for (family, reduced, _, modulus), cells in _grid((Sign.TOTAL,), moduli, _box(n_max, k_max)):
        finite = modulus is not INFINITY
        row = formulas._PLUS_FORMULAS[family, reduced, finite]
        if row.direct_total:
            direct, plus = getattr(formulas, row.direct_total), getattr(formulas, row.plus)
            args = (modulus,) if finite else ()
            for n, k, params in cells:
                yield params, formulas.total_from_plus(plus, n, k, *args), direct(n, k, *args)


@_check
def reflection_identity(n_max: int, k_max: int, moduli: Sequence[Modulus],
                        cap: int = DEFAULT_ENUMERATION_CAP) -> _Cells:
    """Brute force: minus(n) == plus(n-1) for every family and modulus."""
    ks = range(k_max + 1)
    for (family, reduced, _, modulus), cells in _grid((Sign.MINUS,), moduli, _box(n_max, k_max, 1)):
        # row n - 1 of each grid: minus at n and plus at n - 1
        minus = brute_grid(family, reduced, Sign.MINUS, modulus, range(1, n_max + 1), ks, cap)
        plus = brute_grid(family, reduced, Sign.PLUS, modulus, range(n_max), ks, cap)
        for n, k, params in cells:
            yield params, plus[n - 1][k], minus[n - 1][k]


@_check
def statistic_partition(n_max: int, moduli: Sequence[Modulus],
                        cap: int = DEFAULT_ENUMERATION_CAP) -> _Cells:
    """The statistics partition the composition space.

    Summing counts over k recovers 2^(n-1) for both families and every
    modulus.
    """
    ns, ks = range(n_max + 1), range(n_max // 2 + 1)  # a cell with 2k > n is 0
    for modulus in moduli:
        sums = {family: list(map(sum, brute_grid(family, False, Sign.TOTAL, modulus, ns, ks, cap)))
                for family in Family}
        for n, family in itertools.product(ns, Family):
            params = {"family": family.value, "modulus": str(modulus), "n": n}
            yield params, 1 if n == 0 else 1 << (n - 1), sums[family][n]


@_check
def reduced_halving(n_max: int, k_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> _Cells:
    """Brute force at infinity: reduced PC count * 2^k == PC count."""
    ns, ks = range(n_max + 1), range(k_max + 1)
    grids = {(sign, reduced): brute_grid(Family.PC, reduced, sign, INFINITY, ns, ks, cap)
             for sign in Sign for reduced in (False, True)}
    for n, k, sign in itertools.product(ns, ks, Sign):
        params = {"family": "pc", "reduced": True, "sign": sign.value, "modulus": "inf",
                  "n": n, "k": k}
        yield params, grids[sign, False][n][k], grids[sign, True][n][k] << k


@_check
def divisibility() -> _Cells:
    """2^k divides the total mismatch count at infinity (exact swap halving)."""
    for n, k in _box(20, 6):
        try:
            formulas.rpc_total_k(n, k)
        except ArithmeticError as error:
            yield {"n": n, "k": k}, "exact division", str(error)


@_check(agree=_all_equal)
def tribonacci_identity(n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> _Cells:
    """Triple sum == T(n+1) == compositions of n with parts <= 3."""
    for n in range(n_max + 1):
        lhs = tribonacci_identity_sum(n)
        mid = tribonacci(n + 1)
        yield {"n": n}, mid, {"sum": lhs, "compositions": count_parts_at_most(n, 3, cap=cap)}


@_check(agree=_all_equal)
def sequence_identification() -> _Cells:
    """Named sequences: plus anti-palindromic counts are shifted tribonacci,
    reduced anti-palindromic counts are Fibonacci, and the three tribonacci
    expressions for the total anti-palindromic count agree."""
    forms = {"prime": "AC_TOTAL_TRIB_PRIME", "diff": "AC_TOTAL_TRIB_DIFF", "plain": "AC_TOTAL_TRIB"}
    for n in range(31):
        ac_plus = _named("AC_PLUS_TRIB_PRIME", n)
        yield {"quantity": "ac_plus", "n": n}, ac_plus, formulas.ac_plus_k(n, 0)
        values = {form: v for form, name in forms.items() if (v := _named(name, n)) is not None}
        yield {"quantity": "ac_total_forms", "n": n}, values["prime"], values
        yield {"quantity": "rac_total", "n": n}, _named("RAC_FIB", n), formulas.rac_total_k(n, 0)
        yield {"quantity": "rac_plus", "n": n}, _named("RAC_PLUS_FIB", n), formulas.rac_plus_k(n, 0)


@_check
def parity_vanishing() -> _Cells:
    """Mod-2 plus counts vanish at odd n-k; k=0 plus counts vanish at odd n for even m."""
    for n, k in _box(20, 6):
        if (n - k) % 2:
            yield {"quantity": "pc_plus_mod2", "n": n, "k": k}, 0, formulas.pc_plus_k_mod(n, k, 2)
    for m, n in itertools.product((2, 4, 6), range(1, 21, 2)):
        yield {"quantity": "pc_plus_k0", "modulus": m, "n": n}, 0, formulas.pc_plus_mod_k0(n, m)


@_check(agree=_all_equal)
def special_values() -> _Cells:
    """Each row of formulas.SPECIAL_VALUES matches, on its domain, the formula
    path up to n = 24 and the GF path up to n = 200, one request per path and row."""
    for name, row in sorted(formulas.SPECIAL_VALUES.items()):
        *block, k = row.cell
        rows = gf_grid(*block, range(201), [k])
        formula_rows = formulas.formula_grid(*block, range(25), [k])
        for n in filter(row.domain, range(201)):
            legs = {"formula": formula_rows[n][0]} if n <= 24 else {}
            yield {"name": name, "n": n}, {**legs, "genfun": rows[n][0]}, row.closed_form(n)


@_check
def gf_total_plus_relation(moduli: Sequence[Modulus]) -> _Cells:
    """Each total the paper displays, T, is (1 + q) times its block's plus entry
    P, at every n and k: T.num * P.den == (1 + q) * P.num * T.den exactly, one
    cell per term.  A block without a displayed total has no total entry."""
    for family, reduced, modulus in itertools.product(Family, (False, True), moduli):
        try:
            total = gf_catalog(family, reduced, Sign.TOTAL, modulus)
        except KeyError:
            continue
        plus = gf_catalog(family, reduced, Sign.PLUS, modulus)
        lhs = total.numerator * plus.denominator
        rhs = (ONE + Q) * plus.numerator * total.denominator
        block = dict(family=family.value, reduced=reduced, sign="total", modulus=str(modulus))
        for p, s in sorted({(p, s) for poly in (lhs, rhs) for p, s, _ in poly.terms()}):
            yield {**block, "q_degree": p, "t_degree": s}, rhs.coeff(p, s), lhs.coeff(p, s)


@_check
def rpc_mod2_fibonacci_fold() -> _Cells:
    """Reduced palindromic plus series at m=2: odd coefficients vanish and the
    even ones interleave the odd-indexed Fibonacci numbers."""
    rows = gf_grid(Family.PC, True, Sign.PLUS, 2, range(25), [0])
    for n in range(25):
        yield {"n": n}, _named("RPC_PLUS_MOD2_FIB", n), rows[n][0]


@_check
def truncation_soundness() -> _Cells:
    """A cell read alone equals the same cell read from the request of every
    n' <= n + 5 and k' <= k + 3: larger bounds never change a coefficient."""
    samples = ((6, 1), (11, 3), (14, 2))
    for block, cells in _grid((Sign.PLUS, Sign.TOTAL), (1, 3, INFINITY), samples):
        for n, k, params in cells:
            wide = gf_grid(*block, range(n + 6), range(k + 4))
            yield params, gf_grid(*block, [n], [k])[0][0], wide[n][k]


@_check
def bijection_round_trip(n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> _Cells:
    """decode(encode(c)) == c on every plus-class composition, the pair statistic
    transports the mismatch count, and image counts per statistic match the
    plus-class closed formula.  The cardinality cells of n count compositions,
    so they are yielded only if every round trip of n held: then encode is
    injective on n, each composition is one image, and memory stays flat in n."""
    for n in range(n_max + 1):
        count_by_k: dict[int, int] = {}
        round_trips = True
        for c in enumerate_compositions(n, cap=cap):
            if sign_class(c) is not Sign.PLUS:
                continue
            pair = encode_pair(c)
            decoded = decode_pair(pair)
            if decoded != c:
                round_trips = False
                yield {"n": n, "composition": list(c)}, list(c), list(decoded)
            got = pair_statistics(pair)
            direct = mismatch_count(c, INFINITY)
            if (direct, n) != (got.mismatches, got.n):
                params = {"n": n, "composition": list(c), "aspect": "statistic"}
                expected = {"mismatches": direct, "n": n}
                yield params, expected, {"mismatches": got.mismatches, "n": got.n}
            count_by_k[direct] = count_by_k.get(direct, 0) + 1
        if round_trips:
            for k, count in count_by_k.items():
                yield {"n": n, "k": k, "aspect": "cardinality"}, formulas.pc_plus_k(n, k), count


@_check
def binary_round_trip(n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> _Cells:
    """Binary encoding and decoding invert each other."""
    for n in range(n_max + 1):
        for c in enumerate_compositions(n, cap=cap):
            bits = encode_binary(c)
            if len(bits) != n or decode_binary(bits) != c:
                yield {"n": n, "composition": list(c)}, list(c), None
            if c and bits[-1] != 1:
                yield {"n": n, "composition": list(c), "aspect": "last bit"}, 1, bits[-1]


@_check
def m1_specializations() -> _Cells:
    """The m=1 and m=2 specializations agree with the general formulas; the
    m=2 single-n closed forms are rows that special_values checks."""
    f = formulas
    for n in range(21):
        for k in range(1, 7):
            yield {"quantity": "pc_plus_mod1", "n": n, "k": k}, 0, f.pc_plus_k_mod(n, k, 1)
            yield {"quantity": "rpc_plus_mod1", "n": n, "k": k}, 0, f.rpc_plus_k_mod(n, k, 1)
        for k in range(7):
            pairs = (
                ("ac_plus_mod1", f.ac_plus_k_mod(n, k, 1), f.ac_plus_k_mod1(n, k)),
                ("rac_plus_mod1", f.rac_plus_k_mod(n, k, 1), f.rac_plus_k_mod1(n, k)),
                ("rac_total_mod1", f.rac_total_k_mod(n, k, 1), f.rac_total_k_mod1(n, k)),
                ("ac_total_mod1_binom", f.ac_total_k_mod(n, k, 1), binom(n, 2 * k)),
                ("pc_plus_mod2", f.pc_plus_k_mod(n, k, 2), f.pc_plus_k_mod2(n, k)),
                ("rpc_plus_mod2", f.rpc_plus_k_mod(n, k, 2), f.rpc_plus_k_mod2(n, k)),
            )
            for quantity, general, specialized in pairs:
                yield {"quantity": quantity, "n": n, "k": k}, specialized, general
        total = f.formula_count(Family.PC, False, Sign.TOTAL, 1, n, 0)
        yield {"quantity": "pc_total_mod1", "n": n}, 1 if n == 0 else 1 << (n - 1), total


@_check
def coloring_interpretations(n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> _Cells:
    """Numeric identities with other composition families.

    The plus count at m=1, k=0 equals the two-colored count of compositions
    without ones, and the reduced anti-palindromic count at k=1 equals the
    number of compositions of n-2 with at most one even part.
    """
    for n in range(n_max + 1):
        lhs = formulas.pc_plus_mod_k0(n, 1)
        yield {"quantity": "two_colored", "n": n}, count_two_colored_no_ones(n, cap=cap), lhs
    for n in range(2, n_max + 1):
        lhs = formulas.rac_total_k(n, 1)
        rhs = count_at_most_one_even_part(n - 2, cap=cap)
        yield {"quantity": "one_even_part", "n": n}, rhs, lhs


@_check
def parts_equal_one(n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> _Cells:
    """Reduced anti-palindromic plus counts equal counts of compositions of
    n-k with exactly k <= 5 parts equal to 1."""
    for n, k in _box(n_max, 5):
        if n - k >= 0:
            lhs = formulas.rac_plus_k(n, k)
            yield {"n": n, "k": k}, count_parts_equal_one(n - k, k, cap=cap), lhs


def run_all(n_max: int = 14, k_max: int = 4, moduli: Sequence[Modulus] = DEFAULT_MODULI,
            cap: int = DEFAULT_ENUMERATION_CAP) -> list[CheckResult]:
    """Run every check.  Six read the request as given: three_path_grid,
    variant_agreement, totals_from_plus, reflection_identity,
    statistic_partition and gf_total_plus_relation.  Six enumerating identities
    read n ranges scaled from n_max, and the seven others take no arguments:
    their fixed ranges are the code (cheap, and part of the contract).  A bad
    request, or a grid that would enumerate past the cap, is refused before any
    check runs."""
    _check_request(n_max=n_max, k_max=k_max, moduli=moduli)
    small_n = min(n_max, 14)
    deep_n = min(n_max + 4, 18)
    # each enumerating check walks n upward, to max(n_max, deep_n) at most
    check_enumeration_cap(range(max(n_max, deep_n) + 1), cap)
    # (check, *args), built per call: each row runs what the module name is bound to now
    planned = [
        (three_path_grid, n_max, k_max, moduli, cap),
        (variant_agreement, n_max, k_max, moduli),
        (totals_from_plus, n_max, k_max, moduli),
        (reflection_identity, n_max, k_max, moduli, cap),
        (statistic_partition, n_max, moduli, cap),
        (reduced_halving, small_n, k_max, cap),
        (divisibility,),
        (tribonacci_identity, deep_n, cap),
        (sequence_identification,),
        (parity_vanishing,),
        (special_values,),
        (gf_total_plus_relation, moduli),
        (rpc_mod2_fibonacci_fold,),
        (truncation_soundness,),
        (bijection_round_trip, small_n, cap),
        (binary_round_trip, small_n, cap),
        (m1_specializations,),
        (coloring_interpretations, min(n_max + 2, 16), cap),
        (parts_equal_one, deep_n, cap),
    ]
    return [check(*args) for check, *args in planned]
