"""The benchmark's workloads: which palcomp CLI commands one pass runs, and
how their output is checked.

A workload turns a seed into a list of jobs.  A job is one or more CLI
commands (argument lists for ``palcomp``) and a check that reads their
standard output, compares every value against a second path, and returns
how many values it verified.  A check raises ``CheckFailed`` on any
mismatch or malformed output.

The seed picks cells stratified over family x reduced x sign x modulus, so
that every seed does comparable work: it deals signs among cells of similar
cost and leaves the costliest cells where they are.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

FAMILIES = ("pc", "ac")
SIGNS = ("plus", "minus", "total")
MODULI = ("1", "2", "3", "4", "5", "inf")

# The 19 checks `palcomp verify` runs; each must be reported and pass.
VERIFY_CHECKS = (
    "three_path_grid",
    "variant_agreement",
    "totals_from_plus",
    "reflection_identity",
    "statistic_partition",
    "reduced_halving",
    "divisibility",
    "tribonacci_identity",
    "sequence_identification",
    "parity_vanishing",
    "special_values",
    "gf_total_plus_relation",
    "rpc_mod2_fibonacci_fold",
    "truncation_soundness",
    "bijection_round_trip",
    "binary_round_trip",
    "m1_specializations",
    "coloring_interpretations",
    "parts_equal_one",
)

# grid: the extent of every table.  At n = 40 the formula path of the
# costliest stratum (ac, modulus 1, total) answers in about a second, so no
# single command dwarfs the rest of the pass, while computing still outweighs
# starting the interpreter.
GRID_N_MAX = 40
GRID_K_MAX = 8

# deep: an export reaches arguments n up to about DEEP_N, so a record with
# stride 2 exports half as many terms.  The exports are fixed: records differ
# in series cost by up to 3x at equal depth, so letting the seed choose them
# would move the total.  They cover both families, plain and reduced, plus
# and total, moduli 1, 2 and inf, and a triangle read at a fixed k.  Entries
# are (id, stride, formula terms, --k for a triangle or None); the formula
# path exports the whole column of the modulus-free records and the first
# FORMULA_PREFIX terms of the others, whose formula path is slow at that
# depth.
DEEP_N = 400
FORMULA_PREFIX = 40
DEEP_EXPORTS = (
    ("A025192", 2, FORMULA_PREFIX, None),  # pc, plus, modulus 2
    ("A036799", 2, DEEP_N // 2, None),  # pc, plus, inf
    ("A028495", 1, FORMULA_PREFIX, None),  # rpc, total, modulus 1
    ("A002620", 1, FORMULA_PREFIX, None),  # ac, plus, modulus 1
    ("A324969", 1, DEEP_N, None),  # rac, total, inf
    ("A105422", 1, DEEP_N, "2"),  # rac, plus, inf, triangle at k = 2
)
# Single count cells at large n, in the strata whose formula path stays
# affordable there (modulus-free pc, rpc and rac), so both paths answer.
# The seed deals the signs and picks n.
DEEP_COUNT_STRATA = (("pc", False), ("pc", True), ("ac", True))
DEEP_COUNT_N = (1800, 2000)
DEEP_COUNT_K = 2


class CheckFailed(Exception):
    """A command's output is malformed or disagrees with its second path."""


@dataclass(frozen=True)
class Job:
    commands: tuple[tuple[str, ...], ...]
    check: Callable[[list[str]], int]


def _cell_args(family: str, reduced: bool, sign: str, modulus: str) -> list[str]:
    return ["--family", family, *(["--reduced"] if reduced else []),
            "--sign", sign, "--mod", modulus]


def _integers(text: str, what: str) -> list[int]:
    try:
        return [int(token) for token in text.split()]
    except ValueError:
        raise CheckFailed(f"{what}: non-integer value in output") from None


def _check_table(n_max: int, k_max: int, outputs: list[str]) -> int:
    """Both methods print the same well-formed TSV grid."""
    gf, formula = outputs
    lines = gf.splitlines()
    header = "\t".join(["n"] + [f"k={k}" for k in range(k_max + 1)])
    if len(lines) != n_max + 2 or lines[0] != header:
        raise CheckFailed("table: wrong shape")
    for n, line in enumerate(lines[1:]):
        row = _integers(line, "table")
        if len(row) != k_max + 2 or row[0] != n or min(row) < 0:
            raise CheckFailed(f"table: malformed row {n}")
    if gf != formula:
        raise CheckFailed("table: gf and formula grids differ")
    return 2 * (n_max + 1) * (k_max + 1)


def _check_bfile(terms: int, outputs: list[str]) -> int:
    """The formula export equals the first lines of the series export."""
    gf, formula = (out.splitlines() for out in outputs)
    if len(gf) != terms + 1:
        raise CheckFailed("sequence: wrong number of terms")
    for idx, line in enumerate(gf):
        pair = _integers(line, "sequence")
        if len(pair) != 2 or pair[0] != idx or pair[1] < 0:
            raise CheckFailed(f"sequence: malformed line {idx}")
    if not formula or formula != gf[: len(formula)]:
        raise CheckFailed("sequence: formula prefix differs from the gf export")
    return len(gf) + len(formula)


def _check_count(outputs: list[str]) -> int:
    values = [_integers(out, "count") for out in outputs]
    if any(len(v) != 1 or v[0] < 0 for v in values):
        raise CheckFailed("count: expected one nonnegative integer")
    if values[0] != values[1]:
        raise CheckFailed("count: gf and formula values differ")
    return 2


def _check_verify(report: str, outputs: list[str]) -> int:
    """Every check is reported and passes; the 19 known checks are all there."""
    (out,) = outputs
    if report == "json":
        try:
            verdicts = {r["check"]: r["status"] for r in json.loads(out)}
        except (ValueError, KeyError, TypeError):
            raise CheckFailed("verify: unreadable JSON report") from None
    else:
        verdicts = {}
        for line in out.splitlines():
            status, _, rest = line.partition(" ")
            verdicts[rest.split(" ")[0]] = {"PASS": "pass", "FAIL": "fail"}.get(status)
    missing = set(VERIFY_CHECKS) - set(verdicts)
    if missing:
        raise CheckFailed(f"verify: checks not reported: {', '.join(sorted(missing))}")
    failing = sorted(name for name, status in verdicts.items() if status != "pass")
    if failing:
        raise CheckFailed(f"verify: checks not passing: {', '.join(failing)}")
    return len(verdicts)


def grid(rng: random.Random) -> list[Job]:
    """Three tables per family x reduced group, each through gf and formula.

    Modulus 1 always takes total, the costliest cell of the group, so the
    slowest command of a pass is the same stratum for every seed.  The seed
    picks one modulus of {2, 3} and one of {4, 5, inf} and deals them plus
    and minus.
    """
    jobs = []
    for family in FAMILIES:
        for reduced in (False, True):
            signs = ["plus", "minus"]
            rng.shuffle(signs)
            cells = [("1", "total"), (rng.choice(MODULI[1:3]), signs[0]),
                     (rng.choice(MODULI[3:]), signs[1])]
            for modulus, sign in cells:
                table = ("table", *_cell_args(family, reduced, sign, modulus),
                         "--n-max", str(GRID_N_MAX), "--k-max", str(GRID_K_MAX))
                jobs.append(Job(
                    (table + ("--method", "gf"), table + ("--method", "formula")),
                    partial(_check_table, GRID_N_MAX, GRID_K_MAX),
                ))
    rng.shuffle(jobs)
    return jobs


def deep(rng: random.Random) -> list[Job]:
    """Six b-file exports and one large-n count per modulus-free stratum."""
    jobs = []
    for record, stride, formula_terms, k in DEEP_EXPORTS:
        terms = DEEP_N // stride
        export = ("sequence", "--concordance", record, *(("--k", k) if k else ()))
        jobs.append(Job(
            (export + ("--n-max", str(terms), "--method", "gf"),
             export + ("--n-max", str(formula_terms), "--method", "formula")),
            partial(_check_bfile, terms),
        ))
    signs = list(SIGNS)
    rng.shuffle(signs)
    for (family, reduced), sign in zip(DEEP_COUNT_STRATA, signs):
        count = ("count", *_cell_args(family, reduced, sign, "inf"),
                 "--n", str(rng.randint(*DEEP_COUNT_N)), "--k", str(DEEP_COUNT_K))
        jobs.append(Job((count + ("--method", "gf"), count + ("--method", "formula")),
                        _check_count))
    rng.shuffle(jobs)
    return jobs


def verify(rng: random.Random) -> list[Job]:
    """`palcomp verify` over its default grid; the seed orders the moduli and
    picks the report format, neither of which changes the work."""
    moduli = list(MODULI)
    rng.shuffle(moduli)
    report = rng.choice(("text", "json"))
    command = ("verify", "--mods", ",".join(moduli), "--report", report)
    return [Job((command,), partial(_check_verify, report))]


WORKLOADS = {"grid": grid, "deep": deep, "verify": verify}
