"""Command-line surface: outputs, formats, refusals, exit codes."""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import palcomp
from palcomp import formulas, verify
from palcomp.cli import BRUTE_OPTIN_LIMIT, build_parser, main
from palcomp.concordance import load_concordance, lookup
from palcomp.formulas import formula_count
from palcomp.genfun import gf_count
from palcomp.stats import Family, Sign, parse_modulus

PER_CELL = {"formula": formula_count, "gf": gf_count}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def digit_cap():
    """Set Python's cap on int <-> str digits for one test, and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int <-> str digit cap")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.fixture
def no_brute(monkeypatch):
    """Fail the test on any brute-force count: a refusal must come before it.

    brute_grid reads every count it makes off the census of its n, and reads
    none for a row whose every cell has 2k > n."""
    def census(n, modulus):
        raise AssertionError(f"the census of n={n} at modulus {modulus} was read")

    monkeypatch.setattr(palcomp.oracle, "_census", census)


@pytest.fixture
def pc_plus_calls(monkeypatch):
    """The n of every formulas.pc_plus_k call, in order."""
    calls, honest = [], formulas.pc_plus_k

    def pc_plus_k(n, k):
        calls.append(n)
        return honest(n, k)

    monkeypatch.setattr(formulas, "pc_plus_k", pc_plus_k)
    return calls


class TestCount:
    def test_brute_fixture(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "ac", "--sign", "plus", "--n", "6",
            "--k", "0", "--mod", "inf", "--method", "brute",
        )
        assert code == 0 and out == "11\n"

    def test_formula_fixture(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "pc", "--sign", "total", "--n", "4",
            "--k", "1", "--mod", "inf", "--method", "formula",
        )
        assert code == 0 and out == "4\n"

    def test_gf_fixture(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "ac", "--sign", "total", "--n", "6",
            "--k", "2", "--mod", "1", "--method", "gf",
        )
        assert code == 0 and out == "15\n"

    @pytest.mark.parametrize("sign", ["plus", "minus", "total"])
    def test_methods_agree_byte_for_byte(self, capsys, sign):
        outputs = set()
        for method in ("formula", "gf", "brute"):
            code, out, _ = run(
                capsys, "count", "--family", "ac", "--reduced", "--sign", sign,
                "--n", "9", "--k", "1", "--mod", "3", "--method", method,
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("family", ["pc", "ac"])
    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("sign", ["plus", "minus", "total"])
    def test_gf_matches_formula_at_a_huge_modulus(self, capsys, family, reduced, sign):
        cell = ("count", "--family", family, *(["--reduced"] if reduced else []),
                "--sign", sign, "--n", "10", "--k", "1", "--mod", "1000000000")
        outputs = {run(capsys, *cell, "--method", method) for method in ("formula", "gf")}
        assert len(outputs) == 1 and outputs.pop()[0] == 0

    def test_variant_requires_formula_method(self, capsys):
        code, _, err = run(
            capsys, "count", "--family", "ac", "--sign", "plus", "--n", "6",
            "--k", "0", "--mod", "inf", "--method", "brute", "--variant", "2",
        )
        assert code == 2
        assert "--method formula" in err

    def test_variant_selects_a_formula(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "ac", "--sign", "plus", "--n", "6",
            "--k", "0", "--mod", "inf", "--method", "formula", "--variant", "3",
        )
        assert code == 0 and out == "11\n"

    def test_brute_needs_force_above_limit(self, capsys):
        args = ["count", "--family", "pc", "--sign", "total", "--n", "21",
                "--k", "0", "--mod", "inf", "--method", "brute"]
        code, _, err = run(capsys, *args)
        assert code == 2 and "--force" in err
        code, out, _ = run(capsys, *args, "--force", "--cap", "21")
        assert code == 0 and out == f"{1 << 10}\n"

    def test_cap_refusal_is_explicit(self, capsys):
        code, _, err = run(
            capsys, "count", "--family", "pc", "--sign", "total", "--n", "22",
            "--k", "0", "--mod", "inf", "--method", "brute", "--force", "--cap", "21",
        )
        assert code == 2 and "cap is 21" in err

    def test_brute_answers_a_cell_past_half_of_n_without_counting(self, capsys, no_brute):
        # a composition of 20 has at most 10 mirror pairs
        code, out, err = run(
            capsys, "count", "--family", "pc", "--sign", "plus", "--mod", "inf",
            "--n", "20", "--k", "15", "--method", "brute",
        )
        assert (code, out, err) == (0, "0\n", "")

    @pytest.mark.parametrize("method", ["formula", "gf", "brute"])
    def test_a_negative_index_is_refused_by_name(self, capsys, method):
        for n, k, name in (("-1", "0", "n"), ("3", "-1", "k")):
            code, out, err = run(
                capsys, "count", "--family", "pc", "--sign", "minus", "--mod", "inf",
                "--n", n, "--k", k, "--method", method,
            )
            assert (code, out, err) == (2, "", f"error: {name} must be >= 0, got -1\n")

    def test_a_negative_cap_is_refused_by_name(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "pc", "--sign", "total", "--n", "5",
            "--k", "0", "--mod", "inf", "--method", "brute", "--cap", "-3",
        )
        assert (code, out, err) == (2, "", "error: cap must be >= 0, got -3\n")

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--family", "pc", "--sign", "total", "--n", "4",
                  "--k", "0", "--mod", "inf", "--bogus"])
        assert exc.value.code == 2


class TestTable:
    def test_known_column(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "ac", "--sign", "total", "--mod", "2",
            "--n-max", "15", "--k-max", "0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n\tk=0"
        column = [int(line.split("\t")[1]) for line in lines[1:]]
        assert column == [1, 1, 1, 3, 3, 7, 11, 17, 33, 49, 89, 147, 243, 423, 691, 1185]

    def test_cells_match_count(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "pc", "--reduced", "--sign", "plus",
            "--mod", "inf", "--n-max", "6", "--k-max", "2", "--method", "gf",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            fields = line.split("\t")
            n = int(fields[0])
            for k, value in enumerate(fields[1:]):
                expected = formula_count(Family.PC, True, Sign.PLUS, parse_modulus("inf"), n, k)
                assert int(value) == expected

    @pytest.mark.parametrize("method", ["formula", "gf"])
    @pytest.mark.parametrize(
        "family, reduced, sign, mod",
        [("pc", False, "minus", "2"), ("ac", True, "total", "inf"), ("ac", False, "plus", "3")],
    )
    def test_prints_the_per_cell_loop(self, capsys, method, family, reduced, sign, mod):
        code, out, _ = run(
            capsys, "table", "--family", family, *(["--reduced"] if reduced else []),
            "--sign", sign, "--mod", mod, "--n-max", "13", "--k-max", "3", "--method", method,
        )
        cell = (Family(family), reduced, Sign(sign), parse_modulus(mod))
        expected = "n\tk=0\tk=1\tk=2\tk=3\n" + "".join(
            "\t".join(str(v) for v in [n] + [PER_CELL[method](*cell, n, k) for k in range(4)]) + "\n"
            for n in range(14)
        )
        assert code == 0 and out == expected

    def test_refusal_prints_nothing(self, capsys):
        code, out, err = run(
            capsys, "table", "--family", "ac", "--sign", "plus", "--mod", "inf",
            "--n-max", "5", "--k-max", "1", "--method", "gf", "--variant", "2",
        )
        assert code == 2 and out == ""
        assert "--method formula" in err

    def test_n0_k0_cell(self, capsys):
        for family in ("pc", "ac"):
            code, out, _ = run(
                capsys, "table", "--family", family, "--sign", "total",
                "--mod", "inf", "--n-max", "0", "--k-max", "0",
            )
            assert code == 0
            assert out.splitlines()[1] == "0\t1"


class TestSequence:
    def test_bfile_fixture(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "--family", "ac", "--reduced", "--sign", "total",
            "--mod", "inf", "--k", "0", "--n-max", "7",
        )
        assert code == 0
        assert out == "0 1\n1 1\n2 1\n3 2\n4 3\n5 5\n6 8\n7 13\n"

    def test_bfile_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "--family", "ac", "--sign", "plus", "--mod", "inf",
            "--k", "0", "--n-max", "12",
        )
        assert code == 0
        for line in out.splitlines():
            idx_text, value_text = line.split(" ")
            value = formula_count(Family.AC, False, Sign.PLUS, parse_modulus("inf"),
                                  int(idx_text), 0)
            assert int(value_text) == value

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "--family", "pc", "--sign", "total", "--mod", "inf",
            "--k", "0", "--n-max", "4", "--format", "csv",
        )
        assert code == 0
        assert out == "0,1\n1,1\n2,2\n3,2\n4,4\n"

    def test_empty_range_is_fine(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "--family", "pc", "--sign", "total", "--mod", "inf",
            "--k", "0", "--n-max", "2", "--offset", "5",
        )
        assert code == 0 and out == ""

    @pytest.mark.parametrize("refused, message", [
        (("--k", "-1"), "k must be >= 0, got -1"),
        (("--k", "1", "--variant", "2", "--method", "gf"),
         "--variant selects among closed formulas; it requires --method formula"),
    ], ids=["negative-k", "variant-with-gf"])
    def test_an_empty_range_still_refuses(self, capsys, refused, message):
        for offset in ("0", "5"):
            code, out, err = run(
                capsys, "sequence", "--family", "pc", "--sign", "plus", "--mod", "inf",
                *refused, "--n-max", "3", "--offset", offset,
            )
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("refused", [
        ("--family", "pc", "--sign", "plus", "--mod", "inf", "--k", "1", "--variant", "2"),
        ("--family", "ac", "--reduced", "--sign", "plus", "--mod", "2", "--k", "1",
         "--variant", "3"),
        ("--concordance", "A002620", "--variant", "3"),
    ], ids=["single-formula-block", "variant-outside-the-block", "concordance"])
    def test_an_empty_range_checks_the_variant_against_the_block(self, capsys, refused):
        at_zero, past_n_max = (run(capsys, "sequence", *refused, "--n-max", "3", "--offset", offset)
                               for offset in ("0", "5"))
        code, out, err = at_zero
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert past_n_max == at_zero

    def test_brute_refuses_where_every_column_is_zero(self, capsys):
        # k = 40 lies above n // 2 for every n <= 30, so no cell is counted, yet the
        # request is checked at every n it names, and n = 21 meets the --force refusal
        code, out, err = run(
            capsys, "sequence", "--family", "pc", "--sign", "plus", "--mod", "inf",
            "--k", "40", "--n-max", "30", "--method", "brute",
        )
        assert (code, out, err) == (
            2, "", "error: brute force above n=20 needs --force (2^20 compositions)\n"
        )

    @pytest.mark.parametrize("options, message", [
        ((), "brute force above n=20 needs --force (2^20 compositions)"),
        (("--force", "--cap", "21"), "refusing to enumerate 2^21 compositions of n=22: "
                                     "enumeration cap is 21 (pass a larger cap to override)"),
    ], ids=["force", "cap"])
    def test_brute_refuses_before_counting_anything(self, capsys, no_brute, options, message):
        # the refusal names the first n that brute force may not walk, as if it had
        # walked every n before it
        code, out, err = run(
            capsys, "sequence", "--family", "pc", "--sign", "plus", "--mod", "inf",
            "--k", "2", "--n-max", "30", "--method", "brute", *options,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_formula_export_evaluates_only_the_plus_values_it_prints(self, capsys, pc_plus_calls):
        cell = ("--family", "pc", "--sign", "total", "--mod", "inf", "--k", "2")
        code, out, _ = run(capsys, "sequence", *cell, "--offset", "2000", "--n-max", "2000",
                           "--method", "formula")
        assert pc_plus_calls == [1999, 2000]
        total = gf_count(Family.PC, False, Sign.TOTAL, parse_modulus("inf"), 2000, 2)
        assert (code, out) == (0, f"2000 {total}\n")

    def test_strided_formula_export_evaluates_only_its_arguments(self, capsys, pc_plus_calls):
        # A036799 reads pc plus counts at n = 2 * idx + 1
        code, _, _ = run(capsys, "sequence", "--concordance", "A036799", "--n-max", "10",
                         "--method", "formula")
        assert code == 0 and pc_plus_calls == list(range(1, 22, 2))

    def test_gf_builds_only_the_columns_it_prints(self, capsys):
        # a column with k > n is 0, so k = 10^6 needs no padded rows of 10^6 zeros
        tracemalloc.start()
        try:
            code, out, _ = run(
                capsys, "sequence", "--family", "pc", "--sign", "plus", "--mod", "inf",
                "--k", str(10**6), "--n-max", "10", "--method", "gf",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, "".join(f"{n} 0\n" for n in range(11)))
        assert peak < 2**20

    def test_offset_starts_the_index(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "--family", "pc", "--sign", "total", "--mod", "inf",
            "--k", "0", "--n-max", "6", "--offset", "4",
        )
        assert code == 0
        assert out == "4 4\n5 4\n6 8\n"

    @pytest.mark.parametrize("method", ["formula", "gf", "brute"])
    def test_a_negative_offset_is_refused(self, capsys, method):
        # the library would read n = -2 as a Python index from the end of a column,
        # and a concordance record would map it to an argument below 0 and print 0
        for cell in (("--family", "pc", "--sign", "plus", "--mod", "2", "--k", "1"),
                     ("--concordance", "A025192")):
            code, out, err = run(
                capsys, "sequence", *cell, "--n-max", "2", "--offset", "-2", "--method", method,
            )
            assert (code, out, err) == (2, "", "error: --offset must be >= 0, got -2\n")

    @pytest.mark.parametrize("cell", [
        ("--family", "pc", "--sign", "plus", "--mod", "2", "--k", "1"),
        ("--concordance", "A025192"),
    ], ids=["cell", "concordance"])
    def test_a_negative_n_max_is_refused(self, capsys, cell):
        code, out, err = run(capsys, "sequence", *cell, "--n-max", "-1")
        assert (code, out, err) == (2, "", "error: --n-max must be >= 0, got -1\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "seq.txt"
        code, out, _ = run(
            capsys, "sequence", "--family", "pc", "--sign", "total", "--mod", "inf",
            "--k", "0", "--n-max", "3", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text() == "0 1\n1 1\n2 2\n3 2\n"

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sequence", "--family", "pc", "--sign", "total", "--mod", "inf",
            "--k", "0", "--n-max", "3", "--out", str(tmp_path / "no" / "dir" / "f"),
        )
        assert code == 2 and "cannot write" in err

    def test_concordance_record(self, capsys):
        code, out, _ = run(capsys, "sequence", "--concordance", "A025192", "--n-max", "5")
        assert code == 0
        assert out == "0 1\n1 2\n2 6\n3 18\n4 54\n5 162\n"

    def test_concordance_triangle_needs_k(self, capsys):
        code, _, err = run(capsys, "sequence", "--concordance", "A105422", "--n-max", "4")
        assert code == 2 and "--k" in err
        code, out, _ = run(
            capsys, "sequence", "--concordance", "A105422", "--k", "0", "--n-max", "5"
        )
        assert code == 0
        assert out == "0 1\n1 0\n2 1\n3 1\n4 2\n5 3\n"

    def test_concordance_with_divisor(self, capsys):
        # this record halves the mapped count; division must stay exact
        code, out, _ = run(capsys, "sequence", "--concordance", "A008346", "--n-max", "6")
        assert code == 0
        assert out == "0 1\n1 0\n2 2\n3 1\n4 4\n5 4\n6 9\n"

    @pytest.mark.parametrize("method", ["formula", "gf"])
    @pytest.mark.parametrize(
        "record_id, k, offset, fmt",
        [
            ("A001590", None, 0, "bfile"),  # negative shift: the first term maps below 0
            ("A105422", 2, 3, "csv"),  # triangle, read at --k
            ("A008346", None, 1, "bfile"),  # divisor 2
            ("A036799", None, 0, "csv"),  # stride 2
        ],
    )
    def test_concordance_prints_the_per_cell_loop(self, capsys, method, record_id, k, offset, fmt):
        code, out, _ = run(
            capsys, "sequence", "--concordance", record_id, "--n-max", "16", "--method", method,
            "--offset", str(offset), "--format", fmt, *(["--k", str(k)] if k is not None else []),
        )
        record = lookup(record_id)
        separator = "," if fmt == "csv" else " "
        cell = (record.family, record.reduced, record.sign, record.modulus)
        lines = []
        for idx in range(offset, 17):
            n, stat = record.mapped_index(idx, k)
            value = PER_CELL[method](*cell, n, stat) if n >= 0 else 0
            assert value % record.divisor == 0
            lines.append(f"{idx}{separator}{value // record.divisor}\n")
        assert code == 0 and out == "".join(lines)

    def test_concordance_negative_k_is_refused(self, capsys):
        code, out, err = run(
            capsys, "sequence", "--concordance", "A105422", "--k", "-1", "--n-max", "3"
        )
        assert code == 2 and out == ""
        assert "must be >= 0" in err
        # the record maps position n to n + k, so every column lies above n // 2;
        # the mapping still refuses k by the record's own name for it
        code, out, err = run(
            capsys, "sequence", "--concordance", "A105422", "--k", "-2", "--n-max", "3"
        )
        assert (code, out, err) == (2, "", "error: statistic index must be >= 0, got -2\n")
        # an empty range maps no position, and the record still picks and refuses k
        code, out, err = run(
            capsys, "sequence", "--concordance", "A105422", "--k", "-2", "--n-max", "3",
            "--offset", "5",
        )
        assert (code, out, err) == (2, "", "error: statistic index must be >= 0, got -2\n")

    def test_concordance_unknown_id(self, capsys):
        code, _, err = run(capsys, "sequence", "--concordance", "A999999", "--n-max", "3")
        assert code == 2 and "no concordance record" in err
        assert err.startswith("error: no concordance record for 'A999999'")

    def test_concordance_conflicting_flags(self, capsys):
        code, _, err = run(
            capsys, "sequence", "--concordance", "A025192", "--family", "pc", "--n-max", "3"
        )
        assert code == 2 and "conflicts" in err
        code, _, err = run(
            capsys, "sequence", "--concordance", "A025192", "--k", "2", "--n-max", "3"
        )
        assert code == 2 and "pins k=0" in err

    def test_concordance_refuses_reduced(self, capsys):
        # the record pins the reduced flag as it pins the family, sign and modulus
        code, out, err = run(
            capsys, "sequence", "--concordance", "A025192", "--reduced", "--n-max", "3"
        )
        assert (code, out, err) == (
            2, "", "error: --reduced conflicts with --concordance (the record pins it)\n"
        )

    def test_family_required_without_concordance(self, capsys):
        code, _, err = run(capsys, "sequence", "--n-max", "3")
        assert code == 2 and "--family" in err

    def test_k_required_without_concordance(self, capsys):
        code, out, err = run(
            capsys, "sequence", "--family", "pc", "--sign", "plus", "--mod", "inf", "--n-max", "3"
        )
        assert (code, out, err) == (
            2, "", "error: --k is required unless --concordance is given\n"
        )

    def test_concordance_divisor_that_does_not_divide_is_refused(self, capsys, monkeypatch):
        halved = lookup("A025192")._replace(divisor=2)  # its count at n = 0 is 1
        monkeypatch.setattr(palcomp.concordance, "lookup", lambda sequence_id: halved)
        code, out, err = run(capsys, "sequence", "--concordance", "A025192", "--n-max", "3")
        assert (code, out, err) == (
            2, "", "error: A025192: count 1 at n=0 is not divisible by 2\n"
        )


class TestVerifyCommand:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "6", "--k-max", "2", "--mods", "1,2,inf",
        )
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_json_report_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "4", "--k-max", "1", "--mods", "2,inf",
            "--report", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert isinstance(report, list)
        for item in report:
            assert set(item) == {"check", "params", "status", "expected", "actual"}
            assert item["status"] == "pass"

    def test_trivial_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "0", "--k-max", "0")
        assert code == 0

    def test_mutation_turns_exit_nonzero(self, capsys, monkeypatch):
        honest = formulas.pc_plus_k

        def corrupted(n, k):
            value = honest(n, k)
            return value + 1 if (n, k) == (6, 1) else value

        monkeypatch.setattr(formulas, "pc_plus_k", corrupted)
        code, out, _ = run(
            capsys, "verify", "--n-max", "8", "--k-max", "2", "--mods", "inf",
            "--report", "json",
        )
        assert code == 1
        report = json.loads(out)
        failing = [item for item in report if item["status"] == "fail"]
        assert failing
        grid = next(item for item in failing if item["check"] == "three_path_grid")
        assert grid["params"]["family"] == "pc"
        assert grid["params"]["n"] == 6
        assert grid["params"]["k"] == 1

    def test_text_report_prints_the_failing_cell(self, capsys, monkeypatch):
        honest = formulas.pc_plus_k
        monkeypatch.setattr(formulas, "pc_plus_k", lambda n, k: honest(n, k) + ((n, k) == (6, 1)))
        code, out, _ = run(capsys, "verify", "--n-max", "8", "--k-max", "2", "--mods", "inf")
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL three_path_grid params={'family': 'pc', 'reduced': False, 'sign': 'plus',"
            " 'modulus': 'inf', 'n': 6, 'k': 1} expected={'formula': 11, 'genfun': 10}"
            " actual={'brute': 10}"
        )
        assert "PASS variant_agreement" in out.splitlines()

    def test_cap_refusal_comes_before_any_work(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--n-max", "30")
        elapsed = time.perf_counter() - start
        assert code == 2 and out == ""
        assert "compositions of n=25: enumeration cap is 24" in err
        assert elapsed < 1.0

    def test_a_negative_cap_is_refused_by_name(self, capsys):
        code, out, err = run(capsys, "verify", "--cap", "-1")
        assert (code, out, err) == (2, "", "error: cap must be >= 0, got -1\n")

    def test_bad_modulus_list(self, capsys):
        code, _, err = run(capsys, "verify", "--mods", "1,zero")
        assert code == 2 and "modulus" in err

    def test_parser_defaults_are_run_alls(self):
        # building the parser must not run verify, so it keeps a copy of run_all's
        # default request; no --mods reads run_all's default moduli
        args = build_parser().parse_args(["verify"])
        defaults = inspect.signature(verify.run_all).parameters
        assert (args.n_max, args.k_max, args.cap, args.mods) == (
            defaults["n_max"].default, defaults["k_max"].default, defaults["cap"].default, None
        )
        assert defaults["moduli"].default is verify.DEFAULT_MODULI


class TestBijectionCommand:
    def test_encode_decode_fixture(self, capsys):
        code, out, _ = run(capsys, "bijection", "encode", "2,1,3,4,1,1,5")
        assert code == 0 and out == "0,1,1,3,0,0;0,4,1,1,0,0\n"
        code, out, _ = run(capsys, "bijection", "decode", "0,1,1,3,0,0;0,4,1,1,0,0")
        assert code == 0 and out == "2,1,3,4,1,1,5\n"

    def test_encode_rejects_odd_middle(self, capsys):
        code, _, err = run(capsys, "bijection", "encode", "1,1,1")
        assert code == 2 and "middle part 1 is odd" in err

    def test_decode_rejects_invalid_pair(self, capsys):
        code, _, err = run(capsys, "bijection", "decode", "2,0;2,1")
        assert code == 2 and "position" in err

    def test_parse_errors(self, capsys):
        code, _, err = run(capsys, "bijection", "encode", "2,x,1")
        assert code == 2
        code, _, err = run(capsys, "bijection", "decode", "1,2,3")
        assert code == 2 and ";" in err

    def test_empty_composition_round_trip(self, capsys):
        code, out, _ = run(capsys, "bijection", "encode", "")
        assert code == 0 and out == ";\n"
        code, out, _ = run(capsys, "bijection", "decode", ";")
        assert code == 0 and out == "\n"


# One refusal contract for every subcommand: each command drawn below either
# answers (exit 0) or refuses (exit 2, empty stdout, one "error: " line).
MODULI = ("-1", "0", "1", "2", "3", "4", "5", "6", "7", "97", str(10**12), "inf", "x")
INDEX = st.integers(-3, 24)


@st.composite
def _cell(draw):
    """Options naming one cell, its method and variant: (argv, method, cell)."""
    family = draw(st.sampled_from(["pc", "ac"]))
    reduced = draw(st.booleans())
    sign = draw(st.sampled_from(["plus", "minus", "total"]))
    mod = draw(st.sampled_from(MODULI))
    method = draw(st.sampled_from(["formula", "gf", "brute"]))
    variant = draw(st.one_of(st.none(), st.sampled_from([1, 2, 3])))
    argv = [f"--family={family}", *(["--reduced"] if reduced else []), f"--sign={sign}",
            f"--mod={mod}", f"--method={method}",
            *([f"--variant={variant}"] if variant is not None else [])]
    return argv, method, (family, reduced, sign, mod)


def _top_n(method):
    """Brute force answers at n <= 12, where it is cheap, and is asked past
    BRUTE_OPTIN_LIMIT, where it must refuse before counting; it never gets --force."""
    if method == "brute":
        return st.integers(-3, 12) | st.integers(BRUTE_OPTIN_LIMIT + 1, 40)
    return st.integers(-3, 24)


# each strategy draws (argv, must_refuse, expected): expected, if not None,
# gives the count a successful command prints
@st.composite
def _count(draw):
    cell, method, (family, reduced, sign, mod) = draw(_cell())
    n = draw(_top_n(method))
    k = draw(st.one_of(INDEX, st.integers(25, 10**6)))

    def expected():
        return gf_count(Family(family), reduced, Sign(sign), parse_modulus(mod), n, k)

    must_refuse = method == "brute" and n > BRUTE_OPTIN_LIMIT
    return ["count", *cell, f"--n={n}", f"--k={k}"], must_refuse, expected


@st.composite
def _table(draw):
    cell, method, _ = draw(_cell())
    k_max, n_max = draw(st.one_of(INDEX, st.integers(25, 2000))), draw(_top_n(method))
    bounds = [f"--n-max={n_max}", f"--k-max={k_max}"]
    return ["table", *cell, *bounds], method == "brute" and n_max > BRUTE_OPTIN_LIMIT, None


@st.composite
def _sequence(draw):
    """Sometimes an empty range, --offset above --n-max; it refuses all the same."""
    cell, method, (_, _, _, mod) = draw(_cell())
    k, n_max = draw(st.one_of(INDEX, st.integers(25, 10**6))), draw(_top_n(method))
    offset = draw(st.one_of(INDEX, st.integers(1, 3).map(lambda gap: n_max + gap)))
    bounds = [f"--k={k}", f"--n-max={n_max}", f"--offset={offset}"]
    variant_without_formula = method != "formula" and any(
        option.startswith("--variant=") for option in cell
    )
    brute_past_the_limit = method == "brute" and offset <= n_max and n_max > BRUTE_OPTIN_LIMIT
    must_refuse = (min(k, n_max, offset) < 0 or mod in ("-1", "0", "x") or variant_without_formula
                   or brute_past_the_limit)
    return ["sequence", *cell, *bounds], must_refuse, None


RECORDS = load_concordance()
PINNED = ("--family=pc", "--reduced", "--sign=plus", "--mod=2", "--k=0")


@st.composite
def _concordance(draw):
    """A known or unknown record, sometimes with one flag that the record pins.

    Brute force is left out: a record maps position 24 as far as n = 72.
    """
    record_id = draw(st.sampled_from([*RECORDS, "A999999"]))
    record = RECORDS.get(record_id)
    argv = ["sequence", f"--concordance={record_id}", f"--n-max={draw(INDEX)}",
            f"--method={draw(st.sampled_from(['formula', 'gf']))}"]
    pinned = PINNED
    if record is not None and record.k is None:  # a triangle takes k from --k
        # far out in k, A105422's argument n + k stays below 2k, so each term is 0 and
        # answers at once; A060098's n + 2k does not, and its terms are not 0, but the
        # gf path expands only the cells near the diagonal that it reads
        far = st.integers(25, 10**6) if record.shift_per_k < 2 else st.integers(25, 2000)
        argv.append(f"--k={draw(st.one_of(INDEX, far))}")
        pinned = PINNED[:-1]
    flag = draw(st.sampled_from([None, *pinned]))
    if flag is not None:
        argv.append(flag)
    return argv, record is None or flag is not None, None


# a value led by "-" would be read by argparse as an option
_PARTS = st.lists(st.sampled_from(["0", "1", "2", "3", "4", "-1", "x"]), max_size=6).map(",".join)
_bijection = st.one_of(
    st.tuples(st.just("encode"), _PARTS),
    st.tuples(st.just("decode"), st.one_of(_PARTS, st.tuples(_PARTS, _PARTS).map(";".join))),
).filter(lambda command: not command[1].startswith("-")).map(
    lambda command: (["bijection", *command], False, None)
)

# verify only refuses here: a bad modulus, a negative bound, or a cap below n = 18
_GOOD_MODS = st.lists(st.sampled_from(["1", "2", "inf"]), max_size=3)
_verify = st.one_of(
    st.tuples(_GOOD_MODS, st.sampled_from(["-1", "0", "x", ""]), _GOOD_MODS).map(
        lambda mods: [f"--mods={','.join([*mods[0], mods[1], *mods[2]])}"]
    ),
    st.tuples(st.sampled_from(["--n-max", "--k-max"]), st.integers(-3, -1)).map(
        lambda bound: [f"{bound[0]}={bound[1]}"]
    ),
    st.integers(-3, 17).map(lambda cap: [f"--cap={cap}"]),
).map(lambda options: (["verify", *options], True, None))


@settings(max_examples=300, deadline=2000)
@given(command=st.one_of(_count(), _table(), _sequence(), _concordance(), _bijection, _verify))
def test_every_command_answers_or_refuses_in_one_line(command):
    argv, must_refuse, expected = command
    out, err = io.StringIO(), io.StringIO()
    # capsys is function-scoped, and Hypothesis reruns the body within one call
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0 and not must_refuse:
        assert err.getvalue() == ""
        if expected is not None:
            assert out.getvalue() == f"{expected()}\n"
    else:
        message = err.getvalue()
        assert (code, out.getvalue()) == (2, "")
        assert message.startswith("error: ") and message.endswith("\n") and message.count("\n") == 1


class TestCountsPastTheDigitCap:
    # 2^(n//2) palindromic compositions; the cap is lifted only to write them
    CELL = ["--family", "pc", "--sign", "total", "--mod", "inf"]

    def test_count_prints_all_4320_digits(self, capsys, digit_cap):
        digit_cap(4300)  # Python's default
        code, out, err = run(capsys, "count", *self.CELL, "--n", "28700", "--k", "0",
                             "--method", "formula")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 4300
        digit_cap(0)
        assert out == f"{1 << 14350}\n" and len(out) == 4321

    def test_table_and_sequence_print_past_the_cap(self, capsys, digit_cap, tmp_path):
        digit_cap(640)  # the smallest cap; 2^2150 has 648 digits
        target = tmp_path / "b.txt"
        _, table, _ = run(capsys, "table", *self.CELL, "--n-max", "4300", "--k-max", "0",
                          "--method", "gf")
        outputs = [run(capsys, "sequence", *self.CELL, "--k", "0", "--offset", "4300",
                       "--n-max", "4300", "--method", "gf", *out)
                   for out in ([], ["--out", str(target)])]
        assert [code for code, _, _ in outputs] == [0, 0]
        assert sys.get_int_max_str_digits() == 640
        digit_cap(0)
        assert table.splitlines()[-1] == f"4300\t{1 << 2150}"
        assert outputs[0][1] == target.read_text() == f"4300 {1 << 2150}\n"

    def test_arguments_are_parsed_under_the_cap(self, capsys, digit_cap):
        digit_cap(640)
        with pytest.raises(SystemExit) as exc:
            main(["count", *self.CELL, "--n", "1" * 641, "--k", "0"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


class TestStartup:
    def test_import_loads_the_layers_and_nothing_heavier(self):
        """A fresh `import palcomp.cli` registers every layer that
        perfbench/traced_cli.py looks up in sys.modules right after it, and
        none of the modules that only some commands need."""
        src = os.path.dirname(os.path.dirname(palcomp.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import palcomp.cli; "
                "print('\\n'.join(sys.modules))")
        # -S keeps site's own imports out, so every module seen came from palcomp.cli
        # -B writes no bytecode into src/ (-I ignores PYTHONDONTWRITEBYTECODE)
        done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                              capture_output=True, text=True, timeout=60, check=True)
        loaded = set(done.stdout.split())
        for layer in ("cli", "formulas", "genfun", "oracle", "bijection", "verify", "core"):
            assert f"palcomp.{layer}" in loaded
        assert not {"dataclasses", "inspect", "json", "palcomp.concordance"} & loaded

    RAN_ON_IMPORT = {"palcomp", "palcomp.cli", "palcomp.stats"}
    TABLE = ["table", "--family", "pc", "--sign", "total", "--mod", "3", "--n-max", "8",
             "--k-max", "2"]

    @pytest.mark.parametrize("argv, also_ran", [
        ([], set()),
        ([*TABLE, "--method", "gf"], {"genfun"}),
        ([*TABLE, "--method", "formula"], {"formulas", "core"}),
        ([*TABLE, "--method", "brute"], {"oracle"}),
        (["verify", "--n-max", "6", "--k-max", "2"],
         {"core", "oracle", "formulas", "genfun", "bijection", "verify"}),
    ], ids=["import", "gf", "formula", "brute", "verify"])
    def test_a_command_runs_only_the_modules_it_computes_with(self, argv, also_ran):
        """A palcomp module that has run is a plain module; one registered
        and not yet run is of a subclass."""
        code, *ran = self._fresh_interpreter(
            "import contextlib, io, types",
            "import palcomp.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    code = palcomp.cli.main({argv!r}) if {argv!r} else 0",
            "print(code, *(name for name, module in sys.modules.items()",
            "              if name.startswith('palcomp') and type(module) is types.ModuleType))",
        ).split()
        assert code == "0"
        assert set(ran) == self.RAN_ON_IMPORT | {f"palcomp.{name}" for name in also_ran}

    def test_threads_that_first_use_a_module_at_once_all_find_it_run(self):
        out = self._fresh_interpreter(
            "import threading",
            "import palcomp",
            "barrier, found = threading.Barrier(4), []",
            "def use():",
            "    barrier.wait()",
            "    found.append(hasattr(palcomp.formulas, 'formula_grid'))",
            "threads = [threading.Thread(target=use) for _ in range(4)]",
            "for thread in threads: thread.start()",
            "for thread in threads: thread.join(30)",
            "print(found)",
        )
        assert out.strip() == str([True] * 4)

    @staticmethod
    def _fresh_interpreter(*lines: str) -> str:
        """The stdout of a fresh interpreter, without site, that runs lines
        with palcomp's sources on its path."""
        src = os.path.dirname(os.path.dirname(palcomp.__file__))
        code = "\n".join([f"import sys; sys.path.insert(0, {src!r})", *lines])
        return subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                              capture_output=True, text=True, timeout=60, check=True).stdout
