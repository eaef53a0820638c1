"""Command-line interface.

Subcommands:

    count      one counting value on stdout
    table      TSV grid of values, rows n = 0..N, columns k = 0..K
    sequence   OEIS-style export (b-file or CSV), optionally via a
               bundled concordance record
    verify     run the cross-path verification checks
    bijection  encode a composition to its sequence pair, or decode back

All output is plain ASCII with stable ordering.  Exit status: 0 on success
(and on a fully passing verify), 1 when verify finds a failure, 2 for usage
errors and refusals.  Every refusal, the CLI's own and each layer's below it,
is a ``ValueError``; :func:`main` alone turns it into exit status 2 and one
``error: ...`` line on stderr, and stdout stays empty.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, Sequence

from .bijection import decode_pair, encode_pair, format_pair, parse_pair
from .formulas import FormulaVariant, formula_column, formula_count
from .genfun import gf_count, gf_grid
from .oracle import DEFAULT_ENUMERATION_CAP, brute_count
from .stats import (
    Family,
    Modulus,
    Sign,
    format_composition,
    format_modulus,
    parse_composition,
    parse_modulus,
)
from .verify import DEFAULT_MODULI, run_all

BRUTE_OPTIN_LIMIT = 20


def _add_family_options(
    parser: argparse.ArgumentParser, with_k: bool = True, required: bool = True
) -> None:
    parser.add_argument("--family", choices=[f.value for f in Family], required=required,
                        help="count by mismatching (pc) or matching (ac) mirror pairs")
    parser.add_argument("--reduced", action="store_true",
                        help="count swap-equivalence classes instead of compositions")
    parser.add_argument("--sign", choices=[s.value for s in Sign], required=required)
    parser.add_argument("--mod", required=required, metavar="M|inf",
                        help="modulus for the pair comparison; 'inf' means equality")
    if with_k:
        parser.add_argument("--k", type=int, required=required, help="statistic value")


def _add_method_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=["formula", "gf", "brute"], default="formula")
    parser.add_argument("--variant", type=int, choices=[v.value for v in FormulaVariant],
                        help="published formula variant (only with --method formula)")
    parser.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                        help="enumeration cap for --method brute")
    parser.add_argument("--force", action="store_true",
                        help=f"allow brute force above n={BRUTE_OPTIN_LIMIT}")


def _parse_cell(args: argparse.Namespace) -> tuple[Family, bool, Sign, Modulus]:
    return Family(args.family), args.reduced, Sign(args.sign), parse_modulus(args.mod)


@contextlib.contextmanager
def _long_ints() -> Iterator[None]:
    """Let str() write an int of any length while the block runs.

    Python caps int <-> str conversion at 4300 digits, and exact counts pass it
    (n = 28700 has 2^14350 palindromic compositions, 4320 digits).  The cap is
    lifted only for writing output, never for parsing arguments.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the cap
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _check_cell(args: argparse.Namespace, n: int, k: int) -> FormulaVariant | None:
    """Refuse a cell the CLI cannot ask for; return the requested formula variant."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if args.variant is None:
        return None
    if args.method != "formula":
        raise ValueError("--variant selects among closed formulas; it requires --method formula")
    return FormulaVariant(args.variant)


def _evaluate(args: argparse.Namespace, family, reduced, sign, modulus, n: int, k: int) -> int:
    variant = _check_cell(args, n, k)
    if args.method == "formula":
        return formula_count(family, reduced, sign, modulus, n, k, variant)
    if args.method == "gf":
        return gf_count(family, reduced, sign, modulus, n, k)
    if n > BRUTE_OPTIN_LIMIT and not args.force:
        raise ValueError(
            f"brute force above n={BRUTE_OPTIN_LIMIT} needs --force "
            f"(2^{n - 1} compositions)"
        )
    return brute_count(family, reduced, sign, modulus, n, k, cap=args.cap)


def _grid(
    args: argparse.Namespace, family, reduced, sign, modulus, ns: Sequence[int], ks: range
) -> list[list[int]]:
    """rows[i][j] = count(ns[i], ks[j]) for ascending ns, all computed up front.

    The gf path makes one series expansion and the formula path evaluates
    each plus value once, both over n = 0..ns[-1]; brute force goes cell by
    cell, so its refusals name the first cell that needs them.
    """
    if not ns:
        return []
    variant = _check_cell(args, ns[0], ks[0])
    if args.method == "brute":
        return [[_evaluate(args, family, reduced, sign, modulus, n, k) for k in ks] for n in ns]
    if args.method == "gf":
        rows = gf_grid(family, reduced, sign, modulus, ns[-1], ks[-1])
        return [rows[n][ks[0]:] for n in ns]
    columns = [formula_column(family, reduced, sign, modulus, ns[-1], k, variant) for k in ks]
    return [[column[n] for column in columns] for n in ns]


def _cmd_count(args: argparse.Namespace) -> int:
    family, reduced, sign, modulus = _parse_cell(args)
    value = _evaluate(args, family, reduced, sign, modulus, args.n, args.k)
    with _long_ints():
        print(value)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    family, reduced, sign, modulus = _parse_cell(args)
    if args.n_max < 0 or args.k_max < 0:
        raise ValueError("--n-max and --k-max must be >= 0")
    rows = _grid(args, family, reduced, sign, modulus,
                 range(args.n_max + 1), range(args.k_max + 1))
    lines = ["\t".join(["n"] + [f"k={k}" for k in range(args.k_max + 1)])]
    with _long_ints():
        lines += ["\t".join(map(str, [n, *row])) for n, row in enumerate(rows)]
        print("\n".join(lines))
    return 0


def _cmd_sequence(args: argparse.Namespace) -> int:
    for flag, value in (("--offset", args.offset), ("--n-max", args.n_max)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    indices = range(args.offset, args.n_max + 1)
    if args.concordance:
        # imported here, like json below, so that other commands start faster
        from .concordance import lookup

        try:
            record = lookup(args.concordance)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        pinned = (("--family", args.family), ("--reduced", args.reduced or None),
                  ("--sign", args.sign), ("--mod", args.mod))
        for flag, value in pinned:
            if value is not None:
                raise ValueError(f"{flag} conflicts with --concordance (the record pins it)")
        family, reduced, sign, modulus = record.family, record.reduced, record.sign, record.modulus
        if record.k is None and args.k is None:
            raise ValueError(f"{record.id} is a triangle; pass --k")
        if record.k is not None and args.k is not None:
            raise ValueError(f"--k conflicts with --concordance ({record.id} pins k={record.k})")
        k = record.k if record.k is not None else args.k
        arguments = [record.mapped_index(idx, k)[0] for idx in indices]
        # a negative mapped argument reads as 0 and needs no evaluation
        ns = [n for n in arguments if n >= 0]
    else:
        for flag, value in (("--family", args.family), ("--sign", args.sign), ("--mod", args.mod)):
            if value is None:
                raise ValueError(f"{flag} is required unless --concordance is given")
        if args.k is None:
            raise ValueError("--k is required unless --concordance is given")
        family, reduced, sign, modulus = _parse_cell(args)
        record = None
        k = args.k
        arguments = ns = list(indices)

    rows = _grid(args, family, reduced, sign, modulus, ns, range(k, k + 1))
    values = {n: row[0] for n, row in zip(ns, rows)}
    lines = []
    with _long_ints():
        for idx, n in zip(indices, arguments):
            value = values.get(n, 0)
            if record is not None:
                quotient, remainder = divmod(value, record.divisor)
                if remainder:
                    raise ValueError(
                        f"{record.id}: count {value} at n={n} is not divisible by {record.divisor}"
                    )
                value = quotient
            separator = " " if args.format == "bfile" else ","
            lines.append(f"{idx}{separator}{value}")
    text = "".join(line + "\n" for line in lines)
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as handle:
                handle.write(text)
        except OSError as error:
            raise ValueError(f"cannot write {args.out}: {error}") from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    moduli = tuple(parse_modulus(tok) for tok in args.mods.split(","))
    if args.n_max < 0 or args.k_max < 0:
        raise ValueError("--n-max and --k-max must be >= 0")
    results = run_all(n_max=args.n_max, k_max=args.k_max, moduli=moduli, cap=args.cap)
    if args.report == "json":
        import json

        print(json.dumps([r.as_dict() for r in results], indent=2))
    else:
        for r in results:
            if r.ok:
                print(f"PASS {r.check}")
            else:
                print(f"FAIL {r.check} params={r.params} expected={r.expected} actual={r.actual}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_bijection(args: argparse.Namespace) -> int:
    if args.direction == "encode":
        print(format_pair(encode_pair(parse_composition(args.value))))
    else:
        print(format_composition(decode_pair(parse_pair(args.value))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palcomp",
        description="Count integer compositions by palindromicity statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print one counting value")
    _add_family_options(p_count)
    p_count.add_argument("--n", type=int, required=True)
    _add_method_options(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_table = sub.add_parser("table", help="print a TSV grid over n and k")
    _add_family_options(p_table, with_k=False)
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--k-max", type=int, required=True)
    _add_method_options(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_seq = sub.add_parser("sequence", help="export one sequence (b-file or CSV)")
    _add_family_options(p_seq, required=False)
    p_seq.add_argument("--n-max", type=int, required=True)
    p_seq.add_argument("--format", choices=["bfile", "csv"], default="bfile")
    p_seq.add_argument("--offset", type=int, default=0, help="first printed index")
    p_seq.add_argument("--out", help="write to a file instead of stdout")
    p_seq.add_argument("--concordance", metavar="ID",
                       help="take family, parameters, and index shift from a bundled record")
    _add_method_options(p_seq)
    p_seq.set_defaults(func=_cmd_sequence)

    p_verify = sub.add_parser("verify", help="cross-check formulas, series, and brute force")
    p_verify.add_argument("--n-max", type=int, default=14)
    p_verify.add_argument("--k-max", type=int, default=4)
    p_verify.add_argument("--mods", default=",".join(format_modulus(m) for m in DEFAULT_MODULI),
                          help="comma-separated moduli, e.g. '1,2,3,4,5,inf'")
    p_verify.add_argument("--report", choices=["text", "json"], default="text")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p_verify.set_defaults(func=_cmd_verify)

    p_bij = sub.add_parser("bijection", help="composition <-> sequence pair")
    bij_sub = p_bij.add_subparsers(dest="direction", required=True)
    p_enc = bij_sub.add_parser("encode", help="composition to pair")
    p_enc.add_argument("value", help="comma-separated composition, e.g. '2,1,3,4,1,1,5'")
    p_enc.set_defaults(func=_cmd_bijection)
    p_dec = bij_sub.add_parser("decode", help="pair to composition")
    p_dec.add_argument("value", help="pair as 'h1,h2,...;t1,t2,...'")
    p_dec.set_defaults(func=_cmd_bijection)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
