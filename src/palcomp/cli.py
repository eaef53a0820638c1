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

# the path modules run on first use (see palcomp/__init__.py), so each command
# runs only those it computes with, and building the parser runs none of them
from . import bijection, formulas, genfun, oracle, verify
from .stats import (
    DEFAULT_ENUMERATION_CAP,
    Family,
    FormulaVariant,
    Modulus,
    Sign,
    check_index,
    format_composition,
    parse_composition,
    parse_modulus,
)

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


def _check_request(args: argparse.Namespace, ns: Sequence[int], k: int) -> FormulaVariant | None:
    """Refuse, before any count, a request the CLI cannot answer; return its formula variant.

    Brute force would walk the ascending ns in turn, meeting at each n the
    --force refusal and then the cap, so the first n that fails is refused
    with the message brute force would raise there, and nothing is walked.
    """
    check_index(min(ns, default=0), "n")  # an empty ns passes, so the checks below still run
    check_index(k, "k")
    if args.variant is not None and args.method != "formula":
        raise ValueError("--variant selects among closed formulas; it requires --method formula")
    if args.method == "brute":
        for n in ns:
            if n > BRUTE_OPTIN_LIMIT and not args.force:
                raise ValueError(
                    f"brute force above n={BRUTE_OPTIN_LIMIT} needs --force "
                    f"(2^{n - 1} compositions)"
                )
            oracle.check_enumeration_cap([n], args.cap)
    return None if args.variant is None else FormulaVariant(args.variant)


def _grid(
    args: argparse.Namespace, family, reduced, sign, modulus, ns: Sequence[int], ks: range
) -> list[list[int]]:
    """rows[i][j] = count(ns[i], ks[j]) for ascending ns, all computed up front.

    The whole request is checked first, here and by the method's reader (the
    formula reader checks the variant), so every refusal comes before any
    count.  A composition of n has at most n // 2 mirror pairs, so every method
    computes only the columns k <= max(ns) // 2, at the n of ns alone, and
    writes 0 above them.  Every method reads rows: the gf path makes one
    series expansion over the cells it reads, both derived paths sum their
    plus rows through stats.sign_rows, and brute force reads each n's census
    once.
    """
    variant = _check_request(args, ns, ks[0])
    kept = range(ks[0], min(ks[-1], max(ns, default=0) // 2) + 1)
    if args.method == "brute":
        rows = oracle.brute_grid(family, reduced, sign, modulus, ns, kept, args.cap)
    elif args.method == "gf":
        rows = genfun.gf_grid(family, reduced, sign, modulus, ns, kept)
    else:
        rows = formulas.formula_grid(family, reduced, sign, modulus, ns, kept, variant)
    return [row + [0] * (len(ks) - len(kept)) for row in rows]


def _cmd_count(args: argparse.Namespace) -> int:
    rows = _grid(args, *_parse_cell(args), [args.n], range(args.k, args.k + 1))
    with _long_ints():
        print(rows[0][0])
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
    # imported here, like json below, so that other commands start faster
    from .concordance import ConcordanceRecord, lookup

    if args.concordance:
        try:
            record = lookup(args.concordance)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        pinned = (("--family", args.family), ("--reduced", args.reduced or None),
                  ("--sign", args.sign), ("--mod", args.mod))
        for flag, value in pinned:
            if value is not None:
                raise ValueError(f"{flag} conflicts with --concordance (the record pins it)")
        if record.k is None and args.k is None:
            raise ValueError(f"{record.id} is a triangle; pass --k")
        if record.k is not None and args.k is not None:
            raise ValueError(f"--k conflicts with --concordance ({record.id} pins k={record.k})")
    else:
        for flag, value in (("--family", args.family), ("--sign", args.sign), ("--mod", args.mod)):
            if value is None:
                raise ValueError(f"{flag} is required unless --concordance is given")
        if args.k is None:
            raise ValueError("--k is required unless --concordance is given")
        # a plain export reads through a record with shift 0, stride 1 and divisor 1
        record = ConcordanceRecord("", *_parse_cell(args), check_index(args.k, "k"), shift=0)
    k = record.statistic(args.k)
    indices = range(args.offset, args.n_max + 1)
    arguments = [record.mapped_index(idx, k)[0] for idx in indices]
    # a negative mapped argument reads as 0 and needs no evaluation
    ns = [n for n in arguments if n >= 0]
    rows = _grid(args, record.family, record.reduced, record.sign, record.modulus,
                 ns, range(k, k + 1))
    values = {n: row[0] for n, row in zip(ns, rows)}
    separator = " " if args.format == "bfile" else ","
    with _long_ints():
        for n, value in values.items():
            if value % record.divisor:
                raise ValueError(
                    f"{record.id}: count {value} at n={n} is not divisible by {record.divisor}"
                )
        text = "".join(f"{idx}{separator}{values.get(n, 0) // record.divisor}\n"
                       for idx, n in zip(indices, arguments))
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
    moduli = verify.DEFAULT_MODULI if args.mods is None else tuple(
        parse_modulus(tok) for tok in args.mods.split(","))
    if args.n_max < 0 or args.k_max < 0:
        raise ValueError("--n-max and --k-max must be >= 0")
    results = verify.run_all(n_max=args.n_max, k_max=args.k_max, moduli=moduli, cap=args.cap)
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
        print(bijection.format_pair(bijection.encode_pair(parse_composition(args.value))))
    else:
        print(format_composition(bijection.decode_pair(bijection.parse_pair(args.value))))
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
    p_verify.add_argument("--mods", help="comma-separated moduli, e.g. '1,2,3,4,5,inf'")
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
