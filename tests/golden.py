"""Output fingerprints of the palcomp CLI, one per command line.

A fingerprint is the first 16 hex digits of the sha256 of a command's (exit
status, stdout, stderr), from an in-process ``cli.main`` call.
``tests/test_golden.py`` recomputes every fingerprint in ``golden_outputs.json``
and names each command whose output moved.  A change that moves an output on
purpose rewrites the file and names each moved command and its reason:

    PYTHONPATH=src python tests/golden.py --write

The writer refuses to write while the gf, formula and brute tables of a block
disagree, so a fingerprint never pins a count that two paths dispute.
Argparse's own errors are left out: their usage text differs between Python
versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

from palcomp import cli
from palcomp.concordance import load_concordance

GOLDEN = Path(__file__).with_name("golden_outputs.json")

BLOCKS = [
    f"--family {family}{reduced} --sign {sign} --mod {mod}"
    for family, reduced, sign, mod in itertools.product(
        ("pc", "ac"), ("", " --reduced"), ("plus", "minus", "total"),
        ("1", "2", "3", "5", "97", "inf"))
]
# brute force reads the first rows of the gf and formula tables
TABLES = {"gf": "--n-max 40 --k-max 8", "formula": "--n-max 40 --k-max 8",
          "brute": "--n-max 14 --k-max 8"}
CELL = "--family pc --sign plus --mod 3"
REFUSALS = [
    *(f"{command} --method {method}" for command, method in itertools.product([
        f"count {CELL} --n -1 --k 0",
        f"count {CELL} --n 5 --k -1",
        "count --family pc --sign plus --mod 0 --n 5 --k 1",
        "count --family pc --sign plus --mod 0 --n -1 --k -1",
        f"table {CELL} --n-max -1 --k-max 2",
        f"table {CELL} --n-max 5 --k-max -1",
        f"table {CELL} --n-max -1 --k-max -1",
        "table --family pc --sign plus --mod 0 --n-max 5 --k-max 2",
    ], ("formula", "gf", "brute"))),
    f"count {CELL} --n 5 --k 1 --method brute --cap -1",
    f"count {CELL} --n 21 --k 1 --method brute",
    f"count {CELL} --n 21 --k 1 --method brute --force --cap 20",
    f"table {CELL} --n-max 21 --k-max 2 --method brute",
    f"table {CELL} --n-max 12 --k-max 2 --method brute --cap 10",
    f"count {CELL} --n 5 --k 1 --method gf --variant 2",
    f"count {CELL} --n 5 --k 1 --method brute --variant 2",
    "count --family pc --sign plus --mod inf --n 5 --k 1 --variant 2",
    f"sequence {CELL} --k 1 --n-max 5 --offset -1",
    f"sequence {CELL} --k 1 --n-max -1",
    "sequence --sign plus --mod 3 --k 1 --n-max 5",
    f"sequence {CELL} --n-max 5",
    "sequence --concordance A999999 --n-max 3",
    "sequence --concordance A025192 --family pc --n-max 3",
    "sequence --concordance A025192 --k 2 --n-max 3",
    "sequence --concordance A105422 --n-max 3",
    "sequence --concordance A105422 --k -2 --n-max 3",
    "sequence --concordance A105422 --k -2 --n-max 3 --offset 5",
    "verify --n-max -1",
    "verify --cap -1",
    "verify --cap 10",
    "verify --mods 0",
    "bijection encode 0,1",
    "bijection encode 1,3,1",
    "bijection decode 2,1,3;3,1,0,1",
    "bijection decode 1,2",
    "bijection decode 1,x;2",
]
COMMANDS = [
    *(f"table {block} {bounds} --method {method}"
      for block, (method, bounds) in itertools.product(BLOCKS, TABLES.items())),
    *(f"sequence --concordance {record.id} --n-max 60" + (" --k 2" if record.k is None else "")
      for record in load_concordance().values()),
    f"sequence {CELL} --k 2 --n-max 30 --offset 10 --format csv",
    "count --family pc --sign total --mod inf --n 2000 --k 3 --method formula",
    "count --family ac --sign plus --mod 5 --n 2000 --k 3 --method gf",
    "count --family ac --reduced --sign minus --mod 2 --n 16 --k 3 --method brute",
    "count --family pc --sign plus --mod 3 --n 30 --k 20 --method brute --force --cap 30",
    "bijection encode 2,1,3,4,1,1,5",
    "bijection decode 0,1,1,3,0,0;0,4,1,1,0,0",
    "bijection encode 1,2",
    "bijection decode 3;1",
    *REFUSALS,
    *(f"verify{bounds}{report}" for bounds, report in itertools.product(
        ("", " --n-max 8 --k-max 2 --mods 2,inf", " --n-max 0 --k-max 0"),
        ("", " --report json"))),
]


def digest(status: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([status, out, err]).encode()).hexdigest()[:16]


def run(command: str) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(command.split())
    return status, out.getvalue(), err.getvalue()


def disputed_blocks(outputs: dict[str, tuple[int, str, str]]) -> list[str]:
    """The blocks whose gf, formula and brute tables do not all answer alike."""
    disputed = []
    for block in BLOCKS:
        gf, formula, brute = (outputs[f"table {block} {bounds} --method {method}"]
                              for method, bounds in TABLES.items())
        rows = gf[1].splitlines()[:len(brute[1].splitlines())]
        if gf[0] or gf != formula or brute != (0, "\n".join(rows) + "\n", ""):
            disputed.append(block)
    return disputed


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: PYTHONPATH=src python tests/golden.py --write", file=sys.stderr)
        return 2
    outputs = {command: run(command) for command in COMMANDS}
    disputed = disputed_blocks(outputs)
    if disputed:
        print("not written; the paths disagree on:", *disputed, sep="\n  ", file=sys.stderr)
        return 1
    fingerprints = {command: digest(*output) for command, output in outputs.items()}
    GOLDEN.write_text(json.dumps(fingerprints, indent=1) + "\n")
    print(f"wrote {len(fingerprints)} fingerprints to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
