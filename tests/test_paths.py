"""The three computation paths stay independent: each imports only the shared
modules and the standard library, never another path.  They take the same
cell and refuse the same bad cells."""

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import palcomp
from palcomp.formulas import formula_count, formula_grid
from palcomp.genfun import gf_catalog, gf_count, gf_grid
from palcomp.oracle import brute_count, brute_grid
from palcomp.stats import INFINITY, Family, Sign

PATHS = ("formulas", "genfun", "oracle")
SHARED = frozenset({"core", "stats"})
SOURCE = Path(palcomp.__file__).parent


def imported_modules(source: str) -> set[str]:
    """Every module a source imports, anywhere in it: palcomp modules by their
    bare name (``core`` for ``from .core import binom``), others by their
    top-level package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                found.add(rest.partition(".")[0] if top == "palcomp" and rest else top)
        elif isinstance(node, ast.ImportFrom):
            inner = node.module or ""
            if node.level == 0:
                top, _, inner = inner.partition(".")
                if top != "palcomp":
                    found.add(top)
                    continue
            if inner:
                found.add(inner.partition(".")[0])
            else:  # from . import core, or from palcomp import core
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize(
    "source, modules",
    [
        ("from .core import binom", {"core"}),
        ("from . import genfun, stats", {"genfun", "stats"}),
        ("import palcomp.oracle as o", {"oracle"}),
        ("from palcomp.genfun import gf_count", {"genfun"}),
        ("from palcomp import formulas", {"formulas"}),
        ("def f():\n    import json\n    from collections.abc import Sequence", {"json", "collections"}),
    ],
)
def test_imported_modules_sees_every_import_form(source, modules):
    assert imported_modules(source) == modules


@pytest.mark.parametrize("path", PATHS)
def test_a_path_imports_only_shared_modules_and_the_stdlib(path):
    imports = imported_modules((SOURCE / f"{path}.py").read_text())
    assert imports & set(PATHS) - {path} == set()
    assert imports - SHARED - sys.stdlib_module_names == set()


# each entry point asked for one small cell: (family, reduced, sign, modulus) -> answer
ENTRY_POINTS = {
    "formula_count": lambda *cell: formula_count(*cell, 6, 0),
    "formula_grid": lambda *cell: formula_grid(*cell, range(5), [0]),
    "gf_count": lambda *cell: gf_count(*cell, 6, 0),
    # memoized per entry; a minus cell asks for the plus entry, as gf_grid does
    "gf_catalog": lambda family, reduced, sign, modulus: gf_catalog(
        family, reduced, Sign.PLUS if sign is Sign.MINUS else sign, modulus
    ),
    "gf_grid": lambda *cell: gf_grid(*cell, range(5), [0]),
    "brute_count": lambda *cell: brute_count(*cell, 6, 0),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "field, bad, good",
    [
        ("family", "pc", Family.PC),
        ("sign", "plus", Sign.PLUS),
        ("sign", "minus", Sign.MINUS),
        ("reduced", 1, True),  # 1 == True, so a cache keyed on the cell cannot tell them apart
    ],
    ids=["family-pc", "sign-plus", "sign-minus", "reduced-1"],
)
def test_every_path_refuses_a_bad_cell_by_name(entry, field, bad, good):
    count = ENTRY_POINTS[entry]
    cell = {"family": Family.PC, "reduced": False, "sign": Sign.PLUS, "modulus": INFINITY}
    count(*{**cell, field: good}.values())  # the corrected cell answers, and warms any cache
    with pytest.raises(TypeError, match=f"^{field} must be a "):
        count(*{**cell, field: bad}.values())


def _fields(good, bad):
    return st.one_of(good, st.sampled_from(bad))


# each field of a cell drawn good or bad, independently, so any subset is bad
cells = st.tuples(
    _fields(st.sampled_from(Family), ["pc"]),
    _fields(st.booleans(), [1]),
    _fields(st.sampled_from(Sign), ["plus"]),
    _fields(st.sampled_from([1, 2, 3, INFINITY]), [0, -1, 2.0, True]),
    _fields(st.integers(0, 12), [-1, True]),
    _fields(st.integers(0, 6), [-1, True]),
)


def _outcome(count, cell):
    try:
        return count(*cell)
    except (TypeError, ValueError) as error:
        return type(error), str(error)


READERS = (formula_grid, gf_grid, brute_grid)


@settings(max_examples=300, deadline=None)
@given(cell=cells, wraps=st.tuples(st.sampled_from([list, iter]), st.sampled_from([list, iter])))
def test_the_three_paths_refuse_alike_and_count_alike(cell, wraps):
    """The cell fields first, then n, then k: every path names the same first fault.
    The three grid readers, asked for the cell's one n and k as a list or a one-shot
    iterator each, name the same fault or read the same row; from lists, the counts'."""
    outcomes = [_outcome(count, cell) for count in (formula_count, gf_count, brute_count)]
    assert outcomes[0] == outcomes[1] == outcomes[2], (cell, outcomes)
    *fields, n, k = cell
    wrap_n, wrap_k = wraps
    rows = [_outcome(read, (*fields, wrap_n([n]), wrap_k([k]))) for read in READERS]
    assert rows[0] == rows[1] == rows[2], (cell, wraps, rows)
    if wraps == (list, list):
        assert rows[0] == (outcomes[0] if isinstance(outcomes[0], tuple) else [[outcomes[0]]])


@pytest.mark.parametrize("read", READERS)
@pytest.mark.parametrize("name", ["ns", "ks"])
def test_every_reader_refuses_a_one_shot_request_by_name(read, name):
    # the request is read after its check, so an iterator would leave nothing to read
    request = {"ns": [4, 6], "ks": [0, 1], name: iter([0, 1])}
    with pytest.raises(TypeError, match=f"^{name} must be a sequence, got list_iterator$"):
        read(Family.PC, False, Sign.TOTAL, INFINITY, **request)
