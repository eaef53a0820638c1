"""The three computation paths stay independent: each imports only the shared
modules and the standard library, never another path."""

import ast
import sys
from pathlib import Path

import pytest

import palcomp

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
