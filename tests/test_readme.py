"""The README's library example runs as written."""

import doctest
from pathlib import Path
from types import ModuleType

import palcomp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_pass_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_star_import_gives_every_public_name_and_no_other():
    namespace = {}
    exec("from palcomp import *", namespace)
    del namespace["__builtins__"]
    public = {
        name for name, value in vars(palcomp).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(namespace) == public
    assert {"brute_count", "formula_count", "gf_count", "INFINITY"} <= public
    assert not {"check_cell", "CountSpec"} & public
