"""The README's library example runs as written, and the package gives each public name."""

import doctest
import importlib
import sys
from pathlib import Path
from types import ModuleType

import pytest

import palcomp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_pass_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


# the package's public names, by the module that defines each
PUBLIC = {
    "core": {"binom", "fibonacci", "multinom", "tribonacci", "tribonacci_identity_sum",
             "tribonacci_prime"},
    "stats": {"DEFAULT_ENUMERATION_CAP", "INFINITY", "Composition", "Family", "FormulaVariant",
              "Modulus", "Sign", "composition", "decode_binary", "encode_binary",
              "format_composition", "match_count", "mismatch_count", "parse_composition",
              "parse_modulus", "sign_class", "swap_canonical"},
    "oracle": {"EnumerationCapError", "brute_count", "brute_grid", "count_parts_at_most",
               "count_parts_equal_one", "enumerate_compositions"},
    "formulas": {"formula_count", "formula_grid", "special_value", "total_from_plus"},
    "genfun": {"BivariatePoly", "RationalGF", "gf_catalog", "gf_count", "gf_grid",
               "series_inverse"},
    "bijection": {"InvalidPairError", "MinusClassError", "PairSequences", "PairStatistics",
                  "decode_pair", "encode_pair", "pair_statistics"},
}


def test_star_import_gives_every_public_name_and_no_other():
    namespace = {}
    exec("from palcomp import *", namespace)
    del namespace["__builtins__"]
    public = set().union(*PUBLIC.values())
    assert len(public) == 46
    assert set(namespace) == set(palcomp.__all__) == public
    assert {"brute_count", "formula_count", "gf_count", "INFINITY"} <= public
    assert not {"check_cell", "CountSpec"} & public


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in PUBLIC.items() for name in sorted(names)
])
def test_a_public_name_is_its_modules_object(module, name):
    assert getattr(palcomp, name) is getattr(importlib.import_module(f"palcomp.{module}"), name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'check_cell'"):
        palcomp.check_cell
    assert not hasattr(palcomp, "CountSpec")


def test_every_module_is_a_package_attribute():
    from palcomp import verify

    assert isinstance(verify, ModuleType)
    assert verify is sys.modules["palcomp.verify"]
    assert verify.run_all is importlib.import_module("palcomp.verify").run_all
    for module in PUBLIC:
        assert getattr(palcomp, module) is sys.modules[f"palcomp.{module}"]
