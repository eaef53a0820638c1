"""Exact counting of integer compositions by palindromicity statistics.

Three independent computation paths for every counting family:

* :mod:`palcomp.formulas` -- closed-form summations,
* :mod:`palcomp.genfun` -- coefficient extraction from rational generating
  functions over exact truncated bivariate series,
* :mod:`palcomp.oracle` -- brute-force enumeration of all compositions.

:mod:`palcomp.verify` cross-checks the three paths on a parameter grid, and
:mod:`palcomp.bijection` implements the explicit composition <-> sequence
pair correspondence underlying the plus-class formulas.
"""

from .core import (
    binom,
    fibonacci,
    multinom,
    tribonacci,
    tribonacci_identity_sum,
    tribonacci_prime,
)
from .stats import (
    INFINITY,
    Composition,
    CountSpec,
    Family,
    Modulus,
    Sign,
    composition,
    decode_binary,
    encode_binary,
    format_composition,
    match_count,
    mismatch_count,
    parse_composition,
    parse_modulus,
    sign_class,
    swap_canonical,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    brute_count,
    count_parts_at_most,
    count_parts_equal_one,
    enumerate_compositions,
)
from .formulas import (
    FormulaVariant,
    formula_column,
    formula_count,
    special_value,
    total_from_plus,
)
from .genfun import (
    BivariatePoly,
    RationalGF,
    gf_catalog,
    gf_count,
    gf_grid,
    series_inverse,
)
from .bijection import (
    Decomposition,
    InvalidPairError,
    MinusClassError,
    PairSequences,
    PairStatistics,
    decode_pair,
    decompose,
    encode_pair,
    pair_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "BivariatePoly",
    "Composition",
    "CountSpec",
    "DEFAULT_ENUMERATION_CAP",
    "Decomposition",
    "EnumerationCapError",
    "Family",
    "FormulaVariant",
    "INFINITY",
    "InvalidPairError",
    "MinusClassError",
    "Modulus",
    "PairSequences",
    "PairStatistics",
    "RationalGF",
    "Sign",
    "binom",
    "brute_count",
    "composition",
    "count_parts_at_most",
    "count_parts_equal_one",
    "decode_binary",
    "decode_pair",
    "decompose",
    "encode_binary",
    "encode_pair",
    "enumerate_compositions",
    "fibonacci",
    "format_composition",
    "formula_column",
    "formula_count",
    "gf_catalog",
    "gf_count",
    "gf_grid",
    "match_count",
    "mismatch_count",
    "multinom",
    "pair_statistics",
    "parse_composition",
    "parse_modulus",
    "series_inverse",
    "sign_class",
    "special_value",
    "swap_canonical",
    "total_from_plus",
    "tribonacci",
    "tribonacci_identity_sum",
    "tribonacci_prime",
]
