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

from types import ModuleType as _ModuleType

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
    InvalidPairError,
    MinusClassError,
    PairSequences,
    PairStatistics,
    decode_pair,
    encode_pair,
    pair_statistics,
)

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
