"""Exact counting of integer compositions by palindromicity statistics.

Three independent computation paths for every counting family:

* :mod:`palcomp.formulas` -- closed-form summations,
* :mod:`palcomp.genfun` -- coefficient extraction from rational generating
  functions over exact truncated bivariate series,
* :mod:`palcomp.oracle` -- brute-force enumeration of all compositions.

:mod:`palcomp.verify` cross-checks the three paths on a parameter grid, and
:mod:`palcomp.bijection` implements the explicit composition <-> sequence
pair correspondence underlying the plus-class formulas.

Importing the package runs none of these modules.  Each is registered at
once, in ``sys.modules`` and as an attribute of the package, and runs on its
first attribute access; a public name below is read off its module when asked
for (PEP 562).  So a command runs only the modules it computes with.
"""

import sys
from importlib.util import find_spec, module_from_spec
from threading import RLock
from types import ModuleType

# every public name, under the module that defines it
_EXPORTS = {
    "core": ("binom", "fibonacci", "multinom", "tribonacci", "tribonacci_identity_sum",
             "tribonacci_prime"),
    "stats": ("DEFAULT_ENUMERATION_CAP", "INFINITY", "Composition", "Family", "FormulaVariant",
              "Modulus", "Sign", "composition", "decode_binary", "encode_binary",
              "format_composition", "match_count", "mismatch_count", "parse_composition",
              "parse_modulus", "sign_class", "swap_canonical"),
    "oracle": ("EnumerationCapError", "brute_count", "brute_grid", "count_parts_at_most",
               "count_parts_equal_one", "enumerate_compositions"),
    "formulas": ("formula_count", "formula_grid", "special_value", "total_from_plus"),
    "genfun": ("BivariatePoly", "RationalGF", "gf_catalog", "gf_count", "gf_grid",
               "series_inverse"),
    "bijection": ("InvalidPairError", "MinusClassError", "PairSequences", "PairStatistics",
                  "decode_pair", "encode_pair", "pair_statistics"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

_RUN_LOCK = RLock()  # one lock for all: running a module runs those it imports
_RUNNING = set()  # the modules whose code is running, in the thread holding the lock


class _Registered(ModuleType):
    """A module registered and not yet run.  Its first attribute access runs
    it while other threads wait; the stdlib LazyLoader of Python 3.11 marks a
    module run before running it, so a second thread can read it half-run.  A
    module that has run is a plain ModuleType."""

    def __getattribute__(self, attr):
        if type(self) is _Registered:
            with _RUN_LOCK:
                if type(self) is _Registered and self not in _RUNNING:
                    _RUNNING.add(self)
                    try:
                        object.__getattribute__(self, "__spec__").loader.exec_module(self)
                    finally:
                        _RUNNING.discard(self)
                    self.__class__ = ModuleType
        return object.__getattribute__(self, attr)


def _register(name: str) -> ModuleType:
    """palcomp.<name>, in sys.modules and not yet run."""
    spec = find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = module_from_spec(spec)
    module.__class__ = _Registered
    return module


globals().update({name: _register(name) for name in (*_EXPORTS, "verify")})

__version__ = "0.1.0"
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """A public name, read off its module (which runs now if it has not yet)."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)
