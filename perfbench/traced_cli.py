"""Run the palcomp CLI with spans and counters at its module boundaries.

Usage (PYTHONPATH must reach palcomp's sources):

    python3 perfbench/traced_cli.py <palcomp arguments>

Before ``palcomp.cli.main`` runs, every public function of the layers below
is wrapped, and each wrapped name is rebound in every palcomp module that
holds it, so calls between modules go through the wrappers.  Nothing in the
package changes.  The CLI's stdout is untouched; the trace is written to
stderr as one JSON line after TRACE_PREFIX.

A layer's busy time is its self time: the time inside its functions minus
the time in nested spans of any layer.  A few hot or lazy functions get a
counter and no span, because a span would cost more than the call
(``core.binom``) or would close before the work starts (the
``oracle.enumerate_compositions`` generator, whose items are produced in the
caller's span).  Functions of ``stats`` and ``concordance`` are not wrapped;
their time falls to the caller.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

TRACE_PREFIX = "perfbench-trace "
LAYERS = ("cli", "formulas", "genfun", "oracle", "bijection", "verify")
# The plus-class evaluations that formula_count dispatches to.
PLUS_FUNCTIONS = frozenset({
    "pc_plus_k", "rpc_plus_k", "ac_plus_k", "rac_plus_k",
    "pc_plus_k_mod", "rpc_plus_k_mod", "ac_plus_k_mod", "rac_plus_k_mod",
})
# Functions with an inclusive timer of their own, besides their layer's span.
TIMED = {("genfun", "series_inverse"), ("genfun", "poly_mul")}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.busy_s = dict.fromkeys(LAYERS, 0.0)
        self.timers_s: dict[str, float] = {}
        self.counts: Counter = Counter()
        self.enumerated_n: set[int] = set()
        self._stack: list[list] = []  # [layer, time in nested spans] per open span
        self._plus_depth = 0

    def span(self, layer: str, fn, timer: str | None = None, on_call=None):
        stack, busy, timers, counts = self._stack, self.busy_s, self.timers_s, self.counts
        if timer is not None:
            timers[timer] = 0.0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            if not stack or stack[-1][0] != layer:
                counts[f"{layer}.calls"] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                busy[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if timer is not None:
                    timers[timer] += elapsed

        return wrapper

    def plus_span(self, fn):
        """A formulas span that counts only plus evaluations not nested in
        another (rpc_plus_k evaluates pc_plus_k inside)."""
        inner = self.span("formulas", fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._plus_depth:
                self.counts["formulas.plus_evals"] += 1
            self._plus_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._plus_depth -= 1

        return wrapper

    def counted(self, fn, on_call):
        """A wrapper that records the call and adds no span."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _tally(self, key: str):
        def on_call(args, kwargs) -> None:
            self.counts[key] += 1

        return on_call

    def _on_series_inverse(self, args, kwargs) -> None:
        nq, nt = _arg(args, kwargs, 1, "nq"), _arg(args, kwargs, 2, "nt")
        self.counts["genfun.expansions"] += 1
        self.counts["genfun.coeffs_expanded"] += (nq + 1) * (nt + 1)

    def _on_enumerate(self, args, kwargs) -> None:
        n = _arg(args, kwargs, 0, "n")
        self.counts["oracle.enum_passes"] += 1
        self.counts["oracle.compositions_enumerated"] += 1 << (n - 1) if n >= 1 else 1
        self.enumerated_n.add(n)

    def wrap(self, layer: str, name: str, fn):
        if layer == "formulas" and name in PLUS_FUNCTIONS:
            return self.plus_span(fn)
        if layer == "oracle" and name == "enumerate_compositions":
            return self.counted(fn, self._on_enumerate)
        on_call = {
            ("genfun", "series_inverse"): self._on_series_inverse,
            ("genfun", "gf_count"): self._tally("genfun.coeffs_read"),
            ("formulas", "formula_count"): self._tally("formulas.cells"),
        }.get((layer, name))
        timer = None
        if (layer, name) in TIMED or (layer == "verify" and name != "run_all"):
            timer = f"{layer}.{name}_s"
        return self.span(layer, fn, timer, on_call)

    def install(self) -> None:
        """Wrap every public function of each layer and of core.binom, and
        rebind the wrappers wherever a palcomp module holds the original."""
        replacement = {}
        for layer in LAYERS:
            module = sys.modules[f"palcomp.{layer}"]
            for name, obj in vars(module).items():
                if (callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                        and getattr(obj, "__module__", None) == module.__name__):
                    replacement[id(obj)] = (obj, self.wrap(layer, name, obj))
        binom = sys.modules["palcomp.core"].binom
        replacement[id(binom)] = (binom, self.counted(binom, self._tally("core.binom_calls")))
        self._series_table = sys.modules["palcomp.genfun"].series_table
        for modname, module in list(sys.modules.items()):
            if modname == "palcomp" or modname.startswith("palcomp."):
                for name, obj in list(vars(module).items()):
                    original, wrapper = replacement.get(id(obj), (None, None))
                    if original is obj:
                        setattr(module, name, wrapper)

    def report(self) -> dict:
        return {
            "busy_s": self.busy_s,
            "timers_s": self.timers_s,
            "counts": dict(self.counts),
            "cache_entries": self._series_table.cache_info().currsize,
            "enumerated_n": len(self.enumerated_n),
        }


def main() -> int:
    import palcomp.cli

    tracer = Tracer()
    tracer.install()
    try:
        return palcomp.cli.main()
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.report()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
