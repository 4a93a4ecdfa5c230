"""Per-layer tracing for the ratio-lab benchmark, from outside the program.

`Tracer.install()` replaces every public function of the modules in
LAYERS (their `__all__`) at every module binding that refers to it: the
defining module, every module that imported it by name, and the package
root.  Calls made inside the private sweeps therefore go through the
wrappers too and show up as child spans.  Each wrapper keeps a stack of
open spans; when a span closes, its duration is added to its parent's
child time, and the function's self time grows by its duration minus its
children.  Spans are aggregated as they close rather than stored, so a
sweep that makes millions of calls costs no memory.

Generator functions are not wrapped (their body runs after the call
returns).  `uninstall()` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "search", "lists", "integrality", "separation", "bounds", "liouville")

# (ancestor, descendant) pairs whose nested call counts feed the ratios below
WATCH = {
    "lists.norm": ("search.divisor_sweep_5", "search.small_norm_catalog"),
    "lists.make_list": ("search.divisor_sweep_5", "search.sum_zero_divisor_lists"),
}

# Public functions that at least one workload calls; every traced run
# reports <name>.calls and <name>.self_s for each of them.
REPORTED = (
    "cli.run",
    "search.family_search_5",
    "search.divisor_sweep_5",
    "search.sum_zero_divisor_lists",
    "search.small_norm_catalog",
    "search.verify_catalog",
    "search.canonical_pair_key",
    "lists.make_list",
    "lists.norm",
    "lists.norm_by_integration",
    "lists.classify_type",
    "lists.concat",
    "lists.scale",
    "integrality.landau_min_max",
    "integrality.is_integral",
    "integrality.norm_quarter_check",
    "integrality.valuation_oracle",
    "integrality.family_membership",
    "separation.find_separations",
    "separation.max_separation",
    "separation.check_decomposition",
    "separation.support_bound",
    "bounds.build_table",
    "bounds.max_length_for_D",
    "bounds.g1_closed_form",
    "liouville.build_liouville",
    "liouville.liouville_norm_formula",
)


def _size(result) -> int | None:
    if isinstance(result, (list, tuple)):
        return len(result)
    entries = getattr(result, "entries", None)
    return len(entries) if isinstance(entries, tuple) else None


class Tracer:
    """Aggregated spans for the wrapped functions of one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.returned = Counter()  # summed sizes of returned lists / catalogs
        self.beneath = Counter()  # (ancestor, name) -> calls of name inside ancestor
        self.enabled = True
        self._stack: list[list[float]] = []
        self._open = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        calls, self_s, returned, beneath = self.calls, self.self_s, self.returned, self.beneath
        stack, open_, watch = self._stack, self._open, WATCH.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                open_[name] -= 1
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                for ancestor in watch:
                    if open_[ancestor]:
                        beneath[(ancestor, name)] += 1
            size = _size(result)
            if size is not None:
                returned[name] += size
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("ratio_lab")
        modules = {name: importlib.import_module(f"ratio_lab.{name}") for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Calls made here (input generation, checks) are not recorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) of every per-layer metric, in order."""
    out = []
    for fn in REPORTED:
        out.append((f"{fn}.calls", "count/round", "lower"))
        out.append((f"{fn}.self_s", "s/round", "lower"))
    out += [
        ("search.sum_zero_divisor_lists.lists", "count/round", "higher"),
        ("search.sum_zero_divisor_lists.materialised", "count/round", "lower"),
        ("search.divisor_sweep_5.confirm_yield", "ratio", "higher"),
        ("search.divisor_sweep_5.materialised", "count/round", "lower"),
        ("search.small_norm_catalog.confirm_yield", "ratio", "higher"),
    ]
    return out


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Every per-layer metric, per round of the workload."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for fn in REPORTED:
        values[f"{fn}.calls"] = tracer.calls[fn] / rounds
        values[f"{fn}.self_s"] = tracer.self_s[fn] / rounds
    beneath = tracer.beneath
    values["search.sum_zero_divisor_lists.lists"] = tracer.returned["search.sum_zero_divisor_lists"] / rounds
    for sweep in ("search.sum_zero_divisor_lists", "search.divisor_sweep_5"):
        values[f"{sweep}.materialised"] = beneath[(sweep, "lists.make_list")] / rounds
    for sweep in ("search.divisor_sweep_5", "search.small_norm_catalog"):
        values[f"{sweep}.confirm_yield"] = ratio(tracer.returned[sweep], beneath[(sweep, "lists.norm")])
    return values
