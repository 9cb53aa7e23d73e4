"""Per-layer spans and counters, installed from outside the program.

Tracing rebinds each layer's public functions, in every perfproj module
namespace that holds them, to a wrapper that records a span (or only counts
calls, for functions called once per vector or weight).  Nothing inside
perfproj changes: uninstall() puts the original objects back, and
changed_since(snapshot()) lists every function or class attribute of the
package that is not the very object it was before.

A span's self time is its duration minus the time of the spans it caused;
a layer's self time is the sum over its spans, so the layers' self times
partition the time of the requests they were called from.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer -> module-level functions that get a span
SPANS = {
    "cli": ("run",),
    "enumeration": ("enumerate_h0_monomials", "enumerate_hn_monomials"),
    "braided": ("h0", "hn_top", "euler", "middle_vanishing", "bundle_cohomology",
                "kunneth", "tuple_arith", "line_bundle"),
    "geometry": ("bezout_chi", "bezout_line", "veronese", "veronese_tower_inclusion",
                 "blowup_origin", "blowup_plane_charts"),
    # _build_from_mask and cohomology_ranks run only when _ranks_for_mask misses
    # its cache: together they are the first-touch rank cost
    "cech": ("verify_theorems", "build_complex", "cohomology_ranks", "_build_from_mask"),
    "intersect": ("braided_multiplicity", "local_multiplicity", "quotient_dim_oracle"),
    "fracpoly": ("parse", "monomial_string"),
}
# called once per vector or weight: counted, their time stays with the caller
COUNTED = {
    ("exponents", "normalize"): "exponents.normalize_calls",
    ("enumeration", "count_h0_monomials"): "enumeration.count_calls",
    ("enumeration", "count_hn_monomials"): "enumeration.count_calls",
}
# public FracPoly methods get spans too
FRACPOLY_METHODS = ("terms", "coefficient", "constant_term", "homogeneous_degree",
                    "max_pexp", "min_exp", "substitute", "rescale_to_grade",
                    "extract_power", "set_var_zero", "restrict_to_var", "render")


def package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if (name == "perfproj" or name.startswith("perfproj.")) and mod is not None}


def snapshot():
    """Identity snapshot of every function and class attribute in perfproj."""
    out = {}
    for name, mod in package_modules().items():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("perfproj"):
                for key, member in vars(value).items():
                    out[(f"{value.__module__}.{value.__qualname__}", key)] = member
    return out


def changed_since(before) -> list:
    after = snapshot()
    return sorted(f"{mod}.{attr}" for mod, attr in before.keys() | after.keys()
                  if before.get((mod, attr)) is not after.get((mod, attr)))


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time of child spans]
        self.self_s = defaultdict(float)    # by layer
        self.span_s = defaultdict(float)    # by span name, inclusive
        self.span_max_s = defaultdict(float)
        self.calls = Counter()              # by span name
        self.layer_calls = Counter()
        self.counters = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, layer, name, fn):
        stack, clock = self.stack, perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.self_s[layer] += dur - frame[1]
                self.span_s[name] += dur
                self.calls[name] += 1
                self.layer_calls[layer] += 1
                if dur > self.span_max_s[name]:
                    self.span_max_s[name] = dur
            self._observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, result):
        """Work counts read off a layer's return value."""
        if name.startswith("enumeration.enumerate"):
            self.counters["enumeration.vectors"] += result.count
        elif name == "cech.verify_theorems":
            for s in result.per_degree:
                self.counters["cech.weights"] += s.weights_checked
                self.counters["cech.useful_weights"] += s.h0_total + s.hn_total
        elif name == "intersect.braided_multiplicity":
            self.counters["intersect.entries"] += sum(len(m) for m in result.mixed)

    def install(self):
        mods = package_modules()
        replace = {}
        for layer, names in SPANS.items():
            mod = mods[f"perfproj.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = (fn, self._span(layer, f"{layer}.{name}", fn))
        for (layer, name), key in COUNTED.items():
            fn = getattr(mods[f"perfproj.{layer}"], name)
            replace[id(fn)] = (fn, self._counter(key, fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        cls = mods["perfproj.fracpoly"].FracPoly
        for name in FRACPOLY_METHODS:
            fn = vars(cls)[name]
            self._saved.append((cls, name, fn))
            setattr(cls, name, self._span("fracpoly", f"fracpoly.{name}", fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def metrics(self) -> dict:
        c, s, calls = self.counters, self.span_s, self.calls
        local_calls = calls["intersect.local_multiplicity"]
        weights = c["cech.weights"]
        return {
            "cli.self_s": self.self_s["cli"],
            "exponents.normalize_calls": c["exponents.normalize_calls"],
            "enumeration.calls": self.layer_calls["enumeration"],
            "enumeration.self_s": self.self_s["enumeration"],
            "enumeration.vectors": c["enumeration.vectors"],
            "enumeration.count_calls": c["enumeration.count_calls"],
            "braided.calls": self.layer_calls["braided"],
            "braided.self_s": self.self_s["braided"],
            "geometry.calls": self.layer_calls["geometry"],
            "geometry.self_s": self.self_s["geometry"],
            "cech.self_s": self.self_s["cech"],
            "cech.weights": weights,
            "cech.useful_weight_ratio": c["cech.useful_weights"] / weights if weights else 0.0,
            "cech.rank_calls": calls["cech.cohomology_ranks"],
            "cech.rank_s": s["cech._build_from_mask"] + s["cech.cohomology_ranks"],
            "intersect.self_s": self.self_s["intersect"],
            "intersect.local_calls": local_calls,
            "intersect.local_s": s["intersect.local_multiplicity"],
            "intersect.local_max_s": self.span_max_s["intersect.local_multiplicity"],
            "intersect.entries_per_local_call":
                c["intersect.entries"] / local_calls if local_calls else 0.0,
            "intersect.oracle_calls": calls["intersect.quotient_dim_oracle"],
            "intersect.oracle_s": s["intersect.quotient_dim_oracle"],
            "fracpoly.calls": self.layer_calls["fracpoly"],
            "fracpoly.self_s": self.self_s["fracpoly"],
        }

    def self_total(self) -> float:
        return sum(self.self_s.values())
