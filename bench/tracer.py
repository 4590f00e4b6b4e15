"""Spans and counters around cyclotile's layer functions, installed from outside.

The tracer replaces each listed function, wherever a cyclotile module
holds a reference to it, with a wrapper that times the call, charges its
duration to the caller's child time and counts sizes computed from the
arguments. Nothing is installed unless a traced run asks for it. A
function that no longer exists under its listed name is skipped, and the
metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer module, attribute path) of every wrapped function.
FUNCTIONS = [
    ("cli", "run"),
    ("admissibility", "check_admissible"),
    ("admissibility", "check_graph_condition"),
    ("admissibility", "construct_distances"),
    ("admissibility", "construct_perfect_coloring"),
    ("arith", "factorize"),
    ("arith", "divisors"),
    ("arith", "is_prime_power"),
    ("arith", "crt"),
    ("polyring", "poly_divmod"),
    ("polyring", "IntPolynomial.__mul__"),
    ("polyring", "reduce_mod_cyclic"),
    ("cyclotomic", "cyclotomic"),
    ("cyclotomic", "cyclotomic_divides"),
    ("cyclotomic", "divisor_spectrum"),
    ("cyclotomic", "DivisorSpectrum.divisor_product"),
    ("tiling", "verify_multitiling"),
    ("tiling", "multitiling_exists"),
    ("tiling", "construct_multitiling"),
    ("tiling", "construct_tiling_prime_power"),
    ("coloring", "is_perfect_coloring"),
    ("coloring", "perfect_parameters"),
    ("coloring", "structured_tile"),
    ("coloring", "a_polynomial"),
    ("oracle", "search_colorings"),
    ("oracle", "census_colorings"),
    ("oracle", "search_tilings"),
]
MAX_SPANS = 100_000  # spans kept in memory per process; the rest are only counted
LAYERS = ["cli", "admissibility", "arith", "polyring", "cyclotomic", "tiling", "coloring", "oracle"]


def _poly_len(x) -> int:
    return len(getattr(x, "coeffs", ()))


def _divmod_ops(f, g, *_):
    # one multiply-subtract per divisor coefficient per quotient position
    lf, lg = _poly_len(f), _poly_len(g)
    return (lf - lg + 1) * lg if lf >= lg else 0


def _mul_ops(a, b, *_):
    return _poly_len(a) * (_poly_len(b) if hasattr(b, "coeffs") else 1)


SIZES = {
    "polyring.poly_divmod": _divmod_ops,
    "polyring.IntPolynomial.__mul__": _mul_ops,
    "tiling.verify_multitiling": lambda u, *_: len(u.values) ** 2,
    "coloring.is_perfect_coloring": lambda spec, *_: spec.modulus * 2 * len(spec.distances),
    "oracle.search_colorings": lambda spec, *_, **__: 2**spec.modulus,
    "oracle.census_colorings": lambda spec, *_: 2**spec.modulus,
    "oracle.search_tilings": lambda u, *_: 2 ** len(u.values),
}

# per-layer metric -> (function names it needs, how it is computed); units are in BENCHMARK.json
_C, _T, _Z, _S = "calls", "incl", "size", "self"
METRICS = {
    "cli.startup_s": (["cli.run"], None),
    "cli.self_s": (["cli.run"], None),
    "admissibility.check_admissible_calls": (["admissibility.check_admissible"], _C),
    "admissibility.check_admissible_s": (["admissibility.check_admissible"], _T),
    "admissibility.construct_distances_self_s": (["admissibility.construct_distances"], _S),
    "admissibility.graph_condition_s": (["admissibility.check_graph_condition"], _T),
    "admissibility.self_s": ([], None),
    "arith.factorize_calls": (["arith.factorize"], _C),
    "arith.factorize_s": (["arith.factorize"], _T),
    "arith.divisors_s": (["arith.divisors"], _T),
    "arith.self_s": ([], None),
    "polyring.divmod_calls": (["polyring.poly_divmod"], _C),
    "polyring.divmod_s": (["polyring.poly_divmod"], _T),
    "polyring.divmod_coeff_ops": (["polyring.poly_divmod"], _Z),
    "polyring.mul_calls": (["polyring.IntPolynomial.__mul__"], _C),
    "polyring.mul_s": (["polyring.IntPolynomial.__mul__"], _T),
    "polyring.mul_coeff_ops": (["polyring.IntPolynomial.__mul__"], _Z),
    "polyring.self_s": ([], None),
    "cyclotomic.cyclotomic_s": (["cyclotomic.cyclotomic"], _T),
    "cyclotomic.cache_hits": (["cyclotomic.cyclotomic"], None),
    "cyclotomic.cache_misses": (["cyclotomic.cyclotomic"], None),
    "cyclotomic.spectrum_calls": (["cyclotomic.divisor_spectrum"], _C),
    "cyclotomic.spectrum_s": (["cyclotomic.divisor_spectrum"], _T),
    "cyclotomic.divides_calls": (["cyclotomic.cyclotomic_divides"], _C),
    "cyclotomic.self_s": ([], None),
    "tiling.verify_calls": (["tiling.verify_multitiling"], _C),
    "tiling.verify_s": (["tiling.verify_multitiling"], _T),
    "tiling.convolution_cells": (["tiling.verify_multitiling"], _Z),
    "tiling.exists_s": (["tiling.multitiling_exists"], _T),
    "tiling.construct_s": (["tiling.construct_multitiling", "tiling.construct_tiling_prime_power"], _T),
    "tiling.self_s": ([], None),
    "coloring.perfect_check_calls": (["coloring.is_perfect_coloring"], _C),
    "coloring.perfect_check_s": (["coloring.is_perfect_coloring"], _T),
    "coloring.neighbor_visits": (["coloring.is_perfect_coloring"], _Z),
    "coloring.perfect_parameters_s": (["coloring.perfect_parameters"], _T),
    "coloring.self_s": ([], None),
    "oracle.states_examined": (["oracle.search_colorings", "oracle.census_colorings",
                                "oracle.search_tilings"], _Z),
    "oracle.search_s": (["oracle.search_colorings", "oracle.search_tilings"], _T),
    "oracle.census_s": (["oracle.census_colorings"], _T),
    "oracle.self_s": ([], None),
}


class Tracer:
    """Wrappers, aggregates and a bounded span log for one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s, size]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.spans_total = 0
        self.op = None
        self.run_entered: list[float] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._installed: list[tuple] = []
        self._cache = None
        self._cache_base = (0, 0)

    def install(self) -> list[str]:
        """Wrap every listed function that exists; returns the names that were missing."""
        for layer in LAYERS:
            try:
                importlib.import_module("cyclotile." + layer)
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cyclotile" or name.startswith("cyclotile.")]
        missing = []
        for layer, path in FUNCTIONS:
            name = "%s.%s" % (layer, path)
            owner = sys.modules.get("cyclotile." + layer)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                missing.append(name)
                continue
            if name == "cyclotomic.cyclotomic" and hasattr(orig, "cache_info"):
                self._cache = orig
                info = orig.cache_info()
                self._cache_base = (info.hits, info.misses)
            wrapper = self._wrap(name, orig)
            # every module that imported the function by name, and the class for methods
            for holder in modules + ([owner] if outer else []):
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._installed.append((holder, key, orig))
        return missing

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._installed):
            setattr(holder, key, orig)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        size = SIZES.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        active = [0]
        is_run = name == "cli.run"

        def wrapper(*args, **kwargs):
            stat[0] += 1
            if size is not None:
                stat[3] += size(*args, **kwargs)
            span_id = tracer.spans_total
            tracer.spans_total += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            active[0] += 1
            start = clock()
            if is_run:
                tracer.run_entered.append(time.monotonic())
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[0] -= 1
                took = end - start
                stat[2] += took - frame[1]
                if not active[0]:
                    stat[1] += took  # outermost call of this function only
                if parent is not None:
                    parent[1] += took
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, name, start, end,
                                  parent[0] if parent is not None else None, tracer.op))

        return functools.update_wrapper(wrapper, fn)

    def cache_counters(self) -> dict[str, int]:
        if self._cache is None:
            return {}
        info = self._cache.cache_info()
        return {"hits": info.hits - self._cache_base[0], "misses": info.misses - self._cache_base[1]}

    def export(self) -> dict:
        """Aggregates in a JSON-able form, for merging across processes."""
        return {
            "stats": self.stats,
            "cache": self.cache_counters(),
            "run_entered": self.run_entered,
            "spans_total": self.spans_total,
        }


def merge(parts: list[dict]) -> dict:
    """Sum the exported aggregates of several traced processes."""
    stats: dict[str, list] = {}
    cache: dict[str, int] = {}
    total = 0
    for part in parts:
        for name, row in part["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, x in enumerate(row):
                acc[i] += x
        for key, x in part["cache"].items():
            cache[key] = cache.get(key, 0) + x
        total += part["spans_total"]
    return {"stats": stats, "cache": cache, "spans_total": total}


def layer_metrics(agg: dict, startup_s: float) -> dict[str, float]:
    """Per-layer metric values from merged aggregates; metrics whose functions are missing
    are left out."""
    stats = agg["stats"]
    out = {}
    for metric, (needs, kind) in METRICS.items():
        layer, field = metric.split(".", 1)
        if any(name not in stats for name in needs):
            continue
        if field == "self_s":
            value = sum(row[2] for name, row in stats.items() if name.split(".", 1)[0] == layer)
        elif metric == "cli.startup_s":
            value = startup_s
        elif metric.startswith("cyclotomic.cache_"):
            key = "hits" if metric.endswith("hits") else "misses"
            if key not in agg["cache"]:
                continue
            value = agg["cache"][key]
        else:
            col = {_C: 0, _T: 1, _S: 2, _Z: 3}[kind]
            value = sum(stats[name][col] for name in needs)
        out[metric] = value
    return out


def write_spans(path: str, spans: list[tuple]) -> None:
    """One JSON object per line: id, name, start, end, parent, op."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, op in spans:
            handle.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
