"""Timing wrappers around the public functions of the jetsums modules.

``Tracer.install`` replaces every public module-level function of the traced
modules by a wrapper, at every jetsums module that bound the function by
name (``expsums`` imports ``mult_matrix`` and ``batch_digits`` from
``counting``, ``counting`` imports ``gradient`` and ``eval_form`` from
``forms``, and so on), so each call is seen whichever module made it.

A span wrapper records (name, start, end, parent span) in memory.  Helpers
called per element of an inner loop (per functional, divisor, grid point or
matrix entry) are left unwrapped, and so are the arithmetic classes'
methods (``Cyclo.__mul__``, ``Jet.__init__``, ...): their time falls to the
enclosing span.  Two of them get a bare call counter, because the count is
a metric.  Generator functions are left unwrapped too, since their work
happens after they return.  A few wrappers also read their arguments or
result to count work (rows scanned, vectors spanned, grid points
certified).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("counting", "forms", "linalg", "expsums", "sections", "arith",
           "bounds", "parallel", "cli")

# Called per element of an inner loop: not wrapped, so the trace stays cheap.
PER_ELEMENT = frozenset({
    "arith.check_prime", "arith.is_prime", "arith.psi_m", "arith.psi_exponent",
    "arith.cyclo_accumulate", "arith.magnitude",
    "sections.vanishing_basis", "sections.vanishing_dimension",
    "sections.check_budget", "sections.mul_sections", "sections.count_divisors",
    "sections.functional_degree", "sections.minimal_divisor",
    "sections.count_minimizers", "sections.poly_gcd",
    "sections.globally_generates", "sections.section_space_size",
    "linalg.inverse_mod", "linalg.as_matrix",
    "counting.encode_digits", "counting.batch_poly_mul",
    "counting.moduli_dimension", "counting.monic_irreducible_quadratics",
    "bounds.pair_gain_display", "bounds.pair_bound", "bounds.single_bound",
    "bounds.single_bound_display", "bounds.shrink_exponent",
    "bounds.genus_slack", "bounds.expected_dims", "bounds.degree_floor",
    "bounds.variable_threshold", "bounds.thresholds", "bounds.minimal_variables",
    "expsums.dual_code", "expsums.dual_from_code",
    "forms.multilinear_form", "forms.irreducible_poly",
})
# Per-element too, but their call counts are metrics.
COUNTED = frozenset({"sections.factors_through", "bounds.pair_gain"})

# Functions behind the expsums module caches, with the key each cache uses.
_CACHE_KEYS = {
    "expsums.value_histogram": lambda F, e, m, *a, **k: (F.key(), e, m),
    "expsums.all_sums": lambda F, e, m, *a, **k: (F.key(), e, m),
    "expsums.pair_data": lambda F, e, m, *a, **k: (F.key(), e, m),
    "expsums.divisor_table": lambda p, de, *a, **k: (p, de),
}


class Tracer:
    """Spans and counters of one worker process (one repetition)."""

    def __init__(self, rep: int):
        self.rep = rep
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.cache_keys: set = set()
        self._zero_rows = None

    def _span(self, name, fn):
        hook = _HOOKS.get(name)
        clock = time.perf_counter
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, rec[2] - rec[1])
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions at every module that binds them."""
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"jetsums.{short}")
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or name in PER_ELEMENT or inspect.isgeneratorfunction(obj)):
                    continue
                if name in COUNTED:
                    wrappers[obj] = self._counter(name, obj)
                else:
                    wrappers[obj] = self._span(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "jetsums" and not modname.startswith("jetsums."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def summary(self) -> dict:
        """Per-name calls, self time and inclusive time of outermost spans
        (a span nested in one of the same name adds no inclusive time)."""
        calls = defaultdict(int, self.calls)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent in spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                incl_s[name] += dur
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "counts": dict(self.counts),
            "spans": len(spans),
        }

    def dump(self, path) -> None:
        """Write every span once, as [name, start, end, parent, rep]."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rep"],
                       "spans": [rec + [self.rep] for rec in self.spans]}, fh)


# -- hooks: work counted from arguments and results -------------------------


def _eval_form_hook(tr, args, kwargs, result, dur):
    # remembered for the generation mask that the scan applies to the same rows
    tr._zero_rows = ~result.any(axis=1)


def _mask_hook(tr, args, kwargs, result, dur):
    tr.counts["scan.rows"] += result.shape[0]
    zero = tr._zero_rows
    if zero is not None and zero.shape == result.shape:
        tr.counts["scan.solutions"] += int((result & zero).sum())
    tr._zero_rows = None


def _rref_hook(tr, args, kwargs, result, dur):
    tr.counts["rref.rows"] += args[0].shape[0]


def _span_elements_hook(tr, args, kwargs, result, dur):
    tr.counts["span_elements.vectors"] += result.shape[0]


def _char_transform_hook(tr, args, kwargs, result, dur):
    tr.counts["char_transform.cells"] += result.shape[0]


def _compare_hook(tr, args, kwargs, result, dur):
    tr.counts["compare_abs_power.undecided"] += result[0] == "undecided"


def _divisor_table_hook(tr, args, kwargs, result, dur):
    tr.counts["divisor_scan.functionals"] += len(result[1])


def _certify_hook(tr, args, kwargs, result, dur):
    mode = args[0] if args else kwargs["mode"]
    tr.counts[f"certify.{mode}.s"] += dur
    tr.counts["certify.points"] += result.grid_points


def _map_reduce_hook(tr, args, kwargs, result, dur):
    tr.counts["map_reduce.shards"] += len(args[1] if len(args) > 1 else kwargs["shards"])


def _cache_hook(name):
    key_of = _CACHE_KEYS[name]

    def hook(tr, args, kwargs, result, dur):
        key = (name, key_of(*args, **kwargs))
        tr.counts["cache.calls"] += 1
        if key in tr.cache_keys:
            tr.counts["cache.reuses"] += 1
        tr.cache_keys.add(key)

    return hook


_HOOKS = {
    "counting.batch_eval_form": _eval_form_hook,
    "counting.batch_generating_mask": _mask_hook,
    "linalg.rref": _rref_hook,
    "linalg.span_elements": _span_elements_hook,
    "expsums.char_transform": _char_transform_hook,
    "arith.compare_abs_power": _compare_hook,
    "sections.minimal_divisor_table": _divisor_table_hook,
    "bounds.certify": _certify_hook,
    "parallel.map_reduce": _map_reduce_hook,
    **{name: _cache_hook(name) for name in _CACHE_KEYS},
}
