"""Span tracing of psikit's layers from outside the program.

The tracer wraps public functions and methods of psikit's modules and records
one span per call: name, start, end, parent span and thread.  Spans are kept
in memory and written out once, after the traced pass.  A module that imported
a function by name holds its own binding, as does a registry dict such as
``mersenne.METHODS``; ``install`` replaces every such binding, so no call goes
untraced.  A target the program no longer has is skipped: its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter

# "<module>.<attribute path>" of every traced function; the path is also the
# span name, except where SPAN_NAMES names each call.
TARGETS = [
    "psicore.ladder_step",
    "psicore.psi_mod_ladder",
    "psicore.psi_recurrence",
    "psicore.psi_symbolic",
    "mersenne.ll_chain",
    "mersenne.ab_ratios",
    "mersenne.ll_classic",
    "mersenne.psi_test",
    "mersenne.mu_pattern_test",
    "mersenne.enhanced_sum_test",
    "mersenne.necessary_condition",
    "mersenne.composite_criterion",
    "mersenne.ab_ratio_test",
    "multipoly.SparsePoly.__mul__",
    "multipoly.SparsePoly.__add__",
    "multipoly.SparsePoly.subst",
    "multipoly.SparsePoly.diff",
    "exactmath.QuadExt.__mul__",
    "exactmath.MersenneMod.reduce",
    "eightlevels.coeff_table_polys",
    "eightlevels.verify_expansion",
    "eightlevels.theta_sum_check",
    "eightlevels.coeff_values",
    "eightlevels.expand_powersum_basis",
    "powersums.verify_special_case",
    "bridges.detect_period",
    "bridges.BridgeSpec.check",
    "cli.main",
    "cli.render_records",
]
# One span name per bridge: every bridge is checked by the same method.
SPAN_NAMES = {
    "bridges.BridgeSpec.check": lambda spec, *args, **kwargs: f"bridges.check.{spec.name}",
}

# Functional caches whose hit counts are reported, read from the cached object
# itself (the traced wrapper has no cache).
CACHE_COUNTERS = [("psicore", "psi_symbolic"), ("eightlevels", "coeff_table_polys")]


def psikit_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "psikit" or name.startswith("psikit."))
    ]


def find_caches() -> list:
    """Every functools cache in psikit's modules, module- or class-level.

    Scanning for ``cache_clear`` instead of naming the caches means a cache
    added to the program later is cleared too.
    """
    found = {}
    for mod in psikit_modules():
        for value in list(vars(mod).values()):
            candidates = [value]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                candidates = [getattr(v, "__func__", v) for v in vars(value).values()]
            for obj in candidates:
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def _rebind(old, new) -> None:
    """Point every binding of ``old`` in psikit's modules, in their module-level
    dicts and in their classes at ``new``."""
    for mod in psikit_modules():
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif type(value) is dict:
                for dkey, dval in list(value.items()):
                    if dval is old:
                        value[dkey] = new
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for ckey, cval in list(vars(value).items()):
                    if cval is old:
                        setattr(value, ckey, new)


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span, thread id]
        self.terms_created = 0
        self.cache_hits: dict[str, int] = {}
        self._local = threading.local()
        self._caches: list[tuple[str, object]] = []

    def _wrap(self, fn, name, name_of=None):
        """``fn`` recording one span per call, named ``name`` or, when given,
        ``name_of(*args, **kwargs)``."""
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name_of(*args, **kwargs) if name_of else name, 0.0, 0.0,
                   stack[-1] if stack else None, threading.get_ident()]
            spans.append(rec)
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target present in the imported psikit modules."""
        mods = {m.__name__.rpartition(".")[2]: m for m in psikit_modules()}
        for modname, attr in CACHE_COUNTERS:
            fn = getattr(mods.get(modname), attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches.append((f"{modname}.{attr}", fn))
        for target in TARGETS:
            modname, *outer, attr = target.split(".")
            owner = mods.get(modname)
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is not None:
                _rebind(fn, self._wrap(fn, target, SPAN_NAMES.get(target)))
        poly = getattr(mods.get("multipoly"), "SparsePoly", None)
        if poly is not None:
            self._wrap_poly_init(poly)

    def _wrap_poly_init(self, poly) -> None:
        """SparsePoly.__init__ also counts the terms of every new polynomial."""
        init = poly.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer.terms_created += len(obj.terms)

        poly.__init__ = self._wrap(counting_init, "multipoly.SparsePoly.__init__")

    def harvest_cache_hits(self) -> None:
        """Add the hits since the last clear; call before clearing the caches."""
        for name, fn in self._caches:
            self.cache_hits[name] = self.cache_hits.get(name, 0) + fn.cache_info().hits

    def metrics(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` per span name, the cache hit
        counts and ``multipoly.terms_created``.

        Self time is a span's duration minus the durations of its child spans.
        """
        child_time: dict[int, float] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + (end - start)
        out: dict[str, float] = {}
        for rec in self.spans:
            name, start, end = rec[0], rec[1], rec[2]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            self_s = (end - start) - child_time.get(id(rec), 0.0)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        for name, hits in self.cache_hits.items():
            out[f"{name}.cache_hits"] = hits
        out["multipoly.terms_created"] = self.terms_created
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, thread) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": None if parent is None else index[id(parent)],
                            "thread": thread,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
