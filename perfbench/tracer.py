"""Per-layer tracing of charp from outside the package.

``Tracer.install`` wraps charp's public module functions, plus the few
private functions and methods the per-layer metrics need, and rebinds every
name that refers to them: the defining module, every module that imported
the name with ``from .x import y``, and the ``charp`` package itself.  Each
call becomes a span (name, start, end, parent) kept in flat in-memory arrays;
``write`` stores them once the pass is over, and ``layer_metrics`` derives
counts and self times from them.  No file under ``src/`` is changed.
"""

import functools
import inspect
import json
from array import array
from time import perf_counter

MODULES = ("rings", "ideals", "frobenius", "cartier", "thresholds",
           "regions", "basischange", "cli")

# Private functions and methods that the per-layer metrics count or time.
EXTRA = (("rings", "Polynomial", "__mul__"), ("rings", "Polynomial", "lead"),
         ("ideals", "Ideal", "groebner"), ("ideals", None, "_spoly"),
         ("thresholds", "_TauProbe", "tau"),
         ("regions", None, "_tau_at_cell"))


class CountingDict(dict):
    """Stands in for a module-level cache dict and counts lookups that hit."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.hits += 1
        return value


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.zero_results = array("l")  # spans of normal_form that gave 0
        self.terms_in = 0               # terms handed to frobenius.decompose
        self._stack = []
        self._patches = []

    # --- installation -------------------------------------------------------------
    def install(self):
        import charp.cli  # binds charp with every module loaded
        mods = {name: getattr(charp, name) for name in MODULES}
        wrappers = {}  # id(original) -> wrapper

        def add(short, fn, owner_name=None):
            qual = f"{short}.{owner_name + '.' if owner_name else ''}{fn.__name__}"
            observe = {"ideals.normal_form": self._observe_zero,
                       "frobenius.decompose": self._observe_terms}.get(qual)
            wrappers[id(fn)] = self._wrap(fn, qual, observe)

        for short, mod in mods.items():
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    add(short, val)
        for short, owner, attr in EXTRA:
            holder = getattr(mods[short], owner) if owner else mods[short]
            add(short, vars(holder)[attr], owner)
        holders = [charp, *mods.values()]
        for mod in mods.values():
            holders += [v for v in vars(mod).values()
                        if inspect.isclass(v) and v.__module__ == mod.__name__]
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patches.append((holder, attr, val))
                    setattr(holder, attr, wrapper)
        self.tau_cache = CountingDict(mods["cartier"]._tau_cache)
        self._patches.append((mods["cartier"], "_tau_cache",
                              mods["cartier"]._tau_cache))
        mods["cartier"]._tau_cache = self.tau_cache
        self._pow_cached = mods["rings"]._pow_cached
        self._pow_before = self._pow_cached.cache_info()

    def uninstall(self):
        for holder, attr, val in reversed(self._patches):
            setattr(holder, attr, val)
        self._patches.clear()

    def _wrap(self, fn, name, observe):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            s_end.append(0.0)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _observe_zero(self, idx, args, result):
        if not result.terms:
            self.zero_results.append(idx)

    def _observe_terms(self, idx, args, result):
        self.terms_in += len(args[0].terms)

    # --- results ------------------------------------------------------------------
    def write(self, path):
        """Store the spans: ``path`` + ".json" names the fields, ``path`` +
        ".bin" holds the four arrays back to back in native byte order."""
        fields = [("name", self.span_name), ("parent", self.span_parent),
                  ("start", self.span_start), ("end", self.span_end)]
        with open(path + ".bin", "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"spans": len(self.span_start), "names": self.names,
                       "arrays": [[k, a.typecode, a.itemsize] for k, a in fields],
                       "clock": "time.perf_counter seconds"}, fh, indent=1)

    def layer_metrics(self):
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        name, parent = self.span_name, self.span_parent
        start, end = self.span_start, self.span_end
        for i in range(len(start)):
            d = end[i] - start[i]
            calls[name[i]] += 1
            self_s[name[i]] += d
            if parent[i] >= 0:
                self_s[name[parent[i]]] -= d
        ids = {q: i for i, q in enumerate(self.names)}

        def count(q):
            return calls[ids[q]]

        def own(*qs):
            return sum(self_s[ids[q]] for q in qs)

        def children_of(child, of):
            c, o = ids[child], ids[of]
            return sum(1 for i in range(len(start))
                       if name[i] == c and parent[i] >= 0 and name[parent[i]] == o)

        def ratio(a, b):
            return a / b if b else 0.0

        bb = ids["ideals.buchberger"]
        zero = sum(1 for i in self.zero_results
                   if parent[i] >= 0 and name[parent[i]] == bb)
        spairs = count("ideals._spoly")
        tau_calls = count("cartier.tau_mixed")
        info, before = self._pow_cached.cache_info(), self._pow_before
        pow_hits = info.hits - before.hits
        pow_lookups = pow_hits + info.misses - before.misses
        layers = {f"{m}.self_s": own(*(q for q in self.names if q.startswith(m + ".")))
                  for m in MODULES}
        return {
            **layers,
            "regions.raster_self_s": own("regions.constancy_raster"),
            "regions.cells": count("regions._tau_at_cell"),
            "cartier.tau_calls": tau_calls,
            "cartier.tau_cache_hits": self.tau_cache.hits,
            "cartier.tau_cache_hit_ratio": ratio(self.tau_cache.hits, tau_calls),
            "cartier.chain_steps": children_of("frobenius.bracket_root",
                                               "cartier.tau_mixed"),
            "cartier.tau_self_s": own("cartier.tau_mixed"),
            "thresholds.tau_probes": count("thresholds._TauProbe.tau"),
            "frobenius.bracket_root_calls": count("frobenius.bracket_root"),
            "frobenius.decompose_self_s": own("frobenius.decompose"),
            "frobenius.decompose_terms_in": self.terms_in,
            "ideals.groebner_calls": count("ideals.Ideal.groebner"),
            "ideals.buchberger_runs": count("ideals.buchberger"),
            "ideals.spairs": spairs,
            "ideals.zero_reductions": zero,
            "ideals.useful_pair_ratio": ratio(spairs - zero, spairs),
            "ideals.normal_form_calls": count("ideals.normal_form"),
            "ideals.buchberger_self_s": own("ideals.buchberger"),
            "ideals.normal_form_self_s": own("ideals.normal_form"),
            "ideals.reduce_basis_self_s": own("ideals.reduce_basis"),
            "rings.mul_calls": count("rings.Polynomial.__mul__"),
            "rings.mul_self_s": own("rings.Polynomial.__mul__"),
            "rings.pow_calls": count("rings.pow_poly"),
            "rings.pow_cache_hits": pow_hits,
            "rings.pow_cache_hit_ratio": ratio(pow_hits, pow_lookups),
            "rings.lead_calls": count("rings.Polynomial.lead"),
            "basischange.xi_evals": count("basischange.xi_operator")
            + count("basischange.xi_operator_poly"),
            "basischange.xi_self_s": own("basischange.xi_operator",
                                         "basischange.xi_operator_poly"),
            "basischange.det_self_s": own("basischange.det_mod_p"),
        }
