"""Spans and counters around homlab's public functions, installed from outside.

The tracer rebinds every name under which a homlab module holds one of the
wrapped functions, so calls between modules (``bounds`` calling
``sw_height``, ``complexes`` calling ``gf2_rank``) are seen as well as the
benchmark's own.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

import checks

# Module -> public functions given a span named "<module>.<function>".
SPANNED = {
    "graphs": ("connected_graphs", "chromatic_number", "search_equivariant_map"),
    "hom": ("enumerate_hom", "induced_involution", "verify_certificate"),
    "complexes": ("order_complex", "quotient_with_w1", "cup_power", "is_coboundary",
                  "betti_mod2", "sw_height"),
    "gf2": ("gf2_rank", "gf2_solvable", "rank_sparse"),
    "bounds": ("check_swt_bound", "bound_suite", "theorem2_pipeline"),
}
# Spans whose rise of the process's peak RSS is recorded.
RSS_SPANS = ("hom.enumerate_hom", "complexes.order_complex", "complexes.is_coboundary")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Wraps homlab on construction; :meth:`uninstall` restores it."""

    def __init__(self, homlab):
        # [name, parent span index or -1, start, end, seconds of tracer
        # bookkeeping inside the span, which its duration leaves out]
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._undo = []
        self._leq_calls = [0]
        after = {
            "hom.enumerate_hom": self._after_enumerate,
            "complexes.order_complex": self._after_order_complex,
            "gf2.gf2_rank": self._after_gf2_rank,
        }
        for module, names in SPANNED.items():
            mod = getattr(homlab, module)
            for fn_name in names:
                name = f"{module}.{fn_name}"
                original = getattr(mod, fn_name)
                self._rebind(original, self._wrap(name, original, after.get(name)))

        poset_cls = homlab.HomPoset
        leq, calls = poset_cls.leq, self._leq_calls

        def counted_leq(poset, i, j):
            calls[0] += 1
            return leq(poset, i, j)
        self._set(poset_cls, "leq", counted_leq)

        labels = poset_cls.__dict__["component_labels"]
        traced = cached_property(self._wrap("hom.components", labels.func,
                                            self._after_components))
        traced.__set_name__(poset_cls, "component_labels")
        self._set(poset_cls, "component_labels", traced)

    # -- installation ------------------------------------------------------

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type)
                           else getattr(obj, attr)))
        setattr(obj, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "homlab" or mod_name.startswith("homlab."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def _wrap(self, name, fn, after=None):
        spans, open_, counts = self.spans, self._open, self.counts
        rss = name in RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0, 0.0]
            spans.append(span)
            open_.append(idx)
            counts[name + "_calls"] += 1
            rss0 = peak_rss_mb() if rss else 0.0
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_.pop()
            if rss:
                counts[name + ".rss_rise_mb"] += peak_rss_mb() - rss0
            if after is not None:
                t0 = time.perf_counter()
                after(result, args)
                # The bookkeeping is not work of the enclosing spans.
                spent = time.perf_counter() - t0
                for i in open_:
                    spans[i][4] += spent
            return result
        return wrapper

    # -- counters read off results -----------------------------------------

    def _after_enumerate(self, poset, args) -> None:
        self.counts["hom.elements"] += len(poset.elements)
        self.counts["hom.atoms"] += checks.count_atoms(poset.elements)

    def _after_order_complex(self, x, args) -> None:
        for d in range(x.dim + 1):
            self.counts["complexes.simplices"] += x.n_simplices(d)
            self.counts[f"complexes.simplices.d{d}"] += x.n_simplices(d)

    def _after_gf2_rank(self, rank, args) -> None:
        self.counts["gf2.dense_cells"] += math.prod(getattr(args[0], "shape", (0,)))

    def _after_components(self, labels, args) -> None:
        self.counts["hom.components"] += len(set(labels))

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Totals: "<span>_s", "<span>.self_s" and every counter."""
        total = defaultdict(float)
        children = defaultdict(float)
        for name, parent, start, end, excluded in self.spans:
            total[name] += end - start - excluded
            if parent >= 0:
                children[parent] += end - start - excluded
        own = defaultdict(float)
        for i, (name, _, start, end, excluded) in enumerate(self.spans):
            own[name] += end - start - excluded - children[i]
        out = {}
        for module, names in SPANNED.items():
            for fn_name in names:
                name = f"{module}.{fn_name}"
                out[name + "_s"] = total[name]
                out[name + ".self_s"] = own[name]
        out["hom.components_s"] = total["hom.components"]
        out.update(self.counts)
        out["hom.leq_calls"] = self._leq_calls[0]
        return defaultdict(int, out)

    def dump(self, stream) -> None:
        """All spans as one JSON line, times relative to the first start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        json.dump({"spans": [[n, p, s - t0, e - t0, x] for n, p, s, e, x in self.spans]},
                  stream, separators=(",", ":"))
        stream.write("\n")
