"""Spans recorded around calls into qcohere's public functions.

The tracer replaces each traced function in every qcohere module namespace
that holds it, so calls the package makes internally are traced too. A span
is (layer, start, end, parent span, item id); spans stay in memory until
the run ends. A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer name -> (module, public function)
LAYERS = {
    "states.canonicalize": ("states", "canonicalize"),
    "states.tensor_power": ("states", "tensor_power"),
    "states.check_density": ("states", "check_density"),
    "simplex.majorizes": ("simplex", "majorizes"),
    "simplex.ttransform_chain": ("simplex", "ttransform_chain"),
    "channels.is_complete": ("channels", "is_complete"),
    "channels.is_incoherent": ("channels", "is_incoherent"),
    "channels.apply_selective": ("channels", "apply_selective"),
    "channels.compose": ("channels", "compose"),
    "conversion.probability": ("conversion", "conversion_probability"),
    "conversion.ladder": ("conversion", "build_ladder"),
    "conversion.filter": ("conversion", "filter_operator"),
    "conversion.deterministic": ("conversion", "deterministic_protocol"),
    "conversion.optimal_protocol": ("conversion", "optimal_protocol"),
    "conversion.verify": ("conversion", "verify_protocol"),
    "conversion.multicopy": ("conversion", "multicopy_probability"),
    "fileio.save_protocol": ("fileio", "save_protocol"),
    "fileio.load_protocol": ("fileio", "load_protocol"),
    "measures.roof": ("measures", "convex_roof_upper"),
}

# layers whose result size is counted: layer -> count name
RESULT_COUNTS = {"channels.compose": "channels.compose_products"}

ROOT = -1


class Tracer:
    """Records spans while an item is open; passes calls straight through otherwise."""

    def __init__(self):
        self.spans = []  # (layer, start, end, parent, item)
        self.counts = defaultdict(int)  # (count name, item) -> total
        self.functional = defaultdict(lambda: [0.0, 0])  # span -> [seconds, calls]
        self._stack = []
        self._item = None
        self._saved = []

    # -- items -------------------------------------------------------------
    def open_item(self, item_id):
        self._item = item_id
        self._stack.append(len(self.spans))
        self.spans.append(None)
        return time.perf_counter()

    def close_item(self, start):
        end = time.perf_counter()
        idx = self._stack.pop()
        self.spans[idx] = ("item", start, end, ROOT, self._item)
        self._item = None
        return end

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_name = RESULT_COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            item = self._item
            if item is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else ROOT
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, item)
            if count_name is not None:
                self.counts[(count_name, item)] += len(out)
            return out

        return traced

    def timed_functional(self, evaluate):
        """Wrap a functional's evaluate: calls are summed per enclosing span,
        not recorded one by one (a roof search makes ~10^5 of them)."""
        stack, clock, acc = self._stack, time.perf_counter, self.functional

        def timed(x):
            if self._item is None:
                return evaluate(x)
            start = clock()
            out = evaluate(x)
            slot = acc[stack[-1]]
            slot[0] += clock() - start
            slot[1] += 1
            return out

        return timed

    def install(self):
        """Replace every traced function in all loaded qcohere modules."""
        import qcohere

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qcohere" or name.startswith("qcohere."))]
        for layer, (modname, fname) in LAYERS.items():
            original = getattr(getattr(qcohere, modname), fname)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------
    def self_times(self):
        """[(layer, item, self seconds)] for every closed span."""
        child = defaultdict(float)
        for layer, start, end, parent, item in self.spans:
            if parent != ROOT:
                child[parent] += end - start
        for idx, (secs, _) in self.functional.items():
            child[idx] += secs
        return [
            (layer, item, (end - start) - child[idx])
            for idx, (layer, start, end, parent, item) in enumerate(self.spans)
        ]

    def functional_totals(self):
        """(seconds, calls) over all timed functional calls, by item."""
        out = defaultdict(lambda: [0.0, 0])
        for idx, (secs, calls) in self.functional.items():
            item = self.spans[idx][4]
            out[item][0] += secs
            out[item][1] += calls
        return out

    def dump(self):
        return [
            {"layer": layer, "start": start, "end": end, "parent": parent, "item": item}
            for layer, start, end, parent, item in self.spans
        ]
